import tracemalloc

import numpy as np
import pytest

from mixlab import sample_digraph, validate_degrees
from mixlab.errors import BadRange, BadValue
from mixlab.experiments import _PAIR_MAX, _pair
from mixlab.rng import (LANE, RngStream, key_table, lane_keys,
                        shared_generator)

from helpers import digraph_to_json


def test_same_stream_replays_identical_draws():
    a = RngStream(123, 5).generator().random(16)
    b = RngStream(123, 5).generator().random(16)
    assert np.array_equal(a, b)


def test_distinct_indices_give_distinct_draws():
    a = RngStream(123, 0).generator().random(16)
    b = RngStream(123, 1).generator().random(16)
    c = RngStream(124, 0).generator().random(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_is_reachable_without_history():
    # stream k must not depend on having drawn from streams < k
    direct = RngStream(9, 1000).generator().random(8)
    for k in range(5):
        RngStream(9, k).generator().random(8)
    again = RngStream(9, 1000).generator().random(8)
    assert np.array_equal(direct, again)


def test_offset_and_lane_arithmetic():
    s = RngStream(7, 3)
    assert s.lane(2) == RngStream(7, 2 * LANE)
    assert s.lane(2, 5) == RngStream(7, 2 * LANE + 5)
    # lanes are wide enough that offsets within one never reach the next
    assert s.lane(1, LANE - 1).stream_index < s.lane(2).stream_index


def test_negative_values_rejected():
    with pytest.raises(BadRange):
        RngStream(-1)
    with pytest.raises(BadRange):
        RngStream(0, -2)


def test_lane_offset_must_stay_inside_its_lane():
    s = RngStream(7)
    assert s.lane(1, LANE - 1).stream_index == 2 * LANE - 1
    # lane(1, 2**32) would be lane(2, 0)
    for k in (LANE, LANE + 5, -1):
        with pytest.raises(BadRange):
            s.lane(1, k)


# ---------------------------------------------------------------------------
# lane_keys / lanes: numpy's SeedSequence keys, derived in one pass

_PAIR_MAXIMA = (_pair(_PAIR_MAX, 0), _pair(0, _PAIR_MAX),
                _pair(_PAIR_MAX, _PAIR_MAX))


def _numpy_key(root, index):
    return np.random.SeedSequence((root, index)).generate_state(2, np.uint64)


@pytest.mark.parametrize("root", [0, 1, 2**32 - 1, 2**32, 2**64 + 3,
                                  2**96, 2**200 + 12345])
def test_lane_keys_equal_numpy_seed_sequence(root):
    # lane 0 holds the one-word indices up to 2**32 - 1; lane 1 starts at
    # 2**32, the first two-word index; lanes 1-7 are the experiments';
    # roots from 2**96 up fill the pool of four words before the index
    for which in (*range(8), 2**32, 2**70):
        ks = [0, 1, LANE - 1, *_PAIR_MAXIMA]
        keys = lane_keys(root, which, np.array(ks))
        assert keys.dtype == np.uint64 and keys.shape == (len(ks), 2)
        for k, key in zip(ks, keys):
            assert np.array_equal(key, _numpy_key(root, which * LANE + k)), \
                (root, which, k)


def test_lane_keys_of_no_offsets():
    assert lane_keys(7, 1, np.array([], dtype=np.int64)).shape == (0, 2)
    assert list(RngStream(7).lanes(1, [])) == []
    assert list(RngStream(7).lanes(1, range(0))) == []


@pytest.mark.parametrize("root,which", [(0, 0), (12, 1), (2**40, 5),
                                        (2**100, 7)])
def test_keyed_streams_draw_what_numpy_draws(root, which):
    ks = [0, 3, LANE - 1, *_PAIR_MAXIMA]
    for k, stream in zip(ks, RngStream(root).lanes(which, ks)):
        assert stream.key is not None
        ref = np.random.Generator(np.random.Philox(
            np.random.SeedSequence((root, which * LANE + k))))
        # the lane() stream of the same index, and a fresh generator per
        # comparison
        twin = RngStream(root).lane(which, k).generator()
        for other in (ref, twin):
            gen = stream.generator()
            assert np.array_equal(gen.random(8), other.random(8))
            assert np.array_equal(gen.permutation(50), other.permutation(50))
            assert np.array_equal(
                gen.integers(0, 2**32 - 1, size=5, dtype=np.uint32),
                other.integers(0, 2**32 - 1, size=5, dtype=np.uint32))


def _three_draws(gen, i):
    """permutation, random and an odd count of uint32 draws, rotated by i so
    that each kind of draw runs first after some other kind left a partial
    buffer or a spare 32-bit word behind."""
    draws = [lambda: gen.permutation(7 + i % 5),
             lambda: gen.random(1 + 2 * (i % 3)),
             lambda: gen.integers(0, 2**32 - 1, size=1 + 2 * (i % 2),
                                  dtype=np.uint32)]
    return [draws[(i + j) % 3]() for j in range(3)]


@pytest.mark.parametrize("root", [0, 2**40, 2**100])
def test_every_stream_carries_numpys_key(root):
    ks = [0, 3, LANE - 1]
    made = [RngStream(root), RngStream(root, 5), RngStream(root, 2**70),
            *(RngStream(root).lane(2, k) for k in ks),
            *RngStream(root).lanes(2, ks)]
    for stream in made:
        assert stream.key.dtype == np.uint64
        assert np.array_equal(stream.key,
                              _numpy_key(root, stream.stream_index)), stream


@pytest.mark.parametrize("root", [0, 2**40, 2**100])
def test_shared_generator_draws_what_a_fresh_one_draws(root):
    laned = list(RngStream(root).lanes(1, range(40)))
    # every third stream is built directly or by lane(), every sixth of
    # them with an index past 2**64, so each kind follows the other
    streams = [laned[i] if i % 3 != 2 else
               RngStream(root, 2**70 + i) if i % 6 == 5 else
               RngStream(root).lane(2, i) for i in range(40)]
    # a key is re-keyed from a key-table row or from a pair of ints
    keys = [s.key if i % 2 else s.key.tolist()
            for i, s in enumerate(streams)]
    gen_ids = {id(shared_generator(key)) for key in keys}
    assert len(gen_ids) == 1
    for i, (stream, key) in enumerate(zip(streams, keys)):
        gen = shared_generator(key)
        assert id(gen) in gen_ids
        got = _three_draws(gen, i)
        want = _three_draws(stream.generator(), i)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_lanes_refuse_offsets_outside_a_lane():
    s = RngStream(7)
    for ks in ([LANE], [0, -1], [5, LANE + 5], [2**64],
               range(LANE - 1, LANE + 1)):
        with pytest.raises(BadRange):
            s.lanes(1, ks)


def test_keyed_stream_is_the_lane_stream():
    s = RngStream(7, 3)
    ks = np.array([0, 9, LANE - 1])
    for k, keyed in zip(ks, s.lanes(2, ks)):
        plain = s.lane(2, int(k))
        assert keyed == plain and hash(keyed) == hash(plain)
        assert repr(keyed) == repr(plain)
        assert type(keyed.stream_index) is int
    (single,) = s.lanes(2, [4])
    assert single == s.lane(2, 4) and single.key is not None


def test_digraph_from_a_keyed_stream_records_its_seed():
    seq = validate_degrees("dcm", [2, 3, 2, 2], [3, 2, 2, 2])
    for k, stream in zip(range(4), RngStream(11).lanes(1, range(4))):
        keyed = sample_digraph(seq, stream)
        plain = sample_digraph(seq, RngStream(11).lane(1, k))
        assert np.array_equal(keyed.heads, plain.heads)
        assert digraph_to_json(keyed) == digraph_to_json(plain)


def test_lanes_hold_sixteen_bytes_per_stream():
    count = 10**5
    s = RngStream(3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        streams = s.lanes(1, range(count))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 16 * count <= held <= 16 * count + 4096, held
    assert sum(1 for _ in streams) == count


@pytest.mark.parametrize("bad", [1.5, "3", True, None, np.float64(2.0)])
def test_a_seed_or_stream_index_must_be_an_integer(bad):
    with pytest.raises(BadValue, match="root_seed"):
        RngStream(bad)
    with pytest.raises(BadValue, match="stream_index"):
        RngStream(1, bad)
    with pytest.raises(BadRange, match="stream_index"):
        RngStream(1, -1)
    # any nonnegative Python or numpy integer is one, however large
    for seed in (2**64 + 1, np.uint64(2**63), np.int32(7)):
        stream = RngStream(seed, seed)
        assert stream.root_seed == seed and type(stream.root_seed) is int
        assert type(stream.stream_index) is int
        assert np.array_equal(stream.key, _numpy_key(int(seed), int(seed)))


def test_lane_refuses_a_non_integer_lane_or_offset():
    s = RngStream(7)
    for which, k in ((1, 1.5), (True, 3), (1, True), (1.0, 2), (1, "3")):
        with pytest.raises(BadValue):
            s.lane(which, k)
    for bad in ([1.5], ["3"], [True, 2], [0, np.True_]):
        with pytest.raises(BadValue):
            s.lanes(1, bad)
    with pytest.raises(BadValue):
        s.lanes(True, [3])
    # out of range stays BadRange, past int64 too; an integral float is
    # an offset, as it is a count elsewhere
    for ks in ([2**64], [-1], [LANE]):
        with pytest.raises(BadRange):
            s.lanes(1, ks)
    with pytest.raises(BadRange):
        s.lane(1, -1)
    (two,) = s.lanes(1, [2.0])
    assert two == s.lane(1, 2) and type(two.stream_index) is int


def test_a_key_table_is_a_b_by_two_uint64_array():
    keys = lane_keys(5, 1, range(3))
    assert key_table(keys) is keys and key_table(keys[:0]).shape == (0, 2)
    for bad in (keys.tolist(), keys[0], keys[:, :1], keys.astype(np.int64),
                keys[None], np.zeros((2, 3), np.uint64), None, "keys"):
        with pytest.raises(BadValue, match="uint64 table"):
            key_table(bad)
    # a row of a table and its pair of ints key the same draws
    assert np.array_equal(shared_generator(keys[1]).random(3),
                          shared_generator(keys[1].tolist()).random(3))
