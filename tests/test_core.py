import io
import json
import math

import numpy as np
import pytest

from mixlab import (DegreeTooLarge, DegreeTooSmall, LengthMismatch,
                    MismatchedSums, ModelKind, ModelMismatch, RngStream,
                    entropic_scale, in_degree_distribution,
                    load_degree_sequence, sample_tables, tv_distance,
                    validate_degrees)
from mixlab.core import integer_array, integer_in
from mixlab.errors import BadRange, BadValue, MissingRequired


def test_validate_accepts_and_freezes_dcm():
    seq = validate_degrees("dcm", [2, 3, 2, 3], [2, 2, 3, 3])
    assert seq.model is ModelKind.DCM
    assert seq.n == 4 and seq.m == 10 and seq.delta == 3
    assert not seq.out_degrees.flags.writeable
    assert not seq.in_degrees.flags.writeable
    with pytest.raises(ValueError):
        seq.out_degrees[0] = 5


def test_validate_rejects_bad_shapes_and_sums():
    with pytest.raises(ModelMismatch):
        validate_degrees("dcm", [2, 2])
    with pytest.raises(ModelMismatch):
        validate_degrees("ocm", [2, 2], [2, 2])
    with pytest.raises(LengthMismatch):
        validate_degrees("dcm", [2, 2, 2], [2, 2])
    with pytest.raises(LengthMismatch):
        validate_degrees("ocm", [])
    with pytest.raises(DegreeTooSmall):
        validate_degrees("dcm", [2, 1, 2], [2, 2, 1])
    with pytest.raises(DegreeTooSmall):
        validate_degrees("dcm", [2, 2, 2], [2, 1, 3])
    with pytest.raises(MismatchedSums):
        validate_degrees("dcm", [2, 2, 2], [2, 2, 3])
    with pytest.raises(DegreeTooLarge):
        validate_degrees("ocm", [4, 2, 2])  # 4 distinct targets among 3


@pytest.mark.parametrize("count", [4, 10])
def test_a_degree_total_past_int64_is_bad_range(count):
    # summed in int64, these totals wrapped to 0 and to -2**63
    with pytest.raises(BadRange, match="int64"):
        validate_degrees("dcm", [2**62] * count, [2**62] * count)
    # the largest total that fits is a valid sequence
    with pytest.warns(UserWarning):
        seq = validate_degrees("dcm", [2**62, 2**62 - 1], [2**62 - 1, 2**62])
    assert seq.m == 2**63 - 1 and type(seq.m) is int


def test_stub_arrays_too_large_to_allocate_are_bad_range():
    # m = 10**15 fits int64, but its stub arrays (8 PB each) fit nowhere,
    # so numpy refuses at once and nothing is allocated
    with pytest.warns(UserWarning):
        seq = validate_degrees("dcm", [10**12] * 1000, [10**12] * 1000)
    for stubs in ("tails", "head_slots"):
        with pytest.raises(BadRange, match="would not fit in memory"):
            getattr(seq, stubs)
    with pytest.raises(BadRange, match="would not fit in memory"):
        sample_tables(seq, RngStream(0).key[None])


def test_large_degree_warns_but_passes():
    with pytest.warns(UserWarning):
        seq = validate_degrees("ocm", [60] * 100)
    assert seq.delta == 60


def test_eulerian_detection():
    assert validate_degrees("dcm", [2, 3], [2, 3]).is_eulerian
    assert not validate_degrees("dcm", [2, 3], [3, 2]).is_eulerian
    assert not validate_degrees("ocm", [2, 3, 2]).is_eulerian


def test_equal_in_and_out_degrees_are_held_once():
    eulerian = validate_degrees("dcm", [2, 3], [2, 3])
    assert eulerian.in_degrees is eulerian.out_degrees
    assert not eulerian.out_degrees.flags.writeable
    mixed = validate_degrees("dcm", [2, 3], [3, 2])
    assert not np.shares_memory(mixed.in_degrees, mixed.out_degrees)


def test_in_degree_distribution_values():
    seq = validate_degrees("dcm", [2, 3, 2, 3], [2, 2, 3, 3])
    mu = in_degree_distribution(seq)
    assert np.allclose(mu, [0.2, 0.2, 0.3, 0.3])
    ocm = validate_degrees("ocm", [2, 3, 2])
    assert np.allclose(in_degree_distribution(ocm), [1 / 3] * 3)


def test_entropic_scale_hand_computed():
    # out degrees [2,3,2,3] against in-law (.2,.2,.3,.3):
    # H = .2 ln2 + .2 ln3 + .3 ln2 + .3 ln3 = (ln 6)/2
    seq = validate_degrees("dcm", [2, 3, 2, 3], [2, 2, 3, 3])
    scale = entropic_scale(seq)
    assert scale.entropy == pytest.approx(0.8958797346140275, abs=1e-14)
    assert scale.entropic_time == pytest.approx(math.log(4) / 0.8958797346140275,
                                               abs=1e-12)


def test_entropy_bounds_for_regular_sequences():
    two = validate_degrees("dcm", [2] * 8, [2] * 8)
    assert entropic_scale(two).entropy == pytest.approx(math.log(2), abs=1e-14)
    five = validate_degrees("ocm", [5] * 8)
    assert entropic_scale(five).entropy == pytest.approx(math.log(5), abs=1e-14)


def test_tv_distance_basics():
    assert tv_distance([1, 0], [0, 1]) == pytest.approx(1.0)
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_distance([0.7, 0.3], [0.3, 0.7]) == pytest.approx(0.4)
    with pytest.raises(LengthMismatch):
        tv_distance([1.0], [0.5, 0.5])


def test_tv_distance_metric_properties():
    gen = np.random.default_rng(5)
    for _ in range(20):
        a, b, c = gen.dirichlet(np.ones(6), size=3)
        ab, ba = tv_distance(a, b), tv_distance(b, a)
        assert ab == pytest.approx(ba)
        assert 0.0 <= ab <= 1.0 + 1e-12
        assert ab <= tv_distance(a, c) + tv_distance(c, b) + 1e-12


def test_load_degree_sequence_from_text_dict_and_file():
    doc = {"model": "dcm", "out_degrees": [2, 2], "in_degrees": [2, 2]}
    from_text = load_degree_sequence(json.dumps(doc))
    from_dict = load_degree_sequence(doc)
    from_file = load_degree_sequence(io.StringIO(json.dumps(doc)))
    for seq in (from_text, from_dict, from_file):
        assert seq.n == 2 and seq.m == 4
    with pytest.raises(BadValue):
        load_degree_sequence({"out_degrees": [2, 2]})
    with pytest.raises(MissingRequired):
        load_degree_sequence({"model": "dcm", "in_degrees": [2, 2]})
    with pytest.raises(BadValue):
        load_degree_sequence({"model": "xyz", "out_degrees": [2, 2]})


@pytest.mark.parametrize("source", ["not json", b"\xff", "[2, 2]"],
                         ids=["not-json", "not-utf-8", "not-an-object"])
def test_load_degree_sequence_refuses_text_that_is_no_json_object(source):
    with pytest.raises(BadValue):
        load_degree_sequence(source)


@pytest.mark.parametrize("out_degrees, in_degrees", [
    ([2.5, 2, 2], [2, 2, 2.5]),
    ([2, 2, 2], [2, 2, math.nan]),
    ([2, 2, math.inf], [2, 2, 2]),
    (["2", 2, 2], [2, 2, 2]),
])
def test_validate_refuses_non_integer_degrees(out_degrees, in_degrees):
    # truncating 2.5 to 2 would silently run a different ensemble
    with pytest.raises(BadValue):
        validate_degrees("dcm", out_degrees, in_degrees)


def test_validate_accepts_integral_floats():
    seq = validate_degrees("dcm", [2.0, 3.0], [3, 2])
    assert seq.out_degrees.dtype == np.int64
    assert list(seq.out_degrees) == [2, 3]


@pytest.mark.parametrize("values", [
    [True, 2], [2, False], (1, np.True_), [True, 2.0], [np.bool_(False)]])
def test_integer_array_refuses_a_bool_among_integers(values):
    # numpy reads [True, 2] as int64, which would silently run as [1, 2]
    with pytest.raises(BadValue, match="bools"):
        integer_array(values, "x")


def test_integer_input_rule_keeps_integral_floats_and_numpy_integers():
    with pytest.raises(BadValue):
        integer_in(True, 0, math.inf, "count")
    assert integer_array([2.0, np.int32(3), 4], "x").tolist() == [2, 3, 4]
    assert integer_array(np.array([1, 0]), "x").tolist() == [1, 0]
    assert integer_array(range(3), "x").tolist() == [0, 1, 2]
    assert integer_in(2.0, 1, math.inf, "count") == 2
    assert type(integer_in(np.int64(3), 1, math.inf, "count")) is int
    with pytest.raises(BadRange, match=r"must lie in \[1, inf\), got 0$"):
        integer_in(0, 1, math.inf, "count")
    # an integer numpy cannot hold is out of range, not malformed
    with pytest.raises(BadRange):
        integer_array([2**64], "x")
    with pytest.raises(BadValue):
        integer_array([2**64, 1.5], "x")
