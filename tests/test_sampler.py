"""Sampler law checks against exact enumeration, plus structural invariants."""

import itertools
import json
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from mixlab import (RngStream, sample_digraph, sample_tables, sampler,
                    validate_degrees)
from mixlab.core import index_dtype_for
from mixlab.errors import BadRange, BadValue
from mixlab.rng import lane_keys

from helpers import digraph_from_json, digraph_to_json, matching_law


TRIPLE = validate_degrees("dcm", [2, 2, 2], [2, 2, 2])


def multiplicity_key(g):
    mat = np.zeros((g.n, g.n), dtype=int)
    for x in range(g.n):
        for y in g.out_edges(x):
            mat[x, int(y)] += 1
    return tuple(mat.ravel())


def test_dcm_matches_enumerated_matching_law():
    law = matching_law(TRIPLE)
    samples = 4000
    observed = Counter(
        multiplicity_key(sample_digraph(TRIPLE, RngStream(42, r)))
        for r in range(samples)
    )
    assert set(observed) <= set(law)
    keys = sorted(law)
    exp = np.array([law[k] * samples for k in keys])
    obs = np.array([observed.get(k, 0) for k in keys])
    _, p = stats.chisquare(obs, exp)
    assert p > 0.001


def chi_square_p(rows, cells):
    """p of a chi-square test of the rows against the uniform law on cells."""
    observed = Counter(map(tuple, rows.tolist()))
    assert set(observed) <= set(cells)
    obs = np.array([observed[cell] for cell in cells])
    return stats.chisquare(obs, np.full(len(cells), len(rows) / len(cells)))[1]


def test_table_matchings_follow_the_exact_uniform_law():
    # every degree 2 and n = 3: the 6! = 720 matchings are equally likely
    rows = 20_000
    heads, stubs = sample_tables(TRIPLE, lane_keys(11, 1, range(rows)))
    assert np.array_equal(heads, TRIPLE.head_slots[stubs])
    assert chi_square_p(stubs, list(itertools.permutations(range(6)))) > 1e-3


def test_table_out_maps_follow_the_exact_uniform_law():
    # n = 4, d = 2: each vertex takes one of the 12 ordered pairs of
    # distinct targets, uniformly and independently of the others.  An OCM
    # row costs about 40 us to draw, so half the matchings' rows keep the
    # test near 0.5 s; the coarsest cells still expect about 70 rows
    seq = validate_degrees("ocm", [2] * 4)
    rows = 10_000
    heads, stubs = sample_tables(seq, lane_keys(12, 1, range(rows)))
    assert stubs is None
    pairs = list(itertools.permutations(range(4), 2))
    for x in range(4):
        assert chi_square_p(heads[:, 2 * x:2 * x + 2], pairs) > 1e-3
    assert chi_square_p(heads[:, :4], [a + b for a in pairs
                                      for b in pairs]) > 1e-3


def test_dcm_preserves_in_degrees_exactly():
    seq = validate_degrees("dcm", [3, 2, 4, 2, 3], [2, 3, 3, 4, 2])
    for r in range(5):
        g = sample_digraph(seq, RngStream(0, r))
        counts = np.bincount(g.heads, minlength=seq.n)
        assert np.array_equal(counts, seq.in_degrees)
        assert np.array_equal(np.diff(g.offsets), seq.out_degrees)


def test_ocm_targets_are_distinct_and_uniform():
    seq = validate_degrees("ocm", [2, 2, 2])
    counts = Counter()
    samples = 3000
    for r in range(samples):
        g = sample_digraph(seq, RngStream(7, r))
        row = g.out_edges(0)
        assert len(set(row.tolist())) == 2
        counts[frozenset(row.tolist())] += 1
    # 3 possible 2-subsets of {0,1,2}, each 1/3
    exp = np.full(3, samples / 3)
    obs = np.array([counts[frozenset(s)] for s in ({0, 1}, {0, 2}, {1, 2})])
    _, p = stats.chisquare(obs, exp)
    assert p > 0.001


def test_ocm_handles_degrees_near_n():
    seq = validate_degrees("ocm", [4, 5, 4, 2, 3])
    g = sample_digraph(seq, RngStream(3))
    for x in range(5):
        row = g.out_edges(x).tolist()
        assert len(set(row)) == len(row)
    full = validate_degrees("ocm", [5] * 5)
    g2 = sample_digraph(full, RngStream(4))
    for x in range(5):
        assert sorted(g2.out_edges(x).tolist()) == [0, 1, 2, 3, 4]


def whole_block_ocm_heads(seq, stream):
    """The OCM sampler that drew one (n, max degree) block for all vertices
    at once, kept as the reference for regular sequences."""
    gen = stream.generator()
    n = seq.n
    degs = seq.out_degrees
    dmax = int(degs.max())
    draws = gen.integers(0, n, size=(n, dmax), dtype=np.int64)
    mask = np.arange(dmax)[None, :] < degs[:, None]
    draws[~mask] = -np.arange(1, dmax * n + 1).reshape(n, dmax)[~mask]
    for _ in range(64):
        s = np.sort(draws, axis=1)
        bad = (s[:, 1:] == s[:, :-1]).any(axis=1)
        if not bad.any():
            break
        redraw = gen.integers(0, n, size=(int(bad.sum()), dmax),
                              dtype=np.int64)
        sub = draws[bad]
        sub[mask[bad]] = redraw[mask[bad]]
        draws[bad] = sub
    else:
        for x in np.nonzero(bad)[0]:
            d = int(degs[x])
            picks = {}
            while len(picks) < d:
                picks[int(gen.integers(0, n))] = None
            draws[x, :d] = list(picks)
    return draws[mask]


class _RepeatingBlocks:
    """A generator whose block draws are all zeros, so every row repeats,
    and whose scalar draws come from a script."""

    def __init__(self, scalars):
        self.scalars = iter(scalars)

    def integers(self, low, high, size=None, dtype=np.int64):
        return next(self.scalars) if size is None else np.zeros(size, dtype)


def test_fallback_ocm_rows_keep_their_draw_order():
    # a row past the 64 rounds takes its targets in order of first draw, as
    # every accepted row keeps its draw order; they were sorted before
    gen = _RepeatingBlocks([3, 1, 3, 0, 2])
    rows = sampler._distinct_rows(gen, 4, 1, 4)
    assert rows.tolist() == [[3, 1, 0, 2]]


def test_regular_ocm_draws_the_whole_block_samplers_graphs():
    # n = d = 5 and n = 10, d = 5 redraw many rows, some of them past the
    # 64 rounds; regular:3 at n = 30 is the weight-lln CLI case
    for n, d in ((30, 3), (5, 5), (10, 5), (200, 14), (6, 2)):
        seq = validate_degrees("ocm", [d] * n)
        for seed in range(10):
            stream = RngStream(seed, 3)
            assert np.array_equal(sample_digraph(seq, stream).heads,
                                  whole_block_ocm_heads(seq, stream))


def test_ocm_memory_is_linear_with_a_hub():
    # one vertex of degree 1000 among 10^5: a block of n x max-degree
    # draws would take 800 MB, the per-class draws take O(m + n)
    n = 100_000
    with pytest.warns(UserWarning, match="max degree"):
        seq = validate_degrees("ocm", [1000] + [2] * (n - 1))
    tracemalloc.start()
    try:
        g = sample_digraph(seq, RngStream(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * (seq.m + n)
    for x in (0, 1, n - 1):
        row = g.out_edges(x).tolist()
        assert len(set(row)) == len(row) == seq.out_degrees[x]


# OCM n = 32, d = 5 (d near sqrt(n)) redraws rows in _distinct_rows' loop,
# n = d = 5 also past its 64 rounds; the mixed sequences hold several
# degree classes, one draw each.  n is a power of two where it can be: there
# a zero word from a stale buffer is a valid draw, while for other n the
# bounded draw rejects it and the stale buffer would go unseen.
KEYED_SEQS = [validate_degrees("dcm", [2, 3, 2, 3, 4], [3, 3, 2, 2, 4]),
              validate_degrees("dcm", [3] * 40, [3] * 40),
              validate_degrees("ocm", [5] * 32),
              validate_degrees("ocm", [5] * 5),
              validate_degrees("ocm", [2, 3, 4, 5] * 8)]


def _sample_all(seqs, streams):
    return [sample_digraph(seq, stream)
            for stream in streams for seq in seqs]


@pytest.mark.parametrize("seq", KEYED_SEQS, ids=range(len(KEYED_SEQS)))
def test_keyed_samples_equal_the_fresh_generator_oracle(seq, monkeypatch):
    streams = list(RngStream(21).lanes(1, range(60)))
    got = _sample_all([seq], streams)
    monkeypatch.setattr(sampler, "shared_generator", lambda key: (
        np.random.Generator(np.random.Philox(key=np.array(key, np.uint64)))))
    want = _sample_all([seq], streams)
    for g, o in zip(got, want):
        assert np.array_equal(g.heads, o.heads)
        # OCM graphs hold no matching: None equals only None here
        assert np.array_equal(g.head_stubs, o.head_stubs)
        assert g.stream == o.stream
        assert np.array_equal(g.stream.key, o.stream.key)


def test_threads_sample_keyed_environments_as_serially():
    lanes = [list(RngStream(8).lanes(which, range(200)))
             for which in range(1, 5)]
    serial = [_sample_all(KEYED_SEQS[1:3], streams) for streams in lanes]
    out = [None] * len(lanes)

    def work(i):
        out[i] = _sample_all(KEYED_SEQS[1:3], lanes[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(lanes))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(out, serial):
        assert [g.heads.tolist() for g in got] == [
            g.heads.tolist() for g in want]


def test_keyed_sampling_builds_at_most_one_generator(monkeypatch):
    calls = []
    fresh = RngStream.generator

    def counted(self):
        calls.append(self)
        return fresh(self)

    monkeypatch.setattr(RngStream, "generator", counted)
    _sample_all(KEYED_SEQS[1:3], RngStream(4).lanes(1, range(100)))
    assert len(calls) <= 1


def test_sampling_is_deterministic_per_stream():
    seq = validate_degrees("dcm", [2, 3, 2, 3], [2, 2, 3, 3])
    a = sample_digraph(seq, RngStream(11, 2))
    b = sample_digraph(seq, RngStream(11, 2))
    c = sample_digraph(seq, RngStream(11, 3))
    assert np.array_equal(a.heads, b.heads)
    assert not np.array_equal(a.heads, c.heads)


def _graph_from_edges(out_edges, model="dcm"):
    doc = {"seed": {"root_seed": 0, "stream_index": 0}, "model": model,
           "out_edges": out_edges}
    return digraph_from_json(json.dumps(doc))


def test_out_edges_reads_its_vertex():
    g = sample_digraph(validate_degrees("dcm", [2, 3, 2], [3, 2, 2]),
                       RngStream(5))
    # -1 read as an empty list, and 3 and True raised outside the package
    for bad, error in ((-1, BadRange), (3, BadRange), (True, BadValue),
                       (1.5, BadValue), ("1", BadValue)):
        with pytest.raises(error):
            g.out_edges(bad)
    assert np.array_equal(g.out_edges(1.0), g.heads[2:5])
    assert np.array_equal(g.out_edges(np.int32(2)), g.heads[5:])


def test_json_round_trip():
    seq = validate_degrees("dcm", [2, 3, 2, 3], [3, 2, 3, 2])
    g = sample_digraph(seq, RngStream(5, 9))
    assert json.loads(digraph_to_json(g))["out_edges"] == [
        g.out_edges(x).tolist() for x in range(g.n)]
    back = digraph_from_json(digraph_to_json(g))
    assert np.array_equal(back.heads, g.heads)
    assert np.array_equal(back.offsets, g.offsets)
    assert back.seq.model == g.seq.model
    assert back.stream == g.stream
    ocm = sample_digraph(validate_degrees("ocm", [2, 2, 3]), RngStream(6))
    back2 = digraph_from_json(digraph_to_json(ocm))
    assert np.array_equal(back2.heads, ocm.heads)


def test_heads_are_held_in_the_index_dtype():
    dcm = validate_degrees("dcm", [2, 3, 4, 2, 3], [3, 2, 2, 4, 3])
    ocm = validate_degrees("ocm", [2, 3, 4, 2, 3])
    graphs = [sample_digraph(dcm, RngStream(1)),
              sample_digraph(ocm, RngStream(1))]
    graphs += [digraph_from_json(digraph_to_json(g)) for g in graphs]
    for g in graphs:
        assert g.heads.dtype == index_dtype_for(g.seq.m) == np.int32
    assert dcm.head_slots.dtype == index_dtype_for(dcm.m)


def test_json_refuses_non_integer_heads():
    with pytest.raises(BadValue):
        _graph_from_edges([[1.7, 2], [0, 2.2], [0, 1]])
    assert _graph_from_edges([[1.0, 2], [0, 2], [0, 1]]).heads.tolist() == [
        1, 2, 0, 2, 0, 1]


GOOD_DOC = {"seed": {"root_seed": 0, "stream_index": 0}, "model": "dcm",
            "out_edges": [[1, 2], [0, 2], [0, 1]]}


@pytest.mark.parametrize("text", [
    "{not json",
    "[1, 2, 3]",
    json.dumps({k: v for k, v in GOOD_DOC.items() if k != "model"}),
    json.dumps({k: v for k, v in GOOD_DOC.items() if k != "seed"}),
    json.dumps({k: v for k, v in GOOD_DOC.items() if k != "out_edges"}),
    json.dumps({**GOOD_DOC, "seed": {"root_seed": 0}}),
    json.dumps({**GOOD_DOC, "seed": 7}),
    json.dumps({**GOOD_DOC, "seed": {"root_seed": "0", "stream_index": 0}}),
    json.dumps({**GOOD_DOC, "out_edges": [1, 2, 3]}),
], ids=["not-json", "not-an-object", "no-model", "no-seed", "no-out-edges",
        "no-stream-index", "seed-not-an-object", "seed-not-an-integer",
        "rows-not-lists"])
def test_json_refuses_a_malformed_document_with_bad_value(text):
    assert digraph_from_json(json.dumps(GOOD_DOC)).n == 3
    with pytest.raises(BadValue):
        digraph_from_json(text)


def test_json_ocm_rejects_repeated_targets():
    # an OCM out-map is injective, so no row may name a target twice
    with pytest.raises(BadValue):
        _graph_from_edges([[1, 1], [0, 2], [0, 1]], model="ocm")
    assert _graph_from_edges([[1, 2], [0, 2], [0, 1]], model="ocm").n == 3


@pytest.mark.parametrize("root_seed, stream_index, field", [
    (2.5, 0, "root_seed"), (True, 0, "root_seed"), (0, 1.0, "stream_index"),
    (0, False, "stream_index")])
def test_json_seed_is_checked_by_the_stream(root_seed, stream_index, field):
    # RngStream checks the seed, so its error names the field
    doc = {**GOOD_DOC, "seed": {"root_seed": root_seed,
                                "stream_index": stream_index}}
    with pytest.raises(BadValue, match=f"{field} must be an integer"):
        digraph_from_json(json.dumps(doc))
    big = {**GOOD_DOC, "seed": {"root_seed": 2**70, "stream_index": 3}}
    assert digraph_from_json(json.dumps(big)).stream == RngStream(2**70, 3)
