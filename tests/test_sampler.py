"""Sampler law checks against exact enumeration, plus structural invariants."""

import itertools
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from mixlab import (RngStream, digraph_from_json, digraph_to_json, sample_dcm,
                    sample_digraph, sample_ocm, validate_degrees)
from mixlab.errors import BadValue


TRIPLE = validate_degrees("dcm", [2, 2, 2], [2, 2, 2])


def multiplicity_key(g):
    mat = np.zeros((g.n, g.n), dtype=int)
    for x in range(g.n):
        for y in g.out_edges(x):
            mat[x, int(y)] += 1
    return tuple(mat.ravel())


def enumerate_matching_law():
    """Exact graph law at n=3: every bijection of 6 tails onto 6 head slots."""
    head_slots = [0, 0, 1, 1, 2, 2]
    tail_owner = [0, 0, 1, 1, 2, 2]
    law = Counter()
    for perm in itertools.permutations(range(6)):
        mat = np.zeros((3, 3), dtype=int)
        for stub, slot in enumerate(perm):
            mat[tail_owner[stub], head_slots[slot]] += 1
        law[tuple(mat.ravel())] += 1
    total = sum(law.values())
    assert total == 720
    return {key: count / total for key, count in law.items()}


def test_dcm_matches_enumerated_matching_law():
    law = enumerate_matching_law()
    samples = 4000
    observed = Counter(
        multiplicity_key(sample_dcm(TRIPLE, RngStream(42, r)))
        for r in range(samples)
    )
    assert set(observed) <= set(law)
    keys = sorted(law)
    exp = np.array([law[k] * samples for k in keys])
    obs = np.array([observed.get(k, 0) for k in keys])
    _, p = stats.chisquare(obs, exp)
    assert p > 0.001


def test_dcm_preserves_in_degrees_exactly():
    seq = validate_degrees("dcm", [3, 2, 4, 2, 3], [2, 3, 3, 4, 2])
    for r in range(5):
        g = sample_dcm(seq, RngStream(0, r))
        counts = np.bincount(g.heads, minlength=seq.n)
        assert np.array_equal(counts, seq.in_degrees)
        assert np.array_equal(np.diff(g.offsets), seq.out_degrees)


def test_ocm_targets_are_distinct_and_uniform():
    seq = validate_degrees("ocm", [2, 2, 2])
    counts = Counter()
    samples = 3000
    for r in range(samples):
        g = sample_ocm(seq, RngStream(7, r))
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
    g = sample_ocm(seq, RngStream(3))
    for x in range(5):
        row = g.out_edges(x).tolist()
        assert len(set(row)) == len(row)
    full = validate_degrees("ocm", [5] * 5)
    g2 = sample_ocm(full, RngStream(4))
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
            picks = set()
            while len(picks) < d:
                picks.add(int(gen.integers(0, n)))
            draws[x, :d] = sorted(picks)
    return draws[mask]


def test_regular_ocm_draws_the_whole_block_samplers_graphs():
    # n = d = 5 and n = 10, d = 5 redraw many rows, some of them past the
    # 64 rounds; regular:3 at n = 30 is the weight-lln CLI case
    for n, d in ((30, 3), (5, 5), (10, 5), (200, 14), (6, 2)):
        seq = validate_degrees("ocm", [d] * n)
        for seed in range(10):
            stream = RngStream(seed, 3)
            assert np.array_equal(sample_ocm(seq, stream).heads,
                                  whole_block_ocm_heads(seq, stream))


def test_ocm_memory_is_linear_with_a_hub():
    # one vertex of degree 1000 among 10^5: a block of n x max-degree
    # draws would take 800 MB, the per-class draws take O(m + n)
    n = 100_000
    with pytest.warns(UserWarning, match="max degree"):
        seq = validate_degrees("ocm", [1000] + [2] * (n - 1))
    tracemalloc.start()
    try:
        g = sample_ocm(seq, RngStream(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * (seq.m + n)
    for x in (0, 1, n - 1):
        row = g.out_edges(x).tolist()
        assert len(set(row)) == len(row) == seq.out_degrees[x]


def test_sampling_is_deterministic_per_stream():
    seq = validate_degrees("dcm", [2, 3, 2, 3], [2, 2, 3, 3])
    a = sample_digraph(seq, RngStream(11, 2))
    b = sample_digraph(seq, RngStream(11, 2))
    c = sample_digraph(seq, RngStream(11, 3))
    assert np.array_equal(a.heads, b.heads)
    assert not np.array_equal(a.heads, c.heads)


def test_model_dispatch_guards():
    dcm = validate_degrees("dcm", [2, 2], [2, 2])
    ocm = validate_degrees("ocm", [2, 2, 2])
    with pytest.raises(BadValue):
        sample_ocm(dcm, RngStream(0))
    with pytest.raises(BadValue):
        sample_dcm(ocm, RngStream(0))


def _graph_from_edges(out_edges, model="dcm"):
    doc = {"seed": {"root_seed": 0, "stream_index": 0}, "model": model,
           "out_edges": out_edges}
    return digraph_from_json(json.dumps(doc))


def test_json_round_trip():
    seq = validate_degrees("dcm", [2, 3, 2, 3], [3, 2, 3, 2])
    g = sample_digraph(seq, RngStream(5, 9))
    back = digraph_from_json(digraph_to_json(g))
    assert np.array_equal(back.heads, g.heads)
    assert np.array_equal(back.offsets, g.offsets)
    assert back.seq.model == g.seq.model
    assert back.stream == g.stream
    ocm = sample_digraph(validate_degrees("ocm", [2, 2, 3]), RngStream(6))
    back2 = digraph_from_json(digraph_to_json(ocm))
    assert np.array_equal(back2.heads, ocm.heads)


def test_json_refuses_non_integer_heads():
    with pytest.raises(BadValue):
        _graph_from_edges([[1.7, 2], [0, 2.2], [0, 1]])
    assert _graph_from_edges([[1.0, 2], [0, 2], [0, 1]]).heads.tolist() == [
        1, 2, 0, 2, 0, 1]


def test_json_ocm_rejects_repeated_targets():
    # an OCM out-map is injective, so no row may name a target twice
    with pytest.raises(BadValue):
        _graph_from_edges([[1, 1], [0, 2], [0, 1]], model="ocm")
    assert _graph_from_edges([[1, 2], [0, 2], [0, 1]], model="ocm").n == 3
