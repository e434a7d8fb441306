"""Property round trips: degree documents and digraph JSON load back equal,
and batch-derived stream keys equal numpy's SeedSequence keys."""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mixlab import (RngStream, load_degree_sequence,  # noqa: E402
                    sample_digraph, validate_degrees)
from mixlab.rng import LANE, lane_keys  # noqa: E402

from helpers import digraph_from_json, digraph_to_json  # noqa: E402


@st.composite
def degree_sequences(draw):
    n = draw(st.integers(2, 30))
    out = draw(st.lists(st.integers(2, n), min_size=n, max_size=n))
    if draw(st.booleans()):
        return validate_degrees("dcm", out, draw(st.permutations(out)))
    return validate_degrees("ocm", out)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(degree_sequences())
def test_degree_document_round_trip(seq):
    doc = {"model": seq.model.value, "out_degrees": seq.out_degrees.tolist()}
    if seq.in_degrees is not None:
        doc["in_degrees"] = seq.in_degrees.tolist()
    back = load_degree_sequence(json.dumps(doc))
    assert back.model is seq.model
    assert (back.n, back.m, back.delta) == (seq.n, seq.m, seq.delta)
    assert np.array_equal(back.out_degrees, seq.out_degrees)
    assert np.array_equal(back.in_degrees, seq.in_degrees)


@st.composite
def sampled_digraphs(draw):
    n = draw(st.integers(2, 12))
    out = draw(st.lists(st.integers(2, min(n, 5)), min_size=n, max_size=n))
    if draw(st.booleans()):
        seq = validate_degrees("dcm", out, draw(st.permutations(out)))
    else:
        seq = validate_degrees("ocm", out)
    stream = RngStream(draw(st.integers(0, 2**32)),
                       draw(st.integers(0, 2**40)))
    return sample_digraph(seq, stream)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(sampled_digraphs())
def test_json_round_trip_keeps_every_sampled_digraph(g):
    back = digraph_from_json(digraph_to_json(g))
    assert np.array_equal(back.heads, g.heads)
    assert np.array_equal(back.offsets, g.offsets)
    assert back.seq.model is g.seq.model
    assert back.stream == g.stream


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2**140), st.integers(0, 2**40),
       st.lists(st.integers(0, LANE - 1), min_size=2, max_size=6))
def test_lane_keys_round_trip_through_seed_sequence(root, which, ks):
    keys = lane_keys(root, which, np.array(ks))
    streams = RngStream(root).lanes(which, ks)
    for k, key, stream in zip(ks, keys, streams):
        seq = np.random.SeedSequence((root, which * LANE + k))
        assert np.array_equal(key, seq.generate_state(2, np.uint64))
        ref = np.random.Generator(np.random.Philox(seq))
        assert np.array_equal(stream.generator().random(4), ref.random(4))
