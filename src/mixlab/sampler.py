"""Digraph samplers: uniform stub matching (DCM) and injective out-maps (OCM)."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DegreeSequence, ModelKind, integer_array, validate_degrees
from .errors import BadRange, BadValue
from .rng import RngStream


@dataclass(frozen=True, eq=False)
class Digraph:
    """A realized multigraph: ragged out-edge lists in flat CSR-like storage.

    ``heads[offsets[x]:offsets[x+1]]`` are the head vertices of x's out-edges,
    with multiplicity, in sampling order.  Self-loops and parallel edges are
    kept; the walk semantics need them.

    ``head_stubs`` is the matching of a DCM sample: edge e (position e in
    ``heads``) took head stub ``head_stubs[e]``, stubs numbered in order of
    their head vertex.  It is None for graphs sampled or loaded otherwise.
    """

    seq: DegreeSequence
    heads: np.ndarray
    offsets: np.ndarray
    stream: RngStream
    head_stubs: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.seq.n

    def out_degree(self, x: int) -> int:
        return int(self.offsets[x + 1] - self.offsets[x])

    def out_edges(self, x: int) -> np.ndarray:
        return self.heads[self.offsets[x]:self.offsets[x + 1]]


def _finish(seq: DegreeSequence, heads: np.ndarray, stream: RngStream,
            head_stubs: Optional[np.ndarray] = None) -> Digraph:
    heads = np.asarray(heads, dtype=np.int64)  # callers pass fresh arrays
    for arr in (heads, head_stubs):
        if arr is not None:
            arr.setflags(write=False)
    return Digraph(seq=seq, heads=heads, offsets=seq.out_offsets,
                   stream=stream, head_stubs=head_stubs)


def sample_dcm(seq: DegreeSequence, stream: RngStream) -> Digraph:
    """Match the m tail stubs to a uniform permutation of the m head stubs."""
    if seq.model is not ModelKind.DCM:
        raise BadValue("sample_dcm needs a DCM degree sequence")
    # Shuffling stub indices draws the same numbers as shuffling the slots,
    # so every seed realizes the same graph, and the matching is kept.
    head_stubs = stream.generator().permutation(seq.m)
    return _finish(seq, seq.head_slots[head_stubs], stream, head_stubs)


def sample_ocm(seq: DegreeSequence, stream: RngStream) -> Digraph:
    """Each vertex independently picks d_x distinct targets uniformly.

    Vertices are drawn one out-degree class at a time, classes in
    increasing degree and vertices in order within a class, so the draws
    and their sorted copies take O(m) memory whatever the largest degree.
    A regular sequence is a single class drawn as one (n, d) block.
    """
    if seq.model is not ModelKind.OCM:
        raise BadValue("sample_ocm needs an OCM degree sequence")
    gen = stream.generator()
    degs = seq.out_degrees
    heads = np.empty(seq.m, dtype=np.int64)
    for d in np.unique(degs).tolist():
        rows = np.flatnonzero(degs == d)
        slots = seq.out_offsets[rows][:, None] + np.arange(d)
        heads[slots] = _distinct_rows(gen, seq.n, rows.size, d)
    return _finish(seq, heads, stream)


def _distinct_rows(gen: np.random.Generator, n: int, rows: int,
                   d: int) -> np.ndarray:
    """rows x d uniform draws from [0, n), each row without repeats."""
    # Draw a candidate block and redraw rows with repeats; for d << sqrt(n)
    # almost every row is accepted on the first pass.
    draws = gen.integers(0, n, size=(rows, d), dtype=np.int64)
    for _ in range(64):
        s = np.sort(draws, axis=1)
        bad = (s[:, 1:] == s[:, :-1]).any(axis=1)
        if not bad.any():
            return draws
        draws[bad] = gen.integers(0, n, size=(int(bad.sum()), d),
                                  dtype=np.int64)
    # Rows still repeating after 64 rounds (likely only when d is near
    # sqrt(n) or above) pick their targets one at a time.
    for x in np.flatnonzero(bad):
        picks = set()
        while len(picks) < d:
            picks.add(int(gen.integers(0, n)))
        draws[x] = sorted(picks)
    return draws


def sample_digraph(seq: DegreeSequence, stream: RngStream) -> Digraph:
    if seq.model is ModelKind.DCM:
        return sample_dcm(seq, stream)
    return sample_ocm(seq, stream)


def digraph_to_json(g: Digraph) -> str:
    doc = {
        "seed": {"root_seed": g.stream.root_seed,
                 "stream_index": g.stream.stream_index},
        "model": g.seq.model.value,
        "out_edges": [g.out_edges(x).tolist() for x in range(g.n)],
    }
    return json.dumps(doc)


def digraph_from_json(text: str) -> Digraph:
    doc = json.loads(text)
    model = ModelKind(doc["model"])
    out_edges = doc["out_edges"]
    out_degrees = [len(row) for row in out_edges]
    n = len(out_edges)
    heads = integer_array([h for row in out_edges for h in row], "edge heads")
    if heads.size and (heads.min() < 0 or heads.max() >= n):
        raise BadRange("edge head outside vertex range")
    if model is ModelKind.DCM:
        in_degrees = np.bincount(heads, minlength=n)
        seq = validate_degrees(model, out_degrees, in_degrees)
    else:
        if any(len(set(row)) != len(row) for row in out_edges):
            raise BadValue("OCM out-edges must have distinct targets")
        seq = validate_degrees(model, out_degrees)
    stream = RngStream(doc["seed"]["root_seed"], doc["seed"]["stream_index"])
    return _finish(seq, heads, stream)
