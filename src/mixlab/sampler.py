"""Digraph samplers: uniform stub matching (DCM) and injective out-maps (OCM).

``sample_tables`` is the one sampler: it draws B environments, one per
row of a (B, 2) key table (see ``rng.lane_keys``), into (B, m) tables of
heads and, for DCM, matchings, with no object per environment;
``sample_matchings`` draws its DCM matchings alone.  ``sample_digraph``
wraps its one-row case, keyed by its stream's key, as a ``Digraph``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import (DegreeSequence, ModelKind, allocating, index_dtype_for,
                   integer_in)
from .rng import RngStream, key_table, shared_generator


@dataclass(frozen=True, eq=False)
class Digraph:
    """A realized multigraph: ragged out-edge lists in flat CSR-like storage.

    ``heads[offsets[x]:offsets[x+1]]`` are the head vertices of x's out-edges,
    with multiplicity, in sampling order, in the sequence's index dtype
    (``index_dtype_for(m)``).  Self-loops and parallel edges are kept; the
    walk semantics need them.

    ``head_stubs`` is the matching of a DCM sample: edge e (position e in
    ``heads``) took head stub ``head_stubs[e]``, stubs numbered in order of
    their head vertex.  It is None for OCM samples and for digraphs that
    drop it, as ``path_weight_lln``'s environments do: a walk reads only
    ``heads`` and ``offsets``.
    """

    seq: DegreeSequence
    heads: np.ndarray
    stream: RngStream
    head_stubs: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.seq.n

    @property
    def offsets(self) -> np.ndarray:
        return self.seq.out_offsets

    def out_edges(self, x: int) -> np.ndarray:
        """The heads of x's out-edges; x is read by ``core.integer_in``."""
        x = integer_in(x, 0, self.n, "vertex")
        return self.heads[self.offsets[x]:self.offsets[x + 1]]


def _finish(seq: DegreeSequence, heads: np.ndarray, stream: RngStream,
            head_stubs: Optional[np.ndarray] = None) -> Digraph:
    # callers pass fresh arrays, or rows of fresh tables
    heads = np.asarray(heads, dtype=index_dtype_for(seq.m))
    for arr in (heads, head_stubs):
        if arr is not None:
            arr.setflags(write=False)
    return Digraph(seq=seq, heads=heads, stream=stream, head_stubs=head_stubs)


def sample_tables(seq: DegreeSequence, keys: np.ndarray
                  ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """One environment per row of the key table keys on seq, as (B, m)
    tables of its rows.

    keys is a (B, 2) uint64 table such as ``rng.lane_keys`` returns, read
    by ``rng.key_table`` (anything else is BadValue).  Row e of ``heads``
    holds the out-lists of the digraph drawn with keys[e], and for DCM row
    e of ``head_stubs`` its matching: bitwise the ``heads`` and
    ``head_stubs`` of ``sample_digraph(seq, stream)`` for the stream whose
    key is keys[e], which is the one-row case.  OCM returns no matching.

    DCM matches the m tail stubs to a uniform permutation of the m head
    stubs: shuffling row e, an ``arange(m)``, in place draws what
    ``permutation(m)`` draws.  Shuffling stub indices draws the same
    numbers as shuffling the head slots, so every seed realizes the same
    graph, and the matching is kept.

    OCM has each vertex independently pick d_x distinct targets uniformly.
    Vertices are drawn one out-degree class at a time, classes in
    increasing degree and vertices in order within a class, so the draws
    and their sorted copies take O(m) memory whatever the largest degree.
    A regular sequence is a single class drawn as one (n, d) block.
    """
    keys = key_table(keys)
    if seq.model is ModelKind.DCM:
        head_stubs = sample_matchings(seq.m, keys)
        return np.take(seq.head_slots, head_stubs), head_stubs
    with allocating(f"a {len(keys)} x {seq.m} table of heads"):
        heads = np.empty((len(keys), seq.m), dtype=index_dtype_for(seq.m))
    degs = seq.out_degrees
    classes = [(d, seq.out_offsets[np.flatnonzero(degs == d)][:, None]
                + np.arange(d)) for d in np.unique(degs).tolist()]
    for row, key in zip(heads, keys.tolist()):
        gen = shared_generator(key)
        for d, slots in classes:
            row[slots] = _distinct_rows(gen, seq.n, len(slots), d)
    return heads, None


def sample_matchings(m: int, keys: np.ndarray) -> np.ndarray:
    """``sample_tables``' (B, m) DCM matchings, with no heads gathered."""
    keys = key_table(keys)
    # intp, so indexing with a matching converts nothing; one row is
    # its own arange, with no second m-sized array
    with allocating(f"a {len(keys)} x {m} table of matchings"):
        if len(keys) == 1:
            head_stubs = np.arange(m, dtype=np.intp)[None]
        else:
            head_stubs = np.empty((len(keys), m), dtype=np.intp)
            head_stubs[:] = np.arange(m)
    for row, key in zip(head_stubs, keys.tolist()):
        shared_generator(key).shuffle(row)
    return head_stubs


def sample_digraph(seq: DegreeSequence, stream: RngStream) -> Digraph:
    """The environment drawn on stream: ``sample_tables``' one-row case,
    keyed by the stream's key."""
    heads, head_stubs = sample_tables(seq, stream.key[None])
    return _finish(seq, heads[0], stream,
                   None if head_stubs is None else head_stubs[0])


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
    # sqrt(n) or above) pick their targets one at a time, kept in order of
    # first draw, as every other row keeps its draw order
    for x in np.flatnonzero(bad):
        picks = {}
        while len(picks) < d:
            picks[int(gen.integers(0, n))] = None
        draws[x] = list(picks)
    return draws
