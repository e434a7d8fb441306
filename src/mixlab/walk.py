"""Transition kernels and everything that moves mass through them.

Propagation is P^T times a dense vector, with mass drift watched at 1e-9
and every renormalization counted rather than hidden, in the run's one
ledger: the ``OperationBudget`` that also holds its work cap and charge.
A digraph kernel therefore builds P^T, in O(m), with one entry of weight
1/out-degree per edge: parallel edges stay separate entries and
self-loops sit on the diagonal.  P^T is the one matrix a kernel stores;
P is a zero-copy view of it.  Digraphs on one degree sequence can share
one block-diagonal kernel, through which propagate moves a whole (n, k)
block of laws by one product per step.  One builder makes every P^T,
from (B, m) tables of heads and DCM matchings, and a kernel runs it as
it is made: ``TransitionKernel(rows=...)`` takes a batch drawn by
``sampler.sample_tables``, with no digraph object each, and
``kernel_from_digraph`` one digraph's rows.  scipy.sparse is imported by
that builder, so a run that builds no kernel never loads it.  A batch's
first step needs no kernel either: ``one_step_laws`` reads each delta_x
P_e straight from the heads table, one weight 1/out-degree(x) per
out-edge of x, bitwise the law one product would give, into a law-major
(B, w, n) array, each law contiguous; a caller that walks on makes the
(B n, w) block a product moves.  ``refreshed_kernels`` draws
environments one at a time, one per row of a (B, 2) Philox key table
(see ``rng.lane_keys``), in row order, and builds only the first DCM
kernel; every later one rewrites that P^T in place from its matching
alone, through the builder's scatter, gather and permutation check, so a
kernel it yields holds until the next is drawn.

Switch-time-averaged rows are Horner passes: ``grouped_time_averaged_rows``
yields the row of every grid time and every eta kernel of a group from
one walk of the sigma law, each step applying P_sigma once and then
every P_eta, so each row is bitwise its own one-eta call's;
``time_averaged_row`` is its one-time, one-eta case.

Trajectories are arrays too.  ``sample_paths`` steps a block of N paths
together on one stream, one draw over the whole block per step, and
``sample_path_log_weights`` weighs each step of that walk as it is drawn,
so it holds no block of states; ``path_log_weights`` weighs given paths.
Each reads P(x, y) from x's out-list, so weighing builds no kernel.
``sample_trajectory`` and ``path_log_weight`` are the one-row cases.  A
caller with many paths walks them in blocks, one stream per block.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from .core import (DIST_TOL, DegreeSequence, ModelKind, allocating,
                   index_dtype_for, integer_in, integers_in, law_array,
                   real_in)
from .errors import BadRange, BadValue, BudgetExceeded, ImpossibleStep
from .rng import RngStream, key_table
from .sampler import Digraph, sample_matchings, sample_tables

if TYPE_CHECKING:   # imported by the P^T builder, so a run without a kernel
    from scipy.sparse import csc_matrix, csr_matrix     # never loads scipy


class OperationBudget:
    """A run's ledger: the cap on scalar multiply-add work, the work charged
    so far (``used``) and the tally of mass drift.  ``propagate``,
    ``grouped_time_averaged_rows`` and ``stationary_distribution`` charge
    every product or solver iteration before it runs, and
    ``one_step_laws`` one multiply-add per out-edge it reads; every
    propagation step, and every law ``one_step_laws`` reads, records its
    drift.  A run charges it from one thread, replicate after replicate,
    so it takes no lock."""

    DEFAULT_CAP = 5e10

    def __init__(self, cap: float = DEFAULT_CAP):
        self.cap = real_in(cap, 0, math.inf, "budget cap")
        self.used = 0.0
        self.renormalizations = 0
        self.max_drift = 0.0

    def charge(self, ops: float) -> None:
        """Add ops, a real in [0, inf] (else BadValue: a NaN would switch
        the cap off), to the work used; BudgetExceeded past the cap."""
        if type(ops) is not float or not ops >= 0.0:    # the hot path
            ops = real_in(ops, 0, math.inf, "ops", "[]")
        if self.used + ops > self.cap:
            raise BudgetExceeded(
                f"operation budget exhausted: "
                f"{self.used + ops:.3g} > {self.cap:.3g}"
            )
        self.used += ops

    def record(self, drift: float, renormalized: int) -> None:
        """Note a step's largest drift and how many vectors it
        renormalized (a bool counts 0 or 1)."""
        if drift > self.max_drift:
            self.max_drift = drift
        self.renormalizations += int(renormalized)


def as_ledger(budget: Optional[OperationBudget]) -> OperationBudget:
    """budget, or for a call without one a ledger no run can exhaust: a
    library call without ``budget=`` has no work cap, by design.  The CLI
    always passes one (``--budget``, 5e10 by default)."""
    return OperationBudget(sys.float_info.max) if budget is None else budget


class TransitionKernel:
    """Row-stochastic sparse walk matrix over [0, n).

    Give either the matrix P or ``rows``, the (seq, heads, head_stubs)
    tables of B digraphs on one degree sequence (see
    ``sampler.sample_tables``): one row gives its digraph's walk, B rows
    one block-diagonal kernel whose block e, on vertices [e n, (e + 1) n),
    is the walk on row e's digraph, so one product steps the whole batch.
    ``blocks`` counts them (1 for a matrix).  The kernel stores one
    matrix, ``transpose`` (P^T, what propagation multiplies by), built
    here: from P, keeping no copy of it, or from the rows, by reading the
    ``transpose`` property, after which the kernel lets its tables go, so
    a held kernel costs P^T alone.  ``nnz`` counts stored entries, so a
    kernel of rows has nnz == blocks * m.  A matrix that is not sparse or
    not square, tables not (B, m) with B >= 1, ragged ones included, and
    DCM heads that are not the matching's head slots (``one_step_laws``
    reads the heads) raise BadValue; an out-list head outside [0, n), or a
    matching row that is not a permutation of [0, m), BadRange.
    """

    def __init__(self, matrix: Optional[csr_matrix] = None,
                 rows: Optional[tuple] = None):
        if (matrix is None) == (rows is None):
            raise BadValue("give exactly one of matrix and rows")
        if rows is None:
            if not hasattr(matrix, "tocsr"):
                raise BadValue(f"kernel matrix must be a scipy.sparse "
                               f"csr_matrix, not {type(matrix).__name__}")
            n, cols = matrix.shape
            if n != cols:
                raise BadValue(f"kernel matrix must be square, not {n}x{cols}")
            self._rows, self._transpose = None, matrix.T.tocsr()
            self.blocks, self.n, self.nnz = 1, n, matrix.nnz
        else:
            seq, heads, head_stubs = rows
            heads = _table(heads, seq.n, "heads")
            if head_stubs is not None:
                head_stubs = _table(head_stubs, seq.m, "head_stubs")
            shape, stubs = heads.shape, np.shape(head_stubs)
            if not (len(shape) == 2 and shape[0] >= 1 and shape[1] == seq.m
                    and (head_stubs is None or stubs == shape)):
                raise BadValue(f"rows need (B, {seq.m}) tables, B >= 1; got "
                               f"heads {shape}, head_stubs {stubs}")
            self._rows, self._transpose = (seq, heads, head_stubs), None
            self.blocks = shape[0]
            self.n, self.nnz = self.blocks * seq.n, self.blocks * seq.m
            self.transpose      # built now, and the kernel lets its tables go
            if (head_stubs is not None
                    and (heads != seq.head_slots[head_stubs]).any()):
                raise BadValue("heads are not the matching's head slots")

    @property
    def matrix(self) -> csc_matrix:
        """P as a CSC view of ``transpose``: it shares P^T's arrays, and
        builds and caches nothing of its own."""
        return self.transpose.T

    @property
    def transpose(self) -> csr_matrix:
        if self._transpose is None:
            self._transpose = _transpose_matrix(*self._rows)
            self._rows = None
        return self._transpose


def _table(values, high: int, name: str) -> np.ndarray:
    """A heads or matching table: an integer ndarray as it is, since P^T's
    build and ``one_step_laws`` check the entries they read, anything else
    (a bool or float array too) read by ``core.integers_in``, so a ragged
    table is BadValue."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values
    return integers_in(values, 0, high, name, ndim=2)


def _block_pointer(offsets: np.ndarray, blocks: int, m: int,
                   dtype) -> np.ndarray:
    """Row pointer of the block-diagonal stack of blocks m-entry matrices
    that share the row pointer offsets (a fresh, writable array)."""
    n = offsets.size - 1
    ptr = np.empty(blocks * n + 1, dtype=dtype)
    body = ptr[:-1].reshape(blocks, n)
    body[:] = offsets[:-1]
    body += np.arange(blocks, dtype=dtype)[:, None] * m
    ptr[-1] = blocks * m
    return ptr


def _transpose_matrix(seq: DegreeSequence, heads: np.ndarray,
                      head_stubs: Optional[np.ndarray]) -> csr_matrix:
    """Block-diagonal P^T of the (B, m) tables, one entry per edge: row y
    of block e lists the tails of y's in-edges in row e's digraph, offset
    by e n.  B = 1 is the one-graph case, and each block equals its row's
    own one-graph P^T entry for entry."""
    from scipy.sparse import csr_matrix
    b, n, m = len(heads), seq.n, seq.m
    idx = index_dtype_for(b * m)
    offsets = np.arange(b, dtype=idx)[:, None] * n
    if head_stubs is None:
        # scipy checks no index, and one outside [0, n) corrupts memory
        integers_in(heads, 0, n, "heads", ndim=2)
        # P with one entry per edge, in sampling order; scipy's CSR -> CSC
        # conversion is a stable O(m) counting sort by head, so each row
        # of P^T keeps its graph's own entry order
        data = np.take(seq.inv_out_degrees, np.broadcast_to(seq.tails, (b, m)))
        p = csr_matrix((data.ravel(), (heads + offsets).ravel(),
                        _block_pointer(seq.out_offsets, b, m, idx)),
                       shape=(b * n, b * n))
        return p.tocsc().T
    # one graph uses the shared, read-only in-degree offsets as row pointer
    tails = np.empty((b, m), dtype=idx)
    data = _matched_entries(seq, head_stubs, tails)
    if b == 1:
        indptr = seq.in_offsets
    else:
        tails += offsets
        indptr = _block_pointer(seq.in_offsets, b, m, idx)
    return csr_matrix((data.ravel(), tails.ravel(), indptr),
                      shape=(b * n, b * n))


def _matched_entries(seq: DegreeSequence, head_stubs: np.ndarray,
                     tails: np.ndarray,
                     data: Optional[np.ndarray] = None) -> np.ndarray:
    """Write matching row e's P^T tails and weights into row e of tails
    and of data (fresh when None), and return data.  Stub j of the
    head-ordered stubs sits at row position j of P^T, so each row's tails
    are scattered to its matching (row by row: faster than one flat
    scatter).  A row is a permutation when its m stubs lie in [0, m) and
    write every slot: numpy would read a stub -1 as m - 1, the scatter
    refuses a stub past m, and np.take refuses the vertex n that marks a
    slot no stub wrote."""
    n, m = seq.n, seq.m
    if head_stubs.min() < 0:
        raise BadRange(f"a matching stub lies outside [0, {m})")
    tails.fill(n)
    try:
        for row, stubs in zip(tails, head_stubs):
            row[stubs] = seq.tails
        return np.take(seq.inv_out_degrees, tails, out=data)
    except IndexError:
        raise BadRange(f"a matching row is not a permutation of "
                       f"[0, {m})") from None


def refreshed_kernels(seq: DegreeSequence, keys: np.ndarray
                      ) -> Iterator[TransitionKernel]:
    """The walk kernel of the environment drawn with each row of the key
    table keys (see ``rng.lane_keys``), in row order: for a stream's key,
    bitwise ``kernel_from_digraph(sample_digraph(seq, stream))``.

    The table is read by ``rng.key_table`` before the first draw.  A DCM
    one-row P^T always has shape n x n and the row pointer
    ``seq.in_offsets``, so only the first DCM kernel is built; each later
    one draws its matching alone (``sampler.sample_matchings``) and
    rewrites that P^T's indices and data in place.  An OCM row pointer
    changes with each draw, so OCM kernels are built afresh.  A yielded
    kernel is valid only until the next one is drawn.
    """
    kernel = None
    for key in key_table(keys)[:, None]:    # one-row tables
        if kernel is None or seq.model is ModelKind.OCM:
            kernel = TransitionKernel(rows=(seq, *sample_tables(seq, key)))
            pt = kernel.transpose
        else:
            _matched_entries(seq, sample_matchings(seq.m, key),
                             pt.indices[None], pt.data[None])
        yield kernel


def kernel_from_digraph(g: Digraph) -> TransitionKernel:
    """Walk kernel of g: each out-edge of x carries 1/out-degree(x).

    g's rows go to the kernel as one-row views, and it builds P^T, one
    entry per edge, from g's matching when g has one (checking g's heads
    against it) and from its out-lists otherwise.
    """
    stubs = g.head_stubs
    return TransitionKernel(rows=(g.seq, g.heads[None],
                                  None if stubs is None else stubs[None]))


def _renormalized(v: np.ndarray, budget: OperationBudget) -> np.ndarray:
    """v, divided by its mass when that drifted from 1 by more than DIST_TOL.

    A NaN mass would pass the drift test and poison every later step
    unseen, and a zero mass cannot be divided by: both raise BadValue."""
    s = float(v.sum())
    if not math.isfinite(s) or s == 0.0:
        raise BadValue(f"a law's mass is {s}, not finite and nonzero")
    drift = abs(s - 1.0)
    renorm = drift > DIST_TOL
    if renorm:
        v = v / s
    budget.record(drift, renorm)
    return v


def _step(v: np.ndarray, kernel: TransitionKernel,
          budget: OperationBudget) -> np.ndarray:
    return _renormalized(kernel.transpose @ v, budget)


def _checked_masses(laws: np.ndarray, sums: np.ndarray,
                    budget: OperationBudget) -> np.ndarray:
    """laws, a (..., n) view of fresh laws whose masses are sums, once each
    law is checked, renormalized in place and recorded on its own, as a
    lone law's step would be."""
    if not (np.isfinite(sums).all() and sums.all()):
        raise BadValue("a law's mass is not finite and nonzero")
    drift = np.abs(sums - 1.0)
    renorm = drift > DIST_TOL
    if renorm.any():
        laws[renorm] /= sums[renorm][:, None]
    budget.record(float(drift.max(initial=0.0)), int(renorm.sum()))
    return laws


def _block_step(v: np.ndarray, kernel: TransitionKernel,
                budget: OperationBudget) -> np.ndarray:
    """_step for a (kernel.n, k) block: each kernel block's part of each
    column is one distribution, checked and renormalized on its own."""
    w = kernel.transpose @ v
    laws = w.reshape(kernel.blocks, len(w) // kernel.blocks,
                     w.shape[1]).transpose(0, 2, 1)     # a view of w
    # summed over contiguous rows, each mass equals the 1-d v.sum() bitwise
    _checked_masses(laws, np.ascontiguousarray(laws).sum(axis=2), budget)
    return w


def one_step_laws(seq: DegreeSequence, heads: np.ndarray, starts,
                  budget: Optional[OperationBudget] = None) -> np.ndarray:
    """The (B, w, n) array of one-step laws delta_x P_e from the (B, w)
    start table: law [e, j] is the law from starts[e, j] in the digraph of
    row e of the (B, m) heads table (see ``sampler.sample_tables``), with
    no kernel built.  Each law is contiguous, so law-major; ``propagate``
    moves the same laws as the (B n, w) block ``laws.transpose(0, 2, 1)
    .reshape(B * n, w)``.

    The whole array is one bincount over the starts' out-edges, each adding
    1/out-degree(x) in out-list order, and charged before it runs as one
    multiply-add per out-edge read.  Every entry of a law comes from its
    one start, so it equals the product P^T delta_x, which adds the same
    1/out-degree(x) copies and exact zeros, bit for bit, for DCM and OCM
    tables alike; each law is then checked, renormalized and recorded as
    ``propagate`` would.  Tables not (B, m) and (B, w) raise BadValue, a
    start or a head read outside [0, n) BadRange.
    """
    n = seq.n
    xs = integers_in(starts, 0, n, "starts", ndim=2)
    b, w = xs.shape
    heads = _table(heads, n, "heads")
    if not (b >= 1 and heads.shape == (b, seq.m)):
        raise BadValue(f"need ({b}, {seq.m}) heads for {xs.shape} starts, "
                       f"got {heads.shape}")
    budget = as_ledger(budget)
    xs = xs.ravel()
    degrees = seq.out_degrees[xs]
    budget.charge(float(degrees.sum()))
    # read edge k belongs to start which[k] and is out-edge
    # k - (cumsum(degrees) - degrees)[which[k]] of its out-list, so it sits
    # at position k + shift[which[k]] of its row of heads
    which = np.repeat(np.arange(xs.size), degrees)
    shift = seq.out_offsets[xs] - (np.cumsum(degrees) - degrees)
    read = integers_in(heads[which // w, np.arange(which.size)
                             + shift[which]], 0, n, "heads read")
    # start which[k] is law which[k] of the (B, w, n) array
    laws = np.bincount(which * n + read, seq.inv_out_degrees[xs][which],
                       minlength=b * w * n).reshape(b, w, n)
    return _checked_masses(laws, laws.sum(axis=2), budget)


def propagate(dist, kernel: TransitionKernel, steps: int,
              budget: Optional[OperationBudget] = None) -> np.ndarray:
    """Push a distribution ``steps`` whole steps forward.

    dist is one distribution of length kernel.n, or a (kernel.n, k) block
    of k columns pushed by one product per step.  In a block, each kernel
    block's part of each column is a distribution of its own: its drift is
    checked, renormalized and recorded as a lone vector's would be, so the
    result equals separate 1-d calls bit for bit.  A law whose mass is
    zero or not finite, dist itself at zero steps, raises BadValue.
    dist is read by ``core.law_array`` and steps by ``core.integer_in``:
    2.0 is two steps, a bool or 2.5 is BadValue, a negative count BadRange.
    """
    if budget is None:      # inline, not as_ledger(budget): a call per step
        budget = as_ledger(None)
    if type(steps) is not int or not 0 <= steps < 2**63:  # the hot path
        steps = integer_in(steps, 0, math.inf, "steps")
    v = law_array(dist, "dist")
    if v.shape != (kernel.n,) and (v.ndim != 2 or len(v) != kernel.n):
        raise BadValue(f"distribution shape {v.shape} does not fit "
                       f"kernel size {kernel.n}")
    budget.charge(float(steps) * kernel.nnz * (v.size // kernel.n))
    if steps == 0:      # no step will check dist's masses, so check them here
        blocks = kernel.blocks if v.ndim == 2 else 1
        mass = v.reshape(blocks, len(v) // blocks, v.size // len(v)).sum(1)
        if not (np.isfinite(mass).all() and mass.all()):
            raise BadValue("a law's mass is not finite and nonzero")
        return v.copy()
    # the first step returns a fresh array, so dist is never written to
    step = _step if v.ndim == 1 else _block_step
    for _ in range(steps):
        v = step(v, kernel, budget)
    return v


def delta_at(x: int, n: int) -> np.ndarray:
    n = integer_in(n, 1, math.inf, "n")
    x = integer_in(x, 0, n, "vertex")
    with allocating(f"a law on {n} vertices"):
        v = np.zeros(n)
    v[x] = 1.0
    return v


def double_row(x: int, s: int, t: int, k_sigma: TransitionKernel,
               k_eta: TransitionKernel,
               budget: Optional[OperationBudget] = None) -> np.ndarray:
    """Law after s steps in one environment then t - s in another."""
    if k_sigma.n != k_eta.n:
        raise BadValue("kernels have different vertex counts")
    t = integer_in(t, 0, math.inf, "t")
    s = integer_in(s, 0, t + 1, "s")
    v = propagate(delta_at(x, k_sigma.n), k_sigma, s, budget)
    return propagate(v, k_eta, t - s, budget)


def grouped_time_averaged_rows(x: int, times: Sequence[int],
                               k_sigma: TransitionKernel,
                               k_etas: Sequence[TransitionKernel],
                               budget: Optional[OperationBudget] = None
                               ) -> Iterator[tuple]:
    """``time_averaged_row(x, t, k_sigma, k_eta)`` for every distinct t in
    times and k_eta in k_etas, bitwise, from one walk of the sigma law, as
    (t, e, row) for eta k_etas[e]: t ascending, at each t every eta in order.

    Eta e's Horner accumulator after switch time s is s times its row for
    t = s.  Each s applies P_sigma once and then advances every
    accumulator.  The arguments are checked, and the pass's (max(times) - 1)
    (nnz_sigma + sum nnz_eta) multiply-adds charged, when this is called;
    the rows come as the pass reaches them, so a caller that reduces each
    one as it comes holds O(n) per eta.
    """
    if any(k.n != k_sigma.n for k in k_etas):
        raise BadValue("kernels have different vertex counts")
    wanted = set(integers_in(times, 1, math.inf, "times").tolist())
    t_max = max(wanted, default=0)
    u = delta_at(x, k_sigma.n)        # delta_x P_sigma^{s-1} at switch time s
    budget = as_ledger(budget)
    budget.charge(max(t_max - 1.0, 0.0)
                  * (k_sigma.nnz + sum(k.nnz for k in k_etas)))
    return _horner_rows(u, wanted, t_max, k_sigma, k_etas, budget)


def _horner_rows(u, wanted, t_max, k_sigma, k_etas, budget):
    """The pass of ``grouped_time_averaged_rows``, run as its rows are read."""
    tmats = [k.transpose for k in k_etas]
    accs = [np.zeros(k_sigma.n) for _ in k_etas]
    for s in range(1, t_max + 1):
        for e, tmat in enumerate(tmats):
            if s > 1:
                # raw product: the accumulator's mass is s-1, not 1, so the
                # per-step drift check does not apply to it
                accs[e] = tmat @ accs[e]
            accs[e] += u
            if s in wanted:
                yield s, e, _renormalized(accs[e] / float(s), budget)
        if s < t_max:
            u = _step(u, k_sigma, budget)


def time_averaged_row(x: int, t: int, k_sigma: TransitionKernel,
                      k_eta: TransitionKernel,
                      budget: Optional[OperationBudget] = None) -> np.ndarray:
    """Average over switch times s = 1..t of the two-environment rows.

    Returns (1/t) * sum_s (delta_x P_sigma^{s-1} P_eta^{t-s}).  Both the
    running first-environment vector and the Horner-style accumulator
    advance forward in s together, so the whole thing costs 2 (t - 1)
    kernel applications and O(n) memory.  This is the one-t, one-eta case
    of ``grouped_time_averaged_rows``, which serves grids of both.
    """
    ((*_, row),) = grouped_time_averaged_rows(x, (t,), k_sigma, [k_eta],
                                              budget)
    return row


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A realized walk path; ``switch_time`` is the step count taken in the
    first environment (None means the whole path ran there)."""

    states: np.ndarray
    switch_time: Optional[int]

    @property
    def length(self) -> int:
        return len(self.states) - 1


def sample_trajectory(x: int, s: int, t: int, g_sigma: Digraph,
                      g_eta: Digraph, stream: RngStream) -> Trajectory:
    """Walk t steps from x: the first s through g_sigma, the rest through
    g_eta.  The one-path case of ``sample_paths``, on a stream of its own."""
    return Trajectory(sample_paths([x], s, t, g_sigma, g_eta, stream)[0], s)


def sample_paths(xs, s: int, t: int, g_sigma: Digraph, g_eta: Digraph,
                 stream: RngStream) -> np.ndarray:
    """States (N, t + 1) of N walks from the starts xs, stepped together.

    The first s steps go through g_sigma and the rest through g_eta, each
    along a uniform raw out-edge, so parallel edges carry their
    multiplicity and self-loops can be traversed.  Every step is one draw
    of N edge ranks from the one generator of ``stream``, each below its
    vertex's out-degree, so no rounding can pick a rank past the last
    edge.  Memory is the (N, t + 1) states and O(N) per step.
    """
    steps = _walk(xs, s, t, g_sigma, g_eta, stream)
    xs, t = next(steps)
    states = np.empty((xs.size, t + 1), dtype=np.int64)
    states[:, 0] = xs
    for *_, ys, step in steps:
        states[:, step + 1] = ys
    return states


def sample_path_log_weights(xs, s: int, t: int, g_sigma: Digraph,
                            g_eta: Digraph, stream: RngStream) -> np.ndarray:
    """Log-weights (N,) of the N walks ``sample_paths`` draws on stream,
    each step weighed as it is drawn, on the out-lists the draw read:
    bitwise ``path_log_weights`` of those paths, with no states held."""
    steps = _walk(xs, s, t, g_sigma, g_eta, stream)
    total = np.zeros(next(steps)[0].size)
    for step in steps:
        total += _step_log_probs(*step)
    return total


def _walk(xs, s, t, g_sigma, g_eta, stream):
    """The one step loop of ``sample_paths`` and ``sample_path_log_weights``:
    it checks the arguments and yields the starts and t, then per step, as
    read, the digraph, the states left with their out-list offsets and
    degrees, the states drawn and the step."""
    if g_sigma.n != g_eta.n:
        raise BadValue("digraphs have different vertex counts")
    t = integer_in(t, 0, math.inf, "t")
    s = integer_in(s, 0, t + 1, "s")
    cur = integers_in(xs, 0, g_sigma.n, "starts")
    gen = stream.generator()
    yield cur, t
    for step in range(t):
        g = g_sigma if step < s else g_eta
        first = g.offsets[cur]
        degrees = g.offsets[cur + 1] - first
        x, cur = cur, g.heads[first + gen.integers(0, degrees)]
        yield g, x, first, degrees, cur, step


def _step_log_probs(g, x, first, degrees, y, step):
    """log P(x, y) for one step of every path from the c copies of x -> y
    in x's out-list, read at each position k < d(x) only, so a step costs
    the sum of the out-degrees; ImpossibleStep if c = 0.  P is c copies of
    1/d(x) added in list order from 0, as scipy sums duplicate entries of
    P^T.  Logs come from a table of the keys c (D + 1) + d that occur, D
    the largest d, found by a sort, so it is never sized D^2; each is
    math.log, as np.log can differ in the last bit (at 0.9999999999999998)."""
    copies = np.zeros(y.size, dtype=np.intp)
    k = int(degrees.min()) if y.size else 0
    for j in range(k):      # positions every list has
        copies += g.heads[first + j] == y
    rows = np.flatnonzero(degrees > k)
    while rows.size:
        copies[rows] += g.heads[first[rows] + k] == y[rows]
        k += 1
        rows = rows[degrees[rows] > k]
    if not copies.all():
        i = int(np.argmin(copies))
        raise ImpossibleStep(f"trajectory {i}, step {step}: "
                             f"no edge {x[i]} -> {y[i]}")
    width = int(degrees.max(initial=0)) + 1
    keys = copies * width + degrees
    found = np.sort(keys)
    found = np.concatenate((found[:1], found[1:][found[1:] != found[:-1]]))
    logs = [math.log(reduce(float.__add__, [1.0 / d] * c, 0.0))
            for c, d in (divmod(key, width) for key in found.tolist())]
    return np.array(logs)[np.searchsorted(found, keys)]


def path_log_weights(states, s: int, g_sigma: Digraph,
                     g_eta: Digraph) -> np.ndarray:
    """Log-probability of each row of states (N, t + 1) as an exact path:
    steps before s walk g_sigma, the rest g_eta.

    Each step reads P(x, y) from x's out-list, for all N paths at once,
    and adds its logs, so every path is summed in step order, bitwise as a
    scalar loop over the walk matrix P would.  No kernel is built.  s and
    the states are read by ``core.integers_in``, as ``propagate`` reads
    its steps.
    """
    if g_sigma.n != g_eta.n:
        raise BadValue("digraphs have different vertex counts")
    s = integer_in(s, 0, math.inf, "s")
    # offsets[-1] would read state -1 as the end of the last out-list
    states = integers_in(states, 0, g_sigma.n, "states", ndim=2)
    graphs = (g_sigma, g_eta)
    total = np.zeros(len(states))
    for j in range(states.shape[1] - 1):
        g, x = graphs[j >= s], states[:, j]
        first = g.offsets[x]
        total += _step_log_probs(g, x, first, g.offsets[x + 1] - first,
                                 states[:, j + 1], j)
    return total


def path_log_weight(traj: Trajectory, g_sigma: Digraph,
                    g_eta: Digraph) -> float:
    """Log-probability of the exact path under the two quenched digraphs.

    The single-path case of ``path_log_weights``.
    """
    s = traj.switch_time if traj.switch_time is not None else traj.length
    return float(path_log_weights(traj.states[None, :], s, g_sigma,
                                  g_eta)[0])
