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
from (B, m) tables of heads and DCM matchings: ``kernel_from_digraph``
hands it one digraph's rows and builds on first use, ``kernel_from_tables``
hands it a batch drawn by ``sampler.sample_tables`` and builds at once,
so a batch of environments needs no digraph object each.  scipy.sparse
is imported by that builder, so a run that builds no kernel never loads
it.  A batch's first step needs no kernel either: ``one_step_laws``
reads each delta_x P_e straight from the heads table, one weight
1/out-degree(x) per out-edge of x, bitwise the law one product would give.

Switch-time-averaged rows are Horner passes: ``time_averaged_rows``
yields every grid time's row from one walk of the sigma law, and
``grouped_time_averaged_rows`` serves a group of eta kernels from that
one walk, each step applying P_sigma once and then every P_eta, so each
row is bitwise its own one-eta call's.

Trajectories are arrays too.  ``sample_paths`` steps a block of N paths
together on one stream, one draw over the whole block per step, and
returns their (N, t + 1) states; ``path_log_weights`` weighs every path
on the digraphs it walked, reading each step's P(x, y) from x's out-list,
so weighing builds no kernel.  ``sample_trajectory`` and
``path_log_weight`` are the one-row cases of these two.  A caller with
many paths walks them in blocks, one stream per block, so it holds one
block's states at a time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from .core import (DIST_TOL, DegreeSequence, count_at_least, index_dtype_for,
                   integer_in, integers_in, law_array, real_in)
from .errors import BadRange, BadValue, BudgetExceeded, ImpossibleStep
from .rng import RngStream
from .sampler import Digraph

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
    matrix, ``transpose`` (P^T, what propagation multiplies by): a kernel
    of rows builds it on first use and caches it, a matrix kernel builds
    it from P at once and keeps no copy of P.  Once P^T is built, a kernel
    of rows lets its tables go, so a held kernel costs P^T alone.
    ``nnz`` counts stored entries, so a kernel of rows has nnz == blocks * m.
    A matrix that is not sparse or not square, or tables not (B, m) with
    B >= 1, ragged ones included, raise BadValue; an out-list head outside
    [0, n), or a matching row that is not a permutation of [0, m), BadRange
    as P^T is built.
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
    """A heads or matching table: an ndarray as it is, since P^T's build
    and ``one_step_laws`` check the entries they read, anything else read
    by ``core.integers_in``, so a ragged table is BadValue."""
    if isinstance(values, np.ndarray):
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
    # A DCM matching already groups the edges by head: stub j of the
    # head-ordered stubs sits at row position j of P^T, so row e's tails
    # are scattered to its matching (row by row: faster than one flat
    # scatter).  One graph uses the sequence's shared, read-only in-degree
    # offsets as its row pointer.  A row is a permutation when its m stubs
    # lie in [0, m) and write every slot: numpy would read a stub -1 as
    # m - 1, the scatter refuses a stub past m, and np.take refuses the
    # vertex n that marks a slot no stub wrote.
    if head_stubs.min() < 0:
        raise BadRange(f"a matching stub lies outside [0, {m})")
    tails = np.full((b, m), n, dtype=idx)
    try:
        for row, stubs in zip(tails, head_stubs):
            row[stubs] = seq.tails
        data = np.take(seq.inv_out_degrees, tails)
    except IndexError:
        raise BadRange(f"a matching row is not a permutation of "
                       f"[0, {m})") from None
    if b == 1:
        indptr = seq.in_offsets
    else:
        tails += offsets
        indptr = _block_pointer(seq.in_offsets, b, m, idx)
    return csr_matrix((data.ravel(), tails.ravel(), indptr),
                      shape=(b * n, b * n))


def kernel_from_digraph(g: Digraph) -> TransitionKernel:
    """Walk kernel of g: each out-edge of x carries 1/out-degree(x).

    Nothing is built here: g's rows go to the kernel as one-row views,
    and it builds P^T, one entry per edge, on first use, from g's matching
    when g has one and from its out-lists otherwise.
    """
    stubs = g.head_stubs
    return TransitionKernel(rows=(g.seq, g.heads[None],
                                  None if stubs is None else stubs[None]))


def kernel_from_tables(seq: DegreeSequence, heads: np.ndarray,
                       head_stubs: Optional[np.ndarray] = None
                       ) -> TransitionKernel:
    """The block-diagonal kernel of ``sampler.sample_tables``' (B, m)
    tables, block e for row e, with P^T built here rather than on first
    use: the batch walker builds one only for laws two or more steps out,
    and uses it at once.  Built on first use inside the walker instead,
    annealed on 3-regular n = 100 with 5000 environments (then walked on a
    kernel from t = 1) took more CPU: median 0.10-0.12 s -> 0.14-0.16 s
    over 20 alternating rounds (2 cores, numpy 2.4.6, scipy 1.17.1)."""
    kernel = TransitionKernel(rows=(seq, heads, head_stubs))
    kernel._transpose, kernel._rows = _transpose_matrix(*kernel._rows), None
    return kernel


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


def _checked_laws(w: np.ndarray, blocks: int,
                  budget: OperationBudget) -> np.ndarray:
    """w, a fresh (blocks * n, k) block of stepped laws, once each block's
    part of each column is checked, renormalized in place and recorded on
    its own, as a lone law's step would be."""
    laws = w.reshape(blocks, len(w) // blocks,
                     w.shape[1]).transpose(0, 2, 1)     # a view of w
    # summed over contiguous rows, each mass equals the 1-d v.sum() bitwise
    sums = np.ascontiguousarray(laws).sum(axis=2)
    if not (np.isfinite(sums).all() and sums.all()):
        raise BadValue("a law's mass is not finite and nonzero")
    drift = np.abs(sums - 1.0)
    renorm = drift > DIST_TOL
    if renorm.any():
        laws[renorm] /= sums[renorm][:, None]
    budget.record(float(drift.max(initial=0.0)), int(renorm.sum()))
    return w


def _block_step(v: np.ndarray, kernel: TransitionKernel,
                budget: OperationBudget) -> np.ndarray:
    """_step for a (kernel.n, k) block: each kernel block's part of each
    column is one distribution, checked and renormalized on its own."""
    return _checked_laws(kernel.transpose @ v, kernel.blocks, budget)


def one_step_laws(seq: DegreeSequence, heads: np.ndarray, starts,
                  budget: Optional[OperationBudget] = None) -> np.ndarray:
    """The (B n, w) block of one-step laws delta_x P_e from the (B, w)
    start table: in block e, column j is the law from starts[e, j] in the
    digraph of row e of the (B, m) heads table (see
    ``sampler.sample_tables``), with no kernel built.

    The whole block is one bincount over the starts' out-edges, each adding
    1/out-degree(x) in out-list order, and charged before it runs as one
    multiply-add per out-edge read.  Every entry of a column comes from
    its one start, so it equals the product P^T delta_x, which adds the
    same 1/out-degree(x) copies and exact zeros, bit for bit, for DCM and
    OCM tables alike; each law is then checked, renormalized and recorded
    as ``propagate`` would.  Tables not (B, m) and (B, w) raise BadValue, a
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
    rows, cols = np.divmod(which, w)
    read = integers_in(heads[rows, np.arange(which.size) + shift[which]],
                       0, n, "heads read")
    laws = np.bincount((rows * n + read) * w + cols,
                       seq.inv_out_degrees[xs][which], minlength=b * n * w)
    return _checked_laws(laws.reshape(b * n, w), b, budget)


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
    n = count_at_least(n, 1, "n")
    x = integer_in(x, 0, n, "vertex")
    try:
        v = np.zeros(n)
    except (ValueError, MemoryError):   # past numpy's size limit or memory
        raise BadRange(f"a law on {n} vertices does not fit in memory"
                       ) from None
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


def time_averaged_rows(x: int, times: Sequence[int],
                       k_sigma: TransitionKernel, k_eta: TransitionKernel,
                       budget: Optional[OperationBudget] = None) -> dict:
    """``{t: time_averaged_row(x, t, ...)}`` for every t in times, in one pass.

    The Horner accumulator after switch time s is s times the row for
    t = s, so one pass up to max(times) yields every row, bitwise equal to
    separate calls, for 2 (max(times) - 1) kernel applications instead
    of 2 sum(times - 1).  Memory is O(n) per distinct t.  This is the
    one-eta case of ``grouped_time_averaged_rows``.
    """
    return {t: row for t, _, row in grouped_time_averaged_rows(
        x, times, k_sigma, [k_eta], budget)}


def grouped_time_averaged_rows(x: int, times: Sequence[int],
                               k_sigma: TransitionKernel,
                               k_etas: Sequence[TransitionKernel],
                               budget: Optional[OperationBudget] = None
                               ) -> Iterator[tuple]:
    """The rows of ``time_averaged_rows(x, times, k_sigma, k_eta)`` for
    every k_eta in k_etas, from one walk of the sigma law, as (t, e, row)
    for eta k_etas[e]: t ascending, and at each t every eta in order.

    Each switch time s applies P_sigma once and then advances every eta's
    Horner accumulator, so each row is bitwise its own one-eta call's.
    The arguments are checked, and the pass's (max(times) - 1) (nnz_sigma
    + sum nnz_eta) multiply-adds charged, when this is called; the rows
    come as the pass reaches them, so a caller that reduces each one as
    it comes holds O(n) per eta.
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
    kernel applications and O(n) memory.  This is the single-t case of
    ``time_averaged_rows``, which serves a whole grid of t from one pass.
    """
    return time_averaged_rows(x, (t,), k_sigma, k_eta, budget)[t]


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
    if g_sigma.n != g_eta.n:
        raise BadValue("digraphs have different vertex counts")
    t = integer_in(t, 0, math.inf, "t")
    s = integer_in(s, 0, t + 1, "s")
    xs = integers_in(xs, 0, g_sigma.n, "starts")
    gen = stream.generator()
    states = np.empty((xs.size, t + 1), dtype=np.int64)
    states[:, 0] = cur = xs
    for step in range(1, t + 1):
        g = g_sigma if step <= s else g_eta
        first = g.offsets[cur]
        cur = g.heads[first + gen.integers(0, g.offsets[cur + 1] - first)]
        states[:, step] = cur
    return states


def _step_log_probs(g: Digraph, x: np.ndarray, y: np.ndarray,
                    step: int) -> np.ndarray:
    """log P(x, y) for one step of every path, read from x's out-list;
    ImpossibleStep if an edge is absent.  Each copy of the edge x -> y,
    in list order, adds 1/d(x) to a sum that starts at 0, as scipy's
    lookup P^T[y, x] sums duplicate entries, so parallel edges add up to
    the same bits.  List position k is read only for the rows longer
    than k, so a step costs the sum of the out-degrees of x."""
    first = g.offsets[x]
    degrees = g.offsets[x + 1] - first
    inv = 1.0 / degrees
    step_probs = np.where(g.heads[first] == y, inv, 0.0)   # position 0
    rows = np.flatnonzero(degrees > 1)
    k = 1
    while rows.size:
        hit = rows[g.heads[first[rows] + k] == y[rows]]
        step_probs[hit] += inv[hit]
        k += 1
        rows = rows[degrees[rows] > k]
    missing = np.flatnonzero(step_probs == 0)
    if missing.size:
        i = int(missing[0])
        raise ImpossibleStep(f"trajectory {i}, step {step}: "
                             f"no edge {x[i]} -> {y[i]}")
    # math.log of each distinct probability: np.log can differ from it in
    # the last bit (seen at 0.9999999999999998)
    probs, inverse = np.unique(step_probs, return_inverse=True)
    return np.array([math.log(p) for p in probs.tolist()])[inverse]


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
        total += _step_log_probs(graphs[j >= s], states[:, j],
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
