"""Transition kernels and everything that moves mass through them.

Propagation is P^T times a dense vector, with mass drift watched at 1e-9
and every renormalization counted rather than hidden.  A digraph kernel
therefore builds P^T first, in O(m) on first use, with one entry of
weight 1/out-degree per edge: parallel edges stay separate entries and
self-loops sit on the diagonal.  The row orientation P, which puts weight
multiplicity/out-degree on each distinct head, is built from the out-lists
only when a caller weighs paths.  Digraphs on one degree sequence can
share one block-diagonal kernel, through which propagate moves a whole
(n, k) block of laws by one product per step.

Trajectories are arrays too.  ``sample_paths`` steps a block of N paths
together on one stream, one draw over the whole block per step, and
returns their (N, t + 1) states; ``path_log_weights`` weighs every path
with one vectorized lookup in P per step.  ``sample_trajectory`` and
``path_log_weight`` are the single-path forms: the first draws one path
on a stream of its own, the second is the one-row case of the weigher.
A caller with many paths walks them in blocks, one stream per block, so
it holds one block's states at a time.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .core import DIST_TOL, DegreeSequence, index_dtype_for
from .errors import BadRange, BadValue, BudgetExceeded, ImpossibleStep
from .rng import RngStream
from .sampler import Digraph


class OperationBudget:
    """Caps scalar multiply-add work for a run; charge before doing the work."""

    DEFAULT_CAP = 5e10

    def __init__(self, cap: float = DEFAULT_CAP):
        if not 0 < cap < math.inf:
            raise BadValue(f"budget cap must be positive and finite, got {cap}")
        self.cap = float(cap)
        self.used = 0.0
        self._lock = threading.Lock()

    def charge(self, ops: float) -> None:
        with self._lock:
            if self.used + ops > self.cap:
                raise BudgetExceeded(
                    f"operation budget exhausted: "
                    f"{self.used + ops:.3g} > {self.cap:.3g}"
                )
            self.used += ops


@dataclass
class MassMonitor:
    """Tally of propagation drift events; one per run, fed by every replicate."""

    renormalizations: int = 0
    max_drift: float = 0.0

    def record(self, drift: float, renormalized: bool) -> None:
        if drift > self.max_drift:
            self.max_drift = drift
        if renormalized:
            self.renormalizations += 1


class TransitionKernel:
    """Row-stochastic sparse walk matrix over [0, n).

    Give either the matrix P or the digraphs it comes from.  One digraph
    gives its walk; several digraphs on one degree sequence give one
    block-diagonal kernel whose block e, on vertices [e n, (e + 1) n), is
    the walk on the e-th digraph, so one product steps the whole batch.
    ``blocks`` counts them (1 for a matrix).  Both orientations are built
    lazily and cached: ``transpose`` (P^T, what propagation multiplies by)
    and ``matrix`` (P, summed and sorted, what path weights read).  ``nnz``
    counts stored entries, so a digraph kernel has nnz == blocks * m.
    """

    def __init__(self, matrix: Optional[csr_matrix] = None,
                 graphs: Sequence[Digraph] = ()):
        if (matrix is None) == (not graphs):
            raise BadValue("give exactly one of matrix and graphs")
        self._matrix = matrix
        self._graphs = tuple(graphs)
        self._transpose = None
        self.blocks = max(1, len(self._graphs))
        if self._graphs:
            seq = self._graphs[0].seq
            if not all(_same_sequence(g.seq, seq) for g in self._graphs):
                raise BadValue("a kernel's digraphs need one degree sequence")
            self.n, self.nnz = self.blocks * seq.n, self.blocks * seq.m
        else:
            self.n, self.nnz = matrix.shape[0], matrix.nnz

    @property
    def matrix(self) -> csr_matrix:
        if self._matrix is None:
            self._matrix = _row_matrix(self._graphs)
        return self._matrix

    @property
    def transpose(self) -> csr_matrix:
        if self._transpose is None:
            if self._graphs:
                self._transpose = _transpose_matrix(self._graphs)
            else:
                self._transpose = self._matrix.T.tocsr()
        return self._transpose


def _same_sequence(a: DegreeSequence, b: DegreeSequence) -> bool:
    return a is b or (a.model is b.model
                      and np.array_equal(a.out_degrees, b.out_degrees)
                      and np.array_equal(a.in_degrees, b.in_degrees))


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


def _out_lists(graphs: Sequence[Digraph]) -> csr_matrix:
    """P with one entry per edge, in sampling order (writable copies),
    block-diagonal over the graphs."""
    seq = graphs[0].seq
    b, n, m = len(graphs), seq.n, seq.m
    idx = index_dtype_for(b * m)
    heads = np.stack([g.heads for g in graphs], dtype=idx)
    heads += np.arange(b, dtype=idx)[:, None] * n
    data = seq.inv_out_degrees[np.broadcast_to(seq.tails, (b, m))].ravel()
    indptr = _block_pointer(seq.out_offsets, b, m, idx)
    return csr_matrix((data, heads.ravel(), indptr), shape=(b * n, b * n))


def _row_matrix(graphs: Sequence[Digraph]) -> csr_matrix:
    mat = _out_lists(graphs)
    mat.sum_duplicates()        # sorts each row, then merges parallel edges
    return mat


def _transpose_matrix(graphs: Sequence[Digraph]) -> csr_matrix:
    """Block-diagonal P^T with one entry per edge: row y lists the tails of
    y's in-edges.  One graph is the one-block case: when every digraph has
    a matching, or none has, each block equals its digraph's own P^T entry
    for entry (a mixed batch takes the out-list build for all)."""
    if any(g.head_stubs is None for g in graphs):
        # scipy's CSR -> CSC conversion is a stable O(m) counting sort by
        # head, so each row keeps its graph's own entry order
        return _out_lists(graphs).tocsc().T
    # A DCM matching already groups the edges by head: stub j of the
    # head-ordered stubs sits at row position j of P^T.  Row e of the
    # (b, m) table is block e, whose tails are offset by e n.  One graph
    # uses the sequence's shared, read-only in-degree offsets as its row
    # pointer.
    seq = graphs[0].seq
    b, n, m = len(graphs), seq.n, seq.m
    idx = index_dtype_for(b * m)
    tails = np.empty((b, m), dtype=idx)
    for row, g in zip(tails, graphs):
        row[g.head_stubs] = seq.tails
    data = seq.inv_out_degrees[tails]
    if b == 1:
        indptr = seq.in_offsets
    else:
        tails += np.arange(b, dtype=idx)[:, None] * n
        indptr = _block_pointer(seq.in_offsets, b, m, idx)
    return csr_matrix((data.ravel(), tails.ravel(), indptr),
                      shape=(b * n, b * n))


def kernel_from_digraph(g: Digraph, *more: Digraph) -> TransitionKernel:
    """Walk kernel of g: each out-edge of x carries 1/out-degree(x).

    Given more digraphs on g's degree sequence, one block-diagonal kernel
    over all of them, block e for the e-th digraph.  Nothing is built
    here; P^T is built on first propagation (one entry per edge) and P on
    first path weight (parallel edges summed).
    """
    return TransitionKernel(graphs=(g, *more))


def _renormalized(v: np.ndarray,
                  monitor: Optional[MassMonitor]) -> np.ndarray:
    """v, divided by its mass when that drifted from 1 by more than DIST_TOL."""
    s = float(v.sum())
    drift = abs(s - 1.0)
    renorm = drift > DIST_TOL
    if renorm:
        v = v / s
    if monitor is not None:
        monitor.record(drift, renorm)
    return v


def _step(v: np.ndarray, kernel: TransitionKernel,
          monitor: Optional[MassMonitor]) -> np.ndarray:
    return _renormalized(kernel.transpose @ v, monitor)


def _block_step(v: np.ndarray, kernel: TransitionKernel,
                monitor: Optional[MassMonitor]) -> np.ndarray:
    """_step for a (kernel.n, k) block: each kernel block's part of each
    column is one distribution, checked and renormalized on its own."""
    w = kernel.transpose @ v
    laws = w.reshape(kernel.blocks, kernel.n // kernel.blocks,
                     w.shape[1]).transpose(0, 2, 1)     # a view of w
    # summed over contiguous rows, each mass equals the 1-d v.sum() bitwise
    sums = np.ascontiguousarray(laws).sum(axis=2)
    drift = np.abs(sums - 1.0)
    renorm = drift > DIST_TOL
    if renorm.any():
        laws[renorm] /= sums[renorm][:, None]
    if monitor is not None:
        for d, r in zip(drift.ravel().tolist(), renorm.ravel().tolist()):
            monitor.record(d, r)
    return w


def propagate(dist, kernel: TransitionKernel, steps: int,
              monitor: Optional[MassMonitor] = None,
              budget: Optional[OperationBudget] = None) -> np.ndarray:
    """Push a distribution ``steps`` whole steps forward.

    dist is one distribution of length kernel.n, or a (kernel.n, k) block
    of k columns pushed by one product per step.  In a block, each kernel
    block's part of each column is a distribution of its own: its drift is
    checked, renormalized and recorded as a lone vector's would be, so the
    result equals separate 1-d calls bit for bit.
    """
    if steps < 0:
        raise BadRange("steps must be nonnegative")
    v = np.asarray(dist, dtype=np.float64)
    if v.shape != (kernel.n,) and (v.ndim != 2 or len(v) != kernel.n):
        raise BadValue(f"distribution shape {v.shape} does not fit "
                       f"kernel size {kernel.n}")
    if budget is not None:
        budget.charge(float(steps) * kernel.nnz * (v.size // kernel.n))
    v = v.copy()
    step = _step if v.ndim == 1 else _block_step
    for _ in range(steps):
        v = step(v, kernel, monitor)
    return v


def delta_at(x: int, n: int) -> np.ndarray:
    if not 0 <= x < n:
        raise BadRange(f"vertex {x} outside [0, {n})")
    v = np.zeros(n)
    v[x] = 1.0
    return v


def double_row(x: int, s: int, t: int, k_sigma: TransitionKernel,
               k_eta: TransitionKernel,
               monitor: Optional[MassMonitor] = None,
               budget: Optional[OperationBudget] = None) -> np.ndarray:
    """Law after s steps in one environment then t - s in another."""
    if k_sigma.n != k_eta.n:
        raise BadValue("kernels have different vertex counts")
    if not 0 <= s <= t:
        raise BadRange(f"need 0 <= s <= t, got s={s}, t={t}")
    v = propagate(delta_at(x, k_sigma.n), k_sigma, s, monitor, budget)
    return propagate(v, k_eta, t - s, monitor, budget)


def time_averaged_rows(x: int, times: Sequence[int],
                       k_sigma: TransitionKernel, k_eta: TransitionKernel,
                       monitor: Optional[MassMonitor] = None,
                       budget: Optional[OperationBudget] = None) -> dict:
    """``{t: time_averaged_row(x, t, ...)}`` for every t in times, in one pass.

    The Horner accumulator after switch time s is s times the row for
    t = s, so one pass up to max(times) yields every row, bitwise equal to
    separate calls, for 2 max(times) kernel applications instead of
    2 sum(times).  Memory is O(n) per distinct t.
    """
    if k_sigma.n != k_eta.n:
        raise BadValue("kernels have different vertex counts")
    wanted = set(times)
    if any(t < 1 for t in wanted):
        raise BadRange("t must be >= 1")
    t_max = max(wanted, default=0)
    if budget is not None:
        budget.charge(2.0 * t_max * max(k_sigma.nnz, k_eta.nnz))
    u = delta_at(x, k_sigma.n)        # delta_x P_sigma^{s-1} at switch time s
    acc = np.zeros(k_sigma.n)
    tmat = k_eta.transpose
    rows = {}
    for s in range(1, t_max + 1):
        if s > 1:
            # raw product: the accumulator's mass is s-1, not 1, so the
            # per-step drift check does not apply to it
            acc = tmat @ acc
        acc += u
        if s in wanted:
            rows[s] = _renormalized(acc / float(s), monitor)
        if s < t_max:
            u = _step(u, k_sigma, monitor)
    return rows


def time_averaged_row(x: int, t: int, k_sigma: TransitionKernel,
                      k_eta: TransitionKernel,
                      monitor: Optional[MassMonitor] = None,
                      budget: Optional[OperationBudget] = None) -> np.ndarray:
    """Average over switch times s = 1..t of the two-environment rows.

    Returns (1/t) * sum_s (delta_x P_sigma^{s-1} P_eta^{t-s}).  Both the
    running first-environment vector and the Horner-style accumulator
    advance forward in s together, so the whole thing costs 2t kernel
    applications and O(n) memory.  This is the single-t case of
    ``time_averaged_rows``, which serves a whole grid of t from one pass.
    """
    return time_averaged_rows(x, (t,), k_sigma, k_eta, monitor, budget)[t]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A realized walk path; ``switch_time`` is the step count taken in the
    first environment (None means the whole path ran there)."""

    states: np.ndarray
    switch_time: Optional[int]

    @property
    def length(self) -> int:
        return len(self.states) - 1


def _check_walk(s: int, t: int, g_sigma: Digraph, g_eta: Digraph) -> None:
    if g_sigma.n != g_eta.n:
        raise BadValue("digraphs have different vertex counts")
    if not (0 <= s <= t):
        raise BadRange(f"need 0 <= s <= t, got s={s}, t={t}")


def sample_trajectory(x: int, s: int, t: int, g_sigma: Digraph,
                      g_eta: Digraph, stream: RngStream) -> Trajectory:
    """Walk t steps from x: the first s through g_sigma, the rest through g_eta.

    Each step picks a uniform raw out-edge, so parallel edges carry their
    multiplicity and self-loops can be traversed.
    """
    _check_walk(s, t, g_sigma, g_eta)
    if not 0 <= x < g_sigma.n:
        raise BadRange(f"start {x} outside [0, {g_sigma.n})")
    gen = stream.generator()
    states = np.empty(t + 1, dtype=np.int64)
    states[0] = x
    cur = x
    for step in range(1, t + 1):
        g = g_sigma if step <= s else g_eta
        edges = g.out_edges(cur)
        cur = int(edges[gen.integers(0, len(edges))])
        states[step] = cur
    return Trajectory(states=states, switch_time=s)


def sample_paths(xs, s: int, t: int, g_sigma: Digraph, g_eta: Digraph,
                 stream: RngStream) -> np.ndarray:
    """States (N, t + 1) of N walks from the starts xs, stepped together.

    Like ``sample_trajectory``, the first s steps go through g_sigma and the
    rest through g_eta, each along a uniform raw out-edge.  Every step is
    one draw of N edge ranks from the one generator of ``stream``, each
    below its vertex's out-degree, so no rounding can pick a rank past the
    last edge.  Memory is the (N, t + 1) states and O(N) per step.
    """
    _check_walk(s, t, g_sigma, g_eta)
    xs = np.asarray(xs, dtype=np.int64)
    if xs.ndim != 1:
        raise BadValue(f"starts must be one-dimensional, got shape {xs.shape}")
    if xs.size and not (0 <= xs.min() and xs.max() < g_sigma.n):
        raise BadRange(f"a start lies outside [0, {g_sigma.n})")
    gen = stream.generator()
    states = np.empty((xs.size, t + 1), dtype=np.int64)
    states[:, 0] = cur = xs
    for step in range(1, t + 1):
        g = g_sigma if step <= s else g_eta
        first = g.offsets[cur]
        cur = g.heads[first + gen.integers(0, g.offsets[cur + 1] - first)]
        states[:, step] = cur
    return states


def _row_positions(indptr: np.ndarray, indices: np.ndarray, x: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    """For each pair, where y would sit in the sorted row x of a CSR
    matrix: one bisection inside every row at once, about log2(max row
    length) vectorized passes."""
    lo = indptr[x].astype(np.int64)
    size = indptr[x + 1] - lo
    last = len(indices) - 1
    while True:
        live = size > 0
        if not live.any():
            return lo
        half = size >> 1
        probe = lo + half
        right = live & (indices[np.minimum(probe, last)] < y)
        lo = np.where(right, probe + 1, lo)
        size = np.where(right, size - half - 1, half)


def _step_log_probs(mat: csr_matrix, x: np.ndarray, y: np.ndarray,
                    step: int) -> np.ndarray:
    """log P(x, y) for one step of every path; ImpossibleStep if an edge
    is absent."""
    k = np.minimum(_row_positions(mat.indptr, mat.indices, x, y),
                   mat.nnz - 1)
    found = (k < mat.indptr[x + 1]) & (mat.indices[k] == y)
    if not found.all():
        i = int(np.flatnonzero(~found)[0])
        raise ImpossibleStep(f"trajectory {i}, step {step}: "
                             f"no edge {x[i]} -> {y[i]}")
    # math.log of each distinct probability: np.log can differ from it in
    # the last bit (seen at 0.9999999999999998)
    probs, inverse = np.unique(mat.data[k], return_inverse=True)
    return np.array([math.log(p) for p in probs.tolist()])[inverse]


def path_log_weights(states, s: int, k_sigma: TransitionKernel,
                     k_eta: TransitionKernel) -> np.ndarray:
    """Log-probability of each row of states (N, t + 1) as an exact path:
    steps before s under k_sigma, the rest under k_eta.

    Each step looks up P(x, y) for all N paths at once and adds its logs,
    so every path is summed in step order, bitwise as a scalar loop would.
    """
    states = np.asarray(states)
    if states.ndim != 2:
        raise BadValue(f"states must be (paths, t + 1), got {states.shape}")
    mats = (k_sigma.matrix, k_eta.matrix)
    total = np.zeros(len(states))
    for j in range(states.shape[1] - 1):
        total += _step_log_probs(mats[j >= s], states[:, j],
                                 states[:, j + 1], j)
    return total


def path_log_weight(traj: Trajectory, k_sigma: TransitionKernel,
                    k_eta: TransitionKernel) -> float:
    """Log-probability of the exact path under the two quenched kernels.

    The single-path case of ``path_log_weights``.
    """
    s = traj.switch_time if traj.switch_time is not None else traj.length
    return float(path_log_weights(traj.states[None, :], s, k_sigma,
                                  k_eta)[0])
