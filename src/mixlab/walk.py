"""Transition kernels and everything that moves mass through them.

Propagation is P^T times a dense vector, with mass drift watched at 1e-9
and every renormalization counted rather than hidden.  A digraph kernel
therefore builds P^T, in O(m) on first use, with one entry of weight
1/out-degree per edge: parallel edges stay separate entries and self-loops
sit on the diagonal.  P^T is the one matrix a kernel stores; P is a
zero-copy view of it.  Digraphs on one degree sequence can share one
block-diagonal kernel, through which propagate moves a whole (n, k) block
of laws by one product per step.

Trajectories are arrays too.  ``sample_paths`` steps a block of N paths
together on one stream, one draw over the whole block per step, and
returns their (N, t + 1) states; ``path_log_weights`` weighs every path
with one scipy lookup ``P^T[y, x]`` per step.  ``sample_trajectory`` and
``path_log_weight`` are the one-row cases of these two.  A caller with
many paths walks them in blocks, one stream per block, so it holds one
block's states at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix

from .core import DIST_TOL, DegreeSequence, index_dtype_for
from .errors import BadRange, BadValue, BudgetExceeded, ImpossibleStep
from .rng import RngStream
from .sampler import Digraph


class OperationBudget:
    """Caps scalar multiply-add work for a run: ``propagate``,
    ``time_averaged_rows`` and ``stationary_distribution`` charge every
    product or solver iteration before it runs.  A run charges it from
    one thread, replicate after replicate, so it takes no lock."""

    DEFAULT_CAP = 5e10

    def __init__(self, cap: float = DEFAULT_CAP):
        if not 0 < cap < math.inf:
            raise BadValue(f"budget cap must be positive and finite, got {cap}")
        self.cap = float(cap)
        self.used = 0.0

    def charge(self, ops: float) -> None:
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

    def record(self, drift: float, renormalized: int) -> None:
        """Note a step's largest drift and how many vectors it
        renormalized (a bool counts 0 or 1)."""
        if drift > self.max_drift:
            self.max_drift = drift
        self.renormalizations += int(renormalized)


class TransitionKernel:
    """Row-stochastic sparse walk matrix over [0, n).

    Give either the matrix P or the digraphs it comes from.  One digraph
    gives its walk; several digraphs on one degree sequence give one
    block-diagonal kernel whose block e, on vertices [e n, (e + 1) n), is
    the walk on the e-th digraph, so one product steps the whole batch.
    ``blocks`` counts them (1 for a matrix).  The kernel stores one
    matrix, ``transpose`` (P^T, what propagation multiplies by and path
    weights read): a digraph kernel builds it on first use and caches it,
    a matrix kernel builds it from P at once and keeps no copy of P.
    ``nnz`` counts stored entries, so a digraph kernel has nnz == blocks * m.
    """

    def __init__(self, matrix: Optional[csr_matrix] = None,
                 graphs: Sequence[Digraph] = ()):
        if (matrix is None) == (not graphs):
            raise BadValue("give exactly one of matrix and graphs")
        self._graphs = tuple(graphs)
        self._transpose = None if matrix is None else matrix.T.tocsr()
        self.blocks = max(1, len(self._graphs))
        if self._graphs:
            seq = self._graphs[0].seq
            if not all(_same_sequence(g.seq, seq) for g in self._graphs):
                raise BadValue("a kernel's digraphs need one degree sequence")
            self.n, self.nnz = self.blocks * seq.n, self.blocks * seq.m
        else:
            self.n, self.nnz = matrix.shape[0], matrix.nnz

    @property
    def matrix(self) -> csc_matrix:
        """P as a CSC view of ``transpose``: it shares P^T's arrays, and
        builds and caches nothing of its own."""
        return self.transpose.T

    @property
    def transpose(self) -> csr_matrix:
        if self._transpose is None:
            self._transpose = _transpose_matrix(self._graphs)
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
    """P with one entry per edge, in sampling order, block-diagonal over
    the graphs."""
    seq = graphs[0].seq
    b, n, m = len(graphs), seq.n, seq.m
    idx = index_dtype_for(b * m)
    heads = np.stack([g.heads for g in graphs], dtype=idx)
    heads += np.arange(b, dtype=idx)[:, None] * n
    data = seq.inv_out_degrees[np.broadcast_to(seq.tails, (b, m))].ravel()
    indptr = _block_pointer(seq.out_offsets, b, m, idx)
    return csr_matrix((data, heads.ravel(), indptr), shape=(b * n, b * n))


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
    here; P^T, one entry per edge, is built on first use.
    """
    return TransitionKernel(graphs=(g, *more))


def _renormalized(v: np.ndarray,
                  monitor: Optional[MassMonitor]) -> np.ndarray:
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
    if not (np.isfinite(sums).all() and sums.all()):
        raise BadValue("a law's mass is not finite and nonzero")
    drift = np.abs(sums - 1.0)
    renorm = drift > DIST_TOL
    if renorm.any():
        laws[renorm] /= sums[renorm][:, None]
    if monitor is not None:
        monitor.record(float(drift.max(initial=0.0)), int(renorm.sum()))
    return w


def propagate(dist, kernel: TransitionKernel, steps: int,
              monitor: Optional[MassMonitor] = None,
              budget: Optional[OperationBudget] = None) -> np.ndarray:
    """Push a distribution ``steps`` whole steps forward.

    dist is one distribution of length kernel.n, or a (kernel.n, k) block
    of k columns pushed by one product per step.  In a block, each kernel
    block's part of each column is a distribution of its own: its drift is
    checked, renormalized and recorded as a lone vector's would be, so the
    result equals separate 1-d calls bit for bit.  A law whose mass is
    zero or not finite, dist itself at zero steps, raises BadValue.
    """
    if steps < 0:
        raise BadRange("steps must be nonnegative")
    v = np.asarray(dist, dtype=np.float64)
    if v.shape != (kernel.n,) and (v.ndim != 2 or len(v) != kernel.n):
        raise BadValue(f"distribution shape {v.shape} does not fit "
                       f"kernel size {kernel.n}")
    if budget is not None:
        budget.charge(float(steps) * kernel.nnz * (v.size // kernel.n))
    if steps == 0:      # no step will check dist's masses, so check them here
        blocks = kernel.blocks if v.ndim == 2 else 1
        mass = v.reshape(blocks, len(v) // blocks, v.size // len(v)).sum(1)
        if not (np.isfinite(mass).all() and mass.all()):
            raise BadValue("a law's mass is not finite and nonzero")
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
    if not (0 <= s <= t):
        raise BadRange(f"need 0 <= s <= t, got s={s}, t={t}")
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


def _step_log_probs(transpose: csr_matrix, x: np.ndarray, y: np.ndarray,
                    step: int) -> np.ndarray:
    """log P(x, y) for one step of every path, read as P^T[y, x];
    ImpossibleStep if an edge is absent.  scipy's lookup bisects a
    canonical row and otherwise scans it, summing duplicate entries, so
    parallel edges add up; a missing entry reads 0."""
    step_probs = np.asarray(transpose[y, x]).ravel()
    missing = np.flatnonzero(step_probs == 0)
    if missing.size:
        i = int(missing[0])
        raise ImpossibleStep(f"trajectory {i}, step {step}: "
                             f"no edge {x[i]} -> {y[i]}")
    # math.log of each distinct probability: np.log can differ from it in
    # the last bit (seen at 0.9999999999999998)
    probs, inverse = np.unique(step_probs, return_inverse=True)
    return np.array([math.log(p) for p in probs.tolist()])[inverse]


def path_log_weights(states, s: int, k_sigma: TransitionKernel,
                     k_eta: TransitionKernel) -> np.ndarray:
    """Log-probability of each row of states (N, t + 1) as an exact path:
    steps before s under k_sigma, the rest under k_eta.

    Each step looks up P(x, y) as P^T[y, x], in the P^T that propagation
    uses, for all N paths at once and adds its logs, so every path is
    summed in step order, bitwise as a scalar loop would.
    """
    if k_sigma.n != k_eta.n:
        raise BadValue("kernels have different vertex counts")
    states = np.asarray(states)
    if states.ndim != 2:
        raise BadValue(f"states must be (paths, t + 1), got {states.shape}")
    if not states.size:
        return np.zeros(len(states))
    # scipy would read state -1 as row n - 1
    if not (0 <= states.min() and states.max() < k_sigma.n):
        raise BadRange(f"a state lies outside [0, {k_sigma.n})")
    mats = (k_sigma.transpose, k_eta.transpose)
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
