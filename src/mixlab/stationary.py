"""Stationary laws by power iteration, plus delocalization diagnostics.

Power iteration starts from the in-degree law and averages consecutive
iterates, which kills the oscillation a nearly periodic kernel would
otherwise feed the residual.  Convergence is certified by re-measuring
the residual of the returned vector, never inferred from iterate gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (DegreeSequence, in_degree_distribution, integer_in,
                   law_array, mean_std_err, real_in, tv_distance)
from .errors import (AllReplicatesFailed, BadRange, BadValue, LengthMismatch,
                     NotConverged)
from .rng import LANE, RngStream
from .sampler import sample_digraph
from .walk import (OperationBudget, TransitionKernel, as_ledger,
                   kernel_from_digraph)

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class StationaryResult:
    distribution: np.ndarray
    iterations: int
    residual: float


def _default_max_iters(n: int) -> int:
    # 200 entropic times is generous; entropy >= log 2 bounds the scale.
    return 200 * max(1, math.ceil(math.log(max(n, 2)) / math.log(2.0)))


def stationary_distribution(kernel: TransitionKernel, tol: float = DEFAULT_TOL,
                            max_iters: Optional[int] = None,
                            start: Optional[np.ndarray] = None,
                            budget: Optional[OperationBudget] = None) -> StationaryResult:
    """Stationary law of a row-stochastic kernel via averaged power iteration.

    Raises NotConverged (carrying the best iterate, its residual, and an
    SCC count for diagnosis) when max_iters passes without the averaged
    iterate reaching the tolerance in total variation.
    """
    tol = real_in(tol, 0, math.inf, "tol")
    n = kernel.n
    if max_iters is None:
        max_iters = _default_max_iters(n)
    max_iters = integer_in(max_iters, 1, math.inf, "max_iters")

    if start is None:
        v = np.full(n, 1.0 / n)
    else:
        # checked here, since a NaN or zero-mass start would run every
        # iteration; callers may pass an unnormalized start
        v = law_array(start, "start")
        if v.shape != (n,):
            raise LengthMismatch(f"start shape {v.shape} does not fit "
                                 f"kernel size {n}")
        if not np.isfinite(v).all():
            raise BadValue("start has a non-finite entry")
        if v.sum() == 0:    # every iterate keeps it, and pi divides by it
            raise BadValue("start has zero mass")
    tmat = kernel.transpose
    budget = as_ledger(budget)
    nnz = float(kernel.nnz)     # a float takes charge's fast path
    budget.charge(nnz)

    w = tmat @ v
    cand_prev = 0.5 * (v + w)
    best = cand_prev
    best_res = math.inf
    iterations = 0
    for iterations in range(1, max_iters + 1):
        budget.charge(nnz)
        v = w
        w = tmat @ v
        cand = 0.5 * (v + w)
        # cand equals cand_prev pushed one step, so this is the exact
        # residual ||cand_prev P - cand_prev|| at no extra matvec cost
        res = tv_distance(cand, cand_prev)
        if res < best_res:
            best_res, best = res, cand_prev
        if res <= tol:
            pi = cand_prev / cand_prev.sum()
            budget.charge(nnz)
            verified = tv_distance(tmat @ pi, pi)
            if verified <= tol:
                pi.setflags(write=False)
                return StationaryResult(distribution=pi, iterations=iterations,
                                        residual=verified)
        cand_prev = cand

    # imported here: csgraph loads scipy.linalg, which only a failed solve needs
    from scipy.sparse.csgraph import connected_components

    # Reversing every edge keeps the strong components, so P^T serves.
    # scipy's strong-component search never returns on a CSR matrix with
    # duplicate entries, so parallel edges are merged in a copy first.
    adj = tmat.copy()
    adj.sum_duplicates()
    ncomp, _ = connected_components(adj, directed=True, connection="strong")
    raise NotConverged(
        f"residual {best_res:.3g} > tol {tol:g} after {max_iters} iterations "
        f"({ncomp} strongly connected components)",
        best=best / best.sum(), residual=best_res, iterations=max_iters,
        scc_count=int(ncomp),
    )


@dataclass(frozen=True)
class WidespreadStats:
    """Delocalization summaries of a stationary law.

    l2_stat = n * sum(pi^2) is at least 1 by Cauchy-Schwarz and stays O(1)
    for well-spread laws; max_stat = n * max(pi) grows polylogarithmically
    on the ensembles this package targets.
    """

    l2_stat: float
    max_stat: float


def widespread_stats(pi) -> WidespreadStats:
    pi = law_array(pi, "pi", ndim=1)
    n = pi.size
    return WidespreadStats(l2_stat=float(n * np.dot(pi, pi)),
                           max_stat=float(n * pi.max()))


@dataclass(frozen=True)
class GapEstimate:
    gap: float
    std_err: float
    replicates_used: int
    failures: int


@dataclass(frozen=True)
class DiagnosticsRow:
    replicate: int
    seed: int
    iterations: int
    residual: float
    l2_stat: float
    max_stat: float
    tv_to_in_law: float


def solve_replicates(seq: DegreeSequence, replicates: int, stream: RngStream,
                     tol: float = DEFAULT_TOL, max_iters: Optional[int] = None,
                     budget: Optional[OperationBudget] = None):
    """Sample graphs on consecutive streams of ``stream``'s lane, from
    ``stream`` on, and solve each for its stationary law.

    Returns (rows, failures): one DiagnosticsRow per converged replicate.
    Raises BadRange when the replicates would run past the lane's end.
    """
    replicates = integer_in(replicates, 1, math.inf, "replicates")
    which, first = divmod(stream.stream_index, LANE)
    if first + replicates > LANE:
        raise BadRange(f"{replicates} replicate streams from stream "
                       f"{stream.stream_index} run past the end of its lane")
    mu = in_degree_distribution(seq)
    rows = []
    failures = 0
    subs = stream.lanes(which, range(first, first + replicates))
    for r, sub in enumerate(subs):
        g = sample_digraph(seq, sub)
        kernel = kernel_from_digraph(g)
        try:
            result = stationary_distribution(kernel, tol=tol, max_iters=max_iters,
                                             start=mu, budget=budget)
        except NotConverged:
            failures += 1
            continue
        stats = widespread_stats(result.distribution)
        rows.append(DiagnosticsRow(
            replicate=r,
            seed=sub.stream_index,
            iterations=result.iterations,
            residual=result.residual,
            l2_stat=stats.l2_stat,
            max_stat=stats.max_stat,
            tv_to_in_law=tv_distance(result.distribution, mu),
        ))
    return rows, failures


def estimate_stationary_gap(seq: DegreeSequence, replicates: int,
                            stream: RngStream, tol: float = DEFAULT_TOL,
                            max_iters: Optional[int] = None,
                            budget: Optional[OperationBudget] = None) -> GapEstimate:
    """Mean distance between the stationary and in-degree laws over fresh graphs.

    Zero exactly when in-degrees equal out-degrees vertex by vertex; skips
    non-converged replicates and raises AllReplicatesFailed if none survive.
    """
    replicates = integer_in(replicates, 2, math.inf, "replicates")  # for std_err
    rows, failures = solve_replicates(seq, replicates, stream, tol=tol,
                                      max_iters=max_iters, budget=budget)
    if not rows:
        raise AllReplicatesFailed(f"all {replicates} stationary solves failed")
    gap, std_err = mean_std_err([row.tv_to_in_law for row in rows])
    return GapEstimate(gap=gap, std_err=std_err, replicates_used=len(rows),
                       failures=failures)
