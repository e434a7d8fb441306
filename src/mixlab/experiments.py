"""Theorem-level mixing experiments over sampled environments.

Each experiment samples environments on deterministic stream indices,
reduces replicate results in a fixed order, and reports curve rows
(abscissa, estimate, std_err, theory, n_effective) plus JSON metadata.
The refresh intensity gamma_hat = alpha * entropic_time is always derived
and reported, never accepted as an input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import (DegreeSequence, entropic_scale, in_degree_distribution,
                   mean_std_err, tv_distance)
from .errors import (AllReplicatesFailed, BadCurveName, BadRange, BadValue,
                     NotConverged)
from .report import ExperimentReport, ReportRow
from .rng import RngStream
from .sampler import sample_digraph
from .stationary import (DEFAULT_TOL, estimate_stationary_gap,
                         solve_replicates, stationary_distribution)
from .walk import (MassMonitor, OperationBudget, TransitionKernel, delta_at,
                   kernel_from_digraph, path_log_weights, propagate,
                   sample_paths, time_averaged_rows)

# Refresh-intensity thresholds: outside (GAMMA_LOW, GAMMA_HIGH) the run is
# reported against the corresponding limit-regime curve.
GAMMA_LOW = 0.2
GAMMA_HIGH = 5.0

# Grid points this close to a theory-curve discontinuity are flagged and
# left out of summary scoring; the curves jump there and finite-size runs
# can land on either branch.
FLAG_MARGIN = 0.1

EXHAUSTIVE_LIMIT = 2000
DEFAULT_START_SAMPLE = 32

# annealed_check stacks B = _BATCH_ENTRIES // (S * m) environments, each
# with S starts, into one block-diagonal kernel and moves all their laws by
# one SpMM per step, if B >= 1 and m <= _BATCH_MAX_EDGES; otherwise each
# environment walks alone, one SpMV per start.  Measured against walking
# alone on annealed, 3-regular DCM, t = 1 (median CPU of 3 alternating
# rounds of 5 runs; 2-core VM, Python 3.11, numpy 2.4, scipy 1.17):
# - m = 300, S = 4: 0.88 s alone, 0.29-0.35 s at 16384 ... 262144 entries
#   (B = 13 ... 218; tracemalloc peak 0.38 ... 5.9 MiB).  S = 32: 0.56 s
#   alone, 0.15 / 0.11 / 0.15 s at 32768 / 65536 / 131072.  S = 100: 0.45 s
#   alone, 0.09 / 0.12 s at 65536 (B = 2) / 131072 (B = 4).
# - At 65536 entries, S = 4 and 32: 1.4-2.5x faster for m = 600 ... 1500,
#   1.3x for m = 2100 at S = 4; slower for m = 3000 (0.14 -> 0.16 s at
#   S = 4, B = 5), and up to 2x slower for m = 15000 and 30000 at B = 2.
_BATCH_ENTRIES = 65536
_BATCH_MAX_EDGES = 2048

# Disjoint stream lanes for nested sampling loops.
_LANE_ENV_A = 1
_LANE_ENV_B = 2
_LANE_STARTS = 3
_LANE_GAP = 4
_LANE_SCHED = 5
_LANE_TRAJ = 6
DEGREE_LANE = 7     # degree-multiset shuffles of the CLI's mix: generator

# marginal_mc_crosscheck's jackknife leaves out one of this many schedule
# batches at a time; schedule m lands in batch m % _JACKKNIFE_BATCHES.
_JACKKNIFE_BATCHES = 10

# path_weight_lln walks its trajectories in blocks of this many, block b on
# stream (_LANE_TRAJ, b).
_PATH_BLOCK = 2048

CURVE_NAMES = ("joint_gamma0", "joint_gammainf", "joint_general",
               "marginal_gamma0", "marginal_gammainf", "marginal_general",
               "static_profile")

EXPERIMENT_NAMES = ("static-cutoff", "double-cutoff", "joint", "marginal",
                    "marginal-crosscheck", "annealed", "weight-lln",
                    "diagnostics", "q-estimate")


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    seq: DegreeSequence
    root_seed: int
    alpha: Optional[float] = None
    beta_grid: Sequence[float] = ()
    s_grid: Optional[Sequence[int]] = None
    env_samples: int = 10
    start_vertices: Union[str, int, Sequence[int]] = DEFAULT_START_SAMPLE
    tol: float = DEFAULT_TOL
    max_iters: Optional[int] = None

    def __post_init__(self):
        if self.alpha is not None and not (0.0 < self.alpha < 1.0):
            raise BadValue(f"alpha must be in (0, 1), got {self.alpha}")
        if self.env_samples < 1:
            raise BadValue("env_samples must be >= 1")
        for b in self.beta_grid:
            if not 0 <= b < math.inf:
                raise BadValue(f"beta {b} must be finite and nonnegative")

    def require_alpha(self) -> float:
        if self.alpha is None:
            raise BadValue("this experiment needs alpha")
        return self.alpha


def _floor_time(x: float) -> int:
    # the tiny nudge keeps exact-integer products (e.g. beta/alpha = 2.0)
    # from flooring down through float dust
    return int(math.floor(x + 1e-12))


# _pair packs two indices of 16 bits each into one stream-lane offset; an
# experiment calls it on its largest indices before it samples anything.
_PAIR_MAX = (1 << 16) - 1


def _pair(i: int, j: int) -> int:
    if not (0 <= i <= _PAIR_MAX and 0 <= j <= _PAIR_MAX):
        raise BadValue(f"stream indices ({i}, {j}) exceed the stream "
                       f"layout's limit of {_PAIR_MAX}")
    return (i << 16) | j


def gamma_hat(cfg: ExperimentConfig) -> float:
    return cfg.require_alpha() * entropic_scale(cfg.seq).entropic_time


def pick_regime(gh: float) -> str:
    if gh < GAMMA_LOW:
        return "0"
    if gh > GAMMA_HIGH:
        return "inf"
    return "general"


def _phi(b: float, gap: float) -> float:
    # step profile with its jump at 1; equality resolves to the upper branch
    return 1.0 if b < 1.0 else gap


def theory_curve(name: str, beta: float, gamma: Optional[float] = None,
                 gap: Optional[float] = None) -> float:
    """Limit-curve value at beta for one of the named regimes."""
    if beta < 0:
        raise BadValue("beta must be nonnegative")
    decay = math.exp(-beta)
    if name == "joint_gamma0":
        return decay
    if name == "joint_gammainf":
        return (1.0 + beta) * decay
    if name == "joint_general":
        if gamma is None or gamma <= 0:
            raise BadValue("joint_general needs gamma > 0")
        return (1.0 + beta) * decay if beta < gamma else decay
    if name == "marginal_gamma0":
        if gap is None:
            raise BadValue("marginal_gamma0 needs the stationary gap")
        return gap * decay
    if name == "marginal_gammainf":
        return decay
    if name == "marginal_general":
        if gamma is None or gamma <= 0:
            raise BadValue("marginal_general needs gamma > 0")
        if gap is None:
            raise BadValue("marginal_general needs the stationary gap")
        return _phi(beta / gamma, gap) * decay
    if name == "static_profile":
        if gap is None:
            raise BadValue("static_profile needs the stationary gap")
        return _phi(beta, gap)
    raise BadCurveName(f"unknown curve {name!r}; expected one of {CURVE_NAMES}")


def resolve_starts(cfg: ExperimentConfig, exhaustive_small: bool = True):
    """Start vertices and the mode string that lands in the metadata.

    An integer count samples that many distinct starts.  With
    ``exhaustive_small`` (max/min-over-x experiments) a count switches to
    every vertex at small n, so the worst case is exact there; without it
    (one environment replicate per start) a count is always sampled.
    """
    n = cfg.seq.n
    sv = cfg.start_vertices
    if isinstance(sv, str):
        if sv != "all":
            raise BadValue(f"start_vertices string must be 'all', got {sv!r}")
        return list(range(n)), "exhaustive"
    if isinstance(sv, (int, np.integer)):
        if sv < 1:
            raise BadValue("start_vertices count must be >= 1")
        if exhaustive_small and (n <= EXHAUSTIVE_LIMIT or sv >= n):
            return list(range(n)), "exhaustive"
        gen = RngStream(cfg.root_seed).lane(_LANE_STARTS).generator()
        picks = np.sort(gen.choice(n, size=min(int(sv), n), replace=False))
        return [int(x) for x in picks], "sample"
    starts = [int(x) for x in sv]
    if not starts:
        raise BadValue("start_vertices list must not be empty")
    for x in starts:
        if not 0 <= x < n:
            raise BadRange(f"start vertex {x} outside [0, {n})")
    return starts, "explicit"


# ---------------------------------------------------------------------------
# the replicate engine shared by the multi-environment experiments
# ---------------------------------------------------------------------------

def _parallel_map(fn, items):
    """Yield fn(item) for every item, in item order: the one replicate loop.

    ``items`` is read at most one item ahead of the consumer, so finished
    results never pile up and callers reduce them as they stream in.  The
    loop is serial; the name is kept because ``perfbench/tracer.py`` wraps
    this function by name to time the replicate engine.
    """
    for item in items:
        yield fn(item)


def _converged(results, msg: str):
    """(kept results, failure count); None marks a failed stationary solve."""
    results = list(results)
    kept = [res for res in results if res is not None]
    if not kept:
        raise AllReplicatesFailed(msg)
    return kept, len(results) - len(kept)


def _stationary(kernel: TransitionKernel, cfg: ExperimentConfig,
                mu: np.ndarray,
                budget: Optional[OperationBudget]) -> Optional[np.ndarray]:
    """Stationary law of kernel, started from mu; None when the solve fails."""
    try:
        return stationary_distribution(kernel, tol=cfg.tol,
                                       max_iters=cfg.max_iters, start=mu,
                                       budget=budget).distribution
    except NotConverged:
        return None


def _gap(cfg: ExperimentConfig, replicates: int,
         budget: Optional[OperationBudget]):
    """Stationary-gap estimate on the stream lane every gap run shares."""
    return estimate_stationary_gap(cfg.seq, replicates,
                                   RngStream(cfg.root_seed).lane(_LANE_GAP),
                                   tol=cfg.tol, max_iters=cfg.max_iters,
                                   budget=budget)


def _kernel(seq: DegreeSequence, stream: RngStream) -> TransitionKernel:
    """Sample one environment on stream and wrap it as a walk kernel."""
    return kernel_from_digraph(sample_digraph(seq, stream))


def _laws_at(v: np.ndarray, kernel: TransitionKernel, times: Sequence[int],
             monitor: MassMonitor, budget: Optional[OperationBudget]):
    """Yield (t, v P^t) for sorted times, one propagate per gap; v is a law
    or a block of laws."""
    cur = 0
    for t in times:
        v = propagate(v, kernel, t - cur, monitor, budget)
        cur = t
        yield t, v


def _meta(name: str, cfg: ExperimentConfig,
          monitor: Optional[MassMonitor] = None, scale=None, **extra) -> dict:
    """Sidecar keys every experiment shares, then its own ``extra`` keys."""
    meta = {"experiment": name, "n": cfg.seq.n,
            "model": cfg.seq.model.value, "root_seed": cfg.root_seed}
    if scale is not None:
        meta.update(entropy=scale.entropy, entropic_time=scale.entropic_time)
    if monitor is not None:
        meta.update(renormalizations=monitor.renormalizations,
                    max_drift=monitor.max_drift)
    meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# static environment: cutoff profile
# ---------------------------------------------------------------------------

def static_cutoff_profile(cfg: ExperimentConfig,
                          budget: Optional[OperationBudget] = None) -> ExperimentReport:
    """Worst-start distance to stationarity at times beta * entropic_time.

    One environment per replicate; the estimate column is the replicate
    mean of max-over-starts TV, against the step profile 1(beta < 1).
    """
    if not cfg.beta_grid:
        raise BadValue("beta_grid must be nonempty")
    seq = cfg.seq
    scale = entropic_scale(seq)
    mu = in_degree_distribution(seq)
    betas = list(cfg.beta_grid)
    ts = [_floor_time(b * scale.entropic_time) for b in betas]
    t_unique = sorted(set(ts))
    starts, mode = resolve_starts(cfg)
    base = RngStream(cfg.root_seed)
    monitor = MassMonitor()

    def one(r: int):
        kernel = _kernel(seq, base.lane(_LANE_ENV_A, r))
        pi = _stationary(kernel, cfg, mu, budget)
        if pi is None:
            return None
        worst = dict.fromkeys(t_unique, 0.0)
        for x in starts:
            laws = _laws_at(delta_at(x, seq.n), kernel, t_unique, monitor,
                            budget)
            for t, v in laws:
                worst[t] = max(worst[t], tv_distance(v, pi))
        return worst

    per_rep, failures = _converged(
        _parallel_map(one, range(cfg.env_samples)),
        "no stationary solve converged")

    rows = []
    for beta, t in zip(betas, ts):
        mean, err = mean_std_err([w[t] for w in per_rep])
        rows.append(ReportRow(
            abscissa=beta, estimate=mean, std_err=err,
            theory=1.0 if beta < 1.0 else 0.0,
            n_effective=len(per_rep),
            flagged=abs(beta - 1.0) < FLAG_MARGIN,
        ))
    meta = _meta(
        "static-cutoff", cfg, monitor, scale,
        times=ts, start_mode=mode, start_count=len(starts),
        replicates=len(per_rep), solve_failures=failures,
        per_beta_replicate_values={str(b): [w[t] for w in per_rep]
                                   for b, t in zip(betas, ts)})
    return ExperimentReport("static-cutoff", rows, meta)


# ---------------------------------------------------------------------------
# two environments: distance after s steps in one and t - s in the other
# ---------------------------------------------------------------------------

def double_cutoff_sweep(cfg: ExperimentConfig, beta: float,
                        budget: Optional[OperationBudget] = None) -> ExperimentReport:
    """Sweep the switch time s at fixed total time t = floor(beta * t_ent).

    For beta < 1 the theorem-relevant statistic is the best case (min over
    starts, which should stay near 1); for beta > 1 it is the worst case
    (max over starts, which should fall to 0).  The estimate column holds
    the replicate mean of that statistic; both extremes for every
    replicate are recorded in the metadata.
    """
    if not 0 <= beta < math.inf:
        raise BadValue(f"beta {beta} must be finite and nonnegative")
    if cfg.s_grid is None or len(cfg.s_grid) == 0:
        raise BadValue("double-cutoff needs s_grid")
    seq = cfg.seq
    scale = entropic_scale(seq)
    mu = in_degree_distribution(seq)
    t = _floor_time(beta * scale.entropic_time)
    s_grid = [int(s) for s in cfg.s_grid]
    for s in s_grid:
        if not 0 <= s <= t:
            raise BadRange(f"switch time {s} outside [0, {t}]")
    s_sorted = sorted(set(s_grid))
    starts, mode = resolve_starts(cfg)
    base = RngStream(cfg.root_seed)
    monitor = MassMonitor()

    def one(r: int):
        k_sigma = _kernel(seq, base.lane(_LANE_ENV_A, r))
        k_eta = _kernel(seq, base.lane(_LANE_ENV_B, r))
        pi_eta = _stationary(k_eta, cfg, mu, budget)
        if pi_eta is None:
            return None
        lo = dict.fromkeys(s_sorted, math.inf)
        hi = dict.fromkeys(s_sorted, 0.0)
        for x in starts:
            laws = _laws_at(delta_at(x, seq.n), k_sigma, s_sorted, monitor,
                            budget)
            for s, v in laws:
                d = tv_distance(propagate(v, k_eta, t - s, monitor, budget),
                                pi_eta)
                lo[s] = min(lo[s], d)
                hi[s] = max(hi[s], d)
        return lo, hi

    per_rep, failures = _converged(
        _parallel_map(one, range(cfg.env_samples)),
        "no stationary solve converged")

    use_min = beta < 1.0
    rows = []
    for s in s_sorted:
        mean, err = mean_std_err([(lo if use_min else hi)[s]
                                  for lo, hi in per_rep])
        rows.append(ReportRow(
            abscissa=float(s), estimate=mean, std_err=err,
            theory=1.0 if beta < 1.0 else 0.0,
            n_effective=len(per_rep),
        ))
    meta = _meta(
        "double-cutoff", cfg, monitor, scale, beta=beta, t=t,
        statistic="min_over_starts" if use_min else "max_over_starts",
        start_mode=mode, start_count=len(starts),
        replicates=len(per_rep), solve_failures=failures,
        per_s_min={str(s): [lo[s] for lo, _ in per_rep] for s in s_sorted},
        per_s_max={str(s): [hi[s] for _, hi in per_rep] for s in s_sorted})
    return ExperimentReport("double-cutoff", rows, meta)


# ---------------------------------------------------------------------------
# regenerating joint chain: distance of (environment, position) to equilibrium
# ---------------------------------------------------------------------------

def _joint_coefficients(alpha: float, t: int):
    # survival and refresh-once weights of the regeneration count at time t;
    # their limits are exp(-beta) and beta * exp(-beta)
    survive = (1.0 - alpha) ** t
    refresh_once = alpha * t * (1.0 - alpha) ** (t - 1) if t >= 1 else 0.0
    return survive, refresh_once


def joint_relaxation_curve(cfg: ExperimentConfig,
                           budget: Optional[OperationBudget] = None) -> ExperimentReport:
    """Joint-chain distance estimate on the refresh time scale t = beta / alpha.

    Per replicate (one environment and one start), the estimate combines
    the no-refresh survival mass with the averaged single-refresh rows
    against fresh-environment stationary laws:

        0.5 * [ survive + mean_eta sum_y | refresh_once * row(eta, y)
                                          - (survive + refresh_once) * pi_eta(y) | ]

    where ``row`` is the switch-time-averaged two-environment row.  Finite
    refresh-count coefficients are used instead of their Poisson limits,
    which removes an O(alpha) bias at the alphas a desk run can afford.
    """
    alpha = cfg.require_alpha()
    if not cfg.beta_grid:
        raise BadValue("beta_grid must be nonempty")
    seq = cfg.seq
    scale = entropic_scale(seq)
    mu = in_degree_distribution(seq)
    gh = gamma_hat(cfg)
    regime = pick_regime(gh)
    curve = {"0": "joint_gamma0", "inf": "joint_gammainf",
             "general": "joint_general"}[regime]
    betas = list(cfg.beta_grid)
    ts = [_floor_time(b / alpha) for b in betas]
    t_of = dict(zip(betas, ts))  # a repeated beta is estimated once
    t_rows = [t for t in ts if t > 0]
    starts, mode = resolve_starts(cfg, exhaustive_small=False)
    _pair(len(starts) - 1, cfg.env_samples - 1)
    base = RngStream(cfg.root_seed)
    monitor = MassMonitor()
    used_total = [0] * len(starts)

    def one(item):
        i, x = item
        k_sigma = _kernel(seq, base.lane(_LANE_ENV_A, i))
        sums = {b: 0.0 for b in betas}
        used = 0
        for j in range(cfg.env_samples):
            k_eta = _kernel(seq, base.lane(_LANE_ENV_B, _pair(i, j)))
            pi_eta = _stationary(k_eta, cfg, mu, budget)
            if pi_eta is None:
                continue
            used += 1
            # every grid time's row from one pass up to the largest
            rows = time_averaged_rows(x, t_rows, k_sigma, k_eta, monitor,
                                      budget)
            for beta, t in t_of.items():
                survive, refresh_once = _joint_coefficients(alpha, t)
                stay_weight = survive + refresh_once
                if t == 0:
                    l1 = stay_weight  # row term vanishes; all mass vs pi
                else:
                    l1 = float(np.abs(refresh_once * rows[t]
                                      - stay_weight * pi_eta).sum())
                sums[beta] += 0.5 * (survive + l1)
        used_total[i] = used
        return {b: sums[b] / used for b in betas} if used else None

    per_rep, _ = _converged(
        _parallel_map(one, enumerate(starts)),
        "every replicate lost all its environments")

    rows = []
    for beta in betas:
        mean, err = mean_std_err([est[beta] for est in per_rep])
        rows.append(ReportRow(
            abscissa=beta, estimate=min(mean, 1.0), std_err=err,
            theory=theory_curve(curve, beta, gamma=gh),
            n_effective=len(per_rep) * cfg.env_samples,
            flagged=(curve == "joint_general" and abs(beta - gh) < FLAG_MARGIN),
        ))
    meta = _meta(
        "joint", cfg, monitor, scale,
        alpha=alpha, gamma_hat=gh, regime=regime, curve=curve,
        times=ts, start_mode=mode, starts=starts,
        replicates=len(per_rep), env_samples=cfg.env_samples,
        env_skipped=len(starts) * cfg.env_samples - sum(used_total),
        per_beta_replicate_values={str(b): [est[b] for est in per_rep]
                                   for b in betas})
    return ExperimentReport("joint", rows, meta)


# ---------------------------------------------------------------------------
# marginal position law under regeneration
# ---------------------------------------------------------------------------

def marginal_relaxation_curve(cfg: ExperimentConfig,
                              time_scale: str = "regeneration",
                              gap_replicates: int = 20,
                              budget: Optional[OperationBudget] = None) -> ExperimentReport:
    """Position-law distance (1 - alpha)^t * TV(P_sigma^t(x, .), mu_in).

    ``time_scale`` picks the grid: "regeneration" runs t = floor(beta/alpha)
    against the regime curve; "entropic" runs t = floor(beta * t_ent), the
    small-gamma secondary grid, against the static step profile.

    The surviving-environment factor is exact, so the only randomness is
    over environments and starts; each start carries its own environment.
    """
    alpha = cfg.require_alpha()
    if time_scale not in ("regeneration", "entropic"):
        raise BadValue(f"time_scale must be 'regeneration' or 'entropic', "
                       f"got {time_scale!r}")
    if not cfg.beta_grid:
        raise BadValue("beta_grid must be nonempty")
    seq = cfg.seq
    scale = entropic_scale(seq)
    mu = in_degree_distribution(seq)
    gh = gamma_hat(cfg)
    regime = pick_regime(gh)
    betas = list(cfg.beta_grid)
    if time_scale == "regeneration":
        ts = [_floor_time(b / alpha) for b in betas]
    else:
        ts = [_floor_time(b * scale.entropic_time) for b in betas]

    if time_scale == "entropic":
        curve = "static_profile"
    else:
        curve = {"0": "marginal_gamma0", "inf": "marginal_gammainf",
                 "general": "marginal_general"}[regime]
    # stationary gap between the in-law and the true stationary law:
    # exactly zero for Eulerian matchings, estimated otherwise
    gap, gap_err, gap_meta = None, 0.0, {}
    if curve != "marginal_gammainf":
        if seq.is_eulerian:
            gap = 0.0
            gap_meta = {"q_hat": 0.0, "q_std_err": 0.0, "q_exact": True}
        else:
            gr = _gap(cfg, gap_replicates, budget)
            gap = gr.gap
            gap_err = gr.std_err
            gap_meta = {"q_hat": gr.gap, "q_std_err": gr.std_err,
                        "q_exact": False,
                        "q_replicates": gr.replicates_used,
                        "q_failures": gr.failures}

    starts, mode = resolve_starts(cfg, exhaustive_small=False)
    base = RngStream(cfg.root_seed)
    t_sorted = sorted(set(ts))
    monitor = MassMonitor()

    def one(item):
        i, x = item
        kernel = _kernel(seq, base.lane(_LANE_ENV_A, i))
        laws = _laws_at(delta_at(x, seq.n), kernel, t_sorted, monitor, budget)
        return {t: (1.0 - alpha) ** t * tv_distance(v, mu) for t, v in laws}

    per_rep = list(_parallel_map(one, enumerate(starts)))

    # the curve's jump, if it has one, flags the grid points next to it
    jump = {"marginal_general": gh, "static_profile": 1.0}.get(curve)
    rows = []
    for beta, t in zip(betas, ts):
        mean, err = mean_std_err([out[t] for out in per_rep])
        rows.append(ReportRow(
            abscissa=beta, estimate=mean,
            std_err=float(math.hypot(err, gap_err * math.exp(-beta))),
            theory=theory_curve(curve, beta, gamma=gh, gap=gap),
            n_effective=len(per_rep),
            flagged=jump is not None and abs(beta - jump) < FLAG_MARGIN,
        ))
    meta = _meta(
        "marginal", cfg, monitor, scale,
        alpha=alpha, gamma_hat=gh, regime=regime, curve=curve,
        time_scale=time_scale, times=ts, start_mode=mode, starts=starts,
        replicates=len(per_rep),
        per_beta_replicate_values={str(b): [out[t] for out in per_rep]
                                   for b, t in zip(betas, ts)},
        **gap_meta)
    return ExperimentReport("marginal", rows, meta)


@dataclass(frozen=True)
class CrosscheckResult:
    """Monte-Carlo marginal law vs. its exact counterpart at one time."""
    t: int
    exact: float
    sampled: float
    std_err: float
    schedules: int
    mean_refreshes: float
    renormalizations: int = 0
    max_drift: float = 0.0


def marginal_mc_crosscheck(cfg: ExperimentConfig, t: int,
                           schedule_samples: int,
                           budget: Optional[OperationBudget] = None) -> CrosscheckResult:
    """Drive the regenerating chain by sampled refresh schedules.

    Each schedule draws its refresh times, freezes the walk on refresh
    steps, and pushes the exact conditional law through the piecewise
    static kernels; averaging over schedules must reproduce the
    deterministic marginal estimate at the same t.  The jackknife over
    schedule batches gives the std_err.

    Every schedule walks in the first environment until its first refresh,
    so the laws delta_x P_sigma^k are walked once and shared: a schedule
    starts from the law at its first refresh step k (k = t when it never
    refreshes, the law the deterministic side also uses).  Only the k some
    schedule uses are kept, so this table holds at most
    min(t, schedule_samples) + 1 vectors of length n.  A refreshed
    environment is sampled only when a later step walks in it; its stream
    lane does not depend on that, and every refresh still counts toward
    ``mean_refreshes``.
    """
    alpha = cfg.require_alpha()
    if t < 0:
        raise BadValue("t must be nonnegative")
    if schedule_samples < _JACKKNIFE_BATCHES:
        raise BadValue("need at least one schedule per batch")
    _pair(schedule_samples - 1, t)  # a schedule refreshes at most t times
    seq = cfg.seq
    mu = in_degree_distribution(seq)
    x = resolve_starts(cfg, exhaustive_small=False)[0][0]
    base = RngStream(cfg.root_seed)
    k_sigma = _kernel(seq, base.lane(_LANE_ENV_A, 0))
    monitor = MassMonitor()

    refresh_steps = [
        np.flatnonzero(base.lane(_LANE_SCHED, _pair(m, 0)).generator()
                       .random(t) < alpha).tolist()
        for m in range(schedule_samples)]
    first = [steps[0] if steps else t for steps in refresh_steps]
    prefix = dict(_laws_at(delta_at(x, seq.n), k_sigma,
                           sorted(set(first) | {t}), monitor, budget))

    # deterministic side: no refresh happens with weight (1-alpha)^t and
    # conditional law P_sigma^t(x, .); sampling marginalizes the rest
    exact = (1.0 - alpha) ** t * tv_distance(prefix[t], mu)

    total = np.zeros(seq.n)
    batch_sums = np.zeros((_JACKKNIFE_BATCHES, seq.n))
    batch_counts = np.zeros(_JACKKNIFE_BATCHES, dtype=np.int64)
    refreshes = 0
    for m, steps in enumerate(refresh_steps):
        w = prefix[first[m]]
        # on a refresh step the environment changes and the walker holds;
        # environment k walks the steps between refreshes k and k + 1
        for k, (r, end) in enumerate(zip(steps, steps[1:] + [t]), start=1):
            if end - r > 1:
                kernel = _kernel(seq, base.lane(_LANE_SCHED, _pair(m, k)))
                w = propagate(w, kernel, end - r - 1, monitor, budget)
        refreshes += len(steps)
        total += w
        b = m % _JACKKNIFE_BATCHES
        batch_sums[b] += w
        batch_counts[b] += 1

    mean_law = total / schedule_samples
    sampled = tv_distance(mean_law, mu)
    rest = (total - batch_sums) / (schedule_samples - batch_counts)[:, None]
    loo = np.array([tv_distance(law, mu) for law in rest])
    std_err = float(math.sqrt((_JACKKNIFE_BATCHES - 1) / _JACKKNIFE_BATCHES
                              * float(((loo - loo.mean()) ** 2).sum())))
    return CrosscheckResult(t=t, exact=exact, sampled=sampled,
                            std_err=std_err, schedules=schedule_samples,
                            mean_refreshes=refreshes / schedule_samples,
                            renormalizations=monitor.renormalizations,
                            max_drift=monitor.max_drift)


def marginal_crosscheck_report(cfg: ExperimentConfig, t: int,
                               schedule_samples: int,
                               budget: Optional[OperationBudget] = None) -> ExperimentReport:
    """Curve-shaped wrapper: the theory column carries the deterministic
    estimate the sampled one must hit."""
    res = marginal_mc_crosscheck(cfg, t, schedule_samples, budget=budget)
    row = ReportRow(abscissa=float(res.t), estimate=res.sampled,
                    std_err=res.std_err, theory=res.exact,
                    n_effective=res.schedules)
    meta = _meta(
        "marginal-crosscheck", cfg,
        MassMonitor(res.renormalizations, res.max_drift),
        alpha=cfg.alpha, t=res.t,
        schedules=res.schedules, mean_refreshes=res.mean_refreshes,
        deterministic_estimate=res.exact, sampled_estimate=res.sampled,
        abs_gap=abs(res.sampled - res.exact))
    return ExperimentReport("marginal-crosscheck", [row], meta)


# ---------------------------------------------------------------------------
# annealed law: averaging the environment before walking kills the cutoff
# ---------------------------------------------------------------------------

def annealed_check(cfg: ExperimentConfig, t_grid: Sequence[int],
                   budget: Optional[OperationBudget] = None) -> ExperimentReport:
    """TV between the environment-averaged t-step law and the in-law.

    The averaged law mixes essentially immediately, so the theory column
    is 0 at every t >= 1.  std_err is the analytic Monte-Carlo bound
    0.5 * sum_y sqrt(var_hat(y) / samples), which dominates the bias of
    plugging the sample mean into TV.

    Small environments run in batches of B = _BATCH_ENTRIES // (S * m)
    for S starts while m <= _BATCH_MAX_EDGES, each sampled on its own
    stream lane: a batch is one block-diagonal kernel, and every
    (environment, start) law moves by one product per step.  Otherwise
    (B = 0 or a larger m) each environment walks alone, one SpMV per
    start.  Laws are reduced environment by environment in replicate
    order, so the result does not depend on B.  One item (an environment
    or a batch) is in flight at a time.  An environment walked alone
    holds |t_grid| * S * n floats of laws; a batch holds B * m kernel
    entries and B * (|t_grid| + 4) * S * n floats of laws and transient
    blocks, where B * S * n <= _BATCH_ENTRIES / 2 as m >= 2n.
    """
    ts = sorted(set(int(t) for t in t_grid))
    if not ts or ts[0] < 0:
        raise BadValue("t_grid must hold nonnegative integers")
    seq = cfg.seq
    mu = in_degree_distribution(seq)
    starts, mode = resolve_starts(cfg)
    samples = cfg.env_samples
    base = RngStream(cfg.root_seed)
    n, width = seq.n, len(starts)
    mean_acc = np.zeros((len(ts), width, n))
    sq_acc = np.zeros((len(ts), width, n))
    size = _BATCH_ENTRIES // (width * seq.m)
    alone = size == 0 or seq.m > _BATCH_MAX_EDGES
    size = 1 if alone else size
    batches = (range(lo, min(lo + size, samples))
               for lo in range(0, samples, size))
    monitor = MassMonitor()

    def one(batch: range):
        kernel = kernel_from_digraph(*(
            sample_digraph(seq, base.lane(_LANE_ENV_A, j)) for j in batch))
        b = len(batch)
        laws = np.empty((b, len(ts), width, n))
        if alone:
            for xi, x in enumerate(starts):
                for ti, (_, w) in enumerate(
                        _laws_at(delta_at(x, n), kernel, ts, monitor,
                                 budget)):
                    laws[0, ti, xi] = w
            return laws
        v = np.zeros((b, n, width))
        v[:, starts, np.arange(width)] = 1.0    # delta_x in every block
        for ti, (_, w) in enumerate(
                _laws_at(v.reshape(b * n, width), kernel, ts, monitor,
                         budget)):
            laws[:, ti] = w.reshape(b, n, width).transpose(0, 2, 1)
        return laws

    for laws in _parallel_map(one, batches):
        for law in laws:        # replicate order, never a sum over the batch
            mean_acc += law
            sq_acc += law * law

    mean_acc /= samples
    rows = []
    worst_start = {}
    for ti, t in enumerate(ts):
        dists = np.abs(mean_acc[ti] - mu[None, :]).sum(axis=1) * 0.5
        worst = worst_start[str(t)] = int(np.argmax(dists))
        if samples > 1:
            var = (sq_acc[ti, worst] - samples * mean_acc[ti, worst] ** 2)
            var = np.maximum(var / (samples - 1), 0.0)
            err = 0.5 * float(np.sqrt(var / samples).sum())
        else:
            err = 0.0
        rows.append(ReportRow(
            abscissa=float(t), estimate=float(dists[worst]), std_err=err,
            theory=0.0, n_effective=samples,
        ))
    meta = _meta("annealed", cfg, monitor, times=ts, env_samples=samples,
                 start_mode=mode, start_count=len(starts),
                 worst_start=worst_start)
    return ExperimentReport("annealed", rows, meta)


# ---------------------------------------------------------------------------
# path weights: trajectory log-weights concentrate at the entropy rate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathWeightResult:
    """Concentration summary for sampled two-environment trajectories."""
    samples: int
    t: int
    switch_time: int
    entropy: float
    mean_rate: float
    frac_in_window: float
    epsilon: float


def path_weight_lln(cfg: ExperimentConfig, s: int, t: int,
                    traj_samples: int, epsilon: float = 0.1,
                    budget: Optional[OperationBudget] = None) -> PathWeightResult:
    """Sample trajectories across an environment switch and weigh them.

    Draws starts from the in-law, walks s steps in the first environment
    and t - s in the second, and checks that -log(weight)/t concentrates
    at the degree entropy: the fraction with -log w in
    [(1-eps) H t, (1+eps) H t] is returned along with the mean rate.

    Trajectories are walked in blocks of ``_PATH_BLOCK``, all paths of a
    block stepped together on stream ``(_LANE_TRAJ, b)`` for block b, so
    besides the two environments and their kernels the memory is the
    traj_samples starts and log-weights plus one block's
    ``_PATH_BLOCK * (t + 1)`` states.
    """
    if not 0 <= s <= t or t < 1:
        raise BadRange(f"need 0 <= s <= t with t >= 1, got s={s}, t={t}")
    if traj_samples < 1:
        raise BadValue("traj_samples must be >= 1")
    if not 0 < epsilon < 1:
        raise BadValue("epsilon must be in (0, 1)")
    seq = cfg.seq
    scale = entropic_scale(seq)
    mu = in_degree_distribution(seq)
    base = RngStream(cfg.root_seed)
    g_sigma = sample_digraph(seq, base.lane(_LANE_ENV_A, 0))
    g_eta = sample_digraph(seq, base.lane(_LANE_ENV_B, 0))
    k_sigma = kernel_from_digraph(g_sigma)
    k_eta = kernel_from_digraph(g_eta)

    start_gen = base.lane(_LANE_STARTS).generator()
    xs = start_gen.choice(seq.n, size=traj_samples, replace=True, p=mu)
    log_weights = np.empty(traj_samples)
    for b, lo in enumerate(range(0, traj_samples, _PATH_BLOCK)):
        hi = min(lo + _PATH_BLOCK, traj_samples)
        if budget is not None:
            budget.charge(float(hi - lo) * t * seq.delta)
        states = sample_paths(xs[lo:hi], s, t, g_sigma, g_eta,
                              base.lane(_LANE_TRAJ, b))
        log_weights[lo:hi] = path_log_weights(states, s, k_sigma, k_eta)

    rates = -log_weights / t
    target = scale.entropy
    in_window = (np.abs(-log_weights / (target * t) - 1.0) <= epsilon)
    return PathWeightResult(
        samples=traj_samples, t=t, switch_time=s, entropy=target,
        mean_rate=float(rates.mean()),
        frac_in_window=float(in_window.mean()),
        epsilon=epsilon,
    )


def path_weight_report(cfg: ExperimentConfig, s: int, t: int,
                       traj_samples: int, epsilon: float = 0.1,
                       budget: Optional[OperationBudget] = None) -> ExperimentReport:
    """Curve-shaped wrapper: one row per quantity, theory = (1, H)."""
    res = path_weight_lln(cfg, s, t, traj_samples, epsilon, budget)
    rows = [
        ReportRow(abscissa=0.0, estimate=res.frac_in_window,
                  std_err=float(math.sqrt(res.frac_in_window
                                          * (1 - res.frac_in_window)
                                          / res.samples)),
                  theory=1.0, n_effective=res.samples),
    ]
    meta = _meta(
        "weight-lln", cfg, t=res.t, switch_time=res.switch_time,
        entropy=res.entropy, mean_rate=res.mean_rate,
        rate_abs_error=abs(res.mean_rate - res.entropy),
        epsilon=res.epsilon, samples=res.samples,
        row_meaning="fraction of trajectories in the entropy window")
    return ExperimentReport("weight-lln", rows, meta)


# ---------------------------------------------------------------------------
# stationary diagnostics as experiments
# ---------------------------------------------------------------------------

def stationary_diagnostics(cfg: ExperimentConfig,
                           budget: Optional[OperationBudget] = None):
    """Per-replicate stationary solves; returns (rows, failures).

    Thin wrapper so the command-line driver and library callers share one
    stream layout with the other experiments.
    """
    return solve_replicates(cfg.seq, cfg.env_samples,
                            RngStream(cfg.root_seed).lane(_LANE_GAP),
                            tol=cfg.tol, max_iters=cfg.max_iters,
                            budget=budget)


def stationary_gap_report(cfg: ExperimentConfig,
                          replicates: Optional[int] = None,
                          budget: Optional[OperationBudget] = None) -> ExperimentReport:
    """Mean distance between stationary law and in-law, as a one-row curve."""
    gr = _gap(cfg, cfg.env_samples if replicates is None else int(replicates),
              budget)
    theory = 0.0 if cfg.seq.is_eulerian else math.nan
    rows = [ReportRow(abscissa=0.0, estimate=gr.gap, std_err=gr.std_err,
                      theory=theory, n_effective=gr.replicates_used)]
    meta = _meta("q-estimate", cfg, replicates=gr.replicates_used,
                 solve_failures=gr.failures, eulerian=cfg.seq.is_eulerian)
    return ExperimentReport("q-estimate", rows, meta)
