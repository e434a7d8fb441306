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
from itertools import chain, islice
from typing import Optional, Sequence, Union

import numpy as np

from .core import (DegreeSequence, allocating, entropic_scale,
                   in_degree_distribution, integer_in, integers_in,
                   mean_std_err, one_of, real_in, tv_distance)
from .errors import AllReplicatesFailed, BadCurveName, BadValue, NotConverged
from .report import ExperimentReport, ReportRow
from .rng import RngStream, shared_generator
from .sampler import sample_digraph, sample_tables
from .stationary import (DEFAULT_TOL, estimate_stationary_gap,
                         solve_replicates, stationary_distribution)
from .walk import (OperationBudget, TransitionKernel, as_ledger, delta_at,
                   grouped_time_averaged_rows, kernel_from_digraph,
                   one_step_laws, propagate, refreshed_kernels,
                   sample_path_log_weights)

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

# _environment_laws stacks B = max(1, _BATCH_ENTRIES // (S * m)) environments
# of S starts into one block-diagonal kernel and moves their laws in chunks
# of w = max(1, min(S, _BATCH_ENTRIES // m)) starts, one product per chunk
# and step; B = w = 1 where m > _BATCH_MAX_EDGES.  Measured against walking
# alone on annealed, 3-regular DCM, t = 1 (median CPU of 3 alternating
# rounds of 5 runs; 2-core VM, Python 3.11, numpy 2.4, scipy 1.17):
# - m = 300, S = 4: 0.88 s alone, 0.29-0.35 s at 16384 ... 262144 entries
#   (B = 13 ... 218; tracemalloc peak 0.38 ... 5.9 MiB).  S = 32: 0.56 s
#   alone, 0.15 / 0.11 / 0.15 s at 32768 / 65536 / 131072.  S = 100: 0.45 s
#   alone, 0.09 / 0.12 s at 65536 (B = 2) / 131072 (B = 4).
# - At 65536 entries, S = 4 and 32: 1.4-2.5x faster for m = 600 ... 1500,
#   1.3x for m = 2100 at S = 4; slower for m = 3000 (0.14 -> 0.16 s at
#   S = 4, B = 5), and up to 2x slower for m = 15000 and 30000 at B = 2.
# - One SpMV costs 11.5 / 45.6 us per step against 33.4 / 72.9 us for an
#   (n, 1) block at n = 2000 / 10^4, so B = w = 1 walks a 1-d law.
_BATCH_ENTRIES = 65536   # joint: G = max(1, this // m) eta per sigma walk
_BATCH_MAX_EDGES = 2048
# _environment_laws keys its environment streams this many at a time: one
# RngStream.lanes pass costs about 5 lane().generator() calls, so a lone
# environment must not pay a pass of its own, and the keys held stay at
# 16 KiB however many environments run
_KEY_CHUNK = 1024

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

# Every limit curve is one switch in beta: an upper form below its switch
# point, a lower form from it on, q the stationary gap.  The regimes switch
# at gamma = 0, at the run's gamma_hat or at infinity, so the mixed regime
# interpolates between the two extremes; the static profile switches at 1.
_JOINT = (lambda b, q: (1.0 + b) * math.exp(-b), lambda b, q: math.exp(-b))
_MARGINAL = (lambda b, q: math.exp(-b), lambda b, q: q * math.exp(-b))
_STATIC = (lambda b, q: 1.0, lambda b, q: q)
_CURVES = {  # name -> (forms, switch point), None for the run's gamma
    "joint_gamma0": (_JOINT, 0.0),
    "joint_gammainf": (_JOINT, math.inf),
    "joint_general": (_JOINT, None),
    "marginal_gamma0": (_MARGINAL, 0.0),
    "marginal_gammainf": (_MARGINAL, math.inf),
    "marginal_general": (_MARGINAL, None),
    "static_profile": (_STATIC, 1.0)}
CURVE_NAMES = tuple(_CURVES)

# marginal_relaxation_curve's time grids; the first is the default
TIME_SCALES = ("regeneration", "entropic")


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
        object.__setattr__(self, "root_seed",
                           RngStream(self.root_seed).root_seed)
        if self.alpha is not None:
            real_in(self.alpha, 0, 1, "alpha")
        real_in(self.tol, 0, math.inf, "tol")
        object.__setattr__(self, "env_samples", integer_in(
            self.env_samples, 1, math.inf, "env_samples"))
        if not np.iterable(self.beta_grid):
            raise BadValue(f"beta_grid must be a sequence, not "
                           f"{type(self.beta_grid).__name__}")
        for b in self.beta_grid:
            real_in(b, 0, math.inf, "beta_grid entry", "[)")

    def require_alpha(self) -> float:
        if self.alpha is None:
            raise BadValue("this experiment needs alpha")
        return self.alpha


def _floor_time(x: float) -> int:
    if not math.isfinite(x):
        raise BadValue(f"grid time {x} is not finite; beta is too large")
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
    gh = real_in(gh, 0, math.inf, "gamma_hat", "[]")
    if gh < GAMMA_LOW:
        return "0"
    if gh > GAMMA_HIGH:
        return "inf"
    return "general"


def theory_curve(name: str, beta: float, gamma: Optional[float] = None,
                 gap: Optional[float] = None) -> float:
    """Limit-curve value at beta in [0, inf] for one of the named regimes;
    gamma and the gap, when given, are any reals but NaN."""
    real_in(beta, 0, math.inf, "beta", "[]")
    forms, switch = _CURVES[one_of(name, CURVE_NAMES, "curve", BadCurveName)]
    for label, x in (("gamma", gamma), ("gap", gap)):
        if x is not None:
            real_in(x, -math.inf, math.inf, label, "[]")
    upper, lower = forms
    if switch == math.inf:      # never reached, not even by beta = inf
        return upper(beta, gap)
    if switch is None:
        if gamma is None or gamma <= 0:
            raise BadValue(f"{name} needs gamma > 0")
        switch = gamma
    if forms is not _JOINT and gap is None:
        raise BadValue(f"{name} needs the stationary gap")
    return upper(beta, gap) if beta < switch else lower(beta, gap)


def _limit_curve(forms, gh: Optional[float] = None):
    """(name, switch point) of the curve a run on these forms is scored
    against: the static profile, or the curve of gh's regime."""
    switch = (1.0 if forms is _STATIC else
              {"0": 0.0, "general": None, "inf": math.inf}[pick_regime(gh)])
    name = next(n for n, spec in _CURVES.items() if spec == (forms, switch))
    return name, gh if switch is None else switch


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
        one_of(sv, ("all",), "start_vertices")
        return list(range(n)), "exhaustive"
    if not np.iterable(sv):
        sv = integer_in(sv, 1, math.inf, "start_vertices count")
        if exhaustive_small and (n <= EXHAUSTIVE_LIMIT or sv >= n):
            return list(range(n)), "exhaustive"
        gen = RngStream(cfg.root_seed).lane(_LANE_STARTS).generator()
        picks = np.sort(gen.choice(n, size=min(sv, n), replace=False))
        return [int(x) for x in picks], "sample"
    starts = integers_in(sv, 0, n, "start_vertices").tolist()
    if not starts:
        raise BadValue("start_vertices list must not be empty")
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
             ledger: OperationBudget):
    """Yield (t, v P^t) for sorted times, one propagate per gap; v is a law
    or a block of laws."""
    cur = 0
    for t in times:
        v = propagate(v, kernel, t - cur, ledger)
        cur = t
        yield t, v


def _environment_laws(cfg: ExperimentConfig, starts: np.ndarray,
                      ts: Sequence[int], ledger: OperationBudget):
    """Yield, batch by batch, the laws at the sorted times ts of each row e
    of the (samples, S) table starts: a (B, len(ts), S, n) array, row e
    of it environment e's laws from the starts in its row.

    Environment e is sampled on stream (_LANE_ENV_A, e), keyed _KEY_CHUNK
    at a time.  A batch is drawn as ``sample_tables``' (B, m) tables, with
    no digraph per environment.  Laws at t = 0 are the deltas themselves,
    and every walk takes its first step by ``one_step_laws``, read from the
    heads table.  Only when max(ts) >= 2 does the batch build its
    block-diagonal kernel, once, up front, and propagate the step-1 laws
    on it; so a grid with no time past 1 builds no kernel and runs no
    product.  Every law equals its own 1-d walk bit for bit, and batches
    come in replicate order.  One batch is in flight: B * m kernel
    entries, the B * m tables, B * |ts| * S * n floats of laws, and one
    chunk's transient blocks of B * w * n floats each, at most
    _BATCH_ENTRIES / 2 as m >= 2n.
    """
    seq, (samples, width) = cfg.seq, starts.shape
    n, m = seq.n, seq.m
    entries = _BATCH_ENTRIES if m <= _BATCH_MAX_EDGES else 0
    size = max(1, entries // (width * m))
    chunk = max(1, min(width, entries // m))
    base = RngStream(cfg.root_seed)
    streams = chain.from_iterable(
        base.lanes(_LANE_ENV_A, range(lo, min(lo + _KEY_CHUNK, samples)))
        for lo in range(0, samples, _KEY_CHUNK))
    batches = ((lo, list(islice(streams, size)))
               for lo in range(0, samples, size))

    def one(item):
        lo, batch = item
        heads, head_stubs = sample_tables(seq, batch)
        kernel = (TransitionKernel(rows=(seq, heads, head_stubs))
                  if ts[-1] >= 2 else None)
        b = len(batch)
        laws = np.empty((b, len(ts), width, n))
        for c in range(0, width, chunk):
            xs = starts[lo:lo + b, c:c + chunk]
            cols = slice(c, c + xs.shape[1])
            cur = 0
            for ti, t in enumerate(ts):
                if t == 0:
                    delta = laws[:, ti, cols]     # a view
                    delta[:] = 0.0
                    np.put_along_axis(delta, xs[:, :, None], 1.0, axis=2)
                    continue
                if cur == 0:
                    v, cur = one_step_laws(seq, heads, xs, ledger), 1
                    if v.size == n:     # b = w = 1: walk a 1-d law
                        v = v.ravel()
                if t > cur:
                    v, cur = propagate(v, kernel, t - cur, ledger), t
                laws[:, ti, cols] = v.reshape(b, n, -1).swapaxes(1, 2)
        return laws

    return _parallel_map(one, batches)


def _meta(name: str, cfg: ExperimentConfig,
          ledger: Optional[OperationBudget] = None, scale=None,
          **extra) -> dict:
    """Sidecar keys every experiment shares, then its own ``extra`` keys."""
    meta = {"experiment": name, "n": cfg.seq.n,
            "model": cfg.seq.model.value, "root_seed": cfg.root_seed}
    if scale is not None:
        meta.update(entropy=scale.entropy, entropic_time=scale.entropic_time)
    if ledger is not None:
        meta.update(renormalizations=ledger.renormalizations,
                    max_drift=ledger.max_drift)
    meta.update(extra)
    return meta


def _beta_times(cfg: ExperimentConfig, time_of):
    """The beta grid and its grid times floor(time_of(beta))."""
    betas = list(cfg.beta_grid)     # an array has no truth value
    if not betas:
        raise BadValue("beta_grid must be nonempty")
    return betas, [_floor_time(time_of(b)) for b in betas]


def _curve(betas, ts, per_rep, theory, switch=math.inf, n_effective=None,
           gap_err=0.0):
    """A curve's rows and its per_beta_replicate_values, in one pass.

    betas are the abscissae (double-cutoff passes its switch times);
    per_rep holds one {t: value} per replicate; the row at beta reads time
    t, against theory(beta).  Rows within FLAG_MARGIN of a switch in (0, inf)
    are flagged, and gap_err * exp(-beta) adds to each std_err in quadrature.
    """
    rows, values = [], {}
    for beta, t in zip(betas, ts):
        values[str(beta)] = reps = [rep[t] for rep in per_rep]
        mean, err = mean_std_err(reps)
        rows.append(ReportRow(
            abscissa=beta, estimate=min(mean, 1.0),
            std_err=float(math.hypot(err, gap_err * math.exp(-beta))),
            theory=theory(beta),
            n_effective=len(per_rep) if n_effective is None else n_effective,
            flagged=0 < switch < math.inf and abs(beta - switch) < FLAG_MARGIN,
        ))
    return rows, values


# ---------------------------------------------------------------------------
# static environment: cutoff profile
# ---------------------------------------------------------------------------

def static_cutoff_profile(cfg: ExperimentConfig,
                          budget: Optional[OperationBudget] = None) -> ExperimentReport:
    """Worst-start distance to stationarity at times beta * entropic_time.

    One environment per replicate; the estimate column is the replicate
    mean of max-over-starts TV, against the step profile 1(beta < 1).
    """
    seq = cfg.seq
    scale = entropic_scale(seq)
    mu = in_degree_distribution(seq)
    betas, ts = _beta_times(cfg, lambda b: b * scale.entropic_time)
    t_unique = sorted(set(ts))
    starts, mode = resolve_starts(cfg)
    base = RngStream(cfg.root_seed)
    ledger = as_ledger(budget)
    curve, switch = _limit_curve(_STATIC)

    def one(r: int):
        kernel = _kernel(seq, base.lane(_LANE_ENV_A, r))
        pi = _stationary(kernel, cfg, mu, ledger)
        if pi is None:
            return None
        worst = dict.fromkeys(t_unique, 0.0)
        for x in starts:
            for t, v in _laws_at(delta_at(x, seq.n), kernel, t_unique,
                                 ledger):
                worst[t] = max(worst[t], tv_distance(v, pi))
        return worst

    per_rep, failures = _converged(
        _parallel_map(one, range(cfg.env_samples)),
        "no stationary solve converged")

    rows, values = _curve(betas, ts, per_rep,
                          lambda b: theory_curve(curve, b, gap=0.0), switch)
    meta = _meta(
        "static-cutoff", cfg, ledger, scale,
        times=ts, start_mode=mode, start_count=len(starts),
        replicates=len(per_rep), solve_failures=failures,
        per_beta_replicate_values=values)
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
    real_in(beta, 0, math.inf, "beta", "[)")
    seq = cfg.seq
    scale = entropic_scale(seq)
    mu = in_degree_distribution(seq)
    t = _floor_time(beta * scale.entropic_time)
    s_sorted = np.unique(integers_in(cfg.s_grid, 0, t + 1, "s_grid")).tolist()
    if not s_sorted:
        raise BadValue("double-cutoff needs s_grid")
    starts, mode = resolve_starts(cfg)
    base = RngStream(cfg.root_seed)
    ledger = as_ledger(budget)

    def one(r: int):
        k_sigma = _kernel(seq, base.lane(_LANE_ENV_A, r))
        k_eta = _kernel(seq, base.lane(_LANE_ENV_B, r))
        pi_eta = _stationary(k_eta, cfg, mu, ledger)
        if pi_eta is None:
            return None
        lo = dict.fromkeys(s_sorted, math.inf)
        hi = dict.fromkeys(s_sorted, 0.0)
        for x in starts:
            for s, v in _laws_at(delta_at(x, seq.n), k_sigma, s_sorted,
                                 ledger):
                d = tv_distance(propagate(v, k_eta, t - s, ledger), pi_eta)
                lo[s] = min(lo[s], d)
                hi[s] = max(hi[s], d)
        return lo, hi

    per_rep, failures = _converged(
        _parallel_map(one, range(cfg.env_samples)),
        "no stationary solve converged")

    use_min = beta < 1.0
    rows, _ = _curve([float(s) for s in s_sorted], s_sorted,
                     [pair[not use_min] for pair in per_rep],
                     lambda s: 1.0 if use_min else 0.0)
    meta = _meta(
        "double-cutoff", cfg, ledger, scale, beta=beta, t=t,
        statistic="min_over_starts" if use_min else "max_over_starts",
        start_mode=mode, start_count=len(starts),
        replicates=len(per_rep), solve_failures=failures,
        per_s_min={str(s): [lo[s] for lo, _ in per_rep] for s in s_sorted},
        per_s_max={str(s): [hi[s] for _, hi in per_rep] for s in s_sorted})
    return ExperimentReport("double-cutoff", rows, meta)


# ---------------------------------------------------------------------------
# regenerating joint chain: distance of (environment, position) to equilibrium
# ---------------------------------------------------------------------------

def _joint_term(alpha: float, t: int, row: np.ndarray,
                pi_eta: np.ndarray) -> float:
    """One environment's term of the joint estimate at time t >= 1, from
    its averaged row at t and its stationary law."""
    # survival and refresh-once weights of the regeneration count at time t;
    # their limits are exp(-beta) and beta * exp(-beta)
    survive = (1.0 - alpha) ** t
    refresh_once = alpha * t * (1.0 - alpha) ** (t - 1)
    l1 = np.abs(refresh_once * row - (survive + refresh_once) * pi_eta).sum()
    return 0.5 * (survive + float(l1))


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

    Start i's environments eta_j, on streams (_LANE_ENV_B, _pair(i, j)),
    are sampled and solved G = max(1, _BATCH_ENTRIES // m) at a time, and
    the solved ones of a group share one walk of the sigma law, so a
    group holds G kernels; every term is added in j order, bitwise as a
    walk per environment would add it.
    """
    alpha = cfg.require_alpha()
    betas, ts = _beta_times(cfg, lambda b: b / alpha)
    seq = cfg.seq
    scale = entropic_scale(seq)
    mu = in_degree_distribution(seq)
    gh = gamma_hat(cfg)
    curve, switch = _limit_curve(_JOINT, gh)
    t_unique = sorted(set(ts))  # a time shared by betas is estimated once
    t_rows = [t for t in ts if t > 0]
    starts, mode = resolve_starts(cfg, exhaustive_small=False)
    _pair(len(starts) - 1, cfg.env_samples - 1)
    base = RngStream(cfg.root_seed)
    ledger = as_ledger(budget)
    used_total = [0] * len(starts)
    group = max(1, _BATCH_ENTRIES // seq.m)

    def one(item):
        i, x = item
        k_sigma = _kernel(seq, base.lane(_LANE_ENV_A, i))
        sums = dict.fromkeys(t_rows, 0.0)
        used = 0
        streams = base.lanes(_LANE_ENV_B, [_pair(i, j)
                                           for j in range(cfg.env_samples)])
        for _ in range(0, cfg.env_samples, group):
            solved = []
            for stream in islice(streams, group):
                k_eta = _kernel(seq, stream)
                pi_eta = _stationary(k_eta, cfg, mu, ledger)
                if pi_eta is not None:
                    solved.append((k_eta, pi_eta))
            if not solved:
                continue
            used += len(solved)
            # every grid time's row of every solved eta from one pass,
            # each added as it comes: sums[t] still adds in eta order
            for t, e, row in grouped_time_averaged_rows(
                    x, t_rows, k_sigma, [k for k, _ in solved], ledger):
                sums[t] += _joint_term(alpha, t, row, solved[e][1])
        used_total[i] = used
        # at t = 0 nothing has refreshed, and every term is exactly 1
        return {t: sums[t] / used if t else 1.0
                for t in t_unique} if used else None

    per_rep, _ = _converged(
        _parallel_map(one, enumerate(starts)),
        "every replicate lost all its environments")

    rows, values = _curve(
        betas, ts, per_rep, lambda b: theory_curve(curve, b, gamma=gh),
        switch, n_effective=len(per_rep) * cfg.env_samples)
    meta = _meta(
        "joint", cfg, ledger, scale,
        alpha=alpha, gamma_hat=gh, regime=pick_regime(gh), curve=curve,
        times=ts, start_mode=mode, starts=starts,
        replicates=len(per_rep), env_samples=cfg.env_samples,
        env_skipped=len(starts) * cfg.env_samples - sum(used_total),
        per_beta_replicate_values=values)
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
    over environments and starts: replicate i walks from starts[i] in
    environment i, through ``_environment_laws``.
    """
    alpha = cfg.require_alpha()
    one_of(time_scale, TIME_SCALES, "time_scale")
    seq = cfg.seq
    scale = entropic_scale(seq)
    mu = in_degree_distribution(seq)
    gh = gamma_hat(cfg)
    if time_scale == "regeneration":
        betas, ts = _beta_times(cfg, lambda b: b / alpha)
        curve, switch = _limit_curve(_MARGINAL, gh)
    else:
        betas, ts = _beta_times(cfg, lambda b: b * scale.entropic_time)
        curve, switch = _limit_curve(_STATIC)
    ledger = as_ledger(budget)
    # stationary gap between the in-law and the true stationary law, read
    # from the switch on: exactly zero for Eulerian matchings, else estimated
    gap, gap_err, gap_meta = None, 0.0, {}
    if switch < math.inf:
        if seq.is_eulerian:
            gap = 0.0
            gap_meta = {"q_hat": 0.0, "q_std_err": 0.0, "q_exact": True}
        else:
            gr = _gap(cfg, gap_replicates, ledger)
            gap = gr.gap
            gap_err = gr.std_err
            gap_meta = {"q_hat": gr.gap, "q_std_err": gr.std_err,
                        "q_exact": False,
                        "q_replicates": gr.replicates_used,
                        "q_failures": gr.failures}

    starts, mode = resolve_starts(cfg, exhaustive_small=False)
    t_sorted = sorted(set(ts))
    per_rep = [
        {t: (1.0 - alpha) ** t * tv_distance(v[0], mu)
         for t, v in zip(t_sorted, laws)}
        for batch in _environment_laws(cfg, np.array(starts)[:, None],
                                       t_sorted, ledger)
        for laws in batch]

    rows, values = _curve(
        betas, ts, per_rep,
        lambda b: theory_curve(curve, b, gamma=gh, gap=gap), switch,
        gap_err=gap_err)
    meta = _meta(
        "marginal", cfg, ledger, scale,
        alpha=alpha, gamma_hat=gh, regime=pick_regime(gh), curve=curve,
        time_scale=time_scale, times=ts, start_mode=mode, starts=starts,
        replicates=len(per_rep), per_beta_replicate_values=values,
        **gap_meta)
    return ExperimentReport("marginal", rows, meta)


def marginal_mc_crosscheck(cfg: ExperimentConfig, t: int,
                           schedule_samples: int,
                           budget: Optional[OperationBudget] = None) -> ExperimentReport:
    """The marginal-crosscheck report: the regenerating chain driven by
    sampled refresh schedules, against its deterministic side at time t.

    Each schedule draws its refresh times, freezes the walk on refresh
    steps, and pushes the exact conditional law through the piecewise
    static kernels.  The one row, at abscissa t, holds the sampled
    estimate TV(schedule-averaged law, mu_in), its jackknife std_err over
    schedule batches, and as theory the deterministic estimate
    (1 - alpha)^t TV(delta_x P_sigma^t, mu_in) that the marginal curve's
    replicate on the same environment and start computes.  The sidecar
    repeats both, with their gap, the start walked and the mean number of
    refreshes per schedule.

    Every schedule walks in the first environment until its first refresh,
    so the laws delta_x P_sigma^k are walked once and shared: a schedule
    starts from the law at its first refresh step k (k = t when it never
    refreshes, the law the deterministic side also uses).  Only the k some
    schedule uses are kept, so this table holds at most
    min(t, schedule_samples) + 1 vectors of length n.  A refreshed
    environment is sampled only when a later step walks in it; its stream
    lane does not depend on that, and every refresh still counts toward
    ``mean_refreshes``.  The streams of all schedules, and then of all
    walked environments, are keyed in one ``RngStream.lanes`` pass each,
    and ``walk.refreshed_kernels`` draws the walked ones.  The walk starts
    at ``resolve_starts``' first start, a count always sampled (so the
    smallest sampled vertex, or 0 for "all"); the sidecar records it.
    """
    alpha = cfg.require_alpha()
    t = integer_in(t, 0, math.inf, "t")
    schedule_samples = integer_in(schedule_samples, _JACKKNIFE_BATCHES,
                                  math.inf, "schedule_samples")
    _pair(schedule_samples - 1, t)  # a schedule refreshes at most t times
    seq = cfg.seq
    mu = in_degree_distribution(seq)
    starts, start_mode = resolve_starts(cfg, exhaustive_small=False)
    x = starts[0]
    base = RngStream(cfg.root_seed)
    k_sigma = _kernel(seq, base.lane(_LANE_ENV_A, 0))
    ledger = as_ledger(budget)

    # schedule m draws its refresh steps on lane offset _pair(m, 0)
    refresh_steps = [
        np.flatnonzero(shared_generator(stream).random(t) < alpha).tolist()
        for stream in base.lanes(
            _LANE_SCHED, [_pair(m, 0) for m in range(schedule_samples)])]
    first = [steps[0] if steps else t for steps in refresh_steps]
    # on a refresh step the environment changes and the walker holds;
    # environment k of schedule m, on lane offset _pair(m, k), walks the
    # steps between refreshes k and k + 1.  Only the environments a step
    # walks in are sampled: segments[m] lists their (length, offset).
    segments = [
        [(end - r - 1, _pair(m, k))
         for k, (r, end) in enumerate(zip(steps, steps[1:] + [t]), start=1)
         if end - r > 1]
        for m, steps in enumerate(refresh_steps)]
    # each walked environment's kernel holds only for its segment's walk
    kernels = refreshed_kernels(seq, base.lanes(
        _LANE_SCHED, [k for segs in segments for _, k in segs]))
    prefix = dict(_laws_at(delta_at(x, seq.n), k_sigma,
                           sorted(set(first) | {t}), ledger))

    # deterministic side: no refresh happens with weight (1-alpha)^t and
    # conditional law P_sigma^t(x, .); sampling marginalizes the rest
    exact = (1.0 - alpha) ** t * tv_distance(prefix[t], mu)

    total = np.zeros(seq.n)
    batch_sums = np.zeros((_JACKKNIFE_BATCHES, seq.n))
    batch_counts = np.bincount(np.arange(schedule_samples)
                               % _JACKKNIFE_BATCHES)
    for m, segs in enumerate(segments):
        w = prefix[first[m]]
        # zip takes from segs first, so kernels draws len(segs) environments
        for (length, _), kernel in zip(segs, kernels):
            w = propagate(w, kernel, length, ledger)
        total += w
        batch_sums[m % _JACKKNIFE_BATCHES] += w

    mean_law = total / schedule_samples
    sampled = tv_distance(mean_law, mu)
    rest = (total - batch_sums) / (schedule_samples - batch_counts)[:, None]
    loo = np.array([tv_distance(law, mu) for law in rest])
    std_err = float(math.sqrt((_JACKKNIFE_BATCHES - 1) / _JACKKNIFE_BATCHES
                              * float(((loo - loo.mean()) ** 2).sum())))
    row = ReportRow(abscissa=float(t), estimate=sampled, std_err=std_err,
                    theory=exact, n_effective=schedule_samples)
    meta = _meta(
        "marginal-crosscheck", cfg, ledger, alpha=alpha, t=t, start=x,
        start_mode=start_mode, schedules=schedule_samples,
        mean_refreshes=sum(map(len, refresh_steps)) / schedule_samples,
        deterministic_estimate=exact, sampled_estimate=sampled,
        abs_gap=abs(sampled - exact))
    return ExperimentReport("marginal-crosscheck", [row], meta)


# ---------------------------------------------------------------------------
# annealed law: averaging the environment before walking kills the cutoff
# ---------------------------------------------------------------------------

def _add_in_order(acc: np.ndarray, batch: np.ndarray) -> None:
    """acc += batch[0]; acc += batch[1]; ... as one reduction, bitwise: numpy
    reduces the outer axis in order, not pairwise.  batch[0] is overwritten."""
    batch[0] += acc
    np.add.reduce(batch, axis=0, out=acc)


def annealed_check(cfg: ExperimentConfig, t_grid: Sequence[int],
                   budget: Optional[OperationBudget] = None) -> ExperimentReport:
    """TV between the environment-averaged t-step law and the in-law.

    The averaged law mixes essentially immediately, so the theory column
    is 0 at every t >= 1, and 1 at t = 0, the limit of TV(delta_x, mu).
    std_err is the analytic Monte-Carlo bound 0.5 * sum_y
    sqrt(var_hat(y) / samples), which dominates the bias of plugging the
    sample mean into TV.

    Every environment walks from the same S starts through
    ``_environment_laws``, and laws are summed in replicate order, so the
    result does not depend on batch or chunk sizes: each batch is added
    to the sums by one reduction over its environments, in order.  Besides
    the walker's batch in flight, the run holds 2 * |t_grid| * S * n floats
    of sums and, while it adds a batch, that batch's squared laws.
    """
    ts = np.unique(integers_in(t_grid, 0, math.inf, "t_grid")).tolist()
    if not ts:
        raise BadValue("t_grid must not be empty")
    seq = cfg.seq
    mu = in_degree_distribution(seq)
    starts, mode = resolve_starts(cfg)
    samples = cfg.env_samples
    mean_acc = np.zeros((len(ts), len(starts), seq.n))
    sq_acc = np.zeros((len(ts), len(starts), seq.n))
    ledger = as_ledger(budget)
    for laws in _environment_laws(
            cfg, np.broadcast_to(starts, (samples, len(starts))), ts, ledger):
        _add_in_order(sq_acc, laws * laws)
        _add_in_order(mean_acc, laws)

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
            theory=1.0 if t == 0 else 0.0, n_effective=samples,
        ))
    meta = _meta("annealed", cfg, ledger, times=ts, env_samples=samples,
                 start_mode=mode, start_count=len(starts),
                 worst_start=worst_start)
    return ExperimentReport("annealed", rows, meta)


# ---------------------------------------------------------------------------
# path weights: trajectory log-weights concentrate at the entropy rate
# ---------------------------------------------------------------------------

def path_weight_lln(cfg: ExperimentConfig, s: int, t: int,
                    traj_samples: int,
                    budget: Optional[OperationBudget] = None) -> np.ndarray:
    """The (traj_samples,) log-weights of trajectories sampled across an
    environment switch.

    Starts are drawn from the in-law on stream _LANE_STARTS; each path
    walks s steps in the first environment and t - s in the second, and
    its log-weight is the sum of log P over its t steps.  Trajectories are
    walked in blocks of ``_PATH_BLOCK``, all paths of a block stepped
    together on stream ``(_LANE_TRAJ, b)`` for block b, and each step
    weighed as it is drawn; no kernel is built and no states are held.
    So besides the two environments the memory is the traj_samples starts
    and log-weights plus O(_PATH_BLOCK) per step.
    """
    t = integer_in(t, 1, math.inf, "t")
    s = integer_in(s, 0, t + 1, "s")
    traj_samples = integer_in(traj_samples, 1, math.inf, "traj_samples")
    seq = cfg.seq
    mu = in_degree_distribution(seq)
    base = RngStream(cfg.root_seed)
    g_sigma = sample_digraph(seq, base.lane(_LANE_ENV_A, 0))
    g_eta = sample_digraph(seq, base.lane(_LANE_ENV_B, 0))

    start_gen = base.lane(_LANE_STARTS).generator()
    with allocating(f"{traj_samples} trajectories"):
        log_weights = np.empty(traj_samples)
    xs = start_gen.choice(seq.n, size=traj_samples, replace=True, p=mu)
    ledger = as_ledger(budget)
    for b, lo in enumerate(range(0, traj_samples, _PATH_BLOCK)):
        hi = min(lo + _PATH_BLOCK, traj_samples)
        ledger.charge(float(hi - lo) * t * seq.delta)
        log_weights[lo:hi] = sample_path_log_weights(
            xs[lo:hi], s, t, g_sigma, g_eta, base.lane(_LANE_TRAJ, b))
    return log_weights


def path_weight_report(cfg: ExperimentConfig, s: int, t: int,
                       traj_samples: int, epsilon: float = 0.1,
                       budget: Optional[OperationBudget] = None) -> ExperimentReport:
    """The weight-lln report: -log(weight) / t of ``path_weight_lln``'s
    trajectories concentrates at the degree entropy H.

    The one row holds the fraction of trajectories with -log w in
    [(1 - epsilon) H t, (1 + epsilon) H t], its binomial std_err and the
    theory 1; the sidecar holds the mean rate and its distance to H.
    """
    real_in(epsilon, 0, 1, "epsilon")
    log_weights = path_weight_lln(cfg, s, t, traj_samples, budget)
    t, samples = int(t), log_weights.size
    target = entropic_scale(cfg.seq).entropy
    mean_rate = float((-log_weights / t).mean())
    frac = float((np.abs(-log_weights / (target * t) - 1.0)
                  <= epsilon).mean())
    rows = [ReportRow(abscissa=0.0, estimate=frac,
                      std_err=math.sqrt(frac * (1 - frac) / samples),
                      theory=1.0, n_effective=samples)]
    meta = _meta(
        "weight-lln", cfg, t=t, switch_time=int(s), entropy=target,
        mean_rate=mean_rate, rate_abs_error=abs(mean_rate - target),
        epsilon=epsilon, samples=samples,
        row_meaning="fraction of trajectories in the entropy window")
    return ExperimentReport("weight-lln", rows, meta)


# ---------------------------------------------------------------------------
# stationary diagnostics as experiments
# ---------------------------------------------------------------------------

def stationary_diagnostics(cfg: ExperimentConfig,
                           budget: Optional[OperationBudget] = None):
    """Per-replicate stationary solves; returns (rows, failures), and
    raises AllReplicatesFailed when no solve converges.

    Thin wrapper so the command-line driver and library callers share one
    stream layout with the other experiments.
    """
    rows, failures = solve_replicates(
        cfg.seq, cfg.env_samples, RngStream(cfg.root_seed).lane(_LANE_GAP),
        tol=cfg.tol, max_iters=cfg.max_iters, budget=budget)
    if not rows:
        raise AllReplicatesFailed(f"all {failures} stationary solves failed")
    return rows, failures


def stationary_gap_report(cfg: ExperimentConfig,
                          replicates: Optional[int] = None,
                          budget: Optional[OperationBudget] = None) -> ExperimentReport:
    """Mean distance between stationary law and in-law, as a one-row curve."""
    gr = _gap(cfg, cfg.env_samples if replicates is None else replicates,
              budget)
    theory = 0.0 if cfg.seq.is_eulerian else math.nan
    rows = [ReportRow(abscissa=0.0, estimate=gr.gap, std_err=gr.std_err,
                      theory=theory, n_effective=gr.replicates_used)]
    meta = _meta("q-estimate", cfg, replicates=gr.replicates_used,
                 solve_failures=gr.failures, eulerian=cfg.seq.is_eulerian)
    return ExperimentReport("q-estimate", rows, meta)
