"""Experiment drivers: exact identities at small scale, wiring, metadata."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from mixlab import (ExperimentConfig, RngStream, annealed_check,
                    double_cutoff_sweep, entropic_scale, gamma_hat,
                    in_degree_distribution, joint_relaxation_curve,
                    kernel_from_digraph, marginal_mc_crosscheck,
                    marginal_relaxation_curve, path_log_weights,
                    path_weight_lln, path_weight_report, sample_digraph,
                    sample_paths, static_cutoff_profile,
                    stationary_diagnostics, stationary_distribution,
                    stationary_gap_report, tv_distance, validate_degrees)
from mixlab.errors import (AllReplicatesFailed, BadRange, BadValue,
                           BudgetExceeded, NotConverged)
from mixlab import experiments, walk
from mixlab.experiments import (_LANE_ENV_A, _LANE_GAP, _LANE_SCHED,
                                _floor_time, _kernel, _pair, _parallel_map,
                                resolve_starts)
from mixlab.cli import degrees_from_generator
from mixlab.core import ModelKind, mean_std_err
from mixlab.report import ReportRow
from mixlab.walk import (OperationBudget, TransitionKernel, delta_at,
                         propagate)

from helpers import every_matching


REG3_120 = validate_degrees("dcm", [3] * 120, [3] * 120)


def cfg_for(seq, **kw):
    base = dict(seq=seq, root_seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(BadValue):
        cfg_for(REG3_120, alpha=1.5)
    with pytest.raises(BadValue):
        cfg_for(REG3_120, alpha=0.0)
    with pytest.raises(BadRange):
        cfg_for(REG3_120, env_samples=0)
    with pytest.raises(BadValue):
        cfg_for(REG3_120, beta_grid=(0.5, -1.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(BadValue):
            cfg_for(REG3_120, beta_grid=(0.5, bad))
    with pytest.raises(BadValue):
        gamma_hat(cfg_for(REG3_120))  # alpha unset
    # a seed is any nonnegative integer, past 64 bits too
    for seed in (2**64 + 1, np.uint64(2**63)):
        cfg = cfg_for(REG3_120, root_seed=seed)
        assert cfg.root_seed == seed and type(cfg.root_seed) is int


def test_floor_time_survives_float_dust():
    assert _floor_time(1.2 / 0.4) == 3  # raw floor would give 2
    assert _floor_time(2.0) == 2
    assert _floor_time(4.999999) == 4


def test_gamma_hat_is_derived_from_alpha_and_scale():
    cfg = cfg_for(REG3_120, alpha=0.25)
    want = 0.25 * entropic_scale(REG3_120).entropic_time
    assert gamma_hat(cfg) == pytest.approx(want, abs=1e-12)


def test_start_resolution_modes():
    small = cfg_for(REG3_120, start_vertices=8)
    starts, mode = resolve_starts(small)
    assert mode == "exhaustive" and len(starts) == 120

    big_seq = validate_degrees("ocm", [2] * 2500)
    sampled, mode = resolve_starts(cfg_for(big_seq, start_vertices=8))
    assert mode == "sample"
    assert len(sampled) == 8 == len(set(sampled))
    assert sampled == sorted(sampled)
    again, _ = resolve_starts(cfg_for(big_seq, start_vertices=8))
    assert again == sampled  # deterministic in the root seed

    explicit, mode = resolve_starts(cfg_for(REG3_120, start_vertices=[4, 9]))
    assert mode == "explicit" and explicit == [4, 9]
    with pytest.raises(BadRange):
        resolve_starts(cfg_for(REG3_120, start_vertices=[500]))
    with pytest.raises(BadValue):
        resolve_starts(cfg_for(REG3_120, start_vertices="some"))

    reps, mode = resolve_starts(cfg_for(REG3_120, start_vertices=6),
                                exhaustive_small=False)
    assert mode == "sample" and len(reps) == 6
    # without the exhaustive switch a count above n samples every vertex
    every, mode = resolve_starts(cfg_for(REG3_120, start_vertices=500),
                                 exhaustive_small=False)
    assert mode == "sample" and every == list(range(120))


def test_static_profile_rows_and_metadata():
    cfg = cfg_for(REG3_120, beta_grid=(0.5, 1.05, 2.0), env_samples=3,
                  start_vertices=5)
    report = static_cutoff_profile(cfg)
    assert [row.abscissa for row in report.rows] == [0.5, 1.05, 2.0]
    assert report.rows[0].theory == 1.0 and report.rows[2].theory == 0.0
    assert report.rows[1].flagged  # within the margin of the jump
    assert report.metadata["flagged_abscissae"] == [1.05]
    assert report.rows[0].estimate > report.rows[2].estimate
    for row in report.rows:
        assert 0.0 <= row.estimate <= 1.0
        assert row.n_effective == 3
    assert report.metadata["start_mode"] == "exhaustive"
    assert report.metadata["start_count"] == 120


def test_negative_root_seed_is_a_typed_error():
    # refused where the config is built, before any stream exists
    with pytest.raises(BadRange):
        static_cutoff_profile(cfg_for(REG3_120, beta_grid=(0.5,),
                                      root_seed=-1))


@pytest.mark.parametrize("field,bad,error", [
    ("root_seed", 2.5, BadValue), ("root_seed", math.nan, BadValue),
    ("root_seed", "5", BadValue), ("root_seed", True, BadValue),
    ("root_seed", np.int64(-3), BadRange),
    ("alpha", "0.3", BadValue), ("alpha", True, BadValue),
    ("beta_grid", ["1"], BadValue), ("beta_grid", (0.5, None), BadValue)])
def test_bad_config_values_are_typed_errors(field, bad, error):
    seq = degrees_from_generator("regular:3", ModelKind.DCM, 3, n=30)
    with pytest.raises(error):
        cfg_for(seq, **{field: bad})


def test_joint_time_zero_distance_is_one():
    # beta/alpha below 1 floors to t=0: nothing has moved or refreshed
    cfg = cfg_for(REG3_120, alpha=0.9, beta_grid=(0.05,), env_samples=2,
                  start_vertices=2)
    report = joint_relaxation_curve(cfg)
    assert report.rows[0].estimate == pytest.approx(1.0, abs=1e-12)


def test_joint_single_step_identity():
    # with t=1 the averaged row is the start point itself, and the whole
    # estimate collapses to 1 - pi_eta(x); check the wiring reproduces it
    seq = REG3_120
    cfg = cfg_for(seq, alpha=0.5, beta_grid=(0.5,), env_samples=1,
                  start_vertices=[17])
    report = joint_relaxation_curve(cfg)
    eta = sample_digraph(seq, RngStream(5).lane(2, 0))  # replicate 0, env 0
    pi = stationary_distribution(kernel_from_digraph(eta),
                                 start=in_degree_distribution(seq)).distribution
    assert report.rows[0].estimate == pytest.approx(1.0 - pi[17], abs=1e-12)
    assert report.metadata["gamma_hat"] == pytest.approx(
        0.5 * entropic_scale(seq).entropic_time)


@pytest.mark.parametrize("alpha, t", [(0.01, 1), (0.3, 4), (0.9, 7),
                                      (0.5, 50)])
def test_joint_term_meets_its_closed_forms(alpha, t):
    # a row off pi_eta's support scores survive + refresh_once, and a row
    # equal to pi_eta scores survive alone
    survive = (1.0 - alpha) ** t
    refresh_once = alpha * t * (1.0 - alpha) ** (t - 1)
    gen = np.random.default_rng(t)
    row, pi = np.zeros(10), np.zeros(10)
    row[:4], pi[4:] = gen.dirichlet(np.ones(4)), gen.dirichlet(np.ones(6))
    assert experiments._joint_term(alpha, t, row, pi) == pytest.approx(
        survive + refresh_once, rel=1e-14, abs=0)
    assert experiments._joint_term(alpha, t, pi, pi) == pytest.approx(
        survive, rel=1e-14, abs=0)


def test_marginal_matches_direct_propagation():
    seq = REG3_120
    cfg = cfg_for(seq, alpha=0.3, beta_grid=(0.6, 1.2), start_vertices=[9])
    report = marginal_relaxation_curve(cfg)
    kernel = kernel_from_digraph(sample_digraph(seq, RngStream(5).lane(1, 0)))
    mu = in_degree_distribution(seq)
    for row in report.rows:
        t = _floor_time(row.abscissa / 0.3)
        v = propagate(delta_at(9, seq.n), kernel, t)
        want = (1.0 - 0.3) ** t * tv_distance(v, mu)
        assert row.estimate == pytest.approx(want, abs=1e-12)


def test_marginal_entropic_scale_uses_step_profile():
    cfg = cfg_for(REG3_120, alpha=0.02, beta_grid=(0.5, 2.0),
                  start_vertices=[3])
    report = marginal_relaxation_curve(cfg, time_scale="entropic")
    assert report.metadata["curve"] == "static_profile"
    assert report.metadata["q_exact"] is True
    assert report.rows[0].theory == 1.0
    assert report.rows[1].theory == 0.0  # Eulerian: exact zero floor
    ts = report.metadata["times"]
    scale = entropic_scale(REG3_120).entropic_time
    assert ts == [_floor_time(0.5 * scale), _floor_time(2.0 * scale)]
    with pytest.raises(BadValue):
        marginal_relaxation_curve(cfg, time_scale="bogus")


def test_marginal_regime_labels():
    fast = cfg_for(REG3_120, alpha=0.02, beta_grid=(0.5,), start_vertices=[0])
    assert marginal_relaxation_curve(fast).metadata["regime"] == "0"
    # entropy log 2 makes the entropic time long enough for gamma_hat > 5
    slow_mix = validate_degrees("dcm", [2] * 120, [2] * 120)
    frozen = cfg_for(slow_mix, alpha=0.9, beta_grid=(0.5,),
                     start_vertices=[0])
    report = marginal_relaxation_curve(frozen)
    assert report.metadata["gamma_hat"] > 5.0
    assert report.metadata["regime"] == "inf"
    assert report.metadata["curve"] == "marginal_gammainf"


def test_crosscheck_rarely_refreshing_schedules_agree_with_exact():
    seq = validate_degrees("dcm", [3] * 60, [3] * 60)
    cfg = cfg_for(seq, alpha=0.01, start_vertices=[2])
    report = marginal_mc_crosscheck(cfg, t=4, schedule_samples=100)
    row, meta = report.rows[0], report.metadata
    assert meta["mean_refreshes"] < 0.2
    assert abs(row.estimate - row.theory) < 0.05
    assert row.std_err >= 0.0
    assert row.n_effective == meta["schedules"] == 100


def test_crosscheck_high_refresh_rate_freezes_the_walk():
    # nearly every step refreshes the environment and holds the walker, so
    # the sampled law stays near the start while the no-refresh weight dies
    seq = validate_degrees("dcm", [3] * 60, [3] * 60)
    cfg = cfg_for(seq, alpha=0.97, start_vertices=[2])
    report = marginal_mc_crosscheck(cfg, t=3, schedule_samples=60)
    assert report.rows[0].theory < 0.01
    assert report.rows[0].estimate > 0.8
    assert report.metadata["mean_refreshes"] > 2.0


def crosscheck_per_schedule_loop(cfg, t, schedule_samples, batches=10):
    """The crosscheck as one loop per schedule: every schedule walks its
    prefix again one step at a time and samples a kernel at every refresh."""
    alpha, seq = cfg.alpha, cfg.seq
    mu = in_degree_distribution(seq)
    x = resolve_starts(cfg, exhaustive_small=False)[0][0]
    base = RngStream(cfg.root_seed)
    k_sigma = _kernel(seq, base.lane(_LANE_ENV_A, 0))
    v = propagate(delta_at(x, seq.n), k_sigma, t)
    exact = (1.0 - alpha) ** t * tv_distance(v, mu)
    total = np.zeros(seq.n)
    batch_sums = np.zeros((batches, seq.n))
    batch_counts = np.zeros(batches, dtype=np.int64)
    refreshes = 0
    for m in range(schedule_samples):
        flips = base.lane(_LANE_SCHED, _pair(m, 0)).generator().random(t) < alpha
        w = delta_at(x, seq.n)
        kernel = k_sigma
        env_used = 0
        for step in range(t):
            if flips[step]:
                env_used += 1
                kernel = _kernel(seq, base.lane(_LANE_SCHED, _pair(m, env_used)))
            else:
                w = propagate(w, kernel, 1)
        refreshes += env_used
        total += w
        batch_sums[m % batches] += w
        batch_counts[m % batches] += 1
    sampled = tv_distance(total / schedule_samples, mu)
    rest = (total - batch_sums) / (schedule_samples - batch_counts)[:, None]
    loo = np.array([tv_distance(law, mu) for law in rest])
    std_err = float(math.sqrt((batches - 1) / batches
                              * float(((loo - loo.mean()) ** 2).sum())))
    return exact, sampled, std_err, refreshes / schedule_samples


# DCM cases keep their ids; OCM walks each refreshed environment on a
# fresh kernel, DCM on one P^T rewritten in place
PREFIX_CASES = [(model, t, alpha) for model in (ModelKind.DCM, ModelKind.OCM)
                for t in (0, 1, 6) for alpha in (0.01, 0.3, 0.97)]


@pytest.mark.parametrize("model, t, alpha", PREFIX_CASES, ids=[
    ("ocm-" if model is ModelKind.OCM else "") + f"{t}-{alpha}"
    for model, t, alpha in PREFIX_CASES])
def test_crosscheck_shared_prefix_matches_per_schedule_loop(model, t, alpha):
    # alpha 0.97 refreshes back to back and on the last step; 0.01 mostly
    # never refreshes, so nearly every schedule ends on the shared prefix
    seq = degrees_from_generator("mix:2x30,3x10", model, 3)
    cfg = cfg_for(seq, alpha=alpha, start_vertices=[4])
    report = marginal_mc_crosscheck(cfg, t=t, schedule_samples=40)
    row = report.rows[0]
    assert (row.theory, row.estimate, row.std_err,
            report.metadata["mean_refreshes"]) == \
        crosscheck_per_schedule_loop(cfg, t, 40)


def test_crosscheck_walks_and_records_its_first_start():
    # a count samples that many starts and walks the smallest, "all" walks
    # vertex 0 and a list its first vertex; the sidecar names the one walked
    seq = degrees_from_generator("mix:2x30,3x10", ModelKind.DCM, 3)
    sampled = resolve_starts(cfg_for(seq, start_vertices=10),
                             exhaustive_small=False)[0]
    for starts, start, mode in ((10, min(sampled), "sample"),
                                ("all", 0, "exhaustive"),
                                ([7, 3], 7, "explicit")):
        cfg = cfg_for(seq, alpha=0.3, start_vertices=starts)
        report = marginal_mc_crosscheck(cfg, 3, 10)
        meta = report.metadata
        assert (meta["start"], meta["start_mode"]) == (start, mode)
        alone = marginal_mc_crosscheck(
            cfg_for(seq, alpha=0.3, start_vertices=[start]), 3, 10)
        assert report.rows == alone.rows


def _walk_matrices(seq, heads):
    """P of each row of the (B, m) heads table, summed edge by edge."""
    p = np.zeros((len(heads), seq.n, seq.n))
    np.add.at(p, (np.arange(len(heads))[:, None], seq.tails, heads),
              seq.inv_out_degrees[seq.tails])
    return p


def _every_matching_walk(seq):
    """P of each of seq's m! stub matchings, all equally likely in DCM."""
    return _walk_matrices(seq, every_matching(seq))


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_annealed_hits_the_exact_averaged_law(seed):
    # n = 3 and every degree 2: A_t, the mean of P^t over the 720
    # matchings, is the exact annealed law, and max_x TV(delta_x A_t, mu_in)
    # is 0, 2/15, 1/30 and 1/12 at t = 1..4
    seq = validate_degrees("dcm", [2] * 3, [2] * 3)
    envs, mu = _every_matching_walk(seq), in_degree_distribution(seq)
    exact, powers = [], envs
    for _ in range(4):
        exact.append(0.5 * np.abs(powers.mean(axis=0) - mu).sum(axis=1).max())
        powers = powers @ envs
    assert np.allclose(exact, [0, 2 / 15, 1 / 30, 1 / 12], rtol=0, atol=1e-12)
    report = annealed_check(cfg_for(seq, root_seed=seed, env_samples=4000,
                                    start_vertices="all"), [1, 2, 3, 4])
    for row, want in zip(report.rows, exact):
        assert abs(row.estimate - want) <= 3 * row.std_err, (
            f"t {row.abscissa:g}: {row.estimate:.4f} +- {row.std_err:.4f}, "
            f"exact {want:.4f}")


def test_crosscheck_hits_the_exact_regenerating_law():
    # n = 3 and every degree 2: the 720 stub matchings are equally likely,
    # so A_j = E[P^j] is exact.  The walker holds on a refresh step, so the
    # law M_t after t steps from a fresh environment, and E_t from sigma,
    # with first refresh at step j, are
    #   M_t = (1-a)^t A_t + sum_j a (1-a)^(j-1) A_(j-1) M_(t-j),  M_0 = I
    #   E_t = (1-a)^t d_x S^t + sum_j a (1-a)^(j-1) d_x S^(j-1) M_(t-j)
    # for S = P_sigma; the sampled estimate must sit within 3 std_err of
    # TV(E_t, mu_in).  exact is the no-refresh term alone.
    seq = validate_degrees("dcm", [2] * 3, [2] * 3)
    envs, mu = _every_matching_walk(seq), in_degree_distribution(seq)
    seed, x = 2019, 0
    sigma = _walk_matrices(seq, sample_digraph(
        seq, RngStream(seed).lane(_LANE_ENV_A, 0)).heads[None])[0]
    for alpha, t in ((0.3, 4), (0.6, 3)):
        env_powers, a_pow, s_pow = envs, [np.eye(seq.n)], [np.eye(seq.n)[x]]
        for _ in range(t):
            a_pow.append(env_powers.mean(axis=0))
            s_pow.append(s_pow[-1] @ sigma)
            env_powers = env_powers @ envs

        def refreshed(start_powers, later, s):
            return ((1 - alpha) ** s * start_powers[s]
                    + sum(alpha * (1 - alpha) ** (j - 1)
                          * start_powers[j - 1] @ later[s - j]
                          for j in range(1, s + 1)))

        m_laws = [np.eye(seq.n)]
        for s in range(1, t + 1):
            m_laws.append(refreshed(a_pow, m_laws, s))
        tv = tv_distance(refreshed(s_pow, m_laws, t), mu)
        row = marginal_mc_crosscheck(
            cfg_for(seq, root_seed=seed, alpha=alpha, start_vertices=[x]),
            t, 2000).rows[0]
        assert abs(row.estimate - tv) <= 3 * row.std_err, (
            f"alpha {alpha}, t {t}: sampled {row.estimate:.4f} +- "
            f"{row.std_err:.4f}, TV(E_t, mu_in) {tv:.4f}; "
            f"TV(E_t, mu_in) - exact = {tv - row.theory:+.4f}")


def _no_sampling(*args, **kwargs):
    raise AssertionError("a graph was sampled before the layout check")


@pytest.mark.parametrize("run", [
    lambda cfg: marginal_mc_crosscheck(cfg, t=5, schedule_samples=70_000),
    lambda cfg: marginal_mc_crosscheck(cfg, t=70_000, schedule_samples=20),
    lambda cfg: joint_relaxation_curve(
        ExperimentConfig(seq=cfg.seq, root_seed=5, alpha=0.3,
                         beta_grid=(0.5,), env_samples=70_000,
                         start_vertices=[0])),
    lambda cfg: joint_relaxation_curve(
        ExperimentConfig(seq=cfg.seq, root_seed=5, alpha=0.3,
                         beta_grid=(0.5,), start_vertices=[0] * 70_000)),
], ids=["schedules", "crosscheck-t", "env-samples", "starts"])
def test_stream_layout_limit_is_checked_before_sampling(monkeypatch, run):
    monkeypatch.setattr(experiments, "sample_digraph", _no_sampling)
    cfg = cfg_for(REG3_120, alpha=0.3, start_vertices=[0])
    with pytest.raises(BadValue, match="65535"):
        run(cfg)


# each beta-curve with its grid times for GRID on 3-regular n = 40
# (t_ent = log 40 / log 3) at alpha = 0.25
CURVE_RUNS = {
    "static": (static_cutoff_profile, [3, 0, 1, 1, 5, 1]),
    "joint": (joint_relaxation_curve, [4, 0, 2, 2, 6, 2]),
    "marginal": (marginal_relaxation_curve, [4, 0, 2, 2, 6, 2]),
}
GRID = (1.0, 0.0, 0.5, 0.55, 1.5, 0.5)


@pytest.mark.parametrize("name", sorted(CURVE_RUNS))
def test_curve_grid_rows_equal_single_beta_runs(name):
    # one pass serves the whole grid: beta 0 (t = 0), two betas on one
    # time and a repeated beta must each give what a run of that beta
    # alone gives, bit for bit
    run, times = CURVE_RUNS[name]
    seq = validate_degrees("dcm", [3] * 40, [3] * 40)

    def report_of(grid):
        return run(cfg_for(seq, alpha=0.25, beta_grid=grid, env_samples=3,
                           start_vertices=3))

    def fields(row):
        return row.estimate, row.std_err, row.theory, row.flagged

    report = report_of(GRID)
    assert report.metadata["times"] == times
    per_beta = report.metadata["per_beta_replicate_values"]
    for row, b in zip(report.rows, GRID):
        alone = report_of((b,))
        assert fields(row) == fields(alone.rows[0])
        assert per_beta[str(b)] == \
            alone.metadata["per_beta_replicate_values"][str(b)]


def test_joint_rank_one_kernels_give_the_survival_mass(monkeypatch):
    # with sigma = eta = 1 pi^T every averaged row at t >= 2 is pi_eta, so
    # the refresh-once term cancels and the estimate is (1 - alpha)^t
    seq = validate_degrees("dcm", [3] * 40, [3] * 40)
    pi = np.random.default_rng(3).dirichlet(np.ones(seq.n))
    rank_one = TransitionKernel(csr_matrix(np.outer(np.ones(seq.n), pi)))
    monkeypatch.setattr(experiments, "_kernel", lambda seq, stream: rank_one)
    alpha = 0.25
    report = joint_relaxation_curve(cfg_for(
        seq, alpha=alpha, beta_grid=(0.5, 1.0, 1.75, 3.0), env_samples=2,
        start_vertices=3))
    assert report.metadata["times"] == [2, 4, 7, 12]
    for row, t in zip(report.rows, report.metadata["times"]):
        assert row.estimate == pytest.approx((1 - alpha) ** t, abs=1e-12)


@pytest.mark.parametrize("failing", [(), (1, 5)], ids=["solved", "failed"])
def test_joint_groups_of_environments_give_the_walk_per_environment(
        monkeypatch, failing):
    # G = 2 environments share each walk of sigma, E = 3 leaves a partial
    # last group; solves 1 (start 0, eta 1) and 5 (start 1, eta 2) fail, so
    # one group loses an eta and one loses all it had.  Not Eulerian, so
    # every environment has its own stationary law
    seq = validate_degrees("dcm", [2, 3] * 20, [3, 2] * 20)
    cfg = cfg_for(seq, alpha=0.3, beta_grid=(0.0, 0.5, 1.0, 2.0),
                  env_samples=3, start_vertices=3)
    solved = experiments._solved

    def run(group):
        calls = []

        def solve(kernel, *args):
            calls.append(kernel)
            return (None if len(calls) - 1 in failing
                    else solved(kernel, *args))
        monkeypatch.setattr(experiments, "_solved", solve)
        monkeypatch.setattr(experiments, "_BATCH_ENTRIES", group * seq.m)
        ledger = OperationBudget()
        return joint_relaxation_curve(cfg, budget=ledger), ledger

    grouped, grouped_ledger = run(2)
    alone, alone_ledger = run(1)
    assert grouped.rows == alone.rows
    assert grouped.metadata == alone.metadata
    assert grouped.metadata["env_skipped"] == len(failing)
    # sigma walked twice per start instead of three times, less where a
    # whole group failed; t_max = 6, so 5 products per walk
    walks = 3 * 2 - (5 in failing)
    assert alone_ledger.used - grouped_ledger.used == \
        (3 * 3 - walks - len(failing)) * 5 * seq.m


def test_parallel_map_reads_at_most_one_item_ahead():
    # annealed_check's memory bound counts one batch in flight
    read = 0
    got = []

    def items():
        nonlocal read
        for i in range(40):
            read += 1
            yield i

    def square(i):
        assert read == len(got) + 1
        return i * i

    for out in _parallel_map(square, items()):
        assert read == len(got) + 1
        got.append(out)
    assert got == [i * i for i in range(40)]


def test_annealed_single_step_is_noise_level():
    # averaged over environments the one-step law from any vertex is the
    # in-law exactly, so the estimate must sit at Monte-Carlo noise level
    seq = validate_degrees("dcm", [3] * 60, [3] * 60)
    cfg = cfg_for(seq, env_samples=400, start_vertices=[0, 1])
    report = annealed_check(cfg, t_grid=(1,))
    assert report.rows[0].estimate <= report.rows[0].std_err
    assert report.rows[0].theory == 0.0
    with pytest.raises(BadValue):
        annealed_check(cfg, t_grid=())


def annealed_per_environment_loop(cfg, t_grid):
    """annealed_check with one kernel and one propagate call per
    (environment, start, time): rows, worst starts and ledger."""
    ts = sorted(set(t_grid))
    seq, samples = cfg.seq, cfg.env_samples
    starts, _ = resolve_starts(cfg)
    base = RngStream(cfg.root_seed)
    ledger = OperationBudget()
    mean = np.zeros((len(ts), len(starts), seq.n))
    sq = np.zeros_like(mean)
    for j in range(samples):
        kernel = _kernel(seq, base.lane(_LANE_ENV_A, j))
        laws = np.empty_like(mean)
        for xi, x in enumerate(starts):
            v, cur = delta_at(x, seq.n), 0
            for ti, t in enumerate(ts):
                v = propagate(v, kernel, t - cur, ledger)
                cur = t
                laws[ti, xi] = v
        mean += laws
        sq += laws * laws
    mean /= samples
    mu = in_degree_distribution(seq)
    rows, worst_start = [], {}
    for ti, t in enumerate(ts):
        dists = np.abs(mean[ti] - mu[None, :]).sum(axis=1) * 0.5
        worst = worst_start[str(t)] = int(np.argmax(dists))
        var = np.maximum((sq[ti, worst] - samples * mean[ti, worst] ** 2)
                         / (samples - 1), 0.0)
        rows.append((float(dists[worst]),
                     0.5 * float(np.sqrt(var / samples).sum())))
    return rows, worst_start, ledger


@pytest.mark.parametrize("batch_entries",
                         [experiments._BATCH_ENTRIES, 1080, 150, 1])
@pytest.mark.parametrize("n_starts", [1, 3])
def test_annealed_batches_equal_per_environment_loop(monkeypatch, n_starts,
                                                     batch_entries):
    # the real constant puts all 37 environments in one batch; with 3
    # starts 1080 entries gives batches of 5 (DCM, m = 70) or 4 (OCM,
    # m = 90), with 1 start batches of 15 or 12, and a short last one;
    # with 3 starts 150 walks one environment at a time in column chunks
    # of 2 + 1 starts (DCM) or 1 start (OCM), with 1 start batches of 2
    # (DCM); 1 walks every environment alone, start by start
    monkeypatch.setattr(experiments, "_BATCH_ENTRIES", batch_entries)
    seq = degrees_from_generator("mix:2x20,3x10", ModelKind.DCM, 3)
    assert seq.m == 70
    for t_grid, model_seq in (((0, 3, 1, 3), seq),
                              ((2, 0), validate_degrees("ocm", [3] * 30))):
        cfg = cfg_for(model_seq, env_samples=37,
                      start_vertices=[4, 0, 4][:n_starts])
        report = annealed_check(cfg, t_grid)
        rows, worst_start, ledger = annealed_per_environment_loop(cfg, t_grid)
        assert [(r.estimate, r.std_err) for r in report.rows] == rows
        assert report.metadata["worst_start"] == worst_start
        drift = (report.metadata["renormalizations"],
                 report.metadata["max_drift"])
        assert drift == (ledger.renormalizations, ledger.max_drift)
        # a caller's budget is the ledger the sidecar reads
        budget = OperationBudget()
        with_budget = annealed_check(cfg, t_grid, budget=budget)
        assert (with_budget.metadata["renormalizations"],
                with_budget.metadata["max_drift"]) == drift
        assert (budget.renormalizations, budget.max_drift) == drift


@pytest.mark.parametrize("batch_entries", [1080, 1])
def test_annealed_key_chunks_equal_per_environment_loop(monkeypatch,
                                                        batch_entries):
    # keying 7 environment streams at a time, rounded down to whole
    # batches, keys batches of 5 and 15 a batch per pass and lone
    # environments 7 at a time; every stream stays
    monkeypatch.setattr(experiments, "_KEY_CHUNK", 7)
    monkeypatch.setattr(experiments, "_BATCH_ENTRIES", batch_entries)
    seq = degrees_from_generator("mix:2x20,3x10", ModelKind.DCM, 3)
    for starts in ([4], [4, 0, 4]):
        cfg = cfg_for(seq, env_samples=37, start_vertices=starts)
        report = annealed_check(cfg, (0, 3, 1))
        rows, worst_start, _ = annealed_per_environment_loop(cfg, (0, 3, 1))
        assert [(r.estimate, r.std_err) for r in report.rows] == rows
        assert report.metadata["worst_start"] == worst_start


@pytest.mark.parametrize("batch_entries, key_chunk, tables", [
    (1080, 12, [10, 10, 10, 7]), (1080, 3, [5] * 7 + [2]),
    (1, 12, [12, 12, 12, 1])])
def test_annealed_keys_whole_batches_and_no_stream_each(
        monkeypatch, batch_entries, key_chunk, tables):
    # m = 70 and 3 starts: 1080 entries make batches of B = 5, 1 of B = 1.
    # A key table holds _KEY_CHUNK keys rounded down to whole batches, B
    # if B is larger, and the run builds no RngStream per environment
    monkeypatch.setattr(experiments, "_BATCH_ENTRIES", batch_entries)
    monkeypatch.setattr(experiments, "_KEY_CHUNK", key_chunk)
    keyed, derive = [], experiments.lane_keys
    monkeypatch.setattr(experiments, "lane_keys", lambda root, which, ks: (
        keyed.append((which, len(ks))) or derive(root, which, ks)))
    made, init = [], RngStream.__post_init__
    monkeypatch.setattr(RngStream, "__post_init__",
                        lambda stream: made.append(stream) or init(stream))
    seq = degrees_from_generator("mix:2x20,3x10", ModelKind.DCM, 3)
    streams = []
    for samples in (37, 74):
        made.clear()
        keyed.clear()
        annealed_check(cfg_for(seq, env_samples=samples,
                               start_vertices=[4, 0, 4]), (1, 2))
        streams.append(len(made))
        if samples == 37:
            assert keyed == [(_LANE_ENV_A, count) for count in tables]
    assert streams[0] == streams[1]


def test_batches_add_to_the_sums_as_a_loop_of_additions_bitwise():
    # a running sum far from zero, so that summing a batch first and adding
    # it after would round differently
    rng = np.random.default_rng(9)
    for shape in ((54, 1, 4, 100), (7, 3, 5, 11), (1, 2, 3, 4)):
        acc = rng.random(shape[1:]) * 1e3
        batch = rng.random(shape)
        want = acc.copy()
        for law in batch:
            want += law
        experiments._add_in_order(acc, batch.copy())
        assert np.array_equal(acc, want)


def test_batch_walker_builds_no_digraph(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a digraph was built")
    monkeypatch.setattr(experiments, "sample_digraph", refuse)
    monkeypatch.setattr(experiments, "kernel_from_digraph", refuse)
    eulerian = degrees_from_generator("eulerian:2x20,3x10", ModelKind.DCM, 3)
    for seq in (eulerian, validate_degrees("ocm", [3] * 30)):
        report = annealed_check(cfg_for(seq, env_samples=40,
                                        start_vertices=[0, 1]), (1, 2))
        assert report.metadata["env_samples"] == 40
    # Eulerian, so marginal needs no stationary-gap replicates
    report = marginal_relaxation_curve(cfg_for(eulerian, alpha=0.3,
                                               beta_grid=(0.6, 1.2)))
    assert report.metadata["replicates"] == eulerian.n == 30


def _annealed_peak_bytes(cfg, t_grid=(1,)):
    tracemalloc.start()
    try:
        annealed_check(cfg, t_grid)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_annealed_memory_does_not_grow_with_environments():
    seq = validate_degrees("dcm", [3] * 100, [3] * 100)
    annealed_check(cfg_for(seq, env_samples=2), t_grid=(1,))  # warm caches
    small, large = (
        _annealed_peak_bytes(cfg_for(seq, env_samples=envs,
                                     start_vertices=[0, 1, 2, 3]))
        for envs in (2000, 8000))
    assert large - small <= 64 * 1024


def _walker_bytes_over_loop(n, env_samples, t_grid=(1, 2, 3)):
    """annealed_check's tracemalloc peak with every start on 3-regular n,
    less that of the per-environment loop."""
    seq = validate_degrees("dcm", [3] * n, [3] * n)
    cfg = cfg_for(seq, env_samples=env_samples, start_vertices="all")
    warm = cfg_for(seq, env_samples=2, start_vertices="all")
    annealed_check(warm, t_grid)
    annealed_per_environment_loop(warm, t_grid)
    tracemalloc.start()
    try:
        annealed_per_environment_loop(cfg, t_grid)
        loop = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return _annealed_peak_bytes(cfg, t_grid) - loop


def test_annealed_batch_memory_is_bounded_with_every_start():
    # S = n starts: over the per-environment loop, a batch adds at most the
    # (|t_grid| + 4) * _BATCH_ENTRIES / 2 floats its docstring states
    bound = (3 + 4) * experiments._BATCH_ENTRIES // 2 * 8
    assert _walker_bytes_over_loop(100, 50) <= bound


def test_annealed_chunk_memory_is_bounded_with_every_start():
    # S * m = 480000 > _BATCH_ENTRIES: each environment walks alone, its
    # 400 starts in column chunks of 54; the chunks stay within the same
    # bound, which one block of all 400 starts would exceed
    bound = (3 + 4) * experiments._BATCH_ENTRIES // 2 * 8
    assert _walker_bytes_over_loop(400, 4) <= bound


def marginal_per_start_loop(cfg):
    """marginal_relaxation_curve's replicates with one kernel and one
    propagate call per (start, time): {t: value} per start, and ledger."""
    alpha, seq = cfg.alpha, cfg.seq
    starts, _ = resolve_starts(cfg, exhaustive_small=False)
    ts = sorted({_floor_time(b / alpha) for b in cfg.beta_grid})
    base = RngStream(cfg.root_seed)
    mu = in_degree_distribution(seq)
    ledger = OperationBudget()
    per_rep = []
    for i, x in enumerate(starts):
        kernel = _kernel(seq, base.lane(_LANE_ENV_A, i))
        v, cur, rep = delta_at(x, seq.n), 0, {}
        for t in ts:
            v = propagate(v, kernel, t - cur, ledger)
            cur = t
            rep[t] = (1.0 - alpha) ** t * tv_distance(v, mu)
        per_rep.append(rep)
    return per_rep, ledger


@pytest.mark.parametrize("key_chunk", [experiments._KEY_CHUNK, 7])
@pytest.mark.parametrize("batch_entries",
                         [experiments._BATCH_ENTRIES, 1080, 1])
def test_marginal_batches_equal_per_start_loop(monkeypatch, batch_entries,
                                               key_chunk):
    # m = 90: the real constant walks all 32 environments in one batch,
    # 1080 in batches of 12, 12 and 8, and 1 each alone as a 1-d law; 7
    # keys per pass keys one batch of 12 per pass, or 7 lone environments
    monkeypatch.setattr(experiments, "_BATCH_ENTRIES", batch_entries)
    monkeypatch.setattr(experiments, "_KEY_CHUNK", key_chunk)
    seq = degrees_from_generator("mix:2x30,3x10", ModelKind.DCM, 3)
    cfg = cfg_for(seq, alpha=0.3, beta_grid=(0.0, 1.2, 0.6, 2.4),
                  start_vertices=32)
    report = marginal_relaxation_curve(cfg, gap_replicates=4)
    per_rep, ledger = marginal_per_start_loop(cfg)
    values = {str(b): [rep[_floor_time(b / 0.3)] for rep in per_rep]
              for b in cfg.beta_grid}
    assert report.metadata["per_beta_replicate_values"] == values
    gap_err = report.metadata["q_std_err"]
    rows = []
    for b in cfg.beta_grid:
        mean, err = mean_std_err(values[str(b)])
        rows.append((min(mean, 1.0),
                     math.hypot(err, gap_err * math.exp(-b))))
    assert [(r.estimate, r.std_err) for r in report.rows] == rows
    assert (report.metadata["renormalizations"],
            report.metadata["max_drift"]) == (ledger.renormalizations,
                                              ledger.max_drift)


# how _environment_laws splits the work: one batch; batches of several
# environments; one environment at a time in column chunks; and lone
# environments, whose 1-d laws walk alone
WALKER_SPLITS = {"one-batch": {}, "batches": {"_BATCH_ENTRIES": 1080},
                 "chunks": {"_BATCH_ENTRIES": 150},
                 "lone": {"_BATCH_MAX_EDGES": 60}}
SHORT_GRIDS = [(0,), (1,), (0, 1, 2), (1, 3, 9)]


def _spy_on_kernels(monkeypatch):
    """A list that gains each table kernel's block count as experiments
    builds it."""
    calls, build = [], experiments.TransitionKernel

    def spy(rows):
        calls.append(len(rows[1]))
        return build(rows=rows)
    monkeypatch.setattr(experiments, "TransitionKernel", spy)
    return calls


@pytest.mark.parametrize("t_grid", SHORT_GRIDS, ids=str)
@pytest.mark.parametrize("split", sorted(WALKER_SPLITS))
def test_annealed_first_steps_equal_per_environment_loop(monkeypatch, split,
                                                         t_grid):
    # step 1 is read from the heads table and t = 0 is the delta; a kernel
    # is built only for a grid that reaches t = 2
    for name, value in WALKER_SPLITS[split].items():
        monkeypatch.setattr(experiments, name, value)
    calls = _spy_on_kernels(monkeypatch)
    dcm = degrees_from_generator("mix:2x20,3x10", ModelKind.DCM, 3)
    for seq in (dcm, validate_degrees("ocm", [3] * 30)):
        cfg = cfg_for(seq, env_samples=13, start_vertices=[4, 0, 7])
        report = annealed_check(cfg, t_grid)
        rows, worst_start, ledger = annealed_per_environment_loop(cfg, t_grid)
        assert [(r.estimate, r.std_err) for r in report.rows] == rows
        assert report.metadata["worst_start"] == worst_start
        assert (report.metadata["renormalizations"],
                report.metadata["max_drift"]) == (ledger.renormalizations,
                                                  ledger.max_drift)
    # every environment is in one kernel exactly when t = 2 is reached
    assert sum(calls) == (2 * 13 if max(t_grid) >= 2 else 0)


@pytest.mark.parametrize("t_grid", SHORT_GRIDS, ids=str)
@pytest.mark.parametrize("split", sorted(WALKER_SPLITS))
def test_marginal_first_steps_equal_per_start_loop(monkeypatch, split,
                                                   t_grid):
    for name, value in WALKER_SPLITS[split].items():
        monkeypatch.setattr(experiments, name, value)
    calls = _spy_on_kernels(monkeypatch)
    seq = degrees_from_generator("mix:2x30,3x10", ModelKind.DCM, 3)
    # t = floor(beta / 0.25) lands on each time of the grid
    cfg = cfg_for(seq, alpha=0.25, beta_grid=tuple(t / 4 for t in t_grid),
                  start_vertices=11)
    report = marginal_relaxation_curve(cfg, gap_replicates=2)
    per_rep, ledger = marginal_per_start_loop(cfg)
    assert sorted(per_rep[0]) == list(t_grid)
    values = {str(b): [rep[_floor_time(b / 0.25)] for rep in per_rep]
              for b in cfg.beta_grid}
    assert report.metadata["per_beta_replicate_values"] == values
    assert (report.metadata["renormalizations"],
            report.metadata["max_drift"]) == (ledger.renormalizations,
                                              ledger.max_drift)
    assert sum(calls) == (11 if max(t_grid) >= 2 else 0)


def test_crosscheck_exact_side_equals_batched_marginal_replicate():
    # m = 90, so marginal walks its 4 environments in one batch while the
    # crosscheck walks environment 0 as a 1-d law
    seq = degrees_from_generator("mix:2x30,3x10", ModelKind.DCM, 3)
    cfg = cfg_for(seq, alpha=0.3, beta_grid=(1.2,), start_vertices=4)
    report = marginal_relaxation_curve(cfg, gap_replicates=4)
    row = marginal_mc_crosscheck(cfg, 4, 10).rows[0]
    assert row.theory == report.metadata["per_beta_replicate_values"]["1.2"][0]


@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf])
def test_non_integer_counts_are_typed_errors(bad):
    seq = degrees_from_generator("mix:2x30,3x10", ModelKind.DCM, 3)
    with pytest.raises(BadValue):
        cfg_for(seq, env_samples=bad)
    for starts in (bad, [0, bad]):
        with pytest.raises(BadValue):
            resolve_starts(cfg_for(seq, start_vertices=starts))
    kernel = kernel_from_digraph(sample_digraph(seq, RngStream(5).lane(1, 0)))
    with pytest.raises(BadValue):
        stationary_distribution(kernel, max_iters=bad)
    # not Eulerian, so marginal estimates the stationary gap
    with pytest.raises(BadValue):
        marginal_relaxation_curve(cfg_for(seq, alpha=0.3, beta_grid=(0.6,)),
                                  gap_replicates=bad)
    with pytest.raises(BadValue):
        stationary_gap_report(cfg_for(seq), replicates=bad)


MIX = degrees_from_generator("mix:2x30,3x10", ModelKind.DCM, 3)
NON_REAL_SCALARS = {
    "config-tol": lambda: cfg_for(MIX, tol="x"),
    "solver-tol": lambda: stationary_distribution(
        kernel_from_digraph(sample_digraph(MIX, RngStream(5).lane(1, 0))),
        tol="1e-9"),
    "budget-cap": lambda: OperationBudget("5"),
    "epsilon": lambda: path_weight_report(cfg_for(MIX), 1, 2, 10,
                                          epsilon="0.1"),
    # not Eulerian, so marginal estimates the stationary gap
    "gap-replicates": lambda: marginal_relaxation_curve(
        cfg_for(MIX, alpha=0.3, beta_grid=(0.6,)), gap_replicates="3"),
    "gap-report-replicates": lambda: stationary_gap_report(
        cfg_for(MIX), replicates="3"),
}


@pytest.mark.parametrize("name", sorted(NON_REAL_SCALARS))
def test_non_real_scalars_are_typed_errors(name):
    with pytest.raises(BadValue):
        NON_REAL_SCALARS[name]()


# each run's grid time overflows to inf on 3-regular n = 50
HUGE_BETA_RUNS = {
    "static": lambda seq: static_cutoff_profile(
        cfg_for(seq, beta_grid=(1e308,), env_samples=2)),
    "joint": lambda seq: joint_relaxation_curve(
        cfg_for(seq, alpha=0.001, beta_grid=(1e306,), env_samples=2)),
    "marginal": lambda seq: marginal_relaxation_curve(
        cfg_for(seq, alpha=0.001, beta_grid=(1e306,), env_samples=2)),
    "double": lambda seq: double_cutoff_sweep(
        cfg_for(seq, s_grid=(0,), env_samples=2), 1e308),
}


@pytest.mark.parametrize("name", sorted(HUGE_BETA_RUNS))
def test_a_grid_time_past_floats_is_a_typed_error(name):
    seq = validate_degrees("dcm", [3] * 50, [3] * 50)
    with pytest.raises(BadValue, match="not finite"):
        HUGE_BETA_RUNS[name](seq)


def test_path_weights_exact_for_uniform_out_maps():
    # distinct targets mean every step has weight exactly 1/3, so the rate
    # is the entropy log 3 for every single trajectory
    seq = validate_degrees("ocm", [3] * 30)
    cfg = cfg_for(seq)
    weights = path_weight_lln(cfg, s=2, t=6, traj_samples=50)
    assert weights.shape == (50,)
    np.testing.assert_allclose(-weights / 6, math.log(3), rtol=0,
                               atol=1e-12)
    report = path_weight_report(cfg, s=2, t=6, traj_samples=50)
    assert report.metadata["entropy"] == pytest.approx(math.log(3),
                                                       abs=1e-12)
    assert report.metadata["mean_rate"] == pytest.approx(math.log(3),
                                                         abs=1e-12)
    assert report.rows[0].estimate == 1.0
    with pytest.raises(BadRange):
        path_weight_lln(cfg, s=5, t=3, traj_samples=10)


def test_path_weight_lln_walks_blocks_on_their_own_streams(monkeypatch):
    seq = validate_degrees("dcm", [2, 3, 4, 2, 3] * 6, [3, 2, 2, 4, 3] * 6)
    cfg = cfg_for(seq)
    s, t, samples, block = 2, 7, 50, 16
    monkeypatch.setattr(experiments, "_PATH_BLOCK", block)
    res = path_weight_lln(cfg, s, t, samples)
    # replay: the start draw and both environments on their lanes, block b
    # of the paths on (_LANE_TRAJ, b), the last block short
    base = RngStream(cfg.root_seed)
    g1 = sample_digraph(seq, base.lane(_LANE_ENV_A, 0))
    g2 = sample_digraph(seq, base.lane(experiments._LANE_ENV_B, 0))
    xs = base.lane(experiments._LANE_STARTS).generator().choice(
        seq.n, size=samples, replace=True, p=in_degree_distribution(seq))
    weights = np.concatenate([
        path_log_weights(
            sample_paths(xs[lo:lo + block], s, t, g1, g2,
                         base.lane(experiments._LANE_TRAJ, b)),
            s, g1, g2)
        for b, lo in enumerate(range(0, samples, block))])
    assert np.array_equal(res, weights)
    assert len(set(weights.tolist())) > 1      # the rates really vary


def test_path_weight_lln_generators_do_not_grow_with_paths(monkeypatch):
    calls = []
    generator = RngStream.generator
    monkeypatch.setattr(RngStream, "generator",
                        lambda self: calls.append(self) or generator(self))
    cfg = cfg_for(validate_degrees("ocm", [3] * 30))
    counts = {}
    for samples in (1, 100, experiments._PATH_BLOCK, 10_000):
        calls.clear()
        path_weight_lln(cfg, s=2, t=4, traj_samples=samples)
        counts[samples] = len(calls)
    # the start draw and one stream per block of paths; the two
    # environments draw on the shared generator
    blocks = -(-10_000 // experiments._PATH_BLOCK)
    assert counts == {1: 2, 100: 2, experiments._PATH_BLOCK: 2,
                      10_000: 1 + blocks}


def test_path_weight_lln_builds_no_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel was built")
    monkeypatch.setattr(walk, "_transpose_matrix", refuse)
    monkeypatch.setattr(walk.TransitionKernel, "__init__", refuse)
    for seq in (validate_degrees("dcm", [2, 3, 4, 2, 3] * 6,
                                 [3, 2, 2, 4, 3] * 6),
                validate_degrees("ocm", [3] * 30)):
        assert path_weight_lln(cfg_for(seq), 2, 7, 50).shape == (50,)


def test_path_weight_lln_memory_holds_no_kernel():
    # DCM, Eulerian or not: the two digraphs' heads, one matching while it
    # is drawn and the sequence's arrays take about 20 bytes per edge;
    # keeping both matchings (8 bytes per edge each) or two P^T matrices
    # (8 + 4 bytes per edge each) would take it past the bound
    out = np.array([2, 3, 4] * 6000)
    for inn in (out, np.random.default_rng(0).permutation(out)):
        seq = validate_degrees("dcm", out, inn)
        tracemalloc.start()
        try:
            path_weight_lln(cfg_for(seq), 4, 8, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * seq.m, seq.is_eulerian


def test_path_weight_lln_refuses_a_non_integer_time():
    cfg = cfg_for(validate_degrees("dcm", [3] * 40, [3] * 40))
    with pytest.raises(BadValue, match="must hold integers"):
        path_weight_lln(cfg, 1, 2.5, 10)
    with pytest.raises(BadValue, match="must hold integers"):
        path_weight_lln(cfg, 0.5, 2, 10)


def test_crosscheck_refuses_a_non_integer_time():
    cfg = cfg_for(validate_degrees("dcm", [3] * 40, [3] * 40), alpha=0.1)
    with pytest.raises(BadValue, match="must hold integers"):
        marginal_mc_crosscheck(cfg, 2.5, 20)


def test_path_weight_report_row():
    seq = validate_degrees("ocm", [3] * 30)
    report = path_weight_report(cfg_for(seq), s=1, t=4, traj_samples=40)
    assert report.rows[0].estimate == 1.0
    assert report.rows[0].theory == 1.0
    assert report.metadata["rate_abs_error"] < 1e-12


def test_path_weight_report_reduces_the_weights_of_path_weight_lln():
    # mixed degrees, so the rates vary; an epsilon equal to the largest
    # relative gap puts that path on the window's closed edge
    seq = validate_degrees("dcm", [2, 3, 4, 2, 3] * 6, [3, 2, 2, 4, 3] * 6)
    cfg, s, t, samples = cfg_for(seq), 2, 7, 300
    weights = path_weight_lln(cfg, s, t, samples)
    h = entropic_scale(seq).entropy
    gaps = np.abs(-weights / (h * t) - 1.0)
    edge = float(gaps.max())
    assert 0 < edge < 1 and (gaps < edge).any()
    for epsilon in (edge, 0.1):
        report = path_weight_report(cfg, s, t, samples, epsilon)
        frac = float((gaps <= epsilon).mean())
        assert report.rows == [ReportRow(
            abscissa=0.0, estimate=frac,
            std_err=math.sqrt(frac * (1 - frac) / samples), theory=1.0,
            n_effective=samples)]
        mean_rate = float((-weights / t).mean())
        meta = report.metadata
        assert (meta["t"], meta["switch_time"], meta["samples"],
                meta["epsilon"]) == (t, s, samples, epsilon)
        assert (meta["entropy"], meta["mean_rate"],
                meta["rate_abs_error"]) == (h, mean_rate, abs(mean_rate - h))
    assert path_weight_report(cfg, s, t, samples, edge).rows[0].estimate == 1.0


def test_path_weight_report_sums_its_blocks_in_order(monkeypatch):
    # 300 paths in blocks of 64: the in-window count is that of the whole
    # array, and the mean rate adds the blocks' sums in block order
    monkeypatch.setattr(experiments, "_PATH_BLOCK", 64)
    seq = validate_degrees("dcm", [2, 3, 4, 2, 3] * 6, [3, 2, 2, 4, 3] * 6)
    cfg, s, t, samples = cfg_for(seq), 2, 7, 300
    weights = path_weight_lln(cfg, s, t, samples)
    h = entropic_scale(seq).entropy
    report = path_weight_report(cfg, s, t, samples)
    frac = float((np.abs(-weights / (h * t) - 1.0) <= 0.1).mean())
    assert report.rows[0].estimate == frac < 1.0
    rate = sum(float((-block / t).sum())
               for block in np.split(weights, range(64, samples, 64)))
    assert report.metadata["mean_rate"] == rate / samples
    assert math.isclose(rate / samples, float((-weights / t).mean()),
                        rel_tol=1e-12)


def test_double_cutoff_validates_switch_grid():
    cfg = cfg_for(REG3_120, s_grid=(0, 50), env_samples=2, start_vertices=3)
    with pytest.raises(BadRange):
        double_cutoff_sweep(cfg, 0.5)  # t is small, 50 is out of range
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(BadValue):
            double_cutoff_sweep(cfg, bad)


@pytest.mark.parametrize("bad", [1.5, math.nan, math.inf])
def test_double_cutoff_refuses_a_non_integer_switch_time(bad):
    cfg = cfg_for(REG3_120, s_grid=(0, bad), env_samples=2, start_vertices=3)
    with pytest.raises(BadValue, match="s_grid"):
        double_cutoff_sweep(cfg, 1.5)


@pytest.mark.parametrize("bad", [1.5, math.nan, math.inf])
def test_annealed_refuses_a_non_integer_time(bad):
    # 1.5 would otherwise run as t = 1
    cfg = cfg_for(REG3_120, env_samples=2, start_vertices=[0])
    with pytest.raises(BadValue, match="t_grid"):
        annealed_check(cfg, (1, bad))
    assert annealed_check(cfg, (2.0,)).metadata["times"] == [2]


def test_double_cutoff_statistic_depends_on_beta():
    cfg = cfg_for(REG3_120, s_grid=(0, 1, 2), env_samples=2, start_vertices=4)
    below = double_cutoff_sweep(cfg, 0.5)
    assert below.metadata["statistic"] == "min_over_starts"
    above = double_cutoff_sweep(cfg, 1.8)
    assert above.metadata["statistic"] == "max_over_starts"
    assert set(above.metadata["per_s_min"]) == {"0", "1", "2"}
    assert all(len(v) == 2 for v in above.metadata["per_s_max"].values())


def test_budget_cap_stops_heavy_runs_upfront():
    cfg = cfg_for(REG3_120, alpha=0.01, beta_grid=(2.0,), env_samples=5,
                  start_vertices=4)
    with pytest.raises(BudgetExceeded):
        joint_relaxation_curve(cfg, budget=OperationBudget(cap=100.0))


MIX_120 = validate_degrees("dcm", [2] * 60 + [3] * 60, [3] * 60 + [2] * 60)

# each run charges its budget where the work happens: products and solves
BUDGET_RUNS = {
    "static-cutoff": lambda b: static_cutoff_profile(
        cfg_for(MIX_120, beta_grid=(0.5, 1.5), env_samples=2), budget=b),
    "double-cutoff": lambda b: double_cutoff_sweep(
        cfg_for(MIX_120, s_grid=(0, 2), env_samples=2,
                start_vertices=[0, 7]), 1.5, budget=b),
    "joint": lambda b: joint_relaxation_curve(
        cfg_for(MIX_120, alpha=0.3, beta_grid=(0.5, 1.0), env_samples=2,
                start_vertices=2), budget=b),
    "marginal": lambda b: marginal_relaxation_curve(
        cfg_for(MIX_120, alpha=0.3, beta_grid=(0.6,), start_vertices=3),
        gap_replicates=2, budget=b),
    "marginal-crosscheck": lambda b: marginal_mc_crosscheck(
        cfg_for(MIX_120, alpha=0.2, start_vertices=[0]), 4, 20, budget=b),
    "annealed": lambda b: annealed_check(
        cfg_for(MIX_120, env_samples=4, start_vertices=[0, 1]), (1, 2),
        budget=b),
    # two path blocks, so a cap one below stops before the second
    "weight-lln": lambda b: path_weight_lln(
        cfg_for(MIX_120), 2, 4, experiments._PATH_BLOCK + 100, budget=b),
}


@pytest.mark.parametrize("name", sorted(BUDGET_RUNS))
def test_a_cap_one_below_the_full_charge_stops_the_run(name):
    run = BUDGET_RUNS[name]
    full = OperationBudget()
    run(full)
    assert full.used > 0
    cap = full.used - 1
    short = OperationBudget(cap)
    with pytest.raises(BudgetExceeded):
        run(short)
    # stopped at the call that would cross the cap, not before any work
    assert 0 < short.used <= cap


def test_weight_lln_report_charges_its_whole_walk_before_the_first_block():
    # the report holds nothing per trajectory, so its budget is what
    # refuses a walk too long to finish; it charges what the library
    # form charges block by block
    args = (cfg_for(MIX_120), 2, 4, experiments._PATH_BLOCK + 100)
    blocks, whole = OperationBudget(), OperationBudget()
    path_weight_lln(*args, budget=blocks)
    path_weight_report(*args, budget=whole)
    assert whole.used == blocks.used > 0
    short = OperationBudget(whole.used - 1)
    with pytest.raises(BudgetExceeded):
        path_weight_report(*args, budget=short)
    assert short.used == 0


def test_static_cutoff_charges_its_walks_and_solves():
    cfg = cfg_for(MIX_120, beta_grid=(0.5, 1.5), env_samples=3)
    budget = OperationBudget()
    report = static_cutoff_profile(cfg, budget=budget)
    meta = report.metadata
    assert meta["replicates"] == 3
    mu = in_degree_distribution(MIX_120)
    solves = [stationary_distribution(
        _kernel(MIX_120, RngStream(5).lane(_LANE_ENV_A, r)), start=mu)
        for r in range(3)]
    walks = 3 * meta["start_count"] * max(meta["times"]) * MIX_120.m
    # the first product, one per iteration and the closing check
    solved = sum(res.iterations + 2 for res in solves) * MIX_120.m
    assert (walks, solved) == (864000, 49500)
    assert budget.used == walks + solved


def test_gap_report_theory_column():
    eul = cfg_for(REG3_120, env_samples=3)
    report = stationary_gap_report(eul)
    assert report.rows[0].theory == 0.0
    assert report.rows[0].estimate < 1e-9
    ocm = cfg_for(validate_degrees("ocm", [2] * 40), env_samples=3)
    report2 = stationary_gap_report(ocm)
    assert math.isnan(report2.rows[0].theory)
    assert report2.rows[0].estimate > 0.0


@pytest.mark.parametrize("run", [
    static_cutoff_profile,
    lambda cfg: double_cutoff_sweep(cfg, 0.7),
    joint_relaxation_curve,
], ids=["static", "double", "joint"])
def test_every_failed_solve_raises_all_replicates_failed(run):
    # one power iteration never certifies a non-Eulerian stationary law
    seq = degrees_from_generator("mix:2x30,3x10", ModelKind.DCM, 0)
    cfg = cfg_for(seq, alpha=0.4, beta_grid=(0.5,), s_grid=(0, 1),
                  env_samples=2, start_vertices=2, max_iters=1)
    with pytest.raises(AllReplicatesFailed):
        run(cfg)


def _failed_solves(seq, lane, replicates, max_iters):
    """How many of the first replicates of lane fail their own solve."""
    mu = in_degree_distribution(seq)
    failed = 0
    for r in range(replicates):
        g = sample_digraph(seq, RngStream(0).lane(lane, r))
        try:
            stationary_distribution(kernel_from_digraph(g),
                                    max_iters=max_iters, start=mu)
        except NotConverged:
            failed += 1
    return failed


def test_partial_solve_failures_are_counted_per_replicate():
    # 50 iterations certify some of these non-Eulerian laws and not others
    seq = degrees_from_generator("mix:2x30,3x10", ModelKind.DCM, 0)
    cfg = cfg_for(seq, root_seed=0, alpha=0.4, beta_grid=(0.5,),
                  env_samples=12, start_vertices=2, max_iters=50)
    gap_failed = _failed_solves(seq, _LANE_GAP, 12, 50)
    env_failed = _failed_solves(seq, _LANE_ENV_A, 12, 50)
    assert 0 < gap_failed < 12 and 0 < env_failed < 12
    _, failures = stationary_diagnostics(cfg)
    assert failures == gap_failed
    meta = static_cutoff_profile(cfg).metadata
    assert meta["solve_failures"] == env_failed
    meta = stationary_gap_report(cfg, replicates=12).metadata
    assert meta["solve_failures"] == gap_failed
    meta = marginal_relaxation_curve(cfg, gap_replicates=12).metadata
    assert meta["q_failures"] == gap_failed


def test_bools_are_not_counts_or_times_but_integral_floats_are():
    # numpy reads [True, 2] as int64, so each of these used to run as 1
    cfg = cfg_for(MIX, alpha=0.2, env_samples=2, start_vertices=[0])
    cases = {
        "s_grid": lambda: double_cutoff_sweep(
            cfg_for(REG3_120, s_grid=[True, 2], env_samples=2,
                    start_vertices=3), 0.7),
        "t_grid": lambda: annealed_check(cfg, [True, 2]),
        "crosscheck t": lambda: marginal_mc_crosscheck(cfg, True, 20),
        "crosscheck schedules": lambda: marginal_mc_crosscheck(cfg, 3, True),
        "weight-lln s": lambda: path_weight_lln(cfg, True, 4, 50),
        "weight-lln samples": lambda: path_weight_lln(cfg, 1, 4, True),
        "env_samples": lambda: cfg_for(MIX, env_samples=True),
        "start count": lambda: resolve_starts(
            cfg_for(MIX, start_vertices=True)),
        "start list": lambda: resolve_starts(
            cfg_for(MIX, start_vertices=[True, 3])),
        "replicates": lambda: stationary_gap_report(cfg, replicates=True),
    }
    for name, case in cases.items():
        with pytest.raises(BadValue):
            case()
            pytest.fail(f"{name} accepted a bool")
    # integral floats are still counts and times
    cfg = cfg_for(MIX, alpha=0.2, env_samples=2.0, start_vertices=[0])
    assert cfg.env_samples == 2 and type(cfg.env_samples) is int
    assert (marginal_mc_crosscheck(cfg, 3.0, 20.0)
            == marginal_mc_crosscheck(cfg, 3, 20))
    assert np.array_equal(path_weight_lln(cfg, 1.0, 4.0, 50.0),
                          path_weight_lln(cfg, 1, 4, 50))
    assert (path_weight_report(cfg, 1.0, 4.0, 50.0)
            == path_weight_report(cfg, 1, 4, 50))
    assert (resolve_starts(cfg_for(MIX, start_vertices=4.0))
            == resolve_starts(cfg_for(MIX, start_vertices=4)))


@pytest.mark.parametrize("bad", [None, 0.5, 3])
def test_beta_grid_must_be_a_sequence(bad):
    with pytest.raises(BadValue, match="beta_grid"):
        cfg_for(REG3_120, beta_grid=bad)


def test_annealed_theory_is_one_at_time_zero():
    # at t = 0 every environment's law is delta_x, and TV(delta_x, mu)
    # = 1 - mu(x) tends to 1; from t = 1 on the averaged law has mixed
    cfg = cfg_for(REG3_120, env_samples=2, start_vertices=[0, 5])
    rows = annealed_check(cfg, [0, 1, 2]).rows
    assert [row.theory for row in rows] == [1.0, 0.0, 0.0]
    assert rows[0].estimate == pytest.approx(1 - 1 / 120, abs=1e-12)
    assert abs(rows[0].estimate - rows[0].theory) < 0.01
