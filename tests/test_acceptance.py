"""End-to-end quantitative targets, one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` for a per-criterion
pass/fail line.  Each test freezes its ensemble, seeds, and tolerances;
the heavier runs also assert their wall-clock ceilings.
"""

import itertools
import math
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from mixlab.cli import degrees_from_generator, main
from mixlab.core import (
    ModelKind,
    entropic_scale,
    tv_distance,
    validate_degrees,
)
from mixlab.experiments import (
    ExperimentConfig,
    annealed_check,
    double_cutoff_sweep,
    joint_relaxation_curve,
    marginal_mc_crosscheck,
    marginal_relaxation_curve,
    path_weight_report,
    static_cutoff_profile,
    stationary_diagnostics,
)
from mixlab.rng import RngStream
from mixlab.sampler import sample_dcm, sample_digraph
from mixlab.stationary import estimate_stationary_gap, stationary_distribution
from mixlab.walk import (
    OperationBudget,
    delta_at,
    double_row,
    kernel_from_digraph,
    sample_trajectory,
    time_averaged_row,
)

BUDGET_CAP = 5e10

_cache: dict = {}


def reg3_10k():
    if "reg3" not in _cache:
        _cache["reg3"] = validate_degrees(
            "dcm", np.full(10_000, 3), np.full(10_000, 3))
    return _cache["reg3"]


def mixed_10k(seed):
    key = ("mix", seed)
    if key not in _cache:
        _cache[key] = degrees_from_generator(
            "mix:2x9000,3x1000", ModelKind.DCM, seed)
    return _cache[key]


# ---------------------------------------------------------------------------
# 1. static cutoff: sharp worst-start drop across the entropic time


def test_01_static_cutoff_profile():
    t0 = time.time()
    cfg = ExperimentConfig(seq=reg3_10k(), root_seed=1, beta_grid=(0.7, 1.5),
                           env_samples=10, start_vertices=32)
    report = static_cutoff_profile(cfg, budget=OperationBudget(BUDGET_CAP))
    by_beta = {row.abscissa: row.estimate for row in report.rows}
    assert by_beta[0.7] >= 0.90
    assert by_beta[1.5] <= 0.10
    assert time.time() - t0 <= 120


# ---------------------------------------------------------------------------
# 2. double cutoff: switching environments mid-run does not shift the profile


def test_02_double_cutoff_switch_sweep():
    t0 = time.time()
    seq = reg3_10k()
    t_ent = entropic_scale(seq).entropic_time

    t_lo = math.floor(0.7 * t_ent)
    grid_lo = tuple(sorted({0, t_lo // 4, t_lo // 2, (3 * t_lo) // 4, t_lo}))
    cfg = ExperimentConfig(seq=seq, root_seed=2, s_grid=grid_lo,
                           env_samples=10, start_vertices=32)
    low = double_cutoff_sweep(cfg, 0.7, budget=OperationBudget(BUDGET_CAP))
    assert min(min(v) for v in low.metadata["per_s_min"].values()) >= 0.90

    # above the cutoff the admissible switch times exclude a window around
    # the entropic time itself; every integer choice lives below 0.75 t_ent
    grid_hi = (0, 1, 2, 4, 5, 6)
    assert all(s <= 0.75 * t_ent for s in grid_hi)
    cfg = ExperimentConfig(seq=seq, root_seed=2, s_grid=grid_hi,
                           env_samples=10, start_vertices=32)
    high = double_cutoff_sweep(cfg, 1.5, budget=OperationBudget(BUDGET_CAP))
    assert max(max(v) for v in high.metadata["per_s_max"].values()) <= 0.10
    assert time.time() - t0 <= 600


# ---------------------------------------------------------------------------
# 3. joint relaxation: fast- and slow-refresh limit curves


def test_03_joint_relaxation_trichotomy():
    seq = mixed_10k(3)
    t_ent = entropic_scale(seq).entropic_time
    betas = (0.5, 1.0, 2.0)

    for gamma_target in (5.65, 0.1995):
        t0 = time.time()
        cfg = ExperimentConfig(seq=seq, root_seed=3,
                               alpha=gamma_target / t_ent, beta_grid=betas,
                               env_samples=30, start_vertices=4)
        budget = OperationBudget(BUDGET_CAP)
        report = joint_relaxation_curve(cfg, budget=budget)
        expected = "inf" if gamma_target > 5 else "0"
        assert report.metadata["regime"] == expected
        assert report.metadata["gamma_hat"] == pytest.approx(gamma_target)
        for row in report.rows:
            assert abs(row.estimate - row.theory) <= 0.10, (
                f"regime {expected}, beta {row.abscissa}")
        assert budget.used <= BUDGET_CAP
        assert time.time() - t0 <= 1800


# ---------------------------------------------------------------------------
# 4. marginal relaxation: all three limit curves plus gap-estimate stability


def test_04_marginal_relaxation_trichotomy():
    # slow refresh on a degree-balanced sequence: the static profile rules
    eul = ExperimentConfig(seq=reg3_10k(), root_seed=4, alpha=0.02,
                           beta_grid=(0.5, 2.0, 3.0), start_vertices=20)
    report = marginal_relaxation_curve(eul, time_scale="entropic",
                                       budget=OperationBudget(BUDGET_CAP))
    assert report.metadata["regime"] == "0"
    assert report.metadata["q_exact"] is True
    by_beta = {row.abscissa: row.estimate for row in report.rows}
    assert by_beta[2.0] <= 0.05 and by_beta[3.0] <= 0.05
    assert by_beta[0.5] >= 0.80

    seq = mixed_10k(4)
    t_ent = entropic_scale(seq).entropic_time

    # fast refresh: pure survival decay
    fast = ExperimentConfig(seq=seq, root_seed=4, alpha=5.15 / t_ent,
                            beta_grid=(0.5, 1.0, 2.0), start_vertices=20)
    report = marginal_relaxation_curve(fast,
                                       budget=OperationBudget(BUDGET_CAP))
    assert report.metadata["regime"] == "inf"
    for row in report.rows:
        assert abs(row.estimate - math.exp(-row.abscissa)) <= 0.05

    # comparable scales: the stationary-gap factor appears past the knee
    mid = ExperimentConfig(seq=seq, root_seed=4, alpha=1.0 / t_ent,
                           beta_grid=(0.5, 2.0), start_vertices=20)
    report = marginal_relaxation_curve(mid,
                                       budget=OperationBudget(BUDGET_CAP))
    assert report.metadata["regime"] == "general"
    for row in report.rows:
        assert not row.flagged
        assert abs(row.estimate - row.theory) <= 0.10

    # the estimated stationary gap is reproducible across independent runs
    gaps = [estimate_stationary_gap(seq, 20, RngStream(40 + k).lane(4)).gap
            for k in range(5)]
    assert float(np.std(gaps, ddof=1)) <= 0.02


# ---------------------------------------------------------------------------
# 5. the schedule-sampling estimator agrees with the deterministic one


def test_05_crosscheck_consistency():
    seq = degrees_from_generator("mix:2x1800,3x200", ModelKind.DCM, 5)
    alpha = 0.08
    cfg = ExperimentConfig(seq=seq, root_seed=5, alpha=alpha,
                           beta_grid=(0.8, 1.2, 1.6), start_vertices=10)
    marginal = marginal_relaxation_curve(cfg,
                                         budget=OperationBudget(BUDGET_CAP))
    for row in marginal.rows:
        t = math.floor(row.abscissa / alpha)
        cc = marginal_mc_crosscheck(cfg, t, 4000,
                                    budget=OperationBudget(BUDGET_CAP))
        # the deterministic branch must reproduce replicate 0 exactly
        rep0 = marginal.metadata["per_beta_replicate_values"][
            str(row.abscissa)][0]
        assert cc.exact == pytest.approx(rep0, abs=1e-12)
        tol = 2 * (cc.std_err + row.std_err + 0.02)
        assert abs(cc.sampled - row.estimate) <= tol, (
            f"beta {row.abscissa}: |{cc.sampled:.4f} - {row.estimate:.4f}| "
            f"> {tol:.4f}")


# ---------------------------------------------------------------------------
# 6. environment-averaged law collapses to the in-degree law


def test_06_annealed_in_law():
    # one step: exact in expectation, so the estimate is pure noise
    small = validate_degrees("dcm", np.full(100, 3), np.full(100, 3))
    cfg = ExperimentConfig(seq=small, root_seed=6, env_samples=20_000,
                           start_vertices=[0, 1, 2, 3])
    report = annealed_check(cfg, (1,), budget=OperationBudget(BUDGET_CAP))
    row = report.rows[0]
    assert row.estimate <= row.std_err

    # twice the entropic time: residual correlations stay small
    seq = reg3_10k()
    t = math.floor(2 * entropic_scale(seq).entropic_time)
    cfg = ExperimentConfig(seq=seq, root_seed=6, env_samples=30,
                           start_vertices=[0, 1, 2, 3])
    report = annealed_check(cfg, (t,), budget=OperationBudget(BUDGET_CAP))
    assert report.rows[0].estimate <= 0.05


# ---------------------------------------------------------------------------
# 7. stationary laws are widespread: flat in l2 and in the maximum


def test_07_widespread_stationary_diagnostics():
    seq = mixed_10k(7)
    cfg = ExperimentConfig(seq=seq, root_seed=7, env_samples=20)
    rows, failures = stationary_diagnostics(cfg,
                                            budget=OperationBudget(BUDGET_CAP))
    assert failures == 0 and len(rows) == 20
    soft = math.log(seq.n) ** 4
    hard = math.log(seq.n) ** 8
    for row in rows:
        assert row.l2_stat <= 20.0
        assert row.max_stat <= hard
        if row.max_stat > soft:
            warnings.warn(f"replicate {row.replicate}: max_stat "
                          f"{row.max_stat:.1f} above {soft:.1f}")


# ---------------------------------------------------------------------------
# 8. trajectory weights concentrate at the entropy rate


def test_08_path_weight_concentration():
    seq = degrees_from_generator("eulerian:2x95000,3x5000", ModelKind.DCM, 8)
    scale = entropic_scale(seq)
    t = math.floor(scale.entropic_time)
    cfg = ExperimentConfig(seq=seq, root_seed=8)
    report = path_weight_report(cfg, t // 2, t, 10_000, 0.1,
                                budget=OperationBudget(BUDGET_CAP))
    assert report.rows[0].estimate >= 0.95
    assert report.metadata["rate_abs_error"] <= 0.02


# ---------------------------------------------------------------------------
# 9. exact small-system oracles


def test_09_exact_small_system_oracles():
    # stationary law vs a dense null-space solve
    seq6 = validate_degrees("dcm", [2, 3, 2, 3, 2, 2], [2, 2, 3, 2, 3, 2])
    for seed in range(3):
        kernel = kernel_from_digraph(sample_digraph(seq6, RngStream(seed)))
        p = kernel.matrix.toarray()
        a = np.vstack([p.T - np.eye(6), np.ones(6)])
        b = np.zeros(7)
        b[-1] = 1.0
        dense_pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        got = stationary_distribution(kernel).distribution
        assert np.abs(got - dense_pi).max() < 1e-9

    # switch-time-averaged row vs the quadratic-time dense reference
    reg6 = validate_degrees("dcm", [2] * 6, [2] * 6)
    k1 = kernel_from_digraph(sample_digraph(reg6, RngStream(0).lane(1)))
    k2 = kernel_from_digraph(sample_digraph(reg6, RngStream(0).lane(2)))
    p1, p2 = k1.matrix.toarray(), k2.matrix.toarray()
    t = 7
    naive = np.zeros(6)
    for s in range(1, t + 1):
        naive += delta_at(3, 6) @ np.linalg.matrix_power(p1, s - 1) \
            @ np.linalg.matrix_power(p2, t - s)
    naive /= t
    assert np.abs(time_averaged_row(3, t, k1, k2) - naive).max() <= 1e-12

    # two-environment row vs dense matrix products
    for s, tt in ((0, 5), (3, 7), (7, 7)):
        want = delta_at(0, 6) @ np.linalg.matrix_power(p1, s) \
            @ np.linalg.matrix_power(p2, tt - s)
        got = double_row(0, s, tt, k1, k2)
        assert np.abs(got - want).max() <= 1e-12

    # sampled trajectory endpoints vs that row, three sigma per state
    g1 = sample_digraph(reg6, RngStream(7).lane(1))
    g2 = sample_digraph(reg6, RngStream(7).lane(2))
    ka = kernel_from_digraph(g1)
    kb = kernel_from_digraph(g2)
    s, tt, reps = 2, 5, 4000
    counts = np.zeros(6)
    for r in range(reps):
        traj = sample_trajectory(0, s, tt, g1, g2, RngStream(9).lane(6, r))
        counts[traj.states[-1]] += 1
    law = double_row(0, s, tt, ka, kb)
    bound = 3 * np.sqrt(law * (1 - law) / reps) + 1e-9
    assert (np.abs(counts / reps - law) <= bound).all()

    # matching sampler vs the exactly enumerated multigraph law at n=3
    triple = validate_degrees("dcm", [2, 2, 2], [2, 2, 2])
    law3: Counter = Counter()
    for perm in itertools.permutations(range(6)):
        mat = np.zeros((3, 3), dtype=int)
        for stub, slot in enumerate(perm):
            mat[stub // 2, slot // 2] += 1
        law3[tuple(mat.ravel())] += 1
    keys = sorted(law3)
    samples = 4000
    observed: Counter = Counter()
    for r in range(samples):
        g = sample_dcm(triple, RngStream(42, r))
        mat = np.zeros((3, 3), dtype=int)
        for x in range(3):
            for y in g.out_edges(x):
                mat[x, int(y)] += 1
        observed[tuple(mat.ravel())] += 1
    assert set(observed) <= set(keys)
    expected = np.array([law3[k] / 720 * samples for k in keys])
    obs = np.array([observed.get(k, 0) for k in keys])
    _, p_value = stats.chisquare(obs, expected)
    assert p_value > 0.001


# ---------------------------------------------------------------------------
# 10. byte-identical reruns under any worker count


CLI_CASES = {
    "static-cutoff": ["--generator", "eulerian:3x40", "--beta-grid",
                      "0.5,1.5", "--env-samples", "3",
                      "--start-vertices", "4"],
    "double-cutoff": ["--generator", "eulerian:3x40", "--beta", "0.7",
                      "--s-grid", "0,1,2", "--env-samples", "3",
                      "--start-vertices", "4"],
    "joint": ["--generator", "eulerian:3x40", "--alpha", "0.4",
              "--beta-grid", "0.5,1", "--env-samples", "3",
              "--start-vertices", "3"],
    "marginal": ["--generator", "mix:2x30,3x10", "--alpha", "0.3",
                 "--beta-grid", "0.6,1.2", "--start-vertices", "4",
                 "--gap-replicates", "4"],
    "marginal-crosscheck": ["--generator", "mix:2x30,3x10", "--alpha", "0.2",
                            "--t", "3", "--schedule-samples", "50",
                            "--start-vertices", "0,"],
    "annealed": ["--generator", "eulerian:3x40", "--t-grid", "1,2",
                 "--env-samples", "20", "--start-vertices", "0,1"],
    "weight-lln": ["--generator", "regular:3", "--n", "40", "--model", "ocm",
                   "--t", "4", "--switch-time", "2", "--traj-samples", "60"],
    "diagnostics": ["--generator", "mix:2x30,3x10", "--env-samples", "3"],
    "q-estimate": ["--generator", "mix:2x30,3x10", "--gap-replicates", "3"],
}


def test_10_byte_identical_reruns(tmp_path, capsys):
    for experiment, extra in CLI_CASES.items():
        out_dir = tmp_path / experiment.replace("-", "_")
        args = [experiment, *extra, "--root-seed", "12",
                "--out-dir", str(out_dir)]

        def one_run(threads):
            assert main(args + ["--threads", str(threads)]) == 0
            csvs = sorted(out_dir.glob("*.csv"))
            assert len(csvs) == 1, experiment
            return csvs[0].read_bytes()

        reference = one_run(1)
        assert reference, experiment
        for threads in (4, 8, 1):
            assert one_run(threads) == reference, (
                f"{experiment} drifted at {threads} threads")
    capsys.readouterr()
