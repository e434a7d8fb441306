"""One catalogue of malformed values over every data-taking name that
``mixlab`` exports.

Each slot is one argument of one exported name, called with well-formed
values everywhere else; each case puts one value of MALFORMED into that
slot.  A case must raise a ``MixingLabError``, unless it sits in ACCEPTED
with the reason the input rules take that value there, and no case may
end in any other exception.  Every typed error's text is at most 250
characters, however large the value.  Every call that takes a
``budget=`` gets a small one: a library call without it has no work
cap, by design.

Wrong duck types are out of scope: an object of another type where a
library object goes, such as a dict where a ``DegreeSequence`` goes or
an int where an ``RngStream`` goes.  NOT_DATA lists the exports that
take nothing else, with result records and exception classes, so every
export is classified.  UNEXPORTED names the one public ``walk`` function
the catalogue also covers: ``grouped_time_averaged_rows``, which serves
every grid of joint rows that ``time_averaged_row`` takes one row of.
"""

import math
import types

import numpy as np
import pytest

import mixlab
from mixlab import cli
from mixlab import (ExperimentConfig, MixingLabError, ModelKind,
                    OperationBudget, RngStream, TransitionKernel,
                    annealed_check, delta_at, digraph_from_json,
                    double_cutoff_sweep, double_row,
                    estimate_stationary_gap, joint_relaxation_curve,
                    kernel_from_digraph, load_degree_sequence,
                    marginal_mc_crosscheck, marginal_relaxation_curve,
                    one_step_laws, parse_curve_csv, path_log_weights,
                    path_weight_lln, path_weight_report, pick_regime,
                    propagate, sample_digraph, sample_paths, sample_tables,
                    sample_trajectory, solve_replicates,
                    static_cutoff_profile, stationary_diagnostics,
                    stationary_distribution, stationary_gap_report,
                    theory_curve, time_averaged_row, tv_distance,
                    validate_degrees, widespread_stats)
from mixlab.errors import BadRange
from mixlab.walk import grouped_time_averaged_rows

MALFORMED = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "bool": True,
    "fraction": 2.5,
    "negative": -1,
    "huge": 10**400,
    "empty": [],
    "ragged": [[0, 1], [2]],
    "string": "x",
    "none": None,
    "wrong-rank": np.ones((2, 2, 2)),
    "bool-table": np.ones((2, 36), dtype=bool),
}

REG = validate_degrees("dcm", [3] * 12, [3] * 12)
# not Eulerian, so marginal estimates the stationary gap
MIX = validate_degrees("dcm", [2, 3] * 6, [3, 2] * 6)
G1 = sample_digraph(REG, RngStream(3).lane(1))
G2 = sample_digraph(REG, RngStream(3).lane(2))
K1, K2 = kernel_from_digraph(G1), kernel_from_digraph(G2)
HEADS, STUBS = sample_tables(REG, list(RngStream(3).lanes(1, range(2))))
MU = np.full(REG.n, 1.0 / REG.n)


def budget():
    return OperationBudget(1e8)


def cfg(seq=REG, **kw):
    base = dict(seq=seq, root_seed=1, alpha=0.3, beta_grid=(0.6,),
                s_grid=(0, 1), env_samples=2, start_vertices=[0])
    base.update(kw)
    return ExperimentConfig(**base)


# slot -> the call with the slot's value v
SLOTS = {
    # core
    "ModelKind.value": lambda v: ModelKind(v),
    "validate_degrees.model": lambda v: validate_degrees(v, [2, 2], [2, 2]),
    "validate_degrees.out_degrees": lambda v: validate_degrees("ocm", v),
    "validate_degrees.in_degrees": lambda v: validate_degrees("dcm", [2, 2],
                                                              v),
    "load_degree_sequence.source": lambda v: load_degree_sequence(v),
    "tv_distance.a": lambda v: tv_distance(v, MU),
    # experiments
    "ExperimentConfig.root_seed": lambda v: static_cutoff_profile(
        cfg(root_seed=v), budget=budget()),
    "ExperimentConfig.alpha": lambda v: joint_relaxation_curve(
        cfg(alpha=v), budget=budget()),
    "ExperimentConfig.beta_grid": lambda v: static_cutoff_profile(
        cfg(beta_grid=v), budget=budget()),
    "ExperimentConfig.s_grid": lambda v: double_cutoff_sweep(
        cfg(s_grid=v), 1.0, budget=budget()),
    "ExperimentConfig.env_samples": lambda v: static_cutoff_profile(
        cfg(env_samples=v), budget=budget()),
    "ExperimentConfig.start_vertices": lambda v: static_cutoff_profile(
        cfg(start_vertices=v), budget=budget()),
    "ExperimentConfig.tol": lambda v: static_cutoff_profile(
        cfg(tol=v), budget=budget()),
    "ExperimentConfig.max_iters": lambda v: stationary_diagnostics(
        cfg(max_iters=v), budget=budget()),
    "double_cutoff_sweep.beta": lambda v: double_cutoff_sweep(
        cfg(), v, budget=budget()),
    "annealed_check.t_grid": lambda v: annealed_check(cfg(), v,
                                                      budget=budget()),
    "marginal_relaxation_curve.time_scale": lambda v:
        marginal_relaxation_curve(cfg(MIX), v, budget=budget()),
    "marginal_relaxation_curve.gap_replicates": lambda v:
        marginal_relaxation_curve(cfg(MIX), gap_replicates=v,
                                  budget=budget()),
    "marginal_mc_crosscheck.t": lambda v: marginal_mc_crosscheck(
        cfg(), v, 10, budget=budget()),
    "marginal_mc_crosscheck.schedule_samples": lambda v:
        marginal_mc_crosscheck(cfg(), 2, v, budget=budget()),
    "path_weight_lln.s": lambda v: path_weight_lln(cfg(), v, 3, 5,
                                                   budget=budget()),
    "path_weight_lln.t": lambda v: path_weight_lln(cfg(), 1, v, 5,
                                                   budget=budget()),
    "path_weight_lln.traj_samples": lambda v: path_weight_lln(
        cfg(), 1, 3, v, budget=budget()),
    "path_weight_report.epsilon": lambda v: path_weight_report(
        cfg(), 1, 3, 5, v, budget=budget()),
    "path_weight_report.t": lambda v: path_weight_report(
        cfg(), 1, v, 5, budget=budget()),
    "stationary_gap_report.replicates": lambda v: stationary_gap_report(
        cfg(), v, budget=budget()),
    "pick_regime.gh": lambda v: pick_regime(v),
    "theory_curve.name": lambda v: theory_curve(v, 1.0),
    "theory_curve.beta": lambda v: theory_curve("joint_gamma0", v),
    "theory_curve.gamma": lambda v: theory_curve("joint_general", 0.5,
                                                 gamma=v),
    "theory_curve.gap": lambda v: theory_curve("static_profile", 1.5, gap=v),
    # report
    "parse_curve_csv.text": lambda v: parse_curve_csv(v),
    # rng
    "RngStream.root_seed": lambda v: RngStream(v),
    "RngStream.stream_index": lambda v: RngStream(1, v),
    "RngStream.lane.which": lambda v: RngStream(1).lane(v),
    "RngStream.lane.k": lambda v: RngStream(1).lane(1, v),
    "RngStream.lanes.which": lambda v: list(RngStream(1).lanes(v, [0])),
    "RngStream.lanes.ks": lambda v: list(RngStream(1).lanes(1, v)),
    # sampler
    "digraph_from_json.text": lambda v: digraph_from_json(v),
    "Digraph.out_edges.x": lambda v: G1.out_edges(v),
    # stationary
    "stationary_distribution.tol": lambda v: stationary_distribution(
        K1, tol=v, budget=budget()),
    "stationary_distribution.max_iters": lambda v: stationary_distribution(
        K1, max_iters=v, budget=budget()),
    "stationary_distribution.start": lambda v: stationary_distribution(
        K1, start=v, budget=budget()),
    "widespread_stats.pi": lambda v: widespread_stats(v),
    "solve_replicates.replicates": lambda v: solve_replicates(
        REG, v, RngStream(1), budget=budget()),
    "solve_replicates.tol": lambda v: solve_replicates(
        REG, 2, RngStream(1), tol=v, budget=budget()),
    "estimate_stationary_gap.replicates": lambda v: estimate_stationary_gap(
        MIX, v, RngStream(1), budget=budget()),
    "estimate_stationary_gap.max_iters": lambda v: estimate_stationary_gap(
        MIX, 2, RngStream(1), max_iters=v, budget=budget()),
    # walk
    "OperationBudget.cap": lambda v: OperationBudget(v),
    "OperationBudget.charge.ops": lambda v: budget().charge(v),
    "TransitionKernel.matrix": lambda v: TransitionKernel(v),
    "delta_at.x": lambda v: delta_at(v, REG.n),
    "delta_at.n": lambda v: delta_at(0, v),
    "propagate.dist": lambda v: propagate(v, K1, 1, budget()),
    "propagate.steps": lambda v: propagate(MU, K1, v, budget()),
    "one_step_laws.starts": lambda v: one_step_laws(REG, HEADS, v, budget()),
    "one_step_laws.heads": lambda v: one_step_laws(REG, v, [[0], [1]],
                                                   budget()),
    "TransitionKernel.rows.heads": lambda v: TransitionKernel(
        rows=(REG, v, STUBS)),
    "TransitionKernel.rows.head_stubs": lambda v: TransitionKernel(
        rows=(REG, HEADS, v)),
    "double_row.x": lambda v: double_row(v, 1, 2, K1, K2, budget()),
    "double_row.s": lambda v: double_row(0, v, 2, K1, K2, budget()),
    "double_row.t": lambda v: double_row(0, 1, v, K1, K2, budget()),
    "grouped_time_averaged_rows.x": lambda v: grouped_time_averaged_rows(
        v, [2], K1, [K2], budget()),
    "grouped_time_averaged_rows.times": lambda v: grouped_time_averaged_rows(
        0, v, K1, [K2], budget()),
    "time_averaged_row.t": lambda v: time_averaged_row(0, v, K1, K2,
                                                       budget()),
    "sample_paths.xs": lambda v: sample_paths(v, 1, 2, G1, G2, RngStream(1)),
    "sample_paths.s": lambda v: sample_paths([0], v, 2, G1, G2,
                                             RngStream(1)),
    "sample_paths.t": lambda v: sample_paths([0], 1, v, G1, G2,
                                             RngStream(1)),
    "sample_trajectory.x": lambda v: sample_trajectory(v, 1, 2, G1, G2,
                                                       RngStream(1)),
    "path_log_weights.states": lambda v: path_log_weights(v, 1, G1, G2),
    "path_log_weights.s": lambda v: path_log_weights([[0, 1]], v, G1, G2),
}

SEED = "a seed, a stream index and a lane are any nonnegative integer"
LOOSE_TOL = "2.5 is a loose tolerance, but a real in (0, inf)"
DEFAULT = "None asks for the default"
ACCEPTED = {
    ("ExperimentConfig.root_seed", "huge"): SEED,
    ("RngStream.root_seed", "huge"): SEED,
    ("RngStream.stream_index", "huge"): SEED,
    ("RngStream.lane.which", "huge"): SEED,
    ("RngStream.lanes.which", "huge"): SEED,
    ("RngStream.lanes.ks", "empty"): "no offsets key no streams",
    ("sample_paths.xs", "empty"): "no starts walk no paths",
    ("grouped_time_averaged_rows.times", "empty"): "no times give no rows",
    ("ExperimentConfig.tol", "fraction"): LOOSE_TOL,
    ("stationary_distribution.tol", "fraction"): LOOSE_TOL,
    ("solve_replicates.tol", "fraction"): LOOSE_TOL,
    ("OperationBudget.cap", "fraction"): "a cap is any real in (0, inf)",
    ("OperationBudget.charge.ops", "fraction"):
        "work charged is any real in [0, inf]",
    ("ExperimentConfig.max_iters", "none"): DEFAULT,
    ("stationary_distribution.max_iters", "none"): DEFAULT,
    ("estimate_stationary_gap.max_iters", "none"): DEFAULT,
    ("stationary_distribution.start", "none"): DEFAULT,
    ("TransitionKernel.rows.head_stubs", "none"):
        "no matching builds P^T from the out-lists",
    ("stationary_gap_report.replicates", "none"): "None runs env_samples",
    ("pick_regime.gh", "inf"): "gamma_hat is any real in [0, inf]",
    ("pick_regime.gh", "fraction"): "gamma_hat is any real in [0, inf]",
    ("theory_curve.beta", "inf"): "beta = inf is the curves' limit",
    ("theory_curve.beta", "fraction"): "beta is any real in [0, inf]",
    ("double_cutoff_sweep.beta", "fraction"): "beta is any real in [0, inf)",
    ("theory_curve.gamma", "inf"): "gamma = inf is a regime's limit",
    ("theory_curve.gamma", "fraction"): "gamma is any real but NaN",
    **{("theory_curve.gap", name): "the gap is any real but NaN: the "
       "curves' formulas hold for every such value"
       for name in ("inf", "-inf", "fraction", "negative")},
}

# exports that take only library objects, result records, exception
# classes and constants: none of them reads a value of MALFORMED
NOT_DATA = {
    # library objects only
    "entropic_scale", "in_degree_distribution", "gamma_hat",
    "joint_relaxation_curve", "static_cutoff_profile",
    "stationary_diagnostics", "kernel_from_digraph",
    "sample_tables", "sample_digraph", "sample_dcm",
    "digraph_to_json", "diagnostics_csv_text", "path_log_weight",
    # records the package returns
    "DegreeSequence", "EntropicScale", "ExperimentReport", "ReportRow",
    "DiagnosticsRow", "GapEstimate", "StationaryResult", "WidespreadStats",
    "Trajectory",
    # constants
    "DIST_TOL", "LANE",
}


UNEXPORTED = {"grouped_time_averaged_rows"}


def _named(slot):
    return slot.split(".")[0]


def test_every_export_is_classified():
    exceptions = {name for name in mixlab.__all__
                  if isinstance(getattr(mixlab, name), type)
                  and issubclass(getattr(mixlab, name), Exception)}
    covered = {_named(slot) for slot in SLOTS}
    assert covered.isdisjoint(NOT_DATA)
    assert UNEXPORTED <= covered and UNEXPORTED.isdisjoint(mixlab.__all__)
    assert covered - UNEXPORTED | NOT_DATA | exceptions == set(mixlab.__all__)
    assert set(ACCEPTED) <= {(slot, name) for slot in SLOTS
                             for name in MALFORMED}


def test_no_export_is_a_module():
    assert not [name for name in mixlab.__all__
                if isinstance(getattr(mixlab, name), types.ModuleType)]
    from mixlab import sampler  # noqa: F401  still importable by name


@pytest.mark.parametrize("value", sorted(MALFORMED))
@pytest.mark.parametrize("slot", sorted(SLOTS))
def test_malformed_value_is_a_typed_error(slot, value):
    try:
        SLOTS[slot](MALFORMED[value])
    except MixingLabError as exc:   # an accepted value may hit BudgetExceeded
        # a bounded line: 10**400 once put all 401 digits into the text
        assert len(str(exc)) <= 250, str(exc)
    else:
        assert (slot, value) in ACCEPTED, "no typed error"


def _cli_run(*flags):
    return lambda v: cli.run(cli.parse_run_spec(["q-estimate", *flags, v]))


# every count core.integer_in reads, with the value one below its floor
BELOW_FLOOR = [
    ("ExperimentConfig.env_samples", 0),
    ("ExperimentConfig.start_vertices", 0),
    ("marginal_mc_crosscheck.t", -1),
    ("marginal_mc_crosscheck.schedule_samples", 9),
    ("path_weight_lln.traj_samples", 0),
    ("stationary_distribution.max_iters", 0),
    ("solve_replicates.replicates", 0),
    ("estimate_stationary_gap.replicates", 1),
    ("delta_at.n", 0),
    ("--n", "0"),
    ("--threads", "0"),
    ("--threads", "65"),
]
CLI_SLOTS = {"--n": _cli_run("--generator", "regular:3", "--n"),
             "--threads": _cli_run("--generator", "mix:2x30,3x10",
                                   "--threads")}


@pytest.mark.parametrize("slot, value", BELOW_FLOOR)
def test_a_count_below_its_floor_is_bad_range(slot, value):
    # a count outside its range is BadRange, as every other integer is
    with pytest.raises(BadRange):
        {**SLOTS, **CLI_SLOTS}[slot](value)
