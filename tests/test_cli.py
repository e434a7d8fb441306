"""Command-line parsing, degree-sequence construction, and end-to-end runs."""

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mixlab import cli, rng
from mixlab.cli import (
    DEGREE_LANE,
    RunSpec,
    _start_vertices_value,
    build_degree_sequence,
    degrees_from_generator,
    main,
    parse_run_spec,
    run,
)
from mixlab.core import ModelKind
from mixlab.errors import (
    BadGeneratorSyntax,
    BadValue,
    MissingRequired,
    UnknownFlag,
)
from mixlab.report import parse_curve_csv
from mixlab.rng import RngStream


# ---------------------------------------------------------------------------
# flag parsing


def test_parse_defaults():
    spec = parse_run_spec(["marginal"])
    assert spec.experiment == "marginal"
    assert spec.model == "dcm"
    assert spec.env_samples == 10
    assert spec.start_vertices == 32
    assert spec.root_seed == 0
    assert spec.alpha is None
    assert spec.beta_grid == ()
    assert spec.threads is None
    assert spec.budget == 5e10


def test_parse_full_flag_set():
    spec = parse_run_spec([
        "joint", "--generator", "mix:2x90,3x10", "--alpha", "0.4",
        "--beta-grid", "0.5,1,2", "--env-samples", "7",
        "--start-vertices", "0,5,9", "--root-seed", "11",
        "--threads", "4", "--budget", "1e8", "--out-dir", "/tmp/x",
    ])
    assert spec.generator == "mix:2x90,3x10"
    assert spec.alpha == 0.4
    assert spec.beta_grid == (0.5, 1.0, 2.0)
    assert spec.env_samples == 7
    assert spec.start_vertices == [0, 5, 9]
    assert spec.root_seed == 11
    assert spec.threads == 4
    assert spec.budget == 1e8
    assert spec.out_dir == "/tmp/x"


def test_parse_grids_and_scales():
    spec = parse_run_spec([
        "double-cutoff", "--beta", "0.7", "--s-grid", "0,1,2,5",
        "--time-scale", "entropic", "--t-grid", "3,9",
    ])
    assert spec.beta == 0.7
    assert spec.s_grid == (0, 1, 2, 5)
    assert spec.t_grid == (3, 9)
    assert spec.time_scale == "entropic"


# every run flag, in order: scripts break when one is lost or renamed
RUN_FLAGS = [
    "--model", "--generator", "--degrees", "--degrees-file", "--n",
    "--alpha", "--beta", "--beta-grid", "--s-grid", "--t", "--t-grid",
    "--switch-time", "--traj-samples", "--epsilon", "--schedule-samples",
    "--env-samples", "--start-vertices", "--time-scale", "--gap-replicates",
    "--root-seed", "--out-dir", "--threads", "--budget", "--tol",
    "--max-iters",
]


def test_every_flag_is_a_run_spec_field():
    options = [s for a in cli._build_parser()._actions
               for s in a.option_strings if s not in ("-h", "--help")]
    assert options == ["--config", *RUN_FLAGS]
    assert RUN_FLAGS == ["--" + f.name.replace("_", "-")
                         for f in fields(RunSpec) if f.name != "experiment"]


# the flags each report experiment cannot run without
REQUIRED_FLAGS = {
    "static-cutoff": ["--beta-grid"],
    "double-cutoff": ["--beta", "--s-grid"],
    "joint": ["--alpha", "--beta-grid"],
    "marginal": ["--alpha", "--beta-grid"],
    "marginal-crosscheck": ["--alpha", "--t"],
    "annealed": ["--t-grid"],
    "weight-lln": ["--t", "--switch-time"],
    "q-estimate": [],
}


def test_run_table_covers_every_report_experiment():
    assert sorted(cli._RUNS) == sorted(REQUIRED_FLAGS)


@pytest.mark.parametrize(
    "experiment", [e for e in cli._RUNS if REQUIRED_FLAGS.get(e)])
def test_missing_required_flags_are_named(tmp_path, experiment):
    spec = parse_run_spec([experiment, "--generator", "eulerian:3x20",
                           "--out-dir", str(tmp_path)])
    with pytest.raises(MissingRequired) as err:
        run(spec)
    assert str(err.value) == (f"{experiment} needs "
                              + ", ".join(REQUIRED_FLAGS[experiment]))


def test_parse_rejects_unknown_flag():
    with pytest.raises(UnknownFlag):
        parse_run_spec(["joint", "--no-such-flag", "1"])


def test_parse_rejects_bad_experiment():
    with pytest.raises(BadValue):
        parse_run_spec(["no-such-experiment"])


def test_parse_rejects_bad_numeric_list():
    with pytest.raises(BadValue):
        parse_run_spec(["joint", "--beta-grid", "0.5,oops"])


def test_config_file_merge_and_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "alpha": 0.25,
        "env_samples": 4,
        "beta_grid": [0.5, 1.5],
        "start_vertices": [2, 3],
    }))
    spec = parse_run_spec(["marginal", "--config", str(cfg),
                           "--alpha", "0.5"])
    # flag beats file, file beats default
    assert spec.alpha == 0.5
    assert spec.env_samples == 4
    assert spec.beta_grid == (0.5, 1.5)
    assert spec.start_vertices == [2, 3]
    assert spec.traj_samples == 1000


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alhpa": 0.3}))
    with pytest.raises(UnknownFlag):
        parse_run_spec(["marginal", "--config", str(cfg)])


def test_config_file_must_hold_object(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(BadValue):
        parse_run_spec(["marginal", "--config", str(cfg)])


@pytest.mark.parametrize("value, parsed, mode, count", [
    ([5], [5], "explicit", 1),
    (5, 5, "exhaustive", 40),
    ("4,", [4], "explicit", 1),
], ids=["one-vertex-list", "count", "one-vertex-text"])
def test_config_start_vertices_reach_the_run(tmp_path, capsys, value, parsed,
                                             mode, count):
    # a config file's list is a list of vertices, whatever its length
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"start_vertices": value}))
    args = ["static-cutoff", "--config", str(cfg), "--generator",
            "eulerian:3x40", "--beta-grid", "0.5", "--env-samples", "1",
            "--out-dir", str(tmp_path)]
    assert parse_run_spec(args).start_vertices == parsed
    run_ok(args)
    meta = json.loads(
        (tmp_path / "static-cutoff_n40_ana_seed0.json").read_text())
    assert (meta["start_mode"], meta["start_count"]) == (mode, count)
    capsys.readouterr()


def test_start_vertices_value_forms():
    assert _start_vertices_value("all") == "all"
    assert _start_vertices_value("32") == 32
    assert _start_vertices_value("0,5,9") == [0, 5, 9]
    # trailing comma forces a one-vertex list rather than a count
    assert _start_vertices_value("4,") == [4]
    assert _start_vertices_value(",") == []
    with pytest.raises(BadValue):
        _start_vertices_value("many")
    with pytest.raises(BadValue):
        _start_vertices_value("1,x")


# ---------------------------------------------------------------------------
# degree-sequence construction


def test_generator_regular_needs_size():
    with pytest.raises(MissingRequired):
        degrees_from_generator("regular:3", ModelKind.DCM, 0, n=None)


def test_generator_regular_dcm_matches_in_and_out():
    seq = degrees_from_generator("regular:3", ModelKind.DCM, 0, n=40)
    assert seq.n == 40
    assert np.all(seq.out_degrees == 3)
    assert np.array_equal(seq.in_degrees, seq.out_degrees)
    assert seq.is_eulerian


def test_generator_mix_shuffles_in_degrees():
    seq = degrees_from_generator("mix:2x20,3x10", ModelKind.DCM, 3)
    again = degrees_from_generator("mix:2x20,3x10", ModelKind.DCM, 3)
    assert np.array_equal(seq.in_degrees, again.in_degrees)
    assert np.array_equal(np.sort(seq.in_degrees), np.sort(seq.out_degrees))
    assert not np.array_equal(seq.in_degrees, seq.out_degrees)
    # the shuffle comes from a dedicated lane of the root stream
    gen = RngStream(3).lane(DEGREE_LANE).generator()
    assert np.array_equal(seq.in_degrees, gen.permutation(seq.out_degrees))


def test_generator_eulerian_copies_out_degrees():
    seq = degrees_from_generator("eulerian:2x8,4x4", ModelKind.DCM, 0)
    assert np.array_equal(seq.in_degrees, seq.out_degrees)
    assert seq.is_eulerian


def test_generator_ocm_has_no_in_degrees():
    seq = degrees_from_generator("mix:2x10,3x10", ModelKind.OCM, 0)
    assert seq.model is ModelKind.OCM
    assert seq.in_degrees is None


def test_generator_syntax_errors():
    for token in ("regular", "regular:x", "mix:", "mix:3", "mix:1x5",
                  "mix:3x0", "spam:3x5"):
        with pytest.raises((BadGeneratorSyntax, MissingRequired)):
            degrees_from_generator(token, ModelKind.DCM, 0, n=10)


def test_build_requires_exactly_one_source(tmp_path):
    with pytest.raises(MissingRequired):
        build_degree_sequence(RunSpec(experiment="joint"))
    with pytest.raises(MissingRequired):
        build_degree_sequence(RunSpec(
            experiment="joint", generator="regular:3", n=10,
            degrees='{"out_degrees": [2, 2]}'))


def test_build_from_inline_json():
    seq = build_degree_sequence(RunSpec(
        experiment="joint",
        degrees='{"out_degrees": [2, 3, 2, 3], "in_degrees": [2, 2, 3, 3]}'))
    assert seq.n == 4
    assert list(seq.out_degrees) == [2, 3, 2, 3]


def test_build_from_file_with_model_override(tmp_path):
    path = tmp_path / "deg.json"
    path.write_text(json.dumps({"model": "ocm", "out_degrees": [2, 2, 3]}))
    seq = build_degree_sequence(RunSpec(experiment="joint",
                                        degrees_file=str(path)))
    assert seq.model is ModelKind.OCM
    assert seq.in_degrees is None


def test_build_rejects_degree_object_without_out_degrees():
    with pytest.raises(MissingRequired):
        build_degree_sequence(RunSpec(experiment="joint",
                                      degrees='{"in_degrees": [2, 2]}'))


# ---------------------------------------------------------------------------
# end-to-end runs


def run_ok(args):
    code = main(args)
    assert code == 0
    return code


def test_run_q_estimate_writes_report(tmp_path, capsys):
    run_ok(["q-estimate", "--generator", "eulerian:3x30",
            "--out-dir", str(tmp_path), "--gap-replicates", "4",
            "--root-seed", "7"])
    base = tmp_path / "q-estimate_n30_ana_seed7"
    csv_path = base.with_suffix(".csv")
    assert csv_path.exists() and base.with_suffix(".json").exists()
    rows = parse_curve_csv(csv_path.read_text())
    assert len(rows) == 1
    assert rows[0].theory == 0.0
    assert rows[0].estimate < 1e-9
    assert rows[0].n_effective == 4
    out = capsys.readouterr().out
    assert "wrote" in out


def test_run_static_cutoff_and_rerun_is_byte_identical(tmp_path, capsys):
    args = ["static-cutoff", "--generator", "eulerian:3x30",
            "--beta-grid", "0.5,2", "--env-samples", "2",
            "--start-vertices", "3", "--out-dir", str(tmp_path),
            "--root-seed", "1", "--threads", "1"]
    run_ok(args)
    csv_path = tmp_path / "static-cutoff_n30_ana_seed1.csv"
    json_path = tmp_path / "static-cutoff_n30_ana_seed1.json"
    first_csv = csv_path.read_bytes()
    first_json = json_path.read_bytes()
    run_ok(args)
    assert csv_path.read_bytes() == first_csv
    assert json_path.read_bytes() == first_json
    # worker count changes scheduling but not the written numbers
    run_ok(args[:-1] + ["2"])
    assert csv_path.read_bytes() == first_csv
    capsys.readouterr()


def test_alphas_past_the_sixth_digit_write_their_own_files(tmp_path,
                                                          capsys):
    written = {}
    for alpha in ("0.1234561", "0.1234564"):
        run_ok(["joint", "--generator", "eulerian:3x20", "--alpha", alpha,
                "--beta-grid", "0.5", "--env-samples", "2",
                "--start-vertices", "0,", "--out-dir", str(tmp_path)])
        base = f"joint_n20_a{alpha}_seed0"
        written[alpha] = ((tmp_path / f"{base}.csv").read_bytes(),
                          (tmp_path / f"{base}.json").read_bytes())
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"joint_n20_a{alpha}_seed0.{ext}" for alpha in written
        for ext in ("csv", "json"))
    # each file pair is its own run's: the sidecars record different alphas
    assert written["0.1234561"][1] != written["0.1234564"][1]
    capsys.readouterr()


def test_run_marginal_with_explicit_alpha(tmp_path, capsys):
    run_ok(["marginal", "--generator", "eulerian:3x30", "--alpha", "0.3",
            "--beta-grid", "0.6", "--env-samples", "2",
            "--start-vertices", "0,", "--out-dir", str(tmp_path)])
    csv_path = tmp_path / "marginal_n30_a0.3_seed0.csv"
    rows = parse_curve_csv(csv_path.read_text())
    assert len(rows) == 1 and rows[0].abscissa == 0.6
    meta = json.loads((tmp_path / "marginal_n30_a0.3_seed0.json").read_text())
    assert meta["threads"] == 1
    assert meta["operations_charged"] > 0
    capsys.readouterr()


def test_run_diagnostics_exit_codes(tmp_path, capsys):
    code = main(["diagnostics", "--generator", "eulerian:3x30",
                 "--env-samples", "3", "--out-dir", str(tmp_path)])
    assert code == 0
    csv_path = tmp_path / "diagnostics_n30_ana_seed0.csv"
    assert csv_path.exists()
    assert len(csv_path.read_text().strip().splitlines()) == 4
    # starving the solver of iterations fails every replicate: exit 2
    # with one error line, as q-estimate, and no CSV
    capsys.readouterr()
    out_dir = tmp_path / "starved"
    code = main(["diagnostics", "--generator", "mix:2x20,3x10",
                 "--env-samples", "2", "--max-iters", "1",
                 "--out-dir", str(out_dir)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: all 2 stationary solves failed"]
    assert not list(out_dir.glob("*.csv"))


def test_run_missing_required_flag_is_an_error(tmp_path, capsys):
    code = main(["joint", "--generator", "regular:3", "--n", "20",
                 "--beta-grid", "0.5", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "alpha" in capsys.readouterr().err


def test_run_unknown_flag_is_an_error(capsys):
    assert main(["joint", "--bogus"]) == 1
    capsys.readouterr()


def test_run_crosscheck_writes_gap_metadata(tmp_path, capsys):
    run_ok(["marginal-crosscheck", "--generator", "eulerian:3x30",
            "--alpha", "0.2", "--t", "3", "--schedule-samples", "40",
            "--start-vertices", "0,", "--out-dir", str(tmp_path)])
    meta = json.loads(
        (tmp_path / "marginal-crosscheck_n30_a0.2_seed0.json").read_text())
    assert meta["schedules"] == 40
    assert meta["abs_gap"] >= 0.0
    assert meta["renormalizations"] == 0
    assert 0.0 <= meta["max_drift"] < 1e-9
    rows = parse_curve_csv(
        (tmp_path / "marginal-crosscheck_n30_a0.2_seed0.csv").read_text())
    assert rows[0].abscissa == 3.0
    capsys.readouterr()


def test_run_weight_lln(tmp_path, capsys):
    run_ok(["weight-lln", "--generator", "regular:3", "--n", "30",
            "--model", "ocm", "--t", "5", "--switch-time", "2",
            "--traj-samples", "50", "--out-dir", str(tmp_path)])
    rows = parse_curve_csv(
        (tmp_path / "weight-lln_n30_ana_seed0.csv").read_text())
    # uniform out-maps put every trajectory exactly on the typical rate
    assert rows[0].estimate == 1.0
    capsys.readouterr()


def test_run_annealed(tmp_path, capsys):
    run_ok(["annealed", "--generator", "eulerian:3x30", "--t-grid", "1,2",
            "--env-samples", "30", "--start-vertices", "0,1",
            "--out-dir", str(tmp_path)])
    rows = parse_curve_csv(
        (tmp_path / "annealed_n30_ana_seed0.csv").read_text())
    assert [r.abscissa for r in rows] == [1.0, 2.0]
    assert all(r.theory == 0.0 for r in rows)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# import footprint

_FOOTPRINT_CHILD = """
import json, sys
from mixlab.cli import main
watched = json.loads(sys.argv[2])
at_import = sorted(m for m in watched if m in sys.modules)
try:
    code = main(json.loads(sys.argv[1]))
except SystemExit as exc:   # --help
    code = exc.code
print(json.dumps([code, at_import,
                  sorted(m for m in watched if m in sys.modules)]))
"""

# about 11 MiB and 0.1 s of CPU at start-up; only a failed solve loads them
_DEFERRED_MODULES = ["scipy.sparse.csgraph", "scipy.sparse.linalg",
                     "scipy.linalg"]


def _cli_cases() -> dict:
    path = Path(__file__).with_name("test_acceptance.py")
    spec = importlib.util.spec_from_file_location("_acceptance", path)
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    return acceptance.CLI_CASES


def test_every_sidecar_reports_its_operations(tmp_path, capsys):
    for experiment, extra in _cli_cases().items():
        out_dir = tmp_path / experiment
        run_ok([experiment, *extra, "--out-dir", str(out_dir)])
        (sidecar,) = out_dir.glob("*.json")
        meta = json.loads(sidecar.read_text())
        assert meta["operations_charged"] > 0, experiment
    capsys.readouterr()


def test_no_run_draws_a_stream_twice(tmp_path, monkeypatch, capsys):
    # a stream drawn twice in one run means two of its random objects are
    # one, such as two lanes that collide; every draw goes through
    # rng.shared_generator, held by name in each module that imports it,
    # or through RngStream.generator
    drawn = []
    shared, generator = rng.shared_generator, RngStream.generator

    def census(draw):
        return lambda stream: drawn.append(
            (stream.root_seed, stream.stream_index)) or draw(stream)
    holders = [name for name, module in list(sys.modules.items())
               if name.startswith("mixlab")
               and getattr(module, "shared_generator", None) is shared]
    assert {"mixlab.sampler", "mixlab.experiments"} <= set(holders)
    for name in holders:
        monkeypatch.setattr(sys.modules[name], "shared_generator",
                            census(shared))
    monkeypatch.setattr(RngStream, "generator", census(generator))
    for experiment, extra in _cli_cases().items():
        drawn.clear()
        run_ok([experiment, *extra, "--root-seed", "12",
                "--out-dir", str(tmp_path / experiment)])
        twice = sorted(k for k, c in Counter(drawn).items() if c > 1)
        assert drawn and not twice, (experiment, twice[:5])
    capsys.readouterr()


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this mixlab."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _footprint(args, modules):
    """(exit code, modules of ``modules`` loaded after ``import mixlab.cli``,
    those loaded after ``main(args)``), in a fresh interpreter, so no other
    test has imported them already."""
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_CHILD, json.dumps(args),
         json.dumps(modules)],
        capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_converged_run_loads_no_scipy_linear_algebra(tmp_path):
    args = ["joint", *_cli_cases()["joint"], "--root-seed", "12",
            "--out-dir", str(tmp_path)]
    assert _footprint(args, _DEFERRED_MODULES) == [0, [], []]
    assert list(tmp_path.glob("*.csv"))


# scipy.sparse costs about 0.2 s of CPU and 20 MiB at start-up; it is
# imported where a kernel's P^T is built, so a run that builds none (--help,
# weight-lln, annealed with no time past 1) never loads it
@pytest.mark.parametrize("experiment, t_grid, builds_a_kernel", [
    pytest.param("--help", None, False, id="--help-False"),
    pytest.param("weight-lln", None, False, id="weight-lln-False"),
    pytest.param("annealed", None, True, id="annealed-True"),
    pytest.param("annealed", "0,1", False, id="annealed-t-grid-0,1-False")])
def test_scipy_sparse_is_loaded_only_to_build_a_kernel(tmp_path, experiment,
                                                       t_grid,
                                                       builds_a_kernel):
    args = [experiment]
    if experiment != "--help":
        args += [*_cli_cases()[experiment], "--out-dir", str(tmp_path)]
    if t_grid is not None:      # the last --t-grid is the one parsed
        args += ["--t-grid", t_grid]
    loaded = ["scipy.sparse"] if builds_a_kernel else []
    assert _footprint(args, ["scipy.sparse"]) == [0, [], loaded]


# ---------------------------------------------------------------------------
# typed errors: one "error:" line, never a traceback


def run_error(args, capsys):
    code = main(args)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return code


@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_closed_stdout_ends_in_one_error_line(tmp_path, unbuffered):
    # stdout is a pipe whose read end is closed before the run prints; a
    # pipe is block-buffered unless PYTHONUNBUFFERED is set
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mixlab.cli", "q-estimate",
             "--generator", "eulerian:3x20", "--out-dir", str(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: "), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    # the files were written before the summary line
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".csv", ".json"]


@pytest.mark.parametrize("flags", [
    ["--degrees", "{not json"],
    ["--degrees", "[2, 2, 2]"],
    ["--degrees-file", "MISSING"],
    ["--config", "MISSING"],
    ["--degrees", '{"model": "xyz", "out_degrees": [2, 2, 2]}'],
    ["--degrees", '{"out_degrees": [2.5, 2, 2], "in_degrees": [2, 2, 2.5]}'],
    ["--config", "MODEL_XYZ", "--generator", "regular:3", "--n", "10"],
    ["--root-seed", "-1", "--generator", "regular:3", "--n", "10"],
    ["--generator", "regular:3", "--n", "-5"],
    ["--degrees-file", "NOT_UTF8"],
    ["--config", "NOT_UTF8", "--generator", "regular:3", "--n", "10"],
], ids=["bad-json", "not-an-object", "missing-degrees-file",
        "missing-config", "unknown-model", "non-integer-degrees",
        "unknown-config-model", "negative-root-seed", "negative-size",
        "non-utf8-degrees-file", "non-utf8-config"])
def test_bad_degree_and_config_sources_exit_1(tmp_path, capsys, flags):
    (tmp_path / "xyz.json").write_text(json.dumps({"model": "xyz"}))
    # a UTF-16 byte-order mark, then {"a":1} in one byte per character
    (tmp_path / "bytes.json").write_bytes(bytes.fromhex("fffe7b2261223a317d"))
    paths = {"MISSING": str(tmp_path / "missing.json"),
             "MODEL_XYZ": str(tmp_path / "xyz.json"),
             "NOT_UTF8": str(tmp_path / "bytes.json")}
    flags = [paths.get(f, f) for f in flags]
    assert run_error(["q-estimate", *flags, "--out-dir", str(tmp_path)],
                     capsys) == 1


@pytest.mark.parametrize("doc", [
    {"env_samples": "3"}, {"gap_replicates": "3"}, {"budget": "1e9"},
    {"beta_grid": [0.5, "1"]}, {"start_vertices": 2.5}, {"threads": True},
    {"generator": 3}, {"env_samples": "x" * 5000},
], ids=["env-samples-str", "gap-replicates-str", "budget-str",
        "beta-grid-item", "start-vertices-float", "threads-bool",
        "generator-int", "env-samples-long-str"])
def test_config_value_of_the_wrong_type_exits_1(tmp_path, capsys, doc):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    args = ["q-estimate", "--config", str(cfg), "--generator", "mix:2x30,3x10",
            "--out-dir", str(tmp_path)]
    assert main(args) == 1
    err = capsys.readouterr().err
    # one short line, however long the value: the 5000-character one made
    # a line of 5052 characters when the whole value was shown
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert len(err) <= 250, err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("flags", [
    ["--generator", "x" * 3000],
    ["--generator", "k" * 3000 + ":3"],
    ["--generator", "mix:2x30,3x10", "--start-vertices", "z" * 3000],
    ["--generator", "mix:2x30,3x10", "--beta-grid", "y" * 3000],
], ids=["generator-without-colon", "generator-kind", "start-vertices",
        "beta-grid-entry"])
def test_a_long_text_is_shown_shortened(tmp_path, capsys, flags):
    args = ["q-estimate", *flags, "--out-dir", str(tmp_path)]
    assert main(args) == 1
    err = capsys.readouterr().err
    # each line held the whole text: 3032 bytes for the first
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert len(err) <= 250, err
    assert not list(tmp_path.glob("*.csv"))


def test_a_warning_is_one_stderr_line(tmp_path, capsys):
    # one line, without the source line Python's own format adds
    args = ["q-estimate", "--generator", "eulerian:51x60",
            "--gap-replicates", "2", "--out-dir", str(tmp_path)]
    assert main(args) == 0
    assert capsys.readouterr().err == (
        "warning: max degree 51 exceeds 50; estimator calibrations assume "
        "bounded degrees\n")


@pytest.mark.parametrize("alpha", ["1.5", "0"])
def test_alpha_outside_0_1_exits_1(tmp_path, capsys, alpha):
    # checked once, where the run's config is built
    args = ["joint", "--generator", "eulerian:3x20", "--alpha", alpha,
            "--beta-grid", "0.5", "--env-samples", "2",
            "--out-dir", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"error: alpha must be in (0, 1), got {float(alpha)!r}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["file", "under-a-file", "csv-is-a-dir"])
def test_unusable_output_path_exits_1(tmp_path, capsys, where):
    # the directory cannot be made, or the report cannot be written; the
    # error line names the path at fault
    taken = tmp_path / "taken"
    taken.write_text("")
    csv = tmp_path / "q-estimate_n20_ana_seed0.csv"
    csv.mkdir()
    out_dir, named = {"file": (taken, taken),
                      "under-a-file": (taken / "sub", taken / "sub"),
                      "csv-is-a-dir": (tmp_path, csv)}[where]
    args = ["q-estimate", "--generator", "eulerian:3x20",
            "--out-dir", str(out_dir)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert repr(str(named)) in err
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("flags", [
    ["--tol", "nan"], ["--budget", "nan"], ["--budget", "inf"],
    ["--beta-grid", "inf"], ["--beta-grid", "nan"],
])
def test_non_finite_numbers_exit_1(tmp_path, capsys, flags):
    args = ["static-cutoff", "--generator", "eulerian:3x20",
            "--beta-grid", "0.5", "--env-samples", "1",
            "--start-vertices", "2", "--out-dir", str(tmp_path), *flags]
    assert run_error(args, capsys) == 1


@pytest.mark.parametrize("args", [
    ["static-cutoff", "--generator", "regular:3", "--n", str(10**18),
     "--beta-grid", "1"],
    ["static-cutoff", "--generator", f"mix:3x{10**18}", "--beta-grid", "1"],
    ["weight-lln", "--generator", "regular:3", "--n", "40", "--t", "4",
     "--switch-time", "2", "--traj-samples", str(10**18)],
], ids=["regular-size", "mix-block", "traj-samples"])
def test_an_array_too_large_to_allocate_exits_1(tmp_path, capsys, args):
    # 10**18 entries take 6.9 EiB, which no machine can map, so numpy
    # refuses at once and nothing is allocated; each ended in a traceback
    assert run_error([*args, "--out-dir", str(tmp_path)], capsys) == 1


@pytest.mark.parametrize("flags", [
    ["--generator", "regular:100000000000000000000", "--n", "10"],
    ["--generator", "mix:100000000000000000000x5"],
    ["--generator", "mix:3x100000000000000000000"],
    ["--generator", "eulerian:1000000000000x1000"],
], ids=["regular-degree", "mix-degree", "mix-count", "stub-tables"])
def test_a_generator_past_int64_or_memory_exits_1(tmp_path, capsys, flags):
    # a degree or count past int64 ended in numpy's OverflowError, and the
    # stub tables of m = 10**15 in numpy's _ArrayMemoryError; each
    # traceback is now one error line.  (A degree total past int64, which
    # crashed the interpreter, is pinned in test_core, where it fails
    # without a crash.)  The degree of 10**12 also warns, on one line
    # before the error line.
    assert main(["q-estimate", *flags, "--out-dir", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.splitlines(keepends=True)
    warns = flags[1].startswith("eulerian")
    assert len(lines) == 1 + warns and lines[-1].startswith("error: "), lines
    assert all(line.startswith("warning: max degree 1000000000000 exceeds")
               for line in lines[:-1]), lines


@pytest.mark.parametrize("experiment, flags", [
    ("static-cutoff", ["--beta-grid", "0.5"]),
    ("double-cutoff", ["--beta", "0.7", "--s-grid", "0,1"]),
    ("joint", ["--alpha", "0.4", "--beta-grid", "0.5"]),
    ("marginal", ["--alpha", "0.3", "--beta-grid", "0.6"]),
    ("marginal-crosscheck", ["--alpha", "0.2", "--t", "3",
                             "--schedule-samples", "50"]),
    ("annealed", ["--t-grid", "1,2"]),
    ("static-cutoff", ["--beta-grid", "0.5", "--config", "EMPTY_LIST"]),
])
def test_empty_start_list_exits_1(tmp_path, capsys, experiment, flags):
    # "," is an explicit list with no vertex in it, not a count; so is a
    # config file's []
    cfg = tmp_path / "starts.json"
    cfg.write_text(json.dumps({"start_vertices": []}))
    starts = [] if "--config" in flags else ["--start-vertices", ","]
    flags = [str(cfg) if f == "EMPTY_LIST" else f for f in flags]
    args = [experiment, "--generator", "mix:2x30,3x10", "--env-samples", "2",
            *starts, "--out-dir", str(tmp_path), *flags]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == "error: start_vertices list must not be empty\n", err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("experiment, flags", [
    ("static-cutoff", ["--beta-grid", "0.5"]),
    ("double-cutoff", ["--beta", "0.7", "--s-grid", "0,1"]),
    ("joint", ["--alpha", "0.4", "--beta-grid", "0.5"]),
])
def test_all_failed_solves_exit_2(tmp_path, capsys, experiment, flags):
    args = [experiment, "--generator", "mix:2x30,3x10", "--max-iters", "1",
            "--env-samples", "2", "--start-vertices", "2",
            "--out-dir", str(tmp_path), *flags]
    assert run_error(args, capsys) == 2
    assert not list(tmp_path.glob("*.csv"))


def _no_degrees(spec):
    raise AssertionError("degrees were built before the thread check")


@pytest.mark.parametrize("flags", [
    ["--threads", "0"], ["--threads", "-2"], ["--threads", "65"],
    ["--threads", "1000000"],
], ids=["zero", "negative", "above-64", "far-above-64"])
def test_thread_count_outside_1_to_64_exits_1(tmp_path, capsys, monkeypatch,
                                              flags):
    # refused before any degrees are built
    monkeypatch.setattr(cli, "build_degree_sequence", _no_degrees)
    args = ["q-estimate", "--generator", "mix:2x30,3x10",
            "--out-dir", str(tmp_path), *flags]
    assert run_error(args, capsys) == 1
