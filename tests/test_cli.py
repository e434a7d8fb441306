"""Command-line parsing, degree-sequence construction, and end-to-end runs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixlab import cli
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
    assert spec.beta_grid is None
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


def test_parse_rejects_unknown_flag():
    with pytest.raises(UnknownFlag):
        parse_run_spec(["joint", "--no-such-flag", "1"])


def test_parse_rejects_bad_alpha():
    with pytest.raises(BadValue):
        parse_run_spec(["joint", "--alpha", "1.5"])
    with pytest.raises(BadValue):
        parse_run_spec(["joint", "--alpha", "0"])


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
    # starving the solver of iterations fails every replicate
    code = main(["diagnostics", "--generator", "mix:2x20,3x10",
                 "--env-samples", "2", "--max-iters", "1",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    capsys.readouterr()


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
code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in json.loads(sys.argv[2])
                               if m in sys.modules)]))
"""

# about 11 MiB and 0.1 s of CPU at start-up; only a failed solve loads them
_DEFERRED_MODULES = ["scipy.sparse.csgraph", "scipy.sparse.linalg",
                     "scipy.linalg"]


def test_converged_run_loads_no_scipy_linear_algebra(tmp_path):
    # a fresh interpreter, so no other test has imported them already
    path = Path(__file__).with_name("test_acceptance.py")
    spec = importlib.util.spec_from_file_location("_acceptance", path)
    acceptance = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(acceptance)
    args = ["joint", *acceptance.CLI_CASES["joint"], "--root-seed", "12",
            "--out-dir", str(tmp_path)]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_CHILD, json.dumps(args),
         json.dumps(_DEFERRED_MODULES)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == []
    assert list(tmp_path.glob("*.csv"))


# ---------------------------------------------------------------------------
# typed errors: one "error:" line, never a traceback


def run_error(args, capsys):
    code = main(args)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return code


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
    {"generator": 3},
], ids=["env-samples-str", "gap-replicates-str", "budget-str",
        "beta-grid-item", "start-vertices-float", "threads-bool",
        "generator-int"])
def test_config_value_of_the_wrong_type_exits_1(tmp_path, capsys, doc):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    args = ["q-estimate", "--config", str(cfg), "--generator", "mix:2x30,3x10",
            "--out-dir", str(tmp_path)]
    assert run_error(args, capsys) == 1
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("flags", [
    ["--tol", "nan"], ["--budget", "nan"], ["--budget", "inf"],
    ["--beta-grid", "inf"], ["--beta-grid", "nan"],
])
def test_non_finite_numbers_exit_1(tmp_path, capsys, flags):
    args = ["static-cutoff", "--generator", "eulerian:3x20",
            "--beta-grid", "0.5", "--env-samples", "1",
            "--start-vertices", "2", "--out-dir", str(tmp_path), *flags]
    assert run_error(args, capsys) == 1


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
