"""Plant each mutant of ``MUTANTS`` in a copy of the tree and run the tests
that must catch it.

    python3 tools/mutants.py

A row names a source file, an exact text in it, the text that replaces
it, and the pytest ids that must catch the change.  The tool copies this
checkout (without ``.git`` and caches) to a temporary directory once and
first runs each named test there, unmutated.  Then for each mutant in
turn it writes the one changed file, runs ``python -m pytest -x -q`` on
the row's tests with the copy's ``src/`` first on the path, and puts the
file back.  It prints one line per mutant:

- ``caught``: a named test failed (pytest exit 1)
- ``survived``: every named test passed (exit 0)
- ``stale``: the old text is not in the file exactly once, a named test
  does not pass on the unmutated copy, or pytest ended any other way,
  such as a named test that no longer collects

A stale row is reported, never skipped.  Exits 1 if any mutant survived or
is stale, else 0.  A change that plants a mutant to show that a test
catches it adds the mutant here as a row.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    tests: Tuple[str, ...]


MUTANTS = (
    Mutant("lanes-collide", "src/mixlab/experiments.py",
           "_LANE_ENV_B = 2\n", "_LANE_ENV_B = 1\n",
           ("tests/test_cli.py::test_no_run_draws_a_stream_twice",)),
    Mutant("half-shuffle", "src/mixlab/sampler.py",
           "shared_generator(stream).shuffle(row)",
           "shared_generator(stream).shuffle(row[:len(row) // 2])",
           ("tests/test_experiments.py::test_annealed_hits_the_exact_averaged_law",
            "tests/test_sampler.py::test_table_matchings_follow_the_exact_uniform_law")),
    Mutant("batch-on-first-stream", "src/mixlab/experiments.py",
           "heads, head_stubs = sample_tables(seq, batch)",
           "heads, head_stubs = sample_tables(seq, batch[:1] * len(batch))",
           ("tests/test_experiments.py::test_annealed_hits_the_exact_averaged_law",)),
    Mutant("ocm-rows-sorted", "src/mixlab/sampler.py",
           "        if not bad.any():\n            return draws\n",
           "        if not bad.any():\n            return s\n",
           ("tests/test_sampler.py::test_table_out_maps_follow_the_exact_uniform_law",)),
    Mutant("logs-in-reverse", "src/mixlab/walk.py",
           "    for step in steps:\n        total += _step_log_probs(*step)\n",
           "    for log in reversed([_step_log_probs(*step) for step in steps]):\n"
           "        total += log\n",
           ("tests/test_walk.py::test_sample_path_log_weights_equal_the_weights_of_sample_paths_bitwise",)),
    Mutant("np-log", "src/mixlab/walk.py",
           "logs = [math.log(reduce(", "logs = [np.log(reduce(",
           ("tests/test_walk.py::test_step_log_probs_are_math_log_of_the_in_order_sum",)),
    Mutant("reads-past-the-degree", "src/mixlab/walk.py",
           "rows = rows[degrees[rows] > k]", "rows = rows[degrees[rows] >= k]",
           ("tests/test_walk.py::test_step_log_probs_are_math_log_of_the_in_order_sum",)),
    Mutant("no-fill", "src/mixlab/walk.py",
           "    tails.fill(n)\n", "",
           ("tests/test_walk.py::test_a_rewritten_kernel_refuses_a_row_that_is_no_permutation",)),
    Mutant("tables-unread", "src/mixlab/walk.py",
           "    if isinstance(values, np.ndarray) and values.dtype.kind in \"iu\":\n"
           "        return values\n"
           "    return integers_in(values, 0, high, name, ndim=2)\n",
           "    return np.asarray(values)\n",
           ("tests/test_walk.py::test_kernel_refuses_malformed_input",)),
    Mutant("allocating-memory-only", "src/mixlab/core.py",
           "except (ValueError, MemoryError):   # past numpy's size limit",
           "except MemoryError:   # past numpy's size limit",
           ("tests/test_walk.py::test_a_law_past_numpy_size_limit_is_bad_range",)),
    Mutant("grouped-charges-one-eta", "src/mixlab/walk.py",
           "* (k_sigma.nnz + sum(k.nnz for k in k_etas)))",
           "* (k_sigma.nnz + k_etas[0].nnz))",
           ("tests/test_walk.py::test_budget_charges_equal_the_products_performed",)),
    # kernels built and checked when they are made
    Mutant("no-pair-check", "src/mixlab/walk.py",
           "and (heads != seq.head_slots[head_stubs]).any()):",
           "and False):",
           ("tests/test_walk.py::test_a_table_kernel_refuses_heads_that_are_not_the_matching",)),
    Mutant("rewrite-on-another-stream", "src/mixlab/walk.py",
           "sample_matchings(seq.m, (stream,))",
           "sample_matchings(seq.m, (stream.lane(1),))",
           ("tests/test_walk.py::test_refreshed_kernels_equal_the_digraph_kernels_bitwise",)),
    Mutant("rewrite-gathers-heads", "src/mixlab/walk.py",
           "sample_matchings(seq.m, (stream,))",
           "sample_tables(seq, (stream,))[1]",
           ("tests/test_walk.py::test_a_dcm_pass_gathers_heads_for_its_first_kernel_only",)),
    Mutant("unbounded-repr", "src/mixlab/core.py",
           "must be one of {tuple(names)}, \"\n                    f\"got {reprlib.repr(value)}",
           "must be one of {tuple(names)}, \"\n                    f\"got {value!r}",
           ("tests/test_malformed.py::test_malformed_value_is_a_typed_error",)),
    # experiments that return their reports; generator and degree-total
    # bounds; a shortened config value
    Mutant("crosscheck-columns-swapped", "src/mixlab/experiments.py",
           "estimate=sampled, std_err=std_err,\n                    theory=exact,",
           "estimate=exact, std_err=std_err,\n                    theory=sampled,",
           ("tests/test_experiments.py::test_crosscheck_high_refresh_rate_freezes_the_walk",)),
    Mutant("crosscheck-jackknife-unscaled", "src/mixlab/experiments.py",
           "math.sqrt((_JACKKNIFE_BATCHES - 1) / _JACKKNIFE_BATCHES",
           "math.sqrt(1.0",
           ("tests/test_experiments.py::test_crosscheck_shared_prefix_matches_per_schedule_loop",)),
    Mutant("refreshes-counted-by-segment", "src/mixlab/experiments.py",
           "sum(map(len, refresh_steps))", "sum(map(len, segments))",
           ("tests/test_experiments.py::test_crosscheck_shared_prefix_matches_per_schedule_loop",)),
    Mutant("crosscheck-walks-last-start", "src/mixlab/experiments.py",
           "    x = starts[0]\n", "    x = starts[-1]\n",
           ("tests/test_experiments.py::test_crosscheck_walks_and_records_its_first_start",)),
    Mutant("weight-window-open", "src/mixlab/experiments.py",
           "<= epsilon).mean())", "< epsilon).mean())",
           ("tests/test_experiments.py::test_path_weight_report_reduces_the_weights_of_path_weight_lln",)),
    Mutant("path-blocks-on-one-stream", "src/mixlab/experiments.py",
           "base.lane(_LANE_TRAJ, b))", "base.lane(_LANE_TRAJ, 0))",
           ("tests/test_experiments.py::test_path_weight_lln_walks_blocks_on_their_own_streams",)),
    Mutant("eta-scored-against-first-pi", "src/mixlab/experiments.py",
           "_joint_term(alpha, t, row, solved[e][1])",
           "_joint_term(alpha, t, row, solved[0][1])",
           ("tests/test_experiments.py::test_joint_groups_of_environments_give_the_walk_per_environment",)),
    Mutant("int64-degree-total", "src/mixlab/core.py",
           "    return sum(degrees.tolist())\n", "    return int(degrees.sum())\n",
           ("tests/test_core.py::test_a_degree_total_past_int64_is_bad_range",)),
    Mutant("no-int64-bound", "src/mixlab/core.py",
           "not low <= x <= _INT64_MAX:", "not low <= x:",
           ("tests/test_cli.py::test_a_generator_past_int64_or_memory_exits_1",)),
    Mutant("stub-repeat-unguarded", "src/mixlab/core.py",
           "        with allocating(f\"the vertices of {self.m} stubs\"):\n",
           "        if True:\n",
           ("tests/test_core.py::test_stub_arrays_too_large_to_allocate_are_bad_range",)),
    Mutant("matching-table-unguarded", "src/mixlab/sampler.py",
           "    with allocating(f\"a {len(streams)} x {m} table of matchings\"):\n",
           "    if True:\n",
           ("tests/test_cli.py::test_a_generator_past_int64_or_memory_exits_1",)),
    Mutant("unbounded-config-repr", "src/mixlab/cli.py",
           "f\"got {reprlib.repr(value)}\")", "f\"got {value!r}\")",
           ("tests/test_cli.py::test_config_value_of_the_wrong_type_exits_1",)),
    # one integer reader; short texts and one line per warning in the CLI
    Mutant("unbounded-generator-repr", "src/mixlab/cli.py",
           "f\"generator {reprlib.repr(token)} needs a ':'\")",
           "f\"generator {token!r} needs a ':'\")",
           ("tests/test_cli.py::test_a_long_text_is_shown_shortened",)),
    Mutant("no-warning-hook", "src/mixlab/cli.py",
           "        warnings.showwarning = lambda message, *_: print(\n"
           "            f\"warning: {message}\", file=sys.stderr)\n", "",
           ("tests/test_cli.py::test_a_warning_is_one_stderr_line",)),
    Mutant("one-schedule-floor", "src/mixlab/experiments.py",
           "integer_in(schedule_samples, _JACKKNIFE_BATCHES,",
           "integer_in(schedule_samples, 1,",
           ("tests/test_malformed.py::test_a_count_below_its_floor_is_bad_range",)),
    # counts derived, not kept by hand; one CSV writer; typed table and
    # diagnostics failures
    Mutant("joint-time-zero-not-one", "src/mixlab/experiments.py",
           "sums[t] / used if t else 1.0", "sums[t] / used if t else 0.5",
           ("tests/test_experiments.py::test_joint_time_zero_distance_is_one",)),
    Mutant("batch-counts-one-too-many", "src/mixlab/experiments.py",
           "np.bincount(np.arange(schedule_samples)",
           "np.bincount(np.arange(schedule_samples + 1)",
           ("tests/test_experiments.py::test_crosscheck_shared_prefix_matches_per_schedule_loop",)),
    Mutant("any-array-table-unread", "src/mixlab/walk.py",
           "if isinstance(values, np.ndarray) and values.dtype.kind in \"iu\":",
           "if isinstance(values, np.ndarray):",
           ("tests/test_walk.py::test_list_tables_give_the_kernel_and_laws_of_their_arrays",
            "tests/test_malformed.py::test_malformed_value_is_a_typed_error")),
    Mutant("diagnostics-fail-silently", "src/mixlab/experiments.py",
           "    if not rows:\n        raise AllReplicatesFailed(f\"all {failures} "
           "stationary solves failed\")\n", "",
           ("tests/test_cli.py::test_run_diagnostics_exit_codes",)),
    Mutant("estimate-unclipped", "src/mixlab/report.py",
           "min(max(row.estimate, 0.0), 1.0)", "row.estimate",
           ("tests/test_report.py::test_csv_clips_estimates_into_the_unit_interval",)),
)

_IGNORED = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache",
                                  "__pycache__", ".perfbench_out",
                                  ".benchmarks")


def run_tests(tree: Path, tests) -> int:
    """pytest's exit code for tests run in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p",
         "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def run_mutant(tree: Path, mutant: Mutant) -> str:
    """Plant mutant in tree, run its tests, restore the file; its status."""
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return "stale"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        code = run_tests(tree, mutant.tests)
    finally:
        path.write_text(text, encoding="utf-8")
    return {0: "survived", 1: "caught"}.get(code, "stale")


def main() -> int:
    statuses = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORED)
        tests = {t for m in MUTANTS for t in m.tests}
        passing = {t for t in sorted(tests) if run_tests(tree, (t,)) == 0}
        for mutant in MUTANTS:
            if passing.issuperset(mutant.tests):
                status = run_mutant(tree, mutant)
            else:
                status = "stale"
            statuses.append(status)
            print(f"{status:8}  {mutant.id}", flush=True)
    bad = len(statuses) - statuses.count("caught")
    print(f"{statuses.count('caught')} of {len(statuses)} caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
