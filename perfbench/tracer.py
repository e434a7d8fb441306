"""Span tracer that wraps mixlab's layer functions from outside the package.

``Tracer.install`` replaces each traced function in every ``mixlab`` module
that holds it, so functions imported by name (``from .walk import
propagate``) are caught in the importing module's namespace too.  The lazy
``TransitionKernel.transpose`` property, ``RngStream.generator`` and
``ExperimentReport.write`` are wrapped on their classes.

Each wrapped call records a span ``(run, id, parent, name, start, end)``,
timed by the thread's CPU clock so that time the host withholds the CPU
does not count.
Parents come from a thread-local stack, since ``experiments._parallel_map``
calls layers from pool threads; a span opened in a pool thread is a root
there.  The benchmark traces one-thread runs only, where every span nests
under ``cli.main``.  Spans stay in memory until ``write_spans``.  Counts
are taken from call arguments and return values, in per-thread tallies
that are summed when read.
"""

from __future__ import annotations

import collections
import functools
import itertools
import statistics
import sys
import threading
import time
from typing import Callable, Dict, List

# Span name -> per-layer self-time metric.  Every span name maps to exactly
# one metric, so the self times add up to the traced wall time.
SELF_TIME = {
    "cli.main": "cli.self_s",
    "cli.parse_run_spec": "cli.parse_s",
    "cli.build_degree_sequence": "cli.degrees_s",
    "rng.generator": "rng.generator_s",
    "sampler.sample_digraph": "sampler.s",
    "walk.kernel_from_digraph": "walk.kernel_s",
    "walk.transpose": "walk.transpose_s",
    "walk.propagate": "walk.propagate_s",
    "walk.double_row": "walk.propagate_s",
    "walk.time_averaged_row": "walk.time_avg_s",
    "walk.sample_trajectory": "walk.trajectory_s",
    "walk.path_log_weight": "walk.path_weight_s",
    "stationary.stationary_distribution": "stationary.s",
    "stationary.solve_replicates": "stationary.s",
    "stationary.estimate_stationary_gap": "stationary.s",
    "core.tv_distance": "core.tv_s",
    "report.write": "report.write_s",
    "report.atomic_write_text": "report.write_s",
}
_EXPERIMENT_FUNCS = (
    "static_cutoff_profile", "double_cutoff_sweep", "joint_relaxation_curve",
    "marginal_relaxation_curve", "marginal_mc_crosscheck", "annealed_check",
    "path_weight_report", "path_weight_lln", "stationary_diagnostics",
    "stationary_gap_report", "_parallel_map")
for _f in _EXPERIMENT_FUNCS:
    SELF_TIME["experiments." + _f] = "experiments.self_s"


def _cols(dist) -> int:
    shape = getattr(dist, "shape", ())
    return 1 if len(shape) < 2 else int(shape[1])


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._tallies: List[collections.Counter] = []
        self._iterations: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tally(self) -> collections.Counter:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = self._local.tally = collections.Counter()
            self._tallies.append(tally)
        return tally

    def _wrap(self, name: str, fn, count=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(tracer._tally(), exc, args, kwargs)
                raise
            finally:
                end = time.thread_time()
                stack.pop()
                tracer.spans.append((tracer.run_id, sid, parent, name,
                                     start, end))
            if count is not None:
                count(tracer._tally(), result, *args, **kwargs)
            return result
        return traced

    # -- counting hooks ----------------------------------------------------

    @staticmethod
    def _count_graph(tally, g, seq, stream):
        tally["sampler.graphs"] += 1
        tally["edges"] += seq.m

    @staticmethod
    def _count_propagate(tally, v, dist, kernel, steps, *a, **k):
        cols = _cols(dist) * steps
        tally["walk.propagate_calls"] += 1
        tally["walk.matvec_cols"] += cols
        tally["matvec_nnz"] += cols * kernel.nnz

    @staticmethod
    def _count_time_avg(tally, row, x, t, k_sigma, k_eta, *a, **k):
        tally["walk.time_avg_rows"] += 1
        tally["walk.time_avg_matvecs"] += 2 * (t - 1)
        tally["matvec_nnz"] += (t - 1) * (k_sigma.nnz + k_eta.nnz)

    def _count_solve(self, tally, result, kernel, *a, **k):
        tally["stationary.solves"] += 1
        tally["stationary.converged"] += 1
        # first product, one per iteration, one to verify the residual
        tally["solve_nnz"] += (result.iterations + 2) * kernel.nnz
        self._iterations.append(result.iterations)

    def _failed_solve(self, tally, exc, args, kwargs):
        from mixlab.errors import NotConverged
        if isinstance(exc, NotConverged):
            tally["stationary.solves"] += 1
            kernel = args[0] if args else kwargs["kernel"]
            # first product plus one per iteration; no verification
            tally["solve_nnz"] += (exc.iterations + 1) * kernel.nnz
            self._iterations.append(exc.iterations)

    @staticmethod
    def _count_path(tally, w, traj, *a, **k):
        tally["walk.path_steps"] += traj.length

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        old = owner.__dict__[attr]
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _patch_everywhere(self, original, new):
        # every mixlab module that holds the function by name
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "mixlab" or mod_name.startswith("mixlab."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, new)

    def install(self) -> None:
        from mixlab import (cli, core, experiments, report, rng, sampler,
                            stationary, walk)

        def incr(key):
            return lambda tally, *a, **k: tally.update((key,))

        funcs = [
            (cli, "main", None),
            (cli, "parse_run_spec", None),
            (cli, "build_degree_sequence", None),
            (sampler, "sample_digraph", self._count_graph),
            (walk, "kernel_from_digraph", incr("walk.kernels")),
            (walk, "propagate", self._count_propagate),
            (walk, "double_row", None),
            (walk, "time_averaged_row", self._count_time_avg),
            (walk, "sample_trajectory", incr("walk.trajectories")),
            (walk, "path_log_weight", self._count_path),
            (stationary, "solve_replicates", None),
            (stationary, "estimate_stationary_gap", None),
            (core, "tv_distance", incr("core.tv_calls")),
            (report, "atomic_write_text",
             lambda tally, r, path, text: tally.update(
                 {"report.bytes": len(text.encode())})),
        ]
        funcs += [(experiments, f, None) for f in _EXPERIMENT_FUNCS]
        for mod, attr, count in funcs:
            original = getattr(mod, attr)
            layer = mod.__name__.split(".")[-1]
            self._patch_everywhere(original, self._wrap(
                f"{layer}.{attr}", original, count))

        solve = stationary.stationary_distribution
        self._patch_everywhere(solve, self._wrap(
            "stationary.stationary_distribution", solve, self._count_solve,
            self._failed_solve))

        self._patch(rng.RngStream, "generator", self._wrap(
            "rng.generator", rng.RngStream.generator, incr("rng.generators")))
        self._patch(report.ExperimentReport, "write", self._wrap(
            "report.write", report.ExperimentReport.write))

        build = self._wrap("walk.transpose",
                           walk.TransitionKernel.transpose.fget,
                           incr("transposes"))

        def transpose(kernel):
            if kernel._transpose is None:
                return build(kernel)
            return kernel._transpose
        self._patch(walk.TransitionKernel, "transpose", property(transpose))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading -----------------------------------------------------------

    def reset(self, run_id: int) -> None:
        """Start a new traced repetition; counts and iterations restart."""
        self.run_id = run_id
        for tally in self._tallies:
            tally.clear()
        self._iterations.clear()

    def counts(self) -> collections.Counter:
        total = collections.Counter()
        for tally in list(self._tallies):
            total.update(tally)
        return total

    def self_times(self, run_id: int) -> Dict[str, float]:
        """Self time per span name: duration minus the union of its
        children's intervals, clipped to the span."""
        spans = [s for s in self.spans if s[0] == run_id]
        children: Dict[int, list] = collections.defaultdict(list)
        for _, _, parent, _, start, end in spans:
            children[parent].append((start, end))
        out: Dict[str, float] = collections.defaultdict(float)
        for _, sid, _, name, start, end in spans:
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[name] += (end - start) - covered
        return out

    def root_time(self, run_id: int) -> float:
        return sum(s[5] - s[4] for s in self.spans
                   if s[0] == run_id and s[2] == 0)

    def layer_metrics(self, run_id: int, charged: float,
                      speed: float = 1.0) -> Dict[str, float]:
        """Per-layer metrics of one traced repetition; self times are
        multiplied by ``speed`` (and rates divided by it)."""
        counts = self.counts()
        selfs = self.self_times(run_id)
        m: Dict[str, float] = {name: 0.0 for name in set(SELF_TIME.values())}
        for name, secs in selfs.items():
            m[SELF_TIME[name]] += secs * speed
        for key in ("rng.generators", "sampler.graphs", "walk.kernels",
                    "walk.propagate_calls", "walk.matvec_cols",
                    "walk.time_avg_rows", "walk.time_avg_matvecs",
                    "walk.trajectories", "walk.path_steps",
                    "stationary.solves", "core.tv_calls", "report.bytes"):
            m[key] = counts[key]
        m["walk.kernels_unused"] = (counts["walk.kernels"]
                                    - counts["transposes"])
        m["sampler.edges_per_s"] = _ratio(counts["edges"], m["sampler.s"])
        spmv_s = m["walk.propagate_s"] + m["walk.time_avg_s"]
        m["walk.spmv_gflops"] = _ratio(2e-9 * counts["matvec_nnz"], spmv_s)
        iters = self._iterations
        m["stationary.iters_p50"] = statistics.median(iters) if iters else 0
        m["stationary.iters_max"] = max(iters) if iters else 0
        solves = counts["stationary.solves"]
        m["stationary.converged_ratio"] = (
            counts["stationary.converged"] / solves if solves else 1.0)
        performed = counts["matvec_nnz"] + counts["solve_nnz"]
        m["walk.ops_performed"] = performed
        m["budget.charged_over_performed"] = _ratio(charged, performed)
        return m

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run,id,parent,name,start_s,end_s\n")
            for run, sid, parent, name, start, end in self.spans:
                fh.write(f"{run},{sid},{parent},{name},{start!r},{end!r}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0
