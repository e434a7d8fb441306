"""Command-line driver: one experiment per invocation, CSV + JSON out.

Flag values win over config-file values, which win over defaults.  Output
files are written atomically and are byte-identical across reruns for a
fixed root seed.  Replicates run serially; ``--threads`` is still
accepted and recorded in the sidecar, but it does not change the work.

Each option is declared once, as a ``RunSpec`` field that the parser is
built from, and each report experiment once, as a row of ``_RUNS``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import reprlib
import sys
import warnings
from collections import abc
from dataclasses import dataclass, field, fields
from typing import (List, Optional, Sequence, Union, get_args, get_origin,
                    get_type_hints)

import numpy as np

from .core import (ModelKind, allocating, integer_in, integer_text,
                   json_object, load_degree_sequence, validate_degrees)
from .errors import (AllReplicatesFailed, BadGeneratorSyntax, BadValue,
                     MissingRequired, MixingLabError, NotConverged,
                     UnknownFlag)
from .experiments import (DEFAULT_START_SAMPLE, DEGREE_LANE, TIME_SCALES,
                          ExperimentConfig, _meta, annealed_check,
                          double_cutoff_sweep, joint_relaxation_curve,
                          marginal_mc_crosscheck, marginal_relaxation_curve,
                          path_weight_report,
                          static_cutoff_profile, stationary_diagnostics,
                          stationary_gap_report)
from .report import atomic_write_text, diagnostics_csv_text
from .rng import RngStream
from .stationary import DEFAULT_TOL
from .walk import OperationBudget

# --threads outside [1, MAX_THREADS] is refused
MAX_THREADS = 64


def _option(default=None, help=None, choices=None):
    """A RunSpec field whose flag has help text or fixed choices."""
    return field(default=default, metadata={"help": help, "choices": choices})


@dataclass(frozen=True)
class RunSpec:
    """Every run option, declared once.  Each field but ``experiment`` is
    the flag ``--`` plus its dashed name and the config key of its own
    name.  Its annotation types both: a flag parses to int or float when
    the annotation (without Optional) is one, and stays text otherwise."""

    experiment: str
    model: str = _option(ModelKind.DCM.value,
                         choices=[kind.value for kind in ModelKind])
    generator: Optional[str] = _option(
        help="regular:D (with --n), mix:D1xK1,D2xK2,..., eulerian:D1xK1,...")
    degrees: Optional[str] = _option(help="inline JSON degree object")
    degrees_file: Optional[str] = _option(help="path to a JSON degree object")
    n: Optional[int] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    beta_grid: Sequence[float] = _option((), help="comma-separated floats")
    s_grid: Optional[Sequence[int]] = _option(
        help="comma-separated switch times")
    t: Optional[int] = None
    t_grid: Optional[Sequence[int]] = _option(help="comma-separated times")
    switch_time: Optional[int] = None
    traj_samples: int = 1000
    epsilon: float = 0.1
    schedule_samples: int = 200
    env_samples: int = 10
    start_vertices: Union[str, int, List[int]] = _option(
        DEFAULT_START_SAMPLE,
        help="'all', a count, or comma-separated vertices "
             "(a trailing comma forces a one-vertex list)")
    time_scale: str = _option(TIME_SCALES[0], choices=TIME_SCALES)
    gap_replicates: int = 20
    root_seed: int = 0
    out_dir: str = "."
    threads: Optional[int] = _option(  # 1 when not given
        help="accepted for compatibility and recorded in the sidecar; "
             "replicates run serially whatever its value")
    budget: float = OperationBudget.DEFAULT_CAP
    tol: float = DEFAULT_TOL
    max_iters: Optional[int] = None


_HINTS = get_type_hints(RunSpec)


def _bare(hint):
    """hint without Optional: Optional[int] is int; other unions stay."""
    args = [arg for arg in get_args(hint) if arg is not type(None)]
    return args[0] if get_origin(hint) is Union and len(args) == 1 else hint


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit on bad input; surface a typed error instead
    def error(self, message):
        raise BadValue(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="mixlab", add_help=True,
                description="random-walk mixing experiments on random digraphs")
    p.add_argument("experiment", choices=[*_RUNS, "diagnostics"])
    p.add_argument("--config", help="JSON file of defaults (snake_case keys)")
    for f in fields(RunSpec)[1:]:  # every field after experiment
        kind = _bare(_HINTS[f.name])
        p.add_argument(_flag(f.name),
                       type=kind if kind in (int, float) else None,
                       help=f.metadata.get("help"),
                       choices=f.metadata.get("choices"))
    return p


def _number_list(value, kind):
    """A tuple of kind from comma-separated text or from a list."""
    items = value.split(",") if isinstance(value, str) else value
    try:
        return tuple(kind(item) for item in items if item != "")
    except ValueError as exc:
        raise BadValue(f"bad {kind.__name__} list "
                       f"{reprlib.repr(value)}") from exc


def _start_vertices_value(text: str):
    """'all', a count, or (any text with a comma) a list of vertices."""
    if text == "all":
        return "all"
    if "," in text:
        return list(_number_list(text, int))
    try:
        return int(text)
    except ValueError as exc:
        raise BadValue(f"bad start-vertices {reprlib.repr(text)}") from exc


def _fits(value, hint) -> bool:
    """True when a JSON value can stand for a field annotated ``hint``;
    a list field also takes a comma-separated string."""
    args = get_args(hint)
    if get_origin(hint) is Union:
        return any(_fits(value, arg) for arg in args)
    if get_origin(hint) in (list, abc.Sequence):
        return isinstance(value, str) or (
            isinstance(value, list) and all(_fits(v, args[0]) for v in value))
    allowed = (int, float) if hint is float else hint
    return isinstance(value, allowed) and not isinstance(value, bool)


def parse_run_spec(argv: Sequence[str]) -> RunSpec:
    """Turn CLI words into a RunSpec; unknown flags are typed errors."""
    parser = _build_parser()
    ns, extras = parser.parse_known_args(list(argv))
    if extras:
        raise UnknownFlag(f"unrecognized arguments: {' '.join(extras)}")

    # only the keys a file or flag sets; RunSpec's fields hold the defaults
    merged = {}
    if ns.config:
        merged = json_object(_read(ns.config, "config file"), "config file")
    for key, value in merged.items():
        if key not in _HINTS:
            raise UnknownFlag(f"unknown config key {key!r}")
        if not _fits(value, _HINTS[key]):
            raise BadValue(f"config key {key!r} must be "
                           f"{RunSpec.__annotations__[key]}, "
                           f"got {reprlib.repr(value)}")
    merged.update((key, value) for key, value in vars(ns).items()
                  if value is not None and key != "config")

    for key, hint in _HINTS.items():
        kind = _bare(hint)
        if get_origin(kind) is abc.Sequence and merged.get(key) is not None:
            merged[key] = _number_list(merged[key], get_args(kind)[0])
    # a count or a list from a config file is already final
    if isinstance(merged.get("start_vertices"), str):
        merged["start_vertices"] = _start_vertices_value(
            merged["start_vertices"])

    return RunSpec(**merged)


def _parse_blocks(body: str):
    blocks = []
    for piece in body.split(","):   # at least one piece, maybe ""
        d_txt, x, k_txt = piece.partition("x")
        if not x:
            raise BadGeneratorSyntax(
                f"expected DxCOUNT, got {reprlib.repr(piece)}")
        blocks.append((integer_text(d_txt, 2, "generator degree"),
                       integer_text(k_txt, 1, "generator count")))
    return blocks


def degrees_from_generator(token: str, model: ModelKind, root_seed: int,
                           n: Optional[int] = None):
    """Degree sequences from compact ensemble descriptions.

    ``regular:D`` needs an explicit size; ``mix:...`` pairs the block
    out-degrees with an independently shuffled copy of the same multiset,
    so the matching is almost surely not Eulerian; ``eulerian:...`` sets
    in-degree equal to out-degree vertex by vertex.
    """
    kind, sep, body = token.partition(":")
    if not sep:
        raise BadGeneratorSyntax(
            f"generator {reprlib.repr(token)} needs a ':'")
    if kind == "regular":
        d = integer_text(body, 2, "generator degree")
        if n is None:
            raise MissingRequired("regular:D needs --n")
        blocks = [(d, integer_in(n, 1, math.inf, "--n"))]
    elif kind in ("mix", "eulerian"):
        blocks = _parse_blocks(body)
    else:
        raise BadGeneratorSyntax(
            f"unknown generator kind {reprlib.repr(kind)}")
    with allocating(f"the degrees of {sum(k for _, k in blocks)} vertices"):
        out = np.concatenate([np.full(k, d, dtype=np.int64)
                              for d, k in blocks])
    if model is ModelKind.OCM:
        return validate_degrees(model, out, None)
    if kind != "mix":   # regular and eulerian: in-degree is out-degree
        return validate_degrees(model, out, out)
    gen = RngStream(root_seed).lane(DEGREE_LANE).generator()
    return validate_degrees(model, out, gen.permutation(out))


def _read(path: str, what: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise BadValue(f"cannot read {what} {path!r}: {exc.strerror}") from exc


def build_degree_sequence(spec: RunSpec):
    model = ModelKind(spec.model)
    sources = [s for s in (spec.generator, spec.degrees, spec.degrees_file)
               if s is not None]
    if len(sources) != 1:
        raise MissingRequired("give exactly one of --generator, --degrees, "
                              "--degrees-file")
    if spec.generator is not None:
        return degrees_from_generator(spec.generator, model, spec.root_seed,
                                      spec.n)
    if spec.degrees is not None:
        doc = json_object(spec.degrees, "--degrees")
    else:
        doc = json_object(_read(spec.degrees_file, "degrees file"),
                          "degrees file")
    # the document's own "model" wins over --model
    return load_degree_sequence({"model": spec.model, **doc})


def _resolve_threads(spec: RunSpec) -> int:
    """--threads, else 1, read by ``core.integer_in``: BadRange outside
    [1, MAX_THREADS].  The value only lands in the sidecar."""
    return (1 if spec.threads is None
            else integer_in(spec.threads, 1, MAX_THREADS + 1, "--threads"))


def _out_base(spec: RunSpec, n: int) -> str:
    # every digit of alpha, so runs at two alphas never share a file
    alpha_txt = "na" if spec.alpha is None else repr(float(spec.alpha))
    return os.path.join(spec.out_dir,
                        f"{spec.experiment}_n{n}_a{alpha_txt}"
                        f"_seed{spec.root_seed}")


# Each report experiment: the options it cannot run without, and the call
# that returns its report.  diagnostics writes its own CSV, in run().
_RUNS = {
    "static-cutoff": (["beta_grid"], lambda cfg, spec, budget:
                      static_cutoff_profile(cfg, budget=budget)),
    "double-cutoff": (["beta", "s_grid"], lambda cfg, spec, budget:
                      double_cutoff_sweep(cfg, spec.beta, budget=budget)),
    "joint": (["alpha", "beta_grid"], lambda cfg, spec, budget:
              joint_relaxation_curve(cfg, budget=budget)),
    "marginal": (["alpha", "beta_grid"], lambda cfg, spec, budget:
                 marginal_relaxation_curve(
                     cfg, time_scale=spec.time_scale,
                     gap_replicates=spec.gap_replicates, budget=budget)),
    "marginal-crosscheck": (["alpha", "t"], lambda cfg, spec, budget:
                            marginal_mc_crosscheck(
                                cfg, spec.t, spec.schedule_samples,
                                budget=budget)),
    "annealed": (["t_grid"], lambda cfg, spec, budget:
                 annealed_check(cfg, spec.t_grid, budget=budget)),
    "weight-lln": (["t", "switch_time"], lambda cfg, spec, budget:
                   path_weight_report(cfg, spec.switch_time, spec.t,
                                      spec.traj_samples, spec.epsilon,
                                      budget=budget)),
    "q-estimate": ([], lambda cfg, spec, budget:
                   stationary_gap_report(cfg, replicates=spec.gap_replicates,
                                         budget=budget)),
}


def run(spec: RunSpec) -> int:
    """Execute one experiment; writes CSV + metadata and prints a summary."""
    threads = _resolve_threads(spec)
    seq = build_degree_sequence(spec)
    budget = OperationBudget(cap=spec.budget)
    cfg = ExperimentConfig(seq=seq, **{
        f.name: getattr(spec, f.name) for f in fields(ExperimentConfig)
        if f.name in _HINTS})
    try:
        os.makedirs(spec.out_dir, exist_ok=True)
    except OSError as exc:
        raise BadValue(f"cannot create output directory {spec.out_dir!r}: "
                       f"{exc.strerror}") from exc
    base = _out_base(spec, seq.n)

    if spec.experiment == "diagnostics":
        rows, failures = stationary_diagnostics(cfg, budget=budget)
        csv_path = base + ".csv"
        atomic_write_text(csv_path, diagnostics_csv_text(rows))
        meta = _meta("diagnostics", cfg, replicates=len(rows),
                     solve_failures=failures, threads=threads,
                     operations_charged=budget.used)
        atomic_write_text(base + ".json",
                          json.dumps(meta, indent=2, sort_keys=True) + "\n")
        print(f"diagnostics: {len(rows)} converged, {failures} failed "
              f"-> {csv_path}")
        return 0

    needs, report_of = _RUNS[spec.experiment]
    # an empty grid is as good as none
    missing = [_flag(name) for name in needs
               if getattr(spec, name) in (None, ())]
    if missing:
        raise MissingRequired(f"{spec.experiment} needs "
                              + ", ".join(missing))
    report = report_of(cfg, spec, budget)
    report.metadata.setdefault("threads", threads)
    report.metadata.setdefault("operations_charged", budget.used)
    csv_path = base + ".csv"
    report.write(csv_path, base + ".json")
    print(report.summary_line())
    print(f"wrote {csv_path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    with warnings.catch_warnings():
        # one line per warning, without the source line Python would add
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr)
        try:
            spec = parse_run_spec(args)
            code = run(spec)
            # a piped stdout is block-buffered: flush here, so a closed
            # pipe raises below and not in the interpreter's flush at exit
            sys.stdout.flush()
            return code
        except (AllReplicatesFailed, NotConverged) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except MixingLabError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except BrokenPipeError:
            # stdout was closed early (say, piped into head); written
            # files stay.  Point stdout at devnull so the interpreter's
            # flush at exit finds somewhere to put what is still buffered.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print("error: standard output closed before the run finished "
                  "printing", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
