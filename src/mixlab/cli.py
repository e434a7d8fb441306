"""Command-line driver: one experiment per invocation, CSV + JSON out.

Flag values win over config-file values, which win over defaults.  Output
files are written atomically and are byte-identical across reruns for a
fixed root seed.  Replicates run serially; ``--threads`` is still
accepted and recorded in the sidecar, but it does not change the work.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import abc
from dataclasses import dataclass, fields
from typing import (List, Optional, Sequence, Union, get_args, get_origin,
                    get_type_hints)

import numpy as np

from .core import (ModelKind, json_object, load_degree_sequence,
                   validate_degrees)
from .errors import (AllReplicatesFailed, BadGeneratorSyntax, BadValue,
                     MissingRequired, MixingLabError, NotConverged,
                     UnknownFlag)
from .experiments import (DEFAULT_START_SAMPLE, DEGREE_LANE, EXPERIMENT_NAMES,
                          ExperimentConfig, _meta, annealed_check,
                          double_cutoff_sweep, joint_relaxation_curve,
                          marginal_crosscheck_report,
                          marginal_relaxation_curve, path_weight_report,
                          static_cutoff_profile, stationary_diagnostics,
                          stationary_gap_report)
from .report import atomic_write_text, diagnostics_csv_text
from .rng import RngStream
from .stationary import DEFAULT_TOL
from .walk import OperationBudget

# --threads outside [1, MAX_THREADS] is refused
MAX_THREADS = 64


@dataclass(frozen=True)
class RunSpec:
    experiment: str
    model: str = "dcm"
    generator: Optional[str] = None
    degrees: Optional[str] = None
    degrees_file: Optional[str] = None
    n: Optional[int] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    beta_grid: Optional[Sequence[float]] = None
    s_grid: Optional[Sequence[int]] = None
    t: Optional[int] = None
    t_grid: Optional[Sequence[int]] = None
    switch_time: Optional[int] = None
    traj_samples: int = 1000
    epsilon: float = 0.1
    schedule_samples: int = 200
    env_samples: int = 10
    start_vertices: Union[str, int, List[int]] = DEFAULT_START_SAMPLE
    time_scale: str = "regeneration"
    gap_replicates: int = 20
    root_seed: int = 0
    out_dir: str = "."
    threads: Optional[int] = None  # 1 when not given
    budget: float = OperationBudget.DEFAULT_CAP
    tol: float = DEFAULT_TOL
    max_iters: Optional[int] = None


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit on bad input; surface a typed error instead
    def error(self, message):
        raise BadValue(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="mixlab", add_help=True,
                description="random-walk mixing experiments on random digraphs")
    p.add_argument("experiment", choices=EXPERIMENT_NAMES)
    p.add_argument("--config", help="JSON file of defaults (snake_case keys)")
    p.add_argument("--model", choices=["dcm", "ocm"])
    p.add_argument("--generator",
                   help="regular:D (with --n), mix:D1xK1,D2xK2,..., "
                        "eulerian:D1xK1,...")
    p.add_argument("--degrees", help="inline JSON degree object")
    p.add_argument("--degrees-file", help="path to a JSON degree object")
    p.add_argument("--n", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--beta-grid", help="comma-separated floats")
    p.add_argument("--s-grid", help="comma-separated switch times")
    p.add_argument("--t", type=int)
    p.add_argument("--t-grid", help="comma-separated times")
    p.add_argument("--switch-time", type=int)
    p.add_argument("--traj-samples", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--schedule-samples", type=int)
    p.add_argument("--env-samples", type=int)
    p.add_argument("--start-vertices",
                   help="'all', a count, or comma-separated vertices "
                        "(a trailing comma forces a one-vertex list)")
    p.add_argument("--time-scale", choices=["regeneration", "entropic"])
    p.add_argument("--gap-replicates", type=int)
    p.add_argument("--root-seed", type=int)
    p.add_argument("--out-dir")
    p.add_argument("--threads", type=int,
                   help="accepted for compatibility and recorded in the "
                        "sidecar; replicates run serially whatever its value")
    p.add_argument("--budget", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", type=int)
    return p


def _number_list(value, kind):
    """A tuple of kind from comma-separated text or from a list."""
    items = value.split(",") if isinstance(value, str) else value
    try:
        return tuple(kind(item) for item in items if item != "")
    except ValueError as exc:
        raise BadValue(f"bad {kind.__name__} list {value!r}") from exc


def _start_vertices_value(text: str):
    """'all', a count, or (any text with a comma) a list of vertices."""
    if text == "all":
        return "all"
    if "," in text:
        return list(_number_list(text, int))
    try:
        return int(text)
    except ValueError as exc:
        raise BadValue(f"bad start-vertices {text!r}") from exc


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


def _check_config_types(doc: dict) -> None:
    hints = get_type_hints(RunSpec)
    for f in fields(RunSpec):
        if f.name in doc and not _fits(doc[f.name], hints[f.name]):
            raise BadValue(f"config key {f.name!r} must be {f.type}, "
                           f"got {doc[f.name]!r}")


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
    known = {f.name for f in fields(RunSpec)}
    for key in merged:
        if key not in known:
            raise UnknownFlag(f"unknown config key {key!r}")
    _check_config_types(merged)
    for key in known:
        flag_val = getattr(ns, key, None)
        if flag_val is not None:
            merged[key] = flag_val
    merged["experiment"] = ns.experiment

    for key, kind in (("beta_grid", float), ("s_grid", int), ("t_grid", int)):
        if merged.get(key) is not None:
            merged[key] = _number_list(merged[key], kind)
    # a count or a list from a config file is already final
    if isinstance(merged.get("start_vertices"), str):
        merged["start_vertices"] = _start_vertices_value(
            merged["start_vertices"])

    spec = RunSpec(**merged)
    if spec.alpha is not None and not (0.0 < spec.alpha < 1.0):
        raise BadValue(f"alpha must be in (0, 1), got {spec.alpha}")
    return spec


def _parse_blocks(body: str):
    blocks = []
    for piece in body.split(","):
        if "x" not in piece:
            raise BadGeneratorSyntax(f"expected DxCOUNT, got {piece!r}")
        d_txt, _, k_txt = piece.partition("x")
        try:
            d, k = int(d_txt), int(k_txt)
        except ValueError as exc:
            raise BadGeneratorSyntax(f"bad block {piece!r}") from exc
        if d < 2 or k < 1:
            raise BadGeneratorSyntax(f"bad block {piece!r}: need degree >= 2 "
                                     "and count >= 1")
        blocks.append((d, k))
    if not blocks:
        raise BadGeneratorSyntax("empty generator body")
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
        raise BadGeneratorSyntax(f"generator {token!r} needs a ':'")
    if kind == "regular":
        try:
            d = int(body)
        except ValueError as exc:
            raise BadGeneratorSyntax(f"bad degree {body!r}") from exc
        if n is None:
            raise MissingRequired("regular:D needs --n")
        if n < 1:
            raise BadValue(f"regular:D needs --n >= 1, got {n}")
        out = np.full(n, d, dtype=np.int64)
        in_deg = out.copy() if model is ModelKind.DCM else None
        return validate_degrees(model, out, in_deg)
    if kind in ("mix", "eulerian"):
        blocks = _parse_blocks(body)
        out = np.concatenate([np.full(k, d, dtype=np.int64)
                              for d, k in blocks])
        if model is ModelKind.OCM:
            return validate_degrees(model, out, None)
        if kind == "eulerian":
            return validate_degrees(model, out, out.copy())
        gen = RngStream(root_seed).lane(DEGREE_LANE).generator()
        return validate_degrees(model, out, gen.permutation(out))
    raise BadGeneratorSyntax(f"unknown generator kind {kind!r}")


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
    """--threads, else 1; BadValue outside [1, MAX_THREADS].  The value
    only lands in the sidecar."""
    threads = 1 if spec.threads is None else spec.threads
    if not 1 <= threads <= MAX_THREADS:
        raise BadValue(f"--threads must be in [1, {MAX_THREADS}], "
                       f"got {threads}")
    return threads


def _out_base(spec: RunSpec, n: int) -> str:
    alpha_txt = "na" if spec.alpha is None else f"{spec.alpha:g}"
    return os.path.join(spec.out_dir,
                        f"{spec.experiment}_n{n}_a{alpha_txt}"
                        f"_seed{spec.root_seed}")


def _require(spec: RunSpec, **named):
    missing = [flag for flag, value in named.items() if value is None]
    if missing:
        raise MissingRequired(f"{spec.experiment} needs "
                              + ", ".join(f"--{m.replace('_', '-')}"
                                          for m in missing))


def run(spec: RunSpec) -> int:
    """Execute one experiment; writes CSV + metadata and prints a summary."""
    threads = _resolve_threads(spec)
    seq = build_degree_sequence(spec)
    budget = OperationBudget(cap=spec.budget)
    cfg = ExperimentConfig(
        seq=seq,
        root_seed=spec.root_seed,
        alpha=spec.alpha,
        beta_grid=spec.beta_grid or (),
        s_grid=spec.s_grid,
        env_samples=spec.env_samples,
        start_vertices=spec.start_vertices,
        tol=spec.tol,
        max_iters=spec.max_iters,
    )
    os.makedirs(spec.out_dir, exist_ok=True)
    base = _out_base(spec, seq.n)
    exp = spec.experiment

    if exp == "diagnostics":
        rows, failures = stationary_diagnostics(cfg, budget=budget)
        csv_path = base + ".csv"
        atomic_write_text(csv_path, diagnostics_csv_text(rows))
        meta = _meta("diagnostics", cfg, replicates=len(rows),
                     solve_failures=failures, threads=threads)
        atomic_write_text(base + ".json",
                          json.dumps(meta, indent=2, sort_keys=True) + "\n")
        print(f"diagnostics: {len(rows)} converged, {failures} failed "
              f"-> {csv_path}")
        if rows:
            return 0
        return 2

    if exp == "static-cutoff":
        _require(spec, beta_grid=spec.beta_grid)
        report = static_cutoff_profile(cfg, budget=budget)
    elif exp == "double-cutoff":
        _require(spec, beta=spec.beta, s_grid=spec.s_grid)
        report = double_cutoff_sweep(cfg, spec.beta, budget=budget)
    elif exp == "joint":
        _require(spec, alpha=spec.alpha, beta_grid=spec.beta_grid)
        report = joint_relaxation_curve(cfg, budget=budget)
    elif exp == "marginal":
        _require(spec, alpha=spec.alpha, beta_grid=spec.beta_grid)
        report = marginal_relaxation_curve(cfg, time_scale=spec.time_scale,
                                           gap_replicates=spec.gap_replicates,
                                           budget=budget)
    elif exp == "marginal-crosscheck":
        _require(spec, alpha=spec.alpha, t=spec.t)
        report = marginal_crosscheck_report(cfg, spec.t,
                                            spec.schedule_samples,
                                            budget=budget)
    elif exp == "annealed":
        _require(spec, t_grid=spec.t_grid)
        report = annealed_check(cfg, spec.t_grid, budget=budget)
    elif exp == "weight-lln":
        _require(spec, t=spec.t, switch_time=spec.switch_time)
        report = path_weight_report(cfg, spec.switch_time, spec.t,
                                    spec.traj_samples, spec.epsilon,
                                    budget=budget)
    elif exp == "q-estimate":
        report = stationary_gap_report(cfg, replicates=spec.gap_replicates,
                                       budget=budget)
    else:
        raise BadValue(f"unknown experiment {exp!r}")

    report.metadata.setdefault("threads", threads)
    report.metadata.setdefault("operations_charged", budget.used)
    csv_path = base + ".csv"
    report.write(csv_path, base + ".json")
    print(report.summary_line())
    print(f"wrote {csv_path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        spec = parse_run_spec(args)
        return run(spec)
    except (AllReplicatesFailed, NotConverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MixingLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
