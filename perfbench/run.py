"""mixlab benchmark: run one workload through ``mixlab.cli.main`` and report.

    python3 perfbench/run.py --workload churn-n100 --seed 1 --seconds 20 \
        --trace 0

The checkout is the directory above this file; its ``src/`` is imported.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.  The
run is split over WORKERS fresh worker processes, one after another, each
given an equal share of ``--seconds``.  A worker times its own set-up
(importing numpy, scipy and mixlab, parsing the specs and building the
degree sequences), then runs repetitions of the workload.  ``solve_s`` is
the median over every repetition of the CPU time from its first ``main()``
call to its last CSV; ``setup_s`` is the median set-up CPU time;
``peak_rss_mb`` is the median of the workers' peak resident sets.  Single
processes differ from one another by up to 15 % in speed on the same
input, so one run samples several.

Times are CPU times of the single-threaded worker, not wall times: the
host of the 2-core VM this was built on withholds the CPU (steal) for
stretches that tripled wall times while CPU times moved by 4 %.  For a
single-threaded run without I/O waits, CPU time is the time to solution
on an unshared machine.  Raw wall times are printed and recorded too.

``--trace 1`` prints the per-layer metrics from this process: untraced
repetitions first, then repetitions with every layer function wrapped by
``tracer.Tracer``; each per-layer value is the median over the traced
repetitions.  Timed repetitions run with ``--threads 1``; a workload with
a pool thread count is also run once with it, and its CSVs must equal the
1-thread ones byte for byte.

All CPU times are scaled to a reference machine speed; see ``speed()``.

Every repetition's CSV and sidecar pass the workload's gate, and every
repetition's CSV digests equal the first one's, across processes too.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when everything
passed, 1 when a gate or a digest check failed, 2 when the run could not
start (no ``src/mixlab``).  Outputs, result files and spans go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

WORKERS = 4           # fresh processes per end-to-end run
TRACE_PROBES = 3      # set-up-only workers per traced run
MAX_TRACED_REPS = 3   # spans of every traced repetition stay in memory
HARD_STOP_S = 140     # start no repetition after this, whatever --seconds says

# The host's load also changes how much work a CPU second does.  Timings
# are therefore taken between two samples of the machine's speed and scaled
# to the reference speed, at which the three calibration loops below take
# REF_LOOP_S of CPU time.
REF_LOOP_S = (0.0055, 0.0050, 0.0035)
CAL_SAMPLES = 7
_CAL_MATRIX = []


def _loop_py():
    s = 0
    for i in range(100_000):
        s += i * i
    return s


def _loop_np():
    import numpy as np
    a, b = np.ones(100), np.ones(100)
    for _ in range(5000):
        a = a * 0.5 + b
    return a


def _loop_spmv():
    import numpy as np
    from scipy.sparse import csr_matrix
    if not _CAL_MATRIX:
        # fixed 3-out-regular pattern on 10^4 vertices, as in the workloads
        n = 10_000
        rows = np.repeat(np.arange(n), 3)
        cols = (rows * 7919 + np.tile([1, 104729, 1299709], n)) % n
        _CAL_MATRIX.append(csr_matrix((np.full(3 * n, 1 / 3), (rows, cols)),
                                      shape=(n, n)).T.tocsr())
    mat = _CAL_MATRIX[0]
    v = np.full(mat.shape[0], 1.0 / mat.shape[0])
    for _ in range(100):
        v = mat @ v
    return v


def speed() -> float:
    """Machine speed relative to the reference: below 1 means slower.

    Geometric mean over a pure-interpreter loop, a small-array numpy loop
    and a sparse matrix-vector loop, each the median of CAL_SAMPLES
    timings.
    """
    ratio = 1.0
    for loop, ref in zip((_loop_py, _loop_np, _loop_spmv), REF_LOOP_S):
        times = []
        for _ in range(CAL_SAMPLES):
            t0 = time.process_time()
            loop()
            times.append(time.process_time() - t0)
        ratio *= ref / statistics.median(times)
    return ratio ** (1 / len(REF_LOOP_S))


@dataclass
class Rep:
    """One repetition: every invocation of the workload, once."""
    wall_s: float
    cpu_s: float          # CPU time of this process over the same span
    attempted: int = 0
    failed: int = 0
    charged: float = 0.0  # operations_charged summed over the sidecars
    digests: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    speed: float = 1.0    # machine speed around the repetition
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def ref_cpu_s(self) -> float:
        return self.cpu_s * self.speed


def _read_rows(path: Path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return [{k: float(v) for k, v in zip(header, ln.split(","))}
            for ln in lines[1:]]


def run_rep(invocations, out_dir: Path) -> Rep:
    """Run the invocations in order, time them, then gate their outputs."""
    from mixlab import cli  # looked up per call, so a tracer's wrapper is used
    shutil.rmtree(out_dir, ignore_errors=True)
    dirs = [out_dir / str(k) for k in range(len(invocations))]
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        start, cpu0 = time.perf_counter(), time.process_time()
        for inv, d in zip(invocations, dirs):
            codes.append(cli.main([*inv.argv, "--out-dir", str(d)]))
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
    rep = Rep(wall_s=wall, cpu_s=cpu)
    for inv, code, d in zip(invocations, codes, dirs):
        rep.attempted += 1 + inv.replicates
        csvs, sidecars = sorted(d.glob("*.csv")), sorted(d.glob("*.json"))
        if code != 0 or len(csvs) != 1 or len(sidecars) != 1:
            rep.failed += 1
            rep.problems.append(f"{inv.argv[0]}: exit {code}, "
                                f"{len(csvs)} CSV, {len(sidecars)} sidecar")
            rep.digests.append("")
            continue
        rep.digests.append(hashlib.sha256(csvs[0].read_bytes()).hexdigest())
        meta = json.loads(sidecars[0].read_text())
        problems = inv.gate(_read_rows(csvs[0]), meta)
        rep.failed += bool(problems)
        rep.failed += int(meta.get("solve_failures", 0))
        rep.failed += int(meta.get("env_skipped", 0))
        rep.problems += problems
        rep.charged += float(meta.get("operations_charged", 0.0))
    return rep


def check_digests(reps: List[Rep], reference: List[str], what: str) -> None:
    for rep in reps:
        for k, (got, want) in enumerate(zip(rep.digests, reference)):
            if got and got != want:
                rep.failed += 1
                rep.problems.append(f"invocation {k}: CSV digest differs "
                                    f"from {what}")


def repeat(invocations, out_dir: Path, seconds: float, min_reps: int,
           tracer=None, max_reps: int = 0) -> List[Rep]:
    """Repetitions until the next would end after ``seconds``.

    With a tracer installed, each repetition gets its own run id and its
    per-layer metrics.
    """
    reps: List[Rep] = []
    start = time.perf_counter()
    before = speed()
    while not max_reps or len(reps) < max_reps:
        used = time.perf_counter() - start
        next_end = used + (used / len(reps) if reps else 0.0)
        if len(reps) >= min_reps and (next_end >= seconds
                                      or used > HARD_STOP_S):
            break
        run_id = len(reps) + 1
        if tracer is not None:
            tracer.reset(run_id)
        rep = run_rep(invocations, out_dir)
        after = speed()
        rep.speed, before = (before + after) / 2, after
        if tracer is not None:
            rep.layers = tracer.layer_metrics(run_id, rep.charged, rep.speed)
        reps.append(rep)
    return reps


def worker(workload_name: str, seed: int, seconds: float, started: float):
    """Body of a worker process; prints its result as one JSON line.

    ``started`` (CPU time) is taken before the first import of numpy,
    scipy or mixlab, so set-up is timed as every CLI invocation pays it."""
    import numpy  # noqa: F401
    import scipy.sparse  # noqa: F401
    from mixlab import cli
    imported = time.process_time()
    from workloads import WORKLOADS
    invocations = WORKLOADS[workload_name].build(seed, 1)
    parse_s = degrees_s = 0.0
    for inv in invocations:
        t0 = time.process_time()
        spec = cli.parse_run_spec(list(inv.argv))
        t1 = time.process_time()
        cli.build_degree_sequence(spec)
        parse_s += t1 - t0
        degrees_s += time.process_time() - t1
    setup_speed = speed()
    reps = repeat(invocations, OUT / workload_name, seconds, min_reps=0)
    print(json.dumps({
        "import_s": imported - started, "parse_s": parse_s,
        "degrees_s": degrees_s, "speed": setup_speed,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reps": [dataclasses.asdict(r) for r in reps]}))


def spawn_workers(workload, seed: int, seconds: float, count: int):
    """Run ``count`` worker processes one after another; their results."""
    out = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--worker",
             "--workload", workload.name, "--seed", str(seed),
             "--seconds", str(seconds)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
            check=True)
        result = json.loads(done.stdout.strip().split("\n")[-1])
        result["reps"] = [Rep(**r) for r in result["reps"]]
        result["raw_setup_s"] = (result["import_s"] + result["parse_s"]
                                 + result["degrees_s"])
        out.append(result)
    return out


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().split("\n"):
            if line.endswith(" " + name):
                return line.split(" ")[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_bytes() -> dict:
    """Data or unified cache size per level of CPU 0, from sysfs."""
    sizes = {"L2": 0, "L3": 0}
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        unit = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        if f"L{level}" in sizes and kind != "Instruction":
            sizes[f"L{level}"] = int(size.rstrip("KMG")) * unit
    return sizes


def provenance(workload, seed: int, invocations) -> dict:
    import numpy
    import scipy
    from mixlab import cli
    from workloads import HELD_OUT_SEED

    caches = _cache_bytes()
    working = []
    for inv in invocations:
        seq = cli.build_degree_sequence(cli.parse_run_spec(list(inv.argv)))
        # P and its cached transpose in CSR (float64 data, int32 indices,
        # at most m stored entries each) plus four dense float64 vectors
        total = 2 * (12 * seq.m + 4 * (seq.n + 1)) + 4 * 8 * seq.n
        working.append({"experiment": inv.argv[0], "n": seq.n, "m": seq.m,
                        "computed_bytes": total,
                        "fits_l2": total <= caches["L2"],
                        "fits_l3": total <= caches["L3"]})
    return {
        "workload": workload.name, "seed": seed,
        "held_out_seed": seed == HELD_OUT_SEED,
        "pool_threads": workload.pool_threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "cpu_model": _cpu_model(),
        "l2_bytes": caches["L2"], "l3_bytes": caches["L3"],
        "git_commit": _git_commit(),
        "working_set": working,
        "note": "working-set sizes are computed from n and m, not measured; "
                "no bandwidth figure is claimed",
    }


def _median_note(count: int, what: str, raw) -> str:
    return (f"median of {count} {what}, CPU time at reference speed "
            f"(unscaled {statistics.median(raw):.4g} s)")


def end_to_end(workload, seed: int, seconds: int):
    workers = spawn_workers(workload, seed, seconds / WORKERS, WORKERS)
    reps = [r for w in workers for r in w["reps"]]
    check_digests(reps, reps[0].digests, "the first worker's first run")
    setups = [w["raw_setup_s"] * w["speed"] for w in workers]
    values = {"solve_s": statistics.median(r.ref_cpu_s for r in reps),
              "setup_s": statistics.median(setups),
              "peak_rss_mb": statistics.median(w["peak_rss_mb"]
                                               for w in workers)}
    notes = {
        "solve_s": _median_note(len(reps), f"repetitions in {WORKERS} "
                                "processes", [r.cpu_s for r in reps]),
        "setup_s": _median_note(len(workers), "fresh processes",
                                [w["raw_setup_s"] for w in workers]),
        "peak_rss_mb": f"median of {WORKERS} processes' peaks",
    }
    return reps, values, notes


def traced(workload, seed: int, seconds: int):
    from tracer import Tracer

    start = time.perf_counter()
    invocations = workload.build(seed, 1)
    out_dir = OUT / workload.name
    probes = spawn_workers(workload, seed, 0, TRACE_PROBES)
    plain = repeat(invocations, out_dir, seconds / 3, 2)
    reference = plain[0].digests
    check_digests(plain, reference, "the first repetition")
    plain_cpu = statistics.median(r.ref_cpu_s for r in plain)
    pool_speedup = 1.0  # by definition when the workload has no pool
    pooled = []
    if workload.pool_threads:
        # test_10's invariant at full size: the pool writes the same bytes
        pooled = repeat(workload.build(seed, workload.pool_threads), out_dir,
                        0, 1)
        check_digests(pooled, reference, "the 1-thread run")
        # wall time: CPU time adds up over the pool's threads
        pool_speedup = (statistics.median(r.wall_s for r in plain)
                        / statistics.median(r.wall_s for r in pooled))
    tracer = Tracer()
    tracer.install()
    try:
        spent = time.perf_counter() - start
        traced_reps = repeat(invocations, out_dir, seconds - spent, 1,
                             tracer, MAX_TRACED_REPS)
    finally:
        tracer.uninstall()
    check_digests(traced_reps, reference, "the untraced run")
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_dir / f"{workload.name}-seed{seed}.csv")

    layers = [r.layers for r in traced_reps]
    values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    values.update({
        "experiments.pool_speedup": pool_speedup,
        "process.import_s": statistics.median(p["import_s"] * p["speed"]
                                              for p in probes),
        "process.cpu_s": plain_cpu,
        "process.cpu_util": statistics.median(r.cpu_s / r.wall_s
                                              for r in plain),
        "trace.overhead_frac": statistics.median(
            r.ref_cpu_s for r in traced_reps) / plain_cpu - 1,
    })
    notes = {k: f"median of {len(layers)} traced repetitions" for k in values}
    notes.update({
        "experiments.pool_speedup":
            f"1-thread over {workload.pool_threads}-thread wall time"
            if pooled else "1 by definition: no pool",
        "process.import_s": f"median of {len(probes)} fresh processes",
        "process.cpu_s": f"median of {len(plain)} untraced repetitions",
        "process.cpu_util": f"median of {len(plain)} untraced repetitions",
        "trace.overhead_frac": f"{len(traced_reps)} traced vs "
                               f"{len(plain)} untraced repetitions",
    })
    return plain + pooled + traced_reps, values, notes


def main(argv=None) -> int:
    started = time.process_time()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 0 or args.seed < 0:
        parser.error("--seconds and --seed must be >= 0")

    if not (ROOT / "src" / "mixlab" / "__init__.py").is_file():
        print(f"error: no mixlab source tree under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # BLAS pools off, so the workload's own --threads is all the parallelism
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    if args.worker:
        worker(args.workload, args.seed, args.seconds, started)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    measure = traced if args.trace else end_to_end
    reps, values, notes = measure(workload, args.seed, args.seconds)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    problems = sorted({p for r in reps for p in r.problems})
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    for m in wanted:
        print(f"  {m['name']:<30} {values[m['name']]:<14.6g} {m['unit']:<8} "
              f"{notes[m['name']]}")
    walls = [r.wall_s for r in reps]
    print(f"  {'wall_s':<30} {statistics.median(walls):<14.6g} {'s':<8} "
          f"median of {len(walls)} repetitions, raw wall time, not gated")
    print(f"  {'failed_frac':<30} {failed / attempted:<14.6g} {'ratio':<8} "
          f"{failed} failed of {attempted} attempted operations")
    for p in problems:
        print(f"  FAILED: {p}")
    record = {"provenance": provenance(workload, args.seed,
                                       workload.build(args.seed, 1)),
              "metrics": metrics, "notes": notes,
              "failed_frac": failed / attempted, "problems": problems,
              "digests": reps[0].digests,
              "walls": [r.wall_s for r in reps],
              "speeds": [r.speed for r in reps],
              "cpus": [r.cpu_s for r in reps]}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2) + "\n")
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
