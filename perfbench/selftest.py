"""Self-test of the benchmark's tracer on a run small enough to count by hand.

    python3 perfbench/selftest.py

``static-cutoff`` on ``eulerian:3x40`` with two betas and three
environments: n = 40 is below the exhaustive limit, so all 40 vertices are
starts, and the two betas land on two distinct times.  The run must record
exactly 3 graphs, 3 kernels, 3 solves and 40 x 2 x 3 = 240 propagate calls,
and the per-layer self times must add up to the traced wall time.  Exits 0
when every check holds, 1 otherwise.
"""

import contextlib
import io
import math
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mixlab import cli, walk  # noqa: E402
from tracer import SELF_TIME, Tracer  # noqa: E402

ARGV = ["static-cutoff", "--generator", "eulerian:3x40", "--beta-grid",
        "0.5,1.5", "--env-samples", "3", "--start-vertices", "4",
        "--root-seed", "12", "--threads", "1"]
EXPECTED = {"sampler.graphs": 3, "walk.kernels": 3, "stationary.solves": 3,
            "walk.propagate_calls": 240, "walk.matvec_cols": 3 * 40 * 5,
            "walk.kernels_unused": 0, "stationary.converged_ratio": 1.0}


def main() -> int:
    out_dir = ROOT / ".perfbench_out" / "selftest"
    shutil.rmtree(out_dir, ignore_errors=True)
    originals = (cli.main, walk.propagate, walk.TransitionKernel.transpose)
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.thread_time()
            code = cli.main(ARGV + ["--out-dir", str(out_dir)])
            wall = time.thread_time() - start
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(0, 0.0)

    problems = []
    if code != 0:
        problems.append(f"static-cutoff exited {code}")
    for key, want in EXPECTED.items():
        if metrics[key] != want:
            problems.append(f"{key}: {metrics[key]} != {want}")
    roots = [span[3] for span in tracer.spans if span[2] == 0]
    if roots != ["cli.main"]:
        problems.append(f"root spans {roots}, want only cli.main")
    traced_wall = tracer.root_time(0)
    if not traced_wall <= wall:
        problems.append(f"traced wall {traced_wall} > measured {wall}")
    self_total = sum(metrics[k] for k in set(SELF_TIME.values()))
    if not math.isclose(self_total, traced_wall, rel_tol=1e-9):
        problems.append(f"self times add to {self_total}, traced wall is "
                        f"{traced_wall}")
    now = (cli.main, walk.propagate, walk.TransitionKernel.transpose)
    if now != originals:
        problems.append("uninstall left a wrapper in place")

    for p in problems:
        print(f"FAILED: {p}")
    print(f"selftest: {len(tracer.spans)} spans, traced wall "
          f"{traced_wall:.4f} s, {'ok' if not problems else 'FAILED'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
