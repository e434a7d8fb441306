"""Print the sha256 of every ``CLI_CASES`` output file at the given root seeds.

    python3 tools/cli_digests.py 12 1 7025 > digests.txt

Runs each case of ``CLI_CASES`` in ``tests/test_acceptance.py`` through
``mixlab.cli.main`` with one thread, into a temporary directory, using the
``src/`` of the checkout this script sits in.  It prints one line per CSV
and JSON sidecar, ``<sha256>  seed<S>/<experiment>/<file>``, sorted.  Run
it on two commits and diff the outputs to check that a change kept every
byte.  Exits 1 if any case exits non-zero.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mixlab.cli import main as cli_main  # noqa: E402


def _cli_cases() -> dict:
    path = ROOT / "tests" / "test_acceptance.py"
    sys.path.insert(0, str(path.parent))    # its ``helpers`` import
    spec = importlib.util.spec_from_file_location("_acceptance", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CLI_CASES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int, help="root seeds")
    args = parser.parse_args(argv)
    cases = _cli_cases()
    failed = False
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for experiment, extra in cases.items():
                out_dir = Path(tmp) / f"seed{seed}" / experiment
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main([experiment, *extra, "--threads", "1",
                                     "--root-seed", str(seed),
                                     "--out-dir", str(out_dir)])
                if code != 0:
                    print(f"{experiment} at seed {seed} exited {code}",
                          file=sys.stderr)
                    failed = True
                for path in out_dir.glob("*"):
                    digests[str(path.relative_to(tmp))] = hashlib.sha256(
                        path.read_bytes()).hexdigest()
    for name in sorted(digests):
        print(f"{digests[name]}  {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
