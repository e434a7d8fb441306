"""The benchmark's tracer self-test, run as part of the unit suite.

perfbench/tracer.py wraps mixlab's layer functions by name, so renaming or
deleting one of them breaks the benchmark; this test makes that a unit-test
failure instead of a failed benchmark run.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
