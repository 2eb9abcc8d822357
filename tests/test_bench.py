"""The benchmark's own self-tests, run against this checkout.

``bench/`` reads package names the tests here do not otherwise touch (for
example ``triqubit.evolution.kron`` and the layers its tracer wraps), so a
change that drops one of them fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Ran 14 tests" in proc.stderr and proc.stderr.rstrip().endswith("OK"), proc.stderr
