"""The benchmark's own self-tests, run as its documentation says."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    # the benchmark rebinds package entry points by name, so a refactor that
    # unbinds one breaks its traced runs; its self-tests catch that
    proc = subprocess.run(
        [sys.executable, str(ROOT / "drobench" / "selftest.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
