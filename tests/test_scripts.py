"""The study scripts run end to end and write runs that verify."""

import subprocess
import sys
from pathlib import Path

from drostream.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_study1_script_writes_two_runs_that_verify(tmp_path, src_env):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "study1.py"), "--n0", "5",
         "--out-root", str(tmp_path)],
        capture_output=True, text=True, env=src_env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    runs = sorted(p.name for p in tmp_path.iterdir())
    assert runs == ["study1-seed0-cover", "study1-seed0-nocover"]
    for name in runs:
        assert main(["verify", str(tmp_path / name)]) == 0
