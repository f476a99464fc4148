"""The study scripts run end to end and write runs that verify, and
``logdiff.py`` tells float digits from other differences between logs."""

import json
import math
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


def logdiff(a, b, *extra):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "logdiff.py"), str(a), str(b),
         *extra], capture_output=True, text=True, timeout=60)


def test_logdiff_passes_float_digits_and_fails_anything_else(tmp_path):
    assert main(["run", "--preset", "study1", "--n0", "8",
                 "--out-dir", str(tmp_path / "run")]) == 0
    log = tmp_path / "run" / "events.jsonl"
    records = [json.loads(line) for line in log.read_text().splitlines()]
    certificates = [r for r in records if r["kind"] == "CertificatePosted"]

    def tampered(name, edit):
        out = [json.loads(json.dumps(r)) for r in records]
        edit(out)
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in out))
        return path

    def nudge(out, by):
        for r in out:
            if "J" in r:
                r["J"] = by(r["J"])

    same = logdiff(log, log)
    assert same.returncode == 0, same.stdout + same.stderr
    assert " 0 differ, largest relative difference 0" in same.stdout
    # an ulp on every J passes, and is counted
    ulp = tampered("ulp", lambda out: nudge(
        out, lambda j: math.nextafter(j, math.inf)))
    proc = logdiff(log, ulp)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f" {len(certificates)} differ," in proc.stdout
    # a larger move fails unless --rel allows it
    wide = tampered("wide", lambda out: nudge(out, lambda j: j * (1 + 1e-9)))
    assert logdiff(log, wide).returncode == 1
    assert logdiff(log, wide, "--rel", "1e-8").returncode == 0

    def set_first(key, value):
        def edit(out):
            next(r for r in out if key in r)[key] = value
        return edit

    for name, edit in [
            ("lp_calls", set_first("lp_calls", certificates[0]["lp_calls"] + 1)),
            ("kind", set_first("kind", "EpochConverged")),
            ("int_to_float", set_first("index", 0.0)),
            ("dropped", lambda out: out.pop())]:
        proc = logdiff(log, tampered(name, edit))
        assert proc.returncode == 1, name
        assert "structural difference" in proc.stderr, name
