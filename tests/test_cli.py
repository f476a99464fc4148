"""End-to-end command line: run artifacts, verification, replay, config errors."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from drostream.cli import main
from drostream.presets import from_dict, study1


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "study1-smoke"
    code = main([
        "run", "--preset", "study1", "--seed", "0", "--n0", "12",
        "--out-dir", str(out),
    ])
    assert code == 0
    return out


def test_run_writes_all_artifacts(run_dir):
    for name in ("events.jsonl", "trajectory.csv", "summary.json",
                 "stream.jsonl"):
        assert (run_dir / name).exists(), name
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["final"]["n"] == 12
    assert summary["final"]["j_star_est"] is not None
    assert summary["final"]["rel_error"] is not None
    assert summary["totals"]["cp_calls"] >= 1
    assert summary["config"]["preset"] == "study1"


def test_trajectory_has_the_documented_columns(run_dir):
    with open(run_dir / "trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "trajectory must hold at least one certificate row"
    assert list(rows[0]) == [
        "virtual_time", "n", "r", "J_eps1", "rel_error", "cover_size",
        "cp_count",
    ]
    counts = [int(r["cp_count"]) for r in rows]
    assert counts == sorted(counts)
    times = [float(r["virtual_time"]) for r in rows]
    assert times == sorted(times)


def test_verify_passes_on_a_fresh_run(run_dir, capsys):
    assert main(["verify", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_verify_catches_a_tampered_value(run_dir, tmp_path, capsys):
    lines = (run_dir / "events.jsonl").read_text().splitlines()
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    picked = None
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if rec["kind"] == "CertificatePosted":
            rec["J"] = rec["J"] + 1e-3
            lines[i] = json.dumps(rec)
            picked = i
            break
    assert picked is not None
    (tampered / "events.jsonl").write_text("\n".join(lines) + "\n")
    (tampered / "summary.json").write_text(
        (run_dir / "summary.json").read_text())
    assert main(["verify", str(tampered)]) == 1
    assert "FAILED" in capsys.readouterr().err


def test_verify_reports_a_non_finite_plan_and_exits_1(tmp_path, capsys):
    out = tmp_path / "cover-run"
    assert main([
        "run", "--preset", "study1", "--seed", "0", "--n0", "12", "--cover",
        "--skip-jstar", "--out-dir", str(out),
    ]) == 0
    path = out / "events.jsonl"
    lines = path.read_text().splitlines()
    picked = None
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if rec["kind"] == "CertificatePosted" and "y" in rec:
            rec["y"][0][0] = float("nan")
            lines[i] = json.dumps(rec)
            picked = i
            break
    assert picked is not None
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"record {picked}: plan or decision not finite" in err
    assert "FAILED" in err


def test_replay_reproduces_the_event_log(run_dir, capsys):
    assert main(["replay", str(run_dir)]) == 0
    assert "identical" in capsys.readouterr().out


def test_replay_detects_a_divergent_log(run_dir, tmp_path):
    clone = tmp_path / "clone"
    clone.mkdir()
    for name in ("summary.json", "stream.jsonl"):
        (clone / name).write_text((run_dir / name).read_text())
    lines = (run_dir / "events.jsonl").read_text().splitlines()
    rec = json.loads(lines[0])
    rec["t"] = rec["t"] + 0.5
    lines[0] = json.dumps(rec)
    (clone / "events.jsonl").write_text("\n".join(lines) + "\n")
    assert main(["replay", str(clone)]) == 1


def test_unknown_config_field_is_a_usage_error(tmp_path, capsys):
    cfg = study1().to_dict()
    cfg["cover"]["omgea"] = 1.0  # typo should be named in the message
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out-dir",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "cover" in err and "omgea" in err


def test_config_survives_a_round_trip(tmp_path):
    cfg = study1(seed=3)
    data = json.loads(json.dumps(cfg.to_dict()))
    assert from_dict(data) == cfg


def test_custom_config_runs_study2_at_desk_scale(tmp_path):
    from drostream.presets import study2

    cfg = study2(seed=0).to_dict()
    cfg["n0"] = 25
    cfg["n_validation"] = 200
    path = tmp_path / "study2-small.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final"]["n"] == 25
    assert summary["cover"]["enabled"] is True
    assert summary["cover"]["final_size"] <= 25
    assert main(["verify", str(out)]) == 0


def test_installed_entry_point_answers_help(src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "drostream.cli", "--help"] ,
        capture_output=True, text=True, env=src_env,
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "verify" in proc.stdout


def test_missing_run_dir_is_a_usage_error(tmp_path):
    assert main(["verify", str(tmp_path / "nowhere")]) == 2
    assert main(["replay", str(tmp_path / "nowhere")]) == 2
