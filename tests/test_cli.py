"""End-to-end command line: run artifacts, verification, replay, config errors."""

import csv
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from drostream.ambiguity import radius as ball_radius
from drostream import certificates, cli
from drostream.audit import verify_events
from drostream.certificates import plan_from_entries
from drostream.cli import main
from drostream.presets import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    from_dict,
    materialize,
    study1,
)
from drostream.runner import run
from drostream.simplex import SolverError


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


def test_the_cli_writes_the_runner_log_and_tracks_the_cover(run_dir,
                                                            tmp_path):
    out = tmp_path / "cover-run"
    assert main(["run", "--preset", "study1", "--seed", "0", "--n0", "12",
                 "--cover", "--skip-jstar", "--out-dir", str(out)]) == 0
    for path, cover in ((run_dir, False), (out, True)):
        config = json.loads((path / "summary.json").read_text())["config"]
        mat = materialize(from_dict(config))
        result = run(mat.run_config, mat.stream)
        log = "".join(json.dumps(ev.record()) + "\n" for ev in result.events)
        assert (path / "events.jsonl").read_text() == log
        # a certificate's row holds the cover size after the latest arrival
        sizes, size = [], ""
        for ev in result.events:
            if ev.kind == "DataArrival" and cover:
                size = str(ev.extras["cover_size"])
            elif ev.kind == "CertificatePosted":
                sizes.append(size)
        with open(path / "trajectory.csv") as fh:
            assert [r["cover_size"] for r in csv.DictReader(fh)] == sizes
        assert (set(sizes) == {""}) is not cover


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
            rec["y"][0][2] = float("nan")
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


def test_verify_rejects_a_cover_radius_widened_by_omega(tmp_path, capsys):
    # eps + omega is not the radius a cover run posts: the ball is widened
    # by the cover's own transport slack
    out = tmp_path / "cover-run"
    assert main([
        "run", "--preset", "study1", "--seed", "0", "--n0", "12", "--cover",
        "--skip-jstar", "--out-dir", str(out),
    ]) == 0
    config = json.loads((out / "summary.json").read_text())["config"]
    mat = materialize(from_dict(config))
    rc = mat.run_config
    path = out / "events.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    picked = max(i for i, rec in enumerate(records)
                 if rec["kind"] == "CertificatePosted")
    rec = records[picked]
    rec["radius"] = (ball_radius(rc.concentration, rec["beta"], rec["n"])
                     + rc.cover.omega)
    report = verify_events(records, mat.model, rc.concentration, rc.schedule,
                           rc.cover, tolerances=rc.tolerances)
    failed = {c.name: c.failures for c in report.checks}
    assert failed["radius_schedule"] == 1 == sum(failed.values()), failed
    assert f"record {picked}: radius mismatch" in report.failures
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"record {picked}: radius mismatch" in err
    assert "FAILED" in err


def test_verify_reports_a_corrupted_arrival_and_exits_1(
        run_dir, tmp_path, capsys):
    lines = (run_dir / "events.jsonl").read_text().splitlines()
    picked = max(i for i, line in enumerate(lines)
                 if json.loads(line)["kind"] == "DataArrival")
    rec = json.loads(lines[picked])
    rec["point"][0] = float("nan")
    lines[picked] = json.dumps(rec)
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    (tampered / "events.jsonl").write_text("\n".join(lines) + "\n")
    (tampered / "summary.json").write_text(
        (run_dir / "summary.json").read_text())
    capsys.readouterr()
    assert main(["verify", str(tampered)]) == 1
    err = capsys.readouterr().err
    assert f"record {picked}: arrival point missing" in err
    assert "FAILED" in err


def test_verify_reports_a_malformed_certificate_and_exits_1(
        run_dir, tmp_path, capsys):
    lines = (run_dir / "events.jsonl").read_text().splitlines()
    picked = next(i for i, line in enumerate(lines)
                  if json.loads(line)["kind"] == "CertificatePosted")
    rec = json.loads(lines[picked])
    rec["radius"] = None
    lines[picked] = json.dumps(rec)
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    (tampered / "events.jsonl").write_text("\n".join(lines) + "\n")
    (tampered / "summary.json").write_text(
        (run_dir / "summary.json").read_text())
    capsys.readouterr()
    assert main(["verify", str(tampered)]) == 1
    err = capsys.readouterr().err
    assert f"record {picked}: certificate J, x, tol or radius missing" in err
    assert "FAILED" in err


def _legacy_dense(rec):
    # the run has no cover, so the window holds n atoms of dimension 3
    rec["y"] = plan_from_entries(rec["y"], (rec["n"], 3)).tolist()


@pytest.mark.parametrize("kind, tamper, message", [
    ("CertificatePosted", lambda rec: rec.update(y=[[rec["n"], 0, 1.0]]),
     "plan coordinate outside the window"),
    ("CertificatePosted", lambda rec: rec.update(y=[rec["y"][0]] * 2),
     "plan coordinates repeat"),
    ("CertificatePosted", lambda rec: rec.update(y=[[0.5, 0, 1.0]]),
     "plan coordinate not an integer"),
    ("CertificatePosted", lambda rec: rec["y"][0].__setitem__(2, float("nan")),
     "plan or decision not finite"),
    ("CertificatePosted", lambda rec: rec.update(y=[rec["y"][0] + [0.0]]),
     "plan ragged or not numeric"),
    ("CertificatePosted", _legacy_dense, "plan coordinate not an integer"),
    ("DecisionStep", lambda rec: rec.update(x=[0.0]), "step x is not null"),
    ("BestUpdated", lambda rec: rec.update(x=[0.0]), "best x is not null"),
], ids=["y-outside", "y-repeated", "y-non-integer", "y-nan-value",
        "y-row-length", "y-legacy-dense", "step-x", "best-x"])
def test_verify_reports_a_malformed_plan_or_step_and_exits_1(
        run_dir, tmp_path, capsys, kind, tamper, message):
    lines = (run_dir / "events.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    picked = max(i for i, rec in enumerate(records)
                 if rec["kind"] == kind and "y_ref" not in rec)
    tamper(records[picked])
    lines[picked] = json.dumps(records[picked])
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    (tampered / "events.jsonl").write_text("\n".join(lines) + "\n")
    (tampered / "summary.json").write_text(
        (run_dir / "summary.json").read_text())
    capsys.readouterr()
    assert main(["verify", str(tampered)]) == 1
    err = capsys.readouterr().err
    assert f"record {picked}: {message}" in err
    assert "FAILED" in err


@pytest.mark.parametrize("kind", ["DecisionStep", "BestUpdated"])
def test_verify_reports_a_link_to_an_earlier_certificate_and_exits_1(
        run_dir, tmp_path, capsys, kind):
    lines = (run_dir / "events.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    # the record names the certificate before its own, at that one's value
    picked = next(i for i, rec in enumerate(records) if rec["kind"] == kind)
    own = records[picked]["cert_seq"]
    earlier = max(j for j in range(own)
                  if records[j]["kind"] == "CertificatePosted")
    records[picked].update(cert_seq=earlier, J=records[earlier]["J"])
    lines[picked] = json.dumps(records[picked])
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    (tampered / "events.jsonl").write_text("\n".join(lines) + "\n")
    (tampered / "summary.json").write_text(
        (run_dir / "summary.json").read_text())
    capsys.readouterr()
    assert main(["verify", str(tampered)]) == 1
    err = capsys.readouterr().err
    assert f"names certificate {earlier}, not the latest {own}" in err
    assert "FAILED" in err


@pytest.mark.parametrize("kind, message", [
    ("EpochConverged", "epoch x != best certificate"),
    ("Terminated", "final x != best certificate's"),
], ids=["epoch", "final"])
def test_verify_reports_a_shifted_output_decision_and_exits_1(
        run_dir, tmp_path, capsys, kind, message):
    lines = (run_dir / "events.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    picked = max(i for i, rec in enumerate(records) if rec["kind"] == kind)
    records[picked]["x"] = [v + 5.0 for v in records[picked]["x"]]
    lines[picked] = json.dumps(records[picked])
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    (tampered / "events.jsonl").write_text("\n".join(lines) + "\n")
    (tampered / "summary.json").write_text(
        (run_dir / "summary.json").read_text())
    capsys.readouterr()
    assert main(["verify", str(tampered)]) == 1
    err = capsys.readouterr().err
    assert f"record {picked}: {message}" in err
    assert "FAILED" in err


def test_verify_reports_an_output_that_is_not_the_epochs_best_and_exits_1(
        run_dir, tmp_path, capsys):
    # the last epoch's convergence and the termination name, with its J and
    # x, the epoch's other certificate, whose J is higher than the best's
    lines = (run_dir / "events.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    end, stop = (max(i for i, rec in enumerate(records) if rec["kind"] == kind)
                 for kind in ("EpochConverged", "Terminated"))
    best = records[end]["best_seq"]
    other = next(j for j, rec in enumerate(records)
                 if rec["kind"] == "CertificatePosted" and j != best
                 and rec["l"] == records[best]["l"])
    assert records[other]["J"] > records[best]["J"]
    for i in (end, stop):
        records[i].update(best_seq=other, J=records[other]["J"],
                          x=records[other]["x"])
        lines[i] = json.dumps(records[i])
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    (tampered / "events.jsonl").write_text("\n".join(lines) + "\n")
    (tampered / "summary.json").write_text(
        (run_dir / "summary.json").read_text())
    capsys.readouterr()
    assert main(["verify", str(tampered)]) == 1
    captured = capsys.readouterr()
    assert "best_tracking: FAIL (" in captured.out
    assert "termination: FAIL (" in captured.out
    assert (f"record {end}: epoch best names certificate {other}, not the "
            f"epoch's best {best}") in captured.err
    assert (f"record {stop}: final best names certificate {other}, not the "
            f"epoch's best {best}") in captured.err


def test_verify_checks_the_posted_tolerance_and_exits_1(
        run_dir, tmp_path, capsys):
    lines = (run_dir / "events.jsonl").read_text().splitlines()
    picked = next(i for i, line in enumerate(lines)
                  if json.loads(line)["kind"] == "CertificatePosted")
    rec = json.loads(lines[picked])
    rec["tol"] = 1e9
    lines[picked] = json.dumps(rec)
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    (tampered / "events.jsonl").write_text("\n".join(lines) + "\n")
    (tampered / "summary.json").write_text(
        (run_dir / "summary.json").read_text())
    capsys.readouterr()
    assert main(["verify", str(tampered)]) == 1
    err = capsys.readouterr().err
    assert f"record {picked}: tolerance 1000000000.0 is not the run's" in err
    assert "FAILED" in err


def test_a_failed_run_leaves_its_events_and_a_failed_summary(
        tmp_path, monkeypatch, capsys):
    # the hull ascent fails on its fifth call, after some certificates
    real = certificates.afwa_maximize
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 5:
            raise SolverError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(certificates, "afwa_maximize", failing)
    out = tmp_path / "failed"
    assert main(["run", "--preset", "study1", "--seed", "0", "--n0", "12",
                 "--out-dir", str(out), "--skip-jstar"]) == 1
    assert "run failed: SolverError: injected failure" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "failed"
    assert summary["error"] == "SolverError: injected failure"
    assert "injected failure" in summary["traceback"]
    assert (summary["config"]["preset"], summary["config"]["n0"]) == (
        "study1", 12)
    records = [json.loads(line)
               for line in (out / "events.jsonl").read_text().splitlines()]
    assert [r["seq"] for r in records] == list(range(len(records)))
    assert any(r["kind"] == "CertificatePosted" for r in records)
    assert (out / "stream.jsonl").exists()
    # the prefix audits clean but for its missing termination
    assert main(["verify", str(out)]) == 1
    captured = capsys.readouterr()
    assert "termination: FAIL (1 checked, 1 failed)" in captured.out
    assert captured.out.count("FAIL") == 1
    assert "log does not end with a termination event" in captured.err


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


def test_replay_names_a_non_finite_sample_and_exits_1(run_dir, tmp_path,
                                                       capsys):
    clone = tmp_path / "clone"
    clone.mkdir()
    for name in ("summary.json", "events.jsonl"):
        (clone / name).write_text((run_dir / name).read_text())
    lines = (run_dir / "stream.jsonl").read_text().splitlines()
    rec = json.loads(lines[3])
    rec["value"][1] = float("nan")
    lines[3] = json.dumps(rec)
    (clone / "stream.jsonl").write_text("\n".join(lines) + "\n")
    assert main(["replay", str(clone)]) == 1
    assert ("replay run failed: ValueError: sample 3 is not a finite vector "
            "of dimension 3") in capsys.readouterr().err


@pytest.mark.parametrize("preset", ["study1", "study2"])
def test_run_rejects_a_horizon_stop_that_is_never_reached(preset, tmp_path,
                                                          capsys, monkeypatch):
    # were the config accepted, the run would never end: fail instead
    def never(*args, **kwargs):
        raise AssertionError("an unbounded run was launched")

    monkeypatch.setattr(cli, "run", never)
    data = PRESETS[preset]().to_dict()
    data["stop_rule"] = "horizon"
    path = tmp_path / "horizon.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: stop_rule:" in err and "horizon is capped" in err
    assert not out.exists()


def test_replay_reproduces_the_coupled_pinned_run(tmp_path, capsys):
    # study1 with a coupled b at a tight budget: refreshes and interrupts
    # both, with the counters test_runner.py pins for it
    data = study1().to_dict()
    data.update(n0=40, cost_budget_per_period=5000.0)
    data["model"]["b"] = [[1.0, 0.5, -1.0]]
    path = tmp_path / "coupled.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out-dir", str(out),
                 "--skip-jstar"]) == 0
    totals = json.loads((out / "summary.json").read_text())["totals"]
    assert totals == {"steps": 215, "epochs": 28, "interrupts": 33,
                      "reuses": 36, "refreshes": 158, "lp_calls": 634,
                      "cp_calls": 218, "afwa_iters": 5064}
    capsys.readouterr()
    assert main(["replay", str(out)]) == 0
    assert "identical (532 events)" in capsys.readouterr().out
    assert main(["verify", str(out)]) == 0


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


def test_to_dict_leaves_the_presets_alone():
    data = study1().to_dict()
    assert list(data) == [f.name for f in dataclasses.fields(ExperimentConfig)]
    data["mixture"]["weights"][0] = 0.9
    data["tolerances"]["eps1"] = 1.0
    fresh = study1()
    assert fresh.mixture["weights"] == [0.25, 0.5, 0.25]
    assert fresh.tolerances["eps1"] == 1e-5


def test_a_config_with_step_norm_is_rejected():
    data = study1().to_dict()
    data["step_norm"] = "l1"
    with pytest.raises(ConfigError, match="step_norm"):
        from_dict(data)


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


def test_importing_the_package_loads_no_scipy(src_env):
    code = (
        "import drostream, drostream.cli, sys; "
        "print([m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')])"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_missing_run_dir_is_a_usage_error(tmp_path):
    assert main(["verify", str(tmp_path / "nowhere")]) == 2
    assert main(["replay", str(tmp_path / "nowhere")]) == 2


def test_a_non_symmetric_covariance_exits_2_everywhere(run_dir, tmp_path,
                                                       capsys):
    cfg = study1().to_dict()
    cfg["mixture"]["covariances"][0][0][1] = 0.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["run", "--config", str(path), "--out-dir",
                 str(tmp_path / "out")]) == 2
    assert "mixture: covariance must be symmetric" in capsys.readouterr().err

    tampered = tmp_path / "tampered"
    tampered.mkdir()
    for name in ("events.jsonl", "stream.jsonl"):
        (tampered / name).write_text((run_dir / name).read_text())
    summary = json.loads((run_dir / "summary.json").read_text())
    summary["config"] = cfg
    (tampered / "summary.json").write_text(json.dumps(summary))
    for command in ("verify", "replay"):
        assert main([command, str(tampered)]) == 2
        err = capsys.readouterr().err
        assert "mixture: covariance must be symmetric" in err


def _drop_config(text):
    return json.dumps({k: v for k, v in json.loads(text).items()
                       if k != "config"})


def _drop_first_value(text):
    lines = text.splitlines()
    rec = json.loads(lines[0])
    del rec["value"]
    return "\n".join([json.dumps(rec)] + lines[1:]) + "\n"


@pytest.mark.parametrize("name, corrupt, commands", [
    ("summary.json", _drop_config, ("verify", "replay")),
    ("summary.json", lambda text: text[:-20], ("verify", "replay")),
    ("stream.jsonl", _drop_first_value, ("replay",)),
    ("stream.jsonl", lambda text: text[:-20], ("replay",)),
    ("events.jsonl", lambda text: text[:-20], ("verify",)),
])
def test_an_unreadable_artifact_exits_2(run_dir, tmp_path, capsys, name,
                                        corrupt, commands):
    clone = tmp_path / "clone"
    clone.mkdir()
    for artifact in ("events.jsonl", "stream.jsonl", "summary.json"):
        text = (run_dir / artifact).read_text()
        (clone / artifact).write_text(corrupt(text) if artifact == name
                                      else text)
    capsys.readouterr()
    for command in commands:
        assert main([command, str(clone)]) == 2
        assert f"{name}: unreadable" in capsys.readouterr().err


def test_summary_totals_list_the_run_totals_in_order(run_dir):
    from drostream.runner import RunTotals

    summary = json.loads((run_dir / "summary.json").read_text())
    assert list(summary["totals"]) == [
        f.name for f in dataclasses.fields(RunTotals)]
    assert list(summary["totals"]) == [
        "steps", "epochs", "interrupts", "reuses", "refreshes", "lp_calls",
        "cp_calls", "afwa_iters"]
