"""End-to-end command line: run artifacts, verification, replay, config errors."""

import csv
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
from drostream.runner import Samples, run
from drostream.simplex import SolverError
from drostream.stream import expected_cost

from runlog import (BOOL_TAMPERS, COUNTER_TAMPERS, KEY_TAMPERS, MISSING_KEYS,
                    PLAN_TAMPERS, REUSE_TAMPERS, STEP_TAMPERS,
                    converge_a_step_early,
                    drop_key, dropped_keys, epoch_starts, restart_from,
                    run_with_decisions)

LOGDIFF = Path(__file__).resolve().parents[1] / "scripts" / "logdiff.py"


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "study1-smoke"
    code = main([
        "run", "--preset", "study1", "--seed", "0", "--n0", "12",
        "--out-dir", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_decisions(run_dir):
    """The decision of each certificate in ``run_dir``'s log, by seq, from
    the same run repeated in process with the runner's steps recorded."""
    mat = materialize(dataclasses.replace(study1(seed=0), n0=12))
    res, decisions = run_with_decisions(mat.run_config, mat.stream)
    assert [json.dumps(ev.record()) for ev in res.events] == (
        run_dir / "events.jsonl").read_text().splitlines()
    return decisions


@pytest.fixture(scope="module")
def run_config():
    """The run config of ``run_dir``'s run."""
    return materialize(dataclasses.replace(study1(seed=0), n0=12),
                       stream=[]).run_config


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


def test_summary_reports_the_exact_optimum_and_the_guarantee_margin(run_dir):
    # study1's J* is E f(0, xi) = -38.5; the final decision's expected cost
    # is exact too, and the margin is how far the certificate bounds it
    summary = json.loads((run_dir / "summary.json").read_text())
    final = summary["final"]
    assert (final["x_star_est"], final["j_star_est"]) == ([0.0], -38.5)
    assert final["rel_error"] == abs(final["j_best"] + 38.5) / 38.5
    mat = materialize(from_dict(summary["config"]), stream=[])
    oos = expected_cost(mat.model, np.array(final["x_best"]), mat.mixture)
    assert final["oos_cost"] == oos
    assert final["guarantee_margin"] == final["j_best"] - oos > 0


def test_a_cost_without_a_minimum_writes_no_reference_optimum(tmp_path):
    # A = diag(1, 0) and x2 multiplies the mean's first coordinate, -1, so
    # E f(x, xi) falls without bound along x2: no J*, no relative error
    data = study1().to_dict()
    data.update(n0=4)
    data["model"].update(a=[[1.0, 0.0], [0.0, 0.0]],
                         b=[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    data["tolerances"].update(eps2=0.5, eps_sa=0.1, subgrad_bound=1.0)
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 0
    final = json.loads((out / "summary.json").read_text())["final"]
    assert final["j_star_est"] is final["x_star_est"] is None
    assert final["rel_error"] is None
    assert np.isfinite(final["oos_cost"])
    with open(out / "trajectory.csv") as fh:
        assert {r["rel_error"] for r in csv.DictReader(fh)} == {""}


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


@pytest.mark.parametrize("preset, n0, cover", [
    ("study1", 12, False), ("study2", 10, True)], ids=["study1",
                                                      "study2-cover"])
def test_the_trajectory_counts_the_hull_solves_of_its_certificates(
        preset, n0, cover, tmp_path):
    # only a refresh posts its work: a reuse's is one revalidation search
    # and no hull solve. So the last row's cp_count is the sum of the posted
    # cp_calls, and on these runs, which no arrival interrupts, every hull
    # solve of the run
    out = tmp_path / "run"
    assert main(["run", "--preset", preset, "--seed", "0", "--n0", str(n0),
                 *(["--cover"] if cover else []), "--out-dir", str(out)]) == 0
    records = [json.loads(line)
               for line in (out / "events.jsonl").read_text().splitlines()]
    certs = [r for r in records if r["kind"] == "CertificatePosted"]
    assert any("cp_calls" not in r for r in certs)
    with open(out / "trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(certs)
    posted = sum(r.get("cp_calls", 0) for r in certs)
    totals = json.loads((out / "summary.json").read_text())["totals"]
    assert totals["interrupts"] == 0
    assert int(rows[-1]["cp_count"]) == posted == totals["cp_calls"]


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
                 "--cover", "--out-dir", str(out)]) == 0
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
        "--out-dir", str(out),
    ]) == 0
    path = out / "events.jsonl"
    lines = path.read_text().splitlines()
    picked = None
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if rec["kind"] == "CertificatePosted" and "y" in rec:
            rec["y"][1][0] = float("nan")
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
    # eps + omega is not the radius of a cover run's ball: the audit widens
    # eps by the cover's own transport slack, which is smaller, so a plan
    # that spends between the two fails the budget
    out = tmp_path / "cover-run"
    assert main([
        "run", "--preset", "study1", "--seed", "0", "--n0", "12", "--cover",
        "--out-dir", str(out),
    ]) == 0
    config = json.loads((out / "summary.json").read_text())["config"]
    mat = materialize(from_dict(config))
    rc = mat.run_config
    path = out / "events.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    samples = Samples(mat.model.dimension_m, rc.n0, rc.concentration,
                      rc.schedule, rc.cover)
    for rec in records:
        if rec["kind"] == "DataArrival":
            samples.add(rec["point"], rec["index"])
    window, radius = samples.ball()
    widened = radius - samples.cover.transport_slack() + rc.cover.omega
    assert radius < widened
    # the last refresh moves the first center, by a plan that spends
    # halfway between the two radii
    picked = max(i for i, rec in enumerate(records) if "y" in rec)
    spend = (radius + widened) / 2
    records[picked]["y"] = [[0], [float(spend * rc.n0 / window.theta[0])]]
    report = verify_events(records, mat.model, rc.concentration, rc.schedule,
                           rc.cover, tolerances=rc.tolerances)
    failed = {c.name: c.failures for c in report.checks}
    assert failed["certificate_budget"] >= 1 and not failed["structure"]
    message = f"record {picked}: budget "
    assert any(f.startswith(message) and f.endswith(f"exceeds radius {radius}")
               for f in report.failures), report.failures
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err
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
    rec["tol"] = None
    lines[picked] = json.dumps(rec)
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    (tampered / "events.jsonl").write_text("\n".join(lines) + "\n")
    (tampered / "summary.json").write_text(
        (run_dir / "summary.json").read_text())
    capsys.readouterr()
    assert main(["verify", str(tampered)]) == 1
    err = capsys.readouterr().err
    assert f"record {picked}: certificate J, x or tol missing" in err
    assert "FAILED" in err


def _legacy_dense(rec, n):
    # the run has no cover, so the window holds n atoms of dimension 3
    rec["y"] = plan_from_entries(rec["y"], (n, 3)).tolist()


def _last(where):
    """The index of the last record that ``where`` holds for."""
    return lambda records: max(i for i, rec in enumerate(records)
                               if where(rec))


def _refresh(rec):
    return rec["kind"] == "CertificatePosted" and "y" in rec


def _last_best_step(records):
    """The index of the last step certificate that lowered its epoch's best
    J, where a best update used to follow."""
    best, found = None, None
    for i, rec in enumerate(records):
        if rec["kind"] != "CertificatePosted":
            continue
        if "alpha" not in rec:
            best = rec["J"]
        elif rec["J"] < best:
            best, found = rec["J"], i
    return found


# each tamper edits a record given the number n of arrivals before it,
# which is the number of atoms of its window
@pytest.mark.parametrize("pick, tamper, message", [
    (_last(_refresh), lambda rec, n: rec.update(y=[[n * 3], [1.0]]),
     "plan index outside the window"),
    (_last(_refresh),
     lambda rec, n: rec.update(y=[[rec["y"][0][0]] * 2, [rec["y"][1][0]] * 2]),
     "plan indices repeat"),
    (_last(_refresh), lambda rec, n: rec.update(y=[[0.5], [1.0]]),
     "plan index not an integer"),
    (_last(_refresh),
     lambda rec, n: rec["y"][1].__setitem__(0, float("nan")),
     "plan or decision not finite"),
    (_last(_refresh), lambda rec, n: rec.update(y=rec["y"] + [[0.0]]),
     "plan not [indices, values]"),
    # n rows of 3 entries, for the n > 2 atoms of the window
    (_last(_refresh), _legacy_dense, "plan not [indices, values]"),
    (_last(lambda rec: "alpha" in rec), lambda rec, n: rec.update(x=[0.0]),
     "CertificatePosted carries 'x', not keys of its form"),
    # the step that lowers its epoch's best posts no x either: the epoch's
    # outputs copy the x derived for it
    (_last_best_step, lambda rec, n: rec.update(x=[0.0]),
     "CertificatePosted carries 'x', not keys of its form"),
], ids=["y-outside", "y-repeated", "y-non-integer", "y-nan-value",
        "y-row-length", "y-legacy-dense", "step-x", "best-x"])
def test_verify_reports_a_malformed_plan_or_step_and_exits_1(
        run_dir, tmp_path, capsys, pick, tamper, message):
    lines = (run_dir / "events.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    picked = pick(records)
    tamper(records[picked],
           sum(rec["kind"] == "DataArrival" for rec in records[:picked]))
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


@pytest.mark.parametrize("tamper", PLAN_TAMPERS.values(),
                         ids=PLAN_TAMPERS.keys())
def test_verify_reports_a_plan_outside_its_form_and_exits_1(
        run_dir, run_config, tmp_path, capsys, tamper):
    records = [json.loads(line) for line in
               (run_dir / "events.jsonl").read_text().splitlines()]
    picked, message = tamper(records, run_config)
    code, captured = verify_tampered(run_dir, tmp_path, capsys, records)
    assert code == 1
    assert "structure: FAIL (" in captured.out
    assert f"record {picked}: {message}\n" in captured.err


@pytest.mark.parametrize("kind", ["EpochConverged", "Terminated"],
                         ids=["epoch", "final"])
def test_verify_reports_a_shifted_output_decision_and_exits_1(
        run_dir, run_decisions, run_config, tmp_path, capsys, kind):
    # the output is the best certificate's decision, which the audit
    # derives: an output record that posts a decision fails structure
    lines = (run_dir / "events.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    picked = max(i for i, rec in enumerate(records) if rec["kind"] == kind)
    x = dropped_keys(records, run_decisions, run_config)[picked]["x"]
    records[picked]["x"] = [v + 5.0 for v in x]
    lines[picked] = json.dumps(records[picked])
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    (tampered / "events.jsonl").write_text("\n".join(lines) + "\n")
    (tampered / "summary.json").write_text(
        (run_dir / "summary.json").read_text())
    capsys.readouterr()
    assert main(["verify", str(tampered)]) == 1
    err = capsys.readouterr().err
    assert f"record {picked}: {kind} carries 'x', not keys of its form" in err
    assert "FAILED" in err


def test_verify_reports_an_output_that_is_not_the_epochs_best_and_exits_1(
        run_dir, run_decisions, run_config, tmp_path, capsys):
    # the first epoch's output, which the second starts from, is its best
    # certificate: a second epoch generated from the epoch's first, whose J
    # is higher, fails where the audit re-prices it
    records = [json.loads(line) for line in
               (run_dir / "events.jsonl").read_text().splitlines()]
    end = next(i for i, rec in enumerate(records)
               if rec["kind"] == "EpochConverged")
    best = dropped_keys(records, run_decisions, run_config)[end]["best_seq"]
    assert records[1]["J"] > records[best]["J"]
    start = restart_from(records, run_decisions, run_config, 1)
    code, captured = verify_tampered(run_dir, tmp_path, capsys, records)
    assert code == 1
    assert "certificate_value: FAIL (" in captured.out
    assert "structure: ok (" in captured.out
    assert f"record {start}: J recomputed" in captured.err


def shift_a_step(records):
    """A step certificate posts a distance moved, which the audit derives;
    returns its seq and the edited seqs."""
    seq = next(i for i, r in enumerate(records) if "alpha" in r)
    records[seq]["moved"] = 1.0
    return seq, [seq]


def flip_an_epoch_start(records):
    """The second epoch's first certificate posts the negated start of the
    run as its decision, where the audit derives the first epoch's best.
    Returns that certificate's seq and the edited seqs."""
    seq = epoch_starts(records)[1]
    records[seq]["x"] = [-v for v in records[1]["x"]]
    return seq, [seq]


@pytest.mark.parametrize("tamper, check, message", [
    (shift_a_step, "structure",
     "CertificatePosted carries 'moved', not keys of its form"),
    (flip_an_epoch_start, "structure",
     "CertificatePosted carries 'x', not keys of its form"),
], ids=["moved", "epoch-start"])
def test_verify_reports_a_step_that_is_not_the_runs_and_exits_1(
        run_dir, tmp_path, capsys, tamper, check, message):
    lines = (run_dir / "events.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    picked, edited = tamper(records)
    for i in edited:
        lines[i] = json.dumps(records[i])
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    (tampered / "events.jsonl").write_text("\n".join(lines) + "\n")
    (tampered / "summary.json").write_text(
        (run_dir / "summary.json").read_text())
    capsys.readouterr()
    assert main(["verify", str(tampered)]) == 1
    captured = capsys.readouterr()
    assert f"{check}: FAIL (" in captured.out
    assert f"record {picked}: {message}" in captured.err


@pytest.mark.parametrize("tamper", STEP_TAMPERS.values(),
                         ids=STEP_TAMPERS.keys())
def test_verify_reports_a_step_certificate_that_is_not_the_runs_and_exits_1(
        run_dir, run_decisions, run_config, tmp_path, capsys, tamper):
    records = [json.loads(line) for line in
               (run_dir / "events.jsonl").read_text().splitlines()]
    picked, check, message = tamper(records, run_config, run_decisions)
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    (tampered / "events.jsonl").write_text(
        "".join(json.dumps(rec) + "\n" for rec in records))
    (tampered / "summary.json").write_text(
        (run_dir / "summary.json").read_text())
    capsys.readouterr()
    assert main(["verify", str(tampered)]) == 1
    captured = capsys.readouterr()
    assert f"{check}: FAIL (" in captured.out
    assert f"record {picked}: {message}" in captured.err


@pytest.mark.parametrize("tamper", KEY_TAMPERS.values(),
                         ids=KEY_TAMPERS.keys())
def test_verify_reports_a_key_outside_its_kinds_set_and_exits_1(
        run_dir, run_decisions, tmp_path, capsys, tamper):
    records = [json.loads(line) for line in
               (run_dir / "events.jsonl").read_text().splitlines()]
    config = json.loads((run_dir / "summary.json").read_text())["config"]
    rc = materialize(from_dict(config), stream=[]).run_config
    picked, message = tamper(records, rc, run_decisions)
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    (tampered / "events.jsonl").write_text(
        "".join(json.dumps(rec) + "\n" for rec in records))
    (tampered / "summary.json").write_text(
        (run_dir / "summary.json").read_text())
    capsys.readouterr()
    assert main(["verify", str(tampered)]) == 1
    captured = capsys.readouterr()
    # the key is the only failure
    failing = [line for line in captured.out.splitlines() if "FAIL" in line]
    assert len(failing) == 1
    assert failing[0].startswith("structure: FAIL (")
    assert failing[0].endswith(", 1 failed)")
    assert f"record {picked}: {message}" in captured.err


def verify_tampered(run_dir, tmp_path, capsys, records):
    """``drostream verify``'s exit code and output on ``run_dir`` with its
    log replaced by ``records``."""
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    (tampered / "events.jsonl").write_text(
        "".join(json.dumps(rec) + "\n" for rec in records))
    (tampered / "summary.json").write_text(
        (run_dir / "summary.json").read_text())
    capsys.readouterr()
    code = main(["verify", str(tampered)])
    return code, capsys.readouterr()


def test_verify_reports_a_step_length_that_is_not_the_runs_and_exits_1(
        run_dir, tmp_path, capsys):
    # a step certificate's alpha one ulp off whose derived decisions move
    # too little for any J to tell: the audit without the run's tolerances
    # takes it, and verify, which pins each step length, does not
    records = [json.loads(line) for line in
               (run_dir / "events.jsonl").read_text().splitlines()]
    config = json.loads((run_dir / "summary.json").read_text())["config"]
    mat = materialize(from_dict(config), stream=[])
    rc = mat.run_config
    steps = [i for i, rec in enumerate(records) if "alpha" in rec]
    for picked, to in [(i, to) for i in steps for to in (math.inf, -math.inf)]:
        edited = [dict(rec) for rec in records]
        edited[picked]["alpha"] = math.nextafter(records[picked]["alpha"], to)
        if verify_events(edited, mat.model, rc.concentration, rc.schedule,
                         rc.cover).ok:
            break
    else:
        pytest.fail("no one-ulp step length edit passes the unpinned audit")
    code, captured = verify_tampered(run_dir, tmp_path, capsys, edited)
    assert code == 1
    failing = [line for line in captured.out.splitlines() if "FAIL" in line]
    assert failing == [f"step_links: FAIL ({len(steps)} checked, 1 failed)"]
    assert f"record {picked}: step alpha" in captured.err


@pytest.mark.parametrize("kind, key", MISSING_KEYS,
                         ids=[key for _, key in MISSING_KEYS])
def test_verify_reports_a_missing_key_and_exits_1(
        run_dir, tmp_path, capsys, kind, key):
    records = [json.loads(line) for line in
               (run_dir / "events.jsonl").read_text().splitlines()]
    picked, message = drop_key(records, kind, key)
    code, captured = verify_tampered(run_dir, tmp_path, capsys, records)
    assert code == 1
    failing = [line for line in captured.out.splitlines() if "FAIL" in line]
    assert failing == ["structure: FAIL "
                       f"({len(records)} checked, 1 failed)"]
    assert f"record {picked}: {message}" in captured.err


@pytest.mark.parametrize("tamper", COUNTER_TAMPERS.values(),
                         ids=COUNTER_TAMPERS.keys())
def test_verify_reports_a_wrong_step_or_epoch_count_and_exits_1(
        run_dir, tmp_path, capsys, tamper):
    records = [json.loads(line) for line in
               (run_dir / "events.jsonl").read_text().splitlines()]
    picked, message = tamper(records)
    code, captured = verify_tampered(run_dir, tmp_path, capsys, records)
    assert code == 1
    assert "structure: FAIL (" in captured.out
    assert f"record {picked}: {message}" in captured.err


@pytest.mark.parametrize("tamper", BOOL_TAMPERS.values(),
                         ids=BOOL_TAMPERS.keys())
def test_verify_reads_no_boolean_as_a_number_and_exits_1(
        run_dir, tmp_path, capsys, tamper):
    records = [json.loads(line) for line in
               (run_dir / "events.jsonl").read_text().splitlines()]
    picked, message = tamper(records)
    code, captured = verify_tampered(run_dir, tmp_path, capsys, records)
    assert code == 1
    assert "structure: FAIL (" in captured.out
    assert f"record {picked}: {message}" in captured.err


def converge_early(records, config, decisions):
    """The first epoch converges one step before its first small step."""
    end, _ = converge_a_step_early(records)
    return end, "epoch converges other than right after"


def lower_eps2(records, config, decisions):
    """The run's eps2 falls below the move that stopped the first epoch."""
    end = next(i for i, r in enumerate(records)
               if r["kind"] == "EpochConverged")
    run_config = materialize(from_dict(config), stream=[]).run_config
    moved = dropped_keys(records, decisions, run_config)[end - 1]["moved"]
    config["tolerances"]["eps2"] = 0.99 * moved
    return end, "epoch converges other than right after"


@pytest.mark.parametrize("tamper", [converge_early, lower_eps2],
                         ids=["steps", "eps2"])
def test_verify_reports_an_epoch_stop_that_is_not_the_runs_and_exits_1(
        run_dir, run_decisions, tmp_path, capsys, tamper):
    records = [json.loads(line) for line in
               (run_dir / "events.jsonl").read_text().splitlines()]
    summary = json.loads((run_dir / "summary.json").read_text())
    picked, message = tamper(records, summary["config"], run_decisions)
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    (tampered / "events.jsonl").write_text(
        "".join(json.dumps(rec) + "\n" for rec in records))
    (tampered / "summary.json").write_text(json.dumps(summary))
    capsys.readouterr()
    assert main(["verify", str(tampered)]) == 1
    captured = capsys.readouterr()
    assert "stop_rule: FAIL (" in captured.out
    assert f"record {picked}: {message}" in captured.err


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
                 "--out-dir", str(out)]) == 1
    assert "run failed: SolverError: injected failure" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "failed"
    assert summary["error"] == "SolverError: injected failure"
    assert "injected failure" in summary["traceback"]
    assert (summary["config"]["preset"], summary["config"]["n0"]) == (
        "study1", 12)
    records = [json.loads(line)
               for line in (out / "events.jsonl").read_text().splitlines()]
    arrivals = [r["index"] for r in records if r["kind"] == "DataArrival"]
    assert arrivals == list(range(len(arrivals)))
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


def logdiff(a, b):
    return subprocess.run([sys.executable, str(LOGDIFF), str(a), str(b)],
                          capture_output=True, text=True, timeout=60)


def test_replay_writes_the_replayed_log_to_its_out_dir(run_dir, tmp_path,
                                                       capsys):
    # an honest run replays to its own log, byte for byte; a log with one J
    # nudged does not, and logdiff tells it from the replayed one
    written = tmp_path / "replayed"
    assert main(["replay", str(run_dir), "--out-dir", str(written)]) == 0
    original = run_dir / "events.jsonl"
    assert (written / "events.jsonl").read_bytes() == original.read_bytes()
    proc = logdiff(original, written / "events.jsonl")
    assert proc.returncode == 0, proc.stdout + proc.stderr

    clone = tmp_path / "clone"
    clone.mkdir()
    for name in ("summary.json", "stream.jsonl"):
        (clone / name).write_text((run_dir / name).read_text())
    records = [json.loads(line) for line in original.read_text().splitlines()]
    step_certificate = next(r for r in records if "alpha" in r)
    step_certificate["J"] *= 1.0 + 1e-6
    (clone / "events.jsonl").write_text(
        "".join(json.dumps(rec) + "\n" for rec in records))
    capsys.readouterr()
    rewritten = tmp_path / "rewritten"
    assert main(["replay", str(clone), "--out-dir", str(rewritten)]) == 1
    assert "event log differs" in capsys.readouterr().err
    assert (rewritten / "events.jsonl").read_bytes() == original.read_bytes()
    proc = logdiff(clone / "events.jsonl", rewritten / "events.jsonl")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "a float differs by more than" in proc.stderr


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
    # the horizon stop is gone, since no preset run could reach it: a config
    # that still asks for it fails before any run starts
    def never(*args, **kwargs):
        raise AssertionError("a run was launched")

    monkeypatch.setattr(cli, "run", never)
    data = PRESETS[preset]().to_dict()
    data["stop_rule"] = "horizon"
    path = tmp_path / "horizon.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: <root>: unknown fields ['stop_rule']" in err
    assert not out.exists()


@pytest.fixture(scope="module")
def coupled_dir(tmp_path_factory):
    """A run of study1 with a coupled b at a tight budget: refreshes and
    interrupts both, with the counters test_runner.py pins for it."""
    data = study1().to_dict()
    data.update(n0=40, cost_budget_per_period=5000.0)
    data["model"]["b"] = [[1.0, 0.5, -1.0]]
    path = tmp_path_factory.mktemp("coupled") / "coupled.json"
    path.write_text(json.dumps(data))
    out = path.parent / "out"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 0
    return out


def test_replay_reproduces_the_coupled_pinned_run(coupled_dir, capsys):
    totals = json.loads((coupled_dir / "summary.json").read_text())["totals"]
    assert totals == {"steps": 215, "epochs": 28, "interrupts": 33,
                      "reuses": 36, "refreshes": 158, "lp_calls": 634,
                      "cp_calls": 218, "afwa_iters": 5064}
    capsys.readouterr()
    assert main(["replay", str(coupled_dir)]) == 0
    assert "identical (270 events)" in capsys.readouterr().out
    assert main(["verify", str(coupled_dir)]) == 0



@pytest.mark.parametrize("tamper", REUSE_TAMPERS.values(),
                         ids=REUSE_TAMPERS.keys())
def test_verify_reports_a_reuse_that_is_not_the_runs_and_exits_1(
        coupled_dir, tmp_path, capsys, tamper):
    # the coupled run's steps both refresh and reuse; a reuse keeps the plan
    # of the certificate before it, on its window
    records = [json.loads(line) for line in
               (coupled_dir / "events.jsonl").read_text().splitlines()]
    picked, check, message = tamper(records)
    code, captured = verify_tampered(coupled_dir, tmp_path, capsys, records)
    assert code == 1
    assert f"{check}: FAIL (" in captured.out
    assert f"record {picked}: {message}" in captured.err


def test_summary_reports_how_long_each_arrival_waited(coupled_dir):
    # from each arrival's arrival_t to the t of the first certificate whose
    # count, the arrivals before it, covers it
    latency = json.loads(
        (coupled_dir / "summary.json").read_text())["final"]["latency"]
    waits, waiting, n = [], [], 0
    for line in (coupled_dir / "events.jsonl").read_text().splitlines():
        rec = json.loads(line)
        if rec["kind"] == "DataArrival":
            n += 1
            waiting.append((n, rec["arrival_t"]))
        elif rec["kind"] == "CertificatePosted":
            waits += [rec["t"] - at for count, at in waiting if count <= n]
            waiting = [(count, at) for count, at in waiting if count > n]
    assert len(waits) == 40 and not waiting
    assert latency == {"p50": np.percentile(waits, 50),
                       "p90": np.percentile(waits, 90), "max": max(waits)}
    # the interrupts leave arrivals waiting for periods
    assert latency["max"] > 1.0

def test_verify_reports_a_step_after_its_epochs_first_small_step_and_exits_1(
        coupled_dir, tmp_path, capsys):
    # epoch 7 of the coupled run takes 18 steps before an arrival cuts it;
    # with eps2 just above its 17th step's distance, that step is the
    # epoch's first small one, where the epoch should have converged
    summary = json.loads((coupled_dir / "summary.json").read_text())
    mat = materialize(from_dict(summary["config"]))
    res, decisions = run_with_decisions(mat.run_config, mat.stream)
    records = [ev.record() for ev in res.events]
    steps = [ev.seq for ev in res.events
             if "alpha" in ev.record() and ev.l == 7]
    assert len(steps) == 18
    moved = dropped_keys(records, decisions, mat.run_config)[steps[16]][
        "moved"]
    summary["config"]["tolerances"]["eps2"] = 1.0000001 * moved
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    (tampered / "events.jsonl").write_text(
        (coupled_dir / "events.jsonl").read_text())
    (tampered / "summary.json").write_text(json.dumps(summary))
    capsys.readouterr()
    assert main(["verify", str(tampered)]) == 1
    captured = capsys.readouterr()
    failing = [line for line in captured.out.splitlines() if "FAIL" in line]
    assert failing == ["stop_rule: FAIL (16 checked, 15 failed)"]
    assert (f"record {steps[-1]}: CertificatePosted follows certificate "
            f"{steps[-2]}, its epoch's first step") in captured.err


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


# removed config keys, a nested one by its dotted path, and an old value;
# ``model.kind`` is kept, but its old value "portfolio" is removed
REMOVED_KEYS = {"step_norm": "l1", "stop_rule": "step", "n_validation": 4000,
                "step_rule": "harmonic", "schedule": "study",
                "cover.metric": "l2", "model.kind": "portfolio"}


def put_removed_key(config, key):
    """Set the removed ``key``, or a kept key's removed value, in
    ``config``; returns the error naming it."""
    *sections, name = key.split(".")
    for section in sections:
        config = config[section]
    kept = name in config
    config[name] = REMOVED_KEYS[key]
    if kept:
        return f"{key}: unknown {sections[-1]} {name} {REMOVED_KEYS[key]!r}"
    return f"{'.'.join(sections) or '<root>'}: unknown fields ['{name}']"


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_a_config_with_a_removed_key_is_rejected(key, tmp_path, capsys):
    data = study1().to_dict()
    message = put_removed_key(data, key)
    with pytest.raises(ConfigError) as info:
        from_dict(data)
    assert str(info.value) == message
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["run", "--config", str(path), "--out-dir",
                 str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_verify_rejects_a_run_directory_with_a_removed_key(run_dir, tmp_path,
                                                           capsys, key):
    old = tmp_path / "old"
    old.mkdir()
    summary = json.loads((run_dir / "summary.json").read_text())
    message = put_removed_key(summary["config"], key)
    (old / "summary.json").write_text(json.dumps(summary))
    for name in ("events.jsonl", "stream.jsonl"):
        (old / name).write_text((run_dir / name).read_text())
    for command in ("verify", "replay"):
        capsys.readouterr()
        assert main([command, str(old)]) == 2
        assert capsys.readouterr().err == f"bad run directory: {message}\n"


def test_a_config_with_a_fixed_x0_is_rejected():
    data = study1().to_dict()
    data["x0"] = {"kind": "fixed", "value": [1.0]}
    with pytest.raises(ConfigError, match="unknown x0 kind 'fixed'") as info:
        from_dict(data)
    assert info.value.path == "x0.kind"


def test_custom_config_runs_study2_at_desk_scale(tmp_path):
    from drostream.presets import study2

    cfg = study2(seed=0).to_dict()
    cfg["n0"] = 25
    path = tmp_path / "study2-small.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final"]["n"] == 25
    # the preset's cover is off by default
    assert summary["config"]["cover"]["enabled"] is False
    assert summary["cover"]["final_size"] is None
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
