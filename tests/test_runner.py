"""Event-loop behavior: sequencing, interrupts, determinism, and audits."""

import dataclasses
import functools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from drostream import certificates, presets, runner, simplex
from drostream.ambiguity import ConcentrationParams, ConfidenceSchedule
from drostream.audit import verify_events
from drostream.certificates import plan_from_entries
from drostream.model import Tolerances, quadratic_model
from drostream.runner import EVENT_KINDS, CoverConfig, RunConfig, Samples, run
from drostream.stream import SamplePoint

from oracles import (
    afwa_quadratic_reference,
    golden_min,
    robust_value_1d,
    w1_distance,
    window_measure,
)
from runlog import (BOOL_TAMPERS, COUNTER_TAMPERS, KEY_TAMPERS,
                    MISSING_KEYS, PLAN_AND_COVER_KEYS, PLAN_TAMPERS,
                    REUSE_COUNTS, REUSE_TAMPERS, STEP_TAMPERS, as_reuse,
                    ball_at, converge_a_step_early, drop_key, dropped_keys,
                    epoch_starts, put_back_counts,
                    put_back_plan_and_cover_keys,
                    put_back_plan_rows_and_reuse_counts, restart_from,
                    run_with_decisions, runner_counts, step_certificate)


def pure_quadratic():
    return quadratic_model([[1.0]], [[0.0]], [[-1.0]])


def coupled_quadratic():
    return quadratic_model([[1.0]], [[1.0]], [[-1.0]])


def schedule():
    return ConfidenceSchedule("flat", lambda n: 0.5)


def concentration():
    return ConcentrationParams(c1=2.0, c2=1.0, m=1)


def make_config(model, n0, **kw):
    base = dict(
        model=model,
        tolerances=Tolerances(eps1=1e-6, eps2=1e-3, eps_sa=1e-4,
                              subgrad_bound=5.0, lipschitz=1.0),
        concentration=concentration(),
        schedule=schedule(),
        n0=n0,
        cost_budget_per_period=1e9,
    )
    base.update(kw)
    return RunConfig(**base)


def stream(values, times=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if times is None:
        times = np.arange(1, len(values) + 1, dtype=float)
    return [
        SamplePoint(i, values[i], float(times[i])) for i in range(len(values))
    ]


def kinds(events):
    return [ev.kind for ev in events]


def test_single_point_run_posts_the_full_sequence():
    # B=0 and x0=0: the first step cannot move, so one step closes the epoch
    res = run(make_config(pure_quadratic(), 1), stream([[2.0]]))
    assert kinds(res.events) == [
        "DataArrival",
        "CertificatePosted",
        "CertificatePosted",
        "EpochConverged",
        "Terminated",
    ]
    assert res.n == 1 and res.totals.epochs == 1
    assert res.j_best == min(ev.J for ev in res.events[1:3])
    assert "y" in res.events[1].extras  # a refresh
    assert "y" not in res.events[2].extras  # a reuse


def test_starved_budget_queues_and_drains_arrivals():
    # one work unit per period: solves span many arrival times, so points
    # stack up in the queue and are ingested in batches between iterations
    cfg = make_config(coupled_quadratic(), 5, cost_budget_per_period=1.0,
                      x0=np.array([2.0]))
    res = run(cfg, stream([[1.0], [2.0], [-1.0], [0.5], [3.0]]))
    assert res.n == 5
    assert sum(k == "DataArrival" for k in kinds(res.events)) == 5
    assert res.totals.interrupts >= 1
    assert res.events[-1].kind == "Terminated"


def test_run_stops_at_the_data_budget():
    pts = stream(np.arange(10.0)[:, None] / 3.0)
    res = run(make_config(pure_quadratic(), 4), pts)
    assert res.n == 4
    assert sum(k == "DataArrival" for k in kinds(res.events)) == 4
    assert res.events[-1].kind == "Terminated"


def test_stream_shorter_than_budget_rejected():
    with pytest.raises(ValueError):
        run(make_config(pure_quadratic(), 3), stream([[1.0]]))
    with pytest.raises(ValueError):
        run(make_config(pure_quadratic(), 1, cost_budget_per_period=0.0),
            stream([[1.0]]))


@pytest.mark.parametrize("bad", [[1.0, float("nan"), 0.0], [1.0, 0.0]],
                         ids=["nan", "short"])
def test_a_bad_sample_fails_at_ingest_naming_its_index(bad):
    # the third sample is bad; it used to fail later, inside the certificate
    cfg = make_config(quadratic_model([[1.0]], np.zeros((1, 3)), -np.eye(3)), 4)
    points = stream([[0.5, 0.0, 1.0], [2.0, -1.0, 0.0]] + [[0.0] * 3] * 2)
    points[2] = SamplePoint(2, np.array(bad), points[2].arrival_time)
    with pytest.raises(ValueError,
                       match=r"^sample 2 is not a finite vector of dimension 3$"):
        run(cfg, points)


def test_counters_never_move_backward():
    cfg = make_config(coupled_quadratic(), 6, x0=np.array([1.5]))
    res = run(cfg, stream([[1.0], [2.0], [-1.0], [0.5], [3.0], [0.2]]))
    ts = [ev.t for ev in res.events]
    rs = [ev.r for ev in res.events]
    ns = [ev.n for ev in res.events]
    assert all(a <= b + 1e-12 for a, b in zip(ts, ts[1:]))
    assert all(a <= b for a, b in zip(rs, rs[1:]))
    assert all(a <= b for a, b in zip(ns, ns[1:]))


def test_best_value_improves_monotonically_within_epochs():
    # an epoch's best is its first certificate, then each later one whose J
    # is strictly lower; the next epoch starts from the last of them
    cfg = make_config(coupled_quadratic(), 4, x0=np.array([2.0]))
    res, decisions = run_with_decisions(
        cfg, stream([[1.0], [-2.0], [0.5], [1.5]]))
    best, improved, restarts = None, 0, 0
    for ev in res.events:
        if ev.kind != "CertificatePosted":
            continue
        if ev.extras["alpha"] is None:  # an epoch's first certificate
            if best is not None:
                assert decisions[ev.seq] == decisions[best.seq]
                restarts += 1
            best = ev
        elif ev.J < best.J:
            best, improved = ev, improved + 1
    assert improved > 0 and restarts > 0


def test_runs_replay_bit_identically():
    cfg = make_config(coupled_quadratic(), 5, x0=np.array([1.0]))
    pts = stream([[1.0], [2.0], [-1.0], [0.5], [3.0]])
    a = run(cfg, pts)
    b = run(cfg, pts)
    ra = json.dumps([ev.record() for ev in a.events])
    rb = json.dumps([ev.record() for ev in b.events])
    assert ra == rb
    assert np.array_equal(a.x_best, b.x_best) and a.j_best == b.j_best


def test_the_run_returns_its_last_epochs_best_decision():
    # the run terminates right after its last epoch converges, and returns
    # that epoch's best certificate: the first one of the lowest J
    cfg = make_config(coupled_quadratic(), 3, x0=np.array([1.0]))
    res, decisions = run_with_decisions(cfg, stream([[1.0], [2.0], [-1.0]]))
    assert kinds(res.events)[-2:] == ["EpochConverged", "Terminated"]
    certs = [ev for ev in res.events if ev.kind == "CertificatePosted"]
    start = max(i for i, ev in enumerate(certs) if ev.extras["alpha"] is None)
    best = min(certs[start:], key=lambda ev: ev.J)
    assert res.j_best == best.J
    assert res.x_best.tolist() == decisions[best.seq]


def test_reuse_totals_match_posted_flags():
    # a certificate's plan is its only flag: a refresh posts y, a reuse
    # none; the totals count the steps' certificates, which post alpha
    cfg = make_config(pure_quadratic(), 3, x0=np.array([2.0]))
    res = run(cfg, stream([[1.0], [2.0], [-1.0]]))
    steps = [
        ev.extras for ev in res.events
        if ev.kind == "CertificatePosted" and ev.extras["alpha"] is not None
    ]
    reused = [extras for extras in steps if "y" not in extras]
    refreshed = [extras for extras in steps if "y" in extras]
    assert len(reused) + len(refreshed) == len(steps)
    assert res.totals.reuses == len(reused) >= 1
    assert res.totals.refreshes == len(refreshed)


def test_every_prefix_of_the_log_reverifies():
    cfg = make_config(coupled_quadratic(), 4, x0=np.array([1.5]))
    res = run(cfg, stream([[1.0], [-2.0], [0.5], [1.5]]))
    records = [ev.record() for ev in res.events]
    first_cert = next(
        i for i, r in enumerate(records) if r["kind"] == "CertificatePosted"
    )
    for end in range(first_cert + 1, len(records) + 1):
        report = verify_events(
            records[:end], cfg.model, cfg.concentration, cfg.schedule
        )
        bad = [
            c for c in report.checks
            if c.name != "termination" and not c.passed
        ]
        assert not bad, (end, report.failures)
    assert verify_events(records, cfg.model, cfg.concentration,
                         cfg.schedule).ok


def cover_run():
    cfg = make_config(
        coupled_quadratic(), 6, x0=np.array([1.0]),
        cover=CoverConfig(enabled=True, omega=1.0),
    )
    return cfg, run(cfg, stream([[1.0], [1.2], [0.8], [4.0], [4.1], [1.1]]))


def audit(cfg, records):
    return verify_events(
        records, cfg.model, cfg.concentration, cfg.schedule, cfg.cover
    )


def test_cover_runs_verify_and_compress():
    cfg, res = cover_run()
    assert res.cover_size == 2
    report = audit(cfg, [ev.record() for ev in res.events])
    assert report.ok, report.failures


def plain_input():
    cfg = make_config(coupled_quadratic(), 6, x0=np.array([1.5]))
    return cfg, stream([[1.0], [-2.0], [0.5], [1.5], [3.0], [0.2]])


def plain_run():
    cfg, points = plain_input()
    return cfg, run(cfg, points)



def test_a_plain_window_is_a_read_only_view_later_arrivals_leave_alone():
    samples = Samples(2, 6, concentration(), schedule(), CoverConfig())
    for i in range(4):
        samples.add([float(i), -2.0 * i], i)
    window, _ = samples.ball()
    # no copy of the samples: the window views them
    assert np.shares_memory(window.points, samples.points)
    points, theta = window.points.tobytes(), window.theta.tobytes()
    for values in (window.points, window.theta):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 7.0
    for i in range(4, 6):
        samples.add([10.0 + i, 0.5], i)
    assert window.size == 4 and samples.ball()[0].size == 6
    assert (window.points.tobytes(), window.theta.tobytes()) == (points, theta)

def posted_plans(cfg, records):
    """(window, plan, radius) for every posted certificate, with the window
    and radius rebuilt from the logged arrivals as the audit builds them; a
    reuse's plan is the plan of the certificate before it."""
    samples = Samples(cfg.model.dimension_m, len(records), cfg.concentration,
                      cfg.schedule, cfg.cover)
    y, out = None, []
    for rec in records:
        if rec["kind"] == "DataArrival":
            samples.add(rec["point"], rec["index"])
        elif rec["kind"] == "CertificatePosted":
            window, radius = samples.ball()
            if "y" in rec:
                y = plan_from_entries(rec["y"],
                                      (window.size, window.dimension))
            out.append((window, y, radius))
    return out


@pytest.mark.parametrize("make_run", [plain_run, cover_run])
def test_budget_spent_bounds_the_exact_w1_distance(make_run):
    # the posted worst case keeps the window's weights, so the budget the
    # audit prices is a feasible coupling's cost and bounds W1 from above
    cfg, res = make_run()
    records = [ev.record() for ev in res.events]
    assert audit(cfg, records).ok
    posted = posted_plans(cfg, records)
    assert len(posted) == kinds(res.events).count("CertificatePosted") > 5
    for window, y, radius in posted:
        n = window.n_total
        spent = float(np.abs(window.theta[:, None] * y).sum()) / n
        assert spent <= radius + 1e-9
        d, _ = w1_distance(window_measure(window), window_measure(window, y))
        assert d <= spent + 1e-9


def test_audit_reports_a_non_finite_plan_without_raising():
    cfg, res = cover_run()
    records = [ev.record() for ev in res.events]
    # the first refresh that moves the second cover center, whose flat index
    # is 1 in dimension 1
    seq, at = next((seq, r["y"][0].index(1)) for seq, r in enumerate(records)
                   if r["kind"] == "CertificatePosted" and "y" in r
                   and 1 in r["y"][0])
    records[seq]["y"][1][at] = float("nan")
    report = audit(cfg, records)
    assert not report.ok
    assert f"record {seq}: plan or decision not finite" in report.failures
    structure = next(c for c in report.checks if c.name == "structure")
    assert structure.failures >= 1


def two_sample_records():
    cfg = make_config(pure_quadratic(), 2)
    return cfg, [ev.record() for ev in run(cfg, stream([[0.0], [4.0]])).events]


def swap_audit(seq, swapped_y):
    """Audit a two-sample plain run with record ``seq``'s plan replaced."""
    cfg, records = two_sample_records()
    assert records[seq]["kind"] == "CertificatePosted" and "y" in records[seq]
    records[seq]["y"] = swapped_y
    report = verify_events(records, cfg.model, cfg.concentration, cfg.schedule)
    return {c.name: c for c in report.checks}, report.failures


def test_audit_swap_fails_the_budget_check():
    # record 5 certifies the window {0, 4}; moving each atom onto the other
    # pays 4 per unit mass, beyond the radius, though the moved measure is
    # the window itself: the budget prices the plan, not the distance
    checks, failures = swap_audit(5, [[0, 1], [-4.0, 4.0]])
    assert checks["certificate_budget"].failures == 2  # record 5, reuse 6
    assert any(f.startswith("record 5: budget 4.0 exceeds") for f in failures)


def test_audit_single_atom_over_budget_fails_the_budget_check():
    # record 1 certifies the one-sample window {0} with radius about 1.18
    checks, failures = swap_audit(1, [[0], [2.0]])
    assert checks["certificate_budget"].failures == 2  # record 1, reuse 2
    assert any(f.startswith("record 1: budget 2.0 exceeds") for f in failures)


def cover_records():
    cfg, res = cover_run()
    return cfg, [ev.record() for ev in res.events]


def second_arrival(records):
    return [r for r in records if r["kind"] == "DataArrival"][1]


def swap_first_two(records):
    # the first certificate now precedes the first arrival
    records[0], records[1] = records[1], records[0]


BAD_POINT = "arrival point missing, misshapen or not finite"


@pytest.mark.parametrize("make_records, tamper, message", [
    (two_sample_records,
     lambda recs: second_arrival(recs).update(point=[float("nan")]),
     BAD_POINT),
    (cover_records,
     lambda recs: second_arrival(recs).update(point=[float("nan")]),
     BAD_POINT),
    (two_sample_records,
     lambda recs: second_arrival(recs).update(point=[4.0, 4.0]), BAD_POINT),
    (two_sample_records, lambda recs: second_arrival(recs).pop("point"),
     BAD_POINT),
    (two_sample_records, swap_first_two,
     "record 0: certificate before any arrival"),
    # the first sample is 0.0, which float() reads false as
    (two_sample_records, lambda recs: recs[0].update(point=[False]),
     f"record 0: {BAD_POINT}"),
], ids=["nan", "nan-cover", "wrong-dimension", "missing", "certificate-first",
        "false-for-zero"])
def test_audit_reports_a_corrupted_arrival_without_raising(
        make_records, tamper, message):
    cfg, records = make_records()
    tamper(records)
    report = audit(cfg, records)
    assert not report.ok
    assert any(message in f for f in report.failures), report.failures
    structure = next(c for c in report.checks if c.name == "structure")
    assert structure.failures >= 1


CERT_FIELDS = "certificate J, x or tol missing or malformed"
PLAN_FORM = "plan not [indices, values], two lists of equal length"


@pytest.mark.parametrize("tamper, message", [
    (lambda recs: recs[5].pop("J"), f"record 5: {CERT_FIELDS}"),
    # float() reads the string as the number it spells
    (lambda recs: recs[5].update(J=repr(recs[5]["J"])),
     f"record 5: {CERT_FIELDS}"),
    (lambda recs: recs[1].pop("x"), f"record 1: {CERT_FIELDS}"),
    (lambda recs: recs[5].pop("tol"), f"record 5: {CERT_FIELDS}"),
    (lambda recs: recs[5].update(radius=None),
     "record 5: CertificatePosted writes 'radius' as null"),
    (lambda recs: recs[5].update(y=[[0, 1], [1.0]]),
     f"record 5: {PLAN_FORM}"),
    (lambda recs: recs[5].update(y=[[2], [1.0]]),
     "record 5: plan index outside the window"),
    (lambda recs: recs[5].update(y=[[1, 1], [1.0, 1.0]]),
     "record 5: plan indices repeat"),
    (lambda recs: recs[5].update(y=[[0.5], [1.0]]),
     "record 5: plan index not an integer"),
    (lambda recs: recs[5].update(y=[[1], [float("nan")]]),
     "record 5: plan or decision not finite"),
    (lambda recs: recs[5].update(y=[[1], [1.0], [0.0]]),
     f"record 5: {PLAN_FORM}"),
    # the dense plan of the 2 x 1 window is two lists of one entry each
    (lambda recs: recs[5].update(y=[[0.0], [1.6651092223153954]]),
     "record 5: plan index not an integer"),
    # in the form before this one, a [k, j, value] row per entry
    (lambda recs: recs[5].update(y=[[1, 0, 1.6651092223153954]]),
     f"record 5: {PLAN_FORM}"),
    (lambda recs: recs[6].pop("J"),
     "record 6: CertificatePosted lacks 'J', keys of its form"),
    (lambda recs: recs[6].update(x=[0.0]),
     "record 6: CertificatePosted carries 'x', not keys of its form"),
    (lambda recs: recs[6].update(y=recs[5]["y"], y_ref=5),
     "record 6: CertificatePosted carries 'y_ref', not keys of its form"),
    (lambda recs: second_arrival(recs).update(r="two"),
     "record 4: DataArrival carries 'r', not keys of its form"),
    (lambda recs: recs.__setitem__(8, [1, 2]), "record 8: not a JSON object"),
], ids=["cert-no-J", "cert-J-string", "cert-no-x", "cert-no-tol",
        "radius-null", "ragged-y", "y-outside", "y-repeated", "y-non-integer",
        "y-nan-value", "y-row-length", "y-legacy-dense", "y-older-rows",
        "step-J", "step-x", "y-and-y_ref", "arrival-r-not-numeric",
        "not-an-object"])
def test_audit_reports_a_malformed_record_without_raising(tamper, message):
    # record 1 is the run's first certificate, the only one that posts x;
    # records 5 and 6 are the second window's certificate and its step's,
    # which reuses its plan, and record 5 moves the atom at 4 by about 1.67
    cfg, records = two_sample_records()
    assert records[5]["kind"] == "CertificatePosted"
    assert records[5]["y"] == [[1], [1.6651092223153954]]
    assert records[6]["alpha"] == 5.0 and "y" not in records[6]
    tamper(records)
    report = audit(cfg, records)
    assert not report.ok
    assert any(f.startswith(message) for f in report.failures), report.failures
    structure = next(c for c in report.checks if c.name == "structure")
    assert structure.failures >= 1


def plain_records():
    cfg, res = plain_run()
    return cfg, [ev.record() for ev in res.events]


def restate(key):
    """The output record at ``i`` posts its best certificate's ``key`` at
    the value an older format posted; returns its seq and the start of the
    failure."""
    def tamper(cfg, records, decisions, i):
        records[i][key] = dropped_keys(records, decisions, cfg)[i][key]
        return i, f"{records[i]['kind']} carries '{key}', not keys of its form"
    return tamper


def leave_no_best(cfg, records, decisions, i):
    """The epoch before the last loses its first certificate's plan, so it
    has no best; returns the seq of the last epoch's first certificate,
    which has no decision to start from, and the start of its failure."""
    starts = epoch_starts(records)
    records[starts[-2]]["y"] = [[0.5], [1.0]]
    return starts[-1], CERT_FIELDS


@pytest.mark.parametrize("kind, tamper", [
    ("EpochConverged", restate("x")),
    ("EpochConverged", leave_no_best),
    ("Terminated", restate("x")),
    ("EpochConverged", restate("J")),
    ("Terminated", restate("J")),
], ids=["epoch-x", "epoch-no-best", "final-x", "epoch-J", "final-J"])
def test_audit_requires_the_best_certificates_decision(kind, tamper):
    # an epoch's output is its best certificate's decision, which the audit
    # derives and the next epoch starts from: an output record that
    # restates it or its J, even exactly, fails structure alone, and an
    # epoch left with no best leaves the next one no decision to start from
    cfg, points = plain_input()
    res, decisions = run_with_decisions(cfg, points)
    records = [ev.record() for ev in res.events]
    assert audit(cfg, records).ok
    i = max(i for i, r in enumerate(records) if r["kind"] == kind)
    seq, message = tamper(cfg, records, decisions, i)
    report = audit(cfg, records)
    failed = {c.name: c.failures for c in report.checks}
    assert failed["structure"] == sum(failed.values())
    assert (failed["structure"] == 1) == (tamper is not leave_no_best)
    assert any(f.startswith(f"record {seq}: {message}")
               for f in report.failures), report.failures


def test_audit_requires_the_epochs_running_best():
    # the next epoch starts from the epoch's best certificate, not from the
    # one posted before it, whose J is higher: a start certificate generated
    # at that one's decision is re-priced at the best's, and fails there
    cfg, points = plain_input()
    res, decisions = run_with_decisions(cfg, points)
    records = [ev.record() for ev in res.events]
    keys = dropped_keys(records, decisions, cfg)
    best = next(keys[i]["best_seq"] for i, r in enumerate(records)
                if r["kind"] == "EpochConverged"
                and "alpha" in records[keys[i]["best_seq"]])
    other = best - 1
    assert res.events[other].l == res.events[best].l < res.events[-1].l
    assert records[other]["J"] > records[best]["J"]
    start = restart_from(records, decisions, cfg, other)
    report = audit(cfg, records)
    failed = {c.name: c.failures for c in report.checks}
    assert not report.ok and not failed["structure"]
    # its plan is not the worst case at the best's decision
    assert report.failures[0].startswith(f"record {start}: gap "), (
        report.failures)


def test_one_malformed_epoch_start_fails_only_itself():
    # study1 at n0 = 40: record 23 is epoch 2's first certificate. Without
    # its J the audit still derives its decision, plan and value, ranks it
    # by that value, and starts every later epoch from that epoch's best
    cfg, points = pinned_run("study1", 40, False, None)
    records = [ev.record() for ev in run(cfg, points).events]
    assert epoch_starts(records)[1] == 23
    del records[23]["J"]
    report, failed = full_audit(cfg, records)
    assert report.failures == [
        "record 23: CertificatePosted lacks 'J', keys of its form",
        f"record 23: {CERT_FIELDS}"]
    assert failed["structure"] == sum(failed.values()) == 2


def test_the_report_lists_the_first_failures_and_counts_them_all():
    # every J doubled keeps the order of the Js, so each epoch's best holds:
    # each certificate fails its value and nothing else fails. The report
    # lists the first failures in record order and then one line for the
    # rest, and the check counts every failure
    cfg, records = study1_records()
    certs = [i for i, r in enumerate(records)
             if r["kind"] == "CertificatePosted"]
    assert len(certs) > 20 and all(records[i]["J"] for i in certs)
    for i in certs:
        records[i]["J"] *= 2
    report, failed = full_audit(cfg, records)
    assert failed["certificate_value"] == sum(failed.values()) == len(certs)
    assert len(report.failures) == 21
    assert [f.split(": J recomputed ")[0] for f in report.failures[:20]] == [
        f"record {i}" for i in certs[:20]]
    assert report.failures[20] == "... further failures suppressed"


def test_audit_fails_an_infinite_value_and_a_nan_tolerance():
    # inf - x is inf, which the relative tolerance max(|a|, |b|) would absorb
    cfg, records = two_sample_records()
    records[5]["J"] = float("inf")
    checks = {c.name: c for c in audit(cfg, records).checks}
    assert checks["certificate_value"].failures == 1
    cfg, records = two_sample_records()
    records[5]["tol"] = float("nan")
    checks = {c.name: c for c in audit(cfg, records).checks}
    assert checks["certificate_gap"].failures == 1


def test_audit_checks_the_posted_tolerance_against_the_run():
    cfg, records = two_sample_records()
    assert records[5]["kind"] == "CertificatePosted" and "y" in records[5]

    def checks(recs):
        report = verify_events(recs, cfg.model, cfg.concentration,
                               cfg.schedule, tolerances=cfg.tolerances)
        return {c.name: c.failures for c in report.checks}

    assert not any(checks(records).values())
    records[5]["tol"] = 1e9
    # without the run's tolerances the audit can only trust the posted one
    assert verify_events(records, cfg.model, cfg.concentration,
                         cfg.schedule).ok
    failed = checks(records)
    assert failed["certificate_gap"] == 1
    assert sum(failed.values()) == 1
    # a reuse, which posts no plan, posts a refresh's tolerance
    cfg, records = two_sample_records()
    assert "y" not in records[6]
    records[6]["tol"] = cfg.tolerances.eps1
    failed = checks(records)
    assert failed["certificate_gap"] == 1
    assert sum(failed.values()) == 1


def test_audit_checks_the_reused_flag_without_the_runs_tolerances():
    # whether a certificate posts a plan alone says whether it reuses the
    # plan before it, so a reused flag is a key outside the certificate's
    # set, on a call that passes no tolerances too
    cfg, records = two_sample_records()
    records[5]["reused"] = False  # a refresh, which posts a full plan
    report = verify_events(records, cfg.model, cfg.concentration,
                           cfg.schedule)
    failed = {c.name: c.failures for c in report.checks}
    assert failed["structure"] == 1 and sum(failed.values()) == 1
    assert report.failures == [
        "record 5: CertificatePosted carries 'reused', not keys of its form"]


def study1_records():
    cfg, text = study1_log()
    return cfg, [json.loads(line) for line in text.splitlines()]


def full_audit(cfg, records):
    report = verify_events(records, cfg.model, cfg.concentration,
                           cfg.schedule, cfg.cover,
                           tolerances=cfg.tolerances)
    return report, {c.name: c.failures for c in report.checks}


@pytest.mark.parametrize("preset, n0, cover", [
    ("study1", 12, False), ("study2", 10, True)], ids=["study1",
                                                      "study2-cover"])
@pytest.mark.parametrize("tamper", STEP_TAMPERS.values(),
                         ids=STEP_TAMPERS.keys())
def test_audit_derives_each_step_certificates_decision(preset, n0, cover,
                                                       tamper):
    # a step certificate posts its alpha, and the audit derives its decision
    # from the certificate before it; no record posts its seq, sample count
    # or gap, and only an arrival posts the step and epoch counts, which the
    # audit derives from the record's place, the arrivals before it and its
    # plan. Each edit of that format, or of what a dropped key is derived
    # from, fails a named check
    cfg, points = pinned_run(preset, n0, cover, None)
    res, decisions = run_with_decisions(cfg, points)
    records = [ev.record() for ev in res.events]
    assert full_audit(cfg, records)[0].ok
    seq, check, message = tamper(records, cfg, decisions)
    report, failed = full_audit(cfg, records)
    assert failed[check] >= 1
    assert any(f.startswith(f"record {seq}: {message}")
               for f in report.failures), report.failures


@pytest.mark.parametrize("preset, n0, cover", [
    ("study1", 12, False), ("study2", 10, True)], ids=["study1",
                                                      "study2-cover"])
def test_no_step_length_one_ulp_off_audits_ok(preset, n0, cover):
    # each step certificate's alpha one ulp up or down: the derived decision
    # may move too little for its J to tell, but the audit pins every step
    # length, so each edit fails step_links
    cfg, points = pinned_run(preset, n0, cover, None)
    records = [ev.record() for ev in run(cfg, points).events]
    steps = [seq for seq, rec in enumerate(records) if "alpha" in rec]
    assert steps
    passed = []
    for seq in steps:
        rec = records[seq]
        alpha = rec["alpha"]
        for to in (math.inf, -math.inf):
            rec["alpha"] = math.nextafter(alpha, to)
            if not full_audit(cfg, records)[1]["step_links"]:
                passed.append((seq, rec["alpha"]))
        rec["alpha"] = alpha
    assert not passed
    assert full_audit(cfg, records)[0].ok


# runs whose steps both refresh and reuse: study1 with b coupling its plans
# to the decision, and study2 with the cover
REUSING_RUNS = [("study1-coupled", 12, False), ("study2", 10, True)]
REUSING_IDS = ["study1-coupled", "study2-cover"]


@pytest.mark.parametrize("preset, n0, cover", REUSING_RUNS, ids=REUSING_IDS)
@pytest.mark.parametrize("tamper", REUSE_TAMPERS.values(),
                         ids=REUSE_TAMPERS.keys())
def test_audit_prices_a_reuse_with_the_plan_before_it(preset, n0, cover,
                                                      tamper):
    # a certificate without a plan is a reuse, which keeps the plan of the
    # certificate before it on its window: one right after an arrival has
    # none, and a certificate that drops or adds its plan posts the other
    # form's tolerance
    cfg, points = pinned_run(preset, n0, cover, None)
    records = [ev.record() for ev in run(cfg, points).events]
    assert full_audit(cfg, records)[0].ok
    seq, check, message = tamper(records)
    report, failed = full_audit(cfg, records)
    assert failed[check] >= 1
    assert any(f.startswith(f"record {seq}: {message}")
               for f in report.failures), report.failures


@pytest.mark.parametrize("preset, n0, cover", [
    ("study1", 12, False), ("study2", 10, True)], ids=["study1",
                                                      "study2-cover"])
@pytest.mark.parametrize("tamper", PLAN_TAMPERS.values(),
                         ids=PLAN_TAMPERS.keys())
def test_audit_reads_a_plan_only_in_its_form(preset, n0, cover, tamper):
    # a refresh posts its plan as [indices, values]: int indices into the
    # window, strictly increasing, and as many int or float values. Any
    # other form fails structure once at its record, and the records after
    # it that step from its plan fail for want of it
    cfg, points = pinned_run(preset, n0, cover, None)
    records = [ev.record() for ev in run(cfg, points).events]
    seq, message = tamper(records, cfg)
    report, failed = full_audit(cfg, records)
    assert failed["structure"] >= 1
    here = [f for f in report.failures if f.startswith(f"record {seq}: ")]
    assert here == [f"record {seq}: {message}"]
    assert all(int(f.split(":")[0].split()[1]) > seq
               for f in report.failures
               if f.startswith("record ") and f not in here)


@pytest.mark.parametrize("preset, n0, cover", REUSING_RUNS, ids=REUSING_IDS)
def test_a_refresh_without_its_plan_fails_without_the_runs_tolerances(
        preset, n0, cover):
    # without its plan and work counts, a reuse's form, and so priced with
    # the plan before it, each of the first 20 step refreshes posts a value
    # that is not that plan's or a gap above the eps1 it posts: that plan
    # failed its revalidation at the refresh's decision, so its gap is above
    # eps_sa
    cfg, points = pinned_run(preset, n0, cover, None)
    records = [ev.record() for ev in run(cfg, points).events]
    refreshes = [i for i, r in enumerate(records) if "alpha" in r and "y" in r]
    assert len(refreshes) > 20
    for seq in refreshes[:20]:
        edited = [dict(r) for r in records]
        as_reuse(edited[seq])
        report = audit(cfg, edited)
        failed = {c.name: c.failures for c in report.checks}
        assert failed["certificate_value"] + failed["certificate_gap"] >= 1
        assert not failed["structure"]
        assert report.failures[0].startswith(f"record {seq}: ")


# the seed-0 logs on which putting the plan and cover keys back restores
# the format three before this one
RESTORED_RUNS = [("study1", 40, False), ("study1", 40, True),
                 ("study2", 10, True), ("study2", 20, True)]


@pytest.mark.parametrize("preset, n0, cover", RESTORED_RUNS,
                         ids=["study1", "study1-cover", "study2-cover",
                              "study2-cover-20"])
def test_the_plan_and_cover_keys_put_back_restore_the_older_format(
        preset, n0, cover):
    # the format three before this one wrote, on top of the one two before
    # this one, each arrival's cover keys and each reuse's y_ref last: the
    # cover's outcome, which the runner keeps in memory, and the latest
    # refresh, which posts the plan the reuse kept. Each of them put back
    # alone fails structure alone
    cfg, points = pinned_run(preset, n0, cover, None)
    res, decisions = run_with_decisions(cfg, points)
    records = [ev.record() for ev in res.events]
    older = put_back_plan_rows_and_reuse_counts(put_back_counts(records), cfg)
    restored = put_back_plan_and_cover_keys(older, decisions, cfg)
    size, ref = 0, None
    for ev, rec, old in zip(res.events, older, restored):
        assert list(old)[:len(rec)] == list(rec)
        added, want = {key: old[key] for key in list(old)[len(rec):]}, {}
        if ev.kind == "DataArrival":
            ref = None  # a new window, with no plan on it yet
            if cover:
                grown, size = ev.extras["cover_size"] > size, ev.extras[
                    "cover_size"]
                want = {"cover_opened": grown, "cover_size": size}
        elif "y" in rec:
            ref = ev.seq
        elif ev.kind == "CertificatePosted":
            assert ref is not None
            want = {"y_ref": ref}
        assert added == want, ev.seq
    put_back = {key for rec in restored for key in rec} - {
        key for rec in older for key in rec}
    assert put_back == {key for kind, keys in PLAN_AND_COVER_KEYS.items()
                        for key in keys if cover or kind != "DataArrival"}
    for key in sorted(put_back):
        seq = next(i for i, rec in enumerate(restored) if key in rec)
        edited = [dict(rec) for rec in records]
        edited[seq][key] = restored[seq][key]
        report, failed = full_audit(cfg, edited)
        assert failed["structure"] == sum(failed.values()) == 1
        assert report.failures == [
            f"record {seq}: {records[seq]['kind']} carries '{key}', not "
            "keys of its form"]


def counted_log(events):
    """The log text of ``events`` in the format before this one: each
    arrival posts the runner's step and epoch counts, as it held them in
    memory, right after ``t``."""
    return "".join(json.dumps(
        {"kind": ev.kind, "t": ev.t, "r": ev.r, "l": ev.l, **ev.record()}
        if ev.kind == "DataArrival" else ev.record()) + "\n" for ev in events)


# the seed-0 logs on which putting the counts back restores the format
# before this one
COUNTED_RUNS = [("study1", 40, False), ("study1", 40, True),
                ("study1", 12, False), ("study1", 12, True),
                ("study2", 10, True), ("study2", 20, True),
                ("study2", 10, False)]


@pytest.mark.parametrize("preset, n0, cover", COUNTED_RUNS,
                         ids=["study1", "study1-cover", "study1-12",
                              "study1-12-cover", "study2-cover",
                              "study2-cover-20", "study2"])
def test_the_counts_put_back_restore_the_older_format(preset, n0, cover):
    # the format before this one posted the runner's step and epoch counts
    # on each arrival: derived from the kinds and times and put back, they
    # reproduce that format's log byte for byte
    events = run(*pinned_run(preset, n0, cover, None)).events
    restored = put_back_counts([ev.record() for ev in events])
    assert "".join(json.dumps(rec) + "\n" for rec in restored) == (
        counted_log(events))


def test_the_step_and_epoch_counts_follow_from_the_kinds_and_times():
    # no record posts the runner's counts: on every pinned run they follow
    # from the record kinds and times at every record, across the arrivals
    # after a step that was charged and cut, where r rises, and those
    # drained after an interrupted epoch start, where l does
    rises = {"r": set(), "l": set()}
    for row, name in zip(PINNED_WORK, PINNED_IDS):
        events = run(*pinned_run(*row[:4])).events
        assert [(ev.r, ev.l) for ev in events] == runner_counts(
            [ev.record() for ev in events]), name
        for before, ev in zip(events, events[1:]):
            for key, seen in rises.items():
                if ev.kind == "DataArrival" and (
                        getattr(ev, key) > getattr(before, key)):
                    seen.add(name)
    assert rises == {"r": {"study1-coupled-interrupted"},
                     "l": {"study1-interrupted",
                           "study1-coupled-interrupted"}}


def older_format_log(cfg, points, monkeypatch):
    """The log text of ``run(cfg, points)`` in the format two before this
    one, written by the runner itself: each arrival's counts as the runner
    held them (``counted_log``), each plan by the encoder of that format, as
    its nonzero ``[k, j, value]`` rows, and each reuse's work counts as the
    meter counted them around ``reuse_or_refresh``."""
    def plan_rows(y):
        ks, js = np.nonzero(y)
        return [[k, j, v] for k, j, v
                in zip(ks.tolist(), js.tolist(), y[ks, js].tolist())]

    counted, reuse_or_refresh = [], runner.reuse_or_refresh

    def counting(model, x_new, tol, cert, meter):
        mark = meter.counts()
        outcome = reuse_or_refresh(model, x_new, tol, cert, meter=meter)
        if outcome.reused:
            counted.append([now - then
                            for now, then in zip(meter.counts(), mark)])
        return outcome

    with monkeypatch.context() as patch:
        patch.setattr(runner, "plan_entries", plan_rows)
        patch.setattr(runner, "reuse_or_refresh", counting)
        events = run(cfg, points).events
    reuses = iter(counted)
    for ev in events:
        if ev.kind == "CertificatePosted" and "y" not in ev.extras:
            ev.extras.update(zip(REUSE_COUNTS, next(reuses)))
    assert next(reuses, None) is None
    assert all(counts == list(REUSE_COUNTS.values()) for counts in counted)
    return counted_log(events)


@pytest.mark.parametrize("preset, n0, cover", [
    ("study1", 40, False), ("study1", 40, True), ("study1", 12, False),
    ("study1", 12, True), ("study2", 10, True), ("study1-coupled", 12, False)],
    ids=["study1", "study1-cover", "study1-12", "study1-12-cover",
         "study2-cover", "study1-coupled-12"])
def test_the_plan_rows_and_reuse_counts_put_back_restore_the_older_format(
        preset, n0, cover, monkeypatch):
    # the format two before this one posted each plan as [k, j, value] rows
    # and each reuse's work counts, always one search and no hull solve:
    # putting both back, on top of the counts, reproduces that format's log
    # byte for byte
    cfg, points = pinned_run(preset, n0, cover, None)
    records = [ev.record() for ev in run(cfg, points).events]
    assert any("y" not in r for r in records
               if r["kind"] == "CertificatePosted")
    restored = put_back_plan_rows_and_reuse_counts(put_back_counts(records),
                                                   cfg)
    assert "".join(json.dumps(rec) + "\n" for rec in restored) == (
        older_format_log(cfg, points, monkeypatch))


# the keys of each kind's records, in the order a record writes them,
# besides kind and t, on a run with a cover or without one; a certificate
# writes x for the run's first certificate, alpha for a step's and neither
# for a later epoch's first, and the work counts and y for a refresh only
REFRESH_KEYS = ("lp_calls", "cp_calls", "afwa_iters", "y")
DOCUMENTED_KEYS = {
    "DataArrival": ("point", "index", "arrival_t"),
    "CertificatePosted": ("J", ("x", "alpha"), "tol", REFRESH_KEYS),
    "EpochConverged": (),
    "Terminated": (),
}


@pytest.mark.parametrize("tamper", KEY_TAMPERS.values(),
                         ids=KEY_TAMPERS.keys())
def test_audit_rejects_a_key_outside_its_kinds_set(tamper):
    # a record writes only its kind's keys and no null: a dropped key put
    # back, even at the value it used to hold, fails structure alone
    cfg, records = study1_records()
    seq, message = tamper(records, cfg, study1_decisions())
    report, failed = full_audit(cfg, records)
    assert failed["structure"] == 1 and sum(failed.values()) == 1
    assert report.failures[0].startswith(f"record {seq}: {message}")


@pytest.mark.parametrize("make_records, kind, key, where", [
    *((study1_records, kind, key, None) for kind, key in MISSING_KEYS),
    # an arrival's form is the same with a cover: the first arrival's index
    # and the last one's time
    (cover_records, "DataArrival", "index", None),
    (cover_records, "DataArrival", "arrival_t", lambda r: r["index"] == 5),
], ids=[key for _, key in MISSING_KEYS] + ["cover-arrival-index",
                                          "cover-final-arrival_t"])
def test_audit_requires_every_key_of_a_records_form(make_records, kind, key,
                                                    where):
    # a key the record's form carries, dropped, fails structure alone and
    # names the key, though no other check reads it
    cfg, records = make_records()
    seq, message = drop_key(records, kind, key, where)
    report, failed = full_audit(cfg, records)
    assert failed["structure"] == 1 and sum(failed.values()) == 1
    assert report.failures == [f"record {seq}: {message}"]


@pytest.mark.parametrize("tamper", COUNTER_TAMPERS.values(),
                         ids=COUNTER_TAMPERS.keys())
def test_audit_requires_the_runners_step_and_epoch_counts(tamper):
    # r counts the steps and l the epochs; both follow from the kinds and
    # times, so a count on any record, at any value, is one failure
    cfg, records = study1_records()
    seq, message = tamper(records)
    report, failed = full_audit(cfg, records)
    assert failed["structure"] == 1 and sum(failed.values()) == 1
    assert report.failures[0].startswith(f"record {seq}: {message}")


@pytest.mark.parametrize("tamper", BOOL_TAMPERS.values(),
                         ids=BOOL_TAMPERS.keys())
def test_audit_reads_no_boolean_as_a_number(tamper):
    # float() reads true as 1.0, where t and alpha are 1.0: the audit reads
    # only JSON numbers, and fails the record, naming the key
    cfg, records = study1_records()
    seq, message = tamper(records)
    report, failed = full_audit(cfg, records)
    assert failed["structure"] >= 1
    assert report.failures[0].startswith(f"record {seq}: {message}")


def test_audit_reports_a_huge_step_length_without_warnings():
    # alpha = 1e300 derives a decision whose value overflows; the audit
    # reports it without numpy's overflow warnings
    cfg, records = study1_records()
    step_certificate(records)["alpha"] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report, _ = full_audit(cfg, records)
    assert not report.ok


def test_every_record_of_a_kind_carries_the_same_keys():
    # on every pinned run, no record writes a null value and each carries
    # exactly its kind's documented keys, in order; an epoch's first
    # certificate is the first of its runner's epoch count l, and the reuses
    # are the certificates that post no plan
    for preset, n0, cover, budget in (row[:4] for row in PINNED_WORK):
        res = run(*pinned_run(preset, n0, cover, budget))
        epochs, reuses = set(), 0
        for ev in res.events:
            rec = ev.record()
            assert None not in rec.values(), rec
            want = ["kind", "t"]
            for key in DOCUMENTED_KEYS[rec["kind"]]:
                if key == ("x", "alpha"):
                    want += (["alpha"] if ev.l in epochs
                             else [] if epochs else ["x"])
                    epochs.add(ev.l)
                elif key == REFRESH_KEYS:
                    # an epoch's first certificate always refreshes
                    reuses += "y" not in rec
                    assert "y" in rec or "alpha" in rec, rec
                    want += list(key) if "y" in rec else []
                else:
                    want.append(key)
            assert list(rec) == want, (preset, n0, cover, budget, rec)
        assert reuses == res.totals.reuses
        assert {ev.kind for ev in res.events} == set(EVENT_KINDS)


def test_audit_requires_each_epoch_to_start_from_the_last_best():
    # the second epoch's first certificate posts no decision: the audit
    # re-prices it at the first epoch's best. Generated at the first
    # epoch's start instead, it fails there
    cfg, records = study1_records()
    keys = dropped_keys(records, study1_decisions(), cfg)
    end = next(i for i, r in enumerate(records)
               if r["kind"] == "EpochConverged")
    best = keys[end]["best_seq"]
    assert keys[1]["l"] == keys[best]["l"] == 1 and best != 1
    start = restart_from(records, study1_decisions(), cfg, 1)
    report, failed = full_audit(cfg, records)
    assert failed["certificate_value"] >= 1 and not failed["structure"]
    assert report.failures[0].startswith(f"record {start}: J recomputed")


def test_audit_requires_an_epoch_to_post_the_steps_it_took():
    # the first epoch's convergence, posted a step early: it does not follow
    # the epoch's first small step, and the record after that step is an
    # arrival, not the convergence
    cfg, records = study1_records()
    end, step = converge_a_step_early(records)
    report, failed = full_audit(cfg, records)
    assert failed["stop_rule"] == 2 and sum(failed.values()) == 2
    assert report.failures == [
        f"record {end}: epoch converges other than right after its first "
        "step that moved less than eps2 (none yet)",
        f"record {step + 1}: DataArrival follows certificate {step}, its "
        "epoch's first step that moved less than eps2, where the epoch "
        "converges"]


def test_audit_requires_a_step_stop_at_the_first_step_below_eps2():
    # every study1 epoch stops by the step rule. Below the last step's
    # distance, no epoch stops where it should; just above the step before
    # it, the first epoch should have stopped one step sooner, so its last
    # step and its convergence fail
    cfg, records = study1_records()
    keys = dropped_keys(records, study1_decisions(), cfg)
    steps = [i for i, r in enumerate(records)
             if "alpha" in r and keys[i]["l"] == 1]
    moved = [keys[seq]["moved"] for seq in steps]
    ends = [i for i, r in enumerate(records) if r["kind"] == "EpochConverged"]
    for eps2, failing in ((0.99 * moved[-1], ends),
                          (1.01 * moved[-2], [steps[-1], ends[0]])):
        tol = dataclasses.replace(cfg.tolerances, eps2=eps2)
        report = verify_events(records, cfg.model, cfg.concentration,
                               cfg.schedule, tolerances=tol)
        failed = {c.name: c.failures for c in report.checks}
        assert failed["stop_rule"] == sum(failed.values()) == len(failing)
        assert [f.split(":")[0] for f in report.failures] == [
            f"record {i}" for i in failing]


def test_audit_fails_a_step_after_its_epochs_first_small_step():
    # study1 coupled, at budget 5000: epoch 7 takes 18 steps, and then an
    # arrival cuts it. With eps2 just above its 17th step's distance, that
    # step is the epoch's first small one, so the 18th fails; so do the
    # epochs that converge, none of them right after its first small step
    cfg, points = pinned_run("study1-coupled", 40, False, 5000.0)
    res, decisions = run_with_decisions(cfg, points)
    records = [ev.record() for ev in res.events]
    steps = [ev.seq for ev in res.events
             if "alpha" in ev.record() and ev.l == 7]
    assert len(steps) == 18 and (steps[0], steps[-1]) == (139, 156)
    assert records[157]["kind"] == "DataArrival"
    moved = dropped_keys(records, decisions, cfg)[steps[16]]["moved"]
    assert moved == pytest.approx(0.01194, abs=1e-5)
    tol = dataclasses.replace(cfg.tolerances, eps2=1.0000001 * moved)
    report = verify_events(records, cfg.model, cfg.concentration,
                           cfg.schedule, tolerances=tol)
    failed = {c.name: c.failures for c in report.checks}
    ends = [i for i, r in enumerate(records) if r["kind"] == "EpochConverged"]
    assert len(ends) == 7
    assert failed["stop_rule"] == sum(failed.values()) == 15
    assert (f"record {steps[-1]}: CertificatePosted follows certificate "
            f"{steps[-2]}, its epoch's first step that moved less than "
            "eps2, where the epoch converges") in report.failures
    assert {f"record {i}" for i in ends} <= {
        f.split(":")[0] for f in report.failures}


def test_audit_fails_weighted_certificate_above_its_tolerance():
    # the gap divides by n, not by the p < n cover centers; that looser
    # normalisation must still let the audit catch a gap above its tolerance.
    # The one-dimensional cover run solves every weighted hull exactly, so
    # take a three-dimensional one.
    cfg, points = pinned_run("study1", 40, True, None)
    result, decisions = run_with_decisions(cfg, points)
    records = [ev.record() for ev in result.events]

    def weighted_gap(seq):
        """The gap of the refresh at ``seq`` as the audit measures it, on a
        window with fewer atoms than samples, else None."""
        window, eps = ball_at(records, cfg, seq)
        n = window.n_total
        if window.size == n:
            return None
        y = plan_from_entries(records[seq]["y"],
                              (window.size, window.dimension))
        grads = cfg.model.grad_y(np.array(decisions[seq]), window.points, y)
        return simplex.frank_wolfe_gap(grads, n * eps,
                                       window.theta[:, None] * y, n_total=n)

    # the audit allows the gap 1e-9 above its tolerance, so halving the
    # tolerance must take off more than that
    gaps = ((seq, weighted_gap(seq))
            for seq, rec in enumerate(records) if "y" in rec)
    seq, eta = next((seq, eta) for seq, eta in gaps
                    if eta is not None and eta / 2 > 1e-9)
    records[seq]["tol"] = eta / 2
    report = audit(cfg, records)
    assert not report.ok
    for check in report.checks:
        want = 1 if check.name == "certificate_gap" else 0
        assert check.failures == want, (check.name, report.failures)
    assert len(report.failures) == 1
    assert report.failures[0].startswith(f"record {seq}: gap ")


# study1's model has b = 0, so its plans do not depend on x and every
# revalidation passes; this b couples them, so steps also refresh
COUPLED_B = [[1.0, 0.5, -1.0]]


def preset_config(preset, seed=0):
    """A preset's config; ``study1-coupled`` is study1 with b = COUPLED_B."""
    if preset == "study1-coupled":
        cfg = presets.study1(seed=seed)
        return dataclasses.replace(cfg, model={**cfg.model, "b": COUPLED_B})
    return presets.PRESETS[preset](seed=seed)


def pinned_run(preset, n0, cover, budget):
    """The run config and stream of one pinned run (seed 0); ``budget``
    overrides the preset's cost budget per period unless None."""
    cfg = presets.with_overrides(preset_config(preset), n0=n0,
                                 cover_enabled=cover)
    mat = presets.materialize(cfg)
    run_config = mat.run_config
    if budget is not None:
        run_config = dataclasses.replace(run_config,
                                         cost_budget_per_period=budget)
    return run_config, mat.stream


def log_text(result):
    return "".join(json.dumps(ev.record()) + "\n" for ev in result.events)


# (preset, n0, cover, cost budget per period or None for the preset's,
#  lp_calls, cp_calls, afwa_iters, interrupts, reuses, events, log bytes,
#  virtual time at the end, virtual time from the last arrival to the end)
PINNED_WORK = [
    ("study1", 40, False, None, 140, 42, 1348, 0, 58, 179, 31932,
     40.12962000000008, 0.1296200000000809),
    ("study1", 40, False, 5000.0, 125, 39, 1249, 7, 51, 158, 26235,
     41.567399999999694, 1.3922000000000523),
    ("study1", 40, True, None, 143, 45, 1542, 0, 58, 179, 30828,
     40.08570000000014, 0.08570000000013778),
    ("study2", 10, True, None, 670, 222, 6021, 0, 24, 262, 81000,
     20.546896719250853, 0.14061000000089052),
    ("study1-coupled", 40, False, 5000.0, 634, 218, 5064, 33, 36, 270, 72663,
     82.87780000000083, 42.7720000000017),
]
PINNED_IDS = ["study1", "study1-interrupted", "study1-cover", "study2-cover",
              "study1-coupled-interrupted"]


@pytest.mark.parametrize(
    "preset, n0, cover, budget, lp, cp, iters, interrupts, reuses, events, "
    "log_bytes, t_final, t_tail",
    PINNED_WORK, ids=PINNED_IDS)
def test_work_counters_are_pinned(preset, n0, cover, budget, lp, cp, iters,
                                  interrupts, reuses, events, log_bytes,
                                  t_final, t_tail, monkeypatch):
    # the virtual clock meters solver work, so a change that only speeds the
    # solvers up leaves every counter, the event sequence and the clock as
    # they are; the log's size is pinned within 1% and the final time within
    # 1e-9, since float digits may move. The final time is mostly the last
    # arrival's, so the metered time after it is pinned within 1e-11:
    # charging a decision step 1.000001 / rate instead of 1 / rate moves it
    # by about 1e-10, and the final time by less than 1e-9.
    # Every vertex search the clock is charged for is counted, those of
    # interrupted attempts and of revalidations, which measure the gap
    # alone, too
    searches = []
    for name in ("point_search", "frank_wolfe_gap"):
        def search(*args, _search=getattr(simplex, name), **kwargs):
            searches.append(None)
            return _search(*args, **kwargs)

        monkeypatch.setattr(certificates, name, search)
    res = run(*pinned_run(preset, n0, cover, budget))
    t = res.totals
    assert (t.lp_calls, t.cp_calls, t.afwa_iters, t.interrupts, t.reuses,
            len(res.events)) == (lp, cp, iters, interrupts, reuses, events)
    assert t.lp_calls == len(searches)
    assert len(log_text(res).encode()) == pytest.approx(log_bytes, rel=0.01)
    assert res.t_final == pytest.approx(t_final, rel=1e-9)
    last = [ev.t for ev in res.events if ev.kind == "DataArrival"][-1]
    assert res.t_final - last == pytest.approx(t_tail, rel=1e-11)


# the best value of each PINNED_WORK run, recorded while the hull ascent
# still renormalized its weights after every step; it renormalizes less
# often now, which moves only the last digits
PINNED_J_BEST = [-36.146569498173086, -36.14656949818273, -29.026615253933,
                 -2596.401792541596, -36.15300092555619]


@pytest.mark.parametrize("row, j_best", zip(PINNED_WORK, PINNED_J_BEST),
                         ids=PINNED_IDS)
def test_pinned_runs_keep_their_best_value(row, j_best):
    res = run(*pinned_run(*row[:4]))
    assert res.j_best == pytest.approx(j_best, rel=1e-9)


def final_radius(config, records):
    """The radius of a log's last certificate, which certifies every
    arrival: ``Samples.ball()`` replayed over the log's arrivals."""
    samples = Samples(config.model.dimension_m, config.n0,
                      config.concentration, config.schedule, config.cover)
    for rec in records:
        if rec["kind"] == "DataArrival":
            samples.add(rec["point"], rec["index"])
    return samples.ball()[1]


# (preset, n0, cover, budget, the radius of the last certificate posted):
# eps(beta_n, n) plus the cover's transport slack, which is about 0.80 on
# study1, below its omega of 1.5, and 5.08 on study2, above its omega of 5
PINNED_RADIUS = [
    ("study1", 40, True, None, 1.3296496295015618),
    ("study2", 10, True, None, 5.964282213853679),
]


@pytest.mark.parametrize("preset, n0, cover, budget, radius", PINNED_RADIUS,
                         ids=["study1-cover", "study2-cover"])
def test_cover_runs_post_their_pinned_radius(preset, n0, cover, budget,
                                             radius):
    config, points = pinned_run(preset, n0, cover, budget)
    records = [ev.record() for ev in run(config, points).events]
    assert final_radius(config, records) == pytest.approx(radius, rel=1e-12)


@pytest.mark.parametrize("preset, n0, cover, budget",
                         [row[:4] for row in PINNED_WORK], ids=PINNED_IDS)
def test_pinned_runs_log_the_same_bytes_on_the_reference_ascent(
        preset, n0, cover, budget, monkeypatch):
    # the hull ascent only removes overhead around the reference loop's
    # float operations, so every iterate, and with it the log, is the same
    config, points = pinned_run(preset, n0, cover, budget)
    fast = log_text(run(config, points))
    monkeypatch.setattr(certificates, "afwa_maximize", afwa_quadratic_reference)
    assert log_text(run(config, points)) == fast


@functools.lru_cache(maxsize=None)
def study1_log():
    """The run config and event log text of study1 at n0 = 12, seed 0."""
    return study1_run()[:2]


@functools.lru_cache(maxsize=None)
def study1_run():
    """``study1_log()`` and the decision of each of its certificates."""
    cfg, points = pinned_run("study1", 12, False, None)
    res, decisions = run_with_decisions(cfg, points)
    return cfg, log_text(res), decisions


def study1_decisions():
    return study1_run()[2]


# every key some record of a log may carry, or an older format carried;
# the study1 log has no cover
LOG_KEYS = sorted({
    "seq", "kind", "t", "n", "r", "l", "J", "x", "point", "index",
    "arrival_t", "cover_opened", "cover_size", "eta", "tol", "lp_calls",
    "cp_calls", "afwa_iters", "y", "y_ref", "alpha"})
ODD_VALUES = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 2**70, -(2**70),
                     10**400, None, True, "x", -1, 0, 0.5]),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats()
        | st.text(max_size=3),
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=3), inner,
                                         max_size=3)),
        max_leaves=6),
)
LOG_EDITS = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 10**6), st.sampled_from(LOG_KEYS),
              ODD_VALUES),
    st.tuples(st.just("drop"), st.integers(0, 10**6),
              st.sampled_from(LOG_KEYS)),
    st.tuples(st.just("record"), st.integers(0, 10**6), ODD_VALUES),
)


@settings(max_examples=100, deadline=None)
@given(edit=LOG_EDITS)
# record 0 is the log's first arrival and record 5 a certificate; neither
# posts a step or epoch count, which an older format posted on an arrival
@example(edit=("set", 5, "n", math.inf))
@example(edit=("set", 0, "l", None))
@example(edit=("drop", 0, "l"))
@example(edit=("set", 0, "r", math.inf))
# record 2 is the log's first step certificate, which posts its alpha
@example(edit=("set", 2, "alpha", math.inf))
def test_the_audit_never_raises_on_a_corrupted_log(edit):
    # one field set to an odd value or dropped, or one record replaced by a
    # value that is not an object: the audit reports it and never raises
    cfg, text = study1_log()
    records = [json.loads(line) for line in text.splitlines()]
    op, i, *rest = edit
    i %= len(records)
    if op == "set":
        records[i][rest[0]] = rest[1]
    elif op == "drop":
        records[i].pop(rest[0], None)
    else:
        records[i] = rest[0]
    report = verify_events(records, cfg.model, cfg.concentration, cfg.schedule,
                           cfg.cover, tolerances=cfg.tolerances)
    assert isinstance(report.ok, bool)


# the numeric fields of a step certificate: its step length and value
STEP_FIELDS = [("CertificatePosted", "alpha"), ("CertificatePosted", "J")]
# a new value outright, or the old one scaled or shifted by a small amount
NUMERIC_EDITS = st.one_of(
    st.tuples(st.just("set"), st.floats()),
    st.tuples(st.just("scale"), st.sampled_from([-1.0, 1.0]),
              st.floats(1e-6, 1e3)),
    st.tuples(st.just("shift"), st.sampled_from([-1.0, 1.0]),
              st.floats(1e-8, 1e3)),
)


def edited(old, edit):
    op, *args = edit
    if op == "set":
        return args[0]
    sign, size = args
    return old * (1.0 + sign * size) if op == "scale" else old + sign * size


def same_to_the_audit(field, old, new):
    """Whether the audit may take ``new`` for ``old``: a certificate's J is
    checked within a relative 1e-7 and an absolute 1e-9 of its recomputed
    value, which may itself differ from the posted one by as much; every
    other field is checked exactly."""
    if field != ("CertificatePosted", "J"):
        return new == old
    return (math.isfinite(new)
            and abs(new - old) <= 2e-9 + 2e-7 * max(abs(old), abs(new)))


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(STEP_FIELDS), pick=st.integers(0, 10**6),
       edit=NUMERIC_EDITS)
# pick 0 is record 2, the first step certificate, whose alpha is 10; pick
# 19 is the only step of an epoch from x near 0, where a step of -alpha
# moves as far and posts a J within tolerance of the step's
@example(field=("CertificatePosted", "alpha"), pick=0,
         edit=("set", math.nextafter(10.0, math.inf)))
@example(field=("CertificatePosted", "alpha"), pick=19, edit=("set", -10.0))
def test_a_changed_step_field_never_audits_ok(field, pick, edit):
    # one numeric field of a step edited beyond what the audit may take for
    # the posted value: the log no longer audits ok
    cfg, text = study1_log()
    records = [json.loads(line) for line in text.splitlines()]
    steps = [r for r in records if "alpha" in r]
    rec, key = steps[pick % len(steps)], field[1]
    old = rec[key]
    new = edited(old, edit)
    rec[key] = new
    assume(not same_to_the_audit(field, old, new))
    assert not full_audit(cfg, records)[0].ok


def test_the_audit_reports_a_decision_it_cannot_re_price():
    # at a decision of 1e308 the gradients b x overflow, so the vertex search
    # raises on them; re-pricing a certificate that posts one is a
    # structure failure, not a raise
    model = quadratic_model([[1.0]], [[3.0, 0.0, 0.0]], -np.eye(3))
    cfg = make_config(model, 3)
    res = run(cfg, stream([[0.1, 0.2, 0.0], [0.3, -0.1, 0.5],
                           [0.0, 0.4, -0.2]]))
    records = [ev.record() for ev in res.events]
    assert audit(cfg, records).ok
    seq = next(i for i, r in enumerate(records)
               if r["kind"] == "CertificatePosted")
    records[seq]["x"] = [1e308]
    report = audit(cfg, records)
    assert not report.ok
    assert (f"record {seq}: certificate cannot be re-priced: gradients must "
            "be finite") in report.failures, report.failures
    structure = next(c for c in report.checks if c.name == "structure")
    assert structure.failures >= 1


def run_to_the_robust_optimum(b, seed, n0, budget):
    """Run study1 with the scalar decision coupled to the samples by ``b``
    (a list of three floats) and check its output against the exact robust
    optimum; ``budget`` overrides the cost budget per period unless None.

    The last epoch certifies the whole stream at the last radius, where
    water-filling prices the worst case J exactly. j_best is a feasible
    plan's value within its posted gap (at most eps_sa) of J(x_best), so
    j_best >= J* - eps_sa; the epoch aims at j_best <= J* + eps2. J is x^2
    plus a supremum of functions affine in x, so 2-strongly convex:
    (x_best - x*)^2 <= J(x_best) - J* <= eps2 + eps_sa.
    """
    cfg = presets.with_overrides(presets.study1(seed=seed), n0=n0)
    mat = presets.materialize(
        dataclasses.replace(cfg, model={**cfg.model, "b": [b]}))
    config = mat.run_config
    if budget is not None:
        config = dataclasses.replace(config, cost_budget_per_period=budget)
    res = run(config, mat.stream)
    records = [ev.record() for ev in res.events]
    report = verify_events(records, config.model, config.concentration,
                           config.schedule, config.cover,
                           tolerances=config.tolerances)
    assert report.ok, report.failures
    radius = final_radius(config, records)
    points = np.stack([p.value for p in mat.stream[:n0]])
    robust = robust_value_1d(np.eye(1), np.array([b]), -np.ones(3),
                             points, np.ones(n0), n0, radius)
    x_star, j_star = golden_min(robust, -20.0, 20.0)
    tol = config.tolerances
    assert -tol.eps_sa <= res.j_best - j_star <= tol.eps2
    assert abs(res.x_best[0] - x_star) <= math.sqrt(tol.eps2 + tol.eps_sa)
    return res


@pytest.mark.parametrize("n0, budget, seed, interrupted", [
    (20, 1e12, 0, False),
    (60, None, 1, True),
], ids=["no-interrupts", "study1-budget"])
def test_a_coupled_run_ends_at_the_exact_robust_optimum(n0, budget, seed,
                                                        interrupted):
    res = run_to_the_robust_optimum(COUPLED_B[0], seed, n0, budget)
    assert (res.totals.interrupts > 0) == interrupted
    assert res.totals.refreshes > 0


# the preset's budget, one that interrupts small runs, and one that never
# does; b holds Python floats, since a config rejects numpy scalars
@settings(max_examples=12, deadline=None)
@given(b=st.one_of(st.just([0.0, 0.0, 0.0]),
                   st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)),
       seed=st.integers(0, 2**16), n0=st.integers(3, 24),
       budget=st.sampled_from([None, 2000.0, 1e12]))
@example(b=[0.0, 0.0, 0.0], seed=0, n0=3, budget=None)
@example(b=COUPLED_B[0], seed=1, n0=24, budget=2000.0)
def test_any_run_ends_at_the_exact_robust_optimum(b, seed, n0, budget):
    run_to_the_robust_optimum(b, seed, n0, budget)
