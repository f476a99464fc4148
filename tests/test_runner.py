"""Event-loop behavior: sequencing, interrupts, determinism, and audits."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drostream import certificates, presets, simplex
from drostream.ambiguity import ConcentrationParams, ConfidenceSchedule
from drostream.audit import verify_events
from drostream.certificates import plan_from_entries
from drostream.model import Tolerances, portfolio_model, quadratic_model
from drostream.runner import CoverConfig, RunConfig, Samples, run
from drostream.stream import SamplePoint

from oracles import (
    afwa_quadratic_reference,
    golden_min,
    robust_value_1d,
    w1_distance,
    window_measure,
)


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
        step_rule="harmonic",
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
        "DecisionStep",
        "EpochConverged",
        "Terminated",
    ]
    assert res.n == 1 and res.totals.epochs == 1
    assert res.j_best == pytest.approx(res.events[-1].J)
    assert res.events[1].extras["reused"] is False
    assert res.events[2].extras["reused"] is True


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
    cfg = make_config(coupled_quadratic(), 4, x0=np.array([2.0]))
    res = run(cfg, stream([[1.0], [-2.0], [0.5], [1.5]]))
    best = None
    for ev in res.events:
        if ev.kind == "CertificatePosted" and not ev.extras["reused"] and (
            res.events[ev.seq - 1].kind == "DataArrival"
        ):
            best = ev.J  # epoch head resets the within-epoch best
        elif ev.kind == "BestUpdated":
            assert best is None or ev.J < best + 1e-12
            best = ev.J
    assert any(ev.kind == "BestUpdated" for ev in res.events)


def test_runs_replay_bit_identically():
    cfg = make_config(coupled_quadratic(), 5, x0=np.array([1.0]))
    pts = stream([[1.0], [2.0], [-1.0], [0.5], [3.0]])
    a = run(cfg, pts)
    b = run(cfg, pts)
    ra = json.dumps([ev.record() for ev in a.events])
    rb = json.dumps([ev.record() for ev in b.events])
    assert ra == rb
    assert np.array_equal(a.x_best, b.x_best) and a.j_best == b.j_best


def test_final_event_carries_the_returned_decision():
    cfg = make_config(coupled_quadratic(), 3, x0=np.array([1.0]))
    res = run(cfg, stream([[1.0], [2.0], [-1.0]]))
    last = res.events[-1]
    assert last.kind == "Terminated"
    assert last.x == pytest.approx(res.x_best)
    assert last.J == pytest.approx(res.j_best)


def test_reuse_totals_match_posted_flags():
    cfg = make_config(pure_quadratic(), 3, x0=np.array([2.0]))
    res = run(cfg, stream([[1.0], [2.0], [-1.0]]))
    posted = [
        ev for ev in res.events
        if ev.kind == "CertificatePosted" and "y_ref" in ev.extras
    ]
    flagged = [
        ev for ev in res.events
        if ev.kind == "CertificatePosted" and ev.extras["reused"]
    ]
    assert posted == flagged
    assert res.totals.reuses == len(flagged) >= 1


def test_horizon_stop_runs_the_configured_step_count():
    tol = Tolerances(eps1=1e-6, eps2=0.5, eps_sa=0.1, subgrad_bound=0.5,
                     lipschitz=1.0)
    cfg = make_config(coupled_quadratic(), 1, tolerances=tol,
                      step_rule="constant", stop_rule="horizon",
                      x0=np.array([1.0]))
    res = run(cfg, stream([[2.0]]))
    converged = [ev for ev in res.events if ev.kind == "EpochConverged"]
    assert len(converged) == 1
    assert converged[0].extras["reason"] == "horizon"
    assert converged[0].extras["steps"] == 2  # ceil(M^2 / slack^2)


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
        cover=CoverConfig(enabled=True, omega=1.0, metric="l1"),
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


def plain_run():
    cfg = make_config(coupled_quadratic(), 6, x0=np.array([1.5]))
    return cfg, run(cfg, stream([[1.0], [-2.0], [0.5], [1.5], [3.0], [0.2]]))


def posted_plans(cfg, records):
    """(window, plan, radius) for every posted certificate, with the window
    and radius rebuilt from the logged arrivals as the run and the audit
    build them."""
    samples = Samples(cfg.model.dimension_m, len(records), cfg.concentration,
                      cfg.schedule, cfg.cover)
    plans, out = {}, []
    for rec in records:
        if rec["kind"] == "DataArrival":
            samples.add(rec["point"], rec["index"])
        elif rec["kind"] == "CertificatePosted":
            window, radius, _ = samples.ball()
            assert radius == rec["radius"]
            y = (plan_from_entries(rec["y"], (window.size, window.dimension))
                 if "y" in rec else plans[rec["y_ref"]])
            plans[rec["seq"]] = y
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
    # the first refresh that moves the second cover center
    seq, entry = next((r["seq"], e) for r in records
                      if r["kind"] == "CertificatePosted" and "y" in r
                      for e in r["y"] if e[:2] == [1, 0])
    entry[2] = float("nan")
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
    # record 6 certifies the window {0, 4}; moving each atom onto the other
    # pays 4 per unit mass, beyond the radius, though the moved measure is
    # the window itself: the budget prices the plan, not the distance
    checks, failures = swap_audit(6, [[0, 0, -4.0], [1, 0, 4.0]])
    assert checks["certificate_budget"].failures == 2  # record 6, reuse 7
    assert any(f.startswith("record 6: budget 4.0 exceeds") for f in failures)


def test_audit_single_atom_over_budget_fails_the_budget_check():
    # record 1 certifies the one-sample window {0} with radius about 1.18
    checks, failures = swap_audit(1, [[0, 0, 2.0]])
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
    records[0]["seq"], records[1]["seq"] = 0, 1


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
], ids=["nan", "nan-cover", "wrong-dimension", "missing", "certificate-first"])
def test_audit_reports_a_corrupted_arrival_without_raising(
        make_records, tamper, message):
    cfg, records = make_records()
    tamper(records)
    report = audit(cfg, records)
    assert not report.ok
    assert any(message in f for f in report.failures), report.failures
    structure = next(c for c in report.checks if c.name == "structure")
    assert structure.failures >= 1


CERT_FIELDS = "certificate J, x, tol or radius missing or malformed"


@pytest.mark.parametrize("tamper, message", [
    (lambda recs: recs[6].pop("J"), f"record 6: {CERT_FIELDS}"),
    (lambda recs: recs[6].pop("x"), f"record 6: {CERT_FIELDS}"),
    (lambda recs: recs[6].pop("tol"), f"record 6: {CERT_FIELDS}"),
    (lambda recs: recs[6].update(radius=None), f"record 6: {CERT_FIELDS}"),
    (lambda recs: recs[6].update(y=[[1, 0, 1.0], [1, 0]]),
     "record 6: plan ragged or not numeric"),
    (lambda recs: recs[6].update(y=[[2, 0, 1.0]]),
     "record 6: plan coordinate outside the window"),
    (lambda recs: recs[6].update(y=[[1, 0, 1.0], [1, 0, 1.0]]),
     "record 6: plan coordinates repeat"),
    (lambda recs: recs[6].update(y=[[0.5, 0, 1.0]]),
     "record 6: plan coordinate not an integer"),
    (lambda recs: recs[6].update(y=[[1, 0, float("nan")]]),
     "record 6: plan or decision not finite"),
    (lambda recs: recs[6].update(y=[[1, 0, 1.0, 0.0]]),
     "record 6: plan ragged or not numeric"),
    (lambda recs: recs[6].update(y=[[0.0], [1.6651092223153954]]),
     "record 6: plan ragged or not numeric"),
    (lambda recs: recs[8].pop("J"), "record 8: step J or x missing"),
    (lambda recs: recs[8].update(x=[0.0]), "record 8: step x is not null"),
    (lambda recs: second_arrival(recs).update(n="two"),
     "record 5: count 'two' not a number"),
    (lambda recs: recs.__setitem__(8, [1, 2]), "record 8: not a JSON object"),
], ids=["cert-no-J", "cert-no-x", "cert-no-tol", "radius-null", "ragged-y",
        "y-outside", "y-repeated", "y-non-integer", "y-nan-value",
        "y-row-length", "y-legacy-dense", "step-no-J", "step-x",
        "arrival-n-not-numeric", "not-an-object"])
def test_audit_reports_a_malformed_record_without_raising(tamper, message):
    # records 6 and 8 are the second window's certificate and its step;
    # record 6 moves the atom at 4 by about 1.67
    cfg, records = two_sample_records()
    assert records[6]["kind"] == "CertificatePosted"
    assert records[6]["y"] == [[1, 0, 1.6651092223153954]]
    assert records[8]["kind"] == "DecisionStep"
    tamper(records)
    report = audit(cfg, records)
    assert not report.ok
    assert any(f.startswith(message) for f in report.failures), report.failures
    structure = next(c for c in report.checks if c.name == "structure")
    assert structure.failures >= 1


def plain_records():
    cfg, res = plain_run()
    return cfg, [ev.record() for ev in res.events]


@pytest.mark.parametrize("make_records, kind, check", [
    (two_sample_records, "DecisionStep", "step_links"),
    (plain_records, "DecisionStep", "step_links"),
    (plain_records, "BestUpdated", "best_tracking"),
], ids=["two-sample-step", "step", "best"])
def test_audit_requires_a_link_to_the_latest_certificate(make_records, kind,
                                                         check):
    # the last such record names the certificate posted before its own, at
    # that one's value; on the two-sample run that is step 8 naming the
    # refresh 6 that its reuse 7 copies, which has the same value already
    cfg, records = make_records()
    assert audit(cfg, records).ok
    i = max(i for i, r in enumerate(records) if r["kind"] == kind)
    own = records[i]["cert_seq"]
    earlier = max(j for j in range(own)
                  if records[j]["kind"] == "CertificatePosted")
    records[i].update(cert_seq=earlier, J=records[earlier]["J"])
    report = audit(cfg, records)
    failed = {c.name: c.failures for c in report.checks}
    assert failed[check] == 1 and sum(failed.values()) == 1
    what = "step" if kind == "DecisionStep" else "best"
    assert (f"record {i}: {what} names certificate {earlier}, not the latest "
            f"{own}") in report.failures


def shift_x(rec):
    rec["x"] = [v + 5.0 for v in rec["x"]]


@pytest.mark.parametrize("kind, tamper, check, message", [
    ("EpochConverged", shift_x, "best_tracking",
     "epoch x != best certificate"),
    ("EpochConverged", lambda rec: rec.pop("best_seq"), "best_tracking",
     "missing best None"),
    ("Terminated", shift_x, "termination", "final x != best certificate's"),
], ids=["epoch-x", "epoch-no-best", "final-x"])
def test_audit_requires_the_best_certificates_decision(kind, tamper, check,
                                                        message):
    # the epoch's and the run's output decision is the x of the certificate
    # best_seq names; a shifted x keeps every posted value
    cfg, records = plain_records()
    assert audit(cfg, records).ok
    i = max(i for i, r in enumerate(records) if r["kind"] == kind)
    tamper(records[i])
    report = audit(cfg, records)
    failed = {c.name: c.failures for c in report.checks}
    assert failed[check] == 1 and sum(failed.values()) == 1
    assert any(f.startswith(f"record {i}: {message}")
               for f in report.failures), report.failures


def retarget_output(records):
    """Point the last epoch's convergence and the termination, with their J
    and x, at the certificate posted before the epoch's best one; returns
    the two records' indices, that certificate's seq and the best's."""
    end, stop = (max(i for i, r in enumerate(records) if r["kind"] == kind)
                 for kind in ("EpochConverged", "Terminated"))
    best = records[end]["best_seq"]
    other = max(j for j in range(best)
                if records[j]["kind"] == "CertificatePosted")
    assert records[other]["l"] == records[best]["l"]
    assert records[other]["J"] > records[best]["J"]
    for i in (end, stop):
        records[i].update(best_seq=other, J=records[other]["J"],
                          x=records[other]["x"])
    return end, stop, other, best


def test_audit_requires_the_epochs_running_best():
    # the output names a certificate of the right epoch, with its own J and
    # x, that is not the epoch's best: every value checks out, the best
    # tracking does not
    cfg, records = plain_records()
    end, stop, other, best = retarget_output(records)
    report = audit(cfg, records)
    failed = {c.name: c.failures for c in report.checks}
    assert failed["best_tracking"] == failed["termination"] == 1
    assert sum(failed.values()) == 2
    assert (f"record {end}: epoch best names certificate {other}, not the "
            f"epoch's best {best}") in report.failures
    assert (f"record {stop}: final best names certificate {other}, not the "
            f"epoch's best {best}") in report.failures


def test_audit_requires_a_best_update_exactly_after_each_improvement():
    cfg, records = plain_records()
    # the last best update becomes a second step record: its certificate
    # lowered the best, and nothing says so before the epoch converges
    dropped = max(i for i, r in enumerate(records)
                  if r["kind"] == "BestUpdated")
    records[dropped]["kind"] = "DecisionStep"
    report = audit(cfg, records)
    failed = {c.name: c.failures for c in report.checks}
    assert failed["best_tracking"] == 1 and sum(failed.values()) == 1
    cert_seq = records[dropped]["cert_seq"]
    assert (f"record {cert_seq}: certificate lowers its epoch's best J but no "
            "best update follows") in report.failures

    cfg, records = plain_records()
    # a step whose certificate does not lower the best claims that it does
    extra = max(i for i, r in enumerate(records)
                if r["kind"] == "DecisionStep"
                and records[i + 1]["kind"] != "BestUpdated")
    records[extra]["kind"] = "BestUpdated"
    report = audit(cfg, records)
    failed = {c.name: c.failures for c in report.checks}
    assert failed["best_tracking"] == 1 and sum(failed.values()) == 1
    assert (f"record {extra}: best update for certificate "
            f"{records[extra]['cert_seq']}, which does not lower its epoch's "
            "best J") in report.failures


def test_audit_fails_an_infinite_value_and_a_nan_tolerance():
    # inf - x is inf, which the relative tolerance max(|a|, |b|) would absorb
    cfg, records = two_sample_records()
    records[6]["J"] = float("inf")
    checks = {c.name: c for c in audit(cfg, records).checks}
    assert checks["certificate_value"].failures == 1
    cfg, records = two_sample_records()
    records[6]["tol"] = float("nan")
    checks = {c.name: c for c in audit(cfg, records).checks}
    assert checks["certificate_gap"].failures == 1


def test_audit_checks_the_posted_tolerance_against_the_run():
    cfg, records = two_sample_records()
    assert records[6]["kind"] == "CertificatePosted" and "y" in records[6]

    def checks(recs):
        report = verify_events(recs, cfg.model, cfg.concentration,
                               cfg.schedule, tolerances=cfg.tolerances)
        return {c.name: c.failures for c in report.checks}

    assert not any(checks(records).values())
    records[6]["tol"] = 1e9
    # without the run's tolerances the audit can only trust the posted one
    assert verify_events(records, cfg.model, cfg.concentration,
                         cfg.schedule).ok
    failed = checks(records)
    assert failed["certificate_gap"] == 1
    assert sum(failed.values()) == 1
    cfg, records = two_sample_records()
    records[6]["reused"] = True  # a refresh that posts a full plan
    failed = checks(records)
    assert failed["structure"] == 1
    assert sum(failed.values()) == 1


def test_audit_fails_weighted_certificate_above_its_tolerance():
    # the gap divides by n, not by the p < n cover centers; that looser
    # normalisation must still let the audit catch a gap above its tolerance.
    # The one-dimensional cover run solves every weighted hull exactly, so
    # take a three-dimensional one.
    cfg, points = pinned_run("study1", 40, True, None)
    records = [ev.record() for ev in run(cfg, points).events]
    # each certificate's window has as many atoms as the cover has centers
    atoms, size = {}, None
    for r in records:
        if r["kind"] == "DataArrival":
            size = r["cover_size"]
        atoms[r["seq"]] = size
    # the audit allows the gap 1e-9 above its tolerance, so halving the
    # tolerance must take off more than that
    seq = next(r["seq"] for r in records
               if r["kind"] == "CertificatePosted" and not r["reused"]
               and atoms[r["seq"]] < r["n"] and r["eta"] / 2 > 1e-9)
    rec = records[seq]
    assert rec["kind"] == "CertificatePosted" and not rec["reused"]
    assert atoms[seq] < rec["n"]  # a weighted window
    rec["tol"] = rec["eta"] / 2
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
#  lp_calls, cp_calls, afwa_iters, interrupts, reuses, events, log bytes)
PINNED_WORK = [
    ("study1", 40, False, None, 140, 42, 1348, 0, 58, 249, 79584),
    ("study1", 40, False, 5000.0, 125, 39, 1249, 7, 51, 221, 67503),
    ("study1", 40, True, None, 143, 45, 1542, 0, 58, 249, 78121),
    ("study2", 10, True, None, 670, 222, 6021, 0, 24, 717, 360139),
    ("study1-coupled", 40, False, 5000.0, 634, 218, 5064, 33, 36, 532, 171635),
]
PINNED_IDS = ["study1", "study1-interrupted", "study1-cover", "study2-cover",
              "study1-coupled-interrupted"]


@pytest.mark.parametrize(
    "preset, n0, cover, budget, lp, cp, iters, interrupts, reuses, events, "
    "log_bytes",
    PINNED_WORK, ids=PINNED_IDS)
def test_work_counters_are_pinned(preset, n0, cover, budget, lp, cp, iters,
                                  interrupts, reuses, events, log_bytes,
                                  monkeypatch):
    # the virtual clock meters solver work, so a change that only speeds the
    # solvers up leaves every counter and the event sequence as they are;
    # the log's size is pinned too, within 1% since float digits may move.
    # Every vertex search the clock is charged for is counted, those of
    # interrupted attempts and of failed revalidations too
    searches = []

    def point_search(*args, **kwargs):
        searches.append(None)
        return simplex.point_search(*args, **kwargs)

    monkeypatch.setattr(certificates, "point_search", point_search)
    res = run(*pinned_run(preset, n0, cover, budget))
    t = res.totals
    assert (t.lp_calls, t.cp_calls, t.afwa_iters, t.interrupts, t.reuses,
            len(res.events)) == (lp, cp, iters, interrupts, reuses, events)
    assert t.lp_calls == len(searches)
    assert len(log_text(res).encode()) == pytest.approx(log_bytes, rel=0.01)


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
    res = run(*pinned_run(preset, n0, cover, budget))
    last = [ev.record() for ev in res.events
            if ev.kind == "CertificatePosted"][-1]
    assert last["radius"] == pytest.approx(radius, rel=1e-12)


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
    cfg, points = pinned_run("study1", 12, False, None)
    return cfg, log_text(run(cfg, points))


# every key some record of the study1 log carries
LOG_KEYS = sorted({
    "seq", "kind", "t", "n", "r", "l", "J", "beta", "x", "point", "index",
    "arrival_t", "cover_opened", "cover_size", "eta", "tol", "radius",
    "reused", "lp_calls", "cp_calls", "afwa_iters", "y", "y_ref", "alpha",
    "moved", "cert_seq", "steps", "reason", "rules_disagree", "best_seq"})
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
# record 1 is the log's first certificate, the only one whose epoch l the
# audit read before anything else
@example(edit=("set", 5, "n", math.inf))
@example(edit=("set", 1, "l", None))
@example(edit=("drop", 1, "l"))
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


def test_the_audit_reports_a_decision_outside_the_models_domain():
    # the barrier model raises on a decision outside (0, 1); re-pricing a
    # certificate that posts one is a structure failure, not a raise
    cfg = make_config(portfolio_model(0.1), 3, x0=np.array([0.5]))
    res = run(cfg, stream([[0.1, 0.2], [0.3, -0.1], [0.0, 0.4]]))
    records = [ev.record() for ev in res.events]
    assert audit(cfg, records).ok
    seq = next(r["seq"] for r in records if r["kind"] == "CertificatePosted")
    records[seq]["x"] = [2.0]
    report = audit(cfg, records)
    assert not report.ok
    assert any(f.startswith(f"record {seq}: certificate cannot be re-priced")
               for f in report.failures), report.failures


@pytest.mark.parametrize("n0, budget, seed, interrupted", [
    (20, 1e12, 0, False),
    (60, None, 1, True),
], ids=["no-interrupts", "study1-budget"])
def test_a_coupled_run_ends_at_the_exact_robust_optimum(n0, budget, seed,
                                                        interrupted):
    # the last epoch certifies the whole stream at the last radius, where
    # water-filling prices the worst case J exactly. j_best is a feasible
    # plan's value within its posted gap (at most eps_sa) of J(x_best), so
    # j_best >= J* - eps_sa; the epoch aims at j_best <= J* + eps2. J is x^2
    # plus a supremum of functions affine in x, so 2-strongly convex:
    # (x_best - x*)^2 <= J(x_best) - J* <= eps2 + eps_sa
    cfg = presets.with_overrides(preset_config("study1-coupled", seed), n0=n0)
    mat = presets.materialize(cfg)
    config = mat.run_config
    if budget is not None:
        config = dataclasses.replace(config, cost_budget_per_period=budget)
    res = run(config, mat.stream)
    assert (res.totals.interrupts > 0) == interrupted
    assert res.totals.refreshes > 0
    records = [ev.record() for ev in res.events]
    report = verify_events(records, config.model, config.concentration,
                           config.schedule, config.cover,
                           tolerances=config.tolerances)
    assert report.ok, report.failures
    radius = [r for r in records if r["kind"] == "CertificatePosted"][-1][
        "radius"]
    points = np.stack([p.value for p in mat.stream[:n0]])
    robust = robust_value_1d(np.eye(1), np.array(COUPLED_B), -np.ones(3),
                             points, np.ones(n0), n0, radius)
    x_star, j_star = golden_min(robust, -20.0, 20.0)
    tol = config.tolerances
    assert -tol.eps_sa <= res.j_best - j_star <= tol.eps2
    assert abs(res.x_best[0] - x_star) <= math.sqrt(tol.eps2 + tol.eps_sa)
