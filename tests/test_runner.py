"""Event-loop behavior: sequencing, interrupts, determinism, and audits."""

import json

import numpy as np
import pytest

from drostream.ambiguity import ConcentrationParams, ConfidenceSchedule
from drostream.audit import verify_events
from drostream.model import Tolerances, quadratic_model
from drostream.runner import CoverConfig, RunConfig, run
from drostream.stream import SamplePoint
from drostream.transport import w1_distance


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
    assert res.n == 1 and res.epochs == 1
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


def test_cover_run_audit_proves_transport_without_the_lp(monkeypatch):
    # every window here has at most 8 atoms and every plan is within
    # budget, so the paired coupling proves each transport check
    def no_lp(p, q):
        raise AssertionError("the exact transport LP was called")

    monkeypatch.setattr("drostream.audit.w1_distance", no_lp)
    cfg, res = cover_run()
    records = [ev.record() for ev in res.events]
    report = audit(cfg, records)
    assert report.ok, report.failures
    check = next(c for c in report.checks if c.name == "transport_distance")
    assert check.count == kinds(res.events).count("CertificatePosted") == 54


def test_audit_reports_a_non_finite_plan_without_raising():
    cfg, res = cover_run()
    records = [ev.record() for ev in res.events]
    rec = records[47]
    assert rec["kind"] == "CertificatePosted" and "y" in rec
    rec["y"][1][0] = float("nan")
    report = audit(cfg, records)
    assert not report.ok
    assert "record 47: plan or decision not finite" in report.failures
    structure = next(c for c in report.checks if c.name == "structure")
    assert structure.failures >= 1


def swap_audit(monkeypatch, seq, swapped_y):
    """Audit a two-sample plain run with record ``seq``'s plan replaced,
    counting the exact transport LP's calls."""
    lp_calls = []

    def counted(p, q):
        lp_calls.append(1)
        return w1_distance(p, q)

    monkeypatch.setattr("drostream.audit.w1_distance", counted)
    cfg = make_config(pure_quadratic(), 2)
    records = [ev.record() for ev in run(cfg, stream([[0.0], [4.0]])).events]
    assert records[seq]["kind"] == "CertificatePosted" and "y" in records[seq]
    records[seq]["y"] = swapped_y
    report = verify_events(records, cfg.model, cfg.concentration, cfg.schedule)
    return {c.name: c for c in report.checks}, report.failures, len(lp_calls)


def test_audit_swap_passes_transport_through_the_lp(monkeypatch):
    # record 6 certifies the window {0, 4}; moving each atom onto the other
    # pays 4 per unit mass in the paired plan, beyond the radius, yet the
    # moved measure is the window itself, so the exact distance is 0
    checks, failures, lp_calls = swap_audit(monkeypatch, 6, [[-4.0], [4.0]])
    assert lp_calls == 2  # record 6 and its reuse, record 7
    assert checks["transport_distance"].count == 4
    assert checks["transport_distance"].failures == 0
    assert checks["certificate_budget"].failures == 2
    assert any(f.startswith("record 6: budget 4.0 exceeds") for f in failures)


def test_audit_single_atom_over_budget_fails_both_checks(monkeypatch):
    # record 1 certifies the one-sample window {0} with radius about 1.18
    checks, failures, lp_calls = swap_audit(monkeypatch, 1, [[2.0]])
    assert lp_calls == 2  # record 1 and its reuse, record 2
    assert checks["transport_distance"].failures == 2
    assert checks["certificate_budget"].failures == 2
    assert any(f.startswith("record 1: transport distance 2.0 exceeds")
               for f in failures)


def test_audit_fails_weighted_certificate_above_its_tolerance():
    # the gap divides by n, not by the p < n cover centers; that looser
    # normalisation must still let the audit catch a gap above its tolerance
    cfg, res = cover_run()
    records = [ev.record() for ev in res.events]
    rec = records[50]
    assert rec["kind"] == "CertificatePosted" and not rec["reused"]
    assert len(rec["y"]) < rec["n"]  # a weighted window
    rec["tol"] = rec["eta"] / 2
    report = audit(cfg, records)
    assert not report.ok
    for check in report.checks:
        want = 1 if check.name == "certificate_gap" else 0
        assert check.failures == want, (check.name, report.failures)
    assert len(report.failures) == 1
    assert report.failures[0].startswith("record 50: gap ")
