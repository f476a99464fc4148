"""Offline re-verification of a run from its event log alone.

The log carries every ingested point and every posted certificate's
perturbation plan, so an auditor can rebuild the windows (and the cover,
deterministically), re-price each certificate, re-measure its optimality
gap with an independent vertex search, and re-check the transport budget.
Small-support windows additionally get the transport distance from their
worst-case distribution to the window bounded by the radius. The posted
worst case keeps the window's weights, so the plan pairing each atom with
its own moved atom is feasible and its cost bounds that distance from
above; only when this paired cost exceeds the radius is the exact
distance solved as a linear program, whose verdict stands. Windows change
only at arrivals, so each is built once and reused by the certificates
posted before the next arrival.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ambiguity import ConcentrationParams, ConfidenceSchedule
from .ambiguity import radius as ball_radius
from .certificates import DataWindow, certificate_value, _Problem
from .cover import Cover, inflated_radius
from .measures import DiscreteDistribution
from .runner import EVENT_KINDS, CoverConfig
from .simplex import point_search
from .transport import paired_cost, w1_distance

_REL = 1e-7
_ABS = 1e-9
_MAX_REPORTED = 20


@dataclass
class AuditCheck:
    name: str
    count: int = 0
    failures: int = 0

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass
class AuditReport:
    ok: bool
    checks: list[AuditCheck]
    failures: list[str]

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            lines.append(f"{c.name}: {status} ({c.count} checked, {c.failures} failed)")
        return lines


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _ABS + _REL * max(abs(a), abs(b))


def verify_events(
    records: list[dict],
    model,
    concentration: ConcentrationParams,
    schedule: ConfidenceSchedule,
    cover_config: Optional[CoverConfig] = None,
    w1_support_max: int = 8,
) -> AuditReport:
    """Re-check a full event log; every failure is collected, none raise."""
    checks = {
        name: AuditCheck(name)
        for name in (
            "structure",
            "arrivals",
            "certificate_value",
            "certificate_budget",
            "certificate_gap",
            "radius_schedule",
            "transport_distance",
            "step_links",
            "best_tracking",
            "termination",
        )
    }
    failures: list[str] = []

    def fail(check: str, msg: str) -> None:
        checks[check].failures += 1
        if len(failures) < _MAX_REPORTED:
            failures.append(msg)
        elif len(failures) == _MAX_REPORTED:
            failures.append("... further failures suppressed")

    cover_on = cover_config is not None and cover_config.enabled
    cover = Cover(cover_config.omega, cover_config.metric) if cover_on else None
    raw: list[np.ndarray] = []
    window: Optional[DataWindow] = None
    certs: dict[int, dict] = {}
    best_j: Optional[float] = None
    last_t = -np.inf
    last_n = 0
    terminated = False

    for i, rec in enumerate(records):
        checks["structure"].count += 1
        seq = rec.get("seq")
        kind = rec.get("kind")
        if seq != i:
            fail("structure", f"record {i}: seq {seq} out of order")
        if kind not in EVENT_KINDS:
            fail("structure", f"record {i}: unknown kind {kind!r}")
            continue
        t = float(rec.get("t", np.nan))
        if not np.isfinite(t) or t < last_t - 1e-12:
            fail("structure", f"record {i}: time {t} moves backward")
        last_t = max(last_t, t)
        n = int(rec.get("n", -1))
        if n < last_n and kind == "DataArrival":
            fail("structure", f"record {i}: sample count shrank to {n}")
        if terminated:
            fail("structure", f"record {i}: event after termination")

        if kind == "DataArrival":
            checks["arrivals"].count += 1
            point = np.asarray(rec["point"], dtype=float)
            raw.append(point)
            if n != len(raw):
                fail("arrivals", f"record {i}: count {n} != ingested {len(raw)}")
            if cover is not None:
                opened = cover.update(point)
                if rec.get("cover_opened") is not None and bool(
                    rec["cover_opened"]
                ) != bool(opened):
                    fail("arrivals", f"record {i}: cover open/absorb mismatch")
                if rec.get("cover_size") is not None and int(
                    rec["cover_size"]
                ) != cover.size:
                    fail(
                        "arrivals",
                        f"record {i}: cover size {rec['cover_size']} != "
                        f"{cover.size}",
                    )
            last_n = n
            window = None

        elif kind == "CertificatePosted":
            if window is None:
                if cover is not None:
                    window = cover.window()
                else:
                    window = DataWindow.plain(np.stack(raw))
                beta = schedule.beta(window.n_total)
                eps = ball_radius(concentration, beta, window.n_total)
                if cover is not None:
                    eps = inflated_radius(eps, cover_config.omega)
            if n != window.n_total:
                fail("structure", f"record {i}: certificate n {n} != ingested")
                continue
            checks["radius_schedule"].count += 1
            if rec.get("beta") is None or not _close(float(rec["beta"]), beta):
                fail("radius_schedule", f"record {i}: beta mismatch")
            if not _close(float(rec["radius"]), eps):
                fail("radius_schedule", f"record {i}: radius mismatch")

            if "y" in rec:
                y = np.asarray(rec["y"], dtype=float)
            else:
                ref = rec.get("y_ref")
                src = certs.get(ref)
                if src is None or src["n"] != n:
                    fail("structure", f"record {i}: unresolved plan ref {ref}")
                    continue
                y = src["y"]
            x = np.asarray(rec["x"], dtype=float)
            if y.shape != (window.size, window.dimension):
                fail("structure", f"record {i}: plan shape {y.shape} wrong")
                continue
            if not (np.isfinite(y).all() and np.isfinite(x).all()):
                fail("structure", f"record {i}: plan or decision not finite")
                continue

            checks["certificate_value"].count += 1
            j = certificate_value(model, x, window, y)
            if not _close(j, float(rec["J"])):
                fail(
                    "certificate_value",
                    f"record {i}: J recomputed {j!r} != recorded {rec['J']!r}",
                )

            checks["certificate_budget"].count += 1
            z = window.theta[:, None] * y
            spent = float(np.abs(z).sum()) / n
            if spent > eps + 1e-9:
                fail(
                    "certificate_budget",
                    f"record {i}: budget {spent} exceeds radius {eps}",
                )

            checks["certificate_gap"].count += 1
            problem = _Problem(model, x, window)
            _, eta = point_search(problem.grads(z), n * eps, z, n_total=n)
            tol_used = float(rec["tol"])
            if eta > tol_used + 1e-9:
                fail(
                    "certificate_gap",
                    f"record {i}: gap {eta} exceeds tolerance {tol_used}",
                )
            if rec.get("eta") is not None and not _close(eta, float(rec["eta"])):
                fail("certificate_gap", f"record {i}: gap mismatch")

            if window.size <= w1_support_max:
                checks["transport_distance"].count += 1
                moved = window.points - y
                weights = window.theta / n
                dist = paired_cost(window.points, moved, weights)
                # a NaN bound falls through to the exact distance
                if not dist <= eps + 1e-7:
                    worst = DiscreteDistribution(moved, weights)
                    dist, _ = w1_distance(window.measure(), worst)
                if dist > eps + 1e-7:
                    fail(
                        "transport_distance",
                        f"record {i}: transport distance {dist} exceeds "
                        f"radius {eps}",
                    )
            certs[i] = {"n": n, "y": y, "x": x, "J": float(rec["J"])}

        elif kind == "DecisionStep":
            checks["step_links"].count += 1
            ref = rec.get("cert_seq")
            src = certs.get(ref)
            if src is None:
                fail("step_links", f"record {i}: missing certificate {ref}")
            else:
                if not np.array_equal(
                    np.asarray(rec["x"], dtype=float), src["x"]
                ):
                    fail("step_links", f"record {i}: step decision != certificate")
                if not _close(float(rec["J"]), src["J"]):
                    fail("step_links", f"record {i}: step value != certificate")

        elif kind == "BestUpdated":
            checks["best_tracking"].count += 1
            ref = rec.get("cert_seq")
            if ref not in certs:
                fail("best_tracking", f"record {i}: missing certificate {ref}")
            elif not _close(float(rec["J"]), certs[ref]["J"]):
                fail("best_tracking", f"record {i}: best value != certificate")
            best_j = float(rec["J"])

        elif kind == "EpochConverged":
            checks["best_tracking"].count += 1
            ref = rec.get("best_seq")
            if ref is not None and ref not in certs:
                fail("best_tracking", f"record {i}: missing best {ref}")

        elif kind == "Terminated":
            checks["termination"].count += 1
            terminated = True
            ref = rec.get("best_seq")
            if ref is not None and ref in certs:
                if not _close(float(rec["J"]), certs[ref]["J"]):
                    fail("termination", f"record {i}: final value mismatch")
            else:
                fail("termination", f"record {i}: missing final certificate")

    checks["termination"].count += 1
    if not terminated:
        fail("termination", "log does not end with a termination event")

    report = AuditReport(
        ok=all(c.passed for c in checks.values()),
        checks=list(checks.values()),
        failures=failures,
    )
    return report
