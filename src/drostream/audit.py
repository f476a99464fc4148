"""Offline re-verification of a run from its event log alone.

The log carries every ingested point and every posted certificate's
perturbation plan, so an auditor can replay the arrivals through the
runner's own ``Samples`` (which rebuilds the cover deterministically) to get
each window and radius, re-price each certificate, re-measure its optimality
gap with an independent vertex search, and re-check the transport budget.
The budget check also bounds the 1-Wasserstein distance from the window to
the posted worst case by the radius. That worst case keeps the window's
weights theta_k / n and moves atom k to point_k - y_k, so pairing each atom
with its own moved atom is a feasible coupling. Its cost,
sum_k (theta_k / n) |y_k|_1, is exactly the budget spent, and W1 is never
more than the cost of a feasible coupling. Windows change only at arrivals,
so ``Samples`` builds each once and the certificates posted before the next
arrival reuse it.

A refresh posts its plan in coordinate form, its nonzero ``[k, j, value]``
entries, and the audit rebuilds the dense plan from them and the window's
shape (``plan_from_entries``). A step or best update names its certificate
by ``cert_seq`` and posts no decision of its own: the certificate's ``x``
is the step's decision, so the log holds one copy of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ambiguity import ConcentrationParams, ConfidenceSchedule
from .certificates import certificate_value, plan_from_entries, _Problem
from .model import Tolerances
from .runner import EVENT_KINDS, CoverConfig, Samples
from .simplex import point_search

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
    # an infinite value is close to nothing: inf - x is not finite
    diff = a - b
    return math.isfinite(diff) and abs(diff) <= _ABS + _REL * max(abs(a), abs(b))


def _number(rec: dict, key: str) -> Optional[float]:
    """``rec[key]`` as a float; None when it is missing, null or not a
    number."""
    try:
        return float(rec[key])
    except (KeyError, TypeError, ValueError, OverflowError):
        return None


def _array(rec: dict, key: str) -> Optional[np.ndarray]:
    """``rec[key]`` as a float array; None when it is missing, null, ragged
    or not numeric."""
    try:
        return np.asarray(rec[key], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None


def verify_events(
    records: list[dict],
    model,
    concentration: ConcentrationParams,
    schedule: ConfidenceSchedule,
    cover_config: Optional[CoverConfig] = None,
    *,
    tolerances: Optional[Tolerances] = None,
) -> AuditReport:
    """Re-check a full event log; every failure is collected, none raise.

    Each certificate's gap is checked against the tolerance it posts. Given
    the run's ``tolerances``, that posted tolerance must also be the run's:
    ``eps_sa`` for a reuse (posted with ``y_ref``), ``eps1`` for a refresh;
    a ``reused`` flag that disagrees with the plan form is a ``structure``
    failure.

    A malformed record is a ``structure`` failure; the audit skips it and
    goes on. Malformed means a record that is not a JSON object, a missing
    or non-numeric field the checks read (time, count, value, decision,
    tolerance, radius, plan), a certificate whose epoch ``l`` is not an
    int, a plan that is not in coordinate form inside its window (see
    ``plan_from_entries``) or not finite, a certificate the model cannot
    re-price (a decision outside its domain), a step or best update whose
    ``x`` is not null, an arrival without a finite point of the model's
    sample dimension, or a certificate before any arrival.

    A step or best update must name by ``cert_seq`` the latest certificate
    posted before it, and match its value; otherwise ``step_links`` or
    ``best_tracking`` fails. Each epoch's best certificate is tracked by the
    runner's rule: the epoch's first certificate, then each later one whose
    ``J`` is strictly lower. A best update must follow exactly the steps
    whose certificate lowers it. The epoch's convergence and the run's
    termination must name it by ``best_seq`` and post its ``J`` and exactly
    its ``x``. Otherwise ``best_tracking`` or ``termination`` fails.
    """
    checks = {
        name: AuditCheck(name)
        for name in (
            "structure",
            "arrivals",
            "certificate_value",
            "certificate_budget",
            "certificate_gap",
            "radius_schedule",
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

    # each record holds at most one arrival
    samples = Samples(model.dimension_m, len(records), concentration,
                      schedule, cover_config or CoverConfig())
    certs: dict[int, dict] = {}

    def cert(ref) -> Optional[dict]:
        # certificates are keyed by their int seq; any other ref names none
        return certs.get(ref) if isinstance(ref, int) else None

    last_t = -np.inf
    last_n = 0
    latest_cert = None  # seq of the latest CertificatePosted record
    # the epoch (record l) of the latest certificate and the seq of its best
    # one; improved is a certificate that lowered it and awaits BestUpdated
    epoch = best = improved = None
    terminated = False

    for i, rec in enumerate(records):
        checks["structure"].count += 1
        if not isinstance(rec, dict):
            fail("structure", f"record {i}: not a JSON object")
            continue
        seq = rec.get("seq")
        kind = rec.get("kind")
        if seq != i:
            fail("structure", f"record {i}: seq {seq} out of order")
        if kind not in EVENT_KINDS:
            fail("structure", f"record {i}: unknown kind {kind!r}")
            continue
        if improved is not None and kind not in ("DecisionStep", "BestUpdated"):
            fail("best_tracking", f"record {improved}: certificate lowers "
                 "its epoch's best J but no best update follows")
            improved = None
        t = _number(rec, "t")
        if t is None or not math.isfinite(t) or t < last_t - 1e-12:
            fail("structure", f"record {i}: time {t} moves backward")
        else:
            last_t = max(last_t, t)
        try:
            n = int(rec.get("n", -1))
        except (TypeError, ValueError, OverflowError):
            fail("structure", f"record {i}: count {rec.get('n')!r} not a number")
            continue
        if n < last_n and kind == "DataArrival":
            fail("structure", f"record {i}: sample count shrank to {n}")
        if terminated:
            fail("structure", f"record {i}: event after termination")

        if kind == "DataArrival":
            checks["arrivals"].count += 1
            point = _array(rec, "point")
            try:
                # a point that is None or not a vector fails the shape test
                opened = samples.add(point, i)
            except ValueError:
                fail("structure", f"record {i}: arrival point missing, "
                     "misshapen or not finite")
                continue
            if n != samples.n:
                fail("arrivals", f"record {i}: count {n} != ingested "
                     f"{samples.n}")
            if samples.cover is not None:
                size, want = rec.get("cover_size"), samples.cover_size
                if rec.get("cover_opened") not in (None, opened):
                    fail("arrivals", f"record {i}: cover open/absorb mismatch")
                if size is not None and _number(rec, "cover_size") != want:
                    fail("arrivals", f"record {i}: cover size {size} != {want}")
            last_n = n

        elif kind == "CertificatePosted":
            latest_cert = i
            if not samples.n:
                fail("structure", f"record {i}: certificate before any arrival")
                continue
            J, tol, radius = (_number(rec, key) for key in ("J", "tol", "radius"))
            x = _array(rec, "x")
            if (None in (J, tol, radius) or x is None
                    or x.shape != (model.dimension_d,)):
                fail("structure", f"record {i}: certificate J, x, tol or "
                     "radius missing or malformed")
                continue
            if type(rec.get("l")) is not int:
                fail("structure", f"record {i}: certificate epoch l "
                     f"{rec.get('l')!r} is not an integer")
                continue
            window, eps, beta = samples.ball()
            if n != window.n_total:
                fail("structure", f"record {i}: certificate n {n} != ingested")
                continue
            checks["radius_schedule"].count += 1
            posted_beta = _number(rec, "beta")
            if posted_beta is None or not _close(posted_beta, beta):
                fail("radius_schedule", f"record {i}: beta mismatch")
            if not _close(radius, eps):
                fail("radius_schedule", f"record {i}: radius mismatch")

            if "y" in rec:
                try:
                    y = plan_from_entries(rec["y"],
                                          (window.size, window.dimension))
                except ValueError as exc:
                    fail("structure", f"record {i}: plan {exc}")
                    continue
            else:
                ref = rec.get("y_ref")
                src = cert(ref)
                if src is None or src["n"] != n:
                    fail("structure", f"record {i}: unresolved plan ref {ref}")
                    continue
                y = src["y"]
            if not (np.isfinite(y).all() and np.isfinite(x).all()):
                fail("structure", f"record {i}: plan or decision not finite")
                continue

            z = window.theta[:, None] * y
            try:
                j = certificate_value(model, x, window, y)
                _, eta = point_search(_Problem(model, x, window).grads(z),
                                      n * eps, z, n_total=n)
            except ValueError as exc:  # x outside the model's domain, say
                fail("structure", f"record {i}: certificate cannot be "
                     f"re-priced: {exc}")
                continue

            checks["certificate_value"].count += 1
            if not _close(j, J):
                fail(
                    "certificate_value",
                    f"record {i}: J recomputed {j!r} != recorded {J!r}",
                )

            checks["certificate_budget"].count += 1
            spent = float(np.abs(z).sum()) / n
            if spent > eps + 1e-9:
                fail(
                    "certificate_budget",
                    f"record {i}: budget {spent} exceeds radius {eps}",
                )

            checks["certificate_gap"].count += 1
            if not eta <= tol + 1e-9:  # a NaN tolerance fails too
                fail(
                    "certificate_gap",
                    f"record {i}: gap {eta} exceeds tolerance {tol}",
                )
            if rec.get("eta") is not None:
                posted_eta = _number(rec, "eta")
                if posted_eta is None or not _close(eta, posted_eta):
                    fail("certificate_gap", f"record {i}: gap mismatch")
            if tolerances is not None:
                reuse = "y" not in rec
                if rec.get("reused") is not reuse:
                    fail("structure", f"record {i}: reused flag disagrees "
                         "with the plan form")
                want = tolerances.eps_sa if reuse else tolerances.eps1
                if tol != want:
                    fail("certificate_gap", f"record {i}: tolerance {tol} "
                         f"is not the run's {want}")
            certs[i] = {"n": n, "y": y, "J": J, "x": x}
            if rec.get("l") != epoch:
                epoch, best = rec.get("l"), i
            elif J < certs[best]["J"]:
                best = improved = i

        elif kind in ("DecisionStep", "BestUpdated"):
            # the decision is the cert_seq certificate's x, posted only there
            check, what = (("step_links", "step") if kind == "DecisionStep"
                           else ("best_tracking", "best"))
            checks[check].count += 1
            ref = rec.get("cert_seq")
            src = cert(ref)
            J = _number(rec, "J")
            if J is None or "x" not in rec:
                fail("structure", f"record {i}: {what} J or x missing or malformed")
            elif rec["x"] is not None:
                fail("structure", f"record {i}: {what} x is not null; its "
                     "decision is its certificate's")
            elif src is None:
                fail(check, f"record {i}: missing certificate {ref}")
            elif ref != latest_cert:
                fail(check, f"record {i}: {what} names certificate {ref}, "
                     f"not the latest {latest_cert}")
            elif not _close(J, src["J"]):
                fail(check, f"record {i}: {what} value != certificate")
            elif kind == "BestUpdated" and ref != improved:
                fail(check, f"record {i}: best update for certificate {ref}, "
                     "which does not lower its epoch's best J")
            if kind == "BestUpdated":
                improved = None

        elif kind == "EpochConverged":
            checks["best_tracking"].count += 1
            ref = rec.get("best_seq")
            src = cert(ref)
            x = _array(rec, "x")
            if src is None:
                fail("best_tracking", f"record {i}: missing best {ref}")
            elif ref != best:
                fail("best_tracking", f"record {i}: epoch best names "
                     f"certificate {ref}, not the epoch's best {best}")
            elif _number(rec, "J") != src["J"]:
                fail("best_tracking", f"record {i}: epoch J != best "
                     f"certificate {ref}'s")
            elif x is None or not np.array_equal(x, src["x"]):
                fail("best_tracking", f"record {i}: epoch x != best "
                     f"certificate {ref}'s")

        elif kind == "Terminated":
            checks["termination"].count += 1
            terminated = True
            ref = rec.get("best_seq")
            src = cert(ref)
            J = _number(rec, "J")
            x = _array(rec, "x")
            if src is None:
                fail("termination", f"record {i}: missing final certificate")
            elif ref != best:
                fail("termination", f"record {i}: final best names "
                     f"certificate {ref}, not the epoch's best {best}")
            elif J is None:
                fail("structure", f"record {i}: final J missing or malformed")
            elif not _close(J, src["J"]):
                fail("termination", f"record {i}: final value mismatch")
            elif x is None or not np.array_equal(x, src["x"]):
                fail("termination", f"record {i}: final x != best "
                     "certificate's")

    checks["termination"].count += 1
    if not terminated:
        fail("termination", "log does not end with a termination event")

    report = AuditReport(
        ok=all(c.passed for c in checks.values()),
        checks=list(checks.values()),
        failures=failures,
    )
    return report
