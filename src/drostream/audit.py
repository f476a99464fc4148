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

A log writes only what the audit cannot derive from earlier records and
the run's model, concentration, schedule and cover, and the audit derives
the rest:

- each record's sequence number from its position in the log, and the
  sample count ``n`` from the arrivals before it;
- the ball's beta from ``n`` through the schedule, and its radius from beta
  and the window through ``Samples.ball()``;
- a certificate's form (reuse or refresh) from its plan key, ``y_ref`` or
  ``y``; a refresh posts its plan in coordinate form, its nonzero
  ``[k, j, value]`` entries, and the audit rebuilds the dense plan from
  them and the window's shape (``plan_from_entries``);
- which certificates start an epoch, by their form (no ``alpha``, after
  an arrival), and so the step and epoch counts of every record but an
  arrival, the only one that posts them;
- a step certificate's decision from the certificate before it, on the same
  window, as the runner stepped: ``scaled_step(x_prev,
  subgradient(model, x_prev, window, y_prev), alpha)``, one batched
  ``grad_x`` call per step, and the distance the step moved as the 2-norm
  between the two decisions (``step_distance``, as the runner measures it);
- each epoch's best certificate, by the runner's rule (the epoch's first,
  then each later one whose ``J`` is strictly lower), and so the decision
  each epoch after the first starts from: only the run's first certificate
  posts ``x``;
- where each epoch stops, at its first step that moved less than eps2, and
  so the run's output: the last epoch's best.

The derivations repeat the runner's float operations on the same inputs, so
they are exact on one machine and BLAS build, as the stop rule's comparison
of a derived distance with eps2 assumes. Each record carries exactly the
keys of its kind's form (``runner.COMMON_KEYS`` and ``RECORD_KEYS``,
without the cover's on a run without one, and with one of each of a
certificate's alternatives), and no record writes a null value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ambiguity import ConcentrationParams, ConfidenceSchedule
from .certificates import certificate_value, plan_from_entries, _Problem
from .model import Tolerances
from .runner import (COMMON_KEYS, COVER_KEYS, EVENT_KINDS, RECORD_KEYS,
                     CoverConfig, Samples)
from .simplex import point_search
from .subgrad import scaled_step, step_distance, step_length, subgradient

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


def _keys(keys) -> str:
    return ", ".join(sorted(map(repr, keys)))


def _array(rec: dict, key: str) -> Optional[np.ndarray]:
    """``rec[key]`` as a float array; None when it is missing, null, ragged
    or not numeric."""
    try:
        return np.asarray(rec[key], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None


# a huge but finite value overflows where the audit re-prices or measures
# it; the checks test the results for finiteness, so numpy need not warn
@np.errstate(all="ignore")
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
    the run's ``tolerances``, the posted tolerance must also be the run's:
    ``eps_sa`` for a reuse (a certificate that posts ``y_ref``), ``eps1``
    for a refresh (one that posts ``y``). Each certificate is re-priced at
    the radius ``Samples.ball()`` derives from the arrivals and the
    schedule.

    A record that carries a key outside its form's key set, lacks one of
    them, or writes a null value is a ``structure`` failure that names the
    key; the audit goes on with the record. A certificate's forms are ``x``
    (the run's first), ``alpha`` (a step's) or neither (a later epoch's
    first), and ``y`` or ``y_ref`` (a reuse); the cover's keys belong to
    the arrivals of a run with a cover. An arrival also posts the step and
    epoch counts ``r`` and ``l``; an epoch's convergence and the run's
    termination carry no keys beyond every record's.

    The counts an arrival posts must be the runner's, or ``structure``
    fails: ``r``, the steps taken, rises by 1 at each step certificate and
    holds otherwise, except that it may rise by 1 at an arrival right after
    a certificate, where the arrival interrupted a step before its
    certificate; ``l``, the epochs begun, rises by 1 once an epoch, at its
    first certificate or at an arrival that interrupted that certificate's
    search. A certificate starts an epoch when it posts no ``alpha`` and
    follows an arrival, since each epoch begins by ingesting arrivals.

    A malformed record is a ``structure`` failure; the audit skips it and
    goes on. Malformed means a record that is not a JSON object, a missing
    or non-numeric field the checks read (time, count, value, decision,
    tolerance, plan), a plan that is not in coordinate form inside its
    window (see ``plan_from_entries``) or not finite, a certificate the
    model cannot re-price (a decision so large that its gradients
    overflow), the run's first certificate without a decision ``x``, a
    later epoch's first certificate whose previous epoch has no best, a
    step certificate that has no finite positive ``alpha`` or does not
    follow a certificate on its window (no arrival between them), a
    non-finite derived decision, an arrival without a finite point of the
    model's sample dimension, or a certificate before any arrival. A
    reuse names its plan by the position of the record that posts it. With
    a cover, ``arrivals`` checks each arrival's cover keys; without one
    the report has no ``arrivals``.

    Given the run's ``tolerances``, the k-th step certificate of an epoch
    must post exactly ``step_length(tolerances, k - 1)`` as its ``alpha``,
    or ``step_links`` fails; without them the report has no
    ``step_links``. ``stop_rule`` fails where an epoch's convergence does
    not directly follow a step certificate, or a termination does not
    directly follow a convergence. Given the run's ``tolerances``, it also
    fails where a convergence does not directly follow the certificate of
    its epoch's first step that moved less than eps2, and at any other
    record that directly follows that certificate: a step certificate, an
    arrival or a termination.
    """
    # each record holds at most one arrival
    samples = Samples(model.dimension_m, len(records), concentration,
                      schedule, cover_config or CoverConfig())
    names = ["structure", "arrivals", "certificate_value",
             "certificate_budget", "certificate_gap", "step_links",
             "termination", "stop_rule"]
    if samples.cover is None:
        names.remove("arrivals")
    if tolerances is None:
        names.remove("step_links")
    checks = {name: AuditCheck(name) for name in names}
    failures: list[str] = []

    def fail(check: str, msg: str) -> None:
        checks[check].failures += 1
        if len(failures) < _MAX_REPORTED:
            failures.append(msg)
        elif len(failures) == _MAX_REPORTED:
            failures.append("... further failures suppressed")

    # the keys each kind of record may carry on this run
    allowed = {kind: frozenset(COMMON_KEYS + keys)
               for kind, keys in RECORD_KEYS.items()}
    if samples.cover is None:
        allowed["DataArrival"] -= frozenset(COVER_KEYS)
    certs: dict[int, dict] = {}

    def cert(ref) -> Optional[dict]:
        # keyed by int position; any other ref names none
        return certs.get(ref) if isinstance(ref, int) else None

    last_t = -np.inf
    # the runner's step and epoch counts so far
    last_r = last_l = 0
    # positions of the latest CertificatePosted record and of the one
    # before it, and whether an arrival came since the latest
    latest_cert = before = None
    arrived = False
    # the epochs certificates started, and the position of the latest one's
    # best certificate
    epoch, best = 0, None
    # the steps of that epoch so far, and the position of its first step's
    # certificate that moved less than eps2 (None before one, or without
    # tolerances)
    steps, small = 0, None
    # positions of the latest step certificate and of the latest convergence
    last_step = converged = None
    terminated = after_cert = False

    for i, rec in enumerate(records):
        checks["structure"].count += 1
        if not isinstance(rec, dict):
            fail("structure", f"record {i}: not a JSON object")
            continue
        kind = rec.get("kind")
        if kind not in EVENT_KINDS:
            fail("structure", f"record {i}: unknown kind {kind!r}")
            continue
        if small == i - 1 and kind != "EpochConverged":
            # the epoch should have converged right here
            checks["stop_rule"].count += 1
            fail("stop_rule", f"record {i}: {kind} follows certificate "
                 f"{small}, its epoch's first step that moved less than "
                 "eps2, where the epoch converges")
        is_cert = kind == "CertificatePosted"
        starts = is_cert and arrived and "alpha" not in rec
        if kind == "DataArrival":
            # l counts the epochs begun: an arrival may show the next one,
            # whose first certificate's search it interrupted. r counts the
            # steps taken: it may rise at the arrival right after a
            # certificate, which interrupted a step before its own
            r, l = rec.get("r"), rec.get("l")
            if type(l) is not int or l not in (last_l, epoch + 1):
                fail("structure", f"record {i}: epoch count l {l!r} does "
                     f"not follow {last_l}")
                l = last_l
            if type(r) is not int or r - last_r not in (
                    (0, 1) if after_cert else (0,)):
                fail("structure", f"record {i}: step count r {r!r} does "
                     f"not follow {last_r}")
                r = last_r
            last_r, last_l = r, l
        elif starts:
            last_l = epoch + 1
        elif is_cert:
            last_r += 1
        after_cert = is_cert

        # the keys of the record's form: x on the run's first certificate,
        # alpha on a step's, and one plan key
        form = allowed[kind]
        if is_cert:
            form = form - ({"alpha"} if starts else {"x"}) - (
                {"x"} if epoch else set()) - (
                {"y"} if "y_ref" in rec else {"y_ref"})
        posted = {key for key, value in rec.items() if value is not None}
        if not form.issuperset(posted):
            fail("structure", f"record {i}: {kind} carries "
                 f"{_keys(posted - form)}, not keys of its form")
        if not form.issubset(rec):
            fail("structure", f"record {i}: {kind} lacks "
                 f"{_keys(form.difference(rec))}, keys of its form")
        if len(posted) < len(rec):
            fail("structure", f"record {i}: {kind} writes "
                 f"{_keys(rec.keys() - posted)} as null")
        t = _number(rec, "t")
        if t is None or not math.isfinite(t) or t < last_t - 1e-12:
            fail("structure", f"record {i}: time {t} moves backward")
        else:
            last_t = max(last_t, t)
        if terminated:
            fail("structure", f"record {i}: event after termination")

        if kind == "DataArrival":
            arrived = True
            point = _array(rec, "point")
            try:
                # a point that is None or not a vector fails the shape test
                opened = samples.add(point, i)
            except ValueError:
                fail("structure", f"record {i}: arrival point missing, "
                     "misshapen or not finite")
                continue
            if samples.cover is not None:
                checks["arrivals"].count += 1
                size, want = rec.get("cover_size"), samples.cover_size
                if rec.get("cover_opened") not in (None, opened):
                    fail("arrivals", f"record {i}: cover open/absorb mismatch")
                if size is not None and _number(rec, "cover_size") != want:
                    fail("arrivals", f"record {i}: cover size {size} != {want}")

        elif is_cert:
            before, latest_cert = latest_cert, i
            arrived = False
            if not samples.n:
                fail("structure", f"record {i}: certificate before any arrival")
                continue
            J, tol = _number(rec, "J"), _number(rec, "tol")
            x = None
            if starts:
                # a new epoch: the run's first posts its decision, and each
                # later one starts from the last one's best
                if not epoch:
                    x = _array(rec, "x")
                elif best is not None:
                    x = certs[best]["x"]
                epoch, best, steps, small = epoch + 1, None, 0, None
            else:
                steps += 1
                last_step = i
            if None in (J, tol) or (starts and (
                    x is None or x.shape != (model.dimension_d,))):
                fail("structure", f"record {i}: certificate J, x or tol "
                     "missing or malformed")
                continue
            window, eps = samples.ball()
            n = window.n_total
            alpha, prev = _number(rec, "alpha"), cert(before)
            if not starts and (alpha is None or not 0.0 < alpha < math.inf):
                # a step length is positive: a step of -alpha can move as
                # far, and its J differ from the posted one within tolerance
                fail("structure", f"record {i}: step certificate alpha "
                     "missing, not positive or not finite")
                continue
            if not starts and (prev is None or prev["n"] != n):
                fail("structure", f"record {i}: step certificate does not "
                     f"follow a certificate on its window ({before})")
                continue

            reuse = "y_ref" in rec
            if reuse:
                ref = rec["y_ref"]
                src = cert(ref)
                if src is None or src["n"] != n:
                    fail("structure", f"record {i}: unresolved plan ref {ref}")
                    continue
                y = src["y"]
            else:
                try:
                    y = plan_from_entries(rec.get("y"),
                                          (window.size, window.dimension))
                except ValueError as exc:
                    fail("structure", f"record {i}: plan {exc}")
                    continue

            z = window.theta[:, None] * y
            try:
                if not starts:
                    # the step from the certificate before, as the runner
                    # took it; a huge alpha fails the finite test below
                    g = subgradient(model, prev["x"], prev["window"],
                                    prev["y"])
                    x = scaled_step(prev["x"], g, alpha)
                if not (np.isfinite(y).all() and np.isfinite(x).all()):
                    fail("structure", f"record {i}: plan or decision not "
                         "finite")
                    continue
                j = certificate_value(model, x, window, y)
                _, eta = point_search(_Problem(model, x, window).grads(z),
                                      n * eps, z, n_total=n)
            except ValueError as exc:  # gradients overflow at a huge x, say
                fail("structure", f"record {i}: certificate cannot be "
                     f"re-priced: {exc}")
                continue
            if not starts and tolerances is not None:
                checks["step_links"].count += 1
                length = step_length(tolerances, steps - 1)
                if alpha != length:
                    fail("step_links", f"record {i}: step alpha "
                         f"{alpha!r} is not the length {length!r} of "
                         f"its epoch's step {steps}")
                moved = step_distance(prev["x"], x)
                if small is None and moved < tolerances.eps2:
                    small = i

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
            if tolerances is not None:
                want = tolerances.eps_sa if reuse else tolerances.eps1
                if tol != want:
                    fail("certificate_gap", f"record {i}: tolerance {tol} "
                         f"is not the run's {want}")
            certs[i] = {"n": n, "y": y, "J": J, "x": x, "window": window}
            if starts or (best is not None and J < certs[best]["J"]):
                best = i

        elif kind == "EpochConverged":
            # right after a step certificate; given the tolerances, right
            # after the one of the epoch's first step that moved less than
            # eps2
            checks["stop_rule"].count += 1
            converged = i
            if tolerances is None and last_step != i - 1:
                fail("stop_rule", f"record {i}: epoch converges other than "
                     "right after a step certificate")
            elif tolerances is not None and small != i - 1:
                where = "none yet" if small is None else f"certificate {small}"
                fail("stop_rule", f"record {i}: epoch converges other than "
                     "right after its first step that moved less than eps2 "
                     f"({where})")

        else:
            checks["stop_rule"].count += 1
            if converged != i - 1:
                fail("stop_rule", f"record {i}: run terminates other than "
                     "right after an epoch's convergence")
            terminated = True

    checks["termination"].count += 1
    if not terminated:
        fail("termination", "log does not end with a termination event")

    report = AuditReport(
        ok=all(c.passed for c in checks.values()),
        checks=list(checks.values()),
        failures=failures,
    )
    return report
