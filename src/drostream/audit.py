"""Offline re-verification of a run from its event log alone.

The log carries every ingested point and every refresh's perturbation plan
(a reuse keeps the plan before it), so an auditor can replay the arrivals
through the runner's own ``Samples`` (which rebuilds the cover
deterministically) to get each window and radius, re-price each
certificate, re-measure its gap from the model's gradients at its plan, and
re-check the transport budget.
The budget check also bounds the 1-Wasserstein distance from the window to
the posted worst case by the radius. That worst case keeps the window's
weights theta_k / n and moves atom k to point_k - y_k, so pairing each atom
with its own moved atom is a feasible coupling. Its cost,
sum_k (theta_k / n) |y_k|_1, is exactly the budget spent, and W1 is never
more than the cost of a feasible coupling. Windows change only at arrivals,
so ``Samples`` builds each once and the certificates posted before the next
arrival reuse it.

A log writes only what the audit cannot derive from earlier records and
the run's model, concentration, schedule and cover. The audit reads the
log once. For each record it first derives the facts below, and every
``structure`` failure comes from that derivation; then each claim is one
short function of those facts. The audit derives:

- each record's sequence number from its position in the log, and the
  sample count ``n`` from the arrivals before it;
- the ball's beta from ``n`` through the schedule, and its radius from beta
  and the window through ``Samples.ball()``;
- the cover's outcome at each arrival: replayed through ``Samples``;
- a certificate's form (reuse or refresh) from whether it posts a plan
  ``y``. A refresh posts its work counts and its plan as
  ``[indices, values]``, the row-major flat indices of its nonzero entries
  and those entries, and the audit rebuilds the dense plan from them and
  the window's shape (``plan_from_entries``). A reuse posts neither, since
  its work is always one revalidation search;
- a reuse's plan: the latest plan on its window, which is the plan of the
  certificate before it;
- which certificates start an epoch, by their form (no ``alpha``, after
  an arrival);
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
keys of its kind's form (``runner.COMMON_KEYS`` and ``RECORD_KEYS``, where
a certificate carries ``x`` on the run's first, ``alpha`` on a step's and
the work counts and ``y`` on a refresh only), no record writes a null
value, and none writes a number as a JSON boolean or string.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ambiguity import ConcentrationParams, ConfidenceSchedule
from .certificates import certificate_value, plan_from_entries
from .model import Tolerances
from .runner import (COMMON_KEYS, EVENT_KINDS, RECORD_KEYS, CoverConfig,
                     Samples)
from .simplex import frank_wolfe_gap
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
        return [f"{c.name}: {'ok' if c.passed else 'FAIL'} ({c.count} "
                f"checked, {c.failures} failed)" for c in self.checks]


def _close(a: float, b: float) -> bool:
    # an infinite value is close to nothing: inf - x is not finite
    diff = a - b
    return math.isfinite(diff) and abs(diff) <= _ABS + _REL * max(abs(a), abs(b))


def _numbers(value) -> bool:
    """Whether ``value`` is a JSON number or a list of numbers or of such
    lists: ``float()`` would read ``true`` as 1.0 and ``"1.5"`` as 1.5."""
    if isinstance(value, list):
        return all(map(_numbers, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(rec: dict, key: str, array: bool = False):
    """``rec[key]`` as a float, or given ``array`` as a float array; None
    when it is missing, null, ragged or not ``_numbers``."""
    value = rec.get(key)
    if not _numbers(value):
        return None
    try:
        return np.asarray(value, dtype=float) if array else float(value)
    except (TypeError, ValueError, OverflowError):
        return None


# a certificate as the audit derives it: its posted J, tol and alpha (each
# None where unreadable; an epoch's first posts no alpha), its window and
# radius, its decision, plan, z = theta * y and the budget it spends, the
# value j and gap eta the audit re-prices, and the value its epoch's best is
# ranked by
_Certificate = namedtuple("_Certificate",
                          "J tol alpha window eps x y z spent j eta value")


class _Record:
    """What the audit derives from record ``i``, ``rec``: its kind (None
    unless an object of a known kind), its ``structure`` failures and
    ``small``, its epoch's first step that moved less than eps2 so far. An
    ingested arrival's ``arrival`` holds the previous arrival's time and the
    latest time posted; a certificate's ``step`` is its place among its
    epoch's steps (0 for the first) and ``cert`` what it certifies."""
    kind = small = arrival = step = cert = None

    def __init__(self, i: int, rec):
        self.i, self.rec, self.problems = i, rec, []


_NONE = _Record(-1, None)  # no record: before the log, or a malformed one


class _Derivation:
    """One pass over a log, called on each record in turn: derives the
    record's facts from it and the records before it."""

    def __init__(self, model, samples: Samples, tolerances):
        self.model, self.samples, self.tolerances = model, samples, tolerances
        # the keys of each form: by kind, and for a certificate by whether
        # it starts an epoch, follows the run's first and reuses a plan (x on
        # the run's first, alpha on a step's, the work counts and y on a
        # refresh)
        self.forms = {kind: frozenset(COMMON_KEYS + keys)
                      for kind, keys in RECORD_KEYS.items()}
        cert = self.forms["CertificatePosted"]
        refresh = {"lp_calls", "cp_calls", "afwa_iters", "y"}
        self.forms.update({(s, e, r): cert - {"alpha" if s else "x"} - (
            {"x"} if e else set()) - (refresh if r else set())
            for s in (False, True) for e in (False, True)
            for r in (False, True)})
        # the latest record of a known kind, the latest certificate, the
        # epoch's best certificate and its first step that moved less than
        # eps2, and the latest time a record and an arrival posted
        self.last, self.prev, self.best, self.small = _NONE, _NONE, None, None
        self.last_t, self.arrival_t = -np.inf, -np.inf
        # the epochs certificates began and the steps of the latest one
        self.epoch = self.steps = 0
        self.arrived = self.terminated = False

    def __call__(self, i: int, rec) -> _Record:
        f = _Record(i, rec)
        problem = f.problems.append
        if not isinstance(rec, dict) or rec.get("kind") not in EVENT_KINDS:
            problem(f"unknown kind {rec.get('kind')!r}"
                    if isinstance(rec, dict) else "not a JSON object")
            return f
        f.kind = kind = rec["kind"]
        # an epoch's first certificate posts no alpha and follows an arrival
        starts = (kind == "CertificatePosted" and self.arrived
                  and "alpha" not in rec)
        form = self.forms[(starts, self.epoch > 0, "y" not in rec)
                          if kind == "CertificatePosted" else kind]
        posted = {key for key, value in rec.items() if value is not None}
        if posted != form or len(posted) < len(rec):
            for keys, says in (
                    (posted - form, "carries {}, not keys of its form"),
                    (form - rec.keys(), "lacks {}, keys of its form"),
                    (rec.keys() - posted, "writes {} as null")):
                if keys:
                    problem(f"{kind} " + says.format(
                        ", ".join(sorted(map(repr, keys)))))
        t = _number(rec, "t")
        if t is None or not math.isfinite(t) or t < self.last_t - 1e-12:
            problem(f"time t {rec.get('t')!r} is not a finite number or "
                    "moves backward")
        else:
            self.last_t = max(self.last_t, t)
        if self.terminated:
            problem("event after termination")
        self.terminated |= kind == "Terminated"
        why = (self._arrival(f) if kind == "DataArrival" else
               kind == "CertificatePosted" and self._certificate(f, starts))
        if why:
            problem(why)
        f.small, self.last = self.small, f
        return f

    # _arrival and _certificate derive what their record ingests or
    # certifies, and return why they cannot, if they cannot

    def _arrival(self, f: _Record) -> Optional[str]:
        self.arrived = True
        try:
            # a point that is None or not a vector fails the shape test
            self.samples.add(_number(f.rec, "point", array=True), f.i)
        except ValueError:
            return "arrival point missing, misshapen or not finite"
        f.arrival = (self.arrival_t, self.last_t)
        at = f.rec.get("arrival_t")
        self.arrival_t = at if type(at) in (int, float) else self.arrival_t
        return None

    def _certificate(self, f: _Record, starts: bool) -> Optional[str]:
        rec, model = f.rec, self.model
        prev, self.prev, self.arrived = self.prev, f, False
        if not self.samples.n:
            return "certificate before any arrival"
        J, tol, alpha = _number(rec, "J"), _number(rec, "tol"), _number(
            rec, "alpha")
        self.steps = f.step = 0 if starts else self.steps + 1
        if starts:
            # the run's first posts its decision, and each later one starts
            # from the last epoch's best
            x = (_number(rec, "x", array=True) if not self.epoch
                 else getattr(self.best, "x", None))
            self.epoch, self.best, self.small = self.epoch + 1, None, None
        underived = starts and (x is None or x.shape != (model.dimension_d,))
        if underived or None in (J, tol):
            # only the claims read J and tol: without them the audit still
            # derives the certificate, for the records after it
            f.problems.append("certificate J, x or tol missing or malformed")
        if underived:
            return None
        if not starts and (alpha is None or not 0.0 < alpha < math.inf):
            # a step length is positive: a step of -alpha can move as far,
            # and its J differ from the posted one within tolerance
            return "step certificate alpha missing, not positive or not finite"
        window, eps = self.samples.ball()
        n, src = window.n_total, prev.cert
        if not starts and (src is None or src.window.n_total != n):
            return ("step certificate does not follow a certificate on its "
                    f"window ({prev.i if prev.kind else None})")
        if "y" not in rec:
            # a reuse keeps the plan of the certificate before it, on its
            # window, which was checked and priced there; an epoch's first
            # certificate has none
            if starts:
                return "reuse with no plan on its window"
            y, z, spent = src.y, src.z, src.spent
        else:
            try:
                y = plan_from_entries(rec.get("y"),
                                      (window.size, window.dimension))
            except ValueError as exc:
                return f"plan {exc}"
            z = window.theta[:, None] * y
            spent = float(np.abs(z).sum()) / n
        try:
            if not starts:
                # the step from the certificate before, as the runner took
                # it; a huge alpha fails the finite test below
                g = subgradient(model, src.x, src.window, src.y)
                x = scaled_step(src.x, g, alpha)
            if not (("y" not in rec or np.isfinite(y).all())
                    and np.isfinite(x).all()):
                return "plan or decision not finite"
            j = certificate_value(model, x, window, y)
            eta = frank_wolfe_gap(model.grad_y(x, window.points, y),
                                  n * eps, z, n_total=n)
        except ValueError as exc:  # gradients overflow at a huge x, say
            return f"certificate cannot be re-priced: {exc}"
        if (not starts and self.tolerances is not None and self.small is None
                and step_distance(src.x, x) < self.tolerances.eps2):
            self.small = f.i
        # the epoch's best by its posted J, or by the value the audit prices
        # where the posted J is not that value
        value = J if J is not None and _close(j, J) else j
        f.cert = _Certificate(J, tol, alpha, window, eps, x, y, z, spent, j,
                              eta, value)
        if starts or (self.best is not None and value < self.best.value):
            self.best = f.cert
        return None


# Each claim judges one record of the kinds it is listed for, given the
# latest record of a known kind before it and the run's tolerances: None
# where it says nothing of the record, else its failures there.

def _stop_rule(f: _Record, last: _Record, tolerances):
    """An epoch converges right after its first small step, the run after."""
    # without the tolerances: an epoch ends right after a step certificate
    after = last if last.i == f.i - 1 else _NONE
    small, out = after.small == after.i, []
    if small and f.kind != "EpochConverged":
        out.append(f"{f.kind} follows certificate {after.i}, its epoch's "
                   "first step that moved less than eps2, where the epoch "
                   "converges")
    if f.kind == "EpochConverged" and tolerances is None and not after.step:
        out.append("epoch converges other than right after a step "
                   "certificate")
    elif f.kind == "EpochConverged" and tolerances is not None and not small:
        where = "none yet" if f.small is None else f"certificate {f.small}"
        out.append("epoch converges other than right after its first step "
                   f"that moved less than eps2 ({where})")
    elif f.kind == "Terminated" and after.kind != "EpochConverged":
        out.append("run terminates other than right after an epoch's "
                   "convergence")
    return out if out or f.kind in ("EpochConverged", "Terminated") else None


def _arrivals(f: _Record, last, tolerances):
    """An arrival's time and index are in range."""
    # a finite time from the previous arrival's to the latest time posted,
    # and a non-negative int index
    if f.arrival is None:
        return None
    rec, (since, until), out = f.rec, f.arrival, []
    at = rec.get("arrival_t", until)  # a missing key is structure's
    if not (type(at) in (int, float) and -math.inf < at and since <= at
            <= until):
        out.append(f"arrival time {at!r} is not a finite number from the "
                   f"previous arrival's {since} to the latest time {until}")
    index = rec.get("index", 0)
    if type(index) is not int or index < 0:
        out.append(f"sample index {index!r} is not a non-negative integer")
    return out


def _step_links(f: _Record, last, tolerances):
    """The k-th step of an epoch posts ``step_length(tolerances, k - 1)``."""
    if f.cert is None or not f.step:
        return None
    alpha, length = f.cert.alpha, step_length(tolerances, f.step - 1)
    return [] if alpha == length else [
        f"step alpha {alpha!r} is not the length {length!r} of its epoch's "
        f"step {f.step}"]


def _certificate_value(f: _Record, last, tolerances):
    """A certificate's ``J`` is its plan's value at its decision."""
    c = f.cert
    return None if c is None or c.J is None else [] if _close(c.j, c.J) else [
        f"J recomputed {c.j!r} != recorded {c.J!r}"]


def _certificate_budget(f: _Record, last, tolerances):
    """A certificate's plan spends at most the ball's radius."""
    c = f.cert
    return None if c is None else [] if c.spent <= c.eps + 1e-9 else [
        f"budget {c.spent} exceeds radius {c.eps}"]


def _certificate_gap(f: _Record, last, tolerances):
    """A certificate's plan is a worst case within the run's tolerance."""
    # the tolerance it posts, which is eps1 for a refresh, eps_sa for a reuse
    c = f.cert
    if c is None or c.tol is None:
        return None
    out = [] if c.eta <= c.tol + 1e-9 else [  # a NaN tolerance fails too
        f"gap {c.eta} exceeds tolerance {c.tol}"]
    want = None if tolerances is None else (
        tolerances.eps1 if "y" in f.rec else tolerances.eps_sa)
    if want is not None and c.tol != want:
        out.append(f"tolerance {c.tol} is not the run's {want}")
    return out


def _termination(terminated: bool) -> list[str]:
    """The log ends with the run's termination."""
    return [] if terminated else ["log does not end with a termination event"]


# the claims on each kind of record, in the order its failures are reported
_STOP_RULE = ("stop_rule", _stop_rule)
# a record is an object of a known kind, in its kind's form, and the audit
# can derive its facts
_STRUCTURE = ("structure", lambda f, last, tolerances: f.problems)
_CLAIMS = {None: (_STRUCTURE,),
           "DataArrival": (_STOP_RULE, _STRUCTURE, ("arrivals", _arrivals)),
           "CertificatePosted": (
               _STOP_RULE, _STRUCTURE, ("step_links", _step_links),
               ("certificate_value", _certificate_value),
               ("certificate_budget", _certificate_budget),
               ("certificate_gap", _certificate_gap)),
           "EpochConverged": (_STOP_RULE, _STRUCTURE),
           "Terminated": (_STOP_RULE, _STRUCTURE)}


# a huge but finite value overflows where the audit re-prices or measures
# it; the checks test the results for finiteness, so numpy need not warn
@np.errstate(all="ignore")
def verify_events(records: list[dict], model,
                  concentration: ConcentrationParams,
                  schedule: ConfidenceSchedule,
                  cover_config: Optional[CoverConfig] = None, *,
                  tolerances: Optional[Tolerances] = None) -> AuditReport:
    """Re-check a full event log; every failure is collected, none raise.

    Given the run's ``tolerances`` the audit also checks that each posted
    tolerance and step length is the run's and where each epoch stops;
    without them the report has no ``step_links``. A record the audit
    cannot derive its facts from is a ``structure`` failure that says why.
    The report lists the first ``_MAX_REPORTED`` failures in record order
    and then one line for the rest; each check counts them all.
    """
    # each record holds at most one arrival
    samples = Samples(model.dimension_m, len(records), concentration,
                      schedule, cover_config or CoverConfig())
    checks = {name: AuditCheck(name) for name in (
        "structure", "arrivals", "certificate_value", "certificate_budget",
        "certificate_gap", "step_links", "termination", "stop_rule")
        if tolerances is not None or name != "step_links"}
    failures: list[str] = []

    # the claims on each kind that this call checks
    claims = {kind: [(checks[name], claim) for name, claim in pairs
                     if name in checks] for kind, pairs in _CLAIMS.items()}
    derive = _Derivation(model, samples, tolerances)
    for i, rec in enumerate(records):
        last = derive.last
        f = derive(i, rec)
        for check, claim in claims[f.kind]:
            out = claim(f, last, tolerances)
            if out is not None:
                check.count += 1
                if out:
                    check.failures += len(out)
                    failures.extend(f"record {i}: {msg}" for msg in out)
    out = _termination(derive.terminated)
    checks["termination"] = AuditCheck("termination", 1, len(out))
    failures.extend(out)
    if len(failures) > _MAX_REPORTED:
        failures[_MAX_REPORTED:] = ["... further failures suppressed"]
    return AuditReport(ok=all(c.passed for c in checks.values()),
                       checks=list(checks.values()), failures=failures)
