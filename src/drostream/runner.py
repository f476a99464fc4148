"""Streaming driver: ingest arrivals, keep a certified decision at all times.

Work is metered in solver cost units (one per vertex search, hull iteration,
or decision step) and converted to virtual time through a per-period budget,
so arrivals land mid-computation exactly as they would against a wall clock.
A ``certificates.Meter`` counts that work and keeps the virtual time. Its
deadline is the next arrival, polled between solver rounds and every 32
hull iterations. The hull ascent keeps the time in a local float and writes
it back when it returns, bitwise as if each iteration were charged on the
meter. Due points interrupt the current certificate, the partial state
adapts to the grown window, and a new epoch begins from the best decision
found so far. ``run`` is one loop over epochs: each ingests what is due
(jumping the clock to the next arrival after a converged epoch), certifies,
and steps until it converges or arrivals are due. An epoch converges at its
first step that moves less than eps2; the run terminates when an epoch
converges with the queue empty.

Every state change is posted as an event. A record writes a key only
when its value is not null and cannot be derived from earlier records and
the run's model, concentration, schedule and cover, so each datum is
written once. Every record carries ``kind`` and the meter's time ``t``;
beyond those, each kind writes exactly the keys of ``RECORD_KEYS``, in
that order and in one of its forms:

- ``DataArrival``: ``point``, ``index`` and ``arrival_t``, whether or not
  the run has a cover;
- ``CertificatePosted``: ``J``, then ``x`` for the run's first certificate
  or the step length ``alpha`` for a step's, then ``tol``, and for a
  refresh its work counts ``lp_calls``, ``cp_calls`` and ``afwa_iters``
  and its plan ``y``. A reuse writes neither: its work is always one
  revalidation search and no hull solve (``reuse_or_refresh``);
- ``EpochConverged`` and ``Terminated``: nothing more.

A record's sequence number is its position in the log, and its sample
count ``n`` the number of arrivals before it. A decision step is recorded
only by its certificate, the one that posts ``alpha``, which is
``step_length(tolerances, k - 1)`` on the epoch's k-th step certificate:
its decision is ``scaled_step`` by ``alpha`` along the ``subgradient`` of
the certificate before it, at that one's decision, window and plan. An
epoch's first certificate posts no ``alpha`` and follows the arrivals the
epoch ingests. No record posts the step count ``r`` or the epoch count
``l`` (``RunTotals``); both follow from the kinds and times. A step's
certificate takes the next step, and an epoch's first certificate begins
the next epoch. An epoch opens by draining every due arrival at one time,
so a batch of arrivals, from the first after any other record, posts one
``t``. A certificate right before a batch at a lower ``t`` means the next
step was charged and cut, so ``r`` rises by 1 (at an equal ``t`` the steps
stopped on the deadline). An arrival above its batch's first ``t`` was
drained after an interrupted search, so ``l`` already counts that search's
epoch. An epoch's best is its first certificate, then
each later one whose ``J`` is lower; the next epoch starts from the best's
decision, so only the first epoch's certificate posts ``x``, and the run's
output is its last epoch's best. A convergence directly follows the
certificate of its epoch's first small step, and the termination directly
follows the last convergence. A refresh posts its perturbation plan as
``[indices, values]``: the row-major flat indices ``k * m + j`` of its
nonzero entries, strictly increasing, and those entries (``plan_entries``).
A certificate without ``y`` is a reuse, which keeps the plan of the
certificate before it, on the same window, as ``reuse_or_refresh`` does;
an epoch's first certificate is always a refresh. No record posts the
ball's beta, which follows from ``n`` and the run's confidence schedule,
its radius (``Samples.ball()``), a certificate's gap, which the audit
measures again, or the cover's outcome at an arrival, which the audit
replays. With the tolerances this is enough for an offline audit to
re-verify the whole run from the event log alone.

``Samples`` owns the ingested samples and the window and radius certifying
them; the audit replays a log's arrivals through it too. A refresh posts
the work of the attempt that produced it, its failed revalidation search
included; the totals are the meter's counts, interrupted attempts
included.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .ambiguity import ConcentrationParams, ConfidenceSchedule
from .ambiguity import radius as ball_radius
from .certificates import (
    CertificateInterrupted,
    CertificateResult,
    DataWindow,
    Meter,
    WarmState,
    adapt,
    generate,
    plan_entries,
)
from .cover import Cover
from .model import CostModel, Tolerances
from .stream import SamplePoint
from .subgrad import (reuse_or_refresh, scaled_step, step_distance,
                      step_length, subgradient)

Array = np.ndarray

# the keys every record writes, and those each kind writes after them, in
# the order ``RunEvent.record()`` writes them
COMMON_KEYS = ("kind", "t")
RECORD_KEYS = {
    "DataArrival": ("point", "index", "arrival_t"),
    "CertificatePosted": ("J", "x", "alpha", "tol", "lp_calls", "cp_calls",
                          "afwa_iters", "y"),
    "EpochConverged": (),
    "Terminated": (),
}
EVENT_KINDS = tuple(RECORD_KEYS)


@dataclass
class RunEvent:
    """One posted event; ``record()`` writes it as the log's JSON object:
    ``COMMON_KEYS`` and its kind's ``RECORD_KEYS``, in order, without nulls.

    Some fields stay in memory only, for an ``on_event`` callback or the
    result's events: ``n``, which ``trajectory.csv`` and drobench's arrival
    stamps read; ``r`` and an arrival's ``cover_size`` (in ``extras``),
    which ``trajectory.csv`` reads; and ``seq`` and ``l``, which nothing in
    the package reads and the tests read to tie a log to its run.
    ``J`` is None on the records that do not post it, the arrivals, the
    convergences and the termination; ``x`` is None on every record but the
    run's first certificate (see the module docstring), and so is
    ``cover_size`` without a cover. A reuse's ``extras`` hold no work
    counts, so ``trajectory.csv`` counts its hull solves as 0. ``beta`` is
    always None and never written: the ball's beta follows from ``n``.
    ``seq``, ``l`` and ``beta`` stay so that an event is still built from
    its ten positional fields, as drobench's self-test builds one.
    """

    seq: int
    kind: str
    t: float
    n: int
    r: int
    l: int
    J: Optional[float]
    beta: Optional[float]
    x: Optional[list]
    extras: dict

    def record(self) -> dict:
        values = {"kind": self.kind, "t": self.t, "J": self.J, "x": self.x,
                  **self.extras}
        keys = COMMON_KEYS + RECORD_KEYS[self.kind]
        return {key: values[key] for key in keys
                if values.get(key) is not None}


class ArrivalQueue:
    """Pending samples in arrival-time order, fixed when the run starts."""

    def __init__(self, points: Sequence[SamplePoint] = ()):
        self._pending = deque(sorted(points, key=lambda p: p.arrival_time))

    def next_time(self) -> float:
        return self._pending[0].arrival_time if self._pending else math.inf

    def pop_due(self, t: float) -> list[SamplePoint]:
        out = []
        while self._pending and self._pending[0].arrival_time <= t:
            out.append(self._pending.popleft())
        return out

    def __len__(self) -> int:
        return len(self._pending)


@dataclass(frozen=True)
class CoverConfig:
    enabled: bool = False
    omega: float = 1.0


class Samples:
    """The samples ingested so far, and the ball that certifies them.

    ``ball()`` builds, once per arrival, the window (the plain stream or the
    cover's weighted centers) and the radius eps(beta_n, n) plus the cover's
    transport slack.
    """

    def __init__(self, m: int, capacity: int,
                 concentration: ConcentrationParams,
                 schedule: ConfidenceSchedule, cover: CoverConfig):
        self._buf = np.empty((capacity, m))  # a plain window grows in place
        self.n = 0
        self.cover = Cover(cover.omega) if cover.enabled else None
        self._concentration, self._schedule = concentration, schedule
        self._ball: Optional[tuple[DataWindow, float]] = None

    @property
    def points(self) -> Array:
        return self._buf[: self.n]

    @property
    def cover_size(self) -> Optional[int]:
        return None if self.cover is None else self.cover.size

    def add(self, value, index) -> None:
        """Ingest one sample. Raises ValueError naming ``index`` unless the
        sample is a finite vector of the sample dimension."""
        point = np.asarray(value, dtype=float).reshape(-1)
        m = self._buf.shape[1]
        if point.shape != (m,) or not np.isfinite(point).all():
            raise ValueError(
                f"sample {index} is not a finite vector of dimension {m}")
        self._buf[self.n] = point
        self.n += 1
        self._ball = None
        if self.cover is not None:
            self.cover.update(point)

    def ball(self) -> tuple[DataWindow, float]:
        """(window, radius) certifying the samples so far."""
        if self._ball is None:
            beta = self._schedule.beta(self.n)
            eps = ball_radius(self._concentration, beta, self.n)
            if self.cover is None:
                # a read-only view: add() never writes a row below n again
                points = self.points
                points.setflags(write=False)
                window = DataWindow.plain(points)
            else:
                window = self.cover.window()
                eps += self.cover.transport_slack()
            self._ball = (window, eps)
        return self._ball


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs besides the sample stream itself.

    The tolerances fix every step length: the i-th step of an epoch takes
    ``subgrad.step_length(tolerances, i)``.

    cost_budget_per_period is the solver work available per virtual time
    unit, counted in atom-coordinates touched: one inner iteration on a
    window of p atoms in dimension m costs p*m. It is the rate of the run's
    ``Meter``, which keeps the virtual time. Compressed windows therefore
    advance the clock slower than full ones, which is the whole
    computational point of covering.
    """

    model: CostModel
    tolerances: Tolerances
    concentration: ConcentrationParams
    schedule: ConfidenceSchedule
    n0: int
    cost_budget_per_period: float = 100.0
    x0: Optional[Array] = None
    cover: CoverConfig = field(default_factory=CoverConfig)

    def __post_init__(self):
        if self.n0 < 1:
            raise ValueError("n0 must be at least 1")


@dataclass
class RunTotals:
    steps: int = 0
    epochs: int = 0
    interrupts: int = 0
    reuses: int = 0
    refreshes: int = 0
    lp_calls: int = 0
    cp_calls: int = 0
    afwa_iters: int = 0


@dataclass
class RunResult:
    events: list[RunEvent]
    x_best: Array
    j_best: float
    n: int
    t_final: float
    totals: RunTotals
    cover_size: Optional[int]


def run(
    config: RunConfig,
    points: Sequence[SamplePoint],
    on_event: Optional[Callable[[RunEvent], None]] = None,
) -> RunResult:
    """Consume the stream until n0 samples are certified and the last epoch
    converges; returns the event log and the final certified decision."""
    if len(points) < config.n0:
        raise ValueError(f"stream holds {len(points)} points, n0 is {config.n0}")
    model, tol = config.model, config.tolerances
    queue = ArrivalQueue(list(points)[: config.n0])
    meter = Meter(config.cost_budget_per_period)
    totals = RunTotals()
    events: list[RunEvent] = []
    samples = Samples(model.dimension_m, config.n0, config.concentration,
                      config.schedule, config.cover)

    def post(kind, *, J=None, x=None, **extras) -> None:
        ev = RunEvent(
            seq=len(events),
            kind=kind,
            t=meter.t,
            n=samples.n,
            r=totals.steps,
            l=totals.epochs,
            J=J,
            beta=None,
            x=None if x is None else np.asarray(x, dtype=float).reshape(-1).tolist(),
            extras=extras,
        )
        events.append(ev)
        if on_event is not None:
            on_event(ev)

    def drain() -> None:
        for sp in queue.pop_due(meter.t):
            samples.add(sp.value, sp.index)
            post("DataArrival", point=samples.points[-1].tolist(),
                 index=sp.index, arrival_t=sp.arrival_time,
                 cover_size=samples.cover_size)
        meter.deadline = queue.next_time()

    def post_certificate(cert: CertificateResult, mark, *, x=None,
                         alpha=None, reused=False) -> None:
        # the run's first certificate posts its decision x; a step's posts
        # the step length alpha that took the decision before it to its own,
        # and a refresh its work and plan y: a reuse keeps the plan before
        # it, and its work is its one revalidation search
        extras = dict(alpha=alpha, tol=tol.eps_sa if reused else tol.eps1)
        if not reused:
            # the work of the attempt that produced cert: the counts since mark
            lp, cp, iters = map(operator.sub, meter.counts(), mark)
            extras.update(lp_calls=lp, cp_calls=cp, afwa_iters=iters,
                          y=plan_entries(cert.y_eps1))
        post("CertificatePosted", J=cert.j_eps1, x=x, **extras)

    x = (
        np.zeros(model.dimension_d)
        if config.x0 is None
        else np.asarray(config.x0, dtype=float).reshape(-1).copy()
    )
    warm: Optional[WarmState] = None

    # each epoch ingests what is due, jumping the clock to the next arrival
    # when nothing is; an epoch cut short by arrivals leaves them queued, so
    # the loop ends only after an epoch converged with every sample in
    while queue:
        meter.jump_to(queue.next_time())
        drain()
        totals.epochs += 1
        first = totals.steps
        # certify x on the current window, warm from the last state; an
        # interrupt ingests the due points and retries from its partial state
        while True:
            window, eps_n = samples.ball()
            meter.unit = float(window.size * window.dimension)
            if warm is not None:
                warm = adapt(warm, window, eps_n)
            mark = meter.counts()
            try:
                cert = generate(model, x, window, eps_n, tol.eps1,
                                warm=warm, meter=meter)
                break
            except CertificateInterrupted as ci:
                totals.interrupts += 1
                drain()
                warm = ci.state
        x_best, j_best = x.copy(), cert.j_eps1
        # a later epoch starts from the last one's best, which the log fixes
        post_certificate(cert, mark, x=x if totals.epochs == 1 else None)

        # the steps stay on cert's window: an arrival ends the loop
        while True:
            alpha = step_length(tol, totals.steps - first)
            g = subgradient(model, x, cert.window, cert.y_eps1)
            x_new = scaled_step(x, g, alpha)
            totals.steps += 1
            meter.step()
            mark = meter.counts()
            try:
                outcome = reuse_or_refresh(model, x_new, tol, cert,
                                           meter=meter)
            except CertificateInterrupted as ci:
                totals.interrupts += 1
                warm = ci.state
                break
            cert, reused = outcome.cert, outcome.reused
            totals.reuses += int(reused)
            totals.refreshes += int(not reused)
            post_certificate(cert, mark, alpha=alpha, reused=reused)
            if cert.j_eps1 < j_best:
                x_best, j_best = x_new.copy(), cert.j_eps1
            stop = step_distance(x, x_new) < tol.eps2
            x = x_new
            if stop:
                post("EpochConverged")
            if stop or meter.due():
                warm = cert
                break
        x = x_best.copy()

    post("Terminated")
    totals.lp_calls, totals.cp_calls, totals.afwa_iters = meter.counts()
    return RunResult(
        events=events,
        x_best=x_best,
        j_best=j_best,
        n=samples.n,
        t_final=meter.t,
        totals=totals,
        cover_size=samples.cover_size,
    )
