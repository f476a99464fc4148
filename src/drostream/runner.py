"""Streaming driver: ingest arrivals, keep a certified decision at all times.

Work is metered in solver cost units (one per vertex search, hull iteration,
or decision step) and converted to virtual time through a per-period budget,
so arrivals land mid-computation exactly as they would against a wall clock.
Between solver rounds the arrival queue is polled; due points interrupt the
current certificate, the partial state adapts to the grown window, and a new
epoch begins from the best decision found so far.

Every state change is posted as an event with a fixed key set, and each
datum is written once. A refresh posts its perturbation plan in coordinate
form, as its nonzero ``[k, j, value]`` entries (``plan_entries``); a reuse
names that plan by ``y_ref``. A decision step or best update names its
certificate by ``cert_seq`` and posts ``x`` as null, since the certificate
carries the decision. With the gaps and tolerances this is enough for an
offline audit to re-verify the whole run from the event log alone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Literal, Optional, Sequence

import numpy as np

from .ambiguity import ConcentrationParams, ConfidenceSchedule
from .ambiguity import radius as ball_radius
from .certificates import (
    CertificateInterrupted,
    CertificateResult,
    DataWindow,
    WarmState,
    adapt,
    generate,
    plan_entries,
)
from .cover import Cover, Metric
from .model import CostModel, Tolerances
from .stream import SamplePoint
from .subgrad import make_rule, reuse_or_refresh, scaled_step, subgradient

Array = np.ndarray

EVENT_KINDS = (
    "DataArrival",
    "CertificatePosted",
    "DecisionStep",
    "BestUpdated",
    "EpochConverged",
    "Terminated",
)


@dataclass
class RunEvent:
    """One log record; ``record()`` flattens to the fixed JSON key set.

    ``x`` is None on arrivals and on the records that name the certificate
    holding their decision (``DecisionStep``, ``BestUpdated``).
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
        out = {
            "seq": self.seq,
            "kind": self.kind,
            "t": self.t,
            "n": self.n,
            "r": self.r,
            "l": self.l,
            "J": self.J,
            "beta": self.beta,
            "x": self.x,
        }
        out.update(self.extras)
        return out


class Clock:
    """Virtual time driven by solver work: dt = units / budget_per_period."""

    def __init__(self, budget_per_period: float):
        if budget_per_period <= 0:
            raise ValueError("cost budget must be positive")
        self.rate = float(budget_per_period)
        self.t = 0.0

    def tick(self, units: float) -> None:
        self.t += units / self.rate

    def jump_to(self, t: float) -> None:
        if t > self.t:
            self.t = t


class ArrivalQueue:
    """Pending samples in arrival-time order, fixed when the run starts."""

    def __init__(self, points: Sequence[SamplePoint] = ()):
        self._pending = deque(sorted(points, key=lambda p: p.arrival_time))

    def next_time(self) -> Optional[float]:
        return self._pending[0].arrival_time if self._pending else None

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
    metric: Metric = "l1"


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs besides the sample stream itself.

    cost_budget_per_period is the solver work available per virtual time
    unit, counted in atom-coordinates touched: one inner iteration on a
    window of p atoms in dimension m costs p*m. Compressed windows
    therefore advance the clock slower than full ones, which is the whole
    computational point of covering.
    """

    model: CostModel
    tolerances: Tolerances
    concentration: ConcentrationParams
    schedule: ConfidenceSchedule
    n0: int
    step_rule: Literal["constant", "harmonic"] = "harmonic"
    stop_rule: Literal["step", "horizon"] = "step"
    cost_budget_per_period: float = 100.0
    x0: Optional[Array] = None
    cover: CoverConfig = field(default_factory=CoverConfig)

    def __post_init__(self):
        if self.n0 < 1:
            raise ValueError("n0 must be at least 1")
        if self.stop_rule not in ("step", "horizon"):
            raise ValueError(f"unknown stop rule {self.stop_rule!r}")


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
    r: int
    t_final: float
    totals: RunTotals
    cover_size: Optional[int]
    horizon_capped: bool


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
    rule = make_rule(config.step_rule, tol)
    queue = ArrivalQueue(list(points)[: config.n0])
    clock = Clock(config.cost_budget_per_period)
    totals = RunTotals()
    events: list[RunEvent] = []
    # the samples ingested so far are buf[:ingested]; a window grows in place
    buf = np.empty((config.n0, model.dimension_m))
    ingested = 0
    cover = (
        Cover(config.cover.omega, config.cover.metric)
        if config.cover.enabled
        else None
    )

    r = 0
    l = 0
    beta_n: Optional[float] = None

    def post(kind, *, n, J=None, beta=None, x=None, **extras) -> RunEvent:
        ev = RunEvent(
            seq=len(events),
            kind=kind,
            t=clock.t,
            n=n,
            r=r,
            l=l,
            J=J,
            beta=beta,
            x=None if x is None else np.asarray(x, dtype=float).reshape(-1).tolist(),
            extras=extras,
        )
        events.append(ev)
        if on_event is not None:
            on_event(ev)
        return ev

    def ingest(sp: SamplePoint) -> None:
        nonlocal ingested
        point = np.asarray(sp.value, dtype=float).reshape(-1)
        if point.shape != (model.dimension_m,) or not np.isfinite(point).all():
            raise ValueError(
                f"sample {sp.index} is not a finite vector of dimension "
                f"{model.dimension_m}")
        buf[ingested] = point
        ingested += 1
        opened = cover.update(point) if cover is not None else None
        post(
            "DataArrival",
            n=ingested,
            point=point.tolist(),
            index=sp.index,
            arrival_t=sp.arrival_time,
            cover_opened=opened,
            cover_size=None if cover is None else cover.size,
        )

    def due() -> bool:
        nt = queue.next_time()
        return nt is not None and nt <= clock.t

    def drain() -> int:
        got = 0
        for sp in queue.pop_due(clock.t):
            ingest(sp)
            got += 1
        return got

    def current_window() -> DataWindow:
        if cover is not None:
            return cover.window()
        return DataWindow.plain(buf[:ingested])

    def current_radius(n: int) -> tuple[float, float]:
        beta = config.schedule.beta(n)
        eps = ball_radius(config.concentration, beta, n)
        if cover is not None:
            eps += cover.transport_slack()
        return eps, beta

    def absorb(counted) -> None:
        # CertificateResult and CertificateInterrupted both carry the
        # counters, so completed and aborted attempts account identically
        totals.lp_calls += counted.lp_calls
        totals.cp_calls += counted.cp_calls
        totals.afwa_iters += counted.afwa_iters

    def cost_tick(win: DataWindow) -> Callable[[float], None]:
        # one solver iteration touches every atom coordinate of the active
        # window, so compressed windows advance the clock proportionally slower
        unit = float(win.size * win.dimension)

        def _tick(units: float) -> None:
            clock.tick(units * unit)

        return _tick

    def post_certificate(cert: CertificateResult, x, *, tol_used, reused,
                         y_ref=None) -> RunEvent:
        extras = dict(
            eta=cert.eta,
            tol=tol_used,
            radius=cert.radius,
            reused=reused,
            lp_calls=cert.lp_calls,
            cp_calls=cert.cp_calls,
            afwa_iters=cert.afwa_iters,
        )
        if y_ref is None:
            extras["y"] = plan_entries(cert.y_eps1)
        else:
            extras["y_ref"] = y_ref
        return post(
            "CertificatePosted",
            n=ingested,
            J=cert.j_eps1,
            beta=beta_n,
            x=x,
            **extras,
        )

    x = (
        np.zeros(model.dimension_d)
        if config.x0 is None
        else np.asarray(config.x0, dtype=float).reshape(-1).copy()
    )
    if model.project is not None:
        x = model.project(x)

    nt = queue.next_time()
    if nt is None:
        raise ValueError("empty stream")
    clock.jump_to(nt)
    drain()

    warm: Optional[WarmState] = None
    x_best = x.copy()
    j_best = float("inf")

    while True:
        l += 1
        totals.epochs += 1
        r_n = r
        # certify x on the current window, warm from the last state; an
        # interrupt ingests the due points and retries from its partial state
        while True:
            n = ingested
            eps_n, beta_n = current_radius(n)
            window = current_window()
            if warm is not None:
                warm = adapt(warm.vertex_set, warm.gamma, window.n_total, eps_n,
                             (window.size, window.dimension))
            try:
                cert = generate(
                    model, x, window, eps_n, tol.eps1,
                    warm=warm, interrupt=due, tick=cost_tick(window),
                )
                break
            except CertificateInterrupted as ci:
                totals.interrupts += 1
                absorb(ci)
                drain()
                warm = ci.state
        absorb(cert)
        ev = post_certificate(cert, x, tol_used=tol.eps1, reused=False)
        cert_seq = ev.seq
        full_y_seq = ev.seq
        x_best, j_best, best_seq = x.copy(), cert.j_eps1, cert_seq
        epoch_converged = False

        while True:
            alpha = rule.alpha(r - r_n)
            g = subgradient(model, x, cert)
            x_new = scaled_step(model, x, g, alpha)
            r += 1
            totals.steps += 1
            clock.tick(1.0)
            try:
                outcome = reuse_or_refresh(
                    model, x_new, window, eps_n, tol, cert,
                    interrupt=due, tick=cost_tick(window),
                )
            except CertificateInterrupted as ci:
                totals.interrupts += 1
                absorb(ci)
                warm = ci.state
                drain()
                break
            outcome_cert, reused = outcome.cert, outcome.reused
            absorb(outcome_cert)
            totals.reuses += int(reused)
            totals.refreshes += int(not reused)
            cev = post_certificate(
                outcome_cert,
                x_new,
                tol_used=tol.eps_sa if reused else tol.eps1,
                reused=reused,
                y_ref=full_y_seq if reused else None,
            )
            cert_seq = cev.seq
            if not reused:
                full_y_seq = cev.seq
            moved = float(np.linalg.norm(x_new - x))
            post(
                "DecisionStep",
                n=n,
                J=outcome_cert.j_eps1,
                beta=beta_n,
                alpha=alpha,
                moved=moved,
                cert_seq=cert_seq,
            )
            if outcome_cert.j_eps1 < j_best:
                x_best, j_best, best_seq = x_new.copy(), outcome_cert.j_eps1, cert_seq
                post("BestUpdated", n=n, J=j_best, beta=beta_n,
                     cert_seq=cert_seq)
            x, cert = x_new, outcome_cert
            step_stop = moved < tol.eps2
            horizon_stop = (r - r_n) >= rule.horizon
            stop = step_stop if config.stop_rule == "step" else horizon_stop
            if stop:
                post(
                    "EpochConverged",
                    n=n,
                    J=j_best,
                    beta=beta_n,
                    x=x_best,
                    steps=r - r_n,
                    reason=config.stop_rule,
                    rules_disagree=bool(step_stop != horizon_stop),
                    best_seq=best_seq,
                )
                epoch_converged = True
                warm = cert.warm_state()
                break
            if due():
                warm = cert.warm_state()
                drain()
                break

        x = x_best.copy()
        if epoch_converged:
            if len(queue) == 0:
                post(
                    "Terminated",
                    n=n,
                    J=j_best,
                    beta=beta_n,
                    x=x_best,
                    best_seq=best_seq,
                    cover_size=None if cover is None else cover.size,
                )
                break
            nt = queue.next_time()
            if nt is not None:
                clock.jump_to(nt)
            drain()

    return RunResult(
        events=events,
        x_best=x_best,
        j_best=j_best,
        n=ingested,
        r=r,
        t_final=clock.t,
        totals=totals,
        cover_size=None if cover is None else cover.size,
        horizon_capped=rule.horizon_capped,
    )
