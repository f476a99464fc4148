"""Inexact subgradient descent on the certified worst-case objective.

Each step descends along the expected decision gradient under the current
worst-case distribution, which is an eps-subgradient of the certificate
value. Two step-size rules are provided, each paired with the iteration
horizon that guarantees an eps2-accurate epoch; between steps the previous
certificate is revalidated and only refreshed when its gap has drifted
past the reuse tolerance.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Literal, Optional

import numpy as np

from .certificates import (
    CertificateResult,
    DataWindow,
    Meter,
    certificate_value,
    generate,
    revalidate,
)
from .model import Tolerances

Array = np.ndarray


@dataclass(frozen=True)
class StepSizeRule:
    """Step length schedule plus the epoch horizon it certifies.

    ``alpha(i)`` takes the within-epoch iteration index (0-based) and
    ``horizon`` bounds how many steps an epoch may need before the best
    iterate is eps2-accurate. ``horizon_capped`` flags schedules whose true
    horizon overflowed the representable cap.
    """

    alpha: Callable[[int], float]
    horizon: int
    horizon_capped: bool = False


_HORIZON_CAP = 10**18


def _constant_rule(tol: Tolerances) -> StepSizeRule:
    M = tol.subgrad_bound
    slack = tol.eps2 / tol.mu - tol.eps_sa
    rbar = math.ceil(M * M / (slack * slack))
    alpha = M / math.sqrt(rbar + 1.0)
    return StepSizeRule(lambda i: alpha, rbar)


def _harmonic_rule(tol: Tolerances) -> StepSizeRule:
    M = tol.subgrad_bound
    slack = tol.eps2 / tol.mu - tol.eps_sa

    def ok(r: int) -> bool:
        return M * (3.0 - 1.0 / (r + 1.0)) <= 2.0 * slack * math.log(r + 1.0)

    # ok(r) is f(r) = 2 slack ln(r+1) - M (3 - 1/(r+1)) >= 0, and
    # f'(r) = (2 slack (r+1) - M) / (r+1)^2: f falls, then rises. Where it
    # falls for some r >= 1, slack < M / 4, so f(1) < 0 and f stays negative
    # there. So ok is monotone for r >= 1 (and ok(0) never holds): bracket
    # by doubling, then bisect for the smallest feasible horizon.
    lo, hi = 0, 1
    while hi < _HORIZON_CAP and not ok(hi):
        lo, hi = hi, min(2 * hi, _HORIZON_CAP)
    capped = not ok(hi)
    while not capped and lo + 1 < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return StepSizeRule(lambda i: M / (i + 1.0), hi, capped)


def make_rule(name: Literal["constant", "harmonic"], tol: Tolerances) -> StepSizeRule:
    """Build a step rule; requires eps_sa < eps2 / mu (enforced by Tolerances)."""
    if name == "constant":
        return _constant_rule(tol)
    if name == "harmonic":
        return _harmonic_rule(tol)
    raise ValueError(f"unknown step rule {name!r}")


def subgradient(model, x: Array, cert: CertificateResult) -> Array:
    """Expected decision gradient under the certificate's worst-case law:
    weights theta_k / n_total on the window's atoms moved to
    ``points - y_eps1``."""
    win = cert.window
    grads = np.asarray(model.grad_x(x, win.points - cert.y_eps1), dtype=float)
    return (win.theta / win.n_total) @ grads.reshape(win.size, -1)


def scaled_step(model, x: Array, g: Array, alpha: float) -> Array:
    """Move against g with length alpha in the 1-norm, normalizing only
    gradients whose 1-norm exceeds one."""
    g = np.asarray(g, dtype=float)
    size = float(np.abs(g).sum())
    x_new = np.asarray(x, dtype=float) - alpha * g / max(size, 1.0)
    if model.project is not None:
        x_new = model.project(x_new)
    return x_new


@dataclass
class ReuseOutcome:
    """What happened when a step asked for the certificate at its new point."""

    cert: CertificateResult
    reused: bool


def reuse_or_refresh(
    model,
    x_new: Array,
    window: DataWindow,
    radius: float,
    tol: Tolerances,
    prev: CertificateResult,
    interrupt: Optional[Callable[[], bool]] = None,
    meter: Optional[Meter] = None,
) -> ReuseOutcome:
    """Certificate at the stepped decision, cheaply when the old plan holds.

    A single vertex search prices the old perturbation plan at the new
    decision; ``meter`` counts and charges it whatever follows. Within the
    reuse tolerance the old plan certifies: the reused certificate is
    ``prev`` with its value re-evaluated at x_new and the new gap.
    Otherwise a full solve runs warm-started from it, its first vertex
    search on the gradients the revalidation read.
    """
    if meter is None:
        meter = Meter()
    warm = prev.warm_state()
    valid, eta, grads = revalidate(model, x_new, window, radius, warm,
                                   tol.eps_sa)
    meter.search()
    if valid:
        j = certificate_value(model, x_new, window, prev.y_eps1)
        return ReuseOutcome(dataclasses.replace(prev, j_eps1=j, eta=eta), True)
    cert = generate(model, x_new, window, radius, tol.eps1, warm=warm,
                    interrupt=interrupt, meter=meter, warm_grads=grads)
    return ReuseOutcome(cert, False)
