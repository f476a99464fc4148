"""Inexact subgradient descent on the certified worst-case objective.

Each step descends along the expected decision gradient under the current
worst-case distribution, which is an eps-subgradient of the certificate
value. The i-th step of an epoch takes the harmonic length M / (i + 1)
for the subgradient bound M, and an epoch stops at its first step that
moves less than eps2. Between steps the previous certificate is
revalidated and only refreshed when its gap has drifted past the reuse
tolerance.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

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


def step_length(tol: Tolerances, i: int) -> float:
    """Step length at the within-epoch step index i (0-based): the harmonic
    M / (i + 1) for the subgradient bound M. The runner steps with it and
    the audit checks each posted step length against it."""
    return tol.subgrad_bound / (i + 1.0)


def subgradient(model, x: Array, window: DataWindow, y: Array) -> Array:
    """Expected decision gradient under a certificate's worst-case law:
    weights theta_k / n_total on the window's atoms moved to ``points - y``,
    for the certificate's physical plan ``y``. One batched ``grad_x`` call;
    the runner steps with it and the audit re-derives the step with it."""
    grads = np.asarray(model.grad_x(x, window.points - y), dtype=float)
    return (window.theta / window.n_total) @ grads.reshape(window.size, -1)


def step_distance(x: Array, x_new: Array) -> float:
    """The 2-norm of the step from decision x to x_new, bitwise what
    ``np.linalg.norm(x_new - x)`` gives for 1-D float vectors. The runner
    stops an epoch on it and the audit re-checks that stop with it."""
    step = x_new - x
    return math.sqrt(step.dot(step))


def scaled_step(x: Array, g: Array, alpha: float) -> Array:
    """Move against g with length alpha in the 1-norm, normalizing only
    gradients whose 1-norm exceeds one. Decisions are unconstrained, so
    the step is the new decision as it stands."""
    g = np.asarray(g, dtype=float)
    size = float(np.abs(g).sum())
    return np.asarray(x, dtype=float) - alpha * g / max(size, 1.0)


@dataclass
class ReuseOutcome:
    """What happened when a step asked for the certificate at its new point."""

    cert: CertificateResult
    reused: bool


def reuse_or_refresh(
    model,
    x_new: Array,
    tol: Tolerances,
    prev: CertificateResult,
    meter: Optional[Meter] = None,
) -> ReuseOutcome:
    """Certificate at the stepped decision on ``prev``'s window and radius,
    cheaply when the old plan holds.

    A single vertex search prices the old perturbation plan at the new
    decision; ``meter`` counts and charges it whatever follows. Within the
    reuse tolerance the old plan certifies: the reused certificate is
    ``prev`` with its value re-evaluated at x_new and the new gap.
    Otherwise a full solve runs warm-started from ``prev``, its first vertex
    search on the gradients the revalidation read.
    """
    if meter is None:
        meter = Meter()
    valid, eta, grads = revalidate(model, x_new, prev, tol.eps_sa)
    meter.search()
    if valid:
        j = certificate_value(model, x_new, prev.window, prev.y_eps1)
        return ReuseOutcome(dataclasses.replace(prev, j_eps1=j, eta=eta), True)
    cert = generate(model, x_new, prev.window, prev.radius, tol.eps1,
                    warm=prev, meter=meter, warm_grads=grads)
    return ReuseOutcome(cert, False)
