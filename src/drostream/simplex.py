"""Inner solvers on the scaled perturbation simplex.

Two pieces live here. ``point_search`` maximizes the linearized certificate
objective over the signed extreme points of the scaled simplex, returning
the argmax vertices and the Frank-Wolfe gap. ``afwa_maximize`` runs
away-step Frank-Wolfe ascent of a concave quadratic over the unit simplex;
on the unit simplex the barycentric weights of the active set coincide with
the iterate itself, so the classic active-set bookkeeping reduces to the
plain vector update and eviction means zeroing a coordinate. One
Hessian-vector product per iteration gives the exact step and carries the
gradient and value along it.

The ascent serves only objectives quadratic in the weights: the
certificate's hull objective is one exactly when the cost is quadratic in
the sample (``CostModel.sample_curvature``), which every model must be.
Costs concave but not quadratic in the sample have no solver here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

Array = np.ndarray


class ConcavityError(RuntimeError):
    """Ascent decreased the objective: the restricted objective is not
    concave in the sample argument as the solver requires."""


class SolverError(RuntimeError):
    """An inner solver failed to certify optimality within its budget."""


def point_search(
    grads: Array, scale: float, y_current: Array, n_total: int
) -> tuple[Array, float]:
    """Best signed vertex of the scaled simplex under the linearized objective.

    Parameters
    ----------
    grads : (p, m) array
        Per-row gradients of the perturbation objective at ``y_current``.
    scale : float
        Simplex scale, total transport budget n * eps.
    y_current : (p, m) array
        Current perturbation point the gap is measured from.
    n_total : int
        Stream count n normalizing the gap. Weighted windows hold fewer
        rows than samples, so this is not the row count in general.

    Returns
    -------
    vertices : (q, 3) int array
        Every argmax vertex (ties all included) as a ``(k, j, sign)`` row:
        the vertex is ``sign * scale`` at sample k, coordinate j. Empty when
        the gradients vanish identically.
    eta : float
        Frank-Wolfe gap (1/n) sum_k <grad_k, vertex_k - y_k>, an upper
        bound on the remaining certificate suboptimality at ``y_current``.
    """
    G = np.asarray(grads, dtype=float)
    y = np.asarray(y_current, dtype=float)
    if G.ndim != 2 or G.shape != y.shape:
        raise ValueError("grads and y_current must both have shape (p, m)")
    if not np.isfinite(G).all():
        raise ValueError("gradients must be finite")
    if not scale > 0:
        raise ValueError("scale must be positive")
    n = float(n_total)
    if not n > 0:
        raise ValueError("n_total must be positive")
    base = float(np.vdot(G, y))
    absG = np.abs(G)
    best = float(absG.max())
    if best == 0.0:
        return np.empty((0, 3), dtype=np.intp), -base / n
    ks, js = np.nonzero(absG == best)
    vertices = np.empty((len(ks), 3), dtype=np.intp)
    vertices[:, 0] = ks
    vertices[:, 1] = js
    vertices[:, 2] = np.where(G[ks, js] > 0, 1, -1)
    return vertices, (scale * best - base) / n


@dataclass
class AfwaResult:
    weights: Array
    value: float
    iterations: int
    gap: float
    converged: bool
    interrupted: bool = False


def _normalize_start(start: Sequence[float]) -> Array:
    g = np.asarray(start, dtype=float).copy()
    if g.ndim != 1 or g.size == 0:
        raise ValueError("start must be a nonempty vector")
    if g.min() < -1e-12 or abs(g.sum() - 1.0) > 1e-9:
        raise ValueError("start weights must lie on the unit simplex")
    g[g < 0] = 0.0
    return g / g.sum()


def afwa_maximize(
    v0: float,
    lin: Array,
    H: Array,
    eps: float,
    start: Sequence[float],
    max_iters: int = 1_000_000,
    interrupt=None,
    tick=None,
) -> AfwaResult:
    """Away-step Frank-Wolfe ascent of v0 + lin'gamma + gamma'H gamma / 2
    over the unit simplex; ``H`` must be symmetric negative semidefinite.

    Alternates the classic toward-vertex and away-vertex directions, chosen
    by comparing gradient inner products, with the exact step along each.
    For away steps the maximal step is alpha_v / (1 - alpha_v); hitting it
    evicts the away vertex, while a full toward step collapses the active
    set to the target vertex. Terminates when the Frank-Wolfe gap reaches
    ``eps``.

    The value and gradient are computed once at the start. One product H d
    per iteration gives the exact step t from d'H d and carries them along
    it, as g + t H d and val + t g'd + t^2 d'H d / 2; a gap at or below
    ``eps`` is confirmed on a fresh gradient before it is returned, so
    carried roundoff never decides convergence. The weights and gradient
    are the two rows of one array and d and H d the rows of another, so a
    step moves both with one scale and one add. A non-finite value or
    gradient, at the start or after any step, raises SolverError; a value
    that falls raises ConcavityError. Iteration exhaustion returns
    ``converged=False`` rather than raising so callers can flag it.

    ``tick`` is called with 1 after each iteration (cost accounting);
    ``interrupt`` is polled every 32 iterations and, when it fires, the
    current (feasible, no worse than start) weights are returned with
    ``interrupted=True``.

    The weights are renormalized at every 32nd iteration (where
    ``interrupt`` is polled, whether or not one is given), before the
    fresh-gradient confirmation and before an exhausted return, not after
    each step. Steps and the clamp of weights below 1e-15 move their sum off
    1 only by roundoff, so between renormalizations it drifts by at most
    about 32 V ulps for V weights. Every returned weight vector is
    normalized, and its gap is measured on it.

    The active set is kept between steps, not recomputed. A row that is 0.0
    on the active weights and inf off them makes the away search one add
    and one argmin; a toward step, an eviction and a full toward step set
    it by rule. The clamp, which zeroes the weights below 1e-15 and
    rebuilds that row, runs after the first step (a start may hold -0.0 or
    weights below 1e-15) and after any later step that leaves an active
    weight below 1e-15. A lower bound on the active weights says when to
    look: an away step lowers only the away weight, a toward step scales
    the others by at least (1 - t) - 1e-15 after rounding, and the bound is
    made exact at every renormalization. Adding 0.0 keeps every gradient
    value, and the clamp changes nothing while every active weight is at
    least 1e-15, so the iterates are bitwise those of a loop that clamps
    and masks after every step (``afwa_quadratic_reference`` in the
    tests).
    """
    start = _normalize_start(start)
    state = np.empty((2, start.size))
    gamma, g = state
    gamma[:] = start
    lin = np.asarray(lin, dtype=float)
    H = np.asarray(H, dtype=float)
    val = float(v0 + float(lin @ gamma) + 0.5 * float(gamma @ H @ gamma))
    if not math.isfinite(val):
        raise SolverError("objective returned a non-finite value")
    np.dot(H, gamma, out=g)
    g += lin
    step = np.empty_like(state)
    d, Hd = step
    # pen is 0.0 on the active weights and inf off them, so the away search
    # is the argmin of g + pen; floor is a lower bound on the active weights,
    # and 0.0 makes the first step clamp
    pen = np.where(gamma > 0, 0.0, np.inf)
    buf = np.empty_like(gamma)
    floor = 0.0
    gap_fw = math.inf
    for it in range(max_iters):
        if it and not it % 32:
            gamma /= np.add.reduce(gamma)
            floor = float(np.add(gamma, pen, out=buf).min())
            if interrupt is not None and interrupt():
                return AfwaResult(gamma, val, it, gap_fw, False, interrupted=True)
        s = int(g.argmax())
        avg = float(g.dot(gamma))
        gap_fw = g.item(s) - avg
        if gap_fw <= eps:
            gamma /= np.add.reduce(gamma)
            floor = float(np.add(gamma, pen, out=buf).min())
            np.dot(H, gamma, out=g)
            g += lin
            s = int(g.argmax())
            avg = float(g.dot(gamma))
            gap_fw = g.item(s) - avg
        # a non-finite entry of g reaches g[s] or avg, so the gap shows it
        if not math.isfinite(gap_fw):
            raise SolverError("objective returned a non-finite gradient")
        if gap_fw <= eps:
            return AfwaResult(gamma, val, it, gap_fw, True)

        v = int(np.add(g, pen, out=buf).argmin())
        gap_away = avg - g.item(v)
        gamma_v = gamma.item(v)
        if gap_fw >= gap_away or gamma_v >= 1.0 - 1e-15:
            np.negative(gamma, out=d)
            d[s] += 1.0
            t_max, deriv0, away = 1.0, gap_fw, False
        else:
            d[:] = gamma
            d[v] -= 1.0
            t_max, deriv0, away = gamma_v / (1.0 - gamma_v), gap_away, True

        np.dot(H, d, out=Hd)
        curv = float(d.dot(Hd))
        if curv >= -1e-14 * (1.0 + abs(deriv0)):
            t = t_max
        else:
            t = min(t_max, deriv0 / (-curv))
        step *= t
        state += step
        # keep floor a lower bound on the active weights: an away step only
        # grows those but v, and a toward step shrinks each by a factor of
        # at least (1 - t) - 1e-15 after rounding; clamp only when the exact
        # minimum is below 1e-15, or after the first step
        if away:
            if t >= t_max * (1.0 - 1e-12):
                gamma[v] = 0.0
                pen[v] = math.inf
            else:
                floor = min(floor, gamma.item(v))
        elif t >= 1.0 - 1e-12:
            gamma[:] = 0.0
            gamma[s] = 1.0
            pen.fill(math.inf)
            pen[s] = 0.0
            floor = 1.0
        else:
            pen[s] = 0.0
            floor = min(floor * ((1.0 - t) - 1e-15), gamma.item(s))
        if floor < 1e-15:
            floor = float(np.add(gamma, pen, out=buf).min())
            if floor < 1e-15 or not it:
                low = gamma < 1e-15
                gamma[low] = 0.0
                pen = np.where(low, math.inf, 0.0)
                floor = float(np.add(gamma, pen, out=buf).min())

        new_val = val + t * deriv0 + 0.5 * t * t * curv
        if not math.isfinite(new_val):
            raise SolverError(
                f"objective returned a non-finite value after iteration {it}")
        if new_val < val - 1e-9 * (1.0 + abs(val)):
            raise ConcavityError(
                "exact-line-search ascent decreased the objective "
                f"({val:.12g} -> {new_val:.12g}); the restricted objective "
                "is not concave"
            )
        val = new_val
        if tick is not None:
            tick(1)
    gamma /= np.add.reduce(gamma)
    return AfwaResult(gamma, val, max_iters, gap_fw, False)
