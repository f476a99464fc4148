"""Inner solvers on the scaled perturbation simplex.

Two pieces live here. ``point_search`` maximizes the linearized certificate
objective over the signed extreme points of the scaled simplex, returning
the argmax vertices and the Frank-Wolfe gap. ``afwa_maximize`` runs
away-step Frank-Wolfe ascent of a concave quadratic over the unit simplex;
on the unit simplex the barycentric weights of the active set coincide with
the iterate itself, so the classic active-set bookkeeping reduces to the
plain vector update and eviction means zeroing a coordinate. One
Hessian-vector product per iteration gives the exact step and carries the
gradient and value along it. The Hessian is diagonal when the model's
sample curvature is and no two hull vertices share an atom and a
coordinate; the product is then elementwise, O(V) rather than O(V^2) for
V weights.

The ascent serves only objectives quadratic in the weights: the
certificate's hull objective is one exactly when the cost is quadratic in
the sample (``CostModel.sample_curvature``), which every model must be.
Costs concave but not quadratic in the sample have no solver here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

Array = np.ndarray


class ConcavityError(RuntimeError):
    """Ascent decreased the objective: the restricted objective is not
    concave in the sample argument as the solver requires."""


class SolverError(RuntimeError):
    """An inner solver failed to certify optimality within its budget."""


def _gap(grads, scale, y_current, n_total):  # G, |G|, max |G| and the gap
    G = np.asarray(grads, dtype=float)
    y = np.asarray(y_current, dtype=float)
    if G.ndim != 2 or G.shape != y.shape:
        raise ValueError("grads and y_current must both have shape (p, m)")
    absG = np.abs(G)
    # NaN and +-inf carry through abs and max, so one pass finds both
    best = float(np.maximum.reduce(absG, axis=None))
    if not math.isfinite(best):
        raise ValueError("gradients must be finite")
    if not scale > 0:
        raise ValueError("scale must be positive")
    n = float(n_total)
    if not n > 0:
        raise ValueError("n_total must be positive")
    base = float(np.vdot(G, y))
    eta = -base / n if best == 0.0 else (scale * best - base) / n
    return G, absG, best, eta


def frank_wolfe_gap(grads: Array, scale: float, y_current: Array,
                    n_total: int) -> float:
    """``point_search``'s gap ``eta`` alone, bit for bit, with its checks."""
    return _gap(grads, scale, y_current, n_total)[3]


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
    G, absG, best, eta = _gap(grads, scale, y_current, n_total)
    if best == 0.0:
        return np.empty((0, 3), dtype=np.intp), eta
    ks, js = (absG == best).nonzero()
    vertices = np.empty((len(ks), 3), dtype=np.intp)
    vertices[:, 0] = ks
    vertices[:, 1] = js
    np.sign(G[ks, js], vertices[:, 2], casting="unsafe")
    return vertices, eta


@dataclass
class AfwaResult:
    weights: Array
    value: float
    iterations: int
    gap: float
    converged: bool
    interrupted: bool = False


def afwa_maximize(
    v0: float,
    lin: Array,
    H: Array,
    eps: float,
    start: Sequence[float],
    max_iters: int = 1_000_000,
    meter=None,
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
    carried roundoff never decides convergence. A non-finite value or
    gradient, at the start or after any step, raises SolverError; a value
    that falls raises ConcavityError. Iteration exhaustion returns
    ``converged=False`` rather than raising so callers can flag it.

    The weights and gradient are the rows of one zeroed (2, 8 ceil(V/8))
    array, cut to their first V entries, and d and H d the rows of another,
    so a step moves both with one scale and one add over the whole arrays;
    the padding stays 0.0 under both. Each row starts a multiple of 64
    bytes into its array, where a fresh array would start: under some BLAS
    kernels a vector dot product rounds differently with its operands'
    placement in memory, and so these rows take the same products as fresh
    arrays do.

    When every nonzero of ``H`` lies on its diagonal (checked once per
    call), each step's H d is the diagonal times d elementwise, O(V)
    instead of O(V^2) for V weights. Each row of the dense product adds
    exact zeros to its one nonzero term, so the two can differ only in the
    sign of a zero entry of H d. Such a zero is only ever added to a
    gradient entry or summed into a zero curvature, and the fresh gradient
    that confirms a gap at or below ``eps`` is read with the dense product,
    so for ``eps`` >= 0 the weights, value, gap and iteration count are
    the dense product's bit for bit.

    ``meter`` (a ``certificates.Meter``, or None for no clock) is charged
    one cost unit per iteration, and its deadline is polled every 32
    iterations; when it is due, the current (feasible, no worse than start)
    weights are returned with ``interrupted=True``. The ascent reads the
    meter's time, unit, rate and deadline once and keeps the time in a
    local float, adding one unit's length after each iteration as
    ``Meter.charge(1)`` would, so the time is bitwise that of those calls.
    It writes the time back on every exit, a raised error included.

    The weights are renormalized at every 32nd iteration (where the
    deadline is polled, whether or not there is a meter), before the
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
    w = np.asarray(start, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("start must be a nonempty vector")
    add_reduce, min_reduce = np.add.reduce, np.minimum.reduce
    least, total = min_reduce(w), add_reduce(w)
    # written so that a NaN weight fails it too
    if not (least >= -1e-12 and abs(total - 1.0) <= 1e-9):
        raise ValueError("start weights must lie on the unit simplex")
    if least < 0:
        w = np.where(w < 0, 0.0, w)
        total = add_reduce(w)
    V = w.size
    width = -(-V // 8) * 8
    state = np.zeros((2, width))
    gamma, g = state[:, :V]
    np.divide(w, total, gamma)
    lin = np.asarray(lin, dtype=float)
    H = np.asarray(H, dtype=float)
    val = float(v0 + float(lin @ gamma) + 0.5 * float(gamma @ H @ gamma))
    if not math.isfinite(val):
        raise SolverError("objective returned a non-finite value")
    H.dot(gamma, g)
    g += lin
    step = np.zeros((2, width))
    d, Hd = step[:, :V]
    # prod(d, Hd) writes H d; a diagonal H is applied elementwise, with the
    # dense product's values
    diag = H.diagonal()
    if np.count_nonzero(H) == np.count_nonzero(diag):
        prod = partial(np.multiply, diag.copy())
    else:
        prod = H.dot
    # pen is 0.0 on the active weights and inf off them, so the away search
    # is the argmin of g + pen; floor is a lower bound on the active weights,
    # and 0.0 makes the first step clamp
    pen = np.where(gamma > 0, 0.0, np.inf)
    buf = np.empty(V)
    floor = 0.0
    gap_fw = math.inf
    if meter is None:
        clock, cost, deadline = 0.0, 0.0, math.inf
    else:
        # cost is the length Meter.charge(1) adds, computed as it computes it
        clock, cost = meter.t, 1 * meter.unit / meter.rate
        deadline = meter.deadline
    add, multiply, negative = np.add, np.multiply, np.negative
    g_argmax, g_dot, g_item = g.argmax, g.dot, g.item
    gamma_item, d_dot = gamma.item, d.dot
    try:
        for it in range(max_iters):
            if it and not it % 32:
                gamma /= add_reduce(gamma)
                floor = float(min_reduce(add(gamma, pen, buf)))
                if clock >= deadline:
                    return AfwaResult(gamma, val, it, gap_fw, False,
                                      interrupted=True)
            s = g_argmax()
            avg = float(g_dot(gamma))
            gap_fw = g_item(s) - avg
            if gap_fw <= eps:
                gamma /= add_reduce(gamma)
                floor = float(min_reduce(add(gamma, pen, buf)))
                H.dot(gamma, g)
                g += lin
                s = g_argmax()
                avg = float(g_dot(gamma))
                gap_fw = g_item(s) - avg
            # a non-finite entry of g reaches g[s] or avg, so the gap shows it
            if not math.isfinite(gap_fw):
                raise SolverError("objective returned a non-finite gradient")
            if gap_fw <= eps:
                return AfwaResult(gamma, val, it, gap_fw, True)

            v = add(g, pen, buf).argmin()
            gap_away = avg - g_item(v)
            gamma_v = gamma_item(v)
            if gap_fw >= gap_away or gamma_v >= 1.0 - 1e-15:
                negative(gamma, d)
                d[s] = 1.0 - gamma_item(s)
                t_max, deriv0, away = 1.0, gap_fw, False
            else:
                d[:] = gamma
                d[v] = gamma_v - 1.0
                t_max, deriv0, away = gamma_v / (1.0 - gamma_v), gap_away, True

            prod(d, Hd)
            curv = float(d_dot(Hd))
            if curv >= -1e-14 * (1.0 + abs(deriv0)):
                t = t_max
            else:
                t = deriv0 / -curv
                if not t < t_max:
                    t = t_max
            multiply(step, t, step)
            add(state, step, state)
            # keep floor a lower bound on the active weights: an away step
            # only grows those but v, and a toward step shrinks each by a
            # factor of at least (1 - t) - 1e-15 after rounding; clamp only
            # when the exact minimum is below 1e-15, or after the first step
            if away:
                if t >= t_max * (1.0 - 1e-12):
                    gamma[v] = 0.0
                    pen[v] = math.inf
                else:
                    weight = gamma_item(v)
                    if weight < floor:
                        floor = weight
            elif t >= 1.0 - 1e-12:
                gamma[:] = 0.0
                gamma[s] = 1.0
                pen.fill(math.inf)
                pen[s] = 0.0
                floor = 1.0
            else:
                pen[s] = 0.0
                floor *= (1.0 - t) - 1e-15
                weight = gamma_item(s)
                if weight < floor:
                    floor = weight
            if floor < 1e-15:
                floor = float(min_reduce(add(gamma, pen, buf)))
                if floor < 1e-15 or not it:
                    low = gamma < 1e-15
                    gamma[low] = 0.0
                    pen = np.where(low, math.inf, 0.0)
                    floor = float(min_reduce(add(gamma, pen, buf)))

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
            clock += cost
        gamma /= add_reduce(gamma)
        return AfwaResult(gamma, val, max_iters, gap_fw, False)
    finally:
        if meter is not None:
            meter.t = clock
