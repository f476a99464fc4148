"""Inner solvers on the scaled perturbation simplex.

Two pieces live here. ``point_search`` maximizes the linearized certificate
objective over the signed extreme points of the scaled simplex, returning
the argmax vertices and the Frank-Wolfe gap. ``afwa_maximize`` runs
away-step Frank-Wolfe ascent of a concave objective over the unit simplex;
on the unit simplex the barycentric weights of the active set coincide with
the iterate itself, so the classic active-set bookkeeping reduces to the
plain vector update and eviction means zeroing a coordinate. Its line
search takes the exact step of a quadratic objective from the objective's
``curvature`` and bisects on the directional derivative otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

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
    if not np.all(np.isfinite(G)):
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
    signs = np.where(G[ks, js] > 0, 1, -1)
    return np.column_stack([ks, js, signs]), (scale * best - base) / n


class ConcaveObjective(Protocol):
    """Duck interface ``afwa_maximize`` expects.

    An objective quadratic in gamma may also define ``curvature(d)``, the
    constant second derivative of t -> value(gamma + t d); the line search
    then takes its exact step instead of bisecting.
    """

    def value(self, gamma: Array) -> float: ...

    def grad(self, gamma: Array) -> Array: ...


@dataclass
class AfwaResult:
    weights: Array
    value: float
    iterations: int
    gap: float
    converged: bool
    gaps: Optional[list[float]] = None
    interrupted: bool = False


def _normalize_start(start: Sequence[float]) -> Array:
    g = np.asarray(start, dtype=float).copy()
    if g.ndim != 1 or g.size == 0:
        raise ValueError("start must be a nonempty vector")
    if g.min() < -1e-12 or abs(g.sum() - 1.0) > 1e-9:
        raise ValueError("start weights must lie on the unit simplex")
    g[g < 0] = 0.0
    return g / g.sum()


def _line_search(objective, gamma: Array, d: Array, t_max: float, deriv0: float) -> float:
    """Exact maximization of t -> value(gamma + t d) on [0, t_max].

    Closed form from the objective's ``curvature`` when it has one,
    otherwise 60 bisection steps on the directional derivative, tolerance
    1e-12 in t.
    """
    curvature = getattr(objective, "curvature", None)
    if curvature is not None:
        curv = float(curvature(d))
        if curv >= -1e-14 * (1.0 + abs(deriv0)):
            return t_max
        return min(t_max, deriv0 / (-curv))
    if float(objective.grad(gamma + t_max * d) @ d) >= 0.0:
        return t_max
    lo, hi = 0.0, t_max
    for _ in range(60):
        if hi - lo < 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if float(objective.grad(gamma + mid * d) @ d) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def afwa_maximize(
    objective: ConcaveObjective,
    eps: float,
    start: Sequence[float],
    max_iters: int = 1_000_000,
    record_gaps: bool = False,
    interrupt=None,
    tick=None,
) -> AfwaResult:
    """Away-step Frank-Wolfe ascent over the unit simplex.

    Alternates the classic toward-vertex and away-vertex directions, chosen
    by comparing gradient inner products, with exact line search. For away
    steps the maximal step is alpha_v / (1 - alpha_v); hitting it evicts
    the away vertex, while a full toward step collapses the active set to
    the target vertex. Terminates when the Frank-Wolfe gap reaches ``eps``.
    A non-finite value or gradient, at the start or after any step, raises
    SolverError; a value that falls raises ConcavityError.
    Iteration exhaustion returns ``converged=False`` rather than raising so
    callers can flag it.

    ``tick`` is called with 1 after each iteration (cost accounting);
    ``interrupt`` is polled every 32 iterations and, when it fires, the
    current (feasible, no worse than start) weights are returned with
    ``interrupted=True``.
    """
    gamma = _normalize_start(start)
    val = float(objective.value(gamma))
    if not math.isfinite(val):
        raise SolverError("objective returned a non-finite value")
    gaps: Optional[list[float]] = [] if record_gaps else None
    gap_fw = np.inf
    for it in range(max_iters):
        if interrupt is not None and it and it % 32 == 0 and interrupt():
            return AfwaResult(gamma, val, it, gap_fw, False, gaps,
                              interrupted=True)
        g = np.asarray(objective.grad(gamma), dtype=float)
        if not np.isfinite(g).all():
            raise SolverError("objective returned a non-finite gradient")
        s = int(g.argmax())
        avg = float(g @ gamma)
        gap_fw = g[s] - avg
        if gaps is not None:
            gaps.append(gap_fw)
        if gap_fw <= eps:
            return AfwaResult(gamma, val, it, gap_fw, True, gaps)

        active = np.flatnonzero(gamma > 0)
        v = int(active[g[active].argmin()])
        gap_away = avg - g[v]
        if gap_fw >= gap_away or gamma[v] >= 1.0 - 1e-15:
            d = -gamma
            d[s] += 1.0
            t_max, deriv0, away = 1.0, gap_fw, False
        else:
            d = gamma.copy()
            d[v] -= 1.0
            t_max, deriv0, away = gamma[v] / (1.0 - gamma[v]), gap_away, True

        t = _line_search(objective, gamma, d, t_max, deriv0)
        gamma = gamma + t * d
        if away and t >= t_max * (1.0 - 1e-12):
            gamma[v] = 0.0
        if not away and t >= 1.0 - 1e-12:
            gamma = np.zeros_like(gamma)
            gamma[s] = 1.0
        gamma[gamma < 1e-15] = 0.0
        gamma /= gamma.sum()

        new_val = float(objective.value(gamma))
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
    return AfwaResult(gamma, val, max_iters, gap_fw, False, gaps)
