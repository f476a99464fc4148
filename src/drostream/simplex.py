"""Inner solvers on the scaled perturbation simplex.

Two pieces live here. ``point_search`` maximizes the linearized certificate
objective over the signed extreme points of the scaled simplex, returning
the argmax vertices and the Frank-Wolfe gap. ``afwa_maximize`` runs
away-step Frank-Wolfe ascent of a concave objective over the unit simplex;
on the unit simplex the barycentric weights of the active set coincide with
the iterate itself, so the classic active-set bookkeeping reduces to the
plain vector update and eviction means zeroing a coordinate. For an
objective quadratic in the weights, one Hessian-vector product per iteration
(the objective's ``hess_vec``) gives the exact step and carries the gradient
and value along it; other objectives bisect on the directional derivative
and are re-evaluated after each step.
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

    An objective quadratic in gamma may also define ``hess_vec(d)``, the
    product H d with its constant Hessian H. ``afwa_maximize`` then takes the
    exact step from d'H d and carries the gradient (g + t H d) and the value
    along it instead of calling ``grad`` and ``value`` at every iteration.
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


def _line_search(objective, gamma: Array, d: Array, t_max: float) -> float:
    """Maximization of t -> value(gamma + t d) on [0, t_max] for an objective
    without ``hess_vec``: 60 bisection steps on the directional derivative,
    tolerance 1e-12 in t."""
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


def _fw_gap(g: Array, gamma: Array) -> tuple[int, float, float]:
    """Toward vertex s, average g'gamma and Frank-Wolfe gap g[s] - g'gamma."""
    s = int(g.argmax())
    avg = float(g @ gamma)
    return s, avg, float(g[s]) - avg


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

    The gradient and value are read once at the start. With ``hess_vec``
    each step of length t along d updates them as g + t H d and
    val + t g'd + t^2 d'H d / 2, so the loop calls neither ``grad`` nor
    ``value``; a gap at or below ``eps`` is confirmed on a fresh ``grad``
    before it is returned, so carried roundoff never decides convergence.
    Without ``hess_vec`` both are evaluated afresh after each step.
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
    hess_vec = getattr(objective, "hess_vec", None)
    g = np.asarray(objective.grad(gamma), dtype=float)
    gaps: Optional[list[float]] = [] if record_gaps else None
    gap_fw = math.inf
    for it in range(max_iters):
        if interrupt is not None and it and it % 32 == 0 and interrupt():
            return AfwaResult(gamma, val, it, gap_fw, False, gaps,
                              interrupted=True)
        s, avg, gap_fw = _fw_gap(g, gamma)
        if hess_vec is not None and gap_fw <= eps:
            g = np.asarray(objective.grad(gamma), dtype=float)
            s, avg, gap_fw = _fw_gap(g, gamma)
        # a non-finite entry of g reaches g[s] or avg, so the gap shows it
        if not math.isfinite(gap_fw):
            raise SolverError("objective returned a non-finite gradient")
        if gaps is not None:
            gaps.append(gap_fw)
        if gap_fw <= eps:
            return AfwaResult(gamma, val, it, gap_fw, True, gaps)

        v = int(np.where(gamma > 0, g, np.inf).argmin())
        gap_away = avg - g[v]
        if gap_fw >= gap_away or gamma[v] >= 1.0 - 1e-15:
            d = -gamma
            d[s] += 1.0
            t_max, deriv0, away = 1.0, gap_fw, False
        else:
            d = gamma.copy()
            d[v] -= 1.0
            t_max, deriv0, away = gamma[v] / (1.0 - gamma[v]), gap_away, True

        if hess_vec is None:
            t = _line_search(objective, gamma, d, t_max)
        else:
            Hd = hess_vec(d)
            curv = float(d @ Hd)
            if curv >= -1e-14 * (1.0 + abs(deriv0)):
                t = t_max
            else:
                t = min(t_max, deriv0 / (-curv))
        gamma = gamma + t * d
        if away and t >= t_max * (1.0 - 1e-12):
            gamma[v] = 0.0
        if not away and t >= 1.0 - 1e-12:
            gamma = np.zeros_like(gamma)
            gamma[s] = 1.0
        gamma[gamma < 1e-15] = 0.0
        gamma /= gamma.sum()

        if hess_vec is None:
            g = np.asarray(objective.grad(gamma), dtype=float)
            new_val = float(objective.value(gamma))
        else:
            g = g + t * Hd
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
    return AfwaResult(gamma, val, max_iters, gap_fw, False, gaps)
