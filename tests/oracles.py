"""Independent reference solvers the test suite checks the package against.

Everything here is deliberately written from first principles with none of
the package's machinery: closed-form water-filling for the quadratic
worst case, exact optimal transport as a linear program and by assignment
on unit-mass copies, and golden-section minimization of a convex scalar
objective. Slow and simple on purpose.

It also keeps the general hull ascent the package used before it required
costs quadratic in the sample: ``HullObjective`` rebuilds the dense plan and
calls the model's oracles for every value and gradient, and
``afwa_reference`` is the away-step Frank-Wolfe loop over any concave
objective, with bisection for objectives without ``hess_vec``.
``afwa_quadratic_reference`` runs that loop on the weight-space quadratic
with ``drostream.simplex.afwa_maximize``'s signature; the package's loop must
reproduce it bit for bit.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from drostream.simplex import ConcavityError, SolverError


def waterfill_certificate(A, B, c_diag, x, points, theta, n_total, eps):
    """Exact worst-case value for a diagonal-quadratic cost by water-filling.

    Cost f(x, xi) = x'Ax + x'B xi + xi'C xi with C = diag(c_diag), every
    c_j < 0. The adversary moves atom k by y_k at price theta_k * |y_k|_1
    against a total budget n_total * eps, maximizing the weighted average
    (1/n_total) * sum_k theta_k f(x, xi_k - y_k).

    Returns (value, y) with y shaped like points.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    c = np.asarray(c_diag, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    th = np.asarray(theta, dtype=float).reshape(-1)
    if np.any(c >= 0):
        raise ValueError("water-filling needs strictly concave coordinates")
    b = B.T @ x

    # position w = xi - y; per-coordinate payoff b_j w + c_j w^2 peaks at
    # w* = -b_j / (2 c_j); the marginal gain per unit of movement toward
    # the peak is |b_j + 2 c_j w|, independent of theta because budget and
    # payoff both scale with it
    peak = -b / (2.0 * c)
    m0 = np.abs(b + 2.0 * c * pts)
    dist_to_peak = np.abs(pts - peak)
    budget = n_total * eps

    def moved(level):
        # movement on each coordinate when marginals are clipped at level
        s = (m0 - level) / (2.0 * np.abs(c))
        return np.clip(s, 0.0, dist_to_peak)

    def spend(level):
        return float(np.sum(th[:, None] * moved(level)))

    if spend(0.0) <= budget:
        lam = 0.0
    else:
        lo, hi = 0.0, float(m0.max())
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if spend(mid) > budget:
                lo = mid
            else:
                hi = mid
        lam = hi
    s = moved(lam)
    y = np.sign(pts - peak) * s
    w = pts - y
    per_atom = w @ b + (w * w) @ c
    value = float(x @ A @ x) + float(np.dot(th, per_atom)) / n_total
    return value, y


class Measure(NamedTuple):
    """Finitely supported measure: atoms (k, m) and weights (k,)."""

    atoms: np.ndarray
    weights: np.ndarray


def window_measure(window, y=0.0):
    """The window's law theta_k / n on its atoms moved to points - y."""
    return Measure(window.points - y, window.theta / window.n_total)


def w1_distance(p, q):
    """Exact W1 distance (L1 ground metric) and an optimal plan by LP.

    ``p`` and ``q`` are Measures. The transportation program is solved with
    scipy's HiGHS simplex, which returns vertex-exact plans at these sizes.
    Returns ``(cost, plan)`` with the plan's rows on ``p``'s atoms and its
    columns on ``q``'s; weights that are negative or do not sum to one
    within 1e-9 and mismatched dimensions raise ValueError, marginals are
    checked to 1e-9, and an infeasible program raises RuntimeError.
    """
    for w in (p.weights, q.weights):
        if w.min() < 0 or abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1")
    if p.atoms.shape[1] != q.atoms.shape[1]:
        raise ValueError("distributions live in different dimensions")
    kp, kq = p.atoms.shape[0], q.atoms.shape[0]
    cost = np.abs(p.atoms[:, None, :] - q.atoms[None, :, :]).sum(axis=2)
    # marginal constraints; the last column constraint is redundant and dropped
    rows, cols, vals = [], [], []
    for i in range(kp):
        for j in range(kq):
            idx = i * kq + j
            rows.append(i)
            cols.append(idx)
            vals.append(1.0)
            if j < kq - 1:
                rows.append(kp + j)
                cols.append(idx)
                vals.append(1.0)
    a_eq = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(kp + kq - 1, kp * kq)
    )
    b_eq = np.concatenate([p.weights, q.weights[:-1]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(kp, kq)
    off = max(np.abs(plan.sum(axis=1) - p.weights).max(),
              np.abs(plan.sum(axis=0) - q.weights).max())
    if off > 1e-9:
        raise RuntimeError(f"transport plan marginals off by {off:.3g}")
    return float(res.fun), plan


def w1_matching(p_atoms, p_weights, q_atoms, q_weights, max_copies=8000):
    """Exact 1-Wasserstein distance (L1 ground metric) by assignment.

    Weights are converted to fractions over a common denominator and each
    atom is expanded into unit-mass copies, so the transport problem
    becomes a square assignment problem solved exactly.
    """
    pa = np.atleast_2d(np.asarray(p_atoms, dtype=float))
    qa = np.atleast_2d(np.asarray(q_atoms, dtype=float))
    pw = [Fraction(float(w)).limit_denominator(10**9) for w in np.ravel(p_weights)]
    qw = [Fraction(float(w)).limit_denominator(10**9) for w in np.ravel(q_weights)]
    if abs(sum(pw) - 1) > Fraction(1, 10**6) or abs(sum(qw) - 1) > Fraction(1, 10**6):
        raise ValueError("weights must each sum to one")
    den = 1
    for f in pw + qw:
        den = den * f.denominator // np.gcd(den, f.denominator)
    counts_p = [int(f * den) for f in pw]
    counts_q = [int(f * den) for f in qw]
    total = sum(counts_p)
    if total != sum(counts_q):
        # rounding slack lands on the heaviest atom
        counts_q[int(np.argmax(counts_q))] += total - sum(counts_q)
    if total > max_copies:
        raise ValueError(f"expansion to {total} copies is past the guard rail")
    rows = np.repeat(np.arange(pa.shape[0]), counts_p)
    cols = np.repeat(np.arange(qa.shape[0]), counts_q)
    cost = np.abs(pa[rows][:, None, :] - qa[cols][None, :, :]).sum(axis=2)
    ri, ci = linear_sum_assignment(cost)
    return float(cost[ri, ci].sum()) / total


def robust_value_1d(A, B, c_diag, points, theta, n_total, eps):
    """x -> the exact worst-case value at the scalar decision x."""
    def value(x):
        return waterfill_certificate(A, B, c_diag, np.array([x]), points,
                                     theta, n_total, eps)[0]
    return value


def golden_min(f, lo, hi, xtol=1e-9):
    """Golden-section search for the minimum of a convex f on [lo, hi],
    down to a bracket narrower than ``xtol``; returns (x, f(x)) at the
    better of the two inner points."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


class HullObjective:
    """Certificate objective over hull weights for atoms [origin] + vertices.

    The ``(k, j, sign)`` vertex rows stand for ``sign * scale`` at sample k,
    coordinate j, in budget coordinates z = theta * y; index 0 of the weights
    is the origin atom. Every value and gradient rebuilds the dense plan and
    calls ``model.eval`` or ``model.grad_y``, so it serves any cost concave in
    the sample. It has no ``hess_vec``: ``afwa_reference`` bisects on it.
    """

    def __init__(self, model, x, window, vertices, scale):
        self.model = model
        self.x = np.asarray(x, dtype=float)
        self.window = window
        self.ks, self.js, signs = np.asarray(vertices).T
        self.vals = signs * scale

    def point(self, gamma):
        z = np.zeros((self.window.size, self.window.dimension))
        np.add.at(z, (self.ks, self.js), gamma[1:] * self.vals)
        return z

    def _plan(self, gamma):
        return self.point(gamma) / self.window.theta[:, None]

    def value(self, gamma):
        w = self.window
        costs = np.asarray(self.model.eval(self.x, w.points - self._plan(gamma)))
        return float(w.theta @ costs.reshape(-1)) / w.n_total

    def grad(self, gamma):
        G = np.asarray(self.model.grad_y(self.x, self.window.points,
                                         self._plan(gamma)), dtype=float)
        out = np.zeros(1 + len(self.vals))
        out[1:] = self.vals * G[self.ks, self.js] / self.window.n_total
        return out


class QuadraticWeights:
    """gamma -> v0 + lin . gamma + gamma'H gamma / 2 with ``hess_vec``."""

    def __init__(self, v0, lin, H):
        self._v0, self._lin, self._H = v0, lin, H

    def value(self, gamma):
        return (self._v0 + float(self._lin @ gamma)
                + 0.5 * float(gamma @ self._H @ gamma))

    def grad(self, gamma):
        return self._lin + self._H @ gamma

    def hess_vec(self, d):
        return self._H @ d


@dataclass
class AfwaTrace:
    weights: np.ndarray
    value: float
    iterations: int
    gap: float
    converged: bool
    gaps: Optional[list] = None
    interrupted: bool = False


def _normalize_start(start):
    g = np.asarray(start, dtype=float).copy()
    if g.ndim != 1 or g.size == 0:
        raise ValueError("start must be a nonempty vector")
    if g.min() < -1e-12 or abs(g.sum() - 1.0) > 1e-9:
        raise ValueError("start weights must lie on the unit simplex")
    g[g < 0] = 0.0
    return g / g.sum()


def line_search(objective, gamma, d, t_max):
    """Maximization of t -> value(gamma + t d) on [0, t_max]: 60 bisection
    steps on the directional derivative, tolerance 1e-12 in t."""
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


def _fw_gap(g, gamma):
    s = int(g.argmax())
    avg = float(g @ gamma)
    return s, avg, float(g[s]) - avg


def afwa_reference(objective, eps, start, max_iters=1_000_000,
                   record_gaps=False, interrupt=None, tick=None):
    """Away-step Frank-Wolfe ascent of a concave objective over the unit
    simplex, written for any objective with ``value`` and ``grad``.

    With ``hess_vec`` (an objective quadratic in the weights) each step is
    exact and carries the gradient and value along it, and a gap at or below
    ``eps`` is confirmed on a fresh ``grad``; the weights are renormalized
    at every 32nd iteration, before that confirmation and before an
    exhausted return. Without it each step bisects, renormalizes and
    re-evaluates both. ``record_gaps`` keeps every Frank-Wolfe gap.
    Raises SolverError on a non-finite value or gradient and ConcavityError
    when the value falls.
    """
    gamma = _normalize_start(start)
    val = float(objective.value(gamma))
    if not math.isfinite(val):
        raise SolverError("objective returned a non-finite value")
    hess_vec = getattr(objective, "hess_vec", None)
    g = np.asarray(objective.grad(gamma), dtype=float)
    gaps = [] if record_gaps else None
    gap_fw = math.inf
    for it in range(max_iters):
        if it and it % 32 == 0:
            if hess_vec is not None:
                gamma /= gamma.sum()
            if interrupt is not None and interrupt():
                return AfwaTrace(gamma, val, it, gap_fw, False, gaps,
                                 interrupted=True)
        s, avg, gap_fw = _fw_gap(g, gamma)
        if hess_vec is not None and gap_fw <= eps:
            gamma /= gamma.sum()
            g = np.asarray(objective.grad(gamma), dtype=float)
            s, avg, gap_fw = _fw_gap(g, gamma)
        if not math.isfinite(gap_fw):
            raise SolverError("objective returned a non-finite gradient")
        if gaps is not None:
            gaps.append(gap_fw)
        if gap_fw <= eps:
            return AfwaTrace(gamma, val, it, gap_fw, True, gaps)

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
            t = line_search(objective, gamma, d, t_max)
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

        if hess_vec is None:
            gamma /= gamma.sum()
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
    if hess_vec is not None:
        gamma /= gamma.sum()
    return AfwaTrace(gamma, val, max_iters, gap_fw, False, gaps)


def afwa_quadratic_reference(v0, lin, H, eps, start, max_iters=1_000_000,
                             meter=None):
    """``afwa_reference`` on v0 + lin . gamma + gamma'H gamma / 2, called as
    ``drostream.simplex.afwa_maximize`` is: ``meter.charge(1)`` after each
    iteration and ``meter.due()`` at each poll."""
    return afwa_reference(QuadraticWeights(v0, lin, H), eps, start,
                          max_iters=max_iters,
                          interrupt=None if meter is None else meter.due,
                          tick=None if meter is None else meter.charge)
