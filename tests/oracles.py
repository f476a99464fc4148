"""Independent reference solvers the test suite checks the package against.

Everything here is deliberately written from first principles with none of
the package's machinery: closed-form water-filling for the quadratic
worst case, exact optimal transport as a linear program and by assignment
on unit-mass copies, and brute-force grid minimization. Slow and simple on
purpose.
"""

from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog


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


def grid_min_decision(A, B, c_diag, points, theta, n_total, eps, lo, hi, steps):
    """Brute-force the one-dimensional robust decision on a grid."""
    xs = np.linspace(lo, hi, steps)
    vals = [
        waterfill_certificate(A, B, c_diag, np.array([xx]), points, theta, n_total, eps)[0]
        for xx in xs
    ]
    i = int(np.argmin(vals))
    return float(xs[i]), float(vals[i])
