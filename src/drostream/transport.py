"""1-Wasserstein distance between small discrete distributions.

``w1_distance`` solves the transportation linear program with the 1-norm
ground cost using scipy's HiGHS simplex, which returns vertex-exact plans at
the sizes used here (an exact network-simplex equivalent, no entropic
smoothing); it supports up to about a thousand atoms per side. The tests
use it as an independent oracle, and ``audit.verify_events`` falls back to
it when ``paired_cost``, the cost of one feasible plan and so an upper bound
on the distance, does not already prove a certificate within its radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .measures import DiscreteDistribution

Array = np.ndarray

_MAX_SUPPORT = 1000


@dataclass(frozen=True)
class TransportPlan:
    """Optimal coupling matrix (rows: source atoms, cols: target atoms)."""

    matrix: Array
    cost: float


def paired_cost(source: Array, target: Array, weights: Array) -> float:
    """Cost of moving atom k of ``source`` onto atom k of ``target``.

    When both measures put ``weights[k]`` on their k-th atom this plan is
    feasible, so its cost bounds their W1 distance from above.
    """
    return float(weights @ np.abs(source - target).sum(axis=1))


def w1_distance(
    p: DiscreteDistribution, q: DiscreteDistribution
) -> tuple[float, TransportPlan]:
    """Exact W1 distance and an optimal plan, 1-norm ground metric.

    Marginal feasibility of the returned plan is checked to 1e-9 before
    returning; an infeasible or unbounded program raises RuntimeError.
    """
    if p.support_size > _MAX_SUPPORT or q.support_size > _MAX_SUPPORT:
        raise ValueError(f"supports larger than {_MAX_SUPPORT} atoms unsupported")
    if p.atoms.shape[1] != q.atoms.shape[1]:
        raise ValueError("distributions live in different dimensions")
    kp, kq = p.support_size, q.support_size
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
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(kp, kq)
    row_err = np.abs(plan.sum(axis=1) - p.weights).max()
    col_err = np.abs(plan.sum(axis=0) - q.weights).max()
    if max(row_err, col_err) > 1e-9:
        raise RuntimeError(
            f"transport plan marginals off by {max(row_err, col_err):.3g}"
        )
    total = float(res.fun)
    return total, TransportPlan(plan, total)
