"""The reference solvers must agree with dumber, even more direct methods."""

import numpy as np
import pytest
from scipy.optimize import minimize

from drostream.simplex import ConcavityError, SolverError
from oracles import afwa_reference, w1_matching, waterfill_certificate


def brute_grid_value(A, B, c_diag, x, points, theta, n_total, eps, steps=801):
    # n=1, m=1 only: scan the single movement coordinate
    p = float(points[0][0])
    th = float(theta[0])
    budget = n_total * eps / th
    ys = np.linspace(-budget, budget, steps)
    b = float((np.atleast_2d(B).T @ np.asarray(x).reshape(-1))[0])
    c = float(c_diag[0])
    w = p - ys
    vals = float(np.asarray(x) @ np.atleast_2d(A) @ np.asarray(x)) + th * (
        b * w + c * w * w
    ) / n_total
    return float(vals.max())


def test_waterfill_matches_grid_scan_1d():
    rng = np.random.default_rng(7)
    for _ in range(40):
        A = [[rng.uniform(0.1, 2.0)]]
        B = [[rng.normal()]]
        c = [-rng.uniform(0.2, 3.0)]
        x = [rng.normal()]
        pts = [[rng.normal() * 3]]
        eps = rng.uniform(0.05, 2.0)
        v, y = waterfill_certificate(A, B, c, x, pts, [1.0], 1, eps)
        g = brute_grid_value(A, B, c, x, pts, [1.0], 1, eps, steps=4001)
        assert v >= g - 1e-6
        assert v <= g + 1e-4  # grid resolution slack


def test_waterfill_matches_slsqp_split():
    # maximize over u, v >= 0 with y = u - v, budget sum theta (u+v) <= n eps
    rng = np.random.default_rng(11)
    for trial in range(12):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        d = int(rng.integers(1, 3))
        A = np.diag(rng.uniform(0.1, 1.0, size=d))
        B = rng.normal(size=(d, m))
        c = -rng.uniform(0.3, 2.0, size=m)
        x = rng.normal(size=d)
        pts = rng.normal(size=(n, m)) * 2
        th = rng.uniform(0.5, 2.0, size=n)
        ntot = float(th.sum())
        eps = rng.uniform(0.05, 1.0)
        v, _ = waterfill_certificate(A, B, c, x, pts, th, ntot, eps)
        b = B.T @ x

        def neg_obj(uv):
            u = uv[: n * m].reshape(n, m)
            w = pts - (u[:, :m] - uv[n * m :].reshape(n, m))
            per = w @ b + (w * w) @ c
            return -(x @ A @ x + float(np.dot(th, per)) / ntot)

        cons = [
            {
                "type": "ineq",
                "fun": lambda uv: ntot * eps
                - float(np.dot(th, uv.reshape(2 * n, m).reshape(2, n, m).sum(0).sum(1))),
            }
        ]
        best = np.inf
        for _ in range(6):
            uv0 = rng.uniform(0, eps / (2 * m), size=2 * n * m)
            res = minimize(
                neg_obj,
                uv0,
                method="SLSQP",
                bounds=[(0, None)] * (2 * n * m),
                constraints=cons,
                options={"maxiter": 300, "ftol": 1e-12},
            )
            best = min(best, res.fun)
        assert v == pytest.approx(-best, abs=5e-5)


def test_w1_matching_known_values():
    # uniform on {0, 2} vs a point mass at 0: half the mass travels 2
    assert w1_matching([[0.0], [2.0]], [0.5, 0.5], [[0.0]], [1.0]) == pytest.approx(1.0)
    # two point masses
    assert w1_matching([[1.0, 2.0]], [1.0], [[4.0, 6.0]], [1.0]) == pytest.approx(7.0)
    # weighted: 3/4 stays, 1/4 travels 4
    assert w1_matching(
        [[0.0], [4.0]], [0.75, 0.25], [[0.0]], [1.0]
    ) == pytest.approx(1.0)
    # identical distributions
    pts = [[0.3, -1.0], [2.0, 0.5]]
    assert w1_matching(pts, [0.4, 0.6], pts, [0.4, 0.6]) == pytest.approx(0.0)


class LyingObjective:
    """Gradient claims ascent along e1 while the value actually falls; no
    ``hess_vec``, so the line search bisects."""

    def value(self, gamma):
        return float(-3.0 * gamma[0])

    def grad(self, gamma):
        return np.array([1.0, 0.0])


class NanOffStartObjective:
    """Finite only at the start vertex e1; its finite gradient leads off it."""

    def value(self, gamma):
        return 0.0 if gamma[0] == 1.0 else float("nan")

    def grad(self, gamma):
        return np.array([0.0, 1.0])


def test_reference_ascent_detects_objective_decrease():
    with pytest.raises(ConcavityError):
        afwa_reference(LyingObjective(), 1e-9, [0.0, 1.0])


def test_reference_ascent_rejects_a_non_finite_value_after_a_step():
    # NaN fails every comparison, so the decrease test alone lets it through
    with pytest.raises(SolverError, match="non-finite value"):
        afwa_reference(NanOffStartObjective(), 1e-9, [1.0, 0.0])
