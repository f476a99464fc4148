"""Vertex search and away-step Frank-Wolfe against hand and brute answers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drostream.simplex import (
    ConcavityError,
    SolverError,
    afwa_maximize,
    point_search,
)


class QuadObjective:
    """Concave quadratic gamma -> -(gamma - target)' D (gamma - target)."""

    def __init__(self, target, diag):
        self.target = np.asarray(target, dtype=float)
        self.diag = np.asarray(diag, dtype=float)

    def value(self, gamma):
        d = gamma - self.target
        return float(-(d * d) @ self.diag)

    def grad(self, gamma):
        return -2.0 * self.diag * (gamma - self.target)

    def curvature(self, d):
        return float(-2.0 * (d * d) @ self.diag)


class LinearObjective:
    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)

    def value(self, gamma):
        return float(self.c @ gamma)

    def grad(self, gamma):
        return self.c

    def curvature(self, d):
        return 0.0


class LyingObjective:
    """Gradient claims ascent along e1 while the value actually falls; no
    ``curvature``, so the line search bisects."""

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


def test_point_search_hand_example():
    verts, eta = point_search(
        np.array([[3.0, -5.0]]), 0.5, np.zeros((1, 2)), n_total=1
    )
    assert eta == pytest.approx(2.5)
    # one vertex: -0.5 at sample 0, coordinate 1, as a (k, j, sign) row
    assert verts.tolist() == [[0, 1, -1]]


def test_point_search_zero_gradient_returns_no_vertices():
    verts, eta = point_search(np.zeros((1, 2)), 1.0, np.zeros((1, 2)), n_total=1)
    assert eta == pytest.approx(0.0)
    assert verts.shape == (0, 3)


def test_point_search_tie_returns_all_argmax():
    verts, eta = point_search(
        np.array([[2.0, -2.0]]), 1.0, np.zeros((1, 2)), n_total=1
    )
    assert eta == pytest.approx(2.0)
    assert {tuple(v) for v in verts.tolist()} == {(0, 0, 1), (0, 1, -1)}


def test_point_search_eta_accounts_for_current_point():
    G = np.array([[1.0, 4.0]])
    y = np.array([[0.5, -0.25]])
    _, eta = point_search(G, 2.0, y, n_total=1)
    # best vertex pays scale * max|G|; current point pays <G, y>
    assert eta == pytest.approx((2.0 * 4.0 - (0.5 - 1.0)) / 1.0)


@given(
    n=st.integers(1, 3),
    m=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=80, deadline=None)
def test_point_search_matches_vertex_enumeration(n, m, seed):
    rng = np.random.default_rng(seed)
    G = np.round(rng.normal(size=(n, m)) * 3, 3)
    scale = float(rng.uniform(0.1, 4.0))
    y = rng.normal(size=(n, m)) * 0.2
    verts, eta = point_search(G, scale, y, n_total=n)
    base = float(np.vdot(G, y))
    best = -base / n  # origin is an extreme point of the budget simplex
    for k in range(n):
        for j in range(m):
            for s in (1.0, -1.0):
                best = max(best, (s * scale * G[k, j] - base) / n)
    assert eta == pytest.approx(best, rel=1e-12, abs=1e-12)
    for k, j, sign in verts.tolist():
        got = (sign * scale * G[k, j] - base) / n
        assert got == pytest.approx(eta, rel=1e-9, abs=1e-9)


def test_afwa_interior_optimum():
    res = afwa_maximize(QuadObjective([0.5, 0.5], [1.0, 1.0]), 1e-10, [1.0, 0.0])
    assert res.converged
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.weights == pytest.approx([0.5, 0.5], abs=1e-9)
    assert res.iterations <= 3


def test_afwa_linear_picks_best_vertex():
    res = afwa_maximize(LinearObjective([1.0, 3.0, 2.0]), 1e-10, np.ones(3) / 3)
    assert res.converged
    assert res.value == pytest.approx(3.0)
    assert res.weights == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)
    assert res.iterations <= 2


def test_afwa_boundary_optimum_geometric_rate():
    # optimum sits on a face; away steps keep the rate linear
    rng = np.random.default_rng(41)
    target = rng.normal(size=10) * 0.8
    diag = np.geomspace(1.0, 60.0, 10)
    obj = QuadObjective(target, diag)
    res = afwa_maximize(obj, 1e-12, np.ones(10) / 10, record_gaps=True)
    assert res.converged
    gaps = np.array([g for g in res.gaps if g > 0])
    assert len(gaps) >= 3
    # log-linear fit: slope must be negative (geometric decay)
    slope = np.polyfit(np.arange(len(gaps)), np.log(gaps), 1)[0]
    assert slope < 0


def test_afwa_weights_stay_on_simplex():
    rng = np.random.default_rng(5)
    for _ in range(20):
        T = int(rng.integers(2, 7))
        target = rng.normal(size=T)
        diag = rng.uniform(0.5, 3.0, size=T)
        start = rng.dirichlet(np.ones(T))
        res = afwa_maximize(QuadObjective(target, diag), 1e-9, start)
        assert res.weights.min() >= -1e-12
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert res.value >= QuadObjective(target, diag).value(start) - 1e-12


def test_afwa_exhaustion_flagged():
    obj = QuadObjective([0.3, 0.4, 0.3, 0.0, 0.0], np.ones(5))
    res = afwa_maximize(obj, 1e-14, [1.0, 0.0, 0.0, 0.0, 0.0], max_iters=1)
    assert not res.converged
    assert res.iterations == 1


def test_afwa_interrupt_returns_feasible_state():
    # the poll runs every 32 iterations, so use a slow ill-conditioned solve
    rng = np.random.default_rng(41)
    obj = QuadObjective(rng.normal(size=10) * 0.8, np.geomspace(1.0, 60.0, 10))
    start = np.ones(10) / 10
    full = afwa_maximize(obj, 1e-13, start)
    assert full.iterations > 32  # otherwise the fixture is too easy
    res = afwa_maximize(obj, 1e-13, start, interrupt=lambda: True)
    assert res.interrupted
    assert not res.converged
    assert res.iterations < full.iterations
    assert res.weights.min() >= -1e-12
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert res.value >= obj.value(start) - 1e-12


def test_afwa_tick_counts_iterations():
    calls = []
    res = afwa_maximize(
        QuadObjective([0.5, 0.5], [1.0, 1.0]), 1e-10, [1.0, 0.0],
        tick=lambda u: calls.append(u),
    )
    assert len(calls) == res.iterations


def test_afwa_detects_objective_decrease():
    with pytest.raises(ConcavityError):
        afwa_maximize(LyingObjective(), 1e-9, [0.0, 1.0])


def test_afwa_rejects_a_non_finite_value_after_a_step():
    # NaN fails every comparison, so the decrease test alone lets it through
    with pytest.raises(SolverError, match="non-finite value"):
        afwa_maximize(NanOffStartObjective(), 1e-9, [1.0, 0.0])


def test_afwa_rejects_bad_start():
    with pytest.raises(ValueError):
        afwa_maximize(LinearObjective([1.0, 2.0]), 1e-9, [0.7, 0.7])
