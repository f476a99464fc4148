"""Vertex search and away-step Frank-Wolfe against hand and brute answers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drostream.simplex import SolverError, afwa_maximize, point_search

from oracles import afwa_quadratic_reference


def quad(target, diag):
    """(v0, lin, H) of the concave gamma -> -(gamma - target)'D(gamma - target)."""
    target = np.asarray(target, dtype=float)
    diag = np.asarray(diag, dtype=float)
    return -float(target * target @ diag), 2.0 * diag * target, -2.0 * np.diag(diag)


def linear(c):
    c = np.asarray(c, dtype=float)
    return 0.0, c, np.zeros((len(c), len(c)))


def value(problem, gamma):
    v0, lin, H = problem
    return v0 + lin @ gamma + 0.5 * gamma @ H @ gamma


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
    res = afwa_maximize(*quad([0.5, 0.5], [1.0, 1.0]), 1e-10, [1.0, 0.0])
    assert res.converged
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.weights == pytest.approx([0.5, 0.5], abs=1e-9)
    assert res.iterations <= 3


def test_afwa_linear_picks_best_vertex():
    res = afwa_maximize(*linear([1.0, 3.0, 2.0]), 1e-10, np.ones(3) / 3)
    assert res.converged
    assert res.value == pytest.approx(3.0)
    assert res.weights == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)
    assert res.iterations <= 2


def test_afwa_boundary_optimum_geometric_rate():
    # optimum sits on a face; away steps keep the rate linear. A run cut
    # after k iterations returns the gap it measured at its last one.
    rng = np.random.default_rng(41)
    problem = quad(rng.normal(size=10) * 0.8, np.geomspace(1.0, 60.0, 10))
    start = np.ones(10) / 10
    full = afwa_maximize(*problem, 1e-12, start)
    assert full.converged
    gaps = np.array([afwa_maximize(*problem, 1e-12, start, max_iters=k).gap
                     for k in range(1, full.iterations + 1)] + [full.gap])
    gaps = gaps[gaps > 0]
    assert len(gaps) >= 3
    # log-linear fit: slope must be negative (geometric decay)
    slope = np.polyfit(np.arange(len(gaps)), np.log(gaps), 1)[0]
    assert slope < 0


def test_afwa_weights_stay_on_simplex():
    rng = np.random.default_rng(5)
    for _ in range(20):
        T = int(rng.integers(2, 7))
        problem = quad(rng.normal(size=T), rng.uniform(0.5, 3.0, size=T))
        start = rng.dirichlet(np.ones(T))
        res = afwa_maximize(*problem, 1e-9, start)
        assert res.weights.min() >= -1e-12
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert res.value >= value(problem, start) - 1e-12


def test_afwa_exhaustion_flagged():
    problem = quad([0.3, 0.4, 0.3, 0.0, 0.0], np.ones(5))
    res = afwa_maximize(*problem, 1e-14, [1.0, 0.0, 0.0, 0.0, 0.0], max_iters=1)
    assert not res.converged
    assert res.iterations == 1


def test_afwa_interrupt_returns_feasible_state():
    # the poll runs every 32 iterations, so use a slow ill-conditioned solve
    rng = np.random.default_rng(41)
    problem = quad(rng.normal(size=10) * 0.8, np.geomspace(1.0, 60.0, 10))
    start = np.ones(10) / 10
    full = afwa_maximize(*problem, 1e-13, start)
    assert full.iterations > 32  # otherwise the fixture is too easy
    res = afwa_maximize(*problem, 1e-13, start, interrupt=lambda: True)
    assert res.interrupted
    assert not res.converged
    assert res.iterations < full.iterations
    assert res.weights.min() >= -1e-12
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert res.value >= value(problem, start) - 1e-12


def test_afwa_tick_counts_iterations():
    calls = []
    res = afwa_maximize(
        *quad([0.5, 0.5], [1.0, 1.0]), 1e-10, [1.0, 0.0],
        tick=lambda u: calls.append(u),
    )
    assert len(calls) == res.iterations


def test_afwa_rejects_a_non_finite_value_after_a_step():
    # the gap 1e308 is finite, the value after the full step overflows
    with pytest.raises(SolverError, match="non-finite value after iteration 0"):
        afwa_maximize(1.7e308, [0.0, 1e308], np.zeros((2, 2)), 1e-9, [1.0, 0.0])


@given(
    T=st.integers(2, 12),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_afwa_carried_value_and_gap_match_fresh_ones(T, seed):
    # the value is carried along every step and the gradient re-read only
    # to confirm convergence; both must still be those of the returned weights
    rng = np.random.default_rng(seed)
    problem = quad(rng.normal(size=T), rng.uniform(0.1, 50.0, size=T))
    res = afwa_maximize(*problem, 1e-9, rng.dirichlet(np.ones(T)))
    assert res.converged
    fresh = value(problem, res.weights)
    assert res.value == pytest.approx(fresh, rel=1e-9)
    _, lin, H = problem
    g = lin + H @ res.weights
    assert res.gap == g.max() - g @ res.weights
    assert res.gap <= 1e-9


def test_afwa_rejects_a_non_finite_hessian_product():
    H = np.full((2, 2), np.nan)
    with pytest.raises(SolverError, match="non-finite"):
        afwa_maximize(0.0, [0.0, 1.0], H, 1e-9, [1.0, 0.0])


def test_afwa_rejects_bad_start():
    with pytest.raises(ValueError):
        afwa_maximize(*linear([1.0, 2.0]), 1e-9, [0.7, 0.7])


@st.composite
def hulls(draw, sparse=False):
    """A certificate-like hull: H block-diagonal negative semidefinite with a
    zero origin row and column, random lin, start and eps, half of the time
    an interrupt that fires at a random poll, and an iteration cap that
    some runs exhaust.

    A ``sparse`` hull starts from a Dirichlet(0.05) draw with some weights
    set between 1e-17 and 1e-12 and some set to -0.0. Half of those are
    stiff: their curvature dominates lin, so most steps stop inside the
    simplex and shrink the small weights, and about one in six clamps a
    weight after its first step."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    V = draw(st.integers(2, 40))
    stiff = sparse and draw(st.booleans())
    H = np.zeros((V, V))
    lo = 1
    while lo < V:
        hi = min(V, lo + int(rng.integers(1, 5)))
        scale = 10.0 ** rng.uniform(0 if stiff else -8, 1)
        root = rng.normal(size=(hi - lo, hi - lo)) * scale
        H[lo:hi, lo:hi] = -(root @ root.T)
        lo = hi
    lin = rng.normal(size=V) * rng.uniform(0.01, 1.0 if stiff else 10.0)
    lin[0] = 0.0
    if sparse:
        start = rng.dirichlet(np.full(V, 0.05))
        tiny = rng.random(V) < draw(st.floats(0.0, 0.5))
        start[tiny] = 10.0 ** rng.uniform(-17.0, -12.0, size=tiny.sum())
        start[rng.random(V) < draw(st.floats(0.0, 0.5))] = -0.0
    else:
        start = rng.dirichlet(np.ones(V))
        start[rng.random(V) < draw(st.floats(0.0, 0.8))] = 0.0
    if not start.sum() > 0.0:
        start[0] = 1.0
    start /= start.sum()
    eps = 10.0 ** draw(st.floats(-13.0, -2.0))
    fire_at = draw(st.one_of(st.none(), st.integers(1, 6)))
    max_iters = draw(st.sampled_from([40, 3000]))
    return float(rng.normal()), lin, H, eps, start, fire_at, max_iters


def _run(solver, problem):
    v0, lin, H, eps, start, fire_at, max_iters = problem
    ticks, polls = [], []

    def interrupt():
        polls.append(1)
        return len(polls) == fire_at

    res = solver(v0, lin.copy(), H.copy(), eps, start.copy(), max_iters=max_iters,
                 interrupt=None if fire_at is None else interrupt,
                 tick=ticks.append)
    return res, ticks, len(polls)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _assert_bitwise_the_reference(problem):
    got, got_ticks, got_polls = _run(afwa_maximize, problem)
    want, want_ticks, want_polls = _run(afwa_quadratic_reference, problem)
    assert _bits(got.weights) == _bits(want.weights)
    assert _bits(got.value) == _bits(want.value)
    assert _bits(got.gap) == _bits(want.gap)
    assert got.iterations == want.iterations
    assert (got.converged, got.interrupted) == (want.converged, want.interrupted)
    assert got_ticks == want_ticks
    assert got_polls == want_polls


@settings(max_examples=300, deadline=None)
@given(hulls())
def test_afwa_is_bitwise_the_reference_loop(problem):
    _assert_bitwise_the_reference(problem)


@settings(max_examples=300, deadline=None)
@given(hulls(sparse=True))
def test_afwa_is_bitwise_the_reference_loop_from_sparse_starts(problem):
    # the loop clamps only when a weight may have fallen below 1e-15; from
    # starts holding -0.0 and weights near that threshold it must still
    # zero exactly the weights the reference's per-step clamp zeroes
    _assert_bitwise_the_reference(problem)


def test_afwa_clamps_after_the_first_step_even_above_1e_15():
    # two away steps evict vertices 3 and 2, and no toward step ever adds
    # 0.0 to the start's -0.0 at vertex 0; the clamp after the first step
    # runs although every active weight is far above 1e-15, so it returns
    # +0.0 there as the reference does
    problem = (*linear([0.0, 1.0, 0.0, -10.0]), 1e-12,
               np.array([-0.0, 0.5, 0.25, 0.25]), None, 3000)
    _assert_bitwise_the_reference(problem)
    res = afwa_maximize(*problem[:5])
    assert res.iterations == 2 and res.converged
    assert _bits(res.weights) == _bits([0.0, 1.0, 0.0, 0.0])


def test_afwa_clamps_a_weight_that_a_later_toward_step_shrinks():
    # the first step, toward vertex 3 at t = 0.925, leaves weight 0 at
    # 1.02e-15; the second, toward vertex 2, takes it below 1e-15, so that
    # step's clamp must zero it, and no later step brings it back
    start = np.array([1.36e-14, 1.0 - 1.36e-14, 0.0, 0.0])
    v0, lin, H = quad([0.0, 0.05, 0.05, 0.9], np.ones(4))
    assert 1e-15 < afwa_maximize(v0, lin, H, 1e-12, start,
                                 max_iters=1).weights[0] < 1.1e-15
    assert afwa_maximize(v0, lin, H, 1e-12, start, max_iters=2).weights[0] == 0.0
    for max_iters in (2, 3000):
        _assert_bitwise_the_reference((v0, lin, H, 1e-12, start, None,
                                       max_iters))
    res = afwa_maximize(v0, lin, H, 1e-12, start)
    assert res.converged
    assert _bits(res.weights[0]) == _bits(0.0)


@settings(max_examples=300, deadline=None)
@given(hulls())
def test_afwa_returns_weights_on_the_unit_simplex(problem):
    # steps leave the weights unnormalized between polls; whether the
    # ascent converges, is interrupted or runs out of iterations, what it
    # returns is renormalized
    res, _, _ = _run(afwa_maximize, problem)
    assert res.weights.min() >= 0.0
    assert abs(res.weights.sum() - 1.0) <= 1e-13
