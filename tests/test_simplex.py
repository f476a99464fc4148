"""Vertex search and away-step Frank-Wolfe against hand and brute answers."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drostream.certificates import Meter
from drostream.simplex import (SolverError, afwa_maximize, frank_wolfe_gap,
                               point_search)

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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [(0, 0), (1, 2)])
def test_point_search_rejects_a_non_finite_gradient(bad, at):
    # also beside a larger finite entry, which a max alone would report
    G = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1e300]])
    G[at] = bad
    with pytest.raises(ValueError, match="gradients must be finite"):
        point_search(G, 1.0, np.zeros((2, 3)), n_total=2)


@pytest.mark.parametrize("G, y", [
    (np.zeros((2, 3)), np.zeros((3, 2))),
    (np.zeros((2, 3)), np.zeros((2, 2))),
    (np.zeros(3), np.zeros(3)),
    (np.zeros((1, 2, 3)), np.zeros((1, 2, 3))),
])
def test_point_search_rejects_mismatched_shapes(G, y):
    with pytest.raises(ValueError, match="must both have shape"):
        point_search(G, 1.0, y, n_total=1)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan])
def test_point_search_rejects_a_scale_that_is_not_positive(scale):
    with pytest.raises(ValueError, match="scale must be positive"):
        point_search(np.ones((1, 2)), scale, np.zeros((1, 2)), n_total=1)


@pytest.mark.parametrize("n_total", [0, -3])
def test_point_search_rejects_a_count_that_is_not_positive(n_total):
    with pytest.raises(ValueError, match="n_total must be positive"):
        point_search(np.ones((1, 2)), 1.0, np.zeros((1, 2)), n_total=n_total)


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



def gradient_cases():
    """(grads, y) pairs: random, full of ties and all zero."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        p, m = rng.integers(1, 40), rng.integers(1, 6)
        yield rng.normal(size=(p, m)) * 3, rng.normal(size=(p, m))
        ties = rng.choice([-2.0, 0.0, 2.0], size=(p, m))
        yield ties, rng.normal(size=(p, m))
        yield np.zeros((p, m)), rng.normal(size=(p, m))


def test_the_gap_alone_is_point_searchs_bit_for_bit():
    for G, y in gradient_cases():
        scale, n = 2.5, 7 * len(G)
        eta = frank_wolfe_gap(G, scale, y, n_total=n)
        assert eta == point_search(G, scale, y, n_total=n)[1]
        best = np.abs(G).max()
        base = float(np.vdot(G, y))
        assert eta == (-base / n if best == 0 else (scale * best - base) / n)


@pytest.mark.parametrize("G, scale, y, n_total", [
    (np.array([[1.0, np.nan]]), 1.0, np.zeros((1, 2)), 1),
    (np.array([[-np.inf, 1.0]]), 1.0, np.zeros((1, 2)), 1),
    (np.ones((1, 2)), 0.0, np.zeros((1, 2)), 1),
    (np.ones((1, 2)), math.nan, np.zeros((1, 2)), 1),
    (np.ones((1, 2)), 1.0, np.zeros((1, 2)), 0),
    (np.ones((1, 2)), 1.0, np.zeros((1, 2)), -3),
    (np.zeros((2, 3)), 1.0, np.zeros((3, 2)), 1),
    (np.zeros(3), 1.0, np.zeros(3), 1),
])
def test_the_gap_alone_raises_point_searchs_errors(G, scale, y, n_total):
    with pytest.raises(ValueError) as searched:
        point_search(G, scale, y, n_total=n_total)
    message = re.escape(str(searched.value))
    with pytest.raises(ValueError, match=f"^{message}$"):
        frank_wolfe_gap(G, scale, y, n_total=n_total)

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


def slow_problem():
    """An ill-conditioned hull that takes 138 iterations, more than four
    polls of 32, to solve to 1e-13, and its uniform start."""
    rng = np.random.default_rng(7)
    problem = quad(rng.normal(size=16) * 0.8, np.geomspace(1.0, 200.0, 16))
    return problem, np.ones(16) / 16


def meter_at(t, unit=0.3, rate=0.7, deadline=math.inf):
    """A meter at time ``t`` whose unit and rate make each charge inexact."""
    meter = Meter(rate)
    meter.unit, meter.t, meter.deadline = unit, t, deadline
    return meter


def charged(meter, iterations):
    """``meter``'s time after ``iterations`` sequential ``charge(1)`` calls."""
    for _ in range(iterations):
        meter.charge(1)
    return meter.t


def test_afwa_interrupt_returns_feasible_state():
    # the poll runs every 32 iterations, so use a slow ill-conditioned solve
    problem, start = slow_problem()
    full = afwa_maximize(*problem, 1e-13, start)
    assert full.iterations > 32  # otherwise the fixture is too easy
    res = afwa_maximize(*problem, 1e-13, start, meter=meter_at(0.0, deadline=0.0))
    assert res.interrupted
    assert not res.converged
    assert res.iterations == 32
    assert res.weights.min() >= -1e-12
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert res.value >= value(problem, start) - 1e-12


@pytest.mark.parametrize("max_iters", [1, 45, 1_000_000],
                         ids=["exhausted-1", "exhausted-45", "converged"])
def test_afwa_meter_time_is_one_charge_per_iteration(max_iters):
    # exhausted, or converged after more than two polls: the time written
    # back is bitwise that of one charge(1) per iteration done
    problem, start = slow_problem()
    meter = meter_at(5.0)
    res = afwa_maximize(*problem, 1e-13, start, max_iters=max_iters,
                        meter=meter)
    assert res.converged == (max_iters > 45)
    assert res.iterations == min(max_iters, 138)
    assert _bits(meter.t) == _bits(charged(meter_at(5.0), res.iterations))


def test_afwa_deadline_between_polls_interrupts_at_the_later_poll():
    # due after 40 iterations: the poll at 32 misses it, the one at 64 sees it
    problem, start = slow_problem()
    deadline = charged(meter_at(5.0), 40)
    got, want = meter_at(5.0, deadline=deadline), meter_at(5.0, deadline=deadline)
    res = afwa_maximize(*problem, 1e-13, start, meter=got)
    ref = afwa_quadratic_reference(*problem, 1e-13, start, meter=want)
    assert res.interrupted and ref.interrupted
    assert res.iterations == ref.iterations == 64
    assert _bits(got.t) == _bits(want.t) == _bits(charged(meter_at(5.0), 64))


def test_afwa_writes_the_meter_time_back_when_it_raises():
    # the first step is a full toward step; the second one's curvature
    # overflows to -inf, so the value after it is NaN
    problem = (0.0, [0.0, 1e308, 1e308], np.diag([0.0, -1e308, -1e308]), 1e-9,
               [1.0, 0.0, 0.0])
    got, want = meter_at(5.0), meter_at(5.0)
    with np.errstate(over="ignore"):
        with pytest.raises(SolverError, match="value after iteration 1"):
            afwa_maximize(*problem, meter=got)
        with pytest.raises(SolverError, match="value after iteration 1"):
            afwa_quadratic_reference(*problem, meter=want)
    assert _bits(got.t) == _bits(want.t) == _bits(charged(meter_at(5.0), 1))


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


@pytest.mark.parametrize("start", [[np.nan, 1.0], [1.0, np.nan]])
def test_afwa_rejects_a_nan_start_weight(start):
    with pytest.raises(ValueError, match="unit simplex"):
        afwa_maximize(0.0, [0.0, 1.0], np.zeros((2, 2)), 1e-9, start)


@st.composite
def hulls(draw, sparse=False):
    """A certificate-like hull: H block-diagonal negative semidefinite with a
    zero origin row and column, random lin, start and eps, half of the time
    a meter deadline that falls between two polls, and an iteration cap that
    some runs exhaust. V runs up to 128, past the largest hulls of the
    benchmark streams, so every row length mod 8 is drawn.

    The blocks are random of size 1 to 4, or all of size 1 (a diagonal H,
    which the ascent applies elementwise), or all of size 1 but one "twin"
    pair coupled as a (k, j, +1) and a (k, j, -1) vertex are, which must
    take the dense product.

    A ``sparse`` hull starts from a Dirichlet(0.05) draw with some weights
    set between 1e-17 and 1e-12 and some set to -0.0. Half of those are
    stiff: their curvature dominates lin, so most steps stop inside the
    simplex and shrink the small weights, and about one in six clamps a
    weight after its first step."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    V = draw(st.integers(2, 128))
    stiff = sparse and draw(st.booleans())
    blocks = draw(st.sampled_from(["random", "diagonal", "twin"]))
    H = np.zeros((V, V))
    lo = 1
    while lo < V:
        size = int(rng.integers(1, 5)) if blocks == "random" else 1
        hi = min(V, lo + size)
        scale = 10.0 ** rng.uniform(0 if stiff else -8, 1)
        root = rng.normal(size=(hi - lo, hi - lo)) * scale
        H[lo:hi, lo:hi] = -(root @ root.T)
        lo = hi
    if blocks == "twin" and V >= 3:
        a, b = rng.choice(np.arange(1, V), size=2, replace=False)
        c = 10.0 ** rng.uniform(0 if stiff else -8, 1)
        H[a, a] = H[b, b] = -c
        H[a, b] = H[b, a] = c
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
    """The solver's result and its meter's time. With ``fire_at``, the
    deadline falls half an iteration before poll ``fire_at`` (at iteration
    32 * fire_at), so that poll is the first to find it due."""
    v0, lin, H, eps, start, fire_at, max_iters = problem
    meter = meter_at(1.5)
    if fire_at is not None:
        meter.deadline = meter.t + (32 * fire_at - 0.5) * meter.unit / meter.rate
    res = solver(v0, lin.copy(), H.copy(), eps, start.copy(), max_iters=max_iters,
                 meter=meter)
    return res, meter.t


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _assert_bitwise_the_reference(problem):
    got, got_t = _run(afwa_maximize, problem)
    want, want_t = _run(afwa_quadratic_reference, problem)
    assert _bits(got.weights) == _bits(want.weights)
    assert _bits(got.value) == _bits(want.value)
    assert _bits(got.gap) == _bits(want.gap)
    assert got.iterations == want.iterations
    assert (got.converged, got.interrupted) == (want.converged, want.interrupted)
    assert _bits(got_t) == _bits(want_t)


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
    res, _ = _run(afwa_maximize, problem)
    assert res.weights.min() >= 0.0
    assert abs(res.weights.sum() - 1.0) <= 1e-13
