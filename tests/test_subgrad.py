"""Subgradient extraction, step rules, and the certificate reuse test."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drostream.certificates import DataWindow, Meter, generate
from drostream.model import Tolerances, quadratic_model
from drostream.subgrad import make_rule, reuse_or_refresh, scaled_step, subgradient

from oracles import golden_min, robust_value_1d, waterfill_certificate

EPS1 = 1e-7


def pure_quadratic():
    # x^2 - |xi|^2: decision gradient ignores the atoms entirely
    return quadratic_model([[1.0]], [[0.0]], [[-1.0]])


def coupled_quadratic():
    # x^2 + x xi - xi^2
    return quadratic_model([[1.0]], [[1.0]], [[-1.0]])


def tolerances(**kw):
    base = dict(eps1=EPS1, eps2=1e-3, eps_sa=1e-4, subgrad_bound=10.0,
                lipschitz=1.0)
    base.update(kw)
    return Tolerances(**base)


def test_subgradient_ignores_atoms_without_coupling():
    model = pure_quadratic()
    win = DataWindow.plain(np.array([[2.0], [-1.0]]))
    cert = generate(model, np.array([1.0]), win, 0.3, EPS1)
    assert subgradient(model, np.array([1.0]), cert) == pytest.approx([2.0])
    assert subgradient(model, np.array([0.0]), cert) == pytest.approx([0.0])


def test_subgradient_hand_value_single_atom():
    model = coupled_quadratic()
    win = DataWindow.plain(np.array([[2.0]]))
    cert = generate(model, np.array([1.0]), win, 0.0, EPS1)
    assert subgradient(model, np.array([1.0]), cert) == pytest.approx([4.0])


def test_subgradient_averages_over_atoms():
    model = coupled_quadratic()
    win = DataWindow.plain(np.array([[0.0], [2.0]]))
    cert = generate(model, np.array([0.0]), win, 0.0, EPS1)
    assert subgradient(model, np.array([0.0]), cert) == pytest.approx([1.0])


def test_subgradient_weights_atoms_by_multiplicity():
    # theta (3, 1) on atoms {0, 2}, x = 0: grad_x = xi, so the weighted mean
    # is (3 * 0 + 1 * 2) / 4; weights 1 / p would give 1.0
    model = coupled_quadratic()
    win = DataWindow(np.array([[0.0], [2.0]]), np.array([3.0, 1.0]), 4)
    cert = generate(model, np.array([0.0]), win, 0.0, EPS1)
    assert subgradient(model, np.array([0.0]), cert) == pytest.approx([0.5])


def test_step_hand_arithmetic():
    model = quadratic_model(np.eye(2), [[0.0], [0.0]], [[-1.0]])
    x = scaled_step(model, np.array([1.0, 2.0]), np.array([3.0, -4.0]), 0.7)
    assert x == pytest.approx([0.7, 2.4])


def test_step_zero_gradient_keeps_x():
    model = pure_quadratic()
    x = scaled_step(model, np.array([1.5]), np.array([0.0]), 0.7)
    assert x == pytest.approx([1.5])


def test_step_small_gradient_escapes_normalization():
    model = pure_quadratic()
    x = scaled_step(model, np.array([1.0]), np.array([0.5]), 0.2)
    assert x == pytest.approx([1.0 - 0.2 * 0.5])


@settings(deadline=None, max_examples=60)
@given(
    g=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=5),
    alpha=st.floats(1e-3, 2.0),
)
def test_step_moves_at_most_alpha(g, alpha):
    g = np.asarray(g)
    d = len(g)
    model = quadratic_model(np.eye(d), np.zeros((d, 1)), [[-1.0]])
    x = np.zeros(d)
    moved = np.abs(scaled_step(model, x, g, alpha) - x).sum()
    assert moved <= alpha + 1e-12


def test_constant_rule_matches_formula():
    tol = tolerances(eps1=1e-5, eps2=0.1, eps_sa=0.05)
    rule = make_rule("constant", tol)
    assert rule.horizon == 40_000
    assert rule.alpha(0) == pytest.approx(10.0 / math.sqrt(40_001), abs=1e-9)
    assert rule.alpha(0) == pytest.approx(0.049999, abs=1e-5)
    assert rule.alpha(17) == rule.alpha(0)


def test_harmonic_rule_smallest_feasible_horizon():
    tol = tolerances(eps1=0.01, eps2=1.0, eps_sa=0.1, subgrad_bound=1.0)
    rule = make_rule("harmonic", tol)
    # r=3: 1*(3 - 1/4) = 2.75 > 2*0.9*ln 4 = 2.495; r=4: 2.8 <= 2*0.9*ln 5 = 2.897
    assert rule.horizon == 4
    assert rule.alpha(0) == pytest.approx(1.0)
    assert rule.alpha(3) == pytest.approx(0.25)


@settings(deadline=None, max_examples=300)
@given(bound=st.floats(1e-3, 1e3), eps2=st.floats(1e-3, 1e3),
       share=st.floats(0.0, 0.99))
def test_harmonic_horizon_is_the_first_feasible_one(bound, eps2, share):
    tol = tolerances(eps1=1e-9, eps2=eps2, eps_sa=max(share * eps2, 1e-9),
                     subgrad_bound=bound)
    M, slack = tol.subgrad_bound, tol.eps2 / tol.mu - tol.eps_sa

    def ok(r):
        return M * (3.0 - 1.0 / (r + 1.0)) <= 2.0 * slack * math.log(r + 1.0)

    rule = make_rule("harmonic", tol)
    h = rule.horizon
    if rule.horizon_capped:
        assert h == 10**18 and not ok(h)
    else:
        assert h >= 1 and ok(h) and not ok(h - 1)


def test_reuse_tolerance_must_leave_step_slack():
    with pytest.raises(ValueError):
        tolerances(eps2=0.1, eps_sa=0.1)
    with pytest.raises(ValueError):
        make_rule("geometric", tolerances())


def test_reuse_accepts_unmoved_decision():
    model = coupled_quadratic()
    win = DataWindow.plain(np.array([[1.0], [3.0]]))
    x = np.array([0.8])
    prev = generate(model, x, win, 0.4, EPS1)
    meter = Meter()
    out = reuse_or_refresh(model, x, win, 0.4, tolerances(), prev, meter=meter)
    assert out.reused
    assert out.cert.eta <= tolerances().eps1 + 1e-12
    assert out.cert.j_eps1 == pytest.approx(prev.j_eps1, abs=1e-9)
    assert meter.cp_calls == 0 and meter.lp_calls == 1


def test_reuse_always_valid_without_coupling():
    # atom-independent gradients: the old plan stays optimal wherever x goes
    model = pure_quadratic()
    win = DataWindow.plain(np.array([[1.0], [-2.0], [0.5]]))
    prev = generate(model, np.array([4.0]), win, 0.4, EPS1)
    for x_new in ([-4.0], [0.0], [7.5], [-9.0]):
        meter = Meter()
        out = reuse_or_refresh(model, np.asarray(x_new), win, 0.4,
                               tolerances(), prev, meter=meter)
        assert out.reused and meter.cp_calls == 0
        prev = out.cert


def test_large_step_with_flipped_atoms_forces_refresh():
    # at x=3 the worst case pushes the -2 atom up; at x=-3 it wants the
    # +2 atom pushed down, so the carried plan's gap blows past eps_sa
    model = coupled_quadratic()
    win = DataWindow.plain(np.array([[-2.0], [2.0]]))
    prev = generate(model, np.array([3.0]), win, 0.2, EPS1)
    meter = Meter()
    out = reuse_or_refresh(model, np.array([-3.0]), win, 0.2, tolerances(),
                           prev, meter=meter)
    assert not out.reused
    assert meter.cp_calls >= 1
    fresh = generate(model, np.array([-3.0]), win, 0.2, EPS1)
    assert out.cert.j_eps1 == pytest.approx(fresh.j_eps1, abs=1e-6)


@pytest.mark.parametrize("pts, x_old, x_new, radius", [
    ([[-2.0], [0.5], [2.0]], 3.0, -3.0, 0.2),
    ([[0.0], [0.3]], 4.0, -4.0, 0.5),
], ids=["carried-start", "origin-start"])
def test_a_refresh_reads_no_gradient_twice(pts, x_old, x_new, radius):
    # the carried plan fails its revalidation at x_new. In the first case it
    # still starts above the sample average, so the refresh's first vertex
    # search takes the gradients the revalidation read there; in the second
    # it starts below, so the refresh restarts at the origin and must read
    # the origin's. Either way the certificate is generate's own
    model = coupled_quadratic()
    win = DataWindow.plain(np.array(pts))
    prev = generate(model, np.array([x_old]), win, radius, EPS1)
    calls = []

    def grad_y(x, points, y):
        calls.append((np.asarray(x).tobytes(), np.asarray(y).tobytes()))
        return model.grad_y(x, points, y)

    x_new = np.array([x_new])
    meter = Meter()
    out = reuse_or_refresh(dataclasses.replace(model, grad_y=grad_y), x_new,
                           win, radius, tolerances(), prev, meter=meter)
    assert not out.reused
    assert len(calls) >= 2 and len(set(calls)) == len(calls)
    want_meter = Meter()
    want = generate(model, x_new, win, radius, EPS1, warm=prev.warm_state(),
                    meter=want_meter)
    assert (out.cert.j_eps1, out.cert.eta) == (want.j_eps1, want.eta)
    assert np.array_equal(out.cert.z, want.z)
    # the refresh's work is generate's plus its revalidation search
    lp, cp, iters = want_meter.counts()
    assert meter.counts() == (lp + 1, cp, iters)


def test_constant_rule_reaches_eps2_band():
    # Smooth scalar instance with a computable reference minimum: the best
    # iterate within the rule's horizon lands inside the eps2 band.
    model = coupled_quadratic()
    pts = np.array([[-1.0], [0.5], [2.0]])
    win = DataWindow.plain(pts)
    radius = 0.3
    tol = tolerances(eps1=1e-7, eps2=0.2, eps_sa=0.05, subgrad_bound=2.0)
    rule = make_rule("constant", tol)
    robust = robust_value_1d(np.array([[1.0]]), np.array([[1.0]]),
                             np.array([-1.0]), pts, np.ones(3), 3, radius)
    # the worst case over the ball is convex in x, so the golden-section
    # search finds the minimum on [-3, 3]
    grid = [robust(z) for z in np.linspace(-3.0, 3.0, 601)]
    assert np.all(np.diff(grid, 2) >= 0.0)
    _, j_star = golden_min(robust, -3.0, 3.0, xtol=1e-9)
    x = np.array([1.5])
    best = np.inf
    for k in range(rule.horizon):
        cert = generate(model, x, win, radius, tol.eps1)
        best = min(best, cert.j_eps1)
        if best - j_star <= tol.eps2:
            break
        g = subgradient(model, x, cert)
        x = scaled_step(model, x, g, rule.alpha(k))
    assert best - j_star <= tol.eps2


def test_reused_subgradient_satisfies_epsilon_inequality():
    model = coupled_quadratic()
    pts = np.array([[-1.0], [0.5], [2.0], [1.2]])
    win = DataWindow.plain(pts)
    radius, tol = 0.4, tolerances(eps1=1e-9, eps2=1e-1, eps_sa=5e-2)
    a, b, c = np.array([[1.0]]), np.array([[1.0]]), np.array([-1.0])

    def j_exact(z):
        val, _ = waterfill_certificate(a, b, c, np.array([z]), pts,
                                       np.ones(4), 4, radius)
        return val

    x_ref = np.array([0.8])
    prev = generate(model, x_ref, win, radius, tol.eps1)
    x_new = scaled_step(model, x_ref, subgradient(model, x_ref, prev), 0.02)
    out = reuse_or_refresh(model, x_new, win, radius, tol, prev)
    assert out.reused
    g = float(subgradient(model, x_new, out.cert)[0])
    xn = float(x_new[0])
    jx = j_exact(xn)
    for z in np.linspace(-2.0, 2.0, 21):
        assert j_exact(z) >= jx + g * (z - xn) - tol.eps_sa - 1e-9
