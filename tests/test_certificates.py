"""Certificate generation against the water-filling oracle and hand values."""

import dataclasses
import json
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drostream import certificates
from drostream.certificates import (
    CertificateInterrupted,
    DataWindow,
    Meter,
    WarmState,
    adapt,
    certificate_value,
    generate,
    revalidate,
)
from drostream.model import quadratic_model
from drostream.simplex import SolverError, afwa_maximize

from oracles import (
    HullObjective,
    afwa_reference,
    w1_distance,
    waterfill_certificate,
    window_measure,
)

EPS1 = 1e-7


def scalar_model():
    return quadratic_model([[1.0]], [[0.0]], [[-1.0]])


def spent(cert):
    """The transport budget a certificate spends, from its budget
    coordinates z, as the audit prices it."""
    return float(np.abs(cert.z).sum()) / cert.window.n_total



def test_a_window_copies_a_writeable_input():
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])
    theta = np.array([0.5, 1.5])
    windows = DataWindow(pts, theta, 2), DataWindow.plain(pts)
    pts[0, 0], theta[0] = 9.0, 9.0
    for win in windows:
        assert win.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert not win.points.flags.writeable
    assert windows[0].theta.tolist() == [0.5, 1.5]


@pytest.mark.parametrize("writeable", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_window_rejects_points_that_are_not_finite(bad, writeable):
    pts = np.array([[1.0, 2.0], [bad, 4.0]])
    pts.setflags(write=writeable)
    for build in (DataWindow.plain, lambda p: DataWindow(p, np.ones(2), 2)):
        with pytest.raises(ValueError, match="points must be finite"):
            build(pts)

def test_single_atom_moves_toward_origin():
    # budget 0.5 on one atom at 2: atom lands at 1.5, value -(1.5)^2
    model = scalar_model()
    win = DataWindow.plain(np.array([[2.0]]))
    cert = generate(model, np.array([0.0]), win, 0.5, EPS1)
    assert cert.j_eps1 == pytest.approx(-2.25, abs=1e-6)
    assert cert.y_eps1 == pytest.approx(np.array([[0.5]]), abs=1e-6)
    assert win.points - cert.y_eps1 == pytest.approx(np.array([[1.5]]),
                                                     abs=1e-6)


def test_generate_rejects_a_radius_that_is_not_positive():
    # every ball of the confidence schedule has a positive radius, so no
    # certificate, reused or adapted, can have radius 0
    model = scalar_model()
    win = DataWindow.plain(np.array([[2.0], [-1.0], [0.5]]))
    for radius in (0.0, -0.5):
        with pytest.raises(ValueError, match="radius must be positive"):
            generate(model, np.array([1.0]), win, radius, EPS1)


def test_budget_spent_on_larger_magnitude_atom():
    # atoms {1, 3}: the steeper atom soaks the whole budget n*eps = 1
    model = scalar_model()
    win = DataWindow.plain(np.array([[1.0], [3.0]]))
    cert = generate(model, np.array([0.0]), win, 0.5, EPS1)
    assert cert.j_eps1 == pytest.approx(0.5 * (-1.0 - 4.0), abs=1e-6)
    assert sorted(np.ravel(win.points - cert.y_eps1)) == pytest.approx(
        [1.0, 2.0], abs=1e-6
    )


def test_budget_and_w1_distance_agree():
    rng = np.random.default_rng(8)
    model = quadratic_model([[0.5]], [[0.3, -0.2]], -np.diag([1.0, 2.0]))
    for trial in range(20):
        p = int(rng.integers(1, 7))
        points = rng.normal(size=(p, 2)) * 2
        if trial < 10:
            win = DataWindow.plain(points)
        else:
            # a weighted window, as a cover posts: integer multiplicities
            theta = rng.integers(1, 5, size=p).astype(float)
            win = DataWindow(points, theta, int(theta.sum()))
        eps = float(rng.uniform(0.1, 1.0))
        cert = generate(model, rng.normal(size=1), win, eps, EPS1)
        assert spent(cert) <= eps + 1e-9
        d, _ = w1_distance(window_measure(win),
                           window_measure(win, cert.y_eps1))
        assert d <= eps + 1e-9
        # transported mass equals the budget coordinates exactly
        assert d == pytest.approx(spent(cert), abs=1e-9)


def test_value_at_least_sample_average():
    rng = np.random.default_rng(9)
    model = quadratic_model([[1.0]], [[0.0, 0.0, 0.0]], -np.eye(3))
    for _ in range(10):
        n = int(rng.integers(1, 9))
        win = DataWindow.plain(rng.normal(size=(n, 3)) * 3)
        x = rng.normal(size=1)
        eps = float(rng.uniform(0.0, 0.8))
        cert = generate(model, x, win, eps, EPS1)
        sae = certificate_value(model, x, win, np.zeros((n, 3)))
        assert cert.j_eps1 >= sae - 1e-9


def test_matches_waterfill_oracle_small_instances():
    rng = np.random.default_rng(10)
    for _ in range(25):
        n, m, d = int(rng.integers(1, 4)), int(rng.integers(1, 3)), 2
        A = np.diag(rng.uniform(0.1, 1.0, size=d))
        B = rng.normal(size=(d, m))
        c = -rng.uniform(0.3, 2.0, size=m)
        model = quadratic_model(A, B, np.diag(c))
        pts = rng.normal(size=(n, m)) * 2
        x = rng.normal(size=d)
        eps = float(rng.uniform(0.05, 1.0))
        cert = generate(model, x, DataWindow.plain(pts), eps, EPS1)
        want, _ = waterfill_certificate(A, B, c, x, pts, np.ones(n), n, eps)
        assert cert.j_eps1 == pytest.approx(want, abs=EPS1 + 1e-9)


def test_vertex_set_bounded_and_deduplicated():
    model = quadratic_model([[1.0]], [[0.0, 0.0]], -np.eye(2))
    win = DataWindow.plain(np.array([[2.0, -1.0], [0.5, 3.0]]))
    cert = generate(model, np.array([0.0]), win, 0.7, EPS1)
    vs = cert.vertex_set
    assert len(vs) <= 2 * 2 * 2
    keys = [tuple(v) for v in vs.tolist()]
    assert len(keys) == len(set(keys))


def test_weighted_window_matches_replicated_plain():
    # multiplicity-2 center must behave exactly like two stacked copies
    model = scalar_model()
    pts = np.array([[2.0], [-1.0]])
    win_w = DataWindow(pts, np.array([2.0, 1.0]), 3)
    win_p = DataWindow.plain(np.array([[2.0], [2.0], [-1.0]]))
    cw = generate(model, np.array([0.0]), win_w, 0.4, EPS1)
    cp = generate(model, np.array([0.0]), win_p, 0.4, EPS1)
    assert cw.j_eps1 == pytest.approx(cp.j_eps1, abs=2 * EPS1)
    assert spent(cw) == pytest.approx(spent(cp), abs=1e-6)


def test_weighted_window_oracle_match():
    rng = np.random.default_rng(12)
    model = quadratic_model([[1.0]], [[0.0, 0.0]], -np.diag([1.0, 0.5]))
    pts = rng.normal(size=(3, 2)) * 2
    theta = np.array([2.0, 1.0, 3.0])
    win = DataWindow(pts, theta, 6)
    cert = generate(model, np.array([0.3]), win, 0.3, EPS1)
    want, _ = waterfill_certificate(
        [[1.0]], [[0.0, 0.0]], [-1.0, -0.5], [0.3], pts, theta, 6, 0.3
    )
    assert cert.j_eps1 == pytest.approx(want, abs=EPS1 + 1e-9)
    assert spent(cert) <= 0.3 + 1e-9


def test_revalidate_weighted_window_matches_generate_gap():
    # three rows stand for six samples: the gap is normalised by n = 6, not
    # by p = 3, in revalidate as in generate. Radius 2 spreads the budget over
    # four vertices, so the final gap is positive and a wrong scale shows.
    rng = np.random.default_rng(12)
    model = quadratic_model([[1.0]], [[0.0, 0.0]], -np.diag([1.0, 0.5]))
    pts = rng.normal(size=(3, 2)) * 2
    win = DataWindow(pts, np.array([2.0, 1.0, 3.0]), 6)
    x = np.array([0.3])
    cert = generate(model, x, win, 2.0, EPS1)
    assert cert.eta > 0
    valid, eta, _ = revalidate(model, x, cert, EPS1)
    assert eta == cert.eta
    assert valid


def test_adapt_empty_state():
    empty = WarmState(np.empty((0, 3), dtype=int), np.zeros((1, 1)),
                      np.array([1.0]))
    warm = adapt(empty, DataWindow.plain(np.zeros((2, 1))), 0.7)
    assert warm.z == pytest.approx(np.zeros((2, 1)))
    assert len(warm.vertex_set) == 0


def one_row_state(row, gamma):
    """A state holding one vertex row on a one-sample window of dimension 3
    (its plan is never read by ``adapt``)."""
    return WarmState(np.array([row]), np.zeros((1, 3)), np.array(gamma))


def test_adapt_rescales_magnitudes():
    # the vertex -0.9 at (0, 1) of a one-sample window stands for
    # -(2 * 0.7) = -1.4 on the grown window
    warm = adapt(one_row_state([0, 1, -1], [0.4, 0.6]),
                 DataWindow.plain(np.zeros((2, 3))), 0.7)
    assert warm.vertex_set.tolist() == [[0, 1, -1]]
    # start point: gamma mass on the vertex, zero on the fresh row
    assert warm.z[0, 1] == pytest.approx(0.6 * -1.4)
    assert warm.z[1] == pytest.approx([0.0, 0.0, 0.0])
    assert warm.gamma == pytest.approx([0.4, 0.6])


@pytest.mark.parametrize("row", [[2, 0, 1], [0, 3, -1], [-1, 0, 1]])
def test_adapt_rejects_a_vertex_outside_the_window(row):
    with pytest.raises(ValueError, match="outside the new window"):
        adapt(one_row_state(row, [0.5, 0.5]),
              DataWindow.plain(np.zeros((2, 3))), 0.7)


@pytest.mark.parametrize(
    "row, points, match",
    [
        ([3, 0, 1], [[2.0]], "outside the window"),
        # -1 would alias the last row and post a certificate holding it
        ([-1, 0, 1], [[2.0], [1.0]], "outside the window"),
        ([0, 0, 2], [[2.0]], "signs must be"),
    ],
)
def test_generate_rejects_a_warm_vertex_outside_the_window(row, points, match):
    warm = WarmState(np.array([row]), np.zeros((len(points), 1)), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match=match):
        generate(scalar_model(), np.array([0.0]), DataWindow.plain(points), 0.5,
                 EPS1, warm=warm)


def test_non_finite_value_after_a_hull_solve_raises():
    # the weight-space hull is finite, so only the recomputed value sees the
    # NaN this eval returns off the unperturbed points
    base = scalar_model()
    points = np.array([[2.0], [-1.0]])

    def eval_nan_when_moved(x, xi):
        moved = np.any(np.asarray(xi) != points, axis=1)
        return np.where(moved, np.nan, base.eval(x, xi))

    model = dataclasses.replace(base, eval=eval_nan_when_moved)
    with pytest.raises(SolverError, match="non-finite"):
        generate(model, np.array([0.0]), DataWindow.plain(points), 0.5, EPS1)


def test_over_budget_warm_start_raises_without_asserts(src_env):
    # a stale start two units out on a radius-0.5 window, with no vertices to
    # rebuild it from; python -O strips asserts, so only a raise stops the
    # certificate from posting a plan that spends 2.0
    script = textwrap.dedent("""
        import numpy as np
        from drostream.certificates import DataWindow, WarmState, generate
        from drostream.model import quadratic_model

        model = quadratic_model([[1.0]], [[0.0]], [[-1.0]])
        warm = WarmState(np.empty((0, 3), dtype=int), np.array([[2.0]]),
                         np.array([1.0]))
        cert = generate(model, np.array([0.0]), DataWindow.plain([[2.0]]),
                        0.5, 1e-7, warm=warm)
        print("posted", cert.j_eps1, cert.z.tolist())
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=src_env)
    assert "posted" not in proc.stdout
    assert proc.returncode == 1
    assert "ValueError: plan spends budget 2 beyond radius 0.5" in proc.stderr


def test_adapt_objective_identity():
    # adapted objective = (1/(n+1)) [n * rescaled old terms + fresh term at 0]
    model = scalar_model()
    pts1 = np.array([[2.0]])
    cert = generate(model, np.array([0.0]), DataWindow.plain(pts1), 0.5, EPS1)
    pts2 = np.array([[2.0], [1.0]])
    win2 = DataWindow.plain(pts2)
    warm = adapt(cert, win2, 0.5)
    x = np.array([0.0])
    got = certificate_value(model, x, win2, warm.z)
    old_rescaled = model.eval(x, pts1[0] - warm.z[0])
    fresh = model.eval(x, pts2[1])
    assert got == pytest.approx((old_rescaled + fresh) / 2, abs=1e-12)


def regenerate(model, cert, window, radius):
    """The meter of a 1e-5 certificate on ``window`` warm from ``cert``
    adapted to it: no hull solve (``cp_calls == 0``) means the adapted start
    was already certified."""
    meter = Meter()
    generate(model, np.array([0.0]), window, radius, 1e-5,
             warm=adapt(cert, window, radius), meter=meter)
    return meter


def test_revalidate_repeat_atom_and_unchanged_radius():
    # a repeat lands as a multiplicity bump on the same center; budget and
    # weight grow in lockstep, so the rescaled plan stays exactly optimal
    model = scalar_model()
    win2 = DataWindow(np.array([[2.0]]), np.array([2.0]), 2)
    cert = generate(model, np.array([0.0]), win2, 0.5, EPS1)
    win3 = DataWindow(np.array([[2.0]]), np.array([3.0]), 3)
    assert regenerate(model, cert, win3, 0.5).counts() == (1, 0, 0)

    # the same repeat stored as a separate row leaves the fresh copy
    # unperturbed, and its untouched gradient forces a real re-solve
    pts3 = np.array([[2.0], [2.0], [2.0]])
    cert_p = generate(model, np.array([0.0]), DataWindow.plain(pts3[:2]), 0.5, EPS1)
    meter = regenerate(model, cert_p, DataWindow.plain(pts3), 0.5)
    assert meter.cp_calls >= 1


def test_revalidate_far_out_point_fails():
    model = scalar_model()
    pts = np.array([[2.0]])
    cert = generate(model, np.array([0.0]), DataWindow.plain(pts), 0.5, EPS1)
    pts2 = np.array([[2.0], [40.0]])
    meter = regenerate(model, cert, DataWindow.plain(pts2), 0.5)
    assert meter.cp_calls >= 1


def test_warm_start_matches_cold_value():
    rng = np.random.default_rng(13)
    model = quadratic_model([[1.0]], [[0.0, 0.0, 0.0]], -np.eye(3))
    pts = rng.normal(size=(5, 3)) * 2
    x = np.array([0.2])
    c5 = generate(model, x, DataWindow.plain(pts), 0.6, EPS1)
    pts6 = np.vstack([pts, rng.normal(size=(1, 3)) * 2])
    warm = adapt(c5, DataWindow.plain(pts6), 0.5)
    cw = generate(model, x, DataWindow.plain(pts6), 0.5, EPS1, warm=warm)
    cc = generate(model, x, DataWindow.plain(pts6), 0.5, EPS1)
    assert cw.j_eps1 == pytest.approx(cc.j_eps1, abs=2 * EPS1)
    assert spent(cw) <= 0.5 + 1e-9


def test_interrupt_carries_partial_state_and_counters():
    rng = np.random.default_rng(14)
    model = quadratic_model([[1.0]], np.zeros((1, 3)), -np.eye(3))
    pts = rng.normal(size=(40, 3)) * 3
    win = DataWindow.plain(pts)
    meter = Meter()
    meter.deadline = 5.0  # reached mid-solve: the solve takes far longer
    with pytest.raises(CertificateInterrupted) as exc:
        generate(model, np.array([0.0]), win, 0.5, 1e-9, meter=meter)
    ci = exc.value
    assert meter.t >= 5.0
    assert ci.state.gamma.sum() == pytest.approx(1.0, abs=1e-9)
    assert sum(meter.counts()) > 0
    # resuming from the carried state lands on the cold answer
    warm = adapt(ci.state, win, 0.5)
    resumed = generate(model, np.array([0.0]), win, 0.5, EPS1, warm=warm)
    cold = generate(model, np.array([0.0]), win, 0.5, EPS1)
    assert resumed.j_eps1 == pytest.approx(cold.j_eps1, abs=2 * EPS1)


def test_an_exhausted_hull_ascent_raises_after_metering_it(monkeypatch):
    # this window needs hundreds of hull iterations; with a cap of one the
    # first ascent exhausts it, and its iteration is on the meter
    rng = np.random.default_rng(14)
    model = quadratic_model([[1.0]], np.zeros((1, 3)), -np.eye(3))
    win = DataWindow.plain(rng.normal(size=(40, 3)) * 3)
    monkeypatch.setattr(certificates, "_MAX_HULL_ITERS", 1)
    meter = Meter()
    with pytest.raises(SolverError, match="hull ascent exhausted 1 iterations"):
        generate(model, np.array([0.0]), win, 0.5, 1e-9, meter=meter)
    assert meter.counts() == (1, 1, 1)
    assert meter.t == 2.0


def two_dim_model():
    return quadratic_model(np.eye(2), [[1.0, 0.5], [0.0, 1.0]],
                           [[-1.0, 0.3], [0.3, -2.0]])


def ascent_curvatures(monkeypatch):
    """Record the H each hull ascent is handed."""
    seen = []

    def spy(v0, lin, H, *args, **kwargs):
        seen.append(H)
        return afwa_maximize(v0, lin, H, *args, **kwargs)

    monkeypatch.setattr(certificates, "afwa_maximize", spy)
    return seen


@pytest.mark.parametrize("x_new, grows", [([2.5, 0.8], False),
                                          ([-3.0, 1.0], True)])
def test_a_refresh_extends_its_certificates_curvature(monkeypatch, x_new,
                                                      grows):
    # a refresh on its certificate's window and radius hands the ascent the
    # carried H itself while the vertex set stands, and a copy of it grown
    # by the new rows once it does not; either way every byte is that of
    # an H built from the origin alone, which a model with an equal but
    # distinct curvature array gets
    model = two_dim_model()
    win = DataWindow.plain(np.array([[-2.0, 1.0], [0.5, 0.0], [2.0, -1.0]]))
    prev = generate(model, np.array([3.0, 1.0]), win, 0.2, EPS1)
    assert not prev.H.flags.writeable
    assert prev.H.shape == (1 + len(prev.vertex_set),) * 2
    seen = ascent_curvatures(monkeypatch)
    cert = generate(model, np.array(x_new), win, 0.2, EPS1, warm=prev)
    assert (seen[0] is prev.H) is not grows
    assert seen[0][: len(prev.H), : len(prev.H)].tobytes() == prev.H.tobytes()
    assert cert.H is seen[-1] and cert.curvature is model.sample_curvature

    twin = two_dim_model()
    assert twin.sample_curvature is not model.sample_curvature
    seen.clear()
    fresh = generate(twin, np.array(x_new), win, 0.2, EPS1, warm=prev)
    assert seen[0] is not prev.H
    assert fresh.H.tobytes() == cert.H.tobytes()
    assert (fresh.j_eps1, fresh.eta) == (cert.j_eps1, cert.eta)
    assert fresh.gamma.tobytes() == cert.gamma.tobytes()


def test_a_restart_off_its_window_radius_or_state_carries_no_curvature(
        monkeypatch):
    # adapt and an interrupted attempt give plain states without H, and a
    # certificate lends its H only on its own window object and radius
    model = two_dim_model()
    pts = np.array([[-2.0, 1.0], [0.5, 0.0], [2.0, -1.0]])
    win = DataWindow.plain(pts)
    prev = generate(model, np.array([3.0, 1.0]), win, 0.2, EPS1)
    adapted = adapt(prev, win, 0.2)
    assert type(adapted) is WarmState and not hasattr(adapted, "H")
    meter = Meter()
    meter.deadline = 0.0
    with pytest.raises(CertificateInterrupted) as exc:
        generate(model, np.array([-3.0, 1.0]), win, 0.2, EPS1, warm=prev,
                 meter=meter)
    assert type(exc.value.state) is WarmState

    seen = ascent_curvatures(monkeypatch)
    x = np.array([2.5, 0.8])
    carried = generate(model, x, win, 0.2, EPS1, warm=prev)
    assert seen[0] is prev.H
    for warm, window, radius in [(adapted, win, 0.2),
                                 (prev, DataWindow.plain(pts), 0.2),
                                 (prev, win, 0.25)]:
        seen.clear()
        cert = generate(model, x, window, radius, EPS1, warm=warm)
        assert seen and all(H is not prev.H for H in seen)
        if radius == 0.2:
            assert cert.H.tobytes() == carried.H.tobytes()


@st.composite
def vertex_hulls(draw):
    """A weighted window, a negative definite curvature with some exact-zero
    off-diagonal entries, and distinct signed vertices, several per atom."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    off = rng.normal(size=(m, m)) * (rng.random((m, m)) < 0.5)
    off = np.triu(off, 1)
    off = off + off.T
    C = -(off + np.diag(np.abs(off).sum(axis=1) + rng.uniform(0.1, 2.0, m)))
    theta = rng.integers(1, 4, p).astype(float)
    win = DataWindow(rng.normal(size=(p, m)), theta, int(theta.sum()))
    rows = np.column_stack([rng.integers(0, p, 30), rng.integers(0, m, 30),
                            rng.choice([-1, 1], 30)])
    vs = np.unique(rows, axis=0)[: draw(st.integers(1, 30))]
    model = quadratic_model([[1.0]], np.zeros((1, m)), C)
    # a model's curvature need only be symmetric within a tolerance; one
    # ulp off makes H[a, b] and H[b, a] differ
    C = model.sample_curvature.copy()
    C[0, -1] = np.nextafter(C[0, -1], -np.inf)
    model = dataclasses.replace(model, sample_curvature=C)
    return model, win, vs, draw(st.floats(0.01, 10.0))


@settings(max_examples=200, deadline=None)
@given(vertex_hulls(), st.integers(0, 30))
def test_hull_hessian_is_bitwise_the_dense_formula(case, prefix):
    # H is filled on same-atom pairs only; it must equal, zeros' signs
    # included, the masked dense product it replaced, whether it is built
    # from the origin alone or extended from a prefix's carried H
    model, win, vs, scale = case
    problem = certificates._Problem(model, np.zeros(1), win)
    hull = certificates._QuadraticHull(problem, vs, scale, np.zeros((1, 1)))
    carried = certificates._QuadraticHull(
        problem, vs[:prefix], scale, np.zeros((1, 1))).H
    extended = certificates._QuadraticHull(problem, vs, scale, carried)
    assert not extended.H.flags.writeable
    ks, js, signs = vs.T
    vals = signs * scale
    weight = win.n_total * win.theta[ks]
    C = model.sample_curvature
    dense = np.zeros((1 + len(vs), 1 + len(vs)))
    dense[1:, 1:] = np.where(
        ks[:, None] == ks[None, :],
        np.outer(2.0 * vals / weight, vals) * C[js[:, None], js[None, :]],
        0.0,
    )
    assert hull.H.tobytes() == dense.tobytes()
    assert extended.H.tobytes() == dense.tobytes()
    if prefix >= len(vs):
        assert extended.H is carried


def test_weight_space_hull_matches_the_oracle_hull():
    # a weighted window, off-diagonal curvature and several vertices on one
    # atom, so the off-diagonal blocks of H count
    rng = np.random.default_rng(31)
    d, m = 2, 3
    G = rng.normal(size=(d, d))
    H = rng.normal(size=(m, m))
    quad = quadratic_model(G.T @ G, rng.normal(size=(d, m)), -(H.T @ H + np.eye(m)))
    win = DataWindow(rng.normal(size=(3, m)) * 2, np.array([2.0, 1.0, 3.0]), 6)
    x = rng.normal(size=d)
    radius = 0.7
    vs = np.array([[0, 0, 1], [0, 1, -1], [0, 2, 1], [1, 1, 1],
                   [2, 0, -1], [2, 2, -1], [2, 0, 1]])
    scale = win.n_total * radius
    hull = certificates._QuadraticHull(certificates._Problem(quad, x, win), vs,
                                       scale, np.zeros((1, 1)))
    dense = HullObjective(quad, x, win, vs, scale)
    for _ in range(10):
        gamma, other = rng.dirichlet(np.ones(1 + len(vs)), size=2)
        np.testing.assert_allclose(hull.point(gamma), dense.point(gamma),
                                   rtol=1e-12)
        want = dense.value(gamma)
        got = hull.v0 + hull.lin @ gamma + 0.5 * gamma @ hull.H @ gamma
        assert got == pytest.approx(want, rel=1e-10)
        want = dense.grad(gamma)
        np.testing.assert_allclose(hull.lin + hull.H @ gamma, want, rtol=1e-10,
                                   atol=1e-10 * np.abs(want).max())
        # the gradient is affine in gamma, so its difference is exactly H d
        step = other - gamma
        diff = dense.grad(gamma + step) - want
        np.testing.assert_allclose(hull.H @ step, diff, rtol=1e-10,
                                   atol=1e-10 * np.abs(diff).max())

    # the oracle ascent, bisecting on the dense objective over the vertices
    # the certificate found, reaches the certificate's value
    cert = generate(quad, x, win, radius, EPS1)
    assert cert.eta <= EPS1
    start = np.zeros(1 + len(cert.vertex_set))
    start[0] = 1.0
    found = HullObjective(quad, x, win, cert.vertex_set, scale)
    res = afwa_reference(found, EPS1, start)
    assert res.converged
    assert res.value == pytest.approx(cert.j_eps1, abs=EPS1)


def test_cold_generate_reads_the_origin_oracles_once():
    # the floor value, the first vertex search and the linear part of every
    # hull share one eval and one grad_y at the unperturbed points
    rng = np.random.default_rng(7)
    m = 3
    base = quadratic_model([[1.0]], rng.normal(size=(1, m)), -np.eye(m))
    win = DataWindow.plain(rng.normal(size=(10, m)) * 2)
    at_origin = {"eval": 0, "grad_y": 0}

    def eval_(x, xi):
        at_origin["eval"] += bool(np.array_equal(xi, win.points))
        return base.eval(x, xi)

    def grad_y(x, xi, y):
        at_origin["grad_y"] += not np.any(y)
        return base.grad_y(x, xi, y)

    model = dataclasses.replace(base, eval=eval_, grad_y=grad_y)
    meter = Meter()
    generate(model, np.array([0.5]), win, 0.7, EPS1, meter=meter)
    assert meter.cp_calls > 1  # otherwise one read per hull is one read too
    assert at_origin == {"eval": 1, "grad_y": 1}


def test_unit_theta_equals_plain():
    model = scalar_model()
    pts = np.array([[1.0], [3.0], [-2.0]])
    w_unit = DataWindow(pts, np.ones(3), 3)
    plain = DataWindow.plain(pts)
    a = generate(model, np.array([0.1]), w_unit, 0.4, EPS1)
    b = generate(model, np.array([0.1]), plain, 0.4, EPS1)
    assert a.j_eps1 == pytest.approx(b.j_eps1, abs=1e-12)
    assert a.y_eps1 == pytest.approx(b.y_eps1, abs=1e-12)


@given(seed=st.integers(0, 5000))
@settings(max_examples=25, deadline=None)
def test_oracle_agreement_property(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    c = -rng.uniform(0.3, 2.0, size=m)
    model = quadratic_model([[1.0]], np.zeros((1, m)), np.diag(c))
    pts = rng.normal(size=(n, m)) * 2.5
    eps = float(rng.uniform(0.02, 1.5))
    cert = generate(model, np.array([0.0]), DataWindow.plain(pts), eps, EPS1)
    want, _ = waterfill_certificate(
        [[1.0]], np.zeros((1, m)), c, [0.0], pts, np.ones(n), n, eps
    )
    assert cert.j_eps1 == pytest.approx(want, abs=EPS1 + 1e-9)
    assert spent(cert) <= eps + 1e-9


# zeros of both signs and subnormals, among arbitrary finite floats
PLAN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def sparse_plans(draw):
    p, m = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    values = draw(st.lists(PLAN_VALUES, min_size=p * m, max_size=p * m))
    return np.array(values, dtype=float).reshape(p, m)


def json_round_trip(y):
    """``y`` through its posted form and JSON, back to a dense plan."""
    entries = json.loads(json.dumps(certificates.plan_entries(y)))
    return entries, certificates.plan_from_entries(entries, y.shape)


@settings(max_examples=200, deadline=None)
@given(sparse_plans())
def test_a_plan_survives_its_coordinate_form(y):
    # [indices, values]: the row-major flat indices of the nonzero entries,
    # strictly increasing, and those entries
    (indices, values), back = json_round_trip(y)
    assert len(indices) == len(values) == np.count_nonzero(y)
    assert all(type(i) is int for i in indices)
    assert indices == sorted(set(indices))
    assert values == y.ravel()[indices].tolist()
    assert np.array_equal(back, y)
    assert not np.signbit(back[back == 0]).any()  # -0.0 comes back as 0.0


@pytest.mark.parametrize("y, entries", [
    (np.zeros((3, 2)), [[], []]),
    (np.zeros((1, 1)), [[], []]),
    (np.array([[-2.5]]), [[0], [-2.5]]),
    # a -0.0 entry is zero, and is dropped
    (np.array([[0.0, -0.0], [1.5, -0.0]]), [[2], [1.5]]),
    (np.array([[0.0, 3.0, 0.0], [0.0, 0.0, -1e-300]]),
     [[1, 5], [3.0, -1e-300]]),
], ids=["empty", "empty-1x1", "1x1", "negative-zero", "2x3"])
def test_a_plan_posts_its_flat_indices_and_values(y, entries):
    posted, back = json_round_trip(y)
    assert posted == entries
    assert np.array_equal(back, y)


def test_a_plan_reads_int_values_as_floats():
    y = certificates.plan_from_entries([[0, 3], [2, -(2 ** 60)]], (2, 2))
    assert y.dtype == float
    assert y.tolist() == [[2.0, 0.0], [0.0, float(-(2 ** 60))]]


# each malformed [indices, values] form of a plan on a 2 x 3 window, and the
# start of the ValueError it raises
@pytest.mark.parametrize("entries, message", [
    ({"indices": [0], "values": [1.0]}, "not [indices, values]"),
    ([[0], [1.0], []], "not [indices, values]"),
    ([[0]], "not [indices, values]"),
    ([(0,), (1.0,)], "not [indices, values]"),
    ([[0, 1], [1.0]], "not [indices, values]"),
    ([[0], [1.0, 2.0]], "not [indices, values]"),
    ([[True], [1.0]], "index not an integer"),
    ([[1.0], [1.0]], "index not an integer"),
    ([[0, "1"], [1.0, 1.0]], "index not an integer"),
    ([[-1], [1.0]], "index outside the window"),
    ([[6], [1.0]], "index outside the window"),
    ([[2, 2], [1.0, 1.0]], "indices repeat or leave row-major order"),
    ([[3, 2], [1.0, 1.0]], "indices repeat or leave row-major order"),
    ([[2], ["1.0"]], "value not a number"),
    ([[2], [True]], "value not a number"),
    ([[2], [None]], "value not a number"),
    ([[2, 4], [1.0, 10 ** 400]], "value too large for a float"),
], ids=["not-a-list", "three-lists", "one-list", "tuples", "fewer-values",
        "fewer-indices", "index-bool", "index-float", "index-string",
        "index-negative", "index-at-p-times-m", "index-repeated",
        "indices-decreasing", "value-string", "value-bool", "value-null",
        "value-too-large"])
def test_a_malformed_plan_raises_a_value_error(entries, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        certificates.plan_from_entries(entries, (2, 3))
