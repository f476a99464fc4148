"""Cost oracles: frozen hand values, gradient agreement, shape contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drostream import presets
from drostream.model import CostModel, Tolerances, quadratic_model


def central_diff(f, z, i, h=1e-6):
    zp, zm = z.copy(), z.copy()
    zp[i] += h
    zm[i] -= h
    return (f(zp) - f(zm)) / (2 * h)


@pytest.fixture
def scalar_quadratic():
    return quadratic_model([[1.0]], [[0.0]], [[-1.0]])


def test_quadratic_eval_hand_value(scalar_quadratic):
    assert scalar_quadratic.eval(np.array([2.0]), np.array([3.0])) == pytest.approx(-5.0)


def test_quadratic_grad_y_hand_value(scalar_quadratic):
    g = scalar_quadratic.grad_y(np.array([0.0]), np.array([2.0]), np.array([0.5]))
    assert g == pytest.approx([3.0])


def test_quadratic_rejects_bad_matrices():
    with pytest.raises(ValueError):
        quadratic_model([[-1.0]], [[0.0]], [[-1.0]])  # A not PSD
    with pytest.raises(ValueError):
        quadratic_model([[1.0]], [[0.0]], [[1.0]])  # C not ND
    with pytest.raises(ValueError):
        quadratic_model([[1.0, 2.0]], [[0.0]], [[-1.0]])  # not square


def test_study_one_cost_shape():
    m = quadratic_model([[1.0]], np.zeros((1, 3)), -np.eye(3))
    x = np.array([1.5])
    xi = np.array([1.0, -2.0, 0.5])
    assert m.eval(x, xi) == pytest.approx(1.5**2 - xi @ xi)


def test_quadratic_matches_triple_loop():
    rng = np.random.default_rng(3)
    d, m = 3, 2
    A = rng.normal(size=(d, d))
    A = A @ A.T
    B = rng.normal(size=(d, m))
    Craw = rng.normal(size=(m, m))
    C = -(Craw @ Craw.T) - 0.1 * np.eye(m)
    model = quadratic_model(A, B, C)

    def triple_loop(x, xi):
        want = 0.0
        for i in range(d):
            for j in range(d):
                want += x[i] * A[i, j] * x[j]
        for i in range(d):
            for j in range(m):
                want += x[i] * B[i, j] * xi[j]
        for i in range(m):
            for j in range(m):
                want += xi[i] * C[i, j] * xi[j]
        return want

    for _ in range(20):
        x = rng.normal(size=d)
        xi = rng.normal(size=m)
        assert model.eval(x, xi) == pytest.approx(triple_loop(x, xi),
                                                  rel=1e-12, abs=1e-12)
    # and batched, one value per sample
    for _ in range(5):
        x = rng.normal(size=d)
        batch = rng.normal(size=(60, m)) * 3
        want = [triple_loop(x, xi) for xi in batch]
        assert model.eval(x, batch) == pytest.approx(want, rel=1e-12,
                                                     abs=1e-12)


@pytest.mark.parametrize("which", ["quadratic"])
def test_gradients_agree_with_finite_differences(which):
    rng = np.random.default_rng(17)
    d, m = 2, 3
    A = rng.normal(size=(d, d))
    A = A @ A.T
    B = rng.normal(size=(d, m))
    Craw = rng.normal(size=(m, m))
    C = -(Craw @ Craw.T) - 0.2 * np.eye(m)
    model = quadratic_model(A, B, C)
    for _ in range(100):
        x = rng.normal(size=d)
        xi = rng.normal(size=m)
        y = rng.normal(size=m) * 0.3
        gx = np.asarray(model.grad_x(x, xi), dtype=float).reshape(-1)
        for i in range(d):
            fd = central_diff(lambda z: model.eval(z, xi), x.astype(float), i)
            assert gx[i] == pytest.approx(fd, rel=1e-5, abs=1e-5)
        gy = np.asarray(model.grad_y(x, xi, y), dtype=float).reshape(-1)
        for j in range(m):
            fd = central_diff(lambda z: model.eval(x, xi - z), y.astype(float), j)
            assert gy[j] == pytest.approx(fd, rel=1e-5, abs=1e-5)


def preset_cost(name):
    """A preset's cost model and its (B, C + C'); study1-coupled is study1
    with b = [[1, 0.5, -1]], and study2's matrices are drawn as
    ``presets.build_model`` draws them."""
    spec = dict((presets.study2() if name == "study2" else presets.study1()
                 ).model)
    if name == "study1-coupled":
        spec["b"] = [[1.0, 0.5, -1.0]]
    if name == "study2":
        rng = np.random.default_rng(spec["matrix_seed"])
        rng.standard_normal((spec["d"], spec["d"]))
        B = rng.standard_normal((spec["d"], spec["m"]))
        H = rng.standard_normal((spec["m"], spec["m"]))
        C = -(H.T @ H + np.eye(spec["m"]))
    else:
        B, C = np.asarray(spec["b"]), np.asarray(spec["c"])
    return presets.build_model(spec), B, C + C.T


@pytest.mark.parametrize("name", ["study1", "study1-coupled", "study2"])
def test_grad_y_is_bitwise_the_negated_product(name):
    model, B, CC = preset_cost(name)
    rng = np.random.default_rng(31)
    for rows in (1, 7, 120):
        x = rng.normal(size=model.dimension_d) * 2
        xi = rng.normal(size=(rows, model.dimension_m)) * 3
        y = rng.normal(size=(rows, model.dimension_m))
        want = -((xi - y) @ CC) - B.T @ x
        assert model.grad_y(x, xi, y).tobytes() == want.tobytes()
        assert (model.grad_y(x, xi[0], y[0]).tobytes()
                == (-(CC @ (xi[0] - y[0])) - B.T @ x).tobytes())


@pytest.mark.parametrize("which", ["study1", "study2"])
def test_sample_curvature_matches_grad_y(which):
    # grad_y(x, xi, y) - grad_y(x, xi, 0) == 2 C y for the declared C
    rng = np.random.default_rng(29)
    if which == "study1":
        model = quadratic_model([[1.0]], np.zeros((1, 3)), -np.eye(3))
        draw_x = lambda: rng.normal(size=1)
    else:
        # a small study2: off-diagonal curvature C = -(H'H + I)
        G = rng.normal(size=(4, 4))
        H = rng.normal(size=(5, 5))
        model = quadratic_model(G.T @ G, rng.normal(size=(4, 5)), -(H.T @ H + np.eye(5)))
        draw_x = lambda: rng.normal(size=4)
    C = model.sample_curvature
    m = model.dimension_m
    assert C.shape == (m, m)
    for _ in range(20):
        x = draw_x()
        xi = rng.normal(size=(3, m)) * 2
        y = rng.normal(size=(3, m))
        diff = model.grad_y(x, xi, y) - model.grad_y(x, xi, np.zeros_like(y))
        assert diff == pytest.approx(2.0 * y @ C, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "curvature",
    [[[-1.0, 0.5], [0.0, -1.0]], -np.eye(3), [[-1.0, np.nan], [np.nan, -1.0]],
     [[2.0, 0.5], [0.5, 1.0]]],
    ids=["asymmetric", "wrong-shape", "non-finite", "positive-definite"],
)
def test_malformed_sample_curvature_fails_at_construction(curvature):
    base = quadratic_model([[1.0]], np.zeros((1, 2)), -np.eye(2))
    with pytest.raises(ValueError, match="sample_curvature"):
        CostModel(1, 2, base.eval, base.grad_x, base.grad_y,
                  sample_curvature=np.array(curvature))


def test_a_model_declares_a_negative_semidefinite_sample_curvature():
    base = quadratic_model([[1.0]], np.zeros((1, 2)), -np.eye(2))
    with pytest.raises(TypeError, match="sample_curvature"):
        CostModel(1, 2, base.eval, base.grad_x, base.grad_y)
    # linear in one sample coordinate: semidefinite is enough
    flat = CostModel(1, 2, base.eval, base.grad_x, base.grad_y,
                     sample_curvature=np.diag([-1.0, 0.0]))
    assert flat.sample_curvature.tolist() == [[-1.0, 0.0], [0.0, 0.0]]


def test_midpoint_concavity_in_sample():
    rng = np.random.default_rng(23)
    model = quadratic_model([[1.0]], np.zeros((1, 3)), -np.eye(3))
    xs = np.array([0.7])
    for _ in range(50):
        a = rng.normal(size=3) * 2
        b = rng.normal(size=3) * 2
        mid = model.eval(xs, (a + b) / 2)
        assert mid >= (model.eval(xs, a) + model.eval(xs, b)) / 2 - 1e-9


def test_quadratic_minimizer_with_a_singular_A():
    # A = diag(1, 0): with B mu in A's range the minimizer has a zero
    # gradient; outside it the cost falls without bound along x2
    mu = np.array([0.5, -1.5])
    inside = quadratic_model(np.diag([1.0, 0.0]), [[1.0, 2.0], [0.0, 0.0]],
                             -np.eye(2))
    x = inside.minimizer(mu)
    assert np.abs(inside.grad_x(x, mu)).max() <= 1e-12
    outside = quadratic_model(np.diag([1.0, 0.0]), [[1.0, 2.0], [0.0, 1.0]],
                              -np.eye(2))
    assert outside.minimizer(mu) is None


def test_tolerances_ordering_enforced():
    Tolerances(eps1=1e-5, eps2=1e-4, eps_sa=5e-5, subgrad_bound=10.0, lipschitz=1.0)
    with pytest.raises(ValueError):
        Tolerances(eps1=1e-5, eps2=1e-4, eps_sa=5e-6)  # eps_sa < eps1
    with pytest.raises(ValueError):
        Tolerances(eps1=1e-5, eps2=1e-4, eps_sa=1e-4)  # eps_sa not < eps2/mu
    with pytest.raises(ValueError):
        Tolerances(eps1=1e-5, eps2=1e-4, eps_sa=6e-5, lipschitz=2.0)


@given(
    eps2=st.floats(1e-6, 1.0),
    frac1=st.floats(1e-6, 1.0, exclude_max=True),
    frac_sa=st.floats(1e-6, 1.0, exclude_max=True),
    lip=st.floats(0.1, 50.0),
)
@settings(max_examples=60, deadline=None)
def test_tolerances_invariant_property(eps2, frac1, frac_sa, lip):
    mu = max(lip, 1.0)
    eps_sa = (eps2 / mu) * frac_sa
    eps1 = eps_sa * frac1
    if eps1 <= 0 or eps_sa >= eps2 / mu:
        return
    t = Tolerances(eps1=eps1, eps2=eps2, eps_sa=eps_sa, lipschitz=lip)
    assert 0 < t.eps1 <= t.eps_sa < t.eps2 / max(t.lipschitz, 1.0)
