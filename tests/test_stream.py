"""Stream generation determinism, mixture statistics and moments, and the
exact reference optimum."""

import numpy as np
import pytest

from drostream.model import quadratic_model
from drostream.presets import build_mixture, build_model, study1, study2
from drostream.stream import (
    FixedPeriod,
    MixtureComponent,
    MixtureSpec,
    UniformRandomPeriod,
    dump_stream,
    estimate_jstar,
    load_stream,
    sample_stream,
)


def study1_mixture():
    return build_mixture(study1().mixture)


def study1_model():
    cfg = study1().model
    return quadratic_model(cfg["a"], cfg["b"], cfg["c"])


def test_same_seed_reproduces_the_stream():
    spec = study1_mixture()
    a = sample_stream(spec, 50, seed=7, schedule=FixedPeriod(1.0))
    b = sample_stream(spec, 50, seed=7, schedule=FixedPeriod(1.0))
    assert all(
        p.index == q.index
        and p.arrival_time == q.arrival_time
        and np.array_equal(p.value, q.value)
        for p, q in zip(a, b)
    )
    c = sample_stream(spec, 50, seed=8, schedule=FixedPeriod(1.0))
    assert not np.array_equal(a[0].value, c[0].value)


def test_component_frequencies_match_weights():
    # centers are ~10 apart with unit-scale noise, so nearest-mean
    # classification recovers the mixture label essentially surely
    spec = study1_mixture()
    pts = sample_stream(spec, 100_000, seed=3, schedule=FixedPeriod(1.0))
    values = np.stack([p.value for p in pts])
    means = np.stack([c.mean for c in spec.components])
    labels = np.argmin(
        ((values[:, None, :] - means[None, :, :]) ** 2).sum(axis=2), axis=1
    )
    freqs = np.bincount(labels, minlength=3) / len(pts)
    assert freqs == pytest.approx(np.array([0.25, 0.5, 0.25]), abs=0.01)


def test_component_means_match_spec():
    spec = study1_mixture()
    pts = sample_stream(spec, 100_000, seed=3, schedule=FixedPeriod(1.0))
    values = np.stack([p.value for p in pts])
    means = np.stack([c.mean for c in spec.components])
    labels = np.argmin(
        ((values[:, None, :] - means[None, :, :]) ** 2).sum(axis=2), axis=1
    )
    for i, comp in enumerate(spec.components):
        rows = values[labels == i]
        sigma = np.sqrt(np.diag(comp.cov))
        tol = 3.0 * sigma / np.sqrt(rows.shape[0])
        assert np.all(np.abs(rows.mean(axis=0) - comp.mean) <= tol)


def test_reference_optimum_matches_moment_computation():
    # E|xi|^2 = sum_i w_i (|mu_i|^2 + tr cov_i) = 38.5 for the three-center
    # mixture, and the x^2 term pins the minimizer to the origin
    x, j = estimate_jstar(study1_model(), study1_mixture())
    assert x.tolist() == [0.0]
    assert j == pytest.approx(-38.5, abs=1e-12)


def test_mixture_moments_match_the_components():
    spec = study1_mixture()
    means = np.array([c.mean for c in spec.components])
    second = sum(w * (c.cov + np.outer(c.mean, c.mean))
                 for w, c in zip(spec.weights, spec.components))
    mu = spec.weights @ means
    assert spec.mean == pytest.approx(mu, abs=1e-12)
    assert spec.covariance == pytest.approx(second - np.outer(mu, mu),
                                            abs=1e-12)


def test_study2_reference_optimum_matches_an_independent_minimization():
    # the moments straight from the config, and scipy's own minimizer of
    # f(., mu) + tr(C Sigma)
    from scipy.optimize import minimize

    cfg = study2()
    model = build_model(cfg.model)
    means = np.array(cfg.mixture["means"])
    covs = np.array(cfg.mixture["covariances"])
    w = np.array(cfg.mixture["weights"])
    mu = w @ means
    sigma = np.einsum("i,ijk->jk", w, covs) + np.einsum(
        "i,ij,ik->jk", w, means - mu, means - mu)
    offset = float(np.sum(model.sample_curvature * sigma))

    x, j = estimate_jstar(model, build_mixture(cfg.mixture))
    assert j == pytest.approx(-6583.139, abs=1e-3)
    ref = minimize(lambda z: model.eval(z, mu) + offset, np.zeros(30),
                   jac=lambda z: model.grad_x(z, mu), method="BFGS",
                   options={"gtol": 1e-10, "maxiter": 10_000})
    assert j == pytest.approx(ref.fun, rel=1e-9)
    grad = model.grad_x(x, mu)
    assert np.abs(grad).max() <= 1e-8 * np.abs(model.grad_x(np.zeros(30),
                                                            mu)).max()


def test_reference_optimum_has_no_minimum_without_one():
    # x2 enters only linearly, through the mean's first coordinate (-1)
    spec = study1_mixture()
    model = quadratic_model(np.diag([1.0, 0.0]),
                            [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], -np.eye(3))
    assert estimate_jstar(model, spec) == (None, None)


def test_single_validation_point_minimizes_pointwise():
    # a mixture with one tight component at p: J* is the pointwise minimum
    # of the coupled cost at p, plus the component's spread tr(C Sigma)
    point = np.array([1.0, -2.0, 0.5])
    spec = MixtureSpec((MixtureComponent(point, 1e-6 * np.eye(3)),), [1.0])
    model = quadratic_model([[1.0]], [[1.0, 0.5, -1.0]], -np.eye(3))
    x, j = estimate_jstar(model, spec)
    # x^2 + x (b'p) - |p|^2 is least at x = -(b'p) / 2
    bp = 1.0 - 1.0 - 0.5
    assert x == pytest.approx([-bp / 2.0], abs=1e-15)
    assert j == pytest.approx(-bp * bp / 4.0 - 5.25 - 3e-6, abs=1e-12)


def test_reference_optimum_stable_across_seeds():
    # J* is what a held-out average at any seed estimates: on study2 the
    # mean of f(x*, .) over 20,000 fresh draws lies within 4 standard
    # errors of it at each of two seeds
    cfg = study2()
    model, spec = build_model(cfg.model), build_mixture(cfg.mixture)
    x, j = estimate_jstar(model, spec)
    for seed in (0, 1):
        pts = sample_stream(spec, 20_000, seed=seed,
                            schedule=FixedPeriod(1.0))
        costs = model.eval(x, np.stack([p.value for p in pts]))
        assert abs(costs.mean() - j) <= 4.0 * costs.std() / np.sqrt(20_000)


def test_dump_load_round_trip(tmp_path):
    spec = study1_mixture()
    pts = sample_stream(spec, 20, seed=11, schedule=UniformRandomPeriod(1.0, 3.0))
    path = tmp_path / "stream.jsonl"
    dump_stream(pts, path)
    back = load_stream(path)
    assert len(back) == len(pts)
    assert all(
        p.index == q.index
        and p.arrival_time == q.arrival_time
        and np.array_equal(p.value, q.value)
        for p, q in zip(pts, back)
    )


def test_fixed_schedule_times():
    times = FixedPeriod(2.5).times(4, np.random.default_rng(0))
    assert times == pytest.approx(np.array([2.5, 5.0, 7.5, 10.0]))
    with pytest.raises(ValueError):
        FixedPeriod(0.0)


def test_uniform_schedule_gaps_in_range():
    sched = UniformRandomPeriod(1.0, 3.0)
    times = sched.times(200, np.random.default_rng(4))
    gaps = np.diff(np.concatenate([[0.0], times]))
    assert gaps.min() >= 1.0 and gaps.max() <= 3.0
    with pytest.raises(ValueError):
        UniformRandomPeriod(0.5, 3.0)  # sub-period gaps outpace the budget
    with pytest.raises(ValueError):
        UniformRandomPeriod(3.0, 1.0)
