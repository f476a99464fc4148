"""The LP W1 oracle vs hand values, metric axioms, and the assignment oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import Measure, w1_distance, w1_matching


def dd(atoms, weights):
    return Measure(np.atleast_2d(np.asarray(atoms, dtype=float)),
                   np.asarray(weights, dtype=float))


def test_identity_is_zero():
    p = dd([[0.3, -1.0], [2.0, 0.5]], [0.4, 0.6])
    d, plan = w1_distance(p, p)
    assert d == pytest.approx(0.0, abs=1e-12)
    assert np.trace(plan) == pytest.approx(1.0)


def test_point_masses_pay_l1_distance():
    p = dd([[1.0, 2.0]], [1.0])
    q = dd([[4.0, 6.0]], [1.0])
    d, _ = w1_distance(p, q)
    assert d == pytest.approx(7.0)


def test_half_mass_travels_two():
    p = dd([[0.0], [2.0]], [0.5, 0.5])
    q = dd([[0.0]], [1.0])
    d, plan = w1_distance(p, q)
    assert d == pytest.approx(1.0)
    assert plan.sum(axis=1) == pytest.approx([0.5, 0.5])


def test_plan_marginals_match_inputs():
    rng = np.random.default_rng(2)
    p = dd(rng.normal(size=(4, 3)), rng.dirichlet(np.ones(4)))
    q = dd(rng.normal(size=(6, 3)), rng.dirichlet(np.ones(6)))
    d, plan = w1_distance(p, q)
    assert plan.sum(axis=1) == pytest.approx(p.weights, abs=1e-9)
    assert plan.sum(axis=0) == pytest.approx(q.weights, abs=1e-9)
    cost = np.abs(p.atoms[:, None, :] - q.atoms[None, :, :]).sum(axis=2)
    assert d == pytest.approx(float((plan * cost).sum()), abs=1e-9)


def test_symmetry():
    rng = np.random.default_rng(3)
    p = dd(rng.normal(size=(5, 2)), rng.dirichlet(np.ones(5)))
    q = dd(rng.normal(size=(3, 2)), rng.dirichlet(np.ones(3)))
    assert w1_distance(p, q)[0] == pytest.approx(w1_distance(q, p)[0], abs=1e-9)


def test_triangle_inequality_random_triples():
    rng = np.random.default_rng(4)
    for _ in range(15):
        sizes = rng.integers(1, 8, size=3)
        ds = [
            dd(rng.normal(size=(k, 2)) * 2, rng.dirichlet(np.ones(k)))
            for k in sizes
        ]
        dab = w1_distance(ds[0], ds[1])[0]
        dbc = w1_distance(ds[1], ds[2])[0]
        dac = w1_distance(ds[0], ds[2])[0]
        assert dac <= dab + dbc + 1e-9


def test_translation_invariance_and_scaling():
    rng = np.random.default_rng(5)
    p = dd(rng.normal(size=(4, 2)), rng.dirichlet(np.ones(4)))
    q = dd(rng.normal(size=(5, 2)), rng.dirichlet(np.ones(5)))
    base = w1_distance(p, q)[0]
    shift = np.array([3.0, -1.5])
    d2 = w1_distance(dd(p.atoms + shift, p.weights), dd(q.atoms + shift, q.weights))[0]
    assert d2 == pytest.approx(base, abs=1e-9)
    lam = 2.7
    d3 = w1_distance(dd(p.atoms * lam, p.weights), dd(q.atoms * lam, q.weights))[0]
    assert d3 == pytest.approx(lam * base, rel=1e-9)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_matches_assignment_oracle(seed):
    rng = np.random.default_rng(seed)
    kp, kq = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    m = int(rng.integers(1, 4))
    pa = np.round(rng.normal(size=(kp, m)) * 2, 2)
    qa = np.round(rng.normal(size=(kq, m)) * 2, 2)
    # eighths keep the common denominator small for the expansion oracle
    pw = rng.multinomial(8, np.ones(kp) / kp) / 8.0
    qw = rng.multinomial(8, np.ones(kq) / kq) / 8.0
    if pw.min() == 0 or qw.min() == 0:
        return
    d, _ = w1_distance(dd(pa, pw), dd(qa, qw))
    assert d == pytest.approx(w1_matching(pa, pw, qa, qw), abs=1e-9)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_paired_cost_bounds_w1_from_above(seed):
    rng = np.random.default_rng(seed)
    k, m = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    source = rng.normal(size=(k, m)) * 2
    target = rng.normal(size=(k, m)) * 2
    weights = rng.dirichlet(np.ones(k))
    d, _ = w1_distance(dd(source, weights), dd(target, weights))
    # moving atom k onto atom k is a feasible plan, so its cost bounds W1
    paired = float(weights @ np.abs(source - target).sum(axis=1))
    assert paired >= d - 1e-9


def test_unnormalized_input_rejected():
    p = dd([[0.0], [1.0]], [0.5, 0.5])
    with pytest.raises(ValueError):
        w1_distance(dd([[0.0], [1.0]], [0.6, 0.6]), p)
    q_bad_dim = dd([[0.0, 1.0]], [1.0])
    with pytest.raises(ValueError):
        w1_distance(p, q_bad_dim)
