"""Incremental cover: hand traces, mass bookkeeping, and the compression bound."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drostream.certificates import DataWindow, generate
from drostream.cover import Cover, inflated_radius, rebuild
from drostream.measures import empirical, weighted
from drostream.model import quadratic_model
from drostream.transport import w1_distance


def feed(cover, points):
    for p in np.atleast_2d(np.asarray(points, dtype=float)):
        cover.update(p)
    return cover


def test_hand_trace_opens_two_centers():
    cover = feed(Cover(1.0), [[0.0], [0.5], [3.0]])
    assert cover.size == 2
    assert cover.centers() == pytest.approx(np.array([[0.0], [3.0]]))
    assert cover.theta() == pytest.approx(np.array([2.0, 1.0]))
    assert cover.n_seen == 3


def test_window_raises_when_mass_diverges_from_the_count():
    cover = feed(Cover(1.0), [[0.0], [0.5], [3.0]])
    cover._theta[0] += 1  # corrupt the bookkeeping behind the window
    with pytest.raises(RuntimeError, match="diverged from the count"):
        cover.window()


def test_weighted_measure_from_trace():
    cover = feed(Cover(1.0), [[0.0], [0.5], [3.0]])
    dist = weighted(cover.centers(), cover.theta(), cover.n_seen)
    assert dist.atoms == pytest.approx(np.array([[0.0], [3.0]]))
    assert dist.weights == pytest.approx(np.array([2 / 3, 1 / 3]))


def test_point_in_two_balls_splits_its_mass():
    cover = feed(Cover(1.0), [[0.0], [1.5]])
    assert cover.size == 2
    cover.update(np.array([0.8]))  # within 1 of both centers
    assert cover.theta() == pytest.approx(np.array([1.5, 1.5]))
    assert cover.theta_exact() == [Fraction(3, 2), Fraction(3, 2)]
    assert cover.n_seen == 3


def test_single_ball_absorbs_everything():
    pts = [[0.0], [0.5], [-0.9], [1.1]]
    cover = feed(Cover(2.0), pts)
    assert cover.size == 1
    assert cover.theta() == pytest.approx(np.array([4.0]))
    dist = weighted(cover.centers(), cover.theta(), cover.n_seen)
    assert dist.weights == pytest.approx(np.array([1.0]))


def test_mass_stays_exact_over_long_streams(rng):
    pts = rng.normal(size=(3000, 2)) * 3.0
    cover = feed(Cover(1.0, "l1"), pts)
    assert sum(cover.theta_exact(), Fraction(0)) == 3000
    assert abs(cover.theta().sum() - 3000.0) < 1e-9
    # soundness: every streamed point lies in at least one ball
    centers = cover.centers()
    dists = np.abs(pts[:, None, :] - centers[None, :, :]).sum(axis=2)
    assert dists.min(axis=1).max() <= cover.omega + 1e-12


def test_compression_within_transport_bound(rng):
    for _ in range(10):
        n = int(rng.integers(5, 50))
        omega = float(rng.choice([0.5, 1.5]))
        pts = rng.normal(size=(n, 2)) * 2.0
        cover = feed(Cover(omega, "l1"), pts)
        dist, _ = w1_distance(
            empirical(pts),
            weighted(cover.centers(), cover.theta(), cover.n_seen),
        )
        bound = (n - cover.size) / n * omega
        assert dist <= bound + 1e-9
        assert bound <= omega
        assert cover.transport_slack() == pytest.approx(bound)


def test_inflated_radius_is_the_sum():
    assert inflated_radius(0.9, 1.5) == pytest.approx(2.4)
    assert inflated_radius(0.37, 0.0) == pytest.approx(0.37)
    with pytest.raises(ValueError):
        inflated_radius(-0.1, 1.0)


def test_rebuild_matches_incremental_updates(rng):
    pts = rng.normal(size=(60, 3))
    inc = feed(Cover(2.5, "l2"), pts)
    re = rebuild(pts, 2.5, "l2")
    assert re.centers() == pytest.approx(inc.centers())
    assert re.theta_exact() == inc.theta_exact()


def test_metric_choice_changes_coverage():
    # (0.6, 0.6) sits 1.2 from the origin in 1-norm but 0.85 in 2-norm
    probe = [[0.0, 0.0], [0.6, 0.6]]
    assert feed(Cover(1.0, "l1"), probe).size == 2
    assert feed(Cover(1.0, "l2"), probe).size == 1


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        Cover(0.0)
    with pytest.raises(ValueError):
        Cover(1.0, "linf")
    cover = Cover(1.0)
    with pytest.raises(ValueError):
        cover.window()
    cover.update(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        cover.update(np.array([1.0]))


def test_weighted_certificate_dominates_weighted_average():
    model = quadratic_model([[1.0]], [[0.0]], [[-1.0]])
    cover = feed(Cover(1.0), [[2.0], [2.4], [5.0]])
    win = cover.window()
    cert = generate(model, np.array([0.0]), win, 0.8, 1e-7)
    avg = float(np.dot(win.theta / win.n_total, -win.points[:, 0] ** 2))
    assert cert.j_eps1 >= avg - 1e-9


@settings(deadline=None, max_examples=40)
@given(
    data=st.lists(
        st.tuples(
            st.floats(-5, 5, allow_nan=False, width=32),
            st.floats(-5, 5, allow_nan=False, width=32),
        ),
        min_size=1,
        max_size=40,
    ),
    omega=st.floats(0.2, 3.0),
)
def test_cover_invariants_hold_on_random_streams(data, omega):
    pts = np.asarray(data, dtype=float)
    cover = feed(Cover(omega, "l1"), pts)
    assert sum(cover.theta_exact(), Fraction(0)) == len(data)
    assert 1 <= cover.size <= len(data)
    centers = cover.centers()
    dists = np.abs(pts[:, None, :] - centers[None, :, :]).sum(axis=2)
    assert dists.min(axis=1).max() <= omega + 1e-12
