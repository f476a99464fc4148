"""Incremental cover: hand traces, mass bookkeeping, and the compression bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drostream.certificates import DataWindow, generate
from drostream.cover import Cover
from drostream.model import quadratic_model

from oracles import w1_distance, window_measure


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
    cover._counts[0] += 1  # corrupt the bookkeeping behind the window
    with pytest.raises(RuntimeError, match="diverged from the count"):
        cover.window()


def test_weighted_measure_from_trace():
    cover = feed(Cover(1.0), [[0.0], [0.5], [3.0]])
    dist = window_measure(cover.window())
    assert dist.atoms == pytest.approx(np.array([[0.0], [3.0]]))
    assert dist.weights == pytest.approx(np.array([2 / 3, 1 / 3]))


def test_point_in_two_balls_goes_to_the_nearer_center():
    cover = feed(Cover(1.0), [[0.0], [1.5]])
    assert cover.size == 2
    cover.update(np.array([0.8]))  # within 1 of both, 0.7 from 1.5
    assert cover.theta().tolist() == [1.0, 2.0]
    assert cover.n_seen == 3
    assert cover.transport_slack() == pytest.approx(0.7 / 3)
    cover.update(np.array([0.75]))  # a tie goes to the lower index
    assert cover.theta().tolist() == [2.0, 2.0]
    assert cover.transport_slack() == pytest.approx((0.7 + 0.75) / 4)


def test_single_ball_absorbs_everything():
    pts = [[0.0], [0.5], [-0.9], [1.1]]
    cover = feed(Cover(2.0), pts)
    assert cover.size == 1
    assert cover.theta() == pytest.approx(np.array([4.0]))
    dist = window_measure(cover.window())
    assert dist.weights == pytest.approx(np.array([1.0]))


def within_omega_of_a_center(pts, cover):
    """Whether every streamed point lies in some center's 2-norm ball."""
    centers = cover.centers()
    dists = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2)
    return dists.min(axis=1).max() <= cover.omega + 1e-12


def test_mass_stays_exact_over_long_streams(rng):
    pts = rng.normal(size=(3000, 2)) * 3.0
    cover = feed(Cover(1.0), pts)
    assert cover.theta().sum() == 3000
    assert within_omega_of_a_center(pts, cover)


def raw_to_cover_w1(pts, cover):
    dist, _ = w1_distance(
        window_measure(DataWindow.plain(np.asarray(pts, dtype=float))),
        window_measure(cover.window()),
    )
    return dist


def test_compression_within_transport_bound(rng):
    for _ in range(10):
        n = int(rng.integers(5, 50))
        omega = float(rng.choice([0.5, 1.5]))
        pts = rng.normal(size=(n, 2)) * 2.0
        cover = feed(Cover(omega), pts)
        slack = cover.transport_slack()
        assert raw_to_cover_w1(pts, cover) <= slack + 1e-9
        bound = (n - cover.size) / n * np.sqrt(pts.shape[1]) * omega
        assert slack <= bound + 1e-12


@settings(deadline=None, max_examples=40)
@given(
    data=st.lists(
        st.tuples(
            st.floats(-3, 3, allow_nan=False, width=32),
            st.floats(-3, 3, allow_nan=False, width=32),
        ),
        min_size=1,
        max_size=12,
    ),
    omega=st.floats(0.2, 3.0),
)
def test_slack_bounds_the_exact_w1(data, omega):
    # each absorbed point moving onto its center is a feasible coupling, and
    # the slack is that coupling's 1-norm cost: each absorbed point moves at
    # most sqrt(m) * omega in the 1-norm, within omega in the 2-norm
    pts = np.asarray(data, dtype=float)
    cover = feed(Cover(omega), pts)
    slack = cover.transport_slack()
    assert raw_to_cover_w1(pts, cover) <= slack + 1e-9
    n = len(data)
    bound = (n - cover.size) / n * np.sqrt(pts.shape[1]) * omega
    assert slack <= bound + 1e-12


def test_l2_cover_moves_mass_further_than_omega():
    # 99 points on the diagonal of R^3 just inside the unit l2 ball around
    # the first point, each about sqrt(3) from it in the 1-norm
    inside = np.full(3, 0.999 / np.sqrt(3.0))
    pts = np.vstack([np.zeros(3), np.tile(inside, (99, 1))])
    cover = feed(Cover(1.0), pts)
    assert cover.size == 1
    w1 = raw_to_cover_w1(pts, cover)
    assert w1 == pytest.approx(0.99 * 0.999 * np.sqrt(3.0))
    assert w1 > cover.omega
    assert w1 <= cover.transport_slack() + 1e-9
    # moving the diagonal mass 0.5 further out in the 1-norm stays inside
    # the radius-0.5 ball around the stream but leaves the eps + omega ball
    # around the cover; the eps + slack ball still holds it
    eps = 0.5
    far = np.vstack([np.zeros(3),
                     np.tile(inside + eps / 0.99 / 3.0, (99, 1))])
    to_far, _ = w1_distance(window_measure(DataWindow.plain(pts)),
                            window_measure(DataWindow.plain(far)))
    assert to_far == pytest.approx(eps)
    cover_to_far, _ = w1_distance(window_measure(cover.window()),
                                  window_measure(DataWindow.plain(far)))
    assert cover_to_far > eps + cover.omega
    assert cover_to_far <= eps + cover.transport_slack() + 1e-9


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        Cover(0.0)
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
    cover = feed(Cover(omega), pts)
    assert cover.theta().sum() == len(data)
    assert 1 <= cover.size <= len(data)
    assert within_omega_of_a_center(pts, cover)
