"""Worst-case expectation certificates over a transport-budget ball.

For a window of samples the certificate is the largest expected cost any
distribution within 1-norm transport budget eps of the (possibly weighted)
empirical measure can produce. After reformulation the search runs over a
scaled simplex of signed per-coordinate perturbations: a vertex search over
the extreme points alternates with away-step Frank-Wolfe over the convex
hull of the vertices found so far, with the current iterate retained as an
extra hull atom, until the Frank-Wolfe gap certifies eps1-optimality.

Weighted windows (compressed streams) are handled here in the budget
coordinates z = theta * y: the per-atom objective scales by theta while the
chain rule cancels theta in the gradient, so the simplex solvers stay
generic.

Every model is quadratic in the sample: it gives its ``sample_curvature``
C. So hull ascent runs in weight space, on a quadratic in the hull weights
whose value and gradient at the origin are read from the model once per
window and whose Hessian is one small matrix built per hull; its iterations
call no model oracle. Costs concave but not quadratic in the sample are out
of scope. Each vertex search takes its gradients, and so every posted gap,
from the model itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .simplex import ConcavityError, SolverError, afwa_maximize, point_search

Array = np.ndarray


@dataclass(frozen=True)
class DataWindow:
    """Support points with multiplicities: the measure certificates target.

    ``points`` is (p, m); ``theta`` holds positive multiplicities summing to
    ``n_total`` (the stream count). Plain windows have unit multiplicities
    and p == n_total. Arrays are frozen for safe read-only sharing.
    """

    points: Array
    theta: Array
    n_total: int

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float)).copy()
        th = np.asarray(self.theta, dtype=float).reshape(-1).copy()
        if pts.shape[0] != th.shape[0]:
            raise ValueError("points and theta must have matching length")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if th.min() <= 0:
            raise ValueError("theta entries must be positive")
        if abs(float(th.sum()) - self.n_total) > 1e-9:
            raise ValueError("theta must sum to n_total within 1e-9")
        pts.setflags(write=False)
        th.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "theta", th)

    @classmethod
    def plain(cls, points: Array) -> "DataWindow":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return cls(pts, np.ones(pts.shape[0]), pts.shape[0])

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


@dataclass
class WarmState:
    """Adapted restart state: vertex set, start point in budget coordinates,
    and hull weights over [origin] + vertices (index 0 is the origin atom).

    ``vertex_set`` is a (V, 3) int array of distinct ``(k, j, sign)`` rows.
    Each row stands for ``sign * n_total * radius`` at sample k, coordinate
    j of the window being solved, so the rows need no change across windows.
    """

    vertex_set: Array
    y_start: Array
    gamma: Array


class CertificateInterrupted(Exception):
    """Raised when the caller's interrupt poll fires between solver rounds;
    carries the partial state so it can be adapted to the grown window. The
    aborted attempt's work is already on the caller's Meter."""

    def __init__(self, state: WarmState):
        super().__init__("certificate generation interrupted by data arrival")
        self.state = state


class Meter:
    """Solver work done so far, and the clock it is charged to: ``charge``
    (None to only count) receives cost units, 1 per vertex search and 1 per
    hull iteration. ``search`` counts and charges one vertex search; the
    ascent charges its own iterations and its caller counts them."""

    def __init__(self, charge: Optional[Callable[[int], None]] = None):
        self.charge = charge
        self.lp_calls = 0
        self.cp_calls = 0
        self.afwa_iters = 0

    def search(self) -> None:
        self.lp_calls += 1
        if self.charge is not None:
            self.charge(1)

    def counts(self) -> tuple[int, int, int]:
        return self.lp_calls, self.cp_calls, self.afwa_iters


@dataclass
class CertificateResult:
    """eps1-optimal certificate for one window.

    The plan is kept once, as ``z``: the budget coordinates theta * y whose
    total 1-norm over n_total is the transport budget actually spent.
    ``y_eps1`` derives the physical per-atom perturbations from it, and the
    worst-case law is the ``window``'s weights theta_k / n_total on the
    moved atoms ``points - y_eps1``. ``vertex_set`` holds the
    ``(k, j, sign)`` rows found (see WarmState) and ``gamma`` the hull
    weights over [origin] + vertex_set; together they form the warm-start
    state for the next window.
    """

    j_eps1: float
    z: Array
    window: DataWindow
    vertex_set: Array
    gamma: Array
    eta: float
    radius: float

    @property
    def y_eps1(self) -> Array:
        return self.z / self.window.theta[:, None]

    @property
    def n_total(self) -> int:
        return self.window.n_total

    @property
    def budget_spent(self) -> float:
        return float(np.abs(self.z).sum()) / self.n_total

    def warm_state(self) -> WarmState:
        return WarmState(self.vertex_set.copy(), self.z.copy(), self.gamma.copy())


def certificate_value(model, x: Array, window: DataWindow, y_phys: Array) -> float:
    """Objective (1/n) sum_k theta_k f(x, point_k - y_k) at a given plan."""
    vals = np.asarray(
        model.eval(x, window.points - np.asarray(y_phys, dtype=float))
    ).reshape(-1)
    return float(window.theta @ vals) / window.n_total


def plan_entries(y: Array) -> list:
    """A plan's nonzero entries as ``[k, j, value]`` rows in row-major order:
    the coordinate form the event log posts. A ``-0.0`` entry is zero and
    is dropped."""
    ks, js = np.nonzero(y)
    return [[k, j, v] for k, j, v
            in zip(ks.tolist(), js.tolist(), y[ks, js].tolist())]


_RAGGED = "ragged or not numeric; rows must be [k, j, value]"


def plan_from_entries(entries, shape: tuple[int, int]) -> Array:
    """The dense (p, m) plan whose nonzero entries ``plan_entries`` lists.

    Raises ValueError unless ``entries`` is a list of ``[k, j, value]``
    rows with int coordinates inside ``shape``, in strictly increasing
    row-major order, and int or float values. Finiteness is not checked.
    """
    if not isinstance(entries, list):
        raise ValueError(_RAGGED)
    p, m = shape
    flat: list[int] = []
    values: list = []
    # a plain loop: a plan has tens of entries, too few to repay numpy calls
    for row in entries:
        if not (isinstance(row, list) and len(row) == 3):
            raise ValueError(_RAGGED)
        k, j, v = row
        if type(k) is not int or type(j) is not int:
            raise ValueError("coordinate not an integer")
        if not (0 <= k < p and 0 <= j < m):
            raise ValueError("coordinate outside the window")
        at = k * m + j
        if flat and at <= flat[-1]:
            raise ValueError("coordinates repeat or leave row-major order")
        if type(v) is not float and type(v) is not int:
            raise ValueError(_RAGGED)
        flat.append(at)
        values.append(v)
    y = np.zeros(p * m)
    try:
        y[flat] = values
    except OverflowError:  # an int too large for a float
        raise ValueError(_RAGGED) from None
    return y.reshape(p, m)


class _Problem:
    """Window-bound oracles in budget coordinates z (z = theta * y).

    The value and gradients at the origin z = 0 are read once and kept: the
    sample-average floor, a cold first vertex search and every hull's
    linear part share them.
    """

    def __init__(self, model, x: Array, window: DataWindow):
        self.model = model
        self.x = np.asarray(x, dtype=float)
        self.window = window
        self._inv_theta = (1.0 / window.theta)[:, None]

    def value(self, z: Array) -> float:
        return certificate_value(self.model, self.x, self.window, z * self._inv_theta)

    def grads(self, z: Array) -> Array:
        # d/dz of theta_k f(x, p_k - z_k/theta_k): theta cancels in the chain rule
        return np.asarray(
            self.model.grad_y(self.x, self.window.points, z * self._inv_theta),
            dtype=float,
        )

    @cached_property
    def origin_value(self) -> float:
        return self.value(np.zeros((self.window.size, self.window.dimension)))

    @cached_property
    def origin_grads(self) -> Array:
        return self.grads(np.zeros((self.window.size, self.window.dimension)))


def _check_vertex_rows(vertex_set: Array, shape: tuple[int, int], window: str) -> None:
    """Raise ValueError unless every ``(k, j, sign)`` row indexes a cell of
    a (p, m) window of the given shape and has sign +1 or -1."""
    at = vertex_set[:, :2]
    if np.any(at < 0) or np.any(at >= shape):
        raise ValueError(f"vertex coordinate outside the {window}")
    if np.any(np.abs(vertex_set[:, 2]) != 1):
        raise ValueError("vertex signs must be +1 or -1")


def _hull_point(shape, ks: Array, js: Array, vals: Array, gamma: Array) -> Array:
    """Dense point of hull weights gamma over [origin] + vertices: each
    gamma[1 + a] * vals[a] summed in at (ks[a], js[a]), the origin adding 0."""
    z = np.zeros(shape)
    np.add.at(z, (ks, js), gamma[1:] * vals)
    return z


class _QuadraticHull:
    """The certificate objective over hull weights for atoms [origin] +
    vertices, as the quadratic v0 + lin . gamma + gamma'H gamma / 2.

    Index 0 is the zero perturbation (the slack extreme point of the scaled
    simplex), so every previously folded weight vector is directly a valid
    warm start and the atom set stays affinely independent. Since
    f(x, xi - y) = f(x, xi) + g0 . y + y'C y, with g0 the ``grad_y`` at
    y = 0 and C the model's ``sample_curvature``, the form is exact: v0 and
    lin are the objective's value and gradient at the origin atom, and H has
    H[1 + a, 1 + b] = 2 vals[a] vals[b] C[j_a, j_b] / (n theta[k_a]) when
    vertices a and b share an atom (0 otherwise, and on the origin's row and
    column).
    """

    def __init__(self, problem: _Problem, vertices: Array, scale: float):
        ks, js, signs = vertices.T
        vals = signs * scale
        self._ks, self._js, self._vals = ks, js, vals
        self._shape = (problem.window.size, problem.window.dimension)
        n = problem.window.n_total
        self.v0 = problem.origin_value
        self.lin = np.empty(1 + len(vals))
        self.lin[0] = 0.0
        self.lin[1:] = vals * problem.origin_grads[ks, js] / n
        weight = n * problem.window.theta[ks]
        C = problem.model.sample_curvature
        self.H = np.zeros((1 + len(vals), 1 + len(vals)))
        # only pairs on the same atom couple; every other entry stays +0.0
        a, b = np.nonzero(ks[:, None] == ks[None, :])
        self.H[1:, 1:][a, b] = (2.0 * vals / weight)[a] * vals[b] * C[js[a], js[b]]

    def point(self, gamma: Array) -> Array:
        return _hull_point(self._shape, self._ks, self._js, self._vals, gamma)


def _empty_result(problem: _Problem, window: DataWindow, radius: float) -> CertificateResult:
    z = np.zeros((window.size, window.dimension))
    return CertificateResult(
        j_eps1=problem.origin_value,
        z=z,
        window=window,
        vertex_set=np.empty((0, 3), dtype=np.intp),
        gamma=np.array([1.0]),
        eta=0.0,
        radius=radius,
    )


def generate(
    model,
    x: Array,
    window: DataWindow,
    radius: float,
    eps1: float,
    warm: Optional[WarmState] = None,
    interrupt: Optional[Callable[[], bool]] = None,
    meter: Optional[Meter] = None,
    max_cp_iters: int = 2_000_000,
    warm_grads: Optional[Array] = None,
) -> CertificateResult:
    """eps1-optimal worst-case certificate at decision x.

    Alternates the vertex search with away-step Frank-Wolfe over the hull
    of [origin] + discovered vertices, warm-startable from an adapted
    previous state. ``interrupt`` is polled between rounds and
    aborts via CertificateInterrupted carrying the partial state;
    ``meter`` counts the work and charges it to the caller's clock.

    The returned value never falls below the plain sample average at x
    minus 1e-9: the origin is a permanent hull atom and warm starts fall
    back to it whenever the adapted point would start lower.

    ``warm_grads``, when given, must be the model's gradients at
    ``warm.y_start`` for this x and window, as ``revalidate`` returns them;
    the first vertex search then takes them instead of reading them again.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if eps1 <= 0:
        raise ValueError("eps1 must be positive")
    p, m = window.size, window.dimension
    n = window.n_total
    scale = n * radius
    problem = _Problem(model, x, window)
    if meter is None:
        meter = Meter()
    if radius == 0.0:
        return _empty_result(problem, window, radius)

    if warm is not None:
        vs = warm.vertex_set
        z = np.asarray(warm.y_start, dtype=float).copy()
        if z.shape != (p, m):
            raise ValueError(f"warm start has shape {z.shape}, window needs {(p, m)}")
        c = np.asarray(warm.gamma, dtype=float).copy()
        if c.shape != (1 + len(vs),):
            raise ValueError("warm gamma length must be 1 + len(vertex_set)")
        _check_vertex_rows(vs, (p, m), "window")
        # the origin restart guards the sample-average floor
        j_curr = problem.value(z)
        G = warm_grads  # when None, the first vertex search reads them at z
        if j_curr < problem.origin_value:
            z = np.zeros((p, m))
            c = np.zeros(1 + len(vs))
            c[0] = 1.0
            j_curr = problem.origin_value
            G = problem.origin_grads
    else:
        vs = np.empty((0, 3), dtype=np.intp)
        z = np.zeros((p, m))
        c = np.array([1.0])
        j_curr = problem.origin_value
        G = problem.origin_grads

    solved_here = False  # has the current atom set been hull-solved this call
    while True:
        if interrupt is not None and interrupt():
            raise CertificateInterrupted(WarmState(vs, z, c))
        if G is None:
            G = problem.grads(z)
        omega, eta = point_search(G, scale, z, n_total=n)
        meter.search()
        spent = float(np.abs(z).sum()) / n
        if spent > radius + 1e-9:
            raise ValueError(
                f"plan spends budget {spent:.6g} beyond radius {radius:.6g}; "
                "a warm state must be adapted to the window first"
            )
        if eta <= eps1:
            break
        # argmax rows not yet in the vertex set
        new = omega[~(omega[:, None] == vs[None]).all(axis=2).any(axis=1)]
        if not len(new) and solved_here:
            # the hull just solved contains the best extreme direction, so its
            # certified gap bounds the true gap; the measured excess is only
            # reconstruction roundoff
            break
        vs = np.concatenate([vs, new])
        c = np.concatenate([c, np.zeros(len(new))])

        hull = _QuadraticHull(problem, vs, scale)
        res = afwa_maximize(
            hull.v0, hull.lin, hull.H, eps1, c,
            max_iters=max_cp_iters, interrupt=interrupt, tick=meter.charge,
        )
        meter.afwa_iters += res.iterations
        c = res.weights
        z = hull.point(c)
        G = None
        if res.interrupted:
            # an aborted ascent is work done but not a solved subproblem
            raise CertificateInterrupted(WarmState(vs, z, c))
        meter.cp_calls += 1
        if not res.converged:
            raise SolverError(
                f"hull ascent exhausted {max_cp_iters} iterations "
                f"(gap {res.gap:.3g} > eps1 {eps1:.3g})"
            )
        solved_here = True
        j_new = problem.value(z)
        if not math.isfinite(j_new):
            raise SolverError(
                "certificate objective is non-finite after a hull solve")
        if j_new < j_curr - 1e-9 * (1.0 + abs(j_curr)):
            raise ConcavityError(
                "certificate objective decreased across a hull solve; the "
                "cost is not concave in the sample argument"
            )
        j_curr = j_new

    return CertificateResult(
        j_eps1=j_curr,
        z=z,
        window=window,
        vertex_set=vs,
        gamma=c,
        eta=eta,
        radius=radius,
    )


def adapt(
    vertex_set: Array,
    gamma: Array,
    new_n: int,
    new_radius: float,
    new_shape: tuple[int, int],
) -> WarmState:
    """Rescale a converged (or partial) state to a grown window.

    Vertices keep their row, coordinate and sign, and now stand for
    magnitude new_n * new_radius; hull weights are preserved and the start
    point is rebuilt from them, so freshly arrived rows start unperturbed.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (1 + len(vertex_set),):
        raise ValueError("gamma length must be 1 + len(vertex_set)")
    if new_radius == 0.0:
        return WarmState(
            np.empty((0, 3), dtype=np.intp), np.zeros(new_shape), np.array([1.0])
        )
    _check_vertex_rows(vertex_set, new_shape, "new window")
    ks, js, signs = vertex_set.T
    y = _hull_point(new_shape, ks, js, signs * (new_n * new_radius), gamma)
    return WarmState(vertex_set.copy(), y, gamma.copy())


def revalidate(
    model, x: Array, window: DataWindow, radius: float, warm: WarmState, eps1: float
) -> tuple[bool, float, Array]:
    """One vertex search at the adapted start: is it already eps1-optimal?

    The gap is normalised by ``window.n_total``, like ``generate``'s ``eta``.
    When valid, the adapted value certifies the new window without any hull
    solve (``generate`` with the same warm state returns after its first
    vertex search). The caller counts that search on its Meter. Also returns the gradients the search read, which a
    refresh hands to ``generate`` as ``warm_grads``.
    """
    scale = window.n_total * radius
    problem = _Problem(model, x, window)
    z = np.asarray(warm.y_start, dtype=float)
    G = problem.grads(z)
    _, eta = point_search(G, scale, z, n_total=window.n_total)
    return eta <= eps1, eta, G
