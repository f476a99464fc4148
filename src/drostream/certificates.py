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
window and whose Hessian is one small matrix, built once per vertex set on
a window and carried by the certificate to the next solve there; its
iterations call no model oracle. Costs concave but not quadratic in the
sample are out of scope. Each vertex search takes its gradients, and so
every posted gap, from the model itself.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .simplex import (ConcavityError, SolverError, afwa_maximize,
                      frank_wolfe_gap, point_search)

Array = np.ndarray


@dataclass(frozen=True)
class DataWindow:
    """Support points with multiplicities: the measure certificates target.

    ``points`` is (p, m); ``theta`` holds positive multiplicities summing to
    ``n_total`` (the stream count). Plain windows have unit multiplicities
    and p == n_total. Arrays are frozen for safe read-only sharing; an
    input already read-only is kept uncopied.
    """

    points: Array
    theta: Array
    n_total: int

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        th = np.asarray(self.theta, dtype=float).reshape(-1)
        pts, th = (a.copy() if a.flags.writeable else a for a in (pts, th))
        if pts.shape[0] != th.shape[0]:
            raise ValueError("points and theta must have matching length")
        if not np.isfinite(pts).all():
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
        ones = np.ones(pts.shape[0])
        ones.setflags(write=False)
        return cls(pts, ones, pts.shape[0])

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


@dataclass
class WarmState:
    """Restart state: vertex set, plan ``z`` in budget coordinates, and hull
    weights over [origin] + vertices (index 0 is the origin atom).

    ``vertex_set`` is a (V, 3) int array of distinct ``(k, j, sign)`` rows.
    Each row stands for ``sign * n_total * radius`` at sample k, coordinate
    j of the window being solved, so the rows need no change across windows.
    No solver writes into these arrays, so states share them uncopied and
    ``generate`` starts from them as they are. A state carries no hull
    curvature: ``adapt`` moves it to another window, as the runner does
    after every interrupt.
    """

    vertex_set: Array
    z: Array
    gamma: Array


class CertificateInterrupted(Exception):
    """Raised when the Meter's deadline passes between solver rounds;
    carries the partial state so it can be adapted to the grown window. The
    aborted attempt's work is already on the Meter."""

    def __init__(self, state: WarmState):
        super().__init__("certificate generation interrupted by data arrival")
        self.state = state


class Meter:
    """Solver work done so far, the virtual time ``t`` it has taken, and
    the next arrival's time ``deadline``, which the solvers poll by ``due``.

    ``charge`` adds cost units, 1 per vertex search and 1 per hull
    iteration, each ``unit`` long; ``rate`` units make one period. The
    runner sets ``unit`` to the active window's size times its dimension,
    so compressed windows advance the clock slower, and ``deadline`` after
    each ingest. ``search`` counts and charges one vertex search. The hull
    ascent takes the meter itself: it reads ``t``, ``unit``, ``rate`` and
    ``deadline`` once, keeps the time in a local float that it advances as
    ``charge(1)`` would after each iteration, polls the deadline as ``due``
    does every 32 iterations, and writes ``t`` back on every exit, so ``t``
    stays bitwise that of one ``charge(1)`` per iteration; its caller counts
    the iterations. No solver changes ``unit`` or ``deadline`` mid-ascent.
    The defaults serve callers that only count, and never fall due."""

    def __init__(self, rate: float = 1.0):
        if rate <= 0:
            raise ValueError("cost budget must be positive")
        self.rate = float(rate)
        self.unit = 1.0
        self.t = 0.0
        self.deadline = math.inf
        self.lp_calls = 0
        self.cp_calls = 0
        self.afwa_iters = 0

    def charge(self, units: int) -> None:
        self.t += units * self.unit / self.rate

    def step(self) -> None:
        """Charge a decision step: one unit, whatever the window."""
        self.t += 1.0 / self.rate

    def jump_to(self, t: float) -> None:
        self.t = max(self.t, t)

    def due(self) -> bool:
        return self.t >= self.deadline

    def search(self) -> None:
        self.lp_calls += 1
        self.charge(1)

    def counts(self) -> tuple[int, int, int]:
        return self.lp_calls, self.cp_calls, self.afwa_iters


@dataclass
class CertificateResult(WarmState):
    """eps1-optimal certificate for one window at one radius.

    The plan is kept once, as ``z``: the budget coordinates theta * y whose
    total 1-norm over n_total is the transport budget actually spent.
    ``y_eps1`` derives the physical per-atom perturbations from it, and the
    worst-case law is the ``window``'s weights theta_k / n_total on the
    moved atoms ``points - y_eps1``. ``vertex_set`` holds the
    ``(k, j, sign)`` rows found and ``gamma`` the hull weights over
    [origin] + vertex_set, so a certificate is its own restart state.

    ``H`` is the read-only hull curvature over [origin] + a prefix of
    ``vertex_set`` (all of it once a hull was solved on the set) on
    ``window`` at ``radius``, for the model whose ``sample_curvature`` is
    ``curvature``. A restart on that window, radius and curvature, as
    every refresh is, extends this H rather than building it again.
    """

    j_eps1: float
    window: DataWindow
    eta: float
    radius: float
    H: Array
    curvature: Array

    @property
    def y_eps1(self) -> Array:
        return self.z / self.window.theta[:, None]


def certificate_value(model, x: Array, window: DataWindow, y_phys: Array) -> float:
    """Objective (1/n) sum_k theta_k f(x, point_k - y_k) at a given plan."""
    vals = np.asarray(
        model.eval(x, window.points - np.asarray(y_phys, dtype=float))
    ).reshape(-1)
    return float(window.theta @ vals) / window.n_total


def plan_entries(y: Array) -> list:
    """A plan's nonzero entries as ``[indices, values]``: their row-major
    flat indices ``k * m + j``, strictly increasing, and the entries there.
    This is the sparse form the event log posts. A ``-0.0`` entry is zero
    and is dropped."""
    flat = np.flatnonzero(y)
    return [flat.tolist(), y.ravel()[flat].tolist()]


def plan_from_entries(entries, shape: tuple[int, int]) -> Array:
    """The dense (p, m) plan whose ``[indices, values]`` ``plan_entries``
    writes.

    Raises ValueError unless ``entries`` is two lists of equal length: int
    indices in [0, p * m), strictly increasing, and int or float values
    that a float holds. Finiteness is not checked.
    """
    p, m = shape
    if not (isinstance(entries, list) and len(entries) == 2
            and all(isinstance(part, list) for part in entries)
            and len(entries[0]) == len(entries[1])):
        raise ValueError("not [indices, values], two lists of equal length")
    flat, values = entries
    # passes of built-ins: a plan has tens of entries, too few to repay
    # numpy calls
    if not set(map(type, flat)) <= {int}:
        raise ValueError("index not an integer")
    if not all(map(operator.lt, flat, flat[1:])):
        raise ValueError("indices repeat or leave row-major order")
    if flat and not (0 <= flat[0] and flat[-1] < p * m):
        raise ValueError("index outside the window")
    if not set(map(type, values)) <= {int, float}:
        raise ValueError("value not a number")
    y = np.zeros(p * m)
    try:
        y[flat] = values
    except OverflowError:  # an int too large for a float
        raise ValueError("value too large for a float") from None
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
    """Raise ValueError unless every integer ``(k, j, sign)`` row indexes a
    cell of a (p, m) window of the given shape and has sign +1 or -1; one
    min and one max pass over the rows, and an empty set passes."""
    if not len(vertex_set):
        return
    lo = np.minimum.reduce(vertex_set).tolist()
    hi = np.maximum.reduce(vertex_set).tolist()
    if min(lo[0], lo[1]) < 0 or hi[0] >= shape[0] or hi[1] >= shape[1]:
        raise ValueError(f"vertex coordinate outside the {window}")
    if lo[2] < -1 or hi[2] > 1 or not vertex_set[:, 2].all():
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

    H does not depend on x, so it is extended, not rebuilt: ``carried`` is
    the read-only H over [origin] + a prefix of ``vertices`` on this window
    at this scale, [[0.0]] for the empty prefix. Its block is copied and
    only the entries with a vertex past the prefix are computed, each by
    the same expression, so H is byte for byte the one built from nothing.
    When the prefix is all of ``vertices``, H is ``carried`` itself.
    """

    def __init__(self, problem: _Problem, vertices: Array, scale: float,
                 carried: Array):
        ks, js, signs = vertices.T
        vals = signs * scale
        self._ks, self._js, self._vals = ks, js, vals
        self._shape = (problem.window.size, problem.window.dimension)
        n = problem.window.n_total
        self.v0 = problem.origin_value
        V = len(vals)
        self.lin = np.empty(1 + V)
        self.lin[0] = 0.0
        self.lin[1:] = vals * problem.origin_grads[ks, js] / n
        self.H = carried
        old = len(carried) - 1
        if old < V:
            weight = n * problem.window.theta[ks]
            C = problem.model.sample_curvature
            self.H = np.zeros((1 + V, 1 + V))
            self.H[: 1 + old, : 1 + old] = carried
            # only pairs on the same atom couple, every other entry stays
            # +0.0; C is symmetric only within a tolerance, so H[a, b] and
            # H[b, a] are both computed
            same = ks[:, None] == ks
            same[:old, :old] = False
            a, b = np.divmod(same.ravel().nonzero()[0], V)
            self.H[1:, 1:][a, b] = (2.0 * vals / weight)[a] * vals[b] * C[js[a], js[b]]
            self.H.setflags(write=False)

    def point(self, gamma: Array) -> Array:
        return _hull_point(self._shape, self._ks, self._js, self._vals, gamma)


_MAX_HULL_ITERS = 2_000_000


def generate(
    model,
    x: Array,
    window: DataWindow,
    radius: float,
    eps1: float,
    warm: Optional[WarmState] = None,
    meter: Optional[Meter] = None,
    warm_grads: Optional[Array] = None,
) -> CertificateResult:
    """eps1-optimal worst-case certificate at decision x on the ball of
    ``radius`` around ``window``. The radius must be positive, as every
    ball of the confidence schedule is; ``adapt`` and ``revalidate`` then
    never see a certificate of radius 0.

    Alternates the vertex search with away-step Frank-Wolfe over the hull
    of [origin] + discovered vertices, warm-startable from a state on this
    window. ``meter`` counts the work and charges it to its clock; its
    ``due`` is polled between rounds and aborts via CertificateInterrupted
    carrying the partial state.

    The returned value never falls below the plain sample average at x
    minus 1e-9: the origin is a permanent hull atom and warm starts fall
    back to it whenever the adapted point would start lower.

    ``warm_grads``, when given, must be the model's gradients at
    ``warm.z`` for this x and window, as ``revalidate`` returns them;
    the first vertex search then takes them instead of reading them again.

    A ``warm`` certificate on this window object and radius, for this
    model's curvature object, lends its hull curvature ``H`` to extend.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if eps1 <= 0:
        raise ValueError("eps1 must be positive")
    p, m = window.size, window.dimension
    n = window.n_total
    scale = n * radius
    problem = _Problem(model, x, window)
    if meter is None:
        meter = Meter()

    C = model.sample_curvature
    H = np.zeros((1, 1))  # the curvature of the origin atom alone
    H.setflags(write=False)
    if warm is not None:
        vs = warm.vertex_set
        z = np.asarray(warm.z, dtype=float)
        if z.shape != (p, m):
            raise ValueError(f"warm start has shape {z.shape}, window needs {(p, m)}")
        c = np.asarray(warm.gamma, dtype=float)
        if c.shape != (1 + len(vs),):
            raise ValueError("warm gamma length must be 1 + len(vertex_set)")
        _check_vertex_rows(vs, (p, m), "window")
        if (isinstance(warm, CertificateResult) and warm.window is window
                and warm.radius == radius and warm.curvature is C):
            H = warm.H
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
        if meter.due():
            raise CertificateInterrupted(WarmState(vs, z, c))
        if G is None:
            G = problem.grads(z)
        omega, eta = point_search(G, scale, z, n_total=n)
        meter.search()
        spent = float(np.add.reduce(np.abs(z), axis=None)) / n
        if spent > radius + 1e-9:
            raise ValueError(
                f"plan spends budget {spent:.6g} beyond radius {radius:.6g}; "
                "a warm state must be adapted to the window first"
            )
        if eta <= eps1:
            break
        new = omega
        if len(vs):
            # argmax rows not yet in the vertex set
            new = omega[~(omega[:, None] == vs).all(axis=2).any(axis=1)]
        if not len(new) and solved_here:
            # the hull just solved contains the best extreme direction, so its
            # certified gap bounds the true gap; the measured excess is only
            # reconstruction roundoff
            break
        vs = np.concatenate([vs, new])
        c = np.concatenate([c, np.zeros(len(new))])

        hull = _QuadraticHull(problem, vs, scale, H)
        H = hull.H
        res = afwa_maximize(
            hull.v0, hull.lin, hull.H, eps1, c,
            max_iters=_MAX_HULL_ITERS, meter=meter,
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
                f"hull ascent exhausted {_MAX_HULL_ITERS} iterations "
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
        H=H,
        curvature=C,
    )


def adapt(state: WarmState, window: DataWindow, radius: float) -> WarmState:
    """Rescale a converged (or partial) state to a grown window.

    Vertices keep their row, coordinate and sign, and now stand for
    magnitude ``window.n_total * radius``; hull weights are preserved and
    the plan is rebuilt from them, so freshly arrived rows start
    unperturbed.
    """
    gamma = np.asarray(state.gamma, dtype=float)
    if gamma.shape != (1 + len(state.vertex_set),):
        raise ValueError("gamma length must be 1 + len(vertex_set)")
    shape = (window.size, window.dimension)
    _check_vertex_rows(state.vertex_set, shape, "new window")
    ks, js, signs = state.vertex_set.T
    z = _hull_point(shape, ks, js, signs * (window.n_total * radius), gamma)
    return WarmState(state.vertex_set, z, gamma)


def revalidate(
    model, x: Array, cert: CertificateResult, eps1: float
) -> tuple[bool, float, Array]:
    """One vertex search pricing ``cert.z`` on ``cert.window`` at
    ``cert.radius`` and decision x: is the plan still eps1-optimal there?

    The gap (``frank_wolfe_gap``) is normalised by ``n_total``, like
    ``generate``'s ``eta``. The caller counts that search on its Meter. Also
    returns the gradients it read, which a refresh hands to ``generate``.
    """
    window = cert.window
    G = _Problem(model, x, window).grads(cert.z)
    eta = frank_wolfe_gap(G, window.n_total * cert.radius, cert.z,
                          n_total=window.n_total)
    return eta <= eps1, eta, G
