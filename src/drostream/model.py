"""Cost models f(x, xi) with gradient oracles in both arguments.

A model bundles the evaluation oracle with two gradients: the decision
gradient d f / d x, and the perturbation gradient of the map
y -> f(x, xi - y), which is what the inner certificate solvers consume.
Oracles are pure functions and safe to call concurrently. Built-in models
accept a single sample ``(m,)`` or a batch ``(N, m)``; batched calls return
arrays with a leading ``N`` axis.

Every model is quadratic in the sample and declares its constant curvature
there (``sample_curvature``), which certificate hull ascent relies on. Costs
concave but not quadratic in the sample, which the underlying theory allows,
cannot be expressed: this scope is deliberate, and widening it would take a
second hull solver. Decisions are unconstrained: a model is defined for
every x in R^d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

_SYM_TOL = 1e-9


@dataclass(frozen=True)
class CostModel:
    """Bundle of cost oracles shared by every solver.

    Attributes
    ----------
    dimension_d, dimension_m : int
        Decision and sample dimensions.
    eval : callable
        ``eval(x, xi)``, scalar for a single sample, ``(N,)`` for a batch.
        Must be convex in ``x`` and concave in ``xi``.
    grad_x : callable
        ``grad_x(x, xi)``, derivative in the decision, ``(d,)`` or ``(N, d)``.
    grad_y : callable
        ``grad_y(x, xi, y)``, gradient of ``y -> f(x, xi - y)`` with the same
        shape as ``y``.
    sample_curvature : (m, m) array
        The constant symmetric C of the cost, quadratic in the sample:
        f(x, xi) = a(x) + b(x)'xi + xi'C xi, consistent with ``grad_y``:
        ``grad_y(x, xi, y) - grad_y(x, xi, 0) == 2 C y``. Certificate hull
        ascent runs in weight space on it without calling the oracles.
        Validated finite, symmetric, (m, m) and negative semidefinite (the
        cost is concave in the sample) at construction.
    minimizer : callable, optional
        ``minimizer(mu)``, a minimizer of x -> f(x, mu) for a sample mean
        ``mu`` (m,), or None where that has no minimum. Since f is quadratic
        in the sample, E f(x, xi) = f(x, E xi) + tr(C Cov xi), so this
        minimizes the expected cost under any law with mean ``mu``.
    """

    dimension_d: int
    dimension_m: int
    eval: Callable[[Array, Array], float | Array]
    grad_x: Callable[[Array, Array], Array]
    grad_y: Callable[[Array, Array, Array], Array]
    sample_curvature: Array
    minimizer: Optional[Callable[[Array], Optional[Array]]] = None

    def __post_init__(self):
        C = _check_square_sym(self.sample_curvature, "sample_curvature")
        if C.shape != (self.dimension_m, self.dimension_m):
            raise ValueError(
                f"sample_curvature must have shape ({self.dimension_m}, "
                f"{self.dimension_m}), got {C.shape}"
            )
        if np.linalg.eigvalsh(C).max() > _SYM_TOL * (1.0 + np.abs(C).max()):
            raise ValueError("sample_curvature must be negative semidefinite")
        C = C.copy()
        C.setflags(write=False)
        object.__setattr__(self, "sample_curvature", C)


@dataclass(frozen=True)
class Tolerances:
    """Solver tolerances: certificate gap, decision stop, reuse slack.

    ``subgrad_bound`` is the numerator of the harmonic step length, so it
    caps every step; ``lipschitz`` is the certificate's Lipschitz constant
    in the decision.
    The reuse slack must leave room under the decision tolerance scaled by
    the latter: 0 < eps1 <= eps_sa < eps2 / max(lipschitz, 1).
    """

    eps1: float
    eps2: float
    eps_sa: float
    subgrad_bound: float = 1.0
    lipschitz: float = 1.0

    def __post_init__(self):
        if not self.eps1 > 0:
            raise ValueError("eps1 must be positive")
        if not self.eps2 > 0:
            raise ValueError("eps2 must be positive")
        if not self.subgrad_bound > 0:
            raise ValueError("subgrad_bound must be positive")
        if not self.lipschitz > 0:
            raise ValueError("lipschitz must be positive")
        if not self.eps1 <= self.eps_sa:
            raise ValueError("eps_sa must be at least eps1")
        mu = max(self.lipschitz, 1.0)
        if not self.eps_sa < self.eps2 / mu:
            raise ValueError(
                "eps_sa must be below eps2 / max(lipschitz, 1) "
                f"({self.eps2 / mu:g}); got {self.eps_sa:g}"
            )


def _check_square_sym(mat: Array, name: str) -> Array:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} must be finite")
    if np.max(np.abs(mat - mat.T)) > _SYM_TOL * (1.0 + np.max(np.abs(mat))):
        raise ValueError(f"{name} must be symmetric")
    return mat


def quadratic_model(A, B, C) -> CostModel:
    """Quadratic cost x'Ax + x'B xi + xi'C xi.

    ``A`` (d x d) must be positive semi-definite and ``C`` (m x m) negative
    definite, both symmetric; ``B`` is d x m. Convexity in x and strong
    concavity in the sample follow from the eigenvalue checks here.
    """
    A = _check_square_sym(A, "A")
    C = _check_square_sym(C, "C")
    B = np.asarray(B, dtype=float)
    d, m = A.shape[0], C.shape[0]
    if B.shape != (d, m):
        raise ValueError(f"B must have shape ({d}, {m}), got {B.shape}")
    if np.linalg.eigvalsh(A).min() < -1e-9:
        raise ValueError("A must be positive semi-definite")
    if np.linalg.eigvalsh(C).max() >= -1e-12:
        raise ValueError("C must be negative definite")
    AA = A + A.T
    CC = C + C.T

    def _eval(x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        base = float(x @ A @ x)
        if xi.ndim == 1:
            return base + float(x @ B @ xi) + float(xi @ C @ xi)
        return base + xi @ (B.T @ x) + np.einsum("ni,ni->n", xi @ C, xi)

    def _grad_x(x, xi):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        ax = AA @ x
        if xi.ndim == 1:
            return ax + B @ xi
        return ax[None, :] + xi @ B.T

    def _grad_y(x, xi, y):
        # gradient of y -> f(x, xi - y): (C + C')(y - xi) - B'x, which is
        # -((xi - y) @ CC) - B'x bitwise (up to zero signs), one copy fewer
        x = np.asarray(x, dtype=float)
        s = np.asarray(y, dtype=float) - np.asarray(xi, dtype=float)
        bx = B.T @ x
        if s.ndim == 1:
            return CC @ s - bx
        return s @ CC - bx

    def _minimizer(mu):
        # the stationary points solve (A + A') x = -B mu; A is PSD, so they
        # are the minima, and there are none when B mu is outside A's range
        rhs = -(B @ np.asarray(mu, dtype=float))
        x = np.linalg.lstsq(AA, rhs, rcond=None)[0]
        residual = np.abs(AA @ x - rhs).max()
        return x if residual <= 1e-9 * (1.0 + np.abs(rhs).max()) else None

    return CostModel(d, m, _eval, _grad_x, _grad_y, sample_curvature=CC / 2.0,
                     minimizer=_minimizer)
