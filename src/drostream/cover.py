"""Incremental ball cover that compresses a stream into weighted centers.

Each arriving point either lands inside existing radius-omega balls, in
which case every covering center splits one unit of mass equally, or opens
a new center carrying the point itself. Multiplicities are exact rationals
so the total mass equals the stream count with no drift. With the 1-norm
metric the compressed measure sits within (n - p)/n * omega of the full
empirical measure in 1-norm transport cost; with the Euclidean metric that
bound does not hold (ROADMAP.md, item 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal

import numpy as np

from .certificates import DataWindow

Array = np.ndarray

Metric = Literal["l1", "l2"]


def _dist(centers: Array, point: Array, metric: Metric) -> Array:
    diff = centers - point[None, :]
    if metric == "l1":
        return np.abs(diff).sum(axis=1)
    return np.sqrt((diff * diff).sum(axis=1))


@dataclass
class Cover:
    """Mutable cover state: center coordinates and rational multiplicities.

    The 1-norm metric matches the transport cost the compression bound is
    stated in; the Euclidean option trades that exact correspondence for
    coarser covers (any 1-norm ball sits inside the same-radius Euclidean
    ball, so Euclidean covers open fewer centers).
    """

    omega: float
    metric: Metric = "l1"
    dimension: int | None = None
    _centers: list[np.ndarray] = field(default_factory=list)
    _theta: list[Fraction] = field(default_factory=list)
    n_seen: int = 0

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.metric not in ("l1", "l2"):
            raise ValueError(f"unknown metric {self.metric!r}")

    @property
    def size(self) -> int:
        return len(self._centers)

    def centers(self) -> Array:
        if not self._centers:
            return np.empty((0, self.dimension or 0))
        return np.stack(self._centers)

    def theta(self) -> Array:
        return np.array([float(t) for t in self._theta])

    def theta_exact(self) -> list[Fraction]:
        return list(self._theta)

    def update(self, point: Array) -> bool:
        """Absorb one point; True when it opened a new center."""
        point = np.asarray(point, dtype=float).reshape(-1)
        if self.dimension is None:
            self.dimension = point.shape[0]
        elif point.shape[0] != self.dimension:
            raise ValueError("point dimension changed mid-stream")
        self.n_seen += 1
        if self._centers:
            d = _dist(np.stack(self._centers), point, self.metric)
            hits = np.flatnonzero(d <= self.omega)
            if hits.size:
                share = Fraction(1, int(hits.size))
                for i in hits:
                    self._theta[int(i)] += share
                return False
        self._centers.append(point.copy())
        self._theta.append(Fraction(1))
        return True

    def window(self) -> DataWindow:
        """Weighted window over the centers; multiplicities sum to n exactly."""
        if not self._centers:
            raise ValueError("cover is empty")
        total = sum(self._theta, Fraction(0))
        if total != self.n_seen:
            raise RuntimeError(
                f"multiplicity mass {total} diverged from the count {self.n_seen}"
            )
        return DataWindow(self.centers(), self.theta(), self.n_seen)

    def transport_slack(self) -> float:
        """Upper bound on the 1-norm transport distance to the full stream,
        for ``l1`` covers only: an ``l2`` cover can move a point up to
        sqrt(m) * omega in the 1-norm (ROADMAP.md, item 2)."""
        if self.n_seen == 0:
            return 0.0
        return (self.n_seen - self.size) / self.n_seen * self.omega


def inflated_radius(eps: float, omega: float) -> float:
    """Budget that makes certificates over the cover dominate the originals.

    An ``l1`` cover moves each absorbed point at most omega in the 1-norm,
    so widening the ball by omega keeps every distribution the uncompressed
    ball contains. An ``l2`` cover can move a point up to sqrt(m) * omega
    in the 1-norm, so for it this budget is too small (ROADMAP.md, item 2).
    """
    if eps < 0 or omega < 0:
        raise ValueError("radii must be nonnegative")
    return eps + omega


def rebuild(points: Array, omega: float, metric: Metric = "l1") -> Cover:
    """Cover produced by feeding ``points`` in order to a fresh instance."""
    cover = Cover(omega, metric)
    for p in np.atleast_2d(np.asarray(points, dtype=float)):
        cover.update(p)
    return cover
