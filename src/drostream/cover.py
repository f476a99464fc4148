"""Incremental ball cover that compresses a stream into weighted centers.

Each arriving point either lands inside an existing Euclidean ball of
radius omega, in which case the nearest covering center counts it once
more, or opens a new center carrying the point itself. Counts are integers,
so the total mass is the stream count. Moving every absorbed point onto the
center that counted it is a feasible transport plan from the stream's
empirical measure to the compressed one; the cover adds up that plan's
1-norm cost, and its mean, ``transport_slack()``, bounds the 1-norm W1
distance between the two measures.
"""

from __future__ import annotations

import numpy as np

from .certificates import DataWindow

Array = np.ndarray


class Cover:
    """Mutable cover state: center coordinates, integer counts and the
    1-norm cost of moving each absorbed point onto its center.

    The 2-norm decides membership and the nearest center; the cost is
    measured in the 1-norm of the transport ball. A point within omega of
    its center in the 2-norm may lie up to sqrt(m) * omega from it in the
    1-norm, which the slack, not omega, accounts for.
    """

    def __init__(self, omega: float):
        if omega <= 0:
            raise ValueError("omega must be positive")
        self.omega = omega
        self.dimension: int | None = None
        self._centers: list[Array] = []
        self._counts: list[int] = []
        self._moved = 0.0
        self.n_seen = 0

    @property
    def size(self) -> int:
        return len(self._centers)

    def centers(self) -> Array:
        if not self._centers:
            return np.empty((0, self.dimension or 0))
        return np.stack(self._centers)

    def theta(self) -> Array:
        return np.array(self._counts, dtype=float)

    def update(self, point: Array) -> bool:
        """Absorb one point; True when it opened a new center."""
        point = np.asarray(point, dtype=float).reshape(-1)
        if self.dimension is None:
            self.dimension = point.shape[0]
        elif point.shape[0] != self.dimension:
            raise ValueError("point dimension changed mid-stream")
        self.n_seen += 1
        if self._centers:
            centers = np.stack(self._centers)
            diff = centers - point[None, :]
            d = np.sqrt((diff * diff).sum(axis=1))
            k = int(np.argmin(d))  # the lowest index on a tie
            if d[k] <= self.omega:
                self._counts[k] += 1
                self._moved += float(np.abs(centers[k] - point).sum())
                return False
        self._centers.append(point.copy())
        self._counts.append(1)
        return True

    def window(self) -> DataWindow:
        """Weighted window over the centers; counts sum to n exactly."""
        if not self._centers:
            raise ValueError("cover is empty")
        total = sum(self._counts)
        if total != self.n_seen:
            raise RuntimeError(
                f"multiplicity mass {total} diverged from the count {self.n_seen}"
            )
        return DataWindow(self.centers(), self.theta(), self.n_seen)

    def transport_slack(self) -> float:
        """1-norm cost per unit mass of moving each absorbed point onto its
        center, which bounds the W1 distance from the stream to the window:
        a ball of radius eps + slack around the window contains the radius-eps
        ball around the stream."""
        if self.n_seen == 0:
            return 0.0
        return self._moved / self.n_seen
