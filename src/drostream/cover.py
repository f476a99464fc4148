"""Incremental ball cover that compresses a stream into weighted centers.

Each arriving point either lands inside an existing radius-omega ball, in
which case the nearest covering center counts it once more, or opens a new
center carrying the point itself. Counts are integers, so the total mass is
the stream count. Moving every absorbed point onto the center that counted
it is a feasible transport plan from the stream's empirical measure to the
compressed one; the cover adds up that plan's 1-norm cost, and its mean,
``transport_slack()``, bounds the 1-norm W1 distance between the two
measures whichever metric decides membership.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Mutable cover state: center coordinates, integer counts and the
    1-norm cost of moving each absorbed point onto its center.

    ``metric`` decides membership and the nearest center only; the cost is
    always measured in the 1-norm of the transport ball. Any 1-norm ball sits
    inside the same-radius Euclidean ball, so Euclidean covers open fewer
    centers and may move a point up to sqrt(m) * omega.
    """

    omega: float
    metric: Metric = "l1"
    dimension: int | None = None
    _centers: list[np.ndarray] = field(default_factory=list)
    _counts: list[int] = field(default_factory=list)
    _moved: float = 0.0
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
            d = _dist(centers, point, self.metric)
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
