"""Sample streams, arrival schedules, and ground-truth estimation.

Streams draw from a finite Gaussian mixture through independent generator
channels (component choice, draws, arrival jitter each get their own spawned
bit stream) so runs replay bit-exactly from a seed. Arrival schedules map
sample indices to virtual times; the estimators solve the large-sample
average problem to give experiments a reference optimum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Literal, Optional, Sequence

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class MixtureComponent:
    mean: Array
    cov: Array

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape must match the mean")
        if not np.allclose(cov, cov.T, atol=1e-9):
            raise ValueError("covariance must be symmetric")
        try:
            # sample() draws through this factor, so it must exist
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("covariance must be positive definite") from None
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class MixtureSpec:
    components: tuple[MixtureComponent, ...]
    weights: Array

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.size != len(self.components):
            raise ValueError("one weight per component")
        if w.min() < 0 or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be a probability vector")
        dims = {c.mean.size for c in self.components}
        if len(dims) != 1:
            raise ValueError("components must share a dimension")
        w = w / w.sum()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def dimension(self) -> int:
        return self.components[0].mean.size

    def sample(self, rng_choice: np.random.Generator, rng_draw: np.random.Generator,
               count: int) -> Array:
        idx = rng_choice.choice(len(self.components), size=count, p=self.weights)
        out = np.empty((count, self.dimension))
        for i, c in enumerate(self.components):
            rows = np.flatnonzero(idx == i)
            if rows.size:
                out[rows] = rng_draw.multivariate_normal(
                    c.mean, c.cov, size=rows.size, method="cholesky"
                )
        return out


@dataclass(frozen=True)
class SamplePoint:
    index: int
    value: Array
    arrival_time: float


def channels(seed: int, count: int = 4) -> list[np.random.Generator]:
    """Independent generator channels spawned from one root seed."""
    seqs = np.random.SeedSequence(seed).spawn(count)
    return [np.random.Generator(np.random.PCG64(s)) for s in seqs]


@dataclass(frozen=True)
class FixedPeriod:
    """One arrival every ``period`` units of virtual time."""

    period: float

    def __post_init__(self):
        if not self.period > 0:  # NaN too
            raise ValueError("period must exceed zero")

    def times(self, count: int, rng: np.random.Generator) -> Array:
        return self.period * np.arange(1, count + 1, dtype=float)


@dataclass(frozen=True)
class UniformRandomPeriod:
    """Independent inter-arrival gaps drawn uniformly from [low, high].

    Gaps of at least one period keep random arrivals no faster than the
    fixed schedule's unit rate, so budgets calibrated there stay valid.
    """

    low: float
    high: float

    def __post_init__(self):
        if not (1.0 <= self.low <= self.high):
            raise ValueError("need 1 <= low <= high")

    def times(self, count: int, rng: np.random.Generator) -> Array:
        gaps = rng.uniform(self.low, self.high, size=count)
        return np.cumsum(gaps)


def sample_stream(
    spec: MixtureSpec,
    count: int,
    seed: int,
    schedule: FixedPeriod | UniformRandomPeriod,
) -> list[SamplePoint]:
    """Draw ``count`` points with their arrival times, reproducibly."""
    rng_choice, rng_draw, rng_jitter, _ = channels(seed)
    values = spec.sample(rng_choice, rng_draw, count)
    times = schedule.times(count, rng_jitter)
    return [
        SamplePoint(i, values[i], float(times[i])) for i in range(count)
    ]


def dump_stream(points: Sequence[SamplePoint], path) -> None:
    with open(path, "w") as fh:
        for p in points:
            fh.write(
                json.dumps(
                    {"index": p.index, "t": p.arrival_time, "value": p.value.tolist()}
                )
                + "\n"
            )


def load_stream(path) -> list[SamplePoint]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            out.append(
                SamplePoint(
                    int(rec["index"]),
                    np.asarray(rec["value"], dtype=float),
                    float(rec["t"]),
                )
            )
    return out


def minimize_sample_average(
    model,
    points: Array,
    x0: Array,
    iters: int = 4000,
    step: float = 0.5,
) -> tuple[Array, float]:
    """Projected gradient descent with backtracking on the sample average.

    The trial step halves until the Armijo decrease holds, so the routine
    needs no curvature knowledge; ``step`` only seeds the first trial.
    Returns the best iterate and its value.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    x = np.asarray(x0, dtype=float).copy()
    if model.project is not None:
        x = model.project(x)

    def avg_val(xx):
        return float(np.mean(model.eval(xx, points)))

    def project(xx):
        return xx if model.project is None else model.project(xx)

    v = avg_val(x)
    best_x, best_v = x.copy(), v
    trial = float(step)
    for _ in range(iters):
        g = np.asarray(model.grad_x(x, points), dtype=float).reshape(
            points.shape[0], -1
        ).mean(axis=0)
        trial = min(trial * 2.0, 1e6)  # let the step recover between rounds
        while True:
            cand = project(x - trial * g)
            move = cand - x
            cand_v = avg_val(cand)
            if cand_v <= v + float(g @ move) + float(move @ move) / (
                2.0 * trial
            ) + 1e-12:
                break
            trial *= 0.5
            if trial < 1e-14:
                cand, cand_v = x, v
                break
        if np.abs(cand - x).max() <= 1e-12 * max(1.0, np.abs(x).max()):
            x, v = cand, cand_v
            break
        x, v = cand, cand_v
        if v < best_v:
            best_x, best_v = x.copy(), v
    return best_x, best_v


def estimate_jstar(
    model,
    spec: MixtureSpec,
    seed: int,
    n_validation: int = 4000,
    x0: Optional[Array] = None,
    iters: int = 4000,
) -> tuple[Array, float]:
    """Reference optimum from a large held-out draw (seed offset keeps the
    validation channel disjoint from any run stream)."""
    rng_choice, rng_draw, _, _ = channels(seed + 90_001)
    pts = spec.sample(rng_choice, rng_draw, n_validation)
    if x0 is None:
        x0 = np.zeros(model.dimension_d)
    return minimize_sample_average(model, pts, x0, iters=iters)
