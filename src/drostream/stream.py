"""Sample streams, arrival schedules, and ground-truth estimation.

Streams draw from a finite Gaussian mixture through independent generator
channels (component choice, draws, arrival jitter each get their own spawned
bit stream) so runs replay bit-exactly from a seed. Arrival schedules map
sample indices to virtual times. The mixture's mean and covariance give a
decision's expected cost under it exactly, and with it the reference
optimum of an experiment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

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

    @property
    def mean(self) -> Array:
        return self.weights @ np.stack([c.mean for c in self.components])

    @property
    def covariance(self) -> Array:
        """Sum_i w_i (Sigma_i + (mu_i - mu)(mu_i - mu)'): the components'
        spread plus that of their means."""
        mu = self.mean
        return sum(w * (c.cov + np.outer(c.mean - mu, c.mean - mu))
                   for w, c in zip(self.weights, self.components))

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


def expected_cost(model, x: Array, spec: MixtureSpec) -> float:
    """E f(x, xi) under the mixture, exactly: f is quadratic in the sample
    with constant curvature C, so it is f(x, mu) + tr(C Sigma) for the
    mixture's mean mu and covariance Sigma."""
    return float(model.eval(x, spec.mean)) + float(
        np.trace(model.sample_curvature @ spec.covariance))


def estimate_jstar(model, spec: MixtureSpec
                   ) -> tuple[Optional[Array], Optional[float]]:
    """The reference optimum (x*, J*) of min_x E f(x, xi) under the mixture,
    from the model's minimizer at the mixture's mean; (None, None) when
    x -> f(x, mu) has no minimum or the model has no minimizer."""
    x = None if model.minimizer is None else model.minimizer(spec.mean)
    if x is None:
        return None, None
    return x, expected_cost(model, x, spec)
