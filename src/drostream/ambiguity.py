"""Confidence schedules and ambiguity-ball radii from concentration constants.

The radius shrinks the transport ball as data accrues while the confidence
schedule beta_n controls how fast the per-window violation probability is
spent. The measure-concentration constants (c1, c2) and the light-tail
exponent ``a`` are model inputs, not fitted quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class ConcentrationParams:
    """Constants of the finite-sample concentration bound.

    c1, c2 > 0 scale the tail probability, ``a`` > 1 is the light-tail
    exponent used in the small-sample branch, ``m`` is the sample dimension.
    """

    c1: float
    c2: float
    m: int
    a: float = 2.0

    def __post_init__(self):
        if not (self.c1 > 0 and self.c2 > 0):  # NaN too
            raise ValueError("c1 and c2 must be positive")
        if not self.a > 1:
            raise ValueError("a must exceed 1")
        if self.m < 1:
            raise ValueError("m must be a positive integer")


@dataclass(frozen=True)
class ConfidenceSchedule:
    """Per-window confidence levels beta_n in (0, 1), indexed from n=1."""

    name: str
    beta_fn: Callable[[int], float]

    def beta(self, n: int) -> float:
        b = float(self.beta_fn(n))
        if not 0.0 < b < 1.0:
            raise ValueError(f"schedule {self.name!r} left (0,1) at n={n}: {b}")
        return b


def radius(params: ConcentrationParams, beta: float, n: int) -> float:
    """Ambiguity radius eps(beta) for a window of n samples.

    With q = log(c1 / beta) / c2 the radius is (q / n) ** (1 / max(2, m))
    in the large-sample regime n >= q, and (q / n) ** (1 / a) otherwise.
    The two branches agree at n = q, so the radius is continuous in n.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if beta <= 0:
        raise ValueError("beta must be positive")
    if beta >= params.c1:
        raise ValueError(
            f"beta={beta:g} >= c1={params.c1:g}: tail bound vacuous, radius undefined"
        )
    q = math.log(params.c1 / beta) / params.c2
    exponent = 1.0 / max(2, params.m) if n >= q else 1.0 / params.a
    return (q / n) ** exponent


def study_schedule() -> ConfidenceSchedule:
    """Schedule beta_n = 0.95 exp(1 - sqrt(n)) used by the bundled presets.

    Summable in n, so the total violation probability over an infinite
    stream stays bounded.
    """
    return ConfidenceSchedule(
        name="study", beta_fn=lambda n: 0.95 * math.exp(1.0 - math.sqrt(n))
    )
