"""Benchmark workloads: which preset each runs and how the seed becomes input.

refresh-heavy
    20 study2 prefixes of n0=10 samples, cover on (3 to 6 weighted centers,
    m=10, d=30). Nearly every step refreshes its certificate, so hull
    ascent, the model oracles, the cover and the audit of the dense plans in
    the log carry the time. A stream's work varies by 30% and more with the
    size of its cover, and a longer prefix hardly narrows that (about 24% at
    n0=100), so a run averages many short streams rather than a few long
    ones. Arrivals that open a center need the longest refresh; at n0=10
    they are a third of all arrivals, so the latency tail lies among them
    instead of on the edge between the two kinds.
interrupt-reuse
    16 study1 streams of n0=200 samples, cover off (a plain window growing to
    200 atoms). Arrivals interrupt the solver and every step reuses its
    certificate: adapt and revalidate instead of a refresh, and the cover is
    bypassed.

The certify latency tail is the highest whole percentile with at least
``TAIL_BEYOND`` of a pass's arrivals beyond it: p75 of 200 arrivals on
refresh-heavy, p98 of 3,200 on interrupt-reuse. Which streams a seed draws
moves a percentile with few arrivals beyond it more than the machine does,
so the tail keeps fifty arrivals beyond it rather than ten. On
interrupt-reuse the last quarter or so of each stream waits out a backlog
of interrupted solves, and the 90th percentile falls inside that ramp, where
the start of the backlog moves it by a third from one stream to the next;
the 98th lies near the end of the backlog and moves about half as much.

The streams are drawn from the benchmark seed; the program receives only
the generated streams (everything else, x0 included, comes from the
preset's own seed).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from drostream import presets
from drostream.stream import SamplePoint, sample_stream


TAIL_BEYOND = 50


@dataclass(frozen=True)
class Workload:
    preset: str
    n0: int
    cover: bool
    streams: int

    @property
    def tail_percentile(self) -> int:
        arrivals = self.n0 * self.streams
        return 100 * (arrivals - TAIL_BEYOND) // arrivals


WORKLOADS = {
    "refresh-heavy": Workload("study2", n0=10, cover=True, streams=20),
    "interrupt-reuse": Workload("study1", n0=200, cover=False, streams=16),
}


def stream_seed(seed: int, index: int) -> int:
    """Seed of the index-th stream of a run with benchmark seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def config(name: str) -> presets.ExperimentConfig:
    w = WORKLOADS[name]
    return presets.with_overrides(
        presets.PRESETS[w.preset](), n0=w.n0, cover_enabled=w.cover)


def generate_stream(name: str, seed: int, index: int) -> list[SamplePoint]:
    cfg = config(name)
    return sample_stream(
        presets.build_mixture(cfg.mixture), cfg.n0, stream_seed(seed, index),
        presets.build_arrival(cfg.arrival))


def materialize(name: str, seed: int, index: int) -> presets.Materialized:
    """Live run objects for one stream of the workload."""
    return presets.materialize(
        config(name), stream=generate_stream(name, seed, index))


def stream_digest(points: list[SamplePoint]) -> str:
    h = hashlib.sha256()
    for p in points:
        h.update(np.asarray(p.value, dtype=float).tobytes())
        h.update(np.float64(p.arrival_time).tobytes())
    return h.hexdigest()
