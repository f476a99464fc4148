"""What one benchmark run of one stream measures, and how.

``execute`` times ``runner.run`` and stamps the clock at every arrival and
certificate through the public ``on_event`` hook; ``latencies`` turns the
stamps into per-sample certify latencies. ``audit_log`` times parsing the
written ``events.jsonl`` and ``audit.verify_events``; ``time_setup`` times a
fresh interpreter through ``import drostream`` and ``presets.materialize``.

Every time is the CPU time of the process that does the work (``CLOCK``, or
the child's CPU time for set-up). The run is single-threaded by design and
waits on nothing, so on an idle machine its CPU time is its wall time; on a
shared one CPU time leaves out the spells in which the process is not
running, and on a Linux guest that accounts steal time also those in which
the host does not run the guest. What is left is the host's speed, which on
the shared 2-core machine the benchmark was tuned on drifted by a fifth and
more within minutes, and by as much from one second to the next.
``calibration_s`` times a fixed loop that does not touch drostream, and the
benchmark reports times in seconds of a machine on which the loop takes
``CALIBRATION_REF_S``. A loop timed between two steps says little about the
speed during a three-second run, so ``EventStamps`` also times short slices
of the loop inside the run, at most one every ``SLICE_INTERVAL_S``; it
stops the clock while it does, so neither the run time nor any latency
includes them, and ``reference_clock`` turns the run's stamps into
reference seconds at the speed each stretch of the run saw. On that machine,
with a competing process on the same core, repeated runs of the same
streams had run times and latencies within 1 to 2% of each other
(coefficient of variation), against 3 to 7% for wall time scaled by the
run's mean speed.
"""

from __future__ import annotations

import hashlib
import json
import resource
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from time import process_time

import numpy as np

from drostream import audit, presets, runner

Mark = tuple  # (kind, n, virtual t, arrival_t or None, clock seconds)
CLOCK = process_time
CALIBRATION_ROUNDS = 2500
CALIBRATION_REF_S = 0.05
SLICE_ROUNDS = 100
SLICE_REF_S = CALIBRATION_REF_S * SLICE_ROUNDS / CALIBRATION_ROUNDS
SLICE_INTERVAL_S = 0.04


class EventStamps:
    """``on_event`` hook keeping the marks latency extraction needs.

    With ``calibrate`` it also times a slice of the calibration loop at an
    event once ``SLICE_INTERVAL_S`` have passed since the last one, and keeps
    (stamp, seconds) for each. Its clock (``now``) leaves out the time the
    hook spends, slices included.
    """

    def __init__(self, calibrate: bool = False):
        self.marks: list[Mark] = []
        self.calibrate = calibrate
        self.paused_s = 0.0
        self.slices: list[tuple[float, float]] = []
        self._next_slice = 0.0

    def now(self) -> float:
        return CLOCK() - self.paused_s

    def __call__(self, ev: runner.RunEvent) -> None:
        entered = CLOCK()
        stamp = entered - self.paused_s
        if ev.kind == "DataArrival" or ev.kind == "CertificatePosted":
            self.marks.append(
                (ev.kind, ev.n, ev.t, ev.extras.get("arrival_t"), stamp))
        if self.calibrate and entered >= self._next_slice:
            self.slices.append((stamp, calibration_s(SLICE_ROUNDS)))
            self._next_slice = CLOCK() + SLICE_INTERVAL_S
        self.paused_s += CLOCK() - entered


def reference_clock(slices: list[tuple[float, float]]):
    """Map run-clock stamps to seconds of the reference machine.

    A slice at stamp ``t`` that took ``d`` seconds says the machine ran at
    ``SLICE_REF_S / d`` of the reference speed there. Between two slices the
    clock runs at the mean of their speeds; before the first and after the
    last, at that slice's speed.
    """
    at = np.array([t for t, _ in slices])
    speed = SLICE_REF_S / np.array([d for _, d in slices])
    ref = np.concatenate(
        ([0.0], np.cumsum(np.diff(at) * (speed[1:] + speed[:-1]) / 2)))

    def to_reference(stamps):
        t = np.asarray(stamps, dtype=float)
        return np.where(
            t < at[0], (t - at[0]) * speed[0],
            np.where(t > at[-1], ref[-1] + (t - at[-1]) * speed[-1],
                     np.interp(t, at, ref)))

    return to_reference


def latencies(marks: list[Mark]) -> tuple[list[float], list[float], int]:
    """Per-sample latency from its DataArrival to the first CertificatePosted
    whose ``n`` covers it: (seconds on the marks' clock, virtual periods from
    ``arrival_t``, number of samples never covered)."""
    pending: list[tuple[int, float, float]] = []
    elapsed: list[float] = []
    virtual: list[float] = []
    for kind, n, t, arrival_t, stamp in marks:
        if kind == "DataArrival":
            pending.append((n, arrival_t, stamp))
            continue
        still = []
        for count, a_t, a_stamp in pending:
            if count <= n:
                elapsed.append(stamp - a_stamp)
                virtual.append(t - a_t)
            else:
                still.append((count, a_t, a_stamp))
        pending = still
    return elapsed, virtual, len(pending)


def calibration_s(rounds: int = CALIBRATION_ROUNDS) -> float:
    """Seconds for a fixed loop of the small array operations and Python
    bookkeeping a hull ascent is made of."""
    rng = np.random.default_rng(12345)
    points = rng.standard_normal((6, 10))
    hessian = rng.standard_normal((10, 10))
    ks, js = np.array([0, 2, 3, 5]), np.array([1, 4, 7, 9])
    weights = np.full(17, 1.0 / 17.0)
    acc = 0.0
    t0 = CLOCK()
    for _ in range(rounds):
        z = np.zeros((6, 10))
        np.add.at(z, (ks, js), weights[1:5] * 3.0)
        grad = -(points - z) @ hessian
        g = np.empty(17)
        g[0] = 0.0
        g[1:] = grad.ravel()[:16]
        s = int(np.argmax(g))
        avg = float(g @ weights)
        acc += g[s] - avg + np.nonzero(g > avg)[0].size
    elapsed = CLOCK() - t0
    if not np.isfinite(acc):
        raise RuntimeError("calibration loop produced a non-finite value")
    return elapsed


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass
class Execution:
    result: runner.RunResult
    start: float
    end: float
    log: bytes
    marks: list[Mark]
    slices: list[tuple[float, float]]

    @property
    def run_s(self) -> float:
        return self.end - self.start

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.log).hexdigest()

    def fingerprint(self) -> dict:
        """Everything that must repeat exactly for the same code and stream."""
        r = self.result
        return {
            "log_sha256": self.digest,
            "j_best": r.j_best,
            "events": len(r.events),
            "cover_size": r.cover_size,
            **asdict(r.totals),
        }

    def in_reference_time(self) -> tuple[float, list[Mark]]:
        """Run time and marks in reference seconds, from the run's slices."""
        to_ref = reference_clock(self.slices)
        start, end = to_ref([self.start, self.end])
        stamps = to_ref([m[-1] for m in self.marks])
        return (float(end - start),
                [m[:-1] + (float(s),) for m, s in zip(self.marks, stamps)])


def execute(config: runner.RunConfig, stream, tracer=None,
            calibrate: bool = False) -> Execution:
    """Run one stream; with a tracer the run is its ``runner.run`` span, and
    with ``calibrate`` the run times calibration slices (``EventStamps``)."""
    stamps = EventStamps(calibrate)
    span = nullcontext() if tracer is None else tracer.span("runner.run")
    start = stamps.now()
    with span:
        result = runner.run(config, stream, on_event=stamps)
    end = stamps.now()
    log = "".join(json.dumps(ev.record()) + "\n" for ev in result.events)
    return Execution(result, start, end, log.encode(), stamps.marks,
                     stamps.slices)


def audit_log(path: Path, mat: presets.Materialized):
    """(report, parse seconds, verify seconds) for the log at ``path``."""
    t0 = CLOCK()
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    t1 = CLOCK()
    rc = mat.run_config
    report = audit.verify_events(
        records, mat.model, rc.concentration, rc.schedule, cover_config=rc.cover)
    return report, t1 - t0, CLOCK() - t1


_SETUP_CHILD = (
    "import sys\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import workloads\n"
    "for i in range(int(sys.argv[5])):\n"
    "    workloads.materialize(sys.argv[3], int(sys.argv[4]), i)\n"
)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setup(src: Path, bench: Path, workload: str, seed: int,
               streams: int) -> float:
    """CPU seconds of a fresh interpreter that imports drostream and
    materializes the workload's streams."""
    before = _children_cpu_s()
    subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(src), str(bench), workload,
         str(seed), str(streams)],
        capture_output=True, text=True, timeout=120, check=True)
    return _children_cpu_s() - before
