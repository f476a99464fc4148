"""Spans around the package's layers, recorded from outside the package.

Every wrapped call records one span (name, start, end, parent) in flat
arrays kept in memory; ``Tracer.save`` writes them when the benchmark ends.
The wrappers are installed by rebinding the module attributes the callers
look up (``runner.generate``, ``certificates.afwa_maximize``, ...) and the
cost-model oracles by ``dataclasses.replace`` on the ``CostModel`` and
``RunConfig``; ``installed`` restores every binding on exit.

Layers are the package's modules. The end-to-end metric each per-layer
metric should move, and on which workload:

  model         eval/grad_y/grad_x calls and time -> run_s and verify_s on
                refresh-heavy
  simplex       afwa_maximize calls/time/self/iters, point_search calls/time
                -> run_s and certify_latency_* on both; afwa never verify_s
  certificates  generate cold/warm calls/time/self/interrupted, adapt,
                revalidate -> certify_latency_tail_ms on interrupt-reuse
                (adapt, interrupts); run_s on refresh-heavy (warm generate)
  subgrad       reuse_or_refresh calls/time, reuse_ratio, subgradient and
                scaled_step time -> run_s on interrupt-reuse (all reuse) and
                refresh-heavy (nearly no reuse)
  cover         update calls/time, window time, size_final -> run_s on
                refresh-heavy only
  runner        run self time -> run_s on both; its work counters move
                runner.vlatency_* and, through them, certify_latency_*
  audit         parse and verify_events time, checks, failures, fail_share
                -> verify_s and log_bytes on refresh-heavy
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
import numpy as np

from drostream import certificates, cover, runner, simplex, subgrad
from measure import CLOCK

LAYERS = ("model", "simplex", "certificates", "subgrad", "cover")

# per-layer metric families
CALLS_AND_TIME = (
    "model.eval", "model.grad_y", "model.grad_x", "simplex.afwa_maximize",
    "simplex.point_search", "certificates.generate.cold",
    "certificates.generate.warm", "certificates.adapt",
    "certificates.revalidate", "subgrad.reuse_or_refresh", "cover.update",
)
TIME_ONLY = ("subgrad.subgradient", "subgrad.scaled_step", "cover.window")
SELF_TIME = (
    "simplex.afwa_maximize", "certificates.generate.cold",
    "certificates.generate.warm", "runner.run",
)
NOTED = (
    "simplex.afwa_maximize.iters", "certificates.generate.cold.interrupted",
    "certificates.generate.warm.interrupted", "subgrad.reuse_or_refresh.reused",
)


class Tracer:
    """Flat in-memory span store; span ids are indices into the arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(CLOCK())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = CLOCK()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, fn, name, note=None):
        """Wrap ``fn`` in a span. ``name`` is a string or a function of the
        call's (args, kwargs); ``note(counts, name, outcome)`` sees the
        return value or the exception raised."""

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = self.open(label)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if note is not None:
                    note(self.counts, label, exc)
                raise
            finally:
                self.close(idx)
            if note is not None:
                note(self.counts, label, out)
            return out

        return traced

    def summary(self, lo: int, hi: int) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds) over spans lo..hi-1,
        which must hold whole trees."""
        nid = np.array(self.name[lo:hi], dtype=int)
        dur = np.array(self.end[lo:hi], dtype=float) - np.array(
            self.start[lo:hi], dtype=float)
        own = self_times(dur, np.array(self.parent[lo:hi], dtype=int) - lo)
        size = len(self.names)
        calls = np.bincount(nid, minlength=size)
        total = np.bincount(nid, weights=dur, minlength=size)
        self_s = np.bincount(nid, weights=own, minlength=size)
        return {
            self.names[i]: (int(calls[i]), float(total[i]), float(self_s[i]))
            for i in range(size) if calls[i]
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
        )


def layer_values(summary, counts) -> dict[str, float]:
    """Per-layer metrics of one traced run from its span summary and the
    counts the wrappers noted; each layer's self time sums its spans'."""
    out: dict[str, float] = {}
    for name in CALLS_AND_TIME:
        calls, total, _ = summary.get(name, (0, 0.0, 0.0))
        out[name + ".calls"] = calls
        out[name + ".s"] = total
    for name in TIME_ONLY:
        out[name + ".s"] = summary.get(name, (0, 0.0, 0.0))[1]
    for name in SELF_TIME:
        out[name + ".self_s"] = summary.get(name, (0, 0.0, 0.0))[2]
    for name in NOTED:
        out[name] = counts.get(name, 0)
    for layer in LAYERS:
        out[layer + ".self_s"] = sum(
            own for name, (_, _, own) in summary.items()
            if name.startswith(layer + "."))
    return out


def self_times(dur: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus its children's; ``parent`` < 0 marks a root.

    Calls are nested and sequential, so children never overlap and the part
    of a parent's interval they cover is the sum of their durations.
    """
    own = np.asarray(dur, dtype=float).copy()
    child = parent >= 0
    np.subtract.at(own, parent[child], dur[child])
    return own


def _generate_name(args, kwargs) -> str:
    warm = kwargs["warm"] if "warm" in kwargs else (
        args[5] if len(args) > 5 else None)
    return "certificates.generate." + ("cold" if warm is None else "warm")


def _note_interrupt(counts, label, outcome) -> None:
    if isinstance(outcome, certificates.CertificateInterrupted):
        counts[label + ".interrupted"] += 1


def _note_iters(counts, label, outcome) -> None:
    if isinstance(outcome, simplex.AfwaResult):
        counts[label + ".iters"] += outcome.iterations


def _note_reuse(counts, label, outcome) -> None:
    if isinstance(outcome, subgrad.ReuseOutcome) and outcome.reused:
        counts[label + ".reused"] += 1


def traced_config(config: runner.RunConfig, tracer: Tracer) -> runner.RunConfig:
    """The run config with its cost-model oracles wrapped."""
    m = config.model
    model = replace(
        m,
        eval=tracer.wrap(m.eval, "model.eval"),
        grad_x=tracer.wrap(m.grad_x, "model.grad_x"),
        grad_y=tracer.wrap(m.grad_y, "model.grad_y"),
    )
    return replace(config, model=model)


@contextmanager
def installed(tracer: Tracer):
    """Rebind every layer entry point the run reaches to a traced wrapper."""
    gen = tracer.wrap(certificates.generate, _generate_name, _note_interrupt)
    patches = [
        (runner, "generate", gen),
        (subgrad, "generate", gen),
        (runner, "adapt", tracer.wrap(certificates.adapt, "certificates.adapt")),
        (subgrad, "revalidate",
         tracer.wrap(certificates.revalidate, "certificates.revalidate")),
        (certificates, "afwa_maximize",
         tracer.wrap(simplex.afwa_maximize, "simplex.afwa_maximize", _note_iters)),
        (certificates, "point_search",
         tracer.wrap(simplex.point_search, "simplex.point_search")),
        (runner, "reuse_or_refresh",
         tracer.wrap(subgrad.reuse_or_refresh, "subgrad.reuse_or_refresh",
                     _note_reuse)),
        (runner, "subgradient",
         tracer.wrap(subgrad.subgradient, "subgrad.subgradient")),
        (runner, "scaled_step",
         tracer.wrap(subgrad.scaled_step, "subgrad.scaled_step")),
        (cover.Cover, "update", tracer.wrap(cover.Cover.update, "cover.update")),
        (cover.Cover, "window", tracer.wrap(cover.Cover.window, "cover.window")),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, fn in patches:
            setattr(obj, attr, fn)
        yield
    finally:
        for obj, attr, fn in saved:
            setattr(obj, attr, fn)
