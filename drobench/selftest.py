"""Self-tests of the benchmark's own arithmetic and wrappers.

    python3 drobench/selftest.py        (or: python3 -m pytest drobench/selftest.py)
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from drostream import certificates, cover, presets, runner, subgrad  # noqa: E402
from drostream.runner import RunEvent  # noqa: E402


def _event(kind, n, t, **extras) -> RunEvent:
    return RunEvent(0, kind, t, n, 0, 0, None, None, None, extras)


def test_latencies_on_hand_built_events():
    events = [
        _event("DataArrival", 1, 0.0, arrival_t=0.0),
        _event("DataArrival", 2, 0.5, arrival_t=0.5),
        _event("DecisionStep", 2, 0.7),
        _event("CertificatePosted", 2, 1.0),
        _event("DataArrival", 3, 2.0, arrival_t=1.75),
        _event("CertificatePosted", 2, 2.5),
        _event("CertificatePosted", 3, 3.0),
        _event("CertificatePosted", 3, 3.5),
        _event("DataArrival", 4, 4.0, arrival_t=4.0),
    ]
    stamps = measure.EventStamps()
    for ev in events:
        stamps(ev)
    assert len(stamps.marks) == 8  # the decision step is not stamped
    elapsed, virtual, uncovered = measure.latencies(stamps.marks)
    assert virtual == [1.0, 0.5, 1.25]
    assert len(elapsed) == 3 and all(w >= 0 for w in elapsed)
    assert uncovered == 1

    marks = [("DataArrival", 1, 0.0, 0.0, 10.0),
             ("CertificatePosted", 1, 0.25, None, 10.75)]
    assert measure.latencies(marks) == ([0.75], [0.25], 0)


def test_calibration_slices_stop_the_clock():
    stamps = measure.EventStamps(calibrate=True)
    stamps(_event("DataArrival", 1, 0.0, arrival_t=0.0))
    stamps(_event("CertificatePosted", 1, 1.0))
    assert len(stamps.slices) == 1  # the second event comes too soon
    elapsed, _, _ = measure.latencies(stamps.marks)
    assert 0 <= elapsed[0] < stamps.slices[0][1] / 2


def test_reference_clock_on_hand_built_slices():
    ref = measure.SLICE_REF_S
    # reference speed from 10 to 12, half of it from 14 on
    to_ref = measure.reference_clock([(10.0, ref), (12.0, ref),
                                      (14.0, 2 * ref), (16.0, 2 * ref)])
    got = to_ref([9.0, 10.0, 11.0, 13.0, 14.0, 16.0, 18.0])
    assert np.allclose(got, [-1.0, 0.0, 1.0, 2.75, 3.5, 4.5, 5.5])


def test_tail_percentile_keeps_enough_arrivals_beyond():
    for w in workloads.WORKLOADS.values():
        arrivals, q = w.n0 * w.streams, w.tail_percentile
        assert arrivals * (100 - q) >= 100 * workloads.TAIL_BEYOND
        assert arrivals * (99 - q) < 100 * workloads.TAIL_BEYOND


def test_self_times_on_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and a again [5, 9]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    saved = spans.CLOCK
    spans.CLOCK = lambda: next(ticks)
    try:
        tracer = spans.Tracer()
        with tracer.span("runner.run"):
            with tracer.span("simplex.a"):
                with tracer.span("model.b"):
                    pass
            with tracer.span("simplex.a"):
                pass
    finally:
        spans.CLOCK = saved
    summary = tracer.summary(0, len(tracer))
    assert summary == {
        "runner.run": (1, 10.0, 3.0),
        "simplex.a": (2, 7.0, 6.0),
        "model.b": (1, 1.0, 1.0),
    }
    layers = spans.layer_values(summary, {})
    assert layers["simplex.self_s"] + layers["model.self_s"] + 3.0 == 10.0

    own = spans.self_times(np.array([10.0, 3.0, 1.0, 4.0]),
                           np.array([-1, 0, 1, 0]))
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]


def _short_study1(cover_enabled: bool) -> presets.Materialized:
    cfg = presets.with_overrides(presets.study1(), n0=20,
                                 cover_enabled=cover_enabled)
    return presets.materialize(cfg)


def test_wrappers_and_slices_leave_a_short_study1_log_unchanged():
    entry_points = [(runner, "generate"), (runner, "adapt"),
                    (runner, "reuse_or_refresh"), (subgrad, "revalidate"),
                    (certificates, "afwa_maximize"),
                    (certificates, "point_search"), (cover.Cover, "update")]
    before = [getattr(obj, attr) for obj, attr in entry_points]
    for cover_enabled in (False, True):
        mat = _short_study1(cover_enabled)
        plain = measure.execute(mat.run_config, mat.stream)
        calibrated = measure.execute(mat.run_config, mat.stream,
                                     calibrate=True)
        assert calibrated.log == plain.log
        run_s, marks = calibrated.in_reference_time()
        assert run_s > 0 and len(marks) == len(calibrated.marks)
        tracer = spans.Tracer()
        config = spans.traced_config(mat.run_config, tracer)
        with spans.installed(tracer):
            traced = measure.execute(config, mat.stream, tracer)
        assert traced.log == plain.log
        assert traced.fingerprint() == plain.fingerprint()

        summary = tracer.summary(0, len(tracer))
        assert summary["runner.run"][0] == 1
        for name in ("model.eval", "model.grad_y", "simplex.afwa_maximize",
                     "simplex.point_search", "certificates.generate.cold",
                     "subgrad.subgradient"):
            assert summary[name][0] > 0, name
        assert ("cover.update" in summary) == cover_enabled
        layers = spans.layer_values(summary, tracer.counts)
        parts = summary["runner.run"][2] + sum(
            layers[layer + ".self_s"] for layer in spans.LAYERS)
        assert abs(parts - summary["runner.run"][1]) <= 1e-9
        assert layers["simplex.afwa_maximize.iters"] == (
            plain.result.totals.afwa_iters)
    assert [getattr(obj, attr) for obj, attr in entry_points] == before


def test_seed_decides_the_streams():
    name = "interrupt-reuse"
    first = workloads.stream_digest(workloads.generate_stream(name, 3, 0))
    again = workloads.stream_digest(workloads.generate_stream(name, 3, 0))
    other = workloads.stream_digest(workloads.generate_stream(name, 4, 0))
    sibling = workloads.stream_digest(workloads.generate_stream(name, 3, 1))
    assert first == again
    assert len({first, other, sibling}) == 3


if __name__ == "__main__":
    tests = [fn for key, fn in sorted(globals().items())
             if key.startswith("test_")]
    for fn in tests:
        fn()
        print(f"{fn.__name__}: ok")
