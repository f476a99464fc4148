"""One benchmark process: passes over a workload's streams, and the checks.

A pass runs every stream once (``end_to_end_pass``) or, traced, runs the
first streams untraced and then with every layer in spans
(``traced_pass``). Every run is fingerprinted; a later run of the same
stream, traced or not, must repeat its log digest, ``j_best`` and counters.

An end-to-end pass turns each stream's run time and latencies into reference
seconds with the calibration slices timed inside that run
(``measure.reference_clock``); verify and set-up times, and the traced pass,
are scaled in ``run.py`` by the loops timed between steps, gathered in
``calibrations``.
"""

from __future__ import annotations

import statistics
from collections import Counter
from pathlib import Path

import measure
import spans

RUN_COUNTERS = (
    "events", "steps", "interrupts", "lp_calls", "cp_calls", "afwa_iters")


class Session:
    """What one benchmark process measures and checks."""

    def __init__(self, out: Path, tag: str, mats, trace: bool):
        self.out = out
        self.tag = tag
        self.mats = mats
        self.checks = {"runs_repeat_exactly": True,
                       "every_arrival_certified": True, "runs_terminate": True}
        if trace:
            self.checks["traced_log_identical"] = True
            self.checks["self_times_add_up"] = True
        self.fingerprints: list = [None] * len(mats)
        self.audit_totals: dict[str, tuple[int, int]] = {}
        self.latencies_s: list[float] = []  # reference seconds
        self.log_bytes: list[int] = []
        # per pass: (run_s list in reference seconds, verify_s list)
        self.samples: list[tuple] = []
        self.calibrations: list[float] = []

    def run(self, i: int, config=None, tracer=None,
            calibrate=False) -> measure.Execution:
        mat = self.mats[i]
        ex = measure.execute(config or mat.run_config, mat.stream, tracer,
                             calibrate)
        fp = ex.fingerprint()
        if self.fingerprints[i] is None:
            self.fingerprints[i] = fp
        elif fp != self.fingerprints[i]:
            check = ("runs_repeat_exactly" if tracer is None
                     else "traced_log_identical")
            self.checks[check] = False
        if ex.result.events[-1].kind != "Terminated":
            self.checks["runs_terminate"] = False
        return ex

    def latencies(self, marks: list[measure.Mark]):
        elapsed, virtual, uncovered = measure.latencies(marks)
        if uncovered:
            self.checks["every_arrival_certified"] = False
        return elapsed, virtual

    def audit(self, i: int, ex: measure.Execution):
        """Write the log and re-check it: (report, parse_s, verify_s)."""
        path = self.out / f"{self.tag}-stream{i}.events.jsonl"
        path.write_bytes(ex.log)
        report, parse_s, verify_s = measure.audit_log(path, self.mats[i])
        for c in report.checks:
            count, failures = self.audit_totals.get(c.name, (0, 0))
            self.audit_totals[c.name] = (count + c.count,
                                         failures + c.failures)
        return report, parse_s, verify_s

    def end_to_end_pass(self) -> dict:
        """Per-stream mean run time (in reference seconds) and verify time
        (not yet scaled) of one pass over all streams."""
        run_s, verify_s = [], []
        for i in range(len(self.mats)):
            self.calibrations.append(measure.calibration_s())
            ex = self.run(i, calibrate=True)
            self.calibrations.append(measure.calibration_s())
            _, parse_s, check_s = self.audit(i, ex)
            ref_run_s, ref_marks = ex.in_reference_time()
            self.latencies_s.extend(self.latencies(ref_marks)[0])
            if len(self.log_bytes) < len(self.mats):
                self.log_bytes.append(len(ex.log))
            run_s.append(ref_run_s)
            verify_s.append(parse_s + check_s)
        self.samples.append((run_s, verify_s))
        return {"run_s": statistics.fmean(run_s),
                "verify_s": statistics.fmean(verify_s)}

    def traced_pass(self, tracer: spans.Tracer, count: int) -> dict:
        """Per-layer metrics of the first ``count`` streams, as per-stream
        means (the ratios and percentiles over all of them)."""
        sums = Counter()
        virtual = []
        for i in range(count):
            self.calibrations.append(measure.calibration_s())
            plain = self.run(i)
            config = spans.traced_config(self.mats[i].run_config, tracer)
            lo = len(tracer)
            tracer.counts.clear()
            with spans.installed(tracer):
                ex = self.run(i, config, tracer)
            hi = len(tracer)
            summary = tracer.summary(lo, hi)
            virtual.extend(self.latencies(ex.marks)[1])
            self.calibrations.append(measure.calibration_s())
            report, parse_s, verify_s = self.audit(i, ex)

            v = Counter(spans.layer_values(summary, tracer.counts))
            run_s = summary["runner.run"][1]
            parts = v["runner.run.self_s"] + sum(
                v[layer + ".self_s"] for layer in spans.LAYERS)
            if abs(parts - run_s) > 1e-6 * run_s:
                self.checks["self_times_add_up"] = False
            v["runner.run.s"] += run_s
            v["trace.overhead_s"] += run_s - plain.run_s
            v["trace.spans"] += hi - lo
            fp = ex.fingerprint()
            for name in RUN_COUNTERS:
                v["runner." + name] += fp[name]
            v["cover.size_final"] += fp["cover_size"] or 0
            v["audit.parse_s"] += parse_s
            v["audit.verify_events.s"] += verify_s
            v["audit.checks"] += sum(c.count for c in report.checks)
            v["audit.failures"] += sum(c.failures for c in report.checks)
            sums.update(v)

        reused = sums.pop("subgrad.reuse_or_refresh.reused")
        out = {k: val / count for k, val in sums.items()}
        calls = sums["subgrad.reuse_or_refresh.calls"]
        out["subgrad.reuse_ratio"] = reused / calls if calls else 0.0
        out["audit.fail_share"] = sums["audit.failures"] / sums["audit.checks"]
        out["runner.vlatency_p50"] = measure.percentile(virtual, 50)
        out["runner.vlatency_p90"] = measure.percentile(virtual, 90)
        return out
