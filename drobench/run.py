"""drostream benchmark: one workload per process, end to end or per layer.

    python3 drobench/run.py --workload refresh-heavy --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
The workload's streams are drawn from ``--seed`` (see ``workloads.py``), fed
to ``runner.run``, written as an event log and re-checked with
``audit.verify_events``. A pass runs every stream once; there is always one
pass, and another only while it still fits in ``--seconds``. ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``. ``--trace 1`` runs the
first half of the streams untraced and then with every layer wrapped in
spans (``spans.py``) and reports the per-layer metrics. Times are CPU
seconds scaled to a reference machine speed by a calibration loop timed in
the same run (see ``measure.py``); the values before the loops between steps
scale them go to the result record. Logs,
spans and the result record, which keeps the seed, go to ``.drobench/`` in
the checkout. The last line of standard output is the JSON result.
"""

import os

# pinned before numpy loads: the timings are single-threaded by design
os.environ.update(
    OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".drobench"
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_package() -> None:
    """Import drostream from this checkout's sources, never from elsewhere."""
    if not (SRC / "drostream" / "__init__.py").is_file():
        raise ImportError(f"no drostream sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import drostream

    if Path(drostream.__file__).resolve().parent != SRC / "drostream":
        raise ImportError(f"drostream imported from {drostream.__file__}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import_package()
    except (OSError, ValueError, ImportError) as exc:
        print(f"drobench: cannot start: {exc}", file=sys.stderr)
        return 2

    import measure
    import spans
    import workloads
    from session import Session

    if args.workload not in workloads.WORKLOADS:
        print(f"drobench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    name, seed, trace = args.workload, args.seed, args.trace
    streams = workloads.WORKLOADS[name].streams
    tail_q = workloads.WORKLOADS[name].tail_percentile
    OUT.mkdir(exist_ok=True)

    setup, calibrations = [], []
    for _ in range(SETUP_REPEATS):
        calibrations.append(measure.calibration_s())
        setup.append(measure.time_setup(SRC, BENCH, name, seed, streams))
    mats = [workloads.materialize(name, seed, i) for i in range(streams)]
    session = Session(OUT, f"{name}-seed{seed}-trace{trace}", mats, trace)
    stream_seeds = [workloads.stream_seed(seed, i) for i in range(streams)]
    stream_digests = [workloads.stream_digest(m.stream) for m in mats]
    held_out = workloads.stream_digest(
        workloads.generate_stream(name, seed + 1, 0))
    session.checks["held_out_seed_changes_stream"] = (
        held_out != stream_digests[0])

    tracer = spans.Tracer() if trace else None
    traced_streams = (streams + 1) // 2  # keeps a traced run within budget
    pass_values: list[dict] = []
    t_start = perf_counter()
    while True:
        t_pass = perf_counter()
        pass_values.append(session.traced_pass(tracer, traced_streams)
                           if trace else session.end_to_end_pass())
        now = perf_counter()
        # another pass only when one more fits in the measured time
        if 2 * now - t_pass - t_start > args.seconds:
            break
    measured_s = perf_counter() - t_start
    if not trace:
        session.run(0)  # a repeat outside the measured passes

    values = {k: statistics.median(p[k] for p in pass_values)
              for k in pass_values[0]}
    if not trace:
        elapsed = session.latencies_s
        values.update(
            setup_s=statistics.median(setup),
            certify_latency_p50_ms=1e3 * measure.percentile(elapsed, 50),
            certify_latency_tail_ms=1e3 * measure.percentile(elapsed, tail_q),
            log_bytes=statistics.fmean(session.log_bytes),
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    if set(values) != set(wanted):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(wanted))} do not match "
            "BENCHMARK.json")
    # the mean, not the median: slow spells make a run slower for the share
    # of its time they last, and a mean of the interleaved loops sees them
    calibrations += session.calibrations
    scale = measure.CALIBRATION_REF_S / statistics.fmean(calibrations)
    # untraced run times and latencies come in reference seconds already
    prescaled = () if trace else (
        "run_s", "certify_latency_p50_ms", "certify_latency_tail_ms")
    metrics = {k: {"value": values[k] * scale
                   if wanted[k] in ("s", "ms") and k not in prescaled
                   else values[k], "unit": wanted[k]} for k in wanted}
    checks, audit_totals = session.checks, session.audit_totals
    result = {
        "correct": all(checks.values()),
        "attempted": sum(c for c, _ in audit_totals.values()),
        "failed": sum(f for _, f in audit_totals.values()),
        "metrics": metrics,
    }

    record = {
        "workload": name, "seed": seed, "trace": trace,
        "seconds": args.seconds, "measured_s": measured_s,
        "passes": len(pass_values), "stream_seeds": stream_seeds,
        "stream_sha256": stream_digests, "held_out_stream_sha256": held_out,
        "fingerprints": session.fingerprints, "setup_samples_s": setup,
        "calibration_samples_s": calibrations, "time_scale": scale,
        "tail_percentile": tail_q, "before_time_scale": values,
        "run_verify_samples_s": session.samples,
        "latency_samples": len(session.latencies_s),
        "pass_values": pass_values,
        "audit_checks": audit_totals, "checks": checks, **result,
    }
    (OUT / f"{session.tag}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.save(OUT / f"{session.tag}.spans.npz")

    print(f"drobench {name} seed={seed} trace={trace} streams={streams} "
          f"passes={len(pass_values)} measured={measured_s:.1f}s")
    for i, (s, d, fp) in enumerate(zip(stream_seeds, stream_digests,
                                       session.fingerprints)):
        if fp is not None:
            print(f"  stream {i}: seed={s} sha256={d[:16]} "
                  f"log_sha256={fp['log_sha256'][:16]} j_best={fp['j_best']!r}")
    print(f"  held-out stream (seed {seed + 1}): sha256={held_out[:16]}")
    print(f"  calibration: mean {statistics.fmean(calibrations):.4f}s of "
          f"{len(calibrations)}; times below are scaled by {scale:.4f}"
          + ("" if trace else "; run_s and latencies by each run's own slices"))
    if not trace:
        print(f"  latency samples: {len(session.latencies_s)}; "
              f"tail percentile: {tail_q}")
    for check, (count, failures) in audit_totals.items():
        print(f"  audit {check}: {count} checked, {failures} failed")
    for check, ok in checks.items():
        print(f"  check {check}: {'ok' if ok else 'FAIL'}")
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
