"""Command-line harness: run experiments, verify logs, replay runs.

  run     execute a preset or custom config; writes events.jsonl,
          trajectory.csv, summary.json, and stream.jsonl into --out-dir.
          The summary holds the exact reference optimum under the
          mixture, the final decision's expected cost there (oos_cost),
          its certificate's value minus that cost (guarantee_margin), and
          whether the run kept pace with its stream: the p50, p90 and max
          of the periods from each arrival to the first certificate that
          covers it (latency). The stream is written first and each event
          as it is posted, so a run that fails still leaves its stream, the
          events it posted and a summary.json with status "failed", the
          error, its traceback and the config
  verify  re-check a run directory's event log against its config: replay
          the arrivals to derive each window and radius, each step's
          decision and each later epoch's start; then check each arrival's
          time and sample index, re-price every certificate and check its
          transport budget (which bounds its W1 distance), gap and
          tolerance, every step's length, and that each epoch converges
          right after its first step below eps2 and the run terminates
          right after a convergence
  replay  re-run from the dumped stream and compare event logs byte-wise

Exit codes: 0 success; 1 verification/replay mismatch or solver failure;
2 a config that cannot be built (stderr names the offending field) or a
run artifact that cannot be read or parsed (stderr names the file).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import audit, presets
from .runner import run
from .stream import dump_stream, estimate_jstar, expected_cost, load_stream

EVENTS_FILE = "events.jsonl"
TRAJECTORY_FILE = "trajectory.csv"
SUMMARY_FILE = "summary.json"
STREAM_FILE = "stream.jsonl"

TRAJECTORY_COLUMNS = (
    "virtual_time", "n", "r", "J_eps1", "rel_error", "cover_size", "cp_count",
)


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _read(path: Path, reader):
    """``reader(path)``; a file that cannot be read or parsed (bad JSON, a
    missing key) is a ConfigError that names it."""
    try:
        return reader(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise presets.ConfigError(
            path.name, f"unreadable: {type(exc).__name__}: {exc}") from exc


def _load_config(args) -> presets.ExperimentConfig:
    if args.config is not None:
        cfg = presets.from_dict(
            _read(Path(args.config), lambda p: json.loads(p.read_text())))
    elif args.preset is not None:
        cfg = presets.PRESETS[args.preset](seed=args.seed or 0)
    else:
        raise presets.ConfigError("<args>", "need --preset or --config")
    return presets.with_overrides(
        cfg, seed=args.seed, n0=args.n0, cover_enabled=args.cover)


def _out_dir(args, cfg) -> Path:
    if args.out_dir is not None:
        out = Path(args.out_dir)
    else:
        tag = "cover" if cfg.cover["enabled"] else "nocover"
        out = Path("runs") / f"{cfg.preset}-seed{cfg.seed}-{tag}"
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_outputs(out: Path, mat: presets.Materialized, result) -> dict:
    """Write the trajectory and the summary of a completed run; returns the
    summary dict."""
    x_star_est, j_star_est = estimate_jstar(mat.model, mat.mixture)
    oos_cost = expected_cost(mat.model, result.x_best, mat.mixture)
    cp_running = 0
    cover_size = None  # the size after the latest arrival; None without a cover
    rows = []
    # the periods from each arrival to the first certificate whose count
    # covers it, which is the next certificate, as it counts every arrival
    # before it
    waiting, latency = [], []
    for ev in result.events:
        if ev.kind == "DataArrival":
            cover_size = ev.extras["cover_size"]
            waiting.append(ev.extras["arrival_t"])
        if ev.kind != "CertificatePosted":
            continue
        latency += [ev.t - at for at in waiting]
        waiting.clear()
        # a reuse posts no work counts: it solves no hull
        cp_running += int(ev.extras.get("cp_calls", 0))
        rel = (
            (ev.J - j_star_est) / abs(j_star_est)
            if j_star_est not in (None, 0.0)
            else ""
        )
        rows.append({
            "virtual_time": ev.t,
            "n": ev.n,
            "r": ev.r,
            "J_eps1": ev.J,
            "rel_error": rel,
            "cover_size": "" if cover_size is None else cover_size,
            "cp_count": cp_running,
        })
    with open(out / TRAJECTORY_FILE, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TRAJECTORY_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)

    final_rel = (
        abs(result.j_best - j_star_est) / abs(j_star_est)
        if j_star_est not in (None, 0.0) else None
    )
    summary = {
        "config": mat.config.to_dict(),
        "final": {
            "x_best": np.asarray(result.x_best).tolist(),
            "j_best": result.j_best,
            "n": result.n,
            "r": result.totals.steps,
            "epochs": result.totals.epochs,
            "virtual_time": result.t_final,
            "j_star_est": j_star_est,
            "x_star_est": (None if x_star_est is None
                           else np.asarray(x_star_est).tolist()),
            "rel_error": final_rel,
            "oos_cost": oos_cost,
            "guarantee_margin": result.j_best - oos_cost,
            "latency": {"p50": float(np.percentile(latency, 50)),
                        "p90": float(np.percentile(latency, 90)),
                        "max": max(latency)},
        },
        "totals": dataclasses.asdict(result.totals),
        "cover": {"final_size": result.cover_size},
    }
    with open(out / SUMMARY_FILE, "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def cmd_run(args) -> int:
    try:
        cfg = _load_config(args)
        mat = presets.materialize(cfg)
    except presets.ConfigError as exc:
        return _fail(2, f"config error: {exc}")
    out = _out_dir(args, cfg)
    try:
        dump_stream(mat.stream, out / STREAM_FILE)
        with open(out / EVENTS_FILE, "w") as fh:
            result = run(mat.run_config, mat.stream, on_event=lambda ev:
                         fh.write(json.dumps(ev.record()) + "\n"))
        summary = write_outputs(out, mat, result)
    except Exception as exc:  # solver failure is an exit-1 diagnostic
        error = f"{type(exc).__name__}: {exc}"
        with open(out / SUMMARY_FILE, "w") as fh:
            json.dump({"status": "failed", "error": error,
                       "traceback": traceback.format_exc(),
                       "config": cfg.to_dict()}, fh, indent=2)
        return _fail(1, f"run failed: {error}")

    rel = summary["final"]["rel_error"]
    rel_txt = "n/a" if rel is None else f"{rel:.4f}"
    print(
        f"run complete: preset={cfg.preset} seed={cfg.seed} n={result.n} "
        f"J={result.j_best:.6g} rel_error={rel_txt} "
        f"cover_size={result.cover_size} epochs={result.totals.epochs} "
        f"out={out}"
    )
    return 0


def _read_events(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _load_run(run_dir: Path, stream=None) -> presets.Materialized:
    """Rebuild the run whose summary.json sits in ``run_dir``."""
    config = _read(run_dir / SUMMARY_FILE,
                   lambda p: json.loads(p.read_text())["config"])
    return presets.materialize(presets.from_dict(config), stream=stream)


def cmd_verify(args) -> int:
    run_dir = Path(args.run_dir)
    events_path = run_dir / EVENTS_FILE if run_dir.is_dir() else run_dir
    try:
        records = _read(events_path, _read_events)
        mat = _load_run(events_path.parent, stream=[])
    except presets.ConfigError as exc:
        return _fail(2, f"bad run directory: {exc}")
    rc = mat.run_config
    report = audit.verify_events(
        records, mat.model, rc.concentration, rc.schedule,
        cover_config=rc.cover, tolerances=rc.tolerances)
    for line in report.summary_lines():
        print(line)
    if report.ok:
        print("verify: all checks passed")
        return 0
    for msg in report.failures:
        print(f"  {msg}", file=sys.stderr)
    print("verify: FAILED", file=sys.stderr)
    return 1


def cmd_replay(args) -> int:
    src = Path(args.run_dir)
    try:
        original = _read(src / EVENTS_FILE, Path.read_bytes)
        mat = _load_run(src, stream=_read(src / STREAM_FILE, load_stream))
    except presets.ConfigError as exc:
        return _fail(2, f"bad run directory: {exc}")
    try:
        result = run(mat.run_config, mat.stream)
    except Exception as exc:
        return _fail(1, f"replay run failed: {type(exc).__name__}: {exc}")
    replayed = "".join(
        json.dumps(ev.record()) + "\n" for ev in result.events
    ).encode()
    if args.out_dir is not None:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / EVENTS_FILE).write_bytes(replayed)
    if replayed == original:
        print(f"replay: identical ({len(result.events)} events)")
        return 0
    return _fail(1, "replay: event log differs from the original")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drostream",
        description="Streaming distributionally robust decisions with "
                    "anytime worst-case certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured experiment")
    p_run.add_argument("--preset", choices=sorted(presets.PRESETS),
                       help="bundled experiment configuration")
    p_run.add_argument("--config", help="path to a JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None,
                       help="stream/init seed (default 0 or config value)")
    p_run.add_argument("--n0", type=int, default=None,
                       help="override the number of samples to ingest")
    cover_group = p_run.add_mutually_exclusive_group()
    cover_group.add_argument("--cover", dest="cover", action="store_true",
                             default=None, help="force the cover on")
    cover_group.add_argument("--no-cover", dest="cover", action="store_false",
                             help="force the cover off")
    p_run.add_argument("--out-dir", default=None,
                       help="output directory (default runs/<preset>-...)")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser(
        "verify", help="re-check a run's event log: each arrival's time "
                       "and index, each certificate's value, budget, gap "
                       "and tolerance, each step's length, and where each "
                       "epoch stops")
    p_verify.add_argument("run_dir",
                          help="run directory (or events.jsonl path)")
    p_verify.set_defaults(func=cmd_verify)

    p_replay = sub.add_parser(
        "replay", help="re-run from the dumped stream; compare event logs")
    p_replay.add_argument("run_dir", help="run directory to replay")
    p_replay.add_argument("--out-dir", default=None,
                          help="write the replayed event log here")
    p_replay.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
