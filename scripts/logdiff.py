#!/usr/bin/env python
"""Check that two event logs differ in float digits only.

    python scripts/logdiff.py A/events.jsonl B/events.jsonl [--rel 1e-12]

Walks both logs record by record and requires the same number of records
and, in each, the same kinds, keys in the same order, list lengths, and
integers, strings, booleans and nulls. Floats may differ: the script prints
how many differ and the largest relative difference,
|a - b| / max(|a|, |b|). It exits 0 when the logs match up to floats within
``--rel``, 1 on any other difference or a float off by more, and 2 when a
log cannot be read.
"""

import argparse
import json
import math
import sys


class Diff:
    """What two walked values have found so far: structural differences as
    (record, path, message), the float count, the differing floats and the
    largest relative difference with where it was."""

    def __init__(self):
        self.structural = []
        self.floats = self.differ = 0
        self.worst, self.worst_at = 0.0, None

    def walk(self, a, b, record, path):
        if type(a) is not type(b):
            self.structural.append(
                (record, path, f"{type(a).__name__} != {type(b).__name__}"))
        elif isinstance(a, dict):
            if list(a) != list(b):
                self.structural.append(
                    (record, path, f"keys {list(a)} != {list(b)}"))
                return
            for key in a:
                self.walk(a[key], b[key], record, f"{path}.{key}")
        elif isinstance(a, list):
            if len(a) != len(b):
                self.structural.append(
                    (record, path, f"length {len(a)} != {len(b)}"))
                return
            for k, (u, v) in enumerate(zip(a, b)):
                self.walk(u, v, record, f"{path}[{k}]")
        elif isinstance(a, float):
            self.floats += 1
            if a == b or (math.isnan(a) and math.isnan(b)):
                return
            self.differ += 1
            rel = abs(a - b) / max(abs(a), abs(b))
            if not math.isfinite(rel):  # against a NaN or an infinity
                rel = math.inf
            if rel > self.worst:
                self.worst, self.worst_at = rel, (record, path)
        elif a != b:
            self.structural.append((record, path, f"{a!r} != {b!r}"))


def read(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="first events.jsonl")
    parser.add_argument("b", help="second events.jsonl")
    parser.add_argument("--rel", type=float, default=1e-12,
                        help="largest relative float difference allowed")
    args = parser.parse_args(argv)
    try:
        logs = read(args.a), read(args.b)
    except (OSError, ValueError) as exc:
        print(f"logdiff: cannot read: {exc}", file=sys.stderr)
        return 2
    diff = Diff()
    if len(logs[0]) != len(logs[1]):
        diff.structural.append(
            (None, "", f"{len(logs[0])} records != {len(logs[1])}"))
    for i, (a, b) in enumerate(zip(*logs)):
        diff.walk(a, b, i, "")
    where = ("" if diff.worst_at is None else
             " at record {} {}".format(*diff.worst_at))
    print(f"{len(logs[0])} records, {diff.floats} floats, {diff.differ} "
          f"differ, largest relative difference {diff.worst:.3g}{where}")
    for record, path, message in diff.structural[:20]:
        print(f"record {record} {path or '(record)'}: {message}")
    if diff.structural:
        print(f"logdiff: {len(diff.structural)} structural differences",
              file=sys.stderr)
        return 1
    if diff.worst > args.rel:
        print(f"logdiff: a float differs by more than {args.rel:g}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
