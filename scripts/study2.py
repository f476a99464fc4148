#!/usr/bin/env python
"""Second simulation study: 30-dim decisions against 10-dim samples.

The full preset streams 500 points; pass --n0 to run a shorter prefix
when a quick look is enough. The cover is off by default, as in the
preset; pass --cover to compress the support with it.
"""

import argparse
import sys

from drostream.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n0", type=int, default=None)
    parser.add_argument("--cover", action="store_true")
    parser.add_argument("--out-root", default="runs")
    args = parser.parse_args()

    argv = ["run", "--preset", "study2", "--seed", str(args.seed)]
    if args.n0 is not None:
        argv += ["--n0", str(args.n0)]
    tag = "cover" if args.cover else "nocover"
    argv += ["--cover"] if args.cover else ["--no-cover"]
    argv += ["--out-dir", f"{args.out_root}/study2-seed{args.seed}-{tag}"]
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
