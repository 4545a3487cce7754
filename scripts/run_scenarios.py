#!/usr/bin/env python3
"""Run every scenario file in a directory and collect the CSVs in one place.

Equivalent to calling `lensmimo simulate` once per file; a nonzero exit code
from any scenario stops the batch.
"""

import argparse
import pathlib
import sys

from lensmimo.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario-dir", default="scenarios")
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--seed", type=int, default=None,
                    help="override every scenario's seed")
    args = ap.parse_args()

    files = sorted(pathlib.Path(args.scenario_dir).glob("*.ini"))
    if not files:
        print(f"no scenario files in {args.scenario_dir}", file=sys.stderr)
        return 2
    for path in files:
        argv = ["simulate", "--config", str(path), "--out-dir", args.out_dir]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        print(f"== {path.name}")
        rc = cli_main(argv)
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
