"""One set-up of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/prepare.py <workload> <work-dir>

Imports lensmimo from the checkout and writes the workload's inputs (and,
for mc_four_user, its profile cache) into <work-dir>. The runner times this
whole process as the set-up cost a user pays before the first operation.
"""

from __future__ import annotations

import sys
from pathlib import Path

from srcpath import use_checkout_source

use_checkout_source()

import workloads  # noqa: E402  (needs the source path set above)


def main(argv: list[str]) -> int:
    name, work = argv
    workloads.WORKLOADS[name].prepare(Path(work))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
