"""Locate the checkout and make ``import lensmimo`` load its ``src`` tree."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> Path:
    """Put ROOT/src first on the import path, or exit non-zero without it.

    The benchmark measures the code of the checkout it sits in, never an
    installed copy, so a directory without the source tree is an error.
    """
    if not (SRC / "lensmimo" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lensmimo source under {SRC}; "
                 "run from the root of a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return ROOT


def check_imported(module) -> None:
    """Exit non-zero if lensmimo was imported from anywhere but ROOT/src."""
    where = Path(module.__file__).resolve().parent
    if where != SRC / "lensmimo":
        sys.exit(f"perfbench: lensmimo imported from {where}, not {SRC}")
