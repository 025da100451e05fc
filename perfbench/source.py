"""Locate the checkout's source tree.

The benchmark imports `ciph` from `src/` next to this directory, never from an
installed copy, so it measures exactly the code of the checkout it runs in.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use() -> None:
    """Put the checkout's `src/` first on the import path, or exit non-zero."""
    if not (SRC / "ciph" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ciph source tree at {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
