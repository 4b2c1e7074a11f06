"""Locates the conninsure sources of the checkout this benchmark sits in."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def use_sources() -> None:
    """Put the checkout's src/ first on sys.path, or exit non-zero without it."""
    if not os.path.isfile(os.path.join(SRC, "conninsure", "__init__.py")):
        sys.exit(f"perfbench: no conninsure sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
