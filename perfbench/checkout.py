"""Locate the checkout the benchmark lives in and import the engine from its sources."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def use_checkout_engine() -> None:
    """Put ``<checkout>/src`` first on the import path, or exit when it is missing.

    The benchmark builds nothing and installs nothing: it measures the
    sources next to it, never an installed copy of the package.
    """
    src = ROOT / "src"
    if not (src / "trustnet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no trustnet sources under {src}")
    sys.path.insert(0, str(src))
    import trustnet

    if Path(trustnet.__file__).resolve().parent != src / "trustnet":
        sys.exit(f"perfbench: imported trustnet from {trustnet.__file__}, not from {src}")
