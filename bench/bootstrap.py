"""Put the checkout's own `graphflow` on the import path, single-threaded.

Import this module before anything imports numpy: OpenBLAS reads
OPENBLAS_NUM_THREADS once, when numpy loads it. Every workload is a
closed loop with one client in one process, so BLAS gets one thread.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds the benchmark but not the program it measures."""


def import_graphflow():
    """Import the package from <checkout>/src, never from an installed copy."""
    package_dir = SRC / "graphflow"
    if not (package_dir / "__init__.py").is_file():
        raise MissingProgram(f"no graphflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphflow

    if Path(graphflow.__file__).resolve().parent != package_dir.resolve():
        raise MissingProgram(
            f"imported graphflow from {graphflow.__file__}, not from {package_dir}"
        )
    return graphflow
