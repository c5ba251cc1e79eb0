#!/usr/bin/env python3
"""tvcsim benchmark entry point.

Usage, from the repository root:

    python3 bench/run.py --workload takeoff --seed 1 --seconds 20 --trace 0

Runs the program from this checkout's ``src/`` and exits with an error,
printing no result, when those sources are missing. See bench/README.md.
"""

import os
import sys

# BLAS threads for this process and its set-up children only; no machine setting changes
BLAS_ENV = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "tvcsim", "__init__.py")):
        sys.exit(f"error: no tvcsim sources under {SRC}")
    sys.path.insert(0, SRC)
    import harness

    sys.exit(harness.main(ROOT, BLAS_ENV))
