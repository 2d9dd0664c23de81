"""poslab benchmark entry point.

    python3 perfbench/run.py --workload certify-mix --seed 1 --seconds 20 --trace 0

Run from the root of a poslab source tree; poslab is imported from ``src/``.
BLAS is pinned to one thread here, before anything imports numpy.  Exits 2
without printing a result when the tree has no ``src/poslab``.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")


def bootstrap() -> None:
    """Put the tree's ``src/`` first on the import path, or exit 2."""
    if not os.path.isfile(os.path.join(_SRC, "poslab", "__init__.py")):
        print(f"perfbench: no poslab sources under {_SRC}", file=sys.stderr)
        sys.exit(2)
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)


if __name__ == "__main__":
    bootstrap()
    import harness

    sys.exit(harness.main(sys.argv[1:]))
