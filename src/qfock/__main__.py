"""Command entry point: python -m qfock, and the installed qfock script."""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads: no OpenBLAS worker (see cli)

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
