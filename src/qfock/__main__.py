"""Command entry point: python -m qfock, and the installed qfock script.

Both entries set ``OPENBLAS_NUM_THREADS`` before numpy loads and freeze the
heap at exit, so the finalization collections skip what the imports built
(teardown ~6 ms, not ~22 ms); ``cli.main`` never freezes an in-process caller.
"""

import atexit
import gc
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads: no OpenBLAS worker (see cli)
atexit.register(gc.freeze)  # the exit-time collections then skip the import-time heap

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
