"""Test-session setup shared by ``tests/`` and ``perfbench/tests``.

BLAS runs single-threaded, as in ``perfbench/run.py``: the suite's own
timings then do not depend on whether a second core happens to be free.
This module is imported before any test module, so before numpy loads.
"""

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
