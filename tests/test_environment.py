import ctypes
import os
from pathlib import Path

import numpy as np
import pytest


def _openblas_threads():
    """OpenBLAS's thread count, read from the library bundled with numpy
    (None when numpy links another BLAS)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def test_blas_is_pinned_to_one_thread():
    # the root conftest.py sets these before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ[var] == "1"
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("numpy does not bundle OpenBLAS here")
    assert threads == 1
