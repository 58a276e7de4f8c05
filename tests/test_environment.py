import ctypes
import os
import subprocess
import sys
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


def test_estimation_path_does_not_import_scipy(tmp_path):
    # scipy.special and scipy.sparse each cost ~0.2 s and ~20 MB to import;
    # the package needs numpy alone, covers included: enumeration at n = 8,
    # the component sampler (matchings) and Glauber (ER) at n = 24
    code = (
        "import sys, numpy as np\n"
        "import isingfit, isingfit.cli\n"
        "from isingfit import (IsingSpec, best_subset_for_weights, build_cover, fit_scalar,\n"
        "                      gram_schmidt, linear_variance_exact, log_partition,\n"
        "                      make_rng, project, tv_chi_exact, verify_cover)\n"
        "from isingfit.core import save_matrix\n"
        "from isingfit.experiments import ExperimentConfig, gen_matchings, run_trial\n"
        "from isingfit.mple import grad_beta, psi\n"
        "for generator, n, sampler in (('matchings', 8, 'exact'), ('matchings', 24, 'exact'),\n"
        "                              ('erdos_renyi_incidence', 24, 'glauber')):\n"
        "    cfg = ExperimentConfig(generator=generator, n=n, k_grid=(2,), er_p=0.2,\n"
        "                           glauber_sweeps=5)\n"
        "    rec = run_trial(cfg, 2, 0)[0]\n"
        "    assert rec.sampler == sampler and not rec.error, rec\n"
        "raw = gen_matchings(6, 2)\n"
        "b = gram_schmidt(raw)\n"
        "beta, x = np.array([0.3, -0.2]), np.array([1.0, -1, 1, 1, -1, 1])\n"
        "project(b, raw[0]), psi(b, beta, x), grad_beta(b, beta, x)\n"
        "P = IsingSpec.zero_field(0.3 * raw[0])\n"
        "Q = IsingSpec.zero_field(0.2 * raw[1])\n"
        "fit_scalar(raw[0], x, 0.5), log_partition(P), tv_chi_exact(P, Q)\n"
        "linear_variance_exact(P, x)\n"
        "cover = build_cover(raw[0], 0.5, rng=make_rng(1))\n"
        "assert verify_cover(raw[0], cover).ok\n"
        "best_subset_for_weights(cover, np.ones(6))\n"
        f"save_matrix({str(tmp_path / 'J.json')!r}, raw[0])\n"
        f"isingfit.cli.main(['cover', '--model', {str(tmp_path / 'J.json')!r},\n"
        f"                   '--eta', '0.5', '--out', {str(tmp_path / 'cover.json')!r}])\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
