"""Test-session setup shared by ``tests/`` and ``perfbench/tests``.

BLAS runs single-threaded, as in ``perfbench/run.py``: the suite's own
timings then do not depend on whether a second core happens to be free.
This module is imported before any test module, so before numpy loads.
"""

import os
import time
from types import SimpleNamespace

import pytest

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


@pytest.fixture(scope="session")
def test_03_chains():
    """Acceptance test 3's 2x10^5 multi-chain Glauber draws at n = 8, run
    once for the two tests that read them (``test_03_sampler_fidelity``
    and the ``test_03`` case of ``test_multi_chain_spins_are_pinned``):
    the matrix J, the read-only (200 000, 8) spins X, the seconds the
    chains took and the generator's next uniform after them."""
    from isingfit.core import IsingSpec
    from isingfit.sampler import GlauberConfig, glauber_sample_many, make_rng
    from tests.test_acceptance import _scaled_to_inf

    rng = make_rng(13)
    J = _scaled_to_inf(8, rng, 0.5)
    spec = IsingSpec.zero_field(J)
    start = time.perf_counter()
    X = glauber_sample_many(spec, 200_000, GlauberConfig(200, 13), rng)
    seconds = time.perf_counter() - start
    X.flags.writeable = False
    return SimpleNamespace(J=J, spec=spec, X=X, seconds=seconds, next_uniform=rng.random())
