import math

import numpy as np
import pytest
from scipy.special import logsumexp

from isingfit.conditioning import build_cover
from isingfit.core import IsingSpec
from isingfit.errors import DimensionMismatch, DimensionTooLarge
from isingfit.metrics import (
    _logsumexp,
    conditional_variance_floor,
    linear_variance_exact,
    tv_chi_exact,
)
from isingfit.sampler import enumerate_distribution, make_rng, spin_table
from tests.test_core import random_spec


def test_identical_models_zero_divergence():
    spec = random_spec(6, 1.0, seed=1, with_field=True)
    rep = tv_chi_exact(spec, spec)
    assert rep.tv == pytest.approx(0.0, abs=1e-14)
    assert rep.chi_square == pytest.approx(0.0, abs=1e-12)
    assert rep.bound_ok


def test_single_spin_tv_closed_form():
    for h1, h2 in [(0.0, 0.5), (0.3, -0.9), (1.2, 1.3)]:
        P = IsingSpec(np.zeros((1, 1)), np.array([h1]))
        Q = IsingSpec(np.zeros((1, 1)), np.array([h2]))
        rep = tv_chi_exact(P, Q)
        assert rep.tv == pytest.approx(
            0.5 * abs(math.tanh(h1) - math.tanh(h2)), abs=1e-12
        )


def test_tv_chi_bound_random_pairs():
    for seed in range(20):
        P = random_spec(7, 1.0, seed=seed, with_field=True)
        Q = random_spec(7, 1.5, seed=seed + 100, with_field=True)
        rep = tv_chi_exact(P, Q)
        assert rep.bound_ok
        assert rep.tv <= math.sqrt(rep.chi_square / 2) + 1e-12


def _tv_chi_oracle(P, Q):
    """tv_chi_exact's formulas before its temporaries were reused, kept verbatim."""
    dp = enumerate_distribution(P)
    dq = enumerate_distribution(Q)
    tv = 0.5 * float(np.sum(np.abs(dp.probs - dq.probs)))
    lp = dp.log_weights - (dp.log_partition + P.n * math.log(2.0))
    lq = dq.log_weights - (dq.log_partition + Q.n * math.log(2.0))
    chi = float(np.expm1(logsumexp(2.0 * lq - lp)))
    return tv, max(chi, 0.0)


@pytest.mark.parametrize("length", [1, 2, 3, 1000, 2 ** 16, 2 ** 18])
def test_logsumexp_matches_scipy_bitwise(length):
    rng = make_rng(length)
    for scale in (1e-3, 1.0, 30.0, 700.0):
        for shift in (0.0, 1e5, -1e5):
            for ties in (1, 2, 3):
                a = rng.normal(size=length) * scale + shift
                a[rng.choice(length, min(ties, length), replace=False)] = a.max()
                want = logsumexp(a)
                assert _logsumexp(a) == want, (scale, shift, ties)
    a = np.full(length, -2.5)
    assert _logsumexp(a) == logsumexp(a)


@pytest.mark.parametrize("with_field", [False, True])
def test_tv_chi_match_oracle_bitwise(with_field):
    for n, seed in [(1, 30), (5, 31), (8, 32), (11, 35), (12, 33), (14, 36), (16, 34)]:
        P = random_spec(n, 0.9, seed=seed, with_field=with_field)
        Q = random_spec(n, 1.4, seed=seed + 50, with_field=with_field)
        for a, b in [(P, Q), (Q, P), (P, P)]:
            rep = tv_chi_exact(a, b)
            assert (rep.tv, rep.chi_square) == _tv_chi_oracle(a, b), (n, seed)


def test_tv_symmetric_chi_not():
    P = random_spec(6, 0.8, seed=3, with_field=True)
    Q = random_spec(6, 1.6, seed=4, with_field=True)
    ab = tv_chi_exact(P, Q)
    ba = tv_chi_exact(Q, P)
    assert ab.tv == pytest.approx(ba.tv, abs=1e-12)
    assert abs(ab.chi_square - ba.chi_square) > 1e-6


def test_tv_chi_guards():
    P = random_spec(4, 1.0, seed=5)
    Q = random_spec(5, 1.0, seed=6)
    with pytest.raises(DimensionMismatch):
        tv_chi_exact(P, Q)
    big = IsingSpec.zero_field(np.zeros((19, 19)))
    with pytest.raises(DimensionTooLarge):
        tv_chi_exact(big, big)


def test_tv_slope_linear_regime():
    # TV between J and J + A shrinks linearly with ||A||_F for small A
    n = 10
    base = random_spec(n, 0.5, seed=7)
    direction = random_spec(n, 1.0, seed=8).J.copy()
    direction /= np.sqrt((direction ** 2).sum())
    slopes = []
    f = 0.25
    while f >= 0.03:
        Q = IsingSpec.zero_field(base.J + f * direction)
        rep = tv_chi_exact(base, Q)
        slopes.append(rep.tv / f)
        f /= 2
    mid = np.median(slopes)
    assert all(abs(s - mid) <= 0.2 * mid for s in slopes)


def test_linear_variance_iid_case():
    spec = IsingSpec.zero_field(np.zeros((6, 6)))
    rng = make_rng(9)
    a = rng.normal(size=6)
    assert linear_variance_exact(spec, a) == pytest.approx(float(a @ a), rel=1e-12)
    assert linear_variance_exact(spec, np.zeros(6)) == 0.0


def test_linear_variance_permutation_and_sign_invariance():
    spec = random_spec(6, 1.0, seed=10)
    rng = make_rng(11)
    a = rng.normal(size=6)
    v = linear_variance_exact(spec, a)
    assert linear_variance_exact(spec, -a) == pytest.approx(v, rel=1e-12)
    perm = rng.permutation(6)
    permuted = IsingSpec(spec.J[np.ix_(perm, perm)], spec.h[perm])
    assert linear_variance_exact(permuted, a[perm]) == pytest.approx(v, rel=1e-10)


def test_variance_floor_sweep():
    rng = make_rng(12)
    for trial in range(100):
        M = float(rng.uniform(0.2, 2.0))
        spec = random_spec(10, M, seed=3000 + trial)
        gamma = conditional_variance_floor(spec)
        a = rng.normal(size=10)
        var = linear_variance_exact(spec, a)
        assert var >= 0.01 * gamma ** 2 * float(a @ a) / max(M, 1e-12)


def test_gamma_closed_forms():
    assert conditional_variance_floor(
        IsingSpec.zero_field(np.zeros((4, 4)))) == pytest.approx(1.0)
    J = np.zeros((2, 2))
    J[0, 1] = J[1, 0] = 0.5
    assert conditional_variance_floor(IsingSpec.zero_field(J)) == pytest.approx(
        1.0 / math.cosh(0.5) ** 2
    )


def test_gamma_matches_exhaustive_scan():
    n = 10
    spec = random_spec(n, 1.5, seed=13, with_field=True)
    gamma = conditional_variance_floor(spec)
    best = math.inf
    X = spin_table(n)
    fields = X @ spec.J.T + spec.h
    best = float(np.min(1.0 / np.cosh(fields) ** 2))
    assert gamma == pytest.approx(best, abs=1e-12)
    assert gamma <= best + 1e-12


# Oracle: max |E[sum_{i in I_j} (A_i x)(x_i - tanh(J_i x)) | x_{-I_j}]| over
# the cover's sets, by exact summation over the spins inside each set, for
# randomly drawn outside assignments.  The conditional mean is identically
# zero, which is what the conditioning trick rests on.
def conditional_mean_zero_check(spec, cover, A, assignments=10, rng=None):
    if rng is None:
        rng = make_rng(0)
    A = np.asarray(A, dtype=np.float64)
    n = spec.n
    worst = 0.0
    for I in cover.sets:
        I = np.asarray(I, dtype=np.intp)
        if len(I) == 0:
            continue
        inner = spin_table(len(I))  # all 2^m assignments on I
        for _ in range(assignments):
            x = 1.0 - 2.0 * rng.integers(0, 2, size=n).astype(np.float64)
            X = np.tile(x, (inner.shape[0], 1))
            X[:, I] = inner
            # conditional weights of x_I given x_{-I}
            w = 0.5 * np.einsum("ci,ij,cj->c", X, spec.J, X) + X @ spec.h
            w -= w.max()
            p = np.exp(w)
            p /= p.sum()
            fields = X @ spec.J.T + spec.h  # (2^m, n) local fields
            terms = (X @ A.T[:, I]) * (X[:, I] - np.tanh(fields[:, I]))
            worst = max(worst, abs(float(p @ terms.sum(axis=1))))
    return worst


def test_conditional_mean_zero_exact():
    spec = random_spec(10, 1.5, seed=14)
    cover = build_cover(spec.J, 0.5, rng=make_rng(15))
    A = random_spec(10, 1.0, seed=16).J
    worst = conditional_mean_zero_check(spec, cover, A, assignments=5)
    assert worst <= 1e-10


def test_conditional_mean_zero_trivial_direction():
    spec = random_spec(8, 1.0, seed=17)
    cover = build_cover(spec.J, 0.5, rng=make_rng(18))
    worst = conditional_mean_zero_check(spec, cover, np.zeros((8, 8)),
                                        assignments=3)
    assert worst == 0.0


def test_conditional_mean_zero_many_assignments():
    spec = random_spec(10, 2.0, seed=19, with_field=True)
    cover = build_cover(spec.J, 0.6, rng=make_rng(20))
    worst = conditional_mean_zero_check(spec, cover, random_spec(10, 1.0, 21).J,
                                        assignments=50, rng=make_rng(22))
    assert worst <= 1e-10
