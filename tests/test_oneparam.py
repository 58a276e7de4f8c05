import math

import numpy as np
import pytest

import isingfit.oneparam as oneparam
from isingfit.basis import gram_schmidt
from isingfit.core import IsingSpec, infinity_norm, validate_interaction
from isingfit.errors import DimensionMismatch, InvalidBudget, InvalidTolerance
from isingfit.mple import MpleConfig, directional_second_derivative, fit, neg_log_pl
from isingfit.oneparam import ScalarFitResult, fit_scalar, phi_prime
from isingfit.sampler import (
    enumerate_distribution,
    exact_sample,
    log_partition,
    make_rng,
    spin_table,
)
from tests.test_core import random_spec


# Oracles: phi(beta) = neg_log_pl(beta J) and phi''(beta), the curvature
# along J at beta J.
def phi_scalar(beta, J, x):
    return neg_log_pl(beta * validate_interaction(J), x)


def phi_double_prime(beta, J, x):
    J = validate_interaction(J)
    return directional_second_derivative(beta * J, J, x)


def unit_inf_matrix(n, seed):
    J = random_spec(n, 1.0, seed).J
    assert infinity_norm(J) == pytest.approx(1.0)
    return J


def test_phi_at_zero():
    J = unit_inf_matrix(8, seed=1)
    rng = make_rng(2)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=8)
    assert phi_scalar(0.0, J, x) == pytest.approx(8 * math.log(2))
    assert phi_prime(0.0, J, x) == pytest.approx(-float(x @ J @ x))


def test_phi_prime_finite_difference():
    J = unit_inf_matrix(10, seed=3)
    rng = make_rng(4)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=10)
    for beta in (-0.7, 0.0, 0.4, 1.3):
        t = 1e-6
        fd = (phi_scalar(beta + t, J, x) - phi_scalar(beta - t, J, x)) / (2 * t)
        assert phi_prime(beta, J, x) == pytest.approx(fd, rel=1e-7, abs=1e-7)


def test_phi_double_prime_finite_difference():
    J = unit_inf_matrix(10, seed=5)
    rng = make_rng(6)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=10)
    for beta in (-0.5, 0.2, 0.9):
        t = 1e-4
        fd = (phi_scalar(beta + t, J, x) - 2 * phi_scalar(beta, J, x)
              + phi_scalar(beta - t, J, x)) / t ** 2
        assert phi_double_prime(beta, J, x) == pytest.approx(fd, rel=1e-5)


def test_phi_double_prime_floor():
    J = unit_inf_matrix(12, seed=7)
    rng = make_rng(8)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=12)
    f = J @ x
    for beta in (-1.0, -0.3, 0.0, 0.6, 1.0):
        floor = np.sum(f ** 2) / math.cosh(abs(beta) * np.max(np.abs(f))) ** 2
        assert phi_double_prime(beta, J, x) >= floor - 1e-12


def test_phi_convex_prime_nondecreasing():
    J = unit_inf_matrix(9, seed=9)
    rng = make_rng(10)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=9)
    grid = np.linspace(-2, 2, 41)
    vals = [phi_prime(b, J, x) for b in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(phi_double_prime(b, J, x) >= 0 for b in grid)


def test_fit_scalar_matches_grid_search():
    n = 12
    J = unit_inf_matrix(n, seed=11)
    spec = IsingSpec.zero_field(0.3 * J)
    dist = enumerate_distribution(spec)
    rng = make_rng(12)
    for _ in range(5):
        x = exact_sample(dist, rng)
        res = fit_scalar(J, x, M=1.0, tol=1e-13)
        grid = np.arange(-1.0, 1.0 + 1e-12, 1e-3)
        vals = np.array([phi_scalar(b, J, x) for b in grid])
        best = grid[int(np.argmin(vals))]
        assert abs(res.beta_hat - best) <= 2e-3  # grid resolution limited
        # stationarity at the reported point
        if not res.boundary:
            assert abs(res.phi_prime_at_hat) <= 1e-10 or abs(
                phi_prime(res.beta_hat, J, x)) <= 1e-6


def test_fit_scalar_stationary_at_zero_crossing():
    # x with x'Jx = 0 makes beta = 0 stationary when the tanh terms cancel;
    # engineered two-spin case: J couples (0,1) and x = (+1, -1)
    J = np.zeros((2, 2))
    J[0, 1] = J[1, 0] = 1.0
    x = np.array([1.0, -1.0])
    assert phi_prime(0.0, J, x) == pytest.approx(float(-x @ J @ x))
    res = fit_scalar(J, x, M=1.0, tol=1e-13)
    # phi'(0) = 2 > 0 here, so the minimizer is negative; check consistency
    assert res.beta_hat < 0


def test_fit_scalar_degenerate():
    res = fit_scalar(np.zeros((4, 4)), np.ones(4), M=1.0)
    assert res.degenerate
    assert res.beta_hat == 0.0
    assert math.isinf(res.certificate)


def test_fit_scalar_scaling_consistency():
    J = unit_inf_matrix(10, seed=13)
    rng = make_rng(14)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=10)
    s = 2.5
    r1 = fit_scalar(J, x, M=1.0, tol=1e-13)
    r2 = fit_scalar(J / s, x, M=s, tol=1e-13)
    assert r2.beta_hat == pytest.approx(s * r1.beta_hat, abs=1e-8)


def test_fit_scalar_matches_multiparameter_fit():
    n = 12
    J = unit_inf_matrix(n, seed=15)
    spec = IsingSpec.zero_field(0.3 * J)
    x = exact_sample(enumerate_distribution(spec), make_rng(16))
    res1 = fit_scalar(J, x, M=1.0, tol=1e-13)
    b = gram_schmidt([J])
    scale = float(np.sqrt((J ** 2).sum()))  # beta rescales by ||J||_F
    res2 = fit(b, x, MpleConfig(M=1.0, max_programs=8_000_000, grad_tol=1e-9))
    assert res2.beta_hat[0] / scale == pytest.approx(res1.beta_hat, abs=1e-4)


def test_partition_tail_bound():
    # Pr[beta* x'Jx < F] <= exp(-F/2), checked by exact tail sums
    n = 12
    for seed in (17, 18):
        J = unit_inf_matrix(n, seed=seed)
        beta_star = 0.4
        spec = IsingSpec.zero_field(beta_star * J)
        dist = enumerate_distribution(spec)
        F = log_partition(spec)
        X = spin_table(n)
        xJx = np.einsum("ci,ij,cj->c", X, J, X)
        tail = float(dist.probs[beta_star * xJx < F].sum())
        assert tail <= math.exp(-F / 2.0) + 1e-12


@pytest.mark.parametrize("scale", [1.0, -1.0, 10.0])
def test_fit_scalar_saturated_sample_is_boundary(scale):
    # Curie-Weiss block J = scale (1 - I) at n = 100 and the all-plus sample:
    # every x_i (Jx)_i has the sign of scale, so phi' keeps that sign's
    # opposite on all of [-M, M] although tanh(M * 99 * scale) rounds to +-1
    n, M = 100, 1.0
    J = scale * (np.ones((n, n)) - np.eye(n))
    res = fit_scalar(J, np.ones(n), M=M)
    assert res.boundary and not res.degenerate
    assert res.beta_hat == math.copysign(M, scale)
    assert res.phi_prime_at_hat * scale <= 0.0


def test_fit_scalar_stops_when_the_bracket_cannot_shrink(monkeypatch):
    # ||J||_inf = 1e-4 puts the root near beta = 9000, where adjacent doubles
    # lie 1.8e-12 apart, so the bracket never narrows to 1e-12; with tol = 0
    # no slope ends the search either.  A bounded slope count turns a
    # search that does not end into a failure.
    J = random_spec(14, 1e-4, seed=1).J
    x = exact_sample(enumerate_distribution(IsingSpec.zero_field(J)), make_rng(5))
    slope, calls = oneparam._slope, []

    def bounded(*args):
        calls.append(None)
        if len(calls) > 10_000:
            raise RuntimeError("fit_scalar did not stop")
        return slope(*args)

    monkeypatch.setattr(oneparam, "_slope", bounded)
    res = fit_scalar(J, x, M=1e5, tol=0.0)
    b = res.beta_hat
    assert abs(b) > 8192 and not res.boundary
    # phi' changes sign within one double of the answer
    d = [phi_prime(t, J, x) for t in (math.nextafter(b, -math.inf), b,
                                      math.nextafter(b, math.inf))]
    assert min(d[:2]) <= 0.0 <= max(d[1:])


def test_samples_must_be_spins():
    # the saturated-sample rule reads signs of x_i (Jx)_i, so x must be +-1
    J = unit_inf_matrix(8, seed=1)
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        fit_scalar(J, [1, 1, 1, 1, 0, 0, 0, 0], 1.0)
    with pytest.raises(DimensionMismatch):
        fit_scalar(J, np.ones(7), 1.0)


def test_certificate_covers_true_error():
    n = 14
    J = unit_inf_matrix(n, seed=19)
    beta_star = 0.4
    spec = IsingSpec.zero_field(beta_star * J)
    dist = enumerate_distribution(spec)
    rng = make_rng(20)
    covered = 0
    trials = 100
    for _ in range(trials):
        x = exact_sample(dist, rng)
        res = fit_scalar(J, x, M=1.0, tol=1e-13)
        if abs(res.beta_hat - beta_star) <= res.certificate:
            covered += 1
    assert covered / trials >= 0.95


def test_certificate_valid_when_row_sums_exceed_one():
    # ||J||_inf = 3, so |beta (Jx)_i| reaches past M and sech^2(M) is not
    # a curvature floor; the certificate must use sech^2(M ||Jx||_inf)
    n, M, beta_star = 14, 1.0, 0.3
    J = random_spec(n, 3.0, seed=21).J
    assert infinity_norm(J) == pytest.approx(3.0)
    dist = enumerate_distribution(IsingSpec.zero_field(beta_star * J))
    rng = make_rng(22)
    grid = np.linspace(-M, M, 401)
    for _ in range(60):
        x = exact_sample(dist, rng)
        res = fit_scalar(J, x, M=M, tol=1e-13)
        min_curv = min(phi_double_prime(b, J, x) for b in grid)
        assert res.second_deriv_floor <= min_curv * (1 + 1e-12)
        deriv = max(abs(phi_prime(-M, J, x)), abs(phi_prime(M, J, x)))
        assert res.certificate >= deriv / min_curv * (1 - 1e-12)
        assert abs(res.beta_hat - beta_star) <= res.certificate


# ---------------------------------------------------------------------------
# Oracle: fit_scalar as it was before it shared mple's gradient kernel,
# kept verbatim apart from its name: every bisection step calls its own
# phi', which re-validates J and re-forms Jx.


def _parent_prep(J, x):
    J = validate_interaction(J)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (J.shape[0],):
        raise DimensionMismatch("sample length does not match J")
    return J @ x, x


def _parent_phi_prime(beta, J, x):
    f, x = _parent_prep(J, x)
    return float(np.sum(f * (np.tanh(beta * f) - x)))


def _parent_curvature_floor(f, M):
    t = M * float(np.max(np.abs(f)))
    if t > 300.0:
        return 0.0
    return float(np.sum(f ** 2)) / math.cosh(t) ** 2


def _parent_certificate(deriv_mag, floor):
    return deriv_mag / floor if floor > 0.0 else math.inf


def _parent_fit_scalar(J, x, M, tol=1e-10):
    f, xv = _parent_prep(J, x)
    if not np.any(f):
        return ScalarFitResult(0.0, 0.0, 0.0, math.inf, (-M, M),
                               degenerate=True)
    floor = _parent_curvature_floor(f, M)
    lo, hi = -float(M), float(M)
    d_lo = _parent_phi_prime(lo, J, x)
    d_hi = _parent_phi_prime(hi, J, x)
    cert = _parent_certificate(max(abs(d_lo), abs(d_hi)), floor)
    if d_lo > 0:
        return ScalarFitResult(lo, d_lo, floor, cert, (-M, M), boundary=True)
    if d_hi < 0:
        return ScalarFitResult(hi, d_hi, floor, cert, (-M, M), boundary=True)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        d = _parent_phi_prime(mid, J, x)
        if abs(d) <= tol:
            return ScalarFitResult(mid, d, floor, cert, (-M, M))
        if d < 0:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return ScalarFitResult(mid, _parent_phi_prime(mid, J, x), floor, cert, (-M, M))


# the n = 14 draws of test_certificate_covers_true_error and
# test_certificate_valid_when_row_sums_exceed_one: (||J||_inf, J seed,
# beta*, draw seed, draws)
_DRAWS = [(1.0, 19, 0.4, 20, 100), (3.0, 21, 0.3, 22, 60)]


@pytest.mark.parametrize("row_sum,j_seed,beta_star,draw_seed,draws", _DRAWS)
@pytest.mark.parametrize("tol", [1e-10, 1e-13])
def test_fit_scalar_matches_bisection_oracle(row_sum, j_seed, beta_star,
                                             draw_seed, draws, tol):
    J = random_spec(14, row_sum, seed=j_seed).J
    dist = enumerate_distribution(IsingSpec.zero_field(beta_star * J))
    rng = make_rng(draw_seed)
    for _ in range(draws):
        x = exact_sample(dist, rng)
        got = fit_scalar(J, x, M=1.0, tol=tol)
        want = _parent_fit_scalar(J, x, M=1.0, tol=tol)
        assert got.beta_hat == want.beta_hat
        assert (got.boundary, got.degenerate) == (want.boundary, want.degenerate)
        assert got.second_deriv_floor == want.second_deriv_floor
        assert got.certificate == pytest.approx(want.certificate, rel=1e-12)


# A negative M would bracket [-M, M] backwards, and its "boundary" answer
# would lie outside the budget.
@pytest.mark.parametrize("M", [math.nan, math.inf, -math.inf, -1.0])
def test_fit_scalar_rejects_a_budget_that_is_not_finite_and_non_negative(M):
    J = unit_inf_matrix(8, seed=1)
    x = np.array([1.0, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
    with pytest.raises(InvalidBudget):
        fit_scalar(J, x, M)


# An infinite tol would accept the first bisection midpoint, 0, whatever
# phi' is there.
@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12])
def test_fit_scalar_rejects_a_tolerance_that_is_not_finite_and_non_negative(tol):
    J = np.kron(np.eye(3), [[0.0, 0.4], [0.4, 0.0]])  # three coupled pairs
    x = np.array([1.0, 1.0, 1.0, -1.0, 1.0, 1.0])
    assert not fit_scalar(J, x, 1.0).boundary and abs(phi_prime(0.0, J, x)) > 0.1
    with pytest.raises(InvalidTolerance, match="tol must be finite and >= 0"):
        fit_scalar(J, x, 1.0, tol=tol)


def test_fit_scalar_at_a_zero_budget_returns_zero():
    J = unit_inf_matrix(8, seed=1)
    x = np.array([1.0, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
    res = fit_scalar(J, x, 0.0)
    assert res.beta_hat == 0.0 and res.bracket == (0.0, 0.0)
