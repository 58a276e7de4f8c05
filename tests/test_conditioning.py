import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy import sparse

from isingfit.conditioning import (
    _indptr,
    _set_sums,
    best_subset_for_weights,
    build_cover,
    cover_size,
    verify_cover,
)
from isingfit.core import IsingSpec, infinity_norm, validate_interaction
from isingfit.errors import (DimensionMismatch, InvalidEta, NegativeWeight, NonFinite,
                             RetryExhausted)
from isingfit.sampler import make_rng
from tests.test_core import random_spec, restrict


def random_J(n, M, seed):
    return random_spec(n, M, seed).J


def _dense(cover):
    """The cover's (ell, n) 0/1 membership matrix."""
    B = np.zeros((cover.ell, cover.n))
    B[np.repeat(np.arange(cover.ell), np.diff(cover.indptr)), cover.indices] = 1.0
    return B


def _with_members(cover, B):
    """``cover`` with its sets replaced by the rows of a 0/1 matrix B."""
    rows, cols = np.nonzero(B)
    return replace(cover, indptr=_indptr(rows, B.shape[0]), indices=cols)


def test_cover_invariants_hold():
    for M in (0.5, 2.0):
        J = random_J(60, M, seed=int(M * 10))
        cover = build_cover(J, 0.5 * min(1.0, M), rng=make_rng(1))
        report = verify_cover(J, cover)
        assert report.ok, (report.count_violations, report.row_sum_violations)


def test_cover_membership_counts_exact():
    J = random_J(40, 1.5, seed=2)
    cover = build_cover(J, 0.5, rng=make_rng(3))
    counts = np.zeros(40, dtype=int)
    for I in cover.sets:
        counts[I] += 1
    assert np.all(counts == cover.target_count)


def test_cover_row_sums_within_eta():
    J = random_J(50, 2.0, seed=4)
    eta = 0.5
    cover = build_cover(J, eta, rng=make_rng(5))
    for I in cover.sets:
        if len(I) == 0:
            continue
        sub = np.abs(J[np.ix_(I, I)]).sum(axis=1)
        assert np.all(sub <= eta + 1e-12)


def test_restricted_models_satisfy_dobrushin():
    J = random_J(30, 2.0, seed=6)
    eta = 0.5  # below 1, so conditionals are high-temperature
    cover = build_cover(J, eta, rng=make_rng(7))
    spec = IsingSpec.zero_field(J)
    rng = make_rng(8)
    # the trim empties most low-index sets; walk the first 20 non-empty ones
    sets = [I for I in cover.sets if len(I)][:20]
    assert len(sets) == 20
    for I in sets:
        x = 1.0 - 2.0 * rng.integers(0, 2, size=30)
        assert infinity_norm(restrict(spec, I, x).J) <= eta + 1e-12 < 1.0


def test_zero_matrix_single_trivial_cover():
    cover = build_cover(np.zeros((5, 5)), 0.1)
    assert cover.ell == 1
    assert np.array_equal(cover.sets[0], np.arange(5))


def test_single_site():
    cover = build_cover(np.zeros((1, 1)), 0.5)
    assert len(cover.sets) == 1


def test_invalid_eta():
    J = random_J(10, 1.0, seed=9)
    with pytest.raises(InvalidEta):
        build_cover(J, 0.0)
    with pytest.raises(InvalidEta):
        build_cover(J, 2.0)  # eta > M


def test_verify_cover_detects_membership_violation():
    J = random_J(30, 1.0, seed=12)
    cover = build_cover(J, 0.5, rng=make_rng(13))
    B = _dense(cover)
    j = np.flatnonzero(B.any(axis=1))[0]
    victim = int(np.flatnonzero(B[j])[0])
    B[j, victim] = 0.0
    broken = _with_members(cover, B)
    report = verify_cover(J, broken)
    assert not report.ok
    assert victim in report.count_violations


def test_best_subset_guarantee_uniform():
    J = random_J(40, 1.0, seed=14)
    eta = 0.5
    cover = build_cover(J, eta, rng=make_rng(15))
    j, mass = best_subset_for_weights(cover, np.ones(40))
    assert mass >= (eta / (8 * cover.M)) * 40 - 1e-9


def test_best_subset_single_coordinate():
    J = random_J(20, 1.0, seed=16)
    cover = build_cover(J, 0.5, rng=make_rng(17))
    theta = np.zeros(20)
    theta[7] = 3.0
    j, mass = best_subset_for_weights(cover, theta)
    assert mass == pytest.approx(3.0)
    assert 7 in cover.sets[j]


def test_best_subset_random_weights_exhaustive():
    J = random_J(100, 1.0, seed=18)
    eta = 0.5
    cover = build_cover(J, eta, rng=make_rng(19))
    rng = make_rng(20)
    for _ in range(20):
        theta = rng.random(100)
        j, mass = best_subset_for_weights(cover, theta)
        masses = [theta[I].sum() for I in cover.sets]
        assert mass == pytest.approx(max(masses))
        assert mass >= (eta / (8 * cover.M)) * theta.sum() - 1e-9


def test_best_subset_rejects_negative_weights():
    J = random_J(10, 1.0, seed=21)
    cover = build_cover(J, 0.5, rng=make_rng(22))
    with pytest.raises(NegativeWeight):
        best_subset_for_weights(cover, -np.ones(10))


# a NaN or infinite weight makes every mass that holds it NaN or infinite,
# and the eta/(8M) share of an infinite total says nothing
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_best_subset_rejects_non_finite_weights(bad):
    J = random_J(10, 1.0, seed=21)
    cover = build_cover(J, 0.5, rng=make_rng(22))
    theta = np.ones(10)
    theta[3] = bad
    with pytest.raises(NonFinite):
        best_subset_for_weights(cover, theta)


def test_averaging_identity():
    # (1/ell) sum_j sum_{i in I_j} theta_i == (target/ell) * sum theta
    J = random_J(30, 1.0, seed=23)
    cover = build_cover(J, 0.5, rng=make_rng(24))
    rng = make_rng(25)
    theta = rng.random(30)
    total = sum(theta[I].sum() for I in cover.sets) / cover.ell
    assert total == pytest.approx(cover.target_count / cover.ell * theta.sum())


def test_single_draw_success_rate():
    # the construction succeeds on a single redraw with probability >= 1/2;
    # check >= 0.4 empirically with independent seeds
    J = random_J(200, 2.0, seed=26)
    ok = 0
    for seed in range(200):
        try:
            build_cover(J, 0.5, rng=make_rng(seed), max_retries=1)
            ok += 1
        except RetryExhausted:  # an unlucky draw; any other error is a bug
            pass
    assert ok / 200 >= 0.4


def test_best_subset_rejects_wrong_length():
    J = random_J(20, 1.0, seed=27)
    cover = build_cover(J, 0.5, rng=make_rng(28))
    for length in (25, 10):
        with pytest.raises(DimensionMismatch):
            best_subset_for_weights(cover, np.ones(length))


def test_sets_are_read_only_views_of_members():
    J = random_J(40, 1.0, seed=29)
    cover = build_cover(J, 0.5, rng=make_rng(30))
    sets = cover.sets
    B = _dense(cover)
    assert len(sets) == cover.ell == B.shape[0]
    for I, row in zip(sets, B):
        assert np.array_equal(I, np.flatnonzero(row))
    with pytest.raises(ValueError):
        sets[0][...] = 0


# Oracle: build_cover, verify_cover and best_subset_for_weights as they ran
# when a cover was a list of index arrays, with a dense (ell, n) product in
# the build and one np.ix_ block per set in the check.  The new code must
# draw the same sets and reach the same verdicts from the same generator.

@dataclass(frozen=True)
class _ListCover:
    sets: list
    eta: float
    M: float
    target_count: int
    ell: int
    attempts: int


def _oracle_build_cover(J, eta, rng=None, max_retries=64, seed=0):
    J = validate_interaction(J)
    n = J.shape[0]
    M = infinity_norm(J)
    if M <= 0:
        # no interactions: a single full set covers everything with eta 0
        return _ListCover([np.arange(n)], eta, 0.0, 1, 1, 0)
    if not 0 < eta <= M:
        raise InvalidEta(f"need 0 < eta <= M={M:g}, got {eta:g}")
    if rng is None:
        rng = make_rng(seed)
    eta_prime = eta / M
    ell = cover_size(n, eta_prime)
    target = math.ceil(eta_prime * ell / 8.0)
    R = np.abs(J) / M  # normalized row weights
    for attempt in range(1, max_retries + 1):
        B = rng.random((ell, n)) < eta_prime / 2.0
        # within-set row sums for every (set, coordinate) pair at once
        S = B.astype(np.float64) @ R.T
        B &= S <= eta_prime
        counts = B.sum(axis=0)
        if np.all(counts >= target):
            excess = counts - target
            # drop each over-covered coordinate from its lowest-index sets
            rank = np.cumsum(B, axis=0)
            B &= rank > excess[None, :]
            sets = [np.flatnonzero(B[j]) for j in range(ell)]
            return _ListCover(sets, eta, M, target, ell, attempt)
    raise RetryExhausted(f"no valid cover after {max_retries} redraws")


def _oracle_verify_cover(J, cover):
    J = validate_interaction(J)
    n = J.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    for I in cover.sets:
        counts[I] += 1
    count_viol = np.flatnonzero(counts != cover.target_count).tolist()
    worst = 0.0
    row_viol = []
    tol = 1e-12
    for j, I in enumerate(cover.sets):
        if len(I) == 0:
            continue
        sub = np.abs(J[np.ix_(I, I)]).sum(axis=1)
        worst = max(worst, float(sub.max()))
        for pos in np.flatnonzero(sub > cover.eta + tol):
            row_viol.append((j, int(I[pos])))
    ok = not count_viol and not row_viol
    return ok, count_viol, worst, row_viol


def _oracle_best_subset_for_weights(cover, theta):
    theta = np.asarray(theta, dtype=np.float64)
    if np.any(theta < 0):
        raise NegativeWeight("weights must be nonnegative")
    masses = np.array([theta[I].sum() for I in cover.sets])
    j = int(np.argmax(masses))
    return j, float(masses[j])


def _assert_same_report(J, cover, oracle_cover):
    got = verify_cover(J, cover)
    ok, count_viol, worst, row_viol = _oracle_verify_cover(J, oracle_cover)
    assert got.ok == ok
    assert got.count_violations == count_viol
    assert got.row_sum_violations == row_viol
    assert abs(got.worst_row_sum - worst) <= 1e-15 * worst
    return got


def _assert_same_cover(J, eta, seed):
    cover = build_cover(J, eta, rng=make_rng(seed))
    oracle = _oracle_build_cover(J, eta, rng=make_rng(seed))
    assert (cover.ell, cover.target_count, cover.attempts) == \
        (oracle.ell, oracle.target_count, oracle.attempts)
    assert len(cover.sets) == len(oracle.sets)
    for I, K in zip(cover.sets, oracle.sets):
        assert np.array_equal(I, K)
    _assert_same_report(J, cover, oracle)
    rng = make_rng(seed + 1)
    for _ in range(5):
        theta = rng.random(J.shape[0])
        j, mass = best_subset_for_weights(cover, theta)
        j_oracle, mass_oracle = _oracle_best_subset_for_weights(oracle, theta)
        assert j == j_oracle
        assert mass == pytest.approx(mass_oracle, rel=1e-15)


@pytest.mark.parametrize("M,covers", [(0.5, 3), (2.0, 2), (4.0, 1)])
def test_cover_matches_list_oracle(M, covers):
    for rep in range(covers):
        J = random_J(200, M, seed=100 + rep)
        _assert_same_cover(J, min(1.0, M) / 2.0, seed=200 + rep)


def test_cover_matches_list_oracle_on_integer_weights():
    # a ring with integer weights 1..3 on its +-1 and +-2 neighbours: many
    # within-set sums of |J|/M equal eta' = eta/M, exactly or within an ulp
    # depending on the summation order; the prune and the check must break
    # those ties as the oracle does
    n = 80
    rng = make_rng(1)
    J = np.zeros((n, n))
    for d in (1, 2):
        w = rng.integers(1, 4, size=n).astype(np.float64)
        i = np.arange(n)
        J[i, (i + d) % n] = J[(i + d) % n, i] = w
    assert infinity_norm(J) == 11.0
    for eta in (5.0, 3.0):
        _assert_same_cover(J, eta, seed=32)


def test_verify_cover_reports_row_sum_violations():
    J = random_J(30, 2.0, seed=33)
    eta = 0.5
    cover = build_cover(J, eta, rng=make_rng(34))
    B = _dense(cover)
    # add coordinate i to set j where its within-set |J| sum would exceed eta
    S = B @ np.abs(J)
    j, i = np.argwhere((B == 0) & (S > eta))[0]
    B[j, i] = 1.0
    broken = _with_members(cover, B)
    oracle = _ListCover([np.flatnonzero(row) for row in B], cover.eta, cover.M,
                        cover.target_count, cover.ell, cover.attempts)
    report = _assert_same_report(J, broken, oracle)
    assert not report.ok
    assert (j, i) in report.row_sum_violations


def test_verify_cover_rejects_a_matrix_of_another_size():
    J = random_J(30, 1.0, seed=35)
    cover = build_cover(J, 0.5, rng=make_rng(36))
    for size in (40, 20):
        with pytest.raises(DimensionMismatch):
            verify_cover(random_J(size, 1.0, seed=37), cover)


# Oracle: scipy's CSR product with unit weights, as the covers computed their
# sums when they were stored as scipy arrays.  For each set it adds the rows
# V[l] of its members l one after another, in ascending l, from 0.0;
# _set_sums must give the same bits.

def _csr(indptr, indices, n):
    return sparse.csr_array((np.ones(len(indices)), indices, indptr),
                            shape=(len(indptr) - 1, n))


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _assert_sums_match_scipy(indptr, indices, W, thetas):
    n = W.shape[0]
    members = _csr(indptr, indices, n)
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    expected = (members @ W)[rows, indices]
    assert np.array_equal(_bits(_set_sums(indptr, indices, W)), _bits(expected))
    for theta in thetas:
        expected = members @ theta
        assert np.array_equal(_bits(_set_sums(indptr, indices, theta)), _bits(expected))


@pytest.mark.parametrize("n", [1, 2, 37, 200])
@pytest.mark.parametrize("eta_prime", [0.125, 0.25, 0.5])
def test_set_sums_match_scipy_bitwise(n, eta_prime):
    J = random_J(n, 2.0, seed=40 + n)  # n = 1: no interactions, one full set
    M = infinity_norm(J)
    eta = eta_prime * M if M > 0 else 0.5
    rng = make_rng(41)
    thetas = [rng.random(n) for _ in range(3)] + [np.zeros(n)]
    # the first draw of the build, before its prune, with |J|/M as weights
    if M > 0:
        ell = cover_size(n, eta_prime)
        draw = make_rng(42).random((ell, n)) < eta_prime / 2.0
        rows, cols = np.nonzero(draw)
        _assert_sums_match_scipy(_indptr(rows, ell), cols, np.abs(J) / M, thetas)
    # the trimmed cover, with empty and singleton sets, and the M = 0 full set
    cover = build_cover(J, eta, rng=make_rng(43))
    _assert_sums_match_scipy(cover.indptr, cover.indices, np.abs(J), thetas)
    report = verify_cover(J, cover)
    members = _csr(cover.indptr, cover.indices, n)
    rows = np.repeat(np.arange(cover.ell), np.diff(cover.indptr))
    worst = (members @ np.abs(J))[rows, cover.indices].max()
    assert report.ok and _bits(report.worst_row_sum) == _bits(worst)


def test_set_sums_match_scipy_bitwise_across_padding():
    # sets of every size from 0 to 25 around the padding widths, members
    # drawn at random, weights spanning many binades so the order shows
    n = 60
    rng = make_rng(44)
    sizes = np.concatenate([np.arange(26), np.arange(26)[::-1], [0, 1, 1, 0]])
    sets = [np.sort(rng.choice(n, size=s, replace=False)) for s in sizes]
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    indices = np.concatenate(sets).astype(np.int64)
    W = np.abs(random_J(n, 1.0, seed=45)) * np.exp(rng.normal(scale=8.0, size=(n, 1)))
    thetas = [rng.random(n) * np.exp(rng.normal(scale=8.0, size=n)) for _ in range(3)]
    _assert_sums_match_scipy(indptr, indices, W, thetas)


def test_best_subset_matches_scipy_masses():
    J = random_J(200, 1.0, seed=46)
    cover = build_cover(J, 0.5, rng=make_rng(47))
    members = _csr(cover.indptr, cover.indices, cover.n)
    rng = make_rng(48)
    for _ in range(100):
        theta = rng.random(200)
        masses = members @ theta
        j, mass = best_subset_for_weights(cover, theta)
        assert j == int(np.argmax(masses))
        assert _bits(mass) == _bits(masses[j])
