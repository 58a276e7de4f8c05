import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from isingfit.basis import MatrixBasis, combine, gram_schmidt, project
from isingfit.core import IsingSpec, check_spins, conditional_prob_plus, infinity_norm
from isingfit.errors import (DimensionMismatch, InvalidBudget, InvalidTolerance, IsingfitError,
                             LengthMismatch, NonFinite)
from isingfit.experiments import gen_blocks, gen_erdos_renyi_incidence, gen_matchings
import isingfit.mple as mple_mod
from isingfit import experiments
from isingfit.mple import (
    DEFAULT_MAX_PROGRAMS,
    MpleConfig,
    _NNLS_RTOL,
    _kkt_residual,
    _newton_step,
    _nnls,
    _whitening,
    directional_derivative,
    directional_second_derivative,
    fit,
    grad_beta,
    neg_log_pl,
    psi,
)
from isingfit.sampler import (
    enumerate_distribution,
    exact_sample,
    make_rng,
    spin_table,
)
from tests.test_basis import edge_matrix, random_family
from tests.test_core import random_spec


def random_pair(n, seed, M=1.0):
    spec = random_spec(n, M, seed)
    rng = make_rng(seed + 1)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=n)
    return spec.J, x


def test_neg_log_pl_at_zero():
    for n in (3, 8, 20):
        x = np.ones(n)
        assert neg_log_pl(np.zeros((n, n)), x) == pytest.approx(n * math.log(2))


def test_neg_log_pl_equals_conditional_log_probs():
    for seed in range(10):
        spec = random_spec(8, 1.2, seed=seed)
        rng = make_rng(seed + 100)
        x = 1.0 - 2.0 * rng.integers(0, 2, size=8)
        total = 0.0
        for i in range(8):
            p_plus = conditional_prob_plus(spec, x, i)
            p = p_plus if x[i] == 1 else 1.0 - p_plus
            total -= math.log(p)
        assert neg_log_pl(spec.J, x) == pytest.approx(total, abs=1e-10)


def test_neg_log_pl_permutation_invariant():
    J, x = random_pair(7, seed=5)
    rng = make_rng(6)
    perm = rng.permutation(7)
    assert neg_log_pl(J[np.ix_(perm, perm)], x[perm]) == pytest.approx(
        neg_log_pl(J, x), rel=1e-12
    )


def test_neg_log_pl_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        neg_log_pl(np.zeros((3, 3)), np.ones(4))


def test_directional_derivative_zero_direction():
    J, x = random_pair(6, seed=7)
    assert directional_derivative(J, np.zeros((6, 6)), x) == 0.0


def test_directional_derivative_finite_difference():
    J, x = random_pair(20, seed=8)
    A = random_family(20, 1, seed=9)[0]
    t = 1e-5
    fd = (neg_log_pl(J + t * A, x) - neg_log_pl(J - t * A, x)) / (2 * t)
    assert directional_derivative(J, A, x) == pytest.approx(fd, rel=1e-6)


def test_directional_derivative_mean_zero_at_truth():
    # exact expectation over the model at J = J* vanishes (per-site
    # conditional means are zero), checked by full enumeration
    spec = random_spec(8, 1.0, seed=10)
    A = random_family(8, 1, seed=11)[0]
    dist = enumerate_distribution(spec)
    X = spin_table(8)
    vals = 0.5 * np.einsum("ci,ci->c", X @ A.T, np.tanh(X @ spec.J.T) - X)
    assert abs(float(dist.probs @ vals)) <= 1e-10


def test_second_derivative_finite_difference():
    J, x = random_pair(20, seed=12)
    A = random_family(20, 1, seed=13)[0]
    t = 1e-4
    fd = (neg_log_pl(J + t * A, x) - 2 * neg_log_pl(J, x)
          + neg_log_pl(J - t * A, x)) / t ** 2
    assert directional_second_derivative(J, A, x) == pytest.approx(fd, rel=1e-5)


def test_second_derivative_at_zero_interaction():
    x = np.ones(6)
    A = random_family(6, 1, seed=14)[0]
    expected = np.sum((A @ x) ** 2)
    assert directional_second_derivative(np.zeros((6, 6)), A, x) == pytest.approx(expected)
    assert directional_second_derivative(np.zeros((6, 6)), np.zeros((6, 6)), x) == 0.0


def test_second_derivative_curvature_floor():
    J, x = random_pair(12, seed=15, M=0.8)
    A = random_family(12, 1, seed=16)[0]
    M = 0.8
    floor = 0.25 * np.sum((A @ x) ** 2) / math.cosh(M) ** 2
    assert directional_second_derivative(J, A, x) >= floor - 1e-12


def test_grad_beta_matches_directional_calls():
    b = gram_schmidt(random_family(10, 3, seed=17))
    rng = make_rng(18)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=10)
    beta = rng.normal(size=3)
    g = grad_beta(b, beta, x)
    J = combine(b, beta)
    for i in range(3):
        assert g[i] == pytest.approx(directional_derivative(J, b.ortho[i], x),
                                     abs=1e-12)


def test_grad_beta_component_bound():
    # |d psi / d beta_i| <= 2n for unit-Frobenius directions (Cauchy-Schwarz:
    # ||A_i x|| <= sqrt(n) and the tanh residual has norm at most 2 sqrt(n))
    rng = make_rng(19)
    for trial in range(100):
        n = int(rng.integers(4, 16))
        k = int(rng.integers(1, 4))
        b = gram_schmidt(random_family(n, k, seed=1000 + trial))
        x = 1.0 - 2.0 * rng.integers(0, 2, size=n)
        beta = rng.normal(size=b.k) * 2
        g = grad_beta(b, beta, x)
        assert np.all(np.abs(g) <= 2 * n + 1e-9)


def test_psi_convexity_certificate():
    b = gram_schmidt(random_family(8, 3, seed=27))
    rng = make_rng(28)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=8)
    for _ in range(20):
        b1 = rng.normal(size=3)
        b2 = rng.normal(size=3)
        for t in (0.25, 0.5, 0.75):
            mid = psi(b, t * b1 + (1 - t) * b2, x)
            assert mid <= t * psi(b, b1, x) + (1 - t) * psi(b, b2, x) + 1e-9


def _fit_cfg(**kw):
    base = dict(M=0.5, max_programs=40000, grad_tol=1e-6)
    base.update(kw)
    return MpleConfig(**base)


def test_fit_one_dim_matches_grid_search():
    n = 12
    raw = random_family(n, 1, seed=29)
    b = gram_schmidt(raw)
    true_beta = 0.3
    J_star = true_beta * b.ortho[0]
    spec = IsingSpec.zero_field(J_star)
    x = exact_sample(enumerate_distribution(spec), make_rng(30))
    eps = 0.5
    res = fit(b, x, _fit_cfg(M=1.0))
    grid = np.arange(-1.0, 1.0 + 1e-9, 1e-3)
    vals = [psi(b, np.array([g]), x) for g in grid]
    assert res.psi_hat <= min(vals) + eps


def test_fit_zero_truth():
    n = 16
    b = gram_schmidt(random_family(n, 2, seed=31))
    spec = IsingSpec.zero_field(np.zeros((n, n)))
    x = exact_sample(enumerate_distribution(spec), make_rng(32))
    eps = 1.0
    res = fit(b, x, _fit_cfg(M=1.0))
    assert res.psi_hat <= n * math.log(2) + eps
    assert res.inf_norm_hat <= 3.0


def test_fit_known_truth_certificate():
    n = 64
    raw = random_family(n, 2, seed=33)
    b = gram_schmidt(raw)
    rng = make_rng(34)
    beta_star = rng.uniform(-0.5, 0.5, size=2)
    J_star = combine(b, beta_star)
    from isingfit.core import infinity_norm
    J_star *= 0.5 / infinity_norm(J_star)
    beta_star, _ = project(b, J_star)
    from isingfit.sampler import GlauberConfig, glauber_sample
    x = glauber_sample(IsingSpec.zero_field(J_star), GlauberConfig(200, 35))
    eps = 1.0
    cfg = _fit_cfg()
    res = fit(b, x, cfg)
    assert res.psi_hat <= psi(b, beta_star, x) + eps
    assert res.inf_norm_hat <= 3 * cfg.M + 1e-9


def test_fit_result_bookkeeping():
    n = 8
    b = gram_schmidt(random_family(n, 1, seed=36))
    rng = make_rng(37)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=n)
    res = fit(b, x, _fit_cfg(max_programs=500, grad_tol=0.0))
    trace = res.objective_trace
    assert res.stop_reason == "kkt" and 1 <= res.iterations < 500
    assert 2 <= len(trace) <= res.iterations + 1
    assert trace[0] == pytest.approx(n * math.log(2), rel=1e-15)
    assert np.all(np.diff(trace) < 0)  # every accepted step decreases psi
    assert trace[-1] == pytest.approx(res.psi_hat, rel=1e-12)
    assert res.kkt_residual <= 1e-8
    assert res.budget_active == (res.inf_norm_hat >= 0.5 * (1 - 1e-9))
    capped = fit(b, x, _fit_cfg(max_programs=1, grad_tol=0.0))
    assert capped.stop_reason == "iter_cap" and capped.iterations == 1
    assert capped.kkt_residual > res.kkt_residual


def test_fit_never_stacks_the_basis(monkeypatch):
    # gram_schmidt, project, psi, grad_beta and fit all work on the edge
    # view; fit reports psi and the infinity norm from its own loop
    rng = make_rng(41)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=10)
    calls = []
    stacked = MatrixBasis.stacked
    monkeypatch.setattr(MatrixBasis, "stacked",
                        lambda self: calls.append(1) or stacked(self))
    b = gram_schmidt(random_family(10, 3, seed=40))
    project(b, random_family(10, 1, seed=42)[0])
    psi(b, rng.normal(size=3), x)
    grad_beta(b, rng.normal(size=3), x)
    fit(b, x, _fit_cfg(M=0.05, max_programs=2_000, grad_tol=0.0))
    assert not calls


def test_fit_forms_no_dense_matrix():
    # one n x n float64 array is 8 MB at n = 1024; fit's arrays are O(m k)
    n = 1024
    b = gram_schmidt(gen_matchings(n, 8))
    x = np.tile([1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0, -1.0], n // 8)
    tracemalloc.start()
    try:
        res = fit(b, x, MpleConfig(M=0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.stop_reason == "kkt"
    assert peak < n * n * 8 / 4


def test_mple_config_has_three_settings():
    assert [f.name for f in dataclasses.fields(MpleConfig)] == [
        "M", "max_programs", "grad_tol"]
    assert MpleConfig(M=0.5).max_programs == DEFAULT_MAX_PROGRAMS


# NaN fails every comparison and a negative M has an empty budget ball, so
# fit could neither hold nor certify such a budget: it is refused up front.
@pytest.mark.parametrize("M", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_mple_config_rejects_a_budget_that_is_not_finite_and_non_negative(M):
    with pytest.raises(InvalidBudget):
        MpleConfig(M=M)


# fit stops "kkt" once its residual is at most grad_tol: an infinite target
# would accept beta = 0 at once, and a NaN or negative one is never met, so
# an optimal fit would end "stalled" with a zero residual.
@pytest.mark.parametrize("grad_tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_mple_config_rejects_a_tolerance_that_is_not_finite_and_non_negative(grad_tol):
    with pytest.raises(InvalidTolerance):
        MpleConfig(M=0.5, grad_tol=grad_tol)


def test_fit_at_a_zero_budget_returns_zero():
    b = gram_schmidt(gen_matchings(8, 2))
    res = fit(b, np.array([1.0, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 1.0]), MpleConfig(M=0))
    assert not res.beta_hat.any() and res.inf_norm_hat == 0.0
    assert res.stop_reason == "kkt"


@pytest.mark.parametrize("kind", ["blocks", "erdos_renyi"])
@pytest.mark.parametrize("M", [0.05, 0.5, 2.0])
def test_fit_reports_from_its_own_loop(kind, M):
    # psi_hat is the last accepted value and inf_norm_hat the edge row
    # sums at the estimate; both agree with the dense oracles on
    # combine(basis, beta_hat) up to summation order
    b = gram_schmidt(_support(kind, 24, 3))
    x = np.tile([1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0, -1.0], 3)
    res = fit(b, x, MpleConfig(M=M))
    assert res.psi_hat == res.objective_trace[-1]
    assert res.inf_norm_hat == b.row_abs_sums(b.coef @ res.beta_hat).max()
    J_hat = combine(b, res.beta_hat)
    assert res.psi_hat == pytest.approx(neg_log_pl(J_hat, x), rel=1e-12, abs=0)
    assert res.inf_norm_hat == pytest.approx(infinity_norm(J_hat), rel=1e-12, abs=0)


def test_fit_sums_rows_once_per_trial_point(monkeypatch):
    # the budget check and a cut's subgradient share one row_abs_sums pass,
    # and one more pass gives inf_norm_hat at the estimate
    rng = make_rng(41)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=10)
    calls = []
    row_abs_sums = MatrixBasis.row_abs_sums
    monkeypatch.setattr(MatrixBasis, "row_abs_sums",
                        lambda self, u: calls.append(1) or row_abs_sums(self, u))
    b = gram_schmidt(random_family(10, 3, seed=40))
    res = fit(b, x, _fit_cfg(M=0.05, max_programs=2_000, grad_tol=0.0))
    assert res.budget_active
    assert len(calls) == res.iterations + 1


def test_fit_solves_one_program_per_step(monkeypatch):
    # the certificate over the tight cuts is an NNLS, not a second program
    rng = make_rng(41)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=10)
    calls, tight = [], []
    monkeypatch.setattr(mple_mod, "_newton_step",
                        lambda *a: calls.append(1) or _newton_step(*a))
    monkeypatch.setattr(mple_mod, "_nnls",
                        lambda C, g: tight.append(len(C)) or _nnls(C, g))
    b = gram_schmidt(random_family(10, 3, seed=40))
    res = fit(b, x, _fit_cfg(M=0.05, max_programs=2_000, grad_tol=0.0))
    assert res.budget_active and max(tight) >= 1
    assert len(calls) == res.iterations


def _fit_every_certificate(basis, x, cfg):
    """fit as it was before it kept its certificate: the gradient and the
    NNLS over the tight cuts computed afresh on every pass, also after
    cuts that leave beta and the tight cuts as they were.  It adds fit's
    batch of cuts (``_new_cuts``)."""
    x = check_spins(x, basis.n)
    M = float(cfg.M)
    tol = mple_mod._BALL_RTOL
    Bx = basis.fields(x)
    beta = np.zeros(basis.k)
    f = beta @ Bx
    value = mple_mod.value_at_fields(f, x)
    cuts = np.zeros((0, basis.k))
    trace = [value]
    stop_reason = "iter_cap"
    it = 0
    while True:
        g = mple_mod.gradient_at_fields(Bx, f, x)
        slack = M - cuts @ beta
        residual = _kkt_residual(g, cuts[slack <= tol * M])
        if residual <= cfg.grad_tol:
            stop_reason = "kkt"
            break
        if it >= cfg.max_programs:
            break
        it += 1
        W = _whitening(mple_mod.curvature_at_fields(Bx, f))
        d = _newton_step(W, g, cuts, slack)
        trial = beta + d
        u = basis.coef @ trial
        row_sums = basis.row_abs_sums(u)
        peak = float(row_sums.max())
        if peak > M * (1.0 + tol):
            new = mple_mod._new_cuts(basis, u, row_sums, M * (1.0 + tol), cuts)
            if new:
                cuts = np.vstack([cuts, *new])
                continue
        if peak > M:
            d = trial * (M / peak) - beta
        step = mple_mod._armijo(Bx, x, beta, value, g @ d, d)
        if step is None:
            stop_reason = "kkt" if cfg.grad_tol == 0 else "stalled"
            break
        beta, f, value = step
        trace.append(value)
    inf_hat = float(basis.row_abs_sums(basis.coef @ beta).max())
    return mple_mod.EstimationResult(
        beta_hat=beta, objective_trace=np.array(trace), psi_hat=value,
        inf_norm_hat=inf_hat, iterations=it, stop_reason=stop_reason,
        kkt_residual=residual, budget_active=inf_hat >= M * (1.0 - tol))


def test_fit_keeps_its_certificate_with_the_same_bits(monkeypatch):
    # fit's inputs in run_trial on matchings (k = 8), ER (k = 8) and blocks
    # (k = 4) at n = 128, where the oracle repeats _nnls calls on cuts that
    # are not tight at an unchanged beta, and two small fits where a cut
    # added at an unchanged beta is tight there; fit makes each distinct
    # call of the oracle once and returns the oracle's bits
    cases = []
    monkeypatch.setattr(experiments, "fit",
                        lambda b, x, cfg: cases.append((b, x, cfg)) or fit(b, x, cfg))
    for generator, k, trials in (("matchings", 8, 3), ("erdos_renyi_incidence", 8, 2),
                                 ("blocks", 4, 2)):
        cfg = experiments.ExperimentConfig(generator=generator, n=128, k_grid=(k,),
                                           seed=61, max_iters=30_000, grad_tol=1e-4)
        for trial in range(trials):
            experiments.run_trial(cfg, k, trial)
    rng = make_rng(177)
    raw = gen_erdos_renyi_incidence(8, 2, 0.5, rng)
    cases.append((gram_schmidt(raw), 1.0 - 2.0 * rng.integers(0, 2, size=8),
                  _fit_cfg(M=0.5, grad_tol=0.0)))
    rng = make_rng(388)
    cases.append((gram_schmidt(random_family(6, 3, seed=388)),
                  1.0 - 2.0 * rng.integers(0, 2, size=6), _fit_cfg(M=0.5, grad_tol=0.0)))
    calls = []
    monkeypatch.setattr(mple_mod, "_nnls", lambda C, g: calls.append(
        (C.shape, C.tobytes(), g.tobytes())) or _nnls(C, g))
    saved = 0
    for b, x, cfg in cases:
        calls.clear()
        got = fit(b, x, cfg)
        made = list(calls)
        assert len(set(made)) == len(made)
        calls.clear()
        want = _fit_every_certificate(b, x, cfg)
        assert set(made) == set(calls)
        saved += len(calls) - len(made)
        for f in dataclasses.fields(want):
            a, w = getattr(got, f.name), getattr(want, f.name)
            if isinstance(w, np.ndarray):
                assert a.dtype == w.dtype and np.array_equal(a, w), f.name
            else:
                assert repr(a) == repr(w), f.name
    assert len(cases) == 9 and saved > 0


def _one_cut_fit(basis, x, cfg):
    """fit as it was when a trial point outside the budget added one cut,
    infnorm_subgradient's, per program (kept verbatim but for module
    prefixes)."""
    x = check_spins(x, basis.n)
    M = float(cfg.M)
    Bx = basis.fields(x)

    beta = np.zeros(basis.k)
    f = beta @ Bx
    value = mple_mod.value_at_fields(f, x)
    cuts = np.zeros((0, basis.k))
    trace = [value]
    stop_reason = "iter_cap"
    it = 0
    g = mple_mod.gradient_at_fields(Bx, f, x)
    W = _whitening(mple_mod.curvature_at_fields(Bx, f))
    certified = None  # the tight cuts that residual was computed over, at beta
    while True:
        slack = M - cuts @ beta
        tight = np.flatnonzero(slack <= mple_mod._BALL_RTOL * M)
        # a cut added at the same beta changes the certificate only if it
        # is tight there
        if certified is None or not np.array_equal(tight, certified):
            residual = _kkt_residual(g, cuts[tight])
            certified = tight
        if residual <= cfg.grad_tol:
            stop_reason = "kkt"
            break
        if it >= cfg.max_programs:
            break
        it += 1
        d = _newton_step(W, g, cuts, slack)
        trial = beta + d
        u = basis.coef @ trial
        row_sums = basis.row_abs_sums(u)
        peak = float(row_sums.max())
        if peak > M * (1.0 + mple_mod._BALL_RTOL):
            c = mple_mod.infnorm_subgradient(basis, u, row_sums)
            if not (cuts == c).all(axis=1).any():
                cuts = np.vstack([cuts, c])
                continue
        if peak > M:
            d = trial * (M / peak) - beta
        step = mple_mod._armijo(Bx, x, beta, value, g @ d, d)
        if step is None:
            stop_reason = "kkt" if cfg.grad_tol == 0 else "stalled"
            break
        beta, f, value = step
        g, W = (mple_mod.gradient_at_fields(Bx, f, x),
                _whitening(mple_mod.curvature_at_fields(Bx, f)))
        certified = None
        trace.append(value)

    inf_hat = float(basis.row_abs_sums(basis.coef @ beta).max())
    if inf_hat > M * (1.0 + mple_mod._BALL_RTOL):
        raise IsingfitError(f"estimate escaped the budget: {inf_hat!r} > {M!r}")
    return mple_mod.EstimationResult(
        beta_hat=beta,
        objective_trace=np.array(trace),
        psi_hat=value,
        inf_norm_hat=inf_hat,
        iterations=it,
        stop_reason=stop_reason,
        kkt_residual=residual,
        budget_active=inf_hat >= M * (1.0 - mple_mod._BALL_RTOL),
    )


def _trial_fits(monkeypatch, generator, k, trials):
    """fit's (basis, x, cfg) in run_trial's first trials at n = 128, k."""
    cases = []
    monkeypatch.setattr(experiments, "fit",
                        lambda b, x, cfg: cases.append((b, x, cfg)) or fit(b, x, cfg))
    cfg = experiments.ExperimentConfig(generator=generator, n=128, k_grid=(k,), seed=61,
                                       max_iters=30_000, grad_tol=1e-4)
    for trial in range(trials):
        experiments.run_trial(cfg, k, trial)
    return cases


@pytest.mark.parametrize("generator,k,trials", [("matchings", 8, 6),
                                                ("erdos_renyi_incidence", 8, 3),
                                                ("blocks", 4, 3), ("blocks", 8, 3)])
def test_fit_matches_the_one_cut_fit_in_fewer_programs(generator, k, trials, monkeypatch):
    # matchings cuts have one edge each, so the batch has the one-cut
    # fit's bits; an Erdos-Renyi row touches every member, so its first
    # cut has full support and nothing changes, iterations included;
    # blocks cuts sum several edges in another order, so within 1e-12
    got_total = want_total = 0
    for b, x, cfg in _trial_fits(monkeypatch, generator, k, trials):
        got, want = fit(b, x, cfg), _one_cut_fit(b, x, cfg)
        if generator == "erdos_renyi_incidence":
            for f in dataclasses.fields(want):
                a, w = getattr(got, f.name), getattr(want, f.name)
                if isinstance(w, np.ndarray):
                    assert a.dtype == w.dtype and np.array_equal(a, w), f.name
                else:
                    assert repr(a) == repr(w), f.name
        elif generator == "matchings":
            assert np.array_equal(got.beta_hat, want.beta_hat)
            assert repr(got.psi_hat) == repr(want.psi_hat)
            assert repr(got.kkt_residual) == repr(want.kkt_residual)
        else:
            assert np.abs(got.beta_hat - want.beta_hat).max() <= 1e-12
            assert got.psi_hat == pytest.approx(want.psi_hat, rel=1e-12, abs=0)
        assert got.iterations <= want.iterations
        got_total += got.iterations
        want_total += want.iterations
    if generator == "erdos_renyi_incidence":
        assert got_total == want_total
    else:
        assert got_total < want_total


def _row_by_row_batch(basis, u, row_sums, bound):
    """_new_cuts's choice before it drops the cuts it already has, one
    violated row at a time, most violated first, each row's cut summed
    over its own edges."""
    chosen, taken = [], np.zeros(basis.k, dtype=bool)
    for i in sorted(np.flatnonzero(row_sums > bound).tolist(), key=lambda i: (-row_sums[i], i)):
        e = np.flatnonzero((basis.rows == i) | (basis.cols == i))
        c = basis.coef[e].T @ np.sign(u[e])
        support = c != 0.0
        if not chosen or (support.any() and not (support & taken).any()):
            chosen.append(c)
            taken |= support
    return chosen


def test_fit_cuts_are_disjoint_fresh_subgradients(monkeypatch):
    # every batch fit adds at run_trial's trial points: the first cut is
    # infnorm_subgradient's bits, the supports are pairwise disjoint and
    # disjoint from it, none is a cut fit already had, the choice is the
    # row-by-row greedy one, and each holds on the whole budget
    calls = []
    new_cuts = mple_mod._new_cuts
    monkeypatch.setattr(mple_mod, "_new_cuts", lambda *a: calls.append(
        (a, new_cuts(*a))) or calls[-1][1])
    for generator, k in (("matchings", 8), ("blocks", 4), ("blocks", 8),
                         ("erdos_renyi_incidence", 8)):
        _trial_fits(monkeypatch, generator, k, trials=2)
    rng = make_rng(5)
    sizes = [len(out) for _, out in calls]
    assert max(sizes) >= 3 and 1 in sizes
    for (b, u, row_sums, bound, cuts), out in calls:
        first = mple_mod.infnorm_subgradient(b, u, row_sums)
        assert out and out[0].tobytes() == first.tobytes()
        want = _row_by_row_batch(b, u, row_sums, bound)
        assert len(out) == len(want)
        for c, w in zip(out, want):
            np.testing.assert_allclose(c, w, rtol=1e-14, atol=0)
        assert ((np.array(out) != 0.0).sum(axis=0) <= 1).all()
        assert not any(np.array_equal(c, old) for c in out for old in cuts)
        assert len({c.tobytes() for c in out}) == len(out)
        for _ in range(5):
            beta = rng.normal(size=b.k)
            norm = b.row_abs_sums(b.coef @ beta).max()
            assert all(c @ beta <= norm * (1.0 + 1e-12) for c in out)
        # cuts already present are dropped and the others kept, in order
        have = np.vstack([cuts, out[0], out[-1]])
        again = new_cuts(b, u, row_sums, bound, have)
        assert [c.tobytes() for c in again] == [c.tobytes() for c in out[1:-1]]


def test_fit_sums_rows_once_per_trial_point_with_several_cuts(monkeypatch):
    # a program that adds several cuts makes no second row_abs_sums pass
    calls, sizes = [], []
    row_abs_sums = MatrixBasis.row_abs_sums
    monkeypatch.setattr(MatrixBasis, "row_abs_sums",
                        lambda self, u: calls.append(1) or row_abs_sums(self, u))
    new_cuts = mple_mod._new_cuts
    monkeypatch.setattr(mple_mod, "_new_cuts",
                        lambda *a: sizes.append(len(out := new_cuts(*a))) or out)
    cases = _trial_fits(monkeypatch, "blocks", 8, trials=1)
    calls.clear()
    sizes.clear()
    res = fit(*cases[0])
    assert max(sizes) >= 3
    assert len(calls) == res.iterations + 1


@pytest.mark.parametrize("k", [3, 64, 65, 130])
def test_bitmasks_set_bit_s_for_column_s(k):
    rng = make_rng(k)
    support = rng.random((7, k)) < 0.3
    want = [sum(1 << s for s in np.flatnonzero(row).tolist()) for row in support]
    assert mple_mod._bitmasks(support) == want


# ---------------------------------------------------------------------------
# Oracle: the general active-set program that fit ran for its Newton step
# (and, before _nnls, for its certificate), kept verbatim.  Its
# stationarity test is absolute (a step norm of at most 1e-12), so with
# Cg in the thousands its rounded steps never reach it and it returns
# mu ~ 0; it is compared at the scale of fit's cuts and gradients, and
# _nnls and _newton_step are held to their own optimality conditions at
# every scale.


def _active_set_qp(Q, q, G, h, tol):
    """argmin 1/2 z'Qz + q'z subject to G z <= h, by a primal active-set
    method from the feasible z = 0 (every row with h_i <= tol starts in the
    working set).  Each equality-constrained step is the minimum-norm
    solution of its KKT system, so Q and the working set may be singular.
    The objective never increases, so a capped run still returns a point
    no worse than 0."""
    k = len(q)
    z = np.zeros(k)
    work = [i for i in range(len(h)) if h[i] <= tol]
    for _ in range(4 * (k + len(h)) + 4):
        A = G[work]
        # the entries of np.block([[Q, A.T], [A, 0]]) at a sixth of its cost
        K = np.zeros((k + len(work), k + len(work)))
        K[:k, :k] = Q
        K[:k, k:] = A.T
        K[k:, :k] = A
        rhs = np.concatenate([-(Q @ z + q), np.zeros(len(work))])
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
        p, mu = sol[:k], sol[k:]
        if np.linalg.norm(p) <= 1e-12 * (1.0 + np.linalg.norm(z)):
            if not work or mu.min() >= -1e-12 * (1.0 + np.abs(mu).max()):
                break
            del work[int(np.argmin(mu))]
            continue
        Gp = G @ p
        room = h - G @ z
        alpha, block = 1.0, None
        for i in np.flatnonzero(Gp > 0.0):
            if i not in work and room[i] < alpha * Gp[i]:
                alpha, block = max(room[i] / Gp[i], 0.0), int(i)
        z = z + alpha * p
        if block is not None:
            work.append(block)
    return z


def _qp_residual(g, C):
    if not len(C):
        return float(np.linalg.norm(g))
    mu = _active_set_qp(C @ C.T, C @ g, -np.eye(len(C)), np.zeros(len(C)), 0.0)
    return float(np.linalg.norm(g + C.T @ mu))


def _random_cones(seed, scale=1.0):
    """(g, C, case) over p = 1..8 cuts in k = 2..6 dimensions, each row and
    g a normal vector times ``scale`` times a factor in [0.3, 3]: generic
    cuts (p > k included), a duplicated cut, a cut that is a combination
    of two others, g inside the cone and g with Cg >= 0."""
    rng = make_rng(seed)
    for p in range(1, 9):
        for k in range(2, 7):
            for _ in range(6):
                C = rng.normal(size=(p, k)) * rng.uniform(0.3, 3.0, size=(p, 1)) * scale
                g = rng.normal(size=k) * rng.uniform(0.3, 3.0) * scale
                yield g, C, "generic"
                if p >= 2:
                    D = C.copy()
                    D[-1] = D[0]
                    yield g, D, "duplicate"
                if p >= 3:
                    D = C.copy()
                    D[-1] = rng.uniform(0.0, 2.0) * D[0] - rng.uniform(0.0, 2.0) * D[1]
                    yield g, D, "dependent"
                yield -rng.uniform(0.0, 3.0, size=p) @ C / scale, C, "inside"
                yield g, C * np.where(C @ g < 0.0, -1.0, 1.0)[:, None], "polar"


def _check_certificate(g, C, case):
    """mu = _nnls(C, g) is >= 0, and the residual is its ||g + C' mu||."""
    mu = _nnls(C, g)
    assert mu.shape == (len(C),) and np.all(mu >= 0.0), case
    got = _kkt_residual(g, C)
    assert got == float(np.linalg.norm(g + mu @ C))
    if case == "polar":
        assert got == float(np.linalg.norm(g)) and not mu.any()
    return mu, got


# ---------------------------------------------------------------------------
# Oracle: _nnls as it was before its warm start, kept verbatim: Lawson and
# Hanson's method from the empty passive set, which enters the cuts one at
# a time and solves one least squares per entering cut.


def _cold_nnls(C, g):
    """A minimizer mu >= 0 of ||g + C' mu||, the projection of -g onto the
    cone of the rows of C, by Lawson and Hanson's active-set method
    (Solving Least Squares Problems, 1974, ch. 23).

    mu = 0 when q = Cg >= 0, and -q / ||c||^2 for a single row c with
    q < 0.  Otherwise each outer step moves into the passive set P the
    cut j with the largest w_j = -c_j'(g + C' mu) above its rounding scale
    _NNLS_RTOL ||c_j|| (||g|| + sum_i mu_i ||c_i||) and takes the
    least-squares s = argmin ||g + C_P' s|| (minimum norm, so cuts in P
    may be dependent; -c'g / ||c||^2 when P is one cut c); while some
    s_i < 0 it steps from mu towards s until a coordinate of P reaches 0
    and drops it (at least the first one, so each inner step shrinks P).
    A new point is kept only if it lowers the residual in floating point;
    the point is a function of P, so no P repeats and the method stops:
    with the KKT conditions of the projection holding to rounding (no w_j
    above its tolerance), or where rounding keeps a step from lowering the
    residual.  By Caratheodory's theorem for cones the projection is
    reached on independent cuts; a cut in the span of P has w_j = 0 up to
    rounding and stays out, so p > k cuts, duplicated or dependent, need
    no special case."""
    q = C @ g
    mu = np.zeros(len(q))
    if not len(q) or q.min() >= 0.0:
        return mu
    if len(q) == 1:
        mu[0] = -q[0] / (C[0] @ C[0])
        return mu
    norms = np.sqrt((C * C).sum(axis=1))
    gnorm = math.sqrt(g @ g)
    passive = []
    value = gnorm * gnorm  # ||g + C' mu||^2
    w = -q
    while True:
        room = w - _NNLS_RTOL * norms * (gnorm + norms @ mu)
        room[passive] = -1.0
        j = int(np.argmax(room))
        if not room[j] > 0.0:
            return mu
        P = passive + [j]
        m = mu[P]
        while True:
            if len(P) == 1:
                c = C[P[0]]
                s = np.array([-(c @ g) / (c @ c)])
            else:
                s = np.linalg.lstsq(C[P].T, -g, rcond=None)[0]
            if s.min() >= 0.0:
                break
            neg = np.flatnonzero(s < 0.0)
            ratios = m[neg] / (m[neg] - s[neg])
            first = int(np.argmin(ratios))
            m = m + ratios[first] * (s - m)
            keep = m > 0.0
            keep[neg[first]] = False
            P = [i for i, kept in zip(P, keep.tolist()) if kept]
            m = m[keep]
            if not P:
                return mu
        trial = np.zeros(len(q))
        trial[P] = s
        r = g + trial @ C
        trial_value = float(r @ r)
        if not trial_value < value:
            return mu
        mu, passive, value = trial, P, trial_value
        w = -(C @ r)


def _check_warm_against_cold(g, C, case):
    """The warm _nnls reaches the cold start's residual ||g + C' mu|| to
    1e-12 of the scale ||g|| + sum_i mu_i ||c_i|| of both solutions."""
    warm, cold = _nnls(C, g), _cold_nnls(C, g)
    got = np.linalg.norm(g + warm @ C)
    want = np.linalg.norm(g + cold @ C)
    scale = np.linalg.norm(g) + np.linalg.norm(C, axis=1) @ np.maximum(warm, cold)
    assert np.all(warm >= 0.0) and abs(got - want) <= 1e-12 * scale, (case, len(C), len(g))


# With no entering tolerance a cut in the span of the passive set can
# enter on a w_j that is rounding alone, without lowering the residual:
# then only _nnls's residual test stops it.
@pytest.mark.parametrize("seed,rtol", [(90, None), (91, None), (92, None), (90, 0.0)])
def test_kkt_residual_matches_qp_oracle(seed, rtol, monkeypatch):
    if rtol is not None:
        monkeypatch.setattr(mple_mod, "_NNLS_RTOL", rtol)
    seen = set()
    for g, C, case in _random_cones(seed):
        mu, got = _check_certificate(g, C, case)
        # g + C' mu is formed from terms as large as ||g|| and mu_i ||c_i||
        tol = 1e-12 * (1.0 + np.linalg.norm(g) + np.linalg.norm(C, axis=1) @ mu)
        assert abs(got - _qp_residual(g, C)) <= tol, (case, len(C), len(g))
        if case == "inside":
            assert got <= tol
        seen.add(case)
    assert seen == {"generic", "duplicate", "dependent", "inside", "polar"}


# The projection's optimality conditions, relative to the scale of the
# cuts and of g + C' mu: mu >= 0, no cut lowers the residual (w <= 0) and
# the residual is orthogonal to every cut in mu's support (w = 0 there).
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_nnls_meets_its_optimality_conditions(scale):
    for g, C, case in _random_cones(93, scale):
        mu, got = _check_certificate(g, C, case)
        _check_warm_against_cold(g, C, case)
        norms = np.linalg.norm(C, axis=1)
        w = -(C @ (g + mu @ C))
        tol = 1e-11 * norms * (np.linalg.norm(g) + norms @ mu)
        assert np.all(w <= tol), (case, len(C), len(g))
        assert np.all(np.abs(w[mu > 0.0]) <= tol[mu > 0.0]), (case, len(C), len(g))
        if case == "inside":
            assert got <= 1e-11 * (np.linalg.norm(g) + norms @ mu)


def test_warm_nnls_reaches_the_cold_residual_on_trial_programs(monkeypatch):
    # every certificate and step program that run_trial hands _nnls on
    # matchings (k = 8), ER (k = 8) and blocks (k = 4) at n = 128
    programs = []
    monkeypatch.setattr(mple_mod, "_nnls",
                        lambda C, g: programs.append((C, g)) or _nnls(C, g))
    for generator, k, trials in (("matchings", 8, 3), ("erdos_renyi_incidence", 8, 2),
                                 ("blocks", 4, 2)):
        cfg = experiments.ExperimentConfig(generator=generator, n=128, k_grid=(k,),
                                           seed=61, max_iters=30_000, grad_tol=1e-4)
        for trial in range(trials):
            experiments.run_trial(cfg, k, trial)
    for C, g in programs:
        _check_warm_against_cold(g, C, "trial")
    # the warm start runs: some programs start with two or more broken rows
    assert sum((C @ g < 0.0).sum() >= 2 for C, g in programs) >= 10


def _count_lstsq(monkeypatch):
    """Record the solution of every np.linalg.lstsq call from here on."""
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        out = lstsq(*args, **kwargs)
        calls.append(out[0])
        return out

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


def test_warm_nnls_drops_a_negative_coordinate(monkeypatch):
    # g breaks both rows, but the least squares on both puts -0.28 on the
    # second; it is dropped and the first alone gives mu = (1, 0)
    C = np.array([[1.0, 0.0], [1.0, 1.0]]) / np.array([[1.0], [math.sqrt(2.0)]])
    g = np.array([-1.0, 0.2])
    calls = _count_lstsq(monkeypatch)
    mu = _nnls(C, g)
    assert len(calls) == 1 and calls[0][1] < 0.0
    assert np.array_equal(mu, [1.0, 0.0])
    assert np.array_equal(_cold_nnls(C, g), mu)
    # g = (-1, -1, -1, 1) breaks all four rows; the least squares on them is
    # (2, 2, 2, -2), and the second one, on the three rows kept, is the
    # answer mu = (1, 1, 1, 0): two solves, where entering those three rows
    # one at a time would take three
    C = np.vstack([np.eye(4)[:3], np.full(4, 0.5)])
    g = np.array([-1.0, -1.0, -1.0, 1.0])
    calls.clear()
    mu = _nnls(C, g)
    assert len(calls) == 2 and calls[0] == pytest.approx([2.0, 2.0, 2.0, -2.0])
    assert mu == pytest.approx([1.0, 1.0, 1.0, 0.0], abs=1e-15)


@pytest.mark.parametrize("p", range(2, 9))
def test_warm_nnls_solves_once_when_the_broken_rows_are_the_answer(p, monkeypatch):
    # on orthogonal rows the projection's passive set is exactly the rows
    # that g breaks: the warm start solves one least squares (none for a
    # single broken row), where the cold start solved one per entering cut
    # after the first
    rng = make_rng(500 + p)
    Q = np.linalg.qr(rng.normal(size=(8, 8)))[0][:p]
    C = Q * rng.uniform(0.3, 3.0, size=(p, 1))
    calls = _count_lstsq(monkeypatch)
    for broken in range(1, p + 1):
        sign = np.where(np.arange(p) < broken, -1.0, 1.0)
        g = (sign * rng.uniform(0.5, 2.0, size=p)) @ Q + 0.1 * rng.normal(size=8)
        assert np.array_equal(np.flatnonzero(C @ g < 0.0), np.arange(broken))
        calls.clear()
        mu = _nnls(C, g)
        assert len(calls) == int(broken > 1)
        assert np.array_equal(np.flatnonzero(mu), np.arange(broken))
        calls.clear()
        _cold_nnls(C, g)
        assert len(calls) == broken - 1


def _random_programs(seed, scale):
    """(H, g, C, slack, singular, case) over k = 1..8 dimensions and 0..8
    cuts, with H, g, C and slack all times ``scale``: a positive definite
    H, or a singular H = BB' with g in its range (as fit's gradient is in
    the range of its Hessian); generic, duplicated and dependent cuts;
    every slack zero or every slack positive."""
    rng = make_rng(seed)
    for k in range(1, 9):
        for p in range(9):
            for singular in (False, True):
                if singular and k == 1:
                    continue
                B = rng.normal(size=(k, k - 1 if singular else k + 2))
                H = B @ B.T * scale
                g = B @ rng.normal(size=B.shape[1]) * scale
                C = rng.normal(size=(p, k)) * rng.uniform(0.3, 3.0, size=(p, 1)) * scale
                cases = [("generic", C)]
                if p >= 2:
                    D = C.copy()
                    D[-1] = D[0]
                    cases.append(("duplicate", D))
                if p >= 3:
                    D = C.copy()
                    D[-1] = rng.uniform(0.0, 2.0) * D[0] - rng.uniform(0.0, 2.0) * D[1]
                    cases.append(("dependent", D))
                for case, D in cases:
                    yield H, g, D, np.zeros(p), singular, case
                    yield H, g, D, rng.uniform(0.0, 1.0, size=p) * scale, singular, case


def _check_step(H, g, C, slack, d, rtol, length):
    """d is feasible and meets the KKT conditions of min 1/2 d'Hd + g'd
    subject to C d <= max(slack, 0), each to rtol times the scale of its
    terms, with ``length`` the scale of a step; returns the objective."""
    h = np.maximum(slack, 0.0)
    norms = np.linalg.norm(C, axis=1)
    room = h - C @ d
    assert np.all(room >= -rtol * (norms * length + h))
    # mu >= 0 on the cuts active at d, the others at 0
    active = room <= rtol * (norms * length + h)
    grad = H @ d + g
    mu = _nnls(C[active], grad)
    scale = np.linalg.norm(H) * length + np.linalg.norm(g) + norms[active] @ mu
    assert np.linalg.norm(grad + mu @ C[active]) <= rtol * scale
    return 0.5 * d @ H @ d + g @ d


# On a singular H the step is exact only up to the eigenvalue floor
# (_EIG_FLOOR = 1e-10): the floor moves the step by about its own size, so
# those programs are held to 1e-9 and the others to 1e-10.
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e8])
def test_newton_step_solves_its_program(scale):
    # the step is feasible, meets its KKT conditions and is no worse than
    # the old active-set program wherever that one's point is feasible
    seen = set()
    for H, g, C, slack, singular, case in _random_programs(94, scale):
        rtol = 1e-9 if singular else 1e-10
        d = _newton_step(_whitening(H), g, C, slack)
        z = _active_set_qp(H, g, C, np.maximum(slack, 0.0), 0.0)
        newton = np.linalg.lstsq(H, -g, rcond=None)[0]
        length = max(np.linalg.norm(d), np.linalg.norm(z), np.linalg.norm(newton))
        got = _check_step(H, g, C, slack, d, rtol, length)
        try:
            want = _check_step(H, g, C, slack, z, rtol, length)
        except AssertionError:  # the old program's point is not a solution
            want = math.inf
        tol = rtol * (np.linalg.norm(H) * length ** 2 + np.linalg.norm(g) * length)
        assert got <= want + tol, (case, len(C), len(g))
        seen.add((case, singular, bool(slack.any())))
    assert seen == {(c, singular, s) for c in ("generic", "duplicate", "dependent")
                    for singular in (False, True) for s in (False, True)}


def test_newton_step_keeps_a_tight_cut_at_a_large_curvature():
    # the Newton step -H^-1 g = -1e-12 (1, 1, 1, 1) breaks the tight cut
    # -d_1 <= 0; an absolute stationarity test (the oracle's) takes it for
    # the answer, the least-distance step keeps d_1 at 0
    H, g = 1e8 * np.eye(4), np.full(4, 1e-4)
    C, slack = -np.eye(4)[:1], np.zeros(1)
    assert C[0] @ _active_set_qp(H, g, C, slack, 0.0) > 0.0
    d = _newton_step(_whitening(H), g, C, slack)
    _check_step(H, g, C, slack, d, 1e-10, 1e-12)
    assert d == pytest.approx([0.0, -1e-12, -1e-12, -1e-12], abs=1e-24)


def test_newton_step_is_zero_at_a_zero_hessian():
    # every sech^2 of the fields underflows once |f_i| > ~355
    W = _whitening(np.zeros((3, 3)))
    for C in (np.zeros((0, 3)), -np.eye(3)[:1]):
        assert not _newton_step(W, np.ones(3), C, np.zeros(len(C))).any()


# ---------------------------------------------------------------------------
# Oracle: the paper's averaged subgradient loop on the penalized objective,
# as fit ran it before the Newton solver and the edge view, kept verbatim
# apart from its return value, a count of penalty steps and the dense
# row-argmax penalty subgradient written out in place of the call.  fit's
# exact estimate must do at least as well on that objective.


def log_cosh(y):
    """The package's overflow-safe log cosh before it moved into the value
    kernel; the oracles below use this copy."""
    a = np.abs(y)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def _dense_fit(basis, x, M, T, eta, grad_tol, trace_every=0):
    x = check_spins(x, basis.n)
    n, k = basis.n, basis.k
    lam = 5.0 * n
    A = basis.stacked()
    Bx = A @ x
    row_abs = np.abs  # local alias for the hot loop

    beta = np.zeros(k)
    beta_sum = np.zeros(k)
    best_h = math.inf
    best_beta = beta.copy()
    trace = []
    penalty_steps = 0
    it = 0
    for it in range(1, T + 1):
        U = np.tensordot(beta, A, axes=1)
        f = U @ x
        tanh_f = np.tanh(f)
        g = Bx @ (tanh_f - x)
        inf_norm = float(np.max(np.sum(row_abs(U), axis=1))) if n else 0.0
        h_val = float(np.sum(log_cosh(f) - x * f)) + n * math.log(2.0)
        h_val += lam * max(0.0, inf_norm - M)
        if not math.isfinite(h_val):
            raise NonFinite(f"objective became non-finite at iteration {it}")
        if h_val < best_h:
            best_h = h_val
            best_beta = beta.copy()
        if trace_every and (it % trace_every == 0 or it == 1):
            trace.append(h_val)
        if inf_norm > M:
            # the largest row (lowest index on ties), sgn(0) = 0
            r = int(np.argmax(np.sum(np.abs(U), axis=1)))
            g = g + lam * (A[:, r, :] @ np.sign(U[r]))
            penalty_steps += 1
        gnorm = float(np.linalg.norm(g))
        if grad_tol > 0 and gnorm <= grad_tol and inf_norm <= M:
            beta_sum += beta * (T - it + 1)  # hold the converged iterate
            break
        beta_sum += beta
        beta = beta - eta * g

    beta_hat = beta_sum / T
    psi_hat = neg_log_pl(combine(basis, beta_hat), x)
    return dict(beta_hat=beta_hat, psi_hat=psi_hat, iterations=it,
                beta_best=best_beta, psi_best=best_h, trace=np.array(trace),
                grad_norm=gnorm, penalty_steps=penalty_steps)


# Oracles: psi and grad_beta as they were before the shared kernels, on
# the dense combine(basis, beta) and its fields U x.


def _combine_psi(basis, beta, x):
    U = combine(basis, beta)
    f = U @ x
    return float(np.sum(log_cosh(f) - x * f) + len(x) * math.log(2.0))


def _combine_grad_beta(basis, beta, x):
    x = np.asarray(x, dtype=np.float64)
    Bx = basis.stacked() @ x
    U = combine(basis, np.asarray(beta, dtype=np.float64))
    return Bx @ (np.tanh(U @ x) - x)


def _support(kind, n, k):
    if kind == "matchings":
        return gen_matchings(n, k)
    if kind == "blocks":
        return gen_blocks(n, k)
    return gen_erdos_renyi_incidence(n, k, 0.3, make_rng(43))


# (M, eta, grad_tol, trace_every) of the oracle: a budget small enough
# that many subgradient steps take the penalty branch, an early gradient
# stop, and a traced run
_ORACLE_CASES = [
    (0.05, 0.002, 0.0, 0),
    (2.0, 0.01, 1e-3, 0),
    (0.5, 0.002, 1e-4, 97),
]


def _in_budget(basis, beta, M):
    return infinity_norm(combine(basis, beta)) <= M * (1 + 1e-9)


@pytest.mark.parametrize("kind", ["matchings", "blocks", "erdos_renyi"])
@pytest.mark.parametrize("M,eta,grad_tol,trace_every", _ORACLE_CASES)
def test_fit_matches_dense_oracle(kind, M, eta, grad_tol, trace_every):
    # fit solves the budgeted problem, so on the penalized objective
    # (lam = 5n) that the subgradient loop minimizes, its estimate is at
    # least as good as the loop's, inside the budget, with a small KKT
    # residual
    b = gram_schmidt(_support(kind, 24, 3))
    # 5 of every 8 spins up: the pseudo-likelihood has a finite minimizer
    # on every support
    x = np.tile([1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0, -1.0], 3)
    res = fit(b, x, MpleConfig(M=M, max_programs=3_000, grad_tol=grad_tol))
    ref = _dense_fit(b, x, M, 3_000, eta, grad_tol, trace_every=trace_every)

    lam = 5.0 * b.n

    def hinge(beta):
        return psi(b, beta, x) + lam * max(0.0, infinity_norm(combine(b, beta)) - M)

    got = hinge(res.beta_hat)
    want = hinge(ref["beta_hat"])
    assert got <= want + 1e-12 * abs(want)
    assert got == pytest.approx(res.psi_hat, rel=1e-12)
    assert _in_budget(b, res.beta_hat, M)
    assert res.stop_reason == "kkt"
    assert res.kkt_residual <= max(grad_tol, 1e-8)
    if M < 0.1:
        assert ref["penalty_steps"] > 100 and res.budget_active


def _grid_minimum(basis, x, M, points=401):
    """min psi over a grid of feasible beta, by dense arithmetic only:
    ||beta||_2 = ||A_beta||_F <= sqrt(n) M bounds the box."""
    r = math.sqrt(basis.n) * M
    axis = np.linspace(-r, r, points)
    grid = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
    A = np.stack(basis.ortho)
    F = grid @ (A @ x)
    values = np.sum(log_cosh(F) - x * F, axis=1) + basis.n * math.log(2.0)
    feasible = np.concatenate([
        np.abs(np.tensordot(chunk, A, axes=1)).sum(axis=2).max(axis=1) <= M
        for chunk in np.array_split(grid, 64)])
    return float(values[feasible].min())


@pytest.mark.parametrize("kind", ["matchings", "blocks", "erdos_renyi"])
@pytest.mark.parametrize("M", [0.05, 0.5, 2.0])
def test_fit_beats_a_feasible_grid_at_k2(kind, M):
    b = gram_schmidt(_support(kind, 24, 2))
    x = np.tile([1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0, -1.0], 3)
    res = fit(b, x, MpleConfig(M=M, grad_tol=1e-8))
    best = _grid_minimum(b, x, M)
    assert res.stop_reason == "kkt" and res.kkt_residual <= 1e-8
    assert _in_budget(b, res.beta_hat, M)
    assert res.psi_hat <= best + 1e-12
    assert best - res.psi_hat <= 1e-2  # the grid is fine enough to bite


def test_fit_without_a_finite_unconstrained_minimizer():
    # x = +1 on one matching: psi falls forever along beta > 0, so the
    # estimate is the budget's edge, ||J_hat||_inf = M
    b = gram_schmidt([edge_matrix(4, [(0, 1), (2, 3)])])
    res = fit(b, np.ones(4), MpleConfig(M=0.5))
    assert res.beta_hat == pytest.approx([1.0], abs=1e-12)
    assert res.inf_norm_hat == pytest.approx(0.5, abs=1e-12)
    assert res.stop_reason == "kkt" and res.budget_active
    assert res.kkt_residual <= 1e-12


def test_fit_with_a_singular_hessian():
    # A_1 x = A_2 x, so psi depends on beta_1 + beta_2 only; the budget
    # |beta_1| + |beta_2| <= 1 leaves a segment of minimizers and fit
    # returns its minimum-norm point
    b = gram_schmidt([edge_matrix(4, [(0, 1), (2, 3)]),
                      edge_matrix(4, [(0, 3), (1, 2)])])
    res = fit(b, np.ones(4), MpleConfig(M=0.5))
    assert res.beta_hat == pytest.approx([0.5, 0.5], abs=1e-12)
    expected = 4 * (math.log(math.cosh(0.5)) - 0.5 + math.log(2))
    assert res.psi_hat == pytest.approx(expected, rel=1e-12)
    assert round(res.psi_hat, 4) == 1.2530
    assert res.stop_reason == "kkt" and res.kkt_residual <= 1e-12


def test_fit_does_not_import_scipy_optimize():
    # scipy.optimize costs ~24 MB and ~0.25 s to import
    code = ("import sys, numpy as np\n"
            "from isingfit import MpleConfig, fit, gram_schmidt\n"
            "from isingfit.experiments import gen_matchings\n"
            "fit(gram_schmidt(gen_matchings(8, 2)), np.ones(8), MpleConfig(M=0.5))\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize imported'\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("kind", ["matchings", "blocks", "erdos_renyi"])
def test_psi_and_grad_beta_match_combine_oracle(kind):
    b = gram_schmidt(_support(kind, 24, 3))
    rng = make_rng(44)
    for _ in range(20):
        beta = rng.normal(size=b.k)
        x = 1.0 - 2.0 * rng.integers(0, 2, size=b.n)
        pairs = [(psi(b, beta, x), _combine_psi(b, beta, x)),
                 (grad_beta(b, beta, x), _combine_grad_beta(b, beta, x))]
        for got, want in pairs:
            if kind == "matchings":
                assert np.array_equal(got, want)
            else:
                assert np.allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("fn", [psi, grad_beta], ids=["psi", "grad_beta"])
def test_basis_coordinates_reject_wrong_lengths(fn):
    b = gram_schmidt(random_family(6, 2, seed=8))
    with pytest.raises(LengthMismatch):
        fn(b, np.zeros(3), np.ones(6))
    with pytest.raises(DimensionMismatch):
        fn(b, np.zeros(2), np.ones(5))
