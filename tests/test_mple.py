import math

import numpy as np
import pytest

from isingfit.basis import MatrixBasis, combine, gram_schmidt, project
from isingfit.core import IsingSpec, check_spins, conditional_prob_plus
from isingfit.errors import DimensionMismatch, LengthMismatch, NonFinite
from isingfit.experiments import gen_blocks, gen_erdos_renyi_incidence, gen_matchings
from isingfit.mple import (
    MpleConfig,
    directional_derivative,
    directional_second_derivative,
    fit,
    grad_beta,
    neg_log_pl,
    psi,
    regularized_objective,
    regularized_subgradient,
)
from isingfit.sampler import (
    enumerate_distribution,
    exact_sample,
    make_rng,
    spin_table,
)
from tests.test_basis import random_family
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


def test_regularized_equals_plain_inside_budget():
    b = gram_schmidt(random_family(8, 2, seed=20))
    rng = make_rng(21)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=8)
    beta = rng.normal(size=2) * 0.01  # tiny, well inside the budget
    g1 = regularized_subgradient(b, beta, x, M=10.0, lam=40.0)
    g2 = grad_beta(b, beta, x)
    assert np.array_equal(g1, g2)


def test_regularized_subgradient_finite_difference():
    # at a smooth point with a strict unique max row, h is differentiable
    b = gram_schmidt(random_family(10, 2, seed=22))
    rng = make_rng(23)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=10)
    beta = rng.normal(size=2) * 3.0
    M, lam = 0.05, 5.0
    g = regularized_subgradient(b, beta, x, M, lam)
    t = 1e-6
    for i in range(2):
        e = np.eye(2)[i]
        fd = (regularized_objective(b, beta + t * e, x, M, lam)
              - regularized_objective(b, beta - t * e, x, M, lam)) / (2 * t)
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_regularized_subgradient_is_descent_direction():
    b = gram_schmidt(random_family(10, 2, seed=24))
    rng = make_rng(25)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=10)
    M, lam = 0.05, 50.0
    for _ in range(10):
        beta = rng.normal(size=2) * 3.0
        g = regularized_subgradient(b, beta, x, M, lam)
        h0 = regularized_objective(b, beta, x, M, lam)
        h1 = regularized_objective(b, beta - 1e-7 * g, x, M, lam)
        assert h1 < h0


def test_subgradient_norm_bound():
    rng = make_rng(26)
    for trial in range(30):
        n = int(rng.integers(4, 14))
        k = int(rng.integers(1, 4))
        b = gram_schmidt(random_family(n, k, seed=2000 + trial))
        x = 1.0 - 2.0 * rng.integers(0, 2, size=n)
        beta = rng.normal(size=b.k) * 3
        lam = 5.0 * n
        g = regularized_subgradient(b, beta, x, M=0.01, lam=lam)
        bound = (2 * n + lam * math.sqrt(n)) * math.sqrt(b.k)
        assert np.linalg.norm(g) <= bound + 1e-9


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
    base = dict(M=0.5, epsilon=0.5, T=40000, eta=0.002, grad_tol=1e-6)
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
    cfg = _fit_cfg(M=1.0)
    res = fit(b, x, cfg)
    grid = np.arange(-1.0, 1.0 + 1e-9, 1e-3)
    vals = [psi(b, np.array([g]), x) for g in grid]
    assert res.psi_hat <= min(vals) + cfg.epsilon


def test_fit_zero_truth():
    n = 16
    b = gram_schmidt(random_family(n, 2, seed=31))
    spec = IsingSpec.zero_field(np.zeros((n, n)))
    x = exact_sample(enumerate_distribution(spec), make_rng(32))
    cfg = _fit_cfg(M=1.0, epsilon=1.0)
    res = fit(b, x, cfg)
    assert res.psi_hat <= n * math.log(2) + cfg.epsilon
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
    cfg = _fit_cfg(epsilon=1.0)
    res = fit(b, x, cfg)
    assert res.psi_hat <= psi(b, beta_star, x) + cfg.epsilon
    assert res.inf_norm_hat <= 3 * cfg.M + 1e-9
    assert np.allclose(res.J_hat, combine(b, res.beta_hat))


def test_fit_result_bookkeeping():
    b = gram_schmidt(random_family(8, 1, seed=36))
    rng = make_rng(37)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=8)
    cfg = _fit_cfg(T=500, grad_tol=0.0)
    res = fit(b, x, cfg, trace_every=100)
    assert res.iterations == 500
    assert len(res.objective_trace) >= 2
    assert res.psi_best <= res.objective_trace[0]


def test_fit_stacks_the_basis_a_bounded_number_of_times(monkeypatch):
    b = gram_schmidt(random_family(10, 3, seed=40))
    rng = make_rng(41)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=10)
    calls = []
    stacked = MatrixBasis.stacked
    monkeypatch.setattr(MatrixBasis, "stacked",
                        lambda self: calls.append(1) or stacked(self))
    fit(b, x, _fit_cfg(M=0.05, T=2_000, grad_tol=0.0))
    assert len(calls) <= 2  # Bx before the loop, combine after it


# ---------------------------------------------------------------------------
# Oracle: the dense loop that fit ran before the edge view, kept verbatim
# apart from its return value, a count of penalty steps and the dense
# row-argmax penalty subgradient written out in place of the call.  fit
# must give the same numbers bit for bit on matchings, where every row has
# one edge, and up to summation order elsewhere.


def log_cosh(y):
    """The package's overflow-safe log cosh before it moved into the value
    kernel; the oracles below use this copy."""
    a = np.abs(y)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def _dense_fit(basis, x, cfg, trace_every=0):
    x = check_spins(x, basis.n)
    n, k = basis.n, basis.k
    lam, T, eta = cfg.resolve(n, k)
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
        h_val += lam * max(0.0, inf_norm - cfg.M)
        if not math.isfinite(h_val):
            raise NonFinite(f"objective became non-finite at iteration {it}")
        if h_val < best_h:
            best_h = h_val
            best_beta = beta.copy()
        if trace_every and (it % trace_every == 0 or it == 1):
            trace.append(h_val)
        if inf_norm > cfg.M:
            # the largest row (lowest index on ties), sgn(0) = 0
            r = int(np.argmax(np.sum(np.abs(U), axis=1)))
            g = g + lam * (A[:, r, :] @ np.sign(U[r]))
            penalty_steps += 1
        gnorm = float(np.linalg.norm(g))
        if cfg.grad_tol > 0 and gnorm <= cfg.grad_tol and inf_norm <= cfg.M:
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


# (M, eta, grad_tol, trace_every): a budget small enough that many steps
# take the penalty branch, an early gradient stop, and a traced run
_ORACLE_CASES = [
    (0.05, 0.002, 0.0, 0),
    (2.0, 0.01, 1e-3, 0),
    (0.5, 0.002, 1e-4, 97),
]


@pytest.mark.parametrize("kind", ["matchings", "blocks", "erdos_renyi"])
@pytest.mark.parametrize("M,eta,grad_tol,trace_every", _ORACLE_CASES)
def test_fit_matches_dense_oracle(kind, M, eta, grad_tol, trace_every):
    b = gram_schmidt(_support(kind, 24, 3))
    # 5 of every 8 spins up: the pseudo-likelihood has a finite minimizer
    # on every support, so the gradient stop can trigger
    x = np.tile([1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0, -1.0], 3)
    cfg = MpleConfig(M=M, T=3_000, eta=eta, grad_tol=grad_tol)
    res = fit(b, x, cfg, trace_every=trace_every)
    ref = _dense_fit(b, x, cfg, trace_every=trace_every)

    assert res.iterations == ref["iterations"]
    assert res.stop_reason == ("grad_tol" if ref["iterations"] < 3_000 else "iter_cap")
    if grad_tol and not trace_every:
        assert res.stop_reason == "grad_tol"
        assert res.grad_norm <= grad_tol
    if M < 0.1:
        assert ref["penalty_steps"] > 100
    got = [res.beta_hat, res.psi_hat, res.beta_best, res.psi_best,
           res.objective_trace, res.grad_norm]
    want = [ref["beta_hat"], ref["psi_hat"], ref["beta_best"], ref["psi_best"],
            ref["trace"], ref["grad_norm"]]
    assert len(res.objective_trace) == len(ref["trace"])
    for a, r in zip(got, want):
        if kind == "matchings":
            assert np.array_equal(a, r)
        else:
            assert np.allclose(a, r, rtol=0.0, atol=1e-12)


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


@pytest.mark.parametrize(
    "fn,extra",
    [(psi, ()), (grad_beta, ()), (regularized_objective, (0.5, 10.0)),
     (regularized_subgradient, (0.5, 10.0))],
    ids=["psi", "grad_beta", "regularized_objective", "regularized_subgradient"])
def test_basis_coordinates_reject_wrong_lengths(fn, extra):
    b = gram_schmidt(random_family(6, 2, seed=8))
    with pytest.raises(LengthMismatch):
        fn(b, np.zeros(3), np.ones(6), *extra)
    with pytest.raises(DimensionMismatch):
        fn(b, np.zeros(2), np.ones(5), *extra)
