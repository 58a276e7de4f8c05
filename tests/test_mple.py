import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from isingfit.basis import EdgeView, MatrixBasis, combine, gram_schmidt, project
from isingfit.core import IsingSpec, check_spins, conditional_prob_plus, infinity_norm
from isingfit.errors import DimensionMismatch, LengthMismatch, NonFinite
from isingfit.experiments import gen_blocks, gen_erdos_renyi_incidence, gen_matchings
from isingfit.mple import (
    DEFAULT_MAX_PROGRAMS,
    MpleConfig,
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


@pytest.mark.parametrize("kind", ["blocks", "erdos_renyi"])
@pytest.mark.parametrize("M", [0.05, 0.5, 2.0])
def test_fit_reports_from_its_own_loop(kind, M):
    # psi_hat is the last accepted value and inf_norm_hat the edge row
    # sums at the estimate; both agree with the dense oracles on
    # combine(basis, beta_hat) up to summation order
    b = gram_schmidt(_support(kind, 24, 3))
    x = np.tile([1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0, -1.0], 3)
    res = fit(b, x, MpleConfig(M=M))
    ev = b.edges
    assert res.psi_hat == res.objective_trace[-1]
    assert res.inf_norm_hat == ev.row_abs_sums(ev.coef @ res.beta_hat).max()
    J_hat = combine(b, res.beta_hat)
    assert res.psi_hat == pytest.approx(neg_log_pl(J_hat, x), rel=1e-12, abs=0)
    assert res.inf_norm_hat == pytest.approx(infinity_norm(J_hat), rel=1e-12, abs=0)


def test_fit_sums_rows_once_per_trial_point(monkeypatch):
    # the budget check and a cut's subgradient share one row_abs_sums pass,
    # and one more pass gives inf_norm_hat at the estimate
    rng = make_rng(41)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=10)
    calls = []
    row_abs_sums = EdgeView.row_abs_sums
    monkeypatch.setattr(EdgeView, "row_abs_sums",
                        lambda self, u: calls.append(1) or row_abs_sums(self, u))
    b = gram_schmidt(random_family(10, 3, seed=40))
    res = fit(b, x, _fit_cfg(M=0.05, max_programs=2_000, grad_tol=0.0))
    assert res.budget_active
    assert len(calls) == res.iterations + 1

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
