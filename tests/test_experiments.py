import json
import math

import numpy as np
import pytest

from isingfit import experiments
from isingfit.basis import combine, gram_schmidt, trace_inner, unique_edge_counts
from isingfit.errors import NormBudgetExceeded, TooManyGroups
from isingfit.experiments import (
    ExperimentConfig,
    gen_assouad,
    gen_blocks,
    gen_erdos_renyi_incidence,
    gen_matchings,
    run_sweep,
    run_trial,
)
from isingfit.core import IsingSpec, frobenius_norm, infinity_norm
from isingfit.metrics import tv_chi_exact
from isingfit.sampler import make_rng


def test_matchings_k1_n4():
    (J,) = gen_matchings(4, 1)
    assert J[0, 1] == J[1, 0] == 1.0
    assert J[2, 3] == J[3, 2] == 1.0
    assert J.sum() == 4.0


def test_matchings_pairwise_orthogonal():
    mats = gen_matchings(24, 4, make_rng(1))
    for i in range(4):
        for j in range(i + 1, 4):
            assert trace_inner(mats[i], mats[j]) == 0.0


def test_matchings_unique_edges():
    mats = gen_matchings(24, 3)
    counts = unique_edge_counts(mats)
    expected = [int(np.triu(m, 1).sum()) for m in mats]
    assert np.array_equal(counts, expected)


def test_matchings_too_many_groups():
    with pytest.raises(TooManyGroups):
        gen_matchings(4, 3)


def test_blocks_disjoint():
    mats = gen_blocks(12, 3)
    for i in range(3):
        for j in range(i + 1, 3):
            assert trace_inner(mats[i], mats[j]) == 0.0


def test_erdos_renyi_incidence_binary():
    mats = gen_erdos_renyi_incidence(20, 3, 0.2, make_rng(2))
    for J in mats:
        assert np.all(np.isin(J, (0.0, 1.0)))
        assert np.array_equal(J, J.T)
        assert np.all(np.diag(J) == 0)


def test_assouad_negation_and_norms():
    basis = gram_schmidt(gen_matchings(12, 2))
    c = 0.2
    theta = np.array([1.0, -1.0])
    A = gen_assouad(basis, c, theta)
    B = gen_assouad(basis, c, -theta)
    assert np.allclose(A, -B)
    assert frobenius_norm(A) == pytest.approx(c * math.sqrt(2), rel=1e-10)


def test_assouad_budget_enforced():
    basis = gram_schmidt(gen_matchings(12, 2))
    with pytest.raises(NormBudgetExceeded):
        gen_assouad(basis, 5.0, np.array([1.0, 1.0]))


def test_assouad_neighbor_tv_small():
    n, k = 10, 2
    basis = gram_schmidt(gen_matchings(n, k))
    c = 0.05
    P = IsingSpec.zero_field(gen_assouad(basis, c, np.array([1.0, 1.0])))
    Q = IsingSpec.zero_field(gen_assouad(basis, c, np.array([1.0, -1.0])))
    rep = tv_chi_exact(P, Q)
    assert rep.tv <= 0.5


def test_run_trial_record_fields():
    cfg = ExperimentConfig(n=12, k_grid=(2,), trials=1, M=0.5,
                           max_iters=20000, eta=0.002, grad_tol=1e-5)
    rec, basis, J_star, res = run_trial(cfg, 2, 0)
    assert rec.sampler == "exact"
    assert rec.frob_error >= 0
    assert rec.psi_gap <= cfg.epsilon + 1e-6
    assert infinity_norm(J_star) <= cfg.M + 1e-12


def test_appendix_inequality_per_trial():
    # sum_s lambda_s (beta_hat_s - beta*_s)^2 <= ||J_hat - J*||_F^2 for
    # incidence families, with lambda_s the unique-edge counts
    cfg = ExperimentConfig(n=16, k_grid=(2,), trials=3, M=0.5,
                           max_iters=20000, eta=0.002, grad_tol=1e-5)
    raw = gen_matchings(cfg.n, 2)  # the family run_trial fits at this config
    lam = unique_edge_counts(raw)
    for trial in range(3):
        _, basis, J_star, res = run_trial(cfg, 2, trial)
        # convert back to raw coordinates: J = sum_s beta_raw_s J_s
        G = np.array([[trace_inner(a, b) for b in raw] for a in raw])
        beta_star_raw = np.linalg.solve(G, [trace_inner(J_star, Jm) for Jm in raw])
        J_hat = combine(basis, res.beta_hat)
        beta_hat_raw = np.linalg.solve(G, [trace_inner(J_hat, Jm) for Jm in raw])
        lhs = float(np.sum(2 * lam * (beta_hat_raw - beta_star_raw) ** 2))
        rhs = frobenius_norm(J_hat - J_star) ** 2
        assert lhs <= rhs + 1e-9


def test_sweep_bookkeeping_and_summary(tmp_path):
    cfg = ExperimentConfig(n=12, k_grid=(1, 2), trials=2, M=0.5,
                           max_iters=5000, eta=0.002, grad_tol=1e-4)
    records, summary = run_sweep(cfg, out_dir=tmp_path)
    assert len(records) == 4  # trials x |k grid|
    assert (tmp_path / "results.csv").exists()
    with open(tmp_path / "summary.json") as f:
        loaded = json.load(f)
    assert loaded["c_hat"] is not None
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert len(lines) == 5  # header + one row per trial


def test_sweep_deterministic(tmp_path):
    cfg = ExperimentConfig(n=10, k_grid=(1,), trials=2, M=0.5,
                           max_iters=3000, eta=0.002, grad_tol=1e-4)
    run_sweep(cfg, out_dir=tmp_path / "a")
    run_sweep(cfg, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "results.csv").read_bytes() == \
        (tmp_path / "b" / "results.csv").read_bytes()


def test_sweep_records_errors_without_aborting():
    cfg = ExperimentConfig(n=4, k_grid=(3,), trials=2, M=0.5)  # k too large
    records, summary = run_sweep(cfg)
    assert len(records) == 2
    assert all(r.error for r in records)


def test_sweep_propagates_non_package_errors(monkeypatch):
    def broken_fit(*args, **kwargs):
        raise TypeError("bug in fit")

    monkeypatch.setattr(experiments, "fit", broken_fit)
    cfg = ExperimentConfig(n=8, k_grid=(1,), trials=1, M=0.5, max_iters=100)
    with pytest.raises(TypeError, match="bug in fit"):
        run_sweep(cfg)
