import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from isingfit import core, experiments, sampler
from isingfit.basis import (
    combine,
    edge_union,
    gram_schmidt,
    gram_schmidt_edges,
    project,
    trace_inner,
)
from isingfit.errors import InvalidBudget, NormBudgetExceeded, TooManyGroups
from isingfit.experiments import (
    EXACT_SAMPLE_LIMIT,
    ExperimentConfig,
    TrialRecord,
    _blocks_edges,
    _erdos_renyi_edges,
    _matchings_edges,
    _scatter,
    _true_beta,
    gen_assouad,
    gen_blocks,
    gen_erdos_renyi_incidence,
    gen_matchings,
    run_sweep,
    run_trial,
    trial_seed,
)
from isingfit.core import IsingSpec, frobenius_norm, infinity_norm, interaction_edges
from isingfit.metrics import tv_chi_exact
from isingfit.mple import MpleConfig, fit, psi
from isingfit.sampler import (
    GlauberConfig,
    component_sample,
    enumerate_distribution,
    exact_sample,
    glauber_sample,
    make_rng,
)
from tests.test_basis import unique_edge_counts


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


# A config no trial could run is refused where it is made, naming the
# field, not deep inside the first trial.
@pytest.mark.parametrize("field,value,error", [
    ("n", 64.0, ValueError), ("n", True, ValueError), ("trials", 2.5, ValueError),
    ("max_iters", "30000", ValueError), ("glauber_sweeps", 300.0, ValueError),
    ("glauber_sweeps", 0, ValueError), ("k_grid", (1, 0), ValueError),
    ("k_grid", (1, 2.0), ValueError), ("generator", "grid", ValueError),
    ("M", math.nan, InvalidBudget), ("M", math.inf, InvalidBudget),
    ("M", -0.5, InvalidBudget)])
def test_experiment_config_refuses_fields_no_trial_could_run(field, value, error):
    name = "burn_in_sweeps" if field == "glauber_sweeps" else field
    with pytest.raises(error, match=name):
        ExperimentConfig(**{field: value})


def test_experiment_config_takes_numpy_integers_and_keeps_its_fields():
    cfg = ExperimentConfig(n=np.int64(12), trials=np.int32(1), k_grid=[np.uint8(2)],
                           max_iters=np.int64(200), glauber_sweeps=np.int16(3), M=0)
    assert [f.name for f in dataclasses.fields(cfg)] == list(cfg.to_dict())
    cfg = ExperimentConfig(n=12, k_grid=(2,), trials=1, max_iters=200)
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_sweep_records_errors_without_aborting():
    cfg = ExperimentConfig(n=4, k_grid=(3,), trials=2, M=0.5)  # k too large
    records, summary = run_sweep(cfg)
    assert len(records) == 2
    assert all(r.error for r in records)


def test_sweep_writes_each_instance_as_its_cell_finishes(tmp_path):
    # the files are J* from run_trial as save_matrix writes it, and a sweep
    # holds one J* at a time: its peak does not grow with the trials
    def sweep(trials, out_dir):
        cfg = ExperimentConfig(n=256, k_grid=(2,), trials=trials, M=0.5, seed=3,
                               glauber_sweeps=2, max_iters=50)
        run_sweep(cfg, out_dir=out_dir, save_instances=True)  # warm the family cache
        tracemalloc.start()
        try:
            run_sweep(cfg, out_dir=out_dir, save_instances=True)
            return cfg, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _, few = sweep(2, tmp_path / "few")
    cfg, many = sweep(6, tmp_path / "many")
    J_bytes = cfg.n * cfg.n * 8
    assert many <= few + J_bytes // 2, (few, many)
    files = sorted(p.name for p in (tmp_path / "many" / "instances").iterdir())
    assert files == [f"k2_trial{t}.json" for t in range(6)]
    for t in range(6):
        J_star = run_trial(cfg, 2, t)[2]
        assert (tmp_path / "many" / "instances" / f"k2_trial{t}.json").read_text() == \
            json.dumps(core.matrix_to_json(J_star))
    # without an out_dir nothing is written or kept
    tracemalloc.start()
    try:
        run_sweep(cfg, save_instances=True)
        assert tracemalloc.get_traced_memory()[1] <= few + J_bytes // 2
    finally:
        tracemalloc.stop()


def test_sweep_with_no_finished_cell_writes_no_instances(tmp_path):
    cfg = ExperimentConfig(n=4, k_grid=(3,), trials=2, M=0.5)  # k too large
    records, _ = run_sweep(cfg, out_dir=tmp_path, save_instances=True)
    assert all(r.error for r in records)
    assert (tmp_path / "results.csv").exists() and not (tmp_path / "instances").exists()


def test_sweep_propagates_non_package_errors(monkeypatch):
    def broken_fit(*args, **kwargs):
        raise TypeError("bug in fit")

    monkeypatch.setattr(experiments, "fit", broken_fit)
    cfg = ExperimentConfig(n=8, k_grid=(1,), trials=1, M=0.5, max_iters=100)
    with pytest.raises(TypeError, match="bug in fit"):
        run_sweep(cfg)


# ---------------------------------------------------------------------------
# Edge generators and the edge-native trial, against the dense code they
# replaced.

def _dense_matchings(n, k, rng=None):
    per = n // (2 * k)
    order = np.arange(n) if rng is None else rng.permutation(n)
    mats = []
    for s in range(k):
        J = np.zeros((n, n))
        for e in range(per):
            a, b = order[2 * (s * per + e)], order[2 * (s * per + e) + 1]
            J[a, b] = J[b, a] = 1.0
        mats.append(J)
    return mats


def _dense_blocks(n, k):
    size = n // k
    mats = []
    for s in range(k):
        J = np.zeros((n, n))
        J[s * size:(s + 1) * size, s * size:(s + 1) * size] = 1.0
        np.fill_diagonal(J, 0.0)
        mats.append(J)
    return mats


def _dense_erdos_renyi(n, k, p, rng):
    mats = []
    for _ in range(k):
        U = np.triu(rng.random((n, n)) < p, k=1).astype(np.float64)
        mats.append(U + U.T)
    return mats


_GENERATORS = {
    "matchings": (gen_matchings, _matchings_edges),
    "blocks": (gen_blocks, _blocks_edges),
    "erdos_renyi": (lambda n, k, rng: gen_erdos_renyi_incidence(n, k, 0.2, rng),
                    lambda n, k, rng: _erdos_renyi_edges(n, k, 0.2, rng)),
}


@pytest.mark.parametrize("shuffle", [False, True])
@pytest.mark.parametrize("kind", sorted(_GENERATORS))
def test_generators_scatter_their_edges(kind, shuffle):
    # each member's edges are interaction_edges of its dense matrix, bit
    # for bit, and both forms leave the generator at the same draw
    n, k = 26, 3
    dense_gen, edge_gen = _GENERATORS[kind]
    a, b = make_rng(90), make_rng(90)
    passed = shuffle or kind == "erdos_renyi"
    mats = dense_gen(n, k, a if passed else None)
    family = edge_gen(n, k, b if passed else None)
    assert len(mats) == len(family) == k
    for J, (rows, cols, values) in zip(mats, family):
        want = interaction_edges(J)
        for got, exp in zip((rows, cols, values), want):
            assert got.dtype == exp.dtype and np.array_equal(got, exp)
        assert np.array_equal(J, _scatter(n, (rows, cols, values)))
    assert a.random() == b.random()


def test_generators_keep_their_dense_output():
    for n, k in ((24, 4), (25, 3), (16, 8)):
        pairs = [(gen_matchings(n, k), _dense_matchings(n, k)),
                 (gen_matchings(n, k, make_rng(n)), _dense_matchings(n, k, make_rng(n))),
                 (gen_blocks(n, k), _dense_blocks(n, k)),
                 (gen_erdos_renyi_incidence(n, k, 0.3, make_rng(n)),
                  _dense_erdos_renyi(n, k, 0.3, make_rng(n)))]
        for got, want in pairs:
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_shuffled_blocks_relabel_the_unshuffled_family():
    # block s holds the coordinates order[s * size:(s + 1) * size] of one
    # permutation drawn from rng, as gen_matchings pairs up its order
    n, k = 23, 3
    ref = make_rng(92)
    order = ref.permutation(n)
    rng = make_rng(92)
    shuffled = gen_blocks(n, k, rng)
    plain = gen_blocks(n, k)
    for S, U in zip(shuffled, plain):
        assert np.array_equal(S[np.ix_(order, order)], U)
    assert not all(np.array_equal(S, U) for S, U in zip(shuffled, plain))
    assert rng.random() == ref.random()


@pytest.mark.parametrize("kind", sorted(_GENERATORS))
def test_gram_schmidt_is_the_edge_entry_on_dense_input(kind):
    n = 30
    dense_gen, edge_gen = _GENERATORS[kind]
    for k in (1, 4, 7):
        want = gram_schmidt(dense_gen(n, k, make_rng(k)))
        got = gram_schmidt_edges(n, *edge_union(n, edge_gen(n, k, make_rng(k))))
        for a, b in ((got.rows, want.rows), (got.cols, want.cols),
                     (got.coef, want.coef)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def _dense_run_trial(cfg, k, trial):
    """run_trial as it was on dense matrices: k dense raw matrices, J* as
    their dense sum, beta* from project and frob_error from combine.  The
    sampler is picked as run_trial picks it, with J* gathered on the
    basis edges for the component sampler."""
    seed = trial_seed(cfg.seed, k, trial)
    rng = make_rng(seed)
    shuffle = rng if cfg.shuffle_support else None
    if cfg.generator == "matchings":
        raw = gen_matchings(cfg.n, k, shuffle)
    elif cfg.generator == "blocks":
        raw = gen_blocks(cfg.n, k, shuffle)
    else:
        raw = gen_erdos_renyi_incidence(cfg.n, k, cfg.er_p, rng)
    basis = gram_schmidt(raw)
    beta_raw = _true_beta(cfg, k, rng)
    J_star = sum(b * Jm for b, Jm in zip(beta_raw, raw))
    inf = infinity_norm(J_star)
    if inf > cfg.M and inf > 0:
        J_star = J_star * (cfg.M / inf)
    spec = IsingSpec.zero_field(J_star)
    if cfg.n <= EXACT_SAMPLE_LIMIT:
        x = exact_sample(enumerate_distribution(spec), rng)
        sampler = "exact"
    elif cfg.generator in ("matchings", "blocks"):
        x = component_sample(cfg.n, basis.rows, basis.cols,
                             J_star[basis.rows, basis.cols], rng)
        sampler = "exact"
    else:
        x = glauber_sample(spec, GlauberConfig(cfg.glauber_sweeps, seed), rng)
        sampler = "glauber"
    beta_star, _ = project(basis, J_star)
    res = fit(basis, x, MpleConfig(M=cfg.M, max_programs=cfg.max_iters,
                                   grad_tol=cfg.grad_tol))
    psi_star = psi(basis, beta_star, x)
    rec = TrialRecord(
        generator=cfg.generator, n=cfg.n, k=k, trial=trial, seed=seed,
        frob_error=frobenius_norm(combine(basis, res.beta_hat) - J_star),
        beta_error=float(np.linalg.norm(res.beta_hat - beta_star)),
        psi_gap=res.psi_hat - psi_star, psi_hat=res.psi_hat, psi_star=psi_star,
        inf_norm_hat=res.inf_norm_hat, iterations=res.iterations, sampler=sampler)
    return rec, basis, J_star, res


@pytest.mark.parametrize("shuffle", [False, True])
@pytest.mark.parametrize("generator", ["blocks", "erdos_renyi_incidence", "matchings"])
def test_run_trial_matches_dense_oracle(generator, shuffle):
    # every output is the dense trial's, bit for bit, except frob_error,
    # which is computed from coordinates instead of an n x n difference
    for n in (16, 64, 128):
        for k in (1, 4, 8):
            cfg = ExperimentConfig(generator=generator, n=n, k_grid=(k,), seed=93,
                                   er_p=0.1, glauber_sweeps=30, max_iters=30_000,
                                   grad_tol=1e-4, shuffle_support=shuffle)
            rec, basis, J_star, res = run_trial(cfg, k, 0)
            want_rec, want_basis, want_J, want_res = _dense_run_trial(cfg, k, 0)
            for f in dataclasses.fields(TrialRecord):
                if f.name != "frob_error":
                    assert repr(getattr(rec, f.name)) == repr(getattr(want_rec, f.name)), f.name
            assert abs(rec.frob_error - want_rec.frob_error) <= max(
                1e-12 * want_rec.frob_error, 1e-14)
            assert rec.frob_error >= rec.beta_error
            assert np.array_equal(J_star, want_J)
            for a, b in ((basis.rows, want_basis.rows),
                         (basis.coef, want_basis.coef),
                         (res.beta_hat, want_res.beta_hat),
                         (res.objective_trace, want_res.objective_trace)):
                assert np.array_equal(a, b)


def _watch_samplers(monkeypatch):
    """The models that run_trial hands glauber_sample, and the
    (n, rows, cols, values) it hands component_sample, as two lists."""
    specs, edges = [], []
    glauber, component = experiments.glauber_sample, experiments.component_sample
    monkeypatch.setattr(experiments, "glauber_sample",
                        lambda spec, *args: specs.append(spec) or glauber(spec, *args))

    def watched(n, rows, cols, values, rng):
        edges.append((n, rows, cols, values))
        return component(n, rows, cols, values, rng)

    monkeypatch.setattr(experiments, "component_sample", watched)
    return specs, edges


def _check_sampled_model(generator, specs, edges, stars):
    """Each trial sampled the model zero_field(J*), bit for bit: ER trials
    through Glauber on the read-only model, matchings and blocks trials
    through component_sample on edges that scatter to J*."""
    if generator == "erdos_renyi_incidence":
        assert len(specs) == len(stars) and edges == []
        Js = [spec.J for spec in specs]
        for spec in specs:
            assert spec.h.tobytes() == np.zeros(spec.n).tobytes()
            assert not spec.J.flags.writeable and not spec.h.flags.writeable
    else:
        assert specs == [] and len(edges) == len(stars)
        Js = [_scatter(n, (rows, cols, values)) for n, rows, cols, values in edges]
    for J, J_star in zip(Js, stars):
        want = IsingSpec.zero_field(J_star).J
        assert J.shape == want.shape and J.tobytes() == want.tobytes()
        assert not J_star.flags.writeable
        assert repr(infinity_norm(J)) == repr(infinity_norm(want))


@pytest.mark.parametrize("generator", ["blocks", "erdos_renyi_incidence", "matchings"])
def test_run_trial_builds_its_model_from_the_edges(generator, monkeypatch):
    # the model is zero_field(J*) bit for bit, with no dense validation
    validated = []
    validate = core.validate_interaction
    monkeypatch.setattr(core, "validate_interaction",
                        lambda J: validated.append(J) or validate(J))
    specs, edges = _watch_samplers(monkeypatch)
    stars = []
    for k in (1, 4, 8):
        cfg = ExperimentConfig(generator=generator, n=64, k_grid=(k,), seed=98,
                               er_p=0.1, glauber_sweeps=5, max_iters=5_000)
        stars.append(run_trial(cfg, k, 0)[2])
    monkeypatch.undo()
    assert validated == []
    _check_sampled_model(generator, specs, edges, stars)


@pytest.mark.parametrize("generator,n", [("matchings", 64), ("blocks", 64),
                                         ("erdos_renyi_incidence", 64), ("matchings", 16)])
def test_run_trial_checks_its_edges_once(generator, n, monkeypatch):
    # component_sample's check stands for the model's, so a component
    # trial builds J* without checking its edges again
    checked = []
    check = core.check_edges
    watched = lambda *a: checked.append(a) or check(*a)
    monkeypatch.setattr(core, "check_edges", watched)
    monkeypatch.setattr(sampler, "check_edges", watched)
    cfg = ExperimentConfig(generator=generator, n=n, k_grid=(4,), seed=97,
                           er_p=0.1, glauber_sweeps=5, max_iters=5_000)
    run_trial(cfg, 4, 0)
    assert len(checked) == 1


# M = 0.5 scales J* down to the budget; M = 100 leaves it as drawn
@pytest.mark.parametrize("M", [0.5, 100.0])
@pytest.mark.parametrize("generator", ["blocks", "erdos_renyi_incidence", "matchings"])
def test_run_trial_takes_one_norm_and_returns_the_models_J(generator, M, monkeypatch):
    # the rescale's dense norm is the trial's one pass over J*, and J_star
    # is the model's own read-only J, with the dense oracle's bits
    calls = []
    norm = core.infinity_norm
    for module in (core, experiments):
        monkeypatch.setattr(module, "infinity_norm", lambda J: calls.append(J) or norm(J))
    specs, edges = _watch_samplers(monkeypatch)
    cfg = ExperimentConfig(generator=generator, n=64, k_grid=(4,), seed=99, M=M,
                           er_p=0.1, glauber_sweeps=5, max_iters=5_000)
    J_star = run_trial(cfg, 4, 0)[2]
    assert len(calls) == 1
    monkeypatch.undo()
    _check_sampled_model(generator, specs, edges, [J_star])
    if specs:
        assert J_star is specs[0].J
    want = _dense_run_trial(cfg, 4, 0)[2]
    assert J_star.shape == want.shape and J_star.tobytes() == want.tobytes()


def test_run_trial_forms_no_dense_stack():
    # one n x n float64 array is 32 MiB at n = 2048; the trial keeps J* and
    # the model's copy of it, and no k n^2 raw family or basis stack
    n = 2048
    cfg = ExperimentConfig(n=n, k_grid=(8,), seed=61, glauber_sweeps=5,
                           max_iters=30_000, grad_tol=1e-4)
    tracemalloc.start()
    try:
        rec = run_trial(cfg, 8, 0)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rec.error and math.isfinite(rec.frob_error)
    assert peak < 4 * n * n * 8


def test_run_trial_keeps_one_dense_J():
    # the model's J and the rescale's scatter, which is dropped once its
    # norm is read, are the trial's only n x n arrays (2 n^2 8 bytes): no
    # scaled copy of J* and no dense row-sum pass of it is kept alive
    n = 1024
    cfg = ExperimentConfig(n=n, k_grid=(8,), seed=61, glauber_sweeps=5,
                           max_iters=30_000, grad_tol=1e-4)
    tracemalloc.start()
    try:
        rec = run_trial(cfg, 8, 0)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rec.error and math.isfinite(rec.frob_error)
    assert peak < 2.5 * n * n * 8


# ---------------------------------------------------------------------------
# The memo of families that no draw shapes


@pytest.mark.parametrize("generator", ["blocks", "matchings"])
def test_run_trial_gives_the_same_bits_from_a_warm_memo(generator):
    cfg = ExperimentConfig(generator=generator, n=64, k_grid=(4,), seed=94,
                           glauber_sweeps=30, max_iters=30_000, grad_tol=1e-4)
    experiments._fixed_family.cache_clear()
    cold = run_trial(cfg, 4, 3)
    experiments._fixed_family.cache_clear()
    for trial in range(3):
        run_trial(cfg, 4, trial)
    warm = run_trial(cfg, 4, 3)
    assert experiments._fixed_family.cache_info().hits == 3
    assert repr(warm[0]) == repr(cold[0])
    for a, b in ((warm[2], cold[2]), (warm[3].beta_hat, cold[3].beta_hat),
                 (warm[3].objective_trace, cold[3].objective_trace)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_run_trial_shares_only_a_family_no_draw_shapes():
    def bases(**kw):
        cfg = ExperimentConfig(n=32, k_grid=(2,), seed=95, glauber_sweeps=5,
                               max_iters=5_000, **kw)
        return run_trial(cfg, 2, 0)[1], run_trial(cfg, 2, 1)[1]

    for generator in ("matchings", "blocks"):
        a, b = bases(generator=generator)
        assert a is b
    for kw in ({"generator": "erdos_renyi_incidence", "er_p": 0.2},
               {"generator": "matchings", "shuffle_support": True},
               {"generator": "blocks", "shuffle_support": True}):
        a, b = bases(**kw)
        assert a is not b
        assert not np.array_equal(a.rows * 32 + a.cols,
                                  b.rows * 32 + b.cols), kw


def test_basis_edges_are_read_only():
    cfg = ExperimentConfig(n=32, k_grid=(2,), seed=96, glauber_sweeps=5, max_iters=5_000)
    shared = run_trial(cfg, 2, 0)[1]
    for basis in (shared, gram_schmidt(gen_erdos_renyi_incidence(20, 3, 0.3, make_rng(97)))):
        for name in ("rows", "cols", "coef"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(basis, name)[0] = 0
    values = experiments._fixed_family("matchings", 32, 2)[0]
    with pytest.raises(ValueError, match="read-only"):
        values[0, 0] = 2.0
