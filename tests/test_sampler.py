import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import chi2

import isingfit as isf
import isingfit.sampler as sampler_mod
from isingfit.core import IsingSpec
from isingfit.errors import DimensionTooLarge, NotCliqueUnion, NotContracting
from isingfit.experiments import (
    EXACT_SAMPLE_LIMIT,
    ExperimentConfig,
    _matchings_edges,
    _scatter,
    _true_beta,
    gen_blocks,
    gen_erdos_renyi_incidence,
    gen_matchings,
    run_trial,
    trial_seed,
)
from isingfit.sampler import (
    _BAND_SLACK,
    _DENSE_ROW,
    _DRAW_CHUNK,
    _TABLE_BASE,
    _TABLE_COST,
    _TABLE_MAX_N,
    GlauberConfig,
    _bands,
    _draw_plan,
    _linear_sums,
    _log_weights,
    _planned_draws,
    _step_draws,
    component_sample,
    empirical_distribution,
    enumerate_distribution,
    exact_sample,
    glauber_sample_many,
    log_partition,
    make_rng,
    spin_table,
)
from tests.test_core import random_spec


def test_enumerate_uniform():
    spec = IsingSpec.zero_field(np.zeros((3, 3)))
    dist = enumerate_distribution(spec)
    assert np.allclose(dist.probs, 1 / 8)
    assert dist.log_partition == pytest.approx(0.0, abs=1e-12)


def test_enumerate_two_spin_closed_form():
    for beta in (0.3, 0.7, -1.1):
        J = np.zeros((2, 2))
        J[0, 1] = J[1, 0] = beta
        spec = IsingSpec.zero_field(J)
        dist = enumerate_distribution(spec)
        # states (+,+),(−,+),(+,−),(−,−) carry weights e^b, e^-b, e^-b, e^b
        Z = 2 * math.exp(beta) + 2 * math.exp(-beta)
        assert dist.log_partition == pytest.approx(math.log(math.cosh(beta)))
        assert dist.probs[0] == pytest.approx(math.exp(beta) / Z)
        assert dist.probs[1] == pytest.approx(math.exp(-beta) / Z)


def test_enumerate_single_spin_logistic():
    h = 0.9
    spec = IsingSpec(np.zeros((1, 1)), np.array([h]))
    dist = enumerate_distribution(spec)
    Z = math.exp(h) + math.exp(-h)
    # index 0 is spin +1 by the canonical bit order
    assert dist.probs[0] == pytest.approx(math.exp(h) / Z)
    assert dist.probs[1] == pytest.approx(math.exp(-h) / Z)


def test_probs_normalized():
    spec = random_spec(8, 1.5, seed=1, with_field=True)
    dist = enumerate_distribution(spec)
    assert abs(dist.probs.sum() - 1.0) <= 1e-12


def test_enumeration_guard():
    with pytest.raises(DimensionTooLarge):
        enumerate_distribution(IsingSpec.zero_field(np.zeros((23, 23))))


# ---------------------------------------------------------------------------
# Oracle: the dense enumeration, which took x'Jx/2 + h'x over 65 536-row
# chunks of the full spin table (verbatim), and scipy's log-sum-exp.

_CHUNK = 1 << 16


def _dense_log_weights(spec):
    n = spec.n
    total = 1 << n
    out = np.empty(total)
    for start in range(0, total, _CHUNK):
        X = spin_table(n, start, min(start + _CHUNK, total))
        out[start:start + X.shape[0]] = (
            0.5 * np.einsum("ci,ij,cj->c", X, spec.J, X) + X @ spec.h
        )
    return out


# n = 0 and 1 leave the low half empty, odd n gives unequal halves and
# n = 18 spans four of the oracle's chunks
@pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 13, 18])
@pytest.mark.parametrize("with_field", [False, True])
@pytest.mark.parametrize("M", [0.5, 3.0])
def test_log_weights_match_dense_oracle(n, with_field, M):
    spec = random_spec(n, M, seed=60 + n, with_field=with_field)
    got, want = _log_weights(spec), _dense_log_weights(spec)
    assert got.shape == want.shape == (1 << n,)
    tol = 1e-12 * (1.0 + np.abs(want).max())
    assert np.abs(got - want).max() <= tol
    F = log_partition(spec)
    assert abs(F - (float(logsumexp(want)) - n * math.log(2.0))) <= tol
    dist = enumerate_distribution(spec)
    assert np.array_equal(dist.log_weights, got) and dist.log_partition == F
    # the linear statistic a'x that linear_variance_exact enumerates
    a = make_rng(62).normal(size=n)
    want = spin_table(n) @ a
    assert np.abs(_linear_sums(n, a) - want).max() <= 1e-12 * (1.0 + np.abs(want).max())


def test_split_tables_keep_bit_order():
    n = 7
    spec = random_spec(n, 1.5, seed=61, with_field=True)
    a = make_rng(63).normal(size=n)
    weights, sums = _log_weights(spec), _linear_sums(n, a)
    for idx in range(1 << n):
        x = spin_table(n, idx, idx + 1)[0]
        assert weights[idx] == pytest.approx(0.5 * x @ spec.J @ x + spec.h @ x,
                                             rel=1e-12, abs=1e-12)
        assert sums[idx] == pytest.approx(a @ x, rel=1e-12, abs=1e-12)


def test_log_partition_zero():
    assert log_partition(IsingSpec.zero_field(np.zeros((4, 4)))) == pytest.approx(0.0)


def test_log_partition_convex_along_line():
    spec = random_spec(6, 1.0, seed=2)
    ts = np.linspace(-1.5, 1.5, 5)
    d = 1e-3
    for t in ts:
        Fs = [log_partition(IsingSpec.zero_field(s * spec.J))
              for s in (t - d, t, t + d)]
        second = (Fs[0] - 2 * Fs[1] + Fs[2]) / d ** 2
        assert second >= -1e-8


def test_log_partition_monotone_in_line_scale():
    spec = random_spec(8, 1.0, seed=3)
    vals = [log_partition(IsingSpec.zero_field(t * spec.J))
            for t in (0.0, 0.3, 0.9, 1.8)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(0.0, abs=1e-12)


def test_global_flip_symmetry_zero_field():
    spec = random_spec(6, 1.2, seed=4)
    dist = enumerate_distribution(spec)
    flipped = dist.probs[::-1]  # index complement == global spin flip
    assert np.allclose(dist.probs, flipped, atol=1e-12)


def test_exact_sample_deterministic():
    spec = random_spec(5, 1.0, seed=5)
    dist = enumerate_distribution(spec)
    x1 = exact_sample(dist, make_rng(99))
    x2 = exact_sample(dist, make_rng(99))
    assert np.array_equal(x1, x2)


def test_exact_sample_degenerate_table():
    dist = enumerate_distribution(IsingSpec.zero_field(np.zeros((3, 3))))
    forced = dist.__class__(3, dist.log_weights, dist.log_partition,
                            np.eye(8)[5])
    for seed in range(5):
        x = exact_sample(forced, make_rng(seed))
        assert np.array_equal(x, spin_table(3, 5, 6)[0].astype(int))


def test_exact_sample_uniform_frequencies():
    spec = IsingSpec.zero_field(np.zeros((4, 4)))
    dist = enumerate_distribution(spec)
    X = exact_sample(dist, make_rng(7), count=10_000)
    emp = empirical_distribution(X, 4)
    p = 1 / 16
    sigma = math.sqrt(p * (1 - p) / 10_000)
    assert np.all(np.abs(emp - p) <= 4 * sigma)


# ---------------------------------------------------------------------------
# Exact draws from products of cliques (component_sample)


def _clique_edges(n, cliques, couplings):
    """The sorted edges (rows, cols, values) of cliques on the given nodes,
    each clique with its one coupling."""
    keys, values = [], []
    for nodes, c in zip(cliques, couplings):
        a, b = np.triu_indices(len(nodes), k=1)
        nodes = np.asarray(nodes)
        keys += (np.minimum(nodes[a], nodes[b]) * n + np.maximum(nodes[a], nodes[b])).tolist()
        values += [c] * len(a)
    order = np.argsort(keys)
    rows, cols = np.divmod(np.asarray(keys, dtype=np.int64)[order], n)
    return rows, cols, np.asarray(values, dtype=np.float64)[order]


# Cliques on shuffled nodes: four pairs; cliques of 4, 3 and 3; and
# cliques of 5, 2 and 3 with nodes 5 and 7 left isolated.
_PRODUCTS = {
    "pairs": (8, [[5, 1], [0, 6], [7, 2], [3, 4]], [0.4, -0.9, 1.3, -0.2]),
    "cliques": (10, [[9, 2, 4, 0], [1, 8, 5], [3, 6, 7]], [0.35, -0.5, 0.8]),
    "mix": (12, [[11, 3, 6, 0, 8], [2, 9], [10, 4, 1]], [0.25, -1.1, 0.6]),
}


def _chi2_pvalue(counts, probs):
    """Pearson's chi^2 p-value of counts against probs, with the cells
    expected fewer than 5 times pooled into one."""
    expected = counts.sum() * probs
    small = expected < 5.0
    obs = np.append(counts[~small], counts[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    if exp[-1] == 0.0:
        obs, exp = obs[:-1], exp[:-1]
    return float(chi2.sf(((obs - exp) ** 2 / exp).sum(), len(obs) - 1))


@pytest.mark.parametrize("case", sorted(_PRODUCTS))
def test_component_sample_matches_enumeration(case):
    n, cliques, couplings = _PRODUCTS[case]
    rows, cols, values = _clique_edges(n, cliques, couplings)
    probs = enumerate_distribution(IsingSpec.from_edges(n, rows, cols, values)).probs
    rng = make_rng(81)
    X = np.array([component_sample(n, rows, cols, values, rng) for _ in range(12_000)])
    assert X.dtype == np.int64 and X.shape == (12_000, n)
    counts = np.bincount(sampler_mod._indices(X), minlength=1 << n)
    assert _chi2_pvalue(counts, probs) > 1e-3


# Disordered (c s < 1), ordered and antiferromagnetic couplings on one
# 14-node clique: the law of the +1 count m, C(s, m) exp(c ((2m - s)^2 - s)
# / 2) normalised, has the enumerated partition function, puts the
# enumerated mass on each m, and the draws follow it.
@pytest.mark.parametrize("c", [0.05, 0.2, -0.3])
def test_component_sample_draws_the_curie_weiss_law_of_one_clique(c):
    s = 14
    rows, cols = np.triu_indices(s, k=1)
    values = np.full(rows.size, c)
    spec = IsingSpec.from_edges(s, rows, cols, values)
    log_w = np.array([math.lgamma(s + 1) - math.lgamma(m + 1) - math.lgamma(s - m + 1)
                      + c * ((2 * m - s) ** 2 - s) / 2 for m in range(s + 1)])
    lse = float(logsumexp(log_w))
    assert lse - s * math.log(2.0) == pytest.approx(log_partition(spec), abs=1e-12)
    law = np.exp(log_w - lse)
    plus = (spin_table(s) > 0).sum(axis=1)
    enumerated = np.bincount(plus, enumerate_distribution(spec).probs, minlength=s + 1)
    assert np.abs(enumerated - law).max() <= 1e-12
    rng = make_rng(82)
    draws = [int((component_sample(s, rows, cols, values, rng) > 0).sum()) for _ in range(4_000)]
    assert _chi2_pvalue(np.bincount(draws, minlength=s + 1), law) > 1e-3


# A 3-node path, a triangle with two couplings and a 4-clique missing the
# edge (2, 3) are no union of cliques with one coupling each; the call
# refuses them before it draws.
@pytest.mark.parametrize("rows,cols,values", [
    ([0, 1], [1, 2], [0.5, 0.5]),
    ([0, 0, 1], [1, 2, 2], [0.5, 0.5, -0.5]),
    ([0, 0, 0, 1, 1], [1, 2, 3, 2, 3], [0.5] * 5)],
    ids=["path", "two-couplings", "missing-edge"])
def test_component_sample_refuses_other_supports(rows, cols, values):
    rng = make_rng(83)
    with pytest.raises(NotCliqueUnion):
        component_sample(5, rows, cols, values, rng)
    assert rng.random() == make_rng(83).random()


class _RecordedUniforms:
    """A Generator whose ``random`` draws are kept, one array a call."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def random(self, size=None):
        self.calls.append(self._rng.random(size))
        return self.calls[-1]


# The draw order, against a plain-Python oracle: one uniform per
# component, the components numbered by their smallest node, inverts the
# CDF of the component's +1 count m; then one uniform per node orders each
# component's nodes, and its first m take +1.
@pytest.mark.parametrize("seed", range(20))
def test_component_sample_takes_one_uniform_per_component_then_one_per_node(seed):
    n, cliques, couplings = _PRODUCTS["mix"]
    rows, cols, values = _clique_edges(n, cliques, couplings)
    rng = _RecordedUniforms(make_rng(seed))
    x = component_sample(n, rows, cols, values, rng)
    u, v = (a.tolist() for a in rng.calls)
    assert len(rng.calls) == 2 and len(u) == 5 and len(v) == n
    components = sorted(zip(cliques + [[5], [7]], couplings + [0.0, 0.0]), key=lambda t: min(t[0]))
    want = [0] * n
    for (nodes, c), ui in zip(components, u):
        size = len(nodes)
        weights = [math.comb(size, m) * math.exp(c * ((2 * m - size) ** 2 - size) / 2)
                   for m in range(size + 1)]
        acc, total = 0.0, sum(weights)
        plus = next(m for m, w in enumerate(weights) if ui * total < (acc := acc + w))
        for rank, j in enumerate(sorted(nodes, key=v.__getitem__)):
            want[j] = 1 if rank < plus else -1
    assert x.tolist() == want
    ref = make_rng(seed)
    ref.random(5)
    ref.random(n)
    assert rng._rng.random() == ref.random()


def test_glauber_independent_spins_match_field():
    n = 5
    h = np.array([0.0, 0.4, -0.8, 1.2, -0.2])
    spec = IsingSpec(np.zeros((n, n)), h)
    X = glauber_sample_many(spec, 10_000, GlauberConfig(5, seed=11))
    means = X.mean(axis=0)
    for i in range(n):
        sigma = math.sqrt((1 - math.tanh(h[i]) ** 2) / 10_000)
        assert abs(means[i] - math.tanh(h[i])) <= 4 * sigma + 1e-9


def test_glauber_detailed_balance():
    spec = random_spec(5, 1.3, seed=12, with_field=True)
    for idx in range(1 << 5):
        x = spin_table(5, idx, idx + 1)[0]
        w_x = 0.5 * x @ spec.J @ x + spec.h @ x
        for i in range(5):
            y = x.copy()
            y[i] = -x[i]
            w_y = 0.5 * y @ spec.J @ y + spec.h @ y
            p_flip_from_x = 0.5 * (1 - x[i] * math.tanh(isf.local_field(spec, x, i)))
            p_flip_from_y = 0.5 * (1 - y[i] * math.tanh(isf.local_field(spec, y, i)))
            lhs = math.exp(w_x) * p_flip_from_x
            rhs = math.exp(w_y) * p_flip_from_y
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_glauber_chain_probabilities_interior():
    spec = random_spec(6, 2.0, seed=13, with_field=True)
    rng = make_rng(14)
    for _ in range(50):
        x = 1.0 - 2.0 * rng.integers(0, 2, size=6)
        i = int(rng.integers(6))
        p = isf.conditional_prob_plus(spec, x, i)
        assert 1e-300 < p < 1 - 1e-300


def test_glauber_config_validation():
    with pytest.raises(ValueError):
        GlauberConfig(0)


# A JSON config can give 300.0 for an integer field; it is refused where
# the config is made, naming the value, not deep in the sampler's draws.
@pytest.mark.parametrize("sweeps", [300.0, 2.5, np.float64(3.0), True, np.True_, "3"])
def test_glauber_config_refuses_a_non_integer_sweep_count(sweeps):
    with pytest.raises(ValueError, match=re.escape(repr(sweeps))):
        GlauberConfig(sweeps)


@pytest.mark.parametrize("sweeps", [3, np.int64(3), np.int32(3), np.uint8(3)])
def test_glauber_config_takes_python_and_numpy_integers(sweeps):
    assert GlauberConfig(sweeps).burn_in_sweeps == 3


# The config refuses the count when it is made, before any trial builds
# its family and basis, at every n and for every generator.
def test_run_trial_refuses_a_float_sweep_count():
    with pytest.raises(ValueError, match=r"burn_in_sweeps must be an integer, got 300\.0"):
        run_trial(ExperimentConfig(n=EXACT_SAMPLE_LIMIT + 1, glauber_sweeps=300.0), 1, 0)


def test_glauber_deterministic_given_seed():
    spec = random_spec(6, 0.5, seed=15)
    cfg = GlauberConfig(20, seed=123)
    a = glauber_sample_many(spec, 4, cfg)
    b = glauber_sample_many(spec, 4, cfg)
    assert np.array_equal(a, b)


def _random_scan_kernel(spec):
    """The (2^n, 2^n) transition matrix of one random-scan heat-bath step,
    over configuration indices: pick a uniform site and resample it from
    its conditional."""
    n = spec.n
    S = spin_table(n)
    idx = np.arange(1 << n)
    P = np.zeros((1 << n, 1 << n))
    for i in range(n):
        p_plus = 0.5 * (1.0 + np.tanh(S @ spec.J[i] + spec.h[i]))
        P[idx, idx & ~(1 << i)] += p_plus / n   # bit i clear: x_i = +1
        P[idx, idx | (1 << i)] += (1.0 - p_plus) / n
    return P


def _model_at_alpha(n, alpha, seed):
    """A model with max_i sum_j tanh|J_ij| = alpha, mixed-sign couplings
    of unequal sizes and a nonzero field."""
    rng = make_rng(seed)
    T = np.triu(rng.uniform(0.2, 1.0, size=(n, n)), 1)
    T = T + T.T
    T *= alpha / T.sum(axis=1).max()
    signs = np.triu(np.where(rng.random((n, n)) < 0.5, -1.0, 1.0), 1)
    return IsingSpec(np.arctanh(T) * (signs + signs.T), rng.uniform(-0.5, 0.5, n))


@pytest.mark.parametrize("alpha", [0.30, 0.49, 0.88])
def test_certified_sweeps_bound_the_exact_worst_start_tv(alpha):
    # path coupling: after t sweeps, TV <= n exp(-(1 - alpha) t) from any
    # start, checked on the exact kernel over all 32 states at n = 5
    n = 5
    spec = _model_at_alpha(n, alpha, seed=int(100 * alpha))
    assert float(np.tanh(np.abs(spec.J)).sum(axis=1).max()) == pytest.approx(alpha)
    P = _random_scan_kernel(spec)
    pi = enumerate_distribution(spec).probs

    def worst_tv(sweeps):
        return 0.5 * np.abs(np.linalg.matrix_power(P, sweeps * n) - pi).sum(axis=1).max()

    for t in (5, 10, 20, 40):
        assert worst_tv(t) <= n * math.exp(-(1.0 - alpha) * t)
    t = sampler_mod.certified_sweeps(spec)
    assert n * math.exp(-(1.0 - alpha) * t) <= sampler_mod.TV_TARGET
    assert n * math.exp(-(1.0 - alpha) * (t - 1)) > sampler_mod.TV_TARGET
    assert worst_tv(t) <= sampler_mod.TV_TARGET


def test_certified_sweeps_of_an_empty_model_is_one():
    # no rows: alpha = 0 and n exp(-t) = 0 at every t, so the fewest sweeps
    # GlauberConfig takes
    spec = IsingSpec.zero_field(np.zeros((0, 0)))
    assert sampler_mod.certified_sweeps(spec) == 1
    draws = glauber_sample_many(spec, 2, GlauberConfig(1, seed=3))
    assert draws.shape == (2, 0)


def test_certified_sweeps_refuse_a_model_without_contraction():
    # nothing is certified at alpha >= 1: the n = 65, M = 4 ER model
    # (alpha = 3.98) and a small model at alpha = 1.5
    for spec in (_model("erdos_renyi", 65, False, M=4.0), _model_at_alpha(5, 1.5, seed=3)):
        with pytest.raises(NotContracting, match="alpha"):
            sampler_mod.certified_sweeps(spec)


# ---------------------------------------------------------------------------
# Oracles: the vectorised multi-chain loop, kept verbatim, which single
# chains ran before they had a scalar path; and the scalar per-update
# path, which they ran before their draws were decoded in bulk (count
# fixed to 1, the update loop verbatim).


def _vectorised_glauber(spec, count, cfg, rng=None):
    if rng is None:
        rng = make_rng(cfg.seed)
    n = spec.n
    X = 1.0 - 2.0 * rng.integers(0, 2, size=(count, n)).astype(np.float64)
    steps = cfg.burn_in_sweeps * n
    rows = np.arange(count)
    for _ in range(steps):
        sites = rng.integers(0, n, size=count)
        fields = np.einsum("cj,cj->c", spec.J[sites], X) + spec.h[sites]
        p_plus = 0.5 * (1.0 + np.tanh(fields))
        X[rows, sites] = np.where(rng.random(count) < p_plus, 1.0, -1.0)
    return X.astype(np.int64)


def _scalar_glauber(spec, cfg, rng=None):
    if rng is None:
        rng = make_rng(cfg.seed)
    n = spec.n
    X = 1.0 - 2.0 * rng.integers(0, 2, size=(1, n)).astype(np.float64)
    steps = cfg.burn_in_sweeps * n
    J, h, x = spec.J, spec.h, X[0]
    for _ in range(steps):
        s = rng.integers(0, n)
        p_plus = 0.5 * (1.0 + np.tanh(J[s] @ x + h[s]))
        x[s] = 1.0 if rng.random() < p_plus else -1.0
    return X.astype(np.int64)


def _model(kind, n, with_field, M=0.9, k=3):
    if kind == "matchings":
        raw = gen_matchings(n, k, make_rng(50))
    elif kind == "blocks":
        raw = gen_blocks(n, k)
    else:
        raw = gen_erdos_renyi_incidence(n, k, 0.2, make_rng(51))
    J = sum(c * R for c, R in zip(make_rng(52).uniform(-1.0, 1.0, k), raw))
    J *= M / isf.infinity_norm(J)
    h = make_rng(53).normal(size=n) * min(M, 0.3) if with_field else np.zeros(n)
    return IsingSpec(J, h)


def _with_lone_sites(spec):
    """spec with sites 0 and 1 cut off from the rest: site 0 sees only its
    field, 0.7, and site 1 nothing at all (R_1 = 0, p = 1/2 exactly)."""
    J, h = spec.J.copy(), spec.h.copy()
    J[:2] = J[:, :2] = 0.0
    h[:2] = 0.7, 0.0
    return IsingSpec(J, h)


# (n, sweeps, buffered): n >= 32 runs BLAS's unrolled kernel, and ER at
# n = 65 has rows on both sides of the dense-row cut; odd sweeps * n ends
# on a lone step; more than _DRAW_CHUNK steps crosses a chunk boundary;
# ``buffered`` enters with the high half of a 64-bit word pending.  The
# first case is also run by the vectorised oracle.  At M = 0.5 most
# updates are decided by their uniform alone (``_bands``), at M = 4 almost
# none; sites 0 and 1 have R_s = |h_s| and R_s = 0.
_CHAIN_CASES = [(30, 40, False), (33, 41, False), (64, 33, True), (65, 65, True)]
_CHAIN_NORMS = [0.02, 0.5, 0.9, 4.0]


def _check_single_chain(spec, cfg, buffered=False, seed=56, bit_generator=np.random.Philox):
    """Spins and the next draw of glauber_sample_many against the scalar oracle."""
    rng_a, rng_b = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    if buffered:
        rng_a.integers(0, spec.n)
        rng_b.integers(0, spec.n)
    got = glauber_sample_many(spec, 1, cfg, rng_a)
    want = _scalar_glauber(spec, cfg, rng_b)
    case = (spec.n, isf.infinity_norm(spec.J), cfg, buffered)
    assert got.dtype == want.dtype and np.array_equal(got, want), case
    assert rng_a.random() == rng_b.random(), case  # both consumed the same draws
    return want


@pytest.mark.parametrize("kind", ["matchings", "blocks", "erdos_renyi"])
@pytest.mark.parametrize("with_field", [False, True])
def test_single_chain_matches_vectorised_oracle(kind, with_field):
    for (n, sweeps, buffered), M in itertools.product(_CHAIN_CASES, _CHAIN_NORMS):
        spec = _with_lone_sites(_model(kind, n, with_field, M))
        cfg = GlauberConfig(sweeps, seed=54)
        want = _check_single_chain(spec, cfg, buffered)
        if (n, sweeps, buffered) == _CHAIN_CASES[0]:
            assert np.array_equal(want, _vectorised_glauber(spec, 1, cfg, make_rng(56)))
            # without an explicit generator both seed one from cfg.seed
            assert np.array_equal(glauber_sample_many(spec, 1, cfg),
                                  _scalar_glauber(spec, cfg))


def _test_05_chains(k, trials):
    """The models of run_trial's trials at the test_05 config (matchings,
    n = 128, M = 0.5), with the 300-sweep chain each ran before matchings
    were drawn exactly, as (spec, cfg, seed)."""
    cfg = ExperimentConfig(n=128, k_grid=(k,), seed=15)
    for trial in range(trials):
        seed = trial_seed(cfg.seed, k, trial)
        rng = make_rng(seed)
        raw = [_scatter(cfg.n, e) for e in _matchings_edges(cfg.n, k)]
        J = sum(b * R for b, R in zip(_true_beta(cfg, k, rng), raw))
        if isf.infinity_norm(J) > cfg.M:
            J = J * (cfg.M / isf.infinity_norm(J))
        yield IsingSpec.zero_field(J), GlauberConfig(cfg.glauber_sweeps, seed), seed


# Chains on both sides of the dense-row cut: dense rows (one 65-clique),
# ER at M = 4 and a single sweep of a test_05-config chain; one chain runs
# on an MT19937 generator, whose draws are taken by scalar calls and
# regenerated from its saved states.
def test_single_chain_paths():
    forward = [(_model("blocks", 65, False, 0.5, k=1), 20),
               (_model("erdos_renyi", 64, True, 4.0), 20),
               (next(_test_05_chains(8, 1))[0], 1)]
    for spec, sweeps in forward:
        _check_single_chain(spec, GlauberConfig(sweeps, seed=54))
    _check_single_chain(forward[1][0], GlauberConfig(20, seed=54),
                        bit_generator=np.random.MT19937)


def _chain_bounds(spec):
    """R_s = sum_j |J_sj| + |h_s| as _single_chain sums it: over the row's
    nonzeros in column order."""
    rows, cols = np.nonzero(spec.J)
    return np.bincount(rows, np.abs(spec.J[rows, cols]), minlength=spec.n) + np.abs(spec.h)


def _chain_p(spec, s, x):
    """P(x_s = +1 | x) computed as _single_chain computes it for row s."""
    row = np.flatnonzero(spec.J[s])
    if len(row) > _DENSE_ROW:
        f = float(spec.J[s] @ x)
    else:
        f, xs = 0.0, x.tolist()
        for j, w in zip(row.tolist(), spec.J[s, row].tolist()):
            f += w * xs[j]
    f += spec.h.tolist()[s]
    return float(0.5 * (1.0 + np.tanh(f)))


# Blocks at k = 1, n = 65 is one clique: every row takes the BLAS product.
@pytest.mark.parametrize("kind,k,n", [("matchings", 3, 64), ("blocks", 3, 65),
                                      ("blocks", 1, 65), ("erdos_renyi", 3, 65)])
@pytest.mark.parametrize("M", _CHAIN_NORMS)
def test_band_holds_the_chains_extreme_conditionals(kind, k, n, M):
    spec = _with_lone_sites(_model(kind, n, True, M, k))
    degrees = np.count_nonzero(spec.J, axis=1)
    if k == 1:
        assert degrees[2:].min() > _DENSE_ROW
    lo, hi = _bands(_chain_bounds(spec), degrees)
    assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
    for s in range(n):
        sign = np.where(spec.J[s] < 0.0, -1.0, 1.0)
        for x in (sign, -sign):  # the fields +-sum_j |J_sj| + h_s
            assert lo[s] < _chain_p(spec, s, x) < hi[s], (s, x)
    # the edges sit within _BAND_SLACK + 1 ulp of the field band
    R = _chain_bounds(spec)
    assert np.all(np.abs(lo - (0.5 * (1.0 - np.tanh(R)) - _BAND_SLACK)) <= 2.0 ** -52)
    assert np.all(np.abs(hi - (0.5 * (1.0 + np.tanh(R)) + _BAND_SLACK)) <= 2.0 ** -52)


# Blocks of 16 at M = 0.02: each row sums 15 equal magnitudes, which
# numpy's pairwise sum and the chain's column-order sum round apart on
# many rows.  The bands may move by that last bit; the spins and the draws
# stay the oracle's.
def test_chain_bounds_summed_in_edge_order_keep_the_spins():
    spec = _model("blocks", 64, True, 0.02, k=4)
    dense = np.sum(np.abs(spec.J), axis=1) + np.abs(spec.h)
    assert np.count_nonzero(_chain_bounds(spec) != dense) > 0
    _check_single_chain(spec, GlauberConfig(40, seed=72))


def test_band_is_empty_where_rounding_could_reach_it():
    lo, hi = _bands(np.array([0.0, 1e3, 1e6, 1e9]), np.array([0, 3, 3, 3]))
    assert lo.tolist()[:2] == [0.5 - _BAND_SLACK, 0.0 - _BAND_SLACK]
    assert lo.tolist()[2:] == [-np.inf, -np.inf] and hi.tolist()[2:] == [np.inf, np.inf]


def _count_tables(monkeypatch):
    """The n of every conditional table glauber_sample_many builds."""
    built = []
    real = sampler_mod._conditional_table

    def counted(spec):
        built.append(spec.n)
        return real(spec)

    monkeypatch.setattr(sampler_mod, "_conditional_table", counted)
    return built


def _check_multi_chain(spec, count, cfg):
    rng_a, rng_b = make_rng(60), make_rng(60)
    got = glauber_sample_many(spec, count, cfg, rng_a)
    want = _vectorised_glauber(spec, count, cfg, rng_b)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert rng_a.random() == rng_b.random()  # both consumed the same draws


def _table_work(n):
    """The fewest updates (steps * count) for which glauber_sample_many
    builds the table at n sites under the size cap."""
    return _TABLE_COST * ((n << n) + _TABLE_BASE)


# An odd count leaves the high 32-bit half of a word buffered between
# steps, so the next step's draws start mid-word.  At n = 8 the table
# branch runs at the fewest sweeps the work rule allows (with 2 and 64
# chains, exactly at its bound) and the einsum branch one sweep below; n
# above the size cap keeps the einsum step.
@pytest.mark.parametrize("count", [2, 7, 64])
@pytest.mark.parametrize("with_field", [False, True])
def test_multi_chain_matches_vectorised_oracle(count, with_field, monkeypatch):
    built = _count_tables(monkeypatch)
    fewest = -(-_table_work(8) // (8 * count))
    for n, sweeps, tabled in [(8, fewest, True), (8, fewest - 1, False),
                              (_TABLE_MAX_N + 1, 2, False)]:
        spec = _model("erdos_renyi", n, with_field)
        cfg = GlauberConfig(sweeps, seed=58)
        built.clear()
        _check_multi_chain(spec, count, cfg)
        assert built == ([n] if tabled else []), (n, sweeps)


class _SetUniforms:
    """A Generator that draws site 0 and the given uniforms; its bit
    generator is not Philox, so the decoder takes these calls."""

    def __init__(self, uniforms):
        self.bit_generator = np.random.MT19937(0)
        self._uniforms = uniforms

    def integers(self, low, high, size):
        return np.zeros(size, dtype=np.int64)

    def random(self, size):
        return self._uniforms


# The integer threshold ceil(p 2^53) decides as u >= p does at the
# uniforms next to p: one site with p below 1/2 (where p 2^53 need not be
# an integer), above it, at exactly 1/2, and saturated at 0 and 1.
@pytest.mark.parametrize("h", [-0.3, 0.3, 0.0, -40.0, 40.0])
def test_table_threshold_decides_as_the_uniform_does(h):
    spec = IsingSpec(np.zeros((1, 1)), np.array([h]))
    p = float(sampler_mod._conditional_table(spec)[0, 0])
    k = math.ceil(p * 2.0 ** 53)
    uniforms = np.array([j * 2.0 ** -53 for j in range(max(k - 2, 0), min(k + 3, 2 ** 53))])
    assert (uniforms < p).any() or p == 0.0
    assert (uniforms >= p).any() or p == 1.0
    idx = np.zeros(len(uniforms), dtype=np.int64)
    got = sampler_mod._table_chains(spec, idx, _SetUniforms(uniforms), 1)
    assert got.tolist() == (uniforms >= p).astype(int).tolist()  # bit 0 set: x = -1


# Every entry of the table has the bits of the einsum step's p_plus, with
# the configurations shuffled across chains and the sites mixed in a step.
@pytest.mark.parametrize("with_field", [False, True])
def test_conditional_table_matches_einsum_step_bitwise(with_field):
    n = 9
    order = make_rng(61).permutation(1 << n)
    X = spin_table(n)[order]
    mixed = make_rng(62).integers(0, n, 1 << n)
    for spec in [_model("erdos_renyi", n, with_field), random_spec(n, 0.9, 63, with_field)]:
        P = sampler_mod._conditional_table(spec)
        for sites in [np.full(1 << n, s) for s in range(n)] + [mixed]:
            want = sampler_mod._p_plus(spec.J[sites], X, spec.h[sites])
            assert np.array_equal(P[sites, order], want)


# With the fewest chains the work rule allows at two sweeps, the table is
# built at the size cap and not one site above it.
@pytest.mark.parametrize("n", [_TABLE_MAX_N, _TABLE_MAX_N + 1])
def test_multi_chain_size_cap(n, monkeypatch):
    built = _count_tables(monkeypatch)
    count = -(-_table_work(n) // (2 * n))
    _check_multi_chain(_model("erdos_renyi", n, True), count, GlauberConfig(2, seed=58))
    assert built == ([n] if n <= _TABLE_MAX_N else [])


class _CountedCalls:
    """A Generator whose ``integers`` calls are counted."""

    def __init__(self, rng):
        self._rng = rng
        self.bit_generator = rng.bit_generator
        self.calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self._rng.integers(*args, **kwargs)

    def random(self, *args):
        return self._rng.random(*args)


# One site draw in 2**32 / (2**32 mod n) is rejected.  n = 2**31 + 1
# rejects about half of them, so every chunk is redone by scalar calls.
# _REJECTING rejects one in _DRAW_CHUNK, so a chunk of _DRAW_CHUNK steps
# is clean with probability about 1/e: some chunks are decoded in bulk and
# some redone.  An MT19937 generator lays its words out differently and is
# drawn from by scalar calls.
_REJECTING = 2 ** 32 - 2 ** 32 // _DRAW_CHUNK


@pytest.mark.parametrize("n,bit_generator", [
    (1, np.random.Philox), (3, np.random.Philox), (128, np.random.Philox),
    (2 ** 31 + 1, np.random.Philox), (_REJECTING, np.random.Philox),
    (128, np.random.MT19937)])
@pytest.mark.parametrize("buffered", [False, True])
def test_draw_plan_matches_scalar_calls(n, bit_generator, buffered):
    steps = 2 * _DRAW_CHUNK + 3
    rng_a, rng_b, rng_c = (np.random.Generator(bit_generator(57)) for _ in range(3))
    if buffered:
        for rng in (rng_a, rng_b, rng_c):
            rng.integers(0, n)
    counted = _CountedCalls(rng_a)
    plan = _draw_plan(counted, n, steps)
    # the plan draws only the chunks that are not bulk by scalar calls
    assert counted.calls == sum(m for _, m, bulk in plan if not bulk)
    chunks, redone = [], []
    for chunk in plan:
        counted.calls = 0
        chunks.append(_planned_draws(counted, n, chunk))
        redone.append(counted.calls > 0)
    assert max(len(s) for s, _ in chunks) <= _DRAW_CHUNK
    if n == _REJECTING:
        full = [r for (s, _), r in zip(chunks, redone) if len(s) == _DRAW_CHUNK]
        assert set(full) == {False, True}, full
    sites = np.concatenate([s for s, _ in chunks])
    uniforms = np.concatenate([u for _, u in chunks])
    want = [(rng_b.integers(0, n), rng_b.random()) for _ in range(steps)]
    assert sites.dtype == np.int64
    assert sites.tolist() == [int(s) for s, _ in want]
    assert uniforms.tolist() == [u for _, u in want]
    # a chunk is bulk exactly where it is decoded without scalar calls, and
    # a second plan regenerates the same chunks from its saved states in
    # any order
    assert [(m, bulk) for _, m, bulk in plan] == [(len(s), not r) for (s, _), r in
                                                  zip(chunks, redone)]
    plan = _draw_plan(rng_c, n, steps)
    for i in reversed(range(len(plan))):
        got = _planned_draws(rng_c, n, plan[i])
        assert got[0].dtype == np.int64
        assert got[0].tolist() == chunks[i][0].tolist()
        assert got[1].tolist() == chunks[i][1].tolist()
    # the same state after, buffered 32-bit half included
    after = [rng_b.integers(0, 3), rng_b.random()]
    assert [rng_a.integers(0, 3), rng_a.random()] == after
    assert [rng_c.integers(0, 3), rng_c.random()] == after


def _same_state(a, b):
    """Whether two bit generator states are equal, arrays included."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


# One site in 1 443 is rejected at _SOMETIMES, so about half the steps of
# 1 000 sites hold a rejection: they are redrawn by the vector calls after
# clean steps, from a state rebuilt by advancing.
_SOMETIMES = 2 ** 32 - 2 ** 32 // 1443


# The decoder against consecutive vector calls: odd counts leave a half
# buffered between steps, and a scalar draw leaves one at entry; n = 1
# draws no site words; 2**31 + 1 rejects about half the sites, so every
# step of 1 000 is redrawn; MT19937 is drawn by the calls throughout.
# "redrawn" is how many of the 12 steps of 1 000 chains take the calls.
@pytest.mark.parametrize("n,bit_generator,redrawn", [
    (1, np.random.Philox, "none"), (2, np.random.Philox, "none"),
    (3, np.random.Philox, "none"), (8, np.random.Philox, "none"),
    (14, np.random.Philox, "none"), (2 ** 31 + 1, np.random.Philox, "all"),
    (_SOMETIMES, np.random.Philox, "some"), (14, np.random.MT19937, "all")])
@pytest.mark.parametrize("count", [1, 2, 7, 1000])
@pytest.mark.parametrize("buffered", [False, True])
def test_step_draws_match_vector_calls(n, bit_generator, redrawn, count, buffered):
    steps = 12
    rng_a, rng_b = (np.random.Generator(bit_generator(57)) for _ in range(2))
    if buffered:
        for rng in (rng_a, rng_b):
            rng.integers(0, 5)
    counted = _CountedCalls(rng_a)
    seen = 0
    for sites, k in _step_draws(counted, n, count, steps):
        want_sites, want_uniforms = rng_b.integers(0, n, size=count), rng_b.random(count)
        assert sites.dtype == k.dtype == np.int64
        assert sites.tolist() == want_sites.tolist()
        assert (k * 2.0 ** -53).tolist() == want_uniforms.tolist()
        seen += 1
    assert seen == steps
    if count == 1000 or redrawn == "none":
        want = {"none": [0], "some": range(1, steps), "all": [steps]}[redrawn]
        assert counted.calls in want, counted.calls
    # the same state after, buffered 32-bit half and next raw word included
    assert _same_state(rng_a.bit_generator.state, rng_b.bit_generator.state)
    assert rng_a.bit_generator.random_raw() == rng_b.bit_generator.random_raw()


def _oracles_chain(request):
    """The spins and next uniform of the multi-chain case of benchmark
    cell 0 at seed 61: 6 000 chains of 200 sweeps on dense symmetric
    matrices with infinity norm M, drawn in the cell's order from one
    generator, of which the chain's is the fourth."""
    g = np.random.default_rng([61, 0, 0])
    for n, M in [(16, 0.5), (18, 0.5), (16, 1.0), (8, 0.5)]:
        J = g.normal(size=(n, n))
        J = 0.5 * (J + J.T)
        np.fill_diagonal(J, 0.0)
        J = J * (M / np.abs(J).sum(axis=1).max())
    rng = make_rng([61, 0, 1])
    X = glauber_sample_many(IsingSpec.zero_field(J), 6_000, GlauberConfig(200, 0), rng)
    return X, rng.random()


def _acceptance_chain(request):
    """The spins and next uniform of acceptance test 3's 2x10^5 chains of
    200 sweeps (seed 13), which the session fixture runs once."""
    run = request.getfixturevalue("test_03_chains")
    return run.X, run.next_uniform


# The spins (and the next uniform) of the two multi-chain runs that the
# validation rests on, recorded when each step still drew its sites and
# uniforms by rng.integers and rng.random: decoding the draws from raw
# words must not change a bit of them.
@pytest.mark.parametrize("chain,count,digest,after", [
    (_oracles_chain, 6_000,
     "ec980362018f18ae45ea8b6ede34b4f04b58aaa9079bc9a0a6524f601c314f04", 0.533845977031506),
    (_acceptance_chain, 200_000,
     "1a3ba2647f945956ac7000e6c10837959cf6a6961fb2ab08aba312350bc346dd", 0.9851483619613073)],
    ids=["oracles-exact", "test_03"])
def test_multi_chain_spins_are_pinned(chain, count, digest, after, request):
    X, next_uniform = chain(request)
    assert X.dtype == np.int64 and X.shape == (count, 8)
    assert hashlib.sha256(X.tobytes()).hexdigest() == digest
    assert next_uniform == after
