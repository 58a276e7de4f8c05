import itertools
import math

import numpy as np
import pytest
from scipy.special import logsumexp

import isingfit as isf
import isingfit.sampler as sampler_mod
from isingfit.core import IsingSpec, _field_bounds, check_spins
from isingfit.errors import DimensionTooLarge
from isingfit.experiments import gen_blocks, gen_erdos_renyi_incidence, gen_matchings
from isingfit.sampler import (
    _BAND_SLACK,
    _DENSE_ROW,
    _DRAW_CHUNK,
    _TABLE_BASE,
    _TABLE_COST,
    _TABLE_MAX_N,
    GlauberConfig,
    _bands,
    _linear_sums,
    _log_weights,
    _scan_draws,
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
    with pytest.raises(ValueError):
        GlauberConfig(10, init="bogus")


def test_glauber_deterministic_given_seed():
    spec = random_spec(6, 0.5, seed=15)
    cfg = GlauberConfig(20, seed=123)
    a = glauber_sample_many(spec, 4, cfg)
    b = glauber_sample_many(spec, 4, cfg)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Oracles: the vectorised multi-chain loop, kept verbatim, which single
# chains ran before they had a scalar path; and the scalar per-update
# path, which they ran before their draws were decoded in bulk (count
# fixed to 1, the update loop verbatim).


def _vectorised_glauber(spec, count, cfg, rng=None, init_state=None):
    if rng is None:
        rng = make_rng(cfg.seed)
    n = spec.n
    if cfg.init == "all_plus":
        X = np.ones((count, n))
    elif cfg.init == "provided":
        if init_state is None:
            raise ValueError("init='provided' needs init_state")
        X = np.tile(check_spins(init_state, n), (count, 1))
    else:
        X = 1.0 - 2.0 * rng.integers(0, 2, size=(count, n)).astype(np.float64)
    steps = cfg.burn_in_sweeps * n
    rows = np.arange(count)
    for _ in range(steps):
        sites = rng.integers(0, n, size=count)
        fields = np.einsum("cj,cj->c", spec.J[sites], X) + spec.h[sites]
        p_plus = 0.5 * (1.0 + np.tanh(fields))
        X[rows, sites] = np.where(rng.random(count) < p_plus, 1.0, -1.0)
    return X.astype(np.int64)


def _scalar_glauber(spec, cfg, rng=None, init_state=None):
    if rng is None:
        rng = make_rng(cfg.seed)
    n = spec.n
    if cfg.init == "all_plus":
        X = np.ones((1, n))
    elif cfg.init == "provided":
        if init_state is None:
            raise ValueError("init='provided' needs init_state")
        X = np.tile(check_spins(init_state, n), (1, 1))
    else:
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
    h = make_rng(53).normal(size=n) * 0.3 if with_field else np.zeros(n)
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
_CHAIN_NORMS = [0.5, 0.9, 4.0]


@pytest.mark.parametrize("kind", ["matchings", "blocks", "erdos_renyi"])
@pytest.mark.parametrize("init", ["uniform_random", "all_plus", "provided"])
@pytest.mark.parametrize("with_field", [False, True])
def test_single_chain_matches_vectorised_oracle(kind, init, with_field):
    for (n, sweeps, buffered), M in itertools.product(_CHAIN_CASES, _CHAIN_NORMS):
        spec = _with_lone_sites(_model(kind, n, with_field, M))
        cfg = GlauberConfig(sweeps, seed=54, init=init)
        start = 1 - 2 * make_rng(55).integers(0, 2, size=n) if init == "provided" else None
        rng_a, rng_b = make_rng(56), make_rng(56)
        if buffered:
            rng_a.integers(0, n)
            rng_b.integers(0, n)
        got = glauber_sample_many(spec, 1, cfg, rng_a, init_state=start)
        want = _scalar_glauber(spec, cfg, rng_b, init_state=start)
        case = (n, sweeps, buffered, M)
        assert got.dtype == want.dtype and np.array_equal(got, want), case
        assert rng_a.random() == rng_b.random(), case  # both consumed the same draws
        if case[:3] == _CHAIN_CASES[0]:
            assert np.array_equal(want, _vectorised_glauber(spec, 1, cfg, make_rng(56),
                                                            init_state=start))
            # without an explicit generator both seed one from cfg.seed
            assert np.array_equal(glauber_sample_many(spec, 1, cfg, init_state=start),
                                  _scalar_glauber(spec, cfg, init_state=start))


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
    lo, hi = _bands(_field_bounds(spec), degrees)
    assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
    for s in range(n):
        sign = np.where(spec.J[s] < 0.0, -1.0, 1.0)
        for x in (sign, -sign):  # the fields +-sum_j |J_sj| + h_s
            assert lo[s] < _chain_p(spec, s, x) < hi[s], (s, x)
    # the edges sit within _BAND_SLACK + 1 ulp of the field band
    R = _field_bounds(spec)
    assert np.all(np.abs(lo - (0.5 * (1.0 - np.tanh(R)) - _BAND_SLACK)) <= 2.0 ** -52)
    assert np.all(np.abs(hi - (0.5 * (1.0 + np.tanh(R)) + _BAND_SLACK)) <= 2.0 ** -52)


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


def _check_multi_chain(spec, count, cfg, init_state=None):
    rng_a, rng_b = make_rng(60), make_rng(60)
    got = glauber_sample_many(spec, count, cfg, rng_a, init_state=init_state)
    want = _vectorised_glauber(spec, count, cfg, rng_b, init_state=init_state)
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
@pytest.mark.parametrize("init", ["uniform_random", "all_plus", "provided"])
@pytest.mark.parametrize("with_field", [False, True])
def test_multi_chain_matches_vectorised_oracle(count, init, with_field, monkeypatch):
    built = _count_tables(monkeypatch)
    fewest = -(-_table_work(8) // (8 * count))
    for n, sweeps, tabled in [(8, fewest, True), (8, fewest - 1, False),
                              (_TABLE_MAX_N + 1, 2, False)]:
        spec = _model("erdos_renyi", n, with_field)
        cfg = GlauberConfig(sweeps, seed=58, init=init)
        start = 1 - 2 * make_rng(59).integers(0, 2, size=n) if init == "provided" else None
        built.clear()
        _check_multi_chain(spec, count, cfg, init_state=start)
        assert built == ([n] if tabled else []), (n, sweeps)


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


# n = 2**31 + 1 rejects about half of all site draws, and 2**32 - 2**20
# about one in 4096, so some chunks are redone by scalar calls and some
# not; an MT19937 generator lays its words out differently and is drawn
# from by scalar calls
@pytest.mark.parametrize("n,bit_generator", [
    (1, np.random.Philox), (3, np.random.Philox), (128, np.random.Philox),
    (2 ** 31 + 1, np.random.Philox), (2 ** 32 - 2 ** 20, np.random.Philox),
    (128, np.random.MT19937)])
@pytest.mark.parametrize("buffered", [False, True])
def test_scan_draws_match_scalar_calls(n, bit_generator, buffered):
    steps = 2 * _DRAW_CHUNK + 3
    rng_a, rng_b = (np.random.Generator(bit_generator(57)) for _ in range(2))
    if buffered:
        rng_a.integers(0, n)
        rng_b.integers(0, n)
    chunks = list(_scan_draws(rng_a, n, steps))
    assert max(len(s) for s, _ in chunks) <= _DRAW_CHUNK
    sites = np.concatenate([s for s, _ in chunks])
    uniforms = np.concatenate([u for _, u in chunks])
    want = [(rng_b.integers(0, n), rng_b.random()) for _ in range(steps)]
    assert sites.dtype == np.int64
    assert sites.tolist() == [int(s) for s, _ in want]
    assert uniforms.tolist() == [u for _, u in want]
    # the same state after, buffered 32-bit half included
    assert [rng_a.integers(0, 3), rng_a.random()] == [rng_b.integers(0, 3), rng_b.random()]
