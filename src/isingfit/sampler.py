"""Exact enumeration and Glauber-dynamics sampling.

Enumeration uses a fixed bit order: configuration ``idx`` assigns to
coordinate ``b`` the spin ``+1`` when bit ``b`` of ``idx`` is 0 and ``-1``
when it is 1 (bit 0 is the least significant bit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _field_bounds, check_spins
from .errors import DimensionTooLarge

ENUMERATION_LIMIT = 22
_DRAW_CHUNK = 4096  # Glauber steps decoded per random_raw call
_P_MEMO = 1 << 12    # memoised conditionals per single chain
_DENSE_ROW = 32      # nonzeros above which a row takes a BLAS product
_TABLE_MAX_N = 14    # sites above which multi-chain steps skip the lookup table
_TABLE_COST = 4      # updates that repay building one table entry
_TABLE_BASE = 2048   # entries' worth of fixed cost in building a table
_BAND_SLACK = 1e-9   # widening of each single-chain site's band (see _bands)
_SPIN = (None, 1.0, -1.0)  # the spin of a band code 1 or -1


def make_rng(seed):
    """Counter-based generator used everywhere for reproducibility."""
    return np.random.Generator(np.random.Philox(seed))


def _spins(idx, n):
    """The (len(idx), n) int64 spins of configuration indices idx."""
    return 1 - 2 * ((np.asarray(idx, dtype=np.int64)[:, None] >> np.arange(n)) & 1)


def _indices(X):
    """The configuration indices of the rows of X (of X itself when 1-D)."""
    X = np.asarray(X, dtype=np.int64)
    return ((1 - X) // 2) @ (1 << np.arange(X.shape[-1]))


def spin_table(n, start=0, stop=None):
    """Spins (+-1 float) for configuration indices [start, stop)."""
    if stop is None:
        stop = 1 << n
    return _spins(np.arange(start, stop), n).astype(np.float64)


def config_index(x):
    """Inverse of spin_table's ordering for a single configuration."""
    return int(_indices(x))


@dataclass(frozen=True)
class ExactDistribution:
    n: int
    log_weights: np.ndarray  # x'Jx/2 + h'x per configuration
    log_partition: float      # log(2^-n sum exp(weights))
    probs: np.ndarray

    def prob_of(self, x):
        return float(self.probs[config_index(x)])


def _halves(n):
    """Split the spins for enumeration: (lo, S_l, S_h), where configuration
    l + (h << lo) holds the spins S_l[l] on coordinates [0, lo) and S_h[h]
    on [lo, n), so a (2^(n - lo), 2^lo) table indexed [h, l] ravels into
    enumeration order."""
    lo = n // 2
    return lo, spin_table(lo), spin_table(n - lo)


def _linear_sums(n, a):
    """a'x for every configuration x, in enumeration order."""
    lo, S_l, S_h = _halves(n)
    return np.add.outer(S_h @ a[lo:], S_l @ a[:lo]).ravel()


def _log_weights(spec):
    """x'Jx/2 + h'x for every configuration x, in enumeration order.

    Each half's own weight is taken over its own 2^lo or 2^(n - lo) rows;
    the cross term x_l' J[:lo, lo:] x_h (both off-diagonal blocks of
    x'Jx/2, as J is symmetric) is one (2^(n - lo), n - lo) by
    (n - lo, 2^lo) product, so the table costs O(2^n n / 2).
    """
    n, J, h = spec.n, spec.J, spec.h
    lo, S_l, S_h = _halves(n)

    def own(S, block, field):
        return 0.5 * np.einsum("ci,ij,cj->c", S, block, S) + S @ field

    out = S_h @ (S_l @ J[:lo, lo:]).T
    out += own(S_h, J[lo:, lo:], h[lo:])[:, None]
    out += own(S_l, J[:lo, :lo], h[:lo])
    return out.ravel()


def _normalise(lw):
    """(exp(lw) / sum exp(lw), log sum exp(lw)), from one exp pass."""
    top = float(lw.max())
    e = lw - top
    np.exp(e, out=e)
    total = float(e.sum())
    e /= total
    return e, top + math.log(total)


def enumerate_distribution(spec):
    """Full probability table over all 2^n configurations."""
    if spec.n > ENUMERATION_LIMIT:
        raise DimensionTooLarge(f"n={spec.n} exceeds enumeration limit {ENUMERATION_LIMIT}")
    lw = _log_weights(spec)
    probs, lse = _normalise(lw)
    return ExactDistribution(spec.n, lw, lse - spec.n * math.log(2.0), probs)


def log_partition(spec):
    """log(2^-n sum_x exp(x'Jx/2 + h'x)), computed with log-sum-exp."""
    if spec.n > ENUMERATION_LIMIT:
        raise DimensionTooLarge(f"n={spec.n} exceeds enumeration limit {ENUMERATION_LIMIT}")
    return _normalise(_log_weights(spec))[1] - spec.n * math.log(2.0)


def exact_sample(dist, rng, count=None):
    """Inverse-CDF draws from an enumerated table.

    With ``count=None`` returns a single configuration (length-n int
    vector); otherwise a (count, n) matrix.
    """
    cdf = np.cumsum(dist.probs)
    cdf[-1] = 1.0
    single = count is None
    m = 1 if single else count
    X = _spins(np.searchsorted(cdf, rng.random(m), side="right"), dist.n)
    return X[0] if single else X


def default_burn_in(spec):
    """Conservative sweep count; only a heuristic outside Dobrushin."""
    n = max(spec.n, 2)
    denom = 1.0 - min(spec.M, 0.99)
    return max(1000, math.ceil(50.0 * n * math.log(n) / denom))


@dataclass(frozen=True)
class GlauberConfig:
    burn_in_sweeps: int
    seed: int = 0
    init: str = "uniform_random"  # uniform_random | all_plus | provided

    def __post_init__(self):
        if self.burn_in_sweeps < 1:
            raise ValueError("burn_in_sweeps must be >= 1")
        if self.init not in ("uniform_random", "all_plus", "provided"):
            raise ValueError(f"unknown init {self.init!r}")


def glauber_sample_many(spec, count, cfg, rng=None, init_state=None):
    """Run ``count`` independent random-scan heat-bath chains.

    Each chain performs burn_in_sweeps * n single-site updates: pick a
    uniform site, resample it from its conditional.  Returns a
    (count, n) int matrix of final states.

    With ``count > 1``, n <= 14 and at least 4 * (n * 2^n + 2048)
    updates (steps * count), each chain is held as its configuration
    index and an update is one lookup of P(x_s = +1 | x) in an n * 2^n
    table built once per call (``_conditional_table``): O(1) per update
    after an O(n^2 2^n) build, which that many updates repay.  Otherwise
    a step gathers J's rows and an update costs O(n).  Both branches take
    the same draws and write the same spins.  With ``count == 1`` an
    update costs O(row degree) and draws the same values: the sites and
    uniforms are decoded in bulk from the generator's raw words
    (``_scan_draws``), which gives the values, and the final generator
    state, of scalar ``rng.integers(0, n)`` / ``rng.random()`` calls;
    these are the size-1 draws of the vectorised path.  The field of a site with at most 32
    couplings is summed over them in column order, and a denser row
    takes one BLAS product ``J[s] @ x``.  With at most two couplings the
    sum is bit-identical to that product, since zeros add exactly and
    a + b = b + a; with 3 to 32 its last bit can differ, and a spin then
    differs only when its uniform falls between two adjacent doubles.
    Every conditional of site s lies in the band
    [1/2 (1 - tanh R_s), 1/2 (1 + tanh R_s)], R_s = sum_j |J_sj| + |h_s|;
    widened by 1e-9, more than the rounding of the chain's own p (proof
    at ``_bands``), it decides every update whose uniform falls outside
    it (+1 below, -1 above) without summing the field.  The draws and
    the spins are the ones the field would give.
    """
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
    if count == 1:
        _single_chain(spec, X[0], rng, steps)
        return X.astype(np.int64)
    if n <= _TABLE_MAX_N and _TABLE_COST * ((n << n) + _TABLE_BASE) <= steps * count:
        return _spins(_table_chains(spec, _indices(X), rng, steps), n)
    # take() and one scatter into the flat view write the same values as
    # fancy indexing (J[sites], X[rows, sites] = ...) at a fraction of its cost
    flat = X.reshape(-1)
    offsets = np.arange(count) * n
    for _ in range(steps):
        sites = rng.integers(0, n, size=count)
        p_plus = _p_plus(spec.J.take(sites, axis=0), X, spec.h.take(sites))
        flat[offsets + sites] = np.where(rng.random(count) < p_plus, 1.0, -1.0)
    return X.astype(np.int64)


def _p_plus(rows, X, h):
    """P(x_s = +1 | x) for each row c: J's row s in rows[c], the spins x
    in X[c] and h[s] in h (or one h for every row)."""
    return 0.5 * (1.0 + np.tanh(np.einsum("cj,cj->c", rows, X) + h))


def _conditional_table(spec):
    """The (n, 2^n) table of P(x_s = +1 | x) over sites s and configuration
    indices x.  Row s is ``_p_plus`` on contiguous (2^n, n) copies of J[s]
    and the spins, so every entry has the bits of the multi-chain step."""
    n = spec.n
    S = spin_table(n)
    rows = np.empty_like(S)
    P = np.empty((n, 1 << n))
    for s in range(n):
        rows[:] = spec.J[s]
        P[s] = _p_plus(rows, S, spec.h[s])
    return P


def _table_chains(spec, idx, rng, steps):
    """Run ``steps`` heat-bath updates on every chain of the configuration
    indices idx, in place, with the draws of the einsum step."""
    n = spec.n
    flat = _conditional_table(spec).reshape(-1)
    count = len(idx)
    for _ in range(steps):
        sites = rng.integers(0, n, size=count)
        bits = np.left_shift(1, sites)
        p_plus = flat.take((sites << n) + idx)
        # bit s set means x_s = -1, the spin the einsum step writes when u >= p
        idx &= ~bits
        idx |= bits * (rng.random(count) >= p_plus)
    return idx


def _bands(R, degrees):
    """Per-site edges (lo, hi) of the uniforms that fix a heat-bath update
    whatever the other spins are: ``_single_chain`` writes +1 at site s
    when u < lo[s] and -1 when u >= hi[s].

    Each conditional P(x_s = +1 | x) = 1/2 (1 + tanh f) has |f| <= R_s
    (``_field_bounds``), so it lies in [1/2 (1 - tanh R_s),
    1/2 (1 + tanh R_s)]; the band is that interval widened by
    ``_BAND_SLACK`` on each side, which covers the rounding of both the
    edges and the p the chain computes.  With d = deg_s nonzero couplings
    and e = 2^-53: the terms of f (+-J_sj and h_s) are exact, and in any
    summation order (the Python loop's or BLAS's; adding an exact zero is
    exact) each passes through at most d rounded additions, so
    |f^ - f| <= g R_s with g = d e / (1 - d e) <= (d + 1) e; the computed
    R^_s is a sum of the same magnitudes and is off by as much.  tanh is
    1-Lipschitz and np.tanh is within a few ulps (each at most e on
    [-1, 1]); each later sum or difference in [-1, 2] (1 + t, 1/2 +- t/2,
    the widening) rounds by at most e, and halving is exact.  So
    p^ >= 1/2 (1 - tanh R_s) - g R_s / 2 - c e, and the computed lower edge
    before widening is at most 1/2 (1 - tanh R_s) + g R_s / 2 + c e, with
    c below 32 for any tanh within 20 ulps.  Hence lo <= p^ whenever
    (d + 2) e R^_s + 2^-48 <= _BAND_SLACK / 2, where the halving also
    absorbs R^_s against R_s; hi >= p^ likewise.  A row failing that test
    (R_s above about 4.5e6 / (d + 2)) gets the empty band (-inf, inf)."""
    half = 0.5 * np.tanh(R)
    safe = (degrees + 2) * R * 2.0 ** -53 + 2.0 ** -48 <= 0.5 * _BAND_SLACK
    lo = np.where(safe, (0.5 - half) - _BAND_SLACK, -np.inf)
    hi = np.where(safe, (0.5 + half) + _BAND_SLACK, np.inf)
    return lo, hi


def _single_chain(spec, x, rng, steps):
    """Run ``steps`` heat-bath updates on the spin array x, in place.  An
    update whose uniform falls outside its site's band (``_bands``) writes
    the spin every field would give it, without summing the field."""
    n = spec.n
    J = spec.J
    rows, cols = np.nonzero(J)
    weights = J[rows, cols].tolist()
    cols = cols.tolist()
    bounds = np.searchsorted(rows, np.arange(n + 1))
    lo, hi = _bands(_field_bounds(spec), np.diff(bounds))
    bounds = bounds.tolist()
    # (column, weight) pairs, or None for a row dense enough that one BLAS
    # product on the array x beats summing in Python
    neighbours = [tuple(zip(cols[a:b], weights[a:b])) if b - a <= _DENSE_ROW
                  else None for a, b in zip(bounds, bounds[1:])]
    dense = None in neighbours
    h = spec.h.tolist()
    xs = x.tolist()
    p_plus = {}  # P(x_s = +1) by field; fields repeat on sparse J
    for sites, uniforms in _scan_draws(rng, n, steps):
        # 1 below the band, -1 above it, 0 where the field decides; small
        # ints, as Python caches them and tolist() then allocates no floats
        codes = ((uniforms < lo.take(sites)).view(np.int8)
                 - (uniforms >= hi.take(sites)).view(np.int8))
        for s, u, c in zip(sites.tolist(), uniforms.tolist(), codes.tolist()):
            if c:
                v = _SPIN[c]
            else:
                row = neighbours[s]
                if row is None:
                    f = float(J[s] @ x)
                else:
                    f = 0.0
                    for j, w in row:
                        f += w * xs[j]
                f += h[s]
                p = p_plus.get(f)
                if p is None:
                    if len(p_plus) == _P_MEMO:
                        p_plus.clear()
                    # np.tanh, not math.tanh: they can differ in the last bit
                    p = p_plus[f] = float(0.5 * (1.0 + np.tanh(f)))
                v = 1.0 if u < p else -1.0
            xs[s] = v
            if dense:
                x[s] = v
    x[:] = xs


def _scan_draws(rng, n, steps):
    """Yield (sites, uniforms) chunks holding exactly the values of
    ``steps`` pairs of scalar ``rng.integers(0, n)``, ``rng.random()``
    calls, and leave rng in the state those calls leave.

    On a Philox generator with n > 1, each aligned pair of steps reads
    three 64-bit words [S, U, U']: the sites are Lemire draws from the
    low and then the high 32-bit half of S (the high half is the one the
    bit generator buffers) and the uniforms are (U >> 11) 2^-53.  A site
    whose low product word falls below 2^32 mod n is rejected and
    redrawn; a chunk with any rejection is redone by scalar calls from
    its starting state.  A buffered half on entry, or a last odd step,
    takes one scalar step.  Other bit generators, and n = 1 (where
    integers(0, 1) reads no word), take scalar calls throughout.  Needs
    n <= 2^32, the range integers(0, n) draws with 32-bit words.
    """
    bitgen = rng.bit_generator
    bulk = n > 1 and isinstance(bitgen, np.random.Philox)
    low = np.uint64(0xFFFFFFFF)
    threshold = np.uint64((1 << 32) % n)
    left = steps
    while left:
        m = min(left, _DRAW_CHUNK)
        if bulk:
            state = bitgen.state
            if state["has_uint32"] or m == 1:
                m = 1
            else:
                m -= m % 2
                words = bitgen.random_raw(3 * m // 2).reshape(-1, 3)
                halves = np.empty(m, dtype=np.uint64)
                halves[0::2] = words[:, 0] & low
                halves[1::2] = words[:, 0] >> np.uint64(32)
                product = halves * np.uint64(n)
                if not np.any((product & low) < threshold):
                    yield ((product >> np.uint64(32)).astype(np.int64),
                           (words[:, 1:].ravel() >> np.uint64(11)) * 2.0 ** -53)
                    left -= m
                    continue
                bitgen.state = state
        sites = np.empty(m, dtype=np.int64)
        uniforms = np.empty(m)
        for i in range(m):
            sites[i] = rng.integers(0, n)
            uniforms[i] = rng.random()
        yield sites, uniforms
        left -= m


def glauber_sample(spec, cfg, rng=None, init_state=None):
    """Single Glauber draw; see glauber_sample_many."""
    return glauber_sample_many(spec, 1, cfg, rng=rng, init_state=init_state)[0]


def empirical_distribution(samples, n):
    """Frequency vector over the canonical configuration order."""
    counts = np.bincount(_indices(samples), minlength=1 << n)
    return counts / samples.shape[0]
