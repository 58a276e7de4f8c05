"""Exact enumeration, exact draws from products of cliques, and
Glauber-dynamics sampling.

Enumeration uses a fixed bit order: configuration ``idx`` assigns to
coordinate ``b`` the spin ``+1`` when bit ``b`` of ``idx`` is 0 and ``-1``
when it is 1 (bit 0 is the least significant bit).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import check_edges, is_integer
from .errors import DimensionTooLarge, NotCliqueUnion, NotContracting

ENUMERATION_LIMIT = 22
TV_TARGET = 1e-6     # total variation that certified_sweeps guarantees
_DRAW_CHUNK = 16384  # Glauber steps decoded per random_raw call
_P_MEMO = 1 << 12    # memoised conditionals per single chain
_DENSE_ROW = 32      # nonzeros above which a row takes a BLAS product
_TABLE_MAX_N = 14    # sites above which multi-chain steps skip the lookup table
_TABLE_COST = 4      # updates that repay building one table entry
_TABLE_BASE = 2048   # entries' worth of fixed cost in building a table
_BAND_SLACK = 1e-9   # widening of each single-chain site's band (see _bands)
_SPIN = (None, 1.0, -1.0)  # the spin of a band code 1 or -1
_TWO53 = 2.0 ** 53       # uniforms are k 2^-53 for 53-bit integers k


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


def component_sample(n, rows, cols, values, rng):
    """One exact draw, as a length-n int64 spin vector, from the zero-field
    model whose J is ``values`` on the edges (rows, cols), checked as
    ``check_edges`` checks them.  The support must be a disjoint union
    of cliques with one coupling each (a single edge is a clique of 2
    nodes, an isolated node one of 1); any other raises
    ``NotCliqueUnion``.

    The model is then a product of Curie-Weiss models.  On a clique of s
    nodes with coupling c, m spins +1 give x'Jx/2 = c ((2m - s)^2 - s) / 2,
    so m has the law P(m) ~ C(s, m) exp(c ((2m - s)^2 - s) / 2) over
    m = 0..s, and given m the +1 spins are a uniform m-subset.  The
    components are numbered by their smallest node.  One
    ``rng.random(#components)`` call draws each component's m by
    inverting the CDF of its law; one ``rng.random(n)`` call then orders
    each component's nodes by their uniforms, and its first m take +1.
    The work is O(n + #edges) besides that sort, with no n x n array.
    """
    n, rows, cols, values = check_edges(n, rows, cols, values)
    # rows < cols, so min(i, i's smallest row-neighbour) is the smallest
    # node of i's clique, when the support is a union of cliques
    nodes = np.arange(n)
    label = nodes.copy()
    np.minimum.at(label, cols, rows)
    edge_label = label.take(rows)
    if not (edge_label == label.take(cols)).all():
        raise NotCliqueUnion("an edge joins two nodes whose smallest neighbours "
                             "differ, so the support is not a union of cliques")
    # with every edge inside one label, each label is a clique's smallest
    # node; size holds the clique's size there and 0 at every other node
    size = np.bincount(label, minlength=n)
    if not (np.bincount(edge_label, minlength=n) == size * (size - 1) // 2).all():
        raise NotCliqueUnion("a component of the support misses an edge of its clique")
    coupling = np.zeros(n)
    coupling[edge_label] = values
    if not (coupling.take(edge_label) == values).all():
        raise NotCliqueUnion("a clique of the support holds two couplings")
    roots = np.flatnonzero(size)
    u = rng.random(roots.size)
    plus = np.zeros(n, dtype=np.int64)  # each clique's +1 count, at its smallest node
    sizes = size.take(roots)
    # the distinct sizes, without np.unique, whose import of numpy.ma
    # costs a fresh process time and memory
    for s in np.flatnonzero(np.bincount(sizes)).tolist():
        which = np.flatnonzero(sizes == s)
        at = roots.take(which)
        log_binom, q = _clique_terms(s)
        w = np.multiply.outer(coupling.take(at), q)
        w += log_binom
        w -= w.max(axis=1, keepdims=True)
        np.exp(w, out=w)
        cdf = np.cumsum(w, axis=1)
        # the smallest m with u cdf[s] < cdf[m]; rounding can give s + 1
        drawn = np.count_nonzero(cdf <= (u.take(which) * cdf[:, -1])[:, None], axis=1)
        plus[at] = np.minimum(drawn, s)
    order = np.lexsort((rng.random(n), label))
    # a clique's nodes sit at positions [start, start + size) of order, and
    # the first plus of them take +1
    plus_end = np.cumsum(size) - size + plus
    x = np.empty(n, dtype=np.int64)
    x[order] = np.where(nodes < plus_end.take(label.take(order)), 1, -1)
    return x


@functools.lru_cache(maxsize=64)
def _clique_terms(s):
    """(log C(s, m), ((2m - s)^2 - s) / 2) over m = 0..s, read-only: the
    log weight of m +1 spins on a clique of s nodes with coupling c is
    log C(s, m) + c ((2m - s)^2 - s) / 2."""
    m = np.arange(s + 1)
    log_binom = np.concatenate(([0.0], np.cumsum(np.log((s - m[:-1]) / m[1:]))))
    q = 0.5 * ((2 * m - s) ** 2 - s)
    log_binom.flags.writeable = q.flags.writeable = False
    return log_binom, q


def certified_sweeps(spec):
    """The fewest sweeps t that certify TV <= TV_TARGET from any start.

    Site j moves the conditional of site i by at most tanh|J_ij|, whatever
    h is, so with alpha = max_i sum_j tanh|J_ij| < 1 path coupling (Bubley
    & Dyer 1997) bounds the TV of the random-scan chain after t sweeps by
    n exp(-(1 - alpha) t), and t = ceil(ln(n / TV_TARGET) / (1 - alpha)).
    With alpha >= 1 nothing is certified, and ``NotContracting`` is raised.
    """
    if spec.n == 0:
        return 1  # no rows: alpha = 0 and n exp(-t) = 0 at any t
    alpha = float(np.tanh(np.abs(spec.J)).sum(axis=1).max())
    if alpha >= 1.0:
        raise NotContracting(
            f"alpha = max_i sum_j tanh|J_ij| = {alpha:.6g} >= 1: "
            "path coupling certifies no sweep count")
    return math.ceil(math.log(spec.n / TV_TARGET) / (1.0 - alpha))


@dataclass(frozen=True)
class GlauberConfig:
    """``burn_in_sweeps`` is a Python or numpy integer >= 1 (not a bool,
    and not a float, even an integral one such as 300.0)."""

    burn_in_sweeps: int
    seed: int = 0

    def __post_init__(self):
        sweeps = self.burn_in_sweeps
        if not is_integer(sweeps):
            raise ValueError(f"burn_in_sweeps must be an integer, got {sweeps!r}")
        if sweeps < 1:
            raise ValueError(f"burn_in_sweeps must be >= 1, got {sweeps!r}")


def glauber_sample_many(spec, count, cfg, rng=None):
    """Run ``count`` independent random-scan heat-bath chains.

    Each chain starts from uniformly random spins and performs
    burn_in_sweeps * n single-site updates: pick a uniform site, resample
    it from its conditional.  Returns a (count, n) int matrix of final
    states.

    With ``count > 1`` every step updates one uniform site of each chain,
    with the draws of ``rng.integers(0, n, size=count)`` and
    ``rng.random(count)``, read from one decoder (``_step_draws``): on
    Philox, one ``random_raw`` call a step, with the sites decoded from
    32-bit halves and each uniform u kept as the 53-bit integer
    k = u 2^53, the generator left in the state the two calls leave.
    With n <= 14 and at least 4 * (n * 2^n + 2048) updates
    (steps * count), each chain is held as its configuration index and an
    update is one lookup in an n * 2^n integer table of ceil(2^53 P(x_s =
    +1 | x)), built once per call (``_conditional_table``), against which
    k is compared (``_table_chains`` proves this is u >= p): O(1) per
    update after an O(n^2 2^n) build, which that many updates repay.
    Otherwise a step gathers J's rows and an update costs O(n), comparing
    u = k 2^-53 with p.  Both branches take the same draws and write the
    same spins.  With ``count == 1`` an
    update costs O(row degree) and draws the same values.  The single
    chain's draws have a decoder of their own: one pass over the generator
    records each chunk's starting state (``_draw_plan``) and leaves rng
    where scalar ``rng.integers(0, n)`` / ``rng.random()`` calls, the
    size-1 draws of the vectorised path, would leave it, and a chunk's
    sites and uniforms are then regenerated from its state, in bulk from
    the raw words where they can be (``_planned_draws``).  The field of a
    site with at most 32 couplings is summed over them in column order,
    and a denser row takes one BLAS product ``J[s] @ x``.  With at most
    two couplings the
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
    for sites, k in _step_draws(rng, n, count, steps):
        p_plus = _p_plus(spec.J.take(sites, axis=0), X, spec.h.take(sites))
        flat[offsets + sites] = np.where(k * 2.0 ** -53 < p_plus, 1.0, -1.0)
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
    indices idx, in place, with the draws of the einsum step.

    Each step reads its sites and 53-bit uniforms k from ``_step_draws``
    and compares k against the integer table T = ceil(P 2^53), built once
    per call from ``_conditional_table``'s P.  This decides every update
    as the einsum step's u >= p does, with u = k 2^-53: scaling by 2^53 is
    exact for p in [0, 1] (a power of two neither rounds nor overflows),
    so u >= p holds iff k >= p 2^53, and since k is an integer, iff
    k >= ceil(p 2^53); np.ceil is exact, and its value, at most 2^53, is
    an integer that int64 holds exactly."""
    n = spec.n
    flat = np.ceil(_conditional_table(spec).reshape(-1) * _TWO53).astype(np.int64)
    for sites, k in _step_draws(rng, n, len(idx), steps):
        bits = np.left_shift(1, sites)
        thresholds = flat.take((sites << n) + idx)
        # bit s set means x_s = -1, the spin the einsum step writes when u >= p
        idx &= ~bits
        idx |= bits * (k >= thresholds)
    return idx


def _bands(R, degrees):
    """Per-site edges (lo, hi) of the uniforms that fix a heat-bath update
    whatever the other spins are: ``_single_chain`` writes +1 at site s
    when u < lo[s] and -1 when u >= hi[s].

    Each conditional P(x_s = +1 | x) = 1/2 (1 + tanh f) has
    |f| <= R_s = sum_j |J_sj| + |h_s|, so it lies in [1/2 (1 - tanh R_s),
    1/2 (1 + tanh R_s)]; the band is that interval widened by
    ``_BAND_SLACK`` on each side, which covers the rounding of both the
    edges and the p the chain computes.  With d = deg_s nonzero couplings
    and e = 2^-53: the terms of f (+-J_sj and h_s) are exact, and in any
    summation order (the Python loop's or BLAS's; adding an exact zero is
    exact) each passes through at most d rounded additions, so
    |f^ - f| <= g R_s with g = d e / (1 - d e) <= (d + 1) e; the computed
    R^_s is a sum of the same magnitudes, in any order, and is off by as
    much.  tanh is 1-Lipschitz and np.tanh is within a few ulps (each at
    most e on [-1, 1]); each later sum or difference in [-1, 2] (1 + t,
    1/2 +- t/2, the widening) rounds by at most e, and halving is exact.  So
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
    the spin every field would give it, without summing the field.  Every
    update runs in time order, over the chunks of ``_draw_plan`` decoded
    one after another.  R_s sums the row's gathered nonzeros in column
    order (``_bands``)."""
    n = spec.n
    J = spec.J
    # row-major flat scan: the indices of np.nonzero(J), at a fraction of its cost
    rows, cols = np.divmod(np.flatnonzero(J != 0.0), n)
    weights = J[rows, cols]
    bounds = np.searchsorted(rows, np.arange(n + 1))
    degrees = np.diff(bounds)
    lo, hi = _bands(np.bincount(rows, np.abs(weights), minlength=n) + np.abs(spec.h), degrees)
    # a row dense enough that one BLAS product on the array x beats
    # summing in Python
    dense = bool(degrees.max(initial=0) > _DENSE_ROW)
    cols, weights = cols.tolist(), weights.tolist()
    bounds = bounds.tolist()
    h = spec.h.tolist()
    # (column, weight) pairs, or None for a dense row
    neighbours = [tuple(zip(cols[a:b], weights[a:b])) if b - a <= _DENSE_ROW
                  else None for a, b in zip(bounds, bounds[1:])]
    xs = x.tolist()
    p_plus = {}  # P(x_s = +1) by field; fields repeat on sparse J
    for chunk in _draw_plan(rng, n, steps):
        sites, uniforms = _planned_draws(rng, n, chunk)
        codes = _band_codes(sites, uniforms, lo, hi)
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


def _band_codes(sites, uniforms, lo, hi):
    """Per update: 1 below its site's band, -1 above it, 0 where the field
    decides; small ints, as Python caches them and tolist() then allocates
    no floats."""
    return ((uniforms < lo.take(sites)).view(np.int8)
            - (uniforms >= hi.take(sites)).view(np.int8))


_LOW = np.uint64(0xFFFFFFFF)


def _site_products(words, n):
    """The Lemire products of a chunk's site halves with n: the low, then
    the high 32-bit half of each aligned pair's first word."""
    halves = np.empty(2 * len(words), dtype=np.uint64)
    halves[0::2] = words[:, 0] & _LOW
    halves[1::2] = words[:, 0] >> np.uint64(32)
    halves *= np.uint64(n)
    return halves


def _scalar_draws(rng, n, m):
    """The sites and uniforms of m pairs of scalar calls."""
    sites = np.empty(m, dtype=np.int64)
    uniforms = np.empty(m)
    for i in range(m):
        sites[i] = rng.integers(0, n)
        uniforms[i] = rng.random()
    return sites, uniforms


def _draw_plan(rng, n, steps):
    """Split ``steps`` pairs of scalar ``rng.integers(0, n)``,
    ``rng.random()`` calls into chunks of at most ``_DRAW_CHUNK`` steps,
    as (generator state at the chunk's start, steps, bulk), and leave rng
    in the state those calls leave, decoding none of the draws;
    ``_planned_draws`` decodes one chunk, in any order.

    On a Philox generator with n > 1, each aligned pair of steps reads
    three 64-bit words [S, U, U']: the sites are Lemire draws from the
    low and then the high 32-bit half of S (the high half is the one the
    bit generator buffers) and the uniforms are (U >> 11) 2^-53.  A chunk
    of m such steps is bulk: its 3m/2 words are generated and given only
    the rejection test.  A site whose low product word falls below
    2^32 mod n is rejected and redrawn, so a chunk with any rejection is
    drawn by scalar calls from its starting state instead.  When
    2^32 mod n = 0 no site can be rejected, and the words are skipped:
    ``Philox.advance`` passes whole blocks of four words, after the
    generator's buffered ones, and ``random_raw`` the rest.  A buffered
    half at a chunk's start, or a last odd step, takes one scalar step.
    Other bit generators, and n = 1 (where integers(0, 1) reads no word),
    take scalar calls throughout.  Needs n <= 2^32, the range
    integers(0, n) draws with 32-bit words."""
    bitgen = rng.bit_generator
    philox = n > 1 and isinstance(bitgen, np.random.Philox)
    plan = []
    left = steps
    while left:
        state = bitgen.state
        m = min(left, _DRAW_CHUNK)
        bulk = philox and m > 1 and not state["has_uint32"]
        if bulk:
            m -= m % 2
        elif philox:
            m = 1
        if bulk and (1 << 32) % n == 0:
            _advance_words(bitgen, state["buffer_pos"], 3 * m // 2)
        elif bulk:
            words = bitgen.random_raw(3 * m // 2).reshape(-1, 3)
            if np.any((_site_products(words, n) & _LOW) < np.uint64((1 << 32) % n)):
                bitgen.state = state
                bulk = False
        if not bulk:
            _scalar_draws(rng, n, m)
        plan.append((state, m, bulk))
        left -= m
    return plan


def _planned_draws(rng, n, chunk):
    """The (sites, uniforms) of one chunk of ``_draw_plan``, regenerated
    from its saved state; rng is left where it was."""
    state, m, bulk = chunk
    bitgen = rng.bit_generator
    now = bitgen.state
    bitgen.state = state
    if bulk:
        words = bitgen.random_raw(3 * m // 2).reshape(-1, 3)
        # both shifted words are below 2^63: int64 views, and an int64 ->
        # float conversion, which is faster than uint64's
        draws = ((_site_products(words, n) >> np.uint64(32)).view(np.int64),
                 (words[:, 1:] >> np.uint64(11)).ravel().view(np.int64) * 2.0 ** -53)
    else:
        draws = _scalar_draws(rng, n, m)
    bitgen.state = now
    return draws


def _step_draws(rng, n, count, steps):
    """Yield, for each of ``steps`` steps, the (sites, k) of one pair of
    ``rng.integers(0, n, size=count)``, ``rng.random(count)`` calls: the
    int64 sites, and each uniform u as the int64 k = u 2^53, an integer
    below 2^53.  rng is left in the state those calls leave, buffered
    32-bit half included.  ``sites`` may be a buffer that the next step
    overwrites.

    On a Philox generator each step makes one ``random_raw`` call, for the
    site words and then count uniform words.  The sites are Lemire draws
    (h n) >> 32 from the 32-bit halves h of the site words, low half
    first, as numpy's vector ``integers`` takes them; a half left over at
    a step's end, or buffered in the generator at entry, is the next
    step's first half, and the one buffered at the end is written back to
    ``has_uint32`` and ``uinteger``.  A uniform word w gives k = w >> 11,
    the bits of ``random``.  n = 1 draws no site words.  When
    2^32 mod n > 0, a site whose low product word falls below it would be
    rejected and redrawn: a step with such a site puts the generator back
    in the state at its start (the state last read, moved on by the words
    drawn since, ``_advance_words``) and is drawn by the two calls.  Other
    bit generators, big-endian machines (where the halves lie the other
    way round) and calls with no chains or no steps take the calls
    throughout; k = u 2^53 is exact there, as every numpy bit generator's
    uniforms are multiples of 2^-53.  Needs n <= 2^32, the range
    integers(0, n) draws with 32-bit words."""
    bitgen = rng.bit_generator
    if not (count and steps and isinstance(bitgen, np.random.Philox)
            and sys.byteorder == "little"):
        for _ in range(steps):
            sites = rng.integers(0, n, size=count)
            yield sites, (rng.random(count) * _TWO53).astype(np.int64)
        return
    state = bitgen.state
    has, half = state["has_uint32"], state["uinteger"]
    drawn = 0  # words drawn since state
    reject = (1 << 32) % n
    # for n a power of two, (h n) >> 32 is h >> shift
    shift = 33 - n.bit_length()
    sites = np.zeros(count, dtype=np.int64)
    # buffers and their views, made once; index 1 leaves room for a
    # buffered half
    products = np.empty(count if reject else 0, dtype=np.uint64)
    low = products.view(np.uint32)[0::2]  # low words, on a little-endian machine
    site_out = (sites, sites[1:])
    site_words = sites.view(np.uint64)  # takes uint64 results without a cast
    product_out = (products, products[1:])
    eleven = np.uint64(11)
    for _ in range(steps):
        lead = has
        words = (count - lead + 1) // 2 if n > 1 else 0
        raw = bitgen.random_raw(words + count)
        if n > 1:
            # raw's uint32 view starts with the site words' halves
            halves = raw.view(np.uint32)[:count - lead]
            if not reject:
                if lead:
                    sites[0] = half >> shift
                np.right_shift(halves, shift, out=site_out[lead])
            else:
                products[0] = half * n
                np.multiply(halves, n, out=product_out[lead], dtype=np.uint64)
                if np.minimum.reduce(low) < reject:
                    bitgen.state = state
                    _advance_words(bitgen, state["buffer_pos"], drawn)
                    state = bitgen.state
                    state["has_uint32"], state["uinteger"] = lead, half
                    bitgen.state = state
                    redrawn = rng.integers(0, n, size=count)
                    uniforms = rng.random(count)
                    state, drawn = bitgen.state, 0
                    has, half = state["has_uint32"], state["uinteger"]
                    yield redrawn, (uniforms * _TWO53).astype(np.int64)
                    continue
                np.right_shift(products, 32, out=site_words)
            # the last site word's high half is buffered, and is left over
            # when count - lead is odd
            has = (count - lead) & 1
            if words:
                half = int(raw[words - 1]) >> 32
        drawn += words + count
        k = raw[words:]
        k >>= eleven
        yield sites, k.view(np.int64)
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = has, half
    bitgen.state = state


def _advance_words(bitgen, buffer_pos, words):
    """Move a Philox generator, whose buffer position is buffer_pos, on by
    ``words`` 64-bit draws, as ``random_raw(words)`` would:
    ``Philox.advance`` passes whole blocks of four words, after the
    generator's buffered ones, and ``random_raw`` draws the rest."""
    buffered = 4 - buffer_pos
    if words > buffered:
        blocks, words = divmod(words - buffered, 4)
        bitgen.advance(blocks)
    bitgen.random_raw(words)


def glauber_sample(spec, cfg, rng=None):
    """Single Glauber draw; see glauber_sample_many."""
    return glauber_sample_many(spec, 1, cfg, rng=rng)[0]


def empirical_distribution(samples, n):
    """Frequency vector over the canonical configuration order."""
    counts = np.bincount(_indices(samples), minlength=1 << n)
    return counts / samples.shape[0]
