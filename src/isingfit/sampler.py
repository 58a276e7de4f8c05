"""Exact enumeration and Glauber-dynamics sampling.

Enumeration uses a fixed bit order: configuration ``idx`` assigns to
coordinate ``b`` the spin ``+1`` when bit ``b`` of ``idx`` is 0 and ``-1``
when it is 1 (bit 0 is the least significant bit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .core import check_spins
from .errors import DimensionTooLarge

ENUMERATION_LIMIT = 22
_CHUNK = 1 << 16


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


def _log_weights(spec):
    n = spec.n
    total = 1 << n
    out = np.empty(total)
    for start in range(0, total, _CHUNK):
        X = spin_table(n, start, min(start + _CHUNK, total))
        out[start:start + X.shape[0]] = (
            0.5 * np.einsum("ci,ij,cj->c", X, spec.J, X) + X @ spec.h
        )
    return out


def enumerate_distribution(spec):
    """Full probability table over all 2^n configurations."""
    if spec.n > ENUMERATION_LIMIT:
        raise DimensionTooLarge(f"n={spec.n} exceeds enumeration limit {ENUMERATION_LIMIT}")
    lw = _log_weights(spec)
    lse = float(logsumexp(lw))
    F = lse - spec.n * math.log(2.0)
    probs = np.exp(lw - lse)
    probs /= probs.sum()
    return ExactDistribution(spec.n, lw, F, probs)


def log_partition(spec):
    """log(2^-n sum_x exp(x'Jx/2 + h'x)), computed with log-sum-exp."""
    if spec.n > ENUMERATION_LIMIT:
        raise DimensionTooLarge(f"n={spec.n} exceeds enumeration limit {ENUMERATION_LIMIT}")
    return float(logsumexp(_log_weights(spec))) - spec.n * math.log(2.0)


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

    An update costs O(count * n).  With ``count == 1`` it is one row dot
    product and two scalar draws; these take the same values from the
    generator as the size-1 draws of the vectorised path, so the result
    does not depend on which path ran.
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
        J, h, x = spec.J, spec.h, X[0]
        for _ in range(steps):
            s = rng.integers(0, n)
            p_plus = 0.5 * (1.0 + np.tanh(J[s] @ x + h[s]))
            x[s] = 1.0 if rng.random() < p_plus else -1.0
        return X.astype(np.int64)
    rows = np.arange(count)
    for _ in range(steps):
        sites = rng.integers(0, n, size=count)
        fields = np.einsum("cj,cj->c", spec.J[sites], X) + spec.h[sites]
        p_plus = 0.5 * (1.0 + np.tanh(fields))
        X[rows, sites] = np.where(rng.random(count) < p_plus, 1.0, -1.0)
    return X.astype(np.int64)


def glauber_sample(spec, cfg, rng=None, init_state=None):
    """Single Glauber draw; see glauber_sample_many."""
    return glauber_sample_many(spec, 1, cfg, rng=rng, init_state=init_state)[0]


def empirical_distribution(samples, n):
    """Frequency vector over the canonical configuration order."""
    counts = np.bincount(_indices(samples), minlength=1 << n)
    return counts / samples.shape[0]
