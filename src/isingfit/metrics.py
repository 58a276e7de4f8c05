"""Exact small-n distances and variance diagnostics.

Everything here works from the enumerated distribution, so dimensions are
capped low; these are oracles for tests and desk-scale experiments, not
production-path estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DimensionTooLarge
from .sampler import _linear_sums, enumerate_distribution

DIVERGENCE_LIMIT = 18


def _logsumexp(a):
    """log(sum(exp(a))) for a finite 1-D float64 array, bit for bit as
    ``scipy.special.logsumexp`` (scipy 1.17) computes it.

    The m entries equal to the maximum are taken out of the sum, which is
    then log1p(s / m) + log(m) + max, with s the sum of exp(a - max) over
    the rest (Blanchard, Higham & Higham, IMA J. Numer. Anal. 2021).  Not
    for infinite, NaN or multi-dimensional input.
    """
    top = a.max()
    tied = a == top
    m = np.float64(np.count_nonzero(tied))
    rest = np.where(tied, -np.inf, a)
    s = np.sum(np.exp(np.subtract(rest, top, out=rest), out=rest))
    # scipy skips s / m when s == 0, which only matters for m == 0; here m >= 1
    return np.log1p(s / m) + np.log(m) + top


@dataclass(frozen=True)
class DivergenceReport:
    tv: float
    chi_square: float
    bound_ok: bool  # tv <= sqrt(chi_square / 2)


def tv_chi_exact(P, Q):
    """Total variation and chi^2(Q, P) between two enumerated models."""
    if P.n != Q.n:
        raise DimensionMismatch("models live on different dimensions")
    if P.n > DIVERGENCE_LIMIT:
        raise DimensionTooLarge(f"n={P.n} exceeds divergence limit {DIVERGENCE_LIMIT}")
    dp = enumerate_distribution(P)
    dq = enumerate_distribution(Q)
    # two 2^n work buffers, each written in place: |P - Q|, then 2 lq - lp
    work = np.subtract(dp.probs, dq.probs)
    tv = 0.5 * float(np.sum(np.abs(work, out=work)))
    # chi^2(Q,P) = sum_x Q(x)^2 / P(x) - 1, accumulated in log space
    lq = np.subtract(dq.log_weights, dq.log_partition + Q.n * math.log(2.0), out=work)
    lq *= 2.0
    lp = np.subtract(dp.log_weights, dp.log_partition + P.n * math.log(2.0))
    chi = float(np.expm1(_logsumexp(np.subtract(lq, lp, out=lq))))
    chi = max(chi, 0.0)
    return DivergenceReport(tv, chi, tv <= math.sqrt(chi / 2.0) + 1e-12)


def linear_variance_exact(spec, a):
    """Var(a'x) under the enumerated distribution."""
    if spec.n > DIVERGENCE_LIMIT:
        raise DimensionTooLarge(f"n={spec.n} exceeds limit {DIVERGENCE_LIMIT}")
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (spec.n,):
        raise DimensionMismatch("weight vector length mismatch")
    dist = enumerate_distribution(spec)
    vals = _linear_sums(spec.n, a)
    mean = float(dist.probs @ vals)
    return float(dist.probs @ (vals - mean) ** 2)


def conditional_variance_floor(spec):
    """Tight closed-form floor on min_i Var(x_i | x_{-i}).

    The conditional variance is sech^2 of the local field and the field's
    magnitude is maximized at ||J_i||_1 + |h_i|, so the floor is the
    minimum over i of sech^2 at that extreme.
    """
    worst = np.sum(np.abs(spec.J), axis=1) + np.abs(spec.h)
    return float(np.min(1.0 / np.cosh(worst) ** 2)) if spec.n else 1.0

