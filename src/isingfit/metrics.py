"""Exact small-n distances and variance diagnostics.

Everything here works from the enumerated distribution, so dimensions are
capped low; these are oracles for tests and desk-scale experiments, not
production-path estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import DimensionMismatch, DimensionTooLarge
from .sampler import _linear_sums, enumerate_distribution, make_rng, spin_table

DIVERGENCE_LIMIT = 18


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
    chi = float(np.expm1(logsumexp(np.subtract(lq, lp, out=lq))))
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


def conditional_mean_zero_check(spec, cover, A, assignments=10, rng=None):
    """Max |E[sum_{i in I_j} (A_i x)(x_i - tanh(J_i x)) | x_{-I_j}]|.

    The conditional mean is identically zero; this verifies it by exact
    summation over the spins inside each set, for randomly drawn outside
    assignments.
    """
    if rng is None:
        rng = make_rng(0)
    A = np.asarray(A, dtype=np.float64)
    n = spec.n
    worst = 0.0
    for I in cover.sets:
        I = np.asarray(I, dtype=np.intp)
        m = len(I)
        if m == 0:
            continue
        if m > 20:
            raise DimensionTooLarge(f"subset of size {m} too large for exact sums")
        inner = spin_table(m)  # all 2^m assignments on I
        for _ in range(assignments):
            x = 1.0 - 2.0 * rng.integers(0, 2, size=n).astype(np.float64)
            X = np.tile(x, (inner.shape[0], 1))
            X[:, I] = inner
            # conditional weights of x_I given x_{-I}
            w = 0.5 * np.einsum("ci,ij,cj->c", X, spec.J, X) + X @ spec.h
            w -= w.max()
            p = np.exp(w)
            p /= p.sum()
            fields = X @ spec.J.T + spec.h  # (2^m, n) local fields
            terms = (X @ A.T[:, I]) * (X[:, I] - np.tanh(fields[:, I]))
            mean = float(p @ terms.sum(axis=1))
            worst = max(worst, abs(mean))
    return worst
