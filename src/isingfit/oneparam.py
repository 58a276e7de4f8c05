"""Single-parameter estimation: fit beta in the model with interaction
beta * J from one sample by minimizing the scalar pseudo-likelihood.

phi is convex with nonnegative second derivative, so the stationary
equation phi'(beta) = 0 is solved by bisection on the monotone phi'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import validate_interaction
from .errors import DegenerateDerivative, DimensionMismatch, ZeroDenominator


def _prep(J, x):
    J = validate_interaction(J)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (J.shape[0],):
        raise DimensionMismatch("sample length does not match J")
    return J @ x, x


def phi_scalar(beta, J, x):
    f, x = _prep(J, x)
    bf = beta * f
    a = np.abs(bf)
    log_cosh = a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)
    return float(np.sum(log_cosh - x * bf) + len(x) * math.log(2.0))


def phi_prime(beta, J, x):
    """d phi / d beta: sum_i (J_i x)(tanh(beta J_i x) - x_i)."""
    f, x = _prep(J, x)
    return float(np.sum(f * (np.tanh(beta * f) - x)))


def phi_double_prime(beta, J, x):
    """Second derivative sum_i (J_i x)^2 sech^2(beta J_i x); nonnegative."""
    f, x = _prep(J, x)
    return float(np.sum(f ** 2 / np.cosh(beta * f) ** 2))


@dataclass
class ScalarFitResult:
    beta_hat: float
    phi_prime_at_hat: float
    second_deriv_floor: float  # sech^2(M ||Jx||_inf) ||Jx||_2^2
    certificate: float
    bracket: tuple             # search interval [-M, M]
    boundary: bool = False
    degenerate: bool = False


def fit_scalar(J, x, M, tol=1e-10):
    """Bisection for phi'(beta) = 0 on [-M, M].

    Returns the boundary point (flagged) when phi' keeps one sign on the
    whole interval; a zero Jx yields the degenerate result beta_hat = 0
    with an infinite certificate.
    """
    f, xv = _prep(J, x)
    if not np.any(f):
        return ScalarFitResult(0.0, 0.0, 0.0, math.inf, (-M, M),
                               degenerate=True)
    floor = _curvature_floor(f, M)
    lo, hi = -float(M), float(M)
    d_lo = phi_prime(lo, J, x)
    d_hi = phi_prime(hi, J, x)
    cert = _certificate(max(abs(d_lo), abs(d_hi)), floor)
    if d_lo > 0:  # phi' nondecreasing and positive everywhere
        return ScalarFitResult(lo, d_lo, floor, cert, (-M, M), boundary=True)
    if d_hi < 0:
        return ScalarFitResult(hi, d_hi, floor, cert, (-M, M), boundary=True)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        d = phi_prime(mid, J, x)
        if abs(d) <= tol:
            return ScalarFitResult(mid, d, floor, cert, (-M, M))
        if d < 0:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return ScalarFitResult(mid, phi_prime(mid, J, x), floor, cert, (-M, M))


def _curvature_floor(f, M):
    """Lower bound on phi'' over [-M, M] given f = Jx:
    sech^2(M ||Jx||_inf) ||Jx||_2^2, since |beta f_i| <= M ||Jx||_inf."""
    t = M * float(np.max(np.abs(f)))
    if t > 300.0:  # cosh(t)^2 overflows past t ~ 354; 0 is still a floor
        return 0.0
    return float(np.sum(f ** 2)) / math.cosh(t) ** 2


def _certificate(deriv_mag, floor):
    """Error bound |beta_hat - beta*| <= max |phi'(+-M)| / floor, valid for
    any beta* in [-M, M] because phi' is monotone and phi'' >= floor."""
    return deriv_mag / floor if floor > 0.0 else math.inf


def partition_certificate(J, x, beta_hat, M=1.0):
    """Observable error certificate and the partition-function proxy.

    Returns (x'Jx, certificate) where the certificate divides the largest
    |phi'| over the search-bracket endpoints by the curvature floor
    sech^2(M ||Jx||_inf) ||Jx||_2^2.
    """
    if beta_hat == 0.0:
        raise DegenerateDerivative("certificate needs a nonzero beta_hat")
    f, xv = _prep(J, x)
    if not np.any(f):
        raise ZeroDenominator("Jx = 0: curvature floor vanishes")
    xJx = float(xv @ f)
    deriv = max(abs(phi_prime(-M, J, x)), abs(phi_prime(M, J, x)))
    return xJx, _certificate(deriv, _curvature_floor(f, M))
