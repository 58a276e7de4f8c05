"""Single-parameter estimation: fit beta in the model with interaction
beta * J from one sample by minimizing the scalar pseudo-likelihood
phi(beta) = neg_log_pl(beta J), with mple's derivatives along J.  phi is
convex, so phi'(beta) = 0 is solved by bisection on the monotone phi',
read off the fields Jx (formed once) by ``mple.gradient_at_fields``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_spins, validate_interaction
from .mple import check_budget, check_tolerance, directional_derivative, gradient_at_fields


def _prep(J, x):
    J = validate_interaction(J)
    x = check_spins(x, J.shape[0])
    return J @ x, x


def _slope(beta, f, x):
    """phi'(beta) given the fields f = Jx: beta J has fields beta f."""
    return float(gradient_at_fields(f, beta * f, x))


def phi_prime(beta, J, x):
    """d phi / d beta: the derivative of neg_log_pl along J at beta J."""
    J = validate_interaction(J)
    return directional_derivative(beta * J, J, x)


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
    with an infinite certificate.  An M that is NaN, infinite or negative
    raises InvalidBudget, and such a tol raises InvalidTolerance.
    """
    check_budget(M)
    check_tolerance("tol", tol)
    f, x = _prep(J, x)
    if not np.any(f):
        return ScalarFitResult(0.0, 0.0, 0.0, math.inf, (-M, M),
                               degenerate=True)
    lo, hi = -float(M), float(M)
    d_lo, d_hi, floor, cert = _certificate(f, x, M)
    # phi'(beta) = sum_i f_i (tanh(beta f_i) - x_i) and tanh(y) - x_i has the
    # sign of -x_i, so phi' < 0 on the whole line when no x_i f_i is negative
    # (> 0 when none is positive).  Those samples are decided from the signs:
    # tanh rounds to +-1 once |beta f_i| > 19, and phi'(+-M) can read 0.
    xf = x * f
    if d_lo > 0 or np.all(xf <= 0):  # phi' nondecreasing and positive everywhere
        return ScalarFitResult(lo, d_lo, floor, cert, (-M, M), boundary=True)
    if d_hi < 0 or np.all(xf >= 0):
        return ScalarFitResult(hi, d_hi, floor, cert, (-M, M), boundary=True)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # lo and hi are adjacent doubles, more than 1e-12 apart once
            # |beta| passes 8192: the bracket cannot shrink any further
            break
        d = _slope(mid, f, x)
        if abs(d) <= tol:
            return ScalarFitResult(mid, d, floor, cert, (-M, M))
        if d < 0:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return ScalarFitResult(mid, _slope(mid, f, x), floor, cert, (-M, M))


def _certificate(f, x, M):
    """phi'(-M), phi'(M), the floor sech^2(M ||Jx||_inf) ||Jx||_2^2 on phi''
    over [-M, M] (|beta f_i| <= M ||Jx||_inf there) and the error bound
    max |phi'(+-M)| / floor, valid for any beta* in [-M, M] because phi' is
    monotone and phi'' >= floor."""
    d_lo, d_hi = _slope(-M, f, x), _slope(M, f, x)
    t = M * float(np.max(np.abs(f)))
    # cosh(t)^2 overflows past t ~ 354; 0 is still a floor
    floor = 0.0 if t > 300.0 else float(np.sum(f ** 2)) / math.cosh(t) ** 2
    cert = max(abs(d_lo), abs(d_hi)) / floor if floor > 0.0 else math.inf
    return d_lo, d_hi, floor, cert

