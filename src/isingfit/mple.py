"""Negative log pseudo-likelihood and its exact budgeted minimizer.

Given one observed configuration x, the objective over the basis
coordinates beta is

    psi(beta) = sum_i [log cosh((A_beta)_i x) - x_i (A_beta)_i x + log 2]

which is convex.  ``fit`` minimizes it subject to the budget
||A_beta||_inf <= M by a damped Newton method whose k-dimensional steps
respect linear cuts of the budget.

Each quantity has one implementation, in terms of the fields f = J x
(beta @ Bx in basis coordinates, Bx = (A_i x)_i = ``basis.edges.fields(x)``
read off the edge-coordinate basis in O(m k), as each A_i is symmetric):
``value_at_fields`` for neg_log_pl, psi and fit; ``gradient_at_fields``
for directional_derivative, grad_beta, fit and oneparam's bisection;
``curvature_at_fields`` for directional_second_derivative and fit's
Hessian; and ``infnorm_subgradient`` over ``basis.edges`` for fit's
budget cuts.  ``fit`` reports psi and ||A_beta||_inf at its estimate
from the same fields and edge row sums, so it never forms an n x n
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import combine  # noqa: F401 -- perfbench/tracing.py wraps mple.combine
from .core import check_spins, validate_interaction
from .errors import DimensionMismatch, IsingfitError, LengthMismatch

DEFAULT_MAX_PROGRAMS = 1_000


def value_at_fields(f, x):
    """phi at the fields f = J x: sum_i [log cosh(f_i) - x_i f_i] + n log 2,
    with the overflow-safe log cosh(y) = |y| + log1p(exp(-2|y|)) - log 2."""
    a = np.abs(f)
    lc = a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)
    return float(np.sum(lc - x * f)) + len(x) * math.log(2.0)


def gradient_at_fields(D, f, x):
    """Derivatives of phi at the fields f along the directions whose fields
    are the rows of D (a single vector D gives a scalar): D @ (tanh f - x)."""
    return D @ (np.tanh(f) - x)


def curvature_at_fields(D, f):
    """Second derivatives of phi at the fields f along the directions whose
    fields are the rows of D: (D diag(sech^2 f)) D' (a scalar for a single
    vector D)."""
    return (D / np.cosh(f) ** 2) @ D.T


def _check_pair(J, x):
    J = np.asarray(J, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if J.shape[0] != J.shape[1] or J.shape[0] != x.shape[0]:
        raise DimensionMismatch(f"J shape {J.shape} vs x length {x.shape}")
    return J, x


def neg_log_pl(J, x):
    """phi(J) = sum_i [log cosh(J_i x) - x_i J_i x + log 2]."""
    J, x = _check_pair(J, x)
    return value_at_fields(J @ x, x)


def _direction_fields(J, A, x):
    J, x = _check_pair(J, x)
    A = validate_interaction(A)
    if A.shape != J.shape:
        raise DimensionMismatch("direction matrix shape mismatch")
    return J @ x, A @ x, x


def directional_derivative(J, A, x):
    """d phi(J + tA)/dt at t=0: sum_i (A_i x)(tanh(J_i x) - x_i)."""
    f, d, x = _direction_fields(J, A, x)
    return float(gradient_at_fields(d, f, x))


def directional_second_derivative(J, A, x):
    """Second derivative along A: sum_i (A_i x)^2 sech^2(J_i x)."""
    f, d, _ = _direction_fields(J, A, x)
    return float(curvature_at_fields(d, f))


def _basis_fields(basis, beta, x):
    """Validated beta and spins x, and Bx = (A_i x)_i: the fields are beta @ Bx."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (basis.k,):
        raise LengthMismatch(f"beta length {beta.shape} vs basis rank {basis.k}")
    x = check_spins(x, basis.n)
    return beta, x, basis.edges.fields(x)


def psi(basis, beta, x):
    """Objective in basis coordinates."""
    beta, x, Bx = _basis_fields(basis, beta, x)
    return value_at_fields(beta @ Bx, x)


def grad_beta(basis, beta, x):
    """Gradient of psi; component i is the derivative along A_i."""
    beta, x, Bx = _basis_fields(basis, beta, x)
    return gradient_at_fields(Bx, beta @ Bx, x)


def infnorm_subgradient(edges, u, row_sums=None):
    """Subgradient of ||A_beta||_inf in beta coordinates from the edge
    values u = edges.coef @ beta: differentiates through the row with the
    largest absolute sum (lowest index on ties); sgn(0) = 0.  ``row_sums``
    is ``edges.row_abs_sums(u)`` when the caller already has it."""
    if row_sums is None:
        row_sums = edges.row_abs_sums(u)
    i = int(np.argmax(row_sums))
    e = np.flatnonzero((edges.rows == i) | (edges.cols == i))
    return edges.coef[e].T @ np.sign(u[e])


@dataclass
class MpleConfig:
    M: float                   # the budget ||A_beta||_inf <= M
    max_programs: int = DEFAULT_MAX_PROGRAMS  # cap on fit's quadratic programs
    grad_tol: float = 0.0      # KKT residual target; 0 runs to the floating-point optimum

    def resolve(self, n, k):  # kept for perfbench/tracing.py, which unpacks (_, cap, _)
        return None, self.max_programs, None


@dataclass
class EstimationResult:
    beta_hat: np.ndarray
    objective_trace: np.ndarray  # psi at beta = 0 and at every Newton iterate
    psi_hat: float               # objective_trace[-1]
    inf_norm_hat: float          # ||A_beta_hat||_inf
    iterations: int              # quadratic programs solved (steps and cuts)
    stop_reason: str = ""        # "kkt", "stalled" or "iter_cap"
    kkt_residual: float = math.nan
    budget_active: bool = False  # inf_norm_hat within relative 1e-9 of M


# relative to M: cuts this close to M are tight at beta, and trial points
# at most this far above M are scaled onto the budget instead of cut off
_BALL_RTOL = 1e-9
_ARMIJO = 1e-4
_HALVINGS = 60


def _active_set_qp(Q, q, G, h, tol):
    """argmin 1/2 z'Qz + q'z subject to G z <= h, by a primal active-set
    method from the feasible z = 0 (every row with h_i <= tol starts in the
    working set).  Each equality-constrained step is the minimum-norm
    solution of its KKT system, so Q and the working set may be singular.
    The objective never increases, so a capped run still returns a point
    no worse than 0."""
    k = len(q)
    z = np.zeros(k)
    work = [i for i in range(len(h)) if h[i] <= tol]
    for _ in range(4 * (k + len(h)) + 4):
        A = G[work]
        # the entries of np.block([[Q, A.T], [A, 0]]) at a sixth of its cost
        K = np.zeros((k + len(work), k + len(work)))
        K[:k, :k] = Q
        K[:k, k:] = A.T
        K[k:, :k] = A
        rhs = np.concatenate([-(Q @ z + q), np.zeros(len(work))])
        sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
        p, mu = sol[:k], sol[k:]
        if np.linalg.norm(p) <= 1e-12 * (1.0 + np.linalg.norm(z)):
            if not work or mu.min() >= -1e-12 * (1.0 + np.abs(mu).max()):
                break
            del work[int(np.argmin(mu))]
            continue
        Gp = G @ p
        room = h - G @ z
        alpha, block = 1.0, None
        for i in np.flatnonzero(Gp > 0.0):
            if i not in work and room[i] < alpha * Gp[i]:
                alpha, block = max(room[i] / Gp[i], 0.0), int(i)
        z = z + alpha * p
        if block is not None:
            work.append(block)
    return z


def _kkt_residual(g, C):
    """min over mu >= 0 of ||g + C' mu||: how far -g is from the cone of
    the rows of C (the norm of g when C has no rows)."""
    if not len(C):
        return float(np.linalg.norm(g))
    mu = _active_set_qp(C @ C.T, C @ g, -np.eye(len(C)), np.zeros(len(C)), 0.0)
    return float(np.linalg.norm(g + C.T @ mu))


def fit(basis, x, cfg):
    """The budgeted maximum pseudo-likelihood estimate: argmin psi(beta)
    subject to ||A_beta||_inf <= M, by a damped Newton method from the
    feasible beta = 0.

    With f = beta @ Bx (Bx = (A_i x)_i formed once), each step solves the
    Newton quadratic program min_d 1/2 d'Hd + g'd, with g the gradient
    kernel and H = curvature_at_fields(Bx, f) (k x k), subject to the cuts
    c'(beta + d) <= M found so far, then backtracks (Armijo) on psi.  A
    trial point beta + d outside the budget adds the cut
    c = infnorm_subgradient at that point and the program is solved again
    from the same beta.  c is a subgradient of a norm, so
    c'beta' <= ||A_beta'||_inf for every beta': each cut holds on the
    whole budget, the iterates never leave it and psi never increases.  A
    trial point within relative 1e-9 above M is scaled onto the budget
    instead, and a cut is never added twice.

    ``kkt_residual`` is min over mu >= 0 of ||g + sum_i mu_i c_i|| over the
    cuts tight at beta; tight cuts are subgradients of the budget, so by
    convexity psi(beta) - min psi <= kkt_residual * ||beta - beta*|| (up
    to sum_i mu_i times the 1e-9 M tightness tolerance), and
    ||beta||_2 = ||A_beta||_F <= sqrt(n) M on the budget.  ``stop_reason``
    is "kkt" once the residual is <= cfg.grad_tol (with grad_tol = 0: once
    no step decreases psi in floating point), "stalled" when no step
    decreases psi while the residual is still above grad_tol > 0, and
    "iter_cap" after cfg.max_programs quadratic programs.

    ``psi_hat`` is psi at the last iterate, ``objective_trace[-1]``, and
    ``inf_norm_hat`` is ||A_beta_hat||_inf from the edge row sums that the
    cuts use, so fit forms no n x n matrix.
    """
    x = check_spins(x, basis.n)
    M = float(cfg.M)
    edges = basis.edges
    Bx = edges.fields(x)

    beta = np.zeros(basis.k)
    f = beta @ Bx
    value = value_at_fields(f, x)
    cuts = np.zeros((0, basis.k))
    trace = [value]
    stop_reason = "iter_cap"
    it = 0
    while True:
        g = gradient_at_fields(Bx, f, x)
        slack = M - cuts @ beta
        residual = _kkt_residual(g, cuts[slack <= _BALL_RTOL * M])
        if residual <= cfg.grad_tol:
            stop_reason = "kkt"
            break
        if it >= cfg.max_programs:
            break
        it += 1
        d = _active_set_qp(curvature_at_fields(Bx, f), g, cuts, slack,
                           _BALL_RTOL * M)
        trial = beta + d
        u = edges.coef @ trial
        row_sums = edges.row_abs_sums(u)
        peak = float(row_sums.max())
        if peak > M * (1.0 + _BALL_RTOL):
            c = infnorm_subgradient(edges, u, row_sums)
            if not any(np.array_equal(c, old) for old in cuts):
                cuts = np.vstack([cuts, c])
                continue
        if peak > M:
            d = trial * (M / peak) - beta
        step = _armijo(Bx, x, beta, value, g @ d, d)
        if step is None:
            stop_reason = "kkt" if cfg.grad_tol == 0 else "stalled"
            break
        beta, f, value = step
        trace.append(value)

    inf_hat = float(edges.row_abs_sums(edges.coef @ beta).max())
    if inf_hat > M * (1.0 + _BALL_RTOL):
        raise IsingfitError(f"estimate escaped the budget: {inf_hat!r} > {M!r}")
    return EstimationResult(
        beta_hat=beta,
        objective_trace=np.array(trace),
        psi_hat=value,
        inf_norm_hat=inf_hat,
        iterations=it,
        stop_reason=stop_reason,
        kkt_residual=residual,
        budget_active=inf_hat >= M * (1.0 - _BALL_RTOL),
    )


def _armijo(Bx, x, beta, value, slope, d):
    """(beta + t d, its fields, psi there) for the largest t in 1, 1/2,
    1/4, ... with psi below both value and value + 1e-4 t slope; None when
    d is not a descent direction or no t decreases psi."""
    if not slope < 0.0:
        return None
    t = 1.0
    for _ in range(_HALVINGS):
        nb = beta + t * d
        nf = nb @ Bx
        nv = value_at_fields(nf, x)
        if nv < value and nv <= value + _ARMIJO * t * slope:
            return nb, nf, nv
        t *= 0.5
    return None
