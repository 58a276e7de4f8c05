"""Negative log pseudo-likelihood and its subgradient-descent minimizer.

Given one observed configuration x, the objective over the basis
coordinates beta is

    psi(beta) = sum_i [log cosh((A_beta)_i x) - x_i (A_beta)_i x + log 2]

which is convex; an infinity-norm penalty lam * max(0, ||A_beta||_inf - M)
keeps iterates in the trust region without projections.

Each quantity has one implementation, in terms of the fields f = J x
(beta @ Bx in basis coordinates, Bx = (A_i x)_i, as each A_i is symmetric):
``value_at_fields`` for neg_log_pl, psi and regularized_objective;
``gradient_at_fields`` for directional_derivative, grad_beta,
regularized_subgradient and oneparam's bisection;
``directional_second_derivative`` for the curvature; and
``infnorm_subgradient`` over ``basis.edges`` for the budget.
``regularized_step`` combines them for ``fit``'s loop and regularized_*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import combine
from .core import check_spins, infinity_norm, validate_interaction
from .errors import DimensionMismatch, IsingfitError, LengthMismatch, NonFinite

DEFAULT_MAX_ITERS = 2_000_000


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
    return float(np.sum(d ** 2 / np.cosh(f) ** 2))


def _basis_fields(basis, beta, x):
    """Validated beta and spins x, and Bx = (A_i x)_i: the fields are beta @ Bx."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (basis.k,):
        raise LengthMismatch(f"beta length {beta.shape} vs basis rank {basis.k}")
    x = check_spins(x, basis.n)
    return beta, x, basis.stacked() @ x


def psi(basis, beta, x):
    """Objective in basis coordinates."""
    beta, x, Bx = _basis_fields(basis, beta, x)
    return value_at_fields(beta @ Bx, x)


def grad_beta(basis, beta, x):
    """Gradient of psi; component i is the derivative along A_i."""
    beta, x, Bx = _basis_fields(basis, beta, x)
    return gradient_at_fields(Bx, beta @ Bx, x)


def infnorm_subgradient(edges, u, lam):
    """Subgradient of lam * ||A_beta||_inf in beta coordinates from the edge
    values u = edges.coef @ beta: differentiates through the row with the
    largest absolute sum (lowest index on ties); sgn(0) = 0."""
    e = edges.node_edges(int(np.argmax(edges.row_abs_sums(u))))
    return lam * (edges.coef[e].T @ np.sign(u[e]))


def regularized_step(edges, Bx, beta, x, M, lam):
    """Value, subgradient and ||A_beta||_inf of psi + lam * max(0,
    ||A_beta||_inf - M) at beta, in O(n k + m k) for the m support edges."""
    u = edges.coef @ beta
    f = beta @ Bx
    inf_norm = float(edges.row_abs_sums(u).max())
    h = value_at_fields(f, x) + lam * max(0.0, inf_norm - M)
    g = gradient_at_fields(Bx, f, x)
    if inf_norm > M:
        g = g + infnorm_subgradient(edges, u, lam)
    return h, g, inf_norm


def regularized_subgradient(basis, beta, x, M, lam):
    """grad psi plus the penalty subgradient when ||A_beta||_inf > M."""
    beta, x, Bx = _basis_fields(basis, beta, x)
    return regularized_step(basis.edges, Bx, beta, x, M, lam)[1]


def regularized_objective(basis, beta, x, M, lam):
    beta, x, Bx = _basis_fields(basis, beta, x)
    return regularized_step(basis.edges, Bx, beta, x, M, lam)[0]


@dataclass
class MpleConfig:
    M: float
    epsilon: float = 1.0
    lam: float = None          # default 5n, resolved at fit time
    T: int = None              # default ceil(M^2 n^4 k / eps^2), capped
    eta: float = None          # default M / (n sqrt(k) sqrt(T))
    max_iters: int = DEFAULT_MAX_ITERS
    grad_tol: float = 0.0      # 0 disables early stopping

    def resolve(self, n, k):
        lam = 5.0 * n if self.lam is None else self.lam
        if self.T is None:
            T = min(math.ceil(self.M ** 2 * n ** 4 * k / self.epsilon ** 2),
                    self.max_iters)
        else:
            T = min(self.T, self.max_iters)
        T = max(T, 1)
        eta = self.M / (n * math.sqrt(k) * math.sqrt(T)) if self.eta is None else self.eta
        return lam, T, eta


@dataclass
class EstimationResult:
    beta_hat: np.ndarray
    J_hat: np.ndarray
    objective_trace: np.ndarray
    psi_hat: float
    inf_norm_hat: float
    iterations: int
    config: MpleConfig
    beta_best: np.ndarray = None
    psi_best: float = math.inf
    over_budget: bool = False  # true when ||J_hat||_inf in (2M, 3M]
    stop_reason: str = ""      # "grad_tol" (early stop) or "iter_cap"
    grad_norm: float = math.nan  # subgradient norm at the last iterate seen


def fit(basis, x, cfg, trace_every=0):
    """Averaged subgradient descent from beta = 0.

    Runs T steps of beta <- beta - eta * g(beta) on the regularized
    objective, stopping early when grad_tol > 0, the subgradient is small
    and the iterate is inside the infinity-norm budget.  The reported
    estimate is the running average of iterates; the best iterate seen by
    objective value is kept for diagnostics.  ``stop_reason`` says which
    of the two ends was reached and ``grad_norm`` is the subgradient norm
    at the last iterate evaluated.

    Each step is one ``regularized_step``, with Bx = (A_i x)_i formed once.
    """
    x = check_spins(x, basis.n)
    lam, T, eta = cfg.resolve(basis.n, basis.k)
    Bx = basis.stacked() @ x
    edges = basis.edges

    beta = np.zeros(basis.k)
    beta_sum = np.zeros(basis.k)
    best_h = math.inf
    best_beta = beta.copy()
    trace = []
    it = 0
    stop_reason = "iter_cap"
    gnorm = math.nan
    for it in range(1, T + 1):
        h_val, g, inf_norm = regularized_step(edges, Bx, beta, x, cfg.M, lam)
        if not math.isfinite(h_val):
            raise NonFinite(f"objective became non-finite at iteration {it}")
        if h_val < best_h:
            best_h = h_val
            best_beta = beta.copy()
        if trace_every and (it % trace_every == 0 or it == 1):
            trace.append(h_val)
        gnorm = float(np.linalg.norm(g))
        if cfg.grad_tol > 0 and gnorm <= cfg.grad_tol and inf_norm <= cfg.M:
            beta_sum += beta * (T - it + 1)  # hold the converged iterate
            stop_reason = "grad_tol"
            break
        beta_sum += beta
        beta = beta - eta * g

    beta_hat = beta_sum / T
    J_hat = combine(basis, beta_hat)
    psi_hat = neg_log_pl(J_hat, x)
    inf_hat = infinity_norm(J_hat)
    if inf_hat > 3.0 * cfg.M + 1e-9:
        raise IsingfitError(
            f"averaged iterate escaped the 3M budget: {inf_hat:g} > 3*{cfg.M:g}"
        )
    return EstimationResult(
        beta_hat=beta_hat,
        J_hat=J_hat,
        objective_trace=np.array(trace),
        psi_hat=psi_hat,
        inf_norm_hat=inf_hat,
        iterations=it,
        config=cfg,
        beta_best=best_beta,
        psi_best=best_h,
        over_budget=inf_hat > 2.0 * cfg.M,
        stop_reason=stop_reason,
        grad_norm=gnorm,
    )
