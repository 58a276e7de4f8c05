"""Negative log pseudo-likelihood and its subgradient-descent minimizer.

Given one observed configuration x, the objective over the basis
coordinates beta is

    psi(beta) = sum_i [log cosh((A_beta)_i x) - x_i (A_beta)_i x + log 2]

which is convex; an infinity-norm penalty lam * max(0, ||A_beta||_inf - M)
keeps iterates in the trust region without projections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import combine
from .core import check_spins, infinity_norm, validate_interaction
from .errors import DimensionMismatch, IsingfitError, NonFinite

DEFAULT_MAX_ITERS = 2_000_000


def log_cosh(y):
    """Overflow-safe log cosh: |y| + log1p(exp(-2|y|)) - log 2."""
    a = np.abs(y)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def _check_pair(J, x):
    J = np.asarray(J, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if J.shape[0] != J.shape[1] or J.shape[0] != x.shape[0]:
        raise DimensionMismatch(f"J shape {J.shape} vs x length {x.shape}")
    return J, x


def neg_log_pl(J, x):
    """phi(J) = sum_i [log cosh(J_i x) - x_i J_i x + log 2]."""
    J, x = _check_pair(J, x)
    f = J @ x
    return float(np.sum(log_cosh(f) - x * f) + len(x) * math.log(2.0))


def directional_derivative(J, A, x):
    """d phi(J + tA)/dt at t=0: sum_i (A_i x)(tanh(J_i x) - x_i)."""
    J, x = _check_pair(J, x)
    A = validate_interaction(A)
    if A.shape != J.shape:
        raise DimensionMismatch("direction matrix shape mismatch")
    return float(np.sum((A @ x) * (np.tanh(J @ x) - x)))


def directional_second_derivative(J, A, x):
    """Second derivative along A: sum_i (A_i x)^2 sech^2(J_i x)."""
    J, x = _check_pair(J, x)
    A = validate_interaction(A)
    if A.shape != J.shape:
        raise DimensionMismatch("direction matrix shape mismatch")
    return float(np.sum((A @ x) ** 2 / np.cosh(J @ x) ** 2))


def psi(basis, beta, x):
    """Objective in basis coordinates."""
    return neg_log_pl(combine(basis, beta), x)


def grad_beta(basis, beta, x, Bx=None):
    """Gradient of psi; component i is the derivative along A_i.

    ``Bx`` may carry the precomputed (k, n) matrix of A_i x products.
    """
    x = np.asarray(x, dtype=np.float64)
    if Bx is None:
        Bx = basis.stacked() @ x
    U = combine(basis, np.asarray(beta, dtype=np.float64))
    return Bx @ (np.tanh(U @ x) - x)


def infnorm_subgradient(basis, U, lam, A_rows=None):
    """Subgradient of lam * ||A_beta||_inf in beta coordinates.

    Picks the row with the largest absolute sum (lowest index on ties) and
    differentiates through it; sgn(0) = 0.
    """
    r = int(np.argmax(np.sum(np.abs(U), axis=1)))
    signs = np.sign(U[r])
    if A_rows is None:
        A_rows = basis.stacked()[:, r, :]
    else:
        A_rows = A_rows[:, r, :]
    return lam * (A_rows @ signs)


def regularized_subgradient(basis, beta, x, M, lam, Bx=None):
    """grad psi plus the penalty subgradient when ||A_beta||_inf > M."""
    beta = np.asarray(beta, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if Bx is None:
        Bx = basis.stacked() @ x
    U = combine(basis, beta)
    g = Bx @ (np.tanh(U @ x) - x)
    if infinity_norm(U) > M:
        g = g + infnorm_subgradient(basis, U, lam)
    return g


def regularized_objective(basis, beta, x, M, lam):
    U = combine(basis, np.asarray(beta, dtype=np.float64))
    return neg_log_pl(U, x) + lam * max(0.0, infinity_norm(U) - M)


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

    Each step costs O(n k + m k) for the m edges of the basis support:
    the fields are beta @ Bx with Bx = (A_i x)_i formed once (each A_i is
    symmetric), and the row sums and the penalty subgradient are read off
    the edge values of A_beta through ``basis.edges``.  No step forms an
    n x n matrix.
    """
    x = check_spins(x, basis.n)
    n, k = basis.n, basis.k
    lam, T, eta = cfg.resolve(n, k)
    Bx = basis.stacked() @ x
    edges = basis.edges
    C = edges.coef

    beta = np.zeros(k)
    beta_sum = np.zeros(k)
    best_h = math.inf
    best_beta = beta.copy()
    trace = []
    it = 0
    stop_reason = "iter_cap"
    gnorm = math.nan
    for it in range(1, T + 1):
        u = C @ beta
        f = beta @ Bx
        tanh_f = np.tanh(f)
        g = Bx @ (tanh_f - x)
        row_sums = edges.row_abs_sums(u)
        inf_norm = float(row_sums.max())
        h_val = float(np.sum(log_cosh(f) - x * f)) + n * math.log(2.0)
        h_val += lam * max(0.0, inf_norm - cfg.M)
        if not math.isfinite(h_val):
            raise NonFinite(f"objective became non-finite at iteration {it}")
        if h_val < best_h:
            best_h = h_val
            best_beta = beta.copy()
        if trace_every and (it % trace_every == 0 or it == 1):
            trace.append(h_val)
        if inf_norm > cfg.M:
            # differentiate through the largest row (lowest index on ties)
            e = edges.node_edges(int(np.argmax(row_sums)))
            g = g + lam * (C[e].T @ np.sign(u[e]))
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
