"""Negative log pseudo-likelihood and its exact budgeted minimizer.

Given one observed configuration x, the objective over the basis
coordinates beta is

    psi(beta) = sum_i [log cosh((A_beta)_i x) - x_i (A_beta)_i x + log 2]

which is convex.  ``fit`` minimizes it subject to the budget
||A_beta||_inf <= M by a damped Newton method whose k-dimensional steps
respect linear cuts of the budget.

Each quantity has one implementation, in terms of the fields f = J x
(beta @ Bx in basis coordinates, Bx = (A_i x)_i = ``basis.fields(x)``
read off the edge-coordinate basis in O(m k), as each A_i is symmetric):
``value_at_fields`` for neg_log_pl, psi and fit; ``gradient_at_fields``
for directional_derivative, grad_beta, fit and oneparam's bisection;
``curvature_at_fields`` for directional_second_derivative and fit's
Hessian; and ``infnorm_subgradient`` over the basis edges for fit's
budget cuts.  A trial point outside the budget adds, in one program, the
most violated row's cut and every other violated row's cut whose support
in beta is disjoint from those chosen before it (``_new_cuts``), so
``iterations`` counts programs, not cuts.  fit has one solver, Lawson
and Hanson's non-negative least squares ``_nnls``, started warm from the
rows that its right-hand side breaks: its certificate ``_kkt_residual``
is one projection onto the cone of the tight cuts, and its Newton step
``_newton_step`` is one least-distance program reduced to the same NNLS,
whose warm start is the set of cuts the Newton step breaks.  ``fit``
reports psi and ||A_beta||_inf at its estimate from the same fields and
edge row sums, so it never forms an n x n matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import combine  # noqa: F401 -- perfbench/tracing.py wraps mple.combine
from .core import check_spins, validate_interaction
from .errors import (DimensionMismatch, InvalidBudget, InvalidTolerance, IsingfitError,
                     LengthMismatch)

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
    return beta, x, basis.fields(x)


def psi(basis, beta, x):
    """Objective in basis coordinates."""
    beta, x, Bx = _basis_fields(basis, beta, x)
    return value_at_fields(beta @ Bx, x)


def grad_beta(basis, beta, x):
    """Gradient of psi; component i is the derivative along A_i."""
    beta, x, Bx = _basis_fields(basis, beta, x)
    return gradient_at_fields(Bx, beta @ Bx, x)


def infnorm_subgradient(basis, u, row_sums=None):
    """Subgradient of ||A_beta||_inf in beta coordinates from the edge
    values u = basis.coef @ beta: differentiates through the row with the
    largest absolute sum (lowest index on ties); sgn(0) = 0.  ``row_sums``
    is ``basis.row_abs_sums(u)`` when the caller already has it."""
    if row_sums is None:
        row_sums = basis.row_abs_sums(u)
    i = int(np.argmax(row_sums))
    e = np.flatnonzero((basis.rows == i) | (basis.cols == i))
    return basis.coef[e].T @ np.sign(u[e])


def _new_cuts(basis, u, row_sums, bound, cuts):
    """fit's batch of cuts at a trial point with edge values u, as a list
    (possibly empty): ``infnorm_subgradient``, then, most violated first,
    the cut of each other row above ``bound`` whose support in beta is
    disjoint from those chosen, less the rows of ``cuts``.  The other
    rows' cuts (``row_signed_sums``) are computed only when the first
    misses a coordinate, which an Erdos-Renyi row's does only where a
    coordinate cancels to 0, and are chosen by support bitmasks."""
    first = infnorm_subgradient(basis, u, row_sums)
    chosen = [first]
    if np.count_nonzero(first) < basis.k:
        violated = np.flatnonzero(row_sums > bound)
        # most violated first, lowest index on ties, so the first is the
        # argmax row that infnorm_subgradient differentiated through
        rest = violated[np.argsort(-row_sums[violated], kind="stable")[1:]]
        if rest.size:
            node_cuts = basis.row_signed_sums(u).T[rest]
            taken, *masks = _bitmasks(np.vstack([first, node_cuts]) != 0.0)
            full = (1 << basis.k) - 1
            picked = []
            for j, mask in enumerate(masks):
                if mask and not mask & taken:
                    picked.append(j)
                    taken |= mask
                    if taken == full:
                        break
            chosen.extend(node_cuts[picked])
    if len(cuts):
        chosen = [c for c in chosen if not (cuts == c).all(axis=1).any()]
    return chosen


_BITS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def _bitmasks(support):
    """Each row of the boolean (p, k) ``support`` as a Python int whose
    bit s is its column s, built 64 columns at a time."""
    k = support.shape[1]
    masks = (support[:, :64] @ _BITS[:min(k, 64)]).tolist()
    for start in range(64, k, 64):
        block = support[:, start:start + 64]
        words = (block @ _BITS[:block.shape[1]]).tolist()
        masks = [m | w << start for m, w in zip(masks, words)]
    return masks


def check_budget(M):
    """Raise InvalidBudget unless the budget M is finite and >= 0."""
    if not (math.isfinite(M) and M >= 0.0):
        raise InvalidBudget(f"budget M must be finite and >= 0, got {M!r}")


def check_tolerance(name, tol):
    """Raise InvalidTolerance unless the tolerance ``name`` is finite and >= 0."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidTolerance(f"{name} must be finite and >= 0, got {tol!r}")


@dataclass
class MpleConfig:
    M: float                   # the budget ||A_beta||_inf <= M
    max_programs: int = DEFAULT_MAX_PROGRAMS  # cap on fit's quadratic programs
    grad_tol: float = 0.0      # KKT residual target; 0 runs to the floating-point optimum

    def __post_init__(self):
        check_budget(self.M)
        check_tolerance("grad_tol", self.grad_tol)

    def resolve(self, n, k):  # kept for perfbench/tracing.py, which unpacks (_, cap, _)
        return None, self.max_programs, None


@dataclass
class EstimationResult:
    beta_hat: np.ndarray
    objective_trace: np.ndarray  # psi at beta = 0 and at every Newton iterate
    psi_hat: float               # objective_trace[-1]
    inf_norm_hat: float          # ||A_beta_hat||_inf
    iterations: int              # quadratic programs solved (steps and cut batches)
    stop_reason: str = ""        # "kkt", "stalled" or "iter_cap"
    kkt_residual: float = math.nan
    budget_active: bool = False  # inf_norm_hat within relative 1e-9 of M


# relative to M: cuts this close to M are tight at beta, and trial points
# at most this far above M are scaled onto the budget instead of cut off
_BALL_RTOL = 1e-9
_ARMIJO = 1e-4
_HALVINGS = 60
# _nnls's entering tolerance on w_j, relative to ||c_j|| times the scale
# ||g|| + sum_i mu_i ||c_i|| of the residual it is computed from
_NNLS_RTOL = 2.0 ** -44


def _kkt_residual(g, C):
    """min over mu >= 0 of ||g + C' mu||: how far -g is from the cone of
    the rows of C (the norm of g when C has no rows)."""
    return float(np.linalg.norm(g + _nnls(C, g) @ C))


def _nnls(C, g):
    """A minimizer mu >= 0 of ||g + C' mu||, the projection of -g onto the
    cone of the rows of C, by Lawson and Hanson's active-set method
    (Solving Least Squares Problems, 1974, ch. 23).

    mu = 0 when q = Cg >= 0, and -q / ||c||^2 for a single row c with
    q < 0.  Otherwise the method starts warm, as the fast NNLS of Bro and
    De Jong (J. Chemometrics, 1997) and Van Benthem and Keenan (ibid.,
    2004) do: on the rows that g breaks, P = {j : q_j < 0}, it takes the
    least squares s = argmin ||g + C_P' s||, and while some s_i <= 0 (and
    two or more rows remain) it drops those rows and solves again.  The
    positive point it reaches is kept if it lowers the residual.  For
    fit's step these rows are the cuts that the Newton step breaks, and
    for its certificate the tight cuts that oppose the gradient; they are
    usually the answer, which then costs one least squares instead of one
    per cut.  From there, or from mu = 0, each outer step moves into the
    passive set P the cut j with the largest w_j = -c_j'(g + C' mu) above
    its rounding scale _NNLS_RTOL ||c_j|| (||g|| + sum_i mu_i ||c_i||)
    and takes the least squares s on P (minimum norm, so cuts in P may be
    dependent; -c'g / ||c||^2 when P is one cut c); while some s_i < 0 it
    steps from mu towards s until a coordinate of P reaches 0 and drops it
    (at least the first one, so each inner step shrinks P).  The loop
    needs only a start mu >= 0, and the warm point is one.  A new point,
    the warm one included, is kept only if it lowers the residual in
    floating point; the point is a function of P, so no P repeats and the
    method stops:
    with the KKT conditions of the projection holding to rounding (no w_j
    above its tolerance), or where rounding keeps a step from lowering the
    residual.  By Caratheodory's theorem for cones the projection is
    reached on independent cuts; a cut in the span of P has w_j = 0 up to
    rounding and stays out, so p > k cuts, duplicated or dependent, need
    no special case."""
    q = C @ g
    mu = np.zeros(len(q))
    if not len(q) or q.min() >= 0.0:
        return mu
    if len(q) == 1:
        mu[0] = -q[0] / (C[0] @ C[0])
        return mu
    norms = np.sqrt((C * C).sum(axis=1))
    gnorm = math.sqrt(g @ g)
    passive = []
    value = gnorm * gnorm  # ||g + C' mu||^2
    w = -q
    P = np.flatnonzero(q < 0.0).tolist()
    while len(P) > 1:
        s = np.linalg.lstsq(C[P].T, -g, rcond=None)[0]
        if s.min() > 0.0:
            trial = np.zeros(len(q))
            trial[P] = s
            r = g + trial @ C
            trial_value = float(r @ r)
            if trial_value < value:
                mu, passive, value, w = trial, P, trial_value, -(C @ r)
            break
        P = [i for i, si in zip(P, s.tolist()) if si > 0.0]
    while True:
        room = w - _NNLS_RTOL * norms * (gnorm + norms @ mu)
        room[passive] = -1.0
        j = int(np.argmax(room))
        if not room[j] > 0.0:
            return mu
        P = passive + [j]
        m = mu[P]
        while True:
            if len(P) == 1:
                c = C[P[0]]
                s = np.array([-(c @ g) / (c @ c)])
            else:
                s = np.linalg.lstsq(C[P].T, -g, rcond=None)[0]
            if s.min() >= 0.0:
                break
            neg = np.flatnonzero(s < 0.0)
            ratios = m[neg] / (m[neg] - s[neg])
            first = int(np.argmin(ratios))
            m = m + ratios[first] * (s - m)
            keep = m > 0.0
            keep[neg[first]] = False
            P = [i for i, kept in zip(P, keep.tolist()) if kept]
            m = m[keep]
            if not P:
                return mu
        trial = np.zeros(len(q))
        trial[P] = s
        r = g + trial @ C
        trial_value = float(r @ r)
        if not trial_value < value:
            return mu
        mu, passive, value = trial, P, trial_value
        w = -(C @ r)


# eigenvalues of the Newton Hessian are raised to this fraction of the
# largest; the floor moves a step on a singular Hessian by about its own
# size, and at 1e-12 the rounding it amplifies broke cuts on such programs
_EIG_FLOOR = 1e-10


def _whitening(H):
    """W = V diag(max(lam, _EIG_FLOOR lam_max))^-1/2 from H = V diag(lam) V',
    so W W' ~ H^-1, and W = 0 for a zero H (every sech^2 of the fields
    underflowed), which gives no step.  Hv = 0 gives Bx'v = 0, so fit's
    gradient is orthogonal to the null space of H and the floor leaves the
    minimum-norm step there; fit stops on the KKT residual of the true
    problem, so the floor only shapes the step."""
    lam, V = np.linalg.eigh(H)
    if not lam[-1] > 0.0:
        return np.zeros_like(H)
    return V / np.sqrt(np.maximum(lam, _EIG_FLOOR * lam[-1]))


def _newton_step(W, g, C, slack):
    """argmin 1/2 d'Hd + g'd subject to C d <= max(slack, 0), given the
    whitening W = _whitening(H), by Lawson and Hanson's reduction to a
    least-distance program (ch. 23) and one _nnls.

    d = W(z - a) with a = W'g turns the program into min ||z|| subject to
    E z <= b, E = C W, b = max(slack, 0) + E a.  z = 0 (the Newton step
    -W a) when b >= 0; otherwise z = s r[:k] / ||r||^2 with r the residual
    of the NNLS over the rows [-E_i, -b_i / s] towards -e_(k+1).  The unit
    s = sqrt(max_i(-b_i / ||E_i||) ||a||) lies between bounds on ||z||, so
    ||z|| / s is neither too small for the NNLS to see nor so large that
    r cancels.  z - a cancels when d is short against the Newton step, so
    one least-squares correction puts d back on the cuts with mu_i > 0."""
    a = g @ W
    if len(C):
        E = C @ W
        h = np.maximum(slack, 0.0)
        b = h + E @ a
        out = b < 0.0
        if out.any():
            s = math.sqrt(np.max(-b[out] / np.sqrt((E[out] ** 2).sum(axis=1)))
                          * math.sqrt(a @ a))
            rows = -np.column_stack([E, b / s])
            target = np.zeros(len(a) + 1)
            target[-1] = -1.0
            mu = _nnls(rows, target)
            r = target + mu @ rows
            d = W @ (s * r[:-1] / (r @ r) - a)
            P = mu > 0.0
            return d - W @ np.linalg.lstsq(E[P], C[P] @ d - h[P], rcond=None)[0]
    return -(W @ a)


def fit(basis, x, cfg):
    """The budgeted maximum pseudo-likelihood estimate: argmin psi(beta)
    subject to ||A_beta||_inf <= M, by a damped Newton method from the
    feasible beta = 0.

    With f = beta @ Bx (Bx = (A_i x)_i formed once), each step solves the
    Newton program min_d 1/2 d'Hd + g'd, with g the gradient kernel and
    H = curvature_at_fields(Bx, f) (k x k), subject to the cuts
    c'(beta + d) <= M found so far (``_newton_step``: at most one NNLS,
    on the whitening of H, one eigh per iterate), then backtracks (Armijo)
    on psi.  A trial point beta + d outside the budget adds cuts
    (``_new_cuts``) and the program is solved again from the same beta,
    with the same whitening: the cut c = infnorm_subgradient at that
    point, through the row with the largest absolute sum, then, most
    violated first, the signed sum of every other row above
    M (1 + 1e-9) whose support in beta is disjoint from the cuts chosen
    before it.  On matchings and blocks each row touches one member, so
    one program cuts every member that the point breaks; an Erdos-Renyi
    row touches every member, so there the first cut is the only one
    chosen.
    Each row's signed sum is a subgradient of a norm, so
    c'beta' <= ||A_beta'||_inf for every beta': each cut holds on the
    whole budget, the iterates never leave it and psi never increases.
    A trial point within relative 1e-9 above M is scaled onto the budget
    instead, and a cut is never added twice; when every chosen cut is
    already there, the point is scaled onto the budget too.

    ``kkt_residual`` is min over mu >= 0 of ||g + sum_i mu_i c_i|| over the
    cuts tight at beta, the NNLS projection ``_kkt_residual``; it is
    solved again only when beta or the set of tight cuts changes.  Tight
    cuts are subgradients of the budget, so by convexity
    psi(beta) - min psi <= kkt_residual * ||beta - beta*|| (up to
    sum_i mu_i times the 1e-9 M tightness tolerance), and
    ||beta||_2 = ||A_beta||_F <= sqrt(n) M on the budget.  The stop is
    judged on this residual of the true problem, whatever the step's
    eigenvalue floor did.  ``stop_reason`` is "kkt" once the residual is
    <= cfg.grad_tol (with grad_tol = 0: once no step decreases psi in
    floating point), "stalled" when no step decreases psi while the
    residual is still above grad_tol > 0, and "iter_cap" after
    cfg.max_programs programs.  ``iterations`` counts these programs, one
    per Newton step and one per batch of cuts, whatever its size.

    ``psi_hat`` is psi at the last iterate, ``objective_trace[-1]``, and
    ``inf_norm_hat`` is ||A_beta_hat||_inf from the edge row sums that the
    cuts use, so fit forms no n x n matrix.
    """
    x = check_spins(x, basis.n)
    M = float(cfg.M)
    Bx = basis.fields(x)

    beta = np.zeros(basis.k)
    f = beta @ Bx
    value = value_at_fields(f, x)
    cuts = np.zeros((0, basis.k))
    trace = [value]
    stop_reason = "iter_cap"
    it = 0
    g = gradient_at_fields(Bx, f, x)
    W = _whitening(curvature_at_fields(Bx, f))
    certified = None  # the tight cuts that residual was computed over, at beta
    bound = M * (1.0 + _BALL_RTOL)  # a row above it is violated
    while True:
        slack = M - cuts @ beta
        tight = np.flatnonzero(slack <= _BALL_RTOL * M)
        # a cut added at the same beta changes the certificate only if it
        # is tight there
        if certified is None or not np.array_equal(tight, certified):
            residual = _kkt_residual(g, cuts[tight])
            certified = tight
        if residual <= cfg.grad_tol:
            stop_reason = "kkt"
            break
        if it >= cfg.max_programs:
            break
        it += 1
        d = _newton_step(W, g, cuts, slack)
        trial = beta + d
        u = basis.coef @ trial
        row_sums = basis.row_abs_sums(u)
        peak = float(row_sums.max())
        if peak > bound:
            new = _new_cuts(basis, u, row_sums, bound, cuts)
            if new:
                cuts = np.vstack([cuts, *new])
                continue
        if peak > M:
            d = trial * (M / peak) - beta
        step = _armijo(Bx, x, beta, value, g @ d, d)
        if step is None:
            stop_reason = "kkt" if cfg.grad_tol == 0 else "stalled"
            break
        beta, f, value = step
        g, W = gradient_at_fields(Bx, f, x), _whitening(curvature_at_fields(Bx, f))
        certified = None
        trace.append(value)

    inf_hat = float(basis.row_abs_sums(basis.coef @ beta).max())
    if inf_hat > bound:
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
