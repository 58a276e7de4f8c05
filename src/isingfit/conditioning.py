"""Randomized subset covers that make each conditional model weakly
dependent.

A cover is a family I_1..I_ell of subsets of [n] such that every
coordinate lies in exactly ceil(eta' * ell / 8) sets (eta' = eta / M) and
the within-set absolute row sums of J never exceed eta.  Conditioning on
the spins outside any I_j then yields a model with infinity norm at most
eta, i.e. high-temperature when eta < 1.

A cover is stored once, as its (ell, n) CSR membership matrix: row j holds
the sorted coordinates of I_j.  One kernel, :func:`_within_set_sums`,
gives the within-set row sums at every membership; ``build_cover`` prunes
with it and ``verify_cover`` checks the bound with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

from .core import infinity_norm, validate_interaction
from .errors import DimensionMismatch, InvalidEta, NegativeWeight, RetryExhausted
from .sampler import make_rng


@dataclass(frozen=True)
class SubsetCover:
    members: sparse.csr_array  # (ell, n) 0/1 membership; row j is I_j
    eta: float                 # target conditional infinity norm
    M: float                   # infinity norm of the source matrix
    target_count: int          # exact per-coordinate membership count
    attempts: int

    @property
    def ell(self):
        return self.members.shape[0]

    @property
    def sets(self):
        """The ell sorted index arrays, as read-only views of ``members``."""
        indices = self.members.indices.view()
        indices.flags.writeable = False
        return np.split(indices, self.members.indptr[1:-1])


def _members(rows, cols, ell, n):
    """CSR membership matrix from memberships in row-major order."""
    # imported here, not at module level: only covers need scipy.sparse, and
    # loading it costs every other ``import isingfit`` ~20 ms and ~1.5 MB
    from scipy import sparse

    indptr = np.zeros(ell + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=ell), out=indptr[1:])
    return sparse.csr_array((np.ones(len(cols)), cols, indptr), shape=(ell, n))


def _within_set_sums(members, W):
    """Every membership (row j, col i) in row-major order, with
    sum_{l in I_j} W[i, l] for a symmetric W: one sparse product, gathered
    at the members."""
    rows = np.repeat(np.arange(members.shape[0]), np.diff(members.indptr))
    cols = members.indices
    return rows, cols, (members @ W)[rows, cols]


def cover_size(n, eta_prime):
    """ell = ceil(32 log4 log n / eta'^2); at least 1."""
    if n <= 1:
        return 1
    return max(1, math.ceil(32.0 * math.log(4.0) * math.log(n) / eta_prime ** 2))


def build_cover(J, eta, rng=None, max_retries=64, seed=0):
    """Draw a cover by the probabilistic construction.

    Each candidate set takes coordinates independently with probability
    eta'/2, prunes coordinates whose within-set row sum of |J|/M exceeds
    eta', and the whole family is redrawn until every coordinate is in at
    least target_count sets, then trimmed (from the lowest-index sets) to
    exact counts.
    """
    J = validate_interaction(J)
    n = J.shape[0]
    M = infinity_norm(J)
    if M <= 0:
        # no interactions: a single full set covers everything with eta 0
        full = _members(np.zeros(n, dtype=np.intp), np.arange(n), 1, n)
        return SubsetCover(full, eta, 0.0, 1, 0)
    if not 0 < eta <= M:
        raise InvalidEta(f"need 0 < eta <= M={M:g}, got {eta:g}")
    if rng is None:
        rng = make_rng(seed)
    eta_prime = eta / M
    ell = cover_size(n, eta_prime)
    target = math.ceil(eta_prime * ell / 8.0)
    R = np.abs(J) / M  # normalized row weights
    for attempt in range(1, max_retries + 1):
        rows, cols = np.divmod(np.flatnonzero(rng.random((ell, n)) < eta_prime / 2.0), n)
        _, _, S = _within_set_sums(_members(rows, cols, ell, n), R)
        keep = S <= eta_prime
        rows, cols = rows[keep], cols[keep]
        counts = np.bincount(cols, minlength=n)
        if np.all(counts >= target):
            # drop each over-covered coordinate from its lowest-index sets:
            # rank each membership among its column's, in set order
            order = np.argsort(cols, kind="stable")
            rank = np.empty_like(order)
            rank[order] = np.arange(len(cols)) - np.repeat(np.cumsum(counts) - counts, counts)
            keep = rank >= (counts - target)[cols]
            members = _members(rows[keep], cols[keep], ell, n)
            return SubsetCover(members, eta, M, target, attempt)
    raise RetryExhausted(f"no valid cover after {max_retries} redraws")


@dataclass
class CoverReport:
    ok: bool
    count_violations: list       # coordinates with wrong membership count
    worst_row_sum: float         # max within-set sum of |J|
    row_sum_violations: list     # (set, coordinate) pairs exceeding eta


def verify_cover(J, cover):
    """Check membership counts and the within-set row sums of |J| against
    eta, which bounds every conditional infinity norm."""
    J = validate_interaction(J)
    n = J.shape[0]
    rows, cols, sums = _within_set_sums(cover.members, np.abs(J))
    counts = np.bincount(cols, minlength=n)
    count_viol = np.flatnonzero(counts != cover.target_count).tolist()
    worst = float(sums.max()) if sums.size else 0.0
    bad = sums > cover.eta + 1e-12
    row_viol = list(zip(rows[bad].tolist(), cols[bad].tolist()))
    ok = not count_viol and not row_viol
    return CoverReport(ok, count_viol, worst, row_viol)


def best_subset_for_weights(cover, theta):
    """Set with the largest theta-mass; guaranteed eta/(8M) of the total."""
    theta = np.asarray(theta, dtype=np.float64)
    n = cover.members.shape[1]
    if theta.shape != (n,):
        raise DimensionMismatch(f"theta has shape {theta.shape}, cover is over {n} coordinates")
    if np.any(theta < 0):
        raise NegativeWeight("weights must be nonnegative")
    masses = cover.members @ theta
    j = int(np.argmax(masses))
    return j, float(masses[j])
