"""Randomized subset covers that make each conditional model weakly
dependent.

A cover is a family I_1..I_ell of subsets of [n] such that every
coordinate lies in exactly ceil(eta' * ell / 8) sets (eta' = eta / M) and
the within-set absolute row sums of J never exceed eta.  Conditioning on
the spins outside any I_j then yields a model with infinity norm at most
eta, i.e. high-temperature when eta < 1.

A cover is stored once, as numpy CSR arrays: ``indices`` holds the sorted
coordinates of I_1, then of I_2, and so on, and I_j is
``indices[indptr[j]:indptr[j + 1]]``.  One kernel, :func:`_set_sums`, adds
over the members of each set; ``build_cover`` prunes and ``verify_cover``
checks the bound with its within-set row sums, and
``best_subset_for_weights`` ranks the sets by its masses.  The package
needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import infinity_norm, validate_interaction
from .errors import DimensionMismatch, InvalidEta, NegativeWeight, NonFinite, RetryExhausted
from .sampler import make_rng

# sets are padded to a multiple of _PAD members, so the kernel makes one
# pass per padded size instead of one per size; each pass works on at most
# about _BLOCK entries, so its temporaries stay small and in cache
_PAD = 8
_BLOCK = 16384


@dataclass(frozen=True)
class SubsetCover:
    indptr: np.ndarray   # (ell + 1,) offsets: I_j is indices[indptr[j]:indptr[j + 1]]
    indices: np.ndarray  # the sets' sorted coordinates, set after set
    n: int               # number of coordinates
    eta: float           # target conditional infinity norm
    M: float             # infinity norm of the source matrix
    target_count: int    # exact per-coordinate membership count
    attempts: int

    @property
    def ell(self):
        return len(self.indptr) - 1

    @property
    def sets(self):
        """The ell sorted index arrays, as read-only views of ``indices``."""
        indices = self.indices.view()
        indices.flags.writeable = False
        return np.split(indices, self.indptr[1:-1])


def _indptr(rows, ell):
    """CSR offsets of memberships whose set indices ``rows`` are sorted."""
    indptr = np.zeros(ell + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=ell), out=indptr[1:])
    return indptr


def _set_sums(indptr, indices, V):
    """Sums over the members l of each set I_j, in ascending l, added one
    after another to 0.0: the terms and order of scipy's CSR product with
    unit weights, so the bits are its bits.

    For V of shape (n,), returns each set's mass sum_{l in I_j} V[l].  For
    V of shape (n, n), returns sum_{l in I_j} V[l, c] at every member c of
    I_j, in the order of ``indices``.  Every entry of V must be >= 0.

    Sets are grouped by size rounded up to a multiple of ``_PAD``, and
    padded with the sentinel coordinate n, whose row and column of V are
    +0.0; as every term is >= 0, adding +0.0 leaves each sum's bits alone.
    Each group makes one sequential pass per position, gathering only the
    entries inside its sets: sum_j |I_j|^2 additions, not the product's
    sum_j |I_j| * n.  The passes are explicit because ``np.sum`` along a
    contiguous axis sums pairwise, and ``reduceat`` and BLAS also change
    the order.
    """
    n = V.shape[0]
    per_member = V.ndim == 2
    # a zero row for the sentinel, and for an (n, n) V a zero column
    Vf = np.pad(V if per_member else V[:, None], ((0, 1), (0, int(per_member))))
    stride = Vf.shape[1]
    Vf = Vf.ravel()
    sizes = np.diff(indptr)
    out = np.empty(len(indices)) if per_member else np.zeros(len(sizes))
    padded = -(-sizes // _PAD) * _PAD
    for width in np.unique(padded[padded > 0]).tolist():
        group = np.flatnonzero(padded == width)
        entries = len(group) * (width if per_member else 1)  # per pass
        for js in np.array_split(group, -(-entries // _BLOCK)):
            valid = np.arange(width) < sizes[js, None]
            pos = (indptr[js, None] + np.arange(width))[valid]
            idx = np.full((len(js), width), n)
            idx[valid] = indices[pos]
            rows = idx * stride
            cols = idx if per_member else np.zeros((1, 1), dtype=np.intp)
            acc = np.zeros((len(js), cols.shape[1]))
            for p in range(width):
                acc += Vf.take(rows[:, p:p + 1] + cols)
            if per_member:
                out[pos] = acc[valid]
            else:
                out[js] = acc[:, 0]
    return out


def cover_size(n, eta_prime):
    """ell = ceil(32 log4 log n / eta'^2); at least 1."""
    if n <= 1:
        return 1
    return max(1, math.ceil(32.0 * math.log(4.0) * math.log(n) / eta_prime ** 2))


def build_cover(J, eta, rng=None, max_retries=64):
    """Draw a cover by the probabilistic construction.

    Each candidate set takes coordinates independently with probability
    eta'/2, prunes coordinates whose within-set row sum of |J|/M exceeds
    eta', and the whole family is redrawn until every coordinate is in at
    least target_count sets, then trimmed (from the lowest-index sets) to
    exact counts.  The draws come from ``rng``, by default ``make_rng(0)``.
    """
    J = validate_interaction(J)
    n = J.shape[0]
    M = infinity_norm(J)
    if M <= 0:
        # no interactions: a single full set covers everything with eta 0
        return SubsetCover(np.array([0, n]), np.arange(n), n, eta, 0.0, 1, 0)
    if not 0 < eta <= M:
        raise InvalidEta(f"need 0 < eta <= M={M:g}, got {eta:g}")
    if rng is None:
        rng = make_rng(0)
    eta_prime = eta / M
    ell = cover_size(n, eta_prime)
    target = math.ceil(eta_prime * ell / 8.0)
    R = np.abs(J) / M  # normalized row weights
    for attempt in range(1, max_retries + 1):
        rows, cols = np.divmod(np.flatnonzero(rng.random((ell, n)) < eta_prime / 2.0), n)
        keep = _set_sums(_indptr(rows, ell), cols, R) <= eta_prime
        rows, cols = rows[keep], cols[keep]
        counts = np.bincount(cols, minlength=n)
        if np.all(counts >= target):
            # drop each over-covered coordinate from its lowest-index sets:
            # rank each membership among its column's, in set order; the
            # stable sort of the smallest type that holds every coordinate is
            # a radix sort up to 16 bits, with the order of the int64 sort
            order = np.argsort(cols.astype(np.min_scalar_type(n - 1)), kind="stable")
            rank = np.empty_like(order)
            rank[order] = np.arange(len(cols)) - np.repeat(np.cumsum(counts) - counts, counts)
            keep = rank >= (counts - target)[cols]
            return SubsetCover(_indptr(rows[keep], ell), cols[keep], n, eta, M, target,
                               attempt)
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
    n = cover.n
    if J.shape != (n, n):
        raise DimensionMismatch(f"J has shape {J.shape}, cover is over {n} coordinates")
    cols = cover.indices
    rows = np.repeat(np.arange(cover.ell), np.diff(cover.indptr))
    sums = _set_sums(cover.indptr, cols, np.abs(J))
    counts = np.bincount(cols, minlength=n)
    count_viol = np.flatnonzero(counts != cover.target_count).tolist()
    worst = float(sums.max()) if sums.size else 0.0
    bad = sums > cover.eta + 1e-12
    row_viol = list(zip(rows[bad].tolist(), cols[bad].tolist()))
    ok = not count_viol and not row_viol
    return CoverReport(ok, count_viol, worst, row_viol)


def best_subset_for_weights(cover, theta):
    """Set with the largest theta-mass; guaranteed eta/(8M) of the total
    for a finite theta >= 0 (NonFinite and NegativeWeight otherwise)."""
    theta = np.asarray(theta, dtype=np.float64)
    n = cover.n
    if theta.shape != (n,):
        raise DimensionMismatch(f"theta has shape {theta.shape}, cover is over {n} coordinates")
    if not np.isfinite(theta).all():
        raise NonFinite("weights must be finite")
    if np.any(theta < 0):
        raise NegativeWeight("weights must be nonnegative")
    masses = _set_sums(cover.indptr, cover.indices, theta)
    j = int(np.argmax(masses))
    return j, float(masses[j])
