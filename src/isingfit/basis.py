"""Trace-orthonormal bases for spans of interaction matrices.

The span of raw matrices J_1..J_k is equipped with the inner product
<A, B> = sum_ij A_ij B_ij, and parameter vectors live in coordinates of
the orthonormalized basis A_1..A_k'.  A ``MatrixBasis`` is that basis in
edge coordinates and nothing else: the values ``coef`` of A_1..A_k' on
the union of the raw matrices' strictly-upper supports (``rows``,
``cols``), where <A, B> = 2 a.b for the edge values a, b.
``gram_schmidt_edges`` takes the raw family as edge lists;
``gram_schmidt`` reads each dense raw matrix once, through its support,
keeps none of them and hands the edges to it.  ``project`` gathers from
J on the edges.  ``ortho`` and ``stacked()`` are dense n x n views
scattered from the edges, for callers that need them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import interaction_edges, trace_inner
from .errors import (
    AllDegenerate,
    LengthMismatch,
    ShapeMismatch,
)


@dataclass(frozen=True, eq=False)
class MatrixBasis:
    """An orthonormal basis A_1..A_k' of a span, stored in edge coordinates.

    Edge e is the pair (rows[e], cols[e]) with rows[e] < cols[e], in
    row-major order, and ``coef[e, s]`` is A_s at that pair, so the upper
    entries of sum_s beta_s A_s are ``coef @ beta``.

    The basis is a function of the raw family alone, so callers may share
    one object: ``run_trial`` reuses it across the trials of a family that
    no draw shapes.  Its arrays are read-only, and writing into them
    raises ``ValueError``.  ``row_abs_sums`` and ``fields`` sum by
    ``np.bincount``, which copies an index array that is not writeable.
    They read a private, writeable copy of the indices (``_flat``), made
    once per basis and kept out of ``repr``.  Two bases are ``==`` only
    when they are the same object, and a basis hashes by identity, so
    neither compares or hashes its arrays.
    """

    n: int
    rows: np.ndarray     # (m,)
    cols: np.ndarray     # (m,)
    coef: np.ndarray     # (m, k)

    @property
    def k(self):
        return self.coef.shape[1]

    @functools.cached_property
    def _flat(self):
        """(s n + rows, s n + cols) for s = 0..k-1 as flat writeable intp
        arrays, and the contiguous coef' (k, m) that they index; the first
        m entries of each index are rows and cols themselves."""
        offsets = np.arange(self.k, dtype=np.intp)[:, None] * self.n
        return ((offsets + self.rows).ravel(), (offsets + self.cols).ravel(),
                np.ascontiguousarray(self.coef.T))

    def row_abs_sums(self, u):
        """sum_j |U_ij| for every node i, given the edge values u of U."""
        rows, cols, _ = self._flat
        m = self.rows.size
        a = np.abs(u)
        return np.bincount(rows[:m], a, self.n) + np.bincount(cols[:m], a, self.n)

    def fields(self, x):
        """Bx = (A_s x)_s, shape (k, n), in O(m k).

        One ``bincount`` pair over all k members: bin s n + i receives
        member s's terms at node i in edge order, as a per-member
        ``bincount`` would, so each entry has the same bits.
        """
        rows, cols, coef_t = self._flat
        k, n = coef_t.shape[0], self.n
        xr, xc = x[self.rows], x[self.cols]
        return (np.bincount(rows, (coef_t * xc).ravel(), k * n)
                + np.bincount(cols, (coef_t * xr).ravel(), k * n)).reshape(k, n)

    def stacked(self, values=None):
        """The (j, n, n) symmetric matrices whose strictly-upper entries on
        the edges are the columns of ``values`` (m, j), 0 elsewhere; by
        default ``coef``, the stack of A_1..A_k'."""
        values = self.coef if values is None else values
        out = np.zeros((values.shape[1], self.n, self.n))
        out[:, self.rows, self.cols] = values.T
        out[:, self.cols, self.rows] = values.T
        return out

    @property
    def ortho(self):
        """A_1..A_k' as dense n x n matrices."""
        return list(self.stacked())


_RANK_TOL = 1e-9  # relative residual below which a raw matrix is dependent


def gram_schmidt(raw):
    """Modified Gram-Schmidt under the trace inner product of dense raw
    matrices: each is validated on its own support
    (:func:`interaction_edges`), never copied densely, and its edges go to
    :func:`gram_schmidt_edges`."""
    if not raw:
        raise AllDegenerate("empty matrix family")
    mats = [np.asarray(J, dtype=np.float64) for J in raw]
    found = [interaction_edges(J) for J in mats]
    n = mats[0].shape[0]
    if any(J.shape != (n, n) for J in mats):
        raise ShapeMismatch("matrices in a family must share a dimension")
    return gram_schmidt_edges(n, *edge_union(n, found))


def edge_union(n, family):
    """The union of a family's edge lists and each member's values on it.

    ``family`` holds one ``(rows, cols, values)`` per member, as
    :func:`interaction_edges` returns them: strictly-upper pairs with
    nonzero values, each pair once.  Returns the union's ``rows`` and
    ``cols`` in row-major order and the (k, m) array whose row s is
    member s on the union (0 off its own edges).
    """
    # sort and drop repeats instead of np.unique, whose hash path (numpy
    # >= 2.3) took 6.6 ms against 0.43 ms on a 42 000-key union
    union = np.sort(np.concatenate([i * n + j for i, j, _ in family]))
    union = union[np.diff(union, prepend=-1) != 0]
    rows, cols = np.divmod(union, n)
    values = np.zeros((len(family), union.size))
    for s, (i, j, v) in enumerate(family):
        values[s, np.searchsorted(union, i * n + j)] = v
    return rows, cols, values


def gram_schmidt_edges(n, rows, cols, values):
    """Modified Gram-Schmidt under the trace inner product, on a family's
    values over its union strictly-upper edges (:func:`edge_union`), where
    <A, B> = 2 a.b.

    One re-orthogonalization pass is applied to each vector.  Inputs whose
    residual drops below 1e-9 times their original Frobenius norm are
    dropped (the basis then has fewer members than the family), not an
    error.  Each A_i is signed so that its first edge value above 1e-14 in
    magnitude is positive; edges where every A_i is 0 are left out.
    """
    ortho = []
    for v in values:
        scale = math.sqrt(2.0 * (v @ v))
        for _ in range(2):  # MGS + one re-orthogonalization pass
            for a in ortho:
                v = v - 2.0 * (v @ a) * a
        r = math.sqrt(2.0 * (v @ v))
        if scale == 0.0 or r <= _RANK_TOL * scale:
            continue
        v = v / r
        nz = np.flatnonzero(np.abs(v) > 1e-14)
        if nz.size and v[nz[0]] < 0:
            v = -v
        ortho.append(v)
    if not ortho:
        raise AllDegenerate("every input matrix is numerically zero")
    # the kept edges from the contiguous vectors, not a pass over (m, k) coef,
    # which stays C-ordered: an F-ordered coef changes the bits of coef @ beta
    keep = ortho[0] != 0.0
    for v in ortho[1:]:
        keep |= v != 0.0
    coef = np.stack(ortho, axis=1)
    if keep.all():
        basis = MatrixBasis(n, rows.copy(), cols.copy(), coef)
    else:
        basis = MatrixBasis(n, rows[keep], cols[keep], coef[keep])
    for a in (basis.rows, basis.cols, basis.coef):
        a.flags.writeable = False
    return basis


def combine(basis, beta):
    """sum_i beta_i A_i in the orthonormal basis."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (basis.k,):
        raise LengthMismatch(f"beta length {beta.shape} vs basis rank {basis.k}")
    J = np.tensordot(beta, basis.stacked(), axes=1)
    # symmetric & zero-diagonal by the basis invariant; re-zero for safety
    np.fill_diagonal(J, 0.0)
    return 0.5 * (J + J.T)


def project(basis, J):
    """Coordinates of J on the span plus the orthogonal residual norm.

    beta_s = <J, A_s> is gathered from J's entries on the basis edges; the
    residual is J with those entries less sum_s beta_s A_s.
    """
    J = np.asarray(J, dtype=np.float64)
    if J.shape != (basis.n, basis.n):
        raise ShapeMismatch(f"matrix shape {J.shape} vs basis dimension {basis.n}")
    rows, cols, coef = basis.rows, basis.cols, basis.coef
    beta = coef.T @ (J[rows, cols] + J[cols, rows])
    u = coef @ beta
    R = J.copy()
    R[rows, cols] -= u
    R[cols, rows] -= u
    np.square(R, out=R)  # the Frobenius norm without a second n x n array
    return beta, float(np.sqrt(np.sum(R)))


def gram_matrix(mats):
    k = len(mats)
    G = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            G[i, j] = G[j, i] = trace_inner(mats[i], mats[j])
    return G


def min_singular_value(raw):
    """Smallest singular value of beta -> sum_i beta_i J_i.

    Computed as the square root of the smallest eigenvalue of the k x k
    Gram matrix; 0 for rank-deficient families.
    """
    G = gram_matrix([np.asarray(J, dtype=np.float64) for J in raw])
    ev = np.linalg.eigvalsh(G)
    return float(np.sqrt(max(ev[0], 0.0)))

