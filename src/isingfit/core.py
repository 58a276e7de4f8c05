"""Core Ising-model data types and elementary operations.

Interaction matrices are dense, symmetric, zero-diagonal float64 arrays.
Symmetry, diagonal and finiteness are enforced once at construction; all
downstream code assumes a validated matrix.  ``interaction_edges`` applies
the same checks on a matrix's support and returns its edges instead, and
``IsingSpec.from_edges`` builds a model from such edges, checking them in
O(m) instead of its dense J.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetryError,
    DiagonalError,
    DimensionMismatch,
    IndexOutOfRange,
    LengthMismatch,
    NonFinite,
    UnsortedEdges,
)


def _as_square(J):
    J = np.asarray(J, dtype=np.float64)
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {J.shape}")
    return J


_SYM_TOL = 1e-12  # asymmetry and diagonal averaged or zeroed away


_NON_FINITE = "interaction matrix has a NaN or infinite entry"


def _check_interaction(asym, diag):
    """Raise on the worst |J_ij - J_ji| and |J_ii| of a square matrix.

    Every non-finite entry makes its own J_ij - J_ji non-finite, so a
    non-finite ``asym`` means the matrix has a NaN or infinite entry.
    """
    if not math.isfinite(asym):
        raise NonFinite(_NON_FINITE)
    if asym > _SYM_TOL:
        raise AsymmetryError(f"max |J_ij - J_ji| = {asym:g} exceeds tol {_SYM_TOL:g}")
    if diag > _SYM_TOL:
        raise DiagonalError(f"max |J_ii| = {diag:g} exceeds tol {_SYM_TOL:g}")


def validate_interaction(J):
    """Validate and canonicalize an interaction matrix.

    Small asymmetries (at most 1e-12) are averaged out; diagonal entries
    at most 1e-12 in magnitude are zeroed.  Anything larger, and any NaN
    or infinite entry, raises.
    """
    J = _as_square(J)
    with np.errstate(invalid="ignore"):  # inf - inf; reported as NonFinite
        asym = np.max(np.abs(J - J.T)) if J.size else 0.0
    d = np.max(np.abs(np.diag(J))) if J.size else 0.0
    _check_interaction(asym, d)
    out = 0.5 * (J + J.T)
    np.fill_diagonal(out, 0.0)
    out.flags.writeable = False
    return out


def interaction_edges(J):
    """Validate an interaction matrix on its support and return its edges.

    Applies the rules, errors and messages of :func:`validate_interaction`
    but reads J only through one ``J != 0`` scan and gathers on that
    support.  Returns ``(rows, cols, values)``: the nonzero strictly-upper
    entries of ``validate_interaction(J)``, in row-major order.

    The scan yields each nonzero upper entry once, already in row-major
    order; a lower entry adds its pair only when the upper mirror is 0
    (possible within 1e-12 asymmetry), and one stable sort puts those few
    in place.  Each value is 0.5 * (J_ij + J_ji) from the two gathers the
    validation makes, so no pair is deduplicated or gathered again.
    """
    J = _as_square(J)
    n = J.shape[0]
    flat = np.flatnonzero(J != 0.0)  # flat: faster than np.nonzero(J)
    r, c = np.divmod(flat, n)
    v, t = J[r, c], J[c, r]
    with np.errstate(invalid="ignore"):
        asym = np.max(np.abs(v - t)) if v.size else 0.0
    on_diag = r == c
    d = np.max(np.abs(v[on_diag])) if on_diag.any() else 0.0
    _check_interaction(asym, d)
    lower_only = (r > c) & (t == 0.0)
    pick = (r < c) | lower_only
    # No np.unique: on numpy >= 2.3 it hashes, then sorts (0.9 ms for the
    # 10 400 keys of an n = 1024 input, which a plain sort orders in 0.13 ms).
    keys = np.where(lower_only, c * n + r, flat)[pick]
    order = np.argsort(keys, kind="stable")
    rows, cols = np.divmod(keys[order], n)
    values = (0.5 * (v + t))[pick][order]
    keep = values != 0.0
    return rows[keep], cols[keep], values[keep]


def infinity_norm(J):
    """Maximum absolute row sum."""
    J = np.asarray(J, dtype=np.float64)
    if J.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(J), axis=1)))


def frobenius_norm(J):
    return float(np.sqrt(np.sum(np.asarray(J, dtype=np.float64) ** 2)))


def trace_inner(A, B):
    """Entrywise inner product sum_ij A_ij B_ij."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    return float(np.sum(A * B))


@dataclass(frozen=True)
class IsingSpec:
    """A pairwise model over {-1,+1}^n: density proportional to
    exp(x'Jx/2 + h'x).  It holds J and h only: no norm is cached.

    The constructor validates the dense J (:func:`validate_interaction`);
    :meth:`from_edges` builds a zero-field model from its strictly-upper
    edges and checks only those.  Either way J and h are read-only.
    """

    J: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        J = validate_interaction(self.J)
        h = np.asarray(self.h, dtype=np.float64)
        if h.shape != (J.shape[0],):
            raise DimensionMismatch(
                f"field length {h.shape} does not match n={J.shape[0]}"
            )
        if not np.all(np.isfinite(h)):
            raise NonFinite("external field must be finite")
        h = h.copy()
        h.flags.writeable = False
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "h", h)

    @property
    def n(self):
        return self.J.shape[0]

    @classmethod
    def zero_field(cls, J):
        J = np.asarray(J, dtype=np.float64)
        return cls(J, np.zeros(J.shape[0]))

    @classmethod
    def from_edges(cls, n, rows, cols, values):
        """The zero-field model whose J is ``values`` at the pairs
        (rows, cols) and their mirrors, and 0 elsewhere.

        The edges are checked in O(m) in place of the dense validation:
        values finite (``NonFinite``), 0 <= rows < cols < n
        (``IndexOutOfRange``) and pairs strictly increasing in row-major
        order (``UnsortedEdges``), so J is symmetric with a zero diagonal
        by construction.  J is then scattered once; J and h equal those of
        ``zero_field`` on that scatter bit for bit (whenever 2 |values| is
        finite, as ``zero_field`` averages J with its transpose).
        """
        n = int(n)
        rows, cols = np.asarray(rows), np.asarray(cols)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or not rows.shape == cols.shape == values.shape:
            raise LengthMismatch(f"edge arrays of shapes {rows.shape}, "
                                 f"{cols.shape} and {values.shape}")
        if not np.isfinite(values).all():
            raise NonFinite(_NON_FINITE)
        bad = (rows < 0) | (rows >= cols) | (cols >= n)
        if bad.any():
            e = int(np.argmax(bad))
            raise IndexOutOfRange(f"edge ({rows[e]}, {cols[e]}) is not in "
                                  f"0 <= row < col < {n}")
        keys = rows * n + cols
        if not (keys[1:] > keys[:-1]).all():
            e = int(np.argmax(keys[1:] <= keys[:-1])) + 1
            raise UnsortedEdges(f"edge ({rows[e]}, {cols[e]}) does not follow "
                                f"({rows[e - 1]}, {cols[e - 1]}) in row-major order")
        J = np.zeros((n, n))
        J[rows, cols] = values
        J[cols, rows] = values
        h = np.zeros(n)
        J.flags.writeable = h.flags.writeable = False
        spec = object.__new__(cls)
        object.__setattr__(spec, "J", J)
        object.__setattr__(spec, "h", h)
        return spec


def check_spins(x, n=None):
    x = np.asarray(x)
    if not np.all(np.abs(x) == 1):
        raise ValueError("spin entries must be exactly +1 or -1")
    if n is not None and x.shape != (n,):
        raise DimensionMismatch(f"spin vector shape {x.shape}, expected ({n},)")
    return x.astype(np.float64)


def local_field(spec, x, i):
    """sum_j J_ij x_j + h_i (the diagonal is zero, so x_i drops out)."""
    if not 0 <= i < spec.n:
        raise IndexOutOfRange(f"site {i} outside [0, {spec.n})")
    x = np.asarray(x, dtype=np.float64)
    return float(spec.J[i] @ x + spec.h[i])


def conditional_prob_plus(spec, x, i):
    """Pr[x_i = +1 | x_{-i}] = (1 + tanh(local field)) / 2."""
    return 0.5 * (1.0 + np.tanh(local_field(spec, x, i)))


# ---------------------------------------------------------------------------
# File formats: sparse-triplet JSON for matrices, plain arrays for spins.

def matrix_to_json(J):
    """Serialize to {"n": n, "entries": [[i, j, value], ...]} with strictly
    upper-triangular nonzeros."""
    J = np.asarray(J, dtype=np.float64)
    n = J.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    vals = J[iu, ju]
    nz = vals != 0.0
    entries = [[int(i), int(j), float(v)] for i, j, v in zip(iu[nz], ju[nz], vals[nz])]
    return {"n": n, "entries": entries}


def matrix_from_json(obj):
    """Inverse of ``matrix_to_json``: each entry [i, j, value] has integer
    indices 0 <= i < j < n, a number as its value, and names its pair once;
    ValueError names the first entry that does not, and ``NonFinite`` a NaN
    or infinite value.  J is symmetric with a zero diagonal by construction,
    and read-only."""
    n = int(obj["n"])
    J = np.zeros((n, n))
    seen = set()
    for entry in obj["entries"]:
        i, j, v = entry
        if not all(isinstance(t, (int, np.integer)) and not isinstance(t, bool)
                   for t in (i, j)):
            raise ValueError(f"entry {entry!r}: indices must be integers")
        if not isinstance(v, (int, float, np.integer, np.floating)) or isinstance(v, bool):
            raise ValueError(f"entry {entry!r}: value must be a number")
        if not (0 <= i < j < n):
            raise ValueError(f"entry ({i},{j}) is not strictly upper triangular")
        if (i, j) in seen:
            raise ValueError(f"entry {entry!r}: pair ({i},{j}) is listed twice")
        seen.add((i, j))
        J[i, j] = J[j, i] = v
    if seen and not np.isfinite(J[tuple(zip(*seen))]).all():
        raise NonFinite(_NON_FINITE)
    J.flags.writeable = False
    return J


def load_matrix(path):
    with open(path) as f:
        return matrix_from_json(json.load(f))


def save_matrix(path, J):
    with open(path, "w") as f:
        json.dump(matrix_to_json(J), f)


def load_spins(path):
    with open(path) as f:
        x = json.load(f)
    for v in x if isinstance(x, list) else [x]:  # before a cast rounds 1.5 or True
        if type(v) not in (int, float) or abs(v) != 1:
            raise ValueError(f"spin entry {v!r} is not exactly +1 or -1")
    return check_spins(np.asarray(x, dtype=np.int64))


def save_spins(path, x):
    with open(path, "w") as f:
        json.dump([int(v) for v in np.asarray(x)], f)
