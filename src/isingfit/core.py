"""Core Ising-model data types and elementary operations.

Interaction matrices are dense, symmetric, zero-diagonal float64 arrays.
Symmetry, diagonal and finiteness are enforced once at construction; all
downstream code assumes a validated matrix.  ``interaction_edges`` applies
the same checks on a matrix's support and returns its edges instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetryError,
    DiagonalError,
    DimensionMismatch,
    EmptySubset,
    IndexOutOfRange,
    MissingAssignment,
    NonFinite,
)


def _as_square(J):
    J = np.asarray(J, dtype=np.float64)
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise DimensionMismatch(f"expected square matrix, got shape {J.shape}")
    return J


def _check_interaction(asym, diag, tol):
    """Raise on the worst |J_ij - J_ji| and |J_ii| of a square matrix.

    Every non-finite entry makes its own J_ij - J_ji non-finite, so a
    non-finite ``asym`` means the matrix has a NaN or infinite entry.
    """
    if not math.isfinite(asym):
        raise NonFinite("interaction matrix has a NaN or infinite entry")
    if asym > tol:
        raise AsymmetryError(f"max |J_ij - J_ji| = {asym:g} exceeds tol {tol:g}")
    if diag > tol:
        raise DiagonalError(f"max |J_ii| = {diag:g} exceeds tol {tol:g}")


def validate_interaction(J, tol=1e-12):
    """Validate and canonicalize an interaction matrix.

    Small asymmetries (at most ``tol``) are averaged out; diagonal entries
    at most ``tol`` in magnitude are zeroed.  Anything larger, and any NaN
    or infinite entry, raises.
    """
    J = _as_square(J)
    with np.errstate(invalid="ignore"):  # inf - inf; reported as NonFinite
        asym = np.max(np.abs(J - J.T)) if J.size else 0.0
    d = np.max(np.abs(np.diag(J))) if J.size else 0.0
    _check_interaction(asym, d, tol)
    out = 0.5 * (J + J.T)
    np.fill_diagonal(out, 0.0)
    out.flags.writeable = False
    return out


def interaction_edges(J, tol=1e-12):
    """Validate an interaction matrix on its support and return its edges.

    Applies the rules, errors and messages of :func:`validate_interaction`
    but reads J only through one ``J != 0`` scan and gathers on that
    support.  Returns ``(rows, cols, values)``: the nonzero strictly-upper
    entries of ``validate_interaction(J, tol)``, in row-major order.

    The scan yields each nonzero upper entry once, already in row-major
    order; a lower entry adds its pair only when the upper mirror is 0
    (possible within ``tol`` asymmetry), and one stable sort puts those few
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
    _check_interaction(asym, d, tol)
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


def _field_bounds(spec):
    """R_i = sum_j |J_ij| + |h_i|, the largest |local field| site i can see."""
    return np.sum(np.abs(spec.J), axis=1) + np.abs(spec.h)


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
    exp(x'Jx/2 + h'x).  ``M`` caches the infinity norm of J."""

    J: np.ndarray
    h: np.ndarray
    M: float = field(init=False)

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
        object.__setattr__(self, "M", infinity_norm(J))

    @property
    def n(self):
        return self.J.shape[0]

    @classmethod
    def zero_field(cls, J):
        J = np.asarray(J, dtype=np.float64)
        return cls(J, np.zeros(J.shape[0]))


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


def restrict(spec, I, x_minus):
    """Conditional model on the coordinates in ``I`` given spins outside.

    ``x_minus`` is a length-n vector whose entries outside ``I`` must be
    +-1 (entries inside ``I`` are ignored).  The interaction restricts to
    I x I and the conditioned spins fold into the external field.
    """
    I = np.asarray(I, dtype=np.intp)
    if I.size == 0:
        raise EmptySubset("restriction subset must be nonempty")
    n = spec.n
    if np.any(I < 0) or np.any(I >= n):
        raise IndexOutOfRange("subset index outside [0, n)")
    mask = np.zeros(n, dtype=bool)
    mask[I] = True
    outside = ~mask
    x_minus = np.asarray(x_minus, dtype=np.float64)
    if x_minus.shape != (n,):
        raise MissingAssignment(f"need a length-{n} assignment vector")
    if np.any(np.abs(x_minus[outside]) != 1):
        raise MissingAssignment("every coordinate outside I needs a +-1 value")
    Jp = spec.J[np.ix_(I, I)]
    hp = spec.h[I] + spec.J[np.ix_(I, np.flatnonzero(outside))] @ x_minus[outside]
    return IsingSpec(Jp, hp)


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
    n = int(obj["n"])
    J = np.zeros((n, n))
    for i, j, v in obj["entries"]:
        if not (0 <= i < j < n):
            raise ValueError(f"entry ({i},{j}) is not strictly upper triangular")
        J[i, j] = v
        J[j, i] = v
    return validate_interaction(J)


def load_matrix(path):
    with open(path) as f:
        return matrix_from_json(json.load(f))


def save_matrix(path, J):
    with open(path, "w") as f:
        json.dump(matrix_to_json(J), f)


def load_spins(path):
    with open(path) as f:
        x = np.asarray(json.load(f), dtype=np.int64)
    return check_spins(x)


def save_spins(path, x):
    with open(path, "w") as f:
        json.dump([int(v) for v in np.asarray(x)], f)
