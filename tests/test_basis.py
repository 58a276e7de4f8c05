import math
import re
from dataclasses import fields

import numpy as np
import pytest

from isingfit.basis import (
    MatrixBasis,
    combine,
    edge_union,
    gram_matrix,
    gram_schmidt,
    gram_schmidt_edges,
    min_singular_value,
    project,
)
from isingfit.core import (
    _as_square,
    _check_interaction,
    frobenius_norm,
    interaction_edges,
    trace_inner,
    validate_interaction,
)
from isingfit.errors import (
    AllDegenerate,
    IsingfitError,
    LengthMismatch,
    ShapeMismatch,
)
from isingfit.experiments import (
    _blocks_edges,
    _erdos_renyi_edges,
    _matchings_edges,
    gen_blocks,
    gen_erdos_renyi_incidence,
    gen_matchings,
)
from isingfit.mple import infnorm_subgradient
from isingfit.sampler import make_rng


def random_family(n, k, seed, scale=1.0):
    rng = make_rng(seed)
    mats = []
    for _ in range(k):
        U = np.triu(rng.normal(size=(n, n)), 1) * scale
        mats.append(U + U.T)
    return mats


def edge_matrix(n, edges):
    J = np.zeros((n, n))
    for i, j in edges:
        J[i, j] = J[j, i] = 1.0
    return J


def test_already_orthonormal_is_fixed_point():
    A1 = edge_matrix(4, [(0, 1)]) / np.sqrt(2)
    A2 = edge_matrix(4, [(2, 3)]) / np.sqrt(2)
    b = gram_schmidt([A1, A2])
    assert b.k == 2
    assert np.allclose(b.ortho[0], A1, atol=1e-12)
    assert np.allclose(b.ortho[1], A2, atol=1e-12)


def test_duplicate_matrix_dropped():
    J = edge_matrix(4, [(0, 1), (2, 3)])
    b = gram_schmidt([J, J.copy()])
    assert b.k == 1


def test_edge_held_only_by_a_dropped_member_is_left_out():
    J1 = edge_matrix(4, [(0, 1), (2, 3)])
    E = edge_matrix(4, [(0, 2)])
    b = gram_schmidt([J1, J1 + 1e-12 * E])
    assert b.k == 1
    assert b.rows.tolist() == [0, 2] and b.cols.tolist() == [1, 3]
    assert b.coef.flags.c_contiguous
    assert np.array_equal(b.ortho[0], J1 / 2.0)


def test_edges_do_not_alias_the_callers_arrays():
    n = 12
    raw = gen_erdos_renyi_incidence(n, 3, 0.3, make_rng(5))
    rows, cols, values = edge_union(n, [interaction_edges(J) for J in raw])
    b = gram_schmidt_edges(n, rows, cols, values)
    assert b.rows.size == rows.size and b.coef.flags.c_contiguous
    assert not np.shares_memory(b.rows, rows) and not np.shares_memory(b.cols, cols)


def test_gram_matrix_is_identity():
    mats = random_family(20, 5, seed=1)
    b = gram_schmidt(mats)
    G = gram_matrix(b.ortho)
    assert np.max(np.abs(G - np.eye(5))) <= 1e-10


def test_ortho_matrices_symmetric_zero_diag():
    b = gram_schmidt(random_family(10, 3, seed=2))
    for A in b.ortho:
        assert np.array_equal(A, A.T)
        assert np.all(np.diag(A) == 0.0)


def test_sign_convention():
    b = gram_schmidt(random_family(8, 4, seed=3))
    for A in b.ortho:
        iu, ju = np.triu_indices(8, k=1)
        vals = A[iu, ju]
        nz = vals[np.abs(vals) > 1e-14]
        assert nz[0] > 0


# Both directions of span{J_s} = span{A_i}.  A member that Gram-Schmidt
# drops (two in "duplicate", one in "rank_deficient") had a residual of at
# most 1e-9 of its norm; projection on the final basis leaves no more than
# that, plus rounding.  The least-squares combination is solved on the
# dense raw family; near_collinear is left out, as its condition number
# (~3e7) puts that solve's own residual near 1e-7.
@pytest.mark.parametrize("kind,dropped", [("random", 0), ("erdos_renyi", 0),
                                          ("duplicate", 2), ("rank_deficient", 1)])
def test_basis_spans_the_raw_family(kind, dropped):
    raw = _families()[kind]
    b = gram_schmidt(raw)
    assert b.k == len(raw) - dropped
    for J in raw:
        _, residual = project(b, J)
        assert residual <= (1e-9 + 1e-13) * frobenius_norm(J)
    R = np.stack([J.ravel() for J in raw], axis=1)
    for A in b.ortho:
        c = np.linalg.lstsq(R, A.ravel(), rcond=None)[0]
        assert frobenius_norm(R @ c - A.ravel()) <= 1e-12


def test_all_degenerate_raises():
    with pytest.raises(AllDegenerate):
        gram_schmidt([np.zeros((4, 4)), np.zeros((4, 4))])


def test_shape_mismatch_raises():
    with pytest.raises(ShapeMismatch):
        gram_schmidt([np.zeros((4, 4)), np.zeros((5, 5))])


def test_combine_zero_and_unit_vectors():
    b = gram_schmidt(random_family(6, 3, seed=5))
    assert np.all(combine(b, np.zeros(3)) == 0.0)
    for i in range(3):
        e = np.eye(3)[i]
        assert np.allclose(combine(b, e), b.ortho[i], atol=1e-15)


def test_combine_isometry():
    b = gram_schmidt(random_family(12, 4, seed=6))
    rng = make_rng(7)
    for _ in range(10):
        beta = rng.normal(size=4)
        J = combine(b, beta)
        assert np.sqrt((J ** 2).sum()) == pytest.approx(
            np.linalg.norm(beta), rel=1e-10
        )


def test_combine_length_mismatch():
    b = gram_schmidt(random_family(6, 2, seed=8))
    with pytest.raises(LengthMismatch):
        combine(b, np.zeros(3))


def test_project_round_trip():
    b = gram_schmidt(random_family(10, 4, seed=9))
    rng = make_rng(10)
    beta = rng.normal(size=4)
    got, residual = project(b, combine(b, beta))
    assert np.allclose(got, beta, atol=1e-10)
    assert residual <= 1e-10


def test_project_orthogonal_complement():
    A1 = edge_matrix(4, [(0, 1)])
    b = gram_schmidt([A1])
    J = edge_matrix(4, [(2, 3)]) * 1.7
    beta, residual = project(b, J)
    assert np.allclose(beta, 0.0, atol=1e-12)
    assert residual == pytest.approx(np.sqrt((J ** 2).sum()))


def test_project_pythagoras():
    b = gram_schmidt(random_family(10, 3, seed=11))
    J = random_family(10, 1, seed=12)[0]
    beta, residual = project(b, J)
    total = (J ** 2).sum()
    assert residual ** 2 + np.dot(beta, beta) == pytest.approx(total, rel=1e-8)


def test_min_singular_value_orthonormal():
    b = gram_schmidt(random_family(8, 3, seed=13))
    assert min_singular_value(b.ortho) == pytest.approx(1.0, rel=1e-9)


def test_min_singular_value_rank_deficient():
    J = edge_matrix(4, [(0, 1)])
    assert min_singular_value([J, J]) == pytest.approx(0.0, abs=1e-7)


def test_min_singular_value_disjoint_supports():
    J1 = edge_matrix(6, [(0, 1), (2, 3)])
    J2 = edge_matrix(6, [(4, 5)]) * 0.5
    expected = min(np.sqrt((J1 ** 2).sum()), np.sqrt((J2 ** 2).sum()))
    assert min_singular_value([J1, J2]) == pytest.approx(expected, rel=1e-12)


# Oracle: per-graph counts of the unordered edges that no other graph of
# the family holds (the appendix's lambda_s for 0/1 incidence matrices).
def unique_edge_counts(incidence):
    edge_sets = []
    for J in incidence:
        i, j, _ = interaction_edges(np.asarray(J))
        edge_sets.append(set(zip(i.tolist(), j.tolist())))
    return np.array([len(E.difference(*(F for t, F in enumerate(edge_sets) if t != s)))
                     for s, E in enumerate(edge_sets)])


def test_unique_edge_counts_disjoint_matchings():
    E1 = edge_matrix(6, [(0, 1), (2, 3)])
    E2 = edge_matrix(6, [(4, 5)])
    assert np.array_equal(unique_edge_counts([E1, E2]), [2, 1])


def test_unique_edge_counts_identical_graphs():
    E = edge_matrix(4, [(0, 1), (2, 3)])
    assert np.array_equal(unique_edge_counts([E, E.copy()]), [0, 0])


def test_unique_edge_counts_partial_overlap():
    E1 = edge_matrix(4, [(0, 1), (0, 2)])
    E2 = edge_matrix(4, [(0, 2), (1, 3)])
    assert np.array_equal(unique_edge_counts([E1, E2]), [1, 1])


def test_edge_view_reproduces_dense_rows():
    rng = make_rng(60)
    matchings = gen_matchings(12, 3, rng)
    for raw in (random_family(9, 3, seed=61), matchings,
                gen_blocks(12, 3), [edge_matrix(7, [(0, 3), (3, 5)])]):
        b = gram_schmidt(raw)
        assert np.all(b.rows < b.cols)
        beta = rng.normal(size=b.k)
        x = 1.0 - 2.0 * rng.integers(0, 2, size=b.n)
        if raw[0] is matchings[0]:
            assert np.array_equal(b.fields(x), b.stacked() @ x)
        else:
            assert np.allclose(b.fields(x), b.stacked() @ x, rtol=0, atol=1e-14)
        U = combine(b, beta)
        u = b.coef @ beta
        assert np.allclose(U[b.rows, b.cols], u, rtol=0, atol=1e-14)
        upper = np.zeros_like(U)
        upper[b.rows, b.cols] = u
        assert np.allclose(upper + upper.T, U, rtol=0, atol=1e-14)
        assert np.allclose(b.row_abs_sums(u), np.abs(U).sum(axis=1),
                           rtol=0, atol=1e-13)
        for beta in rng.normal(size=(4, b.k)):
            u = b.coef @ beta
            got = infnorm_subgradient(b, u)
            assert np.array_equal(infnorm_subgradient(b, u, b.row_abs_sums(u)), got)
            want = _dense_infnorm_subgradient(b, beta)
            if raw[0] is matchings[0]:
                assert np.array_equal(got, want)
            else:
                assert np.allclose(got, want, rtol=0, atol=1e-14)


def _dense_infnorm_subgradient(basis, beta):
    """Through the lowest-index row i of A_beta with the largest absolute
    sum: sum_j sgn((A_beta)_ij) (A_s)_ij for each s."""
    U = combine(basis, beta)
    i = int(np.argmax(np.abs(U).sum(axis=1)))
    return np.array([np.sign(U[i]) @ A[i] for A in basis.ortho])


def test_basis_stores_only_edges():
    assert [f.name for f in fields(MatrixBasis)] == ["n", "rows", "cols", "coef"]


# ---------------------------------------------------------------------------
# Oracles: fields and row_abs_sums as one bincount per member over the
# public index arrays, as the basis computed them before its one-pass index.


def _fields_by_member(b, x):
    xr, xc = x[b.rows], x[b.cols]
    return np.stack([np.bincount(b.rows, a * xc, b.n)
                     + np.bincount(b.cols, a * xr, b.n)
                     for a in b.coef.T])


def _row_abs_sums_by_edges(b, u):
    a = np.abs(u)
    return np.bincount(b.rows, a, b.n) + np.bincount(b.cols, a, b.n)


def _with_a_repeat(n, k, seed):
    family = _erdos_renyi_edges(n, k, 0.2, make_rng(seed))
    return family + family[:1]  # the repeated member is dropped


_KERNEL_FAMILIES = {
    "matchings_k1": lambda: (128, _matchings_edges(128, 1)),
    "matchings_k8": lambda: (128, _matchings_edges(128, 8, make_rng(62))),
    "blocks_k4": lambda: (64, _blocks_edges(64, 4, make_rng(63))),
    "er_n1024_k8": lambda: (1024, _erdos_renyi_edges(1024, 8, 0.01, make_rng(64))),
    "dropped_member": lambda: (32, _with_a_repeat(32, 3, 65)),
}


def _kernel_basis(name):
    n, family = _KERNEL_FAMILIES[name]()
    return gram_schmidt_edges(n, *edge_union(n, family)), len(family)


@pytest.mark.parametrize("name", sorted(_KERNEL_FAMILIES))
def test_one_pass_kernels_match_per_member_oracles(name):
    b, members = _kernel_basis(name)
    k = b.coef.shape[1]
    assert k == (members - 1 if name == "dropped_member" else members)
    rng = make_rng(66)
    for _ in range(3):
        x = 1.0 - 2.0 * rng.integers(0, 2, size=b.n)
        got, want = b.fields(x), _fields_by_member(b, x)
        assert got.shape == want.shape == (k, b.n)
        assert got.tobytes() == want.tobytes()
        u = b.coef @ rng.normal(size=k)
        assert b.row_abs_sums(u).tobytes() == _row_abs_sums_by_edges(b, u).tobytes()


def test_kernels_index_with_writeable_intp_behind_read_only_arrays(monkeypatch):
    # np.bincount copies an index that is read-only or not intp; the
    # kernels hand it only their private writeable intp index
    b, _ = _kernel_basis("matchings_k8")
    seen = []
    bincount = np.bincount

    def spy(index, *args, **kwargs):
        seen.append((index.dtype, index.flags.writeable, index.flags.c_contiguous))
        return bincount(index, *args, **kwargs)

    rng = make_rng(67)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=b.n)
    u = b.coef @ rng.normal(size=b.coef.shape[1])
    monkeypatch.setattr(np, "bincount", spy)
    b.fields(x)
    b.row_abs_sums(u)
    monkeypatch.undo()
    assert seen == [(np.dtype(np.intp), True, True)] * 4
    for name in ("rows", "cols", "coef"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(b, name)[0] = 0
    assert "_flat" not in repr(b)


# ---------------------------------------------------------------------------
# Oracle: Gram-Schmidt on dense n x n matrices, as gram_schmidt ran before
# the basis was stored in edge coordinates, kept verbatim apart from its
# return value (the dense ortho list) and the change matrix it no longer
# keeps.


def _fix_sign(A):
    """Make the first nonzero upper-triangle entry (row-major) positive."""
    n = A.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    vals = A[iu, ju]
    nz = np.flatnonzero(np.abs(vals) > 1e-14)
    if nz.size and vals[nz[0]] < 0:
        return -A
    return A


def _dense_gram_schmidt(raw, rank_tol=1e-9):
    if not raw:
        raise AllDegenerate("empty matrix family")
    mats = [validate_interaction(J) for J in raw]
    n = mats[0].shape[0]
    for J in mats:
        if J.shape != (n, n):
            raise ShapeMismatch("matrices in a family must share a dimension")
    ortho = []
    for J in mats:
        scale = frobenius_norm(J)
        V = J.copy()
        for _ in range(2):  # MGS + one re-orthogonalization pass
            for A in ortho:
                c = trace_inner(V, A)
                V = V - c * A
        r = frobenius_norm(V)
        if scale == 0.0 or r <= rank_tol * scale:
            continue
        V = _fix_sign(V / r)
        np.fill_diagonal(V, 0.0)
        ortho.append(V)
    if not ortho:
        raise AllDegenerate("every input matrix is numerically zero")
    return ortho


def _families():
    er = gen_erdos_renyi_incidence(16, 4, 0.3, make_rng(70))
    # a copy of er[0] plus a tiny weight on an edge no other member has:
    # it is dropped, so that edge is 0 in every A_i and leaves the support
    i, j = np.argwhere(np.triu(er[0] + er[1] == 0, 1))[0]
    R = random_family(16, 3, seed=73)
    return {
        "matchings": gen_matchings(24, 4, make_rng(71)),
        "random": random_family(11, 4, seed=72),
        "blocks": gen_blocks(15, 3),
        "erdos_renyi": er,
        "single_edge": [edge_matrix(6, [(1, 4)])],
        "duplicate": [er[0], er[1], er[0] + 1e-13 * edge_matrix(16, [(i, j)]),
                      2.5 * er[1]],
        "rank_deficient": er[:3] + [er[0] - 0.5 * er[1] + 3.0 * er[2]],
        "near_collinear": [R[0], R[0] + 1e-7 * R[1], R[0] + 1e-7 * (R[1] + R[2])],
    }


@pytest.mark.parametrize("kind", sorted(_families()))
def test_gram_schmidt_matches_dense_oracle(kind):
    raw = _families()[kind]
    b = gram_schmidt(raw)
    ortho = _dense_gram_schmidt(raw)
    assert isinstance(b, MatrixBasis) and b.k == len(ortho)
    assert b.k < len(raw) if kind in ("duplicate", "rank_deficient") else b.k == len(raw)
    got = b.stacked()
    assert np.array_equal(np.stack(b.ortho), got)
    if kind == "near_collinear":
        # the re-orthogonalization pass keeps the basis orthonormal (one
        # pass leaves it off by ~6e-10)
        assert np.abs(gram_matrix(b.ortho) - np.eye(b.k)).max() <= 1e-14
        assert np.allclose(got, np.stack(ortho), rtol=0, atol=1e-9)
    elif kind == "matchings":
        assert np.array_equal(got, np.stack(ortho))
    else:
        assert np.allclose(got, np.stack(ortho), rtol=0, atol=1e-12)
    # the edge support is the dense basis' nonzero strictly-upper pattern
    support = np.triu(np.any(np.stack(ortho) != 0.0, axis=0), 1)
    rows, cols = np.nonzero(support)
    assert np.array_equal(b.rows, rows)
    assert np.array_equal(b.cols, cols)


# ---------------------------------------------------------------------------
# interaction_edges against validate_interaction, the dense validator.


def _malformed():
    J = edge_matrix(5, [(0, 1), (1, 2), (3, 4)])
    asym, diag, nan, inf = J.copy(), J.copy(), J.copy(), J.copy()
    asym[0, 1] += 1e-9
    diag[2, 2] = 1e-9
    nan[3, 4] = nan[4, 3] = np.nan
    inf[1, 2] = inf[2, 1] = np.inf
    nan_asym = asym.copy()
    nan_asym[2, 0] = np.nan
    return {
        "asymmetric": [J, asym],
        "diagonal": [J, diag],
        "non_square": [J, np.zeros((5, 4))],
        "mismatched_shapes": [J, np.zeros((4, 4))],
        "nan": [nan, J],
        "inf": [J, inf],
        "nan_and_asymmetric": [nan_asym],
    }


@pytest.mark.parametrize("kind", sorted(_malformed()))
def test_validators_raise_alike(kind):
    raw = _malformed()[kind]
    with pytest.raises(IsingfitError) as dense:
        _dense_gram_schmidt(raw)
    with pytest.raises(dense.type, match=re.escape(str(dense.value))):
        gram_schmidt(raw)
    for J in raw:
        try:
            validate_interaction(J)
        except IsingfitError as err:
            with pytest.raises(type(err), match=re.escape(str(err))):
                interaction_edges(J)
        else:
            interaction_edges(J)


def test_edges_are_the_canonical_upper_entries_bit_for_bit():
    # asymmetries and diagonals at most tol, a tiny antisymmetric pair whose
    # canonical value is 0, and a member whose support is every edge
    n, tol = 14, 1e-12
    rng = make_rng(80)
    er = gen_erdos_renyi_incidence(n, 3, 0.3, make_rng(81))
    noisy = er[0] * rng.normal(size=(n, n))
    noisy = noisy + noisy.T + 0.4 * tol * rng.uniform(-1, 1, (n, n)) * (er[0] != 0)
    np.fill_diagonal(noisy, 0.5 * tol)
    i, j = np.argwhere(np.triu(er[0] + er[1] == 0, 1))[0]
    pair = er[1].copy()
    pair[i, j], pair[j, i] = 0.3 * tol, -0.3 * tol
    tiny = 0.1 * tol * rng.uniform(-1, 1, (n, n))
    tiny = tiny + tiny.T + 0.4 * tol * rng.uniform(-1, 1, (n, n))
    raw = [noisy, pair, tiny, er[2]]
    for J in raw:
        rows, cols, values = interaction_edges(J)
        canonical = validate_interaction(J)
        r, c = np.nonzero(np.triu(canonical, 1))
        assert np.array_equal(rows, r) and np.array_equal(cols, c)
        assert np.array_equal(values, canonical[r, c])
    rows, cols, _ = interaction_edges(pair)
    assert not np.any((rows == i) & (cols == j))
    b = gram_schmidt(raw)
    ortho = _dense_gram_schmidt(raw)
    assert b.k == len(ortho) == len(raw)
    assert np.allclose(b.stacked(), np.stack(ortho), rtol=0, atol=1e-12)
    support = np.triu(np.any(np.stack(ortho) != 0.0, axis=0), 1)
    r, c = np.nonzero(support)
    assert np.array_equal(b.rows, r) and np.array_equal(b.cols, c)


# ---------------------------------------------------------------------------
# Oracle: project as it ran before it gathered from the edges, with dense
# trace inner products against ortho and a dense combine; kept verbatim.


def _dense_project(basis, J):
    """Coordinates of J on the span plus the orthogonal residual norm."""
    J = np.asarray(J, dtype=np.float64)
    if J.shape != (basis.n, basis.n):
        raise ShapeMismatch(f"matrix shape {J.shape} vs basis dimension {basis.n}")
    beta = np.array([trace_inner(J, A) for A in basis.ortho])
    residual = frobenius_norm(J - combine(basis, beta))
    return beta, residual


@pytest.mark.parametrize("kind", ["matchings", "random", "erdos_renyi",
                                  "rank_deficient"])
def test_project_matches_dense_oracle(kind):
    b = gram_schmidt(_families()[kind])
    rng = make_rng(90)
    in_span = combine(b, rng.normal(size=b.k))
    out_of_span = in_span + random_family(b.n, 1, seed=91)[0]
    asymmetric = in_span + rng.normal(size=(b.n, b.n))
    diagonal = in_span + np.diag(rng.normal(size=b.n))
    for J in (in_span, out_of_span, asymmetric, diagonal):
        beta, residual = project(b, J)
        want_beta, want_residual = _dense_project(b, J)
        tol = 1e-12 * frobenius_norm(J)
        assert np.allclose(beta, want_beta, rtol=0, atol=tol)
        assert abs(residual - want_residual) <= tol


# ---------------------------------------------------------------------------
# Oracles: interaction_edges and gram_schmidt as they were when both
# deduplicated pairs with np.unique; kept verbatim apart from their names,
# the validation tolerance that is now fixed and the change matrix that is
# gone.


def _unique_interaction_edges(J):
    J = _as_square(J)
    n = J.shape[0]
    r, c = np.divmod(np.flatnonzero(J != 0.0), n)  # flat: faster than np.nonzero(J)
    v = J[r, c]
    with np.errstate(invalid="ignore"):
        asym = np.max(np.abs(v - J[c, r])) if v.size else 0.0
    on_diag = r == c
    d = np.max(np.abs(v[on_diag])) if on_diag.any() else 0.0
    _check_interaction(asym, d)
    r, c = r[~on_diag], c[~on_diag]
    rows, cols = np.divmod(np.unique(np.minimum(r, c) * n + np.maximum(r, c)), n)
    values = 0.5 * (J[rows, cols] + J[cols, rows])
    keep = values != 0.0
    return rows[keep], cols[keep], values[keep]


def _unique_gram_schmidt(raw, rank_tol=1e-9):
    if not raw:
        raise AllDegenerate("empty matrix family")
    mats = [np.asarray(J, dtype=np.float64) for J in raw]
    found = [_unique_interaction_edges(J) for J in mats]
    n = mats[0].shape[0]
    if any(J.shape != (n, n) for J in mats):
        raise ShapeMismatch("matrices in a family must share a dimension")
    union = np.unique(np.concatenate([i * n + j for i, j, _ in found]))
    rows, cols = np.divmod(union, n)
    values = np.zeros((len(mats), union.size))  # row s: J_s on the union
    for s, (i, j, v) in enumerate(found):
        values[s, np.searchsorted(union, i * n + j)] = v
    ortho = []
    for v in values:
        scale = math.sqrt(2.0 * (v @ v))
        for _ in range(2):  # MGS + one re-orthogonalization pass
            for a in ortho:
                c = 2.0 * (v @ a)
                v = v - c * a
        r = math.sqrt(2.0 * (v @ v))
        if scale == 0.0 or r <= rank_tol * scale:
            continue
        v = v / r
        nz = np.flatnonzero(np.abs(v) > 1e-14)
        if nz.size and v[nz[0]] < 0:
            v = -v
        ortho.append(v)
    if not ortho:
        raise AllDegenerate("every input matrix is numerically zero")
    coef = np.stack(ortho, axis=1)
    keep = np.any(coef != 0.0, axis=1)
    return MatrixBasis(n, rows[keep], cols[keep], coef[keep])


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _edge_cases(tol=1e-12):
    """Inputs on which sorting, signed zeros and the tol rules matter."""
    # upper edges (0, 3), (1, 2) and (2, 5), and a lower-only entry at
    # (4, 1) whose mirror (1, 4) is 0: its pair falls between upper edges
    lower_only = edge_matrix(6, [(0, 3), (1, 2), (2, 5)])
    lower_only[4, 1] = 0.4 * tol
    # -0.0 is off the support; a pair (3, 1) whose mirror is -0.0, one
    # (2, 4) whose lower entry is -0.0, and an antisymmetric pair (0, 5)
    # that cancels to 0 and leaves the edges
    signed = 0.7 * edge_matrix(6, [(0, 1), (3, 4)])
    signed[0, 2] = signed[2, 0] = signed[4, 5] = -0.0
    signed[1, 3], signed[3, 1] = -0.0, 0.3 * tol
    signed[2, 4], signed[4, 2] = 0.2 * tol, -0.0
    signed[0, 5], signed[5, 0] = 0.3 * tol, -0.3 * tol
    diagonal = edge_matrix(5, [(0, 4), (1, 3)])
    diagonal[2, 2] = diagonal[4, 4] = -tol
    rng = make_rng(120)
    dense = rng.normal(size=(40, 40))
    dense = dense + dense.T + 0.4 * tol * rng.uniform(-1, 1, (40, 40))
    np.fill_diagonal(dense, 0.5 * tol)
    return {
        "lower_only": lower_only,
        "signed_zeros": signed,
        "diagonal": diagonal,
        "empty": np.zeros((0, 0)),
        "one_zero": np.zeros((1, 1)),
        "one_diagonal": np.full((1, 1), 0.5 * tol),
        "dense": dense,
    }


@pytest.mark.parametrize("kind", sorted(_edge_cases()))
def test_interaction_edges_match_unique_oracle(kind):
    J = _edge_cases()[kind]
    got = interaction_edges(J)
    _assert_same_arrays(got, _unique_interaction_edges(J))
    rows, cols, _ = got
    assert np.all(np.diff(rows * max(J.shape[0], 1) + cols) > 0)
    if kind == "lower_only":
        assert rows.tolist() == [0, 1, 1, 2] and cols.tolist() == [3, 2, 4, 5]
    if kind == "signed_zeros":
        assert rows.tolist() == [0, 1, 2, 3] and cols.tolist() == [1, 3, 4, 4]


def _overlapping_families():
    """Weighted matchings, blocks and ER members whose supports overlap."""
    out = {}
    for n in (16, 64, 256):
        rng = make_rng(130 + n)
        mats = (gen_matchings(n, 3, rng) + gen_matchings(n, 2, rng)
                + gen_blocks(n, 4) + gen_erdos_renyi_incidence(n, 3, 8.0 / n, rng))
        out[f"mixed_n{n}"] = [rng.uniform(-1.0, 1.0) * J for J in mats]
        out[f"er_n{n}"] = gen_erdos_renyi_incidence(n, 6, 0.05, rng)
    out["edge_cases"] = [J for J in _edge_cases().values() if J.shape == (6, 6)]
    return out


@pytest.mark.parametrize("kind", sorted(_overlapping_families()))
def test_gram_schmidt_matches_unique_oracle(kind):
    raw = _overlapping_families()[kind]
    for J in raw:
        _assert_same_arrays(interaction_edges(J), _unique_interaction_edges(J))
    b, want = gram_schmidt(raw), _unique_gram_schmidt(raw)
    _assert_same_arrays((b.rows, b.cols, b.coef),
                        (want.rows, want.cols, want.coef))


@pytest.mark.parametrize("kind", ["nan", "asymmetric", "diagonal"])
def test_interaction_edges_raise_like_unique_oracle(kind):
    J = edge_matrix(5, [(0, 1), (1, 2), (3, 4)])
    if kind == "nan":
        J[2, 1] = np.nan
    elif kind == "asymmetric":
        J[4, 3] += 1e-9
    else:
        J[2, 2] = 1e-9
    with pytest.raises(IsingfitError) as want:
        _unique_interaction_edges(J)
    with pytest.raises(want.type, match=re.escape(str(want.value))):
        interaction_edges(J)
    with pytest.raises(want.type, match=re.escape(str(want.value))):
        gram_schmidt([J])
