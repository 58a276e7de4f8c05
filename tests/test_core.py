import json
import math

import numpy as np
import pytest

import isingfit as isf
from isingfit.core import IsingSpec, infinity_norm, local_field
from isingfit.errors import (
    AsymmetryError,
    DiagonalError,
    IndexOutOfRange,
    LengthMismatch,
    NonFinite,
    UnsortedEdges,
)
from isingfit.sampler import enumerate_distribution, make_rng, spin_table


def random_spec(n, M, seed, with_field=False):
    rng = make_rng(seed)
    U = np.triu(rng.normal(size=(n, n)), 1)
    J = U + U.T
    norm = isf.infinity_norm(J)
    if norm > 0:
        J *= M / norm
    h = rng.normal(size=n) * 0.3 if with_field else np.zeros(n)
    return IsingSpec(J, h)


def test_validate_zero_matrix():
    out = isf.validate_interaction(np.zeros((2, 2)))
    assert np.all(out == 0)


def test_validate_symmetric_ok():
    J = np.array([[0, 0.3], [0.3, 0]])
    out = isf.validate_interaction(J)
    assert np.array_equal(out, J)


def test_validate_asymmetric_raises():
    with pytest.raises(AsymmetryError):
        isf.validate_interaction(np.array([[0, 0.3], [0.2, 0]]))


def test_validate_bad_diagonal_raises():
    with pytest.raises(DiagonalError):
        isf.validate_interaction(np.array([[0.5, 0.3], [0.3, 0]]))


def test_validate_enforces_exact_symmetry():
    rng = make_rng(0)
    J = rng.normal(size=(6, 6)) * 1e-14
    J = J + J.T + rng.normal(size=(6, 6)) * 1e-15
    np.fill_diagonal(J, 1e-14)
    out = isf.validate_interaction(J)
    assert np.array_equal(out, out.T)
    assert np.all(np.diag(out) == 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["pair", "one_entry", "diagonal"])
def test_non_finite_entries_raise(bad, where):
    J = np.array([[0, 0.3, 0.0], [0.3, 0, 0.1], [0.0, 0.1, 0]])
    if where == "pair":
        J[0, 2] = J[2, 0] = bad
    elif where == "one_entry":
        J[1, 2] = bad
    else:
        J[1, 1] = bad
    with pytest.raises(NonFinite):
        isf.validate_interaction(J)
    with pytest.raises(NonFinite):
        isf.interaction_edges(J)
    with pytest.raises(NonFinite):
        IsingSpec.zero_field(J)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_field_raises(bad):
    with pytest.raises(NonFinite, match="external field must be finite"):
        IsingSpec(np.zeros((2, 2)), [bad, 0.0])


# ---------------------------------------------------------------------------
# IsingSpec.from_edges: a zero-field model checked on its edges


_EDGES = ([0, 0, 2], [1, 3, 3], [0.5, -0.25, 1e-300])


def test_from_edges_is_zero_field_of_the_scatter():
    rows, cols, values = (np.array(a) for a in _EDGES)
    J = np.zeros((4, 4))
    J[rows, cols] = J[cols, rows] = values
    got, want = IsingSpec.from_edges(4, rows, cols, values), IsingSpec.zero_field(J)
    for a, b in ((got.J, want.J), (got.h, want.h)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert not a.flags.writeable
    assert repr(infinity_norm(got.J)) == repr(infinity_norm(want.J))
    none = np.zeros(0, dtype=np.intp)
    empty = IsingSpec.from_edges(3, none, none, [])
    assert empty.n == 3 and not empty.J.any() and infinity_norm(empty.J) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_edges_rejects_non_finite_values(bad):
    rows, cols, values = _EDGES
    with pytest.raises(NonFinite, match="NaN or infinite"):
        IsingSpec.from_edges(4, rows, cols, [values[0], bad, values[2]])


@pytest.mark.parametrize("rows,cols,error", [
    ([0, 1, 2], [1, 1, 3], IndexOutOfRange),    # a diagonal pair
    ([0, 3, 2], [1, 0, 3], IndexOutOfRange),    # a lower pair
    ([-1, 0, 2], [1, 3, 3], IndexOutOfRange),
    ([0, 0, 2], [1, 3, 4], IndexOutOfRange),    # col = n
    ([0, 2, 0], [1, 3, 3], UnsortedEdges),
    ([0, 0, 0], [1, 3, 3], UnsortedEdges),      # a pair listed twice
    ([0, 0], [1, 3], LengthMismatch),
])
def test_from_edges_rejects_bad_pairs(rows, cols, error):
    with pytest.raises(error):
        IsingSpec.from_edges(4, rows, cols, _EDGES[2])


def test_infinity_norm_examples():
    assert isf.infinity_norm(np.zeros((3, 3))) == 0.0
    assert isf.infinity_norm(np.array([[0, 0.3], [0.3, 0]])) == pytest.approx(0.3)
    J = np.zeros((4, 4))
    J[2, 1], J[2, 3] = 0.1, 0.5
    J = J + J.T
    assert isf.infinity_norm(J) == pytest.approx(0.6)


def test_frobenius_and_trace_inner():
    A = np.array([[0, 1.0], [1.0, 0]])
    assert isf.frobenius_norm(A) == pytest.approx(math.sqrt(2))
    assert isf.trace_inner(A, A) == pytest.approx(isf.frobenius_norm(A) ** 2)
    B = np.zeros((2, 2))
    assert isf.trace_inner(A, B) == 0.0


def test_local_field_zero_model():
    spec = IsingSpec.zero_field(np.zeros((3, 3)))
    x = np.array([1, -1, 1])
    for i in range(3):
        assert local_field(spec, x, i) == 0.0


def test_local_field_single_edge():
    J = np.zeros((2, 2))
    J[0, 1] = J[1, 0] = 0.5
    spec = IsingSpec.zero_field(J)
    assert local_field(spec, np.array([1, 1]), 0) == pytest.approx(0.5)


def test_local_field_matches_dot_product():
    spec = random_spec(3, 1.0, seed=11, with_field=True)
    rng = make_rng(12)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=3)
    for i in range(3):
        direct = sum(spec.J[i, j] * x[j] for j in range(3)) + spec.h[i]
        assert local_field(spec, x, i) == pytest.approx(direct, abs=1e-15)


def test_local_field_index_out_of_range():
    spec = IsingSpec.zero_field(np.zeros((2, 2)))
    with pytest.raises(IndexOutOfRange):
        local_field(spec, np.array([1, 1]), 2)


def test_conditional_prob_uniform():
    spec = IsingSpec.zero_field(np.zeros((3, 3)))
    assert isf.conditional_prob_plus(spec, np.array([1, -1, 1]), 1) == 0.5


def test_conditional_prob_single_edge():
    J = np.zeros((2, 2))
    J[0, 1] = J[1, 0] = 0.5
    spec = IsingSpec.zero_field(J)
    p = isf.conditional_prob_plus(spec, np.array([1, 1]), 0)
    assert p == pytest.approx((1 + math.tanh(0.5)) / 2)


def test_conditional_prob_matches_enumeration():
    spec = random_spec(6, 0.8, seed=21, with_field=True)
    dist = enumerate_distribution(spec)
    rng = make_rng(22)
    for _ in range(20):
        x = (1 - 2 * rng.integers(0, 2, size=6)).astype(np.int64)
        i = int(rng.integers(6))
        xp, xm = x.copy(), x.copy()
        xp[i], xm[i] = 1, -1
        pp, pm = dist.prob_of(xp), dist.prob_of(xm)
        assert isf.conditional_prob_plus(spec, x, i) == pytest.approx(
            pp / (pp + pm), abs=1e-12
        )


def test_conditional_probs_sum_to_one():
    spec = random_spec(5, 1.5, seed=31, with_field=True)
    rng = make_rng(32)
    for _ in range(20):
        x = 1.0 - 2.0 * rng.integers(0, 2, size=5)
        i = int(rng.integers(5))
        p = isf.conditional_prob_plus(spec, x, i)
        xflip = x.copy()
        xflip[i] = -x[i]
        # probability of -1 at i is one minus probability of +1
        q = 1.0 - isf.conditional_prob_plus(spec, x, i)
        assert p + q == 1.0


def test_local_field_linear_in_J_and_h():
    rng = make_rng(41)
    s1 = random_spec(6, 1.0, seed=42, with_field=True)
    s2 = random_spec(6, 0.7, seed=43, with_field=True)
    a, b = 0.6, -1.3
    combo = IsingSpec(a * s1.J + b * s2.J, a * s1.h + b * s2.h)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=6)
    for i in range(6):
        lhs = local_field(combo, x, i)
        rhs = a * local_field(s1, x, i) + b * local_field(s2, x, i)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# Oracle: the conditional model on the coordinates in I given the spins of
# x_minus outside I (its entries inside I are ignored).  The interaction
# restricts to I x I and the conditioned spins fold into the field.
def restrict(spec, I, x_minus):
    I = np.asarray(I, dtype=np.intp)
    outside = np.setdiff1d(np.arange(spec.n), I)
    x_minus = np.asarray(x_minus, dtype=np.float64)
    return IsingSpec(spec.J[np.ix_(I, I)],
                     spec.h[I] + spec.J[np.ix_(I, outside)] @ x_minus[outside])


def test_restrict_full_set_is_identity():
    spec = random_spec(5, 1.0, seed=51, with_field=True)
    out = restrict(spec, np.arange(5), np.ones(5))
    assert np.allclose(out.J, spec.J)
    assert np.allclose(out.h, spec.h)


def test_restrict_bipartite_gives_independence():
    # interactions only across the bipartition -> conditioning on one side
    # leaves an interaction-free model
    n = 6
    L, R = [0, 1, 2], [3, 4, 5]
    rng = make_rng(52)
    J = np.zeros((n, n))
    for i in L:
        for j in R:
            J[i, j] = J[j, i] = rng.normal() * 0.3
    spec = IsingSpec.zero_field(J)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=n)
    out = restrict(spec, np.array(L), x)
    assert np.all(out.J == 0.0)


def test_restrict_matches_enumerated_conditional():
    n = 8
    spec = random_spec(n, 1.2, seed=53, with_field=True)
    rng = make_rng(54)
    I = np.array([1, 3, 4, 6])
    x = 1.0 - 2.0 * rng.integers(0, 2, size=n)
    sub = restrict(spec, I, x)
    sub_dist = enumerate_distribution(sub)

    # oracle: conditional of the full enumerated joint
    full = enumerate_distribution(spec)
    m = len(I)
    probs = np.zeros(1 << m)
    for idx in range(1 << m):
        y = x.copy()
        inner = spin_table(m, idx, idx + 1)[0]
        y[I] = inner
        probs[idx] = full.prob_of(y.astype(np.int64))
    probs /= probs.sum()
    assert 0.5 * np.abs(probs - sub_dist.probs).sum() <= 1e-12


def test_restrict_nested_composition():
    n = 7
    spec = random_spec(n, 1.0, seed=55, with_field=True)
    rng = make_rng(56)
    x = 1.0 - 2.0 * rng.integers(0, 2, size=n)
    outer = np.array([0, 2, 3, 5, 6])
    inner_local = np.array([1, 2, 4])  # positions within outer
    inner_global = outer[inner_local]
    once = restrict(spec, inner_global, x)
    step1 = restrict(spec, outer, x)
    step2 = restrict(step1, inner_local, x[outer])
    assert np.allclose(step2.J, once.J, atol=1e-12)
    assert np.allclose(step2.h, once.h, atol=1e-12)


def test_restrict_norm_contraction():
    spec = random_spec(9, 2.0, seed=57)
    rng = make_rng(58)
    for _ in range(10):
        m = int(rng.integers(1, 9))
        I = rng.choice(9, size=m, replace=False)
        x = 1.0 - 2.0 * rng.integers(0, 2, size=9)
        assert infinity_norm(restrict(spec, I, x).J) <= infinity_norm(spec.J) + 1e-12


def test_matrix_json_round_trip(tmp_path):
    spec = random_spec(6, 1.0, seed=61)
    path = tmp_path / "m.json"
    isf.core.save_matrix(path, spec.J)
    back = isf.core.load_matrix(path)
    assert np.allclose(back, spec.J)


# numpy would index with 1.5 (IndexError) or True (a boolean mask, then an
# AsymmetryError), and a repeated pair would silently keep its last value:
# each is refused with the entry named.
@pytest.mark.parametrize("entries,needle", [
    ([[0, 1.5, 0.2]], "[0, 1.5, 0.2]"),
    ([[0, True, 0.2]], "[0, True, 0.2]"),
    ([[0.0, 1, 0.2]], "[0.0, 1, 0.2]"),
    ([["0", 1, 0.2]], "['0', 1, 0.2]"),
    ([[0, 1, 0.2], [1, 2, 0.1], [0, 1, 0.3]], "[0, 1, 0.3]"),
])
def test_matrix_json_rejects_bad_entries(entries, needle):
    with pytest.raises(ValueError) as info:
        isf.core.matrix_from_json({"n": 3, "entries": entries})
    assert needle in str(info.value)


# the file's J is symmetric with a zero diagonal by construction, so its
# values are checked for finiteness alone, in O(m)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_matrix_json_rejects_non_finite_values(bad):
    with pytest.raises(NonFinite, match="NaN or infinite"):
        isf.core.matrix_from_json({"n": 3, "entries": [[0, 1, 0.2], [1, 2, bad]]})
    J = isf.core.matrix_from_json({"n": 3, "entries": [[0, 1, 0.2]]})
    assert not J.flags.writeable


def test_matrix_json_reads_json_text():
    obj = json.loads('{"n": 3, "entries": [[0, 2, 0.25], [1, 2, -0.5]]}')
    J = isf.core.matrix_from_json(obj)
    assert J[0, 2] == J[2, 0] == 0.25 and J[1, 2] == J[2, 1] == -0.5
    assert np.count_nonzero(J) == 4


def test_spin_json_round_trip(tmp_path):
    x = np.array([1, -1, -1, 1])
    path = tmp_path / "x.json"
    isf.core.save_spins(path, x)
    assert np.array_equal(isf.core.load_spins(path), x)


# an int64 cast would read 1.5 as 1 and True as 1; each is refused with
# the entry named, before any cast
@pytest.mark.parametrize("bad", [1.5, True, "1", 0])
def test_spin_json_rejects_entries_that_are_not_exactly_one(tmp_path, bad):
    path = tmp_path / "x.json"
    path.write_text(json.dumps([1, -1, bad, -1.9]))
    with pytest.raises(ValueError) as info:
        isf.core.load_spins(path)
    assert f"entry {bad!r} is not" in str(info.value)
