from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopf_partial import linalg as la

F = Fraction

scalars = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def matrices(rows, cols):
    return st.lists(st.lists(scalars, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(la.Mat)


small_square = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: matrices(n, n))


def test_kernel_identity_is_zero():
    assert la.kernel_basis(la.Mat.identity(3)).dim == 0


def test_kernel_of_zero_map_is_everything():
    assert la.kernel_basis(la.Mat.zeros(2, 3)).dim == 3


def test_kernel_rank_one():
    k = la.kernel_basis(la.Mat([[1, 1], [2, 2]]))
    assert k.basis == la.Mat([[1, -1]])


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: matrices(r, c))))
@settings(max_examples=60, deadline=None)
def test_rank_nullity(a):
    assert la.rank(a) + la.kernel_basis(a).dim == a.cols


@given(small_square)
@settings(max_examples=40, deadline=None)
def test_kernel_vectors_are_killed(a):
    ker = la.kernel_basis(a)
    for v in ker.vectors():
        assert not any(a.apply(v))


def test_span_closure_fixed_by_identity():
    seed = la.Subspace.from_vectors(3, [(1, 0, 0)])
    assert la.span_closure(seed, [la.Mat.identity(3)]) == seed


def test_span_closure_cyclic_shift_fills_space():
    seed = la.Subspace.from_vectors(3, [(1, 0, 0)])
    shift = la.Mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert la.span_closure(seed, [shift]).dim == 3


def test_first_unstable_names_the_first_operator_leaving_the_subspace():
    sub = la.Subspace.from_vectors(3, [(1, 0, 0)])
    diag = la.Mat([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    shift = la.Mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert la.first_unstable(sub, [diag, la.Mat.identity(3)]) is None
    assert la.first_unstable(sub, [diag, shift, shift]) == 1
    assert la.first_unstable(la.Subspace.zero(3), [shift]) is None


def test_first_nonzero_col():
    assert la.first_nonzero_col(la.Mat([[0, 0, "1/2"], [0, 3, 0]])) == 1
    assert la.first_nonzero_col(la.Mat([[0, 0], [0, 0]])) is None
    assert la.first_nonzero_col(la.Mat([[0, 0, 0], [0, 0, -1]])) == 2
    # a matrix with no rows has only zero columns, one with no columns none
    assert la.first_nonzero_col(la.Mat.zeros(0, 3)) is None
    assert la.first_nonzero_col(la.Mat.zeros(3, 0)) is None
    assert la.first_nonzero_col(la.Mat.zeros(0, 0)) is None


@given(small_square, small_square)
@settings(max_examples=30, deadline=None)
def test_span_closure_idempotent(a, b):
    if a.rows != b.rows:
        return
    n = a.rows
    seed = la.Subspace.from_vectors(n, [la.unit_vec(n, 0)])
    once = la.span_closure(seed, [a, b])
    twice = la.span_closure(once, [a, b])
    assert once.basis == twice.basis


def test_quotient_of_zero_subspace_is_identity():
    q, dim = la.quotient_map(3, la.Subspace.zero(3))
    assert q == la.Mat.identity(3) and dim == 3


def test_quotient_by_full_space_is_trivial():
    q, dim = la.quotient_map(3, la.Subspace.full(3))
    assert dim == 0 and q.rows == 0 and q.cols == 3


def test_quotient_kills_exactly_the_subspace():
    w = la.Subspace.from_vectors(3, [(1, 1, 0)])
    q, dim = la.quotient_map(3, w)
    assert dim == 2
    assert q.apply((1, 1, 0)) == (F(0), F(0))
    assert la.rank(q) == 2
    assert la.kernel_basis(q) == w


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=30, deadline=None)
def test_quotient_section_is_right_inverse(n, data):
    vecs = data.draw(st.lists(st.lists(scalars, min_size=n, max_size=n),
                              max_size=n))
    w = la.Subspace.from_vectors(n, vecs)
    q, dim = la.quotient_map(n, w)
    section = la.quotient_section(n, w)
    assert q * section == la.Mat.identity(dim)


def test_reshape_refills_the_entries_row_major():
    a = la.Mat([[1, "1/2"], [3, 4], [5, 6]])
    flat = la.reshape(a, 6, 1)
    assert flat.col(0) == tuple(x for row in a.entries for x in row)
    assert la.reshape(flat, 3, 2) == a
    assert la.reshape(a, 2, 3) == la.Mat([[1, "1/2", 3], [4, 5, 6]])
    assert la.reshape(la.Mat.zeros(0, 3), 3, 0) == la.Mat.zeros(3, 0)
    with pytest.raises(la.ShapeError):
        la.reshape(a, 4, 2)


def test_col_is_the_canonical_one_column_matrix():
    assert la._col(("1/2", 0, F(-1, 3))) == la.Mat([["1/2"], [0], [F(-1, 3)]])
    assert la._col(()) == la.Mat.zeros(0, 1)


def test_kron_of_identities():
    assert la.kron(la.Mat.identity(2), la.Mat.identity(3)) == la.Mat.identity(6)


def test_kron_with_zero():
    assert la.kron(la.Mat([[1, 2]]), la.Mat.zeros(2, 2)).is_zero()


def test_kron_hand_example():
    assert la.kron(la.Mat([[0, 1], [0, 0]]), la.Mat([[2]])) == la.Mat([[0, 2], [0, 0]])


@given(matrices(2, 2), matrices(2, 2), matrices(2, 2))
@settings(max_examples=25, deadline=None)
def test_kron_associative(a, b, c):
    assert la.kron(la.kron(a, b), c) == la.kron(a, la.kron(b, c))


@given(matrices(2, 2), matrices(2, 2), matrices(2, 2), matrices(2, 2))
@settings(max_examples=25, deadline=None)
def test_kron_multiplicative(a, b, c, d):
    assert la.kron(a, b) * la.kron(c, d) == la.kron(a * c, b * d)


def test_operations_are_deterministic():
    a = la.Mat([[1, 2, 3], [4, 5, 6], [7, 8, F(9, 2)]])
    assert la.rref(a) == la.rref(a)
    assert la.kernel_basis(a) == la.kernel_basis(a)
    seed = la.column_space(a)
    assert la.span_closure(seed, [a]) == la.span_closure(seed, [a])


def test_no_floats_allowed():
    with pytest.raises(TypeError):
        la.frac(0.5)
    with pytest.raises(TypeError):
        la.Mat([[0.5]])


def test_int_row_reads_integer_rows_as_they_are():
    row = (3, -6, 0)
    num, den = la._int_row(row)
    assert (num, den) == ([3, -6, 0], 1) and type(num) is list
    # bools, strings and Fractions are coerced; a float among ints raises
    assert la._int_row((True, 2)) == ([1, 2], 1)
    assert la._int_row((1, "1/2", F(-2, 3))) == ([6, 3, -4], 6)
    with pytest.raises(TypeError):
        la._int_row((1, 0.5))
    assert la.Mat([[2, 4], [0, 6]]) == la.Mat([[F(2), "4"], [0, 6]])


def test_solve_and_inverse():
    a = la.Mat([[2, 1], [1, 1]])
    x = la.solve(a, (3, 2))
    assert x == (F(1), F(1))
    assert la.inverse(a) * a == la.Mat.identity(2)
    assert la.solve(la.Mat([[1, 1], [1, 1]]), (0, 1)) is None
    with pytest.raises(ValueError):
        la.inverse(la.Mat([[1, 1], [1, 1]]))


def test_solve_matrix_eliminates_once_for_all_columns(monkeypatch):
    widths = []
    original = la._eliminate

    def counted(rows, n_cols):
        widths.append(n_cols)
        return original(rows, n_cols)

    monkeypatch.setattr(la, "_eliminate", counted)
    a = la.Mat([[2, 1], [1, 1], [0, 3]])
    x = la.Mat([[1, 0, 2, -1, F(1, 2)], [0, 1, 1, 1, 3]])
    assert la.solve_matrix(a, a * x) == x
    assert widths == [a.cols + x.cols]


def test_subspace_membership_and_canonical_equality():
    s1 = la.Subspace.from_vectors(3, [(1, 1, 0), (0, 0, 1)])
    s2 = la.Subspace.from_vectors(3, [(2, 2, 2), (1, 1, -1)])
    assert s1 == s2
    assert s1.contains((3, 3, -5))
    assert not s1.contains((1, 0, 0))


def test_restrict_operator_rejects_non_invariant():
    op = la.Mat([[0, 1], [1, 0]])
    sub = la.Subspace.from_vectors(2, [(1, 0)])
    with pytest.raises(ValueError):
        la.restrict_operators([op], sub)
