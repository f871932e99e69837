"""Differential tests: the integer core of `linalg` against the Fraction reference.

Every primitive must return the same exact matrices, vectors, pivots,
subspaces and errors as `fraction_linalg`, the plain Fraction
implementation it replaced.  Inputs mix entries written as int, str and
Fraction, negative and coprime denominators, zero matrices, low-rank
products, and shapes with zero rows or zero columns.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_linalg as ref
from hopf_partial import linalg as la

F = Fraction

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)
numbers = st.one_of(st.just(0), st.integers(min_value=-6, max_value=6), fractions)
raw_scalars = st.one_of(numbers, fractions.map(str))
dims = st.integers(min_value=0, max_value=4)


def raw_matrix(rows, cols):
    return st.lists(st.lists(raw_scalars, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


nonzeros = st.one_of(st.just(1), numbers.filter(bool), fractions.filter(bool).map(str))


@st.composite
def sparse_row(draw, cols):
    """A row with 0, 1, 2 or all of its entries nonzero; a lone nonzero
    entry is 1 or any other number."""
    row = [0] * cols
    support = draw(st.sampled_from([0, 1, 2, cols]))
    for k in draw(st.permutations(range(cols)))[:support]:
        row[k] = draw(nonzeros)
    return row


@st.composite
def entries(draw, rows=None, cols=None):
    """Raw entries of a rows x cols matrix: random, zero, of rank <= 2, or
    sparse (rows with 0, 1, 2 or all entries nonzero)."""
    rows = draw(dims) if rows is None else rows
    cols = draw(dims) if cols is None else cols
    kind = draw(st.sampled_from(["random", "zero", "low rank", "sparse"]))
    if kind == "sparse":
        return [draw(sparse_row(cols)) for _ in range(rows)]
    if kind == "zero":
        return [[draw(st.sampled_from([0, "0", F(0), "0/5"])) for _ in range(cols)]
                for _ in range(rows)]
    if kind == "random":
        return draw(raw_matrix(rows, cols))
    inner = draw(st.integers(min_value=0, max_value=2))
    a = ref.Mat(draw(raw_matrix(rows, inner)), cols=inner)
    b = ref.Mat(draw(raw_matrix(inner, cols)), cols=cols)
    return [list(r) for r in (a * b).entries]


def both(rows_of_entries, cols):
    return la.Mat(rows_of_entries, cols=cols), ref.Mat(rows_of_entries, cols=cols)


@st.composite
def pairs(draw, rows=None, cols=None):
    """The same matrix on both backends."""
    rows = draw(dims) if rows is None else rows
    cols = draw(dims) if cols is None else cols
    return both(draw(entries(rows, cols)), cols)


def vectors(n, scalars=raw_scalars):
    return st.lists(scalars, min_size=n, max_size=n)


def numeric_vectors(n):
    """Vectors for `apply`, which takes ints and Fractions only."""
    return vectors(n, numbers)


def assert_canonical(m):
    assert all(type(x) is int for row in m.num for x in row)
    assert type(m.den) is int and m.den > 0
    assert gcd(m.den, *(x for row in m.num for x in row)) == 1
    if m.is_zero():
        assert m.den == 1


def assert_same(new, old):
    assert isinstance(new, la.Mat)
    assert (new.rows, new.cols) == (old.rows, old.cols)
    assert new.entries == old.entries
    assert all(type(x) is Fraction for row in new.entries for x in row)
    assert_canonical(new)


def assert_same_subspace(new, old):
    assert new.ambient_dim == old.ambient_dim
    assert_same(new.basis, old.basis)


SETTINGS = settings(max_examples=60, deadline=None)


# -- construction and views -------------------------------------------------------

@given(pairs())
@SETTINGS
def test_views_match(pair):
    new, old = pair
    assert_same(new, old)
    for i in range(old.rows):
        assert new.row(i) == old.entries[i]
        for j in range(old.cols):
            assert new[i, j] == old[i, j] and type(new[i, j]) is Fraction
    assert new.col_list() == old.col_list()
    assert new.is_zero() == old.is_zero()


def test_equal_matrices_written_differently_agree_on_eq_and_hash():
    spellings = [[[1, "2/4"], [0, "-6/4"]],
                 [[F(1), F(1, 2)], [F(0), F(-3, 2)]],
                 [["3/3", "1/2"], ["0/7", "-3/2"]]]
    mats = [la.Mat(s) for s in spellings]
    assert all(m == mats[0] and hash(m) == hash(mats[0]) for m in mats)
    assert (mats[0].num, mats[0].den) == (((2, 1), (0, -3)), 2)
    zeros = [la.Mat([[0, "0/3"]]), la.Mat([[F(0), "0"]]), la.Mat.zeros(1, 2),
             la.Mat([[F(1, 3), 1]]).scale(0), la.Mat([[F(1, 3), 2]]) - la.Mat([["1/3", 2]])]
    assert all(z == zeros[0] and hash(z) == hash(zeros[0]) and z.den == 1 for z in zeros)
    assert la.Mat([], cols=2) == la.Mat.zeros(0, 2) != la.Mat.zeros(0, 3)


def test_floats_are_rejected():
    for bad in ([[0.5]], [[1, 2.0]]):
        with pytest.raises(TypeError):
            la.Mat(bad)
    with pytest.raises(TypeError):
        la.Mat.identity(2).scale(0.5)


def test_zero_row_and_zero_column_shapes():
    empty_rows, empty_cols = la.Mat([], cols=3), la.Mat([[], []])
    assert (empty_rows.rows, empty_rows.cols, empty_rows.entries) == (0, 3, ())
    assert (empty_cols.rows, empty_cols.cols, empty_cols.entries) == (2, 0, ((), ()))
    assert empty_rows.transpose() == la.Mat([[], [], []])
    assert (empty_cols * empty_rows).is_zero() and (empty_cols * empty_rows).cols == 3
    assert la.Mat.from_cols([], 2) == empty_cols


# -- arithmetic ---------------------------------------------------------------

@given(st.data())
@SETTINGS
def test_products_match(data):
    wide = st.integers(min_value=0, max_value=8)
    r, k, c = data.draw(wide), data.draw(wide), data.draw(wide)
    (a, ra), (b, rb) = data.draw(pairs(r, k)), data.draw(pairs(k, c))
    assert_same(a * b, ra * rb)


@pytest.mark.parametrize("scale", [1, "1/2", "-3/7"])
def test_every_row_kind_of_the_product_matches(scale):
    # rows of the left factor: zero, a lone 1, a lone entry other than 1,
    # two nonzero entries (sparse) and all nonzero (dense)
    left = [[0, 0, 0, 0], [0, 0, 1, 0], [0, "-3/2", 0, 0], [2, 0, 0, "1/3"],
            [1, -1, 2, "5/6"], [0, 4, 0, 0]]
    right = [[1, 2, "1/2"], [0, -1, 3], ["2/3", 0, 1], [4, 5, 0]]
    (a, ra), (b, rb) = both(left, 4), both(right, 3)
    a, ra = a.scale(scale), ra.scale(scale)
    assert_same(a * b, ra * rb)
    assert_same(b.transpose() * a.transpose(), rb.transpose() * ra.transpose())
    for rows, inner, cols in ((0, 4, 3), (6, 0, 3), (6, 4, 0), (0, 0, 0)):
        (x, rx) = both([row[:inner] for row in left[:rows]], inner)
        (y, ry) = both([row[:cols] for row in right[:inner]], cols)
        assert_same(x * y, rx * ry)


@given(st.data())
@SETTINGS
def test_sums_scales_and_transposes_match(data):
    r, c = data.draw(dims), data.draw(dims)
    (a, ra), (b, rb) = data.draw(pairs(r, c)), data.draw(pairs(r, c))
    s = data.draw(raw_scalars)
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(a.scale(s), ra.scale(s))
    assert_same(-a, -ra)
    assert_same(a.transpose(), ra.transpose())
    v = data.draw(numeric_vectors(c))
    assert a.apply(v) == ra.apply(v)
    assert all(type(x) is Fraction for x in a.apply(v))
    with pytest.raises(la.ShapeError):
        a.apply(v + [1])


@given(pairs(), pairs())
@SETTINGS
def test_kron_matches(a, b):
    assert_same(la.kron(a[0], b[0]), ref.kron(a[1], b[1]))


@given(st.data())
@SETTINGS
def test_stacks_match(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    r = data.draw(dims)
    blocks = [data.draw(pairs()) for _ in range(n)]
    assert_same(la.block_diag([m for m, _ in blocks]),
                ref.block_diag([m for _, m in blocks]))
    rowed = [data.draw(pairs(rows=r)) for _ in range(n)]
    assert_same(la.hstack([m for m, _ in rowed]), ref.hstack([m for _, m in rowed]))
    coled = [data.draw(pairs(cols=r)) for _ in range(n)]
    assert_same(la.vstack([m for m, _ in coled]), ref.vstack([m for _, m in coled]))


# -- elimination ----------------------------------------------------------------

@given(pairs())
@SETTINGS
def test_rref_and_rank_match(pair):
    a, ra = pair
    red, pivots = la.rref(a)
    ref_red, ref_pivots = ref.rref(ra)
    assert pivots == ref_pivots
    assert_same(red, ref_red)
    assert la.rank(a) == ref.rank(ra)


@st.composite
def systems(draw):
    """a on both backends, a vector b and a matrix B on both backends."""
    a, ra = draw(pairs())
    # a consistent right-hand side half of the time
    if draw(st.booleans()):
        b = ra.apply(draw(numeric_vectors(ra.cols)))
    else:
        b = draw(vectors(ra.rows))
    return a, ra, b, draw(pairs(a.rows, draw(dims)))


def explicit_system(a, cols, b, rhs, rhs_cols):
    """An explicit input of test_solve_matches."""
    return (*both(a, cols), b, both(rhs, rhs_cols))


@given(systems())
@example(explicit_system([], 3, [], [], 2))
@example(explicit_system([[1, 2], [3, 4]], 2, [1, 0], [[], []], 0))
# every column of B is consistent except the last, so X is None
@example(explicit_system([[1, 2], [2, 4]], 2, [1, 3], [[1, 2, 0], [2, 4, 1]], 3))
@SETTINGS
def test_solve_matches(system):
    a, ra, b, (b_new, b_ref) = system
    assert la.solve(a, b) == ref.solve(ra, b)
    x, rx = la.solve_matrix(a, b_new), ref.solve_matrix(ra, b_ref)
    assert (x is None) == (rx is None)
    if x is not None:
        assert_same(x, rx)
        assert_same(la.solve_matrix(a, a * x), ref.solve_matrix(ra, ra * rx))


@given(st.integers(min_value=0, max_value=4).flatmap(lambda n: pairs(n, n)))
@example(both([], 0))
@SETTINGS
def test_inverse_matches_including_singular(pair):
    a, ra = pair
    try:
        expected = ref.inverse(ra)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            la.inverse(a)
    else:
        assert_same(la.inverse(a), expected)


@st.composite
def operator_families(draw):
    """Entries of an n x k inclusion and of up to three n x n operators.

    Three operators in four have the form incl R W, whose image lies in
    the span of incl, so that invariant families are common.
    """
    n, k = draw(dims), draw(dims)
    incl = draw(entries(n, k))
    ref_incl = ref.Mat(incl, cols=k)
    family = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if draw(st.integers(min_value=0, max_value=3)):
            r = ref.Mat(draw(raw_matrix(k, k)), cols=k)
            w = ref.Mat(draw(raw_matrix(k, n)), cols=n)
            family.append([list(row) for row in (ref_incl * r * w).entries])
        else:
            family.append(draw(entries(n, n)))
    return n, k, incl, family


@given(operator_families())
@example((2, 1, [[1], [0]], []))
@example((2, 0, [[], []], [[[1, 2], [3, 4]]]))
@example((2, 2, [[1, 2], [0, "1/3"]],
          [[[1, 2], [3, 4]], [["-1/2", 0], [5, 1]], [[0, 1], [1, 0]]]))
# invariant under the first two operators, not under the last
@example((2, 1, [[1], [0]], [[[2, 0], [0, 3]], [[1, 5], [0, 7]], [[0, 1], [1, 0]]]))
@SETTINGS
def test_restrict_operators_matches(family):
    # the operators on the span of incl's columns, in its echelon basis
    n, k, incl_entries, op_entries = family
    incl, ref_incl = both(incl_entries, k)
    sub = la.column_space(incl)
    ref_basis = ref.column_space(ref_incl).basis.transpose()
    ops = [both(e, n) for e in op_entries]
    expected = [ref.solve_matrix(ref_basis, op * ref_basis) for _, op in ops]
    if any(x is None for x in expected):
        with pytest.raises(ValueError, match="not invariant"):
            la.restrict_operators([op for op, _ in ops], sub)
        return
    got = la.restrict_operators([op for op, _ in ops], sub)
    assert type(got) is tuple and len(got) == len(expected)
    for new, old in zip(got, expected):
        assert_same(new, old)


@given(pairs())
@SETTINGS
def test_kernel_and_column_space_match(pair):
    a, ra = pair
    assert_same_subspace(la.kernel_basis(a), ref.kernel_basis(ra))
    assert_same_subspace(la.column_space(a), ref.column_space(ra))


@given(st.data())
@SETTINGS
def test_span_closure_matches(data):
    n = data.draw(dims)
    seed = data.draw(st.lists(vectors(n), max_size=2))
    ops = [data.draw(pairs(n, n)) for _ in range(data.draw(st.integers(0, 3)))]
    new = la.span_closure(la.Subspace.from_vectors(n, seed), [op for op, _ in ops])
    old = ref.span_closure(ref.Subspace.from_vectors(n, seed), [op for _, op in ops])
    assert_same_subspace(new, old)


def matrix_units(n, *pairs_ij):
    """The n x n matrix with ones at the given (row, column) positions."""
    return [[int((i, j) in pairs_ij) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n, ops, dim", [
    # the shift grows the span by one vector a round
    (5, [matrix_units(5, (1, 0), (2, 1), (3, 2), (4, 3))], 5),
    # round 1 adds e1 and e2 at once; only the second new vector leads on to e3
    (4, [matrix_units(4, (1, 0)), matrix_units(4, (2, 0), (3, 2))], 4),
])
def test_span_closure_grows_over_several_rounds(n, ops, dim):
    seed = [(F(1, 3),) + (0,) * (n - 1)]
    new = la.span_closure(la.Subspace.from_vectors(n, seed), [la.Mat(op) for op in ops])
    old = ref.span_closure(ref.Subspace.from_vectors(n, seed), [ref.Mat(op) for op in ops])
    assert new.dim == dim
    assert_same_subspace(new, old)


@given(st.data())
@SETTINGS
def test_quotient_map_matches(data):
    n = data.draw(dims)
    vecs = data.draw(st.lists(vectors(n), max_size=4))
    q, dim = la.quotient_map(n, la.Subspace.from_vectors(n, vecs))
    rq, rdim = ref.quotient_map(n, ref.Subspace.from_vectors(n, vecs))
    assert dim == rdim
    assert_same(q, rq)


# -- subspaces -----------------------------------------------------------------

@given(st.data())
@SETTINGS
def test_subspace_operations_match(data):
    n = data.draw(dims)
    vecs1 = data.draw(st.lists(vectors(n), max_size=4))
    vecs2 = data.draw(st.lists(vectors(n), max_size=4))
    s1, r1 = la.Subspace.from_vectors(n, vecs1), ref.Subspace.from_vectors(n, vecs1)
    s2, r2 = la.Subspace.from_vectors(n, vecs2), ref.Subspace.from_vectors(n, vecs2)
    assert_same_subspace(s1, r1)
    assert_same_subspace(s1.intersect(s2), r1.intersect(r2))

    inside = (r1.basis.transpose().apply(data.draw(numeric_vectors(r1.dim)))
              if r1.dim else (0,) * n)
    for v in (inside, data.draw(vectors(n))):
        assert s1.contains(v) == r1.contains(v)
        try:
            expected = r1.coords(v)
        except ValueError:
            with pytest.raises(ValueError):
                s1.coords(v)
        else:
            assert s1.coords(v) == expected
    with pytest.raises(la.ShapeError):
        s1.contains(list(inside) + [0])
