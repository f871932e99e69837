"""Differential tests: six kernels of the smash and Morita path against their old forms.

`family_kernels_reference` keeps the forms that `first_unstable`,
`_unit_witness`, `_mat_sum`, `Mat.entries` and `col_list`,
`contains_subspace`, the PA2 record of `globalize` and
`dilation._factor_through` replaced.  Each pair must give equal
``num``/``den``, equal witness indices, equal Fractions and equal
exception messages:

* on hypothesis inputs: random matrices, subspaces and families, among
  them zero subspaces, zero operators, full subspaces, subspaces made
  stable by saturation, empty families, single unscaled terms and
  mismatched shapes;
* on every call the constructions make, recorded while `globalize`,
  `partial_smash`, `global_smash`, `zeta_xi` and `morita_context` run,
  and on the product cubes they store, for the shipped partial module
  algebras, on scalar algebras over kS3 (whose
  algebra generators are two of its six basis elements), and on those
  algebras carried to a seeded random basis.

PA2 on the algebra generators decides the same as PA2 on every basis
element whenever the action is global.  The globalizations with one
entry of their product changed keep their global action, and some of
them fail PA2, so the two forms are also compared where PA2 fails.
"""

import sys
from fractions import Fraction
from types import GeneratorType

import pytest
from hypothesis import given, settings, strategies as st

import family_kernels_reference as ref
import gen
from hopf_partial import actions as ac
from hopf_partial import dilation as dl
from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial import partial as pm
from hopf_partial.demos import scalar_algebra, shipped_partial_algebras
from hopf_partial.reports import ValidationError
from test_actions_differential import perturbed_globalizations
from test_linalg_differential import entries, numbers

small = st.integers(min_value=0, max_value=4)
coefficients = st.one_of(st.just(1), numbers)


def assert_same_mat(new, old):
    assert (new.rows, new.cols, new.num, new.den) == (old.rows, old.cols, old.num, old.den)


@st.composite
def mats(draw, rows=None, cols=None):
    rows = draw(small) if rows is None else rows
    cols = draw(small) if cols is None else cols
    return la.Mat(draw(entries(rows, cols)), cols=cols)


# -- entry views -------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(mats())
def test_entries_and_columns_match_the_per_entry_views(m):
    assert m.entries == ref.entries(m)
    assert m.col_list() == ref.col_list(m)
    assert all(type(x) is Fraction for row in m.entries for x in row)
    assert all(type(x) is Fraction for col in m.col_list() for x in col)


def test_equal_numerators_share_one_fraction():
    m = la.Mat([[1, "1/2", 0], ["1/2", 0, "1/2"]])
    rows = m.entries
    assert rows[0][1] is rows[1][0] is rows[1][2]
    assert rows[0][2] is rows[1][1]
    assert la.Mat.zeros(0, 3).col_list() == ref.col_list(la.Mat.zeros(0, 3)) == [()] * 3


# -- linear combinations -------------------------------------------------------

@st.composite
def combinations(draw):
    rows, cols = draw(small), draw(small)
    n = draw(st.integers(min_value=0, max_value=4))
    return [(draw(mats(rows, cols)), draw(coefficients)) for _ in range(n)], rows, cols


@settings(max_examples=100, deadline=None)
@given(combinations())
def test_mat_sum_matches_the_chained_sum(case):
    terms, rows, cols = case
    assert_same_mat(la._mat_sum(terms, rows, cols), ref.mat_sum(terms, rows, cols))
    assert_same_mat(la._mat_sum(iter(terms), rows, cols), ref.mat_sum(terms, rows, cols))


def test_a_single_unscaled_term_is_returned_as_it_is():
    m = la.Mat([[1, "1/2"], [0, 3]])
    assert la._mat_sum([(m, 1)], 2, 2) is m is ref.mat_sum([(m, 1)], 2, 2)
    assert la._mat_sum([(m, Fraction(1))], 2, 2) is m
    assert_same_mat(la._mat_sum([(m, 2)], 2, 2), ref.mat_sum([(m, 2)], 2, 2))


@pytest.mark.parametrize("shapes", [((2, 2), (2, 3)), ((2, 2), (3, 2)), ((1, 0), (0, 1))])
def test_mat_sum_rejects_mismatched_shapes(shapes):
    terms = [(la.Mat.zeros(*shape), 2) for shape in shapes]
    for kernel in (la._mat_sum, ref.mat_sum):
        with pytest.raises(la.ShapeError, match="addition shape mismatch"):
            kernel(terms, 2, 2)


# -- stability -------------------------------------------------------------

@st.composite
def subspaces(draw, n):
    kind = draw(st.sampled_from(["random", "zero", "full"]))
    if kind == "zero":
        return la.Subspace.zero(n)
    if kind == "full":
        return la.Subspace.full(n)
    k = draw(st.integers(min_value=0, max_value=n))
    return la.Subspace.from_vectors(n, [draw(mats(1, n)).entries[0] for _ in range(k)])


@st.composite
def families(draw):
    """(sub, ops) on k^n: random, with zero operators, or with sub replaced
    by its saturation under the ops, so that it is stable."""
    n = draw(st.integers(min_value=0, max_value=4))
    sub = draw(subspaces(n))
    ops = [draw(mats(n, n)) for _ in range(draw(st.integers(min_value=0, max_value=3)))]
    kind = draw(st.sampled_from(["random", "zero ops", "stable", "stable then moved"]))
    if kind == "zero ops":
        ops = [la.Mat.zeros(n, n) for _ in ops]
    elif kind.startswith("stable"):
        sub = la.span_closure(sub, ops)
        if kind == "stable then moved" and 0 < sub.dim < n:
            shift = la.Mat([[int(j == (i + 1) % n) for j in range(n)] for i in range(n)])
            ops = [*ops, shift, *ops]
    return sub, ops


@settings(max_examples=150, deadline=None)
@given(families())
def test_first_unstable_matches_the_per_vector_scan(case):
    sub, ops = case
    assert la.first_unstable(sub, ops) == ref.first_unstable(sub, ops)
    assert la.first_unstable(sub, iter(ops)) == ref.first_unstable(sub, ops)


def test_first_unstable_names_the_operator_of_the_first_failing_column():
    # the first two operators keep the plane z = 0, the third moves only
    # its second basis vector and the fourth its first
    sub = la.Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
    keep = la.Mat([[1, 2, 0], [3, 4, 0], [0, 0, 5]])
    second = la.Mat([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    first = la.Mat([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    for ops in ([keep, keep, second, first], [keep, first, second], [second, keep]):
        assert la.first_unstable(sub, ops) == ref.first_unstable(sub, ops)
    assert la.first_unstable(sub, [keep, keep, second, first]) == 2
    assert la.first_unstable(la.Subspace.full(3), [first]) is None
    assert la.first_unstable(la.Subspace.zero(3), [first]) is None
    assert la.first_unstable(sub, []) is None


@st.composite
def subspace_pairs(draw):
    """(big, small): small random, or spanned by combinations of big's basis."""
    n = draw(st.integers(min_value=0, max_value=4))
    big = draw(subspaces(n))
    if draw(st.booleans()):
        return big, draw(subspaces(n))
    coeffs = draw(mats(2, big.dim))
    return big, la.Subspace.from_vectors(n, (coeffs * big.basis).entries)


@settings(max_examples=100, deadline=None)
@given(subspace_pairs())
def test_contains_subspace_matches_the_per_vector_test(case):
    big, small_ = case
    assert big.contains_subspace(small_) == ref.contains_subspace(big, small_)


def test_contains_subspace_checks_the_ambient_dimension():
    big = la.Subspace.full(2)
    with pytest.raises(la.ShapeError, match="vector length mismatch"):
        big.contains_subspace(la.Subspace.full(3))
    assert big.contains_subspace(la.Subspace.zero(3)) == \
        ref.contains_subspace(big, la.Subspace.zero(3))


# -- units -----------------------------------------------------------------

@st.composite
def unit_cases(draw):
    """L_s of random constants, and a unit that is the true one of a
    rescaled identity algebra, a perturbation of it, or random."""
    n = draw(st.integers(min_value=0, max_value=4))
    kind = draw(st.sampled_from(["random", "diagonal", "diagonal, moved"]))
    if kind == "random":
        left = [draw(mats(n, n)) for _ in range(n)]
        return left, draw(mats(n, 1))
    # e_s e_t = delta_st c_s e_s has unit sum e_s / c_s
    scales = [draw(coefficients.filter(bool)) for _ in range(n)]
    left = [la.Mat([[scales[s] if i == j == s else 0 for j in range(n)] for i in range(n)],
                   cols=n) for s in range(n)]
    unit = la._col([1 / la.frac(c) for c in scales])
    if kind == "diagonal, moved" and n:
        unit = unit + la.Mat([[int(i == n - 1)] for i in range(n)], cols=1)
    return left, unit


@settings(max_examples=100, deadline=None)
@given(unit_cases())
def test_unit_witness_matches_the_per_operator_products(case):
    left, unit = case
    assert hp._unit_witness(left, unit) == ref.unit_witness(left, unit)


# -- factoring a map through a decomposition -------------------------------

def _outcome(kernel, *args):
    """kernel(*args), or the message of the ValidationError it raised."""
    try:
        return kernel(*args)
    except ValidationError as exc:
        return str(exc)


@st.composite
def factorings(draw):
    """dec and target with the same number of columns: random, of full row
    rank, or target = F dec for a random F, so that F exists."""
    r, c, s = draw(small), draw(small), draw(small)
    kind = draw(st.sampled_from(["random", "full row rank", "factors"]))
    dec = draw(mats(r, c))
    if kind != "random" and r <= c and la.rank(dec) < r:
        dec = la.Mat([[int(i == j) for j in range(c)] for i in range(r)], cols=c)
    target = draw(mats(s, c))
    if kind == "factors":
        target = draw(mats(s, r)) * dec
    return dec, target


def assert_same_factor(new, old):
    if isinstance(old, str):
        assert new == old
    else:
        assert_same_mat(new, old)


@settings(max_examples=150, deadline=None)
@given(factorings())
def test_factor_through_matches_rank_then_solve(case):
    dec, target = case
    new = _outcome(dl._factor_through, *case)
    assert_same_factor(new, _outcome(ref.factor_through, *case))
    if not isinstance(new, str):
        assert new * dec == target


@pytest.mark.parametrize("dec, target, outcome", [
    # rank deficient and not factoring: the surjectivity message comes first
    ([[1, 1], [2, 2]], [[1, 0]], "decomposition map is not surjective"),
    ([[1, 1], [2, 2]], [[1, 1]], "decomposition map is not surjective"),
    ([[1, 1]], [[1, 0]], "map is not well defined: kernel containment fails"),
    ([[1, 0, 1], [0, 2, 0]], [[3, 4, 3]], [["3", "2"]]),
])
def test_factor_through_outcomes_and_their_order(dec, target, outcome):
    dec, target = la.Mat(dec), la.Mat(target)
    new = _outcome(dl._factor_through, dec, target)
    assert_same_factor(new, _outcome(ref.factor_through, dec, target))
    assert new == (outcome if isinstance(outcome, str) else la.Mat(outcome))


# -- the constructions ---------------------------------------------------------

def transported(b, r):
    """b in the basis given by the columns of a seeded invertible Q: the
    constants Q^-1 L(Q e_s) Q, the unit Q^-1 1 and the action Q^-1 pi Q."""
    q = gen.rand_invertible(r, b.dim)
    qi = la.inverse(q)
    mult = [(qi * lq * q).col_list() for lq in hp.mult_by(b.left, q)]
    unit = (qi * la._col(b.alg_unit)).col(0)
    return ac.PartialModuleAlgebra.build(b.hopf, mult, unit, [qi * a * q for a in b.action])


def algebras():
    ks3 = hp.builtin("kS3")
    out = dict(shipped_partial_algebras())
    out["kS3-order-3"] = scalar_algebra(ks3, [1, 0, 0, 0, 1, 1])
    out["kS3-counit"] = scalar_algebra(ks3, ks3.counit)
    r = gen.rng("family-kernels")
    for name in ("kC2-dual-mixed-2", "kC2-dual-mixed-3", "sweedler-mixed-2"):
        out[f"{name}-transported"] = transported(out[name], r)
    return out


ALGEBRAS = algebras()


def recording(monkeypatch, name, oracle, same):
    """Every call of the package's function name, wherever it was imported,
    is compared with the oracle on the same arguments; returns the calls."""
    calls = []
    modules = [m for n, m in sys.modules.items()
               if n == "hopf_partial" or n.startswith("hopf_partial.")]
    original = getattr(next(m for m in modules if hasattr(m, name)), name)

    def compared(*args):
        # a generator of terms is read once, for both kernels
        args = tuple(list(a) if isinstance(a, GeneratorType) else a for a in args)
        new, old = _outcome(original, *args), _outcome(oracle, *args)
        same(new, old)
        calls.append(args)
        if isinstance(new, str):
            raise ValidationError(new)
        return new

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, compared)
    dl.standard_dilation.cache_clear()
    return calls


def _equal(new, old):
    assert new == old


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_the_constructions_call_kernels_that_match_the_oracles(monkeypatch, name):
    b = ALGEBRAS[name]
    unstable = recording(monkeypatch, "first_unstable", ref.first_unstable, _equal)
    units = recording(monkeypatch, "_unit_witness", ref.unit_witness, _equal)
    factors = recording(monkeypatch, "_factor_through", ref.factor_through, assert_same_factor)
    sums = recording(monkeypatch, "_mat_sum", ref.mat_sum, assert_same_mat)
    assert ac.check_partial_action(b).ok
    gb, _, report = ac.globalize(b)
    assert report.check_named("action by algebra maps").passed
    assert ref.pa2_holds(gb)
    sm, bs = ac.partial_smash(b), ac.global_smash(gb)
    for cube, left in ((sm.mult, sm.left), (gb.alg_mult, gb.left), (bs.mult, bs.left)):
        assert cube == tuple(ref.entries(a.transpose()) for a in left)
    assert ac.zeta_xi(b)[2].ok
    assert ac.morita_context(b)[2].ok
    assert unstable and units and factors and sums


@pytest.mark.parametrize("name", list(ALGEBRAS)[:5])
def test_pa2_on_the_generators_decides_as_on_every_basis_element(name):
    gb, _, _ = ac.globalize(ALGEBRAS[name])
    gens = pm._algebra_generators(gb.hopf)
    outcomes = []
    for g in [gb, *perturbed_globalizations(gb)]:
        if not pm.is_algebra_map(pm.PartialModule(g.hopf, g.dim, g.action)):
            continue
        on_gens = ac._first_difference(ac._pa2_sides(g, gens), g.dim) is None
        assert on_gens == ref.pa2_holds(g)
        outcomes.append(on_gens)
    assert True in outcomes and False in outcomes
