"""Differential tests: the structure tables and matrices against the dense reference.

The Sweedler terms read the sparse tables; products, the unit witness and
the associativity witness read the left multiplications L_s of
`hopf.left_mults`, the last one as integers over their common
denominator.  All must come out equal to `dense_structure`, the dense
element-wise routines they replaced, on random structure constants with
denominators 1, 2, 3 and 6, on rescaled builtins (associative, with L_s
of different denominators) and their single-entry perturbations, and on
the partial and global smash products of the shipped partial module
algebras, also perturbed by 1/2, 1/3 and 1/6.

The derived structure each algebra object keeps (``left`` and ``right``,
some of them stored by the builder that found them) must equal
`hopf.left_mults` of the object's own constants and the R_s read off
those constants column by column (`dense_structure.right_mults`).
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dense_structure as ref
from hopf_partial import actions as ac
from hopf_partial import hopf as hp
from hopf_partial import partial as pm
from hopf_partial.demos import graded_group_algebra, shipped_partial_algebras
from hopf_partial.linalg import Mat, _col
from test_actions import adjoint_action_algebra
from test_actions_differential import perturbed_globalizations

F = Fraction

# zeros dominate, so that random constants are often associative somewhere
entries = st.sampled_from([0] * 9 + [1, -1, F(1, 2), F(-1, 2), F(1, 3), F(-2, 3),
                                     F(1, 6), F(-5, 6)])
# e_s -> c_s e_s keeps an algebra associative and gives its L_s different
# denominators
scales = st.sampled_from([1, -1, 2, F(1, 2), 3, F(-1, 3), F(2, 3), 6, F(1, 6), F(-3, 2)])
dims = st.integers(min_value=0, max_value=5)


def vectors(dim):
    return st.lists(entries, min_size=dim, max_size=dim).map(
        lambda v: tuple(F(x) for x in v))


def cubes(dim):
    return st.lists(st.lists(vectors(dim), min_size=dim, max_size=dim),
                    min_size=dim, max_size=dim)


def assert_same_algebra(mult, unit, us, vs):
    """Every sparse routine agrees with the dense one on these constants."""
    left = hp.left_mults(mult, len(mult))
    assert hp._associativity_witness(left) == ref.associativity_witness(mult)
    if unit is not None:
        assert hp._unit_witness(left, _col(unit)) == ref.unit_witness(mult, unit)
    for u, v in zip(us, vs):
        assert hp.mult_by(left, _col(u))[0].apply(v) == ref.alg_prod(mult, u, v)


@st.composite
def algebras(draw):
    dim = draw(dims)
    n = draw(st.integers(min_value=1, max_value=4))
    return (draw(cubes(dim)), draw(vectors(dim)),
            draw(st.lists(vectors(dim), min_size=n, max_size=n)),
            draw(st.lists(vectors(dim), min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(algebras())
def test_random_constants(algebra):
    assert_same_algebra(*algebra)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_random_coalgebras(data):
    dim = data.draw(dims)
    comult = data.draw(cubes(dim))
    ident = Mat.identity(dim)
    zero = (F(0),) * dim
    h = hp.HopfAlgebraData(dim, hp._freeze3([[zero] * dim] * dim), zero,
                           hp._freeze3(comult), zero, ident, ident)
    for i in range(dim):
        assert list(h.comult_terms[i]) == ref.comult_pairs(comult, i)


def rescaled(mult, c):
    """The constants of the same algebra in the basis c_s e_s:
    (c_i e_i)(c_j e_j) = sum_k (c_i c_j mult[i][j][k] / c_k) c_k e_k."""
    n = len(mult)
    return [[[F(c[i] * c[j] * mult[i][j][k], c[k]) for k in range(n)]
             for j in range(n)] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(hp.BUILTIN_NAMES), st.data())
def test_single_entry_perturbations_of_builtins(name, data):
    h = hp.builtin(name)
    d = h.dim
    i, j, k = (data.draw(st.integers(min_value=0, max_value=d - 1)) for _ in range(3))
    value = F(data.draw(entries))
    plane = "mult" if data.draw(st.booleans()) else "comult"
    cube = [[list(row) for row in p] for p in getattr(h, plane)]
    if plane == "mult" and data.draw(st.booleans()):
        cube = rescaled(cube, [data.draw(scales) for _ in range(d)])
    cube[i][j][k] = value
    cube = hp._freeze3(cube)
    if plane == "comult":
        bad = hp.HopfAlgebraData(d, h.mult, h.unit, cube, h.counit,
                                 h.antipode, h.antipode_inv)
        assert [list(bad.comult_terms[p]) for p in range(d)] \
            == [ref.comult_pairs(cube, p) for p in range(d)]
    else:
        us = [data.draw(vectors(d)) for _ in range(3)]
        assert_same_algebra(cube, h.unit, us, list(reversed(us)))


@pytest.fixture(scope="module")
def smash_algebras():
    """(name, partial smash, global smash) of every shipped algebra."""
    out = []
    for name, b in shipped_partial_algebras().items():
        out.append((name, ac.partial_smash(b), ac.global_smash(ac.globalize(b)[0])))
    return out


def test_smash_products_of_shipped_algebras(smash_algebras):
    for name, sm, bs in smash_algebras:
        for s in (sm, bs):
            us = [ref.unit_vec(s.dim, i) for i in range(s.dim)]
            us += [tuple(F(x + 1, 2) for x in range(s.dim)),
                   tuple(F((-1) ** x, x % 3 + 1) for x in range(s.dim))]
            assert_same_algebra(s.mult, s.unit, us, list(reversed(us)))
            assert s.left == tuple(hp.left_mults(s.mult, s.dim))
            for u, left in zip(us, hp.mult_by(s.left, Mat.from_cols(us, s.dim))):
                assert [left.apply(v) for v in us] \
                    == [ref.alg_prod(s.mult, u, v) for v in us]


@pytest.mark.parametrize("name", hp.BUILTIN_NAMES)
def test_rescaled_builtins_are_associative(name):
    h = hp.builtin(name)
    for c in ([F(1, 2), F(1, 3), 6, F(1, 6), 2, F(2, 3)][:h.dim],
              [2, F(-1, 3), F(2, 3), F(1, 2), 6, F(1, 6)][:h.dim]):
        mult = rescaled(h.mult, c)
        left = hp.left_mults(mult, h.dim)
        assert len({a.den for a in left}) > 1
        assert hp._associativity_witness(left) is None
        assert ref.associativity_witness(mult) is None


def test_perturbed_global_smash_witnesses(smash_algebras):
    for name, _, bs in smash_algebras:
        for (i, j, k), delta in itertools.product(
                ((0, 0, 0), (bs.dim - 1, 0, bs.dim - 1), (1, 1, 0)),
                (F(1, 2), F(1, 3), F(1, 6))):
            cube = [[list(row) for row in p] for p in bs.mult]
            cube[i][j][k] += delta
            cube = hp._freeze3(cube)
            witness = hp._associativity_witness(hp.left_mults(cube, bs.dim))
            assert witness is not None, name
            assert witness == ref.associativity_witness(cube), name
            if bs.unit is not None:
                assert hp._unit_witness(hp.left_mults(cube, bs.dim), _col(bs.unit)) \
                    == ref.unit_witness(cube, bs.unit), name


@pytest.mark.parametrize("name, alg", list(shipped_partial_algebras().items()))
def test_smash_product_formula(name, alg):
    gb = ac.globalize(alg)[0]
    for b in (alg, gb):
        dim = b.dim * b.hopf.dim
        ops = ac._smash_operators(b, pm.diagonal_action(
            b.hopf, b.action, pm.regular_module(b.hopf).pi))
        vecs = [ref.unit_vec(dim, i) for i in range(dim)]
        vecs.append(tuple(F((-1) ** x * (x + 1), x % 3 + 1) for x in range(dim)))
        for u, left in zip(vecs, hp.mult_by(ops, Mat.from_cols(vecs, dim))):
            for v in vecs:
                assert left.apply(v) \
                    == ref.smash_product(b.hopf, b.alg_mult, b.action, u, v)


def test_derived_structure_of_every_algebra_object(smash_algebras):
    # every shipped algebra is commutative; the adjoint action makes the
    # Sweedler algebra a module algebra on which L_s and R_s differ
    adjoint = adjoint_action_algebra(hp.sweedler_h4())
    shipped = list(shipped_partial_algebras().values())
    graded = graded_group_algebra()
    algebras = [hp.builtin(name) for name in hp.BUILTIN_NAMES]
    algebras += shipped + [adjoint] + [ac.direct_product([b, b]) for b in shipped]
    algebras += [ac.induced_partial_algebra(graded, e)
                 for e in ((F(1, 2), F(1, 2)), (F(1, 2), F(-1, 2)), (1, 0), (0, 0))]
    algebras.append(ac.induced_partial_algebra(adjoint, adjoint.alg_unit))
    for b in shipped + [adjoint]:
        gb = ac.globalize(b)[0]
        algebras += [gb, *perturbed_globalizations(gb)]
    algebras += [s for _, sm, bs in smash_algebras for s in (sm, bs)]
    algebras += [ac.partial_smash(adjoint), ac.global_smash(ac.globalize(adjoint)[0])]
    for alg in algebras:
        table = alg.alg_mult if hasattr(alg, "alg_mult") else alg.mult
        assert alg.left == tuple(hp.left_mults(table, alg.dim))
        assert alg.right == tuple(ref.right_mults(table, alg.dim))
