"""Differential tests: the structure tables and matrices against the dense reference.

The associativity witness and the Sweedler terms read the sparse tables;
products and the unit witness read the left multiplications L_s of
`hopf.left_mults`.  All must come out equal to `dense_structure`, the
dense element-wise routines they replaced, on random structure constants,
on single-entry perturbations of the builtins, and on the partial and
global smash products of the shipped partial module algebras.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dense_structure as ref
from hopf_partial import actions as ac
from hopf_partial import hopf as hp
from hopf_partial import partial as pm
from hopf_partial.demos import shipped_partial_algebras
from hopf_partial.linalg import Mat

F = Fraction

# zeros dominate, so that random constants are often associative somewhere
entries = st.sampled_from([0, 0, 0, 0, 0, 1, -1, F(1, 2), F(-1, 2)])
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
    assert hp._associativity_witness(hp._mult_terms(mult)) \
        == ref.associativity_witness(mult)
    if unit is not None:
        assert hp._unit_witness(left, unit) == ref.unit_witness(mult, unit)
    for u, v in zip(us, vs):
        assert hp.mult_by(left, u).apply(v) == ref.alg_prod(mult, u, v)


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


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(hp.BUILTIN_NAMES), st.data())
def test_single_entry_perturbations_of_builtins(name, data):
    h = hp.builtin(name)
    d = h.dim
    i, j, k = (data.draw(st.integers(min_value=0, max_value=d - 1)) for _ in range(3))
    value = F(data.draw(entries))
    plane = "mult" if data.draw(st.booleans()) else "comult"
    cube = [[list(row) for row in p] for p in getattr(h, plane)]
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
            for u in us:
                left = hp.mult_by(s.left, u)
                assert [left.apply(v) for v in us] \
                    == [ref.alg_prod(s.mult, u, v) for v in us]


def test_perturbed_global_smash_witnesses(smash_algebras):
    for name, _, bs in smash_algebras:
        for (i, j, k) in ((0, 0, 0), (bs.dim - 1, 0, bs.dim - 1), (1, 1, 0)):
            cube = [[list(row) for row in p] for p in bs.mult]
            cube[i][j][k] += F(1, 2)
            cube = hp._freeze3(cube)
            witness = hp._associativity_witness(hp._mult_terms(cube))
            assert witness is not None, name
            assert witness == ref.associativity_witness(cube), name
            if bs.unit is not None:
                assert hp._unit_witness(hp.left_mults(cube, bs.dim), bs.unit) \
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
        for u in vecs:
            left = hp.mult_by(ops, u)
            for v in vecs:
                assert left.apply(v) \
                    == ref.smash_product(b.hopf, b.alg_mult, b.action, u, v)
