"""Differential tests: the matrix identities of `actions` against element sums.

Both sides of every identity are compared as matrices with
`actions_reference`, which evaluates the same formulas element by element
with dense products and explicit Sweedler sums.  The inputs are the
shipped partial module algebras and single-entry perturbations of them:
of ``action`` and ``alg_mult`` for the axioms, the smash projector and the
convolution, and of phi and of the globalization for the identities of
`globalize` and `morita_context`.  Every identity must fail on some
perturbation, so that the comparison also covers sides that differ.
"""

from fractions import Fraction

import pytest

import actions_reference as ref
from hopf_partial import actions as ac
from hopf_partial import hopf as hp
from hopf_partial import partial as pm
from hopf_partial.demos import shipped_partial_algebras
from hopf_partial.linalg import Mat

F = Fraction
SHIPPED = shipped_partial_algebras()
NAMES = list(SHIPPED)


def bumped(mat, r, c, by=F(1, 2)):
    rows = [list(row) for row in mat.entries]
    rows[r][c] += by
    return Mat(rows, cols=mat.cols)


def perturbed_algebras(b):
    """b with one entry of one action matrix or of alg_mult changed."""
    out = []
    for i, a in enumerate(b.action):
        for r in range(b.dim):
            for c in range(b.dim):
                action = list(b.action)
                action[i] = bumped(a, r, c)
                out.append(ac.PartialModuleAlgebra.build(
                    b.hopf, b.alg_mult, b.alg_unit, action))
    for x in range(b.dim):
        for y in range(b.dim):
            for z in range(b.dim):
                mult = [[list(row) for row in plane] for plane in b.alg_mult]
                mult[x][y][z] += 1
                out.append(ac.PartialModuleAlgebra.build(
                    b.hopf, mult, b.alg_unit, b.action))
    return out


def perturbed_globalizations(gb):
    """gb with one entry of one action matrix or of alg_mult changed."""
    out = []
    for i, a in enumerate(gb.action):
        action = list(gb.action)
        action[i] = bumped(a, i % gb.dim, (i + 1) % gb.dim)
        out.append(ac.GlobalModuleAlgebra(gb.hopf, gb.dim, gb.alg_mult,
                                          tuple(action), gb.unital, gb.alg_unit))
    for x in range(gb.dim):
        mult = [[list(row) for row in plane] for plane in gb.alg_mult]
        mult[x][gb.dim - 1 - x][x] += 1
        out.append(ac.GlobalModuleAlgebra(gb.hopf, gb.dim, hp._freeze3(mult),
                                          gb.action, gb.unital, gb.alg_unit))
    return out


def perturbed_phis(phi):
    return [bumped(phi, r, c) for r in range(phi.rows) for c in range(phi.cols)]


def differs(sides):
    return any(lhs != rhs for lhs, rhs in sides)


@pytest.mark.parametrize("name", NAMES)
def test_axiom_sides_and_witnesses(name):
    b = SHIPPED[name]
    failed = set()
    for alg in [b] + perturbed_algebras(b):
        pa2 = ac._pa2_sides(alg)
        pa3, pa3_primed = ac._pa3_sides(alg, hp.left_mults(alg.alg_mult, alg.dim),
                                        hp.right_mults(alg.alg_mult, alg.dim))
        assert pa2 == ref.pa2_sides(alg)
        assert pa3 == ref.pa3_sides(alg, primed=False)
        assert pa3_primed == ref.pa3_sides(alg, primed=True)
        report = ac.check_partial_action(alg)
        assert report.check_named("PA2").witness == ref.pa2_witness(alg)
        assert report.check_named("PA3").witness == ref.pa3_witness(alg, False)
        assert report.check_named("PA3'").witness == ref.pa3_witness(alg, True)
        failed.update(axiom for axiom, sides in (("PA2", pa2), ("PA3", pa3),
                                                 ("PA3'", pa3_primed))
                      if differs(sides))
    assert not differs(ac._pa2_sides(b))
    assert failed == {"PA2", "PA3", "PA3'"}


@pytest.mark.parametrize("name", NAMES)
def test_smash_projector_and_convolution(name):
    b = SHIPPED[name]
    n = b.dim * b.hopf.dim
    for alg in [b] + perturbed_algebras(b):
        diag = pm.diagonal_action(alg.hopf, alg.action, pm.regular_module(alg.hopf).pi)
        assert ac._smash_projector(alg, ac._smash_operators(alg, diag)) \
            == ref.smash_projector(alg)
        ops = ac._convolution_ops(alg, Mat.identity(n))
        assert ops == [ref.convolution_op(alg, f) for f in Mat.identity(n).col_list()]


@pytest.fixture(scope="module", params=NAMES)
def globalized(request):
    b = SHIPPED[request.param]
    gb, phi, _ = ac.globalize(b)
    return b, gb, phi


def test_phi_expressions_and_q_span(globalized):
    b, gb, phi = globalized
    bs = ac.global_smash(gb)
    pr = ac.partial_smash(b).projector
    right = hp.right_mults(bs.mult, bs.dim)
    fails = []
    for p in [phi] + perturbed_phis(phi):
        exprs = ac._phi_expressions(b, p, pr, right)
        assert exprs == ref.phi_expressions(b, gb, p)
        assert ac._q_generators(bs, p) == ref.q_generators(gb, p)
        fails.append(not exprs[0] == exprs[1] == exprs[2])
    assert not fails[0] and any(fails)


def test_evaluated_and_idempotency_sides(globalized):
    b, gb, phi = globalized
    inputs = ([(gb, phi)] + [(gb, p) for p in perturbed_phis(phi)]
              + [(g, phi) for g in perturbed_globalizations(gb)])
    evaluated, idempotent = [], []
    for g, p in inputs:
        sides = ac._evaluated_sides(b, g, p)
        assert sides == ref.evaluated_sides(b, g, p)
        evaluated.append(differs(sides))
        sides = ac._idempotency_sides(b, g, p)
        assert sides == ref.idempotency_sides(b, g, p)
        idempotent.append(differs(sides))
    assert not evaluated[0] and any(evaluated)
    assert not idempotent[0] and any(idempotent)
