import dataclasses
import importlib
import os
from fractions import Fraction

import pytest

from hopf_partial import actions as ac
from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial import partial as pm
from hopf_partial.demos import (graded_group_algebra, scalar_algebra,
                                shipped_partial_algebras)
from hopf_partial.reports import ValidationError

import actions_reference as ref
import gen

F = Fraction
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")

DUAL = hp.builtin("kC2-dual")
H4 = hp.sweedler_h4()


def adjoint_action_algebra(h):
    """H acting on itself by h . a = h_(1) a S(h_(2)) (a module algebra)."""
    d = h.dim
    right_h = hp.right_mults(h.mult, d)
    action = []
    for i in range(d):
        acc = la.Mat.zeros(d, d)
        for p, q, cf in h.comult_terms[i]:
            left = pm.regular_module(h).pi[p]
            right = hp.mult_by(right_h, h.antipode.col(q))
            acc = acc + (left * right).scale(cf)
        action.append(acc)
    mult = [[list(h.mult[i][j]) for j in range(d)] for i in range(d)]
    return ac.PartialModuleAlgebra.build(h, mult, h.unit, action)


@pytest.mark.parametrize("hname", ["kC2", "kC2-dual", "sweedler"])
def test_adjoint_action_is_a_global_module_algebra(hname):
    b = adjoint_action_algebra(hp.builtin(hname))
    assert ac.check_partial_action(b).ok
    assert ac.check_global_action(b).ok


def test_shipped_algebras_pass_all_axioms():
    for name, alg in shipped_partial_algebras().items():
        assert ac.check_partial_action(alg).ok, name


def test_perturbed_action_fails_pa2_with_witness():
    bad = scalar_algebra(DUAL, [F(1, 3), F(1, 2)])
    rep = ac.check_partial_action(bad)
    assert not rep.ok
    pa2 = rep.check_named("PA2")
    assert not pa2.passed and pa2.witness is not None


def test_induced_partial_algebra_from_grading():
    graded = graded_group_algebra()
    induced = ac.induced_partial_algebra(graded, (F(1, 2), F(1, 2)))
    assert induced.dim == 1
    assert induced.action[0] == la.Mat([[F(1, 2)]])
    assert induced.action[1] == la.Mat([[F(1, 2)]])


def test_induced_partial_algebra_degenerate_idempotents():
    graded = graded_group_algebra()
    assert ac.induced_partial_algebra(graded, (1, 0)).dim == 2
    assert ac.induced_partial_algebra(graded, (0, 0)).dim == 0


def test_induced_rejects_non_idempotent_and_partial_input():
    graded = graded_group_algebra()
    with pytest.raises(ValidationError):
        ac.induced_partial_algebra(graded, (2, 0))
    half = shipped_partial_algebras()["kC2-dual-half"]
    with pytest.raises(ValidationError):
        ac.induced_partial_algebra(half, (1,))


def test_partial_smash_of_genuinely_partial_action_is_small():
    half = shipped_partial_algebras()["kC2-dual-half"]
    sm = ac.partial_smash(half)
    assert sm.dim == 1
    assert sm.ambient == la.Subspace.from_vectors(2, [(1, 1)])
    assert sm.unit == (F(1),)


def test_partial_smash_of_trivial_action_is_full_tensor():
    triv = scalar_algebra(H4, H4.counit)
    sm = ac.partial_smash(triv)
    assert sm.dim == 4
    # with the trivial action the product is just the Hopf multiplication;
    # B is one-dimensional, so 1 (x) v has the coordinates of v
    got = hp.mult_by(sm.left, sm.h_embedding[1]).apply(sm.h_embedding[2])
    want_coords = sm.ambient.coords(H4.mult[1][2])
    assert got == want_coords


def test_partial_smash_records_its_projector():
    for name, alg in shipped_partial_algebras().items():
        assert ac.partial_smash(alg).projector == ref.smash_projector(alg), name


def test_recorded_attributes_are_not_part_of_the_value(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    canon = importlib.import_module("workloads").canon
    alg = shipped_partial_algebras()["sweedler-mixed-2"]
    for s in (ac.partial_smash(alg), ac.global_smash(ac.globalize(alg)[0])):
        bare = dataclasses.replace(s)
        assert not hasattr(bare, "left") and not hasattr(bare, "projector")
        assert s == bare and hash(s) == hash(bare)
        assert canon(s) == canon(bare)
        assert not {"left", "projector", "mult_terms"} & set(canon(s))


def test_coords_solves_a_whole_table_and_rejects_any_vector_outside():
    incl = la.Mat([[1, 0], [1, 0], [0, 2]])
    assert ac._coords(incl, la.Mat.from_cols([(1, 1, 0), (0, 0, 1)]),
                      "outside") == [(F(1), F(0)), (F(0), F(1, 2))]
    with pytest.raises(ValidationError, match="^outside$"):
        ac._coords(incl, la.Mat.from_cols([(1, 1, 0), (1, 0, 0)]), "outside")


def test_partial_smash_module_satisfies_partial_axioms():
    for alg in shipped_partial_algebras().values():
        sm = ac.partial_smash(alg)
        assert pm.check_partial_rep(sm.module).ok


@pytest.mark.parametrize("index, col, pa3, pa3_primed", [
    (3, 0, (3, 1, 0), (2, 1, 0)),
    (2, 1, (2, 0, 0), (2, 1, 0)),
    (1, 1, (1, 1, 0), (1, 1, 0)),
])
def test_pa3_witnesses_of_a_perturbed_action(index, col, pa3, pa3_primed):
    b = shipped_partial_algebras()["sweedler-mixed-2"]
    assert ac.check_partial_action(b).ok
    rows = [list(r) for r in b.action[index].entries]
    rows[0][col] += 1
    action = list(b.action)
    action[index] = la.Mat(rows)
    bad = ac.PartialModuleAlgebra.build(b.hopf, b.alg_mult, b.alg_unit, action)
    report = ac.check_partial_action(bad)
    assert report.check_named("PA3").witness == pa3 \
        == ref.pa3_witness(bad, primed=False)
    assert report.check_named("PA3'").witness == pa3_primed \
        == ref.pa3_witness(bad, primed=True)


def test_globalize_reports_all_properties():
    half = shipped_partial_algebras()["kC2-dual-half"]
    gb, phi, report = ac.globalize(half)
    assert report.ok
    assert gb.dim == 2
    assert {c.name for c in report.checks} == {
        "phi multiplicative", "phi(B) is a two-sided ideal",
        "Bbar is idempotent", "action by algebra maps",
        "restricted action equals the partial action",
        "idempotency witness identity"}


def test_globalize_checks_the_underlying_module_once(monkeypatch):
    mixed = shipped_partial_algebras()["kC2-dual-mixed-2"]
    calls = gen.count_partial_rep_checks(monkeypatch)
    gb, phi, report = ac.globalize(mixed)
    assert report.ok
    # check_partial_action and standard_dilation share one check of
    # mixed.as_module(); the second is of the restriction inside
    # standard_dilation, an equal module built anew
    assert len(calls) == 2
    assert calls[0] is mixed.as_module()
    assert calls[1] == calls[0] and calls[1] is not calls[0]


def test_globalize_global_input_gives_isomorphic_copy():
    triv = scalar_algebra(DUAL, [1, 0])
    gb, phi, report = ac.globalize(triv)
    assert report.ok and gb.dim == 1 and la.rank(phi) == 1
    assert gb.unital


def test_globalize_matches_induced_construction_dimension():
    graded = graded_group_algebra()
    induced = ac.induced_partial_algebra(graded, (F(1, 2), F(1, 2)))
    gb, phi, _ = ac.globalize(induced)
    # the enveloping action of the compressed grading action is 2-dim
    assert gb.dim == 2


def test_global_smash_unital_trivial_action_is_tensor_algebra():
    triv = scalar_algebra(DUAL, [1, 0])
    gb, _, _ = ac.globalize(triv)
    bs = ac.global_smash(gb)
    assert bs.dim == 2 and bs.unit is not None
    # product of 1#p_i with 1#p_j is delta_ij (the dual group algebra law)
    by_first = hp.mult_by(bs.left, bs.h_embedding[0])
    assert by_first.apply(bs.h_embedding[0]) == bs.h_embedding[0]
    assert by_first.apply(bs.h_embedding[1]) == (F(0), F(0))


def test_zeta_xi_on_shipped_examples():
    algebras = shipped_partial_algebras()
    for name in ("kC2-dual-half", "kC2-dual-mixed-2", "sweedler-pure-1"):
        zeta, xi, report = ac.zeta_xi(algebras[name])
        assert report.ok, name
        assert zeta * xi == la.Mat.identity(zeta.rows)
        assert xi * zeta == la.Mat.identity(xi.rows)


def test_zeta_xi_builds_the_smash_operators_once(monkeypatch):
    half = shipped_partial_algebras()["kC2-dual-half"]
    builds = gen.count_calls(monkeypatch, ac, "_smash_operators")
    ac.zeta_xi(half)
    assert [args[0] for args in builds] == [half]


@pytest.mark.parametrize("construction, name, count", [
    ("partial_smash", "_smash_operators", 1),
    ("partial_smash", "_mult_terms", 1),
    ("zeta_xi", "_smash_operators", 1),
    ("morita_context", "_smash_operators", 2),
    ("morita_context", "_mult_terms", 2),
    ("morita_context", "left_mults", 7),
    ("global_smash", "diagonal_action", 1),
])
def test_build_counts_per_construction(monkeypatch, construction, name, count):
    # lookups in actions only: partial_smash and global_smash build the
    # smash operators and the sparse table once each, and every later step
    # reads the left multiplications and the projector they record
    b = shipped_partial_algebras()["sweedler-mixed-2"]
    arg = ac.globalize(b)[0] if construction == "global_smash" else b
    calls = gen.count_calls(monkeypatch, ac, name)
    getattr(ac, construction)(arg)
    assert len(calls) == count


def test_morita_context_on_shipped_examples():
    algebras = shipped_partial_algebras()
    for name in ("kC2-dual-half", "kC2-dual-mixed-2", "sweedler-pure-1"):
        p_space, q_space, report = ac.morita_context(algebras[name])
        assert report.ok, name


def test_morita_global_case_p_equals_q():
    triv = scalar_algebra(DUAL, [1, 0])
    p_space, q_space, report = ac.morita_context(triv)
    assert report.ok
    assert p_space == q_space  # global case: both are all of Bbar # H
    assert p_space.dim == 2


def test_direct_product_of_nothing_is_rejected():
    with pytest.raises(ValueError, match="^direct product needs at least one algebra$"):
        ac.direct_product([])


def test_direct_product_axioms():
    algebras = shipped_partial_algebras()
    prod = ac.direct_product([algebras["kC2-dual-half"],
                              algebras["kC2-dual-half"]])
    assert prod.dim == 2
    assert ac.check_partial_action(prod).ok


def test_smash_projector_commutes_with_diagonal_action():
    for alg in shipped_partial_algebras().values():
        pr = ac.partial_smash(alg).projector
        assert pr * pr == pr
        bh = pm.tensor_with_global(alg.as_module(),
                                   pm.regular_module(alg.hopf))
        for i in range(alg.hopf.dim):
            assert pr * bh.pi[i] == bh.pi[i] * pr


def test_non_associative_algebra_reports_witness():
    # unit e0, e1 e1 = e2, e1 e2 = e1, every other product of e1, e2 zero
    mult = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [0, 1, 0]],
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]]]
    b = ac.PartialModuleAlgebra.build(DUAL, mult, [1, 0, 0],
                                      [la.Mat.identity(3), la.Mat.zeros(3, 3)])
    report = ac.check_partial_action(b)
    assert [c.name for c in report.failures()] == ["algebra associativity"]
    assert report.check_named("algebra associativity").witness == (1, 1, 1)


def test_zero_dimensional_algebra_passes_through_every_construction():
    b = ac.PartialModuleAlgebra.build(DUAL, [], [], [la.Mat.zeros(0, 0)] * 2)
    assert ac.check_partial_action(b).ok
    sm = ac.partial_smash(b)
    assert (sm.dim, sm.mult, sm.unit, sm.h_embedding) == (0, (), (), ((), ()))
    gb, phi, report = ac.globalize(b)
    assert report.ok and gb.dim == 0 and not gb.unital
    bs = ac.global_smash(gb)
    assert (bs.dim, bs.unit, bs.h_embedding) == (0, None, ())
    zeta, xi, report = ac.zeta_xi(b)
    assert report.ok and zeta == xi == la.Mat.zeros(0, 0)
    p_space, q_space, report = ac.morita_context(b)
    assert report.ok and p_space.dim == q_space.dim == 0
