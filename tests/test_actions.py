import dataclasses
import importlib
import os
import pkgutil
from fractions import Fraction

import pytest

import hopf_partial
from hopf_partial import actions as ac
from hopf_partial import dilation as dl
from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial import partial as pm
from hopf_partial import projection as pj
from hopf_partial.demos import (graded_group_algebra, scalar_algebra,
                                shipped_partial_algebras)
from hopf_partial.reports import ValidationError

import actions_reference as ref
import gen

F = Fraction
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")
PACKAGE = [importlib.import_module(f"hopf_partial.{m.name}")
           for m in pkgutil.iter_modules(hopf_partial.__path__)]

DUAL = hp.builtin("kC2-dual")
H4 = hp.sweedler_h4()


def adjoint_action_algebra(h):
    """H acting on itself by h . a = h_(1) a S(h_(2)) (a module algebra)."""
    d = h.dim
    right_s = hp.mult_by(hp.right_from_left(hp.left_mults(h.mult, d)), h.antipode)
    action = []
    for i in range(d):
        acc = la.Mat.zeros(d, d)
        for p, q, cf in h.comult_terms[i]:
            left = pm.regular_module(h).pi[p]
            acc = acc + (left * right_s[q]).scale(cf)
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
    by_first, = hp.mult_by(sm.left, la._col(sm.h_embedding[1]))
    got = by_first.apply(sm.h_embedding[2])
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
        assert set(vars(bare)) == {f.name for f in dataclasses.fields(s)}
        assert s == bare and hash(s) == hash(bare)
        assert canon(s) == canon(bare)
        assert not {"left", "projector"} & set(canon(s))
        assert "_left" in vars(s) and bare.left == s.left


def test_subalgebra_left_solves_a_whole_table_and_rejects_any_vector_outside():
    # the echelon basis u_0 = (1, 1, 0), u_1 = (0, 0, 1) of the span of
    # (1, 1, 0) and (0, 0, 2) in k^3 with the componentwise product
    sub = la.column_space(la.Mat([[1, 0], [1, 0], [0, 2]]))
    assert sub.basis == la.Mat([[1, 1, 0], [0, 0, 1]])
    ops = [la.Mat([[1, 0, 0], [0, 1, 0], [0, 0, 0]]),
           la.Mat([[0, 0, 0], [0, 0, 0], [0, 0, 1]])]
    left, coords = ac._subalgebra_left(
        sub, ops, la.Mat.from_cols([(1, 1, 0), (0, 0, 2)]), "outside")
    assert left == (la.Mat([[1, 0], [0, 0]]), la.Mat([[0, 0], [0, 1]]))
    assert coords.col_list() == [(F(1), F(0)), (F(0), F(2))]
    with pytest.raises(ValidationError, match="^outside$"):
        ac._subalgebra_left(sub, ops, la.Mat.from_cols([(1, 1, 0), (1, 0, 0)]), "outside")
    not_closed = [la.Mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]]), ops[1]]
    with pytest.raises(ValidationError, match="^not closed$"):
        ac._subalgebra_left(sub, not_closed, la.Mat.zeros(3, 0), "not closed")


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
    # mixed.as_module(); the restriction inside standard_dilation equals
    # it, so it is that instance and reads the same memo
    assert len(calls) == 1 and calls[0] is mixed.as_module()
    std = dl.standard_dilation(mixed.as_module())
    assert pj.restrict(std.projected)[0] is mixed.as_module()


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
    by_first, = hp.mult_by(bs.left, la._col(bs.h_embedding[0]))
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


def _construction_input(construction):
    """A fresh sweedler-mixed-2, over a fresh Sweedler algebra, or its
    globalization for global_smash."""
    b = shipped_partial_algebras()["sweedler-mixed-2"]
    return ac.globalize(b)[0] if construction == "global_smash" else b


@pytest.mark.parametrize("construction, name, count", [
    ("partial_smash", "_smash_operators", 1),
    ("zeta_xi", "_smash_operators", 1),
    ("morita_context", "_smash_operators", 2),
    ("global_smash", "diagonal_action", 1),
])
def test_build_counts_per_construction(monkeypatch, construction, name, count):
    # lookups in actions only: partial_smash and global_smash build the
    # smash operators once each, and every later step reads the left
    # multiplications and the projector they store
    arg = _construction_input(construction)
    calls = gen.count_calls(monkeypatch, ac, name)
    getattr(ac, construction)(arg)
    assert len(calls) == count


def test_no_check_acts_on_an_algebra_tensor_itself(monkeypatch):
    # PA2 reads m x m blocks of the L_s, so no check builds the diagonal
    # action on B (x) B, an m^2 x m^2 matrix per basis element of H
    algebras = list(shipped_partial_algebras().values())
    calls = [gen.count_calls(monkeypatch, m, "diagonal_action")
             for m in PACKAGE if hasattr(m, "diagonal_action")]
    for b in algebras:
        ac.check_partial_action(b)
        ac.globalize(b)
    assert [args for c in calls for args in c if args[1] is args[2]] == []


def _builds(monkeypatch, construction, names):
    """Calls of each of names while one construction runs, counted in every
    module that looks the name up."""
    arg = _construction_input(construction)
    calls = {name: [gen.count_calls(monkeypatch, m, name)
                    for m in PACKAGE if hasattr(m, name)]
             for name in names}
    getattr(ac, construction)(arg)
    return {name: sum(map(len, c)) for name, c in calls.items()}


@pytest.mark.parametrize("construction, count", [
    ("partial_smash", 1),
    ("zeta_xi", 2),
    ("globalize", 4),
    ("morita_context", 5),
    ("global_smash", 0),
])
def test_regular_builds_per_construction(monkeypatch, construction, count):
    # each algebra object builds its L_s and R_s at most once, and the
    # builders store the L_s they get from eliminations; globalize reads
    # the R_s of Bbar off those L_s; every R_s is read off the L_s
    builds = _builds(monkeypatch, construction, ("left_mults", "right_from_left"))
    assert sum(builds.values()) == count


@pytest.mark.parametrize("construction, checked", [
    ("partial_smash", 1),
    ("zeta_xi", 1),
    ("globalize", 1),
    ("morita_context", 3),
    ("global_smash", 1),
])
def test_sparse_table_builds_per_construction(monkeypatch, construction, checked):
    # each of the `checked` algebra objects whose associativity a
    # construction checks is witnessed once, from its L_s
    builds = _builds(monkeypatch, construction, ("_associativity_witness",))
    assert builds == {"_associativity_witness": checked}


@pytest.mark.parametrize("construction, name, count", [
    ("zeta_xi", "diagonal_action", 2),
    ("globalize", "intertwining_witness", 4),
    ("partial_smash", "_freeze3", 0),
    ("global_smash", "_freeze3", 0),
    ("globalize", "_freeze3", 0),
])
def test_nothing_is_built_or_checked_twice(monkeypatch, construction, name, count):
    # zeta_xi reads B (x) H from partial_smash, which builds it once, and
    # the diagonal action on Bbar (x) H; globalize reads the dilation's
    # "intertwining" Check; the cubes are read off the L_s as Fractions
    assert _builds(monkeypatch, construction, (name,)) == {name: count}


def test_smash_records_b_tensor_h_and_its_cube():
    for name, b in shipped_partial_algebras().items():
        sm = ac.partial_smash(b)
        reg = pm.regular_module(b.hopf)
        assert sm.ambient_module == pm.tensor_with_global(b.as_module(), reg), name
        assert sm.mult == hp._freeze3(a.col_list() for a in sm.left), name
        gb = ac.globalize(b)[0]
        assert gb.alg_mult == hp._freeze3(a.col_list() for a in gb.left), name
        bs = ac.global_smash(gb)
        assert bs.mult == hp._freeze3(a.col_list() for a in bs.left), name


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
