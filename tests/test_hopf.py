from fractions import Fraction

import pytest

from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial.reports import ValidationError

import dense_structure

F = Fraction


def _failures(report):
    return [(c.name, c.witness) for c in report.failures()]


@pytest.mark.parametrize("name", hp.BUILTIN_NAMES)
def test_builtin_algebras_are_valid(name):
    assert hp.validate_hopf(hp.builtin(name)).ok


def test_group_algebra_c2_antipode_is_identity():
    h = hp.group_algebra(hp.cyclic_table(2))
    assert h.antipode == la.Mat.identity(2)


def test_group_algebra_c3_antipode_swaps_generators():
    h = hp.group_algebra(hp.cyclic_table(3))
    assert h.antipode == la.Mat([[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def test_group_algebra_s3():
    h = hp.group_algebra(hp.s3_table())
    assert h.dim == 6
    assert hp.validate_hopf(h).ok


def test_group_algebra_rejects_non_group():
    broken = [[0, 1], [1, 1]]
    with pytest.raises(ValidationError):
        hp.group_algebra(broken)
    no_identity = [[1, 0], [0, 1]]
    with pytest.raises(ValidationError):
        hp.group_algebra(no_identity)


def test_dual_c2_relations():
    h = hp.dual_group_algebra(hp.cyclic_table(2))
    assert h.mult[0][0] == (F(1), F(0))
    assert h.mult[0][1] == (F(0), F(0))
    assert h.unit == (F(1), F(1))
    assert h.comult_terms[0] == ((0, 0, F(1)), (1, 1, F(1)))
    assert h.comult_terms[1] == ((0, 1, F(1)), (1, 0, F(1)))
    assert h.counit == (F(1), F(0))


def test_dual_of_trivial_group():
    h = hp.dual_group_algebra([[0]])
    assert h.dim == 1 and hp.validate_hopf(h).ok


def test_dual_c3_valid():
    assert hp.validate_hopf(hp.dual_group_algebra(hp.cyclic_table(3))).ok


def test_sweedler_products():
    h = hp.sweedler_h4()
    one, g, x, y = range(4)
    assert h.mult[g][g] == la.unit_vec(4, one)
    assert h.mult[g][x] == la.unit_vec(4, y)
    assert h.mult[x][g] == la.vec_scale(la.unit_vec(4, y), -1)
    assert h.mult[x][x] == (F(0),) * 4
    assert h.mult[y][g] == la.vec_scale(la.unit_vec(4, x), -1)
    assert h.mult[y][y] == (F(0),) * 4


def test_sweedler_antipode_order_four():
    h = hp.sweedler_h4()
    s2 = h.antipode * h.antipode
    assert s2.col(2) == (F(0), F(0), F(-1), F(0))
    assert s2 != la.Mat.identity(4)
    assert s2 * s2 == la.Mat.identity(4)


def test_sweedler_flipped_antipode_fails_with_witness():
    h = hp.sweedler_h4()
    flipped = la.Mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    bad = hp.HopfAlgebraData(4, h.mult, h.unit, h.comult, h.counit,
                             flipped, la.inverse(flipped), h.labels)
    report = hp.validate_hopf(bad)
    assert not report.ok
    check = report.check_named("antipode")
    assert not check.passed and check.witness == (2,)


def test_broken_product_entry_reports_associativity_witness():
    h = hp.builtin("kC3")
    mult = [[list(row) for row in plane] for plane in h.mult]
    mult[2][2] = [0, 0, 1]
    bad = hp.HopfAlgebraData(3, hp._freeze3(mult), h.unit, h.comult, h.counit,
                             h.antipode, h.antipode_inv)
    report = hp.validate_hopf(bad)
    assert [c.name for c in report.failures()] == ["associativity"]
    assert report.check_named("associativity").witness == (1, 1, 2)


def test_broken_unit_reports_unit_witness():
    h = hp.builtin("kC2-dual")
    bad = hp.HopfAlgebraData(2, h.mult, (F(1), F(0)), h.comult, h.counit,
                             h.antipode, h.antipode_inv)
    report = hp.validate_hopf(bad)
    check = report.check_named("unit")
    assert not check.passed and check.witness == 1
    assert report.check_named("associativity").passed


def test_builtins_are_built_once():
    assert hp.builtin("sweedler") is hp.builtin("sweedler")
    assert hp.builtin("kC2-dual") == hp.dual_group_algebra(hp.cyclic_table(2))


def test_singular_antipode_rejected_at_build():
    h = hp.sweedler_h4()
    singular = la.Mat.zeros(4, 4)
    with pytest.raises(ValidationError):
        hp.HopfAlgebraData.build(4, h.mult, h.unit, h.comult, h.counit, singular)


def test_cop_fixes_cocommutative_algebras():
    for name in ("kC2", "kC3", "kS3"):
        h = hp.builtin(name)
        assert hp.cop(h) == h


def test_cop_is_an_involution():
    h = hp.sweedler_h4()
    assert hp.cop(hp.cop(h)) == h


def test_cop_of_sweedler_valid_and_different():
    h = hp.sweedler_h4()
    c = hp.cop(h)
    assert hp.validate_hopf(c).ok
    assert c.comult[2] != h.comult[2]
    assert c.antipode == h.antipode_inv


def test_dual_c2_isomorphic_to_group_algebra():
    dual = hp.builtin("kC2-dual")
    kc2 = hp.builtin("kC2")
    iso = la.Mat([[F(1, 2), F(1, 2)], [F(1, 2), F(-1, 2)]])
    assert hp.hopf_morphism_report(dual, kc2, iso).ok
    back = la.inverse(iso)
    assert hp.hopf_morphism_report(kc2, dual, back).ok


def test_morphism_report_catches_non_morphism():
    dual = hp.builtin("kC2-dual")
    kc2 = hp.builtin("kC2")
    report = hp.hopf_morphism_report(dual, kc2, la.Mat.identity(2))
    assert _failures(report) == [("unit", None), ("multiplicative", (0, 1)),
                                 ("comultiplicative", (0,)), ("counit", None)]


def test_is_cocommutative():
    assert hp.builtin("kS3").is_cocommutative()
    assert hp.builtin("kC2-dual").is_cocommutative()
    assert not hp.sweedler_h4().is_cocommutative()


def test_broken_comultiplication_witnesses():
    # Delta(x) = g (x) x + 1 (x) x in place of g (x) x + x (x) 1
    h = hp.sweedler_h4()
    comult = [[list(row) for row in plane] for plane in h.comult]
    comult[2] = [[0] * 4 for _ in range(4)]
    comult[2][1][2] = comult[2][0][2] = 1
    bad = hp.HopfAlgebraData(4, h.mult, h.unit, hp._freeze3(comult), h.counit,
                             h.antipode, h.antipode_inv)
    assert _failures(hp.validate_hopf(bad)) == [
        ("coassociativity", (2,)), ("counit", (2,)),
        ("bialgebra", (1, 2, "comult multiplicative")), ("antipode", (2,))]


def test_broken_counit_witnesses():
    h = hp.sweedler_h4()
    bad = hp.HopfAlgebraData(4, h.mult, h.unit, h.comult, (F(1), F(-1), F(0), F(0)),
                             h.antipode, h.antipode_inv)
    assert _failures(hp.validate_hopf(bad)) == [("counit", (1,)), ("antipode", (1,))]


def test_regular_representation_multiplies():
    h = hp.sweedler_h4()
    left, right = hp.left_mults(h.mult, 4), hp.right_mults(h.mult, 4)
    # g x = y and x g = -y
    assert left[1].col(2) == h.mult[1][2] == la.unit_vec(4, 3)
    assert right[1].col(2) == h.mult[2][1]
    u = (F(1), F(-2), F(1, 2), F(3))
    v = (F(0), F(1), F(-1), F(1, 3))
    assert hp.mult_by(left, u).apply(v) == dense_structure.alg_prod(h.mult, u, v)
    assert hp.mult_by(right, u).apply(v) == dense_structure.alg_prod(h.mult, v, u)
    assert hp.mult_by(left, (F(0),) * 4) == la.Mat.zeros(4, 4)
    assert hp.left_mults((), 0) == [] and hp.mult_by([], ()) == la.Mat.zeros(0, 0)
