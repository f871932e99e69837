import dataclasses
from fractions import Fraction

import pytest

from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial.reports import ValidationError

import dense_structure
import gen

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
    assert h.mult[x][g] == (0, 0, 0, -1)
    assert h.mult[x][x] == (F(0),) * 4
    assert h.mult[y][g] == (0, 0, -1, 0)
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
    left = hp.left_mults(h.mult, 4)
    right = hp.right_from_left(left)
    # g x = y and x g = -y
    assert left[1].col(2) == h.mult[1][2] == la.unit_vec(4, 3)
    assert right[1].col(2) == h.mult[2][1]
    u = (F(1), F(-2), F(1, 2), F(3))
    v = (F(0), F(1), F(-1), F(1, 3))
    by_u, by_zero = hp.mult_by(left, la.Mat.from_cols([u, (0,) * 4], 4))
    assert by_u.apply(v) == dense_structure.alg_prod(h.mult, u, v)
    assert hp.mult_by(right, la._col(u))[0].apply(v) \
        == dense_structure.alg_prod(h.mult, v, u)
    assert by_zero == la.Mat.zeros(4, 4)
    assert hp.left_mults((), 0) == [] \
        and hp.mult_by([], la.Mat.zeros(0, 1)) == (la.Mat.zeros(0, 0),)


def _rescaled(h, scales):
    """h in the basis f_s = scales[s] e_s: rational constants, same algebra."""
    c = [F(x) for x in scales]
    d = h.dim
    mult = [[[c[i] * c[j] / c[k] * h.mult[i][j][k] for k in range(d)]
             for j in range(d)] for i in range(d)]
    comult = [[[c[i] / (c[a] * c[b]) * h.comult[i][a][b] for b in range(d)]
               for a in range(d)] for i in range(d)]
    antipode = [[c[a] / c[k] * h.antipode[k, a] for a in range(d)]
                for k in range(d)]
    return hp.HopfAlgebraData.build(
        d, mult, [u / ck for u, ck in zip(h.unit, c)], comult,
        [ci * e for ci, e in zip(c, h.counit)], antipode)


def _dense_grid(h, kind, mats):
    """Block (r, s) of the Sweedler grid of kind, read off the dense arrays."""
    d, n = h.dim, mats[0].rows
    s_ = h.antipode

    def coeff(r, s, b):
        if kind == "col":
            return h.comult[s][r][b]
        if kind == "col_s":
            return sum(h.comult[s][a][b] * s_[r, a] for a in range(d))
        if kind == "row":
            return h.comult[r][b][s]
        if kind == "row_s":
            return sum(h.comult[r][b][a] * s_[s, a] for a in range(d))
        return h.mult[r][s][b]

    def block(r, s):
        out = la.Mat.zeros(n, n)
        for b in range(d):
            out = out + mats[b].scale(coeff(r, s, b))
        return out

    return la.vstack([la.hstack([block(r, s) for s in range(d)])
                      for r in range(d)])


GRID_ALGEBRAS = [hp.builtin(name) for name in hp.BUILTIN_NAMES] \
    + [_rescaled(hp.builtin("sweedler"), (2, "1/3", -3, "5/2")),
       _rescaled(hp.builtin("kC2-dual"), ("2/3", 3))]


@pytest.mark.parametrize("index", range(len(GRID_ALGEBRAS)))
def test_sweedler_grids_match_the_dense_arrays(index):
    h = GRID_ALGEBRAS[index]
    r = gen.rng(f"grids-{index}")
    kinds = ("col", "col_s", "row", "row_s", "mult")
    for n in (1, 2):
        fams = [[la.Mat([[gen.rand_frac(r) for _ in range(n)] for _ in range(n)])
                 for _ in range(h.dim)] for _ in kinds]
        dense = [_dense_grid(h, kind, fam) for kind, fam in zip(kinds, fams)]
        for kind, fam, grid in zip(kinds, fams, dense):
            assert hp.sweedler_grid(h, n, [(kind, fam)]) == grid
            assert hp.sweedler_grid(h, n, [(kind, fam)], transpose=True) \
                == grid.transpose()
        # several grids stack top to bottom over one denominator
        parts = list(zip(kinds, fams))
        assert hp.sweedler_grid(h, n, parts) == la.vstack(dense)
        assert hp.sweedler_grid(h, n, parts[1:3], transpose=True) \
            == la.vstack([g.transpose() for g in dense[1:3]])


def test_sweedler_grids_of_empty_blocks_and_unknown_kinds():
    h = hp.builtin("kS3")
    zero = [la.Mat.zeros(0, 0)] * h.dim
    assert hp.sweedler_grid(h, 0, [("col", zero), ("mult", zero)]) \
        == la.Mat.zeros(0, 0)
    with pytest.raises(ValueError, match="unknown Sweedler grid kind"):
        hp.sweedler_grid(h, 1, [("diagonal", [la.Mat.identity(1)] * h.dim)])


def test_hopf_hash_is_the_dataclass_hash_computed_once():
    h = hp.group_algebra(hp.cyclic_table(3))
    fields = tuple(getattr(h, f.name) for f in dataclasses.fields(h) if f.compare)
    assert "_hash" not in vars(h)
    assert hash(h) == hash(fields)
    assert vars(h)["_hash"] == hash(fields)
    assert hash(h) == hash(hp.builtin("kC3")) and h == hp.builtin("kC3")
    assert hash(h) == hash(dataclasses.replace(h, labels=None))
