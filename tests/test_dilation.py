from fractions import Fraction

import pytest

from hopf_partial import dilation as dl
from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial import partial as pm
from hopf_partial import projection as pj
from hopf_partial.demos import antidiagonal_sweedler, partially_graded_module
from hopf_partial.reports import ValidationError

import gen

F = Fraction

H4 = hp.sweedler_h4()
DUAL = hp.builtin("kC2-dual")


def test_global_module_dilates_to_itself():
    reg = pm.regular_module(DUAL)
    dil = dl.standard_dilation(reg)
    assert dil.projected.module.dim == reg.dim
    assert dil.projected.t == la.Mat.identity(reg.dim)
    assert la.rank(dil.theta) == reg.dim


@pytest.mark.parametrize("name", hp.BUILTIN_NAMES)
def test_regular_module_round_trip_for_every_builtin(name):
    reg = pm.regular_module(hp.builtin(name))
    dil = dl.standard_dilation(reg)
    assert dil.projected.module.dim == reg.dim
    assert dil.projected.t == la.Mat.identity(reg.dim)
    assert dl.check_dilation(dil).ok


def test_graded_dilation_matches_block_pattern():
    dil = dl.standard_dilation(partially_graded_module(1, 1, 1))
    assert dil.projected.module.dim == 4
    assert dil.projected.t == la.Mat([[1, 0, 0, 0],
                                      [0, F(1, 2), 0, F(1, 2)],
                                      [0, 0, 1, 0],
                                      [0, F(1, 2), 0, F(1, 2)]])


@pytest.mark.parametrize("n0,n1,nh", [(1, 0, 0), (0, 0, 1), (2, 1, 1), (1, 1, 2)])
def test_graded_dilation_dimension_formula(n0, n1, nh):
    dil = dl.standard_dilation(partially_graded_module(n0, n1, nh))
    assert dil.projected.module.dim == n0 + n1 + 2 * nh


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wn_dilation_block_actions(n):
    dil = dl.standard_dilation(pm.w_n_module(n))
    mod = dil.projected.module
    assert mod.dim == 2 * n
    z, ident = la.Mat.zeros(n, n), la.Mat.identity(n)
    shift = la.Mat([[1 if i == j + 1 else 0 for j in range(n)] for i in range(n)])
    assert mod.pi[1] == la.vstack([la.hstack([z, ident]), la.hstack([ident, z])])
    assert mod.pi[2] == la.vstack([la.hstack([shift, -shift]),
                                   la.hstack([shift, -shift])])


def test_check_dilation_passes_for_standard(p=None):
    dil = dl.standard_dilation(pm.w_n_module(2))
    assert dl.check_dilation(dil).ok


def test_check_dilation_flags_killed_summand():
    p37 = antidiagonal_sweedler(la.Mat([[0, 0], [1, 0]]), la.Mat([[0, 0], [1, 0]]))
    reg = pm.regular_module(H4)
    padded = pm.direct_sum([p37.module, reg])
    proj = pj.ProjectedModule.build(
        padded, la.block_diag([p37.t, la.Mat.zeros(4, 4)]))
    r_pad, incl = pj.restrict(proj)
    dil = dl.Dilation.build(r_pad, proj, incl)
    rep = dl.check_dilation(dil)
    flags = {c.name: c.passed for c in rep.checks}
    assert not flags["proper"]
    assert not flags["minimal"]
    assert flags["theta injective"] and flags["intertwining"]


def test_round_trip_is_isomorphism():
    r = gen.rng("round-trip-unit")
    for name in ("kC2-dual", "sweedler"):
        for _ in range(4):
            m = gen.random_partial(r, name, 3)
            dil = dl.standard_dilation(m)
            rep = dl.check_dilation(dil)
            assert rep.ok


@pytest.mark.parametrize("hopf_name", ["kS3", "sweedler"])
def test_round_trip_checks_each_module_once(monkeypatch, hopf_name):
    m = gen.random_partial(gen.rng(f"checks-once-{hopf_name}"), hopf_name, 3)
    calls = gen.count_partial_rep_checks(monkeypatch)
    dil = dl.standard_dilation(m)
    report = dl.check_dilation(dil)
    back, incl = pj.restrict(dil.projected)
    assert report.ok
    # the input, checked by standard_dilation, then its restriction,
    # checked inside standard_dilation's own check_dilation
    assert calls == [m, back]

    again = dl.check_dilation(dil)
    assert len(calls) == 2
    assert again is not report
    assert again.to_json() == report.to_json() and len(again.checks) == 6
    again.record("extra", False)
    assert dl.check_dilation(dil).ok

    # an equal but new instance carries no memo and is verified afresh
    fresh = pj.ProjectedModule(dil.projected.module, dil.projected.t)
    assert fresh == dil.projected and fresh is not dil.projected
    assert pj.restrict(fresh) == (back, incl)
    assert len(calls) == 3


def test_standard_dilation_solves_once_against_its_inclusion(monkeypatch):
    m = gen.random_ks3_partial(gen.rng("count"), 3)
    calls = gen.count_solves(monkeypatch)
    dil = dl.standard_dilation(m)
    # the d translation operators, t and theta in one solve
    assert sum(a == dil.ambient_inclusion for a in calls) == 1


def test_failed_restriction_is_not_memoized(monkeypatch):
    # t = [[1, -2], [0, 0]] breaks the commutation condition on kC2, and
    # its image carries g -> -2, which is not a partial representation
    p = pj.ProjectedModule(pm.regular_module(hp.builtin("kC2")),
                           la.Mat([[1, -2], [0, 0]]))
    calls = gen.count_partial_rep_checks(monkeypatch)
    for attempt in (1, 2):
        with pytest.raises(ValidationError, match="PR2"):
            pj.restrict(p)
        assert len(calls) == attempt
    assert "_restriction" not in vars(p)


def test_universal_morphism_identity_case():
    dil = dl.standard_dilation(partially_graded_module(1, 1, 1))
    phi = dl.universal_morphism(dil)
    assert phi.rows == phi.cols == 4
    assert la.rank(phi) == 4


def test_universal_morphism_of_restriction_dilation():
    p37 = antidiagonal_sweedler(la.Mat([[0, 0], [1, 0]]), la.Mat([[0, 0], [1, 0]]))
    r37, incl = pj.restrict(p37)
    dil = dl.Dilation.build(r37, p37, incl)
    assert dil.proper and dil.minimal
    phi = dl.universal_morphism(dil)
    assert la.rank(phi) == 4 and la.kernel_basis(phi).dim == 0


def test_universal_morphism_kernel_is_the_killed_part():
    """On proper dilations, ker Phi is exactly {x : t pi(e_i) x = 0 for all i}."""
    r = gen.rng("phi-kernel")
    for _ in range(6):
        proj = gen.random_projected(r)
        if not pj.is_proper(proj):
            proj = pj.minimalize(proj)
        restricted, incl = pj.restrict(proj)
        dil = dl.Dilation.build(restricted, proj, incl)
        phi = dl.universal_morphism(dil)
        killed = la.kernel_basis(la.vstack([proj.t * p for p in proj.module.pi]))
        assert la.kernel_basis(phi) == killed


def test_universal_morphism_needs_properness():
    p37 = antidiagonal_sweedler(la.Mat([[0, 0], [1, 0]]), la.Mat([[0, 0], [1, 0]]))
    reg = pm.regular_module(H4)
    padded = pm.direct_sum([p37.module, reg])
    proj = pj.ProjectedModule.build(
        padded, la.block_diag([p37.t, la.Mat.zeros(4, 4)]))
    r_pad, incl = pj.restrict(proj)
    dil = dl.Dilation.build(r_pad, proj, incl)
    with pytest.raises(ValidationError):
        dl.universal_morphism(dil)


def test_dilate_identity_and_zero():
    w2 = pm.w_n_module(2)
    ident = dl.dilate_morphism(pm.ModuleMorphism.build(w2, w2, la.Mat.identity(2)))
    assert ident == la.Mat.identity(4)
    zero = dl.dilate_morphism(pm.ModuleMorphism.build(w2, w2, la.Mat.zeros(2, 2)))
    assert zero.is_zero()


def test_dilate_w1_into_w2():
    w1, w2 = pm.w_n_module(1), pm.w_n_module(2)
    inc = pm.ModuleMorphism.build(w1, w2, la.Mat([[0], [1]]))
    fbar = dl.dilate_morphism(inc)
    assert (fbar.rows, fbar.cols) == (4, 2)
    assert la.rank(fbar) == 2


def test_morphism_construction_rejects_non_intertwiner():
    w1, w2 = pm.w_n_module(1), pm.w_n_module(2)
    with pytest.raises(ValidationError):
        pm.ModuleMorphism.build(w1, w2, la.Mat([[1], [0]]))


def test_dilation_functor_laws():
    r = gen.rng("functor")
    checked = 0
    for name in ("kC2-dual", "sweedler"):
        for _ in range(6):
            a = gen.random_partial(r, name, 3)
            b = gen.random_partial(r, name, 3)
            c = gen.random_partial(r, name, 3)
            f = gen.random_morphism(r, a, b)
            g = gen.random_morphism(r, b, c)
            fbar = dl.dilate_morphism(f)
            gbar = dl.dilate_morphism(g)
            comp = pm.ModuleMorphism.build(a, c, g.mat * f.mat)
            assert dl.dilate_morphism(comp) == gbar * fbar
            f2 = gen.random_morphism(r, a, b)
            add = pm.ModuleMorphism.build(a, b, f.mat + f2.mat)
            assert dl.dilate_morphism(add) == fbar + dl.dilate_morphism(f2)
            # faithfulness
            if not f.mat.is_zero():
                assert not fbar.is_zero()
            checked += 1
    assert checked > 0


def test_dilation_preserves_mono_epi():
    w1, w2 = pm.w_n_module(1), pm.w_n_module(2)
    inc = pm.ModuleMorphism.build(w1, w2, la.Mat([[0], [1]]))
    fbar = dl.dilate_morphism(inc)
    assert la.kernel_basis(fbar).dim == 0  # injective stays injective
    surj = pm.ModuleMorphism.build(w2, w1, la.Mat([[1, 0]]))
    gbar = dl.dilate_morphism(surj)
    assert la.rank(gbar) == 2  # surjective onto the 2-dim dilation


def test_factor_through_rejects_a_rank_deficient_decomposition():
    with pytest.raises(ValidationError, match="decomposition map is not surjective"):
        dl._factor_through(la.Mat([[1, 1], [2, 2]]), la.Mat([[1, 1]]))


def test_factor_through_rejects_a_target_that_does_not_factor():
    # ker dec is spanned by (1, -1), which the target does not kill
    with pytest.raises(ValidationError, match="kernel containment fails"):
        dl._factor_through(la.Mat([[1, 1]]), la.Mat([[1, 0]]))


def test_dimension_bound():
    r = gen.rng("dimension-bound")
    for name in ("kC2-dual", "sweedler"):
        h = hp.builtin("kC2-dual") if name == "kC2-dual" else H4
        for _ in range(4):
            m = gen.random_partial(r, name, 3)
            dil = dl.standard_dilation(m)
            assert dil.projected.module.dim <= m.dim * h.dim
    reg = pm.regular_module(H4)
    dil = dl.standard_dilation(reg)
    assert dil.projected.module.dim == reg.dim < reg.dim * H4.dim


def test_global_iff_phi_iso_cases():
    reg = pm.regular_module(DUAL)
    rep = dl.global_iff_phi_iso(reg)
    assert rep.ok

    rep = dl.global_iff_phi_iso(pm.w_n_module(1))
    flags = {c.name: c.passed for c in rep.checks}
    assert not flags["pi is an algebra map"]
    assert not flags["phi bijective"]
    assert not flags["phi has a right inverse intertwiner"]
    assert flags["three conditions agree"]

    m = partially_graded_module(1, 1, 1)
    rep = dl.global_iff_phi_iso(m)
    flags = {c.name: c.passed for c in rep.checks}
    assert not flags["phi bijective"]
    assert flags["three conditions agree"]
    assert dl.standard_dilation(m).projected.module.dim > m.dim


def test_dilation_preserves_sums():
    w1 = pm.w_n_module(1)
    assert dl.dilation_preserves_sums([w1]).ok
    assert dl.dilation_preserves_sums([w1, w1]).ok
    assert dl.dilation_preserves_sums([pm.trivial_module(H4), w1]).ok


def test_uniqueness_of_proper_minimal_dilations():
    """The comparison map between two proper minimal dilations inverts."""
    shift = la.Mat([[0, 0], [1, 0]])
    p37 = antidiagonal_sweedler(shift, shift)
    r37, incl = pj.restrict(p37)
    hand_made = dl.Dilation.build(r37, p37, incl)
    std = dl.standard_dilation(r37)
    phi = dl.universal_morphism(hand_made)
    inv = la.inverse(phi)
    mod_n, mod_std = p37.module, std.projected.module
    # the inverse is itself a morphism of dilations back the other way
    assert all(inv * mod_std.pi[i] == mod_n.pi[i] * inv for i in range(4))
    assert inv * std.theta == hand_made.theta
    assert hand_made.projected.t * inv == inv * std.projected.t


def test_kernel_preservation_on_instances():
    """Empirical exactness: the dilation of ker f matches ker of the dilated map."""
    r = gen.rng("kernels")
    checked = 0
    for attempt in range(60):
        name = ("kC2-dual", "sweedler")[attempt % 2]
        a = gen.random_partial(r, name, 3)
        b = gen.random_partial(r, name, 3)
        f = gen.random_morphism(r, a, b)
        ker = la.kernel_basis(f.mat)
        if ker.dim in (0, a.dim):
            continue
        ker_mod, _ = pm.restrict_to_invariant(a, ker)
        fbar = dl.dilate_morphism(f)
        assert la.kernel_basis(fbar).dim \
            == dl.standard_dilation(ker_mod).projected.module.dim
        checked += 1
        if checked >= 6:
            break
    assert checked > 0
