from fractions import Fraction

import pytest

from hopf_partial import dilation as dl
from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial import partial as pm
from hopf_partial import projection as pj
from hopf_partial.demos import (antidiagonal_sweedler, demo_restriction,
                                graded_projection)
from hopf_partial.reports import ValidationError

import gen

F = Fraction

H4 = hp.sweedler_h4()
SHIFT2 = la.Mat([[0, 0], [1, 0]])


@pytest.fixture(scope="module")
def p37():
    return antidiagonal_sweedler(SHIFT2, SHIFT2)


@pytest.fixture(scope="module")
def p36():
    return graded_projection(1, 1, 1)


def test_identity_satisfies_the_condition():
    reg = pm.regular_module(H4)
    ok, _ = pj.check_c_condition(reg, la.Mat.identity(4))
    assert ok


def test_complement_inherits_the_condition(p37):
    ok, _ = pj.check_c_condition(p37.module,
                                 la.Mat.identity(p37.module.dim) - p37.t)
    assert ok


def test_non_idempotent_rejected():
    reg = pm.regular_module(H4)
    with pytest.raises(ValidationError):
        pj.check_c_condition(reg, reg.pi[1].scale(2))


def test_eager_validation_of_projected_module():
    reg = pm.regular_module(H4)
    # an idempotent violating the commutation: rank-1 in a non-stable position
    t = la.Mat([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    ok, witness = pj.check_c_condition(reg, t)
    if not ok:
        with pytest.raises(ValidationError):
            pj.ProjectedModule.build(reg, t)
    with pytest.raises(ValidationError):
        pj.ProjectedModule.build(pm.w_n_module(2), la.Mat.identity(2))


def test_adjoint_op_at_unit_is_t(p37, p36):
    assert pj.adjoint_op(p37, 0) == p37.t
    assert pj.tilde_op(p37, 0) == p37.t


def test_adjoint_ops_for_group_algebra():
    kc3 = hp.builtin("kC3")
    reg = pm.regular_module(kc3)
    r = gen.rng("grp-proj")
    q = gen.module_automorphism(r, reg)
    t = q * la.block_diag([la.Mat.identity(1), la.Mat.zeros(2, 2)]) * la.inverse(q)
    if t * t == t:
        p = pj.ProjectedModule.build(reg, t)
        for g in range(3):
            ginv = next(j for j in range(3) if kc3.mult[g][j][0] == 1)
            assert pj.adjoint_op(p, g) == reg.pi[g] * t * reg.pi[ginv]
            assert pj.tilde_op(p, g) == reg.pi[ginv] * t * reg.pi[g]


def test_adjoint_op_sweedler_formulas(p37):
    mod, t = p37.module, p37.t
    g, x, y = mod.pi[1], mod.pi[2], mod.pi[3]
    assert pj.adjoint_op(p37, 2) == x * t - g * t * g * x
    assert pj.adjoint_op(p37, 3) == y * t * g + t * x
    assert pj.adjoint_op(p37, 1) == g * t * g


def test_adjoint_linearity(p37):
    coeffs = (F(2), F(-1), F(1, 3), F(5))
    combo = la.Mat.zeros(4, 4)
    for i, c in enumerate(coeffs):
        combo = combo + pj.adjoint_op(p37, i).scale(c)
    direct = la.Mat.zeros(4, 4)
    pi_s = hp.mult_by(p37.module.pi, H4.antipode)
    for i, c in enumerate(coeffs):
        for a, b, cf in H4.comult_terms[i]:
            direct = direct + (p37.module.pi[a] * p37.t * pi_s[b]).scale(c * cf)
    assert combo == direct


def test_equivalence_lemma_identity_projection():
    reg = pm.regular_module(H4)
    rep = pj.check_equivalence_lemma(reg, la.Mat.identity(4))
    assert rep.ok


def test_equivalence_lemma_paper_projections(p36, p37):
    assert pj.check_equivalence_lemma(p36).ok
    assert pj.check_equivalence_lemma(p37).ok


def test_twisted_conjugate_builds_per_projected_module(monkeypatch):
    # ProjectedModule.build keeps the conjugates it checked, the twins are
    # built once per instance, and adjoint_op, tilde_op and the lemma share
    # both; a raw pair builds both
    p = graded_projection(1, 1, 1)
    calls = gen.count_calls(monkeypatch, pj, "twisted_conjugates")
    counts = []
    for step in (lambda: [pj.adjoint_op(p, i) for i in range(2)],
                 lambda: pj.check_equivalence_lemma(p),
                 lambda: [pj.tilde_op(p, i) for i in range(2)],
                 lambda: pj.check_equivalence_lemma(p),
                 lambda: pj.check_equivalence_lemma(p.module, p.t),
                 lambda: pj.check_equivalence_lemma(graded_projection(1, 1, 1))):
        step()
        counts.append(len(calls))
    # the last lemma's ProjectedModule.build checks the c-condition once,
    # and the lemma reads those conjugates and builds the twins
    assert counts == [0, 1, 1, 1, 3, 5]


def test_antipode_images_are_summed_once_per_module(monkeypatch):
    # the PR checker, both families of a raw pair's lemma and the
    # globality test read one memoized pi(S e_j) family (four sums before)
    p = graded_projection(1, 1, 1)
    m = pm.PartialModule(p.module.hopf, p.module.dim, p.module.pi)
    calls = gen.count_calls(monkeypatch, hp, "antipode_images")
    assert pm.check_partial_rep(m).ok
    assert pj.check_equivalence_lemma(m, p.t).ok
    assert pm.is_global(m)
    assert len(calls) == 1
    # an equal but new module sums its own
    pm.is_global(pm.PartialModule(m.hopf, m.dim, m.pi))
    assert len(calls) == 2


def test_twisted_conjugate_builds_in_the_restriction_demo(monkeypatch):
    # one per c-condition check (two direct, six in ProjectedModule.build,
    # which keeps its family) and p37's twins; adjoint_op(p37, .) and
    # p37's lemma read the family that p37's build kept
    calls = gen.count_calls(monkeypatch, pj, "twisted_conjugates")
    assert demo_restriction()[0]
    assert len(calls) == 9


def test_equivalence_lemma_fails_jointly():
    """Idempotents violating (i) violate (ii) and (iii) too."""
    r = gen.rng("perturbed")
    found_failing = 0
    for _ in range(60):
        mod = gen.random_global(r, "sweedler", 3)
        rank = r.randint(1, mod.dim)
        q = gen.rand_invertible(r, mod.dim)
        t = q * la.block_diag([la.Mat.identity(rank),
                               la.Mat.zeros(mod.dim - rank, mod.dim - rank)]) \
            * la.inverse(q)
        rep = pj.check_equivalence_lemma(mod, t)
        flags = [c.passed for c in rep.checks[:3]]
        assert rep.check_named("conditions agree").passed
        if not flags[0]:
            found_failing += 1
            assert not flags[1] and not flags[2]
    assert found_failing > 0


def test_restrict_identity_gives_module_back():
    reg = pm.regular_module(H4)
    out, incl = pj.restrict(pj.ProjectedModule.build(reg, la.Mat.identity(4)))
    assert out.pi == reg.pi and incl == la.Mat.identity(4)


def test_restrict_refuses_a_directly_built_non_idempotent_pair():
    # direct construction checks nothing, and build refuses the pair:
    # t^2 = 2t, so R incl_r = 2 and the coordinates of t pi(e_i) incl_r
    # in im t fail their verifying product
    reg, t = pm.regular_module(hp.builtin("kC2")), la.Mat([[2, 1], [0, 0]])
    with pytest.raises(ValidationError, match="not idempotent"):
        pj.ProjectedModule.build(reg, t)
    with pytest.raises(ValueError):
        pj.restrict(pj.ProjectedModule(reg, t))


def test_restrict_graded_projection(p36):
    out, incl = pj.restrict(p36)
    assert out.dim == 3
    assert pm.classify_dual_c2(out)[0] == (1, 1, 1)
    # the mixed vector is an eigenvector with value 1/2 for both actions
    assert out.pi[0].col(1) == (F(0), F(1, 2), F(0))
    assert out.pi[1].col(1) == (F(0), F(1, 2), F(0))


def test_restrict_antidiagonal_sweedler(p37):
    out, _ = pj.restrict(p37)
    assert out.pi[1].is_zero()
    assert out.pi[2] == SHIFT2 and out.pi[3] == SHIFT2
    assert pm.is_pure(out)


def test_restriction_always_partial():
    r = gen.rng("restrict-valid")
    for _ in range(10):
        p = gen.random_projected(r)
        out, _ = pj.restrict(p)
        assert pm.check_partial_rep(out).ok


def test_minimalize_keeps_minimal_input(p37):
    out = pj.minimalize(p37)
    assert out.module.dim == p37.module.dim
    assert pj.is_minimal(out) and pj.is_proper(out)


def test_minimalize_drops_killed_summand(p37):
    reg = pm.regular_module(H4)
    padded = pm.direct_sum([p37.module, reg])
    p_pad = pj.ProjectedModule.build(
        padded, la.block_diag([p37.t, la.Mat.zeros(4, 4)]))
    slim = pj.minimalize(p_pad)
    assert slim.module.dim == p_pad.module.dim - reg.dim
    r_pad, _ = pj.restrict(p_pad)
    r_slim, _ = pj.restrict(slim)
    assert r_pad.pi == r_slim.pi


def _count_annihilated_calls(monkeypatch):
    calls = []
    original = pj._annihilated_submodule

    def counted(module, t_pi):
        calls.append((module, t_pi))
        return original(module, t_pi)

    monkeypatch.setattr(pj, "_annihilated_submodule", counted)
    return calls


def test_restrict_solves_once_for_all_operators(monkeypatch, p36):
    # the d matrices t pi(e_i) on im t are read from the one rref of t,
    # memoized on p, with no solve against incl
    p = pj.ProjectedModule(p36.module, p36.t)
    calls = gen.count_solves(monkeypatch)
    rrefs = gen.count_calls(monkeypatch, pj, "rref")
    pj.restrict(p)
    assert calls == [] and rrefs == [(p.t,)]
    pj.restrict(pj.ProjectedModule(p36.module, p36.t))
    assert len(rrefs) == 2


def test_image_coords_are_read_from_rref_and_proved(p36):
    # R incl_r = I for an idempotent t; a right side that leaves im t,
    # here the columns of 1 - t, fails the verifying product
    p = pj.ProjectedModule(p36.module, p36.t)
    incl, r = pj._image(p)
    n, k = p.module.dim, incl.cols
    assert 0 < k < n and r * incl == la.Mat.identity(k)
    assert pj._image_coords(p, incl) == la.Mat.identity(k)
    assert pj._image_coords(p, p.t) == r
    assert pj._image_coords(p, la.Mat.identity(n) - p.t) is None


def test_minimalize_solves_once_for_its_restriction(monkeypatch, p36):
    # the d action matrices and t on the action closure of im t are read at
    # the pivots of its echelon basis, with no elimination
    calls = gen.count_solves(monkeypatch)
    reads = gen.count_calls(monkeypatch, la, "echelon_coords")
    pj.minimalize(pj.ProjectedModule(p36.module, p36.t))
    assert calls == []
    assert len(reads) == 1


def test_minimalize_checks_an_unquotiented_module_once(monkeypatch, p36):
    # minimalize records that its result is minimal, so neither is_minimal
    # nor Dilation.build looks for a t-killed submodule again
    calls = _count_annihilated_calls(monkeypatch)
    slim = pj.minimalize(p36)
    assert pj.is_minimal(slim)
    restricted, incl = pj.restrict(slim)
    assert dl.Dilation.build(restricted, slim, incl).minimal
    assert len(calls) == 1


def test_minimalize_rechecks_the_quotient(monkeypatch):
    # Under the commutation condition the action closure of im t has no
    # t-killed submodule (none among ~1600 random valid Sweedler pairs), so
    # the quotient branch is reached here by a pair that skips `build`:
    # on W_2 with t = diag(1, 0), span(e_1) is a submodule killed by t.
    g = la.Mat([[1, 0], [0, -1]])
    w2 = pm.PartialModule(H4, 2, (la.Mat.identity(2), g, SHIFT2, g * SHIFT2))
    calls = _count_annihilated_calls(monkeypatch)
    slim = pj.minimalize(pj.ProjectedModule(w2, la.Mat([[1, 0], [0, 0]])))
    assert slim.module.dim == 1
    assert len(calls) == 2
    assert calls[1] == (slim.module, pj._t_pi(slim))
    assert pj._t_pi(slim) == tuple(slim.t * q for q in slim.module.pi)


def test_minimalize_preserves_restriction_up_to_identification():
    r = gen.rng("minimalize")
    for _ in range(8):
        p = gen.random_projected(r)
        slim = pj.minimalize(p)
        r_old, incl_old = pj.restrict(p)
        r_new, incl_new = pj.restrict(slim)
        assert r_old.dim == r_new.dim
        if r_old.dim == 0:
            continue
        basis = pm.hom_space(r_old, r_new)
        span = la.column_space(la._columns(
            r_old.dim * r_new.dim, [la.reshape(f, r_old.dim * r_new.dim, 1) for f in basis]))
        # an invertible intertwiner exists: search a small combination space
        found = any(la.rank(f) == r_old.dim for f in basis)
        if not found:
            for _ in range(20):
                cand = la.Mat.zeros(r_new.dim, r_old.dim)
                for b in basis:
                    cand = cand + b.scale(gen.rand_frac(r, 2))
                if la.rank(cand) == r_old.dim:
                    found = True
                    break
        assert found


def test_restriction_functor_fully_faithful():
    r = gen.rng("fully-faithful")
    for _ in range(8):
        p = gen.random_projected(r)
        q = gen.random_projected(r)
        for src, dst in ((p, q), (p, p)):
            if src.module.hopf != dst.module.hopf:
                continue
            direct = pj.projected_morphism_space(src, dst)
            r_src, _ = pj.restrict(src)
            r_dst, incl_dst = pj.restrict(dst)
            assert len(direct) == len(pm.hom_space(r_src, r_dst))
            # f(T(h.m)) = S(h.f(m)) on im T, in the ambient data of dst
            for f in direct:
                for i in range(src.module.hopf.dim):
                    assert (incl_dst * f * r_src.pi[i]
                            == dst.t * dst.module.pi[i] * incl_dst * f)


def test_annihilated_submodule_rejects_a_partial_module():
    # on W_3 the kernel of t pi(h) for t = diag(0, 0, 1) is span(e_0),
    # which the shift [x] moves to e_1
    t = la.Mat([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    with pytest.raises(ValidationError, match="annihilated space is not action-stable"):
        w3 = pm.w_n_module(3)
        pj._annihilated_submodule(w3, [t * q for q in w3.pi])
