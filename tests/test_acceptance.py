"""Acceptance suite: one test per contract criterion, all comparisons exact.

Every assertion is rational arithmetic with tolerance zero.  Run with

    pytest tests/test_acceptance.py -v -s

to get one pass/fail line per criterion; HOPF_PARTIAL_SEED reseeds the
randomized instances.
"""

from fractions import Fraction

from hopf_partial import actions as ac
from hopf_partial import dilation as dl
from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial import partial as pm
from hopf_partial import projection as pj
from hopf_partial.demos import (antidiagonal_sweedler, graded_projection,
                                partially_graded_module,
                                shipped_partial_algebras)

import gen

F = Fraction
DUAL = hp.builtin("kC2-dual")
H4 = hp.sweedler_h4()


def _line(num, ok, text):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def _random_dual_c2_mixed_sources(r, count, max_dim):
    """Valid partial modules over the dual of C2 from two independent routes."""
    out = []
    for k in range(count):
        if k % 2 == 0:
            out.append(gen.random_dual_c2_partial(r, max_dim))
        else:
            n1 = r.randint(0, 2)
            n2 = r.randint(0, 2)
            t = r.randint(0, max_dim - n1 - n2)
            if n1 + n2 + t == 0:
                n1 = 1
            restricted, _ = pj.restrict(graded_projection(n1, n2, t))
            out.append(gen.conjugate_module(
                restricted, gen.rand_invertible(r, restricted.dim)))
    return out


def test_criterion_01_dual_c2_minimal_polynomial():
    r = gen.rng("c1")
    count = 0
    for m in _random_dual_c2_mixed_sources(r, 50, 6):
        t = m.pi[0]
        ident = la.Mat.identity(m.dim)
        assert (t * (t - ident) * (t.scale(2) - ident)).is_zero()
        dims, cb = pm.classify_dual_c2(m)
        blocks = la.block_diag([la.Mat.identity(dims[0]),
                                la.Mat.zeros(dims[1], dims[1]),
                                la.Mat.identity(dims[2]).scale(F(1, 2))])
        assert la.inverse(cb) * t * cb == blocks
        assert la.inverse(cb) * m.pi[1] * cb == ident - blocks
        count += 1
    _line(1, count == 50,
          "50 random dual-C2 modules satisfy t(t-1)(2t-1)=0 and rediagonalize")


def test_criterion_02_image_algebra_dimension():
    m = partially_graded_module(1, 1, 1)
    img = pm.image_algebra(m)
    _line(2, img.dim == 3,
          "image algebra of the generic (1,1,1) module has dimension 3")


def test_criterion_03_sweedler_classification():
    r = gen.rng("c3")
    count = 0
    for _ in range(50):
        m = gen.random_sweedler_partial(r, 6)
        g = m.pi[1]
        assert g * g * g == g
        u_space, w_space, c, d = pm.classify_sweedler(m)
        assert c * d == d * c and c * c == d * d
        if u_space.dim:
            incl = u_space.basis.transpose()
            g_u, x_u = la.restrict_operators([g, m.pi[2]], incl)
            u_mod = pm.PartialModule(H4, u_space.dim,
                                     (la.Mat.identity(u_space.dim),
                                      g_u, x_u, g_u * x_u))
            assert pm.is_global(u_mod)
        count += 1
    _line(3, count == 50,
          "50 random Sweedler modules: [g]^3=[g], cd=dc, c^2=d^2, "
          "global part is global")


def test_criterion_04_dual_c2_dilation_dimensions():
    ok = True
    for n0 in range(6):
        for n1 in range(6 - n0):
            for nh in range(6 - n0 - n1):
                if n0 + n1 + nh == 0 or n0 + n1 + nh > 5:
                    continue
                dil = dl.standard_dilation(partially_graded_module(n0, n1, nh))
                ok &= dil.projected.module.dim == n0 + n1 + 2 * nh

    pattern = la.Mat([[1, 0, 0, 0],
                      [0, F(1, 2), 0, F(1, 2)],
                      [0, 0, 1, 0],
                      [0, F(1, 2), 0, F(1, 2)]])
    ok &= dl.standard_dilation(partially_graded_module(1, 1, 1)).projected.t \
        == pattern

    # a scrambled copy reaches the same pattern after the computed basis change
    r = gen.rng("c4")
    scrambled = gen.conjugate_module(partially_graded_module(1, 1, 1),
                                     gen.rand_invertible(r, 3))
    dims, cb = pm.classify_dual_c2(scrambled)
    canonical = gen.conjugate_module(scrambled, la.inverse(cb))
    ok &= dims == (1, 1, 1)
    ok &= canonical.pi == partially_graded_module(1, 1, 1).pi
    ok &= dl.standard_dilation(canonical).projected.t == pattern
    _line(4, ok, "dual-C2 dilations have dim n0+n1+2t and the exact "
                 "half-block projection for (1,1,1)")


def test_criterion_05_wn_dilation():
    ok = True
    for n in range(1, 5):
        dil = dl.standard_dilation(pm.w_n_module(n))
        mod = dil.projected.module
        ok &= mod.dim == 2 * n
        z, ident = la.Mat.zeros(n, n), la.Mat.identity(n)
        shift = la.Mat([[1 if i == j + 1 else 0 for j in range(n)]
                        for i in range(n)])
        ok &= mod.pi[1] == la.vstack([la.hstack([z, ident]),
                                      la.hstack([ident, z])])
        ok &= mod.pi[2] == la.vstack([la.hstack([shift, -shift]),
                                      la.hstack([shift, -shift])])
        ok &= mod.pi[3] == mod.pi[1] * mod.pi[2]
    _line(5, ok, "W_n dilations (n<=4) have dim 2n with the swap/difference "
                 "block actions")


def test_criterion_06_round_trip_equivalence():
    r = gen.rng("c6")
    names = ["kC2-dual", "sweedler", "kS3"]
    count = 0
    for k in range(100):
        m = gen.random_partial(r, names[k % 3], 4)
        dil = dl.standard_dilation(m)
        report = dl.check_dilation(dil)
        assert report.ok, f"{names[k % 3]} instance {k}: {report}"
        count += 1
    _line(6, count == 100,
          "100 random modules: restrict(dilate(M)) isomorphic to M via theta, "
          "proper and minimal")


def test_criterion_07_global_characterization():
    r = gen.rng("c7")
    names = ["kC2-dual", "sweedler"]
    globals_seen = non_globals_seen = 0
    while globals_seen < 50 or non_globals_seen < 50:
        name = names[(globals_seen + non_globals_seen) % 2]
        if globals_seen < 50:
            m = gen.random_global(r, name, 4)
            globals_seen += 1
        else:
            m = gen.random_partial(r, name, 4)
            if pm.is_global(m):
                continue
            non_globals_seen += 1
        report = dl.global_iff_phi_iso(m)
        assert report.check_named("three conditions agree").passed
        if pm.is_global(m):
            assert report.check_named("projection is the identity").passed
        else:
            std = dl.standard_dilation(m)
            assert std.projected.t != la.Mat.identity(std.projected.module.dim)
    _line(7, True, "50 global + 50 non-global modules: the three "
                   "characterizations agree; t = id exactly for global ones")


def test_criterion_08_equivalence_lemma():
    r = gen.rng("c8")
    shift = la.Mat([[0, 0], [1, 0]])
    fixtures = [graded_projection(1, 1, 1), graded_projection(0, 1, 2),
                antidiagonal_sweedler(shift, shift)]
    passed = 0
    for k in range(50):
        p = fixtures[k] if k < len(fixtures) else gen.random_projected(r)
        rep = pj.check_equivalence_lemma(p)
        assert rep.ok
        complement = la.Mat.identity(p.module.dim) - p.t
        ok_c, _ = pj.check_c_condition(p.module, complement)
        assert ok_c
        assert pj.check_equivalence_lemma(p.module, complement).ok
        passed += 1
    # candidates that fail must fail all three conditions coherently
    agree_checked = 0
    for _ in range(40):
        mod = gen.random_global(r, "sweedler", 3)
        rank = r.randint(1, mod.dim)
        q = gen.rand_invertible(r, mod.dim)
        t = q * la.block_diag(
            [la.Mat.identity(rank),
             la.Mat.zeros(mod.dim - rank, mod.dim - rank)]) * la.inverse(q)
        rep = pj.check_equivalence_lemma(mod, t)
        assert rep.check_named("conditions agree").passed
        agree_checked += 1
    _line(8, passed == 50 and agree_checked == 40,
          "50 c-condition pairs: (i),(ii),(iii) all hold and I-t passes; "
          "40 raw idempotents: the three conditions always agree")


def test_criterion_09_core_shadow_adjunction():
    r = gen.rng("c9")
    names = ["kC2-dual", "sweedler"]
    count = 0
    for k in range(30):
        name = names[k % 2]
        n = gen.random_global(r, name, 3)
        m = gen.random_partial(r, name, 3)
        core_mod, _ = pm.restrict_to_invariant(m, pm.global_core(m))
        assert len(pm.hom_space(n, m)) == len(pm.hom_space(n, core_mod))
        shadow, _ = pm.global_shadow(m)
        assert len(pm.hom_space(m, n)) == len(pm.hom_space(shadow, n))
        count += 1
    _line(9, count == 30,
          "30 random pairs: hom(N, M) = hom(N, c(M)) and hom(M, N) = "
          "hom(s(M), N) as exact dimensions")


def test_criterion_10_globalization():
    ok = True
    for name, alg in shipped_partial_algebras().items():
        gb, phi, report = ac.globalize(alg)
        ok &= report.ok
    _line(10, ok, "shipped partial module algebras globalize: phi "
                  "multiplicative, ideal image, idempotent, action recovered")


def test_criterion_11_smash_comparison():
    ok = True
    for name, alg in shipped_partial_algebras().items():
        zeta, xi, report = ac.zeta_xi(alg)
        ok &= report.ok
        ok &= zeta * xi == la.Mat.identity(zeta.rows)
        ok &= xi * zeta == la.Mat.identity(xi.rows)
    _line(11, ok, "zeta and xi invert each other exactly; the dilated "
                  "partial smash splits off Bbar#H")


def test_criterion_12_morita_context():
    ok = True
    for name, alg in shipped_partial_algebras().items():
        p_space, q_space, report = ac.morita_context(alg)
        ok &= report.ok
    _line(12, ok, "P and Q are stable bimodules and both Morita maps are "
                  "surjective by rank on the shipped examples")


def test_criterion_13_functor_properties():
    r = gen.rng("c13")
    names = ["kC2-dual", "sweedler"]
    count = 0
    while count < 30:
        name = names[count % 2]
        a = gen.random_partial(r, name, 3)
        b = gen.random_partial(r, name, 3)
        f = gen.random_morphism(r, a, b)
        g = gen.random_morphism(r, a, b)
        fbar = dl.dilate_morphism(f)
        gbar = dl.dilate_morphism(g)
        both = pm.ModuleMorphism.build(a, b, f.mat + g.mat)
        assert dl.dilate_morphism(both) == fbar + gbar
        assert fbar.is_zero() == f.mat.is_zero()
        if la.kernel_basis(f.mat).dim == 0:
            assert la.kernel_basis(fbar).dim == 0
        if la.rank(f.mat) == b.dim:
            assert la.rank(fbar) == fbar.rows
        assert dl.dilation_preserves_sums([a, b]).ok
        count += 1
    _line(13, count == 30,
          "30 random morphisms: dilation is additive, faithful, preserves "
          "mono/epi and binary direct sums")


def test_criterion_14_wn_structure():
    r = gen.rng("c14")
    w3 = pm.w_n_module(3)
    samples = gen.zero_one_vectors(3)
    samples += [tuple(gen.rand_frac(r, 3) for _ in range(3)) for _ in range(25)]
    chain = pm.submodule_scan(w3, samples)
    ok = [s.dim for s in chain] == [0, 1, 2, 3]
    ok = ok and all(chain[i + 1].contains_subspace(chain[i]) for i in range(3))

    w2 = pm.w_n_module(2)
    samples2 = gen.zero_one_vectors(2)
    samples2 += [tuple(gen.rand_frac(r, 3) for _ in range(2)) for _ in range(25)]
    subs2 = pm.submodule_scan(w2, samples2)
    ok = ok and [s.dim for s in subs2] == [0, 1, 2]
    proper = [s for s in subs2 if 0 < s.dim < 2]
    for s1 in proper:
        for s2 in proper:
            decomposes = (s1.intersect(s2).dim == 0
                          and s1.add(s2) == la.Subspace.full(2))
            ok = ok and not decomposes
    _line(14, ok, "submodules of W3 form the 4-chain; W2 admits no "
                  "direct-sum decomposition")
