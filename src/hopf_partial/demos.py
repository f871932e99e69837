"""Worked examples wired into a replayable demo suite.

Every demo rebuilds one of the library's headline computations with
hard-coded expected output and compares exactly; together the demos
exercise every function the package exports (the registry at the bottom
asserts this).  The builders for the recurring example objects
(the partially graded module, the graded projection, the antidiagonal
Sweedler module, the shipped partial module algebras) live here so the
CLI and the test suite share them.
"""

from fractions import Fraction

import hopf_partial

from . import actions as ac
from . import dilation as dl
from . import hopf as hp
from . import linalg as la
from . import partial as pm
from . import projection as pj

F = Fraction


# -- shared example builders --------------------------------------------------

def dual_c2():
    return hp.builtin("kC2-dual")


def partially_graded_module(n0, n1, nh) -> pm.PartialModule:
    """Canonical block form over the dual of C2: eigenvalues 1, 0, 1/2."""
    h = dual_c2()
    t = la.block_diag([la.Mat.identity(n0),
                       la.Mat.zeros(n1, n1),
                       la.Mat.identity(nh).scale(F(1, 2))])
    return pm.PartialModule(h, n0 + n1 + nh, (t, la.Mat.identity(t.rows) - t))


def graded_projection(n1, n2, t_count):
    """Graded module with the half-half projection mixing paired vectors.

    Basis order: u_1..u_n1, e_1..e_t (degree 0), v_1..v_n2, f_1..f_t
    (degree 1); T fixes u, v and averages each pair (e_k, f_k).
    """
    h = dual_c2()
    dim = n1 + n2 + 2 * t_count
    p0 = la.block_diag([la.Mat.identity(n1 + t_count),
                        la.Mat.zeros(n2 + t_count, n2 + t_count)])
    module = pm.PartialModule(h, dim, (p0, la.Mat.identity(dim) - p0))
    rows = [[F(0)] * dim for _ in range(dim)]
    for i in range(n1):
        rows[i][i] = F(1)
    for j in range(n2):
        rows[n1 + t_count + j][n1 + t_count + j] = F(1)
    for k in range(t_count):
        e_idx, f_idx = n1 + k, n1 + t_count + n2 + k
        for r in (e_idx, f_idx):
            rows[r][e_idx] = F(1, 2)
            rows[r][f_idx] = F(1, 2)
    return pj.ProjectedModule.build(module, la.Mat(rows))


def antidiagonal_sweedler(c: la.Mat, d: la.Mat):
    """2n-dim global Sweedler module with the first-block projection.

    Requires cd = dc and c^2 = d^2; the restriction along diag(I, 0) is
    the pure module with parameters (c, d).
    """
    n = c.rows
    z, ident = la.Mat.zeros(n, n), la.Mat.identity(n)
    g = la.vstack([la.hstack([z, ident]), la.hstack([ident, z])])
    x = la.vstack([la.hstack([c, -d]), la.hstack([d, -c])])
    module = pm.PartialModule(hp.sweedler_h4(), 2 * n,
                              (la.Mat.identity(2 * n), g, x, g * x))
    t = la.block_diag([ident, z])
    return pj.ProjectedModule.build(module, t)


def scalar_algebra(h, scalars) -> ac.PartialModuleAlgebra:
    """One-dimensional algebra k with e_i acting by the given scalar."""
    return ac.PartialModuleAlgebra.build(
        h, [[[1]]], [1], [la.Mat([[s]]) for s in scalars])


def graded_group_algebra() -> ac.PartialModuleAlgebra:
    """kC2 as an algebra, graded by its dual: p_i picks out degree i."""
    return ac.PartialModuleAlgebra.build(
        dual_c2(), [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [1, 0],
        [la.Mat([[1, 0], [0, 0]]), la.Mat([[0, 0], [0, 1]])])


def shipped_partial_algebras():
    """The partial module algebras used by the globalization/Morita demos."""
    h4 = hp.sweedler_h4()
    half = scalar_algebra(dual_c2(), [F(1, 2), F(1, 2)])
    grading_trivial = scalar_algebra(dual_c2(), [1, 0])
    w_type = scalar_algebra(h4, [1, 0, 0, 0])
    h4_trivial = scalar_algebra(h4, h4.counit)
    return {
        "kC2-dual-half": half,
        "kC2-dual-mixed-2": ac.direct_product([half, grading_trivial]),
        "kC2-dual-mixed-3": ac.direct_product([half, half, grading_trivial]),
        "sweedler-pure-1": w_type,
        "sweedler-mixed-2": ac.direct_product([w_type, h4_trivial]),
    }


# -- the demos -----------------------------------------------------------------

def demo_linalg_kernels():
    details = {}
    ok = True

    k = la.kernel_basis(la.Mat.identity(3))
    ok &= k.dim == 0
    ok &= la.kernel_basis(la.Mat.zeros(2, 3)).dim == 3
    k = la.kernel_basis(la.Mat([[1, 1], [2, 2]]))
    ok &= k.basis == la.Mat([[1, -1]])
    details["kernel [[1,1],[2,2]]"] = [str(x) for x in k.basis.row(0)]

    seed = la.Subspace.from_vectors(3, [(1, 0, 0)])
    ok &= la.span_closure(seed, [la.Mat.identity(3)]).dim == 1
    shift = la.Mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    closure = la.span_closure(seed, [shift])
    ok &= closure.dim == 3
    details["shift closure dim"] = closure.dim

    q, qd = la.quotient_map(3, la.Subspace.zero(3))
    ok &= q == la.Mat.identity(3) and qd == 3
    q, qd = la.quotient_map(3, la.Subspace.full(3))
    ok &= q.rows == 0 and qd == 0
    w = la.Subspace.from_vectors(3, [(1, 1, 0)])
    q, qd = la.quotient_map(3, w)
    ok &= q.apply((1, 1, 0)) == (F(0), F(0)) and la.rank(q) == 2 and qd == 2

    ok &= la.kron(la.Mat.identity(2), la.Mat.identity(3)) == la.Mat.identity(6)
    ok &= la.kron(la.Mat([[1, 2]]), la.Mat.zeros(2, 2)).is_zero()
    ok &= la.kron(la.Mat([[0, 1], [0, 0]]), la.Mat([[2]])) == la.Mat([[0, 2], [0, 0]])
    return ok, details


def demo_hopf_builtins():
    details = {}
    ok = True
    for name in hp.BUILTIN_NAMES:
        rep = hp.validate_hopf(hp.builtin(name))
        details[name] = "valid" if rep.ok else "INVALID"
        ok &= rep.ok

    ok &= hp.group_algebra(hp.cyclic_table(2)).antipode == la.Mat.identity(2)
    c3 = hp.group_algebra(hp.cyclic_table(3))
    ok &= c3.antipode == la.Mat([[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    dual = dual_c2()
    ok &= dual.mult[0][0] == (F(1), F(0))
    ok &= dual.mult[0][1] == (F(0), F(0))
    ok &= dual.comult[0] == ((F(1), F(0)), (F(0), F(1)))

    h4 = hp.sweedler_h4()
    ok &= h4.mult[1][2] == (F(0), F(0), F(0), F(1))
    ok &= h4.mult[2][1] == (F(0), F(0), F(0), F(-1))
    s2 = h4.antipode * h4.antipode
    ok &= s2.col(2) == (F(0), F(0), F(-1), F(0))
    ok &= (s2 * s2) == la.Mat.identity(4)
    details["S^2(x)"] = "-x"

    broken = la.Mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    try:
        hp.HopfAlgebraData.build(4, h4.mult, h4.unit, h4.comult, h4.counit, broken)
        ok = False
    except Exception:
        pass
    bad = hp.HopfAlgebraData(4, h4.mult, h4.unit, h4.comult, h4.counit,
                             broken, la.inverse(broken), h4.labels)
    rep = hp.validate_hopf(bad)
    anti = rep.check_named("antipode")
    ok &= not anti.passed and anti.witness == (2,)
    details["flipped S(x) witness"] = "basis index 2"

    ok &= hp.cop(hp.builtin("kS3")) == hp.builtin("kS3")
    ok &= hp.cop(hp.cop(h4)) == h4
    copped = hp.cop(h4)
    ok &= hp.validate_hopf(copped).ok and copped.comult[2] != h4.comult[2]

    iso = la.Mat([[F(1, 2), F(1, 2)], [F(1, 2), F(-1, 2)]])
    ok &= hp.hopf_morphism_report(dual, hp.builtin("kC2"), iso).ok
    details["kC2-dual ~ kC2"] = "isomorphism verified"
    return ok, details


def demo_dual_c2_modules():
    details = {}
    ok = True
    m = partially_graded_module(1, 1, 1)
    ok &= pm.check_partial_rep(m).ok
    ok &= not pm.is_global(m)
    t = m.pi[0]
    ident = la.Mat.identity(3)
    ok &= (t * (t - ident) * (t.scale(2) - ident)).is_zero()

    core = pm.global_core(m)
    shadow, _ = pm.global_shadow(m)
    ok &= core.dim == 2 and shadow.dim == 2
    ok &= not pm.is_pure(m)
    details["core/shadow dims"] = [core.dim, shadow.dim]

    dims, cb = pm.classify_dual_c2(m)
    ok &= dims == (1, 1, 1) and cb == ident

    ok &= pm.classify_dual_c2(partially_graded_module(2, 1, 0))[0] == (2, 1, 0)

    img = pm.image_algebra(m)
    ok &= img.dim == 3
    details["image algebra dim"] = img.dim

    eps0 = pm.twisted_conjugates(m)[0]
    ok &= eps0 == la.Mat([[1, 0, 0], [0, 1, 0], [0, 0, F(1, 2)]])
    base = pm.base_subalgebra(m)
    ok &= base.dim == 2 and pm.base_subalgebra_commutes(m)
    details["base subalgebra dim"] = base.dim

    glob = pm.regular_module(dual_c2())
    ok &= pm.is_global(glob) and pm.global_core(glob).dim == 2
    return ok, details


def demo_sweedler_tower():
    details = {}
    ok = True
    h4 = hp.sweedler_h4()
    w1, w2, w3 = pm.w_n_module(1), pm.w_n_module(2), pm.w_n_module(3)
    ok &= w1.pi[2].is_zero()
    ok &= w2.pi[2] == la.Mat([[0, 0], [1, 0]])
    for w in (w1, w2, w3):
        ok &= pm.check_partial_rep(w).ok and pm.is_pure(w) and not pm.is_global(w)

    import itertools
    vecs = [v for v in itertools.product((0, 1), repeat=3) if any(v)]
    chain = pm.submodule_scan(w3, vecs)
    ok &= [s.dim for s in chain] == [0, 1, 2, 3]
    ok &= all(chain[i + 1].contains_subspace(chain[i]) for i in range(3))
    details["W3 lattice dims"] = [s.dim for s in chain]

    u, w, c, d = pm.classify_sweedler(w2)
    ok &= u.dim == 0 and w.dim == 2
    ok &= c == la.Mat([[0, 0], [1, 0]]) and d == c

    ok &= len(pm.hom_space(w2, w2)) == 2
    ok &= len(pm.hom_space(w1, pm.trivial_module(h4))) == 0

    mix = pm.direct_sum([pm.regular_module(h4), w2])
    ok &= pm.check_partial_rep(mix).ok and not pm.is_pure(mix)
    u, w, c, d = pm.classify_sweedler(mix)
    ok &= u.dim == 4 and w.dim == 2
    details["mixed sum split"] = [u.dim, w.dim]
    return ok, details


def demo_restriction():
    details = {}
    ok = True
    h4 = hp.sweedler_h4()
    reg = pm.regular_module(h4)
    ident = la.Mat.identity(4)
    got, _ = pj.check_c_condition(reg, ident)
    ok &= got
    restricted, _ = pj.restrict(pj.ProjectedModule.build(reg, ident))
    ok &= restricted.pi == reg.pi

    p36 = graded_projection(1, 1, 1)
    r36, _ = pj.restrict(p36)
    ok &= r36.dim == 3
    ok &= pm.classify_dual_c2(r36)[0] == (1, 1, 1)
    # pivot basis of im T comes out ordered (u, g, v); g is the mixed vector
    ok &= r36.pi[0].col(1) == (F(0), F(1, 2), F(0))
    ok &= r36.pi[1].col(1) == (F(0), F(1, 2), F(0))
    details["graded restriction"] = "pi(p0) g_k = g_k/2 = pi(p1) g_k"

    shift = la.Mat([[0, 0], [1, 0]])
    p37 = antidiagonal_sweedler(shift, shift)
    mod, t = p37.module, p37.t
    g, x, y = mod.pi[1], mod.pi[2], mod.pi[3]
    ok &= pj.adjoint_op(p37, 2) == x * t - g * t * g * x
    ok &= pj.adjoint_op(p37, 3) == y * t * g + t * x
    ok &= pj.tilde_op(p37, 0) == t and pj.adjoint_op(p37, 0) == t
    details["T_x"] = "xT - gTgx"

    lemma = pj.check_equivalence_lemma(p37)
    ok &= lemma.ok
    got, _ = pj.check_c_condition(mod, la.Mat.identity(4) - t)
    ok &= got

    r37, _ = pj.restrict(p37)
    ok &= r37.pi[1].is_zero() and r37.pi[2] == shift and r37.pi[3] == shift

    ok &= pj.minimalize(p37).module.dim == 4
    padded = pm.direct_sum([mod, reg])
    p_pad = pj.ProjectedModule.build(padded, la.block_diag([t, la.Mat.zeros(4, 4)]))
    slim = pj.minimalize(p_pad)
    ok &= slim.module.dim == 4
    r_pad, _ = pj.restrict(p_pad)
    r_slim, _ = pj.restrict(slim)
    ok &= r_pad.pi == r_slim.pi
    details["minimalize"] = f"dim {p_pad.module.dim} -> {slim.module.dim}"
    return ok, details


def demo_dilation_dual_c2():
    details = {}
    ok = True
    for n0 in range(3):
        for n1 in range(3):
            for nh in range(3):
                if n0 + n1 + nh == 0 or n0 + n1 + nh > 4:
                    continue
                m = partially_graded_module(n0, n1, nh)
                dil = dl.standard_dilation(m)
                ok &= dil.projected.module.dim == n0 + n1 + 2 * nh

    m = partially_graded_module(1, 1, 1)
    dil = dl.standard_dilation(m)
    expected = la.Mat([[1, 0, 0, 0],
                       [0, F(1, 2), 0, F(1, 2)],
                       [0, 0, 1, 0],
                       [0, F(1, 2), 0, F(1, 2)]])
    ok &= dil.projected.t == expected
    details["(1,1,1) projection"] = "matches the 4x4 half-block pattern"
    ok &= dl.check_dilation(dil).ok

    phi = dl.universal_morphism(dil)
    ok &= phi.rows == phi.cols == 4 and la.rank(phi) == 4

    reg = pm.regular_module(dual_c2())
    rep = dl.global_iff_phi_iso(reg)
    ok &= rep.ok
    rep = dl.global_iff_phi_iso(m)
    flags = {c.name: c.passed for c in rep.checks}
    ok &= not flags["pi is an algebra map"] and not flags["phi bijective"]
    ok &= flags["three conditions agree"]
    details["global characterization"] = "all three conditions agree"
    return ok, details


def demo_dilation_sweedler():
    details = {}
    ok = True
    for n in (1, 2, 3):
        w = pm.w_n_module(n)
        dil = dl.standard_dilation(w)
        ok &= dil.projected.module.dim == 2 * n
        z, ident = la.Mat.zeros(n, n), la.Mat.identity(n)
        shift = la.Mat([[1 if i == j + 1 else 0 for j in range(n)]
                        for i in range(n)])
        ok &= dil.projected.module.pi[1] == la.vstack(
            [la.hstack([z, ident]), la.hstack([ident, z])])
        ok &= dil.projected.module.pi[2] == la.vstack(
            [la.hstack([shift, -shift]), la.hstack([shift, -shift])])
        ok &= dl.check_dilation(dil).ok
    details["W_n dilation"] = "dim 2n, swap/difference block actions"

    w1, w2 = pm.w_n_module(1), pm.w_n_module(2)
    inc = pm.ModuleMorphism.build(w1, w2, la.Mat([[0], [1]]))
    fbar = dl.dilate_morphism(inc)
    ok &= (fbar.rows, fbar.cols) == (4, 2) and la.rank(fbar) == 2
    details["dilated W1 -> W2"] = "injective of rank 2"

    zero = dl.dilate_morphism(pm.ModuleMorphism.build(w1, w2, la.Mat([[0], [0]])))
    ok &= zero.is_zero()
    ident_bar = dl.dilate_morphism(pm.ModuleMorphism.build(w1, w1, la.Mat([[1]])))
    ok &= ident_bar == la.Mat.identity(2)

    ok &= dl.dilation_preserves_sums([w1, w1]).ok
    ok &= dl.dilation_preserves_sums([pm.trivial_module(hp.sweedler_h4()), w2]).ok
    return ok, details


def demo_tensor():
    details = {}
    ok = True
    h4 = hp.sweedler_h4()
    w1, w2 = pm.w_n_module(1), pm.w_n_module(2)
    triv = pm.trivial_module(h4)
    reg = pm.regular_module(h4)

    ok &= pm.tensor_with_global(w2, triv).pi == w2.pi
    both = pm.tensor_with_global(reg, reg)
    ok &= pm.check_partial_rep(both).ok and pm.is_global(both)
    ok &= pm.check_partial_rep(pm.tensor_with_global(w1, reg)).ok
    details["W1 (x) regular"] = "passes the partial axioms"

    ok &= pm.tensor_over_base(triv, triv).dim == 1
    m = partially_graded_module(1, 1, 1)
    mm = pm.tensor_over_base(m, m)
    ok &= mm.dim == 5 and pm.check_partial_rep(mm).ok
    details["partially graded (x)_A itself"] = f"dim {mm.dim}"
    return ok, details


def demo_globalization():
    details = {}
    ok = True
    algebras = shipped_partial_algebras()
    for name, alg in algebras.items():
        ok &= ac.check_partial_action(alg).ok

    bad = ac.PartialModuleAlgebra.build(
        dual_c2(), [[[1]]], [1], [la.Mat([[F(1, 3)]]), la.Mat([[F(1, 2)]])])
    rep = ac.check_partial_action(bad)
    ok &= not rep.ok and not rep.check_named("PA2").passed
    details["perturbed action"] = "PA2 fails with witness"

    graded = graded_group_algebra()
    induced = ac.induced_partial_algebra(graded, (F(1, 2), F(1, 2)))
    ok &= induced.dim == 1
    ok &= induced.action[0] == la.Mat([[F(1, 2)]])
    ok &= induced.action[1] == la.Mat([[F(1, 2)]])
    details["induced from e=(1+u)/2"] = "both p act by 1/2"
    ok &= ac.induced_partial_algebra(graded, (1, 0)).dim == 2
    ok &= ac.induced_partial_algebra(graded, (0, 0)).dim == 0

    half = algebras["kC2-dual-half"]
    gb, phi, report = ac.globalize(half)
    ok &= report.ok and gb.dim == 2
    details["globalized half algebra"] = f"Bbar dim {gb.dim}"

    grading_trivial = scalar_algebra(dual_c2(), [1, 0])
    gb2, phi2, _ = ac.globalize(grading_trivial)
    ok &= gb2.dim == 1 and la.rank(phi2) == 1

    sm = ac.partial_smash(half)
    ok &= sm.dim == 1 and sm.ambient == la.Subspace.from_vectors(2, [(1, 1)])
    details["partial smash of half"] = f"dim {sm.dim} inside B(x)H"
    h4 = hp.sweedler_h4()
    full = ac.partial_smash(scalar_algebra(h4, h4.counit))
    ok &= full.dim == 4
    return ok, details


def demo_smash_morita():
    details = {}
    ok = True
    algebras = shipped_partial_algebras()
    half = algebras["kC2-dual-half"]
    w_type = algebras["sweedler-pure-1"]

    gb, _, _ = ac.globalize(half)
    bs = ac.global_smash(gb)
    ok &= bs.dim == 4 and bs.unit is not None
    details["Bbar#H over dual C2"] = f"dim {bs.dim}, unital"

    for name, alg in (("kC2-dual-half", half), ("sweedler-pure-1", w_type)):
        zeta, xi, zrep = ac.zeta_xi(alg)
        ok &= zrep.ok
        ok &= zeta.rows == zeta.cols
        p_space, q_space, mrep = ac.morita_context(alg)
        ok &= mrep.ok
        details[name] = {"over(BxH) dim": zeta.rows,
                         "P dim": p_space.dim, "Q dim": q_space.dim}
    return ok, details


DEMOS = {
    "linalg-kernels": (demo_linalg_kernels,
                       ("linalg.kernel_basis", "linalg.span_closure",
                        "linalg.quotient_map", "linalg.kron")),
    "hopf-builtins": (demo_hopf_builtins,
                      ("hopf.builtin", "hopf.validate_hopf",
                       "hopf.group_algebra", "hopf.dual_group_algebra",
                       "hopf.sweedler_h4", "hopf.cop")),
    "dual-c2-modules": (demo_dual_c2_modules,
                        ("partial.check_partial_rep", "partial.is_global",
                         "partial.global_core", "partial.global_shadow",
                         "partial.is_pure", "partial.classify_dual_c2",
                         "partial.image_algebra", "partial.base_subalgebra",
                         "partial.regular_module")),
    "sweedler-tower": (demo_sweedler_tower,
                       ("partial.w_n_module", "partial.classify_sweedler",
                        "partial.hom_space", "partial.direct_sum",
                        "partial.trivial_module")),
    "restriction": (demo_restriction,
                    ("projection.check_c_condition", "projection.adjoint_op",
                     "projection.tilde_op", "projection.check_equivalence_lemma",
                     "projection.restrict", "projection.minimalize")),
    "dilation-dual-c2": (demo_dilation_dual_c2,
                         ("dilation.standard_dilation", "dilation.check_dilation",
                          "dilation.universal_morphism",
                          "dilation.global_iff_phi_iso")),
    "dilation-sweedler": (demo_dilation_sweedler,
                          ("dilation.standard_dilation", "dilation.check_dilation",
                           "dilation.dilate_morphism",
                           "dilation.dilation_preserves_sums")),
    "tensor": (demo_tensor,
               ("partial.tensor_with_global", "partial.tensor_over_base")),
    "globalization": (demo_globalization,
                      ("actions.check_partial_action",
                       "actions.induced_partial_algebra", "actions.globalize",
                       "actions.partial_smash")),
    "smash-morita": (demo_smash_morita,
                     ("actions.global_smash", "actions.zeta_xi",
                      "actions.morita_context")),
}

# every function exported by the package, keyed as "module.name"
ALL_OPS = frozenset(
    f"{obj.__module__.rsplit('.', 1)[-1]}.{name}"
    for name, obj in vars(hopf_partial).items()
    if callable(obj) and not isinstance(obj, type))


def demo_suite(names=None):
    """Run the selected demos (all by default) and collect exact results.

    Returns a JSON-ready dict; 'ok' is True only if every comparison in
    every selected demo came out exact.  Running the full suite also
    asserts that the registry covers every exported function.
    """
    selected = list(DEMOS) if names is None else list(names)
    unknown = [n for n in selected if n not in DEMOS]
    if unknown:
        raise KeyError(f"unknown demo name(s): {', '.join(unknown)}")
    results = []
    covered = set()
    for name in selected:
        fn, ops = DEMOS[name]
        passed, details = fn()
        covered.update(ops)
        results.append({"name": name, "ok": bool(passed), "details": details})
    suite_ok = all(r["ok"] for r in results)
    out = {"ok": suite_ok, "demos": results}
    if names is None:
        missing = sorted(ALL_OPS - covered)
        out["coverage"] = {"complete": not missing, "missing": missing}
        suite_ok = suite_ok and not missing
        out["ok"] = suite_ok
    return out
