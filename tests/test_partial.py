from fractions import Fraction

import pytest

from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial import partial as pm
from hopf_partial.demos import partially_graded_module
from hopf_partial.reports import ValidationError

import gen

F = Fraction

DUAL = hp.builtin("kC2-dual")
H4 = hp.sweedler_h4()


@pytest.fixture(scope="module")
def graded():
    return partially_graded_module(1, 1, 1)


def test_global_modules_pass_all_axioms():
    for h in (DUAL, H4, hp.builtin("kS3")):
        assert pm.check_partial_rep(pm.regular_module(h)).ok
        assert pm.check_partial_rep(pm.trivial_module(h)).ok


def test_graded_block_module_passes(graded):
    assert pm.check_partial_rep(graded).ok


def test_bad_sweedler_candidate_fails_pr2_pr3():
    g = la.Mat([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    x = la.Mat([[1, 0, 0], [0, 1, 0], [0, 0, 0]])  # commutes with g: invalid
    cand = pm.PartialModule(H4, 3, (la.Mat.identity(3), g, x, g * x))
    report = pm.check_partial_rep(cand)
    assert not report.ok
    failed = {c.name for c in report.failures()}
    assert failed & {"PR2", "PR3"}
    witness = next(c.witness for c in report.failures() if c.witness)
    assert len(witness) == 2


def test_is_global_on_regular_and_graded(graded):
    assert pm.is_global(pm.regular_module(H4))
    assert not pm.is_global(graded)
    assert not pm.is_global(pm.w_n_module(1))


def test_global_core_examples(graded):
    assert pm.global_core(pm.regular_module(DUAL)) == la.Subspace.full(2)
    assert pm.global_core(graded).dim == 2
    assert pm.global_core(pm.w_n_module(2)).dim == 0


def test_global_shadow_examples(graded):
    reg = pm.regular_module(DUAL)
    shadow, q = pm.global_shadow(reg)
    assert shadow.dim == 2 and q == la.Mat.identity(2)
    shadow, q = pm.global_shadow(graded)
    assert shadow.dim == 2
    assert pm.is_global(shadow)
    shadow, _ = pm.global_shadow(pm.w_n_module(2))
    assert shadow.dim == 0


def test_is_pure(graded):
    assert not pm.is_pure(pm.regular_module(H4))
    assert pm.is_pure(pm.w_n_module(3))
    assert not pm.is_pure(pm.direct_sum([pm.trivial_module(H4), pm.w_n_module(2)]))
    assert not pm.is_pure(graded)


def test_hom_space_contains_identity(graded):
    homs = pm.hom_space(graded, graded)
    span = la.Subspace.from_vectors(9, [la.mat_to_vec(f) for f in homs])
    assert span.contains(la.mat_to_vec(la.Mat.identity(3)))


def test_hom_space_shift_commutant():
    w2 = pm.w_n_module(2)
    assert len(pm.hom_space(w2, w2)) == 2


def test_hom_space_zero():
    assert pm.hom_space(pm.w_n_module(1), pm.trivial_module(H4)) == []


def test_hom_space_rejects_mismatched_hopf():
    with pytest.raises(ValueError):
        pm.hom_space(pm.trivial_module(H4), pm.trivial_module(DUAL))


def test_direct_sum():
    w1 = pm.w_n_module(1)
    s = pm.direct_sum([w1, w1])
    assert s.dim == 2 and pm.check_partial_rep(s).ok
    assert s.pi[2] == la.Mat.zeros(2, 2)  # 1x1 shifts are zero
    empty = pm.direct_sum([], hopf=H4)
    assert empty.dim == 0
    w2 = pm.w_n_module(2)
    s2 = pm.direct_sum([w2, w2])
    assert s2.pi[2] == la.block_diag([w2.pi[2], w2.pi[2]])


def test_image_algebra_examples(graded):
    assert pm.image_algebra(graded).dim == 3
    t = graded.pi[0]
    ident = la.Mat.identity(3)
    assert (t * (t - ident) * (t.scale(2) - ident)).is_zero()

    reg = pm.regular_module(DUAL)
    img = pm.image_algebra(reg)
    assert img.dim <= DUAL.dim

    w2 = pm.w_n_module(2)
    img = pm.image_algebra(w2)
    # words in {0, shift}: identity and the shift
    assert img.dim == 2


def test_base_subalgebra_examples(graded):
    reg = pm.regular_module(H4)
    base = pm.base_subalgebra(reg)
    assert base.dim == 1  # global: eps operators are scalars

    eps0 = pm.epsilon_ops(graded)[0]
    assert eps0 == la.Mat([[1, 0, 0], [0, 1, 0], [0, 0, F(1, 2)]])
    base = pm.base_subalgebra(graded)
    assert base.dim == 2
    assert pm.base_subalgebra_commutes(graded)

    w1 = pm.w_n_module(1)
    # eps_g = pi(g) pi(S(g)) = 0; eps_x = pi(g)pi(-y) + pi(x)pi(1) = 0 on W1
    assert pm.epsilon_ops(w1)[1].is_zero()
    assert pm.epsilon_ops(w1)[2].is_zero()
    w2 = pm.w_n_module(2)
    shift = w2.pi[2]
    assert pm.epsilon_ops(w2)[1].is_zero()
    assert pm.epsilon_ops(w2)[2] == shift  # g-part dies, x-part survives


def test_tensor_with_global(graded):
    triv = pm.trivial_module(H4)
    w2 = pm.w_n_module(2)
    assert pm.tensor_with_global(w2, triv).pi == w2.pi
    reg = pm.regular_module(H4)
    both = pm.tensor_with_global(reg, reg)
    assert pm.is_global(both)
    mixed = pm.tensor_with_global(pm.w_n_module(1), reg)
    assert pm.check_partial_rep(mixed).ok
    with pytest.raises(ValidationError):
        pm.tensor_with_global(reg, pm.w_n_module(1))


def test_tensor_over_base_globals_recover_plain_tensor():
    reg = pm.regular_module(DUAL)
    plain = pm.tensor_with_global(reg, reg)
    balanced = pm.tensor_over_base(reg, reg)
    assert balanced.dim == plain.dim == 4
    assert balanced.pi == plain.pi


def test_tensor_over_base_of_graded_module(graded):
    out = pm.tensor_over_base(graded, graded)
    assert out.dim == 5
    assert pm.check_partial_rep(out).ok


def test_tensor_over_base_tower_module():
    # hand derivation: the balanced word pairs close on (shift, 0) and
    # (0, shift), so the relations kill all but the lowest tensor slot
    w2 = pm.w_n_module(2)
    out = pm.tensor_over_base(w2, w2)
    assert out.dim == 1
    assert pm.check_partial_rep(out).ok


def test_tensor_over_base_pure_against_global_collapses():
    # the g-epsilon operator is 0 on a pure module and the identity on a
    # global one, so balancing forces m (x) n = 0 for every pair
    w2 = pm.w_n_module(2)
    out = pm.tensor_over_base(w2, pm.regular_module(H4))
    assert out.dim == 0


# A valid 3-dim partial kS3 module: tests/gen.py's rng("snapa") draw under the
# default seed, after one random_dual_c2_partial(r, 4) and one
# random_sweedler_partial(r, 4), is random_ks3_partial(r, 3).  Its base
# algebra commutes, yet tensor_over_base reports the relation span unstable.
SNAPA_KS3 = (
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [["17/6", "-55/6", "13/6"], ["2/3", "-7/3", "1/3"], ["1/2", "-5/2", "-1/2"]],
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    [["-7/3", "17/3", "-7/3"], ["-5/12", "7/12", "-5/12"], ["7/4", "-29/4", "7/4"]],
    [[1, -5, 1], [0, 0, 0], [-1, 5, -1]],
    [[-4, 14, -2], [-1, "7/2", "-1/2"], [1, "-7/2", "1/2"]],
)


@pytest.mark.xfail(strict=True, raises=ValidationError,
                   reason="tensor_over_base rejects a valid kS3 module")
def test_tensor_over_base_of_a_valid_ks3_module():
    m = pm.PartialModule.build(hp.builtin("kS3"), [la.Mat(p) for p in SNAPA_KS3])
    assert pm.check_partial_rep(m).ok and pm.base_subalgebra_commutes(m)
    out = pm.tensor_over_base(m, m)
    assert pm.check_partial_rep(out).ok


def test_matrix_sweedler_sums_of_nothing_are_zero():
    zero = hp._freeze3([[[0] * 4] * 4] * 4)
    h = hp.HopfAlgebraData(4, H4.mult, H4.unit, zero, H4.counit,
                           H4.antipode, H4.antipode_inv)
    assert pm.comult_sum(h, 2, 3, lambda a, b: la.Mat.identity(3)) == la.Mat.zeros(3, 3)
    w2 = pm.w_n_module(2)
    assert w2.pi_vec((0, 0, 0, 0)) == la.Mat.zeros(2, 2)
    assert pm.comult_sum(H4, 2, 2, lambda a, b: w2.pi[a] * w2.pi[b]) \
        == w2.pi[1] * w2.pi[2] + w2.pi[2]
    assert w2.pi_vec((F(1, 2), 0, 1, -1)) \
        == w2.pi[0].scale(F(1, 2)) + w2.pi[2] - w2.pi[3]


def test_classify_dual_c2(graded):
    dims, cb = pm.classify_dual_c2(graded)
    assert dims == (1, 1, 1) and cb == la.Mat.identity(3)

    dims, _ = pm.classify_dual_c2(partially_graded_module(2, 1, 0))
    assert dims == (2, 1, 0)

    r = gen.rng("classify")
    m = gen.conjugate_module(partially_graded_module(1, 0, 2),
                             gen.rand_invertible(r, 3))
    dims, cb = pm.classify_dual_c2(m)
    assert dims == (1, 0, 2)
    expected = la.block_diag([la.Mat.identity(1), la.Mat.identity(2).scale(F(1, 2))])
    assert la.inverse(cb) * m.pi[0] * cb == expected


def test_classify_dual_c2_rejects_bad_operator():
    bad = pm.PartialModule(DUAL, 1, (la.Mat([[2]]), la.Mat([[-1]])))
    with pytest.raises(ValidationError):
        pm.classify_dual_c2(bad)


def test_classify_sweedler_wn():
    u, w, c, d = pm.classify_sweedler(pm.w_n_module(3))
    assert u.dim == 0 and w.dim == 3
    shift = la.Mat([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert c == shift and d == shift


def test_classify_sweedler_global():
    reg = pm.regular_module(H4)
    u, w, c, d = pm.classify_sweedler(reg)
    assert w.dim == 0 and u.dim == 4


def test_classify_sweedler_mixed():
    r = gen.rng("sweedler-mixed")
    mix = pm.direct_sum([gen.random_sweedler_global(r, 2), pm.w_n_module(2)])
    mix = gen.conjugate_module(mix, gen.rand_invertible(r, mix.dim))
    u, w, c, d = pm.classify_sweedler(mix)
    assert w.dim == 2 and u.dim == mix.dim - 2
    assert c * d == d * c and c * c == d * d


def test_w_n_module_shapes():
    assert pm.w_n_module(1).pi[2].is_zero()
    assert pm.w_n_module(2).pi[2] == la.Mat([[0, 0], [1, 0]])
    for n in (0, -1):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            pm.w_n_module(n)


def test_w3_submodule_tower():
    w3 = pm.w_n_module(3)
    found = pm.submodule_scan(w3, gen.zero_one_vectors(3))
    assert [s.dim for s in found] == [0, 1, 2, 3]
    for small, big in zip(found, found[1:]):
        assert big.contains_subspace(small)


def test_cocommutative_redundancy_of_pr4_pr5():
    """Over group algebras, PR1-PR3 passing forces PR4-PR5 to pass."""
    r = gen.rng("cocommutative")
    kc2 = hp.builtin("kC2")
    seen_valid = 0
    for _ in range(120):
        mats = (la.Mat.identity(2),
                la.Mat([[gen.rand_frac(r, 1) for _ in range(2)] for _ in range(2)]))
        cand = pm.PartialModule(kc2, 2, mats)
        rep = pm.check_partial_rep(cand)
        named = {c.name: c.passed for c in rep.checks}
        if named["PR1 unit"] and named["PR2"] and named["PR3"]:
            assert named["PR4"] and named["PR5"]
            seen_valid += 1
    assert seen_valid > 0


def test_image_of_global_module_is_global():
    """Quotients/images of global modules stay global."""
    r = gen.rng("epi")
    for _ in range(10):
        n = gen.random_global(r, "sweedler", 3)
        endos = pm.hom_space(n, n)
        f = la.Mat.zeros(n.dim, n.dim)
        for b in endos:
            f = f + b.scale(gen.rand_frac(r, 1))
        image = la.column_space(f)
        if image.dim in (0, n.dim):
            continue
        sub, _ = pm.restrict_to_invariant(n, image)
        assert pm.is_global(sub)


def test_core_shadow_adjunction_dimensions():
    r = gen.rng("adjunction-unit")
    for name in ("kC2-dual", "sweedler"):
        for _ in range(6):
            n = gen.random_global(r, name, 4)
            m = gen.random_partial(r, name, 4)
            core = pm.global_core(m)
            core_mod, _ = pm.restrict_to_invariant(m, core)
            assert len(pm.hom_space(n, m)) == len(pm.hom_space(n, core_mod))
            shadow, _ = pm.global_shadow(m)
            assert len(pm.hom_space(m, n)) == len(pm.hom_space(shadow, n))


def test_check_partial_rep_passes_on_generator_output():
    r = gen.rng("generators-valid")
    for name in ("kC2-dual", "sweedler", "kS3"):
        for _ in range(4):
            assert pm.check_partial_rep(gen.random_partial(r, name, 4)).ok


@pytest.mark.parametrize("name, products", [("kS3", 30), ("sweedler", 28)])
def test_check_partial_rep_makes_one_product_per_column_and_sweedler_term(
        name, products, monkeypatch):
    # d deviation columns, then one stacked product per Sweedler term in
    # each of PR2-PR5
    m = gen.random_partial(gen.rng(f"products-{name}"), name, 3)
    h = m.hopf
    assert products == h.dim + 4 * sum(len(t) for t in h.comult_terms)
    calls = gen.count_products(monkeypatch)
    assert pm.check_partial_rep(m).ok
    assert len(calls) == products


def test_check_partial_rep_evaluates_once_and_hands_out_new_reports(monkeypatch):
    g = la.Mat([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    x = la.Mat([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    cand = pm.PartialModule(H4, 3, (la.Mat.identity(3), g, x, g * x))
    calls = gen.count_partial_rep_checks(monkeypatch)
    first = pm.check_partial_rep(cand)
    assert calls == [cand]
    assert [c.name for c in first.checks] == ["PR1 unit", "PR2", "PR3", "PR4",
                                              "PR5"]
    assert not first.ok
    expected = first.to_json()
    first.record("extra", True)
    second = pm.check_partial_rep(cand)
    assert second is not first and len(calls) == 1
    assert second.to_json() == expected
    # an equal module built anew is evaluated again, to the same report
    again = pm.check_partial_rep(pm.PartialModule(H4, 3, cand.pi))
    assert len(calls) == 2 and again.to_json() == expected


def test_quotient_action_induces_operators():
    rel = la.Subspace.from_vectors(3, [(1, 0, 0)])
    op = la.Mat([[1, 1, 0], [0, 2, 0], [0, 0, 3]])
    q, qdim, induced = pm.quotient_action(3, rel, [op])
    assert qdim == 2 and q * op == induced[0] * q
    assert induced[0] == la.Mat([[2, 0], [0, 3]])


def test_quotient_action_rejects_operator_leaving_the_relations():
    rel = la.Subspace.from_vectors(2, [(1, 0)])
    stable = la.Mat.identity(2)
    leaves = la.Mat([[0, 0], [1, 0]])
    with pytest.raises(ValidationError):
        pm.quotient_action(2, rel, [stable, leaves])


# Witnesses pinned on two invalid two-dimensional Sweedler candidates
# (basis order 1, g, x, y); each fails one pair of the PR identities.
PR_CANDIDATES = [
    ([[0, 0], [0, -1]], [[1, 0], [1, 0]], [[-1, 0], [-1, 0]],
     {"PR3": (2, 1), "PR5": (2, 1)}),
    ([[1, 0], [1, 0]], [[0, 0], [1, 0]], [[0, 0], [-1, 0]],
     {"PR2": (1, 3), "PR4": (1, 3)}),
]


@pytest.mark.parametrize("g, x, y, failures", PR_CANDIDATES)
def test_partial_rep_witnesses_of_invalid_sweedler_candidates(g, x, y, failures):
    cand = pm.PartialModule(H4, 2, (la.Mat.identity(2), la.Mat(g), la.Mat(x), la.Mat(y)))
    report = pm.check_partial_rep(cand)
    assert [(c.name, c.witness) for c in report.failures()] == sorted(failures.items())
    assert report.check_named("PR1 unit").passed
    assert not pm.is_algebra_map(cand)
