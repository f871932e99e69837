"""The standard dilation and the restriction against their elimination forms.

`linalg.echelon_coords` reads coordinates in a `Subspace`'s echelon basis
at its pivots and proves them with one product, where the oracle
`dilation_reference` solves by elimination; a dilation's restriction is
its source instance when the two are equal, where the oracle builds a new
module; the family t pi(e_i) is built once per projected module, where the
oracle builds it for each Check; t is eliminated once per projected
module, and the restriction, chi and "image of theta is im t" read that
rref, where the oracle solves against the pivot-column basis of im t and
compares column spaces; `ProjectedModule.build` proves globality on the
generators of H, where the oracle reads the full deviation table.
Every result must be the same: each field of every standard dilation,
its Checks, every restriction, and the constructions built on them, run
once as they are and once with every changed site routed through the
oracle.

Inputs: seeded partial modules of dimensions 0-4 over the six builtins,
each also with one entry perturbed, the `graded_projection` pairs and
seeded projected modules, the shipped partial module algebras and the
induced algebras of the graded group algebra; dilations built by hand on
those projected modules, whose embedding is the inclusion of im t, that
inclusion in another basis, perturbed, not injective, or leaving im t; for `echelon_coords`,
random subspaces with consistent and inconsistent right-hand sides.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from hopf_partial import actions as ac
from hopf_partial import dilation as dl
from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial import partial as pm
from hopf_partial import projection as pj
from hopf_partial.demos import (graded_group_algebra, graded_projection,
                                shipped_partial_algebras)
from hopf_partial.reports import ValidationError

import dilation_reference as ref
import gen
from test_intertwining_differential import perturbed, perturbed_module
from test_linalg_differential import entries

DRAWS = 2


def outcome(fn, *args):
    """("ok", result) with every report as its JSON, or the error raised."""
    try:
        return "ok", as_json(fn(*args))
    except (ValidationError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def as_json(value):
    if isinstance(value, tuple):
        return tuple(map(as_json, value))
    return value.to_json() if hasattr(value, "to_json") else value


def route_through_oracle(patch):
    """Send every site this change touched to its elimination form."""
    patch.setattr(dl, "standard_dilation", ref.standard_dilation)
    patch.setattr(ac, "standard_dilation", ref.standard_dilation)
    patch.setattr(dl, "_evaluate_dilation",
                  lambda d: tuple(ref.evaluate_dilation(d).checks))
    patch.setattr(dl, "is_minimal", ref.is_minimal)
    patch.setattr(pj, "restrict", ref.restrict)
    patch.setattr(pj.ProjectedModule, "build", staticmethod(ref.build_projected))
    for module in (pj, pm, ac):
        patch.setattr(module, "restrict_operators",
                      lambda ops, sub: ref.restrict_operators(ops, sub.basis.transpose()))
    patch.setattr(ac, "_subalgebra_left", lambda sub, ops, extra, msg:
                  ref.subalgebra_left(sub.basis.transpose(), ops, extra, msg))
    patch.setattr(ac, "echelon_coords",
                  lambda sub, blocks: ref.solve_blocks(sub.basis.transpose(), blocks))


def both_ways(monkeypatch, fn, *args):
    """outcome(fn, *args) as the library runs, and through the oracle."""
    dl.standard_dilation.cache_clear()
    got = outcome(fn, *args)
    with monkeypatch.context() as patch:
        route_through_oracle(patch)
        expected = outcome(fn, *args)
    return got, expected


def module_inputs(name):
    """Seeded modules of dimension 0-4 over name, and a perturbation of each."""
    r = gen.rng(f"dilation-differential-{name}")
    for dim in range(5):
        for _ in range(DRAWS):
            m = gen.random_builtin_partial(r, name, dim)
            yield m
            if dim:
                yield perturbed_module(r, m)


@pytest.mark.parametrize("name", hp.BUILTIN_NAMES)
def test_standard_dilations_and_their_checks_match(monkeypatch, name):
    kinds = set()
    for m in module_inputs(name):
        dl.standard_dilation.cache_clear()
        got = outcome(dl.standard_dilation, m)
        expected = outcome(ref.standard_dilation, m)
        assert got == expected
        if got[0] != "ok":
            kinds.add("refused")
            continue
        dil, old = got[1], expected[1]
        for field in ("source", "projected", "theta", "proper", "minimal",
                      "ambient_inclusion"):
            assert getattr(dil, field) == getattr(old, field)
        assert dl.check_dilation(dil).to_json() == ref.evaluate_dilation(old).to_json()
        back, incl = pj.restrict(dil.projected)
        assert (back, incl) == ref.restrict(old.projected)
        kinds.add("source instance" if back is m else "new module")
        assert pj.is_minimal(dil.projected) == ref.is_minimal(old.projected)
        got, expected = both_ways(monkeypatch, dl.global_iff_phi_iso, m)
        assert got == expected
        q = gen.rand_invertible(gen.rng(f"dilate-{name}-{m.dim}"), m.dim)
        f = pm.ModuleMorphism.build(m, gen.conjugate_module(m, q), q)
        got, expected = both_ways(monkeypatch, dl.dilate_morphism, f)
        assert got == expected and got[0] == "ok"
    assert "refused" in kinds and "source instance" in kinds


def projected_inputs():
    r = gen.rng("dilation-differential-projected")
    pairs = [graded_projection(n1, n2, t) for n1 in range(3) for n2 in range(3)
             for t in (1, 2)]
    return pairs + [gen.random_projected(r) for _ in range(12)]


def test_restrictions_and_universal_morphisms_match(monkeypatch):
    for p in projected_inputs():
        # a new equal pair carries no memo
        fresh = pj.ProjectedModule(p.module, p.t)
        got = outcome(pj.restrict, fresh)
        assert got == outcome(ref.restrict, p)
        assert pj.is_minimal(fresh) == ref.is_minimal(p)
        got, expected = both_ways(monkeypatch, pj.minimalize, p)
        assert got == expected
        if got[0] == "ok":
            assert pj.restrict(got[1]) == ref.restrict(expected[1])
        source, incl = ref.restrict(p)
        d2 = dl.Dilation.build(source, pj.ProjectedModule(p.module, p.t), incl)
        got, expected = both_ways(monkeypatch, dl.universal_morphism, d2)
        assert got == expected


def embeddings(r, p):
    """(kind, source, theta) for hand-built dilations on p: the restriction
    and its inclusion, the inclusion in another basis with the source
    carried along, the inclusion perturbed, with a column dropped, and
    moved off im t."""
    source, incl = ref.restrict(p)
    n, k = p.module.dim, incl.cols
    yield "restriction", source, incl
    q = gen.rand_invertible(r, k)
    yield "new basis", gen.conjugate_module(source, la.inverse(q)), incl * q
    if k:
        yield "perturbed", source, perturbed(r, incl)
        drop = la.Mat([[int(i == j and j < k - 1) for j in range(k)] for i in range(k)])
        yield "not injective", source, incl * drop
        other = la.Mat.identity(n) - p.t
        yield "off im t", source, incl + other * la.Mat(
            [[gen.rand_frac(r) for _ in range(k)] for _ in range(n)], cols=k)


def test_hand_built_dilations_check_alike():
    r = gen.rng("dilation-differential-hand-built")
    seen = set()
    for p in projected_inputs():
        for kind, source, theta in embeddings(r, p):
            fresh = pj.ProjectedModule(p.module, p.t)
            d = dl.Dilation(source, fresh, theta, False, False)
            report = dl.check_dilation(d).to_json()
            assert report == ref.evaluate_dilation(d).to_json()
            checks = {c["name"]: c["passed"] for c in report["checks"]}
            seen.add((kind, checks["image of theta is im t"],
                      checks["restriction isomorphic to source via theta"]))
            assert pj.restrict(fresh) == ref.restrict(p)
            incl, r_rows = pj._image(fresh)
            assert r_rows * incl == la.Mat.identity(incl.cols)
    assert {("restriction", True, True), ("new basis", True, True),
            ("not injective", False, False), ("off im t", False, False)} <= seen


def test_direct_sums_dilate_alike(monkeypatch):
    r = gen.rng("dilation-differential-sums")
    for name in ("kC2-dual", "sweedler", "kS3"):
        ms = [gen.random_builtin_partial(r, name, dim) for dim in (1, 2)]
        got, expected = both_ways(monkeypatch, dl.dilation_preserves_sums, ms)
        assert got == expected and got[0] == "ok"


def smash_parts(s):
    return s, s.left, s.projector, s.ambient_module


@pytest.mark.parametrize("name, alg", list(shipped_partial_algebras().items()))
def test_algebra_constructions_match(monkeypatch, name, alg):
    got, expected = both_ways(monkeypatch, ac.globalize, alg)
    assert got == expected and got[0] == "ok"
    assert got[1][0].left == expected[1][0].left
    got, expected = both_ways(monkeypatch, ac.partial_smash, alg)
    assert got[0] == expected[0] == "ok"
    assert smash_parts(got[1]) == smash_parts(expected[1])
    got, expected = both_ways(monkeypatch, ac.zeta_xi, alg)
    assert got == expected and got[0] == "ok"


def test_induced_algebras_match(monkeypatch):
    graded = graded_group_algebra()
    for e in ((1, 0), ("1/2", "1/2"), ("1/2", "-1/2"), (0, 0), (1, 1), (2, 0)):
        got, expected = both_ways(monkeypatch, ac.induced_partial_algebra, graded, e)
        assert got == expected
        if got[0] == "ok":
            assert got[1].left == expected[1].left


def test_sweedler_classifications_match(monkeypatch):
    kinds = set()
    for m in module_inputs("sweedler"):
        got, expected = both_ways(monkeypatch, pm.classify_sweedler, m)
        assert got == expected
        kinds.add(got[0] if got[0] != "ok" else ("ok", got[1][0].dim > 0))
        if got[0] == "ok":
            for part in got[1][:2]:
                got_part, expected_part = both_ways(
                    monkeypatch, pm.restrict_to_invariant, m, part)
                assert got_part == expected_part
    assert {("ok", True), ("ok", False), "ValidationError"} <= kinds


# -- echelon coordinates --------------------------------------------------------

@st.composite
def systems(draw):
    """(sub, blocks): the span of a drawn matrix's columns and one to three
    right-hand sides, each made inside it from drawn coefficients or drawn
    freely."""
    n = draw(st.integers(min_value=0, max_value=4))
    kind = draw(st.sampled_from(["drawn", "zero", "full"]))
    if kind == "zero":
        sub = la.Subspace.zero(n)
    elif kind == "full":
        sub = la.Subspace.full(n)
    else:
        k = draw(st.integers(min_value=0, max_value=4))
        sub = la.column_space(la.Mat(draw(entries(n, k)), cols=k))
    blocks = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        cols = draw(st.integers(min_value=0, max_value=3))
        if draw(st.booleans()):
            coeffs = la.Mat(draw(entries(sub.dim, cols)), cols=cols)
            blocks.append(sub.basis.transpose() * coeffs)
        else:
            blocks.append(la.Mat(draw(entries(n, cols)), cols=cols))
    return sub, blocks


@given(systems())
@example((la.Subspace.from_vectors(2, [(1, 0)]), [la.Mat([[1], [1]])]))
@example((la.Subspace.from_vectors(3, [(1, 2, 0)]),
          [la.Mat([[2, 0], [4, 0], [0, 0]]), la.Mat([["1/3"], ["2/3"], [0]])]))
@example((la.Subspace.from_vectors(3, [(1, 2, 0)]),
          [la.Mat([[2], [4], [0]]), la.Mat([[0], [0], [1]])]))
@example((la.Subspace.zero(2), [la.Mat([[0], [0]])]))
@example((la.Subspace.zero(2), [la.Mat([[0], [1]])]))
@example((la.Subspace.full(3), [la.Mat([[1, "1/2"], [0, 3], ["-2/3", 0]])]))
@settings(max_examples=200, deadline=None)
def test_echelon_coords_match_solve_blocks(system):
    sub, blocks = system
    got = la.echelon_coords(sub, blocks)
    expected = ref.solve_blocks(sub.basis.transpose(), blocks)
    if expected is None:
        assert got is None
    else:
        assert type(got) is tuple and len(got) == len(blocks)
        for new, old in zip(got, expected):
            assert (new.rows, new.cols, new.num, new.den) \
                == (old.rows, old.cols, old.num, old.den)


def test_echelon_coords_reject_a_wrong_height():
    with pytest.raises(la.ShapeError, match="row count mismatch"):
        la.echelon_coords(la.Subspace.full(2), [la.Mat.zeros(3, 1)])
