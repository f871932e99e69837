"""`linalg.intertwining_witness` against the per-index loop it replaced.

The oracle `loop_witness` is that loop: for i = 0, 1, ... it compares
f src[i] with dst[i] f and returns the first index where they differ.
The sites that now call the helper are compared with test-side copies of
their old loops: the message of `ModuleMorphism.build` and of
`partial.quotient_action`, the (ok, witness) of `check_c_condition`, the
value and witness of every Check of `check_equivalence_lemma` (the loops
of `twisted_conjugate_reference`), and the verdicts of `is_module_iso`,
`base_subalgebra_commutes` and the "intertwining" Check of
`check_dilation`.

Inputs: seeded partial modules of dimensions 0-3 over every builtin, each
with a change of basis (an intertwiner onto the conjugated module), the
(module, projection) pairs of `gen.random_projected`, and one-entry
perturbations of the map, of one matrix of a family or of the module.
"""

import pytest

from hopf_partial import dilation as dl
from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial import partial as pm
from hopf_partial import projection as pj
from hopf_partial.reports import ValidationError

import gen
import twisted_conjugate_reference as tref

DRAWS = 2


def loop_witness(f, src, dst):
    """The first i with f src[i] != dst[i] f, one index at a time, or None."""
    for i in range(len(src)):
        if f * src[i] != dst[i] * f:
            return i
    return None


def perturbed(r, mat):
    """mat with one random entry moved by a nonzero fraction."""
    rows = [list(row) for row in mat.entries]
    i, j = r.randrange(mat.rows), r.randrange(mat.cols)
    rows[i][j] += gen.rand_frac(r) or 1
    return la.Mat(rows, cols=mat.cols)


def perturbed_family(r, family):
    k = r.randrange(len(family))
    return tuple(perturbed(r, a) if i == k else a for i, a in enumerate(family))


def perturbed_module(r, m):
    return pm.PartialModule(m.hopf, m.dim, perturbed_family(r, m.pi))


def morphism_message(source, target, mat):
    """The message of the old per-index loop of ModuleMorphism.build."""
    for i in range(source.hopf.dim):
        if mat * source.pi[i] != target.pi[i] * mat:
            return f"matrix does not intertwine the actions at index {i}"
    return None


def quotient_reference(n, rel, ops):
    """The old quotient_action: each induced operator checked as it is built."""
    q, qdim = la.quotient_map(n, rel)
    section = la.quotient_section(n, rel)
    induced = []
    for k, op in enumerate(ops):
        mat = q * op * section
        if mat * q != q * op:
            raise ValidationError(f"operator {k} does not descend to the quotient")
        induced.append(mat)
    return q, qdim, induced


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValidationError as exc:
        return "error", str(exc)


def module_pairs(name):
    """(m, n, f) with f: m -> n an intertwiner, and perturbations of each."""
    r = gen.rng(f"intertwining-{name}")
    for dim in range(4):
        for _ in range(DRAWS):
            m = gen.random_builtin_partial(r, name, dim)
            q = gen.rand_invertible(r, dim)
            n = gen.conjugate_module(m, q)
            yield m, n, q
            if dim:
                yield m, n, perturbed(r, q)
                yield m, perturbed_module(r, n), q
                yield perturbed_module(r, m), n, q


def projected_pairs():
    """(module, t) of random projected modules, and with the module perturbed."""
    r = gen.rng("intertwining-projected")
    for kind in range(6):
        for _ in range(DRAWS):
            p = gen.random_projected(r, kind)
            yield p.module, p.t
            if p.module.dim:
                yield perturbed_module(r, p.module), p.t


@pytest.mark.parametrize("name", hp.BUILTIN_NAMES)
def test_module_maps_match_the_loop(name):
    witnesses = set()
    for m, n, f in module_pairs(name):
        w = la.intertwining_witness(f, m.pi, n.pi)
        assert w == loop_witness(f, m.pi, n.pi)
        witnesses.add(w)
        got = outcome(pm.ModuleMorphism.build, m, n, f)
        expected = morphism_message(m, n, f)
        assert got[0] == ("ok" if expected is None else "error")
        if expected is not None:
            assert got[1] == expected
        assert pm.is_module_iso(f, m, n) == (w is None and la.rank(f) == m.dim)
    assert None in witnesses and len(witnesses) > 1


@pytest.mark.parametrize("name", hp.BUILTIN_NAMES)
def test_twisted_conjugates_commute_as_in_the_loop(name):
    # base_subalgebra_commutes, row by row
    for m, _, _ in module_pairs(name):
        eps = pm.twisted_conjugates(m)
        rows = [loop_witness(a, eps, eps) for a in eps]
        assert [la.intertwining_witness(a, eps, eps) for a in eps] == rows
        assert pm.base_subalgebra_commutes(m) == all(w is None for w in rows)


def test_projections_match_the_loop():
    seen = set()
    for module, t in projected_pairs():
        family = pm.twisted_conjugates(module, t)
        w = la.intertwining_witness(t, family, family)
        assert w == loop_witness(t, family, family)
        assert pj.check_c_condition(module, t) == tref.c_condition(module, t)
        report = pj.check_equivalence_lemma(module, t)
        expected = tref.equivalence_witnesses(module, t)
        assert [(c.passed, c.witness) for c in report.checks[:3]] \
            == [(x is None, x) for x in expected]
        agree = (expected[0] is None) == (expected[1] is None) == (expected[2] is None)
        assert report.checks[3].passed == agree
        seen.add(w)
    assert None in seen and len(seen) > 1


@pytest.mark.parametrize("name", hp.BUILTIN_NAMES)
def test_quotients_match_the_loop(name):
    r = gen.rng(f"intertwining-quotient-{name}")
    messages = set()
    for dim in range(1, 4):
        for _ in range(DRAWS):
            m = gen.random_builtin_partial(r, name, dim)
            # an invariant subspace, and a random line that need not be one
            for rel in (pm.submodule_closure(m, gen.zero_one_vectors(dim)[0]),
                        la.Subspace.from_vectors(dim, [[gen.rand_frac(r) or 1
                                                        for _ in range(dim)]])):
                got = outcome(pm.quotient_action, dim, rel, m.pi)
                expected = outcome(quotient_reference, dim, rel, m.pi)
                assert got == expected
                messages.add(got[1] if got[0] == "error" else None)
    assert None in messages
    if hp.builtin(name).dim > 1:
        assert len(messages) > 1


def test_dilation_intertwining_matches_the_loop():
    r = gen.rng("intertwining-dilation")
    verdicts = set()
    for name in ("kC2-dual", "sweedler", "kS3"):
        for dim in range(4):
            m = gen.random_builtin_partial(r, name, dim)
            dil = dl.standard_dilation(m)
            thetas = [dil.theta] + ([perturbed(r, dil.theta)] if dim else [])
            for theta in thetas:
                d = dl.Dilation(m, dil.projected, theta, dil.proper, dil.minimal)
                t, mod = d.projected.t, d.projected.module
                expected = loop_witness(theta, m.pi, [t * p for p in mod.pi]) is None
                assert dl.check_dilation(d).check_named("intertwining").passed == expected
                verdicts.add(expected)
    assert verdicts == {True, False}


def test_families_of_different_lengths_are_a_shape_error():
    a = la.Mat.identity(2)
    with pytest.raises(la.ShapeError):
        la.intertwining_witness(a, [a, a], [a])
    assert la.intertwining_witness(a, [], []) is None
