"""Algebra elements as `Mat` columns against the per-element forms they replaced.

`hopf.mult_by` takes a coefficient matrix and returns one combination per
column; `vector_reference.mult_by` is the per-element form it replaced,
applied column by column.  Every family `mult_by` builds while the
library runs is compared with that oracle.  `dilation._right_inverse_exists`
reads psi off the translates of theta, where the oracle solves the
Kronecker system, so the `global_iff_phi_iso` reports are compared with
the ones built around the oracle; `hom_space` and the image and base
algebras are compared with the forms built on `mat_to_vec` and
`vec_to_mat`.

Inputs: seeded partial modules of dimensions 0-4 over every builtin, each
also with one entry perturbed, and the shipped partial module algebras
through every construction of `actions`.
"""

import pytest

from hopf_partial import actions as ac
from hopf_partial import dilation as dl
from hopf_partial import hopf as hp
from hopf_partial import partial as pm
from hopf_partial.demos import graded_group_algebra, shipped_partial_algebras

import gen
import vector_reference as ref
from test_intertwining_differential import outcome, perturbed_module

DRAWS = 2


def recorded_families(monkeypatch):
    """Record (mats, u, result) of every `mult_by` call from now on, through
    `hopf` and through the name `actions` imported."""
    calls = []
    original = hp.mult_by

    def recording(mats, u):
        out = original(mats, u)
        calls.append((tuple(mats), u, out))
        return out

    monkeypatch.setattr(hp, "mult_by", recording)
    monkeypatch.setattr(ac, "mult_by", recording)
    dl.standard_dilation.cache_clear()
    return calls


def assert_families_match(calls):
    assert calls
    for mats, u, out in calls:
        assert out == ref.mult_by_columns(mats, u)


def module_inputs(name):
    """Seeded modules of dimension 0-4 over name, and a perturbation of each."""
    r = gen.rng(f"vectors-{name}")
    for dim in range(5):
        for _ in range(DRAWS):
            m = gen.random_builtin_partial(r, name, dim)
            yield m
            if dim:
                yield perturbed_module(r, m)


def oracle_characterization(monkeypatch, m):
    with monkeypatch.context() as patch:
        patch.setattr(dl, "_right_inverse_exists", ref.right_inverse_exists)
        return outcome(dl.global_iff_phi_iso, m)


@pytest.mark.parametrize("name", hp.BUILTIN_NAMES)
def test_module_constructions_match_the_vector_forms(monkeypatch, name):
    h = hp.builtin(name)
    calls = recorded_families(monkeypatch)
    kinds = set()
    for m in module_inputs(name):
        valid = pm.check_partial_rep(m).ok
        pm.is_algebra_map(m)
        assert hp.antipode_images(h, m.pi) == ref.antipode_images(h, m.pi, m.dim, m.dim)
        got = outcome(dl.global_iff_phi_iso, m)
        assert got == oracle_characterization(monkeypatch, m)
        if valid:
            std = dl.standard_dilation(m)
            assert dl._right_inverse_exists(m, std) == ref.right_inverse_exists(m, std)
        kinds.add((valid, got[0] == "ok" and got[1].checks[2].passed))
        assert pm.hom_space(m, m) == ref.hom_space(m, m)
        assert pm.image_algebra(m) == ref.generated_algebra(m.dim, m.pi)
        assert pm.base_subalgebra(m) \
            == ref.generated_algebra(m.dim, pm.twisted_conjugates(m))
    # right inverses found and refused, and perturbed modules
    assert {(True, True), (True, False), (False, False)} <= kinds
    assert_families_match(calls)


def test_hom_spaces_between_modules_match(monkeypatch):
    r = gen.rng("vectors-hom")
    for name in hp.BUILTIN_NAMES:
        for _ in range(DRAWS):
            m = gen.random_builtin_partial(r, name, r.randint(0, 3))
            n = gen.random_builtin_partial(r, name, r.randint(0, 3))
            for a, b in ((m, n), (n, m), (perturbed_module(r, m) if m.dim else m, n)):
                assert pm.hom_space(a, b) == ref.hom_space(a, b)


@pytest.mark.parametrize("name, alg", list(shipped_partial_algebras().items()))
def test_algebra_constructions_build_the_per_column_families(monkeypatch, name, alg):
    calls = recorded_families(monkeypatch)
    assert ac.check_partial_action(alg).ok
    gb, phi, _ = ac.globalize(alg)
    ac.partial_smash(alg)
    ac.global_smash(gb)
    ac.zeta_xi(alg)
    ac.morita_context(alg)
    assert outcome(dl.global_iff_phi_iso, alg.as_module()) \
        == oracle_characterization(monkeypatch, alg.as_module())
    assert_families_match(calls)


def test_induced_algebras_build_the_per_column_families(monkeypatch):
    calls = recorded_families(monkeypatch)
    graded = graded_group_algebra()
    assert ac.check_global_action(graded).ok
    for e in ((1, 0), ("1/2", "1/2"), ("1/2", "-1/2"), (0, 0)):
        ac.induced_partial_algebra(graded, e)
    assert_families_match(calls)
