"""The global shadow and the balanced tensor product against their fixpoints.

`partial.global_shadow` takes the relations of the shadow as Dev, the
column space of the deviations D(e_a, e_b), which is pi-invariant for any
family pi; `partial.tensor_over_base` takes the balanced relations as the
column space of the generators' relations eps~_i (x) 1 - 1 (x) eps_i.
`saturation_reference` keeps the span-saturation forms they replaced.
The relation spans must agree as subspaces (canonical echelon bases), and
the outputs or the `ValidationError` messages exactly, on seeded modules
over every builtin and on one-entry perturbations of them.  Dev is
pi-invariant for any family, so the shadow's relation spans are compared
on the perturbed modules too, which `global_shadow` itself refuses with
their PR1-PR5 report.
"""

import pytest

from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial import partial as pm
from hopf_partial.demos import partially_graded_module
from hopf_partial.reports import ValidationError

import gen
import saturation_reference as ref
from test_intertwining_differential import outcome, perturbed_module
from test_partial import SNAPA_KS3

DRAWS = 2


def shadow_inputs(name):
    """Seeded modules of dimension 0-4 over name, and a perturbation of each."""
    r = gen.rng(f"shadow-{name}")
    for dim in range(5):
        for _ in range(DRAWS):
            m = gen.random_builtin_partial(r, name, dim)
            yield m
            if dim:
                yield perturbed_module(r, m)


@pytest.mark.parametrize("name", hp.BUILTIN_NAMES)
def test_global_shadow_matches_the_fixpoint(monkeypatch, name):
    calls = gen.count_calls(monkeypatch, pm, "quotient_action")
    kinds = set()
    for m in shadow_inputs(name):
        calls.clear()
        assert la.column_space(la.hstack(pm._basis_deviations(m))) \
            == ref.shadow_relations(m)
        got = outcome(pm.global_shadow, m)
        rep = pm.check_partial_rep(m)
        if rep.ok:
            assert calls[0][1] == ref.shadow_relations(m)
            assert got == outcome(ref.global_shadow, m)
        else:
            assert calls == []
            assert got == ("error", str(ValidationError(rep)))
        kinds.add((got[0], rep.ok))
    assert {("ok", True), ("error", False)} <= kinds


def test_global_shadow_and_core_refuse_a_module_that_fails_the_axioms():
    # pi(1) = pi(g) = P, a proper idempotent, is multiplicative, so every
    # deviation vanishes and the fixpoint's shadow is the module itself,
    # which fails PR1 only after the quotient is built
    p = la.Mat([[1, 0], [0, 0]])
    bad = pm.PartialModule(hp.builtin("kC2"), 2, (p, p))
    assert outcome(ref.global_shadow, bad) == ("error", "shadow fails the partial axioms")
    refused = ("error", "partial representation: failed checks: PR1 unit")
    assert outcome(pm.global_shadow, bad) == refused
    assert outcome(pm.global_core, bad) == refused


def tensor_pairs(name):
    """Seeded pairs over name: valid ones, then ones with a perturbed factor."""
    r = gen.rng(f"balanced-{name}")
    top = 2 if name == "kS3" else 3
    for _ in range(DRAWS):
        m = gen.random_builtin_partial(r, name, r.randint(1, top))
        n = gen.random_builtin_partial(r, name, r.randint(0, top))
        yield m, n
        yield perturbed_module(r, m), n


def special_pairs():
    h4 = hp.builtin("sweedler")
    towers = [pm.w_n_module(k) for k in (1, 2, 3)]
    yield from ((a, b) for a in towers for b in towers)
    yield towers[1], pm.regular_module(h4)
    yield pm.regular_module(h4), towers[1]
    graded = [partially_graded_module(*dims)
              for dims in ((1, 1, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0))]
    yield from ((a, b) for a in graded for b in graded)
    snapa = pm.PartialModule.build(hp.builtin("kS3"), [la.Mat(p) for p in SNAPA_KS3])
    yield snapa, snapa


def _compare_tensor(monkeypatch, pairs):
    calls = gen.count_calls(monkeypatch, pm, "first_unstable")
    outcomes = []
    for m, n in pairs:
        calls.clear()
        got = outcome(pm.tensor_over_base, m, n)
        if calls:
            assert calls[0][0] == ref.balanced_relations(m, n)
        assert got == outcome(ref.tensor_over_base, m, n)
        outcomes.append(got)
    return outcomes


@pytest.mark.parametrize("name", hp.BUILTIN_NAMES)
def test_tensor_over_base_matches_the_word_pairs(monkeypatch, name):
    outcomes = _compare_tensor(monkeypatch, tensor_pairs(name))
    assert [kind for kind, _ in outcomes[::2]] == ["ok"] * DRAWS
    assert ("error", "tensor factors must be valid partial modules") in outcomes


def test_tensor_over_base_of_towers_graded_and_ks3_matches(monkeypatch):
    outcomes = _compare_tensor(monkeypatch, special_pairs())
    assert outcomes[-1] == ("error", "relation span is not stable under the "
                                     "diagonal action (basis index 1)")
    assert [kind for kind, _ in outcomes[:-1]] == ["ok"] * (len(outcomes) - 1)
