"""Count pins for the smash and Morita path: no per-vector scan, PA2 on the
generators, one elimination per factoring.

* `first_unstable` reads echelon coordinates and checks them with one
  product, so `morita_context`, whose checks all hold on the shipped
  algebras, applies no operator vector by vector (`linalg._image`, the
  per-vector image that only `span_closure` still uses).
* `globalize` checks PA2 on Bbar for the algebra generators of H only,
  as Bbar's module is global: its PA2 evaluates one pair of sides per
  generator, while `check_partial_action` evaluates one per basis element.
* `dilation._factor_through` reads the rank of dec from the elimination
  that solves for F, so each call eliminates once.
"""

import pytest

from hopf_partial import actions as ac
from hopf_partial import dilation as dl
from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial import partial as pm
from hopf_partial.demos import scalar_algebra, shipped_partial_algebras

import gen

SHIPPED = shipped_partial_algebras()


@pytest.mark.parametrize("name", list(SHIPPED))
def test_morita_context_applies_no_operator_vector_by_vector(monkeypatch, name):
    # the algebra generators of H, found once per Hopf algebra by saturation
    # and memoized on it, are found before counting
    pm._algebra_generators(SHIPPED[name].hopf)
    images = gen.count_calls(monkeypatch, la, "_image")
    *_, report = ac.morita_context(SHIPPED[name])
    assert report.ok
    assert images == []


def test_the_pin_sees_a_per_vector_image(monkeypatch):
    images = gen.count_calls(monkeypatch, la, "_image")
    la.span_closure(la.Subspace.from_vectors(2, [(1, 0)]), [la.Mat([[0, 1], [1, 0]])])
    assert images


def pa2_side_counts(monkeypatch):
    """(algebra, number of PA2 sides) per `_pa2_sides` call from now on."""
    counts = []
    original = ac._pa2_sides

    def counted(b, *args):
        sides = original(b, *args)
        counts.append((b, len(sides)))
        return sides

    monkeypatch.setattr(ac, "_pa2_sides", counted)
    dl.standard_dilation.cache_clear()
    return counts


@pytest.mark.parametrize("b", [*SHIPPED.values(),
                               scalar_algebra(hp.builtin("kS3"), [1, 0, 0, 0, 1, 1])],
                         ids=[*SHIPPED, "kS3-order-3"])
def test_the_globalization_checks_pa2_on_the_algebra_generators(monkeypatch, b):
    counts = pa2_side_counts(monkeypatch)
    gb, _, report = ac.globalize(b)
    assert report.check_named("action by algebra maps").passed
    gens = pm._algebra_generators(b.hopf)
    assert len(gens) < b.hopf.dim
    assert [n for alg, n in counts if alg is gb] == [len(gens)]
    assert [n for alg, n in counts if alg is b] == [b.hopf.dim]


def factor_eliminations(monkeypatch):
    """Per `_factor_through` call from now on, the `_eliminate` calls it made."""
    eliminations, per_call = [], []
    eliminate, factor = la._eliminate, dl._factor_through

    def counted_eliminate(rows, n_cols):
        eliminations.append(n_cols)
        return eliminate(rows, n_cols)

    def counted_factor(dec, target):
        before = len(eliminations)
        try:
            return factor(dec, target)
        finally:
            per_call.append(len(eliminations) - before)

    monkeypatch.setattr(la, "_eliminate", counted_eliminate)
    for module in (dl, ac):
        monkeypatch.setattr(module, "_factor_through", counted_factor)
    dl.standard_dilation.cache_clear()
    return per_call


@pytest.mark.parametrize("name", list(SHIPPED))
def test_zeta_xi_factors_with_one_elimination_per_call(monkeypatch, name):
    per_call = factor_eliminations(monkeypatch)
    assert ac.zeta_xi(SHIPPED[name])[2].ok
    # zeta, xi, and dilate_morphism of iota and of rho
    assert per_call == [1] * 4


def test_universal_morphism_factors_with_one_elimination(monkeypatch):
    m = gen.random_builtin_partial(gen.rng("factor-once"), "sweedler", 3)
    dil = dl.standard_dilation(m)
    per_call = factor_eliminations(monkeypatch)
    dl.universal_morphism(dil)
    assert per_call == [1]


@pytest.mark.parametrize("dec, target", [([[1, 1], [2, 2]], [[1, 0]]), ([[1, 1]], [[1, 0]])])
def test_a_refused_factoring_also_eliminates_once(monkeypatch, dec, target):
    per_call = factor_eliminations(monkeypatch)
    with pytest.raises(ValueError):
        dl._factor_through(la.Mat(dec), la.Mat(target))
    assert per_call == [1]
