"""The partial action of kG on A_par = k^{X_1} and its globalization.

A_par is the base algebra of the partial group algebra kG_par, and
kG_par is the partial smash product A_par # kG, of dimension
2^(|G|-2)(|G|+1) (Dokuchaev-Exel-Piccione, J. Algebra 226 (2000)).  The
globalization of A_par has dimension 2^|G| - 1.  PA2 is checked on A_par
and on its globalization, so both are compared with the element sums of
`actions_reference`, together with one-entry perturbations of them.
"""

import pytest

import actions_reference as ref
import gen
from hopf_partial import actions as ac
from hopf_partial import hopf as hp
from test_actions_differential import perturbed_algebras, perturbed_globalizations

GROUPS = {"C2": hp.cyclic_table(2), "C3": hp.cyclic_table(3),
          "C2xC2": hp.klein_table()}


@pytest.mark.parametrize("name, dims", [
    ("C2", (2, 3, 3)),
    ("C3", (4, 7, 8)),
    ("C2xC2", (8, 15, 20)),
])
def test_dimensions_of_a_par_its_globalization_and_kg_par(name, dims):
    n = len(GROUPS[name])
    b = gen.partial_action_algebra(GROUPS[name])
    assert ac.check_partial_action(b).ok
    gb, _, report = ac.globalize(b)
    assert report.ok
    assert (b.dim, gb.dim, ac.partial_smash(b).dim) == dims
    assert dims == (2 ** (n - 1), 2 ** n - 1, 2 ** (n - 2) * (n + 1))


@pytest.mark.parametrize("name, stride", [("C2", 1), ("C3", 1), ("C2xC2", 16)])
def test_pa2_sides_match_the_element_sums(name, stride):
    # the element sums take about 18 ms per algebra on C2xC2's 768
    # perturbations of A_par, so there every 16th one is compared
    b = gen.partial_action_algebra(GROUPS[name])
    gb = ac.globalize(b)[0]
    inputs = [b, gb, *perturbed_algebras(b)[::stride], *perturbed_globalizations(gb)]
    differs = []
    for alg in inputs:
        sides = ac._pa2_sides(alg)
        assert sides == ref.pa2_sides(alg)
        differs.append(any(lhs != rhs for lhs, rhs in sides))
    assert differs[:2] == [False, False] and any(differs)


def test_ks3_a_par_globalizes():
    b = gen.partial_action_algebra(hp.s3_table())
    assert b.dim == 32
    gb, _, report = ac.globalize(b)
    assert report.ok and gb.dim == 63
