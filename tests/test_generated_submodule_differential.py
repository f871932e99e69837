"""The generated submodules of global actions against the span-saturation fixpoint.

`dilation.standard_dilation` takes the space of the standard dilation as
the column space of the translates of phi, and `projection.is_proper` and
`projection.minimalize` take the submodule generated by im t as the
column space of the translates pi(e_i) t.  Both rest on the action being
global.  `linalg.span_closure`, the smallest invariant subspace found by
iterating the operators, is the oracle: the canonical echelon bases must
agree exactly.
"""

import pytest

from hopf_partial import dilation as dl
from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial import partial as pm
from hopf_partial import projection as pj
from hopf_partial.demos import graded_projection

import gen

H4 = hp.sweedler_h4()


def _fixpoint(seed: la.Mat, operators) -> la.Subspace:
    return la.span_closure(la.column_space(seed), operators)


@pytest.mark.parametrize("name", hp.BUILTIN_NAMES)
def test_standard_dilation_space_is_the_fixpoint(name):
    r = gen.rng(f"dilation-space-{name}")
    for dim in range(5):
        for _ in range(2):
            m = gen.random_builtin_partial(r, name, dim)
            closure = _fixpoint(dl._phi_matrix(m), dl._translation_action(m.hopf, dim))
            dil = dl.standard_dilation(m)
            assert dil.ambient_inclusion == closure.basis.transpose()
            assert dil.projected.module.dim == closure.dim


def _w2_pair():
    # the W_2 pair of test_minimalize_rechecks_the_quotient, which skips
    # `build`: its module is global, but t kills the submodule span(e_1)
    g = la.Mat([[1, 0], [0, -1]])
    shift = la.Mat([[0, 0], [1, 0]])
    w2 = pm.PartialModule(H4, 2, (la.Mat.identity(2), g, shift, g * shift))
    return pj.ProjectedModule(w2, la.Mat([[1, 0], [0, 0]]))


def _pairs():
    r = gen.rng("generated-submodule")
    pairs = [gen.random_projected(r) for _ in range(24)]
    pairs += [graded_projection(n1, n2, t) for n1 in range(3) for n2 in range(3)
              for t in (1, 2)]
    return pairs + [_w2_pair()]


def test_is_proper_and_minimalize_use_the_fixpoint_closure(monkeypatch):
    closures = []
    original = pj.restrict_operators

    def recorded(ops, sub):
        closures.append(sub)
        return original(ops, sub)

    monkeypatch.setattr(pj, "restrict_operators", recorded)
    for p in _pairs():
        assert pm.is_algebra_map(p.module)
        closure = _fixpoint(p.t, p.module.pi)
        assert pj._generated_submodule(pj._pi_t(p)) == closure
        # a new equal pair carries no memo, so is_proper is computed afresh
        fresh = pj.ProjectedModule(p.module, p.t)
        assert pj.is_proper(fresh) == (closure.dim == p.module.dim)
        closures.clear()
        pj.minimalize(fresh)
        assert closures[0] == closure
