"""`partial.twisted_conjugates` against the element-wise formula.

The family is compared with sum c pi(e_a) t pi(S e_b) over Delta(e_i), and
with its tilde twin, built one index and one Sweedler term at a time by
`twisted_conjugate_reference`.  `check_c_condition` and
`check_equivalence_lemma` must report the reference's witnesses.  Inputs:
partial modules over every builtin in dimensions 0-3 with t None and with
random idempotents of every rank, and random (global module, projection)
pairs that satisfy the commutation condition.
"""

import pytest

from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial import partial as pm
from hopf_partial import projection as pj

import gen
import twisted_conjugate_reference as ref

DRAWS = 2


def random_idempotent(r, n, rank):
    q = gen.rand_invertible(r, n)
    return q * la.block_diag([la.Mat.identity(rank), la.Mat.zeros(n - rank, n - rank)]) \
        * la.inverse(q)


def assert_same(m, t):
    for tilde in (False, True):
        assert pm.twisted_conjugates(m, t, tilde) == ref.conjugates(m, t, tilde)
    if t is None:
        return None
    ok, witness = pj.check_c_condition(m, t)
    assert (ok, witness) == ref.c_condition(m, t)
    report = pj.check_equivalence_lemma(m, t)
    assert tuple(c.witness for c in report.checks[:3]) == ref.equivalence_witnesses(m, t)
    return witness


@pytest.mark.parametrize("name", hp.BUILTIN_NAMES)
def test_conjugates_of_partial_modules_match(name):
    r = gen.rng(f"twisted-{name}")
    witnesses = set()
    for dim in range(4):
        for _ in range(DRAWS):
            m = gen.random_builtin_partial(r, name, dim)
            assert_same(m, None)
            for rank in range(dim + 1):
                witnesses.add(assert_same(m, random_idempotent(r, dim, rank)))
    assert None in witnesses
    if hp.builtin(name).dim > 2:
        assert len(witnesses) > 1


def test_conjugates_of_projected_modules_match():
    r = gen.rng("twisted-projected")
    for kind in range(6):
        p = gen.random_projected(r, kind)
        assert assert_same(p.module, p.t) is None
        assert pj.adjoint_op(p, 1) == ref.conjugates(p.module, p.t)[1]
        assert pj.tilde_op(p, 1) == ref.conjugates(p.module, p.t, tilde=True)[1]
