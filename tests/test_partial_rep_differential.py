"""The stacked-block PR1-PR5 checker against the per-pair reference evaluator.

Both must give the same Check names, pass flags and witnesses, the same
`is_algebra_map` answer and the same row-major list of basis deviations.
Inputs: valid modules over every builtin in dimensions 0-4, the same
modules with one entry of one action matrix changed, and modules over the
Sweedler algebra carried to new bases of H, whose antipode columns have
several terms with coefficients other than 1 and -1.
"""

import pytest

from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial import partial as pm

import gen
import partial_rep_reference as ref

DRAWS = 2
IDENTITIES = ("PR2", "PR3", "PR4", "PR5")


def assert_same(m):
    checks = pm._evaluate_partial_rep(m)
    assert checks == ref.evaluate_partial_rep(m)
    assert pm.is_algebra_map(m) == ref.is_algebra_map(m)
    assert pm._basis_deviations(m) == ref.basis_deviations(m)
    return checks


def perturbed(r, m):
    """m with one entry of one action matrix moved by a nonzero rational."""
    k, i, j = r.randrange(m.hopf.dim), r.randrange(m.dim), r.randrange(m.dim)
    c = gen.rand_frac(r) or 1
    delta = la.Mat([[c if (p, q) == (i, j) else 0 for q in range(m.dim)]
                    for p in range(m.dim)])
    pis = list(m.pi)
    pis[k] = pis[k] + delta
    return pm.PartialModule(m.hopf, m.dim, tuple(pis))


def failing(checks):
    return {c.name for c in checks if not c.passed}


def hopf_in_basis(h, p):
    """h with the basis f_j = sum_i p[i, j] e_i, rebuilt and validated."""
    q = la.inverse(p)
    d = h.dim
    f = p.col_list()
    coords = [q.col(k) for k in range(d)]
    images = hp.mult_by(hp.left_mults(h.mult, d), p)
    mult = [[q.apply(images[i].apply(f[j])) for j in range(d)] for i in range(d)]
    comult = []
    for i in range(d):
        # Delta(f_i) = sum_k p[k, i] Delta(e_k), rewritten in f (x) f
        plane = [[0] * d for _ in range(d)]
        for k, x in enumerate(f[i]):
            for a, b, c in h.comult_terms[k]:
                for s, ya in enumerate(coords[a]):
                    for t, yb in enumerate(coords[b]):
                        plane[s][t] += x * c * ya * yb
        comult.append(plane)
    counit = [sum(x * e for x, e in zip(v, h.counit)) for v in f]
    return hp.HopfAlgebraData.build(d, mult, q.apply(h.unit), comult, counit,
                                    q * h.antipode * p)


def module_in_basis(h2, m, p):
    """m as a module over hopf_in_basis(m.hopf, p): pi(f_j) = sum_i p[i, j] pi(e_i)."""
    return pm.PartialModule(h2, m.dim, hp.mult_by(m.pi, p))


@pytest.mark.parametrize("name", hp.BUILTIN_NAMES)
def test_valid_modules_match(name):
    r = gen.rng(f"prdiff-valid-{name}")
    for dim in range(5):
        for _ in range(DRAWS):
            checks = assert_same(gen.random_builtin_partial(r, name, dim))
            assert not failing(checks)


@pytest.mark.parametrize("name", hp.BUILTIN_NAMES)
def test_perturbed_modules_match(name):
    r = gen.rng(f"prdiff-perturbed-{name}")
    seen = set()
    for dim in range(1, 5):
        for _ in range(3 * DRAWS):
            m = perturbed(r, gen.random_builtin_partial(r, name, dim))
            seen |= failing(assert_same(m))
    assert set(IDENTITIES) <= seen


def test_sweedler_in_new_bases_matches():
    r = gen.rng("prdiff-basis")
    h = hp.builtin("sweedler")
    seen = set()
    multi_term = False
    for _ in range(3):
        p = gen.rand_invertible(r, h.dim)
        h2 = hopf_in_basis(h, p)
        multi_term |= any(len(t) > 1 and any(c not in (1, -1) for _, c in t)
                          for t in h2.antipode_terms)
        for dim in range(5):
            m = module_in_basis(h2, gen.random_builtin_partial(r, "sweedler", dim), p)
            assert not failing(assert_same(m))
            if dim:
                seen |= failing(assert_same(perturbed(r, m)))
    assert multi_term
    assert set(IDENTITIES) <= seen
