"""The globality tests on algebra generators against the full deviation table.

`partial.is_algebra_map` compares pi(e_g) pi(e_s) with pi(e_g e_s) for
the generators g of `partial._algebra_generators` only, and
`partial.is_global` re-checks multiplicativity through it; the oracles of
`globality_reference` read every block of the deviation table.  Both
bools, and `is_global`'s error message when the epsilon condition holds
but pi is not multiplicative, must agree.

Inputs: over the six builtins, the group algebra of C4, the dual of kS3
and the co-opposite Sweedler algebra, seeded modules of dimensions 0-4:
partial and global ones, each also with one entry perturbed, random
families, and families with pi(1) = 0 or pi(1) = -I; every coset
character of the dual group algebras, global Sweedler modules moved off
multiplicativity on the rows of x only, and global modules over kS3
moved off it outside the cyclic subgroup of the first generator, where
dropping a generator would show; and modules over the Sweedler algebra
written in new bases of H, where the unit is no basis element.  The
generator tuples of the builtins are pinned, and on every algebra the
generators are checked to generate it.
"""

from functools import cache
from itertools import chain, combinations

import pytest

from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial import partial as pm
from hopf_partial.reports import ValidationError

import gen
import globality_reference as ref
from test_intertwining_differential import perturbed, perturbed_module
from test_partial_rep_differential import hopf_in_basis, module_in_basis

DRAWS = 2
GENERATORS = {"kC2": (1,), "kC2-dual": (0,), "kC3": (1,), "kS3": (1, 2),
              "kC2xC2-dual": (0, 1, 2), "sweedler": (1, 2)}
TABLES = {"kC4": (hp.cyclic_table(4), False), "kS3-dual": (hp.s3_table(), True)}
NAMES = (*hp.BUILTIN_NAMES, "kC4", "kS3-dual", "sweedler-cop")


@cache
def algebra(name):
    if name in TABLES:
        table, dual = TABLES[name]
        return hp.dual_group_algebra(table) if dual else hp.group_algebra(table)
    if name == "sweedler-cop":
        return hp.cop(hp.builtin("sweedler"))
    return hp.builtin(name)


def partial_module(r, name, dim):
    h = algebra(name)
    if name in hp.BUILTIN_NAMES:
        return gen.random_builtin_partial(r, name, dim)
    if dim == 0:
        return pm.PartialModule(h, 0, (la.Mat.zeros(0, 0),) * h.dim)
    if name == "sweedler-cop":
        # a partial Sweedler module's family, which need not be partial here
        return pm.PartialModule(h, dim, gen.random_builtin_partial(r, "sweedler", dim).pi)
    table, dual = TABLES[name]
    return gen.table_partial(r, h, table, dual, dim)


def global_module(r, name, dim):
    """The regular module plus trivial ones, or trivial ones alone, in a
    random basis."""
    h = algebra(name)
    if dim == 0:
        return pm.PartialModule(h, 0, (la.Mat.zeros(0, 0),) * h.dim)
    parts = [pm.trivial_module(h)] * (dim - h.dim if dim >= h.dim else dim)
    if dim >= h.dim:
        parts.append(pm.regular_module(h))
    return gen.conjugate_module(pm.direct_sum(parts), gen.rand_invertible(r, dim))


def random_family(r, h, dim):
    return pm.PartialModule(h, dim, tuple(
        la.Mat([[gen.rand_frac(r) for _ in range(dim)] for _ in range(dim)], cols=dim)
        for _ in range(h.dim)))


def inputs(r, h, partial, glob):
    """(kind, module) pairs of dimensions 0-4 over h, drawn by the two builders."""
    for dim in range(5):
        for _ in range(DRAWS):
            for kind, m in (("partial", partial(r, dim)), ("global", glob(r, dim))):
                yield kind, m
                if dim:
                    yield f"perturbed {kind}", perturbed_module(r, m)
            yield "random", random_family(r, h, dim)
            m = glob(r, dim)
            yield "pi(1) = 0", pm.PartialModule(h, dim, (la.Mat.zeros(dim, dim),) * h.dim)
            yield "pi(1) = -I", pm.PartialModule(h, dim, tuple(-p for p in m.pi))


def targeted(r, name):
    """(kind, module) inputs that read pi(1) = I and are multiplicative on
    the rows of some generators but not of all."""
    h = algebra(name)
    dual = {"kC2-dual": hp.cyclic_table(2), "kC2xC2-dual": hp.klein_table(),
            "kS3-dual": hp.s3_table()}.get(name)
    if dual is not None:
        # p_x -> [x in gK] / |K|, for every subgroup K and coset gK
        d = len(dual)
        subgroups = [s for size in range(1, d + 1) for s in combinations(range(d), size)
                     if 0 in s and all(dual[a][b] in s for a in s for b in s)]
        for k in subgroups:
            for g in range(d):
                coset = {dual[g][x] for x in k}
                yield "coset character", pm.PartialModule(h, 1, tuple(
                    la.Mat([[la.frac(f"1/{len(k)}") if x in coset else 0]])
                    for x in range(d)))
    group = {"kC2": hp.cyclic_table(2), "kC3": hp.cyclic_table(3), "kS3": hp.s3_table(),
             "kC4": hp.cyclic_table(4)}.get(name)
    if group is not None:
        # pi(b) Y off the cyclic subgroup K of the first generator g keeps
        # pi(g) pi(b) = pi(gb), as gb lies in the coset of b
        g = pm._algebra_generators(algebra(name))[0]
        k, x = {0}, g
        while x not in k:
            k.add(x)
            x = group[g][x]
        if len(k) < len(group):
            for dim in range(1, 5):
                m = global_module(r, name, dim)
                y = la.Mat.identity(dim) + perturbed(r, la.Mat.zeros(dim, dim))
                yield "coset moved", pm.PartialModule(h, dim, tuple(
                    p if b in k else p * y for b, p in enumerate(m.pi)))
    if name in ("sweedler", "sweedler-cop"):
        # pi(x) + delta, pi(y) + pi(g) delta keeps y = g x and g y = x
        for dim in range(1, 5):
            m = global_module(r, name, dim)
            delta = perturbed(r, la.Mat.zeros(dim, dim))
            g = m.pi[1]
            yield "x moved", pm.PartialModule(h, dim, (m.pi[0], g, m.pi[2] + delta,
                                                       m.pi[3] + g * delta))


def outcome(fn, m):
    try:
        return "ok", fn(m)
    except ValidationError as exc:
        return "ValidationError", str(exc)


def assert_same(m):
    """Both bools and is_global's outcome agree; returns them."""
    got = pm.is_algebra_map(m), outcome(pm.is_global, m)
    assert got == (ref.is_algebra_map(m), outcome(ref.is_global, m))
    return got


@pytest.mark.parametrize("name", NAMES)
def test_globality_matches_the_full_table(name):
    r = gen.rng(f"globality-differential-{name}")
    seen = set()
    for kind, m in chain(
            inputs(r, algebra(name), lambda r, dim: partial_module(r, name, dim),
                   lambda r, dim: global_module(r, name, dim)),
            targeted(r, name)):
        algebra_map, (status, value) = assert_same(m)
        seen.add((kind, algebra_map, status if status != "ok" else value))
    kinds = {(algebra_map, result) for _, algebra_map, result in seen}
    # pi(1) = -I passes the epsilon condition, so is_global raises
    assert {(True, True), (False, False), (False, "ValidationError")} <= kinds
    assert ("pi(1) = -I", False, "ValidationError") in seen


def test_globality_matches_in_new_bases_of_sweedler():
    r = gen.rng("globality-differential-basis")
    h = hp.builtin("sweedler")
    kinds = set()
    for _ in range(3):
        p = gen.rand_invertible(r, h.dim)
        h2 = hopf_in_basis(h, p)
        assert h2.unit not in [tuple(row) for row in la.Mat.identity(h.dim).entries]

        def partial(r, dim):
            return module_in_basis(h2, gen.random_builtin_partial(r, "sweedler", dim), p)

        def glob(r, dim):
            return module_in_basis(h2, global_module(r, "sweedler", dim), p)

        for kind, m in inputs(r, h2, partial, glob):
            algebra_map, (status, value) = assert_same(m)
            kinds.add((algebra_map, status if status != "ok" else value))
    assert {(True, True), (False, False), (False, "ValidationError")} <= kinds


@pytest.mark.parametrize("name, gens", GENERATORS.items())
def test_builtin_generators_are_pinned(name, gens):
    assert pm._algebra_generators(hp.builtin(name)) == gens


def test_generators_of_the_other_algebras():
    assert pm._algebra_generators(algebra("kC4")) == (1,)
    assert pm._algebra_generators(algebra("kS3-dual")) == (0, 1, 2, 3, 4)
    assert pm._algebra_generators(algebra("sweedler-cop")) == (1, 2)


@pytest.mark.parametrize("name", NAMES)
def test_the_generators_generate(name):
    h = algebra(name)
    gens = pm._algebra_generators(h)
    assert pm._generated_algebra(h.dim, [h.left[g] for g in gens]).dim == h.dim
    # memoized on h
    assert pm._algebra_generators(h) is gens


def test_the_generators_of_new_bases_generate():
    r = gen.rng("generators-in-new-bases")
    for name in ("sweedler", "kS3"):
        h = hp.builtin(name)
        h2 = hopf_in_basis(h, gen.rand_invertible(r, h.dim))
        gens = pm._algebra_generators(h2)
        assert pm._generated_algebra(h2.dim, [h2.left[g] for g in gens]).dim == h2.dim


def test_is_global_raises_with_the_message_of_the_full_table():
    m = pm.regular_module(hp.builtin("kS3"))
    minus = pm.PartialModule(m.hopf, m.dim, tuple(-p for p in m.pi))
    with pytest.raises(ValidationError, match="epsilon condition holds but pi is not "
                                              "multiplicative"):
        pm.is_global(minus)
    assert not pm.is_algebra_map(minus)
