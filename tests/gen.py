"""Seeded random generators for modules, projections and morphisms.

Everything is driven by HOPF_PARTIAL_SEED (default fixed) so failures
reproduce.  Generators only ever return objects that satisfy their
claimed axioms; validity is re-checked at construction time, so a
generator bug cannot silently weaken a test.
"""

import itertools
import os
import random
import sys
from fractions import Fraction

from hopf_partial import actions as ac
from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial import partial as pm
from hopf_partial import projection as pj
from hopf_partial.dilation import standard_dilation
from hopf_partial.demos import (antidiagonal_sweedler, graded_projection,
                                partially_graded_module)

F = Fraction
SEED = os.environ.get("HOPF_PARTIAL_SEED", "hopf-partial-2026")


def rng(salt: str) -> random.Random:
    return random.Random(f"{SEED}:{salt}")


def rand_frac(r, span=3):
    return F(r.randint(-span, span), r.choice((1, 1, 2, 3)))


def rand_invertible(r, n):
    if n == 0:
        return la.Mat.zeros(0, 0)
    while True:
        m = la.Mat([[rand_frac(r, 2) for _ in range(n)] for _ in range(n)])
        if la.rank(m) == n:
            return m


def conjugate_module(m: pm.PartialModule, q: la.Mat) -> pm.PartialModule:
    qi = la.inverse(q)
    return pm.PartialModule(m.hopf, m.dim, tuple(q * p * qi for p in m.pi))


def split_dims(r, total, parts):
    cuts = sorted(r.randint(0, total) for _ in range(parts - 1))
    dims = []
    prev = 0
    for c in cuts + [total]:
        dims.append(c - prev)
        prev = c
    return dims


# -- partial modules over the dual of C2 --------------------------------------

def random_dual_c2_partial(r, max_dim) -> pm.PartialModule:
    dim = r.randint(1, max_dim)
    n0, n1, nh = split_dims(r, dim, 3)
    base = partially_graded_module(n0, n1, nh)
    out = conjugate_module(base, rand_invertible(r, dim))
    assert pm.check_partial_rep(out).ok
    return out


def random_dual_c2_global(r, max_dim) -> pm.PartialModule:
    dim = r.randint(1, max_dim)
    n0, n1 = split_dims(r, dim, 2)
    base = partially_graded_module(n0, n1, 0)
    out = conjugate_module(base, rand_invertible(r, dim))
    assert pm.is_global(out)
    return out


# -- partial modules over the Sweedler algebra ---------------------------------

def _sweedler_pure_pair(r, w):
    """Random (c, d) with cd = dc and c^2 = d^2 on a w-dim space."""
    style = r.randrange(3)
    if style == 0:
        shift = la.Mat([[1 if i == j + 1 else 0 for j in range(w)]
                        for i in range(w)])
        return shift, shift
    c = la.Mat([[rand_frac(r, 1) for _ in range(w)] for _ in range(w)])
    if style == 1:
        return c, c
    return c, -c


def random_sweedler_partial(r, max_dim) -> pm.PartialModule:
    return _sweedler_partial_of_dim(r, r.randint(1, max_dim))


def _sweedler_partial_of_dim(r, dim) -> pm.PartialModule:
    up, um, w = split_dims(r, dim, 3)
    a = la.Mat([[rand_frac(r, 1) for _ in range(um)] for _ in range(up)], cols=um)
    b = la.Mat.zeros(um, up)
    if r.random() < 0.5:
        a = la.Mat.zeros(up, um)
        b = la.Mat([[rand_frac(r, 1) for _ in range(up)] for _ in range(um)],
                   cols=up)
    c, d = _sweedler_pure_pair(r, w) if w else (la.Mat.zeros(0, 0),) * 2
    g = la.block_diag([la.Mat.identity(up), -la.Mat.identity(um),
                       la.Mat.zeros(w, w)])
    zx = la.Mat.zeros(up, w)
    x = la.vstack([la.hstack([la.Mat.zeros(up, up), a, zx]),
                   la.hstack([b, la.Mat.zeros(um, um), la.Mat.zeros(um, w)]),
                   la.hstack([la.Mat.zeros(w, up), la.Mat.zeros(w, um), c])])
    y = la.vstack([la.hstack([la.Mat.zeros(up, up), a, zx]),
                   la.hstack([-b, la.Mat.zeros(um, um), la.Mat.zeros(um, w)]),
                   la.hstack([la.Mat.zeros(w, up), la.Mat.zeros(w, um), d])])
    base = pm.PartialModule(hp.sweedler_h4(), dim,
                            (la.Mat.identity(dim), g, x, y))
    assert pm.check_partial_rep(base).ok
    return conjugate_module(base, rand_invertible(r, dim))


def random_sweedler_global(r, max_dim) -> pm.PartialModule:
    dim = r.randint(1, max_dim)
    up, um = split_dims(r, dim, 2)
    a = la.Mat([[rand_frac(r, 1) for _ in range(um)] for _ in range(up)], cols=um)
    b = la.Mat.zeros(um, up)
    g = la.block_diag([la.Mat.identity(up), -la.Mat.identity(um)])
    x = la.vstack([la.hstack([la.Mat.zeros(up, up), a]),
                   la.hstack([b, la.Mat.zeros(um, um)])])
    base = pm.PartialModule(hp.sweedler_h4(), dim,
                            (la.Mat.identity(dim), g, x, g * x))
    out = conjugate_module(base, rand_invertible(r, dim))
    assert pm.is_global(out)
    return out


# -- partial modules over group algebras via partial set actions ---------------

S3_PERMS = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]


def _s3_set_actions():
    """Transitive S3-sets: points, the 3-element coset space, S3 itself."""
    compose = lambda p, q: tuple(p[q[x]] for x in range(3))
    one_pt = [[0] for _ in S3_PERMS]
    natural = [list(p) for p in S3_PERMS]
    index = {p: i for i, p in enumerate(S3_PERMS)}
    regular = [[index[compose(g, h)] for h in S3_PERMS] for g in S3_PERMS]
    return [one_pt, natural, regular]


def random_ks3_partial(r, max_dim) -> pm.PartialModule:
    """Linearized restriction of a global S3-set action to a random subset."""
    h = hp.builtin("kS3")
    pieces = _s3_set_actions()
    tables = []
    sizes = []
    while sum(sizes) < max_dim + 2:
        t = r.choice(pieces)
        tables.append(t)
        sizes.append(len(t[0]))
    points = [(k, p) for k, t in enumerate(tables) for p in range(len(t[0]))]
    dim = r.randint(1, max_dim)
    subset = r.sample(points, min(dim, len(points)))
    where = {pt: i for i, pt in enumerate(subset)}
    keep = set(subset)
    pis = []
    for g in range(6):
        rows = [[0] * len(subset) for _ in range(len(subset))]
        for (k, p), j in where.items():
            target = (k, tables[k][g][p])
            if target in keep:
                rows[where[target]][j] = 1
        pis.append(la.Mat(rows))
    base = pm.PartialModule(h, len(subset), tuple(pis))
    assert pm.check_partial_rep(base).ok
    return conjugate_module(base, rand_invertible(r, len(subset)))


def random_ks3_global(r, max_dim) -> pm.PartialModule:
    h = hp.builtin("kS3")
    pieces = _s3_set_actions()
    chosen = []
    total = 0
    while True:
        t = r.choice(pieces)
        if total + len(t[0]) > max_dim:
            break
        chosen.append(t)
        total += len(t[0])
        if total >= max_dim or r.random() < 0.3:
            break
    if not chosen:
        chosen = [pieces[0]]
        total = 1
    offsets = []
    off = 0
    for t in chosen:
        offsets.append(off)
        off += len(t[0])
    pis = []
    for g in range(6):
        rows = [[0] * total for _ in range(total)]
        for t, o in zip(chosen, offsets):
            for p in range(len(t[0])):
                rows[o + t[g][p]][o + p] = 1
        pis.append(la.Mat(rows))
    base = pm.PartialModule(h, total, tuple(pis))
    out = conjugate_module(base, rand_invertible(r, total))
    assert pm.is_global(out)
    return out


GENERATORS = {
    "kC2-dual": random_dual_c2_partial,
    "sweedler": random_sweedler_partial,
    "kS3": random_ks3_partial,
}

GLOBAL_GENERATORS = {
    "kC2-dual": random_dual_c2_global,
    "sweedler": random_sweedler_global,
    "kS3": random_ks3_global,
}


def random_partial(r, hopf_name, max_dim) -> pm.PartialModule:
    return GENERATORS[hopf_name](r, max_dim)


GROUP_TABLES = {"kC2": hp.cyclic_table(2), "kC3": hp.cyclic_table(3),
                "kS3": hp.s3_table(), "kC2-dual": hp.cyclic_table(2),
                "kC2xC2-dual": hp.klein_table()}


def random_builtin_partial(r, hopf_name, dim) -> pm.PartialModule:
    """A partial module of exactly the given dimension over any builtin.

    A group algebra kG acts by the partial action on a random set of dim
    points of two copies of the regular G-set; a dual group algebra by a
    direct sum of the characters p_h -> [h in gK] / |K| of random cosets
    gK; the Sweedler algebra as in random_sweedler_partial.  The module is
    carried to a random basis.
    """
    h = hp.builtin(hopf_name)
    if dim == 0:
        return pm.PartialModule(h, 0, (la.Mat.zeros(0, 0),) * h.dim)
    if hopf_name == "sweedler":
        return _sweedler_partial_of_dim(r, dim)
    return table_partial(r, h, GROUP_TABLES[hopf_name], hopf_name.endswith("-dual"), dim)


def table_partial(r, h, table, dual, dim) -> pm.PartialModule:
    """A partial module of dimension dim > 0 over the group algebra of the
    Cayley table, or with dual over its dual, drawn as random_builtin_partial
    describes."""
    d = len(table)
    if dual:
        subgroups = [set(s) for size in range(1, d + 1)
                     for s in itertools.combinations(range(d), size)
                     if 0 in s and all(table[a][b] in s for a in s for b in s)]
        chars = []
        for _ in range(dim):
            k, g = r.choice(subgroups), r.randrange(d)
            coset = {table[g][x] for x in k}
            chars.append([F(1, len(k)) if x in coset else 0 for x in range(d)])
        pis = tuple(la.Mat([[chars[p][x] if p == q else 0 for q in range(dim)]
                            for p in range(dim)]) for x in range(d))
    else:
        points = r.sample([(c, p) for c in range(2) for p in range(d)], dim)
        pis = tuple(la.Mat([[1 if (c, table[g][p]) == points[i] else 0
                             for c, p in points] for i in range(dim)])
                    for g in range(d))
    base = pm.PartialModule(h, dim, pis)
    assert pm.check_partial_rep(base).ok
    return conjugate_module(base, rand_invertible(r, dim))


def partial_action_algebra(table) -> ac.PartialModuleAlgebra:
    """A_par = k^{X_1} with the partial action of kG, G given by its Cayley table.

    X_1 is the set of subsets S of G with 1 in S; the delta_S are orthogonal
    idempotents summing to 1, and g . delta_S = delta_{gS} if g^-1 is in S
    and 0 otherwise (Dokuchaev-Exel-Piccione, J. Algebra 226 (2000)).
    """
    inv = hp.check_group_table(table)
    n = len(table)
    sets = [frozenset((0, *rest)) for size in range(n)
            for rest in itertools.combinations(range(1, n), size)]
    index = {s: k for k, s in enumerate(sets)}
    m = len(sets)
    zero = (0,) * m
    mult = [[la.unit_vec(m, s) if s == t else zero for t in range(m)] for s in range(m)]
    action = [la.Mat.from_cols([la.unit_vec(m, index[frozenset(table[g][x] for x in s)])
                                if inv[g] in s else zero for s in sets], m)
              for g in range(n)]
    return ac.PartialModuleAlgebra.build(hp.group_algebra(table), mult, (1,) * m, action)


def random_global(r, hopf_name, max_dim) -> pm.PartialModule:
    return GLOBAL_GENERATORS[hopf_name](r, max_dim)


# -- projected module candidates ------------------------------------------------

def module_automorphism(r, m: pm.PartialModule) -> la.Mat:
    """Random invertible intertwiner of m with itself."""
    basis = pm.hom_space(m, m)
    for _ in range(40):
        q = la.Mat.zeros(m.dim, m.dim)
        for b in basis:
            q = q + b.scale(rand_frac(r, 2))
        if m.dim == 0 or la.rank(q) == m.dim:
            return q
    return la.Mat.identity(m.dim)


def random_projected(r, kind=None) -> pj.ProjectedModule:
    """A random pair (global module, projection) satisfying the c-condition.

    Mixes structured sources (conjugated module-map projections, standard
    dilation projections, the two worked projection examples, their
    complements) with rejection-tested raw idempotents.
    """
    kind = kind if kind is not None else r.randrange(6)
    if kind == 0:
        # projection onto a summand of a direct sum, twisted by a module map
        name = r.choice(("kC2-dual", "sweedler"))
        a = random_global(r, name, 2)
        b = random_global(r, name, 2)
        total = pm.direct_sum([a, b])
        t0 = la.block_diag([la.Mat.identity(a.dim), la.Mat.zeros(b.dim, b.dim)])
        q = module_automorphism(r, total)
        t = q * t0 * la.inverse(q)
        return pj.ProjectedModule.build(total, t)
    if kind == 1:
        name = r.choice(("kC2-dual", "sweedler", "kS3"))
        dil = standard_dilation(random_partial(r, name, 3))
        return dil.projected
    if kind == 2:
        return graded_projection(r.randint(0, 2), r.randint(0, 2), r.randint(1, 2))
    if kind == 3:
        shift = la.Mat([[1 if i == j + 1 else 0 for j in range(2)]
                        for i in range(2)])
        c = r.choice((shift, la.Mat.identity(2), la.Mat.zeros(2, 2)))
        return antidiagonal_sweedler(c, c)
    if kind == 4:
        inner = random_projected(r, kind=r.randrange(4))
        return pj.ProjectedModule.build(
            inner.module, la.Mat.identity(inner.module.dim) - inner.t)
    # rejection sampling on raw idempotents
    name = r.choice(("kC2-dual", "sweedler"))
    for _ in range(25):
        mod = random_global(r, name, 3)
        rank = r.randint(0, mod.dim)
        q = rand_invertible(r, mod.dim)
        t = q * la.block_diag([la.Mat.identity(rank),
                               la.Mat.zeros(mod.dim - rank, mod.dim - rank)]) \
            * la.inverse(q)
        ok, _ = pj.check_c_condition(mod, t)
        if ok:
            return pj.ProjectedModule.build(mod, t)
    return random_projected(r, kind=r.randrange(4))


def random_morphism(r, source, target) -> pm.ModuleMorphism:
    basis = pm.hom_space(source, target)
    mat = la.Mat.zeros(target.dim, source.dim)
    for b in basis:
        mat = mat + b.scale(rand_frac(r, 2))
    return pm.ModuleMorphism.build(source, target, mat)


def zero_one_vectors(dim):
    return [v for v in itertools.product((0, 1), repeat=dim) if any(v)]


def count_partial_rep_checks(monkeypatch):
    """Record the module of every PR1-PR5 evaluation from now on.

    check_partial_rep evaluates through partial._evaluate_partial_rep, so
    counting there sees every route to it; the standard_dilation cache is
    cleared so that no earlier result is reused.
    """
    calls = []
    original = pm._evaluate_partial_rep

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(pm, "_evaluate_partial_rep", counted)
    standard_dilation.cache_clear()
    return calls


def count_products(monkeypatch):
    """Record the operand shapes of every Mat product from now on."""
    calls = []
    original = la.Mat.__mul__

    def counted(a, b):
        calls.append(((a.rows, a.cols), (b.rows, b.cols)))
        return original(a, b)

    monkeypatch.setattr(la.Mat, "__mul__", counted)
    return calls


def count_calls(monkeypatch, module, name):
    """Record the positional arguments of every call of module.name from now
    on; keyword arguments are passed on unrecorded.

    Only lookups of the name in that module see the wrapper; the
    standard_dilation cache is cleared so that no earlier result is reused.
    """
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    standard_dilation.cache_clear()
    return calls


def count_solves(monkeypatch):
    """Record the left-hand side of every linalg.solve_matrix call from now on.

    Every hopf_partial module that imported solve_matrix gets the counting
    wrapper too, so direct calls and calls made inside linalg are both
    seen; the standard_dilation cache is cleared so that no earlier result
    is reused.
    """
    calls = []
    original = la.solve_matrix

    def counted(a, b):
        calls.append(a)
        return original(a, b)

    for name, module in list(sys.modules.items()):
        if (name == "hopf_partial" or name.startswith("hopf_partial.")) \
                and getattr(module, "solve_matrix", None) is original:
            monkeypatch.setattr(module, "solve_matrix", counted)
    standard_dilation.cache_clear()
    return calls
