"""Seeded input generators for the three benchmark workloads.

Each stream draws from two generators.  ``shape`` makes the structural
choices (Hopf algebra, dimension, block sizes, CLI verb, document kind)
and is the same for every seed, drawn in balanced blocks so that each
block holds every choice equally often; ``r`` is built from the benchmark
seed and draws the entries and the random change of basis.  So the same
seed gives the same inputs, and every seed gives a run of the same mix,
which keeps run-to-run spread low.

Only the library's value types (``Mat``, ``PartialModule``,
``PartialModuleAlgebra``) and builtin Hopf algebras are used; matrix
arithmetic is done by ``bench_exact`` so that input generation does not
depend on the code being measured.
"""

import functools
import itertools
import json
import random
from fractions import Fraction as F

from hopf_partial import actions as ac
from hopf_partial import hopf as hp
from hopf_partial.linalg import Mat
from hopf_partial.partial import PartialModule

import bench_exact as exact

HOPF_NAMES = ("kC2-dual", "sweedler", "kS3")
SHAPE_SEED = "shape"


def rng(seed, salt):
    return random.Random(f"perfbench:{seed}:{salt}")


def rand_frac(r, span):
    return F(r.randint(-span, span), r.choice((1, 1, 2, 3)))


def rand_invertible(r, n, span=2):
    while True:
        q = [[rand_frac(r, span) for _ in range(n)] for _ in range(n)]
        if exact.rank(q) == n:
            return q


def conjugate(mats, q):
    """Q M Q^-1 for each M."""
    qi = exact.inverse(q)
    return [exact.mul(exact.mul(q, m), qi) for m in mats]


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[F(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = row
        off += len(b)
    return out


def split_dims(r, total, parts):
    cuts = sorted(r.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


# -- partial modules (the distribution of acceptance criterion 06) -----------

def dual_c2_module(shape, r, dim):
    """Eigenvalue blocks 1, 0, 1/2 of pi(p0), in a random basis."""
    n0, n1, nh = split_dims(shape, dim, 3)
    t = [[F(0)] * dim for _ in range(dim)]
    for i in range(n0):
        t[i][i] = F(1)
    for i in range(n0 + n1, dim):
        t[i][i] = F(1, 2)
    rest = [[F(int(i == j)) - t[i][j] for j in range(dim)] for i in range(dim)]
    return conjugate((t, rest), rand_invertible(r, dim))


def _sweedler_pure_pair(shape, r, w):
    """(c, d) with cd = dc and c^2 = d^2 on a w-dim space."""
    style = shape.randrange(3)
    if style == 0:
        shift = [[F(int(i == j + 1)) for j in range(w)] for i in range(w)]
        return shift, shift
    c = [[rand_frac(r, 1) for _ in range(w)] for _ in range(w)]
    return (c, c) if style == 1 else (c, [[-x for x in row] for row in c])


def sweedler_module(shape, r, dim):
    """Global part on g = +-1 with an off-diagonal x, plus a pure (c, d) block."""
    up, um, w = split_dims(shape, dim, 3)
    z = lambda rows, cols: [[F(0)] * cols for _ in range(rows)]
    a, b = z(up, um), z(um, up)
    if shape.random() < 0.5:
        a = [[rand_frac(r, 1) for _ in range(um)] for _ in range(up)]
    else:
        b = [[rand_frac(r, 1) for _ in range(up)] for _ in range(um)]
    c, d = _sweedler_pure_pair(shape, r, w) if w else ([], [])
    g = block_diag([exact.identity(up), [[-x for x in row] for row in exact.identity(um)],
                    z(w, w)])

    def x_like(lower, pure):
        x = z(dim, dim)
        for i in range(up):
            x[i][up:up + um] = a[i]
        for i in range(um):
            x[up + i][:up] = lower[i]
        for i in range(w):
            x[up + um + i][up + um:] = pure[i]
        return x

    x = x_like(b, c)
    y = x_like([[-v for v in row] for row in b], d)
    return conjugate((exact.identity(dim), g, x, y), rand_invertible(r, dim))


S3_PERMS = ((0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1))


def _s3_set_actions():
    """Transitive S3-sets: a point, the 3 cosets of S2, S3 acting on itself."""
    index = {p: i for i, p in enumerate(S3_PERMS)}
    compose = lambda p, q: tuple(p[q[x]] for x in range(3))
    one_pt = [[0] for _ in S3_PERMS]
    natural = [list(p) for p in S3_PERMS]
    regular = [[index[compose(g, h)] for h in S3_PERMS] for g in S3_PERMS]
    return [one_pt, natural, regular]


def ks3_module(shape, r, dim):
    """Linearized restriction of a global S3-set action to a random subset."""
    pieces = _s3_set_actions()
    tables = []
    while sum(len(t[0]) for t in tables) < dim + 2:
        tables.append(shape.choice(pieces))
    points = [(k, p) for k, t in enumerate(tables) for p in range(len(t[0]))]
    subset = shape.sample(points, dim)
    where = {pt: i for i, pt in enumerate(subset)}
    pis = []
    for g in range(len(S3_PERMS)):
        rows = [[F(0)] * dim for _ in range(dim)]
        for (k, p), j in where.items():
            target = (k, tables[k][g][p])
            if target in where:
                rows[where[target]][j] = F(1)
        pis.append(rows)
    return conjugate(pis, rand_invertible(r, dim))


MODULE_BUILDERS = {"kC2-dual": dual_c2_module, "sweedler": sweedler_module,
                   "kS3": ks3_module}


@functools.lru_cache(maxsize=None)
def hopf_algebra(name):
    return hp.builtin(name)


def to_mats(rows_list):
    return tuple(Mat(rows) for rows in rows_list)


def shuffled_blocks(r, choices):
    """Endless stream of ``choices``; each consecutive block is a permutation."""
    while True:
        block = list(choices)
        r.shuffle(block)
        yield from block


ROUNDTRIP_MAX_DIM = 4


def roundtrip_modules(seed, max_dim=ROUNDTRIP_MAX_DIM):
    """Endless stream of partial modules over kC2-dual, sweedler and kS3.

    The Hopf algebras rotate; dimensions 1..max_dim are uniform, as in
    acceptance criterion 06, and balanced per Hopf algebra in blocks.
    """
    shape, r = rng(SHAPE_SEED, "roundtrip"), rng(seed, "roundtrip")
    dims = {name: shuffled_blocks(shape, range(1, max_dim + 1)) for name in HOPF_NAMES}
    for name in itertools.cycle(HOPF_NAMES):
        dim = next(dims[name])
        yield PartialModule(hopf_algebra(name), dim,
                            to_mats(MODULE_BUILDERS[name](shape, r, dim)))


# -- partial module algebras ------------------------------------------------

SCALAR_FACTORS = {
    "kC2-dual": {"half": (F(1, 2), F(1, 2)), "triv": (F(1), F(0))},
    "sweedler": {"counit": (F(1), F(1), F(0), F(0)), "w": (F(1), F(0), F(0), F(0))},
}
"""The scalar partial module algebras of the shipped examples, by the
scalar each Hopf basis element acts with."""


def _multisets(names, size):
    if size == 0:
        return [()]
    return [(names[i],) + rest for i in range(len(names))
            for rest in _multisets(names[i:], size - 1)]


ALGEBRA_TYPES = tuple(
    (hopf_name, combo)
    for hopf_name, max_dim in (("kC2-dual", 3), ("sweedler", 2))
    for dim in range(1, max_dim + 1)
    for combo in _multisets(sorted(SCALAR_FACTORS[hopf_name]), dim))
"""Direct products of scalar algebras: dim 1-3 over kC2-dual, 1-2 over
sweedler.  They include every shipped partial module algebra."""


def transported_algebra(r, hopf_name, combo):
    """Structure constants of a product of scalar algebras in a random basis.

    In the standard basis the product is componentwise, the unit is
    (1, ..., 1) and e_h acts diagonally by its scalars; a change of basis
    Q gives the constants Q^-1 ((Q e_i) * (Q e_j)).  Returns
    (mult, unit, action) as nested lists of Fractions.
    """
    scalars = [SCALAR_FACTORS[hopf_name][name] for name in combo]
    n = len(combo)
    q = rand_invertible(r, n, span=1)
    qi = exact.inverse(q)
    apply_qi = lambda v: [sum((qi[i][k] * v[k] for k in range(n)), F(0))
                          for i in range(n)]
    mult = [[apply_qi([q[k][i] * q[k][j] for k in range(n)]) for j in range(n)]
            for i in range(n)]
    unit = apply_qi([F(1)] * n)
    diag = [[[s[b] if i == j else F(0) for j in range(n)] for i, s in enumerate(scalars)]
            for b in range(len(scalars[0]))]
    return mult, unit, conjugate(diag, qi)


ALGEBRA_OPS = ("globalize", "partial_smash", "global_smash", "zeta_xi", "morita_context")


def algebra_schedule(k):
    """(type, op) of operation k: a fixed order that visits every pair once per
    len(ALGEBRA_OPS) * len(ALGEBRA_TYPES) operations, heavy pairs spread out."""
    n_ops, n_types = len(ALGEBRA_OPS), len(ALGEBRA_TYPES)
    o = k % n_ops
    return ALGEBRA_TYPES[(5 * (k // n_ops) + 3 * o) % n_types], ALGEBRA_OPS[o]


def algebra_inputs(seed):
    """Endless stream of (op, transported partial module algebra)."""
    r = rng(seed, "algebras")
    for k in itertools.count():
        (hopf_name, combo), op = algebra_schedule(k)
        mult, unit, action = transported_algebra(r, hopf_name, combo)
        yield op, ac.PartialModuleAlgebra.build(hopf_algebra(hopf_name), mult, unit,
                                                to_mats(action))


# -- CLI documents ------------------------------------------------------------

CLI_VERBS = ("check-partial", "classify", "core", "shadow", "dilate", "restrict",
             "check-action")
MALFORMED_KINDS = ("dim-not-integer", "truncated-json", "missing-pi",
                   "unknown-hopf", "bad-scalar", "wrong-matrix-count")
# per block of 20 documents: 16 valid, 3 invalid (15%), 1 malformed (5%)
CLI_BLOCK = ("valid",) * 16 + ("invalid",) * 3 + ("malformed",)


def scalar_json(x):
    return str(F(x))


def mat_json(rows):
    return [[scalar_json(x) for x in row] for row in rows]


def module_doc(name, pis):
    return {"hopf": name, "dim": len(pis[0]), "pi": [mat_json(p) for p in pis]}


def projected_doc(shape, r, name):
    """A global module with a compatible projection, in a random basis.

    kC2-dual: a graded space with the projection averaging paired degree-0
    and degree-1 vectors; sweedler: the antidiagonal module of a pure pair
    (c, d) with the first-block projection; kS3: a permutation module with
    the coordinate projection onto a subset of points.
    """
    if name == "kC2-dual":
        n1, n2, tc = shape.randint(0, 1), shape.randint(0, 1), shape.randint(1, 2)
        dim = n1 + n2 + 2 * tc
        p0 = [[F(int(i == j and i < n1 + tc)) for j in range(dim)] for i in range(dim)]
        pis = [p0, [[F(int(i == j)) - p0[i][j] for j in range(dim)] for i in range(dim)]]
        t = [[F(0)] * dim for _ in range(dim)]
        for i in list(range(n1)) + list(range(n1 + tc, n1 + tc + n2)):
            t[i][i] = F(1)
        for k in range(tc):
            e, f = n1 + k, n1 + tc + n2 + k
            for row in (e, f):
                t[row][e] = t[row][f] = F(1, 2)
    elif name == "sweedler":
        w = shape.randint(1, 2)
        c, d = _sweedler_pure_pair(shape, r, w)
        neg = lambda m: [[-x for x in row] for row in m]
        ident, zero = exact.identity(w), [[F(0)] * w for _ in range(w)]
        stack = lambda tl, tr, bl, br: [a + b for a, b in zip(tl, tr)] + \
            [a + b for a, b in zip(bl, br)]
        g = stack(zero, ident, ident, zero)
        x = stack(c, neg(d), d, neg(c))
        pis = [exact.identity(2 * w), g, x, exact.mul(g, x)]
        t = block_diag([ident, zero])
    else:
        pieces = _s3_set_actions()[:2]
        tables = [shape.choice(pieces)]
        if len(tables[0][0]) == 1:
            tables.append(shape.choice(pieces))
        dim = sum(len(tb[0]) for tb in tables)
        pis = []
        for g in range(len(S3_PERMS)):
            rows = [[F(0)] * dim for _ in range(dim)]
            off = 0
            for tb in tables:
                for p in range(len(tb[0])):
                    rows[off + tb[g][p]][off + p] = F(1)
                off += len(tb[0])
            pis.append(rows)
        keep = set(shape.sample(range(dim), shape.randint(1, dim)))
        t = [[F(int(i == j and i in keep)) for j in range(dim)] for i in range(dim)]
    q = rand_invertible(r, len(t))
    *pis, t = conjugate(pis + [t], q)
    return {"module": module_doc(name, pis), "t": mat_json(t)}


def _malform(kind, doc):
    if kind == "dim-not-integer":
        doc["dim"] = "x"
    elif kind == "missing-pi":
        del doc["pi"]
    elif kind == "unknown-hopf":
        doc["hopf"] = "kC5"
    elif kind == "bad-scalar":
        doc["pi"][0][0][0] = "1/0"
    elif kind == "wrong-matrix-count":
        doc["pi"] = doc["pi"][:-1]
    text = json.dumps(doc)
    return text[: len(text) // 2] if kind == "truncated-json" else text


def cli_documents(seed, max_dim=3):
    """Endless stream of (verb, document text, expected exit code, kind).

    Valid documents expect exit 0; invalid modules carry one perturbed
    action matrix and expect 1 from check-partial; malformed documents
    expect 2.  Each document names its Hopf algebra as a builtin string.
    """
    shape, r = rng(SHAPE_SEED, "cli"), rng(seed, "cli")
    kinds = shuffled_blocks(shape, CLI_BLOCK)
    verbs = shuffled_blocks(shape, CLI_VERBS)
    hopfs = shuffled_blocks(shape, HOPF_NAMES)
    classify_hopfs = shuffled_blocks(shape, HOPF_NAMES[:2])
    dims = shuffled_blocks(shape, range(1, max_dim + 1))
    types = shuffled_blocks(shape, ALGEBRA_TYPES)
    broken = shuffled_blocks(shape, MALFORMED_KINDS)
    broken_verbs = shuffled_blocks(shape, ("check-partial", "core", "shadow", "dilate"))

    def module(name):
        return module_doc(name, MODULE_BUILDERS[name](shape, r, next(dims)))

    while True:
        kind = next(kinds)
        if kind == "invalid":
            name = next(hopfs)
            doc = module(name)
            # perturb an element with a nonzero unit coefficient, so PR1 fails
            b = 0 if name != "kC2-dual" else shape.randrange(2)
            n = doc["dim"]
            i, j = shape.randrange(n), shape.randrange(n)
            delta = F(r.choice((-2, -1, 1, 2)), r.choice((1, 2, 3)))
            doc["pi"][b][i][j] = scalar_json(F(doc["pi"][b][i][j]) + delta)
            yield "check-partial", json.dumps(doc), 1, kind
        elif kind == "malformed":
            bad = next(broken)
            yield next(broken_verbs), _malform(bad, module(next(hopfs))), 2, bad
        else:
            verb = next(verbs)
            if verb == "classify":
                doc = module(next(classify_hopfs))
            elif verb == "restrict":
                doc = projected_doc(shape, r, next(hopfs))
            elif verb == "check-action":
                hopf_name, combo = next(types)
                mult, unit, action = transported_algebra(r, hopf_name, combo)
                doc = module_doc(hopf_name, action)
                doc["alg_mult"] = [mat_json(plane) for plane in mult]
                doc["alg_unit"] = [scalar_json(x) for x in unit]
            else:
                doc = module(next(hopfs))
            yield verb, json.dumps(doc), 0, kind
