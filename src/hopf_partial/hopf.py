"""Finite-dimensional Hopf algebras given by structure constants.

A Hopf algebra of dimension d is stored as plain arrays:

* ``mult[i][j][k]``   -- coefficient of e_k in e_i * e_j
* ``unit``            -- coefficient vector of 1
* ``comult[i][j][k]`` -- coefficient of e_j (x) e_k in Delta(e_i);
                         index j is the first tensor leg, k the second
* ``counit``          -- values of the counit on the basis
* ``antipode``        -- matrix of S in the column convention

Every axiom is a finite exact tensor-contraction identity, checked by
``validate_hopf``.  Constructors always validate their output and compute
the inverse antipode; construction fails if S is singular.

Products of elements are matrices: ``left_mults`` and ``right_mults`` give
the regular representation of any algebra given by constants, the
matrices L_s of u -> e_s u and R_s of u -> u e_s, and ``mult_by`` turns
either into multiplication by an element.  The unit witness reads the L_s.

The associativity witness and the coalgebra, bialgebra and antipode
checks read sparse tables, built once per object in ``__post_init__``:
``mult_terms[i][j]`` lists the (k, c) with c != 0 in e_i * e_j,
``comult_terms[i]`` the Sweedler terms (j, k, c) of Delta(e_i) and
``antipode_terms[i]`` the (j, c) with c != 0 in S(e_i).  The algebras of
``actions`` carry ``mult_terms`` for their associativity witness.  They
are attributes, not fields, so equality and hashing see only the arrays.
"""

from dataclasses import dataclass, field
from functools import lru_cache

from .linalg import (Mat, ShapeError, _mat_sum, first_nonzero_col, frac, inverse,
                     unit_vec, vstack)
from .reports import ValidationError, ValidationReport


def _freeze3(data):
    return tuple(tuple(tuple(frac(x) for x in row) for row in plane)
                 for plane in data)


def _mult_terms(mult):
    """The sparse table of mult: terms[i][j] lists the (k, c) with c != 0."""
    return tuple(tuple(tuple((k, c) for k, c in enumerate(row) if c)
                       for row in plane) for plane in mult)


def left_mults(mult, dim):
    """L_0, ..., L_{dim-1}: the matrices of u -> e_s u, column j = mult[s][j]."""
    return [Mat.from_cols(mult[s], dim) for s in range(dim)]


def right_mults(mult, dim):
    """R_0, ..., R_{dim-1}: the matrices of u -> u e_s, column j = mult[j][s]."""
    return [Mat.from_cols([mult[j][s] for j in range(dim)], dim)
            for s in range(dim)]


def mult_by(mats, u):
    """sum u_s mats[s]: L(u) from left_mults, R(u) from right_mults."""
    return _mat_sum(((m, c) for m, c in zip(mats, u) if c), len(u), len(u))


def _collect(terms):
    """Sum (key, coeff) pairs into a dict of tensor coefficients, zeros dropped."""
    out = {}
    for key, c in terms:
        out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c}


def _comult_el(h, u):
    """Delta of the coefficient vector u, as tensor coefficients."""
    return _collect(((a, b), c * cc) for k, c in enumerate(u) if c
                    for a, b, cc in h.comult_terms[k])


def _associativity_witness(terms):
    """First basis triple (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k)."""
    for i, row in enumerate(terms):
        for j, ij in enumerate(row):
            for k, jk in enumerate(terms[j]):
                if _collect((s, c * x) for p, c in ij for s, x in terms[p][k]) \
                        != _collect((s, c * x) for q, c in jk for s, x in row[q]):
                    return (i, j, k)
    return None


def _unit_witness(left, unit):
    """First basis index j where unit fails to be a two-sided unit, given the
    left multiplications of the algebra: the first nonzero column of L(u) - I
    over [L_0 u | ... | L_{n-1} u] - I, whose columns j are u e_j and e_j u."""
    n = len(unit)
    ident = Mat.identity(n)
    by_unit = Mat.from_cols([a.apply(unit) for a in left], n)
    return first_nonzero_col(vstack([mult_by(left, unit) - ident, by_unit - ident]))


@dataclass(frozen=True)
class HopfAlgebraData:
    dim: int
    mult: tuple
    unit: tuple
    comult: tuple
    counit: tuple
    antipode: Mat
    antipode_inv: Mat
    # presentation only: two algebras are the same Hopf data irrespective
    # of how their basis elements are named
    labels: tuple = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mult_terms", _mult_terms(self.mult))
        object.__setattr__(self, "comult_terms", tuple(
            tuple((j, k, c) for j, row in enumerate(plane)
                  for k, c in enumerate(row) if c) for plane in self.comult))
        object.__setattr__(self, "antipode_terms", tuple(
            tuple((j, c) for j, c in enumerate(col) if c)
            for col in self.antipode.col_list()))

    @staticmethod
    def build(dim, mult, unit, comult, counit, antipode, antipode_inv=None,
              labels=None, validate=True):
        mult = _freeze3(mult)
        comult = _freeze3(comult)
        unit = tuple(frac(x) for x in unit)
        counit = tuple(frac(x) for x in counit)
        if not isinstance(antipode, Mat):
            antipode = Mat(antipode)
        shapes_ok = (len(mult) == dim and all(len(p) == dim and all(len(r) == dim for r in p) for p in mult)
                     and len(comult) == dim and all(len(p) == dim and all(len(r) == dim for r in p) for p in comult)
                     and len(unit) == dim and len(counit) == dim
                     and antipode.rows == dim and antipode.cols == dim)
        if not shapes_ok:
            raise ShapeError("inconsistent structure constant dimensions")
        if antipode_inv is None:
            try:
                antipode_inv = inverse(antipode)
            except ValueError:
                raise ValidationError("antipode is singular; an invertible "
                                      "antipode is required")
        elif not isinstance(antipode_inv, Mat):
            antipode_inv = Mat(antipode_inv)
        h = HopfAlgebraData(dim, mult, unit, comult, counit, antipode,
                            antipode_inv, tuple(labels) if labels else None)
        if validate:
            report = validate_hopf(h)
            if not report.ok:
                raise ValidationError(report)
        return h

    # -- elementwise coalgebra helpers --------------------------------------

    def counit_el(self, u):
        return sum((a * e for a, e in zip(u, self.counit)), frac(0))

    def is_cocommutative(self):
        return all(self.comult[i][k][j] == c
                   for i, terms in enumerate(self.comult_terms) for j, k, c in terms)


def validate_hopf(h: HopfAlgebraData) -> ValidationReport:
    """Check every Hopf axiom, reporting a witness index tuple on failure."""
    d = h.dim
    report = ValidationReport("hopf axioms")

    witness = _associativity_witness(h.mult_terms)
    report.record("associativity", witness is None, witness)

    witness = _unit_witness(left_mults(h.mult, d), h.unit)
    report.record("unit", witness is None, witness)

    witness = next(((i,) for i in range(d)
                    if _collect(((a, b, c), cpc * cab)
                                for p, c, cpc in h.comult_terms[i]
                                for a, b, cab in h.comult_terms[p])
                    != _collect(((a, b, c), cap * cbc)
                                for a, p, cap in h.comult_terms[i]
                                for b, c, cbc in h.comult_terms[p])), None)
    report.record("coassociativity", witness is None, witness)

    witness = next(((i,) for i in range(d)
                    if _collect((k, c * h.counit[j]) for j, k, c in h.comult_terms[i])
                    != {i: 1}
                    or _collect((j, c * h.counit[k]) for j, k, c in h.comult_terms[i])
                    != {i: 1}), None)
    report.record("counit", witness is None, witness)

    witness = None
    if h.counit_el(h.unit) != 1:
        witness = ("counit of unit",)
    elif _comult_el(h, h.unit) != _collect(((j, k), a * b) for j, a in enumerate(h.unit)
                                           for k, b in enumerate(h.unit)):
        witness = ("comult of unit",)
    if witness is None:
        for i in range(d):
            for j in range(d):
                prod = h.mult[i][j]
                if h.counit_el(prod) != h.counit[i] * h.counit[j]:
                    witness = (i, j, "counit multiplicative")
                    break
                right = _collect(((a, b), cpq * crs * x * y)
                                 for p, q, cpq in h.comult_terms[i]
                                 for r, s, crs in h.comult_terms[j]
                                 for a, x in h.mult_terms[p][r]
                                 for b, y in h.mult_terms[q][s])
                if _comult_el(h, prod) != right:
                    witness = (i, j, "comult multiplicative")
                    break
            if witness:
                break
    report.record("bialgebra", witness is None, witness)

    # S(e_i(1)) e_i(2) and e_i(1) S(e_i(2)) against eps(e_i) 1
    ones = [_collect((t, e * x) for t, x in enumerate(h.unit)) for e in h.counit]
    witness = next(((i,) for i in range(d)
                    if _collect((t, c * s * x) for j, k, c in h.comult_terms[i]
                                for a, s in h.antipode_terms[j]
                                for t, x in h.mult_terms[a][k]) != ones[i]
                    or _collect((t, c * s * x) for j, k, c in h.comult_terms[i]
                                for b, s in h.antipode_terms[k]
                                for t, x in h.mult_terms[j][b]) != ones[i]), None)
    report.record("antipode", witness is None, witness)

    ident = Mat.identity(d)
    inv_ok = (h.antipode * h.antipode_inv == ident
              and h.antipode_inv * h.antipode == ident)
    report.record("antipode invertible", inv_ok)
    return report


# -- group machinery ---------------------------------------------------------

def check_group_table(table):
    """Validate a Cayley table: identity at index 0, associative, inverses."""
    d = len(table)
    if any(len(row) != d for row in table):
        raise ShapeError("Cayley table is not square")
    if any(not (0 <= x < d) for row in table for x in row):
        raise ValidationError("Cayley table entries out of range")
    if any(table[0][j] != j for j in range(d)) or any(table[i][0] != i for i in range(d)):
        raise ValidationError("index 0 is not a two-sided identity")
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise ValidationError(f"table is not associative at {(i, j, k)}")
    inv = [None] * d
    for i in range(d):
        js = [j for j in range(d) if table[i][j] == 0 and table[j][i] == 0]
        if not js:
            raise ValidationError(f"element {i} has no inverse")
        inv[i] = js[0]
    return inv


def group_algebra(cayley_table, labels=None) -> HopfAlgebraData:
    """Group algebra kG: grouplike basis u_g, S(u_g) = u_{g inverse}."""
    inv = check_group_table(cayley_table)
    d = len(cayley_table)
    mult = [[[1 if cayley_table[i][j] == k else 0 for k in range(d)]
             for j in range(d)] for i in range(d)]
    comult = [[[1 if i == j == k else 0 for k in range(d)]
               for j in range(d)] for i in range(d)]
    unit = unit_vec(d, 0)
    counit = [1] * d
    antipode = Mat([[1 if i == inv[j] else 0 for j in range(d)] for i in range(d)])
    return HopfAlgebraData.build(d, mult, unit, comult, counit, antipode,
                                 labels=labels or [f"u{g}" for g in range(d)])


def dual_group_algebra(cayley_table, labels=None) -> HopfAlgebraData:
    """Dual kG*: orthogonal idempotents p_g, Delta(p_g) = sum p_h (x) p_{h^-1 g}."""
    inv = check_group_table(cayley_table)
    d = len(cayley_table)
    mult = [[[1 if i == j == k else 0 for k in range(d)]
             for j in range(d)] for i in range(d)]
    unit = [1] * d
    comult = [[[1 if cayley_table[j][k] == g else 0 for k in range(d)]
               for j in range(d)] for g in range(d)]
    counit = [1 if g == 0 else 0 for g in range(d)]
    antipode = Mat([[1 if i == inv[j] else 0 for j in range(d)] for i in range(d)])
    return HopfAlgebraData.build(d, mult, unit, comult, counit, antipode,
                                 labels=labels or [f"p{g}" for g in range(d)])


def sweedler_h4() -> HopfAlgebraData:
    """The four-dimensional Sweedler Hopf algebra, basis order (1, g, x, y).

    Relations: g^2 = 1, x^2 = 0, gx = y = -xg; Delta(g) = g(x)g,
    Delta(x) = g(x)x + x(x)1, S(g) = g, S(x) = -y, S(y) = x.
    """
    d = 4
    I, G, X, Y = 0, 1, 2, 3
    mult = [[[0] * d for _ in range(d)] for _ in range(d)]

    def set_prod(a, b, vec):
        for k, c in vec:
            mult[a][b][k] = c

    for a in range(d):
        set_prod(I, a, [(a, 1)])
        if a != I:
            set_prod(a, I, [(a, 1)])
    set_prod(G, G, [(I, 1)])
    set_prod(G, X, [(Y, 1)])
    set_prod(G, Y, [(X, 1)])
    set_prod(X, G, [(Y, -1)])
    set_prod(X, X, [])
    set_prod(X, Y, [])
    set_prod(Y, G, [(X, -1)])
    set_prod(Y, X, [])
    set_prod(Y, Y, [])

    comult = [[[0] * d for _ in range(d)] for _ in range(d)]
    comult[I][I][I] = 1
    comult[G][G][G] = 1
    comult[X][G][X] = 1
    comult[X][X][I] = 1
    comult[Y][I][Y] = 1
    comult[Y][Y][G] = 1

    unit = unit_vec(d, I)
    counit = [1, 1, 0, 0]
    antipode = Mat([[1, 0, 0, 0],
                    [0, 1, 0, 0],
                    [0, 0, 0, 1],
                    [0, 0, -1, 0]])
    return HopfAlgebraData.build(d, mult, unit, comult, counit, antipode,
                                 labels=("1", "g", "x", "y"))


def cop(h: HopfAlgebraData) -> HopfAlgebraData:
    """Same algebra with the opposite comultiplication; S and S^-1 swap."""
    comult = [[[h.comult[i][k][j] for k in range(h.dim)] for j in range(h.dim)]
              for i in range(h.dim)]
    return HopfAlgebraData.build(h.dim, h.mult, h.unit, comult, h.counit,
                                 h.antipode_inv, h.antipode, labels=h.labels)


def hopf_morphism_report(src: HopfAlgebraData, dst: HopfAlgebraData,
                         f: Mat) -> ValidationReport:
    """Check that f intertwines every structure map of src and dst."""
    if f.rows != dst.dim or f.cols != src.dim:
        raise ShapeError("morphism matrix shape mismatch")
    report = ValidationReport("hopf morphism")
    report.record("unit", f.apply(src.unit) == dst.unit)

    left = left_mults(dst.mult, dst.dim)
    images = [mult_by(left, x) for x in f.col_list()]
    witness = next(((i, j) for i in range(src.dim) for j in range(src.dim)
                    if f.apply(src.mult[i][j]) != images[i].apply(f.col(j))), None)
    report.record("multiplicative", witness is None, witness)

    witness = next(((i,) for i in range(src.dim)
                    if _collect(((a, b), c * x * y) for j, k, c in src.comult_terms[i]
                                for a, x in enumerate(f.col(j)) if x != 0
                                for b, y in enumerate(f.col(k)) if y != 0)
                    != _comult_el(dst, f.col(i))), None)
    report.record("comultiplicative", witness is None, witness)

    report.record("counit", all(dst.counit_el(f.col(i)) == src.counit[i]
                                for i in range(src.dim)))
    report.record("antipode", f * src.antipode == dst.antipode * f)
    return report


# -- builtin algebras for the CLI and the test suite -------------------------

def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def klein_table():
    return [[i ^ j for j in range(4)] for i in range(4)]


def s3_table():
    perms = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    index = {p: i for i, p in enumerate(perms)}
    compose = lambda p, q: tuple(p[q[x]] for x in range(3))
    return [[index[compose(p, q)] for q in perms] for p in perms]


BUILTIN_NAMES = ("kC2", "kC2-dual", "kC3", "kS3", "kC2xC2-dual", "sweedler")


@lru_cache(maxsize=None)
def builtin(name: str) -> HopfAlgebraData:
    """Look up one of the named builtin Hopf algebras.

    Each builtin is built and validated once; the values are immutable,
    so every caller shares the same instance.
    """
    if name == "kC2":
        return group_algebra(cyclic_table(2))
    if name == "kC2-dual":
        return dual_group_algebra(cyclic_table(2))
    if name == "kC3":
        return group_algebra(cyclic_table(3))
    if name == "kS3":
        return group_algebra(s3_table())
    if name == "kC2xC2-dual":
        return dual_group_algebra(klein_table())
    if name == "sweedler":
        return sweedler_h4()
    raise KeyError(f"unknown builtin Hopf algebra {name!r}; "
                   f"choose from {', '.join(BUILTIN_NAMES)}")
