"""Finite-dimensional Hopf algebras given by structure constants.

A Hopf algebra of dimension d is stored as plain arrays:

* ``mult[i][j][k]``   -- coefficient of e_k in e_i * e_j
* ``unit``            -- coefficient vector of 1
* ``comult[i][j][k]`` -- coefficient of e_j (x) e_k in Delta(e_i);
                         index j is the first tensor leg, k the second
* ``counit``          -- values of the counit on the basis
* ``antipode``        -- matrix of S in the column convention

Every axiom is a finite exact identity between matrices, checked by
``validate_hopf``.  Constructors always validate their output and compute
the inverse antipode; construction fails if S is singular.

Products of elements are matrices: ``left_mults`` gives the L_s of
u -> e_s u of an algebra given by constants, ``right_from_left`` reads
the R_s of u -> u e_s off them, and ``mult_by`` turns either family, or
any other, into the combinations sum u_s X_s, one per column u of a
coefficient matrix.  The unit witness and the associativity witness read
the L_s; the associativity witness takes their columns as integer
numerators over one common denominator, so both sides of each triple are
compared as integer vectors.

The coalgebra, bialgebra and antipode axioms and the conditions on a
Hopf morphism are identities on the product mu (d x d^2, the L_s side by
side), the coproduct Delta (d^2 x d, column i = Delta(e_i), first
leg major), the unit column u and the counit row eps, such as
mu (S (x) 1) Delta = u eps; the witness is the first nonzero column of
the difference.  ``comult_terms[i]`` lists the Sweedler terms (j, k, c)
of Delta(e_i) and ``antipode_terms[i]`` the (j, c) with c != 0 in S(e_i);
both are built with each `HopfAlgebraData`.

Only this module reads how Delta and S are stored: every Sweedler sum of
matrices elsewhere goes through ``comult_sum``, ``antipode_images`` or
``sweedler_grid``, and the diagonal action on a tensor product through
``diagonal_action``.  A Sweedler grid of a family X_0, ..., X_{d-1} of
n x n matrices is the d n x d n block matrix whose block (a, j) is
sum c X_b over the terms (a, b, c) of Delta(e_j); its variants put the
first leg in the block column, fold the antipode into the block index,
or place the X_k of e_r e_s (read off ``mult``).  Each variant's
placement table is built once per Hopf algebra, and a grid is assembled
straight from the integer numerator rows of the family.  The PR1-PR5
checker of ``partial`` is three products with these grids.

`HopfAlgebraData` and the algebras of ``actions`` derive from
`ConstantsAlgebra`, the one home of their regular representation:
``left`` is built from the constants and ``right`` read off it, on first
use, and both are kept on the object by `_memo`, as are a Hopf algebra's
grid placement tables and its hash.  Memos are attributes, not fields,
so equality and hashing see only the arrays.
"""

from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .linalg import (Mat, ShapeError, _col, _columns, _common_den, _mat_sum, _reduced,
                     first_nonzero_col, frac, inverse, kron, reshape, unit_vec, vstack)
from .reports import ValidationError, ValidationReport


def _freeze3(data):
    return tuple(tuple(tuple(frac(x) for x in row) for row in plane)
                 for plane in data)


def left_mults(mult, dim):
    """L_0, ..., L_{dim-1}: the matrices of u -> e_s u, column j = mult[s][j]."""
    return [Mat.from_cols(mult[s], dim) for s in range(dim)]


def right_from_left(left):
    """The R_s from the L_s: column j of R_s is column s of L_j."""
    n = len(left)
    side = _columns(n, left)
    return tuple(_reduced([row[s::n] for row in side.num], side.den, n) for s in range(n))


def _memo(obj, name, compute):
    """compute() stored on the frozen obj as the non-field attribute name.

    The first call that returns stores its value and later calls read it;
    a compute() that raises stores nothing.  Non-field attributes stay out
    of ==, hash and the dataclass fields, so an equal new object starts
    with no memo and is verified from scratch.
    """
    try:
        return obj.__dict__[name]
    except KeyError:
        value = compute()
        object.__setattr__(obj, name, value)
        return value


class ConstantsAlgebra:
    """An algebra given by structure constants, held in the field named _table.

    ``left`` and ``right`` are its L_s, built from the constants on first
    use, and its R_s, read off the L_s.  A builder that already holds the
    L_s or R_s stores them as ``_left`` or ``_right`` through `_memo`.
    """

    _table = "mult"

    @property
    def left(self):
        return _memo(self, "_left", lambda: tuple(
            left_mults(getattr(self, self._table), self.dim)))

    @property
    def right(self):
        return _memo(self, "_right", lambda: right_from_left(self.left))


def mult_by(mats, u: Mat):
    """sum_s u[s, j] mats[s] for each column j of u: L(u_j) from the L_s,
    R(u_j) from the R_s, pi(u_j) from a module's pi.  Zero coefficients are
    skipped and 1 scales nothing; an empty family gives u.cols zero matrices
    of size u.rows.  Raises ShapeError unless u has one row per matrix."""
    if u.rows != len(mats):
        raise ShapeError(f"{u.rows} coefficient rows for {len(mats)} matrices")
    rows, cols = (mats[0].rows, mats[0].cols) if mats else (u.rows, u.rows)
    return tuple(_mat_sum(((mats[s], x if u.den == 1 else Fraction(x, u.den))
                           for s, x in enumerate(col) if x), rows, cols)
                 for col in u.transpose().num)


def comult_sum(h, i, term, rows, cols):
    """sum c term(a, b) over Delta(e_i) = sum c e_a (x) e_b, a rows x cols
    matrix (the zero matrix when Delta(e_i) has no terms)."""
    return _mat_sum(((term(a, b), c) for a, b, c in h.comult_terms[i]), rows, cols)


def diagonal_action(h, left, right):
    """Action of each e_i on a tensor product: sum c left[a] (x) right[b]."""
    n = left[0].rows * right[0].rows
    return tuple(comult_sum(h, i, lambda a, b: kron(left[a], right[b]), n, n)
                 for i in range(h.dim))


def antipode_images(h, mats):
    """(f(S e_0), ..., f(S e_{d-1})) for the linear f with f(e_j) = mats[j]:
    entry i sums c mats[j] over S(e_i) = sum c e_j, column i of S."""
    return mult_by(mats, h.antipode)


def _grid_placements(h, kind):
    """The (r, s, b, c) such that block (r, s) of the grid of kind gains c X_b.

    With Delta(e_j) = sum c e_a (x) e_b and S(e_a) = sum S_ka e_k, block
    (r, s) of each kind is
      col:    sum over Delta(e_s) with a = r of c X_b,
      col_s:  sum over Delta(e_s) of c S_ra X_b,
      row:    sum over Delta(e_r) with b = s of c X_a,
      row_s:  sum over Delta(e_r) of c S_sb X_a,
      mult:   sum c X_k over e_r e_s = sum c e_k.
    """
    if kind == "mult":
        yield from ((r, s, k, c) for r, plane in enumerate(h.mult)
                    for s, row in enumerate(plane) for k, c in enumerate(row) if c)
        return
    if kind not in ("col", "col_s", "row", "row_s"):
        raise ValueError(f"unknown Sweedler grid kind {kind!r}")
    for j, terms in enumerate(h.comult_terms):
        for a, b, c in terms:
            if kind == "col":
                yield a, j, b, c
            elif kind == "col_s":
                yield from ((k, j, b, s * c) for k, s in h.antipode_terms[a])
            elif kind == "row":
                yield j, b, a, c
            else:
                yield from ((j, k, a, s * c) for k, s in h.antipode_terms[b])


def _grid_terms(h, kind):
    """(E, by_rows, by_cols) for the grid of kind, memoized on h.

    by_rows[r] lists the (s, terms) of the nonzero blocks (r, s) and
    by_cols[s] the (r, terms) of the nonzero blocks (r, s), where terms
    lists the (b, E c), c != 0, with block (r, s) = sum c X_b; E is the
    lcm of the denominators of the c, so every E c is an integer.
    """
    def build():
        cells = {}
        for r, s, b, c in _grid_placements(h, kind):
            cell = cells.setdefault((r, s), {})
            cell[b] = cell.get(b, 0) + c
        den = lcm(*[c.denominator for cell in cells.values() for c in cell.values()])
        blocks = {rs: tuple(sorted((b, int(c * den)) for b, c in cell.items() if c))
                  for rs, cell in cells.items()}
        blocks = sorted((rs, terms) for rs, terms in blocks.items() if terms)
        by_rows = tuple(tuple((s, terms) for (r, s), terms in blocks if r == i)
                        for i in range(h.dim))
        by_cols = tuple(tuple((r, terms) for (r, s), terms in blocks if s == j)
                        for j in range(h.dim))
        return den, by_rows, by_cols

    return _memo(h, f"_grid_{kind}", build)


def _cell_row(terms, lines, p, f):
    """Row p of sum (f c) lines[b] over the (b, c) of terms, a nonempty list."""
    (b, c), *rest = terms
    c *= f
    acc = lines[b][p] if c == 1 else [c * x for x in lines[b][p]]
    for b, c in rest:
        c *= f
        acc = [y + c * x for y, x in zip(acc, lines[b][p])]
    return acc


def sweedler_grid(h, n, parts, transpose=False):
    """The Sweedler grids of parts = [(kind, mats), ...], stacked top to bottom.

    Each grid is a d n x d n matrix of n x n blocks, built from the family
    mats of d matrices of size n x n as `_grid_terms` places them; with
    transpose, each grid is replaced by its transpose.  The numerator rows
    are assembled directly from the family's rows (its columns, to
    transpose) lifted to one common denominator; only the nonzero blocks
    are written.
    """
    width = h.dim * n
    tables = [_grid_terms(h, kind) for kind, _ in parts]
    cden = lcm(*[e for e, _, _ in tables])
    den, lifts = _common_den([m for _, mats in parts for m in mats])
    lifts = iter(lifts)
    out = []
    for (_, mats), (e, by_rows, by_cols) in zip(parts, tables):
        lines = []
        for m, g in zip(mats, lifts):
            rows = list(zip(*m.num)) if transpose else m.num
            lines.append(rows if g == 1 else [[g * x for x in row] for row in rows])
        f = cden // e
        for blocks in (by_cols if transpose else by_rows):
            for p in range(n):
                row = [0] * width
                for s, terms in blocks:
                    row[s * n:s * n + n] = _cell_row(terms, lines, p, f)
                out.append(row)
    return _reduced(out, den * cden, width)


def _combination(terms, vecs):
    """sum c vecs[p] over the (p, c) of terms, vecs sparse integer vectors,
    as the sorted tuple of its nonzero (s, x)."""
    # one term or none: most calls on the smash algebras, and about a
    # fifth of the witness's time when they go through the dict
    if len(terms) == 1:
        (p, c), = terms
        return tuple((s, c * x) for s, x in vecs[p])
    if not terms:
        return ()
    out = {}
    for p, c in terms:
        for s, x in vecs[p]:
            out[s] = out.get(s, 0) + c * x
    return tuple(sorted((s, x) for s, x in out.items() if x))


def _associativity_witness(left):
    """First basis triple (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), given
    the left multiplications L_s of the algebra (column j of L_i is e_i e_j).

    Over the common denominator D of the L_s, column j of L_i is n_ij / D
    with n_ij an integer vector, held as its nonzero (index, numerator)
    pairs.  D^2 times the two sides of (i, j, k) are the integer vectors
    sum_p n_ij[p] n_pk and sum_q n_jk[q] n_iq, compared exactly.
    """
    if not left:
        return None
    _, lifts = _common_den(left)
    cols = [[tuple((s, f * x) for s, x in enumerate(col) if x) for col in zip(*a.num)]
            for a, f in zip(left, lifts)]
    at = list(zip(*cols))  # at[k][p] = n_pk
    for i, row in enumerate(cols):
        for j, ij in enumerate(row):
            for k, jk in enumerate(cols[j]):
                if (ij or jk) and _combination(ij, at[k]) != _combination(jk, row):
                    return (i, j, k)
    return None


def _unit_witness(left, unit: Mat):
    """First basis index j where the column unit fails to be a two-sided unit,
    given the L_s: the first nonzero column of L(u) - I over
    [L_0 u | ... | L_{n-1} u] - I, whose columns j are u e_j and e_j u.

    The second block is one product: vstack(left) u stacks the columns
    L_s u, s major, so refilled row-major into n x n its row s is L_s u,
    and the transpose puts it in column s."""
    n = unit.rows
    ident = Mat.identity(n)
    by_unit = reshape(vstack(left) * unit, n, n).transpose() if left else ident
    return first_nonzero_col(vstack([mult_by(left, unit)[0] - ident, by_unit - ident]))


@dataclass(frozen=True)
class HopfAlgebraData(ConstantsAlgebra):
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

    def __hash__(self):
        """The dataclass hash of the compared fields, computed once."""
        return _memo(self, "_hash", lambda: hash(tuple(
            getattr(self, f.name) for f in fields(self) if f.compare)))

    def __post_init__(self):
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
        if antipode_inv is not None and not isinstance(antipode_inv, Mat):
            antipode_inv = Mat(antipode_inv)
        shapes_ok = (len(mult) == dim and all(len(p) == dim and all(len(r) == dim for r in p) for p in mult)
                     and len(comult) == dim and all(len(p) == dim and all(len(r) == dim for r in p) for p in comult)
                     and len(unit) == dim and len(counit) == dim
                     and all(s.rows == dim and s.cols == dim
                             for s in (antipode, antipode_inv) if s is not None))
        if not shapes_ok:
            raise ShapeError("inconsistent structure constant dimensions")
        if antipode_inv is None:
            try:
                antipode_inv = inverse(antipode)
            except ValueError:
                raise ValidationError("antipode is singular; an invertible "
                                      "antipode is required")
        h = HopfAlgebraData(dim, mult, unit, comult, counit, antipode,
                            antipode_inv, tuple(labels) if labels else None)
        if validate:
            report = validate_hopf(h)
            if not report.ok:
                raise ValidationError(report)
        return h


def _structure_maps(h):
    """mu, Delta, the unit column u and the counit row eps of h as matrices."""
    d = h.dim
    return (_columns(d, h.left),
            Mat.from_cols([[x for row in plane for x in row] for plane in h.comult], d * d),
            _col(h.unit), Mat([h.counit], cols=d))


def _record_identity(report, name, difference):
    """Record check name, failing at (j,) for the first nonzero column j of
    the difference of the two sides of an identity."""
    j = first_nonzero_col(difference)
    report.record(name, j is None, None if j is None else (j,))


def validate_hopf(h: HopfAlgebraData) -> ValidationReport:
    """Check every Hopf axiom, reporting a witness index tuple on failure."""
    d = h.dim
    report = ValidationReport("hopf axioms")

    witness = _associativity_witness(h.left)
    report.record("associativity", witness is None, witness)

    mu, delta, unit, eps = _structure_maps(h)
    witness = _unit_witness(h.left, unit)
    report.record("unit", witness is None, witness)

    ident = Mat.identity(d)
    _record_identity(report, "coassociativity",
                     kron(delta, ident) * delta - kron(ident, delta) * delta)
    _record_identity(report, "counit", vstack([kron(eps, ident) * delta - ident,
                                               kron(ident, eps) * delta - ident]))

    # eps mu = eps (x) eps and Delta L_i = D_i Delta, D the diagonal action on H (x) H
    witness = None
    if eps * unit != Mat.identity(1):
        witness = ("counit of unit",)
    elif delta * unit != kron(unit, unit):
        witness = ("comult of unit",)
    else:
        by_eps = eps * mu - kron(eps, eps)
        products = [di * delta for di in diagonal_action(h, h.left, h.left)]
        j = first_nonzero_col(vstack([by_eps, delta * mu - _columns(d * d, products)]))
        if j is not None:
            kind = "counit" if by_eps.num[0][j] else "comult"
            witness = (*divmod(j, d), f"{kind} multiplicative")
    report.record("bialgebra", witness is None, witness)

    ones = unit * eps
    _record_identity(report, "antipode",
                     vstack([mu * (kron(h.antipode, ident) * delta) - ones,
                             mu * (kron(ident, h.antipode) * delta) - ones]))

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


def group_algebra(cayley_table) -> HopfAlgebraData:
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
                                 labels=[f"u{g}" for g in range(d)])


def dual_group_algebra(cayley_table) -> HopfAlgebraData:
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
                                 labels=[f"p{g}" for g in range(d)])


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
    mu, delta, unit, eps = _structure_maps(src)
    mu_dst, delta_dst, unit_dst, eps_dst = _structure_maps(dst)
    report.record("unit", f * unit == unit_dst)

    ff = kron(f, f)
    j = first_nonzero_col(f * mu - mu_dst * ff)
    witness = None if j is None else divmod(j, src.dim)
    report.record("multiplicative", witness is None, witness)
    _record_identity(report, "comultiplicative", ff * delta - delta_dst * f)
    report.record("counit", eps_dst * f == eps)
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
