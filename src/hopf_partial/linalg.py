"""Exact dense linear algebra over the rationals.

Every other module is built on top of the primitives here: canonical
reduced echelon forms, kernels, images, quotients, Kronecker products and
span-saturation fixpoints.  All results are exact; there is no floating
point anywhere in the package.

A `Mat` stores integers: ``num`` is a tuple of integer rows and ``den`` one
positive common denominator, and the matrix is num / den.  The pair is
kept canonical: gcd(den, all numerators) == 1, so the zero matrix has
den == 1, and two matrices are equal exactly when their pairs are.
Products, sums and elimination run on Python integers.  A product builds
row i of its numerator as the sum of a_ik times row k of the right
factor over the nonzero a_ik of row i of the left one, so a zero row
stays zero and a row whose only nonzero entry is 1 is that row of the
right factor; the numerators are then reduced like any other.
Elimination is fraction-free: rows are kept primitive (integer rows with
content 1), cross-multiplied to clear a column, and divided by their
pivots only when the reduced echelon form is read off.  Every linear
system a X = B, the inverse (B = I) included, is one elimination of the
block [a | B].  The exception is a system against a `Subspace`'s echelon
basis, a = basis^T: column p_r of that basis is the r-th unit vector, p_r
its r-th pivot, so row r of X is row p_r of B, and one product proves
the system consistent (`echelon_coords`).  So a family of operators gets
its matrices on an invariant subspace from [op_1 incl | ... | op_k incl]
with no elimination, cut back into blocks by `split_blocks`.  The entry
views (``m[i, j]``, ``row``, ``col``, ``entries``, ``col_list``) are
`fractions.Fraction`s built on demand; ``entries`` and ``col_list`` build
one per distinct numerator and share it among the entries equal to it.
A linear combination of matrices (`_mat_sum`) is one pass over integer
rows lifted to a common denominator, reduced once.

Three helpers report the first failure of an identity, or None:
`first_nonzero_col` (the first nonzero column of a difference),
`first_unstable` (the first operator that moves a subspace off itself)
and `intertwining_witness` (the first i with f src[i] != dst[i] f).  Every
check that a map intertwines two operator families goes through the last.
`first_unstable` is the `echelon_coords` read of [op_1 incl | ... |
op_k incl]: the first column its verifying product misses names the
operator, with no membership test per vector.

Conventions, fixed once for the whole package:

* a matrix represents a linear map in the column convention: column j is
  the image of the j-th basis vector, and composition "apply A then B" is
  the product B*A;
* a vector is an n x 1 `Mat` column and a family of them the columns of
  one `Mat`; `Fraction` tuples appear only in dataclass fields and the
  entry views, and `_col` turns one into a column;
* tensor/Kronecker bases are ordered first-factor-major, i.e. the pair
  (i, k) of factor indices becomes the single index i*dim2 + k.
"""

from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from operator import mul


class ShapeError(ValueError):
    """Dimension mismatch between operands."""


def frac(x) -> Fraction:
    """Coerce ints, strings like '-3/7' and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floating point is not allowed; use Fraction or str")
    return Fraction(x)


ZERO = Fraction(0)
ONE = Fraction(1)


def unit_vec(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


# -- integer representation ---------------------------------------------------

def _int_row(v):
    """Integer numerators of v over the lcm of its denominators, and that lcm."""
    if all(type(x) is int for x in v):
        return list(v), 1
    v = [x if isinstance(x, (int, Fraction)) else frac(x) for x in v]
    d = lcm(*[x.denominator for x in v])
    if d == 1:
        return [x.numerator for x in v], 1
    return [x.numerator * (d // x.denominator) for x in v], d


def _fracs(row, den):
    if den == 1:
        return tuple(map(Fraction, row))
    return tuple(Fraction(x, den) for x in row)


def _primitive(row):
    """row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _mat(num, den, cols):
    """Mat from a pair that is already canonical."""
    m = object.__new__(Mat)
    object.__setattr__(m, "num", tuple(map(tuple, num)))
    object.__setattr__(m, "den", den)
    object.__setattr__(m, "rows", len(num))
    object.__setattr__(m, "cols", cols)
    return m


def _reduced(num, den, cols):
    """Mat num / den (den != 0), brought to canonical form."""
    if den < 0:
        den, num = -den, [[-x for x in r] for r in num]
    if den != 1:
        g = gcd(den, *chain.from_iterable(num))
        if g != 1:
            den //= g
            num = [[x // g for x in r] for r in num]
    return _mat(num, den, cols)


def _common_den(mats):
    """lcm of the denominators and, per matrix, the factor that lifts it there.

    Numerators of canonical matrices lifted to the lcm are canonical again:
    a prime power dividing the lcm exactly comes from some matrix, and that
    matrix has a numerator the prime does not divide.
    """
    den = lcm(*[m.den for m in mats])
    return den, [den // m.den for m in mats]


def _lift(row, f):
    return row if f == 1 else [f * x for x in row]


def _transpose(m):
    return _mat(list(zip(*m.num)) if m.rows else [()] * m.cols, m.den, m.rows)


class Mat:
    """Immutable dense rational matrix: integer numerators over one denominator.

    Zero-row matrices keep an explicit column count so that maps like the
    quotient by a full subspace still compose correctly.
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, entries, cols=None):
        body = [_int_row(row) for row in entries]
        if body and any(len(r) != len(body[0][0]) for r, _ in body):
            raise ShapeError("ragged rows")
        ncols = len(body[0][0]) if body else (cols if cols is not None else 0)
        # over the lcm of reduced fractions' denominators the pair is canonical
        den = lcm(*[d for _, d in body])
        object.__setattr__(self, "num",
                           tuple(tuple(_lift(r, den // d)) for r, d in body))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", len(body))
        object.__setattr__(self, "cols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @staticmethod
    def zeros(rows, cols):
        return _mat(((0,) * cols,) * rows, 1, cols)

    @staticmethod
    def identity(n):
        return _mat([[int(i == j) for j in range(n)] for i in range(n)], 1, n)

    @staticmethod
    def from_cols(cols, rows=None):
        """Build a matrix whose columns are the given vectors."""
        cols = list(cols)
        if rows is None:
            if not cols:
                raise ShapeError("need explicit row count for empty column list")
            rows = len(cols[0])
        if any(len(c) != rows for c in cols):
            raise ShapeError("column length mismatch")
        return _transpose(Mat(cols, cols=rows))

    @property
    def entries(self):
        """The entries as a tuple of rows of Fractions, one Fraction built per
        distinct numerator and shared by every entry equal to it."""
        view = {x: Fraction(x, self.den) for x in set(chain.from_iterable(self.num))}
        return tuple(tuple(map(view.__getitem__, r)) for r in self.num)

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    def row(self, i):
        return _fracs(self.num[i], self.den)

    def col(self, j):
        if not 0 <= j < self.cols:
            raise IndexError("column index out of range")
        return _fracs([r[j] for r in self.num], self.den)

    def col_list(self):
        return list(_transpose(self).entries)

    def __eq__(self, other):
        return (isinstance(other, Mat)
                and (self.rows, self.cols, self.den, self.num)
                == (other.rows, other.cols, other.den, other.num))

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, self.num))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Mat[{self.rows}x{self.cols}: {body}]"

    def _combine(self, other, sign):
        den, (f, g) = _common_den((self, other))
        g *= sign
        return _reduced([[f * x + g * y for x, y in zip(a, b)]
                         for a, b in zip(self.num, other.num)], den, self.cols)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("addition shape mismatch")
        return self._combine(other, 1)

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("subtraction shape mismatch")
        return self._combine(other, -1)

    def __neg__(self):
        return _mat([[-x for x in r] for r in self.num], self.den, self.cols)

    def scale(self, c):
        c = frac(c)
        return _reduced([[c.numerator * x for x in r] for r in self.num],
                        self.den * c.denominator, self.cols)

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"product shape mismatch {self.cols} vs {other.rows}")
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Mat.zeros(self.rows, other.cols)
        b = other.num
        zero = (0,) * other.cols
        out = []
        for row in self.num:
            ks = list(compress(range(self.cols), row))
            if not ks:
                out.append(zero)
                continue
            k, *rest = ks
            a = row[k]
            acc = b[k] if a == 1 else [a * x for x in b[k]]
            for k in rest:
                a = row[k]
                acc = [y + a * x for y, x in zip(acc, b[k])]
            out.append(acc)
        return _reduced(out, self.den * other.den, other.cols)

    def apply(self, v):
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ShapeError("vector length mismatch")
        vn, d = _int_row(v)
        d *= self.den
        return tuple(Fraction(sum(map(mul, row, vn)), d) for row in self.num)

    def transpose(self):
        return _transpose(self)

    def is_zero(self):
        return not any(map(any, self.num))

    def power(self, k):
        if self.rows != self.cols:
            raise ShapeError("powers need a square matrix")
        if k < 0:
            raise ValueError("negative power")
        result = Mat.identity(self.rows)
        for _ in range(k):
            result = result * self
        return result


def hstack(mats):
    mats = list(mats)
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ShapeError("hstack row mismatch")
    den, lifts = _common_den(mats)
    return _mat([list(chain.from_iterable(_lift(m.num[i], f)
                                          for m, f in zip(mats, lifts)))
                 for i in range(rows)], den, sum(m.cols for m in mats))


def _col(v):
    """The vector v, a sequence of scalars, as a one-column matrix."""
    num, den = _int_row(v)
    return _mat([[x] for x in num], den, 1)


def _columns(rows, mats):
    """hstack(mats), or the rows x 0 matrix when there are none."""
    return hstack([Mat.zeros(rows, 0), *mats])


def vstack(mats):
    mats = list(mats)
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ShapeError("vstack column mismatch")
    den, lifts = _common_den(mats)
    return _mat([_lift(row, f) for m, f in zip(mats, lifts) for row in m.num],
                den, cols)


def block_diag(mats):
    mats = list(mats)
    total_c = sum(m.cols for m in mats)
    den, lifts = _common_den(mats)
    out = []
    c0 = 0
    for m, f in zip(mats, lifts):
        left, right = [0] * c0, [0] * (total_c - c0 - m.cols)
        out.extend(left + _lift(list(row), f) + right for row in m.num)
        c0 += m.cols
    return _mat(out, den, total_c)


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product, (a kron b)(v kron w) = a v kron b w, first factor major."""
    return _reduced([[x * y for x in ra for y in rb] for ra in a.num for rb in b.num],
                    a.den * b.den, a.cols * b.cols)


# -- fraction-free elimination --------------------------------------------------

def _eliminate(rows, n_cols):
    """Fraction-free Gauss-Jordan elimination on integer rows, in place.

    Returns the pivot columns.  Afterwards row r < len(pivots) is primitive,
    has its pivot in column pivots[r] and zeros in every other pivot column,
    and the remaining rows are zero; row r divided by its pivot entry is
    row r of the reduced row echelon form.  Each step clears a column by
    cross-multiplication, row_i * p - row_r * f with the common factor of
    p and f taken out, and then removes the row's content.  The pivot is
    the candidate entry of least absolute value, which keeps the integers
    small; the reduced echelon form does not depend on that choice.
    """
    for i, row in enumerate(rows):
        rows[i] = _primitive(row)
    n_rows = len(rows)
    pivots = []
    r = 0
    for c in range(n_cols):
        best = None
        for i in range(r, n_rows):
            x = rows[i][c]
            if x and (best is None or abs(x) < abs(rows[best][c])):
                best = i
                if x == 1 or x == -1:
                    break
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(n_rows):
            f = rows[i][c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                rows[i] = _primitive([a * x - b * y for x, y in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots


def _by_pivots(rows, pivots, n_cols, lo=0):
    """Mat of columns lo: of the eliminated rows, each divided by its pivot."""
    heads = [rows[r][p] for r, p in enumerate(pivots)]
    den = lcm(*heads)
    return _reduced([[x * (den // h) for x in rows[r][lo:]]
                     for r, h in enumerate(heads)], den, n_cols)


def rref(a: Mat):
    """Reduced row echelon form of a, plus its pivot column indices."""
    rows = [list(r) for r in a.num]
    pivots = _eliminate(rows, a.cols)
    red = _by_pivots(rows, pivots, a.cols)
    zero_rows = ((0,) * a.cols,) * (a.rows - len(pivots))
    return _mat(red.num + zero_rows, red.den, a.cols), pivots


def rank(a: Mat) -> int:
    return len(rref(a)[1])


def _pivots(echelon: Mat):
    return [next(j for j, x in enumerate(row) if x) for row in echelon.num]


def _span_test(echelon: Mat):
    """Membership in the row span of a reduced echelon Mat, for integer vectors.

    In reduced echelon form the combination is forced: its coefficients are
    the entries of v in the pivot columns.  The pivots and the columns are
    read once, for every vector the returned test is given.
    """
    if not echelon.rows:
        return lambda v: not any(v)
    pivots = _pivots(echelon)
    cols = list(zip(*echelon.num))
    den = echelon.den

    def inside(v):
        coeffs = [v[p] for p in pivots]
        return all(den * x == sum(map(mul, coeffs, col))
                   for x, col in zip(v, cols))
    return inside


def _image(op: Mat, v):
    """op applied to the integer vector v, up to the positive factor op.den."""
    return [sum(map(mul, row, v)) for row in op.num]


class Subspace:
    """Subspace of k^n held as a canonical reduced-echelon row basis.

    Canonicality makes equality of subspaces a plain comparison of basis
    matrices.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis: Mat):
        if basis.rows and basis.cols != ambient_dim:
            raise ShapeError("basis width does not match ambient dimension")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def from_vectors(ambient_dim, vectors):
        rows = [_int_row(v)[0] for v in vectors]
        if any(len(v) != ambient_dim for v in rows):
            raise ShapeError("vector length does not match ambient dimension")
        pivots = _eliminate(rows, ambient_dim)
        return Subspace(ambient_dim, _by_pivots(rows, pivots, ambient_dim))

    @staticmethod
    def zero(ambient_dim):
        return Subspace.from_vectors(ambient_dim, [])

    @staticmethod
    def full(ambient_dim):
        return Subspace(ambient_dim, Mat.identity(ambient_dim))

    @property
    def dim(self):
        return self.basis.rows

    def vectors(self):
        return list(self.basis.entries)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"

    def contains(self, v):
        """Exact membership test against the echelon basis."""
        v = _int_row(v)[0]
        if len(v) != self.ambient_dim:
            raise ShapeError("vector length mismatch")
        return _span_test(self.basis)(v)

    def contains_subspace(self, other):
        """Every basis vector of other lies in self: one membership test,
        fed the integer rows of other's basis, positive multiples of them."""
        if other.dim and other.ambient_dim != self.ambient_dim:
            raise ShapeError("vector length mismatch")
        return all(map(_span_test(self.basis), other.basis.num))

    def add(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimension mismatch")
        return Subspace.from_vectors(self.ambient_dim,
                                     self.vectors() + other.vectors())

    def intersect(self, other):
        """Intersection via the kernel of the stacked coordinate map."""
        if self.ambient_dim != other.ambient_dim:
            raise ShapeError("ambient dimension mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        # kernel rows are coefficient pairs (s, t) with sum s_i b_i = sum t_j c_j
        stacked = hstack([self.basis.transpose(), other.basis.transpose().scale(-1)])
        ker = kernel_basis(stacked)
        vecs = [self.basis.transpose().apply(w[: self.dim]) for w in ker.vectors()]
        return Subspace.from_vectors(self.ambient_dim, vecs)

    def coords(self, v):
        """Coordinates of v in the echelon basis; raises if v is outside."""
        sol = solve(self.basis.transpose(), v)
        if sol is None:
            raise ValueError("vector not in subspace")
        return sol


def _null_rows(echelon: Mat, pivots, n):
    """den (e_f - sum_r E[r, f] e_{p_r}) for each non-pivot column f, where
    E = num / den is a reduced echelon form on n columns with pivots p_r."""
    rows = []
    for f in (c for c in range(n) if c not in pivots):
        row = [0] * n
        row[f] = echelon.den
        for r, p in enumerate(pivots):
            row[p] = -echelon.num[r][f]
        rows.append(row)
    return rows


def kernel_basis(a: Mat) -> Subspace:
    """Canonical basis of the null space {v : a v = 0}."""
    red, pivots = rref(a)
    return Subspace.from_vectors(a.cols, _null_rows(red, pivots, a.cols))


def column_space(a: Mat) -> Subspace:
    return Subspace.from_vectors(a.rows, list(zip(*a.num)))


def span_closure(seed: Subspace, operators) -> Subspace:
    """Smallest subspace containing seed and invariant under every operator.

    Each round applies the operators only to the basis rows that are new
    since the previous round, which yields the same sequence of subspaces
    as applying them to the whole basis; saturation terminates in at most
    ambient_dim rounds since the dimension strictly grows until the
    fixpoint.  Vectors are handled as integer rows (positive multiples of
    the rational ones), which span the same spaces.
    """
    operators = list(operators)
    n = seed.ambient_dim
    for op in operators:
        if op.rows != n or op.cols != n:
            raise ShapeError("operator does not act on the ambient space")
    current = seed
    fresh = current.basis.num
    while True:
        images = [_image(op, v) for op in operators for v in fresh]
        nxt = Subspace.from_vectors(n, list(current.basis.num) + images)
        if nxt.dim == current.dim:
            return nxt
        # rows of nxt with a new pivot complete a basis of current to nxt
        old = set(_pivots(current.basis))
        fresh = [row for row, p in zip(nxt.basis.num, _pivots(nxt.basis))
                 if p not in old]
        current = nxt


def intertwining_witness(f: Mat, src, dst):
    """Index of the first i with f src[i] != dst[i] f, or None; the scan stops
    there.  Raises ShapeError when the two families differ in length."""
    if len(src) != len(dst):
        raise ShapeError("operator families differ in length")
    return next((i for i, (a, b) in enumerate(zip(src, dst)) if f * a != b * f), None)


def first_unstable(sub: Subspace, operators):
    """Index of the first operator mapping some vector of sub outside it, or None.

    The `echelon_coords` read of [op_1 incl | ... | op_k incl], incl =
    sub.basis^T: column j of block k is op_k applied to basis vector j, and
    it lies in sub exactly when the verifying product reproduces it.  The
    first column that the product misses lies in the block of the first
    operator that moves sub.
    """
    operators = list(operators)
    if not operators or not sub.dim:
        return None
    incl = sub.basis.transpose()
    _, lhs, rhs = _echelon_read(sub, hstack([op * incl for op in operators]))
    return None if lhs == rhs else first_nonzero_col(lhs - rhs) // sub.dim


def quotient_map(ambient_dim, w: Subspace):
    """Surjection q: k^n -> k^(n - dim w) with kernel exactly w.

    Returns the matrix together with the quotient dimension.  The quotient
    coordinates are the non-pivot coordinates of w's echelon basis, so q
    restricted to that coordinate subspace is the identity.
    """
    if w.ambient_dim != ambient_dim:
        raise ShapeError("ambient dimension mismatch")
    rows = _null_rows(w.basis, _pivots(w.basis), ambient_dim)
    return _reduced(rows, w.basis.den, ambient_dim), len(rows)


def quotient_section(ambient_dim, w: Subspace) -> Mat:
    """Right inverse of quotient_map(ambient_dim, w)."""
    pivots = _pivots(w.basis)
    others = [c for c in range(ambient_dim) if c not in pivots]
    return Mat.from_cols([unit_vec(ambient_dim, c) for c in others], ambient_dim)


def solve(a: Mat, b):
    """One solution x of a x = b, or None if the system is inconsistent."""
    if len(b) != a.rows:
        raise ShapeError("right hand side length mismatch")
    x = solve_matrix(a, Mat([[v] for v in b], cols=1))
    return None if x is None else x.col(0)


def solve_matrix(a: Mat, b: Mat):
    """One solution X of a X = b, or None if some column is inconsistent.

    One elimination of the integer block den * [a | b]: the system is
    inconsistent exactly when a pivot falls in b's columns, and otherwise
    row p of X is the b part of the echelon row with pivot p (free
    variables are zero).
    """
    if a.rows != b.rows:
        raise ShapeError("row count mismatch")
    _, (fa, fb) = _common_den((a, b))
    rows = [_lift(list(r), fa) + _lift(list(s), fb) for r, s in zip(a.num, b.num)]
    pivots = _eliminate(rows, a.cols + b.cols)
    if pivots and pivots[-1] >= a.cols:
        return None
    sol = _by_pivots(rows, pivots, b.cols, a.cols)
    x = [(0,) * b.cols] * a.cols
    for p, row in zip(pivots, sol.num):
        x[p] = row
    return _mat(x, sol.den, b.cols)


def inverse(a: Mat) -> Mat:
    if a.rows != a.cols:
        raise ShapeError("only square matrices invert")
    x = solve_matrix(a, Mat.identity(a.rows))
    if x is None:
        raise ValueError("matrix is singular")
    return x


def _mat_sum(terms, rows, cols):
    """sum c m over (m, c) pairs, c an int or a Fraction; zeros(rows, cols) if
    there are none, and a single term with c == 1 is returned as it is.

    Every c m is lifted to the lcm D of the denominators c.den m.den: its
    numerators times D / (c.den m.den) c.num.  The lifted rows, flattened,
    are accumulated in one pass, and the sum is reduced once.  Raises
    ShapeError when two terms differ in shape.
    """
    terms = list(terms)
    if not terms:
        return Mat.zeros(rows, cols)
    m0 = terms[0][0]
    if len(terms) == 1 and terms[0][1] == 1:
        return m0
    if any((m.rows, m.cols) != (m0.rows, m0.cols) for m, _ in terms):
        raise ShapeError("addition shape mismatch")
    dens = [m.den * c.denominator for m, c in terms]
    den = lcm(*dens)
    acc = None
    for (m, c), d in zip(terms, dens):
        f = den // d * c.numerator
        flat = chain.from_iterable(m.num)
        acc = ([f * x for x in flat] if acc is None
               else [y + f * x for y, x in zip(acc, flat)])
    n = m0.cols
    return _reduced([acc[i * n:(i + 1) * n] for i in range(m0.rows)], den, n)


def first_nonzero_col(m: Mat):
    """Index of the first column of m with a nonzero entry, or None."""
    return next((j for j, col in enumerate(zip(*m.num)) if any(col)), None)


def nonzero_blocks(m: Mat, size):
    """The (r, c) whose size x size block of m, at rows r size.. and columns
    c size.., has a nonzero entry."""
    return {(r // size, c // size) for r, row in enumerate(m.num)
            for c in compress(range(m.cols), row)}


def split_blocks(m: Mat, heights, widths):
    """m cut into a grid: block rows of the given heights, columns of the widths.

    Returns a tuple of block rows, top to bottom, each a tuple of canonical
    Mats, left to right.
    """
    if sum(heights) != m.rows or sum(widths) != m.cols:
        raise ShapeError("block sizes do not add up to the matrix shape")
    grid = []
    r0 = 0
    for h in heights:
        rows = m.num[r0:r0 + h]
        line = []
        c0 = 0
        for w in widths:
            line.append(_reduced([row[c0:c0 + w] for row in rows], m.den, w))
            c0 += w
        grid.append(tuple(line))
        r0 += h
    return tuple(grid)


def echelon_coords(sub: Subspace, blocks):
    """The X_j with sub.basis^T X_j = B_j, one per block B_j, or None if a
    column of some B_j leaves sub.

    Column p_r of the reduced echelon basis is the r-th unit vector, p_r its
    r-th pivot, so the only candidate for [X_1 | ... | X_k] has row r equal
    to row p_r of B = [B_1 | ... | B_k].  Row p_r of basis^T X is row r of
    X, which is row p_r of B by construction, so one product checks the
    candidate against the other rows of B only.  It is cut back into one
    canonical block per B_j.
    """
    blocks = list(blocks)
    x, lhs, rhs = _echelon_read(sub, hstack(blocks))
    if lhs != rhs:
        return None
    return split_blocks(x, [sub.dim], [m.cols for m in blocks])[0]


def _echelon_read(sub: Subspace, b: Mat):
    """(X, lhs, rhs): X the rows of b at the pivots of sub's echelon basis,
    lhs the other rows of basis^T X and rhs the other rows of b; each
    column of b lies in sub exactly when it is the same in lhs and rhs."""
    if b.rows != sub.ambient_dim:
        raise ShapeError("row count mismatch")
    pivots = _pivots(sub.basis)
    x = _reduced([b.num[p] for p in pivots], b.den, b.cols)
    others = [c for c in range(b.rows) if c not in pivots]
    basis_rows = _reduced([[row[c] for row in sub.basis.num] for c in others],
                          sub.basis.den, sub.dim)
    return x, basis_rows * x, _reduced([b.num[c] for c in others], b.den, b.cols)


def restrict_operators(ops, sub: Subspace):
    """Matrices of each op on the invariant subspace sub, in its echelon basis.

    The `echelon_coords` of [op_1 incl | ... | op_k incl], incl = sub.basis^T;
    block j is the matrix of op_j.  Raises if the subspace is not invariant
    under some op.
    """
    ops = list(ops)
    if not ops:
        return ()
    incl = sub.basis.transpose()
    blocks = echelon_coords(sub, [op * incl for op in ops])
    if blocks is None:
        raise ValueError("subspace is not invariant under the operator")
    return blocks


def reshape(m: Mat, rows, cols) -> Mat:
    """The entries of m, read row-major, refilled into a rows x cols matrix;
    numerators and denominator carry over, so the result stays canonical."""
    if m.rows * m.cols != rows * cols:
        raise ShapeError("entry count does not match the new shape")
    flat = list(chain.from_iterable(m.num))
    return _mat([flat[i * cols:(i + 1) * cols] for i in range(rows)], m.den, cols)
