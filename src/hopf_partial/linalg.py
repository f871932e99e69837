"""Exact dense linear algebra over the rationals.

Every other module is built on top of the primitives here: canonical
reduced echelon forms, kernels, images, quotients, Kronecker products and
span-saturation fixpoints.  Scalars are `fractions.Fraction`, so all
results are exact; there is no floating point anywhere in the package.

Conventions, fixed once for the whole package:

* a matrix represents a linear map in the column convention: column j is
  the image of the j-th basis vector, and composition "apply A then B" is
  the product B*A;
* vectors are tuples of Fractions;
* tensor/Kronecker bases are ordered first-factor-major, i.e. the pair
  (i, k) of factor indices becomes the single index i*dim2 + k.
"""

from fractions import Fraction


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


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(u, c):
    c = frac(c)
    return tuple(c * a for a in u)


def is_zero_vec(u):
    return all(a == 0 for a in u)


def unit_vec(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


class Mat:
    """Immutable dense matrix of Fractions.

    Zero-row matrices keep an explicit column count so that maps like the
    quotient by a full subspace still compose correctly.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=None):
        body = tuple(tuple(frac(x) for x in row) for row in entries)
        if body and any(len(r) != len(body[0]) for r in body):
            raise ShapeError("ragged rows")
        ncols = len(body[0]) if body else (cols if cols is not None else 0)
        object.__setattr__(self, "entries", body)
        object.__setattr__(self, "rows", len(body))
        object.__setattr__(self, "cols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @staticmethod
    def zeros(rows, cols):
        return Mat([[ZERO] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(n):
        return Mat([[ONE if i == j else ZERO for j in range(n)] for i in range(n)],
                   cols=n)

    @staticmethod
    def from_cols(cols, rows=None):
        """Build a matrix whose columns are the given vectors."""
        cols = [tuple(frac(x) for x in c) for c in cols]
        if rows is None:
            if not cols:
                raise ShapeError("need explicit row count for empty column list")
            rows = len(cols[0])
        if any(len(c) != rows for c in cols):
            raise ShapeError("column length mismatch")
        return Mat([[c[i] for c in cols] for i in range(rows)], cols=len(cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        if not 0 <= j < self.cols:
            raise IndexError("column index out of range")
        return tuple(r[j] for r in self.entries)

    def col_list(self):
        return [self.col(j) for j in range(self.cols)]

    def __eq__(self, other):
        return (isinstance(other, Mat)
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Mat[{self.rows}x{self.cols}: {body}]"

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("addition shape mismatch")
        return Mat([vec_add(a, b) for a, b in zip(self.entries, other.entries)],
                   cols=self.cols)

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("subtraction shape mismatch")
        return Mat([vec_sub(a, b) for a, b in zip(self.entries, other.entries)],
                   cols=self.cols)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = frac(c)
        return Mat([[c * x for x in row] for row in self.entries], cols=self.cols)

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"product shape mismatch {self.cols} vs {other.rows}")
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Mat.zeros(self.rows, other.cols)
        bt = list(zip(*other.entries))
        return Mat([[sum(a * b for a, b in zip(row, col)) for col in bt]
                    for row in self.entries], cols=other.cols)

    def apply(self, v):
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ShapeError("vector length mismatch")
        return tuple(sum((a * b for a, b in zip(row, v)), ZERO)
                     for row in self.entries)

    def transpose(self):
        return Mat([self.col(j) for j in range(self.cols)], cols=self.rows)

    def is_zero(self):
        return all(x == 0 for row in self.entries for x in row)

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
    total = sum(m.cols for m in mats)
    return Mat([sum((list(m.row(i)) for m in mats), []) for i in range(rows)],
               cols=total)


def vstack(mats):
    mats = list(mats)
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ShapeError("vstack column mismatch")
    return Mat([row for m in mats for row in m.entries], cols=cols)


def block_diag(mats):
    mats = list(mats)
    total_r = sum(m.rows for m in mats)
    total_c = sum(m.cols for m in mats)
    out = [[ZERO] * total_c for _ in range(total_r)]
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out[r0 + i][c0 + j] = m[i, j]
        r0 += m.rows
        c0 += m.cols
    return Mat(out, cols=total_c)


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product, (a kron b)(v kron w) = a v kron b w, first factor major."""
    out = [[ZERO] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            aij = a[i, j]
            if aij == 0:
                continue
            for k in range(b.rows):
                for l in range(b.cols):
                    out[i * b.rows + k][j * b.cols + l] = aij * b[k, l]
    return Mat(out, cols=a.cols * b.cols)


def _rref(rows):
    """In-place reduced row echelon form; returns pivot column indices."""
    if not rows:
        return []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots


def rref(a: Mat):
    """Reduced row echelon form of a, plus its pivot column indices."""
    rows = [list(r) for r in a.entries]
    pivots = _rref(rows)
    return Mat(rows, cols=a.cols), pivots


def rank(a: Mat) -> int:
    return len(rref(a)[1])


def pivot_columns(a: Mat):
    """Indices of a maximal independent set of columns (leftmost choice)."""
    return rref(a)[1]


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
        vectors = [tuple(frac(x) for x in v) for v in vectors]
        if any(len(v) != ambient_dim for v in vectors):
            raise ShapeError("vector length does not match ambient dimension")
        rows = [list(v) for v in vectors if not is_zero_vec(v)]
        pivots = _rref(rows)
        return Subspace(ambient_dim, Mat(rows[: len(pivots)], cols=ambient_dim))

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
        """Exact membership test by reduction against the echelon basis."""
        v = [frac(x) for x in v]
        if len(v) != self.ambient_dim:
            raise ShapeError("vector length mismatch")
        for row in self.basis.entries:
            p = next(j for j, x in enumerate(row) if x != 0)
            if v[p] != 0:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        return all(x == 0 for x in v)

    def contains_subspace(self, other):
        return all(self.contains(v) for v in other.vectors())

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


def kernel_basis(a: Mat) -> Subspace:
    """Canonical basis of the null space {v : a v = 0}."""
    red, pivots = rref(a)
    n = a.cols
    free = [c for c in range(n) if c not in pivots]
    vecs = []
    for f in free:
        v = [ZERO] * n
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red[r, f]
        vecs.append(v)
    return Subspace.from_vectors(n, vecs)


def column_space(a: Mat) -> Subspace:
    return Subspace.from_vectors(a.rows, a.col_list())


def span_closure(seed: Subspace, operators) -> Subspace:
    """Smallest subspace containing seed and invariant under every operator.

    Saturation terminates in at most ambient_dim rounds since the dimension
    strictly grows until the fixpoint.
    """
    operators = list(operators)
    n = seed.ambient_dim
    for op in operators:
        if op.rows != n or op.cols != n:
            raise ShapeError("operator does not act on the ambient space")
    current = seed
    while True:
        new_vecs = current.vectors()
        for op in operators:
            for v in current.vectors():
                new_vecs.append(op.apply(v))
        nxt = Subspace.from_vectors(n, new_vecs)
        if nxt.dim == current.dim:
            return nxt
        current = nxt


def first_unstable(sub: Subspace, operators):
    """Index of the first operator mapping some vector of sub outside it, or None."""
    return next((k for k, op in enumerate(operators)
                 if not all(sub.contains(op.apply(v)) for v in sub.vectors())),
                None)


def quotient_map(ambient_dim, w: Subspace):
    """Surjection q: k^n -> k^(n - dim w) with kernel exactly w.

    Returns the matrix together with the quotient dimension.  The quotient
    coordinates are the non-pivot coordinates of w's echelon basis, so q
    restricted to that coordinate subspace is the identity.
    """
    if w.ambient_dim != ambient_dim:
        raise ShapeError("ambient dimension mismatch")
    pivots = [next(j for j, x in enumerate(row) if x != 0)
              for row in w.basis.entries]
    others = [c for c in range(ambient_dim) if c not in pivots]
    rows = []
    for c in others:
        row = [ZERO] * ambient_dim
        row[c] = ONE
        for r, p in enumerate(pivots):
            row[p] = -w.basis[r, c]
        rows.append(row)
    return Mat(rows, cols=ambient_dim), len(others)


def quotient_section(ambient_dim, w: Subspace) -> Mat:
    """Right inverse of quotient_map(ambient_dim, w)."""
    pivots = [next(j for j, x in enumerate(row) if x != 0)
              for row in w.basis.entries]
    others = [c for c in range(ambient_dim) if c not in pivots]
    return Mat.from_cols([unit_vec(ambient_dim, c) for c in others], ambient_dim)


def solve(a: Mat, b):
    """One solution x of a x = b, or None if the system is inconsistent."""
    if len(b) != a.rows:
        raise ShapeError("right hand side length mismatch")
    if a.rows == 0:
        return tuple([ZERO] * a.cols)
    rows = [list(r) + [frac(x)] for r, x in zip(a.entries, b)]
    pivots = _rref(rows)
    if a.cols in pivots:
        return None
    x = [ZERO] * a.cols
    for r, p in enumerate(pivots):
        x[p] = rows[r][a.cols]
    return tuple(x)


def solve_matrix(a: Mat, b: Mat):
    """One solution X of a X = b, or None."""
    if a.rows != b.rows:
        raise ShapeError("row count mismatch")
    cols = []
    for j in range(b.cols):
        x = solve(a, b.col(j))
        if x is None:
            return None
        cols.append(x)
    return Mat.from_cols(cols, a.cols) if cols else Mat.zeros(a.cols, 0)


def inverse(a: Mat) -> Mat:
    if a.rows != a.cols:
        raise ShapeError("only square matrices invert")
    rows = [list(r) + list(unit_vec(a.rows, i)) for i, r in enumerate(a.entries)]
    pivots = _rref(rows)
    if pivots != list(range(a.rows)):
        raise ValueError("matrix is singular")
    return Mat([row[a.rows:] for row in rows], cols=a.rows)


def restrict_operator(op: Mat, incl: Mat) -> Mat:
    """Matrix of op on the invariant subspace spanned by the columns of incl.

    Raises if the subspace is not actually invariant.
    """
    image = op * incl
    r = solve_matrix(incl, image)
    if r is None:
        raise ValueError("subspace is not invariant under the operator")
    return r


def mat_to_vec(m: Mat):
    """Row-major flattening of a matrix into a single vector."""
    return tuple(x for row in m.entries for x in row)


def vec_to_mat(v, rows, cols):
    if len(v) != rows * cols:
        raise ShapeError("vector length does not factor")
    return Mat([v[i * cols:(i + 1) * cols] for i in range(rows)], cols=cols)


def left_mult_operator(a: Mat):
    """Operator X -> a X on row-major vectorized square matrices."""
    return kron(a, Mat.identity(a.cols))


def right_mult_operator(a: Mat):
    """Operator X -> X a on row-major vectorized square matrices."""
    return kron(Mat.identity(a.rows), a.transpose())
