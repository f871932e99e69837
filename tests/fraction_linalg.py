"""Reference backend for the differential tests of `hopf_partial.linalg`.

This is the straightforward `fractions.Fraction` implementation that the
integer numerator/denominator core replaced: every matrix is a tuple of
Fraction rows, elimination divides by the pivot at each step, and the span
closure re-applies every operator to the whole basis each round.  It is
slow and obviously right, so `tests/test_linalg_differential.py` requires
both backends to return equal results.
"""

from fractions import Fraction

from hopf_partial.linalg import ONE, ZERO, ShapeError, frac, unit_vec


class Mat:
    """Immutable dense matrix of Fractions."""

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
    def from_cols(cols, rows):
        cols = [tuple(frac(x) for x in c) for c in cols]
        return Mat([[c[i] for c in cols] for i in range(rows)], cols=len(cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def col_list(self):
        return [self.col(j) for j in range(self.cols)]

    def __eq__(self, other):
        return (isinstance(other, Mat)
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("addition shape mismatch")
        return Mat([[a + b for a, b in zip(r, s)]
                    for r, s in zip(self.entries, other.entries)], cols=self.cols)

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("subtraction shape mismatch")
        return Mat([[a - b for a, b in zip(r, s)]
                    for r, s in zip(self.entries, other.entries)], cols=self.cols)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = frac(c)
        return Mat([[c * x for x in row] for row in self.entries], cols=self.cols)

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ShapeError(f"product shape mismatch {self.cols} vs {other.rows}")
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Mat.zeros(self.rows, other.cols)
        bt = list(zip(*other.entries))
        return Mat([[sum(a * b for a, b in zip(row, col)) for col in bt]
                    for row in self.entries], cols=other.cols)

    def apply(self, v):
        if len(v) != self.cols:
            raise ShapeError("vector length mismatch")
        return tuple(sum((a * b for a, b in zip(row, v)), ZERO)
                     for row in self.entries)

    def transpose(self):
        return Mat([self.col(j) for j in range(self.cols)], cols=self.rows)

    def is_zero(self):
        return all(x == 0 for row in self.entries for x in row)


def hstack(mats):
    mats = list(mats)
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ShapeError("hstack row mismatch")
    total = sum(m.cols for m in mats)
    return Mat([sum((list(m.entries[i]) for m in mats), []) for i in range(rows)],
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


def kron(a, b):
    out = [[ZERO] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            for k in range(b.rows):
                for l in range(b.cols):
                    out[i * b.rows + k][j * b.cols + l] = a[i, j] * b[k, l]
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


def rref(a):
    rows = [list(r) for r in a.entries]
    pivots = _rref(rows)
    return Mat(rows, cols=a.cols), pivots


def rank(a):
    return len(rref(a)[1])


class Subspace:
    """Subspace of k^n held as a canonical reduced-echelon row basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    @staticmethod
    def from_vectors(ambient_dim, vectors):
        vectors = [tuple(frac(x) for x in v) for v in vectors]
        if any(len(v) != ambient_dim for v in vectors):
            raise ShapeError("vector length does not match ambient dimension")
        rows = [list(v) for v in vectors if any(x != 0 for x in v)]
        pivots = _rref(rows)
        return Subspace(ambient_dim, Mat(rows[: len(pivots)], cols=ambient_dim))

    @staticmethod
    def zero(ambient_dim):
        return Subspace.from_vectors(ambient_dim, [])

    @property
    def dim(self):
        return self.basis.rows

    def vectors(self):
        return list(self.basis.entries)

    def contains(self, v):
        v = [frac(x) for x in v]
        if len(v) != self.ambient_dim:
            raise ShapeError("vector length mismatch")
        for row in self.basis.entries:
            p = next(j for j, x in enumerate(row) if x != 0)
            if v[p] != 0:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        return all(x == 0 for x in v)

    def intersect(self, other):
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        stacked = hstack([self.basis.transpose(), other.basis.transpose().scale(-1)])
        ker = kernel_basis(stacked)
        vecs = [self.basis.transpose().apply(w[: self.dim]) for w in ker.vectors()]
        return Subspace.from_vectors(self.ambient_dim, vecs)

    def coords(self, v):
        sol = solve(self.basis.transpose(), v)
        if sol is None:
            raise ValueError("vector not in subspace")
        return sol


def kernel_basis(a):
    red, pivots = rref(a)
    n = a.cols
    vecs = []
    for f in (c for c in range(n) if c not in pivots):
        v = [ZERO] * n
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red[r, f]
        vecs.append(v)
    return Subspace.from_vectors(n, vecs)


def column_space(a):
    return Subspace.from_vectors(a.rows, a.col_list())


def span_closure(seed, operators):
    n = seed.ambient_dim
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


def quotient_map(ambient_dim, w):
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


def solve(a, b):
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


def solve_matrix(a, b):
    if a.rows != b.rows:
        raise ShapeError("row count mismatch")
    cols = []
    for j in range(b.cols):
        x = solve(a, b.col(j))
        if x is None:
            return None
        cols.append(x)
    return Mat.from_cols(cols, a.cols) if cols else Mat.zeros(a.cols, 0)


def inverse(a):
    if a.rows != a.cols:
        raise ShapeError("only square matrices invert")
    rows = [list(r) + list(unit_vec(a.rows, i)) for i, r in enumerate(a.entries)]
    pivots = _rref(rows)
    if pivots != list(range(a.rows)):
        raise ValueError("matrix is singular")
    return Mat([row[a.rows:] for row in rows], cols=a.rows)
