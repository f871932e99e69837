"""Small exact matrix helpers, independent of the library's linalg.

The benchmark builds its inputs and checks the library's outputs with
these, so a defect in ``hopf_partial.linalg`` cannot hide itself.
Matrices are lists of rows of Fractions.
"""

from fractions import Fraction


def rows_of(m):
    """Rows of a library ``Mat`` as lists of Fractions."""
    return [[Fraction(x) for x in row] for row in m.entries]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mul(a, b):
    if not a or not b:
        return [[Fraction(0)] * (len(b[0]) if b else 0) for _ in a]
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt]
            for row in a]


def rank(a):
    rows = [list(r) for r in a]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def inverse(a):
    """Gauss-Jordan inverse of a square matrix known to be invertible."""
    n = len(a)
    aug = [list(row) + ident for row, ident in zip(a, identity(n))]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [inv * x for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]
