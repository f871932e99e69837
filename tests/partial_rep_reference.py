"""Reference evaluator for the differential tests of the PR1-PR5 checker.

This is the per-pair evaluator that the stacked-block checker in
`hopf_partial.partial` replaced.  It builds three deviation tables
D(x, y) = pi(x) pi(y) - pi(xy), over basis vectors and over the antipode
columns, pair by pair through Fraction coefficient vectors, and evaluates
each identity one n x n block per basis pair.  It reads the dense
structure arrays, not the sparse tables.  It is slow and obviously
right, so `tests/test_partial_rep_differential.py` requires both to agree.
"""

from hopf_partial.linalg import Mat
from hopf_partial.reports import Check


def pi_vec(m, coeffs):
    """pi of the Hopf element with the given coefficient vector."""
    out = Mat.zeros(m.dim, m.dim)
    for p, c in zip(m.pi, coeffs):
        if c:
            out = out + p.scale(c)
    return out


def el_mult(h, u, v):
    """Product of two coefficient vectors from the dense mult array."""
    out = [0] * h.dim
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            if a and b:
                for k, c in enumerate(h.mult[i][j]):
                    out[k] += a * b * c
    return out


def comult_sum(h, i, n, term):
    """sum c term(a, b) over the nonzero entries c of the dense comult[i]."""
    out = Mat.zeros(n, n)
    for a, row in enumerate(h.comult[i]):
        for b, c in enumerate(row):
            if c:
                out = out + term(a, b).scale(c)
    return out


def deviation_table(m, xs, ys):
    """D[x][y] = pi(x) pi(y) - pi(xy) for coefficient vectors x in xs, y in ys."""
    pi_xs = [pi_vec(m, x) for x in xs]
    pi_ys = [pi_vec(m, y) for y in ys]
    return [[px * py - pi_vec(m, el_mult(m.hopf, x, y)) for y, py in zip(ys, pi_ys)]
            for x, px in zip(xs, pi_xs)]


def basis_deviations(m):
    """pi(e_i) pi(e_j) - pi(e_i e_j) for all basis pairs, row-major."""
    basis = Mat.identity(m.hopf.dim).col_list()
    return [dev for row in deviation_table(m, basis, basis) for dev in row]


def is_algebra_map(m):
    if pi_vec(m, m.hopf.unit) != Mat.identity(m.dim):
        return False
    return all(dev.is_zero() for dev in basis_deviations(m))


def evaluate_partial_rep(m):
    """The PR1-PR5 Checks of m, in order, each witness the first failing pair."""
    h = m.hopf
    d = h.dim
    n = m.dim
    checks = [Check("PR1 unit", pi_vec(m, h.unit) == Mat.identity(n))]

    basis = Mat.identity(d).col_list()
    s_cols = h.antipode.col_list()
    pi_s = [pi_vec(m, s) for s in s_cols]
    dev = deviation_table(m, basis, basis)
    dev_sb = deviation_table(m, s_cols, basis)
    dev_bs = deviation_table(m, basis, s_cols)

    identities = (
        ("PR2", lambda i, j: comult_sum(h, j, n, lambda a, b: dev[i][a] * pi_s[b])),
        ("PR3", lambda i, j: comult_sum(h, i, n, lambda a, b: m.pi[a] * dev_sb[b][j])),
        ("PR4", lambda i, j: comult_sum(h, j, n, lambda a, b: dev_bs[i][a] * m.pi[b])),
        ("PR5", lambda i, j: comult_sum(h, i, n, lambda a, b: pi_s[a] * dev[b][j])),
    )
    for name, deviation in identities:
        w = next(((i, j) for i in range(d) for j in range(d)
                  if not deviation(i, j).is_zero()), None)
        checks.append(Check(name, w is None, w))
    return tuple(checks)
