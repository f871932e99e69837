"""The per-vector, per-operator and per-entry forms of six kernels, kept as oracles.

`linalg.first_unstable` reads the echelon coordinates of
[op_1 incl | ... | op_k incl] and checks them with one product;
`hopf._unit_witness` forms [L_0 u | ... | L_{n-1} u] with one product;
`linalg._mat_sum` accumulates one integer pass over a common
denominator; `Mat.entries` and `Mat.col_list` build one `Fraction` per
distinct numerator; `globalize` checks PA2 on Bbar for the algebra
generators of H only; and `dilation._factor_through` reads the rank of
dec from the elimination of its solve.  These are the forms they
replaced: a membership test per image vector, a product per operator,
chained `scale` and `+`, a `Fraction` per entry, PA2 per basis element,
and a `rank` call before the solve.
"""

from fractions import Fraction

from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial.linalg import Mat, _columns, first_nonzero_col, vstack
from hopf_partial.reports import ValidationError


def first_unstable(sub, operators):
    """Index of the first operator mapping some vector of sub outside it, or None."""
    inside = la._span_test(sub.basis)
    return next((k for k, op in enumerate(operators)
                 if not all(inside(la._image(op, v)) for v in sub.basis.num)),
                None)


def unit_witness(left, unit):
    """The first nonzero column of [L(u) - I ; [L_0 u | ... | L_{n-1} u] - I]."""
    ident = Mat.identity(unit.rows)
    by_unit = _columns(unit.rows, [a * unit for a in left])
    return first_nonzero_col(vstack([hp.mult_by(left, unit)[0] - ident, by_unit - ident]))


def mat_sum(terms, rows, cols):
    """sum c m over (m, c) pairs; unscaled when c == 1, zeros(rows, cols) if none."""
    mats = [m if c == 1 else m.scale(c) for m, c in terms]
    return sum(mats[1:], mats[0]) if mats else Mat.zeros(rows, cols)


def _fracs(row, den):
    if den == 1:
        return tuple(map(Fraction, row))
    return tuple(Fraction(x, den) for x in row)


def entries(m):
    """The entries of m, one Fraction built per entry."""
    return tuple(_fracs(r, m.den) for r in m.num)


def col_list(m):
    return [_fracs([r[j] for r in m.num], m.den) for j in range(m.cols)]


def contains_subspace(big, small):
    """Every vector of small, as Fractions, in big, one span test per vector."""
    return all(big.contains(v) for v in small.vectors())


def pa2_sides(b):
    """Per basis element e_i, the two m x m^2 sides of PA2."""
    h, m, pi, mu = b.hopf, b.dim, b.action, _columns(b.dim, b.left)
    moved = [hp.mult_by(b.left, a) for a in pi]
    return [(a * mu, _columns(m, [hp.comult_sum(h, i, lambda p, q: moved[p][k] * pi[q],
                                                m, m) for k in range(m)]))
            for i, a in enumerate(pi)]


def pa2_holds(b):
    """PA2 on every basis element, the "action by algebra maps" of globalize."""
    return all(lhs == rhs for lhs, rhs in pa2_sides(b))


def factor_through(dec, target):
    """The unique F with F dec = target: rank(dec) first, then the solve."""
    if la.rank(dec) != dec.rows:
        raise ValidationError("decomposition map is not surjective")
    ft = la.solve_matrix(dec.transpose(), target.transpose())
    if ft is None:
        raise ValidationError("map is not well defined: kernel containment fails")
    return ft.transpose()
