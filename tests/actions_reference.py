"""Reference for the differential tests of the matrix identities in `actions`.

These are the element-wise formulas that the regular representation and
the diagonal action replaced: every product of two algebra elements is an
`alg_prod` of coefficient vectors on the dense ``alg_mult`` array, and
every Sweedler sum adds c times a vector term over Delta(e_i) = sum c
e_p (x) e_q.  Each function lays the vectors out as the columns of the
matrix that the library builds, in the same order, so that
`tests/test_actions_differential.py` can require equal matrices on both
sides of every identity, not just an equal verdict.
"""

from fractions import Fraction

from dense_structure import alg_prod, comult_pairs, unit_vec
from partial_rep_reference import pi_vec
from hopf_partial.dilation import standard_dilation
from hopf_partial.linalg import Mat

ZERO = Fraction(0)


def comult_vec_sum(h, i, dim, term):
    """The dim-vector sum of c term(p, q) over Delta(e_i) = sum c e_p (x) e_q."""
    out = [ZERO] * dim
    for p, q, c in comult_pairs(h.comult, i):
        for k, x in enumerate(term(p, q)):
            out[k] += c * x
    return tuple(out)


def tensor_vec(u, v):
    """Coordinates of u (x) v, first factor major."""
    return tuple(a * c for a in u for c in v)


def prod(alg, u, v):
    return alg_prod(alg.alg_mult, u, v)


def pa2_sides(b):
    """Per e_i, columns (a, c): e_i . (e_a e_c) and (e_i(1) . e_a)(e_i(2) . e_c)."""
    h, m = b.hopf, b.dim
    cols = [mat.col_list() for mat in b.action]
    pairs = [(a, c) for a in range(m) for c in range(m)]
    return [(Mat.from_cols([b.action[i].apply(b.alg_mult[a][c]) for a, c in pairs], m),
             Mat.from_cols([comult_vec_sum(h, i, m, lambda p, q: prod(
                 b, cols[p][a], cols[q][c])) for a, c in pairs], m))
            for i in range(h.dim)]


def pa2_witness(b):
    """First (i, a, c) where e_i . (e_a e_c) != (e_i(1) . e_a)(e_i(2) . e_c)."""
    h, m = b.hopf, b.dim
    cols = [mat.col_list() for mat in b.action]
    return next(((i, a, c) for i in range(h.dim) for a in range(m) for c in range(m)
                 if b.action[i].apply(b.alg_mult[a][c]) != comult_vec_sum(
                     h, i, m, lambda p, q: prod(b, cols[p][a], cols[q][c]))),
                None)


def _pa3_term(b, k, j, primed):
    """term(p, q) of PA3 (PA3') at (e_k, b_j), with pi(e_p e_k) rebuilt per term."""
    h, mod = b.hopf, b.as_module()

    def term(p, q):
        if primed:
            return prod(b, pi_vec(mod, h.mult[p][k]).col(j),
                        b.action[q].apply(b.alg_unit))
        return prod(b, b.action[p].apply(b.alg_unit),
                    pi_vec(mod, h.mult[q][k]).col(j))
    return term


def pa3_sides(b, primed):
    """Per e_i, columns (k, j): e_i . (e_k . b_j) and the PA3 (PA3') sum."""
    h, m = b.hopf, b.dim
    pairs = [(k, j) for k in range(h.dim) for j in range(m)]
    return [(Mat.from_cols([b.action[i].apply(b.action[k].col(j)) for k, j in pairs], m),
             Mat.from_cols([comult_vec_sum(h, i, m, _pa3_term(b, k, j, primed))
                            for k, j in pairs], m))
            for i in range(h.dim)]


def pa3_witness(b, primed):
    """First (i, k, j) breaking PA3 (PA3'), by definition."""
    h = b.hopf
    for i in range(h.dim):
        for k in range(h.dim):
            for j in range(b.dim):
                if b.action[i].apply(b.action[k].col(j)) != comult_vec_sum(
                        h, i, b.dim, _pa3_term(b, k, j, primed)):
                    return i, k, j
    return None


def convolution(b, u, v):
    """(f * g)(e_k) = sum f(e_k(1)) g(e_k(2)) on B^d coordinates."""
    h, m = b.hopf, b.dim
    return tuple(x for k in range(h.dim)
                 for x in comult_vec_sum(h, k, m, lambda p, q: prod(
                     b, u[p * m:(p + 1) * m], v[q * m:(q + 1) * m])))


def convolution_op(b, f):
    """The matrix of g -> f * g, column by column."""
    n = b.dim * b.hopf.dim
    return Mat.from_cols([convolution(b, f, unit_vec(n, j)) for j in range(n)], n)


def smash_projector(b):
    """The idempotent b (x) h -> b (h_(1) . 1) (x) h_(2) on B (x) H."""
    h = b.hopf
    m, d = b.dim, h.dim
    cols = [comult_vec_sum(h, hi, m * d, lambda p, q: tensor_vec(
                prod(b, unit_vec(m, bi), b.action[p].apply(b.alg_unit)),
                unit_vec(d, q)))
            for bi in range(m) for hi in range(d)]
    return Mat.from_cols(cols, m * d)


def phi_expressions(b, gb, phi):
    """The three expressions for Phi(e_a # e_h), columns (a, h)."""
    h = b.hopf
    m, d = b.dim, h.dim
    dim_bt = gb.dim * d
    phi_unit = phi.apply(b.alg_unit)

    def phi_twisted(a, p):
        """phi(e_a (e_p . 1)) in Bbar."""
        return phi.apply(prod(b, unit_vec(m, a), b.action[p].apply(b.alg_unit)))

    def e1(a, hi):
        return comult_vec_sum(h, hi, dim_bt, lambda p, q: tensor_vec(
            phi_twisted(a, p), unit_vec(d, q)))

    def e2(a, hi):
        return comult_vec_sum(h, hi, dim_bt, lambda p, q: tensor_vec(
            prod(gb, phi.col(a), gb.action[p].apply(phi_unit)), unit_vec(d, q)))

    def e3(a, hi):
        return comult_vec_sum(h, hi, dim_bt, lambda p, q: comult_vec_sum(
            h, q, dim_bt, lambda p2, q2: tensor_vec(
                prod(gb, phi_twisted(a, p), gb.action[p2].apply(phi_unit)),
                unit_vec(d, q2))))

    return tuple(Mat.from_cols([e(a, hi) for a in range(m) for hi in range(d)], dim_bt)
                 for e in (e1, e2, e3))


def evaluated_sides(b, gb, phi):
    """Per e_h, columns a: the ambient form of sum phi(e_a (e_p . 1))
    (e_q . phi(1)) and the blocks sum (e_r . e_a) pi(e_s e_h)(1)."""
    h, m = b.hopf, b.dim
    mod = b.as_module()
    incl = standard_dilation(mod).ambient_inclusion
    phi_unit = phi.apply(b.alg_unit)
    sides = []
    for hi in range(h.dim):
        lhs, rhs = [], []
        for a in range(m):
            w = comult_vec_sum(h, hi, gb.dim, lambda p, q: prod(
                gb, phi.apply(prod(b, unit_vec(m, a), b.action[p].apply(b.alg_unit))),
                gb.action[q].apply(phi_unit)))
            lhs.append(incl.apply(w))
            rhs.append(tuple(x for k in range(h.dim)
                             for x in comult_vec_sum(h, k, m, lambda r, s: prod(
                                 b, b.action[r].col(a),
                                 pi_vec(mod, h.mult[s][hi]).apply(b.alg_unit)))))
        rows = m * h.dim
        sides.append((Mat.from_cols(lhs, rows), Mat.from_cols(rhs, rows)))
    return sides


def idempotency_sides(b, gb, phi):
    """Per e_i, columns j: sum (e_p . phi(e_j))(e_q . phi(1)) and e_i . phi(e_j)."""
    h = b.hopf
    phi_unit = phi.apply(b.alg_unit)
    return [(Mat.from_cols([comult_vec_sum(h, i, gb.dim, lambda p, q: prod(
                 gb, gb.action[p].apply(phi.col(j)), gb.action[q].apply(phi_unit)))
                 for j in range(b.dim)], gb.dim),
             Mat.from_cols([gb.action[i].apply(phi.col(j)) for j in range(b.dim)],
                           gb.dim))
            for i in range(h.dim)]


def q_generators(gb, phi):
    """The vectors sum (e_p . phi(e_v)) (x) e_q over Delta(e_i), i major."""
    h = gb.hopf
    d = h.dim
    return Mat.from_cols([comult_vec_sum(h, i, gb.dim * d, lambda p, q: tensor_vec(
                              gb.action[p].apply(phi.col(v)), unit_vec(d, q)))
                          for i in range(d) for v in range(phi.cols)], gb.dim * d)
