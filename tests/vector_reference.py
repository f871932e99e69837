"""Algebra elements as tuples of Fractions: the per-element forms, kept as oracles.

The library keeps an element of an algebra as a `Mat` column and a family
of elements as the columns of one `Mat`: `hopf.mult_by` takes a
coefficient matrix and returns one combination per column,
`linalg.reshape` flattens and refills matrices, and
`dilation._right_inverse_exists` reads psi off the translates of theta.
These are the forms they replaced: `mult_by` of one coefficient tuple,
`antipode_images` summed over the sparse antipode columns, the
row-major flattening `mat_to_vec` and its inverse `vec_to_mat`, and the
right inverse found by solving the Kronecker system of
psi theta = id and psi pi_Mbar(e_i) = pi(e_i) psi.  `hom_space` and
`generated_algebra` are the library's constructions written with them.
"""

from hopf_partial import linalg as la
from hopf_partial import partial as pm


def mult_by(mats, u):
    """sum u_s mats[s] for one coefficient tuple u; zip drops extra entries."""
    n = mats[0].rows if mats else len(u)
    return la._mat_sum(((m, c) for m, c in zip(mats, u) if c), n, n)


def mult_by_columns(mats, u: la.Mat):
    """mult_by of each column of u, the family `hopf.mult_by` must return."""
    return tuple(mult_by(mats, u.col(j)) for j in range(u.cols))


def antipode_images(h, mats, rows, cols):
    """Entry i sums c mats[j] over S(e_i) = sum c e_j, a rows x cols matrix."""
    return tuple(la._mat_sum(((mats[j], c) for j, c in terms), rows, cols)
                 for terms in h.antipode_terms)


def mat_to_vec(m: la.Mat):
    """Row-major flattening of a matrix into a single vector."""
    return tuple(x for row in m.entries for x in row)


def vec_to_mat(v, rows, cols):
    if len(v) != rows * cols:
        raise la.ShapeError("vector length does not factor")
    return la.Mat([v[i * cols:(i + 1) * cols] for i in range(rows)], cols=cols)


def left_mult_operator(a: la.Mat):
    """Operator X -> a X on row-major vectorized square matrices."""
    return la.kron(a, la.Mat.identity(a.cols))


def right_inverse_exists(m: pm.PartialModule, std) -> bool:
    """Is there psi with psi theta = id and psi pi_Mbar(e_i) = pi(e_i) psi?
    One solve of the (n^2 + d n nbar) x n nbar Kronecker system."""
    mbar = std.projected.module
    n, nb = m.dim, mbar.dim
    if n == 0:
        return True
    if nb == 0:
        return False
    system = la.vstack([la.kron(la.Mat.identity(n), std.theta.transpose()),
                        pm.intertwiner_system(mbar.pi, m.pi)])
    flat_rhs = list(mat_to_vec(la.Mat.identity(n)))
    flat_rhs.extend([0] * (n * nb * m.hopf.dim))
    return la.solve(system, flat_rhs) is not None


def hom_space(m: pm.PartialModule, n: pm.PartialModule):
    s, t = m.dim, n.dim
    if s == 0 or t == 0:
        return []
    ker = la.kernel_basis(pm.intertwiner_system(m.pi, n.pi))
    return [vec_to_mat(v, t, s) for v in ker.vectors()]


def generated_algebra(n, gens) -> la.Subspace:
    """Span of all words in the n x n matrices gens, the empty word included."""
    seed = la.Subspace.from_vectors(n * n, [mat_to_vec(la.Mat.identity(n))]
                                    + [mat_to_vec(g) for g in gens])
    return la.span_closure(seed, [left_mult_operator(g) for g in gens])
