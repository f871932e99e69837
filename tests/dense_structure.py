"""Reference for the differential tests of the sparse structure tables.

These are the dense routines that the regular representation and
`HopfAlgebraData.comult_terms` replaced: products scan every entry of the
dense ``mult[i][j]`` planes and skip the zeros, the associativity witness
multiplies basis vectors triple by triple, the Sweedler terms of Delta(e_i)
are read off the whole d x d plane ``comult[i]`` on every call, and the
smash product expands every Sweedler term over dense vectors, and
`right_mults` reads the R_s off the constants, as the library did before
it read them off the L_s.  They are slow and obviously right, so
`tests/test_structure_differential.py` requires the sparse versions to
return equal products and witnesses.
"""

from fractions import Fraction

from hopf_partial.linalg import Mat


def unit_vec(n, i):
    return tuple(Fraction(int(k == i)) for k in range(n))


def alg_prod(mult, u, v):
    """Product of coefficient vectors in an algebra given by constants."""
    dim = len(mult)
    out = [Fraction(0)] * dim
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            if b == 0:
                continue
            c = a * b
            row = mult[i][j]
            for k in range(dim):
                if row[k] != 0:
                    out[k] += c * row[k]
    return tuple(out)


def right_mults(mult, dim):
    """R_0, ..., R_{dim-1}: the matrices of u -> u e_s, column j = mult[j][s]."""
    return [Mat.from_cols([mult[j][s] for j in range(dim)], dim) for s in range(dim)]


def associativity_witness(mult):
    """First basis triple (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k)."""
    dim = len(mult)
    for i in range(dim):
        for j in range(dim):
            ij = mult[i][j]
            for k in range(dim):
                if alg_prod(mult, ij, unit_vec(dim, k)) \
                        != alg_prod(mult, unit_vec(dim, i), mult[j][k]):
                    return (i, j, k)
    return None


def unit_witness(mult, unit):
    """First basis index j where unit fails to be a two-sided unit."""
    dim = len(mult)
    return next((j for j in range(dim)
                 if alg_prod(mult, unit, unit_vec(dim, j)) != unit_vec(dim, j)
                 or alg_prod(mult, unit_vec(dim, j), unit) != unit_vec(dim, j)),
                None)


def comult_pairs(comult, i):
    """Nonzero Sweedler terms of Delta(e_i) as (first, second, coeff)."""
    return [(j, k, c)
            for j, row in enumerate(comult[i])
            for k, c in enumerate(row) if c != 0]


def smash_product(h, mult, action, u, v):
    """(a (x) h)(c (x) k) = a (h_(1) . c) (x) h_(2) k on A (x) H, bilinearly."""
    m, d = len(mult), h.dim
    out = [Fraction(0)] * (m * d)
    for iu, cu in enumerate(u):
        if cu == 0:
            continue
        bi, hi = divmod(iu, d)
        for iv, cv in enumerate(v):
            if cv == 0:
                continue
            ci, ki = divmod(iv, d)
            for p, q, c in comult_pairs(h.comult, hi):
                left = alg_prod(mult, unit_vec(m, bi), action[p].col(ci))
                right = h.mult[q][ki]
                for a in range(m):
                    for t in range(d):
                        out[a * d + t] += cu * cv * c * left[a] * right[t]
    return tuple(out)
