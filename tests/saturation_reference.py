"""The span-saturation forms of the global shadow and the balanced tensor product.

`partial.global_shadow` and `partial.tensor_over_base` take their
relation spans as one column space each: the span of the deviations, and
the span of the generators' relations.  These are the fixpoints they
replaced, kept as oracles: the smallest pi-invariant subspace containing
the deviations, found by `linalg.span_closure`, and the span of the
balanced word pairs (right word action on M, left word action on N),
saturated in the (m^2 + n^2)-dimensional pair space.  Everything after
the relation span is the library's own code, so the outputs and the
messages can be compared exactly.
"""

from hopf_partial import linalg as la
from hopf_partial import partial as pm
from hopf_partial.hopf import diagonal_action
from hopf_partial.reports import require
from vector_reference import left_mult_operator, mat_to_vec, vec_to_mat


def shadow_relations(m: pm.PartialModule) -> la.Subspace:
    """The closure under pi of the span of the columns of all D(e_a, e_b)."""
    return la.span_closure(la.column_space(la.hstack(pm._basis_deviations(m))), m.pi)


def global_shadow(m: pm.PartialModule):
    rel = shadow_relations(m)
    q, qdim, pis = pm.quotient_action(m.dim, rel, m.pi)
    shadow = pm.PartialModule(m.hopf, qdim, tuple(pis))
    require(pm.check_partial_rep(shadow).ok, "shadow fails the partial axioms")
    require(pm.is_global(shadow), "shadow action is not global")
    return shadow, q


def right_mult_operator(a: la.Mat) -> la.Mat:
    """Operator X -> X a on row-major vectorized square matrices."""
    return la.kron(la.Mat.identity(a.rows), a.transpose())


def balanced_word_pairs(m: pm.PartialModule, n: pm.PartialModule):
    """Span of (right word action on M, left word action on N) pairs.

    Words run over the generators of the base subalgebra; the right action
    on the first factor uses the twin epsilon operators, so appending a
    generator composes on the left there and on the right on N.
    """
    dm, dn = m.dim, n.dim
    gens = list(zip(pm.twisted_conjugates(m, tilde=True), pm.twisted_conjugates(n)))
    seed = la.Subspace.from_vectors(dm * dm + dn * dn, [
        mat_to_vec(a) + mat_to_vec(b)
        for a, b in [(la.Mat.identity(dm), la.Mat.identity(dn)), *gens]])
    ops = [la.block_diag([left_mult_operator(a), right_mult_operator(b)])
           for a, b in gens]
    return [(vec_to_mat(v[: dm * dm], dm, dm), vec_to_mat(v[dm * dm:], dn, dn))
            for v in la.span_closure(seed, ops).vectors()]


def balanced_relations(m: pm.PartialModule, n: pm.PartialModule) -> la.Subspace:
    nm = m.dim * n.dim
    im, i_n = la.Mat.identity(m.dim), la.Mat.identity(n.dim)
    return la.column_space(la.hstack([la.Mat.zeros(nm, 0)]
                                     + [la.kron(p, i_n) - la.kron(im, q)
                                        for p, q in balanced_word_pairs(m, n)]))


def tensor_over_base(m: pm.PartialModule, n: pm.PartialModule) -> pm.PartialModule:
    h = m.hopf
    if n.hopf != h:
        raise ValueError("modules live over different Hopf algebras")
    require(pm.check_partial_rep(m).ok and pm.check_partial_rep(n).ok,
            "tensor factors must be valid partial modules")
    nm = m.dim * n.dim
    rel = balanced_relations(m, n)
    diag = diagonal_action(h, m.pi, n.pi)
    i = la.first_unstable(rel, diag)
    require(i is None, f"relation span is not stable under the diagonal action "
                       f"(basis index {i})")
    _, qdim, pis = pm.quotient_action(nm, rel, diag)
    out = pm.PartialModule(h, qdim, tuple(pis))
    require(pm.check_partial_rep(out).ok, "balanced tensor fails the partial axioms")
    return out
