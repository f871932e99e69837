"""Twisted conjugates one index and one Sweedler term at a time: the oracle.

`twisted_conjugate` is the element-wise formula
T_{e_i} = sum c pi(e_a) t pi(S e_b) over Delta(e_i) = sum c e_a (x) e_b,
and its tilde twin sum c pi(S e_a) t pi(e_b), with both products formed
for every term and pi(S e_b) summed over the sparse antipode columns.
`c_condition` and `equivalence_witnesses` scan these conjugates in the
order of `projection.check_c_condition` and
`projection.check_equivalence_lemma`, so their witnesses are the ones the
library must report.
"""

from hopf_partial.linalg import _mat_sum


def comult_sum(h, i, n, term):
    """The n x n matrix sum of c term(a, b) over Delta(e_i) = sum c e_a (x) e_b."""
    return _mat_sum(((term(a, b), c) for a, b, c in h.comult_terms[i]), n, n)


def antipode_images(m):
    """(pi(S e_0), ..., pi(S e_{d-1})), summed over the sparse antipode columns."""
    return tuple(_mat_sum(((m.pi[j], c) for j, c in terms), m.dim, m.dim)
                 for terms in m.hopf.antipode_terms)


def twisted_conjugate(m, t, i, tilde, pi_s):
    """pi(e_i (1)) t pi(S(e_i (2))), or pi(S(e_i (1))) t pi(e_i (2)) with tilde;
    pi_s is antipode_images(m) and t None stands for the identity."""
    left, right = (pi_s, m.pi) if tilde else (m.pi, pi_s)
    if t is None:
        return comult_sum(m.hopf, i, m.dim, lambda a, b: left[a] * right[b])
    return comult_sum(m.hopf, i, m.dim, lambda a, b: left[a] * t * right[b])


def conjugates(m, t=None, tilde=False):
    pi_s = antipode_images(m)
    return tuple(twisted_conjugate(m, t, i, tilde, pi_s) for i in range(m.hopf.dim))


def c_condition(m, t):
    """(ok, first basis index whose conjugate does not commute with t)."""
    for i, ti in enumerate(conjugates(m, t)):
        if ti * t != t * ti:
            return False, i
    return True, None


def equivalence_witnesses(m, t):
    """The witnesses of conditions (i), (ii) and (iii) of the equivalence lemma."""
    d = m.hopf.dim
    adj, tld = conjugates(m, t), conjugates(m, t, tilde=True)
    w1 = next((i for i in range(d) if adj[i] * t != t * adj[i]), None)
    w2 = next((i for i in range(d) if tld[i] * t != t * tld[i]), None)
    w3 = next(((i, j) for i in range(d) for j in range(d)
               if adj[i] * tld[j] != tld[j] * adj[i]), None)
    return w1, w2, w3
