"""Projections on global modules and the restriction functor.

A projection T on a global module is compatible with the action when it
commutes with every twisted conjugate T_h = pi(h_(1)) T pi(S(h_(2))).
Pairs (module, T) satisfying this commutation restrict to partial modules
on the image of T; that restriction is the bridge between global and
partial representation theory and is inverted by the dilation machinery.

A ProjectedModule is immutable, so what is proved about it is proved once:
restrict, is_proper and is_minimal store their result on the instance the
first time they return and hand it back on later calls.  The memos are
not dataclass fields, so == and hash ignore them, and an equal but newly
built instance is verified from scratch.
"""

from dataclasses import dataclass

from .linalg import (Mat, ShapeError, Subspace, column_space, first_unstable,
                     kernel_basis, pivot_columns, restrict_operators,
                     span_closure, vstack)
from .partial import (PartialModule, _memo, antipode_images, check_partial_rep,
                      hom_space, is_algebra_map, quotient_action,
                      twisted_conjugate)
from .reports import ValidationError, ValidationReport


@dataclass(frozen=True)
class ProjectedModule:
    """A global module with an idempotent satisfying the commutation condition.

    Construction validates everything eagerly: invalid pairs cannot exist
    as values, so downstream operations may rely on the invariants.
    """

    module: PartialModule
    t: Mat

    @staticmethod
    def build(module: PartialModule, t: Mat):
        if t.rows != module.dim or t.cols != module.dim:
            raise ShapeError("projection size does not match the module")
        if not is_algebra_map(module):
            raise ValidationError("underlying module must be global")
        ok, witness = check_c_condition(module, t)
        if not ok:
            raise ValidationError(f"commutation condition fails at basis index {witness}")
        return ProjectedModule(module, t)


def adjoint_op(p: ProjectedModule, i: int) -> Mat:
    """T_{e_i} = pi(e_i (1)) t pi(S(e_i (2)))."""
    return twisted_conjugate(p.module, p.t, i, tilde=False,
                             pi_s=antipode_images(p.module))


def tilde_op(p: ProjectedModule, i: int) -> Mat:
    """The S-twisted twin pi(S(e_i (1))) t pi(e_i (2))."""
    return twisted_conjugate(p.module, p.t, i, tilde=True,
                             pi_s=antipode_images(p.module))


def check_c_condition(module: PartialModule, t: Mat):
    """Does the idempotent t commute with all its twisted conjugates?

    Returns (bool, witness basis index).  Raises if t is not idempotent.
    """
    if t * t != t:
        raise ValidationError("candidate projection is not idempotent")
    pi_s = antipode_images(module)
    for i in range(module.hopf.dim):
        ti = twisted_conjugate(module, t, i, tilde=False, pi_s=pi_s)
        if ti * t != t * ti:
            return False, i
    return True, None


def check_equivalence_lemma(p, t=None) -> ValidationReport:
    """Evaluate the three equivalent commutation conditions independently.

    (i)  T_h T = T T_h for all basis h;
    (ii) T~_h T = T T~_h for all basis h;
    (iii) T_h T~_k = T~_k T_h for all basis pairs.

    Accepts a ProjectedModule or a raw (module, idempotent) pair, so that
    failing candidates can be examined too.
    """
    if isinstance(p, ProjectedModule):
        module, t = p.module, p.t
    else:
        module = p
    if t * t != t:
        raise ValidationError("candidate projection is not idempotent")
    d = module.hopf.dim
    pi_s = antipode_images(module)
    adj = [twisted_conjugate(module, t, i, tilde=False, pi_s=pi_s) for i in range(d)]
    tld = [twisted_conjugate(module, t, i, tilde=True, pi_s=pi_s) for i in range(d)]
    report = ValidationReport("equivalence lemma")
    w1 = next((i for i in range(d) if adj[i] * t != t * adj[i]), None)
    report.record("(i) c-condition", w1 is None, w1)
    w2 = next((i for i in range(d) if tld[i] * t != t * tld[i]), None)
    report.record("(ii) twisted c-condition", w2 is None, w2)
    w3 = next(((i, j) for i in range(d) for j in range(d)
               if adj[i] * tld[j] != tld[j] * adj[i]), None)
    report.record("(iii) pairwise commutation", w3 is None, w3)
    agree = (w1 is None) == (w2 is None) == (w3 is None)
    report.record("conditions agree", agree)
    return report


def image_basis(t: Mat) -> Mat:
    """Columns of t at the pivot positions of its column space."""
    return Mat.from_cols([t.col(j) for j in pivot_columns(t)], t.rows)


def restrict(p: ProjectedModule):
    """The partial module on im t with pi(h) = t pi_N(h), plus the inclusion.

    The restricted matrices are written in the pivot-column basis of im t;
    the inclusion matrix records the embedding into the ambient module.
    The result is verified against PR1-PR5 once and memoized on p, so a
    repeated restrict(p) returns the same pair without recomputing; a
    restriction that fails raises ValidationError and stores nothing.
    """
    return _memo(p, "_restriction", lambda: _restrict(p))


def _restrict(p: ProjectedModule):
    incl = image_basis(p.t)
    pis = restrict_operators([p.t * q for q in p.module.pi], incl)
    out = PartialModule(p.module.hopf, incl.cols, pis)
    rep = check_partial_rep(out)
    if not rep.ok:
        raise ValidationError(rep)
    return out, incl


def _annihilated_submodule(module: PartialModule, t: Mat) -> Subspace:
    """{x : t pi(h) x = 0 for all h}, the largest submodule killed by t."""
    stacked = vstack([t * p for p in module.pi])
    ker = kernel_basis(stacked)
    if first_unstable(ker, module.pi) is not None:
        raise ValidationError("annihilated space is not action-stable; "
                              "module is not global")
    return ker


def minimalize(p: ProjectedModule) -> ProjectedModule:
    """Shrink (N, T) to an isomorphic proper and minimal pair.

    First the module is replaced by the action closure of im t, then any
    leftover submodule annihilated by t is quotiented away.  Both steps
    leave the restriction untouched.  The returned pair is proved to have
    no t-killed submodule, and that is recorded as its is_minimal memo.
    """
    closure = span_closure(column_space(p.t), p.module.pi)
    incl = closure.basis.transpose()
    ops = restrict_operators((*p.module.pi, p.t), incl)
    module = PartialModule(p.module.hopf, closure.dim, ops[:-1])
    t = ops[-1]

    killed = _annihilated_submodule(module, t)
    if killed.dim:
        _, qdim, induced = quotient_action(module.dim, killed, ops)
        module = PartialModule(p.module.hopf, qdim, tuple(induced[:-1]))
        t = induced[-1]
    out = ProjectedModule.build(module, t)
    if killed.dim and _annihilated_submodule(module, t).dim != 0:
        raise ValidationError("minimalization left a t-killed submodule")
    _memo(out, "_minimal", lambda: True)
    return out


def is_minimal(p: ProjectedModule) -> bool:
    """No nonzero submodule is killed by t; memoized on p."""
    return _memo(p, "_minimal",
                 lambda: _annihilated_submodule(p.module, p.t).dim == 0)


def is_proper(p: ProjectedModule) -> bool:
    """The module is generated by im t; memoized on p."""
    return _memo(p, "_proper", lambda: span_closure(
        column_space(p.t), p.module.pi).dim == p.module.dim)


def projected_morphism_space(p: ProjectedModule, q: ProjectedModule):
    """Morphisms (M,T) -> (N,S): maps f on the images with f(T(h.m)) = S(h.f(m)).

    On im T the map m -> T(h.m) is the action of the restriction, so these
    are the intertwiners between restrict(p) and restrict(q), read from the
    memoized restrictions.
    """
    if p.module.hopf != q.module.hopf:
        raise ValueError("different Hopf algebras")
    return hom_space(restrict(p)[0], restrict(q)[0])
