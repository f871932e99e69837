"""Projections on global modules and the restriction functor.

A projection T on a global module is compatible with the action when it
commutes with every twisted conjugate T_h = pi(h_(1)) T pi(S(h_(2))).
Pairs (module, T) satisfying this commutation restrict to partial modules
on the image of T; that restriction is the bridge between global and
partial representation theory and is inverted by the dilation machinery.
The checks, `adjoint_op` and `tilde_op` read the conjugates and their
twins as one family from `partial.twisted_conjugates`.

A ProjectedModule is immutable, so what is proved about it is proved once:
restrict, is_proper and is_minimal store their result on the instance the
first time they return and hand it back on later calls.  The conjugates
are stored the same way by `ProjectedModule.build`, which builds them to
check the commutation condition, the twins the first time `tilde_op` or
`check_equivalence_lemma` asks for them, and the family t pi(e_i) the
first time the restriction, is_minimal or a dilation's intertwining check
reads it.  The memos are not dataclass fields, so == and hash ignore them,
and an equal but newly built instance is verified from scratch.
"""

from dataclasses import dataclass

from .hopf import _memo
from .linalg import (Mat, ShapeError, Subspace, _reduced, column_space,
                     first_unstable, hstack, intertwining_witness, kernel_basis,
                     pivot_columns, restrict_operators, solve_blocks, vstack)
from .partial import (PartialModule, check_partial_rep, hom_space,
                      is_algebra_map, quotient_action, twisted_conjugates)
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
        family, witness = _c_condition(module, t)
        if witness is not None:
            raise ValidationError(f"commutation condition fails at basis index {witness}")
        out = ProjectedModule(module, t)
        _memo(out, "_adjoint", lambda: family)
        return out


def _conjugates(p: ProjectedModule, tilde=False):
    """The family T_{e_i} of p, or with tilde its twins; memoized on p."""
    return _memo(p, "_tilde" if tilde else "_adjoint",
                 lambda: twisted_conjugates(p.module, p.t, tilde))


def _t_pi(p: ProjectedModule):
    """The family t pi(e_i) of p; memoized on p."""
    return _memo(p, "_t_pi", lambda: tuple(p.t * q for q in p.module.pi))


def adjoint_op(p: ProjectedModule, i: int) -> Mat:
    """T_{e_i} = pi(e_i (1)) t pi(S(e_i (2)))."""
    return _conjugates(p)[i]


def tilde_op(p: ProjectedModule, i: int) -> Mat:
    """The S-twisted twin pi(S(e_i (1))) t pi(e_i (2))."""
    return _conjugates(p, tilde=True)[i]


def check_c_condition(module: PartialModule, t: Mat):
    """Does the idempotent t commute with all its twisted conjugates?

    Returns (bool, witness basis index).  Raises if t is not idempotent.
    """
    _, witness = _c_condition(module, t)
    return witness is None, witness


def _c_condition(module: PartialModule, t: Mat):
    """The family T_{e_i} of t and the first i with T_{e_i} t != t T_{e_i},
    or None.  Raises if t is not idempotent."""
    if t * t != t:
        raise ValidationError("candidate projection is not idempotent")
    family = twisted_conjugates(module, t)
    return family, intertwining_witness(t, family, family)


def check_equivalence_lemma(p, t=None) -> ValidationReport:
    """Evaluate the three equivalent commutation conditions independently.

    (i)  T_h T = T T_h for all basis h;
    (ii) T~_h T = T T~_h for all basis h;
    (iii) T_h T~_k = T~_k T_h for all basis pairs.

    Accepts a ProjectedModule, whose memoized families it reads, or a raw
    (module, idempotent) pair, so that failing candidates can be examined
    too.
    """
    if isinstance(p, ProjectedModule):
        module, t = p.module, p.t
    else:
        module = p
    if t * t != t:
        raise ValidationError("candidate projection is not idempotent")
    if isinstance(p, ProjectedModule):
        adj, tld = _conjugates(p), _conjugates(p, tilde=True)
    else:
        adj, tld = (twisted_conjugates(module, t, tilde) for tilde in (False, True))
    report = ValidationReport("equivalence lemma")
    w1 = intertwining_witness(t, adj, adj)
    report.record("(i) c-condition", w1 is None, w1)
    w2 = intertwining_witness(t, tld, tld)
    report.record("(ii) twisted c-condition", w2 is None, w2)
    # row i of (iii): the first j with T_i T~_j != T~_j T_i
    rows = (intertwining_witness(a, tld, tld) for a in adj)
    w3 = next(((i, j) for i, j in enumerate(rows) if j is not None), None)
    report.record("(iii) pairwise commutation", w3 is None, w3)
    agree = (w1 is None) == (w2 is None) == (w3 is None)
    report.record("conditions agree", agree)
    return report


def image_basis(t: Mat) -> Mat:
    """Columns of t at the pivot positions of its column space."""
    pivots = pivot_columns(t)
    return _reduced([[row[j] for j in pivots] for row in t.num], t.den, len(pivots))


def restrict(p: ProjectedModule):
    """The partial module on im t with pi(h) = t pi_N(h), plus the inclusion.

    The restricted matrices are written in the pivot-column basis of im t;
    the inclusion matrix records the embedding into the ambient module.
    The result is verified against PR1-PR5 once and memoized on p, so a
    repeated restrict(p) returns the same pair without recomputing; a
    restriction that fails raises ValidationError and stores nothing.  The
    restriction of a dilation, memoized by check_dilation, is the source
    instance itself when the two are equal, so its PR1-PR5 Checks are read
    from the source's memo.
    """
    return _memo(p, "_restriction", lambda: _restrict(p))


def _restrict(p: ProjectedModule, source=None):
    """The pair of restrict(p); the restricted module is source when equal."""
    incl = image_basis(p.t)
    pis = solve_blocks(incl, [a * incl for a in _t_pi(p)])
    if pis is None:
        raise ValueError("subspace is not invariant under the operator")
    out = PartialModule(p.module.hopf, incl.cols, pis)
    if out == source:
        out = source
    rep = check_partial_rep(out)
    if not rep.ok:
        raise ValidationError(rep)
    return out, incl


def _translates(module: PartialModule, theta: Mat) -> Mat:
    """[pi(e_0) theta | ... | pi(e_{d-1}) theta], the translates of theta's columns."""
    return hstack([p * theta for p in module.pi])


def _generated_submodule(module: PartialModule, t: Mat) -> Subspace:
    """The submodule generated by im t: on a global module pi(1) = I and
    pi(h) pi(k) = pi(hk), so it is the span of the translates pi(e_i) t x."""
    return column_space(_translates(module, t))


def _annihilated_submodule(module: PartialModule, t_pi) -> Subspace:
    """{x : t pi(h) x = 0 for all h}, the largest submodule killed by t,
    given the family t_pi of the t pi(e_i)."""
    ker = kernel_basis(vstack(t_pi))
    if first_unstable(ker, module.pi) is not None:
        raise ValidationError("annihilated space is not action-stable; "
                              "module is not global")
    return ker


def minimalize(p: ProjectedModule) -> ProjectedModule:
    """Shrink (N, T) to an isomorphic proper and minimal pair.

    First the module is replaced by the submodule generated by im t, the
    span of its translates (pi is an algebra map, as `build` verified), then
    any leftover submodule annihilated by t is quotiented away.  Both steps
    leave the restriction untouched.  The returned pair is proved to have
    no t-killed submodule, and that is recorded as its is_minimal memo.
    """
    closure = _generated_submodule(p.module, p.t)
    ops = restrict_operators((*p.module.pi, p.t), closure)
    module = PartialModule(p.module.hopf, closure.dim, ops[:-1])
    t = ops[-1]

    killed = _annihilated_submodule(module, [t * q for q in module.pi])
    if killed.dim:
        _, qdim, induced = quotient_action(module.dim, killed, ops)
        module = PartialModule(p.module.hopf, qdim, tuple(induced[:-1]))
        t = induced[-1]
    out = ProjectedModule.build(module, t)
    if killed.dim and _annihilated_submodule(module, _t_pi(out)).dim != 0:
        raise ValidationError("minimalization left a t-killed submodule")
    _memo(out, "_minimal", lambda: True)
    return out


def is_minimal(p: ProjectedModule) -> bool:
    """No nonzero submodule is killed by t; memoized on p."""
    return _memo(p, "_minimal",
                 lambda: _annihilated_submodule(p.module, _t_pi(p)).dim == 0)


def is_proper(p: ProjectedModule) -> bool:
    """The module is generated by im t, that is spanned by the translates
    pi(e_i) t x, as pi is an algebra map (`build` checked it); memoized on p."""
    return _memo(p, "_proper", lambda: _generated_submodule(p.module, p.t).dim
                 == p.module.dim)


def projected_morphism_space(p: ProjectedModule, q: ProjectedModule):
    """Morphisms (M,T) -> (N,S): maps f on the images with f(T(h.m)) = S(h.f(m)).

    On im T the map m -> T(h.m) is the action of the restriction, so these
    are the intertwiners between restrict(p) and restrict(q), read from the
    memoized restrictions.
    """
    if p.module.hopf != q.module.hopf:
        raise ValueError("different Hopf algebras")
    return hom_space(restrict(p)[0], restrict(q)[0])
