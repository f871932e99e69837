"""The standard dilation and the restriction computed by elimination, kept as oracles.

The library reads coordinates in a `Subspace`'s echelon basis at its
pivots (`linalg.echelon_coords`), returns a dilation's source instance as
its restriction when the two are equal, builds the families t pi(e_i) and
pi(e_i) t once per projected module, eliminates t once per projected
module and reads coordinates in the pivot-column basis of im t from that
rref, and proves a projected module global on the generators of H.
These are the forms they replaced:

* `standard_dilation` solves for the action matrices and theta with one
  `solve_blocks` against the echelon inclusion, and checks the result
  with `evaluate_dilation`, which takes a new restriction and builds
  t pi(e_i) for each Check that reads it;
* `build_projected` reads globality off the full deviation table and the
  commutation condition off the element-wise conjugates;
* `evaluate_dilation` compares column spaces for "image of theta is im t"
  and solves for chi against the pivot-column basis of im t;
* `restrict` builds the pivot-column basis from `Fraction` columns, solves
  for the restricted matrices against it and returns a new module every
  time, checked against PR1-PR5 afresh;
* `restrict_operators` and `subalgebra_left` solve against any inclusion
  matrix whose columns span the subspace.
"""

from hopf_partial import dilation as dl
from hopf_partial import linalg as la
from hopf_partial import partial as pm
from hopf_partial import projection as pj
from hopf_partial.hopf import sweedler_grid
from hopf_partial.reports import ValidationError, ValidationReport

import globality_reference
import twisted_conjugate_reference


def solve_blocks(a, blocks):
    """One solution X_j of a X_j = B_j per block B_j, or None if one is
    inconsistent: one elimination of [a | B_1 | ... | B_k]."""
    blocks = list(blocks)
    x = la.solve_matrix(a, la.hstack(blocks))
    if x is None:
        return None
    return la.split_blocks(x, [a.cols], [b.cols for b in blocks])[0]


def restrict_operators(ops, incl):
    """Matrices of each op on the span of incl's columns: one solve_blocks."""
    ops = list(ops)
    if not ops:
        return ()
    blocks = solve_blocks(incl, [op * incl for op in ops])
    if blocks is None:
        raise ValueError("subspace is not invariant under the operator")
    return blocks


def subalgebra_left(incl, ops, extra, msg):
    """The L_s on the span of incl's columns and the coordinates of extra."""
    blocks = solve_blocks(incl, [op * incl for op in ops] + [extra])
    if blocks is None:
        raise ValidationError(msg)
    *left, coords = blocks
    return tuple(left), coords


def image_basis(t):
    """Columns of t at its pivot columns, built from Fraction columns."""
    return la.Mat.from_cols([t.col(j) for j in la.rref(t)[1]], t.rows)


def build_projected(module, t):
    """ProjectedModule.build on the full deviation table and the element-wise
    conjugates, with its errors."""
    if t.rows != module.dim or t.cols != module.dim:
        raise la.ShapeError("projection size does not match the module")
    if not globality_reference.is_algebra_map(module):
        raise ValidationError("underlying module must be global")
    if t * t != t:
        raise ValidationError("candidate projection is not idempotent")
    ok, witness = twisted_conjugate_reference.c_condition(module, t)
    if not ok:
        raise ValidationError(f"commutation condition fails at basis index {witness}")
    return pj.ProjectedModule(module, t)


def restrict(p):
    """A new restricted module and the inclusion, checked against PR1-PR5."""
    incl = image_basis(p.t)
    pis = restrict_operators([p.t * q for q in p.module.pi], incl)
    out = pm.PartialModule(p.module.hopf, incl.cols, pis)
    rep = pm.check_partial_rep(out)
    if not rep.ok:
        raise ValidationError(rep)
    return out, incl


def is_minimal(p):
    """No nonzero submodule is killed by t, from a new family t pi(e_i)."""
    ker = la.kernel_basis(la.vstack([p.t * q for q in p.module.pi]))
    if la.first_unstable(ker, p.module.pi) is not None:
        raise ValidationError("annihilated space is not action-stable; "
                              "module is not global")
    return ker.dim == 0


def is_proper(p):
    return la.column_space(pj._translates(p.module, p.t)).dim == p.module.dim


def evaluate_dilation(d):
    """The six Checks of check_dilation, each computed here."""
    report = ValidationReport("dilation")
    mod = d.projected.module
    t = d.projected.t
    image = la.column_space(d.theta)
    report.record("theta injective", image.dim == d.source.dim)
    report.record("intertwining", la.intertwining_witness(
        d.theta, d.source.pi, [t * q for q in mod.pi]) is None)
    report.record("image of theta is im t", image == la.column_space(t))
    iso_ok = False
    if report.checks[0].passed and report.checks[2].passed:
        restricted, incl_r = restrict(d.projected)
        chi = la.solve_matrix(incl_r, d.theta)
        iso_ok = chi is not None and pm.is_module_iso(chi, d.source, restricted)
    report.record("restriction isomorphic to source via theta", iso_ok)
    report.record("proper", is_proper(d.projected))
    report.record("minimal", is_minimal(d.projected))
    return report


def standard_dilation(m):
    """The standard dilation with one solve_blocks against its inclusion."""
    rep = pm.check_partial_rep(m)
    if not rep.ok:
        raise ValidationError(rep)
    h, n = m.hopf, m.dim
    acts = dl._translation_action(h, n)
    phi = dl._phi_matrix(m)
    space = la.column_space(sweedler_grid(h, n, [("mult", m.pi)]))
    incl = space.basis.transpose()
    blocks = solve_blocks(incl, [a * incl for a in acts] + [phi])
    if blocks is None:
        raise ValidationError("the span of the translates of phi is not invariant")
    *ops, theta = blocks
    module = pm.PartialModule(h, space.dim, tuple(ops))
    projected = build_projected(module, theta * (dl._unit_evaluation(h, n) * incl))
    dil = dl.Dilation(m, projected, theta, proper=True, minimal=True,
                      ambient_inclusion=incl)
    report = evaluate_dilation(dil)
    if not report.ok:
        raise ValidationError(report)
    return dil
