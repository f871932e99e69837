"""Standard dilations of partial modules and the dilation functor.

A dilation of a partial module M is a global module N with a compatible
projection T whose restriction is isomorphic to M.  The standard dilation
realizes N inside Hom(H, M), identified with M^d block by block: block j
of a coordinate vector is the value at the j-th Hopf basis element.  The
right-translation action (h.f)(k) = f(kh) becomes an explicit block
matrix assembled from the multiplication structure constants, the
embedding phi(v) lists the action values (pi(e_0)v, ..., pi(e_{d-1})v),
and, the translation action being global, the module is H.phi(M): the
span of the translates e_s.phi(v), one column space and no fixpoint.

All proof steps behind the universal property (well-definedness of the
comparison map, of the dilated morphisms) are turned into exact kernel
containment checks.
"""

from dataclasses import dataclass
from functools import lru_cache

from .hopf import _memo
from .linalg import (Mat, block_diag, column_space, echelon_coords, hstack,
                     intertwining_witness, kernel_basis, kron, rank, rref, solve_matrix,
                     split_blocks, vstack)
from .partial import (ModuleMorphism, PartialModule, _mult_grid, check_partial_rep,
                      direct_sum, is_global, is_module_iso)
from .projection import (ProjectedModule, _image, _image_coords, _restrict, _t_pi,
                         _translates, is_minimal, is_proper)
from .reports import ValidationError, ValidationReport, require


@dataclass(frozen=True)
class Dilation:
    """A projected global module together with the embedding of the source.

    For standard dilations, ambient_inclusion expresses the chosen basis of
    the dilation module inside M^d (one column per basis vector); for
    hand-built dilations it is None.
    """

    source: PartialModule
    projected: ProjectedModule
    theta: Mat
    proper: bool
    minimal: bool
    ambient_inclusion: Mat = None

    @staticmethod
    def build(source, projected, theta):
        if theta.rows != projected.module.dim or theta.cols != source.dim:
            raise ValueError("embedding shape mismatch")
        return Dilation(source, projected, theta, is_proper(projected),
                        is_minimal(projected))


def _translation_action(h, n):
    """Block matrices of ((e_i).f)(e_j) = f(e_j e_i) on M^d coordinates.

    Block (j, q) is the coefficient of e_q in e_j e_i: R_i^T (x) I_M.
    """
    return [kron(r.transpose(), Mat.identity(n)) for r in h.right]


def _phi_matrix(m: PartialModule) -> Mat:
    """phi(v) = (pi(e_0) v, ..., pi(e_{d-1}) v) as a (d n) x n matrix."""
    return vstack([m.pi[j] for j in range(m.hopf.dim)])


def _unit_evaluation(h, n) -> Mat:
    """f -> f(1), an n x (d n) matrix built from the unit coefficients."""
    return kron(Mat([list(h.unit)]), Mat.identity(n))


@lru_cache(maxsize=128)
def standard_dilation(m: PartialModule) -> Dilation:
    """The proper and minimal dilation carried by Hom(H, M).

    Its module is H.phi(M): column block s of the "mult" Sweedler grid of
    pi (block (r, s) is pi(e_r e_s)) is e_s.phi.  The action matrices and
    theta are read at the pivots of the grid's echelon basis, and one
    verifying product proves that column space invariant and containing
    im phi, or raises ValidationError.  The projection is
    f -> phi(f(1)), phi E with E the evaluation at 1; as incl theta = phi,
    phi E incl = incl theta E incl, so on the module it is theta (E incl).

    Every claimed property is asserted on the produced instance: theta is
    injective with image im t, it intertwines the actions, the pair is
    proper and minimal, and restricting the projected module returns the
    source through theta.  Results are cached; all values are immutable.
    """
    rep = check_partial_rep(m)
    if not rep.ok:
        raise ValidationError(rep)
    h = m.hopf
    n = m.dim
    acts = _translation_action(h, n)
    phi = _phi_matrix(m)
    space = column_space(_mult_grid(m))
    incl = space.basis.transpose()

    blocks = echelon_coords(space, [a * incl for a in acts] + [phi])
    if blocks is None:
        raise ValidationError("the span of the translates of phi is not invariant")
    *ops, theta = blocks
    module = PartialModule(h, space.dim, tuple(ops))
    projected = ProjectedModule.build(module, theta * (_unit_evaluation(h, n) * incl))

    dil = Dilation(m, projected, theta, proper=True, minimal=True,
                   ambient_inclusion=incl)
    report = check_dilation(dil)
    if not report.ok:
        raise ValidationError(report)
    return dil


def check_dilation(d: Dilation) -> ValidationReport:
    """Verify the six dilation properties of d, one Check each.

    The Checks are evaluated once per instance and kept on d as a frozen
    tuple; every call returns a new report built from them, so a caller
    may extend its report freely, and a caller's check after the one
    inside standard_dilation reads the tuple.  An equal but newly built
    Dilation is evaluated afresh.  The restriction of d.projected (with
    its PR1-PR5 check), is_proper, is_minimal, the family t pi(e_i) and
    the rref of t are memoized on that ProjectedModule in turn; the
    restriction is d.source itself when the two are equal, and chi and
    the image Check read the rref of t.
    """
    checks = _memo(d, "_dilation_checks", lambda: _evaluate_dilation(d))
    return ValidationReport("dilation", list(checks))


def _evaluate_dilation(d: Dilation):
    """The six Checks of check_dilation, in order."""
    report = ValidationReport("dilation")
    p = d.projected
    theta = d.theta
    src = d.source

    image = column_space(theta)
    report.record("theta injective", image.dim == src.dim)
    report.record("intertwining", intertwining_witness(theta, src.pi, _t_pi(p)) is None)
    # t is idempotent, so x lies in im t exactly when t x = x
    report.record("image of theta is im t",
                  image.dim == _image(p)[0].cols and p.t * theta == theta)

    iso_ok = False
    if report.checks[0].passed and report.checks[2].passed:
        # restrict(p), offered the source to return when the two are equal
        restricted, _ = _memo(p, "_restriction", lambda: _restrict(p, src))
        chi = _image_coords(p, theta)
        iso_ok = chi is not None and is_module_iso(chi, src, restricted)
    report.record("restriction isomorphic to source via theta", iso_ok)
    report.record("proper", is_proper(p))
    report.record("minimal", is_minimal(p))
    return tuple(report.checks)


def _factor_through(dec: Mat, target: Mat) -> Mat:
    """The unique F with F dec = target, given that dec has full row rank.

    F exists exactly when ker dec is contained in ker target, that is when
    the exact system dec^T F^T = target^T is consistent: its consistency
    is the kernel-containment check.  One elimination of [dec^T | target^T]
    decides both checks: dec has full row rank r exactly when columns
    0..r-1 are all pivots, the system is consistent exactly when no other
    column is, and then the reduced rows are [I | F^T].
    """
    r = dec.rows
    red, pivots = rref(hstack([dec.transpose(), target.transpose()]))
    if pivots[:r] != list(range(r)):
        raise ValidationError("decomposition map is not surjective")
    if len(pivots) > r:
        raise ValidationError("map is not well defined: kernel containment fails")
    return split_blocks(red, [r, red.rows - r], [r, target.rows])[0][1].transpose()


def universal_morphism(d2: Dilation) -> Mat:
    """Comparison map from a proper dilation onto the standard one.

    Decomposes each vector of N as a combination of translates of theta
    values and rebuilds it inside the standard dilation.  Surjectivity,
    H-linearity, compatibility with both projections and with the two
    embeddings are asserted, as is bijectivity exactly when the input is
    minimal.
    """
    if not is_proper(d2.projected):
        raise ValidationError("universal morphism needs a proper dilation")
    std = standard_dilation(d2.source)
    mod_n = d2.projected.module
    mod_std = std.projected.module

    phi = _factor_through(_translates(mod_n, d2.theta),
                          _translates(mod_std, std.theta))

    require(rank(phi) == mod_std.dim, "comparison map must be surjective")
    require(intertwining_witness(phi, mod_n.pi, mod_std.pi) is None,
            "comparison map must be H-linear")
    require(std.projected.t * phi == phi * d2.projected.t,
            "comparison map must intertwine the projections")
    require(phi * d2.theta == std.theta,
            "comparison map must send theta to phi")
    injective = kernel_basis(phi).dim == 0
    require(injective == d2.minimal,
            "bijectivity must match the minimality flag")
    return phi


def dilate_morphism(f: ModuleMorphism) -> Mat:
    """Extend a morphism of partial modules to their standard dilations.

    The extension sends a translate of an embedded source vector to the
    same translate of the embedded image vector; well-definedness is a
    kernel containment check, as in the construction of the functor.
    """
    std_m = standard_dilation(f.source)
    std_n = standard_dilation(f.target)
    mod_m = std_m.projected.module
    mod_n = std_n.projected.module
    fbar = _factor_through(_translates(mod_m, std_m.theta),
                           _translates(mod_n, std_n.theta * f.mat))
    require(fbar * std_m.theta == std_n.theta * f.mat,
            "dilated morphism must commute with the embeddings")
    require(intertwining_witness(fbar, mod_m.pi, mod_n.pi) is None,
            "dilated morphism must be H-linear")
    return fbar


def global_iff_phi_iso(m: PartialModule) -> ValidationReport:
    """The three equivalent characterizations of globality, each computed.

    (a) the action matrices multiply like the Hopf algebra;
    (b) the embedding into the standard dilation is bijective;
    (c) the embedding has a right inverse intertwiner, read off the
        translates of theta.
    Agreement of the three is asserted; for global input the projection of
    the standard dilation must be the identity.
    """
    report = ValidationReport("global characterization")
    glb = is_global(m)
    report.record("pi is an algebra map", glb)

    std = standard_dilation(m)
    mbar = std.projected.module
    bij = mbar.dim == m.dim and rank(std.theta) == m.dim
    report.record("phi bijective", bij)

    has_right_inverse = _right_inverse_exists(m, std)
    report.record("phi has a right inverse intertwiner", has_right_inverse)

    report.record("three conditions agree", glb == bij == has_right_inverse)
    if glb:
        report.record("projection is the identity",
                      std.projected.t == Mat.identity(mbar.dim))
    return report


def _right_inverse_exists(m: PartialModule, std: Dilation) -> bool:
    """Is there psi with psi theta = id and psi pi_Mbar(e_i) = pi(e_i) psi?
    Such a psi sends the translates pi_Mbar(e_i) theta, which span Mbar, to
    the pi(e_i), so it is the one F with [F pi_Mbar(e_i) theta]_i = [pi(e_i)]_i,
    if that F exists, F theta = id and F intertwines."""
    mbar = std.projected.module
    ft = solve_matrix(_translates(mbar, std.theta).transpose(), hstack(m.pi).transpose())
    if ft is None:
        return False
    psi = ft.transpose()
    return (psi * std.theta == Mat.identity(m.dim)
            and intertwining_witness(psi, mbar.pi, m.pi) is None)


def dilation_preserves_sums(ms) -> ValidationReport:
    """Dilation of a direct sum versus the direct sum of dilations.

    The canonical comparison is assembled from the dilated inclusion
    morphisms, the column blocks of the identity of the direct sum, and
    asserted to be a bijective intertwiner.
    """
    ms = list(ms)
    report = ValidationReport("dilation preserves direct sums")
    total = direct_sum(ms)
    std_total = standard_dilation(total)
    stds = [standard_dilation(m) for m in ms]
    total_bar_dim = std_total.projected.module.dim
    report.record("dimension additivity",
                  total_bar_dim == sum(s.projected.module.dim for s in stds))

    injections, = split_blocks(Mat.identity(total.dim), [total.dim], [m.dim for m in ms])
    canonical = hstack([dilate_morphism(ModuleMorphism.build(m, total, inj))
                        for m, inj in zip(ms, injections)])

    bijective = canonical.rows == canonical.cols == rank(canonical)
    report.record("canonical map bijective", bijective)

    if ms and bijective:
        summed = [block_diag([s.projected.module.pi[i] for s in stds])
                  for i in range(ms[0].hopf.dim)]
        report.record("canonical map H-linear",
                      intertwining_witness(canonical, summed,
                                           std_total.projected.module.pi) is None)
    return report
