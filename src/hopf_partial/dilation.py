"""Standard dilations of partial modules and the dilation functor.

A dilation of a partial module M is a global module N with a compatible
projection T whose restriction is isomorphic to M.  The standard dilation
realizes N inside Hom(H, M), identified with M^d block by block: block j
of a coordinate vector is the value at the j-th Hopf basis element.  The
right-translation action (h.f)(k) = f(kh) becomes an explicit block
matrix assembled from the multiplication structure constants, the
embedding phi(v) lists the action values (pi(e_0)v, ..., pi(e_{d-1})v),
and the module is cut out by span saturation.

All proof steps behind the universal property (well-definedness of the
comparison map, of the dilated morphisms) are turned into exact kernel
containment checks.
"""

from dataclasses import dataclass
from functools import lru_cache

from .hopf import right_mults
from .linalg import (Mat, block_diag, column_space, hstack, kernel_basis, kron,
                     rank, solve, solve_blocks, solve_matrix, span_closure,
                     vstack)
from .partial import (ModuleMorphism, PartialModule, check_partial_rep,
                      direct_sum, intertwiner_system, is_global, is_module_iso)
from .projection import ProjectedModule, is_minimal, is_proper, restrict
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
    return [kron(r.transpose(), Mat.identity(n)) for r in right_mults(h.mult, h.dim)]


def _phi_matrix(m: PartialModule) -> Mat:
    """phi(v) = (pi(e_0) v, ..., pi(e_{d-1}) v) as a (d n) x n matrix."""
    return vstack([m.pi[j] for j in range(m.hopf.dim)])


def _unit_evaluation(h, n) -> Mat:
    """f -> f(1), an n x (d n) matrix built from the unit coefficients."""
    return kron(Mat([list(h.unit)]), Mat.identity(n))


@lru_cache(maxsize=128)
def standard_dilation(m: PartialModule) -> Dilation:
    """The proper and minimal dilation carried by Hom(H, M).

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
    closure = span_closure(column_space(phi), acts)
    incl = closure.basis.transpose()

    t_full = phi * _unit_evaluation(h, n)
    # the closure is invariant under acts and t_full (whose image is im phi)
    # and contains the columns of phi, so every block is consistent
    *ops, t, theta = solve_blocks(incl, [a * incl for a in acts]
                                  + [t_full * incl, phi])
    module = PartialModule(h, closure.dim, tuple(ops))
    projected = ProjectedModule.build(module, t)

    dil = Dilation(m, projected, theta, proper=True, minimal=True,
                   ambient_inclusion=incl)
    report = check_dilation(dil)
    if not report.ok:
        raise ValidationError(report)
    return dil


def check_dilation(d: Dilation) -> ValidationReport:
    """Verify the six dilation properties of d, one Check each.

    theta's rank, the intertwining, the image of theta and the isomorphism
    from the source to the restriction are recomputed on every call.  The
    restriction of d.projected (with its PR1-PR5 check), is_proper and
    is_minimal are memoized on that ProjectedModule: the first call on an
    instance computes them, and later calls, such as a caller's check
    after the one inside standard_dilation, read them from the memos.
    """
    report = ValidationReport("dilation")
    mod = d.projected.module
    t = d.projected.t
    theta = d.theta
    src = d.source

    report.record("theta injective", rank(theta) == src.dim)
    report.record("intertwining",
                  all(theta * src.pi[i] == t * mod.pi[i] * theta
                      for i in range(src.hopf.dim)))
    report.record("image of theta is im t",
                  column_space(theta) == column_space(t))

    iso_ok = False
    if report.checks[0].passed and report.checks[2].passed:
        restricted, incl_r = restrict(d.projected)
        chi = solve_matrix(incl_r, theta)
        iso_ok = chi is not None and is_module_iso(chi, src, restricted)
    report.record("restriction isomorphic to source via theta", iso_ok)
    report.record("proper", is_proper(d.projected))
    report.record("minimal", is_minimal(d.projected))
    return report


def _factor_through(dec: Mat, target: Mat) -> Mat:
    """The unique F with F dec = target, given that dec has full row rank.

    F exists exactly when ker dec is contained in ker target, that is when
    the exact system dec^T F^T = target^T is consistent: its consistency
    is the kernel-containment check.
    """
    if rank(dec) != dec.rows:
        raise ValidationError("decomposition map is not surjective")
    ft = solve_matrix(dec.transpose(), target.transpose())
    if ft is None:
        raise ValidationError("map is not well defined: kernel containment fails")
    return ft.transpose()


def _translates(module: PartialModule, theta: Mat) -> Mat:
    """[pi(e_0) theta | ... | pi(e_{d-1}) theta], the translates of theta's columns."""
    return hstack([p * theta for p in module.pi])


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
    d = mod_n.hopf.dim

    phi = _factor_through(_translates(mod_n, d2.theta),
                          _translates(mod_std, std.theta))

    require(rank(phi) == mod_std.dim, "comparison map must be surjective")
    require(all(phi * mod_n.pi[i] == mod_std.pi[i] * phi for i in range(d)),
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
    d = f.source.hopf.dim
    mod_m = std_m.projected.module
    mod_n = std_n.projected.module
    fbar = _factor_through(_translates(mod_m, std_m.theta),
                           _translates(mod_n, std_n.theta * f.mat))
    require(fbar * std_m.theta == std_n.theta * f.mat,
            "dilated morphism must commute with the embeddings")
    require(all(fbar * mod_m.pi[i] == mod_n.pi[i] * fbar for i in range(d)),
            "dilated morphism must be H-linear")
    return fbar


def global_iff_phi_iso(m: PartialModule) -> ValidationReport:
    """The three equivalent characterizations of globality, each computed.

    (a) the action matrices multiply like the Hopf algebra;
    (b) the embedding into the standard dilation is bijective;
    (c) the embedding has a right inverse intertwiner, found by solving
        the corresponding linear system.
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
    """Is there psi with psi theta = id and psi pi_Mbar(e_i) = pi(e_i) psi?"""
    mbar = std.projected.module
    n, nb = m.dim, mbar.dim
    if n == 0:
        return True
    if nb == 0:
        return False
    system = vstack([kron(Mat.identity(n), std.theta.transpose()),
                     intertwiner_system(mbar.pi, m.pi)])
    flat_rhs = [x for row in Mat.identity(n).entries for x in row]
    flat_rhs.extend([0] * (n * nb * m.hopf.dim))
    return solve(system, flat_rhs) is not None


def dilation_preserves_sums(ms) -> ValidationReport:
    """Dilation of a direct sum versus the direct sum of dilations.

    The canonical comparison is assembled from the dilated inclusion
    morphisms and asserted to be a bijective intertwiner.
    """
    ms = list(ms)
    report = ValidationReport("dilation preserves direct sums")
    total = direct_sum(ms)
    std_total = standard_dilation(total)
    stds = [standard_dilation(m) for m in ms]
    total_bar_dim = std_total.projected.module.dim
    report.record("dimension additivity",
                  total_bar_dim == sum(s.projected.module.dim for s in stds))

    offset = 0
    cols = []
    for m, s in zip(ms, stds):
        inj = Mat([[1 if r == offset + c else 0 for c in range(m.dim)]
                   for r in range(total.dim)], cols=m.dim)
        bar = dilate_morphism(ModuleMorphism.build(m, total, inj))
        cols.extend(bar.col_list())
        offset += m.dim
    canonical = Mat.from_cols(cols, total_bar_dim) if cols \
        else Mat.zeros(total_bar_dim, 0)

    bijective = canonical.rows == canonical.cols == rank(canonical)
    report.record("canonical map bijective", bijective)

    if ms and bijective:
        summed = [block_diag([s.projected.module.pi[i] for s in stds])
                  for i in range(ms[0].hopf.dim)]
        report.record("canonical map H-linear",
                      all(canonical * summed[i]
                          == std_total.projected.module.pi[i] * canonical
                          for i in range(ms[0].hopf.dim)))
    return report
