"""Partial module algebras, smash products, globalization and Morita data.

A partial module algebra is a unital algebra carrying a symmetric partial
action of the Hopf algebra.  Its globalization is computed concretely as
the standard dilation of the underlying module equipped with the
convolution product; the comparison maps between the partial smash
product and the smash product of the globalization are then plain
matrices whose claimed properties (mutually inverse, multiplicative,
bimodule stability, surjective Morita maps) are all checked exactly.

Every product and every Sweedler sum over a tensor product is a matrix
built from two constructions: the regular representation of an algebra
given by structure constants (the left multiplications L_s of
`hopf.left_mults` and the right multiplications R_s that
`hopf.right_from_left` reads off them), and the diagonal action
`hopf.diagonal_action`.  So A # H acts on A (x) H by (L_a (x) 1)
composed with the diagonal action of h.  PA2 needs no operator on
B (x) B: block a of its two sides for e_i is pi(e_i) L_a and
sum c L(e_p . e_a) pi(e_q) over Delta(e_i) = sum c e_p (x) e_q.  Each
axiom is a matrix identity whose witness is read off the first nonzero
column of the difference; the unit and associativity witnesses read the
L_s as well, and no construction reads a dense product cube.

The three algebra classes derive from `hopf.ConstantsAlgebra`, so each
object builds its ``left`` and ``right`` at most once, and none of them
builds a sparse table of its constants.  A subalgebra (eB, the partial
smash product, the globalization) gets its L_s from the same elimination
that finds its unit, and its builder stores them through `_memo`;
`global_smash` stores its smash operators, which are its L_s, and
`partial_smash` also records its smash idempotent as ``projector`` and
B (x) H with the diagonal action as ``ambient_module``.
Memos are not fields, so equality, hashing and digests see only the
fields.
"""

from dataclasses import dataclass

from . import hopf as hp
from .dilation import _factor_through, check_dilation, dilate_morphism, standard_dilation
from .hopf import (ConstantsAlgebra, HopfAlgebraData, _associativity_witness, _freeze3,
                   _memo, _unit_witness, diagonal_action, mult_by, right_from_left)
from .linalg import (Mat, ShapeError, Subspace, _col, _columns, block_diag, column_space,
                     first_nonzero_col, first_unstable, frac, hstack,
                     echelon_coords, intertwining_witness, kron, rank, reshape,
                     restrict_operators, solve_matrix, split_blocks, vstack)
from .partial import (ModuleMorphism, PartialModule, _algebra_generators, _mult_grid,
                      check_partial_rep, is_global, regular_module)
from .projection import _translates
from .reports import ValidationError, ValidationReport


@dataclass(frozen=True)
class PartialModuleAlgebra(ConstantsAlgebra):
    """Unital algebra with structure constants plus a partial Hopf action."""

    _table = "alg_mult"
    hopf: HopfAlgebraData
    dim: int
    alg_mult: tuple
    alg_unit: tuple
    action: tuple

    @staticmethod
    def build(hopf, alg_mult, alg_unit, action):
        alg_mult = _freeze3(alg_mult)
        alg_unit = tuple(frac(x) for x in alg_unit)
        action = tuple(a if isinstance(a, Mat) else Mat(a) for a in action)
        dim = len(alg_unit)
        if (len(alg_mult) != dim or len(action) != hopf.dim
                or any(len(plane) != dim or any(len(row) != dim for row in plane)
                       for plane in alg_mult)):
            raise ShapeError("inconsistent algebra data")
        if any(a.rows != dim or a.cols != dim for a in action):
            raise ShapeError("action matrix size mismatch")
        return PartialModuleAlgebra(hopf, dim, alg_mult, alg_unit, action)

    def as_module(self) -> PartialModule:
        """The underlying partial module, one instance per algebra.

        Sharing the instance lets its PR1-PR5 checks run once, whether
        check_partial_action or standard_dilation asks first.
        """
        return _memo(self, "_module",
                     lambda: PartialModule(self.hopf, self.dim, self.action))


@dataclass(frozen=True)
class GlobalModuleAlgebra(ConstantsAlgebra):
    """A (possibly non-unital) algebra with a global action by algebra maps."""

    _table = "alg_mult"
    hopf: HopfAlgebraData
    dim: int
    alg_mult: tuple
    action: tuple
    unital: bool
    alg_unit: tuple = None


@dataclass(frozen=True)
class SmashAlgebra(ConstantsAlgebra):
    """An algebra living on a subspace of B (x) H, by structure constants.

    ``ambient`` records the defining subspace of the tensor space,
    ``h_embedding`` the images of the elements 1 # e_i, and ``module`` the
    partial module structure (left multiplication by those elements for
    the partial smash, the diagonal action for the global one).
    """

    hopf: HopfAlgebraData
    factor_dim: int
    ambient: Subspace
    dim: int
    mult: tuple
    unit: tuple
    h_embedding: tuple
    module: PartialModule


def check_partial_action(b: PartialModuleAlgebra) -> ValidationReport:
    """All four partial action axioms over basis triples, plus the module law.

    PA1: the unit of H acts as the identity; PA2: multiplicativity through
    the coproduct; PA3 and PA3' are the two symmetric composition rules.
    """
    mod = b.as_module()
    report = ValidationReport("partial module algebra")
    report.record("algebra associativity", *_flag(_associativity_witness(b.left)))
    report.record("algebra unit", _unit_witness(b.left, _col(b.alg_unit)) is None)
    report.record("PA1", mult_by(b.action, _col(b.hopf.unit))[0] == Mat.identity(b.dim))
    report.record("PA2", *_flag(_first_difference(_pa2_sides(b), b.dim)))
    pa3, pa3_primed = _pa3_sides(b)
    report.record("PA3", *_flag(_first_difference(pa3, b.dim)))
    report.record("PA3'", *_flag(_first_difference(pa3_primed, b.dim)))

    mod_report = check_partial_rep(mod)
    report.record("underlying partial module", mod_report.ok,
                  None if mod_report.ok else [c.name for c in mod_report.failures()])
    return report


def _flag(witness):
    return witness is None, witness


def _first_difference(sides, width):
    """(i, *divmod(j, width)) for the first pair (lhs_i, rhs_i) of sides that
    differs, j the first nonzero column of lhs_i - rhs_i; None if none does."""
    return next(((i, *divmod(first_nonzero_col(lhs - rhs), width))
                 for i, (lhs, rhs) in enumerate(sides) if lhs != rhs), None)


def _pa2_sides(b, indices=None):
    """Per e_i, i in indices (every basis index when None), the m x m^2
    sides of PA2, whose block a is pi(e_i) L_a and sum c L(e_p . e_a) pi(e_q)
    over Delta(e_i) = sum c e_p (x) e_q: column (a, c) is e_i . (e_a e_c)
    and (e_i(1) . e_a)(e_i(2) . e_c), the witness."""
    h, m, pi, mu = b.hopf, b.dim, b.action, _columns(b.dim, b.left)
    moved = [mult_by(b.left, a) for a in pi]  # L(e_p . e_a)
    return [(pi[i] * mu, _columns(m, [hp.comult_sum(h, i, lambda p, q: moved[p][k] * pi[q],
                                                    m, m) for k in range(m)]))
            for i in (range(h.dim) if indices is None else indices)]


def _pa3_sides(b):
    """The sides of PA3 and of PA3' per e_i, as m x d m block rows over k.

    Block k of the left side is pi(e_i) pi(e_k).  With Delta(e_i) =
    sum c e_p (x) e_q, block k of the right side is sum c L(e_p . 1)
    pi(e_q e_k) for PA3 and sum c R(e_q . 1) pi(e_p e_k) for PA3'; the
    pi(e_p e_k), k = 0..d-1, are block row p of the "mult" Sweedler grid,
    memoized on the algebra's module.
    """
    h, m = b.hopf, b.dim
    ones = _translates(b.as_module(), _col(b.alg_unit))
    left, right = mult_by(b.left, ones), mult_by(b.right, ones)
    translates = [row for row, in split_blocks(
        _mult_grid(b.as_module()), [m] * h.dim, [h.dim * m])]
    stacked = hstack(b.action)
    lhs = [a * stacked for a in b.action]

    def sides(term):
        return [(lhs[i], hp.comult_sum(h, i, term, m, h.dim * m)) for i in range(h.dim)]

    return (sides(lambda p, q: left[p] * translates[q]),
            sides(lambda p, q: right[q] * translates[p]))


def check_global_action(b: PartialModuleAlgebra) -> ValidationReport:
    """Global module algebra axioms: multiplicative action, PA2, h.1 = eps(h)1."""
    report = ValidationReport("global module algebra")
    mod = b.as_module()
    report.record("action multiplicative",
                  check_partial_rep(mod).ok and is_global(mod))
    report.record("action through the coproduct",
                  *_flag(_first_difference(_pa2_sides(b), b.dim)))
    one = _col(b.alg_unit)
    report.record("unit scaled by counit",
                  all(a * one == one.scale(c) for a, c in zip(b.action, b.hopf.counit)))
    return report


def induced_partial_algebra(b_global: PartialModuleAlgebra, e) -> PartialModuleAlgebra:
    """Cut a global module algebra down to eB along a central idempotent.

    The compression a -> e(h . a) of the global action is the motivating
    example of a symmetric partial action; its axioms are re-checked on
    the produced instance.
    """
    glob = check_global_action(b_global)
    if not glob.ok:
        raise ValidationError(glob)
    e = _col(e)
    left_e, = mult_by(b_global.left, e)
    if left_e * e != e:
        raise ValidationError("e is not idempotent")
    if (left_e,) != mult_by(b_global.right, e):
        raise ValidationError("e is not central")

    sub = column_space(left_e)
    incl = sub.basis.transpose()
    left, unit = _subalgebra_left(sub, mult_by(b_global.left, incl), e,
                                  "eB is not closed as expected")
    action = restrict_operators([left_e * a for a in b_global.action], sub)
    out = PartialModuleAlgebra.build(b_global.hopf, [a.col_list() for a in left],
                                     unit.col(0), action)
    _memo(out, "_left", lambda: left)
    rep = check_partial_action(out)
    if not rep.ok:
        raise ValidationError(rep)
    return out


def direct_product(algebras) -> PartialModuleAlgebra:
    """Componentwise product of partial module algebras over the same H."""
    algebras = list(algebras)
    if not algebras:
        raise ValueError("direct product needs at least one algebra")
    h = algebras[0].hopf
    if any(a.hopf != h for a in algebras):
        raise ValueError("different Hopf algebras")
    # e_s of a factor multiplies by L_s on its block and by 0 elsewhere
    zeros = [Mat.zeros(a.dim, a.dim) for a in algebras]
    mult = [block_diag(zeros[:n] + [left] + zeros[n + 1:]).col_list()
            for n, a in enumerate(algebras) for left in a.left]
    unit = [x for a in algebras for x in a.alg_unit]
    action = [block_diag([a.action[i] for a in algebras]) for i in range(h.dim)]
    return PartialModuleAlgebra.build(h, mult, unit, action)


def _subalgebra_left(sub, ops, extra, msg):
    """The L_s of the algebra on the subspace sub, whose echelon basis
    vectors u_s are the columns of incl = sub.basis^T, and the coordinates
    of the columns of extra, given ops[s], the operator of multiplication
    by u_s on the ambient space.

    The `echelon_coords` of [ops[0] incl | ... | ops[r-1] incl | extra]:
    block s is L_s, its column j the coordinates of u_s u_j.  Raises
    ValidationError(msg) when the span is not closed or extra leaves it.
    """
    incl = sub.basis.transpose()
    blocks = echelon_coords(sub, [op * incl for op in ops] + [extra])
    if blocks is None:
        raise ValidationError(msg)
    *left, coords = blocks
    return tuple(left), coords


# -- the smash products --------------------------------------------------------

def _smash_operators(alg, diag):
    """Left multiplication by e_a # e_h on A (x) H, for index a d + h.

    (e_a # h)(c # k) = e_a (h_(1) . c) # h_(2) k, so e_a # e_h acts as
    (L_a (x) 1) D_h, with diag the diagonal action D of H on A (x) H.
    """
    ident = Mat.identity(alg.hopf.dim)
    return [kron(la, ident) * dh for la in alg.left for dh in diag]


def _unit_tensors(u, h):
    """The columns u # 1, u # e_0, ..., u # e_{d-1}."""
    return kron(_col(u), hstack([_col(h.unit), Mat.identity(h.dim)]))


def _smash_projector(b: PartialModuleAlgebra, ops) -> Mat:
    """The idempotent b (x) h -> b (h_(1) . 1) (x) h_(2) on B (x) H.

    It is right multiplication by 1 # 1: given the smash operators ops of
    b, column i is ops[i] applied to 1 (x) 1.
    """
    one = kron(_col(b.alg_unit), _col(b.hopf.unit))
    return _columns(b.dim * b.hopf.dim, [op * one for op in ops])


def partial_smash(b: PartialModuleAlgebra) -> SmashAlgebra:
    """The unital algebra on the image of the smash idempotent inside B (x) H.

    Also installs the canonical partial module structure given by left
    multiplication with the elements 1 # e_i and checks it satisfies the
    five partial representation identities.  The result records, as
    attributes outside the fields, its L_s, read by ``left``,
    ``projector``: the smash idempotent on B (x) H whose image it lives on,
    and ``ambient_module``: B (x) H with the diagonal action.
    """
    h = b.hopf
    ambient = PartialModule(h, b.dim * h.dim,
                            diagonal_action(h, b.action, regular_module(h).pi))
    ops = _smash_operators(b, ambient.pi)
    pr = _smash_projector(b, ops)
    if pr * pr != pr:
        raise ValidationError("smash projector is not idempotent; "
                              "input is not a valid partial action")
    sub = column_space(pr)
    r = sub.dim
    incl = sub.basis.transpose()

    left, coords = _subalgebra_left(sub, mult_by(ops, incl),
                                    pr * _unit_tensors(b.alg_unit, h),
                                    "smash product left its defining subspace")
    unit, ones = split_blocks(coords, [r], [1, h.dim])[0]
    if _unit_witness(left, unit) is not None:
        raise ValidationError("1 # 1 is not a two-sided unit")
    module = PartialModule(h, r, mult_by(left, ones))
    out = SmashAlgebra(h, b.dim, sub, r, tuple(a.transpose().entries for a in left),
                       unit.col(0), tuple(ones.col_list()), module)
    _memo(out, "_left", lambda: left)
    _memo(out, "projector", lambda: pr)
    _memo(out, "ambient_module", lambda: ambient)
    witness = _associativity_witness(out.left)
    if witness is not None:
        raise ValidationError(f"smash product is not associative at {witness}")

    rep = check_partial_rep(module)
    if not rep.ok:
        raise ValidationError(rep)
    return out


def global_smash(gb: GlobalModuleAlgebra) -> SmashAlgebra:
    """Smash product Bbar # H on the full tensor space Bbar (x) H.

    The product is (f # h)(g # k) = f * (h_(1) . g) # h_(2) k; the module
    field carries the diagonal H-action under which Bbar # H is just
    Bbar (x) H.  The result stores its smash operators as its L_s.
    """
    h = gb.hopf
    dim = gb.dim * h.dim
    diag = diagonal_action(h, gb.action, regular_module(h).pi)
    ops = _smash_operators(gb, diag)
    unit, ones = None, ()
    if gb.unital:
        unit, *ones = _unit_tensors(gb.alg_unit, h).col_list()
        ones = tuple(ones)
    out = SmashAlgebra(h, gb.dim, Subspace.full(dim), dim,
                       tuple(op.transpose().entries for op in ops), unit, ones,
                       PartialModule(h, dim, diag))
    _memo(out, "_left", lambda: tuple(ops))
    witness = _associativity_witness(out.left)
    if witness is not None:
        raise ValidationError(f"global smash product not associative at {witness}")
    if unit is not None and _unit_witness(ops, _col(unit)) is not None:
        raise ValidationError("1 # 1 is not a unit although Bbar is unital")
    return out


# -- globalization ------------------------------------------------------------

def _convolution_ops(b: PartialModuleAlgebra, fs: Mat):
    """The operators g -> f * g on B^d, one per column f of fs.

    (f * g)(e_k) = sum c f(e_p) g(e_q) over Delta(e_k) = sum c e_p (x) e_q,
    so the operator is the "row" Sweedler grid of the L(f(e_p)): its block
    (k, q) is sum c L(f(e_p)) over the terms of Delta(e_k) with second leg q.
    """
    h, m = b.hopf, b.dim
    legs = [mult_by(b.left, f_p) for f_p, in split_blocks(fs, [m] * h.dim, [fs.cols])]
    return [hp.sweedler_grid(h, m, [("row", at)]) for at in zip(*legs)]


def _find_unit(left, right):
    """The two-sided unit u, sum u_s L_s = I = sum u_s R_s, of a nonzero algebra
    with L_s left and R_s right, or None: column j says R_j u = e_j = L_j u."""
    n = len(left)
    ident = reshape(Mat.identity(n), n * n, 1)
    u = solve_matrix(vstack(right + left), vstack([ident, ident])) if n else None
    return None if u is None else u.col(0)


def _idempotency_sides(b: PartialModuleAlgebra, gb: GlobalModuleAlgebra, phi):
    """Per e_i, sum c R(e_q . phi(1)) (e_p . phi) over Delta(e_i) and e_i . phi.

    Column j of the two sides is sum c (e_p . phi(e_j))(e_q . phi(1)) and
    e_i . phi(e_j), with the action and right multiplications of Bbar.
    """
    phi_unit = phi * _col(b.alg_unit)
    by_unit = mult_by(gb.right, hstack([a * phi_unit for a in gb.action]))
    return [(hp.comult_sum(b.hopf, i, lambda p, q: by_unit[q] * gb.action[p] * phi,
                           gb.dim, b.dim), a * phi)
            for i, a in enumerate(gb.action)]


def globalize(b: PartialModuleAlgebra):
    """Enveloping action: the standard dilation with the convolution product.

    Returns (Bbar, phi, report) where Bbar is an idempotent, possibly
    non-unital global module algebra on the dilation of the underlying
    module, and phi embeds B multiplicatively as an ideal; the restriction
    of the global action along phi recovers the partial action exactly.

    "Action by algebra maps" checks PA2 on Bbar for the algebra generators
    g of H only, and they suffice.  The set S of the h with
    h . (ab) = (h_(1) . a)(h_(2) . b) for all a, b in Bbar is a subspace,
    as both sides are linear in h.  Bbar's module is global, as
    `ProjectedModule.build` proved for the dilation, so 1 acts as the
    identity and 1 is in S.  For h, k in S, (hk) . (ab) = h . (k . (ab)) =
    h . ((k_(1) . a)(k_(2) . b)) = (h_(1) k_(1) . a)(h_(2) k_(2) . b), and
    Delta(hk) = Delta(h) Delta(k) makes that ((hk)_(1) . a)((hk)_(2) . b).
    So S is a unital subalgebra that contains the generators, hence S = H.
    PA2 on B, in `check_partial_action`, is checked on every basis
    element, as a partial action is not multiplicative.
    """
    rep = check_partial_action(b)
    if not rep.ok:
        raise ValidationError(rep)
    h = b.hopf
    m, d = b.dim, h.dim
    std = standard_dilation(b.as_module())
    mod = std.projected.module
    mb = mod.dim
    incl = std.ambient_inclusion
    # the dilation's space in B^d, whose echelon basis incl transposes
    space = Subspace(m * d, incl.transpose())

    report = ValidationReport("globalization")

    left, _ = _subalgebra_left(space, _convolution_ops(b, incl), Mat.zeros(m * d, 0),
                               "convolution leaves the dilation subspace")
    right = right_from_left(left)
    unit_coords = _find_unit(left, right)
    gb = GlobalModuleAlgebra(h, mb, tuple(a.transpose().entries for a in left), mod.pi,
                             unital=unit_coords is not None,
                             alg_unit=unit_coords)
    _memo(gb, "_left", lambda: left)
    _memo(gb, "_right", lambda: right)

    phi = std.theta
    report.record("phi multiplicative", intertwining_witness(
        phi, b.left, mult_by(left, phi)) is None)
    report.record("phi(B) is a two-sided ideal",
                  first_unstable(column_space(phi), left + right) is None)

    report.record("Bbar is idempotent", column_space(_columns(mb, left)).dim == mb)

    report.record("action by algebra maps",
                  _first_difference(_pa2_sides(gb, _algebra_generators(h)), mb) is None)

    # theta pi(e_i) = t pi_N(e_i) theta, proved for the dilation of b.as_module()
    report.record("restricted action equals the partial action",
                  check_dilation(std).check_named("intertwining").passed)

    report.record("idempotency witness identity",
                  all(lhs == rhs for lhs, rhs in _idempotency_sides(b, gb, phi)))

    if not report.ok:
        raise ValidationError(report)
    return gb, phi, report


# -- the comparison of the two smash products ----------------------------------

def zeta_xi(b: PartialModuleAlgebra):
    """The mutually inverse maps between over(B (x) H) and Bbar (x) H.

    zeta sends a translate of an embedded tensor to the translated
    embedding with the leftover Hopf leg multiplied in; xi inverts it with
    an antipode twist.  Both are built by decomposing along translates and
    verified to be well defined, mutually inverse and H-linear.  The
    dilation of the partial smash product is then split off Bbar # H as a
    direct summand.
    """
    h = b.hopf
    m, d = b.dim, h.dim
    std_b = standard_dilation(b.as_module())
    mbar = std_b.projected.module
    reg = regular_module(h)
    sm = partial_smash(b)
    bh = sm.ambient_module
    std_bh = standard_dilation(bh)
    over = std_bh.projected.module
    dim_bt = mbar.dim * d
    ident_d = Mat.identity(d)

    report = ValidationReport("smash dilation comparison")

    # Bbar (x) H with the diagonal action; zeta must intertwine
    diag = diagonal_action(h, mbar.pi, reg.pi)
    theta_bh = kron(std_b.theta, ident_d)
    zeta = _factor_through(_translates(over, std_bh.theta),
                           hstack([di * theta_bh for di in diag]))

    # block i: sum c over(e_p) theta (1 (x) L(S e_q)) over Delta(e_i)
    twisted = [std_bh.theta * kron(Mat.identity(m), s)
               for s in hp.antipode_images(h, reg.pi)]
    xi_target = hstack([hp.comult_sum(h, i, lambda p, q: over.pi[p] * twisted[q],
                                      over.dim, m * d)
                        for i in range(d)])
    xi = _factor_through(kron(_translates(mbar, std_b.theta), ident_d), xi_target)

    inverse_ok = (zeta * xi == Mat.identity(dim_bt)
                  and xi * zeta == Mat.identity(over.dim))
    report.record("zeta and xi are mutually inverse", inverse_ok)
    report.record("dimensions agree", over.dim == dim_bt)
    report.record("zeta is H-linear", intertwining_witness(zeta, over.pi, diag) is None)

    # the partial smash product is a direct summand of B (x) H
    pr = sm.projector
    report.record("smash idempotent commutes with the action",
                  intertwining_witness(pr, bh.pi, bh.pi) is None)

    iota = ModuleMorphism.build(sm.module, bh, sm.ambient.basis.transpose())
    pr_coords, = echelon_coords(sm.ambient, [pr])
    rho = ModuleMorphism.build(bh, sm.module, pr_coords)
    iota_bar = dilate_morphism(iota)
    rho_bar = dilate_morphism(rho)
    split_in = zeta * iota_bar
    split_out = rho_bar * xi
    over_sm_dim = standard_dilation(sm.module).projected.module.dim
    report.record("split injection into Bbar # H",
                  split_out * split_in == Mat.identity(over_sm_dim)
                  and rank(split_in) == over_sm_dim)
    if not report.ok:
        raise ValidationError(report)
    return zeta, xi, report


def _phi_expressions(b: PartialModuleAlgebra, phi, pr, right):
    """The three expressions for Phi(e_a # e_h), as the columns a d + h:
    (phi (x) id) pr, R(phi(1) # 1) (phi (x) id) and the two composed, where
    pr is the smash projector and right the R_s of Bbar # H."""
    h = b.hopf
    phi_amb = kron(phi, Mat.identity(h.dim))
    by_one, = mult_by(right, kron(phi * _col(b.alg_unit), _col(h.unit)))
    return phi_amb * pr, by_one * phi_amb, by_one * phi_amb * pr


def _evaluated_sides(b: PartialModuleAlgebra, gb: GlobalModuleAlgebra, phi):
    """Per e_h, the two m d x m sides of the evaluated smash identity.

    With Delta(e_h) = sum c e_p (x) e_q, column a of the first side is the
    element sum c phi(e_a (e_p . 1)) (e_q . phi(1)) of Bbar, read in B^d
    through the dilation's inclusion.  With Delta(e_k) = sum c e_r (x) e_s,
    block k of the second is sum c R(pi(e_s e_h) 1) pi(e_r).
    """
    h, m = b.hopf, b.dim
    incl = standard_dilation(b.as_module()).ambient_inclusion
    one = _col(b.alg_unit)
    ones = _translates(b.as_module(), one)  # column p is pi(e_p) 1
    twisted = [phi * r for r in mult_by(b.right, ones)]
    phi_unit = phi * one
    by_unit = mult_by(gb.right, hstack([a * phi_unit for a in gb.action]))
    # column i of ones L_s is pi(e_s e_i) 1, so at_one[s][i] = R(pi(e_s e_i) 1)
    at_one = [mult_by(b.right, ones * left_s) for left_s in h.left]
    return [(incl * hp.comult_sum(h, i, lambda p, q: by_unit[q] * twisted[p],
                                  gb.dim, m),
             vstack([hp.comult_sum(h, k, lambda r, s: at_one[s][i] * b.action[r], m, m)
                     for k in range(h.dim)]))
            for i in range(h.dim)]


def _q_generators(bs: SmashAlgebra, phi):
    """The columns D_i (phi(e_v) (x) 1), i major, that span Q; D is the
    diagonal action of H on Bbar (x) H, the module of bs."""
    base = kron(phi, _col(bs.hopf.unit))
    return hstack([di * base for di in bs.module.pi])


def morita_context(b: PartialModuleAlgebra):
    """The bimodules P, Q inside Bbar # H and the two Morita multiplications.

    P is the image of B (x) H under phi (x) id, Q the span of the twisted
    translates; stability under the appropriate one-sided multiplications
    and surjectivity of both Morita maps are checked by exact rank
    computations on the shipped instance.
    """
    gb, phi, _ = globalize(b)
    sm = partial_smash(b)
    bs = global_smash(gb)
    dim_bt = bs.dim
    left, right = bs.left, bs.right

    report = ValidationReport("morita context")

    phi_amb = kron(phi, Mat.identity(b.hopf.dim))
    phi_sm = phi_amb * sm.ambient.basis.transpose()
    phi_sm_left = mult_by(left, phi_sm)
    report.record("Phi multiplicative",
                  intertwining_witness(phi_sm, sm.left, phi_sm_left) is None)

    e1, e2, e3 = _phi_expressions(b, phi, sm.projector, right)
    report.record("three expressions for Phi(b # h) agree", e1 == e2 == e3)
    report.record("evaluated smash identity",
                  all(lhs == rhs for lhs, rhs in _evaluated_sides(b, gb, phi)))

    p_space = column_space(phi_amb)
    q_space = column_space(_q_generators(bs, phi))
    phi_sm_image = column_space(phi_sm)
    report.record(
        "P stable under Phi(B#H) on the left and Bbar#H on the right",
        first_unstable(p_space, phi_sm_left + right) is None)
    report.record(
        "Q stable under Bbar#H on the left and Phi(B#H) on the right",
        first_unstable(q_space, left + mult_by(right, phi_sm))
        is None)

    p_mat, q_mat = p_space.basis.transpose(), q_space.basis.transpose()
    tau_image = column_space(_columns(dim_bt, [a * q_mat for a in mult_by(left, p_mat)]))
    report.record("tau lands in Phi(B#H)",
                  phi_sm_image.contains_subspace(tau_image))
    report.record("tau surjective onto Phi(B#H)", tau_image == phi_sm_image)

    mu_image = column_space(_columns(dim_bt, [a * p_mat for a in mult_by(left, q_mat)]))
    report.record("mu surjective onto Bbar#H", mu_image.dim == dim_bt)
    return p_space, q_space, report
