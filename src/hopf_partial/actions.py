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
given by structure constants (the left and right multiplications L_s and
R_s of `hopf.left_mults` and `hopf.right_mults`), and the diagonal action
`partial.diagonal_action`.  So A # H acts on A (x) H by (L_a (x) 1)
composed with the diagonal action of h, and B is a module algebra exactly
when its product mu: B (x) B -> B is H-linear.  Each axiom is a matrix
identity whose witness is read off the first nonzero column of the
difference; the unit witness reads the L_s as well.

`partial_smash` and `global_smash` are the only builders of the two smash
products.  Each builds its left multiplications once and records them as
the attribute ``left`` (the partial one also records its smash idempotent
as ``projector``), so that `zeta_xi` and `morita_context` reuse them
instead of rebuilding them.  Like ``mult_terms`` these attributes are not
fields, so equality, hashing and digests see only the fields.
"""

from dataclasses import dataclass

from .dilation import (_factor_through, _translates, dilate_morphism,
                       standard_dilation)
from .hopf import (HopfAlgebraData, _associativity_witness, _freeze3,
                   _mult_terms, _unit_witness, left_mults, mult_by, right_mults)
from .linalg import (Mat, ShapeError, Subspace, _mat_sum, block_diag,
                     column_space, first_nonzero_col, first_unstable, frac,
                     hstack, kron, mat_to_vec, rank, restrict_operators, solve,
                     solve_matrix, vec_scale, vstack)
from .partial import (ModuleMorphism, PartialModule, _memo, antipode_images,
                      check_partial_rep, diagonal_action, is_global,
                      regular_module, tensor_with_global)
from .reports import ValidationError, ValidationReport


@dataclass(frozen=True)
class PartialModuleAlgebra:
    """Unital algebra with structure constants plus a partial Hopf action."""

    hopf: HopfAlgebraData
    dim: int
    alg_mult: tuple
    alg_unit: tuple
    action: tuple

    def __post_init__(self):
        object.__setattr__(self, "mult_terms", _mult_terms(self.alg_mult))

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
class GlobalModuleAlgebra:
    """A (possibly non-unital) algebra with a global action by algebra maps."""

    hopf: HopfAlgebraData
    dim: int
    alg_mult: tuple
    action: tuple
    unital: bool
    alg_unit: tuple = None


@dataclass(frozen=True)
class SmashAlgebra:
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

    def __post_init__(self):
        object.__setattr__(self, "mult_terms", _mult_terms(self.mult))


def check_partial_action(b: PartialModuleAlgebra) -> ValidationReport:
    """All four partial action axioms over basis triples, plus the module law.

    PA1: the unit of H acts as the identity; PA2: multiplicativity through
    the coproduct; PA3 and PA3' are the two symmetric composition rules.
    """
    mod = b.as_module()
    left, right = left_mults(b.alg_mult, b.dim), right_mults(b.alg_mult, b.dim)
    report = ValidationReport("partial module algebra")
    report.record("algebra associativity", *_flag(_associativity_witness(b.mult_terms)))
    report.record("algebra unit", _unit_witness(left, b.alg_unit) is None)
    report.record("PA1", mod.pi_vec(b.hopf.unit) == Mat.identity(b.dim))
    report.record("PA2", *_flag(_first_difference(_pa2_sides(b), b.dim)))
    pa3, pa3_primed = _pa3_sides(b, left, right)
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


def _pa2_sides(b):
    """Per e_i, pi(e_i) mu and mu D_i, with mu: B (x) B -> B the product and
    D the diagonal action on B (x) B: column (a, c) of the two sides is
    e_i . (e_a e_c) and (e_i(1) . e_a)(e_i(2) . e_c), the PA2 witness."""
    mu = Mat.from_cols([v for plane in b.alg_mult for v in plane], b.dim)
    diag = diagonal_action(b.hopf, b.action, b.action)
    return [(a * mu, mu * di) for a, di in zip(b.action, diag)]


def _pa3_sides(b, left_b, right_b):
    """The sides of PA3 and of PA3' per e_i, as m x d m block rows over k,
    given the left and right multiplications of B.

    Block k of the left side is pi(e_i) pi(e_k).  With Delta(e_i) =
    sum c e_p (x) e_q, block k of the right side is sum c L(e_p . 1)
    pi(e_q e_k) for PA3 and sum c R(e_q . 1) pi(e_p e_k) for PA3'.
    """
    h, m = b.hopf, b.dim
    mod = b.as_module()
    ones = [a.apply(b.alg_unit) for a in b.action]
    left = [mult_by(left_b, u) for u in ones]
    right = [mult_by(right_b, u) for u in ones]
    translates = [hstack([mod.pi_vec(h.mult[p][k]) for k in range(h.dim)])
                  for p in range(h.dim)]
    stacked = hstack(b.action)
    lhs = [a * stacked for a in b.action]

    def sides(term):
        return [(lhs[i], _mat_sum(((term(p, q), c) for p, q, c in h.comult_terms[i]),
                                  m, h.dim * m))
                for i in range(h.dim)]

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
    report.record("unit scaled by counit",
                  all(a.apply(b.alg_unit) == vec_scale(b.alg_unit, c)
                      for a, c in zip(b.action, b.hopf.counit)))
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
    e = tuple(frac(x) for x in e)
    left = left_mults(b_global.alg_mult, b_global.dim)
    left_e = mult_by(left, e)
    if left_e.apply(e) != e:
        raise ValidationError("e is not idempotent")
    if left_e != mult_by(right_mults(b_global.alg_mult, b_global.dim), e):
        raise ValidationError("e is not central")

    space = column_space(left_e)
    incl = space.basis.transpose()
    sub_dim = space.dim
    prods = [mult_by(left, u) * incl for u in incl.col_list()]
    *coords, unit = _coords(incl, hstack(prods + [_col(e)]),
                            "eB is not closed as expected")
    mult = [coords[i * sub_dim:(i + 1) * sub_dim] for i in range(sub_dim)]
    action = restrict_operators([left_e * a for a in b_global.action], incl)
    out = PartialModuleAlgebra.build(b_global.hopf, mult, unit, action)
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
            for n, a in enumerate(algebras) for left in left_mults(a.alg_mult, a.dim)]
    unit = [x for a in algebras for x in a.alg_unit]
    action = [block_diag([a.action[i] for a in algebras]) for i in range(h.dim)]
    return PartialModuleAlgebra.build(h, mult, unit, action)


def _col(v):
    """The vector v as a one-column matrix."""
    return Mat.from_cols([v], len(v))


def _columns(rows, mats):
    """hstack(mats), or the rows x 0 matrix when there are none."""
    return hstack([Mat.zeros(rows, 0), *mats])


def _coords(incl, targets, msg):
    """Coordinates c_k with incl c_k = column k of targets, by one solve_matrix.

    Raises ValidationError(msg) when any column is outside the span.
    """
    c = solve_matrix(incl, targets)
    if c is None:
        raise ValidationError(msg)
    return c.col_list()


# -- the smash products --------------------------------------------------------

def _smash_operators(alg, diag):
    """Left multiplication by e_a # e_h on A (x) H, for index a d + h.

    (e_a # h)(c # k) = e_a (h_(1) . c) # h_(2) k, so e_a # e_h acts as
    (L_a (x) 1) D_h, with diag the diagonal action D of H on A (x) H.
    """
    ident = Mat.identity(alg.hopf.dim)
    return [kron(la, ident) * dh for la in left_mults(alg.alg_mult, alg.dim)
            for dh in diag]


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
    attributes outside the fields, ``left``: the left multiplications L_s
    of its structure constants, and ``projector``: the smash idempotent
    on B (x) H whose image it lives on.
    """
    h = b.hopf
    ops = _smash_operators(b, diagonal_action(h, b.action, regular_module(h).pi))
    pr = _smash_projector(b, ops)
    if pr * pr != pr:
        raise ValidationError("smash projector is not idempotent; "
                              "input is not a valid partial action")
    sub = column_space(pr)
    r = sub.dim
    incl = sub.basis.transpose()

    prods = [mult_by(ops, u) * incl for u in incl.col_list()]
    coords = _coords(incl, hstack(prods + [pr * _unit_tensors(b.alg_unit, h)]),
                     "smash product left its defining subspace")
    mult = [coords[i * r:(i + 1) * r] for i in range(r)]
    unit, *ones = coords[r * r:]
    left = left_mults(mult, r)
    if _unit_witness(left, unit) is not None:
        raise ValidationError("1 # 1 is not a two-sided unit")
    module = PartialModule(h, r, tuple(mult_by(left, ci) for ci in ones))
    out = SmashAlgebra(h, b.dim, sub, r, _freeze3(mult), unit, tuple(ones), module)
    witness = _associativity_witness(out.mult_terms)
    if witness is not None:
        raise ValidationError(f"smash product is not associative at {witness}")

    rep = check_partial_rep(module)
    if not rep.ok:
        raise ValidationError(rep)
    object.__setattr__(out, "left", tuple(left))
    object.__setattr__(out, "projector", pr)
    return out


def global_smash(gb: GlobalModuleAlgebra) -> SmashAlgebra:
    """Smash product Bbar # H on the full tensor space Bbar (x) H.

    The product is (f # h)(g # k) = f * (h_(1) . g) # h_(2) k; the module
    field carries the diagonal H-action under which Bbar # H is just
    Bbar (x) H.  The result records its left multiplications as the
    attribute ``left``, outside the fields.
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
                       _freeze3(op.col_list() for op in ops), unit, ones,
                       PartialModule(h, dim, diag))
    witness = _associativity_witness(out.mult_terms)
    if witness is not None:
        raise ValidationError(f"global smash product not associative at {witness}")
    if unit is not None and _unit_witness(ops, unit) is not None:
        raise ValidationError("1 # 1 is not a unit although Bbar is unital")
    object.__setattr__(out, "left", tuple(ops))
    return out


# -- globalization ------------------------------------------------------------

def _convolution_ops(b: PartialModuleAlgebra, fs: Mat):
    """The operators g -> f * g on B^d, one per column f of fs.

    (f * g)(e_k) = sum c f(e_p) g(e_q) over Delta(e_k) = sum c e_p (x) e_q,
    so block (k, q) of the operator is sum c L(f(e_p)): the operator is
    sum_p C_p (x) L(f(e_p)), where C_p[k][q] is the c of e_p (x) e_q.
    """
    h, m, d = b.hopf, b.dim, b.hopf.dim
    left = left_mults(b.alg_mult, m)
    legs = [Mat([[h.comult[k][p][q] for q in range(d)] for k in range(d)])
            for p in range(d)]
    return [_mat_sum(((kron(c, mult_by(left, f[p * m:(p + 1) * m])), 1)
                      for p, c in enumerate(legs)), m * d, m * d)
            for f in fs.col_list()]


def _find_unit(left, right):
    """The two-sided unit u, sum u_s L_s = I = sum u_s R_s, of a nonzero
    algebra with left_mults left and right_mults right, or None."""
    n = len(left)
    system = Mat.from_cols([mat_to_vec(a) + mat_to_vec(c) for a, c in zip(left, right)],
                           2 * n * n)
    ident = mat_to_vec(Mat.identity(n))
    return solve(system, ident + ident) if n else None


def _idempotency_sides(b: PartialModuleAlgebra, gb: GlobalModuleAlgebra, phi):
    """Per e_i, sum c R(e_q . phi(1)) (e_p . phi) over Delta(e_i) and e_i . phi.

    Column j of the two sides is sum c (e_p . phi(e_j))(e_q . phi(1)) and
    e_i . phi(e_j), with the action and right multiplications of Bbar.
    """
    right = right_mults(gb.alg_mult, gb.dim)
    phi_unit = phi.apply(b.alg_unit)
    by_unit = [mult_by(right, a.apply(phi_unit)) for a in gb.action]
    return [(_mat_sum(((by_unit[q] * gb.action[p] * phi, c)
                       for p, q, c in b.hopf.comult_terms[i]), gb.dim, b.dim),
             a * phi)
            for i, a in enumerate(gb.action)]


def globalize(b: PartialModuleAlgebra):
    """Enveloping action: the standard dilation with the convolution product.

    Returns (Bbar, phi, report) where Bbar is an idempotent, possibly
    non-unital global module algebra on the dilation of the underlying
    module, and phi embeds B multiplicatively as an ideal; the restriction
    of the global action along phi recovers the partial action exactly.
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

    report = ValidationReport("globalization")

    prods = _coords(incl, _columns(m * d, [op * incl for op in _convolution_ops(b, incl)]),
                    "convolution leaves the dilation subspace")
    mult = [prods[i * mb:(i + 1) * mb] for i in range(mb)]
    left, right = left_mults(mult, mb), right_mults(mult, mb)
    unit_coords = _find_unit(left, right)
    gb = GlobalModuleAlgebra(h, mb, _freeze3(mult), mod.pi,
                             unital=unit_coords is not None,
                             alg_unit=unit_coords)

    phi = std.theta
    report.record("phi multiplicative",
                  all(phi * a == mult_by(left, phi.col(i)) * phi
                      for i, a in enumerate(left_mults(b.alg_mult, m))))
    report.record("phi(B) is a two-sided ideal",
                  first_unstable(column_space(phi), left + right) is None)

    report.record("Bbar is idempotent", column_space(_columns(mb, left)).dim == mb)

    report.record("action by algebra maps",
                  _first_difference(_pa2_sides(gb), mb) is None)

    t = std.projected.t
    report.record("restricted action equals the partial action",
                  all(phi * b.action[i] == t * mod.pi[i] * phi for i in range(d)))

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
    mod_b = b.as_module()
    std_b = standard_dilation(mod_b)
    mbar = std_b.projected.module
    reg = regular_module(h)
    bh = tensor_with_global(mod_b, reg)
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
    twisted = [std_bh.theta * kron(Mat.identity(m), s) for s in antipode_images(reg)]
    xi_target = hstack([_mat_sum(((over.pi[p] * twisted[q], c)
                                  for p, q, c in h.comult_terms[i]), over.dim, m * d)
                        for i in range(d)])
    xi = _factor_through(kron(_translates(mbar, std_b.theta), ident_d), xi_target)

    inverse_ok = (zeta * xi == Mat.identity(dim_bt)
                  and xi * zeta == Mat.identity(over.dim))
    report.record("zeta and xi are mutually inverse", inverse_ok)
    report.record("dimensions agree", over.dim == dim_bt)
    report.record("zeta is H-linear",
                  all(zeta * over.pi[i] == diag[i] * zeta for i in range(d)))

    # the partial smash product is a direct summand of B (x) H
    sm = partial_smash(b)
    pr = sm.projector
    report.record("smash idempotent commutes with the action",
                  all(pr * bh.pi[i] == bh.pi[i] * pr for i in range(d)))

    incl_sm = sm.ambient.basis.transpose()
    iota = ModuleMorphism.build(sm.module, bh, incl_sm)
    rho = ModuleMorphism.build(bh, sm.module, solve_matrix(incl_sm, pr))
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
    by_one = mult_by(right, kron(_col(phi.apply(b.alg_unit)), _col(h.unit)).col(0))
    return phi_amb * pr, by_one * phi_amb, by_one * phi_amb * pr


def _evaluated_sides(b: PartialModuleAlgebra, gb: GlobalModuleAlgebra, phi):
    """Per e_h, the two m d x m sides of the evaluated smash identity.

    With Delta(e_h) = sum c e_p (x) e_q, column a of the first side is the
    element sum c phi(e_a (e_p . 1)) (e_q . phi(1)) of Bbar, read in B^d
    through the dilation's inclusion.  With Delta(e_k) = sum c e_r (x) e_s,
    block k of the second is sum c R(pi(e_s e_h) 1) pi(e_r).
    """
    h, m = b.hopf, b.dim
    mod = b.as_module()
    incl = standard_dilation(mod).ambient_inclusion
    right_b = right_mults(b.alg_mult, m)
    right_g = right_mults(gb.alg_mult, gb.dim)
    phi_unit = phi.apply(b.alg_unit)
    twisted = [phi * mult_by(right_b, a.apply(b.alg_unit)) for a in b.action]
    by_unit = [mult_by(right_g, a.apply(phi_unit)) for a in gb.action]
    # at_one[s][i] = R(pi(e_s e_i) 1)
    at_one = [[mult_by(right_b, mod.pi_vec(h.mult[s][i]).apply(b.alg_unit))
               for i in range(h.dim)] for s in range(h.dim)]
    return [(incl * _mat_sum(((by_unit[q] * twisted[p], c)
                              for p, q, c in h.comult_terms[i]), gb.dim, m),
             vstack([_mat_sum(((at_one[s][i] * b.action[r], c)
                               for r, s, c in h.comult_terms[k]), m, m)
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
    left, right = list(bs.left), right_mults(bs.mult, dim_bt)

    report = ValidationReport("morita context")

    phi_amb = kron(phi, Mat.identity(b.hopf.dim))
    phi_sm = phi_amb * sm.ambient.basis.transpose()
    phi_sm_left = [mult_by(left, v) for v in phi_sm.col_list()]
    report.record("Phi multiplicative",
                  all(phi_sm * a == c * phi_sm
                      for a, c in zip(sm.left, phi_sm_left)))

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
        first_unstable(q_space, left + [mult_by(right, v) for v in phi_sm.col_list()])
        is None)

    p_mat, q_mat = p_space.basis.transpose(), q_space.basis.transpose()
    tau_image = column_space(_columns(
        dim_bt, [mult_by(left, v) * q_mat for v in p_space.vectors()]))
    report.record("tau lands in Phi(B#H)",
                  phi_sm_image.contains_subspace(tau_image))
    report.record("tau surjective onto Phi(B#H)", tau_image == phi_sm_image)

    mu_image = column_space(_columns(
        dim_bt, [mult_by(left, v) * p_mat for v in q_space.vectors()]))
    report.record("mu surjective onto Bbar#H", mu_image.dim == dim_bt)
    return p_space, q_space, report
