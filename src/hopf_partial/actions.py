"""Partial module algebras, smash products, globalization and Morita data.

A partial module algebra is a unital algebra carrying a symmetric partial
action of the Hopf algebra.  Its globalization is computed concretely as
the standard dilation of the underlying module equipped with the
convolution product; the comparison maps between the partial smash
product and the smash product of the globalization are then plain
matrices whose claimed properties (mutually inverse, multiplicative,
bimodule stability, surjective Morita maps) are all checked exactly.
"""

from dataclasses import dataclass

from .dilation import (_factor_through, _translates, dilate_morphism,
                       standard_dilation)
from .hopf import (HopfAlgebraData, _associativity_witness, _freeze3,
                   _mult_terms, _unit_witness, alg_prod, comult_vec_sum)
from .linalg import (Mat, ShapeError, Subspace, block_diag, column_space,
                     frac, kron, rank, restrict_operators, solve, solve_matrix,
                     unit_vec, vec_scale)
from .partial import (ModuleMorphism, PartialModule, _memo, check_partial_rep,
                      diagonal_action, is_global, regular_module,
                      tensor_with_global)
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
        if len(alg_mult) != dim or len(action) != hopf.dim:
            raise ShapeError("inconsistent algebra data")
        if any(a.rows != dim or a.cols != dim for a in action):
            raise ShapeError("action matrix size mismatch")
        return PartialModuleAlgebra(hopf, dim, alg_mult, alg_unit, action)

    def prod(self, u, v):
        return alg_prod(self.mult_terms, u, v)

    def as_module(self) -> PartialModule:
        """The underlying partial module, one instance per algebra.

        Sharing the instance lets its PR1-PR5 checks run once, whether
        check_partial_action or standard_dilation asks first.
        """
        return _memo(self, "_module",
                     lambda: PartialModule(self.hopf, self.dim, self.action))

    def act(self, i, u):
        return self.action[i].apply(u)


@dataclass(frozen=True)
class GlobalModuleAlgebra:
    """A (possibly non-unital) algebra with a global action by algebra maps."""

    hopf: HopfAlgebraData
    dim: int
    alg_mult: tuple
    action: tuple
    unital: bool
    alg_unit: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "mult_terms", _mult_terms(self.alg_mult))

    def prod(self, u, v):
        return alg_prod(self.mult_terms, u, v)


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

    def prod(self, u, v):
        return alg_prod(self.mult_terms, u, v)


def check_partial_action(b: PartialModuleAlgebra) -> ValidationReport:
    """All four partial action axioms over basis triples, plus the module law.

    PA1: the unit of H acts as the identity; PA2: multiplicativity through
    the coproduct; PA3 and PA3' are the two symmetric composition rules.
    """
    h = b.hopf
    d = h.dim
    mod = b.as_module()
    report = ValidationReport("partial module algebra")
    report.record("algebra associativity", *_flag(_associativity_witness(b.mult_terms)))
    report.record("algebra unit", _unit_witness(b.mult_terms, b.alg_unit) is None)
    report.record("PA1", mod.pi_vec(h.unit) == Mat.identity(b.dim))
    report.record("PA2", *_flag(_pa2_witness(b)))

    table = _translate_table(b, mod)
    for name, primed in (("PA3", False), ("PA3'", True)):
        witness = next(((i, k, j) for i in range(d) for k in range(d)
                        for j in range(b.dim)
                        if not _pa3_holds(b, table, i, k, j, primed)), None)
        report.record(name, *_flag(witness))

    mod_report = check_partial_rep(mod)
    report.record("underlying partial module", mod_report.ok,
                  None if mod_report.ok else [c.name for c in mod_report.failures()])
    return report


def _flag(witness):
    return witness is None, witness


def _pa2_witness(b):
    """First (i, a, c) where e_i . (e_a e_c) != (e_i(1) . e_a)(e_i(2) . e_c)."""
    cols = [m.col_list() for m in b.action]
    return next(((i, a, c) for i in range(b.hopf.dim)
                 for a in range(b.dim) for c in range(b.dim)
                 if b.action[i].apply(b.alg_mult[a][c]) != comult_vec_sum(
                     b.hopf, i, b.dim, lambda p, q: b.prod(cols[p][a], cols[q][c]))),
                None)


def _translate_table(b, mod):
    """table[p][k] = pi(e_p e_k) on the algebra, for every basis pair."""
    d = b.hopf.dim
    return [[mod.pi_vec(b.hopf.mult_vec(p, k)) for k in range(d)]
            for p in range(d)]


def _pa3_holds(b, table, i, k, j, primed):
    """PA3 (or PA3') at (e_i, e_k, b_j); table = _translate_table(b, mod)."""
    def term(p, q):
        if primed:
            return b.prod(table[p][k].col(j), b.act(q, b.alg_unit))
        return b.prod(b.act(p, b.alg_unit), table[q][k].col(j))
    lhs = b.action[i].apply(b.action[k].col(j))
    return lhs == comult_vec_sum(b.hopf, i, b.dim, term)


def check_global_action(b: PartialModuleAlgebra) -> ValidationReport:
    """Global module algebra axioms: multiplicative action, PA2, h.1 = eps(h)1."""
    report = ValidationReport("global module algebra")
    mod = b.as_module()
    report.record("action multiplicative",
                  check_partial_rep(mod).ok and is_global(mod))
    report.record("action through the coproduct", *_flag(_pa2_witness(b)))
    report.record("unit scaled by counit",
                  all(b.act(i, b.alg_unit) == vec_scale(b.alg_unit, b.hopf.counit[i])
                      for i in range(b.hopf.dim)))
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
    if b_global.prod(e, e) != e:
        raise ValidationError("e is not idempotent")
    if any(b_global.prod(e, unit_vec(b_global.dim, j))
           != b_global.prod(unit_vec(b_global.dim, j), e)
           for j in range(b_global.dim)):
        raise ValidationError("e is not central")

    left_e = Mat.from_cols([b_global.prod(e, unit_vec(b_global.dim, j))
                            for j in range(b_global.dim)], b_global.dim)
    space = column_space(left_e)
    incl = space.basis.transpose()
    sub_dim = space.dim
    if sub_dim == 0:
        return PartialModuleAlgebra.build(
            b_global.hopf, [], [], [Mat.zeros(0, 0)] * b_global.hopf.dim)

    basis = incl.col_list()
    prods = [b_global.prod(u, v) for u in basis for v in basis]
    *coords, unit = _coords(incl, prods + [e], "eB is not closed as expected")
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
    h = algebras[0].hopf
    if any(a.hopf != h for a in algebras):
        raise ValueError("different Hopf algebras")
    dim = sum(a.dim for a in algebras)
    mult = [[[frac(0)] * dim for _ in range(dim)] for _ in range(dim)]
    unit = []
    offset = 0
    for a in algebras:
        for i in range(a.dim):
            for j in range(a.dim):
                for k in range(a.dim):
                    mult[offset + i][offset + j][offset + k] = a.alg_mult[i][j][k]
        unit.extend(a.alg_unit)
        offset += a.dim
    action = [block_diag([a.action[i] for a in algebras]) for i in range(h.dim)]
    return PartialModuleAlgebra.build(h, mult, unit, action)


# -- the partial smash product ------------------------------------------------

def _smash_projector(b: PartialModuleAlgebra) -> Mat:
    """The idempotent b (x) h -> b (h_(1) . 1) (x) h_(2) on B (x) H."""
    h = b.hopf
    m, d = b.dim, h.dim
    cols = [comult_vec_sum(h, hi, m * d, lambda p, q: _tensor_vec(
                b.prod(unit_vec(m, bi), b.act(p, b.alg_unit)), unit_vec(d, q)))
            for bi in range(m) for hi in range(d)]
    return Mat.from_cols(cols, m * d)


def _action_cols(alg):
    """cols[p][c]: the nonzero (s, x) of column c of the action of e_p."""
    return [[tuple((s, x) for s, x in enumerate(col) if x) for col in m.col_list()]
            for m in alg.action]


def _smash_product(alg, cols, u, v):
    """(a (x) h)(c (x) k) = a (h_(1) . c) (x) h_(2) k on A (x) H, bilinearly,
    summed over the sparse tables into one buffer; cols = _action_cols(alg)."""
    h, d = alg.hopf, alg.hopf.dim
    out = [frac(0)] * (alg.dim * d)
    v = [(divmod(iv, d), cv) for iv, cv in enumerate(v) if cv]
    for (bi, hi), cu in [(divmod(iu, d), cu) for iu, cu in enumerate(u) if cu]:
        for (ci, ki), cv in v:
            for p, q, c in h.comult_terms[hi]:
                right, c = h.mult_terms[q][ki], c * cu * cv
                for s, x in cols[p][ci] if right else ():
                    for a, y in alg.mult_terms[bi][s]:
                        w = c * x * y
                        for t, z in right:
                            out[a * d + t] += w * z
    return tuple(out)


def _coords(incl, vecs, msg):
    """Coordinates c_k with incl c_k = vecs[k], by one solve_matrix.

    Raises ValidationError(msg) when any vector is outside the span.
    """
    c = solve_matrix(incl, Mat.from_cols(vecs, incl.rows))
    if c is None:
        raise ValidationError(msg)
    return c.col_list()


def _tensor_vec(u, v):
    """Coordinates of u (x) v, first factor major."""
    return tuple(a * c for a in u for c in v)


def partial_smash(b: PartialModuleAlgebra) -> SmashAlgebra:
    """The unital algebra on the image of the smash idempotent inside B (x) H.

    Also installs the canonical partial module structure given by left
    multiplication with the elements 1 # e_i and checks it satisfies the
    five partial representation identities.
    """
    return _partial_smash(b, _smash_projector(b))


def _partial_smash(b: PartialModuleAlgebra, pr: Mat) -> SmashAlgebra:
    """partial_smash(b), given the smash projector pr = _smash_projector(b)."""
    h, d = b.hopf, b.hopf.dim
    if pr * pr != pr:
        raise ValidationError("smash projector is not idempotent; "
                              "input is not a valid partial action")
    sub = column_space(pr)
    r = sub.dim
    basis = sub.vectors()
    incl = sub.basis.transpose()

    cols = _action_cols(b)
    prods = [_smash_product(b, cols, u, v) for u in basis for v in basis]
    units = [pr.apply(_tensor_vec(b.alg_unit, k))
             for k in [h.unit] + [unit_vec(d, i) for i in range(d)]]
    coords = _coords(incl, prods + units, "smash product left its defining subspace")
    mult = [coords[i * r:(i + 1) * r] for i in range(r)]
    unit, *ones = coords[r * r:]
    terms = _mult_terms(mult)
    if _unit_witness(terms, unit) is not None:
        raise ValidationError("1 # 1 is not a two-sided unit")
    witness = _associativity_witness(terms)
    if witness is not None:
        raise ValidationError(f"smash product is not associative at {witness}")

    module = PartialModule(h, r, tuple(
        Mat.from_cols([alg_prod(terms, ci, unit_vec(r, j)) for j in range(r)], r)
        for ci in ones))
    rep = check_partial_rep(module)
    if not rep.ok:
        raise ValidationError(rep)
    return SmashAlgebra(h, b.dim, sub, r, _freeze3(mult), unit,
                        tuple(ones), module)


# -- globalization ------------------------------------------------------------

def _convolution(b: PartialModuleAlgebra, u, v):
    """(f * g)(e_k) = sum f(e_k(1)) g(e_k(2)) on B^d coordinates."""
    h = b.hopf
    m, d = b.dim, h.dim
    return tuple(x for k in range(d)
                 for x in comult_vec_sum(h, k, m, lambda p, q: b.prod(
                     u[p * m:(p + 1) * m], v[q * m:(q + 1) * m])))


def _find_unit(mult):
    """Solve for a two-sided unit of an algebra given by constants, if any."""
    dim = len(mult)
    if dim == 0:
        return None
    rows = []
    rhs = []
    for i in range(dim):
        for k in range(dim):
            rows.append([mult[s][i][k] for s in range(dim)])
            rhs.append(1 if k == i else 0)
        for k in range(dim):
            rows.append([mult[i][s][k] for s in range(dim)])
            rhs.append(1 if k == i else 0)
    return solve(Mat(rows), rhs)


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

    basis = incl.col_list()
    prods = _coords(incl, [_convolution(b, u, v) for u in basis for v in basis],
                    "convolution leaves the dilation subspace")
    mult = [prods[i * mb:(i + 1) * mb] for i in range(mb)]

    unit_coords = _find_unit(mult)
    gb = GlobalModuleAlgebra(h, mb, _freeze3(mult), mod.pi,
                             unital=unit_coords is not None,
                             alg_unit=unit_coords)

    phi = std.theta
    report.record("phi multiplicative",
                  all(phi.apply(b.alg_mult[i][j]) == gb.prod(phi.col(i), phi.col(j))
                      for i in range(m) for j in range(m)))

    phi_image = column_space(phi)
    report.record("phi(B) is a two-sided ideal",
                  all(phi_image.contains(gb.prod(unit_vec(mb, k), phi.col(j)))
                      and phi_image.contains(gb.prod(phi.col(j), unit_vec(mb, k)))
                      for k in range(mb) for j in range(m)))

    products = Subspace.from_vectors(
        mb, [mult[i][j] for i in range(mb) for j in range(mb)])
    report.record("Bbar is idempotent", products.dim == mb)

    report.record("action by algebra maps", _pa2_witness(gb) is None)

    t = std.projected.t
    report.record("restricted action equals the partial action",
                  all(phi * b.action[i] == t * mod.pi[i] * phi for i in range(d)))

    phi_unit = phi.apply(b.alg_unit)
    report.record("idempotency witness identity",
                  all(comult_vec_sum(h, i, mb, lambda p, q: gb.prod(
                          mod.pi[p].apply(phi.col(j)),
                          mod.pi[q].apply(phi_unit)))
                      == mod.pi[i].apply(phi.col(j))
                      for i in range(d) for j in range(m)))

    if not report.ok:
        raise ValidationError(report)
    return gb, phi, report


def global_smash(gb: GlobalModuleAlgebra) -> SmashAlgebra:
    """Smash product Bbar # H on the full tensor space Bbar (x) H.

    The product is (f # h)(g # k) = f * (h_(1) . g) # h_(2) k; the module
    field carries the diagonal H-action under which Bbar # H is just
    Bbar (x) H.
    """
    h = gb.hopf
    mb, d = gb.dim, h.dim
    dim = mb * d
    cols = _action_cols(gb)
    mult = [[_smash_product(gb, cols, unit_vec(dim, i), unit_vec(dim, j))
             for j in range(dim)] for i in range(dim)]
    unit, ones = None, ()
    if gb.unital:
        ones = tuple(_tensor_vec(gb.alg_unit, unit_vec(d, i)) for i in range(d))
        unit = _tensor_vec(gb.alg_unit, h.unit)
    module = PartialModule(h, dim, diagonal_action(h, gb.action,
                                                   regular_module(h).pi))
    out = SmashAlgebra(h, mb, Subspace.full(dim), dim, _freeze3(mult),
                       unit, ones, module)
    witness = _associativity_witness(out.mult_terms)
    if witness is not None:
        raise ValidationError(f"global smash product not associative at {witness}")
    if unit is not None and _unit_witness(out.mult_terms, unit) is not None:
        raise ValidationError("1 # 1 is not a unit although Bbar is unital")
    return out


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
    mb = mbar.dim
    reg = regular_module(h)
    bh = tensor_with_global(mod_b, reg)
    std_bh = standard_dilation(bh)
    over = std_bh.projected.module
    dim_bt = mb * d

    report = ValidationReport("smash dilation comparison")

    phi_b_cols = [std_b.theta.col(v) for v in range(m)]

    zeta_cols = [comult_vec_sum(h, i, dim_bt, lambda p, q: _tensor_vec(
                     mbar.pi[p].apply(phi_b_cols[v]), h.mult_vec(q, j)))
                 for i in range(d) for v in range(m) for j in range(d)]
    zeta = _factor_through(_translates(over, std_bh.theta),
                           Mat.from_cols(zeta_cols, dim_bt))

    dec_bt_cols = []
    xi_target_cols = []
    for i in range(d):
        for v in range(m):
            for j in range(d):
                dec_bt_cols.append(_tensor_vec(mbar.pi[i].apply(phi_b_cols[v]),
                                               unit_vec(d, j)))
                xi_target_cols.append(comult_vec_sum(
                    h, i, over.dim, lambda p, q: over.pi[p].apply(
                        std_bh.theta.apply(_tensor_vec(
                            unit_vec(m, v),
                            h.el_mult(h.antipode.col(q), unit_vec(d, j)))))))
    xi = _factor_through(Mat.from_cols(dec_bt_cols, dim_bt),
                         Mat.from_cols(xi_target_cols, over.dim))

    inverse_ok = (zeta * xi == Mat.identity(dim_bt)
                  and xi * zeta == Mat.identity(over.dim))
    report.record("zeta and xi are mutually inverse", inverse_ok)
    report.record("dimensions agree", over.dim == dim_bt)

    # Bbar (x) H with the diagonal action; zeta must intertwine
    diag = diagonal_action(h, mbar.pi, reg.pi)
    report.record("zeta is H-linear",
                  all(zeta * over.pi[i] == diag[i] * zeta for i in range(d)))

    # the partial smash product is a direct summand of B (x) H
    pr = _smash_projector(b)
    sm = _partial_smash(b, pr)
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


def morita_context(b: PartialModuleAlgebra):
    """The bimodules P, Q inside Bbar # H and the two Morita multiplications.

    P is the image of B (x) H under phi (x) id, Q the span of the twisted
    translates; stability under the appropriate one-sided multiplications
    and surjectivity of both Morita maps are checked by exact rank
    computations on the shipped instance.
    """
    h = b.hopf
    m, d = b.dim, h.dim
    gb, phi, _ = globalize(b)
    sm = partial_smash(b)
    bs = global_smash(gb)
    mb = gb.dim
    dim_bt = bs.dim

    report = ValidationReport("morita context")

    incl_sm = sm.ambient.basis.transpose()
    phi_amb = kron(phi, Mat.identity(d))
    phi_sm = phi_amb * incl_sm

    report.record(
        "Phi multiplicative",
        all(phi_sm.apply(sm.mult[i][j])
            == bs.prod(phi_sm.col(i), phi_sm.col(j))
            for i in range(sm.dim) for j in range(sm.dim)))

    phi_unit = phi.apply(b.alg_unit)

    def phi_twisted(a, p):
        """phi(e_a (e_p . 1)) in Bbar."""
        return phi.apply(b.prod(unit_vec(m, a), b.act(p, b.alg_unit)))

    def three_agree(a, hi):
        e1 = comult_vec_sum(h, hi, dim_bt, lambda p, q: _tensor_vec(
            phi_twisted(a, p), unit_vec(d, q)))
        e2 = comult_vec_sum(h, hi, dim_bt, lambda p, q: _tensor_vec(
            gb.prod(phi.col(a), gb.action[p].apply(phi_unit)), unit_vec(d, q)))
        e3 = comult_vec_sum(h, hi, dim_bt, lambda p, q: comult_vec_sum(
            h, q, dim_bt, lambda p2, q2: _tensor_vec(
                gb.prod(phi_twisted(a, p), gb.action[p2].apply(phi_unit)),
                unit_vec(d, q2))))
        return e1 == e2 == e3

    report.record("three expressions for Phi(b # h) agree",
                  all(three_agree(a, hi) for a in range(m) for hi in range(d)))

    # the evaluated form of the same identity, block by block in B^d
    incl_bbar = standard_dilation(b.as_module()).ambient_inclusion
    table = _translate_table(b, b.as_module())

    def evaluated_holds(a, hi):
        w = comult_vec_sum(h, hi, mb, lambda p, q: gb.prod(
            phi_twisted(a, p), gb.action[q].apply(phi_unit)))
        ambient = incl_bbar.apply(w)
        return all(ambient[k * m:(k + 1) * m]
                   == comult_vec_sum(h, k, m, lambda r, s: b.prod(
                       b.action[r].col(a),
                       table[s][hi].apply(b.alg_unit)))
                   for k in range(d))

    report.record("evaluated smash identity",
                  all(evaluated_holds(a, hi) for a in range(m) for hi in range(d)))

    p_space = column_space(phi_amb)
    q_vecs = [comult_vec_sum(h, i, dim_bt, lambda p, q: _tensor_vec(
                  gb.action[p].apply(phi.col(v)), unit_vec(d, q)))
              for i in range(d) for v in range(m)]
    q_space = Subspace.from_vectors(dim_bt, q_vecs)

    phi_sm_image = column_space(phi_sm)
    report.record(
        "P stable under Phi(B#H) on the left and Bbar#H on the right",
        all(p_space.contains(bs.prod(phi_sm.col(u), pv))
            for u in range(sm.dim) for pv in p_space.vectors())
        and all(p_space.contains(bs.prod(pv, unit_vec(dim_bt, s)))
                for pv in p_space.vectors() for s in range(dim_bt)))
    report.record(
        "Q stable under Bbar#H on the left and Phi(B#H) on the right",
        all(q_space.contains(bs.prod(unit_vec(dim_bt, s), qv))
            for qv in q_space.vectors() for s in range(dim_bt))
        and all(q_space.contains(bs.prod(qv, phi_sm.col(u)))
                for qv in q_space.vectors() for u in range(sm.dim)))

    tau_image = Subspace.from_vectors(
        dim_bt, [bs.prod(pv, qv) for pv in p_space.vectors()
                 for qv in q_space.vectors()])
    report.record("tau lands in Phi(B#H)",
                  phi_sm_image.contains_subspace(tau_image))
    report.record("tau surjective onto Phi(B#H)", tau_image == phi_sm_image)

    mu_image = Subspace.from_vectors(
        dim_bt, [bs.prod(qv, pv) for qv in q_space.vectors()
                 for pv in p_space.vectors()])
    report.record("mu surjective onto Bbar#H", mu_image.dim == dim_bt)
    return p_space, q_space, report
