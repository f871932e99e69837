"""Partial modules over a Hopf algebra, as families of matrices.

A partial module is a space M together with one matrix per Hopf basis
element; the matrix family must satisfy the five partial-representation
identities, which weaken "pi is an algebra map" (the global case).  All
Sweedler indices are expanded by `hopf.comult_sum`,
`hopf.antipode_images` and `hopf.sweedler_grid`, so every axiom is a
finite exact matrix identity over basis pairs.

The twisted conjugates pi(h_(1)) T pi(S(h_(2))) and their twins are
built as one family by `twisted_conjugates`; with T = 1 they are the
operators eps_h spanning the base algebra, read by `is_global`, the base
algebra and the balanced tensor product.

The identities are measured by the deviation D(x, y) = pi(x) pi(y) - pi(xy).
For any family of matrices D is bilinear in (x, y), so the deviations at
antipode images are combinations of the deviations at basis elements:
D(S e_i, y) = sum_a S_ai D(e_a, y) and D(x, S e_j) = sum_b S_bj D(x, e_b).
The checker therefore works on stacked blocks: the deviation table, the
d n x d n matrix of n x n blocks D(e_i, e_j), is one product
vstack(pi) hstack(pi) minus the grid of the pi(e_i e_j), and each identity
is that table multiplied on one side by a Sweedler grid of `hopf`, with
the antipode folded into the grid.  PR2 and PR4 come from one product,
PR3 and PR5 from another, so a check takes three products whatever d and
Delta are.  The global core and the basis deviations read the same
one-product table, and the "mult" grid of pi is built once per module.

The globality tests read only the block rows of algebra generators of H:
once pi(1) = I, the a with pi(ab) = pi(a) pi(b) for every b form a unital
subalgebra, as H is associative, so they are all of H when the
generators are among them (`is_algebra_map`).

Alongside the axiom checker this module computes the lattice of global
behaviour inside a partial module: the global core (largest global
submodule), the global shadow (largest global quotient), purity, morphism
spaces, image algebras, tensor constructions and the two worked
classifications (dual C2 and the four-dimensional Sweedler algebra).

Two relation spans need no saturation.  The shadow's is Dev, the span of
the deviations, itself invariant as pi(e_k) D(e_a, e_b) =
D(e_k, e_a) pi(e_b) + D(e_k e_a, e_b) - D(e_k, e_a e_b).  The balanced
tensor product's is spanned by the generators' R_j = P_j (x) 1 - 1 (x) Q_j,
as P_2 P_1 (x) 1 - 1 (x) Q_1 Q_2 = R_2 (P_1 (x) 1) + R_1 (1 (x) Q_2).
"""

from dataclasses import dataclass

from . import hopf as hp
from .hopf import HopfAlgebraData, _memo, builtin, diagonal_action
from .linalg import (Mat, ShapeError, Subspace, _col, _columns, block_diag, column_space,
                     first_unstable, frac, hstack, intertwining_witness, inverse,
                     kernel_basis, kron, nonzero_blocks, quotient_map, quotient_section,
                     rank, reshape, restrict_operators, span_closure, split_blocks,
                     vstack)
from .reports import Check, ValidationError, ValidationReport, require


@dataclass(frozen=True)
class PartialModule:
    """A space with one matrix per Hopf basis element (pi[i] = pi(e_i))."""

    hopf: HopfAlgebraData
    dim: int
    pi: tuple

    def __post_init__(self):
        if len(self.pi) != self.hopf.dim:
            raise ShapeError("need one matrix per Hopf basis element")
        for p in self.pi:
            if p.rows != self.dim or p.cols != self.dim:
                raise ShapeError("action matrix size does not match module dim")

    @staticmethod
    def build(hopf, mats):
        return PartialModule(hopf, mats[0].rows if mats else 0,
                             tuple(m if isinstance(m, Mat) else Mat(m) for m in mats))


def _antipode_images(m: PartialModule):
    """(pi(S e_0), ..., pi(S e_{d-1})), summed once per module and memoized."""
    return _memo(m, "_pi_s", lambda: hp.antipode_images(m.hopf, m.pi))


def twisted_conjugates(m: PartialModule, t=None, tilde=False, *, pi_t=None):
    """The family T_{e_i} = pi(e_i (1)) t pi(S(e_i (2))) for i = 0..d-1.

    With tilde, the twins pi(S(e_i (1))) t pi(e_i (2)).  t None stands for
    the identity, giving the operators eps_{e_i} and their twins.  The
    images pi(S e_j) are built once per module, and each left factor times
    t once per call; a caller that has formed the family pi(e_i) t hands it
    over as pi_t (untwisted only), and it is read instead.
    """
    h, n = m.hopf, m.dim
    pi_s = _antipode_images(m)
    left, right = (pi_s, m.pi) if tilde else (m.pi, pi_s)
    if pi_t is not None:
        left = pi_t
    elif t is not None:
        left = [a * t for a in left]
    return tuple(hp.comult_sum(h, i, lambda a, b: left[a] * right[b], n, n)
                 for i in range(h.dim))


def quotient_action(n, rel: Subspace, ops):
    """(q, dim, induced ops) for k^n -> k^n / rel; each op must preserve rel."""
    q, qdim = quotient_map(n, rel)
    section = quotient_section(n, rel)
    induced = [q * op * section for op in ops]
    k = intertwining_witness(q, ops, induced)
    require(k is None, f"operator {k} does not descend to the quotient")
    return q, qdim, induced


def intertwiner_system(src, dst) -> Mat:
    """Matrix whose kernel is the row-major flattened {f : f src[i] = dst[i] f}."""
    s, t = src[0].rows, dst[0].rows
    return vstack([kron(Mat.identity(t), a.transpose()) - kron(b, Mat.identity(s))
                   for a, b in zip(src, dst)])


def _mult_grid(m: PartialModule) -> Mat:
    """The "mult" Sweedler grid of pi, block (r, s) = pi(e_r e_s); memoized on m."""
    return _memo(m, "_mult_grid", lambda: hp.sweedler_grid(m.hopf, m.dim, [("mult", m.pi)]))


def _deviation_table(m: PartialModule) -> Mat:
    """The d n x d n table whose block (i, j) is D(e_i, e_j), one product:
    vstack(pi) hstack(pi) minus the grid of the pi(e_i e_j)."""
    return vstack(m.pi) * hstack(m.pi) - _mult_grid(m)


def _basis_deviations(m: PartialModule):
    """pi(e_i) pi(e_j) - pi(e_i e_j) for all basis pairs, row-major."""
    n, d = m.dim, m.hopf.dim
    grid = split_blocks(_deviation_table(m), [n] * d, [n] * d)
    return [dev for row in grid for dev in row]


def check_partial_rep(m: PartialModule) -> ValidationReport:
    """Evaluate PR1-PR5 for every basis pair, with a witness pair on failure.

    The checks are evaluated once per instance and kept on m as a frozen
    tuple; every call returns a new report built from them, so a caller
    may extend its report freely.  An equal but newly built module is
    evaluated afresh.
    """
    checks = _memo(m, "_partial_rep_checks", lambda: _evaluate_partial_rep(m))
    return ValidationReport("partial representation", list(checks))


def _evaluate_partial_rep(m: PartialModule):
    """The PR1-PR5 Checks of m, in order, from three products.

    Block (i, j) of each identity's table is, with Delta(e) = sum c e_a (x) e_b,
      PR2: sum over Delta(e_j) of c D(e_i, e_a) pi(S e_b),
      PR3: sum over Delta(e_i) of c pi(e_a) D(S e_b, e_j),
      PR4: sum over Delta(e_j) of c D(e_i, S e_a) pi(e_b),
      PR5: sum over Delta(e_i) of c pi(S e_a) D(e_b, e_j).
    With the deviation table Dtab and the Sweedler grids of `hopf`, this is
    PR2 = Dtab W2, PR4 = Dtab W4, PR3 = V3 Dtab and PR5 = V5 Dtab, where
    the twisted deviations come from the untwisted ones by bilinearity,
    as sums over the antipode columns built into W4 and V3.  The sparse
    grids are the left factors: [PR2^T; PR4^T] = [W2 | W4]^T Dtab^T and
    [PR3; PR5] = [V3; V5] Dtab.  The witness is the first (i, j) in
    row-major order whose block of the identity's table is nonzero.
    """
    h = m.hopf
    d = h.dim
    n = m.dim
    checks = [Check("PR1 unit", hp.mult_by(m.pi, _col(h.unit))[0] == Mat.identity(n))]

    pi_s = _antipode_images(m)
    dev = _deviation_table(m)
    by_columns = hp.sweedler_grid(h, n, [("col", pi_s), ("col_s", m.pi)],
                                  transpose=True) * dev.transpose()
    by_rows = hp.sweedler_grid(h, n, [("row_s", m.pi), ("row", pi_s)]) * dev
    col_hits = nonzero_blocks(by_columns, n)
    row_hits = nonzero_blocks(by_rows, n)
    for name, blocks in (("PR2", ((j, i) for i, j in col_hits if i < d)),
                         ("PR3", ((i, j) for i, j in row_hits if i < d)),
                         ("PR4", ((j, i - d) for i, j in col_hits if i >= d)),
                         ("PR5", ((i - d, j) for i, j in row_hits if i >= d))):
        w = min(blocks, default=None)
        checks.append(Check(name, w is None, w))
    return tuple(checks)


def _algebra_generators(h: HopfAlgebraData):
    """Indices G of basis elements that generate H as a unital algebra;
    memoized on h.

    The basis is walked in index order, and e_i joins G when the unital
    subalgebra generated so far does not contain it, that is when adding
    it grows that subalgebra.  The dimension is read off the algebra
    generated by the L_g, which is isomorphic to the subalgebra, as L is
    faithful on a unital algebra (L_a 1 = a).
    """
    def walk():
        gens, dim = [], 1
        for i in range(h.dim):
            if dim == h.dim:
                break
            grown = _generated_algebra(h.dim, [h.left[g] for g in (*gens, i)]).dim
            if grown > dim:
                gens.append(i)
                dim = grown
        return tuple(gens)
    return _memo(h, "_generators", walk)


def is_algebra_map(m: PartialModule) -> bool:
    """Direct globality test: pi(1) = I, and pi(g b) = pi(g) pi(b) for every
    algebra generator g of H and every basis element b, in one product.

    The generators suffice.  The set S of the a with pi(ab) = pi(a) pi(b)
    for every b is a subspace, as both sides are linear in a.  It contains
    1, because pi(1) = I.  It is closed under products, because H is
    associative: for a, a' in S, pi(a a' b) = pi(a) pi(a' b) =
    pi(a) pi(a') pi(b) = pi(a a') pi(b).  So S is a unital subalgebra, and
    S contains the generators, hence S = H: every deviation D(e_i, e_j)
    vanishes.  Block (g, s) of the compared rows is pi(e_g e_s), the
    combination of the pi with the coefficients of column s of L_g.
    """
    if hp.mult_by(m.pi, _col(m.hopf.unit))[0] != Mat.identity(m.dim):
        return False
    gens = _algebra_generators(m.hopf)
    if not gens:
        return True
    return (vstack([m.pi[g] for g in gens]) * hstack(m.pi)
            == vstack([hstack(hp.mult_by(m.pi, m.hopf.left[g])) for g in gens]))


def is_global(m: PartialModule) -> bool:
    """True when pi(h_(1)) pi(S(h_(2))) = eps(h) id for every basis element.

    When that holds, pi is an algebra map; this consequence is re-checked
    rather than trusted.  The epsilon condition at h = 1 gives pi(1)^2 = I,
    so every D(e_i, e_j) vanishes exactly when pi(1) = I and pi is
    multiplicative on the algebra generators, which `is_algebra_map` tests.
    """
    ident = Mat.identity(m.dim)
    if any(eps != ident.scale(c)
           for eps, c in zip(twisted_conjugates(m), m.hopf.counit)):
        return False
    require(is_algebra_map(m),
            "epsilon condition holds but pi is not multiplicative; "
            "input is not a valid partial module")
    return True


def global_core(m: PartialModule) -> Subspace:
    """Largest global submodule: {v : pi(e_i) pi(e_j) v = pi(e_i e_j) v};
    raises ValidationError unless m passes PR1-PR5."""
    rep = check_partial_rep(m)
    if not rep.ok:
        raise ValidationError(rep)
    n, d = m.dim, m.hopf.dim
    table = _deviation_table(m)
    if table.is_zero():
        return Subspace.full(n)
    core = kernel_basis(vstack(split_blocks(table, [d * n], [n] * d)[0]))
    sub, _ = restrict_to_invariant(m, core)
    require(is_global(sub), "core restriction is not global; invalid input")
    return core


def global_shadow(m: PartialModule):
    """Largest global quotient with the induced action and its projection.

    Its kernel is Dev, the span of the columns of all D(e_a, e_b), which is
    invariant for any family pi: D is bilinear and H associative, so
    pi(e_k) D(e_a, e_b) = D(e_k, e_a) pi(e_b) + D(e_k e_a, e_b)
    - D(e_k, e_a e_b).  The descent of pi to the quotient re-checks it.
    Raises ValidationError unless m passes PR1-PR5.
    """
    rep = check_partial_rep(m)
    if not rep.ok:
        raise ValidationError(rep)
    rel = column_space(hstack(_basis_deviations(m)))
    q, qdim, pis = quotient_action(m.dim, rel, m.pi)
    shadow = PartialModule(m.hopf, qdim, tuple(pis))
    require(check_partial_rep(shadow).ok, "shadow fails the partial axioms")
    require(is_global(shadow), "shadow action is not global")
    return shadow, q


def is_pure(m: PartialModule) -> bool:
    """No nonzero global submodule."""
    return global_core(m).dim == 0


def restrict_to_invariant(m: PartialModule, sub: Subspace):
    """Module induced on an action-invariant subspace, plus the inclusion."""
    pis = restrict_operators(m.pi, sub)
    return PartialModule(m.hopf, sub.dim, pis), sub.basis.transpose()


def hom_space(m: PartialModule, n: PartialModule):
    """Basis of the intertwiner space {f : f pi_m(e_i) = pi_n(e_i) f}."""
    if m.hopf != n.hopf:
        raise ValueError("modules live over different Hopf algebras")
    s, t = m.dim, n.dim
    if s == 0 or t == 0:
        return []
    ker = kernel_basis(intertwiner_system(m.pi, n.pi)).basis
    return [reshape(row, t, s) for row, in split_blocks(ker, [1] * ker.rows, [t * s])]


@dataclass(frozen=True)
class ModuleMorphism:
    source: PartialModule
    target: PartialModule
    mat: Mat

    @staticmethod
    def build(source, target, mat):
        if source.hopf != target.hopf:
            raise ValueError("modules live over different Hopf algebras")
        if mat.rows != target.dim or mat.cols != source.dim:
            raise ShapeError("morphism matrix shape mismatch")
        i = intertwining_witness(mat, source.pi, target.pi)
        require(i is None, f"matrix does not intertwine the actions at index {i}")
        return ModuleMorphism(source, target, mat)


def is_module_iso(f: Mat, m: PartialModule, n: PartialModule) -> bool:
    if f.rows != n.dim or f.cols != m.dim or m.dim != n.dim:
        return False
    return intertwining_witness(f, m.pi, n.pi) is None and rank(f) == m.dim


def direct_sum(ms) -> PartialModule:
    ms = list(ms)
    if not ms:
        raise ValueError("direct sum needs at least one module")
    h = ms[0].hopf
    if any(m.hopf != h for m in ms):
        raise ValueError("summands live over different Hopf algebras")
    pis = tuple(block_diag([m.pi[i] for m in ms]) for i in range(h.dim))
    return PartialModule(h, sum(m.dim for m in ms), pis)


def _generated_algebra(n, gens) -> Subspace:
    """Span of all words in the n x n matrices gens, the empty word included,
    inside k^(n n), where kron(g, I) acts on a row-major flattened X as g X."""
    ident = Mat.identity(n)
    seed = column_space(hstack([reshape(g, n * n, 1) for g in (ident, *gens)]))
    return span_closure(seed, [kron(g, ident) for g in gens])


def image_algebra(m: PartialModule) -> Subspace:
    """Span of all words in {pi(e_i)}, as a subspace of the matrix space.

    This is the image of the universal algebra of partial representations
    inside End(M).
    """
    return _generated_algebra(m.dim, m.pi)


def base_subalgebra(m: PartialModule) -> Subspace:
    """Multiplicative span of the epsilon operators together with the identity."""
    return _generated_algebra(m.dim, twisted_conjugates(m))


def base_subalgebra_commutes(m: PartialModule) -> bool:
    eps = twisted_conjugates(m)
    return all(intertwining_witness(a, eps, eps) is None for a in eps)


def tensor_with_global(m: PartialModule, n: PartialModule) -> PartialModule:
    """Diagonal action on M (x) N for a global N; stays partial."""
    require(is_global(n), "second tensor factor must be global")
    h = m.hopf
    if n.hopf != h:
        raise ValueError("modules live over different Hopf algebras")
    out = PartialModule(h, m.dim * n.dim, diagonal_action(h, m.pi, n.pi))
    require(check_partial_rep(out).ok, "tensor with a global module fails PR")
    return out


def tensor_over_base(m: PartialModule, n: PartialModule) -> PartialModule:
    """Tensor product over the base subalgebra, with the diagonal action.

    A word P_2 P_1 in the twin epsilon operators on M pairs with Q_1 Q_2 on
    N; with R_j = P_j (x) 1 - 1 (x) Q_j, P_2 P_1 (x) 1 - 1 (x) Q_1 Q_2 =
    R_2 (P_1 (x) 1) + R_1 (1 (x) Q_2), so the generators' relations span
    those of every word.  The span is checked to be stable under the
    diagonal action; failure signals inconsistent input.
    """
    h = m.hopf
    if n.hopf != h:
        raise ValueError("modules live over different Hopf algebras")
    require(check_partial_rep(m).ok and check_partial_rep(n).ok,
            "tensor factors must be valid partial modules")
    nm = m.dim * n.dim
    im, i_n = Mat.identity(m.dim), Mat.identity(n.dim)
    rel = column_space(hstack([kron(p, i_n) - kron(im, q) for p, q in
                               zip(twisted_conjugates(m, tilde=True), twisted_conjugates(n))]))
    diag = diagonal_action(h, m.pi, n.pi)
    i = first_unstable(rel, diag)
    require(i is None, f"relation span is not stable under the diagonal action "
                       f"(basis index {i})")
    _, qdim, pis = quotient_action(nm, rel, diag)
    out = PartialModule(h, qdim, tuple(pis))
    require(check_partial_rep(out).ok, "balanced tensor fails the partial axioms")
    return out


# -- the two worked classifications ------------------------------------------

def classify_dual_c2(m: PartialModule):
    """Eigenspace decomposition of a partial module over the dual of C2.

    Returns ((n0, n1, n_half), change_of_basis) where the basis puts
    pi(p_0) into the diagonal block form diag(1, .., 0, .., 1/2, ..).
    """
    if m.hopf != builtin("kC2-dual"):
        raise ValueError("module is not over the dual C2 Hopf algebra")
    t = m.pi[0]
    ident = Mat.identity(m.dim)
    require((t * (t - ident) * (t.scale(2) - ident)).is_zero(),
            "pi(p0) does not satisfy t(t-1)(2t-1) = 0")
    spaces = [kernel_basis(t - ident.scale(c)) for c in (1, 0, frac("1/2"))]
    dims = tuple(space.dim for space in spaces)
    require(sum(dims) == m.dim, "eigenspaces do not fill the module")
    cb = _columns(m.dim, [space.basis.transpose() for space in spaces])
    diag = block_diag([Mat.identity(dims[0]),
                       Mat.zeros(dims[1], dims[1]),
                       Mat.identity(dims[2]).scale(frac("1/2"))])
    require(inverse(cb) * t * cb == diag, "change of basis failed to diagonalize")
    return dims, cb


def classify_sweedler(m: PartialModule):
    """Split a partial Sweedler module into its global and pure parts.

    Returns (global_part, pure_part, c, d): the subspaces U = ker([g]^2 - 1)
    and W = ker[g], plus the matrices of [x] and [y] on W.  The block
    relations of the classification are asserted along the way.
    """
    if m.hopf != builtin("sweedler"):
        raise ValueError("module is not over the Sweedler Hopf algebra")
    g, x, y = m.pi[1], m.pi[2], m.pi[3]
    require(g * g * g == g, "[g]^3 = [g] fails; not a valid partial module")
    u_space = kernel_basis(g * g - Mat.identity(m.dim))
    w_space = kernel_basis(g)
    require(u_space.dim + w_space.dim == m.dim, "0/±1 eigenspaces do not split")

    try:
        c, d, g_on_w = restrict_operators((x, y, g), w_space)
    except ValueError:
        raise ValidationError("ker[g] is not stable under [x], [y]")
    require(g_on_w.is_zero(), "[g] does not vanish on its kernel block")
    require(c * d == d * c, "cd = dc fails on the pure part")
    require(c * c == d * d, "c^2 = d^2 fails on the pure part")

    if u_space.dim:
        try:
            g_u, x_u, y_u = restrict_operators((g, x, y), u_space)
        except ValueError:
            raise ValidationError("global part is not action-stable")
        require((x_u * x_u).is_zero(), "ab = ba = 0 fails on the global part")
        require(y_u == g_u * x_u, "[y] != [g][x] on the global part")
        u_module = PartialModule(m.hopf, u_space.dim,
                                 (Mat.identity(u_space.dim), g_u, x_u, y_u))
        require(check_partial_rep(u_module).ok and is_global(u_module),
                "restriction to the ±1 eigenspaces is not global")
    return u_space, w_space, c, d


def w_n_module(n: int) -> PartialModule:
    """The pure tower module over the Sweedler Hopf algebra: [g] = 0 and
    [x] = [y] = the lower shift."""
    if n < 1:
        raise ValueError("n must be at least 1")
    h = builtin("sweedler")
    shift = Mat([[1 if i == j + 1 else 0 for j in range(n)] for i in range(n)])
    mod = PartialModule(h, n, (Mat.identity(n), Mat.zeros(n, n), shift, shift))
    require(check_partial_rep(mod).ok, "W_n construction failed the axioms")
    return mod


def regular_module(h: HopfAlgebraData) -> PartialModule:
    """H acting on itself by left multiplication (a global module)."""
    return PartialModule(h, h.dim, h.left)


def trivial_module(h: HopfAlgebraData) -> PartialModule:
    """The one-dimensional module where h acts by its counit."""
    return PartialModule(h, 1, tuple(Mat([[c]]) for c in h.counit))


def submodule_closure(m: PartialModule, vector) -> Subspace:
    """Smallest action-invariant subspace containing the given vector."""
    return span_closure(Subspace.from_vectors(m.dim, [vector]), m.pi)


def submodule_scan(m: PartialModule, vectors):
    """Distinct submodules generated by the sample vectors, closed as a lattice.

    Sums and intersections of invariant subspaces are invariant, so the
    returned family is closed under both; it always contains 0 and the
    closure of every sample.
    """
    found = {Subspace.zero(m.dim)}
    for v in vectors:
        found.add(submodule_closure(m, v))
    while True:
        fresh = set()
        pool = list(found)
        for i, a in enumerate(pool):
            for b in pool[i + 1:]:
                s = a.add(b)
                if s not in found:
                    fresh.add(s)
                t = a.intersect(b)
                if t not in found:
                    fresh.add(t)
        if not fresh:
            return sorted(found, key=lambda s: (s.dim, s.basis.entries))
        found |= fresh
