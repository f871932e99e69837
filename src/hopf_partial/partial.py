"""Partial modules over a Hopf algebra, as families of matrices.

A partial module is a space M together with one matrix per Hopf basis
element; the matrix family must satisfy the five partial-representation
identities, which weaken "pi is an algebra map" (the global case).  All
Sweedler indices are expanded through the comultiplication structure
constants, so every axiom is a finite exact matrix identity over basis
pairs.

Alongside the axiom checker this module computes the lattice of global
behaviour inside a partial module: the global core (largest global
submodule), the global shadow (largest global quotient), purity, morphism
spaces, image algebras, tensor constructions and the two worked
classifications (dual C2 and the four-dimensional Sweedler algebra).
"""

from dataclasses import dataclass

from .hopf import HopfAlgebraData, builtin
from .linalg import (Mat, ShapeError, Subspace, block_diag, column_space,
                     first_unstable, frac, inverse, kernel_basis, kron,
                     left_mult_operator, mat_to_vec, quotient_map,
                     quotient_section, rank, restrict_operators,
                     right_mult_operator, span_closure, vec_to_mat, vstack)
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

    def pi_vec(self, coeffs):
        """pi of a general Hopf element given by its coefficient vector."""
        return _mat_sum(((self.pi[i], c) for i, c in enumerate(coeffs) if c),
                        self.dim)

    def pi_antipode(self, i):
        """pi(S(e_i))."""
        return self.pi_vec(self.hopf.antipode.col(i))


def _memo(obj, name, compute):
    """compute() stored on the frozen obj as the non-field attribute name.

    The first call that returns stores its value and later calls read it;
    a compute() that raises stores nothing.  Non-field attributes stay out
    of ==, hash and the dataclass fields, so an equal new object starts
    with no memo and is verified from scratch.
    """
    try:
        return obj.__dict__[name]
    except KeyError:
        value = compute()
        object.__setattr__(obj, name, value)
        return value


def comult_sum(h: HopfAlgebraData, i, n, term) -> Mat:
    """The n x n matrix sum of c term(a, b) over Delta(e_i) = sum c e_a (x) e_b."""
    return _mat_sum(((term(a, b), c) for a, b, c in h.comult_terms[i]), n)


def _mat_sum(terms, n):
    """sum c m over (m, c) pairs; unscaled when c == 1, Mat.zeros(n, n) if none."""
    mats = [m if c == 1 else m.scale(c) for m, c in terms]
    return sum(mats[1:], mats[0]) if mats else Mat.zeros(n, n)


def twisted_conjugate(m: PartialModule, t: Mat, i, tilde) -> Mat:
    """pi(e_i (1)) t pi(S(e_i (2))), or pi(S(e_i (1))) t pi(e_i (2)) with tilde."""
    if tilde:
        return comult_sum(m.hopf, i, m.dim,
                          lambda a, b: m.pi_antipode(a) * t * m.pi[b])
    return comult_sum(m.hopf, i, m.dim,
                      lambda a, b: m.pi[a] * t * m.pi_antipode(b))


def diagonal_action(h: HopfAlgebraData, left, right):
    """Action of each e_i on a tensor product: sum c left[a] (x) right[b]."""
    n = left[0].rows * right[0].rows
    return tuple(comult_sum(h, i, n, lambda a, b: kron(left[a], right[b]))
                 for i in range(h.dim))


def quotient_action(n, rel: Subspace, ops):
    """(q, dim, induced ops) for k^n -> k^n / rel; each op must preserve rel."""
    q, qdim = quotient_map(n, rel)
    section = quotient_section(n, rel)
    induced = []
    for k, op in enumerate(ops):
        mat = q * op * section
        require(mat * q == q * op,
                f"operator {k} does not descend to the quotient")
        induced.append(mat)
    return q, qdim, induced


def intertwiner_system(src, dst) -> Mat:
    """Matrix whose kernel is the row-major flattened {f : f src[i] = dst[i] f}."""
    s, t = src[0].rows, dst[0].rows
    return vstack([kron(Mat.identity(t), a.transpose()) - kron(b, Mat.identity(s))
                   for a, b in zip(src, dst)])


def epsilon_op(m: PartialModule, i) -> Mat:
    """The operator of eps_{e_i} = pi(e_i (1)) pi(S(e_i (2)))."""
    return twisted_conjugate(m, Mat.identity(m.dim), i, tilde=False)


def epsilon_tilde_op(m: PartialModule, i) -> Mat:
    """The twin operator pi(S(e_i (1))) pi(e_i (2))."""
    return twisted_conjugate(m, Mat.identity(m.dim), i, tilde=True)


def _deviation_table(m: PartialModule, xs, ys):
    """D[x][y] = pi(x) pi(y) - pi(xy) for Hopf coefficient vectors x in xs, y in ys."""
    pi_xs = [m.pi_vec(x) for x in xs]
    pi_ys = [m.pi_vec(y) for y in ys]
    return [[px * py - m.pi_vec(m.hopf.el_mult(x, y)) for y, py in zip(ys, pi_ys)]
            for x, px in zip(xs, pi_xs)]


def _basis_deviations(m: PartialModule):
    """pi(e_i) pi(e_j) - pi(e_i e_j) for all basis pairs, row-major."""
    basis = Mat.identity(m.hopf.dim).col_list()
    return [dev for row in _deviation_table(m, basis, basis) for dev in row]


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
    """The PR1-PR5 Checks of m, in order."""
    h = m.hopf
    d = h.dim
    n = m.dim
    checks = [Check("PR1 unit", m.pi_vec(h.unit) == Mat.identity(n))]

    basis = Mat.identity(d).col_list()
    s_cols = h.antipode.col_list()
    piS = [m.pi_vec(s) for s in s_cols]
    dev = _deviation_table(m, basis, basis)
    dev_sb = _deviation_table(m, s_cols, basis)
    dev_bs = _deviation_table(m, basis, s_cols)

    identities = (
        ("PR2", lambda i, j: comult_sum(h, j, n, lambda a, b: dev[i][a] * piS[b])),
        ("PR3", lambda i, j: comult_sum(h, i, n, lambda a, b: m.pi[a] * dev_sb[b][j])),
        ("PR4", lambda i, j: comult_sum(h, j, n, lambda a, b: dev_bs[i][a] * m.pi[b])),
        ("PR5", lambda i, j: comult_sum(h, i, n, lambda a, b: piS[a] * dev[b][j])),
    )
    for name, deviation in identities:
        w = next(((i, j) for i in range(d) for j in range(d)
                  if not deviation(i, j).is_zero()), None)
        checks.append(Check(name, w is None, w))
    return tuple(checks)


def is_algebra_map(m: PartialModule) -> bool:
    """Direct globality test: pi respects unit and products of basis elements."""
    if m.pi_vec(m.hopf.unit) != Mat.identity(m.dim):
        return False
    return all(dev.is_zero() for dev in _basis_deviations(m))


def is_global(m: PartialModule) -> bool:
    """True when pi(h_(1)) pi(S(h_(2))) = eps(h) id for every basis element.

    When that holds, pi is an algebra map; this consequence is re-checked
    rather than trusted.
    """
    n = m.dim
    ident = Mat.identity(n)
    for i in range(m.hopf.dim):
        if epsilon_op(m, i) != ident.scale(m.hopf.counit[i]):
            return False
    require(all(dev.is_zero() for dev in _basis_deviations(m)),
            "epsilon condition holds but pi is not multiplicative; "
            "input is not a valid partial module")
    return True


def global_core(m: PartialModule) -> Subspace:
    """Largest global submodule: {v : pi(e_i) pi(e_j) v = pi(e_i e_j) v}."""
    devs = [mat for mat in _basis_deviations(m) if not mat.is_zero()]
    if not devs:
        return Subspace.full(m.dim)
    core = kernel_basis(vstack(devs))
    sub, _ = restrict_to_invariant(m, core)
    require(is_global(sub), "core restriction is not global; invalid input")
    return core


def global_shadow(m: PartialModule):
    """Largest global quotient with the induced action and its projection."""
    n = m.dim
    rel = Subspace.zero(n)
    for mat in _basis_deviations(m):
        rel = rel.add(column_space(mat))
    rel = span_closure(rel, m.pi)
    q, qdim, pis = quotient_action(n, rel, m.pi)
    shadow = PartialModule(m.hopf, qdim, tuple(pis))
    require(check_partial_rep(shadow).ok, "shadow fails the partial axioms")
    require(is_global(shadow), "shadow action is not global")
    return shadow, q


def is_pure(m: PartialModule) -> bool:
    """No nonzero global submodule."""
    return global_core(m).dim == 0


def restrict_to_invariant(m: PartialModule, sub: Subspace):
    """Module induced on an action-invariant subspace, plus the inclusion."""
    incl = sub.basis.transpose()
    pis = restrict_operators(m.pi, incl)
    return PartialModule(m.hopf, sub.dim, pis), incl


def hom_space(m: PartialModule, n: PartialModule):
    """Basis of the intertwiner space {f : f pi_m(e_i) = pi_n(e_i) f}."""
    if m.hopf != n.hopf:
        raise ValueError("modules live over different Hopf algebras")
    s, t = m.dim, n.dim
    if s == 0 or t == 0:
        return []
    ker = kernel_basis(intertwiner_system(m.pi, n.pi))
    return [vec_to_mat(v, t, s) for v in ker.vectors()]


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
        for i in range(source.hopf.dim):
            require(mat * source.pi[i] == target.pi[i] * mat,
                    f"matrix does not intertwine the actions at index {i}")
        return ModuleMorphism(source, target, mat)


def is_module_iso(f: Mat, m: PartialModule, n: PartialModule) -> bool:
    if f.rows != n.dim or f.cols != m.dim or m.dim != n.dim:
        return False
    return (all(f * m.pi[i] == n.pi[i] * f for i in range(m.hopf.dim))
            and rank(f) == m.dim)


def direct_sum(ms, hopf=None) -> PartialModule:
    ms = list(ms)
    if not ms:
        if hopf is None:
            raise ValueError("empty sum needs an explicit Hopf algebra")
        return PartialModule(hopf, 0, tuple(Mat.zeros(0, 0) for _ in range(hopf.dim)))
    h = ms[0].hopf
    if any(m.hopf != h for m in ms):
        raise ValueError("summands live over different Hopf algebras")
    pis = tuple(block_diag([m.pi[i] for m in ms]) for i in range(h.dim))
    return PartialModule(h, sum(m.dim for m in ms), pis)


def _generated_algebra(n, gens) -> Subspace:
    """Span of all words in the n x n matrices gens, the empty word included."""
    seed = Subspace.from_vectors(n * n, [mat_to_vec(Mat.identity(n))]
                                 + [mat_to_vec(g) for g in gens])
    return span_closure(seed, [left_mult_operator(g) for g in gens])


def image_algebra(m: PartialModule) -> Subspace:
    """Span of all words in {pi(e_i)}, as a subspace of the matrix space.

    This is the image of the universal algebra of partial representations
    inside End(M).
    """
    return _generated_algebra(m.dim, m.pi)


def base_subalgebra(m: PartialModule) -> Subspace:
    """Multiplicative span of the epsilon operators together with the identity."""
    return _generated_algebra(m.dim, [epsilon_op(m, i) for i in range(m.hopf.dim)])


def base_subalgebra_commutes(m: PartialModule) -> bool:
    eps = [epsilon_op(m, i) for i in range(m.hopf.dim)]
    return all(a * b == b * a for a in eps for b in eps)


def tensor_with_global(m: PartialModule, n: PartialModule) -> PartialModule:
    """Diagonal action on M (x) N for a global N; stays partial."""
    require(is_global(n), "second tensor factor must be global")
    h = m.hopf
    if n.hopf != h:
        raise ValueError("modules live over different Hopf algebras")
    out = PartialModule(h, m.dim * n.dim, diagonal_action(h, m.pi, n.pi))
    require(check_partial_rep(out).ok, "tensor with a global module fails PR")
    return out


def _balanced_word_pairs(m: PartialModule, n: PartialModule):
    """Span of (right word action on M, left word action on N) pairs.

    Words run over the generators of the base subalgebra; the right action
    on the first factor uses the twin epsilon operators, so appending a
    generator composes on the left there and on the right on N.
    """
    dm, dn = m.dim, n.dim
    amb = dm * dm + dn * dn
    tm = [epsilon_tilde_op(m, i) for i in range(m.hopf.dim)]
    en = [epsilon_op(n, i) for i in range(n.hopf.dim)]
    seed_vecs = [mat_to_vec(Mat.identity(dm)) + mat_to_vec(Mat.identity(dn))]
    for a, b in zip(tm, en):
        seed_vecs.append(mat_to_vec(a) + mat_to_vec(b))
    ops = [block_diag([left_mult_operator(a), right_mult_operator(b)])
           for a, b in zip(tm, en)]
    closed = span_closure(Subspace.from_vectors(amb, seed_vecs), ops)
    pairs = []
    for v in closed.vectors():
        pairs.append((vec_to_mat(v[: dm * dm], dm, dm),
                      vec_to_mat(v[dm * dm:], dn, dn)))
    return pairs


def tensor_over_base(m: PartialModule, n: PartialModule) -> PartialModule:
    """Tensor product over the base subalgebra, with the diagonal action.

    The relation span {a.v (x) w - v (x) a.w} is closed under the whole
    generated base algebra, then checked to be stable under the diagonal
    action; failure signals inconsistent input.
    """
    h = m.hopf
    if n.hopf != h:
        raise ValueError("modules live over different Hopf algebras")
    require(check_partial_rep(m).ok and check_partial_rep(n).ok,
            "tensor factors must be valid partial modules")
    nm = m.dim * n.dim
    rel = Subspace.zero(nm)
    for p, q in _balanced_word_pairs(m, n):
        r = kron(p, Mat.identity(n.dim)) - kron(Mat.identity(m.dim), q)
        rel = rel.add(column_space(r))
    diag = diagonal_action(h, m.pi, n.pi)
    i = first_unstable(rel, diag)
    require(i is None, f"relation span is not stable under the diagonal action "
                       f"(basis index {i})")
    _, qdim, pis = quotient_action(nm, rel, diag)
    out = PartialModule(h, qdim, tuple(pis))
    require(check_partial_rep(out).ok, "balanced tensor fails the partial axioms")
    return out


# -- the two worked classifications ------------------------------------------

def _eigenbasis_columns(op: Mat, eigenvalue):
    space = kernel_basis(op - Mat.identity(op.rows).scale(eigenvalue))
    return space, space.vectors()


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
    _, v0 = _eigenbasis_columns(t, 1)
    _, v1 = _eigenbasis_columns(t, 0)
    _, vh = _eigenbasis_columns(t, frac("1/2"))
    dims = (len(v0), len(v1), len(vh))
    require(sum(dims) == m.dim, "eigenspaces do not fill the module")
    cb = Mat.from_cols(v0 + v1 + vh, m.dim)
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

    w_incl = w_space.basis.transpose()
    try:
        c, d, g_on_w = restrict_operators((x, y, g), w_incl)
    except ValueError:
        raise ValidationError("ker[g] is not stable under [x], [y]")
    require(g_on_w.is_zero(), "[g] does not vanish on its kernel block")
    require(c * d == d * c, "cd = dc fails on the pure part")
    require(c * c == d * d, "c^2 = d^2 fails on the pure part")

    if u_space.dim:
        u_incl = u_space.basis.transpose()
        try:
            g_u, x_u, y_u = restrict_operators((g, x, y), u_incl)
        except ValueError:
            raise ValidationError("global part is not action-stable")
        require((x_u * x_u).is_zero(), "ab = ba = 0 fails on the global part")
        require(y_u == g_u * x_u, "[y] != [g][x] on the global part")
        u_module = PartialModule(m.hopf, u_space.dim,
                                 (Mat.identity(u_space.dim), g_u, x_u, y_u))
        require(check_partial_rep(u_module).ok and is_global(u_module),
                "restriction to the ±1 eigenspaces is not global")
    return u_space, w_space, c, d


def w_n_module(n: int, hopf=None) -> PartialModule:
    """The pure tower module: [g] = 0 and [x] = [y] = the lower shift."""
    if n < 1:
        raise ValueError("n must be at least 1")
    h = hopf if hopf is not None else builtin("sweedler")
    if h != builtin("sweedler"):
        raise ValueError("W_n lives over the Sweedler Hopf algebra")
    shift = Mat([[1 if i == j + 1 else 0 for j in range(n)] for i in range(n)])
    mod = PartialModule(h, n, (Mat.identity(n), Mat.zeros(n, n), shift, shift))
    require(check_partial_rep(mod).ok, "W_n construction failed the axioms")
    return mod


def regular_module(h: HopfAlgebraData) -> PartialModule:
    """H acting on itself by left multiplication (a global module)."""
    pis = tuple(Mat.from_cols([h.mult_vec(i, j) for j in range(h.dim)], h.dim)
                for i in range(h.dim))
    return PartialModule(h, h.dim, pis)


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
