"""Partial modules over a Hopf algebra, as families of matrices.

A partial module is a space M together with one matrix per Hopf basis
element; the matrix family must satisfy the five partial-representation
identities, which weaken "pi is an algebra map" (the global case).  All
Sweedler indices are expanded through the comultiplication structure
constants, so every axiom is a finite exact matrix identity over basis
pairs.

The identities are measured by the deviation D(x, y) = pi(x) pi(y) - pi(xy).
For any family of matrices D is bilinear in (x, y), so the deviations at
antipode images are combinations of the deviations at basis elements:
D(S e_i, y) = sum_a S_ai D(e_a, y) and D(x, S e_j) = sum_b S_bj D(x, e_b).
The checker therefore works on stacked blocks: block column j stacks
D(e_i, e_j) over i, block row i lays D(e_i, e_j) side by side over j, and
each identity is one d n x d n table of n x n blocks assembled from d
Sweedler sums of stacked products, not d^2 sums of small ones.

Alongside the axiom checker this module computes the lattice of global
behaviour inside a partial module: the global core (largest global
submodule), the global shadow (largest global quotient), purity, morphism
spaces, image algebras, tensor constructions and the two worked
classifications (dual C2 and the four-dimensional Sweedler algebra).
"""

from dataclasses import dataclass

from .hopf import HopfAlgebraData, builtin, left_mults
from .linalg import (Mat, ShapeError, Subspace, _mat_sum, block_diag,
                     column_space, first_unstable, frac, hstack, inverse,
                     kernel_basis, kron, left_mult_operator, mat_to_vec,
                     quotient_map, quotient_section, rank, restrict_operators,
                     right_mult_operator, span_closure, split_blocks,
                     vec_to_mat, vstack)
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
                        self.dim, self.dim)


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
    return _mat_sum(((term(a, b), c) for a, b, c in h.comult_terms[i]), n, n)


def antipode_images(m: PartialModule):
    """(pi(S e_0), ..., pi(S e_{d-1})), summed over the sparse antipode columns."""
    return tuple(_mat_sum(((m.pi[j], c) for j, c in terms), m.dim, m.dim)
                 for terms in m.hopf.antipode_terms)


def twisted_conjugate(m: PartialModule, t, i, tilde, pi_s) -> Mat:
    """pi(e_i (1)) t pi(S(e_i (2))), or pi(S(e_i (1))) t pi(e_i (2)) with tilde.

    pi_s is antipode_images(m), built once by the caller for a whole family
    of conjugates; t None stands for the identity.
    """
    left, right = (pi_s, m.pi) if tilde else (m.pi, pi_s)
    if t is None:
        return comult_sum(m.hopf, i, m.dim, lambda a, b: left[a] * right[b])
    return comult_sum(m.hopf, i, m.dim, lambda a, b: left[a] * t * right[b])


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


def epsilon_ops(m: PartialModule, tilde=False):
    """The operators eps_{e_i} = pi(e_i (1)) pi(S(e_i (2))) for i = 0..d-1.

    With tilde, their twins pi(S(e_i (1))) pi(e_i (2)).
    """
    pi_s = antipode_images(m)
    return tuple(twisted_conjugate(m, None, i, tilde, pi_s)
                 for i in range(m.hopf.dim))


def _deviation_columns(m: PartialModule):
    """The block columns of the deviation table, one at a time, j = 0..d-1.

    Block column j is the d n x n matrix stacking D(e_i, e_j) over i:
    vstack(pi) pi(e_j) minus the stacked pi(e_i e_j), which are read from
    the sparse multiplication table.  A caller that stops early skips the
    remaining products.
    """
    h, n = m.hopf, m.dim
    stacked = vstack(m.pi)
    for j, p in enumerate(m.pi):
        yield stacked * p - vstack(
            [_mat_sum(((m.pi[k], c) for k, c in h.mult_terms[i][j]), n, n)
             for i in range(h.dim)])


def _basis_deviations(m: PartialModule):
    """pi(e_i) pi(e_j) - pi(e_i e_j) for all basis pairs, row-major."""
    n, d = m.dim, m.hopf.dim
    table = hstack(list(_deviation_columns(m)))
    return [dev for row in split_blocks(table, [n] * d, [n] * d) for dev in row]


def _first_nonzero_block(table: Mat, d, n):
    """First (i, j) in row-major order whose n x n block of table is nonzero."""
    if table.is_zero():
        return None
    grid = split_blocks(table, [n] * d, [n] * d)
    return next((i, j) for i, row in enumerate(grid)
                for j, block in enumerate(row) if not block.is_zero())


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
    """The PR1-PR5 Checks of m, in order.

    Block (i, j) of each identity's table is, with Delta(e) = sum c e_a (x) e_b,
      PR2: sum over Delta(e_j) of c D(e_i, e_a) pi(S e_b),
      PR3: sum over Delta(e_i) of c pi(e_a) D(S e_b, e_j),
      PR4: sum over Delta(e_j) of c D(e_i, S e_a) pi(e_b),
      PR5: sum over Delta(e_i) of c pi(S e_a) D(e_b, e_j).
    PR2 and PR4 are built a block column j at a time from the stacked
    columns D(., e_a) and D(., S e_a), PR3 and PR5 a block row i at a time
    from the rows D(e_b, .) and D(S e_b, .).  The twisted columns and rows
    come from the untwisted ones by bilinearity, as sums over the sparse
    antipode columns, so the products are the d deviation columns and one
    stacked product per Sweedler term and identity.  The witness is the
    first (i, j) in row-major order whose block is nonzero.
    """
    h = m.hopf
    d = h.dim
    n = m.dim
    checks = [Check("PR1 unit", m.pi_vec(h.unit) == Mat.identity(n))]

    pi_s = antipode_images(m)
    cols = list(_deviation_columns(m))
    rows = [row for (row,) in split_blocks(hstack(cols), [n] * d, [d * n])]
    cols_s = [_mat_sum(((cols[b], c) for b, c in terms), d * n, n)
              for terms in h.antipode_terms]
    rows_s = [_mat_sum(((rows[a], c) for a, c in terms), n, d * n)
              for terms in h.antipode_terms]

    def by_columns(dev, right):
        return hstack([_mat_sum(((dev[a] * right[b], c)
                                 for a, b, c in h.comult_terms[j]), d * n, n)
                       for j in range(d)])

    def by_rows(left, dev):
        return vstack([_mat_sum(((left[a] * dev[b], c)
                                 for a, b, c in h.comult_terms[i]), n, d * n)
                       for i in range(d)])

    tables = (("PR2", by_columns(cols, pi_s)),
              ("PR3", by_rows(m.pi, rows_s)),
              ("PR4", by_columns(cols_s, m.pi)),
              ("PR5", by_rows(pi_s, rows)))
    for name, table in tables:
        w = _first_nonzero_block(table, d, n)
        checks.append(Check(name, w is None, w))
    return tuple(checks)


def is_algebra_map(m: PartialModule) -> bool:
    """Direct globality test: pi respects unit and products of basis elements.

    The deviation columns are read one at a time, up to the first nonzero.
    """
    if m.pi_vec(m.hopf.unit) != Mat.identity(m.dim):
        return False
    return all(col.is_zero() for col in _deviation_columns(m))


def is_global(m: PartialModule) -> bool:
    """True when pi(h_(1)) pi(S(h_(2))) = eps(h) id for every basis element.

    When that holds, pi is an algebra map; this consequence is re-checked
    rather than trusted.
    """
    ident = Mat.identity(m.dim)
    if any(eps != ident.scale(c) for eps, c in zip(epsilon_ops(m), m.hopf.counit)):
        return False
    require(all(col.is_zero() for col in _deviation_columns(m)),
            "epsilon condition holds but pi is not multiplicative; "
            "input is not a valid partial module")
    return True


def global_core(m: PartialModule) -> Subspace:
    """Largest global submodule: {v : pi(e_i) pi(e_j) v = pi(e_i e_j) v}."""
    devs = vstack(list(_deviation_columns(m)))
    if devs.is_zero():
        return Subspace.full(m.dim)
    core = kernel_basis(devs)
    sub, _ = restrict_to_invariant(m, core)
    require(is_global(sub), "core restriction is not global; invalid input")
    return core


def global_shadow(m: PartialModule):
    """Largest global quotient with the induced action and its projection."""
    n = m.dim
    rel = span_closure(column_space(hstack(_basis_deviations(m))), m.pi)
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
    return _generated_algebra(m.dim, epsilon_ops(m))


def base_subalgebra_commutes(m: PartialModule) -> bool:
    eps = epsilon_ops(m)
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
    tm = epsilon_ops(m, tilde=True)
    en = epsilon_ops(n)
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
    return PartialModule(h, h.dim, tuple(left_mults(h.mult, h.dim)))


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
