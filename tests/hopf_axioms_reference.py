"""Element-wise reference checkers for the Hopf axioms and Hopf morphisms.

These are the coefficient-dict evaluations that `hopf.validate_hopf` and
`hopf.hopf_morphism_report` replaced with matrix identities on the product
mu and the coproduct Delta: every tensor is a dict from basis index tuples
to nonzero coefficients, and both sides of an axiom are summed term by
term over the sparse tables of the structure constants.  The reports they
return are the oracle of `tests/test_hopf_differential.py`: same check
names, pass flags and witnesses.
"""

from hopf_partial.hopf import _associativity_witness, _unit_witness, mult_by
from hopf_partial.linalg import Mat, ShapeError, _col, frac
from hopf_partial.reports import ValidationReport


def mult_terms(mult):
    """The sparse table of mult: terms[i][j] lists the (k, c) with c != 0."""
    return tuple(tuple(tuple((k, c) for k, c in enumerate(row) if c)
                       for row in plane) for plane in mult)


def _collect(terms):
    """Sum (key, coeff) pairs into a dict of tensor coefficients, zeros dropped."""
    out = {}
    for key, c in terms:
        out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c}


def _comult_el(h, u):
    """Delta of the coefficient vector u, as tensor coefficients."""
    return _collect(((a, b), c * cc) for k, c in enumerate(u) if c
                    for a, b, cc in h.comult_terms[k])


def counit_el(h, u):
    return sum((a * e for a, e in zip(u, h.counit)), frac(0))


def validate_hopf(h) -> ValidationReport:
    """Check every Hopf axiom, reporting a witness index tuple on failure."""
    d = h.dim
    report = ValidationReport("hopf axioms")

    witness = _associativity_witness(h.left)
    report.record("associativity", witness is None, witness)

    witness = _unit_witness(h.left, _col(h.unit))
    report.record("unit", witness is None, witness)

    witness = next(((i,) for i in range(d)
                    if _collect(((a, b, c), cpc * cab)
                                for p, c, cpc in h.comult_terms[i]
                                for a, b, cab in h.comult_terms[p])
                    != _collect(((a, b, c), cap * cbc)
                                for a, p, cap in h.comult_terms[i]
                                for b, c, cbc in h.comult_terms[p])), None)
    report.record("coassociativity", witness is None, witness)

    witness = next(((i,) for i in range(d)
                    if _collect((k, c * h.counit[j]) for j, k, c in h.comult_terms[i])
                    != {i: 1}
                    or _collect((j, c * h.counit[k]) for j, k, c in h.comult_terms[i])
                    != {i: 1}), None)
    report.record("counit", witness is None, witness)

    terms = mult_terms(h.mult)
    witness = None
    if counit_el(h, h.unit) != 1:
        witness = ("counit of unit",)
    elif _comult_el(h, h.unit) != _collect(((j, k), a * b) for j, a in enumerate(h.unit)
                                           for k, b in enumerate(h.unit)):
        witness = ("comult of unit",)
    if witness is None:
        for i in range(d):
            for j in range(d):
                prod = h.mult[i][j]
                if counit_el(h, prod) != h.counit[i] * h.counit[j]:
                    witness = (i, j, "counit multiplicative")
                    break
                right = _collect(((a, b), cpq * crs * x * y)
                                 for p, q, cpq in h.comult_terms[i]
                                 for r, s, crs in h.comult_terms[j]
                                 for a, x in terms[p][r]
                                 for b, y in terms[q][s])
                if _comult_el(h, prod) != right:
                    witness = (i, j, "comult multiplicative")
                    break
            if witness:
                break
    report.record("bialgebra", witness is None, witness)

    # S(e_i(1)) e_i(2) and e_i(1) S(e_i(2)) against eps(e_i) 1
    ones = [_collect((t, e * x) for t, x in enumerate(h.unit)) for e in h.counit]
    witness = next(((i,) for i in range(d)
                    if _collect((t, c * s * x) for j, k, c in h.comult_terms[i]
                                for a, s in h.antipode_terms[j]
                                for t, x in terms[a][k]) != ones[i]
                    or _collect((t, c * s * x) for j, k, c in h.comult_terms[i]
                                for b, s in h.antipode_terms[k]
                                for t, x in terms[j][b]) != ones[i]), None)
    report.record("antipode", witness is None, witness)

    ident = Mat.identity(d)
    inv_ok = (h.antipode * h.antipode_inv == ident
              and h.antipode_inv * h.antipode == ident)
    report.record("antipode invertible", inv_ok)
    return report


def hopf_morphism_report(src, dst, f: Mat) -> ValidationReport:
    """Check that f intertwines every structure map of src and dst."""
    if f.rows != dst.dim or f.cols != src.dim:
        raise ShapeError("morphism matrix shape mismatch")
    report = ValidationReport("hopf morphism")
    report.record("unit", f.apply(src.unit) == dst.unit)

    images = mult_by(dst.left, f)
    witness = next(((i, j) for i in range(src.dim) for j in range(src.dim)
                    if f.apply(src.mult[i][j]) != images[i].apply(f.col(j))), None)
    report.record("multiplicative", witness is None, witness)

    witness = next(((i,) for i in range(src.dim)
                    if _collect(((a, b), c * x * y) for j, k, c in src.comult_terms[i]
                                for a, x in enumerate(f.col(j)) if x != 0
                                for b, y in enumerate(f.col(k)) if y != 0)
                    != _comult_el(dst, f.col(i))), None)
    report.record("comultiplicative", witness is None, witness)

    report.record("counit", all(counit_el(dst, f.col(i)) == src.counit[i]
                                for i in range(src.dim)))
    report.record("antipode", f * src.antipode == dst.antipode * f)
    return report
