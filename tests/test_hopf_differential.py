"""The matrix-identity Hopf checkers against the coefficient-dict reference.

`hopf.validate_hopf` and `hopf.hopf_morphism_report` must give the same
report JSON as `hopf_axioms_reference`: the same check names in the same
order, pass flags and witnesses.  Inputs: every builtin, cop of the
Sweedler algebra, the Sweedler algebra and kC3 in random unitriangular
rational bases, and the zero-dimensional document, each as given and
with one or two entries of mult, comult, unit, counit or antipode moved by a nonzero
rational; for morphisms, perturbations of the known morphisms between
every pair of builtins (the trivial x -> eps(x) 1, the identity and the
isomorphism kC2-dual -> kC2 and its inverse) and random sparse matrices.
`validate-hopf` prints the reference report for the perturbed documents.
"""

import contextlib
import io as text_io

import pytest

from hopf_partial import hopf as hp
from hopf_partial import linalg as la
from hopf_partial import serialize as io
from hopf_partial.cli import main

import gen
import hopf_axioms_reference as ref
from test_partial_rep_differential import hopf_in_basis

PERTURBED = 114     # per source: 9 sources with entries give 1026 algebras
MORPHISMS = 40      # per ordered pair of builtins
CLI_EVERY = 5       # every 5th perturbed document also goes through the CLI
FIELDS = ("mult", "unit", "comult", "counit", "antipode")


def _sources():
    # unitriangular changes of basis keep the denominators of the new
    # constants small; the reference takes about 0.1 s per algebra on
    # those of a dense random basis
    r = gen.rng("hopfdiff-bases")
    out = {name: hp.builtin(name) for name in hp.BUILTIN_NAMES}
    out["cop-sweedler"] = hp.cop(hp.sweedler_h4())
    for name in ("sweedler", "kC3"):
        h = hp.builtin(name)
        p = la.Mat([[gen.rand_frac(r) if i < j else int(i == j) for j in range(h.dim)]
                    for i in range(h.dim)])
        out[f"{name}-in-new-basis"] = hopf_in_basis(h, p)
    return out


SOURCES = _sources()


def _arrays(h):
    return {"mult": [[list(row) for row in plane] for plane in h.mult],
            "unit": list(h.unit),
            "comult": [[list(row) for row in plane] for plane in h.comult],
            "counit": list(h.counit),
            "antipode": [list(row) for row in h.antipode.entries]}


def _perturbed(r, h):
    """h with one or two entries of its arrays moved, S^-1 kept as it was."""
    arrays = _arrays(h)
    for _ in range(r.choice((1, 2))):
        field = r.choice(FIELDS)
        target, index = arrays[field], r.randrange(h.dim)
        while isinstance(target[index], list):
            target, index = target[index], r.randrange(h.dim)
        target[index] += gen.rand_frac(r) or 1
    return hp.HopfAlgebraData.build(h.dim, antipode_inv=h.antipode_inv,
                                    labels=h.labels, validate=False, **arrays)


def _validate_same(h):
    out = hp.validate_hopf(h).to_json()
    assert out == ref.validate_hopf(h).to_json()
    return out


def _cli_prints_reference(tmp_path, h):
    path = tmp_path / "hopf.json"
    path.write_text(io.dumps(dict(io.hopf_to_json(h),
                                  antipode_inv=io.mat_to_json(h.antipode_inv))))
    stdout = text_io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["validate-hopf", "--input", str(path)])
    want = ref.validate_hopf(h)
    assert code == (0 if want.ok else 1)
    assert stdout.getvalue() == io.dumps(want.to_json())


def _witness_kinds(report):
    return {(c["name"], c["witness"][-1] if c["name"] == "bialgebra" else None)
            for c in report["checks"] if not c["passed"]}


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_perturbed_algebras_match(tmp_path, name):
    h = SOURCES[name]
    assert _validate_same(h)["ok"]
    r = gen.rng(f"hopfdiff-{name}")
    seen = set()
    for k in range(PERTURBED):
        bad = _perturbed(r, h)
        seen |= _witness_kinds(_validate_same(bad))
        if k % CLI_EVERY == 0:
            _cli_prints_reference(tmp_path, bad)
    failing = {check for check, _ in seen}
    assert {"coassociativity", "counit", "bialgebra", "antipode",
            "antipode invertible"} <= failing


def test_every_bialgebra_witness_kind_is_compared():
    r = gen.rng("hopfdiff-kinds")
    seen = set()
    for name in hp.BUILTIN_NAMES:
        for _ in range(30):
            seen |= _witness_kinds(_validate_same(_perturbed(r, SOURCES[name])))
    assert {("bialgebra", kind) for kind in ("counit of unit", "comult of unit",
                                             "counit multiplicative",
                                             "comult multiplicative")} <= seen


def test_counit_is_reported_before_comult_at_one_pair():
    # u1 u1 = u0 + u1 in kC2 breaks both eps(u1 u1) = 1 and
    # Delta(u1 u1) = u1 u1 (x) u1 u1 at the pair (1, 1)
    arrays = _arrays(hp.builtin("kC2"))
    arrays["mult"][1][1] = [1, 1]
    h = hp.HopfAlgebraData.build(2, validate=False, **arrays)
    report = _validate_same(h)
    assert report["checks"][4] == {"name": "bialgebra", "passed": False,
                                   "witness": [1, 1, "counit multiplicative"]}


def test_zero_dimensional_document_matches(tmp_path):
    h = io.hopf_from_json({"dim": 0, "mult": [], "unit": [], "comult": [],
                           "counit": [], "antipode": []}, validate=False)
    assert not _validate_same(h)["ok"]
    _cli_prints_reference(tmp_path, h)


def _known_morphisms(src, dst):
    """The trivial morphism x -> eps(x) 1, and the identity or the
    isomorphism kC2-dual -> kC2 (or its inverse) where there is one."""
    out = [la.Mat.from_cols([dst.unit], dst.dim) * la.Mat([src.counit], cols=src.dim)]
    if src == dst:
        out.append(la.Mat.identity(src.dim))
    iso = la.Mat([[la.frac("1/2"), la.frac("1/2")], [la.frac("1/2"), la.frac("-1/2")]])
    if (src, dst) == (hp.builtin("kC2-dual"), hp.builtin("kC2")):
        out.append(iso)
    if (src, dst) == (hp.builtin("kC2"), hp.builtin("kC2-dual")):
        out.append(la.inverse(iso))
    return out


def _candidate(r, src, dst, known):
    """A known morphism, one moved by one or two entries, or a random
    sparse matrix, with equal odds of the last two."""
    if r.random() < 0.4:
        return la.Mat([[gen.rand_frac(r) if r.random() < 0.3 else 0
                        for _ in range(src.dim)] for _ in range(dst.dim)], cols=src.dim)
    entries = [list(row) for row in r.choice(known).entries]
    for _ in range(r.choice((0, 1, 1, 2))):
        entries[r.randrange(dst.dim)][r.randrange(src.dim)] += gen.rand_frac(r) or 1
    return la.Mat(entries, cols=src.dim)


@pytest.mark.parametrize("src_name", hp.BUILTIN_NAMES)
def test_morphism_reports_match(src_name):
    src = hp.builtin(src_name)
    r = gen.rng(f"hopfdiff-morphism-{src_name}")
    failing = set()
    for dst_name in hp.BUILTIN_NAMES:
        dst = hp.builtin(dst_name)
        known = _known_morphisms(src, dst)
        for f in known:
            assert hp.hopf_morphism_report(src, dst, f).ok
        for _ in range(MORPHISMS):
            f = _candidate(r, src, dst, known)
            out = hp.hopf_morphism_report(src, dst, f).to_json()
            assert out == ref.hopf_morphism_report(src, dst, f).to_json()
            failing |= {c["name"] for c in out["checks"] if not c["passed"]}
    assert {"unit", "multiplicative", "comultiplicative", "counit",
            "antipode"} <= failing


def test_morphism_shape_mismatch_raises_in_both():
    h = hp.builtin("kC2")
    for check in (hp.hopf_morphism_report, ref.hopf_morphism_report):
        with pytest.raises(la.ShapeError):
            check(h, h, la.Mat.identity(3))
