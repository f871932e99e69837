"""JSON (de)serialization shared by the CLI and the file formats.

Scalars travel as exact strings "p/q" (or "p" for integers); matrices as
arrays of arrays of such strings.  Hopf algebras may be referenced by
builtin name wherever a document embeds one.
"""

import json
from fractions import Fraction

from .actions import GlobalModuleAlgebra, PartialModuleAlgebra, SmashAlgebra
from .hopf import BUILTIN_NAMES, HopfAlgebraData, builtin
from .linalg import Mat, frac
from .partial import PartialModule
from .projection import ProjectedModule


class FormatError(ValueError):
    """Input does not match the expected JSON schema."""


def scalar_to_str(x: Fraction) -> str:
    x = frac(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def scalar_from_json(s) -> Fraction:
    if isinstance(s, bool) or isinstance(s, float):
        raise FormatError(f"scalars must be integers or 'p/q' strings, got {s!r}")
    try:
        return frac(s)
    except (ValueError, TypeError, ZeroDivisionError):
        raise FormatError(f"bad scalar {s!r}")


def vec_to_json(v):
    return [scalar_to_str(x) for x in v]


def vec_from_json(data):
    if not isinstance(data, list):
        raise FormatError("expected an array of scalars")
    return tuple(scalar_from_json(x) for x in data)


def mat_to_json(m: Mat):
    return [[scalar_to_str(x) for x in row] for row in m.entries]


def mat_from_json(data, cols=None) -> Mat:
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise FormatError("expected an array of arrays of scalars")
    try:
        return Mat([[scalar_from_json(x) for x in row] for row in data], cols=cols)
    except ValueError as exc:
        raise FormatError(str(exc))


def _cube_to_json(cube):
    return [[[scalar_to_str(x) for x in row] for row in plane] for plane in cube]


def _cube_from_json(data):
    if not (isinstance(data, list)
            and all(isinstance(plane, list) and all(isinstance(row, list) for row in plane)
                    for plane in data)):
        raise FormatError("expected a rank-3 scalar array")
    return [[[scalar_from_json(x) for x in row] for row in plane] for plane in data]


def hopf_to_json(h: HopfAlgebraData):
    out = {"dim": h.dim,
           "mult": _cube_to_json(h.mult),
           "unit": vec_to_json(h.unit),
           "comult": _cube_to_json(h.comult),
           "counit": vec_to_json(h.counit),
           "antipode": mat_to_json(h.antipode)}
    if h.labels:
        out["labels"] = list(h.labels)
    return out


def hopf_from_json(data, validate=True) -> HopfAlgebraData:
    """Builtin name, or a full structure-constant document.

    The inverse antipode is recomputed on load when absent.  With
    validate=False the axioms are not checked, so a caller can produce a
    witness report for invalid input instead of an exception.
    """
    if isinstance(data, str):
        if data not in BUILTIN_NAMES:
            raise FormatError(f"unknown builtin Hopf algebra {data!r}")
        return builtin(data)
    if not isinstance(data, dict):
        raise FormatError("hopf must be a builtin name or an object")
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise FormatError("labels must be an array")
    try:
        dim = int(data["dim"])
        antipode_inv = None
        if "antipode_inv" in data:
            antipode_inv = mat_from_json(data["antipode_inv"])
        return HopfAlgebraData.build(
            dim,
            _cube_from_json(data["mult"]),
            vec_from_json(data["unit"]),
            _cube_from_json(data["comult"]),
            vec_from_json(data["counit"]),
            mat_from_json(data["antipode"]),
            antipode_inv=antipode_inv,
            labels=labels,
            validate=validate)
    except KeyError as exc:
        raise FormatError(f"hopf document is missing field {exc}")


def partial_module_to_json(m: PartialModule, hopf_ref=None):
    return {"hopf": hopf_ref if hopf_ref is not None else hopf_to_json(m.hopf),
            "dim": m.dim,
            "pi": [mat_to_json(p) for p in m.pi]}


def partial_module_from_json(data, default_hopf=None) -> PartialModule:
    if not isinstance(data, dict):
        raise FormatError("partial module must be an object")
    if "hopf" in data:
        h = hopf_from_json(data["hopf"])
    elif default_hopf is not None:
        h = default_hopf
    else:
        raise FormatError("no Hopf algebra given (field 'hopf' or --hopf)")
    try:
        dim = int(data["dim"])
        pis = [mat_from_json(p, cols=dim) for p in data["pi"]]
    except KeyError as exc:
        raise FormatError(f"partial module is missing field {exc}")
    if len(pis) != h.dim:
        raise FormatError("need one action matrix per Hopf basis element")
    if any(p.rows != dim or p.cols != dim for p in pis):
        raise FormatError("action matrix shape mismatch")
    return PartialModule(h, dim, tuple(pis))


def projected_module_from_json(data, default_hopf=None) -> ProjectedModule:
    if not isinstance(data, dict) or "module" not in data or "t" not in data:
        raise FormatError("projected module needs fields 'module' and 't'")
    module = partial_module_from_json(data["module"], default_hopf)
    t = mat_from_json(data["t"], cols=module.dim)
    return ProjectedModule.build(module, t)


def partial_algebra_from_json(data, default_hopf=None) -> PartialModuleAlgebra:
    if not isinstance(data, dict):
        raise FormatError("partial module algebra must be an object")
    module = partial_module_from_json(data, default_hopf)
    try:
        alg_mult = _cube_from_json(data["alg_mult"])
        alg_unit = vec_from_json(data["alg_unit"])
    except KeyError as exc:
        raise FormatError(f"algebra document is missing field {exc}")
    return PartialModuleAlgebra.build(module.hopf, alg_mult, alg_unit, module.pi)


def partial_algebra_to_json(b: PartialModuleAlgebra, hopf_ref=None):
    out = partial_module_to_json(b.as_module(), hopf_ref)
    out["alg_mult"] = _cube_to_json(b.alg_mult)
    out["alg_unit"] = vec_to_json(b.alg_unit)
    return out


def global_algebra_to_json(gb: GlobalModuleAlgebra):
    out = {"dim": gb.dim,
           "alg_mult": _cube_to_json(gb.alg_mult),
           "action": [mat_to_json(p) for p in gb.action],
           "unital": gb.unital}
    if gb.alg_unit is not None:
        out["alg_unit"] = vec_to_json(gb.alg_unit)
    return out


def smash_to_json(s: SmashAlgebra):
    return {"factor_dim": s.factor_dim,
            "dim": s.dim,
            "basis": mat_to_json(s.ambient.basis),
            "mult": _cube_to_json(s.mult),
            "unit": vec_to_json(s.unit) if s.unit is not None else None,
            "h_embedding": [vec_to_json(v) for v in s.h_embedding]}


def dilation_to_json(d):
    mod = d.projected.module
    return {"source_dim": d.source.dim,
            "dilation_dim": mod.dim,
            "t": mat_to_json(d.projected.t),
            "action": [mat_to_json(p) for p in mod.pi],
            "theta": mat_to_json(d.theta),
            "proper": d.proper,
            "minimal": d.minimal}


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}")
