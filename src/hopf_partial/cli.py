"""Command line driver: JSON in, JSON reports out.

Exit codes: 0 success, 1 a validation or axiom check failed (the report
carries witnesses), 2 malformed input or a path that cannot be read or
written.  Input "-" reads standard input.

A call that starts with a known verb builds a parser holding only that
verb's subparser; any other call (no verb, ``--help``, an unknown verb)
builds the full tree.  Both print the same usage, help and error text.
"""

import argparse
import sys

from . import serialize as io
from .demos import DEMOS, demo_suite
from .dilation import standard_dilation
from .hopf import BUILTIN_NAMES, builtin, validate_hopf
from .linalg import ShapeError
from .partial import (check_partial_rep, classify_dual_c2, classify_sweedler,
                      global_core, global_shadow)
from .actions import (check_partial_action, globalize, global_smash,
                      morita_context, partial_smash)
from .projection import restrict
from .reports import ValidationError

OK, CHECK_FAILED, BAD_INPUT = 0, 1, 2

VERBS = ("validate-hopf", "check-partial", "check-action", "core", "shadow",
         "classify", "restrict", "dilate", "globalize", "smash", "demo", "morita")


def _read(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise io.FormatError(f"input is not UTF-8 text: {exc}")


def _emit(payload, output):
    text = io.dumps(payload)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _default_hopf(args):
    if getattr(args, "hopf", None) is None:
        return None
    name = args.hopf
    if name in BUILTIN_NAMES:
        return builtin(name)
    return io.hopf_from_json(io.loads(_read(name)))


def cmd_validate_hopf(args):
    h = io.hopf_from_json(io.loads(_read(args.input)), validate=False)
    report = validate_hopf(h)
    _emit(report.to_json(), args.output)
    return OK if report.ok else CHECK_FAILED


def cmd_check_partial(args):
    m = io.partial_module_from_json(io.loads(_read(args.input)),
                                    _default_hopf(args))
    report = check_partial_rep(m)
    _emit(report.to_json(), args.output)
    return OK if report.ok else CHECK_FAILED


def cmd_check_action(args):
    b = io.partial_algebra_from_json(io.loads(_read(args.input)),
                                     _default_hopf(args))
    report = check_partial_action(b)
    _emit(report.to_json(), args.output)
    return OK if report.ok else CHECK_FAILED


def cmd_core(args):
    m = io.partial_module_from_json(io.loads(_read(args.input)),
                                    _default_hopf(args))
    core = global_core(m)
    _emit({"core_dim": core.dim, "core_basis": io.mat_to_json(core.basis)},
          args.output)
    return OK


def cmd_shadow(args):
    m = io.partial_module_from_json(io.loads(_read(args.input)),
                                    _default_hopf(args))
    shadow, q = global_shadow(m)
    _emit({"shadow_dim": shadow.dim,
           "pi": [io.mat_to_json(p) for p in shadow.pi],
           "projection": io.mat_to_json(q)}, args.output)
    return OK


def cmd_classify(args):
    m = io.partial_module_from_json(io.loads(_read(args.input)),
                                    _default_hopf(args))
    if m.hopf == builtin("kC2-dual"):
        dims, cb = classify_dual_c2(m)
        payload = {"kind": "dual-C2",
                   "dims": {"eigenvalue_1": dims[0], "eigenvalue_0": dims[1],
                            "eigenvalue_half": dims[2]},
                   "change_of_basis": io.mat_to_json(cb)}
    elif m.hopf == builtin("sweedler"):
        u, w, c, d = classify_sweedler(m)
        payload = {"kind": "sweedler",
                   "global_dim": u.dim, "pure_dim": w.dim,
                   "global_part": io.mat_to_json(u.basis),
                   "pure_part": io.mat_to_json(w.basis),
                   "c": io.mat_to_json(c), "d": io.mat_to_json(d)}
    else:
        raise io.FormatError("classify supports modules over kC2-dual "
                             "or the Sweedler algebra")
    _emit(payload, args.output)
    return OK


def cmd_restrict(args):
    p = io.projected_module_from_json(io.loads(_read(args.input)),
                                      _default_hopf(args))
    module, incl = restrict(p)
    _emit({"dim": module.dim,
           "pi": [io.mat_to_json(mat) for mat in module.pi],
           "inclusion": io.mat_to_json(incl)}, args.output)
    return OK


def cmd_dilate(args):
    m = io.partial_module_from_json(io.loads(_read(args.input)),
                                    _default_hopf(args))
    dil = standard_dilation(m)
    _emit(io.dilation_to_json(dil), args.output)
    return OK


def cmd_globalize(args):
    b = io.partial_algebra_from_json(io.loads(_read(args.input)),
                                     _default_hopf(args))
    gb, phi, report = globalize(b)
    _emit({"globalization": io.global_algebra_to_json(gb),
           "phi": io.mat_to_json(phi),
           "report": report.to_json()}, args.output)
    return OK if report.ok else CHECK_FAILED


def cmd_smash(args):
    b = io.partial_algebra_from_json(io.loads(_read(args.input)),
                                     _default_hopf(args))
    if args.glob:
        gb, _, _ = globalize(b)
        payload = io.smash_to_json(global_smash(gb))
    else:
        payload = io.smash_to_json(partial_smash(b))
    _emit(payload, args.output)
    return OK


def cmd_morita(args):
    b = io.partial_algebra_from_json(io.loads(_read(args.input)),
                                     _default_hopf(args))
    p_space, q_space, report = morita_context(b)
    _emit({"P_dim": p_space.dim, "Q_dim": q_space.dim,
           "P_basis": io.mat_to_json(p_space.basis),
           "Q_basis": io.mat_to_json(q_space.basis),
           "report": report.to_json()}, args.output)
    return OK if report.ok else CHECK_FAILED


def cmd_demo(args):
    if not args.all and not args.name:
        raise io.FormatError("demo needs --all or --name <id>")
    names = None if args.all else args.name
    result = demo_suite(names)
    for entry in result["demos"]:
        line = f"{'PASS' if entry['ok'] else 'FAIL'}  {entry['name']}"
        print(line, file=sys.stderr)
    if "coverage" in result:
        cov = result["coverage"]
        print(f"coverage complete: {cov['complete']}", file=sys.stderr)
    _emit(result, args.output)
    return OK if result["ok"] else CHECK_FAILED


def build_parser(verbs=VERBS):
    """The parser with a subparser for each of verbs, all of VERBS by default.

    With fewer verbs the top-level usage line still lists every verb, so
    an error reported at the top level (an unrecognized argument after a
    verb's own) reads the same as from the full tree.
    """
    parser = argparse.ArgumentParser(
        prog="hopf-partial",
        description="Exact computations with partial representations of "
                    "finite-dimensional Hopf algebras.",
        epilog="HOPF_PARTIAL_SEED reseeds the randomized property tests "
               "of the accompanying test suite.")
    sub = parser.add_subparsers(
        dest="verb", required=True,
        metavar=None if verbs == VERBS else "{" + ",".join(VERBS) + "}")

    def add(name, fn, needs_input=True, **kwargs):
        if name not in verbs:
            return None
        p = sub.add_parser(name, **kwargs)
        if needs_input:
            p.add_argument("--input", required=True,
                           help="input JSON file, or - for stdin")
            p.add_argument("--hopf", default=None, metavar="BUILTIN|PATH",
                           help="Hopf algebra used when the input has no "
                                f"'hopf' field; builtins: {', '.join(BUILTIN_NAMES)}")
        p.add_argument("--output", default=None, help="write JSON here "
                       "instead of stdout")
        p.set_defaults(fn=fn)
        return p

    add("validate-hopf", cmd_validate_hopf, help="check every Hopf axiom")
    add("check-partial", cmd_check_partial, help="check PR1-PR5")
    add("check-action", cmd_check_action, help="check PA1-PA3'")
    add("core", cmd_core, help="largest global submodule")
    add("shadow", cmd_shadow, help="largest global quotient")
    add("classify", cmd_classify,
        help="eigen decomposition over kC2-dual or the Sweedler algebra")
    add("restrict", cmd_restrict, help="partial module of a projected module")
    add("dilate", cmd_dilate, help="standard dilation of a partial module")
    add("globalize", cmd_globalize, help="enveloping action of a partial "
        "module algebra")
    smash = add("smash", cmd_smash, help="partial smash product (or the "
                "global one with --global)")
    if smash:
        smash.add_argument("--global", dest="glob", action="store_true",
                           help="smash product of the globalization")
    demo = add("demo", cmd_demo, needs_input=False,
               help="replay the worked examples against expected outputs")
    if demo:
        demo.add_argument("--all", action="store_true", help="run every demo")
        demo.add_argument("--name", action="append", metavar="ID",
                          help=f"run one demo; known: {', '.join(DEMOS)}")
    add("morita", cmd_morita, help="Morita context between the smash products")
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    verbs = (argv[0],) if argv and argv[0] in VERBS else VERBS
    args = build_parser(verbs).parse_args(argv)
    try:
        return args.fn(args)
    except (io.FormatError, OSError, ShapeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except ValidationError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
