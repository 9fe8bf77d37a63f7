"""Command-line front end.

Every command loads JSON descriptions, dispatches to the library, and emits
a certificate that embeds the instance it certifies, so `verify-cert` can
re-run it with no external state.  Exit codes: 0 verified/true, 2 refuted
with witness, 3 inconclusive at the configured horizon, 1 input error
(a usage error included; `--help` exits 0).

One table, `COMMANDS`, drives the parser, the dispatch and `execute`.  A
certificate's config is checked against it: a missing key takes the table
default; a value of the wrong type, or outside the key's choices, exits 1.
Documents are read through `_load.Cursor`, so an input error carries the
path of the value at fault and the JSON report shows it as "path".

Only what `check`, `core` on an algebra and the dispatch use is imported at
module level; every other runner imports its own modules when it runs, so a
one-shot command loads only the modules it runs."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import namedtuple

from ._load import InputError, cursor
from .findiff import (FinSigmaAlgebra, RestrictedAutomationError, is_etale,
                      is_sigma_reduced, is_sigma_separable,
                      is_strongly_sigma_etale, strong_core)

CERT_FORMAT = "diffalg-cert-1"
PREDICATES = {
    "etale": is_etale,
    "sreduced": is_sigma_reduced,
    "sseparable": is_sigma_separable,
    "ssetale": is_strongly_sigma_etale,
}
VERDICT_CODES = {"verified": 0, "refuted": 2, "inconclusive": 3}
# the names of suites.SUITES, spelled out so building the parser imports no
# suite; a test keeps the two equal
SUITE_NAMES = ("babbitt", "closure-laws", "compatibility", "core-functoriality",
               "core-oracle", "example-gallery", "finite-tower-cores", "hopf",
               "separability-equivalences")

# Rows of the command table.  Opt: a config key, its type, its one default and
# its argv spelling: a flag (required if the default is None), a positional,
# or None for the global --seed.  File: an input file's argument, its payload
# key (None: the document is the payload) and the type whose empty value an
# optional file left out gives.  Commands on one argv path are told apart by
# `when`, a payload test: the first that passes runs, one without runs last.
Opt = namedtuple("Opt", "key type default arg choices help", defaults=(None, None))
File = namedtuple("File", "arg key empty help", defaults=(None, dict, None))
Command = namedtuple("Command", "name argv files run options when help",
                     defaults=((), None, None))


def _check(payload, cfg):
    value = PREDICATES[cfg["predicate"]](FinSigmaAlgebra.from_json(payload))
    return (0 if value else 2), {"predicate": cfg["predicate"], "value": bool(value)}


def _core(payload, cfg):
    A = FinSigmaAlgebra.from_json(payload)
    res = strong_core(A)
    # one JSON value per distinct scalar, so a caller keeping many results
    # holds each scalar once
    encoded = {}

    def enc(c):
        try:
            return encoded[c]
        except KeyError:
            value = encoded[c] = A.base.scalar_to_json(c)
            return value
        except TypeError:  # unhashable: a shift-field fraction
            return A.base.scalar_to_json(c)

    basis = [[enc(c) for c in res.inclusion.column(j)] for j in range(res.algebra.dim)]
    return (0 if res.complete else 3), {"dimension": res.algebra.dim,
                                        "complete": res.complete, "basis": basis}


def _core_truncated(payload, cfg):
    from .diffpoly import Presentation, strong_core_truncated
    pres = Presentation.from_json(payload)
    res = strong_core_truncated(pres, cfg["level"], cfg["horizon"])
    basis = [[[[list(v) for v in m], pres.base.scalar_to_json(c)]
              for m, c in sorted(x.items())] for x in res.basis]
    return (0 if res.status == "exact" else 3), {
        "dimension": len(res.basis), "status": res.status, "basis": basis,
        "window": [list(v) for v in res.window_vars]}


def _core_tower(payload, cfg):
    from .towers import element_to_json, strong_core_finite_ext, tower_from_json
    T = tower_from_json(payload)
    res = strong_core_finite_ext(T)
    return 0, {"dimension": res.algebra.dim, "stabilized_at": res.stabilized_at,
               "strongly_sigma_etale": res.strongly_sigma_etale,
               "radicial_exponents": dict(sorted(res.radicial_exponents.items())),
               "basis": [element_to_json(T, x) for x in res.basis_elements]}


def _ld(payload, cfg):
    from .towers import limit_degree, tower_from_json
    report = limit_degree(tower_from_json(payload), horizon=cfg["horizon"],
                          window=cfg["window"])
    return (0 if report.value is not None else 3), report.to_json()


def _babbitt_verify(payload, cfg):
    from .towers import BabbittChain, babbitt_verify
    cert = babbitt_verify(BabbittChain.from_json(payload), horizon=cfg["horizon"])
    return VERDICT_CODES[cert["verdict"]], cert


def _babbitt_search(payload, cfg):
    from .towers import babbitt_search, tower_from_json
    candidates = payload.get("candidates", []).array(str)
    T = tower_from_json(payload.key("tower"))
    report = babbitt_search(T, candidates, horizon=cfg["horizon"])
    return (0 if report.get("found") else 3), report


def _compat(payload, cfg):
    from .towers import compatible, tower_from_json
    verdict = compatible(tower_from_json(payload.key("towerA")),
                         tower_from_json(payload.key("towerB")))
    return (0 if verdict.compatible else 2), {
        "compatible": verdict.compatible, "witness": verdict.witness,
        "details": verdict.details}


def _hopf_validate(payload, cfg):
    from .hopf import hopf_validate, hopf_validate_truncated
    kind, H = _load_hopf(payload)
    rep = hopf_validate(H) if kind == "matrix" else hopf_validate_truncated(H, cfg["level"])
    return (0 if rep.ok else 2), {
        "ok": rep.ok, "violations": [[str(v[0]), repr(v[1])] for v in rep.violations]}


def _hopf_core_check(payload, cfg):
    from .hopf import strong_core_is_hopf_subalgebra, strong_core_is_hopf_subalgebra_truncated
    kind, H = _load_hopf(payload)
    cert = (strong_core_is_hopf_subalgebra(H) if kind == "matrix" else
            strong_core_is_hopf_subalgebra_truncated(H, cfg["level"], cfg["horizon"]))
    return VERDICT_CODES[cert["status"]], cert


def _gallery(payload, cfg):
    from . import gallery
    from .diffpoly import strong_core_truncated
    from .hopf import (strong_core_is_hopf_subalgebra_truncated,
                       union_of_etale_subalgebras_probe)
    if cfg["name"] != "example-core-not-hopf":
        raise InputError(f"unknown gallery item {cfg['name']!r}")
    char, level = cfg["char"], cfg["level"]
    pres = gallery.product_carrier(char)
    core = strong_core_truncated(pres, level)
    probe = union_of_etale_subalgebras_probe(pres, level)
    hopf_cert = strong_core_is_hopf_subalgebra_truncated(
        gallery.product_carrier_hopf(char), level)
    ok = (len(core.basis) == 1 and core.status == "exact"
          and probe["slice_dimension"] >= 2 ** level and probe["all_etale"]
          and hopf_cert["status"] == "verified")
    return (0 if ok else 2), {
        "char": char, "level": level, "core_dimension": len(core.basis),
        "core_status": core.status,
        "etale_union_lower_bound": probe["slice_dimension"],
        "hopf_core_check": hopf_cert["status"]}


def _suite(payload, cfg):
    from .suites import run_suite
    report = run_suite(cfg["name"], seed=cfg["seed"])
    return (0 if report["passed"] else 2), report


ONE = (File("file"),)
SEED = Opt("seed", int, 42, None)
HORIZON4 = (Opt("horizon", int, 4, "--horizon"),)
GROUPS = {"babbitt": "verify or search decomposition chains",
          "hopf": "Hopf structure checks"}

COMMANDS = {c.name: c for c in [
    Command("check", "check", ONE, _check,
            [Opt("predicate", str, None, "--predicate", tuple(sorted(PREDICATES)))],
            help="decide a predicate on an algebra file"),
    Command("core", "core", ONE, _core,
            help="strong core of an algebra, presentation or tower file"),
    Command("core-truncated", "core", ONE, _core_truncated,
            [Opt("level", int, 2, "--level", help="truncation level for presentations"),
             Opt("horizon", int, 64, "--horizon")], when=lambda p: "gens" in p),
    Command("core-tower", "core", ONE, _core_tower,
            when=lambda p: "levels" in p or "families" in p),
    Command("ld", "ld", ONE, _ld,
            [Opt("horizon", int, 6, "--horizon"), Opt("window", int, 4, "--window")],
            help="limit degree of a tower file"),
    Command("babbitt-verify", "babbitt verify", ONE, _babbitt_verify, HORIZON4,
            help="verify a decomposition chain"),
    Command("babbitt-search", "babbitt search",
            (File("file", "tower"), File("--candidates", "candidates", list,
                                         "JSON file with a list of candidate expressions")),
            _babbitt_search, HORIZON4, help="search for a decomposition chain"),
    Command("compat", "compat", (File("towerA", "towerA"), File("towerB", "towerB")),
            _compat, help="compatibility of two tower files"),
    Command("hopf-validate", "hopf validate", ONE, _hopf_validate,
            [Opt("level", int, 1, "--level")], help="check the Hopf axioms"),
    Command("hopf-core-check", "hopf core-check", ONE, _hopf_core_check,
            [Opt("level", int, 2, "--level"), Opt("horizon", int, 64, "--horizon")],
            help="check that the strong core is a Hopf subalgebra"),
    Command("gallery", "gallery", (), _gallery,
            [Opt("name", str, None, "name"), Opt("level", int, 2, "--level"),
             Opt("char", int, 5, "--char")], help="run a shipped worked example"),
    Command("suite", "suite", (), _suite,
            [Opt("name", str, "all", "name", SUITE_NAMES + ("all",)), SEED],
            help="run a property suite"),
]}


def execute(command, payload, config):
    """Run one command on an embedded payload; returns (exit_code, result).
    Each argument is a plain JSON value or a _load.Cursor into a certificate.
    A missing config key takes the table default, and one without a default
    is required; a declared key of the wrong JSON type (int: a non-bool int)
    or outside its choices is an InputError."""
    command, payload, config = cursor(command), cursor(payload), cursor(config)
    cmd = COMMANDS.get(command.of(str))
    if cmd is None:
        raise command.error(f"names no command: {command.value!r}")
    cfg = {}
    for opt in cmd.options:
        at = config.key(opt.key) if opt.default is None else config.get(opt.key, opt.default)
        value = at.of(opt.type)
        if opt.choices and value not in opt.choices:
            raise at.error(f"must be one of {list(opt.choices)}, not {value!r}")
        cfg[opt.key] = value
    return cmd.run(payload, cfg)


def _load_hopf(payload):
    from .diffpoly import Presentation
    from .hopf import SigmaHopf, TruncatedGroupLikeHopf
    if "presentation" in payload.of(dict):
        at = payload.key("presentation")
        pres = Presentation.from_json(at)
        with at.blame():
            return "truncated", TruncatedGroupLikeHopf(pres)
    A = FinSigmaAlgebra.from_json(payload.key("algebra"))
    n = A.dim
    comul = payload.key("comul").scalars(A.base, n * n, n)
    antipode = payload.key("antipode").scalars(A.base, n, n)
    counit = payload.key("counit").scalars(A.base, n)
    return "matrix", SigmaHopf(A, comul, antipode, counit)


def make_certificate(command, payload, config, code, result):
    return {"format": CERT_FORMAT, "command": command, "config": config,
            "instance": payload, "result": result, "exit_code": code}


def verify_certificate(cert):
    """Re-run the embedded command and compare results exactly."""
    doc = cursor(cert)
    if doc.key("format").value != CERT_FORMAT:
        raise doc.key("format").error(f"must be {CERT_FORMAT!r}: not a recognized certificate")
    want = doc.key("exit_code").value, doc.key("result").value
    code, result = execute(doc.key("command"), doc.key("instance"), doc.key("config"))
    same = (code, result) == want
    return same, {"recomputed_exit_code": code, "matches": same}


def emit(report, fmt, stream=None):
    stream = stream or sys.stdout
    if fmt == "json":
        stream.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        _emit_text(report, stream)


def _emit_text(obj, stream, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, (dict, list)) and val:
                stream.write(f"{pad}{key}:\n")
                _emit_text(val, stream, indent + 1)
            else:
                stream.write(f"{pad}{key}: {val}\n")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                _emit_text(val, stream, indent)
            else:
                stream.write(f"{pad}- {val}\n")
    else:
        stream.write(f"{pad}{obj}\n")


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, the input-error code; argparse's 2 means refuted."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser(argv=None):
    """The parser for argv; None gives the parser of every command."""
    try:
        seed = int(os.environ.get("DIFFALG_SEED", SEED.default))
    except ValueError:
        seed = SEED.default
    return _parser(seed, _command_word(argv))


# the first word of every argv path, in table order
TOP_WORDS = tuple(dict.fromkeys(c.argv.partition(" ")[0] for c in COMMANDS.values())) \
    + ("verify-cert",)


def _command_word(argv):
    """The top-level word argv names, read past the top-level --format and
    --seed and their values; None for a top-level -h, no command or a word
    that names no command, so the full parser answers those."""
    args = iter(argv or ())
    for arg in args:
        if arg in ("--format", "--seed"):
            next(args, None)
        elif not arg.startswith(("--format=", "--seed=")):
            return arg if arg in TOP_WORDS else None
    return None


# every argv path stays cached: a process running many commands keeps all
# of them for up to eight environment seeds
@functools.lru_cache(maxsize=8 * (len(TOP_WORDS) + 1))
def _parser(seed, word=None):
    """The parser with default seed `seed` and only the sub-command `word`
    (every one if None); parse_args leaves it unchanged.  A parser with one
    sub-command still names them all in its usage line, so its usage errors
    read as the full parser's."""
    parser = _ArgumentParser(
        prog="diffalg",
        description="exact difference-algebra decision procedures with "
                    "machine-checkable certificates")
    common = argparse.ArgumentParser(add_help=False)
    # given after a sub-command, --format and --seed override the top level
    for p, fmt, default in ((parser, "text", seed),
                            (common, argparse.SUPPRESS, argparse.SUPPRESS)):
        p.add_argument("--format", choices=["json", "text"], default=fmt)
        p.add_argument("--seed", type=int, default=default,
                       help=f"PRNG seed (default: DIFFALG_SEED or {SEED.default})")
    metavar = None if word is None else "{" + ",".join(TOP_WORDS) + "}"
    subs = {"": parser.add_subparsers(dest="command", required=True, metavar=metavar)}
    leaves = {}
    for cmd in COMMANDS.values():
        if word not in (None, cmd.argv.partition(" ")[0]):
            continue
        group, _, name = cmd.argv.rpartition(" ")
        if group not in subs:
            subs[group] = subs[""].add_parser(
                group, parents=[common], help=GROUPS[group]
            ).add_subparsers(dest="subcommand", required=True)
        if cmd.argv not in leaves:
            leaf = leaves[cmd.argv] = subs[group].add_parser(
                name, parents=[common], help=cmd.help)
            leaf.set_defaults(argv=cmd.argv)
            for f in cmd.files:
                leaf.add_argument(f.arg, help=f.help)
        for opt in (o for o in cmd.options if o.arg):
            kw = dict(type=opt.type, choices=opt.choices, help=opt.help)
            if opt.arg.startswith("-"):
                kw.update(default=opt.default, required=opt.default is None)
            leaves[cmd.argv].add_argument(opt.arg, **kw)
    if word in (None, "verify-cert"):
        subs[""].add_parser("verify-cert", parents=[common],
                            help="re-verify an emitted certificate").add_argument("file")
    return parser


def _load_json(path):
    """The JSON document in the file at path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def run(argv):
    """Parse arguments, dispatch, and return (exit_code, report)."""
    return _dispatch(build_parser(argv).parse_args(argv))


def _load_payload(files, args):
    """The document of the file without a payload key, else the documents by key."""
    docs = {}
    for f in files:
        path = getattr(args, f.arg.lstrip("-"))
        docs[f.key] = f.empty() if path is None else _load_json(path)
    return docs.pop(None, docs)


def _dispatch(args):
    try:
        if args.command == "verify-cert":
            ok, result = verify_certificate(_load_json(args.file))
            return (0 if ok else 2), {"verify": result, "file": args.file}
        # commands with a `when` test first, in table order; a `when` test
        # reads keys, so a payload that is no object goes to the one without
        entries = sorted((c for c in COMMANDS.values() if c.argv == args.argv),
                         key=lambda c: c.when is None)
        payload = _load_payload(entries[0].files, args)
        cmd = next(c for c in entries
                   if c.when is None or (isinstance(payload, dict) and c.when(payload)))
        config = {opt.key: getattr(args, opt.key) for opt in cmd.options}
        code, result = execute(cmd.name, payload, config)
        return code, make_certificate(cmd.name, payload, config, code, result)
    # InputError, FieldError and TowerError are ValueErrors; an engine
    # AssertionError is an input that broke an axiom the engine relies on
    except (ValueError, KeyError, AssertionError, RestrictedAutomationError) as exc:
        report = {"error": str(exc) or type(exc).__name__}
        if getattr(exc, "path", None) is not None:
            report["path"] = exc.path
        return 1, report


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    code, report = _dispatch(args)
    emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
