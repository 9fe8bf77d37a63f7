"""Command-line front end.

Every command loads JSON descriptions, dispatches to the library, and emits
a certificate that embeds the instance it certifies, so `verify-cert` can
re-run it with no external state.  Exit codes: 0 verified/true, 2 refuted
with witness, 3 inconclusive at the configured horizon, 1 input error
(a usage error included; `--help` exits 0).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import gallery
from .diffpoly import Presentation, strong_core_truncated
from .exactfield import FieldError
from .findiff import (FinSigmaAlgebra, RestrictedAutomationError, is_etale,
                      is_sigma_reduced, is_sigma_separable,
                      is_strongly_sigma_etale, strong_core)
from .hopf import (SigmaHopf, TruncatedGroupLikeHopf, hopf_validate,
                   hopf_validate_truncated, strong_core_is_hopf_subalgebra,
                   strong_core_is_hopf_subalgebra_truncated,
                   union_of_etale_subalgebras_probe)
from .suites import SUITES, run_suite
from .towers import (BabbittChain, TowerError, babbitt_search, babbitt_verify,
                     compatible, limit_degree, tower_from_json)

CERT_FORMAT = "diffalg-cert-1"
PREDICATES = {
    "etale": is_etale,
    "sreduced": is_sigma_reduced,
    "sseparable": is_sigma_separable,
    "ssetale": is_strongly_sigma_etale,
}


class InputError(ValueError):
    pass


def default_seed():
    try:
        return int(os.environ.get("DIFFALG_SEED", "42"))
    except ValueError:
        return 42


def execute(command, payload, config):
    """Run one command on an embedded payload; returns (exit_code, result)."""
    if command == "check":
        predicate = config.get("predicate")
        if predicate not in PREDICATES:
            raise InputError(f"unknown predicate {predicate!r}; "
                             f"pick one of {sorted(PREDICATES)}")
        A = FinSigmaAlgebra.from_json(payload)
        value = PREDICATES[predicate](A)
        return (0 if value else 2), {"predicate": predicate, "value": bool(value)}

    if command == "core":
        A = FinSigmaAlgebra.from_json(payload)
        res = strong_core(A)
        k = A.base
        basis = [[k.scalar_to_json(c) for c in res.inclusion.column(j)]
                 for j in range(res.algebra.dim)]
        code = 0 if res.complete else 3
        return code, {"dimension": res.algebra.dim, "complete": res.complete,
                      "basis": basis}

    if command == "core-truncated":
        pres = Presentation.from_json(payload)
        res = strong_core_truncated(pres, config.get("level", 2),
                                    config.get("horizon", 64))
        basis = [_element_json(pres, x) for x in res.basis]
        code = 0 if res.status == "exact" else 3
        return code, {"dimension": len(res.basis), "status": res.status,
                      "basis": basis,
                      "window": [list(v) for v in res.window_vars]}

    if command == "core-tower":
        from .towers import element_to_json, strong_core_finite_ext

        T = tower_from_json(payload)
        res = strong_core_finite_ext(T)
        return 0, {"dimension": res.algebra.dim,
                   "strongly_sigma_etale": res.strongly_sigma_etale,
                   "stabilized_at": res.stabilized_at,
                   "radicial_exponents": dict(sorted(res.radicial_exponents.items())),
                   "basis": [element_to_json(T, x) for x in res.basis_elements]}

    if command == "ld":
        T = tower_from_json(payload)
        report = limit_degree(T, horizon=config.get("horizon", 6),
                              window=config.get("window", 4))
        code = 0 if report.value is not None else 3
        return code, report.to_json()

    if command == "babbitt-verify":
        _object(payload, "tower")
        chain = BabbittChain.from_json(payload)
        cert = babbitt_verify(chain, horizon=config.get("horizon", 4))
        code = {"verified": 0, "refuted": 2, "inconclusive": 3}[cert["verdict"]]
        return code, cert

    if command == "babbitt-search":
        T = tower_from_json(_object(payload, "tower"))
        report = babbitt_search(T, payload.get("candidates", []),
                                horizon=config.get("horizon", 4))
        return (0 if report.get("found") else 3), report

    if command == "compat":
        TA = tower_from_json(_object(payload, "towerA"))
        TB = tower_from_json(_object(payload, "towerB"))
        verdict = compatible(TA, TB)
        result = {"compatible": verdict.compatible, "witness": verdict.witness,
                  "details": verdict.details}
        return (0 if verdict.compatible else 2), result

    if command == "hopf-validate":
        kind, H = _load_hopf(payload)
        if kind == "matrix":
            rep = hopf_validate(H)
        else:
            rep = hopf_validate_truncated(H, config.get("level", 1))
        result = {"ok": rep.ok,
                  "violations": [[str(v[0]), repr(v[1])] for v in rep.violations]}
        return (0 if rep.ok else 2), result

    if command == "hopf-core-check":
        kind, H = _load_hopf(payload)
        if kind == "matrix":
            cert = strong_core_is_hopf_subalgebra(H)
        else:
            cert = strong_core_is_hopf_subalgebra_truncated(
                H, config.get("level", 2), config.get("horizon", 64))
        code = {"verified": 0, "refuted": 2, "inconclusive": 3}[cert["status"]]
        return code, cert

    if command == "gallery":
        name = config.get("name")
        if name != "example-core-not-hopf":
            raise InputError(f"unknown gallery item {name!r}")
        char = config.get("char", 5)
        level = config.get("level", 2)
        pres = gallery.product_carrier(char)
        core = strong_core_truncated(pres, level)
        probe = union_of_etale_subalgebras_probe(pres, level)
        hopf_cert = strong_core_is_hopf_subalgebra_truncated(
            gallery.product_carrier_hopf(char), level)
        ok = (len(core.basis) == 1 and core.status == "exact"
              and probe["slice_dimension"] >= 2 ** level
              and hopf_cert["status"] == "verified")
        result = {"char": char, "level": level,
                  "core_dimension": len(core.basis), "core_status": core.status,
                  "etale_union_lower_bound": probe["slice_dimension"],
                  "hopf_core_check": hopf_cert["status"]}
        return (0 if ok else 2), result

    if command == "suite":
        name = config.get("name", "all")
        report = run_suite(name, seed=config.get("seed", 42))
        return (0 if report["passed"] else 2), report

    raise InputError(f"unknown command {command!r}")


def _object(payload, key):
    """payload[key], which must be a JSON object."""
    doc = payload[key]
    if not isinstance(doc, dict):
        raise InputError(f"{key} must be a JSON object")
    return doc


def _element_json(pres, x):
    k = pres.base
    return [[[list(v) for v in m], k.scalar_to_json(c)]
            for m, c in sorted(x.items())]


def _load_hopf(payload):
    if "presentation" in payload:
        pres = Presentation.from_json(_object(payload, "presentation"))
        return "truncated", TruncatedGroupLikeHopf(pres)
    A = FinSigmaAlgebra.from_json(_object(payload, "algebra"))
    k = A.base
    dec = k.scalar_from_json
    comul = [[dec(c) for c in row] for row in payload["comul"]]
    antipode = [[dec(c) for c in row] for row in payload["antipode"]]
    counit = [dec(c) for c in payload["counit"]]
    return "matrix", SigmaHopf(A, comul, antipode, counit)


def make_certificate(command, payload, config, code, result):
    return {
        "format": CERT_FORMAT,
        "command": command,
        "config": config,
        "instance": payload,
        "result": result,
        "exit_code": code,
    }


def verify_certificate(cert):
    """Re-run the embedded command and compare results exactly."""
    if not isinstance(cert, dict) or cert.get("format") != CERT_FORMAT:
        raise InputError("not a recognized certificate")
    _object(cert, "instance")
    _object(cert, "config")
    code, result = execute(cert["command"], cert["instance"], cert["config"])
    same = (code == cert["exit_code"] and result == cert["result"])
    return same, {"recomputed_exit_code": code, "matches": same}


def emit(report, fmt, stream=None):
    stream = stream or sys.stdout
    if fmt == "json":
        stream.write(json.dumps(report, sort_keys=True, separators=(",", ":")))
        stream.write("\n")
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


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "text"],
                        default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="PRNG seed (default: DIFFALG_SEED or 42)")
    parser = _ArgumentParser(
        prog="diffalg",
        description="exact difference-algebra decision procedures with "
                    "machine-checkable certificates")
    parser.add_argument("--format", choices=["json", "text"], default="text")
    parser.add_argument("--seed", type=int, default=None,
                        help="PRNG seed (default: DIFFALG_SEED or 42)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(sp, name, **kw):
        return sp.add_parser(name, parents=[common], **kw)

    p = add_parser(sub, "check", help="decide a predicate on an algebra file")
    p.add_argument("file")
    p.add_argument("--predicate", required=True, choices=sorted(PREDICATES))

    p = add_parser(sub, "core", help="strong core of an algebra file")
    p.add_argument("file")
    p.add_argument("--level", type=int, default=2,
                   help="truncation level for presentation inputs")
    p.add_argument("--horizon", type=int, default=64)

    p = add_parser(sub, "ld", help="limit degree of a tower file")
    p.add_argument("file")
    p.add_argument("--horizon", type=int, default=6)
    p.add_argument("--window", type=int, default=4)

    p = add_parser(sub, "babbitt", help="verify or search decomposition chains")
    bsub = p.add_subparsers(dest="subcommand", required=True)
    pv = add_parser(bsub, "verify")
    pv.add_argument("file")
    pv.add_argument("--horizon", type=int, default=4)
    ps = add_parser(bsub, "search")
    ps.add_argument("file")
    ps.add_argument("--candidates", default=None,
                    help="JSON file with a list of candidate expressions")
    ps.add_argument("--horizon", type=int, default=4)

    p = add_parser(sub, "compat", help="compatibility of two tower files")
    p.add_argument("towerA")
    p.add_argument("towerB")

    p = add_parser(sub, "hopf", help="Hopf structure checks")
    hsub = p.add_subparsers(dest="subcommand", required=True)
    pv = add_parser(hsub, "validate")
    pv.add_argument("file")
    pv.add_argument("--level", type=int, default=1)
    pc_ = add_parser(hsub, "core-check")
    pc_.add_argument("file")
    pc_.add_argument("--level", type=int, default=2)
    pc_.add_argument("--horizon", type=int, default=64)

    p = add_parser(sub, "gallery", help="run a shipped worked example")
    p.add_argument("name")
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--char", type=int, default=5)

    p = add_parser(sub, "suite", help="run a property suite")
    p.add_argument("name", choices=sorted(SUITES) + ["all"])

    p = add_parser(sub, "verify-cert", help="re-verify an emitted certificate")
    p.add_argument("file")

    return parser


def _load_json(path, expect=dict):
    """Load a JSON document that must be an object (or, with expect=list,
    an array)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, expect):
        kind = "an object" if expect is dict else "an array"
        raise InputError(f"{path}: the document must be {kind}")
    return doc


def run(argv):
    """Parse arguments, dispatch, and return (exit_code, report)."""
    return _dispatch(build_parser().parse_args(argv))


def _dispatch(args):
    seed = args.seed if args.seed is not None else default_seed()
    try:
        if args.command == "verify-cert":
            cert = _load_json(args.file)
            ok, result = verify_certificate(cert)
            return (0 if ok else 2), {"verify": result, "file": args.file}

        if args.command == "suite":
            config = {"name": args.name, "seed": seed}
            code, result = execute("suite", {}, config)
            return code, make_certificate("suite", {}, config, code, result)

        if args.command == "gallery":
            config = {"name": args.name, "level": args.level, "char": args.char}
            code, result = execute("gallery", {}, config)
            return code, make_certificate("gallery", {}, config, code, result)

        if args.command == "check":
            payload = _load_json(args.file)
            config = {"predicate": args.predicate}
            code, result = execute("check", payload, config)
            return code, make_certificate("check", payload, config, code, result)

        if args.command == "core":
            payload = _load_json(args.file)
            if "gens" in payload:
                config = {"level": args.level, "horizon": args.horizon}
                code, result = execute("core-truncated", payload, config)
                return code, make_certificate("core-truncated", payload, config,
                                              code, result)
            if "levels" in payload or "families" in payload:
                code, result = execute("core-tower", payload, {})
                return code, make_certificate("core-tower", payload, {},
                                              code, result)
            code, result = execute("core", payload, {})
            return code, make_certificate("core", payload, {}, code, result)

        if args.command == "ld":
            payload = _load_json(args.file)
            config = {"horizon": args.horizon, "window": args.window}
            code, result = execute("ld", payload, config)
            return code, make_certificate("ld", payload, config, code, result)

        if args.command == "babbitt":
            if args.subcommand == "verify":
                payload = _load_json(args.file)
                config = {"horizon": args.horizon}
                code, result = execute("babbitt-verify", payload, config)
                return code, make_certificate("babbitt-verify", payload, config,
                                              code, result)
            payload = {"tower": _load_json(args.file), "candidates": []}
            if args.candidates:
                payload["candidates"] = _load_json(args.candidates, list)
            config = {"horizon": args.horizon}
            code, result = execute("babbitt-search", payload, config)
            return code, make_certificate("babbitt-search", payload, config,
                                          code, result)

        if args.command == "compat":
            payload = {"towerA": _load_json(args.towerA),
                       "towerB": _load_json(args.towerB)}
            code, result = execute("compat", payload, {})
            return code, make_certificate("compat", payload, {}, code, result)

        if args.command == "hopf":
            payload = _load_json(args.file)
            if args.subcommand == "validate":
                config = {"level": args.level}
                code, result = execute("hopf-validate", payload, config)
                return code, make_certificate("hopf-validate", payload, config,
                                              code, result)
            config = {"level": args.level, "horizon": args.horizon}
            code, result = execute("hopf-core-check", payload, config)
            return code, make_certificate("hopf-core-check", payload, config,
                                          code, result)

        raise InputError(f"unhandled command {args.command!r}")
    except (InputError, FieldError, TowerError, RestrictedAutomationError,
            KeyError, ValueError) as exc:
        return 1, {"error": str(exc) or type(exc).__name__}


def main(argv=None):
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    code, report = _dispatch(args)
    emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
