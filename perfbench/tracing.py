"""Per-layer call counts and self time, recorded at the program's public
boundaries by wrapping them from outside the program.

Each boundary is replaced by a wrapper on its defining module or class and
on every ``diffalg`` module that imported it under some name (the
``strong_core`` alias in ``diffpoly``, the package re-exports, and so on).
Spans are aggregated per boundary as they close rather than stored one by
one: a run makes millions of field operations.  Self time is a span's
duration minus the time covered by the wrapped spans it encloses.
"""

from __future__ import annotations

import importlib
import sys
import time

# (metric prefix, module, attribute path, kind).  "span" records calls and
# self time, "count" records calls only (for operations too cheap to time
# without swamping their callers), "init" counts constructions and the
# distinct fields they describe.
BOUNDARIES = [
    ("exactfield.GaloisField.mul", "diffalg.exactfield", "GaloisField.mul", "span"),
    ("exactfield.GaloisField.inv", "diffalg.exactfield", "GaloisField.inv", "span"),
    ("exactfield.GaloisField.sigma", "diffalg.exactfield", "GaloisField.sigma", "span"),
    ("exactfield.GaloisField.add", "diffalg.exactfield", "GaloisField.add", "span"),
    ("exactfield.GaloisField.init", "diffalg.exactfield", "GaloisField.__init__", "init"),
    ("exactfield.PrimeField.mul", "diffalg.exactfield", "PrimeField.mul", "count"),
    ("exactfield.PrimeField.add", "diffalg.exactfield", "PrimeField.add", "count"),
    ("exactfield.ShiftField.mul", "diffalg.exactfield", "ShiftField.mul", "span"),
    ("exactfield.ShiftField.add", "diffalg.exactfield", "ShiftField.add", "span"),
    ("exactfield.ShiftField.inv", "diffalg.exactfield", "ShiftField.inv", "span"),
    ("exactfield.FunctionField.mul", "diffalg.exactfield", "FunctionField.mul", "span"),
    ("exactfield.FunctionField.inv", "diffalg.exactfield", "FunctionField.inv", "span"),
    ("polycore.mul", "diffalg._polycore", "mul", "span"),
    ("polycore.mod", "diffalg._polycore", "mod", "span"),
    ("polycore.divmod_", "diffalg._polycore", "divmod_", "span"),
    ("polycore.gcd", "diffalg._polycore", "gcd", "span"),
    ("polycore.pow_mod", "diffalg._polycore", "pow_mod", "span"),
    ("poly.factor_over_finite_field", "diffalg.poly", "factor_over_finite_field", "span"),
    ("poly.roots", "diffalg.poly", "roots", "span"),
    ("poly.poly_gcd", "diffalg.poly", "poly_gcd", "span"),
    ("linalg.rref", "diffalg._linalg", "rref", "span"),
    ("linalg.rank", "diffalg._linalg", "rank", "span"),
    ("linalg.nullspace", "diffalg._linalg", "nullspace", "span"),
    ("linalg.det", "diffalg._linalg", "det", "span"),
    ("linalg.SpanBasis.add", "diffalg._linalg", "SpanBasis.add", "span"),
    ("linalg.SpanBasis.reduce", "diffalg._linalg", "SpanBasis.reduce", "span"),
    ("multipoly.mul", "diffalg._multipoly", "mul", "span"),
    ("multipoly.add", "diffalg._multipoly", "add", "span"),
    ("multipoly.gcd", "diffalg._multipoly", "gcd", "span"),
    ("multipoly.exact_div", "diffalg._multipoly", "exact_div", "span"),
    ("findiff.FinSigmaAlgebra.multiply", "diffalg.findiff", "FinSigmaAlgebra.multiply", "span"),
    ("findiff.FinSigmaAlgebra.apply_sigma", "diffalg.findiff", "FinSigmaAlgebra.apply_sigma", "span"),
    ("findiff.FinSigmaAlgebra.from_json", "diffalg.findiff", "FinSigmaAlgebra.from_json", "span"),
    ("findiff.trace_gram_matrix", "diffalg.findiff", "trace_gram_matrix", "span"),
    ("findiff.algebra_validate", "diffalg.findiff", "algebra_validate", "span"),
    ("findiff.strong_core", "diffalg.findiff", "strong_core", "span"),
    ("findiff._local_factors", "diffalg.findiff", "_local_factors", "span"),
    ("findiff.primitive_idempotents", "diffalg.findiff", "primitive_idempotents", "span"),
    ("findiff.minimal_polynomial", "diffalg.findiff", "minimal_polynomial", "span"),
    ("findiff.splitting_extension", "diffalg.findiff", "splitting_extension", "span"),
    ("findiff.base_change", "diffalg.findiff", "base_change", "span"),
    ("findiff._split_primitives_over_extension", "diffalg.findiff",
     "_split_primitives_over_extension", "span"),
    ("findiff._periodic_idempotent_atoms", "diffalg.findiff", "_periodic_idempotent_atoms", "span"),
    ("findiff._descend_span", "diffalg.findiff", "_descend_span", "span"),
    ("diffpoly.Presentation.normalize", "diffalg.diffpoly", "Presentation.normalize", "span"),
    ("diffpoly.strong_core_truncated", "diffalg.diffpoly", "strong_core_truncated", "span"),
    ("towers.TowerExtension._reduce", "diffalg.towers", "TowerExtension._reduce", "span"),
    ("towers.TowerExtension.mul", "diffalg.towers", "TowerExtension.mul", "span"),
    ("towers.tower_from_json", "diffalg.towers", "tower_from_json", "span"),
    ("towers.limit_degree", "diffalg.towers", "limit_degree", "span"),
    ("towers.babbitt_verify", "diffalg.towers", "babbitt_verify", "span"),
    ("towers.babbitt_search", "diffalg.towers", "babbitt_search", "span"),
    ("towers.compatible", "diffalg.towers", "compatible", "span"),
    ("towers.strong_core_finite_ext", "diffalg.towers", "strong_core_finite_ext", "span"),
    ("hopf.hopf_validate_truncated", "diffalg.hopf", "hopf_validate_truncated", "span"),
    ("hopf.strong_core_is_hopf_subalgebra_truncated", "diffalg.hopf",
     "strong_core_is_hopf_subalgebra_truncated", "span"),
    ("hopf.union_of_etale_subalgebras_probe", "diffalg.hopf",
     "union_of_etale_subalgebras_probe", "span"),
    ("cli.build_parser", "diffalg.cli", "build_parser", "span"),
    ("cli._load_json", "diffalg.cli", "_load_json", "span"),
    ("cli.execute", "diffalg.cli", "execute", "span"),
    ("cli.emit", "diffalg.cli", "emit", "span"),
]


# Boundaries that no CLI command reaches at the reference commit; they are
# still wrapped (so a rename fails loudly) but may record zero calls.
UNREACHED = {
    "poly.poly_gcd": "only library callers (is_separable, the public API) use it",
}


def metric_names():
    """(name, unit) of every per-layer metric a traced run reports."""
    out = []
    for prefix, _, _, kind in BOUNDARIES:
        out.append((f"{prefix}.calls", "count"))
        if kind == "span":
            out.append((f"{prefix}.self_s", "s"))
        if kind == "init":
            out.append((f"{prefix}.distinct", "count"))
    return out


class BoundaryMissing(RuntimeError):
    pass


class Tracer:
    """Installs wrappers on every boundary; ``uninstall`` restores them."""

    def __init__(self):
        self.calls = dict.fromkeys((b[0] for b in BOUNDARIES), 0)
        self.self_s = dict.fromkeys((b[0] for b in BOUNDARIES if b[3] == "span"), 0.0)
        self.fields = set()
        self.aliases = {}
        self._stack = []
        self._saved = []

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _init(self, name, fn):
        calls, fields = self.calls, self.fields

        def wrapper(obj, *args, **kwargs):
            calls[name] += 1
            fn(obj, *args, **kwargs)
            fields.add((obj.p, obj.defpoly, obj.frobenius_power))
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self):
        mods = [m for n, m in sorted(sys.modules.items())
                if (n == "diffalg" or n.startswith("diffalg.")) and m is not None]
        for prefix, modname, path, kind in BOUNDARIES:
            module = importlib.import_module(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__.get(attr)
            if raw is None:
                raise BoundaryMissing(f"{modname}.{path} does not exist")
            make = {"span": self._span, "count": self._count, "init": self._init}[kind]
            if isinstance(raw, staticmethod):
                new = staticmethod(make(prefix, raw.__func__))
            else:
                new = make(prefix, raw)
            self._set(owner, attr, new)
            if owner_name:
                continue
            # the same function bound under other names in other modules
            for m in mods:
                for alias, value in list(vars(m).items()):
                    if value is raw and not (m is module and alias == attr):
                        self._set(m, alias, new)
                        self.aliases.setdefault(prefix, []).append(f"{m.__name__}.{alias}")

    def _set(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def metrics(self):
        out = {}
        for prefix, _, _, kind in BOUNDARIES:
            out[f"{prefix}.calls"] = self.calls[prefix]
            if kind == "span":
                out[f"{prefix}.self_s"] = self.self_s[prefix]
            if kind == "init":
                out[f"{prefix}.distinct"] = len(self.fields)
        return out
