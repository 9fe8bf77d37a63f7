"""Import hygiene of a one-shot CLI run, in this fresh interpreter.

    python tests/check_imports.py

Importing `diffalg` and `diffalg.cli`, then running `check` and `core` on an
algebra file, must load none of the modules in HEAVY; `core` on a
presentation file none of those in PRESENTATION_HEAVY; `ld` on a tower file
must not load `dataclasses`.  Prints the offending modules and exits 1 if
any fails.  It imports whichever `diffalg` is on the path, so it checks an
installed package when run from outside a checkout.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

HEAVY = ["diffalg.towers", "diffalg.diffpoly", "diffalg.hopf", "diffalg.suites",
         "diffalg.gallery", "diffalg.instances", "diffalg._exprs", "dataclasses",
         "fractions"]
# a presentation's core needs diffpoly and _exprs, and nothing else above findiff
PRESENTATION_HEAVY = ["diffalg.towers", "diffalg.hopf", "diffalg.suites", "diffalg.gallery",
                      "diffalg.instances", "dataclasses", "fractions"]

# the diagonal algebra F_5 x F_5 with sigma the identity
ALGEBRA = {"base": {"kind": "Fq", "p": 5}, "unit": ["1", "1"],
           "mul": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
           "sigma": [["1", "0"], ["0", "1"]]}
# F_5{y}/[y^2 - 1, sigma(y) - 1]
PRESENTATION = {"base": {"kind": "Fq", "p": 5}, "vars": ["y"],
                "gens": [{"poly": "y0^2-1"}, {"poly": "y1-1"}]}
# F_5(t_0, t_1, ...)(u) with u^2 = 2 and sigma(u) = u
TOWER = {"base": {"kind": "shift", "base": {"kind": "Fq", "p": 5}},
         "levels": [{"name": "u", "minpoly": ["-2", "0", "1"], "sigma": "u"}]}


def _run(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", "json"])
    return code, json.loads(out.getvalue())


def failures(tmp):
    """The broken expectations, as messages; empty when all hold."""
    before = set(sys.modules)
    paths = {}
    for name, doc in (("algebra", ALGEBRA), ("presentation", PRESENTATION), ("tower", TOWER)):
        paths[name] = os.path.join(tmp, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    import diffalg  # noqa: F401
    from diffalg.cli import main

    out = []
    for argv in (["check", paths["algebra"], "--predicate", "etale"],
                 ["core", paths["algebra"]]):
        code, report = _run(main, argv)
        if code != 0:
            out.append(f"{argv[0]} exited {code} with {report}")
    loaded = sorted(set(HEAVY) & (set(sys.modules) - before))
    if loaded:
        out.append(f"check and core loaded {loaded}")
    code, report = _run(main, ["core", paths["presentation"]])
    if code != 0:
        out.append(f"core on a presentation exited {code} with {report}")
    loaded = sorted(set(PRESENTATION_HEAVY) & (set(sys.modules) - before))
    if loaded:
        out.append(f"core on a presentation loaded {loaded}")
    code, report = _run(main, ["ld", paths["tower"]])
    if code != 0:
        out.append(f"ld exited {code} with {report}")
    if "dataclasses" in set(sys.modules) - before:
        out.append("ld loaded dataclasses")
    return out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        bad = failures(tmp)
    for line in bad:
        print(line)
    sys.exit(1 if bad else 0)
