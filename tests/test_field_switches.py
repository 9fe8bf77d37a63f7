"""No module outside exactfield tests which kind of field it was given.

Each decision about a field kind is an attribute or method of that kind in
exactfield (is_finite, degree, power_basis, constants, specialize,
inversive_closure, named_constant, ...).  The class tests left elsewhere
decide which certificate or radical construction a tower supports; they are
listed below, so a new switch on a field's class, or on how it stores its
elements, fails here instead of spreading.
"""

import ast
import pathlib

from diffalg import exactfield

SRC = pathlib.Path(exactfield.__file__).parent
FIELD_CLASSES = {name for name, obj in vars(exactfield).items()
                 if isinstance(obj, type) and issubclass(obj, exactfield.DifferenceField)}
# element representations: a test on one is a switch on the kind storing it
REPRESENTATIONS = {"tuple", "Fraction"}
# (module, function) -> the field classes it may test
CERTIFICATE_GATES = {
    ("towers", "TowerExtension._pick_cert"): {"FractionField"},
    ("towers", "TowerExtension._radical_kind"): {"ShiftField"},
    ("towers", "benign_make"): {"ShiftField"},
    ("towers", "stacked_radical_tower"): {"ShiftField"},
    ("towers", "field_sigma_radicial_over"): {"ShiftField"},
}


class _Switches(ast.NodeVisitor):
    """(function, name, line) for each isinstance(_, name) and each
    getattr(_, "degree", ...), name "getattr degree" for the latter."""

    def __init__(self):
        self.scope, self.found = [], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node):
        where = ".".join(self.scope)
        func = node.func.id if isinstance(node.func, ast.Name) else None
        if func == "isinstance" and len(node.args) == 2:
            spec = node.args[1]
            for c in spec.elts if isinstance(spec, ast.Tuple) else [spec]:
                name = c.id if isinstance(c, ast.Name) else getattr(c, "attr", None)
                self.found.append((where, name, node.lineno))
        if (func == "getattr" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant) and node.args[1].value == "degree"):
            self.found.append((where, "getattr degree", node.lineno))
        self.generic_visit(node)


def _switches():
    out = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "exactfield.py":
            v = _Switches()
            v.visit(ast.parse(path.read_text(), str(path)))
            out[path.stem] = v.found
    return out


def test_field_classes_are_tested_only_in_certificate_gates():
    gates_seen, stray = set(), []
    for module, found in _switches().items():
        for where, name, line in found:
            if name in FIELD_CLASSES:
                if name in CERTIFICATE_GATES.get((module, where), ()):
                    gates_seen.add((module, where))
                else:
                    stray.append(f"{module}.py:{line} {where}: isinstance on {name}")
    assert not stray, "ask the field (exactfield) instead:\n" + "\n".join(stray)
    assert gates_seen == set(CERTIFICATE_GATES)
    assert "FractionField" in FIELD_CLASSES and "GaloisField" in FIELD_CLASSES


def test_no_module_reads_degree_by_default_or_tests_an_element_representation():
    stray = []
    for module, found in _switches().items():
        for where, name, line in found:
            # _load checks the shape of JSON values and kind specs, not elements
            if name == "getattr degree" or (name in REPRESENTATIONS and module != "_load"):
                stray.append(f"{module}.py:{line} {where}: {name}")
    assert not stray, "\n".join(stray)


def test_the_gates_are_at_most_six_sites():
    sites = [s for module, found in _switches().items() for s in found
             if s[1] in FIELD_CLASSES]
    assert len(sites) <= 6
