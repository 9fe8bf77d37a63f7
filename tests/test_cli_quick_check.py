"""Documents, fields and certificate configs of the wrong JSON type must end
in an input error, not a traceback.  The error's "path" locates the value at
fault: keys joined by dots, array indices in brackets, "" for the document."""

import json
import re
import subprocess
import sys

import pytest

from diffalg.cli import CERT_FORMAT, main, run


def _resolve(doc, path):
    """The value at path in doc."""
    for step in re.findall(r"[^.\[\]]+|\[\d+\]", path):
        doc = doc[int(step[1:-1])] if step.startswith("[") else doc[step]
    return doc


def _input_error(rep, path):
    """rep is an input-error report whose path is the given one."""
    return set(rep) == {"error", "path"} and rep["path"] == path


def test_verify_cert_rejects_non_certificate_json(tmp_path):
    p = tmp_path / "list.json"
    p.write_text(json.dumps(["a0"]))
    code, rep = run(["verify-cert", str(p)])
    assert code == 1 and _input_error(rep, "")
    assert rep["error"] == "the document must be a JSON object"
    p2 = tmp_path / "dict.json"
    p2.write_text(json.dumps({"chain": []}))
    code2, rep2 = run(["verify-cert", str(p2)])
    assert code2 == 1 and _input_error(rep2, "")
    assert rep2["error"] == "the document has no key 'format'"


TOP_LEVEL_ARGVS = [
    ["check", "{f}", "--predicate", "etale"],
    ["core", "{f}"],
    ["ld", "{f}"],
    ["compat", "{f}", "{f}"],
    ["hopf", "validate", "{f}"],
    ["hopf", "core-check", "{f}"],
    ["babbitt", "verify", "{f}"],
    ["babbitt", "search", "{f}"],
]


def _top_level_path(argv):
    # compat and babbitt search put their files at keys of the payload
    return "towerA" if argv[0] == "compat" else "tower" if argv[1] == "search" else ""


@pytest.mark.parametrize("argv", TOP_LEVEL_ARGVS,
                         ids=[f"argv{i}" for i in range(len(TOP_LEVEL_ARGVS))])
def test_top_level_array_is_an_input_error(tmp_path, argv):
    p = tmp_path / "array.json"
    p.write_text(json.dumps([1, 2]))
    code, rep = run([a.format(f=p) for a in argv])
    path = _top_level_path(argv)
    assert code == 1 and _input_error(rep, path)
    assert rep["error"] == f"{path or 'the document'} must be a JSON object"


@pytest.mark.parametrize("doc", [5, None, True, 1.5, "s"])
@pytest.mark.parametrize("argv", TOP_LEVEL_ARGVS,
                         ids=[f"argv{i}" for i in range(len(TOP_LEVEL_ARGVS))])
def test_top_level_scalar_is_an_input_error(tmp_path, capsys, argv, doc):
    # core picks its runner by the document's keys, which a scalar lacks
    p = tmp_path / "scalar.json"
    p.write_text(json.dumps(doc))
    code = main([a.format(f=p) for a in argv] + ["--format", "json"])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    path = _top_level_path(argv)
    assert code == 1 and err == "" and _input_error(rep, path)
    assert rep["error"] == f"{path or 'the document'} must be a JSON object, not {doc!r}"


@pytest.mark.parametrize("command, instance", [
    ("check", [1]),
    ("core", [1]),
    ("ld", [1]),
    ("compat", {"towerA": [1], "towerB": [1]}),
    ("babbitt-search", {"tower": [1], "candidates": []}),
    ("babbitt-verify", {"tower": [1], "chain": []}),
    ("hopf-validate", {"presentation": [1]}),
    ("hopf-core-check", {"algebra": [1]}),
])
def test_certificate_with_non_object_instance_is_an_input_error(
        tmp_path, command, instance):
    cert = {"format": CERT_FORMAT, "command": command,
            "config": {"predicate": "etale"}, "instance": instance,
            "result": {}, "exit_code": 0}
    p = tmp_path / "cert.json"
    p.write_text(json.dumps(cert))
    code, rep = run(["verify-cert", str(p)])
    path = "instance" + ("" if isinstance(instance, list) else "." + next(iter(instance)))
    assert code == 1 and _input_error(rep, path)
    assert rep["error"] == f"{path} must be a JSON object"


def test_babbitt_candidates_must_be_an_array(tmp_path):
    p = tmp_path / "obj.json"
    p.write_text(json.dumps({"a": 1}))
    code, rep = run(["babbitt", "search", str(p), "--candidates", str(p)])
    assert code == 1 and _input_error(rep, "candidates")
    assert rep["error"] == "candidates must be a JSON array"


@pytest.mark.parametrize("candidates", [[5], [None], [["a"]]],
                         ids=["int", "null", "array"])
def test_babbitt_candidates_must_be_strings(tmp_path, candidates):
    p, c = tmp_path / "tower.json", tmp_path / "candidates.json"
    p.write_text(json.dumps(_radical_tower()))
    c.write_text(json.dumps(candidates))
    code, rep = run(["babbitt", "search", str(p), "--candidates", str(c)])
    assert code == 1 and _input_error(rep, "candidates[0]")
    assert rep["error"].startswith("candidates[0] must be a string")


def _algebra():
    from diffalg.exactfield import PrimeField
    from diffalg.instances import diagonal_algebra

    return diagonal_algebra(PrimeField(5), [1, 0]).to_json()


def _presentation():
    from diffalg.gallery import product_carrier

    return product_carrier(5).to_json()


def _tower():
    from diffalg.gallery import collapse_tower_f5
    from diffalg.towers import tower_to_json

    return tower_to_json(collapse_tower_f5())


def _radical_tower():
    from diffalg.gallery import radical_tower_f5
    from diffalg.towers import tower_to_json

    return tower_to_json(radical_tower_f5())


def _stacked_tower():
    from diffalg.gallery import stacked_tower_f5
    from diffalg.towers import tower_to_json

    return tower_to_json(stacked_tower_f5())


def _chain():
    from diffalg.gallery import chain_for, radical_tower_f5

    return chain_for(radical_tower_f5()).to_json()


def _hopf_matrix():
    from diffalg.gallery import group_dual_hopf

    H = group_dual_hopf(5, (2,), lambda g: g)
    enc = H.carrier.base.scalar_to_json
    return {"algebra": H.carrier.to_json(),
            "comul": [[enc(c) for c in row] for row in H.comul],
            "antipode": [[enc(c) for c in row] for row in H.antipode],
            "counit": [enc(c) for c in H.counit]}


QT_BASES = [{"kind": "Qt", "sigma_t": 5},
            {"kind": "Qt", "sigma_t": {"num": 5}},
            {"kind": "Qt", "sigma_t": {"num": ["1", "1"], "den": 7}}]
QT_PATHS = ["base.sigma_t", "base.sigma_t.num", "base.sigma_t.den"]
SHIFT_BAD_MIN_INDEX = {"kind": "shift", "p": 5, "min_index": "x"}
RADICAL_BLOCK_A = {"name": "a", "kind": "radical-block", "r": 2, "var_start": 0}


@pytest.mark.parametrize("argv, make, field, value, path", [
    (["core"], _algebra, "mul", 5, "mul"),
    (["core"], _tower, "levels", 5, "levels"),
    (["core"], _presentation, "gens", [{"poly": 7}], "gens[0].poly"),
    (["hopf", "validate"], _hopf_matrix, "comul", 5, "comul"),
    (["hopf", "validate"], _hopf_matrix, "counit", [None, "0"], "counit"),
    (["babbitt", "verify"], _chain, "chain", 5, "chain"),
    (["core"], _algebra, "mul", [[[None, "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
     "mul"),
    (["core"], _algebra, "base", {"kind": "Fq", "p": "5"}, "base.p"),
    (["core"], _algebra, "base", {"kind": "Fq", "p": 5, "defpoly": [2, 0, "x"]},
     "base.defpoly[2]"),
    # level a of collapse_tower_f5 with one field of the wrong type
    (["core"], _tower, "levels", [{"name": "a", "minpoly": ["-t", 0, 1], "sigma": 5}],
     "levels[0].sigma"),
    (["core"], _tower, "levels", [{"name": 5, "minpoly": ["-t", 0, 1], "sigma": "t"}],
     "levels[0].name"),
    (["core"], _tower, "levels", [{"name": "a", "minpoly": "x^2 - t", "sigma": "t"}],
     "levels[0].minpoly"),
    (["core"], _tower, "levels", [{"name": "a", "minpoly": [None, 0, 1], "sigma": "t"}],
     "levels[0].minpoly[0]"),
    # radical_tower_f5 and stacked_tower_f5 with one family field of the wrong type
    (["ld"], _radical_tower, "families",
     [{"name": "a", "kind": "radical-block", "r": "2", "var_start": 0}], "families[0].r"),
    (["ld"], _radical_tower, "families",
     [{"name": "a", "kind": "radical-block", "r": 2, "var_start": "0"}],
     "families[0].var_start"),
    (["ld"], _radical_tower, "family_groups", [{"family": "a", "start": "0"}],
     "family_groups[0].start"),
    (["ld"], _stacked_tower, "families",
     [{"name": "a", "kind": "radical-block", "r": 2, "var_start": 0},
      {"name": "c", "kind": "radical-on", "r": 2, "on": "a", "shift": "1"}],
     "families[1].shift"),
    (["ld"], _stacked_tower, "explicit_groups", [["a0", 5]], "explicit_groups[0][1]"),
    *[(["core"], _algebra, "base", b, path) for b, path in zip(QT_BASES, QT_PATHS)],
    *[(["ld"], _tower, "base", b, path) for b, path in zip(QT_BASES, QT_PATHS)],
    (["core"], _algebra, "base", SHIFT_BAD_MIN_INDEX, "base.min_index"),
    (["ld"], _radical_tower, "base", SHIFT_BAD_MIN_INDEX, "base.min_index"),
    # radical_tower_f5 whose families and family groups do not match one to one
    (["ld"], _radical_tower, "families", [RADICAL_BLOCK_A, RADICAL_BLOCK_A],
     "families[1].name"),
    (["ld"], _radical_tower, "family_groups", [], "families[0]"),
    (["ld"], _radical_tower, "family_groups",
     [{"family": "a", "start": 0}, {"family": "a", "start": 1}], "families[0]"),
    (["ld"], _radical_tower, "family_groups",
     [{"family": "a", "start": 0}, {"family": "b", "start": 0}], "family_groups[1].family"),
    # names the loader resolves without making a level
    (["ld"], _radical_tower, "families",
     [{"name": "a", "kind": "radical-block", "r": 1, "var_start": 0}], "families[0].r"),
    (["ld"], _stacked_tower, "families",
     [{"name": "a", "kind": "radical-block", "r": 2, "var_start": 0},
      {"name": "c", "kind": "radical-on", "r": 2, "on": "q", "shift": 1}], "families[1].on"),
    (["ld"], _stacked_tower, "explicit_groups", [["a0", "zz"]], "explicit_groups[0][1]"),
    # x^r - t_i has an exponent literal, so r has the literal cap
    (["ld"], _radical_tower, "families",
     [{"name": "a", "kind": "radical-block", "r": 10 ** 30, "var_start": 0}],
     "families[0].r"),
    # x^r - u is inseparable when the characteristic 5 divides r
    (["ld"], _radical_tower, "families",
     [{"name": "a", "kind": "radical-block", "r": 5, "var_start": 0}], "families[0].r"),
    (["ld"], _radical_tower, "families",
     [{"name": "a", "kind": "radical-block", "r": 10, "var_start": 0}], "families[0].r"),
    (["ld"], _stacked_tower, "families",
     [{"name": "a", "kind": "radical-block", "r": 2, "var_start": 0},
      {"name": "c", "kind": "radical-on", "r": 5, "on": "a", "shift": 1}], "families[1].r"),
], ids=["algebra-mul", "tower-levels", "presentation-poly", "hopf-comul",
        "hopf-null-scalar", "babbitt-chain", "mul-null-scalar", "base-p-string",
        "defpoly-string", "tower-level-sigma", "tower-level-name", "tower-level-minpoly",
        "tower-level-minpoly-null", "family-r", "family-var-start", "family-group-start",
        "family-shift", "explicit-group-name", "qt-sigma-t-algebra",
        "qt-num-algebra", "qt-den-algebra", "qt-sigma-t-tower", "qt-num-tower",
        "qt-den-tower", "shift-min-index-algebra", "shift-min-index-tower",
        "family-named-twice", "family-without-group", "family-with-two-groups",
        "group-without-family", "family-r-below-two", "radical-on-no-family",
        "explicit-group-no-level", "family-r-above-cap", "family-r-characteristic",
        "family-r-twice-characteristic", "radical-on-r-characteristic"])
def test_field_of_wrong_json_type_is_an_input_error(tmp_path, argv, make, field,
                                                    value, path):
    doc = dict(make(), **{field: value})
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code, rep = run(argv + [str(p)])
    assert code == 1 and _input_error(rep, path) and rep["error"].startswith(path + " ")


def _edit_algebra(field, change):
    return lambda: dict(_algebra(), **{field: change(_algebra()[field])})


def _edit_hopf(field, change):
    return lambda: dict(_hopf_matrix(), **{field: change(_hopf_matrix()[field])})


def _edit_chain(change):
    # the chain of radical_tower_f5 is [L0: no generators, L1: family a]
    return lambda: dict(_chain(), chain=change(_chain()["chain"]))


# Both carriers have dimension 2: mul is 2 x 2 cells of length 2, sigma and
# antipode are 2 x 2, comul is 4 x 2 and unit and counit have length 2.
@pytest.mark.parametrize("argv, make, named, path", [
    (["hopf", "validate"], _edit_hopf("counit", lambda v: v[:1]), "counit", "counit"),
    (["hopf", "validate"], _edit_hopf("counit", lambda v: v + v[:1]), "counit", "counit"),
    (["hopf", "validate"], _edit_hopf("comul", lambda v: v + v[:1]), "comul", "comul"),
    (["hopf", "validate"], _edit_hopf("comul", lambda v: v[:2]), "comul", "comul"),
    (["hopf", "validate"], _edit_hopf("comul", lambda v: [r[:1] for r in v]), "comul[0]",
     "comul[0]"),
    (["hopf", "validate"], _edit_hopf("antipode", lambda v: [v[0] + v[0][:1], v[1]]),
     "antipode[0]", "antipode[0]"),
    (["hopf", "core-check"], _edit_hopf("antipode", lambda v: v[:1]), "antipode",
     "antipode"),
    (["core"], _edit_algebra("mul", lambda v: v[:1]), "mul", "mul"),
    (["core"], _edit_algebra("mul", lambda v: [[v[0][0][:1], v[0][1]], v[1]]),
     "mul[0][0]", "mul[0][0]"),
    (["core"], _edit_algebra("mul", lambda v: [v[0] + v[0][:1], v[1]]), "mul[0]", "mul[0]"),
    (["core"], _edit_algebra("sigma", lambda v: v[:1]), "sigma", "sigma"),
    (["core"], _edit_algebra("sigma", lambda v: [v[0][:1], v[1]]), "sigma[0]", "sigma[0]"),
    (["core"], _edit_algebra("unit", lambda v: v + v[:1]), "mul", "mul"),
    (["core"], lambda: dict(_algebra(), mul=[], unit=[], sigma=[]), "unit", "unit"),
    (["check", "--predicate", "etale"], _edit_algebra("sigma", lambda v: v[:1]), "sigma",
     "sigma"),
    (["babbitt", "verify"], _edit_chain(lambda v: []), "chain", "chain"),
    (["babbitt", "verify"], _edit_chain(lambda v: [v[0], dict(v[1], generators=5)]),
     "chain[1].generators", "chain[1].generators"),
    (["babbitt", "verify"], _edit_chain(lambda v: [v[0], dict(v[1], generators=["nope"])]),
     "nope", "chain[1].generators"),
    (["babbitt", "verify"], _edit_chain(lambda v: [v[0], dict(v[1], benign_generator=5)]),
     "chain[1].benign_generator", "chain[1].benign_generator"),
], ids=["counit-short", "counit-long", "comul-extra-row", "comul-short",
        "comul-one-column", "antipode-long-row", "antipode-core-check", "mul-short",
        "mul-cell-short", "mul-row-long", "sigma-short", "sigma-row-short",
        "unit-long", "zero-ring", "check-sigma-short", "chain-empty",
        "chain-generators-not-array", "chain-unknown-generator",
        "chain-benign-generator-not-string"])
def test_field_of_wrong_shape_is_an_input_error(tmp_path, argv, make, named, path):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(make()))
    code, rep = run(argv + [str(p)])
    assert code == 1 and _input_error(rep, path) and named in rep["error"]


@pytest.mark.parametrize("p, code", [
    (10 ** 18 + 3, 0),
    (3215031751, 1),            # a strong pseudoprime to the bases 2, 3, 5, 7
    (10 ** 25 + 13, 1),         # a prime above the bound of the exact test
], ids=["huge-prime", "pseudoprime", "above-bound"])
def test_huge_characteristic_is_decided_at_once(tmp_path, p, code):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(dict(_algebra(), base={"kind": "Fq", "p": p})))
    for argv in (["core"], ["check", "--predicate", "etale"]):
        got, rep = run(argv + [str(f)])
        assert got == code and (code == 0 or _input_error(rep, "base"))


def test_zero_characteristic_with_defpoly_is_an_input_error(tmp_path):
    # the prime is checked before defpoly is reduced mod p
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(dict(_algebra(), base={"kind": "Fq", "p": 0, "defpoly": [1, 1, 1]})))
    code, rep = run(["core", str(f)])
    assert code == 1 and _input_error(rep, "base") and "not prime" in rep["error"]


@pytest.mark.parametrize("command, make, config", [
    ("check", _algebra, {"predicate": ["etale"]}),
    ("core-truncated", _presentation, {"level": "2"}),
    ("ld", _tower, {"horizon": "6"}),
    ("gallery", dict, {"name": "example-core-not-hopf", "char": "5"}),
    ("suite", dict, {"name": "babbitt", "seed": "x"}),
], ids=["predicate", "level", "horizon", "char", "seed"])
def test_certificate_config_of_wrong_type_is_an_input_error(
        tmp_path, command, make, config):
    cert = {"format": CERT_FORMAT, "command": command, "config": config,
            "instance": make(), "result": {}, "exit_code": 0}
    p = tmp_path / "cert.json"
    p.write_text(json.dumps(cert))
    code, rep = run(["verify-cert", str(p)])
    path = "config." + list(config)[-1]     # the last key has the wrong type
    assert code == 1 and _input_error(rep, path)
    assert rep["error"].startswith(f"{path} must be a")


def _line_with(poly):
    from diffalg.gallery import collapsed_line

    doc = collapsed_line(5).to_json()
    doc["gens"] = [{"poly": "y0^2-1"}, {"poly": poly}]
    return doc


def _tower_with(sigma):
    doc = _tower()
    doc["levels"] = [dict(doc["levels"][0], sigma=sigma)]
    return doc


# a presentation's generators are parsed together, so its errors are the
# document's; a tower level's sigma rule is parsed on its own
@pytest.mark.parametrize("doc, ok, path", [
    (_line_with("sigma(y0,0)-1"), True, None),
    (_line_with("sigma(y0,-1)-1"), False, ""),
    (_tower_with("sigma(t,0)"), True, None),
    (_tower_with("sigma(t,-1)"), False, "levels[0].sigma"),
], ids=["presentation-zero", "presentation-negative", "tower-zero", "tower-negative"])
def test_negative_sigma_count_is_an_input_error(tmp_path, doc, ok, path):
    # sigma need not be invertible, so sigma(x, -1) has no meaning here
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code, rep = run(["core", str(p)])
    if ok:
        assert code == 0
    else:
        assert code == 1 and _input_error(rep, path) and "sigma" in rep["error"]


# a level's sigma rule may read sigma of the levels it names, so the rules
# can ask for themselves, directly or through another level's rule
@pytest.mark.parametrize("doc", [
    _tower_with("sigma(a)^2-1"),
    {"base": {"kind": "Fq", "p": 5},
     "levels": [{"name": "a", "minpoly": ["-2", 0, 1], "sigma": "sigma(b)"},
                {"name": "b", "minpoly": [1, 1, 0, 1], "sigma": "sigma(a)"}]},
], ids=["self", "mutual"])
def test_sigma_rule_that_needs_itself_is_an_input_error(tmp_path, capsys, doc):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code = main(["core", str(p), "--format", "json"])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == 1 and err == ""
    assert _input_error(rep, "levels[0].sigma") and "needs sigma of 'a'" in rep["error"]


# the parser and the evaluator recurse once per level of nesting
@pytest.mark.parametrize("poly", ["-" * 3000 + "y0^2-1", "y0" + "*y0" * 3000 + "-1",
                                  "+" * 100000 + "y0^2-1"],
                         ids=["unary-minus", "product", "unary-plus"])
def test_deeply_nested_expression_is_an_input_error(tmp_path, capsys, poly):
    doc = _presentation()
    doc["gens"][0]["poly"] = poly
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code = main(["core", str(p), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert json.loads(out)["error"] == "expression nests too deeply"


def _non_commutative(unit):
    # e_0 e_1 = e_0 but e_1 e_0 = 0 over F_5
    return {"base": {"kind": "Fq", "p": 5},
            "mul": [[["1", "0"], ["1", "0"]], [["0", "0"], ["0", "1"]]],
            "unit": unit, "sigma": [["1", "0"], ["0", "1"]]}


@pytest.mark.parametrize("unit", [["1", "0"], ["1", "1"]], ids=["unit-e0", "unit-e0+e1"])
@pytest.mark.parametrize("argv", [["core"], ["check", "--predicate", "etale"]],
                         ids=["core", "check"])
def test_non_commutative_mul_is_an_input_error(tmp_path, argv, unit):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(_non_commutative(unit)))
    code, rep = run(argv + [str(p)])
    assert code == 1 and _input_error(rep, "mul")
    assert "commutative" in rep["error"] and "mul[0][1]" in rep["error"]


@pytest.mark.parametrize("poly, named", [
    ("(y0+1)^1000000", "exponent 1000000"),
    ("sigma(y0,100000000)-1", "sigma count 100000000"),
], ids=["exponent", "sigma-count"])
def test_huge_literal_is_an_input_error_at_once(tmp_path, poly, named):
    from diffalg._exprs import MAX_LITERAL
    from diffalg.gallery import collapsed_line

    doc = collapsed_line(5).to_json()
    doc["gens"] = [{"poly": poly}]
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    # a fresh interpreter, so an evaluator without the cap fails by the
    # timeout instead of hanging the suite
    proc = subprocess.run([sys.executable, "-m", "diffalg.cli", "core", str(p),
                           "--format", "json"], capture_output=True, text=True,
                          timeout=5)
    rep = json.loads(proc.stdout)
    assert proc.returncode == 1 and _input_error(rep, "") and not proc.stderr
    assert named in rep["error"] and f"cap of {MAX_LITERAL}" in rep["error"]


def _shift_tower_holding(text):
    # F_5(t_0, t_1, ...)(u) with u^2 = 2, the text adding zero to the 2
    return {"base": {"kind": "shift", "base": {"kind": "Fq", "p": 5}},
            "levels": [{"name": "u", "minpoly": [f"-2 + {text} - {text}", "0", "1"],
                        "sigma": "u"}]}


def test_nested_powers_share_the_exponent_cap(tmp_path, capsys):
    from diffalg._exprs import MAX_LITERAL

    # each exponent is under the cap, their product 1600 is not
    p = tmp_path / "tower.json"
    p.write_text(json.dumps(_shift_tower_holding("((t0+1)^40)^40")))
    code = main(["ld", str(p), "--format", "json"])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == 1 and err == "" and _input_error(rep, "levels[0]")
    assert rep["error"] == ("product of nested exponents 1600 is above the cap of "
                            f"{MAX_LITERAL}")
    # a power the old evaluator would never finish, in a fresh interpreter
    p.write_text(json.dumps(_shift_tower_holding("((t0+t1+t2+2)^1000)^1000")))
    proc = subprocess.run([sys.executable, "-m", "diffalg.cli", "ld", str(p),
                           "--format", "json"], capture_output=True, text=True,
                          timeout=5)
    assert proc.returncode == 1 and not proc.stderr
    assert "nested exponents 1000000" in json.loads(proc.stdout)["error"]


def _certificate():
    from diffalg.cli import execute, make_certificate

    config = {"predicate": "etale"}
    code, result = execute("check", _algebra(), config)
    return make_certificate("check", _algebra(), config, code, result)


# (argv, the document, the path of the object that loses a key, its required keys)
REQUIRED_KEYS = [
    (["core"], _algebra, "", ["base", "unit", "mul", "sigma"]),
    (["hopf", "validate"], lambda: {"presentation": _presentation()}, "presentation",
     ["vars", "gens"]),
    (["ld"], _tower, "", ["base"]),
    (["ld"], _tower, "levels[0]", ["name", "minpoly", "sigma"]),
    (["babbitt", "verify"], _chain, "", ["tower", "chain"]),
    (["hopf", "validate"], _hopf_matrix, "", ["comul", "antipode", "counit"]),
    (["verify-cert"], _certificate, "", ["command", "instance", "config", "result",
                                         "exit_code"]),
]


@pytest.mark.parametrize("argv, make, parent, key", [
    pytest.param(argv, make, parent, key, id=f"{argv[0]}-{parent or 'doc'}-{key}")
    for argv, make, parent, keys in REQUIRED_KEYS for key in keys])
def test_missing_key_is_an_input_error_at_its_parent(tmp_path, capsys, argv, make,
                                                     parent, key):
    doc = make()
    del _resolve(doc, parent)[key]
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code = main(argv + [str(p), "--format", "json"])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == 1 and not err and _input_error(rep, parent)
    assert isinstance(_resolve(doc, rep["path"]), dict)
    assert rep["error"] == f"{parent or 'the document'} has no key {key!r}"


@pytest.mark.parametrize("name", ["zz", "a0+"])
def test_unknown_benign_generator_is_an_input_error_at_its_path(tmp_path, capsys, name):
    doc = _chain()
    doc["chain"][1]["benign_generator"] = name
    p = tmp_path / "chain.json"
    p.write_text(json.dumps(doc))
    code = main(["babbitt", "verify", str(p), "--format", "json"])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == 1 and err == "" and _input_error(rep, "chain[1].benign_generator")
    assert rep["error"] == f"unknown tower generator {name!r}"


def test_specialization_tower_document_runs_through_ld(tmp_path, capsys):
    from diffalg.exactfield import FunctionField, PrimeField
    from diffalg.towers import benign_make, tower_to_json

    T = benign_make(FunctionField(PrimeField(5), [0, 1], [1, 1]), ["-t", 0, 1],
                    kind="specialization-verified")
    p = tmp_path / "tower.json"
    p.write_text(json.dumps(tower_to_json(T)))
    code = main(["ld", str(p), "--horizon", "0", "--format", "json"])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == 3 and err == ""
    assert rep["instance"] == tower_to_json(T)
    assert rep["result"]["d_sequence"] == [2] and rep["result"]["kind"] == "observed"
    # level one is beyond what specialization certifies, loaded or built
    code = main(["ld", str(p), "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert json.loads(out) == {"error": "specialization certificates only apply at level zero"}


def _f9_swap():
    # F_9 x F_9 with sigma swapping the factors, F_9 = F_3[x]/(x^2 + 1)
    one, zero = [1, 0], [0, 0]
    return {"base": {"kind": "Fq", "p": 3, "defpoly": [1, 0, 1]}, "unit": [one, one],
            "mul": [[[one, zero], [zero, zero]], [[zero, zero], [zero, one]]],
            "sigma": [[zero, one], [one, zero]]}


def _f5_square():
    # F_5 x F_5 with the identity, every scalar a one-digit string
    return {"base": {"kind": "Fq", "p": 5}, "unit": ["1", "1"],
            "mul": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
            "sigma": [["1", "0"], ["0", "1"]]}


_INTEGER = "is an integer, as a JSON number or string, not"


@pytest.mark.parametrize("doc, unit, said", [
    (_f5_square, [1.7, "1"], f"an element of F_5 {_INTEGER} 1.7"),
    (_f9_swap, [[1.5, 0], [1, 0]], f"a coordinate of an element of F_9 {_INTEGER} 1.5"),
    (_f9_swap, [[True, 0], [1, 0]], f"a coordinate of an element of F_9 {_INTEGER} a boolean"),
    (_f9_swap, [[1, "a"], [1, 0]], f"a coordinate of an element of F_9 {_INTEGER} 'a'"),
], ids=["F5-float", "F9-float", "F9-bool", "F9-junk-string"])
def test_scalar_of_the_wrong_json_type_is_an_input_error(tmp_path, doc, unit, said):
    # int() would read the first three as 1 and name the fourth in Python's words
    doc = doc()
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    assert run(["check", "--predicate", "ssetale", str(p)])[0] == 0
    doc["unit"] = unit
    p.write_text(json.dumps(doc))
    for argv in (["check", "--predicate", "ssetale"], ["core"]):
        code, rep = run(argv + [str(p)])
        assert code == 1 and _input_error(rep, "unit")
        assert said in rep["error"]


@pytest.mark.parametrize("coords, said", [
    ([1], "has 2 coordinates, not 1"), ([1, 0, 2], "has 2 coordinates, not 3"),
    (1, "is a list of 2 coordinates, not a number"),
    (None, "is a list of 2 coordinates, not null"),
    (True, "is a list of 2 coordinates, not a boolean"),
    ({}, "is a list of 2 coordinates, not an object"),
], ids=["short", "long", "number", "null", "bool", "object"])
@pytest.mark.parametrize("key, at", [("unit", [1]), ("mul", [1, 1, 1]), ("sigma", [0, 1])],
                         ids=["unit", "mul", "sigma"])
def test_f9_scalar_of_the_wrong_length_is_an_input_error(tmp_path, key, at, coords, said):
    # a JSON value that is no list at all has the wrong length too
    doc = _f9_swap()
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    assert run(["check", "--predicate", "ssetale", str(p)])[0] == 0
    cell = doc[key]
    for i in at[:-1]:
        cell = cell[i]
    cell[at[-1]] = coords
    p.write_text(json.dumps(doc))
    for argv in (["check", "--predicate", "ssetale"], ["core"]):
        code, rep = run(argv + [str(p)])
        assert code == 1 and _input_error(rep, key)
        assert f"F_9 {said}" in rep["error"]

