"""Documents, fields and certificate configs of the wrong JSON type must end
in an input error, not a traceback."""

import json
import subprocess
import sys

import pytest

from diffalg.cli import CERT_FORMAT, run


def test_verify_cert_rejects_non_certificate_json(tmp_path):
    p = tmp_path / "list.json"
    p.write_text(json.dumps(["a0"]))
    code, rep = run(["verify-cert", str(p)])
    assert code == 1 and "error" in rep
    p2 = tmp_path / "dict.json"
    p2.write_text(json.dumps({"chain": []}))
    code2, rep2 = run(["verify-cert", str(p2)])
    assert code2 == 1 and "error" in rep2


@pytest.mark.parametrize("argv", [
    ["check", "{f}", "--predicate", "etale"],
    ["core", "{f}"],
    ["ld", "{f}"],
    ["compat", "{f}", "{f}"],
    ["hopf", "validate", "{f}"],
    ["hopf", "core-check", "{f}"],
    ["babbitt", "verify", "{f}"],
    ["babbitt", "search", "{f}"],
])
def test_top_level_array_is_an_input_error(tmp_path, argv):
    p = tmp_path / "array.json"
    p.write_text(json.dumps([1, 2]))
    code, rep = run([a.format(f=p) for a in argv])
    assert code == 1 and "must be an object" in rep["error"]


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
    assert code == 1 and "must be a JSON object" in rep["error"]


def test_babbitt_candidates_must_be_an_array(tmp_path):
    p = tmp_path / "obj.json"
    p.write_text(json.dumps({"a": 1}))
    code, rep = run(["babbitt", "search", str(p), "--candidates", str(p)])
    assert code == 1 and "must be an array" in rep["error"]


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


@pytest.mark.parametrize("argv, make, field, value, named", [
    (["core"], _algebra, "mul", 5, "mul"),
    (["core"], _tower, "levels", 5, "levels"),
    (["core"], _presentation, "gens", [{"poly": 7}], "poly"),
    (["hopf", "validate"], _hopf_matrix, "comul", 5, "comul"),
    (["hopf", "validate"], _hopf_matrix, "counit", [None, "0"], "counit"),
    (["babbitt", "verify"], _chain, "chain", 5, "chain"),
    (["core"], _algebra, "mul", [[[None, "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
     "mul"),
    (["core"], _algebra, "base", {"kind": "Fq", "p": "5"}, "p"),
    (["core"], _algebra, "base", {"kind": "Fq", "p": 5, "defpoly": [2, 0, "x"]},
     "defpoly"),
    # level a of collapse_tower_f5 with one field of the wrong type
    (["core"], _tower, "levels", [{"name": "a", "minpoly": ["-t", 0, 1], "sigma": 5}],
     "sigma"),
    (["core"], _tower, "levels", [{"name": 5, "minpoly": ["-t", 0, 1], "sigma": "t"}],
     "name"),
    (["core"], _tower, "levels", [{"name": "a", "minpoly": "x^2 - t", "sigma": "t"}],
     "minpoly"),
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
    (["ld"], _stacked_tower, "explicit_groups", [["a0", 5]], "explicit_groups[0]"),
], ids=["algebra-mul", "tower-levels", "presentation-poly", "hopf-comul",
        "hopf-null-scalar", "babbitt-chain", "mul-null-scalar", "base-p-string",
        "defpoly-string", "tower-level-sigma", "tower-level-name", "tower-level-minpoly",
        "family-r", "family-var-start", "family-group-start", "family-shift",
        "explicit-group-name"])
def test_field_of_wrong_json_type_is_an_input_error(tmp_path, argv, make, field,
                                                    value, named):
    doc = dict(make(), **{field: value})
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code, rep = run(argv + [str(p)])
    assert code == 1 and set(rep) == {"error"} and named in rep["error"]


def _edit_algebra(field, change):
    return lambda: dict(_algebra(), **{field: change(_algebra()[field])})


def _edit_hopf(field, change):
    return lambda: dict(_hopf_matrix(), **{field: change(_hopf_matrix()[field])})


def _edit_chain(change):
    # the chain of radical_tower_f5 is [L0: no generators, L1: family a]
    return lambda: dict(_chain(), chain=change(_chain()["chain"]))


# Both carriers have dimension 2: mul is 2 x 2 cells of length 2, sigma and
# antipode are 2 x 2, comul is 4 x 2 and unit and counit have length 2.
@pytest.mark.parametrize("argv, make, named", [
    (["hopf", "validate"], _edit_hopf("counit", lambda v: v[:1]), "counit"),
    (["hopf", "validate"], _edit_hopf("counit", lambda v: v + v[:1]), "counit"),
    (["hopf", "validate"], _edit_hopf("comul", lambda v: v + v[:1]), "comul"),
    (["hopf", "validate"], _edit_hopf("comul", lambda v: v[:2]), "comul"),
    (["hopf", "validate"], _edit_hopf("comul", lambda v: [r[:1] for r in v]), "comul row"),
    (["hopf", "validate"], _edit_hopf("antipode", lambda v: [v[0] + v[0][:1], v[1]]),
     "antipode row"),
    (["hopf", "core-check"], _edit_hopf("antipode", lambda v: v[:1]), "antipode"),
    (["core"], _edit_algebra("mul", lambda v: v[:1]), "mul"),
    (["core"], _edit_algebra("mul", lambda v: [[v[0][0][:1], v[0][1]], v[1]]), "mul cell"),
    (["core"], _edit_algebra("mul", lambda v: [v[0] + v[0][:1], v[1]]), "mul row"),
    (["core"], _edit_algebra("sigma", lambda v: v[:1]), "sigma"),
    (["core"], _edit_algebra("sigma", lambda v: [v[0][:1], v[1]]), "sigma row"),
    (["core"], _edit_algebra("unit", lambda v: v + v[:1]), "mul"),
    (["core"], lambda: dict(_algebra(), mul=[], unit=[], sigma=[]), "unit"),
    (["check", "--predicate", "etale"], _edit_algebra("sigma", lambda v: v[:1]), "sigma"),
    (["babbitt", "verify"], _edit_chain(lambda v: []), "chain"),
    (["babbitt", "verify"], _edit_chain(lambda v: [v[0], dict(v[1], generators=5)]),
     "chain[1].generators"),
    (["babbitt", "verify"], _edit_chain(lambda v: [v[0], dict(v[1], generators=["nope"])]),
     "nope"),
    (["babbitt", "verify"], _edit_chain(lambda v: [v[0], dict(v[1], benign_generator=5)]),
     "chain[1].benign_generator"),
], ids=["counit-short", "counit-long", "comul-extra-row", "comul-short",
        "comul-one-column", "antipode-long-row", "antipode-core-check", "mul-short",
        "mul-cell-short", "mul-row-long", "sigma-short", "sigma-row-short",
        "unit-long", "zero-ring", "check-sigma-short", "chain-empty",
        "chain-generators-not-array", "chain-unknown-generator",
        "chain-benign-generator-not-string"])
def test_field_of_wrong_shape_is_an_input_error(tmp_path, argv, make, named):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(make()))
    code, rep = run(argv + [str(p)])
    assert code == 1 and set(rep) == {"error"} and named in rep["error"]


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
        assert got == code and (code == 0 or set(rep) == {"error"})


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
    assert code == 1 and set(rep) == {"error"}
    assert "must be of type" in rep["error"]


def _line_with(poly):
    from diffalg.gallery import collapsed_line

    doc = collapsed_line(5).to_json()
    doc["gens"] = [{"poly": "y0^2-1"}, {"poly": poly}]
    return doc


def _tower_with(sigma):
    doc = _tower()
    doc["levels"] = [dict(doc["levels"][0], sigma=sigma)]
    return doc


@pytest.mark.parametrize("doc, ok", [
    (_line_with("sigma(y0,0)-1"), True),
    (_line_with("sigma(y0,-1)-1"), False),
    (_tower_with("sigma(t,0)"), True),
    (_tower_with("sigma(t,-1)"), False),
], ids=["presentation-zero", "presentation-negative", "tower-zero", "tower-negative"])
def test_negative_sigma_count_is_an_input_error(tmp_path, doc, ok):
    # sigma need not be invertible, so sigma(x, -1) has no meaning here
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    code, rep = run(["core", str(p)])
    if ok:
        assert code == 0
    else:
        assert code == 1 and set(rep) == {"error"} and "sigma" in rep["error"]


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
    assert code == 1 and set(rep) == {"error"}
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
    assert proc.returncode == 1 and set(rep) == {"error"}
    assert named in rep["error"] and f"cap of {MAX_LITERAL}" in rep["error"]
