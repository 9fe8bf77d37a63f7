"""CLI dispatch, exit codes, certificates, determinism."""

import json

import pytest

from diffalg import gallery
from diffalg.cli import run
from diffalg.exactfield import PrimeField
from diffalg.instances import diagonal_algebra
from diffalg.towers import tower_to_json

F5 = PrimeField(5)


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def test_check_predicates_and_exit_codes(files):
    swap = diagonal_algebra(F5, [1, 0]).to_json()
    collapsed = diagonal_algebra(F5, [0, 0]).to_json()
    f_swap = files("swap.json", swap)
    f_col = files("col.json", collapsed)
    assert run(["check", f_swap, "--predicate", "ssetale"])[0] == 0
    assert run(["check", f_col, "--predicate", "ssetale"])[0] == 2
    assert run(["check", f_col, "--predicate", "etale"])[0] == 0
    assert run(["check", f_col, "--predicate", "sseparable"])[0] == 2
    assert run(["check", f_col, "--predicate", "sreduced"])[0] == 2


def test_core_command_on_algebra(files):
    f = files("swap.json", diagonal_algebra(F5, [1, 0]).to_json())
    code, rep = run(["core", f])
    assert code == 0
    assert rep["result"]["dimension"] == 2 and rep["result"]["complete"]


def test_core_command_on_presentation(files):
    f = files("pres.json", gallery.product_carrier(5).to_json())
    code, rep = run(["core", f, "--level", "2"])
    assert code == 0
    assert rep["result"]["dimension"] == 1 and rep["result"]["status"] == "exact"


def test_core_on_a_period_above_the_level_is_a_lower_bound(files):
    # y0 has period 4, so its orbit y0..y3 leaves level 2: no certificate there
    pres = gallery.free_line(5).to_json()
    pres["gens"].append({"poly": "sigma(y0,4)-y0"})
    f = files("period4.json", pres)
    code, rep = run(["core", f])
    assert code == 3
    assert rep["result"]["status"] == "lower-bound" and rep["result"]["window"] == []
    code, rep = run(["core", f, "--level", "3"])
    assert code == 0
    assert rep["result"]["status"] == "exact" and rep["result"]["dimension"] == 16


def test_core_command_on_tower(files):
    f = files("tower.json", tower_to_json(gallery.collapse_tower_f5()))
    code, rep = run(["core", f])
    assert code == 0
    result = rep["result"]
    assert result["dimension"] == 1 and result["strongly_sigma_etale"]
    assert result["radicial_exponents"] == {"a": 1}


def test_ld_command(files):
    f = files("tower.json", tower_to_json(gallery.radical_tower_f5()))
    code, rep = run(["ld", f, "--horizon", "6"])
    assert code == 0
    assert rep["result"]["value"] == 2 and rep["result"]["certified"]


def test_babbitt_verify_exit_codes(files):
    good = files("good.json", gallery.chain_for(gallery.radical_tower_f5()).to_json())
    bad = files("bad.json", gallery.corrupted_chain().to_json())
    assert run(["babbitt", "verify", good])[0] == 0
    code, rep = run(["babbitt", "verify", bad])
    assert code == 2 and rep["result"]["witness"] is not None


def test_babbitt_search(files):
    tower = files("tower.json", tower_to_json(gallery.radical_tower_f5()))
    cands = files("cands.json", ["a0"])
    code, rep = run(["babbitt", "search", tower, "--candidates", cands])
    assert code == 0 and rep["result"]["found"]
    code2, rep2 = run(["babbitt", "search", tower])
    assert code2 == 3 and not rep2["result"]["found"]


def test_compat_command(files):
    fa = files("a.json", tower_to_json(gallery.frobenius_tower(2, [1, 1, 1], 1)))
    fb = files("b.json", tower_to_json(gallery.frobenius_tower(2, [1, 1, 1], 0)))
    assert run(["compat", fa, fa])[0] == 0
    code, rep = run(["compat", fa, fb])
    assert code == 2
    assert rep["result"]["details"]["enumeration"]


def test_hopf_commands(files):
    f = files("hopf.json", {"presentation": gallery.product_carrier(5).to_json()})
    assert run(["hopf", "validate", f])[0] == 0
    assert run(["hopf", "core-check", f, "--level", "2"])[0] == 0


def test_gallery_command_reports_bound():
    code, rep = run(["gallery", "example-core-not-hopf", "--level", "2",
                     "--char", "5"])
    assert code == 0
    assert rep["result"]["core_dimension"] == 1
    assert rep["result"]["etale_union_lower_bound"] >= 4
    code7, rep7 = run(["gallery", "example-core-not-hopf", "--level", "1",
                       "--char", "7"])
    assert code7 == 0


def test_gallery_unknown_name_is_input_error():
    code, rep = run(["gallery", "no-such-thing"])
    assert code == 1 and "error" in rep


def test_malformed_input_exit_code(files):
    f = files("broken.json", {"definitely": "not an algebra"})
    code, rep = run(["check", f, "--predicate", "etale"])
    assert code == 1 and "error" in rep
    assert run(["check", "/does/not/exist.json", "--predicate", "etale"])[0] == 1


def test_certificates_reverify(files, tmp_path):
    f = files("swap.json", diagonal_algebra(F5, [1, 0]).to_json())
    code, cert = run(["core", f])
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    code2, rep2 = run(["verify-cert", str(cert_path)])
    assert code2 == 0 and rep2["verify"]["matches"]
    # tamper with the result: must be rejected
    cert["result"]["dimension"] = 7
    cert_path.write_text(json.dumps(cert))
    code3, rep3 = run(["verify-cert", str(cert_path)])
    assert code3 == 2 and not rep3["verify"]["matches"]


def test_every_certificate_kind_reverifies(files, tmp_path):
    swap = files("swap.json", diagonal_algebra(F5, [1, 0]).to_json())
    tower = files("tower.json", tower_to_json(gallery.radical_tower_f5()))
    finite = files("fin.json", tower_to_json(gallery.frobenius_tower(2, [1, 1, 1], 1)))
    chain = files("chain.json", gallery.chain_for(gallery.radical_tower_f5()).to_json())
    cands = files("cands.json", ["a0"])
    pres = files("pres.json", gallery.product_carrier(5).to_json())
    hopf = files("hopf.json", {"presentation": gallery.product_carrier(5).to_json()})
    commands = [
        ["check", swap, "--predicate", "ssetale"],
        ["core", swap],
        ["core", pres, "--level", "2"],
        ["core", finite],
        ["ld", tower],
        ["babbitt", "verify", chain],
        ["babbitt", "search", tower, "--candidates", cands],
        ["compat", finite, finite],
        ["hopf", "validate", hopf],
        ["hopf", "core-check", hopf, "--level", "2"],
        ["gallery", "example-core-not-hopf", "--level", "1", "--char", "5"],
        ["suite", "babbitt", "--seed", "42"],
    ]
    for i, cmd in enumerate(commands):
        code, cert = run(cmd)
        assert code in (0, 2, 3), (cmd, code)
        path = tmp_path / f"c{i}.json"
        path.write_text(json.dumps(cert))
        vcode, vrep = run(["verify-cert", str(path)])
        assert vcode == 0 and vrep["verify"]["matches"], cmd


def test_suite_command_and_determinism():
    code1, rep1 = run(["suite", "babbitt", "--seed", "42"])
    code2, rep2 = run(["suite", "babbitt", "--seed", "42"])
    assert code1 == code2 == 0
    b1 = json.dumps(rep1, sort_keys=True, separators=(",", ":"))
    b2 = json.dumps(rep2, sort_keys=True, separators=(",", ":"))
    assert b1 == b2


def test_determinism_across_processes_and_hash_seeds():
    import os
    import subprocess
    import sys

    outs = []
    for hash_seed in ("0", "7"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-m", "diffalg.cli", "suite", "babbitt",
             "--seed", "42", "--format", "json"],
            capture_output=True, env=env, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_text_format_emission(capsys):
    from diffalg.cli import main

    code = main(["gallery", "example-core-not-hopf", "--level", "1",
                 "--char", "5", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0 and "core_dimension" in out


def test_json_format_emission(capsys):
    from diffalg.cli import main

    code = main(["gallery", "example-core-not-hopf", "--level", "1",
                 "--char", "5", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    assert parsed["result"]["core_dimension"] == 1


@pytest.mark.parametrize("argv", [
    # an abbreviation argparse accepts
    ["--form", "json", "gallery", "nope"],
    # repeated: the last value wins
    ["--format", "text", "gallery", "nope", "--format", "json"],
    ["gallery", "nope", "--format=text", "--format=json"],
])
def test_output_format_is_the_parsed_one(capsys, argv):
    from diffalg.cli import main

    code = main(argv)
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "unknown gallery item 'nope'"}


@pytest.mark.parametrize("argv", [
    ["check"],
    ["check", "a.json"],
    ["nope"],
    ["babbitt"],
    ["suite", "all", "--seed", "x"],
])
def test_usage_errors_exit_one(capsys, argv):
    from diffalg.cli import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    from diffalg.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert "--predicate" in capsys.readouterr().out


def test_cached_parser_follows_the_environment_seed(monkeypatch, capsys):
    from diffalg.cli import main

    def seed(argv):
        code, rep = run(["suite", "hopf"] + argv)
        assert code == 0
        return rep["config"]["seed"]

    monkeypatch.setenv("DIFFALG_SEED", "11")
    assert seed([]) == 11
    monkeypatch.setenv("DIFFALG_SEED", "12")
    assert seed([]) == 12
    # an explicit seed does not become the next call's default
    assert seed(["--seed", "7"]) == 7
    assert seed([]) == 12
    monkeypatch.delenv("DIFFALG_SEED")
    assert seed([]) == 42
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: diffalg" in capsys.readouterr().out
