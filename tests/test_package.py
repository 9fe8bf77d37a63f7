"""The package surface: lazy exports, what a one-shot command imports, the
CLI's parser, and the records that replaced dataclasses."""

import importlib
import os
import subprocess
import sys

import pytest

import diffalg
from diffalg.cli import COMMANDS, SUITE_NAMES, main
from diffalg.exactfield import PRIME_BOUND, FieldError, FrobeniusDescriptor, PrimeField

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def test_one_shot_commands_import_only_what_they_run():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "check_imports.py")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and not proc.stderr, proc.stdout + proc.stderr


# -- public API -----------------------------------------------------------------


def test_every_export_is_its_defining_modules_object():
    assert len(diffalg.__all__) == len(set(diffalg.__all__))
    for name in diffalg.__all__:
        obj = getattr(diffalg, name)
        assert obj.__module__.startswith("diffalg.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj
        # read from the defining module each time, never cached here
        assert name not in vars(diffalg)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from diffalg import *", namespace)
    assert set(diffalg.__all__) <= set(namespace)
    assert namespace["strong_core"] is importlib.import_module("diffalg.findiff").strong_core


def test_unknown_attribute_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        diffalg.no_such_name


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    for name in {c.argv.split()[0] for c in COMMANDS.values()} | {"verify-cert"}:
        assert name in out


def test_unknown_suite_is_a_usage_error_listing_the_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "nope"])
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert "invalid choice: 'nope'" in err and "'core-oracle'" in err and "'all'" in err


def test_suite_names_are_the_suites():
    from diffalg.suites import SUITES

    assert SUITE_NAMES == tuple(sorted(SUITES))


# -- records ------------------------------------------------------------------------


def test_factor_lists_and_polys_compare_by_value():
    from diffalg.poly import FactorList, Poly, factor_over_finite_field

    F5 = PrimeField(5)
    f = Poly.from_ints(F5, [-1, 0, 1])
    g = Poly.from_ints(F5, [4, 0, 1])
    assert f == g and hash(f) == hash(g) and f != Poly.from_ints(F5, [1, 0, 1])
    assert f != Poly.from_ints(PrimeField(7), [-1, 0, 1])
    fl = factor_over_finite_field(f)
    assert fl == factor_over_finite_field(Poly.from_ints(F5, [-1, 0, 1]))
    assert fl == FactorList(fl.unit, fl.factors) and hash(fl) == hash(FactorList(*fl))
    assert fl != FactorList(2, fl.factors)
    assert repr(fl).startswith("FactorList(unit=1, factors=((Poly(")
    with pytest.raises(AttributeError):
        f.coeffs = ()
    with pytest.raises(AttributeError):
        fl.unit = 2


def test_record_defaults():
    from diffalg.diffpoly import IdempotentClassification, TruncatedQuotient
    from diffalg.findiff import Idempotent, PeriodicityResult
    from diffalg.gallery import product_carrier

    r = PeriodicityResult("unknown")
    assert (r.status, r.period, r.reason, r.steps) == ("unknown", None, None, 0)
    assert not r.is_periodic() and PeriodicityResult("periodic", period=2).is_periodic()
    assert Idempotent([1, 0]).primitive is False and Idempotent([1], primitive=True).primitive
    c = IdempotentClassification({}, "unknown")
    assert (c.element, c.status, c.period, c.reason, c.steps) == ({}, "unknown", None, None, 0)
    pres = product_carrier(5)
    q1, q2 = TruncatedQuotient(pres), TruncatedQuotient(pres)
    assert q1.levels == {} and q1.level(1).dim() == q1.levels[1].dim()
    assert q2.levels == {}      # each quotient has its own level cache


def test_tower_level_caches_sigma_and_accepts_a_later_cert():
    from diffalg.exactfield import ShiftField
    from diffalg.towers import TowerLevel, tower_make

    T = tower_make(ShiftField(PrimeField(5)), [{"name": "u", "minpoly": ["-2", "0", "1"],
                                                 "sigma": "u"}])
    lv = T.levels[0]
    assert lv.cert is not None      # picked when the level was certified
    first = T._sigma_gen(0)
    assert lv.sigma_elem is first and T._sigma_gen(0) is first
    bare = TowerLevel("v", None, 1, [], "v", None, 2)
    assert bare.sigma_elem is None and bare.cert is None
    bare.cert = "finite"
    assert bare.cert == "finite"


@pytest.mark.parametrize("p, m, text", [
    (PRIME_BOUND, 1, f"{PRIME_BOUND} is not below"),
    (4, 1, "4 is not prime"),
    (5, -1, "Frobenius power must be >= 0"),
], ids=["characteristic-bound", "not-prime", "negative-power"])
def test_frobenius_descriptor_rejects_bad_data(p, m, text):
    with pytest.raises(FieldError, match=text):
        FrobeniusDescriptor(p, m)


def test_frobenius_descriptor_is_an_immutable_record():
    d = FrobeniusDescriptor(5, 2)
    assert (d.p, d.m) == (5, 2) and d == FrobeniusDescriptor(5, 2)
    assert repr(d) == "FrobeniusDescriptor(p=5, m=2)"
    with pytest.raises(AttributeError):
        d.m = 3
