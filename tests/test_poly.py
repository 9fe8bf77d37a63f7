"""Polynomial layer: gcd, separability, factorization, coefficient twists."""

import random

import pytest
from hypothesis import given, strategies as st

from diffalg import _polycore as pc
from diffalg.exactfield import (DifferenceField, FunctionField, GaloisField,
                                PrimeField, Rationals, ShiftField)
from diffalg.poly import (Poly, UnsupportedBaseError, factor_over_finite_field,
                          is_irreducible, is_separable, poly_gcd, roots,
                          sigma_twist)

Q = Rationals()
F2 = PrimeField(2)
F5 = PrimeField(5)


def test_gcd_shared_root_over_q():
    f = Poly.from_ints(Q, [-1, 0, 1])     # x^2 - 1
    g = Poly.from_ints(Q, [-1, 1])        # x - 1
    assert poly_gcd(f, g) == g


def test_gcd_with_zero_is_monic_normalization():
    f = Poly.from_ints(F5, [2, 4])
    z = Poly.zero(F5)
    assert poly_gcd(f, z) == f.monic()
    assert poly_gcd(z, f) == f.monic()


def test_gcd_f2_example_by_long_division():
    f = Poly.from_ints(F2, [1, 0, 1, 0, 1])   # x^4 + x^2 + 1
    g = Poly.from_ints(F2, [1, 1, 1])
    d = poly_gcd(f, g)
    assert d == g
    q, r = divmod(f, d)
    assert r.is_zero() and q * d == f


def test_gcd_mixed_bases_rejected():
    with pytest.raises(TypeError):
        poly_gcd(Poly.from_ints(F2, [1, 1]), Poly.from_ints(F5, [1, 1]))


def test_separability_examples():
    assert is_separable(Poly.from_ints(F5, [-1, 0, 1]))
    assert is_separable(Poly.from_ints(F2, [1, 1, 1]))
    # x^p - t over F_p(t): derivative vanishes identically
    Ft = FunctionField(F5, [0, 1], [1])   # sigma(t) = t, a Moebius placeholder
    t = Ft.t()
    coeffs = [Ft.neg(t)] + [Ft.zero()] * 4 + [Ft.one()]
    f = Poly.make(Ft, coeffs)
    assert not is_separable(f)
    with pytest.raises(ValueError):
        is_separable(Poly.zero(F5))


def test_factorization_worked_examples():
    fl = factor_over_finite_field(Poly.from_ints(F5, [-1, 0, 1]))
    assert sorted((g.degree(), m) for g, m in fl.factors) == [(1, 1), (1, 1)]

    assert is_irreducible(Poly.from_ints(F2, [1, 1, 1]))
    fl2 = factor_over_finite_field(Poly.from_ints(F2, [1, 1, 1]))
    assert len(fl2.factors) == 1 and fl2.factors[0][1] == 1

    fl3 = factor_over_finite_field(Poly.from_ints(F5, [-1, 0, 0, 0, 1]))
    rs = sorted(r for r, _ in roots(Poly.from_ints(F5, [-1, 0, 0, 0, 1])))
    assert rs == [1, 2, 3, 4]
    assert all(g.degree() == 1 for g, _ in fl3.factors)


def test_factorization_roundtrip_500_random():
    rng = random.Random(20240301)
    per_char = 170
    for p in (2, 3, 5):
        k = PrimeField(p)
        done = 0
        while done < per_char:
            deg = rng.randint(1, 8)
            coeffs = [k.sample(rng) for _ in range(deg + 1)]
            f = Poly.make(k, coeffs)
            if f.is_zero():
                continue
            fl = factor_over_finite_field(f)
            assert fl.expand(k) == f
            for g, _ in fl.factors:
                assert is_irreducible(g) and g.is_monic()
            done += 1


def test_factorization_over_extension_field():
    F9 = GaloisField(3, [1, 0, 1])
    f = Poly.make(F9, [F9.one(), F9.zero(), F9.one()])   # x^2 + 1 splits over F9
    fl = factor_over_finite_field(f)
    assert all(g.degree() == 1 for g, _ in fl.factors)
    assert fl.expand(F9) == f


@pytest.mark.parametrize("p, defpoly", [(2, [1, 1, 1]), (2, [1, 1, 0, 1]), (3, [1, 0, 1]),
                                        (5, [2, 1, 1]), (5, [2, 1, 0, 0, 0, 0, 1])],
                         ids=["F4", "F8", "F9", "F25", "F5^6"])
def test_factorization_over_extension_fields_is_unique(p, defpoly):
    # seeded products with repeated factors and a p-th power; the factorization
    # is unique, so the product, monic factors that differ and Rabin's test
    # pin it down; F_5^6 is above the log-table cap
    F = GaloisField(p, defpoly)
    rng = random.Random(4200 + F.order)
    for _ in range(6 if F.order < 1000 else 3):
        unit = next(c for c in iter(lambda: F.sample(rng), None) if not F.is_zero(c))
        coeffs = [unit]
        for _ in range(rng.randint(2, 3)):
            g = [F.sample(rng) for _ in range(rng.randint(1, 3))] + [F.one()]
            for _ in range(rng.randint(1, 2)):
                coeffs = pc.mul(F, coeffs, g)
        root = [F.sample(rng), F.one()]
        for _ in range(p):
            coeffs = pc.mul(F, coeffs, root)
        fl = factor_over_finite_field(Poly.make(F, coeffs))
        product = [fl.unit]
        for g, m in fl.factors:
            assert g.is_monic() and pc.is_irreducible(F, list(g.coeffs), F.order)
            for _ in range(m):
                product = pc.mul(F, product, list(g.coeffs))
        assert pc.eq(F, product, coeffs)
        assert len({g for g, _ in fl.factors}) == len(fl.factors)
        assert max(m for _, m in fl.factors) >= p


def test_factorization_deterministic_under_seed():
    rng = random.Random(5)
    k = PrimeField(3)
    f = Poly.make(k, [k.sample(rng) for _ in range(7)] + [k.one()])
    a = factor_over_finite_field(f)
    b = factor_over_finite_field(f)
    assert [(g.to_json(), m) for g, m in a.factors] == \
        [(g.to_json(), m) for g, m in b.factors]


def test_factorization_unsupported_base():
    with pytest.raises(UnsupportedBaseError):
        factor_over_finite_field(Poly.from_ints(Q, [1, 1]))


def test_sigma_twist_examples():
    Qt = FunctionField(Q, [0, 0, 1], [1])      # sigma(t) = t^2
    t = Qt.t()
    f = Poly.make(Qt, [Qt.neg(t), Qt.zero(), Qt.one()])    # x^2 - t
    tf = sigma_twist(f)
    t2 = Qt.mul(t, t)
    assert tf == Poly.make(Qt, [Qt.neg(t2), Qt.zero(), Qt.one()])

    F4 = GaloisField(2, [1, 1, 1])
    g = Poly.make(F4, [F4.generator(), F4.one()])
    tg = sigma_twist(g)
    assert tg.coeffs[0] == F4.mul(F4.generator(), F4.generator())

    h = Poly.from_ints(F5, [2, 0, 3])     # coefficients in the fixed field
    assert sigma_twist(h) == h


def test_separability_transport_under_twist():
    S5 = ShiftField(PrimeField(5))
    rng = random.Random(9)
    checked = 0
    while checked < 20:
        coeffs = [S5.sample(rng) for _ in range(rng.randint(2, 4))] + [S5.one()]
        f = Poly.make(S5, coeffs)
        if not is_separable(f):
            continue
        assert is_separable(sigma_twist(f))
        checked += 1


def test_gcd_stable_under_twist():
    F4 = GaloisField(2, [1, 1, 1])
    rng = random.Random(12)
    for _ in range(25):
        f = Poly.make(F4, [F4.sample(rng) for _ in range(4)])
        g = Poly.make(F4, [F4.sample(rng) for _ in range(3)])
        if f.is_zero() or g.is_zero():
            continue
        lhs = sigma_twist(poly_gcd(f, g)).monic()
        rhs = poly_gcd(sigma_twist(f), sigma_twist(g))
        assert lhs == rhs


@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=7),
       st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=7))
def test_gcd_divides_both(cs1, cs2):
    f = Poly.from_ints(F5, cs1)
    g = Poly.from_ints(F5, cs2)
    if f.is_zero() or g.is_zero():
        return
    d = poly_gcd(f, g)
    for h in (f, g):
        _, r = divmod(h, d)
        assert r.is_zero()


@pytest.mark.parametrize("p, defpoly", [(2, [1, 1, 1]), (3, [1, 0, 1]), (5, [2, 1, 1]),
                                        (3, [1, 2, 0, 1])],
                         ids=["F4", "F9", "F25", "F27"])
def test_roots_over_extension_fields_equal_brute_force(p, defpoly):
    F = GaloisField(p, defpoly)
    elems = list(F.all_elements())
    rng, with_roots = random.Random(4100 + F.order), 0
    for _ in range(12):
        # a product of linear factors, with repeats, and one seeded cofactor
        coeffs = [F.one()]
        for _ in range(rng.randint(0, 4)):
            coeffs = pc.mul(F, coeffs, [F.neg(rng.choice(elems[:6])), F.one()])
        coeffs = pc.mul(F, coeffs, pc.trim(F, [F.sample(rng) for _ in range(3)]) or [F.one()])
        f = Poly.make(F, coeffs)
        if f.is_zero():
            continue
        want = {}
        for a in elems:
            # evaluate at a; the multiplicity by the generic division loop
            g, m = list(f.coeffs), 0
            while g and F.is_zero(pc.evaluate(F, g, a)):
                g, m = DifferenceField.poly_divmod(F, g, [F.neg(a), F.one()])[0], m + 1
            if m:
                want[a] = m
        assert dict(roots(f)) == want
        with_roots += bool(want)
    assert with_roots >= 6


def test_equal_polys_hash_equal_and_distinct_ones_spread():
    S = ShiftField(PrimeField(5))
    t0, t1 = S.named_constant("t0"), S.named_constant("t1")
    f = Poly.make(S, [S.add(t0, t1), S.one()])
    g = Poly.make(S, [S.add(t1, t0), S.one()])
    assert f == g and hash(f) == hash(g)
    assert hash(Poly.from_ints(F5, [6, 1])) == hash(Poly.from_ints(F5, [1, 1]))
    monic = [Poly.from_ints(F5, [a, b, 1]) for a in range(5) for b in range(5)]
    assert len({hash(p) for p in monic}) == 25
    assert len(set(monic)) == 25
