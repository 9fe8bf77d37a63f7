"""Field constructions, endomorphism laws, canonical forms, serialization."""

import ast
import functools
import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from diffalg import _polycore as pc
from diffalg._load import Cursor, InputError
from diffalg.exactfield import (DECODE_TABLE_MAX_P, PRIME_BOUND, TABLE_MAX_ORDER,
                                DifferenceField, FieldError, FrobeniusDescriptor,
                                FunctionField, GaloisField, PrimeField, Rationals,
                                ShiftField, _is_prime, _log_tables,
                                field_make, is_inversive, sigma_apply)
from diffalg.findiff import FinSigmaAlgebra

F4 = GaloisField(2, [1, 1, 1])
F9 = GaloisField(3, [1, 0, 1])
Q = Rationals()
QT_SQUARE = FunctionField(Q, [0, 0, 1], [1])       # sigma(t) = t^2
S5 = ShiftField(PrimeField(5))


def all_fields():
    return [Q, PrimeField(5), F4, F9, QT_SQUARE, ShiftField(PrimeField(5))]


# -- construction -------------------------------------------------------------


def test_f4_frobenius_order_matches_degree():
    a = F4.generator()
    assert F4.sigma(a) == F4.mul(a, a)
    assert F4.sigma(F4.sigma(a)) == a


def test_rationals_identity_is_inversive():
    assert is_inversive(Q)
    x = Q.scalar_from_json("7/3")
    assert Q.sigma(x) == x


def test_reducible_defining_polynomial_names_a_factor():
    with pytest.raises(FieldError) as err:
        GaloisField(2, [1, 0, 1])  # (x+1)^2
    assert "factor" in str(err.value)


def test_reducible_split_polynomial_names_a_factor():
    with pytest.raises(FieldError):
        GaloisField(5, [4, 0, 1])  # x^2 - 4 = (x-2)(x+2)


def test_constant_sigma_t_rejected():
    with pytest.raises(FieldError):
        FunctionField(Q, [3], [1])


def test_frobenius_descriptor_validation():
    with pytest.raises(FieldError):
        FrobeniusDescriptor(4, 1)
    with pytest.raises(FieldError):
        FrobeniusDescriptor(5, -1)
    assert FrobeniusDescriptor(5, 0).m == 0


def test_primality_test_is_exact_below_its_bound():
    limit = 20000
    sieve = [False, False] + [True] * (limit - 2)
    for d in range(2, int(limit ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(sieve[d * d::d])
    assert [n for n in range(limit) if _is_prime(n)] == [
        n for n in range(limit) if sieve[n]]
    # strong pseudoprime to the bases 2, 3, 5 and 7: 151 * 751 * 28351
    assert not _is_prime(3215031751)
    assert _is_prime(10 ** 18 + 3) and FrobeniusDescriptor(10 ** 18 + 3, 1).p
    # the bound is the least composite that passes all thirteen bases
    assert _is_prime(PRIME_BOUND) and PRIME_BOUND == 1287836182261 * 2575672364521
    with pytest.raises(FieldError):
        FrobeniusDescriptor(PRIME_BOUND, 1)


# -- sigma is a ring endomorphism ----------------------------------------------


@pytest.mark.parametrize("field_index", range(6))
def test_sigma_ring_laws_on_samples(field_index):
    F = all_fields()[field_index]
    rng = random.Random(100 + field_index)
    for _ in range(25):
        a = F.sample(rng)
        b = F.sample(rng)
        assert F.eq(F.sigma(F.add(a, b)), F.add(F.sigma(a), F.sigma(b)))
        assert F.eq(F.sigma(F.mul(a, b)), F.mul(F.sigma(a), F.sigma(b)))
    assert F.eq(F.sigma(F.one()), F.one())


@given(st.fractions(), st.fractions())
def test_rationals_sigma_additive(a, b):
    assert Q.sigma(a + b) == Q.sigma(a) + Q.sigma(b)


@given(st.integers(), st.integers())
def test_prime_field_canon_idempotent(a, b):
    F7 = PrimeField(7)
    x = F7.canon(a * b)
    assert F7.canon(x) == x


def test_canonicalization_idempotent_everywhere():
    rng = random.Random(7)
    for F in all_fields():
        for _ in range(15):
            x = F.sample(rng)
            assert F.eq(F.canon(x), x)


def test_sigma_apply_rejects_non_canonical():
    F5 = PrimeField(5)
    with pytest.raises(AssertionError):
        sigma_apply(F5, 12)
    assert sigma_apply(F5, 2) == 2


# -- worked sigma examples -------------------------------------------------------


def test_f9_sigma_of_alpha_is_minus_alpha():
    al = F9.generator()
    assert F9.sigma(al) == F9.neg(al)


def test_function_field_substitution():
    t = QT_SQUARE.t()
    one = QT_SQUARE.one()
    x = QT_SQUARE.div(QT_SQUARE.add(t, one), t)         # (t+1)/t
    t2 = QT_SQUARE.mul(t, t)
    expected = QT_SQUARE.div(QT_SQUARE.add(t2, one), t2)
    assert QT_SQUARE.eq(QT_SQUARE.sigma(x), expected)


def test_shift_field_index_shift():
    t0, t1, t2 = S5.t(0), S5.t(1), S5.t(2)
    assert S5.eq(S5.sigma(S5.mul(t0, t1)), S5.mul(t1, t2))


# -- log/antilog tables against the polynomial arithmetic -------------------------

# (p, defpoly): every pair in the first six, seeded pairs in the rest.  x is
# not primitive modulo x^2 + 1 over F_3, x^4 + x + 4 over F_5 or
# x^12 + x^3 + 1 over F_2; 5^6 is above the table cap.
SMALL_FIELDS = [(2, [1, 1, 1]), (2, [1, 1, 0, 1]), (3, [1, 0, 1]),
                (2, [1, 1, 0, 0, 1]), (5, [2, 1, 1]), (3, [1, 2, 0, 1])]
LARGE_FIELDS = [(5, [4, 1, 0, 0, 1]), (3, [2, 1, 0, 0, 0, 0, 1]),
                (2, [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1]),
                (5, [2, 1, 0, 0, 0, 0, 1])]


def _oracle(F):
    """Product and Frobenius power computed with _polycore over F_p."""
    fp, f = PrimeField(F.p), list(F.defpoly)

    def lift(c):
        return tuple(c) + (0,) * (F.degree - len(c))

    def mul(a, b):
        return lift(pc.mod(fp, pc.mul(fp, pc.trim(fp, list(a)), pc.trim(fp, list(b))), f))

    def frobenius(a, m):
        return lift(pc.pow_mod(fp, pc.trim(fp, list(a)), F.p ** m, f))

    return mul, frobenius


def _check_elements(F, elems, pairs):
    mul, frobenius = _oracle(F)
    for a, b in pairs:
        assert F.mul(a, b) == mul(a, b)
    for a in elems:
        if not F.is_zero(a):
            assert F.mul(a, F.inv(a)) == F.one()
    for m in (1, 2):
        G = GaloisField(F.p, F.defpoly, m)
        for a in elems:
            assert G.sigma(a) == frobenius(a, m % F.degree)
            assert G.sigma_inverse(a) == frobenius(a, -m % F.degree)
            assert G.sigma_inverse(G.sigma(a)) == a


def _sampled_elements(F, rng):
    """Elements from every public constructor, zero and one included."""
    elems = [F.zero(), F.one(), F.generator()]
    elems += [F.from_int(rng.randrange(-50, 50)) for _ in range(10)]
    elems += [F.scalar_from_json([rng.randrange(F.p) for _ in range(F.degree)])
              for _ in range(10)]
    elems += [F.scalar_from_json(str([rng.randrange(F.p) for _ in range(F.degree)]))
              for _ in range(10)]
    elems += [F.canon([rng.randrange(-99, 99) for _ in range(F.degree)])
              for _ in range(10)]
    elems += [F.sample(rng) for _ in range(60)]
    return elems


@pytest.mark.parametrize("p, defpoly", SMALL_FIELDS,
                         ids=[f"F{p ** (len(d) - 1)}" for p, d in SMALL_FIELDS])
def test_tables_agree_with_polynomial_arithmetic_on_every_pair(p, defpoly):
    F = GaloisField(p, defpoly)
    elems = list(F.all_elements())
    assert len(set(elems)) == F.order
    _check_elements(F, elems, [(a, b) for a in elems for b in elems])


@pytest.mark.parametrize("p, defpoly", LARGE_FIELDS,
                         ids=[f"F{p ** (len(d) - 1)}" for p, d in LARGE_FIELDS])
def test_tables_agree_with_polynomial_arithmetic_on_seeded_pairs(p, defpoly):
    F = GaloisField(p, defpoly)
    rng = random.Random(p * 1000 + len(defpoly))
    elems = _sampled_elements(F, rng)
    pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(1000)]
    pairs += [(F.sample(rng), F.sample(rng)) for _ in range(1000)]
    _check_elements(F, elems, pairs)


def test_tables_are_shared_across_frobenius_powers_and_capped():
    p, defpoly = SMALL_FIELDS[3]
    F1, F3 = GaloisField(p, defpoly, 1), GaloisField(p, defpoly, 3)
    assert F1._exp is F3._exp and F1._log is F3._log and F1._zech is F3._zech
    assert len(F1._log) == F1.order - 1     # the table element is primitive
    assert F3.sigma(F1.generator()) == F1.pow(F1.generator(), 8)
    big = GaloisField(*LARGE_FIELDS[-1])
    assert big.order > TABLE_MAX_ORDER and big._exp is None and big._zech is None


# every table field of order below 100: F_4, F_8, F_9, F_16, F_25, F_27, F_81
ZECH_FIELDS = SMALL_FIELDS + [(3, [2, 0, 0, 2, 1])]


@pytest.mark.parametrize("p, defpoly", ZECH_FIELDS,
                         ids=[f"F{p ** (len(d) - 1)}" for p, d in ZECH_FIELDS])
def test_zech_addition_equals_the_coordinate_formulas_on_every_pair(p, defpoly):
    F = GaloisField(p, defpoly)
    assert F._zech is not None
    elems = list(F.all_elements())
    for a in elems:
        assert F.neg(a) == tuple((-x) % p for x in a)
        for b in elems:
            assert F.add(a, b) == tuple((x + y) % p for x, y in zip(a, b))
            assert F.sub(a, b) == tuple((x - y) % p for x, y in zip(a, b))


@pytest.mark.parametrize("p, defpoly", ZECH_FIELDS,
                         ids=[f"F{p ** (len(d) - 1)}" for p, d in ZECH_FIELDS])
def test_zech_table_is_the_log_of_one_plus_each_power(p, defpoly):
    F = GaloisField(p, defpoly)
    for i, z in enumerate(F._zech):
        s = tuple((x + y) % p for x, y in zip(F.one(), F._exp[i]))
        assert z == (None if F.is_zero(s) else F._log[s])
    # 1 + g^i = 0 exactly at -1 = g^((q-1)/2) in odd characteristic, at 1 in even
    assert [i for i, z in enumerate(F._zech) if z is None] == \
        [0 if p == 2 else (F.order - 1) // 2]


# -- F_q kernels against the generic loops and F_p oracles, and identities ---------

# The Zech-log kernels (row_sub, bilinear, poly_divmod) are checked against
# the generic loops, and the kernels that are those loops against sums of
# products computed over F_p.  F_625, F_729 and F_4096 have tables.  Above
# the cap every kernel is a generic loop, over a coordinate-list mul and
# _polycore's invmod: F_15625, F_2^13 and F_3^8 give each of p = 5, 2, 3 a
# field there, and F_p^3 for p = 2^61 - 1 one whose coordinate products pass
# 64 bits.  There the loops are also checked by identities that hold
# whatever computes them.
ABOVE_CAP_FIELDS = [(2, [1, 1, 0, 1, 1] + [0] * 8 + [1]), (3, [2, 0, 1] + [0] * 5 + [1]),
                    (2 ** 61 - 1, [2, 2, 0, 1])]
KERNEL_FIELDS = ZECH_FIELDS + LARGE_FIELDS + ABOVE_CAP_FIELDS


def _field_id(p, defpoly):
    n = len(defpoly) - 1
    return f"F{p ** n}" if p ** n < 10 ** 6 else f"F{p}^{n}"


def _seeded_poly(F, rng, top):
    f = [F.zero() if rng.random() < 0.3 else F.sample(rng) for _ in range(rng.randint(0, top))]
    return pc.trim(F, f)


def _coordinate_kernels(F):
    """dot(u, v) and poly_mul(f, g) over F from _oracle(F)'s product, with
    sums taken coordinate by coordinate mod p; mul is that product."""
    mul, p = _oracle(F)[0], F.p

    def add(x, y):
        return tuple((s + t) % p for s, t in zip(x, y))

    def dot(u, v):
        return functools.reduce(add, map(mul, u, v), F.zero())

    def poly_mul(f, g):
        out = [F.zero()] * (len(f) + len(g) - 1 if f and g else 0)
        for i, a in enumerate(f):
            for j, b in enumerate(g, i):
                out[j] = add(out[j], mul(a, b))
        while out and not any(out[-1]):
            out.pop()
        return out

    return mul, dot, poly_mul


def _check_poly_identities(F, f, g, points):
    """(f g)(a) = f(a) g(a) at each point a, and f = q g + r with
    deg r < deg g for (q, r) = F.poly_divmod(f, g) if g is nonzero."""
    h = F.poly_mul(f, g)
    for a in points:
        assert pc.evaluate(F, h, a) == F.mul(pc.evaluate(F, f, a), pc.evaluate(F, g, a))
    if g:
        q, r = F.poly_divmod(f, g)
        assert pc.deg(r) < pc.deg(g)
        assert pc.add(F, F.poly_mul(q, g), r) == f


@pytest.mark.parametrize("p, defpoly", KERNEL_FIELDS,
                         ids=[_field_id(p, d) for p, d in KERNEL_FIELDS])
def test_galois_kernels_equal_the_generic_loops(p, defpoly):
    F, G = GaloisField(p, defpoly), DifferenceField
    rng = random.Random(7000 + p * len(defpoly))
    a, b = F.sample(rng), F.sample(rng)
    while F.is_zero(a) or F.is_zero(b):
        a, b = F.sample(rng), F.sample(rng)
    # products against _polycore over F_p; inverses too where the Zech
    # tables compute them, and above the cap, where F.inv is _polycore's
    # invmod, by x inv(x) = 1 under the fold-rows mul; dot, row_scale, kron
    # and poly_mul, the generic loops over F's scalars, against coordinate
    # sums of those products
    (mul, dot, poly_mul), fp = _coordinate_kernels(F), F.prime
    elems = [F.zero(), F.one(), F.generator(), a, b] + [F.sample(rng) for _ in range(40)]
    for x in elems:
        assert [F.mul(x, y) for y in elems[:9]] == [mul(x, y) for y in elems[:9]]
        if F.is_zero(x):
            continue
        if F.order > TABLE_MAX_ORDER:
            assert F.mul(x, F.inv(x)) == F.one()
        else:
            inverse = pc.invmod(fp, pc.trim(fp, list(x)), list(F.defpoly))
            assert F.inv(x) == tuple(inverse) + (0,) * (F.degree - len(inverse))
    vectors = _seeded_vectors(F, rng) + [[], [F.zero()] * 5]
    for v in vectors:
        row = [F.zero() if rng.random() < 0.3 else F.sample(rng) for _ in v]
        for c in (F.sample(rng), F.zero(), F.one()):
            assert F.dot(v, row) == dot(v, row)
            assert F.row_sub(v, c, row) == G.row_sub(F, v, c, row)
            assert F.row_scale(c, v) == [mul(c, x) for x in v]
        assert F.kron(v, row) == [mul(x, y) for x in v for y in row]
        assert F.row_sub(v, a, v) == G.row_sub(F, v, a, v)
        assert F.row_sub(row, F.one(), row) == [F.zero()] * len(row)    # cancels
    # a b + a (-b) = 0
    assert F.dot([a, a], [b, F.neg(b)]) == dot([a, a], [b, F.neg(b)]) == F.zero()
    # structure constants with zeros, each side on the table it builds
    n, z = 4, F.zero()
    mul = [[[F.sample(rng) if rng.random() < 0.4 else z for _ in range(n)]
            for _ in range(n)] for _ in range(n)]
    for u, v in zip(vectors, vectors[1:]):
        u, v = (u + [z] * n)[:n], (v + [z] * n)[:n]
        assert F.bilinear(u, v, F.bilinear_table(mul)) == \
            G.bilinear(F, u, v, G.bilinear_table(F, mul))
    cancel = [[[z, a], [z, z]], [[z, z], [z, F.neg(a)]]]     # e_0^2 = a e_1, e_1^2 = -a e_1
    one = [F.one(), F.one()]
    assert F.bilinear(one, one, F.bilinear_table(cancel)) == [z, z] == \
        G.bilinear(F, one, one, G.bilinear_table(F, cancel))
    # polynomials, empty and constant ones included
    polys = [_seeded_poly(F, rng, 7) for _ in range(30)] + [[], [a], [F.zero(), a]]
    points = [F.zero(), a, F.sample(rng)]
    for f in polys:
        for g in polys:
            assert F.poly_mul(f, g) == poly_mul(f, g)
            if g:
                assert F.poly_divmod(f, g) == G.poly_divmod(F, f, g)
            _check_poly_identities(F, f, g, points)
    # long operands with every coordinate p - 1, the largest integer
    # products a coordinate-list mul sums before it reduces mod p
    top = (p - 1,) * F.degree
    for lf, lg in ((24, 1), (24, 12), (12, 24), (30, 9), (30, 2)):
        f, g = [top] * lf, [top] * lg
        for h in (g, [F.sample(rng) for _ in range(lg - 1)] + [top]):
            assert F.poly_mul(f, h) == poly_mul(f, h)
            assert F.poly_divmod(f, h) == G.poly_divmod(F, f, h)
            _check_poly_identities(F, f, h, points)
    # quotient coefficients (1, ..., 1) over a divisor head of all p - 1:
    # the division gives back the quotient and a zero remainder
    ones = (1,) * F.degree
    for lq, lg in ((20, 12), (12, 20), (25, 3)):
        q, g = [ones] * lq, [top] * (lg - 1) + [F.one()]
        assert F.poly_divmod(poly_mul(q, g), g) == (q, [])
    # (x + a)(x - a) = x^2 - a^2: the middle coefficient cancels
    plus, minus = [a, F.one()], [F.neg(a), F.one()]
    assert F.poly_mul(plus, minus) == poly_mul(plus, minus) \
        == [F.neg(F.mul(a, a)), F.zero(), F.one()]
    assert F.poly_divmod(F.poly_mul(plus, minus), minus) == ([a, F.one()], [])
    with pytest.raises(ZeroDivisionError):
        F.poly_divmod([a], [])


@pytest.mark.parametrize("p", [2, 5, 7])
def test_prime_polynomial_kernels_equal_the_generic_loops(p):
    k, rng = PrimeField(p), random.Random(1900 + p)

    def convolution(f, g):
        """f g by a plain int convolution mod p, trailing zeros dropped."""
        out = [0] * (len(f) + len(g) - 1 if f and g else 0)
        for i, a in enumerate(f):
            for j, b in enumerate(g, i):
                out[j] = (out[j] + a * b) % p
        while out and not out[-1]:
            out.pop()
        return out

    polys = [_seeded_poly(k, rng, 9) for _ in range(40)] + [[], [1], [0, 1]]
    for f in polys:
        for g in polys:
            assert k.poly_mul(f, g) == convolution(f, g)
            if not g:
                continue
            # canonical q and r with f = q g + r and deg r < deg g are unique
            q, r = k.poly_divmod(f, g)
            assert all(c == pc.trim(k, [x % p for x in c]) for c in (q, r))
            assert len(r) < len(g)
            assert pc.add(k, convolution(q, g), r) == f     # f = q g + r
    with pytest.raises(ZeroDivisionError):
        k.poly_divmod([1], [])


# -- the log table as the irreducibility certificate ---------------------------------


@pytest.mark.parametrize("p, defpoly", [
    (3, [1, 0, 0, 0, 1]),            # x^4 + 1 = (x^2 + x + 2)(x^2 + 2x + 2)
    (2, [1, 0, 0, 0, 1, 1]),         # (x^2 + x + 1)(x^3 + x + 1)
    (3, [1, 0, 2, 0, 1]),            # (x^2 + 1)^2
    (5, [1, 2, 1, 2, 2, 0, 1]),      # (x^3 + x + 1)^2, above the table cap
], ids=["x4+1-F3", "2x3-F2", "square-F3", "square-F5-large"])
def test_reducible_defpoly_without_roots_names_a_factor(p, defpoly):
    fp = PrimeField(p)
    assert all(pc.evaluate(fp, defpoly, x) for x in range(p))     # no root
    if p ** (len(defpoly) - 1) <= TABLE_MAX_ORDER:
        assert _log_tables(p, tuple(defpoly)) is None
    with pytest.raises(FieldError) as err:
        GaloisField(p, defpoly)
    factor = ast.literal_eval(str(err.value).split("nontrivial factor ")[1])
    assert 0 < pc.deg(factor) < len(defpoly) - 1
    assert pc.mod(fp, defpoly, factor) == []


def test_tables_exist_exactly_for_irreducible_defpolys():
    # every monic defpoly of table size up to F_125; the Rabin test is the
    # oracle.  x^2 over F_2 is why g^(q-1) = 1 is checked: the powers 1, x, 0
    # of x are distinct, but x^3 = 0.
    for p, degrees in ((2, range(2, 7)), (3, range(2, 5)), (5, range(2, 4))):
        fp = PrimeField(p)
        for n in degrees:
            for k in range(p ** n):
                f = [k // p ** i % p for i in range(n)] + [1]
                irreducible = pc.is_irreducible(fp, f, p)
                assert (_log_tables(p, tuple(f)) is not None) == irreducible, f
                if not irreducible:
                    with pytest.raises(FieldError, match="nontrivial factor"):
                        GaloisField(p, f)


def test_table_fields_run_no_rabin_test(monkeypatch):
    calls = []
    monkeypatch.setattr(pc, "is_irreducible", lambda *a: calls.append(a) or True)
    _log_tables.cache_clear()
    # built once with fresh tables, then again from the cached ones
    for p, defpoly in ZECH_FIELDS + LARGE_FIELDS[:3]:
        for m in (1, 2):
            assert GaloisField(p, defpoly, m)._log is not None
    assert calls == []
    # above the cap the Rabin test is the certificate
    assert GaloisField(*LARGE_FIELDS[-1])._log is None and len(calls) == 1


# -- inversivity ------------------------------------------------------------------


def test_finite_fields_inversive_and_bijective():
    for F in (PrimeField(5), F4, F9):
        assert is_inversive(F)
        elems = list(F.all_elements()) if hasattr(F, "all_elements") else list(range(F.p))
        images = [F.sigma(x) for x in elems]
        as_set = {repr(F.scalar_to_json(x)) for x in images}
        assert len(as_set) == len(elems)


def test_finite_field_orbits_are_finite():
    rng = random.Random(3)
    for F in (F4, F9, GaloisField(2, [1, 1, 0, 0, 1])):
        for _ in range(10):
            x = F.sample(rng)
            seen = [x]
            cur = x
            for _ in range(2 * F.order):
                cur = F.sigma(cur)
                if any(F.eq(cur, s) for s in seen):
                    break
                seen.append(cur)
            else:
                raise AssertionError("orbit did not close")


def test_expanding_function_field_not_inversive():
    # sigma doubles numerator and denominator degrees, so t has no preimage
    assert not is_inversive(QT_SQUARE)
    rng = random.Random(5)
    for _ in range(20):
        f = QT_SQUARE.sample(rng)
        img = QT_SQUARE.sigma(f)
        num, den = img
        for coeffs in (num, den):
            for i, c in enumerate(coeffs):
                if i % 2 == 1:
                    assert QT_SQUARE.base.is_zero(c) or len(coeffs) != i + 1
        # degrees of the image are even: t (odd degree over even) is missed
        assert (len(num) - 1) % 2 == 0 or all(Q.is_zero(c) for c in num)


def test_moebius_function_field_inversive():
    assert is_inversive(FunctionField(Q, [1, 1], [1]))           # t -> t+1
    assert is_inversive(FunctionField(Q, [1], [0, 1]))           # t -> 1/t


def test_shift_field_not_inversive():
    assert not is_inversive(S5)


# -- shift field specifics ----------------------------------------------------------


def test_shift_field_horizon_grows_monotonically():
    S = ShiftField(PrimeField(5))
    start = S.horizon
    x = S.t(3)
    assert S.horizon >= 3 >= start
    S.sigma(x)
    assert S.horizon >= 4


def test_shift_field_min_index_enforced():
    S = ShiftField(PrimeField(5), min_index=0)
    with pytest.raises(FieldError):
        S.t(-1)
    deep = ShiftField(PrimeField(5), min_index=-2)
    tm2 = deep.t(-2)
    assert deep.eq(deep.sigma(tm2), deep.t(-1))


def test_shift_fraction_normalization_unique():
    S = ShiftField(PrimeField(5))
    t0, t1 = S.t(0), S.t(1)
    a = S.div(S.mul(t0, t1), t0)
    assert S.eq(a, t1)
    b = S.div(S.add(S.mul(t0, t0), S.neg(S.mul(t1, t1))),
              S.add(t0, S.neg(t1)))
    assert S.eq(b, S.add(t0, t1))


# -- descriptors and serialization ------------------------------------------------------


def test_descriptor_round_trips():
    for F in all_fields():
        blob = json.dumps(F.descriptor())
        again = field_make(json.loads(blob))
        assert again == F


def test_scalar_round_trips():
    rng = random.Random(11)
    for F in all_fields():
        for _ in range(10):
            x = F.sample(rng)
            blob = json.dumps(F.scalar_to_json(x))
            assert F.eq(F.scalar_from_json(json.loads(blob)), x)


def test_field_make_prime_shorthand():
    F = field_make({"kind": "Fq", "p": 7})
    assert isinstance(F, PrimeField) and F.p == 7


def test_field_make_unknown_kind():
    with pytest.raises(FieldError):
        field_make({"kind": "padic"})


def test_shift_scalar_decode_is_canonical():
    # zero coefficients, zero exponents and repeated monomials sum away
    S = ShiftField(PrimeField(5))
    assert S.scalar_from_json({"num": [[[], "0"]], "den": [[[], "1"]]}) == S.zero()
    assert S.scalar_from_json({"num": [[[[3, 1]], "0"], [[], "2"]],
                               "den": [[[], "1"]]}) == S.from_int(2)
    assert S.scalar_from_json({"num": [[[[0, 1], [0, 0]], "2"], [[[0, 1]], "3"]],
                               "den": [[[], "1"]]}) == S.zero()
    assert S.scalar_from_json({"num": [[[[0, 1], [0, 1]], "1"]],
                               "den": [[[], "1"]]}) == S.mul(S.t(0), S.t(0))
    assert S.horizon == 0


# -- the vector protocol ------------------------------------------------------------


class PerScalarPrimeField(PrimeField):
    """F_p with the generic, one-scalar-at-a-time vector protocol."""

    vec_from_json = DifferenceField.vec_from_json
    dot = DifferenceField.dot
    row_sub = DifferenceField.row_sub
    row_scale = DifferenceField.row_scale
    kron = DifferenceField.kron
    vec_to_json = DifferenceField.vec_to_json


def _seeded_vectors(k, rng, count=40):
    # about a third of the entries zero, lengths 0..12
    return [[k.zero() if rng.random() < 0.35 else k.sample(rng)
             for _ in range(rng.randint(0, 12))]
            for _ in range(count)]


@pytest.mark.parametrize("p", [2, 5, 7])
def test_prime_vector_kernels_equal_the_generic_loops(p):
    k, slow, rng = PrimeField(p), PerScalarPrimeField(p), random.Random(900 + p)
    for v in _seeded_vectors(k, rng):
        row = [k.sample(rng) for _ in v]
        c = k.sample(rng)
        assert k.dot(v, row) == slow.dot(v, row)
        assert k.row_sub(v, c, row) == slow.row_sub(v, c, row)
        assert k.row_scale(c, v) == slow.row_scale(c, v)
        assert k.kron(v, row) == slow.kron(v, row) == [a * b % p for a in v for b in row]
        assert k.kron(row, v) == slow.kron(row, v)
        for cells in ([str(a) for a in v], list(v), [str(a) if a % 2 else a for a in v]):
            assert k.vec_from_json(cells) == slow.vec_from_json(cells) == v


def _same_outcome(fast, slow):
    """fast() returns what slow() returns, or raises the same exception type
    with the same text; the common value, or None."""
    try:
        want = slow()
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as err:
            fast()
        assert str(err.value) == str(exc)
        return None
    assert fast() == want
    return want


@pytest.mark.parametrize("p", [2, 3, 5, 7, DECODE_TABLE_MAX_P + 3])
def test_prime_vec_from_json_reduces_and_fails_like_scalar_decode(p):
    k, slow = PrimeField(p), PerScalarPrimeField(p)
    for cells in (["1", "7", "0"], ["-1", 3], [7, "0"], [-1], [True, False, 1.0],
                  [" 2", "3"], [str(p), p], [None, "1"], ["1", "x"], ["0", [1]],
                  ["0", 1.5], [], ["1"], ["0"] * 9 + [str(p)],
                  # one-character cells outside "0".."p-1", and what joins to them
                  [""], ["1", ""], ["", "1", "1"], ["", "11"], ["11", ""], ["1\x001"],
                  ["\x00"], ["1", "\x00"], ["\uff15"], ["1", "\uff15"], ["a"], ["9"],
                  [str(p - 1), str(p)], ["0", "-"], ["1 "], ["00", "01"],
                  # strings, ints and bools mixed
                  ["1", 1], [1, "1"], ["0", True], [False, "1"], ["1", None], ["1", "2", 0]):
        _same_outcome(lambda: k.vec_from_json(cells), lambda: slow.vec_from_json(cells))


@pytest.mark.parametrize("p", [5, 11, DECODE_TABLE_MAX_P + 3])
@pytest.mark.parametrize("cell, shown", [
    (True, "a boolean"), (False, "a boolean"), (1.0, "1.0"), (0.0, "0.0"), (None, "null"),
    ([1], "a list"), ({}, "an object"), ("1.5", "'1.5'"), ("x" * 40, "'" + "x" * 19 + "..."),
], ids=["true", "false", "1.0", "0.0", "null", "list", "object", "1.5", "long-string"])
def test_prime_decode_rejects_what_is_no_integer(p, cell, shown):
    # True, 1.0, False and 0.0 hash and compare like 1 and 0, and int()
    # takes a float or a boolean
    k, said = PrimeField(p), f"an element of F_{p} is an integer, as a JSON number or string"
    for cells in ([cell], ["0", cell], [cell, 1]):
        with pytest.raises(ValueError) as err:
            k.vec_from_json(cells)
        assert str(err.value) == f"{said}, not {shown}"
    assert k.vec_from_json(["0", 1, "-4", " 6"]) == [0, 1, (-4) % p, 6 % p]


@pytest.mark.parametrize("p", [2, 5])
def test_prime_vec_from_json_on_every_short_list_of_tricky_cells(p):
    # every list of up to three cells from strings that join into digits and
    # NULs in other ways than one digit per cell
    k, slow = PrimeField(p), PerScalarPrimeField(p)
    alphabet = ["", "0", "1", str(p), "11", "\x00", "1\x00", "\x001", "\x00\x00", 1]
    for n in range(4):
        for cells in itertools.product(alphabet, repeat=n):
            cells = list(cells)
            _same_outcome(lambda: k.vec_from_json(cells), lambda: slow.vec_from_json(cells))


def _mul_cell_doc(cell):
    # diag(1, 0) over F_5 with mul[1][1] replaced by the cell
    return {"base": {"kind": "Fq", "p": 5},
            "mul": [[["1", "0"], ["0", "0"]], [["0", "0"], cell]],
            "unit": ["1", "0"], "sigma": [["1", "0"], ["0", "1"]]}


@pytest.mark.parametrize("entry", ["7", "-1", 7, None, "x", [1], "1", 1])
def test_algebra_decode_equals_the_per_scalar_decode(entry):
    doc = _mul_cell_doc(["0", entry])

    def load(base=None):
        A = FinSigmaAlgebra.from_json(doc, base)
        return A.mul, A.unit, A.sigma

    got = _same_outcome(load, lambda: load(PerScalarPrimeField(5)))
    if got is not None:
        assert got[0][1][1] == [0, int(entry) % 5]


def _scalars(value, field, *shape, path="mul"):
    return Cursor(value, path).scalars(field, *shape)


def test_scalars_reports_a_bad_cell_in_a_later_row_for_the_whole_value():
    # row mul[0][0] holds a non-canonical "7", so the byte decode falls
    # through; the first bad cell is in mul[1][1]
    value = [[["7", "0"], ["0", "1"]], [["0", "0"], ["1", "x"]]]
    for k in (PrimeField(5), PerScalarPrimeField(5)):
        with pytest.raises(InputError) as err:
            _scalars(value, k, 2, 2, 2)
        assert err.value.path == "mul"
        assert str(err.value) == ("mul holds an invalid scalar for its base field (an "
                                  "element of F_5 is an integer, as a JSON number or "
                                  "string, not 'x')")


@pytest.mark.parametrize("row", ["01", ["0"], ["0", "1", "1"]])
def test_scalars_shape_error_names_the_row(row):
    # a string where a row belongs is a shape error, not a row of characters
    value = [[["1", "0"], row], [["0", "1"], ["1", "0"]]]
    with pytest.raises(InputError) as err:
        _scalars(value, PrimeField(5), 2, 2, 2)
    assert err.value.path == "mul[0][1]"
    assert str(err.value) == "mul[0][1] must be a JSON array of 2 entries"


@pytest.mark.parametrize("k", [PrimeField(5), PrimeField(DECODE_TABLE_MAX_P + 3), F9, Q])
def test_scalars_rows_are_new_distinct_lists(k):
    rng = random.Random(17)
    want = [[[k.sample(rng) for _ in range(3)] for _ in range(3)] for _ in range(2)]
    want[0][1] = list(want[0][0])
    want.append([[k.zero()] * 3 for _ in range(3)])        # equal rows, too
    value = json.loads(json.dumps([[[k.scalar_to_json(a) for a in row] for row in m]
                                   for m in want]))
    got = _scalars(value, k, 3, 3, 3)
    assert got == want
    rows = [row for m in got for row in m]
    assert len({id(r) for r in rows}) == len(rows) == 9
    assert len({id(m) for m in got}) == 3
    assert not {id(r) for r in rows} & {id(r) for m in value for r in m}


def test_scalars_loads_zero_length_and_ragged_shapes():
    k = PrimeField(3)
    assert _scalars([[], []], k, 2, 0) == [[], []]
    assert _scalars([], k, 0, 3) == []
    assert _scalars([], k, None) == []
    assert _scalars([[], ["1"], ["2", "4"]], k, 3, None) == [[], [1], [2, 1]]
    assert _scalars([[[]], [[], []]], k, None, None, 0) == [[[]], [[], []]]
    with pytest.raises(InputError) as err:
        _scalars([[], "1"], k, 2, None)
    assert err.value.path == "mul[1]"


# -- the per-kind contract ---------------------------------------------------------
#
# What each kind answers for itself: finiteness and degree, an F_p-basis,
# the constant field and specialization into it, the inversive closure and
# the names a tower expression may use for field elements.

MOEBIUS = FunctionField(PrimeField(5), [1, 1], [1])     # sigma(t) = t + 1
EXPANDING = FunctionField(PrimeField(5), [0, 0, 1], [1])  # sigma(t) = t^2
F_BIG = GaloisField(*LARGE_FIELDS[-1])
KINDS = {"Q": Q, "F5": PrimeField(5), "F9": F9, "F15625": F_BIG, "Qt-moebius": MOEBIUS,
         "Qt-expanding": EXPANDING, "shift": S5}


@pytest.mark.parametrize("name", KINDS)
def test_kind_finiteness_degree_and_prime_basis(name):
    F = KINDS[name]
    assert F.is_finite == (name in ("F5", "F9", "F15625"))
    if not F.is_finite:
        return
    n = {"F5": 1, "F9": 2, "F15625": 6}[name]
    assert F.degree == n and F.order == F.p ** n
    basis = F.power_basis()
    # the unit coordinate vectors: [1] on F_p, 1, x, ..., x^(n-1) on F_q
    assert basis == ([1] if n == 1 else [tuple(int(i == j) for j in range(n))
                                         for i in range(n)])
    assert [F.prime_coords(b) for b in basis] == [[int(i == j) for j in range(n)]
                                                  for i in range(n)]
    rng = random.Random(17)
    for _ in range(20):
        a = F.sample(rng)
        acc = F.zero()
        for c, b in zip(F.prime_coords(a), basis):
            acc = F.add(acc, F.mul(F.from_int(c), b))
        assert acc == a


@pytest.mark.parametrize("name", KINDS)
def test_kind_constants_and_specialization(name):
    F = KINDS[name]
    rng = random.Random(23)
    if name.startswith("Qt") or name == "shift":
        assert F.constants() == F.base
    else:
        assert F.constants() is F
        a = F.sample(rng)
        assert F.specialize(a, rng) == a
        return
    k0 = F.base
    if name == "shift":
        # t_2 / (t_0 + 1): one draw per variable, in increasing index
        a = F.div(F.t(2), F.add(F.t(0), F.one()))
        r = random.Random(4)
        v0, v2 = k0.sample(r), k0.sample(r)
        want = k0.div(v2, k0.add(v0, k0.one()))
    else:
        # (t^2 + 1) / (t + 2): one draw, the point
        t = F.t()
        a = F.div(F.add(F.mul(t, t), F.one()), F.add(t, F.from_int(2)))
        r = random.Random(4)
        v = k0.sample(r)
        want = k0.div(k0.add(k0.mul(v, v), k0.one()), k0.add(v, k0.from_int(2)))
    got = F.specialize(a, random.Random(4))
    F.constants().check_canonical(got)
    assert got == want


@pytest.mark.parametrize("name", KINDS)
def test_kind_inversive_closure(name):
    F = KINDS[name]
    if name == "Qt-expanding":
        assert F.inversive_closure(1) is None
    elif name == "shift":
        deep = F.inversive_closure(2)
        assert deep == ShiftField(F.base, F.min_index - 2)
        assert deep.sigma(deep.t(-2)) == deep.t(-1)
    else:
        assert F.inversive_closure(3) is F


@pytest.mark.parametrize("name", KINDS)
def test_kind_named_constants(name):
    F = KINDS[name]
    names = ["t", "x", "t0", "t3", "t_m", "t_x", "a0"]
    resolved = {s: F.named_constant(s) for s in names if F.named_constant(s) is not None}
    if name == "shift":
        assert resolved == {"t0": F.t(0), "t3": F.t(3)}
        assert F.inversive_closure(2).named_constant("t_m2") == F.inversive_closure(2).t(-2)
        with pytest.raises(FieldError, match="below the minimal index"):
            F.named_constant("t_m2")
    elif name.startswith("Qt"):
        assert resolved == {"t": F.t()}
    elif name in ("F9", "F15625"):
        assert resolved == {"x": F.generator()}
    else:
        assert resolved == {}


def test_shift_variable_index_decodes_only_a_bare_variable():
    S = ShiftField(PrimeField(5), min_index=-1)
    t = S.t
    assert [S.variable_index(t(j)) for j in (-1, 0, 4)] == [-1, 0, 4]
    for a in (S.one(), S.zero(), S.mul(t(1), t(1)), S.mul(t(1), t(2)),
              S.add(t(1), S.one()), S.mul(S.from_int(2), t(1)), S.div(t(1), t(0))):
        assert S.variable_index(a) is None


# -- whole-vector tests and sums ------------------------------------------------


@pytest.mark.parametrize("name", KINDS)
def test_vector_tests_and_sums_equal_the_per_entry_loops(name):
    F = KINDS[name]
    rng = random.Random(f"vector-tests-{name}")
    zero, one = F.zero(), F.one()
    vectors = [[], [zero] * 5, [zero, one], [one, zero, zero],
               [one, F.neg(one)]] + _seeded_vectors(F, rng, 20)
    for v in vectors:
        total = F.zero()
        for a in v:
            total = F.add(total, a)
        for impl in (type(F), DifferenceField):
            assert impl.vec_is_zero(F, v) == all(F.is_zero(a) for a in v)
            assert impl.vec_nonzero(F, v) == [(i, a) for i, a in enumerate(v)
                                              if not F.is_zero(a)]
            got = impl.vec_sum(F, v)
            F.check_canonical(got)
            assert got == total
            others = [list(v), tuple(v), [zero] * len(v), v[::-1]]
            if v:
                i = rng.randrange(len(v))
                others.append(v[:i] + [F.add(v[i], one)] + v[i + 1:])
            for u in others:
                assert impl.vec_eq(F, u, v) == all(F.eq(a, b) for a, b in zip(u, v))
                assert impl.vec_eq(F, v, u) == impl.vec_eq(F, u, v)


# -- whole-vector encode and the F_q decode -------------------------------------

# p = 4093 and 4099 on either side of DECODE_TABLE_MAX_P
ENCODE_FIELDS = dict(KINDS, F2=PrimeField(2), F4=F4, F4093=PrimeField(DECODE_TABLE_MAX_P - 3),
                     F4099=PrimeField(DECODE_TABLE_MAX_P + 3))


@pytest.mark.parametrize("name", ENCODE_FIELDS)
def test_vec_to_json_equals_the_per_scalar_encoding(name):
    F = ENCODE_FIELDS[name]
    rng = random.Random(f"encode-{name}")
    vectors = [[], [F.zero(), F.one(), F.from_int(-1)]] + _seeded_vectors(F, rng, 10)
    if F.is_finite and F.degree == 1:      # both ends of the string table
        vectors.append([0, 1, F.p - 2, F.p - 1])
    for v in vectors:
        got = F.vec_to_json(v)
        assert json.dumps(got) == json.dumps([F.scalar_to_json(a) for a in v])
        assert json.dumps(got) == json.dumps(DifferenceField.vec_to_json(F, v))


class PerScalarGaloisField(GaloisField):
    """F_q with the generic, one-cell-at-a-time decode."""

    vec_from_json = DifferenceField.vec_from_json


def _edge_cells(F):
    """Coordinate lists the whole-vector decode must take as they stand, and
    cells it must hand to the per-cell decode: strings, bools, floats, None,
    short and long lists, coordinates out of range."""
    n, p = F.degree, F.p
    ok = [[i % p] + [0] * (n - 1) for i in range(3)] + [[p - 1] * n]
    bad = [str(ok[1]), ",".join(map(str, ok[1])), "", None, 5, [], [0] * (n - 1),
           [0] * (n + 1), (0,) * n, ["1"] + [0] * (n - 1)]
    bad += [[x] + [0] * (n - 1) for x in (True, False, 1.0, p, -1, None, 2 ** 70)]
    return ok, bad


@pytest.mark.parametrize("p, defpoly", [(2, [1, 1, 1]), (3, [1, 0, 1]), (5, [2, 1, 1]),
                                        (2, [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1]),
                                        LARGE_FIELDS[-1]],
                         ids=["F4", "F9", "F25", "F4096", "F15625"])
def test_galois_vec_from_json_equals_the_per_cell_decode(p, defpoly):
    F, slow = GaloisField(p, defpoly), PerScalarGaloisField(p, defpoly)
    ok, bad = _edge_cells(F)
    assert F.vec_from_json([]) == []
    got = F.vec_from_json(ok)
    assert got == slow.vec_from_json(ok) and all(type(a) is tuple for a in got)
    # repr, so a bool kept where the per-cell decode gives an int differs
    for cell in bad:
        for cells in ([cell], ok + [cell], [cell] + ok):
            _same_outcome(lambda: repr(F.vec_from_json(cells)),
                          lambda: repr(slow.vec_from_json(cells)))
    # through the loader: the same rows, or the same error and path
    for cell in [ok[2]] + bad:
        value = [[ok[0], ok[1]], [ok[1], cell]]
        _same_outcome(lambda: repr(_scalars(value, F, 2, 2)),
                      lambda: repr(_scalars(value, slow, 2, 2)))
