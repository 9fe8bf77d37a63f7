"""Differential test of finite-field factorization and gcd against sympy.

Seeded polynomials over F_2, F_3, F_5 and F_7, built as products of random
pieces raised to multiplicities that include p and 2p and of polynomials in
x^p, must factor as sympy's gf_factor factors them, and poly_gcd must return
gf_gcd's monic gcd on pairs that share such products.  Rabin's test in
_polycore must call every small monic polynomial irreducible exactly when
sympy does.
"""

import itertools
import random

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.galoistools import gf_factor, gf_gcd  # noqa: E402

from diffalg import _polycore as pc  # noqa: E402
from diffalg.exactfield import PrimeField  # noqa: E402
from diffalg.poly import Poly, factor_over_finite_field, poly_gcd  # noqa: E402

PRIMES = (2, 3, 5, 7)
CASES = 40


def _random_piece(k, rng, max_deg):
    """A random nonconstant polynomial, sometimes one in x^p."""
    deg = rng.randint(1, max_deg)
    coeffs = [k.sample(rng) for _ in range(deg)] + [k.from_int(rng.randrange(1, k.p))]
    if rng.random() < 0.25:
        spread = [k.zero()] * (k.p * deg + 1)
        spread[::k.p] = coeffs
        coeffs = spread
    return Poly.make(k, coeffs)


def _random_product(k, rng, budget=36):
    """A random unit times up to three pieces, each to a multiplicity among
    1, 2, 3, p and 2p that keeps the degree within the budget."""
    f = Poly.make(k, [k.from_int(rng.randrange(1, k.p))])
    for _ in range(rng.randint(1, 3)):
        piece = _random_piece(k, rng, 3)
        mults = [m for m in (1, 2, 3, k.p, 2 * k.p)
                 if f.degree() + m * piece.degree() <= budget]
        for _ in range(rng.choice(mults) if mults else 0):
            f = f * piece
    return f


def _to_sympy(f):
    return [int(c) for c in reversed(f.coeffs)]


def _from_sympy(k, cs):
    return tuple(k.from_int(c) for c in reversed(cs))


@pytest.mark.parametrize("p", PRIMES)
def test_factorization_agrees_with_gf_factor(p):
    k, rng = PrimeField(p), random.Random(4100 + p)
    for _ in range(CASES):
        f = _random_product(k, rng)
        got = factor_over_finite_field(f)
        unit, factors = gf_factor(_to_sympy(f), p, ZZ)
        assert got.unit == unit
        assert sorted((g.coeffs, m) for g, m in got.factors) == \
            sorted((_from_sympy(k, g), m) for g, m in factors)


@pytest.mark.parametrize("p", PRIMES)
def test_factorization_cases_include_repeated_factors_and_pth_powers(p):
    # guards the generator above: without these shapes the comparison
    # would not reach the squarefree and p-th root branches
    k, rng = PrimeField(p), random.Random(4100 + p)
    mults = [m for _ in range(CASES)
             for _, m in factor_over_finite_field(_random_product(k, rng)).factors]
    assert any(m > 1 and m % p for m in mults)
    assert any(m % p == 0 for m in mults)


@pytest.mark.parametrize("p", PRIMES)
def test_gcd_agrees_with_gf_gcd(p):
    k, rng = PrimeField(p), random.Random(4200 + p)
    for _ in range(CASES):
        shared = _random_product(k, rng)
        f = shared * _random_product(k, rng)
        g = shared * _random_product(k, rng)
        want = _from_sympy(k, gf_gcd(_to_sympy(f), _to_sympy(g), p, ZZ))
        assert poly_gcd(f, g).coeffs == want
        assert poly_gcd(f, Poly.zero(k)).coeffs == \
            _from_sympy(k, gf_gcd(_to_sympy(f), [], p, ZZ))


# p -> the largest degree: every monic polynomial of degree 1 to it over F_p,
# 62 + 120 + 155 = 337 of them
RABIN_DEGREES = {2: 5, 3: 4, 5: 3}


def test_rabin_test_agrees_with_sympy_on_every_small_monic():
    count = 0
    for p, top in RABIN_DEGREES.items():
        k = PrimeField(p)
        for n in range(1, top + 1):
            for tail in itertools.product(range(p), repeat=n):
                f = list(tail) + [1]
                want = sympy.Poly(f[::-1], sympy.Symbol("x"), modulus=p).is_irreducible
                assert pc.is_irreducible(k, f, p) == want, (p, f)
                count += 1
    assert count == 337
