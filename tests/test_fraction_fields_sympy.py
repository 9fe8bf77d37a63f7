"""Differential test of the rational-function fields against sympy.

Every add, mul, inv and sigma of seeded FunctionField and ShiftField
elements must equal sympy's `cancel` of the same rational function, scaled
so that the denominator's leading coefficient is one.
"""

from fractions import Fraction
import random

import pytest

sympy = pytest.importorskip("sympy")

from diffalg import _polycore as pc  # noqa: E402
from diffalg._multipoly import mono_key  # noqa: E402
from diffalg.exactfield import (FunctionField, PrimeField, Rationals,  # noqa: E402
                                ShiftField)

T = sympy.symbols("t0:4")     # samples use t_0..t_2 and sigma reaches t_3
SAMPLES = 30

FIELDS = {
    "Q(t), t -> (t^2+1)/(t-2)": FunctionField(Rationals(), [1, 0, 1], [-2, 1]),
    "F5(t), t -> t^2": FunctionField(PrimeField(5), [0, 0, 1], [1]),
    "F5(t), t -> (2t+1)/(t+1)": FunctionField(PrimeField(5), [1, 2], [1, 1]),
    "F5(t_i : i >= 0), shift": ShiftField(PrimeField(5)),
}


def _options(F):
    p = F.characteristic()
    return {"modulus": p} if p else {"domain": "QQ"}


def _gens(F):
    return T[:1] if isinstance(F, FunctionField) else T


def _scalar(c):
    if isinstance(c, Fraction):
        return sympy.Rational(c.numerator, c.denominator)
    return sympy.Integer(c)


def _as_polys(F, a):
    """An element's (num, den) as sympy Polys over Q or F_p."""
    if isinstance(F, FunctionField):
        return tuple(sympy.Poly([_scalar(c) for c in reversed(f)] or [0], *_gens(F),
                                **_options(F)) for f in a)
    return tuple(sympy.Poly.from_dict(
        {tuple(dict(m).get(v, 0) for v in range(len(T))): _scalar(c) for m, c in f.items()}
        or {(0,) * len(T): 0}, *_gens(F), **_options(F)) for f in a)


# Rational functions as uncancelled (num, den) pairs of sympy Polys.
def _add(x, y):
    return x[0] * y[1] + y[0] * x[1], x[1] * y[1]


def _mul(x, y):
    return x[0] * y[0], x[1] * y[1]


def _inv(x):
    return x[1], x[0]


def _sigma(F, x):
    # the base endomorphisms here (identity on Q, x -> x^5 on F_5) fix every
    # coefficient, so sigma only substitutes for the variables
    if isinstance(F, FunctionField):
        g = _as_polys(F, (F.sigma_num, F.sigma_den))
        one = g[0].one

        def at_g(f):        # f(g) by Horner's rule
            acc = (f.zero, one)
            for c in f.all_coeffs():
                acc = _add(_mul(acc, g), (one * c, one))
            return acc

        return _mul(at_g(x[0]), _inv(at_g(x[1])))
    return tuple(sympy.Poly.from_dict({(0,) + exps[:-1]: c for exps, c in f.as_dict().items()},
                                      *_gens(F), **_options(F)) for f in x)


def _leading_coefficient(F, poly):
    if isinstance(F, FunctionField):
        return poly.LC()
    # the shift field's graded order, as _multipoly.mono_key ranks monomials
    terms = {tuple((v, e) for v, e in enumerate(exps) if e): c
             for exps, c in poly.as_dict().items()}
    return terms[max(terms, key=mono_key)]


def _cancelled(F, x):
    """sympy's cancel of x, scaled so the denominator's leading coefficient is one."""
    num, den = x[0].cancel(x[1], include=True)
    lc = _leading_coefficient(F, den)
    return num.exquo_ground(lc), den.exquo_ground(lc)


def _operand(F, rng):
    """A quotient of two samples, so both parts are usually nonconstant."""
    a, b = F.sample(rng), F.sample(rng)
    return a if F.is_zero(b) else F.mul(a, F.inv(b))


@pytest.mark.parametrize("name", list(FIELDS))
def test_fraction_field_arithmetic_matches_sympy_cancel(name):
    F = FIELDS[name]
    rng = random.Random(20151)
    for _ in range(SAMPLES):
        a, b = _operand(F, rng), _operand(F, rng)
        for x in (a, b):
            F.check_canonical(x)
        A, B = _as_polys(F, a), _as_polys(F, b)
        cases = [("add", F.add(a, b), _add(A, B)), ("mul", F.mul(a, b), _mul(A, B)),
                 ("sigma", F.sigma(a), _sigma(F, A))]
        if not F.is_zero(a):
            cases.append(("inv", F.inv(a), _inv(A)))
        for op, got, want in cases:
            assert _as_polys(F, got) == _cancelled(F, want), (op, a, b)



# poly_gcd over the fraction fields against sympy's gcd over QQ(t0) and
# GF(5)(t0, ..., t3), on dense polynomials in X of degree at most 4 with
# sampled coefficients: the shift field's gcds in four variables, ours and
# sympy's, take seconds to minutes on quotients of samples or degree 5
X = sympy.Symbol("X")
GCD_SAMPLES = 8


def _as_sympy_poly(F, f):
    """A dense list over F, low degree first, as a Poly in X over F's
    fraction field in sympy."""
    p = F.characteristic()
    D = (sympy.GF(p) if p else sympy.QQ).frac_field(*_gens(F))
    ring = D.field.ring
    coeffs = [D.field(ring.from_dict(num.as_dict())) / D.field(ring.from_dict(den.as_dict()))
              for num, den in (_as_polys(F, c) for c in reversed(f))]
    return sympy.Poly.from_list(coeffs or [D.zero], X, domain=D)


@pytest.mark.parametrize("name", ["Q(t), t -> (t^2+1)/(t-2)", "F5(t), t -> t^2",
                                  "F5(t_i : i >= 0), shift"])
def test_poly_gcd_matches_sympy_over_the_fraction_field(name):
    F = FIELDS[name]
    rng = random.Random(3404)

    def draw(top):
        return pc.trim(F, [F.sample(rng) for _ in range(rng.randint(1, top))] + [F.one()])

    for _ in range(GCD_SAMPLES):
        h, a, b = draw(1), draw(1), draw(2)
        f, g = pc.mul(F, h, a), pc.mul(F, h, b)
        for x, y in ((f, g), (a, b), (f, []), (g, f)):
            got = F.poly_gcd(x, y)
            assert pc.deg(got) >= 0 and F.eq(got[-1], F.one())
            # sympy's fractions are not normalized, so compare by difference
            want = sympy.gcd(_as_sympy_poly(F, x), _as_sympy_poly(F, y))
            assert (_as_sympy_poly(F, got) - want).is_zero, (x, y)
