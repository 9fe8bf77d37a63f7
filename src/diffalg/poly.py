"""Univariate polynomials over a difference field.

Dense representation, low degree first.  Finite-field factorization runs
squarefree decomposition, then splits F_q[x]/(g) for each squarefree part g
with _linalg.split_idempotents, as findiff splits its algebras: each
primitive idempotent e gives the irreducible factor gcd(g, e - 1).
"""

from __future__ import annotations

from collections import namedtuple

from . import _linalg as la
from . import _polycore as pc


class UnsupportedBaseError(ValueError):
    """Operation needs a base field of a different descriptor."""


class Poly:
    """coeffs[i] is the coefficient of x^i; no trailing zeros.  Immutable."""

    __slots__ = ("coeffs", "base")

    def __init__(self, coeffs, base):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "base", base)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @staticmethod
    def make(base, coeffs):
        cs = pc.trim(base, [base.canon(c) for c in coeffs])
        return Poly(tuple(cs), base)

    @staticmethod
    def from_ints(base, ints):
        return Poly.make(base, [base.from_int(n) for n in ints])

    @staticmethod
    def zero(base):
        return Poly((), base)

    @staticmethod
    def x(base):
        return Poly.make(base, [base.zero(), base.one()])

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        return self.coeffs[-1]

    def is_monic(self):
        return bool(self.coeffs) and self.base.eq(self.coeffs[-1], self.base.one())

    def monic(self):
        return Poly(tuple(pc.monic(self.base, list(self.coeffs))), self.base)

    def __add__(self, other):
        _same_base(self, other)
        return Poly(tuple(pc.add(self.base, list(self.coeffs), list(other.coeffs))), self.base)

    def __sub__(self, other):
        _same_base(self, other)
        return Poly(tuple(pc.sub(self.base, list(self.coeffs), list(other.coeffs))), self.base)

    def __mul__(self, other):
        _same_base(self, other)
        return Poly(tuple(pc.mul(self.base, list(self.coeffs), list(other.coeffs))), self.base)

    def __divmod__(self, other):
        _same_base(self, other)
        q, r = pc.divmod_(self.base, list(self.coeffs), list(other.coeffs))
        return Poly(tuple(q), self.base), Poly(tuple(r), self.base)

    def scale(self, a):
        return Poly(tuple(pc.scale(self.base, list(self.coeffs), a)), self.base)

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.base == other.base
                and len(self.coeffs) == len(other.coeffs)
                and all(self.base.eq(a, b) for a, b in zip(self.coeffs, other.coeffs)))

    def __hash__(self):
        # the coefficients' JSON, since a shift field's elements are dicts
        return hash((repr(self.base.descriptor()), repr(self.base.vec_to_json(self.coeffs))))

    def evaluate(self, a):
        return pc.evaluate(self.base, list(self.coeffs), a)

    def derivative(self):
        return Poly(tuple(pc.derivative(self.base, list(self.coeffs))), self.base)

    def to_json(self):
        return self.base.vec_to_json(self.coeffs)

    @staticmethod
    def from_json(base, data):
        return Poly.make(base, [base.scalar_from_json(c) for c in data])

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if self.base.is_zero(c):
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "Poly(" + " + ".join(terms) + ")"


class FactorList(namedtuple("FactorList", "unit factors")):
    """unit * prod(factor^mult) equals the factored input exactly; factors is
    a tuple of (Poly, int), each factor monic irreducible."""

    __slots__ = ()

    def expand(self, base):
        acc = Poly.make(base, [self.unit])
        for f, m in self.factors:
            for _ in range(m):
                acc = acc * f
        return acc


def _same_base(f, g):
    if f.base != g.base:
        raise TypeError("polynomials over different base fields")


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd; gcd(f, 0) is the monic normalization of f.  The base field
    computes it (over function and shift fields with denominators cleared,
    see FractionField.poly_gcd)."""
    _same_base(f, g)
    return Poly(tuple(f.base.poly_gcd(list(f.coeffs), list(g.coeffs))), f.base)


def is_separable(f: Poly) -> bool:
    """gcd(f, f') = 1.  Rejects the zero polynomial."""
    if f.is_zero():
        raise ValueError("separability is undefined for the zero polynomial")
    return poly_gcd(f, f.derivative()).degree() == 0


def sigma_twist(f: Poly) -> Poly:
    """Apply the base endomorphism to every coefficient."""
    return Poly.make(f.base, [f.base.sigma(c) for c in f.coeffs])


def _require_finite(base):
    if not base.is_finite:
        raise UnsupportedBaseError(
            "factorization is only supported over finite fields")


def _pth_root_coeff(base, c):
    # In F_(p^s) the p-th root of c is c^(p^(s-1)).
    return base.pow(c, base.p ** (base.degree - 1))


def _squarefree_decomposition(base, f):
    """List of (squarefree monic poly, multiplicity), pairwise coprime."""
    p = base.characteristic()
    out = []

    def rec(g, mult):
        g = pc.monic(base, g)
        if pc.deg(g) == 0:
            return
        dg = pc.derivative(base, g)
        if pc.is_zero(dg):
            # g = h(x^p); take the p-th root coefficientwise
            h = [base.zero()] * (pc.deg(g) // p + 1)
            for i in range(0, pc.deg(g) + 1, p):
                h[i // p] = _pth_root_coeff(base, g[i])
            rec(pc.trim(base, h), mult * p)
            return
        c = pc.gcd(base, g, dg)
        w = pc.divmod_(base, g, c)[0]
        i = 1
        while pc.deg(w) > 0:
            y = pc.gcd(base, w, c)
            z = pc.divmod_(base, w, y)[0]
            if pc.deg(z) > 0:
                out.append((z, mult * i))
            w = y
            c = pc.divmod_(base, c, y)[0]
            i += 1
        if pc.deg(c) > 0:
            rec(c, mult)

    rec(list(f), 1)
    return out


def _berlekamp_split(base, g):
    """The monic irreducible factors of a squarefree monic g of degree n >= 2:
    the primitive idempotents e of F_q[x]/(g), split out of Berlekamp's
    subalgebra {h : h^q = h}, each giving gcd(g, e - 1).  Its matrix has
    the columns x^(qi) mod g, since h(x)^q = h(x^q) over F_q; elements are
    coordinate vectors padded to n, which the product kernels accept."""
    n, zero, one = pc.deg(g), base.zero(), base.one()

    def mul(u, v):
        r = pc.mod(base, pc.mul(base, u, v), g)
        return r + [zero] * (n - len(r))

    xq = pc.pow_mod(base, pc.x_poly(base), base.order, g)
    cols = [[one] + [zero] * (n - 1)]
    for _ in range(n - 1):
        cols.append(mul(cols[-1], xq))
    m = [[base.sub(c[i], one if i == j else zero) for j, c in enumerate(cols)]
         for i in range(n)]
    prims = la.split_idempotents(base, cols[0], la.nullspace(base, m), mul)
    return [pc.gcd(base, g, pc.sub(base, e, [one])) for e in prims]


def factor_over_finite_field(f: Poly) -> FactorList:
    """Complete monic irreducible factorization with multiplicities."""
    base = f.base
    _require_finite(base)
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    unit = f.leading()
    work = pc.monic(base, list(f.coeffs))
    factors = []
    for sqf, mult in _squarefree_decomposition(base, work):
        pieces = [sqf] if pc.deg(sqf) == 1 else _berlekamp_split(base, sqf)
        factors.extend((Poly(tuple(irr), base), mult) for irr in pieces)
    factors.sort(key=lambda fm: (fm[0].degree(), repr(fm[0].to_json()), fm[1]))
    result = FactorList(unit, tuple(factors))
    if result.expand(base) != f:
        raise AssertionError("factorization failed the exact product check")
    return result


def is_irreducible(f: Poly) -> bool:
    """Rabin test over a finite base field."""
    _require_finite(f.base)
    if f.is_zero():
        return False
    return pc.is_irreducible(f.base, list(f.coeffs), f.base.order)


def roots(f: Poly):
    """Roots in the base field with multiplicities, via full factorization."""
    out = []
    for g, m in factor_over_finite_field(f).factors:
        if g.degree() == 1:
            out.append((f.base.neg(g.coeffs[0]), m))
    return out
