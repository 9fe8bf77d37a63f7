"""Dense univariate polynomial arithmetic over a field object.

Polynomials are plain lists of field elements, low degree first, with no
trailing zeros ([] is the zero polynomial).  Every function takes the
coefficient field as its first argument; the field supplies exact element
operations (zero, one, add, sub, neg, mul, inv, eq, is_zero, from_int) and
the two kernels everything here is built on, poly_mul(f, g) and
poly_divmod(f, g).  Kernels below holds their generic loops over the scalar
operations; a field may override them with kernels that give the same
results (a table F_q divides on Zech logarithms, see exactfield).  This
module is internal plumbing shared by the field constructors, the public
polynomial layer and the tower machinery; a tower passes itself as the
field, its elements being the coefficients.

Each generic ring algorithm is written here once: power, binary powering
under any ring product (f^e mod m in pow_mod, and field elements, sparse
polynomials and algebra vectors elsewhere); invmod, the extended Euclid
(inverses in F_q above the table cap and in a tower); and the coefficient
list steps, which _multipoly's pseudo-remainders run over a Ring.
"""

from __future__ import annotations

import copy


def trim(k, c):
    c = list(c)
    while c and k.is_zero(c[-1]):
        c.pop()
    return c


def deg(c):
    return len(c) - 1


def is_zero(c):
    return not c


def is_const(c):
    return len(c) <= 1


def lc(c):
    return c[-1]


def const(k, a):
    return trim(k, [a])


def x_poly(k):
    return [k.zero(), k.one()]


def eq(k, f, g):
    if len(f) != len(g):
        return False
    return all(k.eq(a, b) for a, b in zip(f, g))


def add(k, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else k.zero()
        b = g[i] if i < len(g) else k.zero()
        out.append(k.add(a, b))
    return trim(k, out)


def neg(k, f):
    return [k.neg(a) for a in f]


def sub(k, f, g):
    return add(k, f, neg(k, g))


def scale(k, f, a):
    if k.is_zero(a):
        return []
    return trim(k, [k.mul(a, c) for c in f])


def mul(k, f, g):
    return k.poly_mul(f, g)


def shift(k, f, n):
    """Multiply by x^n."""
    if not f:
        return []
    return [k.zero()] * n + list(f)


def divmod_(k, f, g):
    """(quotient, remainder) of f by a nonzero g."""
    return k.poly_divmod(f, g)


def mod(k, f, g):
    return divmod_(k, f, g)[1]


def exact_div(k, f, g):
    """f / g for a known divisor g."""
    return divmod_(k, f, g)[0]


def monic(k, f):
    if not f:
        return []
    return scale(k, f, k.inv(f[-1]))


def gcd(k, f, g):
    while g:
        f, g = g, mod(k, f, g)
    return monic(k, f)


def invmod(k, f, g):
    """The inverse of f modulo g by the extended Euclid, which follows only
    the cofactor s of f: s f = r mod g for each remainder r."""
    r0, r1 = list(f), list(g)
    s0, s1 = [k.one()], []
    while r1:
        q, r = divmod_(k, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(k, s0, mul(k, q, s1))
    if deg(r0) != 0:
        raise ZeroDivisionError("element not invertible modulo the given polynomial")
    return mod(k, scale(k, s0, k.inv(r0[0])), g)


def evaluate(k, f, a):
    acc = k.zero()
    for c in reversed(f):
        acc = k.add(k.mul(acc, a), c)
    return acc


def derivative(k, f):
    out = []
    for i in range(1, len(f)):
        out.append(k.mul(k.from_int(i), f[i]))
    return trim(k, out)


def power(f, e, one, mul):
    """f^e by binary powering under the ring product mul; one, the unit, is
    the answer at e = 0 and is never multiplied in.  The product starts from
    a shallow copy of its first factor, so it is never the caller's f."""
    acc = None
    while e:
        if e & 1:
            acc = copy.copy(f) if acc is None else mul(acc, f)
        e >>= 1
        if e:
            f = mul(f, f)
    return one if acc is None else acc


def pow_mod(k, f, e, m):
    """f^e mod m for a nonnegative integer e."""
    return power(mod(k, f, m), e, const(k, k.one()), lambda a, b: mod(k, mul(k, a, b), m))


def is_irreducible(k, f, q):
    """Rabin irreducibility test over a finite field with q elements.

    f of degree n is irreducible exactly when x^(q^n) = x mod f and
    gcd(x^(q^(n/l)) - x, f) = 1 for every prime l dividing n.  The loop that
    reaches x^(q^n) passes through every x^(q^j), so the gcd steps read
    theirs from it.  Assumes f nonzero; constants are not irreducible.
    """
    f = monic(k, f)
    n = deg(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    x = mod(k, x_poly(k), f)
    iterates = [x]
    for _ in range(n):
        iterates.append(pow_mod(k, iterates[-1], q, f))
    if not eq(k, iterates[n], x):
        return False
    return all(deg(gcd(k, sub(k, iterates[n // ell], x), f)) == 0
               for ell in prime_divisors(n))


def prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def random_irreducible(k, degree, q, rng):
    """Random monic irreducible of the given degree over a finite field."""
    if degree < 1:
        raise ValueError("degree must be positive")
    while True:
        coeffs = [k.sample(rng) for _ in range(degree)] + [k.one()]
        f = trim(k, coeffs)
        if deg(f) == degree and is_irreducible(k, f, q):
            return f


class Kernels:
    """The generic poly_mul and poly_divmod, loops over the scalar operations
    of the class that inherits them (DifferenceField and _multipoly.Ring)."""

    def poly_mul(self, f, g):
        if not f or not g:
            return []
        out = [self.zero()] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if self.is_zero(a):
                continue
            for j, b in enumerate(g):
                out[i + j] = self.add(out[i + j], self.mul(a, b))
        return trim(self, out)

    def poly_divmod(self, f, g):
        if not g:
            raise ZeroDivisionError("polynomial division by zero")
        f = list(f)
        if len(f) < len(g):
            return [], f
        q = [self.zero()] * (len(f) - len(g) + 1)
        inv_lc = self.inv(g[-1])
        while len(f) >= len(g) and f:
            c = self.mul(f[-1], inv_lc)
            d = len(f) - len(g)
            q[d] = c
            for i, b in enumerate(g):
                f[d + i] = self.sub(f[d + i], self.mul(c, b))
            f = trim(self, f)
        return trim(self, q), f
