"""Structured generators of valid difference-algebra instances.

Random structure constants are almost never associative, so randomness
enters through constructions that are valid by design: split diagonal
algebras with endomorphisms dual to point maps, truncated polynomial
quotients with Frobenius-power dynamics, finite fields as algebras, tensor
products, and change of basis to hide the split structure.
"""

from __future__ import annotations

import random

from . import _linalg as la
from .exactfield import GaloisField, PrimeField
from .findiff import FinSigmaAlgebra, field_embedding, tensor_product


def diagonal_algebra(k, point_map) -> FinSigmaAlgebra:
    """k^n with componentwise product; sigma is dual to the point map, so
    sigma(e_j) sums the indicators of the preimage of j."""
    n = len(point_map)
    mul = [[[k.one() if (i == j and t == i) else k.zero() for t in range(n)]
            for j in range(n)] for i in range(n)]
    unit = [k.one()] * n
    sigma = [[k.one() if point_map[i] == j else k.zero() for j in range(n)]
             for i in range(n)]
    return FinSigmaAlgebra(k, mul, unit, sigma)


def conjugate(A: FinSigmaAlgebra, P) -> FinSigmaAlgebra:
    """Change of basis f_j = sum_i P[i][j] e_i; hides split structure.  A is
    commutative, so each product f_i f_j is evaluated once, for i <= j, and
    mul[j][i] is a copy of mul[i][j]."""
    k = A.base
    Pinv = la.inverse(k, P)
    n = A.dim
    cols = la.transpose(P, n)
    mul = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mul[i][j] = la.mat_vec(k, Pinv, A.multiply(cols[i], cols[j]))
            mul[j][i] = list(mul[i][j])
    unit = la.mat_vec(k, Pinv, A.unit)
    sigma = la.transpose([la.mat_vec(k, Pinv, A.apply_sigma(c)) for c in cols], n)
    return FinSigmaAlgebra(k, mul, unit, sigma)


def random_invertible(k, n, rng):
    while True:
        P = [[k.sample(rng) for _ in range(n)] for _ in range(n)]
        if not k.is_zero(la.det(k, P)):
            return P


def random_point_algebra(k, rng, dim, bijective=False, conjugated=True):
    if bijective:
        pm = list(range(dim))
        rng.shuffle(pm)
    else:
        pm = [rng.randrange(dim) for _ in range(dim)]
    A = diagonal_algebra(k, pm)
    if conjugated:
        A = conjugate(A, random_invertible(k, dim, rng))
    return A


def truncated_quotient_algebra(k, rng, dim, frobenius_steps=None):
    """k[y]/(f) over a finite field k with sigma_k = x -> x^(p^m), for a
    random monic f of the given degree, with sigma(y) = y^q, q = p^(m j) and
    j in {0, 1} drawn unless given.  For j = 1, sigma(f)(y^q) = f(y)^q, so
    sigma is a ring map; for j = 0 it is one only when sigma_k fixes f, so
    j = 1 is used when sigma_k moves a coefficient of f."""
    from . import _polycore as pc

    f = [k.sample(rng) for _ in range(dim)] + [k.one()]
    j = rng.randrange(0, 2) if frobenius_steps is None else frobenius_steps
    if j == 0 and not all(k.eq(k.sigma(c), c) for c in f):
        j = 1
    q = k.p ** (k.frobenius_power * j)
    n = dim

    def y_to(e):
        """The coordinates of y^e."""
        return (pc.mod(k, pc.shift(k, [k.one()], e), f) + [k.zero()] * n)[:n]

    basis_pows = [y_to(e) for e in range(2 * n)]
    mul = [[list(basis_pows[i + j2]) for j2 in range(n)] for i in range(n)]
    unit = [k.one()] + [k.zero()] * (n - 1)
    sig_cols = [y_to(e * q) for e in range(n)]
    return FinSigmaAlgebra(k, mul, unit, la.transpose(sig_cols, n))


def field_algebra(p, defpoly, frobenius_power=1) -> FinSigmaAlgebra:
    """F_(p^d) as an algebra over F_p with a Frobenius power as sigma."""
    K = GaloisField(p, defpoly, frobenius_power)
    k = PrimeField(p)
    n = K.degree
    basis = K.power_basis()
    mul = [[[k.canon(c) for c in K.mul(basis[i], basis[j])] for j in range(n)]
           for i in range(n)]
    unit = list(K.one())
    sigma = la.transpose([K.sigma(b) for b in basis], n)
    return FinSigmaAlgebra(k, mul, unit, sigma)


def nilpotent_sigma_separable(k, c=None) -> FinSigmaAlgebra:
    """k[y]/(y^2) with sigma(y) = c y: sigma-separable but never etale."""
    c = k.one() if c is None else c
    z, o = k.zero(), k.one()
    mul = [[[o, z], [z, o]], [[z, o], [z, z]]]
    unit = [o, z]
    sigma = [[o, z], [z, c]]
    return FinSigmaAlgebra(k, mul, unit, sigma)


def random_valid_algebra(k, rng, max_dim=5):
    """A mixed family of valid instances for the equivalence suites."""
    kind = rng.randrange(5)
    if kind == 0:
        return random_point_algebra(k, rng, rng.randint(1, max_dim))
    if kind == 1:
        return random_point_algebra(k, rng, rng.randint(1, max_dim), bijective=True)
    if kind == 2:
        return truncated_quotient_algebra(k, rng, rng.randint(1, max_dim))
    if kind == 3:
        c = k.sample(rng)
        A = nilpotent_sigma_separable(k, c)
        if rng.random() < 0.5:
            A = conjugate(A, random_invertible(k, A.dim, rng))
        return A
    d = rng.randint(1, max(1, max_dim // 2))
    A = random_point_algebra(k, rng, d, bijective=bool(rng.randrange(2)),
                             conjugated=False)
    B = random_point_algebra(k, rng, rng.randint(1, max(1, max_dim // max(d, 1))),
                             conjugated=False)
    T = tensor_product(A, B)
    if T.dim <= max_dim and rng.random() < 0.7:
        return conjugate(T, random_invertible(k, T.dim, rng))
    return T


def random_strongly_setale(k, rng, max_dim=4, conjugated=True):
    """Split diagonal with a permutation-dual sigma, optionally hidden."""
    return random_point_algebra(k, rng, rng.randint(1, max_dim),
                                bijective=True, conjugated=conjugated)


def sigma_closed_idempotent_subsets(point_map):
    """Proper nonempty subsets S of points with sigma-stable indicator ideal.

    The ideal generated by the indicator of S is sigma-stable exactly when
    the preimage of S under the point map is contained in S.
    """
    n = len(point_map)
    out = []
    for mask in range(1, (1 << n) - 1):
        S = {i for i in range(n) if mask >> i & 1}
        pre = {i for i in range(n) if point_map[i] in S}
        if pre <= S:
            out.append(sorted(S))
    return out
