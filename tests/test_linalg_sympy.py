"""Differential test of exact linear algebra against sympy's DomainMatrix.

Seeded matrices over F_p and Q, at least half of whose entries are zero so
that the zero-skipping row operations run, must give the same rref, rank,
nullspace, determinant, inverse and solvability as sympy, and SpanBasis
must agree with sympy's rref of the rows it was fed.  rank and det, which
eliminate forward only, are checked on shaped matrices (rank-deficient,
zero, empty, wide and tall, up to 30 rows) against the pivots of rref, sympy
over F_p and, up to 5 rows, a cofactor expansion; there and on random shapes
PrimeField's packed pivots must yield exactly the triples of the list loop,
at every prime whose one-byte slots it reduces (after each pivot at 13) and
at primes from 17 up, where it runs the loop itself.
"""

from fractions import Fraction
import random

from hypothesis import given, strategies as st
import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from diffalg import _linalg as la  # noqa: E402
from diffalg.exactfield import (DifferenceField, GaloisField, PrimeField,  # noqa: E402
                                Rationals)

CASES = 40

FIELDS = {
    "F2": (PrimeField(2), sympy.GF(2)),
    "F5": (PrimeField(5), sympy.GF(5)),
    "F7": (PrimeField(7), sympy.GF(7)),
    "Q": (Rationals(), sympy.QQ),
}


def _entry(k, rng):
    if rng.random() < 0.6:
        return k.zero()
    p = k.characteristic()
    if p:
        return rng.randrange(1, p)
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))


def _matrix(k, rng, rows, cols):
    return [[_entry(k, rng) for _ in range(cols)] for _ in range(rows)]


def _to_dm(K, m, cols):
    return DomainMatrix([[K(a.numerator, a.denominator) if isinstance(a, Fraction)
                          else K(a) for a in row] for row in m], (len(m), cols), K)


def _from_sympy(k, x):
    p = k.characteristic()
    if p:
        return int(x) % p
    return Fraction(int(x.numerator), int(x.denominator))


def _rows(k, dm):
    return [[_from_sympy(k, x) for x in row] for row in dm.to_list()]


def _samples(name):
    k, K = FIELDS[name]
    rng = random.Random(f"linalg-{name}")
    for _ in range(CASES):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        yield k, K, _matrix(k, rng, rows, cols), rows, cols, rng


def test_samples_are_mostly_zero():
    for name in FIELDS:
        k = FIELDS[name][0]
        entries = [a for _, _, m, *_ in _samples(name) for row in m for a in row]
        assert sum(k.is_zero(a) for a in entries) * 2 >= len(entries)


@pytest.mark.parametrize("name", FIELDS)
def test_rref_rank_nullspace(name):
    for k, K, m, rows, cols, _ in _samples(name):
        dm = _to_dm(K, m, cols)
        red, pivots = la.rref(k, m)
        sred, spivots = dm.rref()
        assert pivots == list(spivots)
        assert red == _rows(k, sred)[:len(pivots)]
        assert la.rank(k, m) == dm.rank()
        ns = la.nullspace(k, m)
        assert len(ns) == cols - dm.rank()
        for v in ns:
            assert all(k.is_zero(a) for a in la.mat_vec(k, m, v))
        if ns:
            sns = _rows(k, dm.nullspace())
            assert la.rref(k, ns)[0] == la.rref(k, sns)[0]


@pytest.mark.parametrize("name", FIELDS)
def test_det_inverse_solve(name):
    for k, K, m, rows, cols, rng in _samples(name):
        square = [row[:rows] + [k.zero()] * (rows - len(row[:rows])) for row in m]
        dm = _to_dm(K, square, rows)
        d = dm.det()
        assert la.det(k, square) == _from_sympy(k, d)
        if K.is_zero(d):
            with pytest.raises(ArithmeticError):
                la.inverse(k, square)
        else:
            assert la.inverse(k, square) == _rows(k, dm.inv())
        b = [_entry(k, rng) for _ in range(rows)]
        consistent = (_to_dm(K, [r + [c] for r, c in zip(m, b)], cols + 1).rank()
                      == _to_dm(K, m, cols).rank())
        x = la.solve(k, m, b)
        assert (x is not None) == consistent
        if x is not None:
            assert la.mat_vec(k, m, x) == b


@pytest.mark.parametrize("name", FIELDS)
def test_span_basis(name):
    for k, K, m, rows, cols, rng in _samples(name):
        sb = la.SpanBasis(k, cols)
        for row in m:
            sb.add(row)
        dm = _to_dm(K, m, cols)
        assert sb.dim() == dm.rank()
        assert sb.basis() == _rows(k, dm.rref()[0])[:dm.rank()]
        for v in m + _matrix(k, rng, 3, cols):
            inside = _to_dm(K, m + [v], cols).rank() == dm.rank()
            assert sb.contains(v) == inside
            coords = sb.coordinates(v)
            assert (coords is not None) == inside
            if coords is not None:
                combo = [k.zero()] * cols
                for c, row in zip(coords, sb.basis()):
                    combo = [k.add(a, k.mul(c, r)) for a, r in zip(combo, row)]
                assert combo == v


def _product(k, a, b, inner):
    return [[k.dot([row[t] for t in range(inner)], [b[t][j] for t in range(inner)])
             for j in range(len(b[0]) if b else 0)] for row in a]


def _cofactor_det(k, m):
    if not m:
        return k.one()
    acc = k.zero()
    for j, a in enumerate(m[0]):
        minor = _cofactor_det(k, [row[:j] + row[j + 1:] for row in m[1:]])
        term = k.mul(a, minor)
        acc = k.add(acc, term if j % 2 == 0 else k.neg(term))
    return acc


def _shaped(k, seed, max_rows=30):
    """(rows, cols, matrix) triples: random, rank-deficient products, all-zero,
    0-row, wide and tall, some square; up to 5 rows, then past the packing
    crossover up to max_rows."""
    rng = random.Random(seed)

    def rand(rows, cols):
        return [[k.zero() if rng.random() < 0.4 else k.sample(rng) for _ in range(cols)]
                for _ in range(rows)]

    def deficient(rows, cols, r):
        return _product(k, rand(rows, r), rand(r, cols), r)

    def zeros(rows, cols):
        return [[k.zero()] * cols for _ in range(rows)]

    out = [(0, 0, []), (0, 3, []), (3, 3, zeros(3, 3)), (2, 5, zeros(2, 5))]
    for top in (5, max_rows):
        for _ in range(12 if top == 5 else 4):
            rows, cols = rng.randint(1, top), rng.randint(1, top)
            r = rng.randint(1, max(1, min(rows, cols) - 1))
            out += [(rows, cols, rand(rows, cols)), (rows, rows, rand(rows, rows)),
                    (rows, cols, deficient(rows, cols, r))]
    out += [(2, 6, rand(2, 6)), (6, 2, rand(6, 2)), (4, 4, deficient(4, 4, 2))]
    big = max_rows
    out += [(big, big, zeros(big, big)), (big // 4, big, rand(big // 4, big)),
            (big, big // 4, rand(big, big // 4)), (big, big, rand(big, big)),
            (big, big, deficient(big, big, big - 3)), (big, 7, deficient(big, 7, 5))]
    return out


# PrimeField.pivots packs 2 to 13 into one-byte slots, reducing the rows
# below the pivot after every 63 pivots at 3, 15 at 5, 6 at 7, 2 at 11 and 1
# at 13; from 17 up, where one pivot could overflow a byte, it runs the loop
SHAPED_PRIMES = [2, 3, 5, 7, 11, 13, 17, 257, 65537, 2**31 - 1, 2**61 - 1]


@pytest.mark.parametrize("p", SHAPED_PRIMES)
def test_rank_and_det_against_rref_and_sympy(p):
    k, K = PrimeField(p), sympy.GF(p)
    for rows, cols, m in _shaped(k, f"rank-{p}"):
        assert list(k.pivots(m)) == list(DifferenceField.pivots(k, m))
        dm = DomainMatrix([[K(a) for a in row] for row in m], (rows, cols), K)
        assert la.rank(k, m) == len(la.rref(k, m)[0]) == dm.rank()
        if rows == cols:
            assert la.det(k, m) == int(dm.det()) % p
            if rows <= 5:
                assert la.det(k, m) == _cofactor_det(k, m)


@given(st.sampled_from(SHAPED_PRIMES), st.integers(0, 30), st.integers(0, 30),
       st.integers(0, 30), st.sampled_from([0.1, 0.5, 0.9]), st.integers(0, 2**32))
def test_packed_pivots_on_random_shapes(p, rows, cols, inner, density, seed):
    """PrimeField.pivots yields the loop's triples, and rank and det agree
    with sympy, on any shape; inner < min(rows, cols) caps the rank."""
    k, K, rng = PrimeField(p), sympy.GF(p), random.Random(seed)

    def rand(rows, cols):
        return [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(cols)]
                for _ in range(rows)]

    if inner < min(rows, cols):
        a, b = rand(rows, inner), rand(inner, cols)
        m = [[sum(x * b[t][j] for t, x in enumerate(row)) % p for j in range(cols)] for row in a]
    else:
        m = rand(rows, cols)
    assert list(k.pivots(m)) == list(DifferenceField.pivots(k, m))
    dm = DomainMatrix([[K(a) for a in row] for row in m], (rows, cols), K)
    assert la.rank(k, m) == dm.rank()
    if rows == cols:
        assert la.det(k, m) == int(dm.det()) % p


@pytest.mark.parametrize("k", [GaloisField(3, [2, 2, 1]), GaloisField(2, [1, 1, 0, 1]),
                               Rationals()], ids=["F9", "F8", "Q"])
def test_rank_and_det_against_rref_over_other_fields(k):
    for rows, cols, m in _shaped(k, f"rank-{k.descriptor()}", max_rows=8):
        assert la.rank(k, m) == len(la.rref(k, m)[0])
        if rows == cols and rows <= 5:
            assert la.det(k, m) == _cofactor_det(k, m)
