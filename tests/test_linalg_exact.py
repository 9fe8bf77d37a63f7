"""Zero-skipping row operations are exact on the rational-function fields.

On seeded sparse rows over ShiftField (F_5) and FunctionField (Q), rref and
SpanBasis.add/reduce must return the very rows that a dense elimination,
which recomputes a - c*0 and c*0, returns, and must leave the shift field's
horizon where the dense elimination leaves it.  mat_vec, which skips zero
matrix entries, must equal the sum of every product on those fields and on
F_7, F_9 and Q.
"""

import random

import pytest

from diffalg import _linalg as la
from diffalg.exactfield import (FunctionField, GaloisField, PrimeField, Rationals,
                                ShiftField)

FIELDS = {
    "F5(t_i : i >= 0), shift": lambda: ShiftField(PrimeField(5)),
    "Q(t), t -> (t^2+1)/(t-2)": lambda: FunctionField(Rationals(), [1, 0, 1], [-2, 1]),
}
CASES = 12


def _entry(k, rng):
    if rng.random() < 0.6:
        return k.zero()
    # a constant, t_i + c or t + c: small enough that elimination stays quick
    c = k.from_int(rng.randint(1, 4))
    if rng.random() < 0.3:
        return c
    t = k.t(rng.randint(0, 2)) if isinstance(k, ShiftField) else k.t()
    return k.add(t, c)


def _sparse_rows(k, seed, rows, cols):
    rng = random.Random(seed)
    return [[_entry(k, rng) for _ in range(cols)] for _ in range(rows)]


def _dense_sub(k, v, c, row):
    return [k.sub(a, k.mul(c, b)) for a, b in zip(v, row)]


def _dense_rref(k, m):
    m = [list(r) for r in m]
    pivots, r = [], 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if not k.is_zero(m[i][c])), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = k.inv(m[r][c])
        m[r] = [k.mul(inv, a) for a in m[r]]
        for i in range(len(m)):
            if i != r and not k.is_zero(m[i][c]):
                m[i] = _dense_sub(k, m[i], m[i][c], m[r])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def _dense_reduce(k, rows, pivots, v):
    for row, p in zip(rows, pivots):
        if not k.is_zero(v[p]):
            v = _dense_sub(k, v, v[p], row)
    return v


def _dense_add(k, rows, pivots, v):
    r = _dense_reduce(k, rows, pivots, v)
    p = next((p for p, a in enumerate(r) if not k.is_zero(a)), None)
    if p is None:
        return
    inv = k.inv(r[p])
    r = [k.mul(inv, a) for a in r]
    idx = sum(q < p for q in pivots)
    rows.insert(idx, r)
    pivots.insert(idx, p)
    for j in range(len(rows)):
        if j != idx and not k.is_zero(rows[j][p]):
            rows[j] = _dense_sub(k, rows[j], rows[j][p], r)


@pytest.mark.parametrize("name", FIELDS)
def test_sparse_elimination_matches_dense(name):
    for case in range(CASES):
        fast, dense = FIELDS[name](), FIELDS[name]()
        seed = f"exact-{name}-{case}"
        m, extra = (_sparse_rows(fast, seed, 4, 5), _sparse_rows(fast, seed + "+", 3, 5))
        dm, dextra = (_sparse_rows(dense, seed, 4, 5), _sparse_rows(dense, seed + "+", 3, 5))
        assert m == dm and extra == dextra

        assert la.rref(fast, m) == _dense_rref(dense, dm)
        sb, rows, pivots = la.SpanBasis(fast, 5), [], []
        for v, dv in zip(m, dm):
            sb.add(v)
            _dense_add(dense, rows, pivots, dv)
            assert sb.rows == rows and sb.pivots == pivots
        for v, dv in zip(extra, dextra):
            assert sb.reduce(v) == _dense_reduce(dense, rows, pivots, dv)
        assert getattr(fast, "horizon", None) == getattr(dense, "horizon", None)


CONSTANT_FIELDS = {"F7": lambda: PrimeField(7), "F9": lambda: GaloisField(3, [1, 0, 1]),
                   "Q": Rationals}


@pytest.mark.parametrize("name", list(FIELDS) + list(CONSTANT_FIELDS))
def test_mat_vec_matches_the_sum_of_every_product(name):
    k = {**FIELDS, **CONSTANT_FIELDS}[name]()
    rng = random.Random(f"mat-vec-{name}")

    def entry():
        if name in FIELDS:
            return _entry(k, rng)
        return k.zero() if rng.random() < 0.5 else k.sample(rng)

    for _ in range(CASES):
        m = [[entry() for _ in range(5)] for _ in range(4)]
        v = [entry() for _ in range(5)]
        want = []
        for row in m:
            acc = k.zero()
            for a, b in zip(row, v):
                acc = k.add(acc, k.mul(a, b))
            want.append(acc)
        assert la.mat_vec(k, m, v) == want
