"""Exact Gaussian elimination over a field object.

Matrices are lists of row lists of field elements.  Everything here is
fraction-free only in the sense of being exact; pivots are divided out, so
the field must supply inv().

Row operations are the field's own row_sub and row_scale, and mat_vec its
dot, which work on whole rows (see exactfield); the generic ones skip zero
entries, keeping what they would have recomputed.  rank counts and det
multiplies the pivots of one forward elimination, the field's pivots(m),
with no back-substitution: the generic one is a loop over those row
operations, and PrimeField's eliminates rows packed into ints, XORed at
p = 2, once a matrix has PACKED_MIN_ROWS rows.  rref also clears above each
pivot, on lists.

Eliminations are not repeated.  solver(k, m) runs one rref of [m | I] and
answers every right-hand side b with the products E b of its right half E,
so a matrix solved for many b (the comultiplication witnesses, the relative
coordinates of a field extension) is eliminated once, and one never solved
is not eliminated; solve and inverse are that elimination too.
minimal_polynomial runs no rref: it reduces each new power once against
echelon rows that carry their combinations of the powers before it.

split_idempotents is the one Cantor-Zassenhaus splitter over F_q: findiff's
algebras and poly's F_q[x]/(g) both run it, each passing its product.
"""

from __future__ import annotations

import functools
import random

from . import _multipoly as mp


def zeros(k, rows, cols):
    return [[k.zero() for _ in range(cols)] for _ in range(rows)]


def identity(k, n):
    m = zeros(k, n, n)
    for i in range(n):
        m[i][i] = k.one()
    return m


def copy(m):
    return [list(r) for r in m]


def transpose(cols, nrows):
    """The nrows-row matrix whose columns are cols; no columns give nrows
    empty rows."""
    return [[c[r] for c in cols] for r in range(nrows)]


def mat_vec(k, m, v):
    return [k.dot(row, v) for row in m]


def rref(k, m):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    m = copy(m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        for i in range(r, rows):
            if not k.is_zero(m[i][c]):
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        m[r] = k.row_scale(k.inv(m[r][c]), m[r])
        for i in range(rows):
            if i != r and not k.is_zero(m[i][c]):
                m[i] = k.row_sub(m[i], m[i][c], m[r])
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m[:r], pivots


def rank(k, m):
    """The number of pivots forward elimination finds."""
    return sum(1 for _ in k.pivots(m))


def nullspace(k, m):
    """Basis of the right kernel as a list of vectors."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    red, pivots = rref(k, m)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [k.zero()] * cols
        v[f] = k.one()
        for r, p in enumerate(pivots):
            v[p] = k.neg(red[r][f])
        basis.append(v)
    return basis


def det(k, m):
    """The product of m's pivots, signed by its swaps; zero at a missing one.
    m must be square."""
    for row in m:
        if len(row) != len(m):
            raise ValueError(f"det of a {len(m)}-row matrix with a row of length {len(row)}")
    acc, r = k.one(), 0
    for c, a, swapped in k.pivots(m):
        if c != r:
            return k.zero()
        acc = k.mul(acc, k.neg(a) if swapped else a)
        r += 1
    return acc if r == len(m) else k.zero()


def _eliminate(k, m):
    """(pivots, E) from one rref of [m | I]: E is its right half, so E m is
    m's reduced row echelon form, its first len(pivots) rows nonzero with
    those pivot columns, and E's rows past them send m's columns to zero."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    zero, one = k.zero(), k.one()
    pad = [zero] * rows
    red, pivots = rref(k, [list(r) + pad[:i] + [one] + pad[i + 1:] for i, r in enumerate(m)])
    rank = sum(1 for c in pivots if c < cols)
    return pivots[:rank], [row[cols:] for row in red]


def solver(k, m):
    """The function b -> one solution x of m x = b, or None if there is none.
    m is eliminated once, at the first b: x takes (E b)_r at the r-th pivot
    column and zero at the others, and E's rows past the rank must send b to
    zero."""
    cols = len(m[0]) if m else 0
    eliminated = functools.cache(lambda: _eliminate(k, m))

    def solve_for(b):
        pivots, E = eliminated()
        if not k.vec_is_zero(mat_vec(k, E[len(pivots):], b)):
            return None
        x = [k.zero()] * cols
        for p, row in zip(pivots, E):
            x[p] = k.dot(row, b)
        return x

    return solve_for


def solve(k, m, b):
    """One solution x of m x = b, or None if inconsistent."""
    return solver(k, m)(b)


def minimal_polynomial(k, one, times, coords):
    """Monic coefficients, low degree first, of the minimal polynomial of the
    element v that times(x) = x v multiplies by.  Each power of v is reduced
    once against one echelon row per earlier power that did not reduce to
    zero, each row carrying its combination of the powers; the first power
    from v on that reduces to zero has, as its combination, the monic
    relation.  A zero unit gives no row.  one is the ring's unit; coords(x)
    is x's coordinate vector."""
    zero, rows, x, d = k.zero(), [], one, 0
    while True:
        cur, combo = coords(x), [zero] * d + [k.one()]
        for p, row, rc in rows:
            c = cur[p]
            if not k.is_zero(c):
                cur = k.row_sub(cur, c, row)
                combo[:len(rc)] = k.row_sub(combo, c, rc)
        lead = k.vec_nonzero(cur)
        if lead:
            p, a = lead[0]
            a = k.inv(a)
            rows.append((p, k.row_scale(a, cur), k.row_scale(a, combo)))
        elif d:
            return combo
        x, d = times(x), d + 1


# A round of split_idempotents separates two given local factors with
# probability at least 1/2, so a sound algebra needs about log2 r rounds;
# findiff's _local_factors draws at most this many combinations in search of
# a residue-primitive element.  An algebra that breaks the axioms fails the
# checks after this many rounds or draws instead of looping.
_SPLIT_ROUNDS = 64


def split_idempotents(k, unit, fixed, mul):
    """The primitive idempotents of the commutative algebra over k = F_q
    whose product is mul and whose unit is unit, cut out of its q-power-fixed
    subalgebra B ~ F_q^r spanned by fixed, r = len(fixed).

    Each round draws a random b in B and cuts every part u by idempotents
    read off b's coordinates (Cantor-Zassenhaus).  For odd q, h = b^((q-1)/2)
    has coordinates in {0, 1, -1}, so with s = h^2 the cuts are (s + h)/2 and
    (s - h)/2, the rest of u being where b vanishes; for q = 2^m the trace
    b + b^2 + ... + b^(2^(m-1)) has coordinates in F_2 and is the one cut.
    """
    q, r, n = k.order, len(fixed), len(unit)
    one, minus_one = k.one(), k.neg(k.one())
    rng = random.Random(0xA70A ^ n)
    parts = [list(unit)]
    for _ in range(_SPLIT_ROUNDS):
        if len(parts) >= r:
            break
        b = [k.zero()] * n
        for f in fixed:
            b = k.row_sub(b, minus_one, k.row_scale(k.sample(rng), f))
        if q % 2:
            h = mp.power(b, (q - 1) // 2, list(unit), mul)
            s = mul(h, h)
            plus = k.row_scale(k.inv(k.from_int(2)), k.row_sub(s, minus_one, h))
            cuts = [plus, k.row_sub(s, one, plus)]
        else:
            t = cur = b
            for _ in range(k.degree - 1):
                cur = mul(cur, cur)
                t = k.row_sub(t, minus_one, cur)
            cuts = [t]
        split = []
        for u in parts:
            for e in cuts:
                ue = mul(u, e)
                u = k.row_sub(u, one, ue)
                split.append(ue)
            split.append(u)
        parts = [u for u in split if not k.vec_is_zero(u)]
    total = [k.zero()] * n
    for u in parts:
        total = k.row_sub(total, minus_one, u)
    if (len(parts) != r or not k.vec_eq(total, unit)
            or not all(k.vec_eq(mul(u, u), u) for u in parts)):
        raise AssertionError("primitive idempotent count mismatch")
    return parts


def inverse(k, m):
    pivots, E = _eliminate(k, m)
    if pivots != list(range(len(m))):
        raise ArithmeticError("matrix is singular")
    return E


class SpanBasis:
    """Incrementally maintained echelon basis of a subspace of k^n."""

    def __init__(self, k, n):
        self.k = k
        self.n = n
        self.rows = []          # echelon rows, pivot in strictly increasing column
        self.pivots = []

    def reduce(self, v):
        """Reduce v against the current rows; returns the remainder."""
        k = self.k
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if not k.is_zero(c):
                v = k.row_sub(v, c, row)
        return v

    def contains(self, v):
        return self.k.vec_is_zero(self.reduce(v))

    def add(self, v):
        """Insert v; returns True if the span grew."""
        k = self.k
        r = self.reduce(v)
        for p in range(self.n):
            if not k.is_zero(r[p]):
                r = k.row_scale(k.inv(r[p]), r)
                idx = 0
                while idx < len(self.pivots) and self.pivots[idx] < p:
                    idx += 1
                self.rows.insert(idx, r)
                self.pivots.insert(idx, p)
                self._back_reduce(idx)
                return True
        return False

    def _back_reduce(self, idx):
        k = self.k
        p = self.pivots[idx]
        new_row = self.rows[idx]
        for j, row in enumerate(self.rows):
            if j != idx and not k.is_zero(row[p]):
                self.rows[j] = k.row_sub(row, row[p], new_row)

    def dim(self):
        return len(self.rows)

    def coordinates(self, v):
        """Coordinates of v in the echelon basis, or None if outside."""
        k = self.k
        v = list(v)
        coords = []
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            coords.append(c)
            if not k.is_zero(c):
                v = k.row_sub(v, c, row)
        if not k.vec_is_zero(v):
            return None
        return coords

    def basis(self):
        return [list(r) for r in self.rows]

    def equals(self, other):
        if self.dim() != other.dim():
            return False
        return all(map(self.k.vec_eq, self.rows, other.rows))
