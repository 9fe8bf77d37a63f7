"""Exact Gaussian elimination over a field object.

Matrices are lists of row lists of field elements.  Everything here is
fraction-free only in the sense of being exact; pivots are divided out, so
the field must supply inv().

Row operations are the field's own row_sub and row_scale, and mat_vec its
dot, which work on whole rows (see exactfield); the generic ones skip zero
entries, keeping what they would have recomputed.  rank counts and det
multiplies the pivots of one forward elimination (_pivots), with no
back-substitution; rref also clears above each pivot.
"""

from __future__ import annotations


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


def _pivots(k, m):
    """Yield (column, pivot, swapped: a lower row was swapped up to hold it)
    for each pivot of m in turn, then clear the entries below it.  Row
    operations return new rows, so only the list of rows is copied."""
    m = list(m)
    rows, r = len(m), 0
    for c in range(len(m[0]) if rows else 0):
        for i in range(r, rows):
            if not k.is_zero(m[i][c]):
                break
        else:
            continue
        pivot, m[i] = m[i], m[r]        # slot r is never read again
        yield c, pivot[c], i != r
        r += 1
        if r == rows:
            return
        pivot = k.row_scale(k.inv(pivot[c]), pivot)
        for i in range(r, rows):
            if not k.is_zero(m[i][c]):
                m[i] = k.row_sub(m[i], m[i][c], pivot)


def rank(k, m):
    """The number of pivots forward elimination finds."""
    return sum(1 for _ in _pivots(k, m))


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
    """The product of m's pivots, signed by its swaps; zero at a missing one."""
    acc, r = k.one(), 0
    for c, a, swapped in _pivots(k, m):
        if c != r:
            return k.zero()
        acc = k.mul(acc, k.neg(a) if swapped else a)
        r += 1
    return acc if r == len(m) else k.zero()


def solve(k, m, b):
    """One solution x of m x = b, or None if inconsistent."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    aug = [list(r) + [b[i]] for i, r in enumerate(m)]
    red, pivots = rref(k, aug)
    for row in red:
        if k.vec_is_zero(row[:cols]) and not k.is_zero(row[cols]):
            return None
    x = [k.zero()] * cols
    for r, p in enumerate(pivots):
        if p == cols:
            return None
        x[p] = red[r][cols]
    return x


def minimal_polynomial(k, one, times, coords):
    """Monic coefficients, low degree first, of the minimal polynomial of the
    element v that times(x) = x v multiplies by: each new power of v is solved
    for in the ones before it, and the first that solves gives the rest of
    the polynomial.  one is the ring's unit; coords(x) is x's coordinate
    vector."""
    powers, x = [coords(one)], one
    while True:
        x = times(x)
        cur = coords(x)
        lower = solve(k, transpose(powers, len(cur)), cur)
        if lower is not None:
            return [k.neg(c) for c in lower] + [k.one()]
        powers.append(cur)


def inverse(k, m):
    n = len(m)
    aug = [list(r) + row for r, row in zip(m, identity(k, n))]
    red, pivots = rref(k, aug)
    if pivots[:n] != list(range(n)):
        raise ArithmeticError("matrix is singular")
    return [row[n:] for row in red]


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
