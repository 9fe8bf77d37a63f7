"""Exact difference fields: a base field together with an endomorphism.

Five descriptors are supported, each with unique canonical element forms
and no rounding anywhere:

  * the rationals with the identity endomorphism,
  * prime fields F_p with x -> x^(p^m) (which is the identity),
  * finite fields F_(p^n) cut out by an irreducible polynomial, with a
    Frobenius power as endomorphism,
  * univariate function fields k0(t) with sigma(t) = g(t) for a nonconstant
    rational function g, acting on k0 through a nested descriptor,
  * shift function fields k0(t_i : i >= min_index) with sigma(t_i) = t_(i+1),
    materialized lazily as computations touch new variables.

The last two share one base, FractionField, for their reduced fractions and
arithmetic: FunctionField runs it on dense _polycore tuples, ShiftField on
sparse _multipoly dicts.

Elements are plain immutable data (ints, Fractions, tuples, dict fractions);
all arithmetic goes through the owning field object.  Each element has one
canonical stored form, so `==` on stored elements decides equality.

Each decision that depends on the kind of field is an attribute or method of
that kind, so no other module tests a field's class: is_finite (and on F_p and
F_q degree, power_basis, prime_coords), sigma_inverse, constants, specialize,
inversive_closure, named_constant, poly_gcd and ShiftField.variable_index.

Vectors are lists of elements, and twelve methods work on whole lists:
vec_from_json(cells) decodes a JSON array of scalars and vec_to_json(v)
encodes one, vec_is_zero(v) and vec_eq(u, v) test every entry,
vec_nonzero(v) lists the nonzero (i, v_i), vec_sum(v) is sum v_i, dot(u, v)
is sum u_i v_i, row_sub(v, c, row) is v - c*row, row_scale(c, row) is
c*row, kron(u, v) is [u_i v_j], i major, and bilinear_table(mul) puts the
structure constants mul[i][j] = e_i e_j in the form that bilinear(u, v,
table), the product of u and v, reads.  One works on a matrix, a list of
rows: pivots(m) yields the pivots of its forward elimination, which
_linalg's rank and det read.  Two more work on dense polynomials (_polycore
lists): poly_mul(f, g) and poly_divmod(f, g).  DifferenceField defines all
fifteen as loops over the scalar methods, except vec_eq, which compares
stored forms with == on every kind.  Every kind's bilinear_table has one
shape: row i lists (j, cell) for the nonzero products e_i e_j only, cell the
nonzero (t, c) of e_i e_j = sum c e_t, so bilinear never visits an empty
product (n^2 - n of them on a point algebra); a Zech table stores log c in
place of c.  PrimeField overrides the vector kernels with int arithmetic,
one reduction mod p per output entry, eliminates a matrix of PACKED_MIN_ROWS
rows or more at p <= 13 on rows packed into ints, a byte per column, one int
operation per row pair and XOR at p = 2 (above 13 one pivot could overflow a
byte, and the loop runs), decodes a vector of one-digit scalars as bytes,
with no call per cell, and encodes through a table of strings; GaloisField
decodes and encodes whole vectors of coordinate tuples and, at orders up to
TABLE_MAX_ORDER, computes row_sub, bilinear and poly_divmod over Zech
logarithms.  Every other kernel of the two is the generic loop over the
field's own scalar methods.  A JSON scalar of F_p, or coordinate of one of
F_q, is an integer or a string that int() reads; a float or a boolean is an
input error, not the integer int() would make of it.
"""

from __future__ import annotations

from collections import namedtuple
import functools
from itertools import chain, compress
import operator

from . import _multipoly as mp
from . import _polycore as pc
from ._load import cursor


class FieldError(ValueError):
    """Invalid descriptor or construction data."""


class NotCanonicalError(AssertionError):
    """An element failed the canonical-form invariant."""


class FrobeniusDescriptor(namedtuple("FrobeniusDescriptor", "p m")):
    """x -> x^(p^m) on a field of characteristic p."""

    __slots__ = ()

    def __new__(cls, p, m):
        if p >= PRIME_BOUND:
            raise FieldError(f"characteristic {p} is not below {PRIME_BOUND}, "
                             "the bound of the exact primality test")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        if m < 0:
            raise FieldError("Frobenius power must be >= 0")
        return super().__new__(cls, p, m)


# No composite below PRIME_BOUND is a strong probable prime to every one of
# the thirteen bases 2..41 (Sorenson and Webster, 2015), so Miller-Rabin on
# them decides primality exactly below it.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Exact for n < PRIME_BOUND."""
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class DifferenceField(pc.Kernels):
    """Shared element protocol; subclasses fix the representation."""

    kind = "?"
    is_finite = False
    # sigma_inverse(a), the preimage of a under sigma, on the kinds that
    # compute it (Q, F_p, F_q); None on the others
    sigma_inverse = None

    # subclasses implement: zero one add neg mul inv eq is_zero from_int
    # sigma canon sample scalar_to_json scalar_from_json descriptor
    #
    # The vector protocol below (vec_from_json, vec_to_json, vec_is_zero,
    # vec_eq, vec_nonzero, vec_sum, dot, row_sub, row_scale, kron,
    # bilinear_table, bilinear, pivots)
    # and the polynomial kernels inherited from _polycore.Kernels (poly_mul,
    # poly_divmod) loop over those scalar methods; a subclass may override
    # them with whole-list kernels that give the same results.  Elements are
    # stored canonically, so where an entry is zero the loops skip the work,
    # keeping the entry it would have recomputed.

    def vec_from_json(self, cells):
        """The JSON scalars `cells` decoded, one scalar_from_json each."""
        dec = self.scalar_from_json
        return [dec(c) for c in cells]

    def vec_to_json(self, v):
        """The JSON scalars of the entries of v, one scalar_to_json each."""
        return list(map(self.scalar_to_json, v))

    def vec_is_zero(self, v):
        """Whether every entry of v is zero."""
        return all(map(self.is_zero, v))

    def vec_eq(self, u, v):
        """Whether u_i = v_i at every i that u and v both have; elements are
        stored canonically, so == decides it on every kind."""
        return all(map(operator.eq, u, v))

    def vec_nonzero(self, v):
        """The (i, v_i) with v_i nonzero, i increasing."""
        return [(i, a) for i, a in enumerate(v) if not self.is_zero(a)]

    def vec_sum(self, v):
        """sum v_i, skipping the zero entries."""
        acc = self.zero()
        for a in v:
            if not self.is_zero(a):
                acc = self.add(acc, a)
        return acc

    def dot(self, u, v):
        """sum u_i v_i, skipping the terms where u_i is zero."""
        acc = self.zero()
        for a, b in zip(u, v):
            if not self.is_zero(a):
                acc = self.add(acc, self.mul(a, b))
        return acc

    def row_sub(self, v, c, row):
        """v - c*row, keeping v's entry wherever row's entry is zero."""
        return [a if self.is_zero(b) else self.sub(a, self.mul(c, b))
                for a, b in zip(v, row)]

    def row_scale(self, c, row):
        """c*row, keeping zero entries."""
        return [a if self.is_zero(a) else self.mul(c, a) for a in row]

    def kron(self, u, v):
        """[u_i v_j], i major: v scaled by each entry of u, a zero u_i giving
        a row of zeros."""
        zeros = [self.zero()] * len(v)
        return [x for a in u for x in (zeros if self.is_zero(a) else self.row_scale(a, v))]

    def bilinear_table(self, mul):
        """bilinear's table for the structure constants mul[i][j], the
        vectors e_i e_j: row i lists (j, cell) for each nonzero e_i e_j, cell
        the nonzero (t, c) of e_i e_j = sum c e_t, so the empty products are
        not in it.  Every kind keeps this shape; a Zech table stores log c."""
        nonzero = self.vec_nonzero
        return [[(j, cell) for j, cell in enumerate(map(nonzero, row)) if cell]
                for row in mul]

    def bilinear(self, u, v, table):
        """sum u_i v_j e_i e_j, table from bilinear_table; terms with u_i or
        v_j zero are skipped."""
        out = [self.zero()] * len(u)
        for a, row in zip(u, table):
            if self.is_zero(a):
                continue
            for j, cell in row:
                b = v[j]
                if self.is_zero(b):
                    continue
                ab = self.mul(a, b)
                for t, c in cell:
                    out[t] = self.add(out[t], self.mul(ab, c))
        return out

    def pivots(self, m):
        """Yield (column, pivot, swapped: a lower row was swapped up to hold it)
        for each pivot of the matrix m in turn, then clear the entries below
        it: forward elimination, as _linalg's rank and det read it.  Row
        operations return new rows, so only the list of rows is copied."""
        m = list(m)
        rows, r = len(m), 0
        for c in range(len(m[0]) if rows else 0):
            for i in range(r, rows):
                if not self.is_zero(m[i][c]):
                    break
            else:
                continue
            pivot, m[i] = m[i], m[r]        # slot r is never read again
            yield c, pivot[c], i != r
            r += 1
            if r == rows:
                return
            pivot = self.row_scale(self.inv(pivot[c]), pivot)
            for i in range(r, rows):
                if not self.is_zero(m[i][c]):
                    m[i] = self.row_sub(m[i], m[i][c], pivot)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        acc = self.one()
        while e:
            if e & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            e >>= 1
        return acc

    def is_inversive(self):
        raise NotImplementedError

    def characteristic(self):
        raise NotImplementedError

    def constant(self, c):
        """c, an element of the coefficient field, as an element of this one."""
        return c

    def constants(self):
        """The field specialize() lands in: the base of a fraction field, the
        field itself on every other kind."""
        return self

    def specialize(self, a, rng):
        """a with values drawn from rng put in for the transcendentals; a
        itself on a kind without them."""
        return a

    def inversive_closure(self, depth):
        """The inversive closure depth steps down: the field itself if it is
        inversive, None where no construction is known."""
        return self if self.is_inversive() else None

    def named_constant(self, name):
        """The element a tower expression names name, or None."""
        return None

    def poly_gcd(self, f, g):
        """The monic gcd of two dense polynomials over this field."""
        return pc.gcd(self, f, g)

    def check_canonical(self, a):
        if not self.eq(self.canon(a), a):
            raise NotCanonicalError(f"element {a!r} is not in canonical form")

    def __eq__(self, other):
        return isinstance(other, DifferenceField) and self.descriptor() == other.descriptor()

    def __hash__(self):
        return hash(repr(self.descriptor()))

    def __repr__(self):
        return f"<{type(self).__name__} {self.descriptor()}>"


class Rationals(DifferenceField):
    """Q with sigma the identity; elements are fractions.Fraction, imported
    only when a Rationals is built, so the finite fields never load it."""

    kind = "Q"

    def __init__(self):
        from fractions import Fraction
        self.fraction = Fraction

    def zero(self):
        return self.fraction(0)

    def one(self):
        return self.fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return self.fraction(n)

    def sigma(self, a):
        return a

    def sigma_inverse(self, a):
        return a

    def canon(self, a):
        return self.fraction(a)

    def sample(self, rng):
        return self.fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def is_inversive(self):
        return True

    def characteristic(self):
        return 0

    def scalar_to_json(self, a):
        return str(a)

    def scalar_from_json(self, s):
        return self.fraction(str(s))

    def descriptor(self):
        return {"kind": "Q"}


class PrimeField(DifferenceField):
    """F_p with sigma = x -> x^(p^m), which is the identity map."""

    kind = "Fq"
    is_finite = True
    degree = 1

    def __init__(self, p, frobenius_power=1):
        FrobeniusDescriptor(p, frobenius_power)
        self.p = p
        self.frobenius_power = frobenius_power
        self.order = p

    def power_basis(self):
        return [1]

    def prime_coords(self, a):
        return [a]

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return n % self.p

    def sigma(self, a):
        return a

    def sigma_inverse(self, a):
        return a

    def canon(self, a):
        return int(a) % self.p

    def sample(self, rng):
        return rng.randrange(self.p)

    def all_elements(self):
        return range(self.p)

    def is_inversive(self):
        return True

    def characteristic(self):
        return self.p

    def scalar_to_json(self, a):
        return str(a)

    def scalar_from_json(self, s):
        return _json_int(s, self.p) % self.p

    def vec_from_json(self, cells):
        p = self.p
        if p < 10:
            # n cells are all one-digit scalars "0".."p-1" exactly when their
            # join by NULs is 2n - 1 ASCII bytes whose even bytes are such digits
            try:
                raw = "\0".join(cells).encode("ascii")
            except (TypeError, UnicodeEncodeError):
                raw = b""  # a cell that is no ASCII string: decode as below
            if len(raw) == 2 * len(cells) - 1 and not raw[::2].translate(None, b"0123456789"[:p]):
                return list(raw[::2].translate(_DIGIT_VALUES))
        return list(map(self.scalar_from_json, cells))

    def vec_to_json(self, v):
        if self.p <= DECODE_TABLE_MAX_P:
            return list(map(_encode_table(self.p).__getitem__, v))
        return list(map(str, v))

    def vec_is_zero(self, v):
        return not any(v)

    def vec_nonzero(self, v):
        return list(compress(enumerate(v), v))

    def vec_sum(self, v):
        return sum(v) % self.p

    def dot(self, u, v):
        return sum(map(operator.mul, u, v)) % self.p

    def row_sub(self, v, c, row):
        p = self.p
        return [(a - c * b) % p for a, b in zip(v, row)]

    def row_scale(self, c, row):
        p = self.p
        return [c * a % p for a in row]

    def kron(self, u, v):
        p = self.p
        return [a * b % p for a in u for b in v]

    def bilinear(self, u, v, table):
        out = [0] * len(u)
        for a, row in zip(u, table):
            if a:
                for j, cell in row:
                    b = v[j]
                    if b:
                        ab = a * b
                        for t, c in cell:
                            out[t] += ab * c
        p = self.p
        return [x % p for x in out]

    def pivots(self, m):
        """DifferenceField.pivots's triples, from each row packed into one int
        with a byte per column.  At p = 2 a row takes the pivot row by XOR.  At
        odd p each lower row with y in the pivot column x takes (-y/x mod p) *
        pivot as one int multiply-add, which adds at most (p-1)^2 to a slot.
        The pivot row is reduced mod p by one bytes.translate when it is
        chosen, and every row below it after each every = (256-p) // (p-1)^2
        pivots, so a slot stays at most (p-1) + every (p-1)^2 <= 255 and never
        carries.  Below PACKED_MIN_ROWS rows, or at p above 13, where one pivot
        could overflow a byte, the loop runs."""
        p, rows = self.p, len(m)
        every = (256 - p) // (p - 1) ** 2
        if rows < PACKED_MIN_ROWS or every < 1:
            yield from super().pivots(m)
            return
        cols, residues = len(m[0]), _residue_bytes(p)
        packed = [int.from_bytes(bytes(row), "little") for row in m]
        r = 0
        for c in range(cols):
            shift = 8 * c
            for i in range(r, rows):
                if (packed[i] >> shift & 255) % p:
                    break
            else:
                continue
            pivot, packed[i] = packed[i], packed[r]
            if p == 2:
                a = 1
            else:
                slots = pivot.to_bytes(cols, "little").translate(residues)
                pivot, a = int.from_bytes(slots, "little"), slots[c]
            yield c, a, i != r
            r += 1
            if r == rows:
                return
            if p == 2:
                for i in range(r, rows):
                    if packed[i] >> shift & 1:
                        packed[i] ^= pivot
                continue
            minus_inv = p - pow(a, -1, p)
            for i in range(r, rows):
                y = (packed[i] >> shift & 255) % p
                if y:
                    packed[i] += y * minus_inv % p * pivot
            if r % every == 0:
                packed[r:] = [int.from_bytes(x.to_bytes(cols, "little").translate(residues),
                                             "little") for x in packed[r:]]

    def descriptor(self):
        return {"kind": "Fq", "p": self.p, "frobenius_power": self.frobenius_power}


# PrimeField.vec_from_json maps one-digit cells to their values with
# _DIGIT_VALUES and decodes any other cell by scalar_from_json;
# vec_to_json looks values up in a tuple of p strings, and above this p uses
# str() alone, so a large prime costs no memory.
DECODE_TABLE_MAX_P = 4096
# PrimeField.pivots packs matrices of at least this many rows; below it the
# list loop is faster (BENCH_27.json)
PACKED_MIN_ROWS = 5
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


@functools.lru_cache(maxsize=32)
def _encode_table(p):
    """str(i) for each i in 0..p-1, the JSON scalar of the element i of F_p."""
    return tuple(map(str, range(p)))


class GaloisField(DifferenceField):
    """F_(p^n) presented as F_p[x]/(defpoly), sigma a Frobenius power.

    Elements are length-n tuples of ints, coordinates in the power basis of
    the class of x.

    A field of order at most TABLE_MAX_ORDER computes through log/antilog
    tables: exp[i] = g^i for a primitive element g and log its inverse on
    nonzero elements, so a*b is exp[log a + log b], 1/a is exp[-log a] and
    a^(p^m) is exp[p^m log a], exponents taken mod q - 1.  Addition uses
    Zech logarithms (Lidl and Niederreiter, Finite Fields, 9.4): zech[i] is
    log(1 + g^i), or None where 1 + g^i = 0, so g^i + g^j is
    g^(i + zech[j - i]); -a is exp[log a + (q-1)/2] for odd q and a itself
    in characteristic 2.  The tables are built once per (p, defpoly) and
    cached for the process; fields differing only in the Frobenius power
    share them; sub is add(a, neg(b)) on them.  The cap bounds memory: exp
    holds q - 1 tuples and log a dict over them, 1.1 MB at q = 2^12 but
    2.7 MB at q = 5^6, and zech, a tuple of q - 1 references to log's ints,
    adds 33 KB at q = 2^12.

    Below the cap, three kernels (row_sub, bilinear and poly_divmod) look
    each input entry up in log once, None standing for zero, multiply by
    adding logs, accumulate by the Zech step written out in each loop, and
    look each output entry up in exp once.  bilinear_table stores each
    structure constant c of the generic table as log c, once per algebra,
    so bilinear looks up no constant.  The other kernels are the generic
    loops over mul and add, which read the same tables.

    Above the cap, such as F_5^6 or a user's F_p^n with large p, there are
    no tables.  Sums stay coordinatewise mod p.  mul multiplies the
    coordinate lists over the ints, folds the coefficients of x^n, ...,
    x^(2n-2) back by the precomputed rows of their residues mod defpoly and
    reduces each coordinate mod p once; inv is one extended Euclid on
    coordinate lists, sigma repeated p-th powers.  The vector and
    polynomial kernels are the generic loops over these.

    The tables are also the certificate that defpoly is irreducible:
    g^(q-1) = 1 with q - 1 distinct powers makes every nonzero class of
    F_p[x]/(defpoly) a power of the unit g, so the quotient is a field.  The
    Rabin test runs only when there are no tables: above the cap, or where
    that check fails and a factor must be named.
    """

    kind = "Fq"
    is_finite = True

    def __init__(self, p, defpoly, frobenius_power=1, _validated=False):
        FrobeniusDescriptor(p, frobenius_power)
        fp = PrimeField(p)
        poly = [fp.canon(c) for c in defpoly]
        poly = pc.trim(fp, poly)
        n = pc.deg(poly)
        if n < 2:
            raise FieldError("defining polynomial must have degree >= 2")
        if poly[-1] != 1:
            poly = pc.monic(fp, poly)
        tables = _log_tables(p, tuple(poly)) if p ** n <= TABLE_MAX_ORDER else None
        if tables is None and not _validated:
            _certify_irreducible_over_prime(fp, poly)
        self.p = p
        self.prime = fp
        self.defpoly = tuple(poly)
        self.degree = n
        self.order = p ** n
        self.frobenius_power = frobenius_power
        self._zero = (0,) * n
        self._one = (1,) + self._zero[1:]
        self._q1 = self.order - 1
        self._minus = 0 if p == 2 else self._q1 // 2       # the log of -1
        self._exp, self._log, self._zech = tables or (None, None, None)
        if tables is None:
            # x^n, ..., x^(2n-2) reduced mod defpoly, the rows that fold a
            # product's high coordinates back into the power basis
            top, rows = [(-c) % p for c in poly[:n]], []
            for _ in range(n - 1):
                rows.append(top)
                top = [(a + top[-1] * b) % p for a, b in zip([0] + top[:-1], rows[0])]
            self._rows = rows

    def _lift(self, coeffs):
        c = list(coeffs) + [0] * (self.degree - len(coeffs))
        return tuple(c[: self.degree])

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def generator(self):
        return self._lift([0, 1])

    def power_basis(self):
        """[1, x, ..., x^(n-1)], the F_p-basis that prime_coords(a), the
        stored coordinates of a, refer to."""
        return [self._lift([0] * i + [1]) for i in range(self.degree)]

    def prime_coords(self, a):
        return list(a)

    def named_constant(self, name):
        return self.generator() if name == "x" else None

    def add(self, a, b):
        log = self._log
        if log is None:
            return tuple((x + y) % self.p for x, y in zip(a, b))
        i, j = log.get(a), log.get(b)   # None for zero, the one tuple outside log
        if i is None:
            return b
        if j is None:
            return a
        q1 = len(self._exp)
        z = self._zech[(j - i) % q1]
        return self._zero if z is None else self._exp[(i + z) % q1]

    def neg(self, a):
        log = self._log
        if log is None:
            return tuple((-x) % self.p for x in a)
        i = log.get(a)
        if i is None:
            return a
        return self._exp[(i + self._minus) % self._q1]

    # -- kernels on Zech logarithms; None is the log of zero -----------------
    #
    # row_sub, bilinear and poly_divmod each add g^e to an accumulated log s
    # with the Zech step written out: s = e mod (q-1) if s is None, else
    # s + zech[e - s], None for zero.

    def _exps(self, logs):
        """The elements with these logs, less trailing zeros."""
        while logs and logs[-1] is None:
            logs.pop()
        exp, zero = self._exp, self._zero
        return [zero if i is None else exp[i] for i in logs]

    def row_sub(self, v, c, row):
        log, zero = self._log, self._zero
        if log is None or c == zero:
            return super().row_sub(v, c, row)
        exp, zech, q1 = self._exp, self._zech, self._q1
        m, out = log[c] + self._minus, []
        for a, b in zip(v, row):
            if b != zero:
                e = log[b] + m
                if a == zero:
                    a = exp[e % q1]
                else:
                    s = log[a]
                    z = zech[(e - s) % q1]
                    a = zero if z is None else exp[(s + z) % q1]
            out.append(a)
        return out

    def bilinear_table(self, mul):
        table, log = super().bilinear_table(mul), self._log
        if log is None:
            return table
        return [[(j, [(t, log[c]) for t, c in cell]) for j, cell in row] for row in table]

    def bilinear(self, u, v, table):
        log = self._log
        if log is None:
            return super().bilinear(u, v, table)
        exp, zech, q1, zero = self._exp, self._zech, self._q1, self._zero
        acc, lv = [None] * len(u), [*map(log.get, v)]
        for a, row in zip(map(log.get, u), table):
            if a is not None:
                for j, cell in row:
                    b = lv[j]
                    if b is not None:
                        ab = a + b
                        for t, c in cell:
                            s = acc[t]
                            if s is None:
                                acc[t] = (ab + c) % q1
                            else:
                                z = zech[(ab + c - s) % q1]
                                acc[t] = None if z is None else (s + z) % q1
        return [zero if s is None else exp[s] for s in acc]

    def poly_divmod(self, f, g):
        log = self._log
        if log is None or not g or len(f) < len(g):
            return super().poly_divmod(f, g)
        n, acc, lg = len(g) - 1, list(map(log.get, f)), list(map(log.get, g))
        lc = lg[n]
        if lc is None:
            raise ZeroDivisionError("inverse of zero")
        zech, q1 = self._zech, self._q1
        head = [(i, b) for i, b in enumerate(lg[:n]) if b is not None]
        q = [None] * (len(f) - n)
        for d in range(len(f) - 1 - n, -1, -1):
            a = acc[d + n]
            if a is not None:         # q_d = a / lc; add -q_d g x^d
                q[d] = (a - lc) % q1
                e = q[d] + self._minus
                for i, b in head:
                    s = acc[d + i]
                    if s is None:
                        acc[d + i] = (e + b) % q1
                    else:
                        z = zech[(e + b - s) % q1]
                        acc[d + i] = None if z is None else (s + z) % q1
        return self._exps(q), self._exps(acc[:n])

    def mul(self, a, b):
        zero, log = self._zero, self._log
        if a == zero or b == zero:
            return zero
        if log is not None:
            return self._exp[(log[a] + log[b]) % self._q1]
        n = self.degree
        c = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    c[j] += x * y
        for x, row in zip(c[n:], self._rows):
            if x:
                for t, r in enumerate(row):
                    c[t] += x * r
        p = self.p
        return tuple(x % p for x in c[:n])

    def inv(self, a):
        if a == self._zero:
            raise ZeroDivisionError("inverse of zero")
        if self._log is not None:
            return self._exp[-self._log[a] % self._q1]
        # extended Euclid on coordinate lists, one leading term at a time:
        # s0 a = r0 and s1 a = r1 mod defpoly throughout
        p = self.p
        r0, s0 = list(self.defpoly), []
        r1, s1 = pc.trim(self.prime, a), [1]
        while len(r1) > 1:
            j, c = len(r0) - len(r1), r0[-1] * pow(r1[-1], -1, p) % p
            s0 += [0] * (j + len(s1) - len(s0))
            for i, b in enumerate(r1, j):
                r0[i] = (r0[i] - c * b) % p
            for i, b in enumerate(s1, j):
                s0[i] = (s0[i] - c * b) % p
            while r0 and not r0[-1]:
                r0.pop()
            if len(r0) < len(r1):
                r0, s0, r1, s1 = r1, s1, r0, s0
        if not r1:
            raise ZeroDivisionError("element not invertible modulo the defining polynomial")
        c = pow(r1[0], -1, p)
        return self._lift([c * b % p for b in s1])

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == self._zero

    def from_int(self, n):
        return (n % self.p,) + self._zero[1:]

    def sigma(self, a):
        return self._frobenius(a, self.frobenius_power)

    def sigma_inverse(self, a):
        return self._frobenius(a, -self.frobenius_power)

    def _frobenius(self, a, m):
        """a^(p^m), m taken mod the degree."""
        m %= self.degree
        if self._log is None:
            for _ in range(m):
                a = self.pow(a, self.p)
            return a
        if a == self._zero:
            return a
        q1 = len(self._exp)
        return self._exp[self._log[a] * pow(self.p, m, q1) % q1]

    def canon(self, a):
        return self._lift([int(x) % self.p for x in a])

    def sample(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.degree))

    def all_elements(self):
        def rec(i):
            if i == self.degree:
                yield ()
                return
            for rest in rec(i + 1):
                for c in range(self.p):
                    yield (c,) + rest

        return (tuple(t) for t in rec(0))

    def is_inversive(self):
        return True

    def characteristic(self):
        return self.p

    def scalar_to_json(self, a):
        return [int(x) for x in a]

    def scalar_from_json(self, s):
        if isinstance(s, str):
            s = s.strip("[]").split(",") if s else []
        if not isinstance(s, (list, tuple)):
            raise ValueError(f"an element of F_{self.order} is a list of {self.degree} "
                             f"coordinates, not {_JSON_NAMES.get(type(s), 'an object')}")
        # canon pads or cuts to the degree, so a wrong length is caught here
        if len(s) != self.degree:
            raise ValueError(f"an element of F_{self.order} has {self.degree} "
                             f"coordinates, not {len(s)}")
        return self.canon(tuple(_json_int(x, self.order, "a coordinate of an element")
                                for x in s))

    def vec_from_json(self, cells):
        # cells that are all lists of n ints in 0..p-1 are canonical as they
        # stand; any other cell (a string, a bool, a short or long list, a
        # coordinate out of range) sends the vector to the per-cell decode
        if {*map(type, cells)} <= {list} and {*map(len, cells)} <= {self.degree}:
            flat = [*chain.from_iterable(cells)]
            if {*map(type, flat)} <= {int} and (not flat or 0 <= min(flat) <= max(flat) < self.p):
                return list(map(tuple, cells))
        return super().vec_from_json(cells)

    def vec_to_json(self, v):
        return list(map(list, v))

    def descriptor(self):
        return {
            "kind": "Fq",
            "p": self.p,
            "defpoly": [int(c) for c in self.defpoly],
            "frobenius_power": self.frobenius_power,
        }


TABLE_MAX_ORDER = 4096


@functools.lru_cache(maxsize=32)
def _residue_bytes(p):
    """The translation table of bytes that sends each byte b to b % p."""
    return bytes(b % p for b in range(256))


# what a JSON scalar that is no list is called in an error
_JSON_NAMES = {type(None): "null", bool: "a boolean", int: "a number", float: "a number",
               list: "a list"}


def _json_int(value, order, what="an element"):
    """The int that a JSON integer, or a string that int() reads, spells;
    for any other value, a float or a boolean among them, a ValueError
    saying what `what` of F_order is."""
    if type(value) is int:
        return value
    if type(value) is str:
        try:
            return int(value)
        except ValueError:
            pass
    if isinstance(value, (float, str)):
        shown = repr(value)
        shown = shown if len(shown) <= 24 else shown[:20] + "..."
    else:
        shown = _JSON_NAMES.get(type(value), "an object")
    raise ValueError(f"{what} of F_{order} is an integer, as a JSON number or string, "
                     f"not {shown}")


@functools.lru_cache(maxsize=32)
def _log_tables(p, defpoly):
    """(exp, log, zech) for F_p[x]/(defpoly), defpoly a monic tuple of degree
    n >= 2 and q = p^n: exp[i] = g^i for i < q - 1, log[exp[i]] = i and
    zech[i] = log(1 + g^i), None where 1 + g^i = 0, for g the first element
    in the order x, x + 1, ..., x + p - 1, 2x, ..., x^2, ... (coordinates
    the base-p digits of p, p + 1, ...) whose (q-1)/r-th power is not one for
    any prime r dividing q - 1, that is the first primitive element.

    None unless g^(q-1) = 1 and the q - 1 powers are distinct, which holds
    exactly when defpoly is irreducible (see GaloisField).  Given how g is
    picked, the first check implies the second; the second keeps the
    certificate sound whatever the search returns."""
    fp, f = PrimeField(p), list(defpoly)
    n = len(f) - 1
    q1 = p ** n - 1
    primes = pc.prime_divisors(q1)
    for k in range(p, q1 + 1):
        g = pc.trim(fp, [k // p ** i % p for i in range(n)])
        if all(pc.pow_mod(fp, g, q1 // r, f) != [1] for r in primes):
            break
    exp = [(1,) + (0,) * (n - 1)]
    for _ in range(q1):
        c = pc.mod(fp, pc.mul(fp, list(exp[-1]), g), f)
        exp.append(tuple(c) + (0,) * (n - len(c)))
    if exp.pop() != exp[0]:         # g^(q-1) = 1
        return None
    log = {a: i for i, a in enumerate(exp)}
    if len(log) < q1:               # g^i for i < q - 1 are distinct
        return None
    return tuple(exp), log, tuple(log.get(((a[0] + 1) % p,) + a[1:]) for a in exp)


def _certify_irreducible_over_prime(fp, poly):
    """Raise FieldError naming a nontrivial factor if poly is reducible."""
    if pc.is_irreducible(fp, poly, fp.p):
        return
    from .poly import Poly, factor_over_finite_field

    witness = list(factor_over_finite_field(Poly.make(fp, poly)).factors[0][0].coeffs)
    raise FieldError(
        f"defining polynomial is reducible; nontrivial factor {witness}")


_X_INDEX = 1 << 60   # reserved multipoly index for the polynomial variable


class FractionField(DifferenceField):
    """Fractions (num, den) of polynomials over `base` (Q or F_q) in the
    kernel `_P`, coprime, with the denominator's leading coefficient one.  A
    subclass supplies `_pair` (the stored form of a reduced pair), `zero`,
    `neg`, `sigma`, `canon`, `sample`, `descriptor`, `as_multipoly`,
    `from_multipoly` and the JSON coefficient lists `_encode`/`_decode`."""

    _P = None

    def _make(self, num, den):
        P, base = self._P, self.base
        if P.is_zero(den):
            raise ZeroDivisionError("zero denominator")
        if P.is_zero(num):
            return self.zero()
        g = P.gcd(base, num, den)
        if not P.is_const(g):
            num = P.exact_div(base, num, g)
            den = P.exact_div(base, den, g)
        lc = P.lc(den)
        if not base.eq(lc, base.one()):
            ilc = base.inv(lc)
            num = P.scale(base, num, ilc)
            den = P.scale(base, den, ilc)
        return self._pair(num, den)

    def constant(self, c):
        """The element c of the base field."""
        P, base = self._P, self.base
        return self._pair(P.const(base, c), P.const(base, base.one()))

    def one(self):
        return self.constant(self.base.one())

    def from_int(self, n):
        return self.constant(self.base.from_int(n))

    def add(self, a, b):
        P, base = self._P, self.base
        n = P.add(base, P.mul(base, a[0], b[1]), P.mul(base, b[0], a[1]))
        return self._make(n, P.mul(base, a[1], b[1]))

    def mul(self, a, b):
        P, base = self._P, self.base
        return self._make(P.mul(base, a[0], b[0]), P.mul(base, a[1], b[1]))

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return self._make(a[1], a[0])

    def eq(self, a, b):
        P, base = self._P, self.base
        return P.eq(base, a[0], b[0]) and P.eq(base, a[1], b[1])

    def is_zero(self, a):
        return self._P.is_zero(a[0])

    def characteristic(self):
        return self.base.characteristic()

    def constants(self):
        return self.base

    def poly_gcd(self, f, g):
        """The monic gcd, computed with denominators cleared in the joint
        polynomial ring over the base, avoiding rational-function swell."""
        if not f or not g:
            return pc.monic(self, f or g)
        k0 = self.base

        def clear(poly):
            parts = [self.as_multipoly(c) for c in poly]
            common = mp.const(k0, k0.one())
            for _, den in parts:
                if not mp.is_zero(den):
                    shared = mp.gcd(k0, common, den)
                    common = mp.exact_div(k0, mp.mul(k0, common, den), shared)
            out = {}
            for e, (num, den) in enumerate(parts):
                if mp.is_zero(num):
                    continue
                term = mp.mul(k0, num, mp.exact_div(k0, common, den))
                if e:
                    term = mp.mul(k0, term, mp.var(k0, _X_INDEX, e))
                out = mp.add(k0, out, term)
            return out

        D = mp.gcd(k0, clear(f), clear(g))
        return pc.monic(self, [self.from_multipoly(c) for c in mp.to_univariate(D, _X_INDEX)])

    def scalar_to_json(self, a):
        return {"num": self._encode(a[0]), "den": self._encode(a[1])}

    def scalar_from_json(self, s):
        return self._make(self._decode(s["num"]), self._decode(s["den"]))


class FunctionField(FractionField):
    """k0(t) with sigma(t) = g(t), sigma acting on k0 via its own field.

    Numerator and denominator are coefficient tuples over k0, low degree
    first.
    """

    kind = "Qt"
    _P = pc
    # perfbench's tracer wraps these names in this class's own namespace
    mul, inv = FractionField.mul, FractionField.inv

    def __init__(self, base, sigma_num, sigma_den):
        if isinstance(base, FractionField):
            raise FieldError("function-field base must be Q or a finite field")
        self.base = base
        den = pc.trim(base, [base.canon(c) for c in sigma_den])
        if not den:
            raise FieldError("sigma(t) has zero denominator")
        self.sigma_num, self.sigma_den = self.from_polys(
            [base.canon(c) for c in sigma_num], den)
        if pc.deg(self.sigma_num) <= 0 and pc.deg(self.sigma_den) <= 0:
            raise FieldError("sigma(t) must be a nonconstant rational function")

    def _pair(self, num, den):
        return (tuple(num), tuple(den))

    def from_polys(self, num, den):
        """num/den for coefficient lists over k0, low degree first."""
        return self._make(pc.trim(self.base, num), pc.trim(self.base, den))

    def t(self):
        return self._pair([self.base.zero(), self.base.one()], [self.base.one()])

    def named_constant(self, name):
        return self.t() if name == "t" else None

    def specialize(self, a, rng):
        """a at one point of the base drawn from rng."""
        k0, point = self.base, self.base.sample(rng)
        num, den = (pc.evaluate(k0, list(f), point) for f in a)
        return k0.div(num, den)

    def zero(self):
        return ((), (self.base.one(),))

    def neg(self, a):
        return (tuple(pc.neg(self.base, a[0])), a[1])

    def sigma(self, a):
        base = self.base
        num = [base.sigma(c) for c in a[0]]
        den = [base.sigma(c) for c in a[1]]
        d = max(len(num), len(den), 1) - 1
        gn, gd = list(self.sigma_num), list(self.sigma_den)
        pow_n = [[base.one()]]
        pow_d = [[base.one()]]
        for _ in range(d):
            pow_n.append(pc.mul(base, pow_n[-1], gn))
            pow_d.append(pc.mul(base, pow_d[-1], gd))

        def plug(cs):
            acc = []
            for i, c in enumerate(cs):
                if base.is_zero(c):
                    continue
                term = pc.scale(base, pc.mul(base, pow_n[i], pow_d[d - i]), c)
                acc = pc.add(base, acc, term)
            return acc

        return self._make(plug(num), plug(den))

    def canon(self, a):
        return self.from_polys([self.base.canon(c) for c in a[0]],
                               [self.base.canon(c) for c in a[1]])

    def sample(self, rng):
        base = self.base
        num = [base.sample(rng) for _ in range(rng.randint(1, 3))]
        den = pc.trim(base, [base.sample(rng) for _ in range(rng.randint(1, 2))])
        return self.from_polys(num, den or [base.one()])

    def as_multipoly(self, a):
        """(num, den) as _multipoly dicts in the one variable t = t_0."""
        return tuple({((0, i),) if i else (): c for i, c in enumerate(f)
                      if not self.base.is_zero(c)} for f in a)

    def from_multipoly(self, f):
        """The polynomial f in t = t_0 as an element."""
        num = [self.base.zero()] * (1 + max((m[0][1] for m in f if m), default=0))
        for m, c in f.items():
            num[m[0][1] if m else 0] = c
        return self.from_polys(num, [self.base.one()])

    def sigma_degree(self):
        return max(pc.deg(list(self.sigma_num)), pc.deg(list(self.sigma_den)))

    def is_inversive(self):
        if self.sigma_degree() >= 2:
            return False
        # Moebius substitution, bijective whenever the base map is
        return self.base.is_inversive()

    def _encode(self, f):
        return self.base.vec_to_json(f)

    def _decode(self, cs):
        return pc.trim(self.base, [self.base.scalar_from_json(c) for c in cs])

    def descriptor(self):
        return {"kind": "Qt", "base": self.base.descriptor(),
                "sigma_t": self.scalar_to_json((self.sigma_num, self.sigma_den))}


class ShiftField(FractionField):
    """k0(t_i : i >= min_index) with sigma shifting every index by one.

    Numerator and denominator are sparse _multipoly dicts over k0.  Values
    are immutable by convention; the field only records a monotone horizon
    of the largest index any computation has touched.
    """

    kind = "shift"
    _P = mp
    # perfbench's tracer wraps these names in this class's own namespace
    add, mul, inv = FractionField.add, FractionField.mul, FractionField.inv

    def __init__(self, base, min_index=0):
        if isinstance(base, FractionField):
            raise FieldError("shift-field base must be Q or a finite field")
        self.base = base
        self.min_index = min_index
        self.horizon = min_index  # high-water mark, append-only

    def _note(self, f):
        vs = mp.variables(f)
        if vs:
            lo, hi = min(vs), max(vs)
            if lo < self.min_index:
                raise FieldError(
                    f"variable t_{lo} below this field's minimal index {self.min_index}")
            if hi > self.horizon:
                self.horizon = hi

    def _pair(self, num, den):
        self._note(num)
        self._note(den)
        return (num, den)

    def t(self, i=0):
        if i < self.min_index:
            raise FieldError(f"t_{i} is below the minimal index {self.min_index}")
        return self._pair(mp.var(self.base, i), mp.const(self.base, self.base.one()))

    def named_constant(self, name):
        """t_i, named t<i> or, for i < 0, t_m<-i>."""
        tail = name[1:] if name.startswith("t") else ""
        if tail.isdigit():
            return self.t(int(tail))
        if tail.startswith("_m") and tail[2:].isdigit():
            return self.t(-int(tail[2:]))
        return None

    def variable_index(self, a):
        """j where a is the variable t_j, else None."""
        num, den = a
        if len(num) != 1 or list(den) != [()]:
            return None
        (mono, c), = num.items()
        if len(mono) != 1 or mono[0][1] != 1 or not self.base.eq(c, self.base.one()):
            return None
        return mono[0][0]

    def specialize(self, a, rng):
        """a at values drawn from rng for its variables, by increasing index."""
        k0 = self.base
        vs = sorted(mp.variables(a[0]) | mp.variables(a[1]))
        point = {v: k0.sample(rng) for v in vs}
        num, den = (mp.evaluate(k0, f, point) for f in a)
        return k0.div(num, den)

    def inversive_closure(self, depth):
        """The field with depth more variables below min_index."""
        return ShiftField(self.base, self.min_index - depth)

    def zero(self):
        return ({}, mp.const(self.base, self.base.one()))

    def neg(self, a):
        return (mp.neg(self.base, a[0]), a[1])

    def sigma(self, a):
        base = self.base
        num, den = (mp.map_coeffs(base, mp.shift_vars(f, 1), base.sigma) for f in a)
        return self._make(num, den)

    def canon(self, a):
        base = self.base
        return self._make(mp.map_coeffs(base, a[0], base.canon),
                          mp.map_coeffs(base, a[1], base.canon))

    def sample(self, rng):
        base = self.base
        num = {}
        for _ in range(rng.randint(1, 3)):
            v = rng.randint(self.min_index, self.min_index + 2)
            e = rng.randint(0, 2)
            m = ((v, e),) if e else ()
            num = mp.add(base, num, {m: base.sample(rng)})
        den = mp.const(base, base.one())
        if rng.random() < 0.3:
            v = rng.randint(self.min_index, self.min_index + 2)
            den = mp.add(base, mp.var(base, v), mp.const(base, base.one()))
        if mp.is_zero(num):
            num = mp.const(base, base.one())
        return self._make(num, den)

    def as_multipoly(self, a):
        """(num, den) as _multipoly dicts, t_i the variable of index i."""
        return a

    def from_multipoly(self, f):
        """The polynomial f in the t_i as an element."""
        return self._make(f, mp.const(self.base, self.base.one()))

    def is_inversive(self):
        return False

    def _encode(self, f):
        return [[[list(ve) for ve in m], self.base.scalar_to_json(c)]
                for m, c in mp.to_terms(f)]

    def _decode(self, terms):
        # the sum of the terms, so zero coefficients, zero exponents and
        # repeated variables or monomials still give the canonical dict
        base, f = self.base, {}
        for m, c in terms:
            mono = mp.mono_mul((), [(int(v), int(e)) for v, e in m])
            mono = tuple(ve for ve in mono if ve[1])
            c = base.scalar_from_json(c)
            if mono in f:
                c = base.add(f.pop(mono), c)
            if not base.is_zero(c):
                f[mono] = c
        return f

    def descriptor(self):
        return {"kind": "shift", "base": self.base.descriptor(),
                "min_index": self.min_index}


def field_make(descriptor):
    """Build and validate a difference field from a JSON descriptor, given as
    a plain value or as a _load.Cursor into its document; a DifferenceField
    in its place is returned as it is."""
    d = cursor(descriptor)
    if isinstance(d.value, DifferenceField):
        return d.value
    kind = d.get("kind", None).value
    with d.blame():
        if kind == "Q":
            return Rationals()
        if kind == "Fq":
            # the prime field first: it checks p before defpoly is reduced mod p
            prime = PrimeField(d.key("p").of(int), d.get("frobenius_power", 1).of(int))
            defpoly = d.get("defpoly", None)
            defpoly = [] if defpoly.value is None else defpoly.array(int)
            trimmed = list(defpoly)
            while trimmed and trimmed[-1] % prime.p == 0:
                trimmed.pop()
            if len(trimmed) > 2:
                return GaloisField(prime.p, defpoly, prime.frobenius_power)
            return prime
        if kind == "Qt":
            base = field_make(d.get("base", {"kind": "Q"}))
            st = d.key("sigma_t")
            return FunctionField(base, st.key("num").scalars(base, None),
                                 st.get("den", ["1"]).scalars(base, None))
        if kind == "shift":
            if "base" in d.value:
                base = field_make(d.key("base"))
            else:
                base = PrimeField(d.key("p").of(int), d.get("frobenius_power", 1).of(int))
            return ShiftField(base, d.get("min_index", 0).of(int))
        raise FieldError(f"unknown field kind {kind!r}")


def sigma_apply(field, x):
    """Apply the field endomorphism to a canonical element."""
    field.check_canonical(x)
    return field.sigma(x)


def is_inversive(field):
    """Structural surjectivity decision for the supported descriptors."""
    return field.is_inversive()
