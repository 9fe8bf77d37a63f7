"""Prime-field forward elimination on packed rows.

PrimeField.pivots packs each row of a matrix with at least PACKED_MIN_ROWS
rows into one int and eliminates with one int operation per row pair, XOR at
p = 2; the list loop of DifferenceField.pivots stays the oracle (see
test_linalg_sympy for the differential tests).  These count tests guard the
saving itself without timing anything: on point-algebra tensors of
dimensions 9, 18 and 27 the eliminations behind is_etale and
is_sigma_separable make no scalar row operation, while other fields, and
prime fields above 13, where one pivot could overflow a one-byte slot, still
run the loop.  det refuses a matrix that is not square before it eliminates.
"""

from collections import Counter
import random

import pytest

from diffalg import _linalg as la
from diffalg import exactfield as ef
from diffalg.exactfield import DifferenceField, GaloisField, PrimeField, Rationals
from diffalg.findiff import is_etale, is_sigma_separable, tensor_product
from diffalg.instances import conjugate, diagonal_algebra, random_invertible


def _count(monkeypatch, cls, names):
    counts = Counter()
    for name in names:
        orig = getattr(cls, name)

        def counted(self, *args, _orig=orig, _name=name):
            counts[_name] += 1
            return _orig(self, *args)
        monkeypatch.setattr(cls, name, counted)
    return counts


def _count_loop(monkeypatch):
    """Counts the generator calls of the list loop, whoever calls it."""
    calls = Counter()
    loop = DifferenceField.pivots

    def counted(self, m):
        calls[type(self).__name__] += 1
        return loop(self, m)
    monkeypatch.setattr(DifferenceField, "pivots", counted)
    return calls


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d2", [3, 6, 9])
@pytest.mark.parametrize("bijective", [True, False])
def test_predicates_make_no_scalar_row_operation(monkeypatch, p, d2, bijective):
    k, rng = PrimeField(p), random.Random(f"packed-{p}-{d2}-{bijective}")
    Y = diagonal_algebra(k, [(i + 1) % d2 for i in range(d2)] if bijective else [0] * d2)
    A = tensor_product(diagonal_algebra(k, [1, 2, 0]), Y)
    A = conjugate(A, random_invertible(k, A.dim, rng))
    assert A.dim == 3 * d2 >= ef.PACKED_MIN_ROWS
    counts = _count(monkeypatch, PrimeField, ("row_sub", "row_scale", "is_zero", "inv"))
    loop = _count_loop(monkeypatch)
    assert is_sigma_separable(A) == bijective
    assert is_etale(A)
    # the one is_zero call is is_etale's test of the determinant
    assert counts == Counter(is_zero=1)
    assert not loop


@pytest.mark.parametrize("k", [GaloisField(3, [2, 2, 1]), Rationals(), PrimeField(17),
                               PrimeField(65537), PrimeField(2**31 - 1)],
                         ids=["F9", "Q", "F17", "F65537", "F_2^31-1"])
def test_other_fields_keep_the_list_loop(monkeypatch, k):
    rng = random.Random(f"loop-{k.descriptor()}")
    m = [[k.sample(rng) if rng.random() < 0.7 else k.zero() for _ in range(8)]
         for _ in range(8)]
    loop = _count_loop(monkeypatch)
    la.rank(k, m)
    la.det(k, m)
    assert sum(loop.values()) == 2


@pytest.mark.parametrize("p", [2, 3, 13])
def test_prime_fields_pack_from_the_crossover(monkeypatch, p):
    k, rng = PrimeField(p), random.Random(f"crossover-{p}")
    loop = _count_loop(monkeypatch)
    for rows in (ef.PACKED_MIN_ROWS - 1, ef.PACKED_MIN_ROWS):
        m = [[k.sample(rng) for _ in range(rows)] for _ in range(rows)]
        la.rank(k, m)
    assert sum(loop.values()) == 1


def _refuse(self, m):
    raise AssertionError("det eliminated a matrix that is not square")


@pytest.mark.parametrize("k", [PrimeField(5), Rationals()], ids=["F5", "Q"])
@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (7, 6), (6, 7), (1, 0)])
def test_det_refuses_a_matrix_that_is_not_square(monkeypatch, k, shape):
    rows, cols = shape
    m = [[k.one() if i == j else k.zero() for j in range(cols)] for i in range(rows)]
    monkeypatch.setattr(DifferenceField, "pivots", _refuse)
    monkeypatch.setattr(PrimeField, "pivots", _refuse)
    with pytest.raises(ValueError):
        la.det(k, m)


def test_det_refuses_a_ragged_matrix():
    k = PrimeField(5)
    with pytest.raises(ValueError):
        la.det(k, [[1, 0], [0, 1, 0]])
    assert la.det(k, []) == 1
