"""Work done once: minimal polynomials, solved matrices and product tables.

_linalg.minimal_polynomial reduces each power once against echelon rows and
must give what one fresh solve per power gave; _linalg.solver eliminates a
matrix once for every right-hand side and must give what a fresh rref of
[m | b] per b gave.  Both oracles are the earlier loops, kept here.  The
count tests guard the saving itself without timing anything: rref calls per
minimal polynomial, per comultiplication witness and per relative basis,
level builds per etale probe, and the cells of a point algebra's table.
"""

import random

import pytest

from diffalg import _linalg as la
from diffalg import _multipoly as mp
from diffalg import diffpoly, hopf
from diffalg.exactfield import DifferenceField, GaloisField, PrimeField, Rationals
from diffalg.findiff import (FinSigmaAlgebra, _relative_basis, field_embedding,
                             minimal_polynomial)
from diffalg.gallery import product_carrier
from diffalg.instances import (conjugate, diagonal_algebra, nilpotent_sigma_separable,
                               random_invertible, random_point_algebra,
                               random_valid_algebra)

Q = Rationals()
FINITE = {
    "F2": PrimeField(2), "F3": PrimeField(3), "F5": PrimeField(5),
    "F4": GaloisField(2, [1, 1, 1]), "F9": GaloisField(3, [1, 0, 1]),
    # order 5^6, above the table cap: the generic loops over a coordinate-list mul
    "F5^6": GaloisField(5, [2, 1, 0, 0, 0, 0, 1]),
}
FIELDS = {**FINITE, "Q": Q}


def _fresh_solve(k, m, b):
    """The earlier solve: one rref of the augmented matrix [m | b]."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    red, pivots = la.rref(k, [list(r) + [b[i]] for i, r in enumerate(m)])
    for row in red:
        if k.vec_is_zero(row[:cols]) and not k.is_zero(row[cols]):
            return None
    x = [k.zero()] * cols
    for r, p in enumerate(pivots):
        if p == cols:
            return None
        x[p] = red[r][cols]
    return x


def _minpoly_one_solve_per_power(k, one, times, coords):
    """The earlier loop: each new power solved for in the ones before it."""
    powers, x = [coords(one)], one
    while True:
        x = times(x)
        cur = coords(x)
        lower = _fresh_solve(k, la.transpose(powers, len(cur)), cur)
        if lower is not None:
            return [k.neg(c) for c in lower] + [k.one()]
        powers.append(cur)


def _nilpotent_algebra(k, n):
    """k[y]/(y^n), e_i = y^i, sigma the identity."""
    z, o = k.zero(), k.one()
    mul = [[[o if t == i + j else z for t in range(n)] for j in range(n)] for i in range(n)]
    return FinSigmaAlgebra(k, mul, [o] + [z] * (n - 1), la.identity(k, n))


def _algebras(name, rng):
    """(algebra, its nilpotent elements are those without e_0 term)."""
    k = FIELDS[name]
    if k is Q:
        # truncated_quotient_algebra needs a characteristic, so Q draws from
        # the point algebras and the conjugated nilpotent ones
        for _ in range(12):
            yield random_point_algebra(Q, rng, rng.randint(1, 4)), False
            yield conjugate(nilpotent_sigma_separable(Q, Q.sample(rng)),
                            random_invertible(Q, 2, rng)), False
    else:
        for _ in range(20 if k.order < 100 else 6):
            yield random_valid_algebra(k, rng, max_dim=5 if k.order < 100 else 3), False
    for n in (1, 2, 4):
        yield _nilpotent_algebra(k, n), True


def _elements(A, nilpotent, rng):
    """v = 0, v = 1, random v, and a nilpotent v in k[y]/(y^n)."""
    k = A.base
    yield A.zero_vec()
    yield list(A.unit)
    for _ in range(3):
        yield [k.sample(rng) for _ in range(A.dim)]
    if nilpotent:
        yield [k.zero()] + [k.sample(rng) for _ in range(A.dim - 1)]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_minimal_polynomial_equals_one_solve_per_power(name):
    k = FIELDS[name]
    rng = random.Random(f"echelon-minpoly-{name}")
    seen = 0
    for A, nilpotent in _algebras(name, rng):
        for v in _elements(A, nilpotent, rng):
            def times(x):
                return A.multiply(x, v)
            want = _minpoly_one_solve_per_power(k, list(A.unit), times, list)
            assert la.minimal_polynomial(k, list(A.unit), times, list) == want
            assert list(minimal_polynomial(A, v).coeffs) == want
            seen += 1
    assert seen > 40


def test_minimal_polynomial_of_a_nilpotent_and_of_a_zero_unit():
    k = PrimeField(5)
    A = _nilpotent_algebra(k, 4)
    y = A.basis_vec(1)

    def times(x):
        return A.multiply(x, y)

    assert la.minimal_polynomial(k, A.unit, times, list) == [0, 0, 0, 0, 1]
    # a zero unit gives no echelon row, so the relation starts at v, as the
    # earlier loop's free coordinate at the zero column did
    zero = A.zero_vec()
    got = la.minimal_polynomial(k, zero, times, list)
    assert got == _minpoly_one_solve_per_power(k, zero, times, list) == [0, 1]


def _matrix(k, rng, rows, cols, rank):
    """A rows x cols matrix of the given rank at most: a product through k^rank."""
    left = [[k.sample(rng) for _ in range(rank)] for _ in range(rows)]
    right = [[k.sample(rng) for _ in range(rank)] for _ in range(cols)]
    return [[k.dot(row, col) for col in right] for row in left]


SHAPES = {
    "square": (4, 4, 4), "rank-deficient": (5, 5, 2), "wide": (3, 6, 3),
    "tall": (7, 3, 3), "tall rank-deficient": (6, 4, 2), "zero": (3, 2, 0),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_solver_equals_a_fresh_rref_per_right_hand_side(name, shape):
    k = FIELDS[name]
    rows, cols, rank = SHAPES[shape]
    rng = random.Random(f"solver-{name}-{shape}")
    inconsistent = 0
    for _ in range(4):
        m = _matrix(k, rng, rows, cols, rank)
        solve = la.solver(k, m)
        rhs = [la.mat_vec(k, m, [k.sample(rng) for _ in range(cols)]) for _ in range(3)]
        rhs += [[k.sample(rng) for _ in range(rows)] for _ in range(3)]
        rhs.append([k.zero()] * rows)
        for b in rhs:
            want = _fresh_solve(k, m, b)
            assert solve(b) == want == la.solve(k, m, b)
            if want is None:
                inconsistent += 1
            else:
                assert la.mat_vec(k, m, want) == b
    if rank < rows:
        assert inconsistent


@pytest.mark.parametrize("name", ["F5", "F9", "Q"])
def test_solver_refuses_an_inconsistent_system(name):
    k = FIELDS[name]
    o, z = k.one(), k.zero()
    m = [[o, o], [o, o], [z, o]]
    solve = la.solver(k, m)
    assert solve([o, k.add(o, o), z]) is None
    assert solve([o, o, o]) == [z, o]
    assert la.solve(k, m, [z, o, z]) is None


class _RrefCounter:
    def __init__(self, monkeypatch):
        self.calls, rref = 0, la.rref

        def counted(k, m):
            self.calls += 1
            return rref(k, m)

        monkeypatch.setattr(la, "rref", counted)


def test_minimal_polynomial_makes_no_rref_call(monkeypatch):
    rng = random.Random("minpoly-no-rref")
    # conjugate's inverse runs an rref, so the draws are made before counting
    draws = [(A, v) for name in ("F3", "F4", "Q") for A, nilpotent in _algebras(name, rng)
             for v in _elements(A, nilpotent, rng)]
    counter = _RrefCounter(monkeypatch)
    for A, v in draws:
        minimal_polynomial(A, v)
    assert counter.calls == 0


@pytest.mark.parametrize("count", [1, 2, 5, 9])
def test_comul_witness_makes_one_rref_per_matrix(monkeypatch, count):
    k = PrimeField(5)
    rng = random.Random(f"witness-{count}")
    basis = [mp.from_dense(k, v, range(4)) for v in random_invertible(k, 4, rng)[:3]]
    products = [mp.mul(k, a, b, hopf._pair) for a in basis for b in basis]
    images = []
    for _ in range(count):
        img = {}
        for col in rng.sample(products, 3):
            mp.iadd(k, img, mp.scale(k, col, k.sample(rng)))
        images.append(img)
    counter = _RrefCounter(monkeypatch)
    witness = hopf._comul_witness(k, basis, images)
    assert counter.calls == 1
    assert witness is not None and len(witness) == count


def test_relative_basis_eliminates_its_matrix_once(monkeypatch):
    k, K = GaloisField(2, [1, 1, 1]), GaloisField(2, [1, 1, 0, 0, 1])
    embed = field_embedding(k, K)
    gammas, coord_fn = _relative_basis(k, K, embed)
    counter = _RrefCounter(monkeypatch)
    for z in list(K.all_elements())[:10]:
        back = K.zero()
        for c, g in zip(coord_fn(z), gammas):
            back = K.add(back, K.mul(embed(c), g))
        assert back == z
    assert counter.calls == 1


def test_etale_probe_builds_each_level_once(monkeypatch):
    made, make = [], diffpoly.LevelAlgebra.make
    monkeypatch.setattr(diffpoly.LevelAlgebra, "make",
                        staticmethod(lambda pres, n: made.append(n) or make(pres, n)))
    probe = hopf.union_of_etale_subalgebras_probe(product_carrier(5), 1)
    assert sorted(made) == [1, 2]
    assert probe["certificates"] and probe["all_etale"]


@pytest.mark.parametrize("name", ["F2", "F5", "F4", "F5^6", "Q"])
def test_a_point_algebras_table_holds_one_cell_per_row(name):
    k = FIELDS[name]
    A = diagonal_algebra(k, [1, 2, 0, 0, 3, 4])
    A.multiply(A.unit, A.unit)
    for table in (A._table, DifferenceField.bilinear_table(k, A.mul)):
        assert [[j for j, _ in row] for row in table] == [[i] for i in range(A.dim)]
