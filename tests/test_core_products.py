"""The strong core without needless products.

Four phases of findiff.strong_core read off what is already computed instead
of multiplying: a local factor of an algebra with A.dim primitive idempotents
is the line k e, the sigma-supports on the primitive idempotents are their
coordinates from one elimination, a Frobenius column e_i^q starts from the
table entry e_i^2, and a span with no membership equation descends without a
relative basis.  Each is checked against the loop it replaced, kept here as
the oracle, over F_2, F_3, F_5, F_4, F_8, F_9 and F_25.  The periodic atoms,
now the fibres of a power of the predecessor map, are checked against the
anchor walk they replaced in the same way.  The count test
guards the saving itself without timing anything, and the CLI test that no
invalid algebra gets a core keeps the guards that sit in these phases.
"""

import json
import math
import random
import subprocess
import sys

import pytest

from diffalg import _linalg as la
from diffalg import findiff
from diffalg.exactfield import GaloisField, PrimeField
from diffalg.findiff import (FinSigmaAlgebra, _irreducible_over_prime, _irreducible_part,
                             _local_factors, _periodic_idempotent_atoms, _sigma_supports,
                             _split_primitives_over_extension, base_change,
                             primitive_idempotents, splitting_extension, strong_core,
                             tensor_product)
from diffalg.instances import (conjugate, diagonal_algebra, field_algebra,
                               nilpotent_sigma_separable, random_invertible,
                               random_point_algebra, truncated_quotient_algebra)

FIELDS = {
    "F2": PrimeField(2), "F3": PrimeField(3), "F5": PrimeField(5),
    "F4": GaloisField(2, [1, 1, 1]), "F8": GaloisField(2, [1, 1, 0, 1]),
    "F9": GaloisField(3, [1, 0, 1]), "F25": GaloisField(5, [2, 1, 1]),
}


def _field_over_prime(k, degree):
    """F_(p^degree) as an F_p-algebra, read over k: a field of residue degree
    above 1 unless k splits it."""
    return base_change(field_algebra(k.p, list(_irreducible_over_prime(k.p, degree))), k)


def _algebras(k, rng):
    """Point algebras (A.dim primitive idempotents; in one, two points map to
    one and no point maps to another), a nilpotent product and base changes
    of F_p-fields, alone and tensored with a point algebra (fewer primitive
    idempotents than A.dim, residue degree 1 to 3)."""
    def hide(A):
        return conjugate(A, random_invertible(k, A.dim, rng))

    out = [random_point_algebra(k, rng, d, bijective=b) for d in (1, 3) for b in (True, False)]
    out.append(hide(diagonal_algebra(k, [0, 0, 1])))
    out.append(hide(tensor_product(nilpotent_sigma_separable(k, k.sample(rng)),
                                   random_point_algebra(k, rng, 2, conjugated=False))))
    out += [truncated_quotient_algebra(k, rng, 3) for _ in range(2)]
    for degree in (2, 3):
        field = _field_over_prime(k, degree)
        out.append(field)
        out.append(hide(tensor_product(field, random_point_algebra(k, rng, 2, conjugated=False))))
    return out


def _over_splitting_extension(A, factors):
    """The base change to the splitting extension and its primitive
    idempotents, as strong_core finds them from the local factors."""
    N = 1
    for _, d, _, _ in factors:
        N = math.lcm(N, d)
    K, embed = splitting_extension(A.base, N)
    AN = base_change(A, K, embed)
    return AN, K, embed, _split_primitives_over_extension(AN, K, embed, factors)


def _local_factors_by_span(A):
    """The earlier loop: every e A spanned, and each basis vector's minimal
    polynomial found, also where e A is a line."""
    k = A.base
    out = []
    for e in primitive_idempotents(A):
        span = la.SpanBasis(k, A.dim)
        for i in range(A.dim):
            span.add(A.multiply(e.coords, A.basis_vec(i)))
        basis = span.basis()
        d, best = 1, None
        for b in basis:
            db, mb = _irreducible_part(A, b, e.coords)
            d = math.lcm(d, db)
            if best is None or db > best[0]:
                best = (db, b, mb)
        if best[0] != d:
            rng = random.Random(0xA70A ^ A.dim)
            while best[0] != d:
                v = A.zero_vec()
                for b in basis:
                    v = A.vec_add(v, A.scalar_mul(k.from_int(rng.randrange(k.order)), b))
                dv, mv = _irreducible_part(A, v, e.coords)
                if dv == d:
                    best = (d, v, mv)
        out.append((e.coords, d, best[1], best[2], span.dim()))
    return out


def _supports_by_products(A, prim_vecs):
    """The earlier loop: f sigma(e) is f or 0 for every primitive f, and the
    f it keeps resum to sigma(e)."""
    supp = []
    for e in prim_vecs:
        s = A.apply_sigma(e)
        T, recon = [], A.zero_vec()
        for j, f in enumerate(prim_vecs):
            prod = A.multiply(f, s)
            if A.vec_eq(prod, f):
                T.append(j)
                recon = A.vec_add(recon, f)
            elif not A.vec_is_zero(prod):
                raise AssertionError("sigma image is not a sum of primitive idempotents")
        if not A.vec_eq(recon, s):
            raise AssertionError("sigma image failed idempotent reconstruction")
        supp.append(frozenset(T))
    return supp


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_local_factors_match_the_per_factor_span(name):
    k = FIELDS[name]
    shapes = set()
    for A in _algebras(k, random.Random(f"local-factors-{name}")):
        got, want = _local_factors(A), _local_factors_by_span(A)
        assert [(e, d) for e, d, _, _ in got] == [(e, d) for e, d, _, _, _ in want]
        split = len(got) == A.dim
        # A.dim primitive idempotents: every e A is a line, at degree 1
        assert split == all(dim == 1 for *_, dim in want)
        for (e, d, b, m), (_, _, b0, m0, _) in zip(got, want):
            assert A.vec_is_zero(A.evaluate_poly(m, b, unit=e))
            if split:
                assert d == 1 and m.degree() == 1 and A.vec_eq(b, e)
            else:
                assert A.vec_eq(b, b0) and m.coeffs == m0.coeffs
        AN, K, embed, prims = _over_splitting_extension(A, got)
        assert prims == _split_primitives_over_extension(AN, K, embed, [f[:4] for f in want])
        shapes.add((split, max(d for _, d, _, _ in got)))
    assert {(True, 1), (False, 1)} <= shapes
    assert any(not split and d > 1 for split, d in shapes)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_sigma_supports_match_the_products(name):
    k = FIELDS[name]
    sizes = set()
    for A in _algebras(k, random.Random(f"sigma-supports-{name}")):
        AN, _, _, prims = _over_splitting_extension(A, _local_factors(A))
        got = _sigma_supports(AN, prims)
        assert got == _supports_by_products(AN, prims)
        sizes.update(map(len, got))
    # empty supports (a point outside the image) and sums of several
    assert {0, 1, 2} <= sizes


def test_a_sigma_image_off_the_idempotent_sums_is_refused_by_both():
    F5 = FIELDS["F5"]
    scaled = diagonal_algebra(F5, [0, 1])
    scaled.sigma[0][0] = F5.from_int(2)           # sigma(e0) = 2 e0
    swap = diagonal_algebra(F5, [1, 0])
    for A, prims in ((scaled, [scaled.basis_vec(0), scaled.basis_vec(1)]),
                     (swap, [swap.basis_vec(0)])):   # sigma(e0) = e1 is missing
        for supports in (_sigma_supports, _supports_by_products):
            with pytest.raises(AssertionError, match="sigma image"):
                supports(A, prims)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_frobenius_columns_match_powering_each_basis_vector(name, monkeypatch):
    k = FIELDS[name]
    seen, nullspace = [], la.nullspace
    monkeypatch.setattr(la, "nullspace", lambda k_, m: seen.append(m) or nullspace(k_, m))
    for A in _algebras(k, random.Random(f"frobenius-{name}")):
        seen.clear()
        primitive_idempotents(A)
        cols = [A.power(A.basis_vec(i), k.order) for i in range(A.dim)]
        want = [[k.sub(cols[j][i], k.one() if i == j else k.zero()) for j in range(A.dim)]
                for i in range(A.dim)]
        assert seen == [want]


def _atoms_by_anchor_walk(A, prim_vecs):
    """The earlier loop: walk each recurrent primitive idempotent along its
    predecessor map pi to its cycle, collect the cycles, and take as the
    atom of x the cycle point that pi takes in d steps to where x is after
    its d steps to the cycle."""
    supp = _sigma_supports(A, prim_vecs)
    U = frozenset(range(len(prim_vecs)))
    while True:
        U2 = frozenset(j for i in U for j in supp[i])
        if U2 == U:
            break
        U = U2
    if not U:
        return []
    pi = {}
    for j in U:
        owners = [i for i in U if j in supp[i]]
        if len(owners) != 1:
            raise AssertionError("recurrent primitive with non-unique predecessor")
        pi[j] = owners[0]
    omega = set()
    for start in U:
        cur, seen = start, set()
        while cur not in seen:
            seen.add(cur)
            cur = pi[cur]
        c = cur                      # on the cycle reached from start
        while True:
            omega.add(c)
            c = pi[c]
            if c == cur:
                break
    rho_inv = {pi[w]: w for w in omega}
    atoms = {}
    for x in U:
        d, b = 0, x
        while b not in omega:
            b, d = pi[b], d + 1
        for _ in range(d):
            b = rho_inv[b]
        atoms.setdefault(b, set()).add(x)
    out = []
    for w in sorted(atoms):
        vec = A.zero_vec()
        for i in atoms[w]:
            vec = A.vec_add(vec, prim_vecs[i])
        out.append(vec)
    return out


# point maps with tails into several cycles: 0 -> 1 -> 2 -> 0 and 5 <-> 6 with
# 4 -> 3 -> 0 and 8 -> 7 -> 5; a fixed point and a 2-cycle, each with tails of
# lengths 1 and 2; a 3-cycle with tails of lengths 1 to 3 and a 2-cycle with none
TAILED_POINT_MAPS = ([1, 2, 0, 0, 3, 6, 5, 5, 7], [0, 0, 1, 4, 3, 4, 5],
                     [1, 2, 0, 0, 3, 4, 2, 8, 7, 1])


def _cycle_points(point_map):
    """The points on a cycle of the map: those its |map|-th power reaches."""
    out = set(range(len(point_map)))
    for _ in point_map:
        out = {point_map[i] for i in out}
    return out


def _tailed_point_algebras(k, rng):
    """(algebra, the number of its atoms, or None where not fixed here): the
    tailed point maps hidden by a change of basis, whose periodic atoms are
    as many as their points on cycles, and seeded maps of dimension 6 to 8."""
    out = [(conjugate(diagonal_algebra(k, pm), random_invertible(k, len(pm), rng)),
            len(_cycle_points(pm))) for pm in TAILED_POINT_MAPS]
    return out + [(random_point_algebra(k, rng, d), None) for d in (6, 7, 8)]


def _atom_family(family):
    rng = random.Random(f"atoms-{family}")
    if family == "points":
        return [A for name in ("F2", "F3", "F5") for A in _tailed_point_algebras(FIELDS[name], rng)]
    if family == "base-changed":
        return [(base_change(A, FIELDS[big]), count)
                for small, bigs in (("F2", ("F4", "F8")), ("F3", ("F9",)))
                for A, count in _tailed_point_algebras(FIELDS[small], rng) for big in bigs]
    return [(A, None) for A in _count_algebras()]


@pytest.mark.parametrize("family", ["points", "base-changed", "seeded"])
def test_atoms_are_the_anchor_walks_atoms(family):
    merged = 0
    for A, count in _atom_family(family):
        AN, K, _, prims = _over_splitting_extension(A, _local_factors(A))
        got, want = _periodic_idempotent_atoms(AN, prims), _atoms_by_anchor_walk(AN, prims)
        # the same atoms, perhaps in another order, so the same span
        assert sorted(map(K.vec_to_json, got)) == sorted(map(K.vec_to_json, want))
        spans = [la.SpanBasis(K, AN.dim) for _ in (got, want)]
        for span, atoms in zip(spans, (got, want)):
            for v in atoms:
                span.add(v)
        assert spans[0].equals(spans[1])
        if count is not None:
            assert len(got) == count
        merged += len(got) < len(prims)
    # some atom joins a tail point to a cycle point
    assert merged


def test_a_non_multiplicative_sigma_is_refused_by_both_atom_finders():
    A = FinSigmaAlgebra.from_json(INVALID["sigma-multiplicativity"])
    AN, _, _, prims = _over_splitting_extension(A, _local_factors(A))
    for atoms in (_periodic_idempotent_atoms, _atoms_by_anchor_walk):
        with pytest.raises(AssertionError, match="non-unique predecessor"):
            atoms(AN, prims)


@pytest.mark.parametrize("name", ["F4", "F9"])
def test_a_core_with_no_membership_equation_builds_no_relative_basis(name, monkeypatch):
    # sigma is bijective on both (a point permutation; Frobenius on F_(p^3)
    # read over k, tensored with a swap), so every idempotent is periodic and
    # the core is the whole algebra; the second is split over a degree-3
    # extension
    k = FIELDS[name]

    def refuse(*args):
        pytest.fail("a relative basis was built")

    monkeypatch.setattr(findiff, "_relative_basis", refuse)
    for A in (random_point_algebra(k, random.Random(name), 3, bijective=True),
              tensor_product(_field_over_prime(k, 3), diagonal_algebra(k, [1, 0]))):
        assert strong_core(A).span.dim() == A.dim


# -- invalid algebras ----------------------------------------------------------------


def _unit(n, i):
    return [int(t == i) for t in range(n)]


E2, E3, Z2 = [_unit(2, i) for i in range(2)], [_unit(3, i) for i in range(3)], [0, 0]
F5_DOC, F3_DOC = {"kind": "Fq", "p": 5}, {"kind": "Fq", "p": 3}
INVALID = {
    # e0 and e1 are orthogonal idempotents, but the unit [1, 0] fixes e0 only
    "unit-law": {"base": F5_DOC, "unit": [1, 0], "mul": [[E2[0], Z2], [Z2, E2[1]]],
                 "sigma": E2},
    # commutative and unital, not associative: e1e1 = e2, e1e2 = e1, e2e2 = e0
    "associativity": {"base": F5_DOC, "unit": E3[0],
                      "mul": [E3, [E3[1], E3[2], E3[1]], [E3[2], E3[1], E3[0]]], "sigma": E3},
    # F_5 x F_5 with sigma(e1) = e0 + e1: sigma(e0 e1) = 0, sigma(e0) sigma(e1) = e0
    "sigma-multiplicativity": {"base": F5_DOC, "unit": [1, 1], "mul": [[E2[0], Z2], [Z2, E2[1]]],
                               "sigma": [[1, 1], [0, 1]]},
    # not associative over F_3 ((e1 e1) e2 != e1 (e1 e2)): a local factor whose
    # basis asks for a residue degree no combination of it reaches, where the
    # residue-primitive search once drew for ever
    "residue-search": {"base": F3_DOC, "unit": E3[0],
                       "mul": [E3, [E3[1], [1, 2, 0], [0, 1, 2]], [E3[2], [0, 1, 2], [2, 2, 2]]],
                       "sigma": [[1, 0, 1], [0, 2, 0], [0, 2, 0]]},
}


@pytest.mark.parametrize("name", sorted(INVALID))
def test_core_never_certifies_an_invalid_algebra(name, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(INVALID[name]))
    proc = subprocess.run([sys.executable, "-m", "diffalg.cli", "core", str(path),
                           "--format", "json"], capture_output=True, text=True, timeout=60)
    # an input error, reported as JSON, not a traceback
    assert (proc.returncode, proc.stderr) == (1, "")
    assert "error" in json.loads(proc.stdout)


# -- product counts --------------------------------------------------------------------


def _count_algebras():
    """A fixed seeded list over F_2, F_3 and F_5 in the shapes of the core
    benchmark: point algebras, a nilpotent one, F_p-fields of degree 2 and
    3, quotients k[y]/(f), base changes to F_(p^2) and a tensor."""
    out = []
    for p in (2, 3, 5):
        k, rng = PrimeField(p), random.Random(f"core-products-{p}")
        points = [random_point_algebra(k, rng, d, bijective=b) for d in (2, 3, 4)
                  for b in (True, False)]
        nilpotent = conjugate(nilpotent_sigma_separable(k, k.one()), random_invertible(k, 2, rng))
        fields = [_field_over_prime(k, 2), _field_over_prime(k, 3)]
        quotients = [truncated_quotient_algebra(k, rng, d) for d in (2, 3)]
        K = GaloisField(p, list(_irreducible_over_prime(p, 2)))
        out += points + [nilpotent] + fields + quotients
        out += [base_change(A, K) for A in (points[0], points[3], nilpotent, fields[1],
                                            quotients[1])]
        out.append(tensor_product(fields[0], random_point_algebra(k, rng, 3, conjugated=False)))
    return out


# The counts this strong core reaches on _count_algebras(); the loops it
# replaced made 2,174 products and 583 span insertions on the same list, and
# 318 insertions were made while the core re-spanned the descent's basis.
MULTIPLY_BOUND, SPAN_ADD_BOUND = 1_300, 243


def test_strong_core_product_and_span_counts(monkeypatch):
    algebras = _count_algebras()
    counts = {"multiply": 0, "add": 0}
    multiply, add = FinSigmaAlgebra.multiply, la.SpanBasis.add

    def counted_multiply(self, u, v):
        counts["multiply"] += 1
        return multiply(self, u, v)

    def counted_add(self, v):
        counts["add"] += 1
        return add(self, v)

    monkeypatch.setattr(FinSigmaAlgebra, "multiply", counted_multiply)
    monkeypatch.setattr(la.SpanBasis, "add", counted_add)
    for A in algebras:
        strong_core(A)
    assert counts["multiply"] <= MULTIPLY_BOUND
    assert counts["add"] <= SPAN_ADD_BOUND
