"""Finite-dimensional difference algebras: predicates, idempotents, cores."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import diffalg._linalg as la
import diffalg._multipoly as mp
from diffalg import findiff
from diffalg.exactfield import DifferenceField, GaloisField, PrimeField, Rationals
from diffalg.diffpoly import UnsupportedPresentationError
from diffalg.findiff import (CompatibilityError, FinSigmaAlgebra,
                             RestrictedAutomationError, ZeroRingError, algebra_on_basis,
                             algebra_validate, base_change, field_embedding,
                             is_etale, is_periodic, is_sigma_reduced,
                             is_sigma_separable, is_strongly_sigma_etale,
                             minimal_polynomial, primitive_idempotents,
                             quotient_by_sigma_ideal, restrict_scalars,
                             sigma_subalgebra_generated, splitting_extension,
                             strong_core, tensor_product, twist_and_psi,
                             _default_horizon, _local_factors, _relative_basis)
from diffalg.instances import (conjugate, diagonal_algebra, field_algebra,
                               nilpotent_sigma_separable, random_invertible,
                               random_point_algebra, random_strongly_setale,
                               random_valid_algebra, truncated_quotient_algebra)
from diffalg.poly import Poly, factor_over_finite_field

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def collapsed_pair(k):
    """Two points; sigma sends one indicator to one and the other to zero."""
    return diagonal_algebra(k, [0, 0])


def swap_pair(k):
    return diagonal_algebra(k, [1, 0])


def poly_quotient(k, coeffs_f, image_exp):
    """k[y]/(f) with sigma(y) = y^image_exp, as explicit structure data."""
    from diffalg import _polycore as pc

    f = [k.canon(c) for c in coeffs_f]
    n = len(f) - 1
    pows = []
    for e in range(2 * n):
        xe = pc.mod(k, pc.shift(k, [k.one()], e), f)
        pows.append(list(xe) + [k.zero()] * (n - len(xe)))
    mul = [[list(pows[i + j]) for j in range(n)] for i in range(n)]
    unit = [k.one()] + [k.zero()] * (n - 1)
    sig_cols = []
    for e in range(n):
        ye = pc.mod(k, pc.shift(k, [k.one()], e * image_exp), f)
        sig_cols.append(list(ye) + [k.zero()] * (n - len(ye)))
    sigma = [[sig_cols[c][r] for c in range(n)] for r in range(n)]
    return FinSigmaAlgebra(k, mul, unit, sigma)


# -- validation ------------------------------------------------------------------


def test_validation_accepts_the_gallery():
    for A in (collapsed_pair(F5), swap_pair(F5), field_algebra(2, [1, 1, 1])):
        assert algebra_validate(A).ok


def test_validation_reports_commutativity_defect():
    A = swap_pair(F5)
    A.mul[0][1] = [F5.one(), F5.zero()]     # break e1*e2 without touching e2*e1
    rep = algebra_validate(A)
    assert not rep.ok
    assert any(v[0] == "commutativity" for v in rep.violations)


def test_validation_reports_sigma_unit_defect():
    A = swap_pair(F5)
    A.sigma[0][0] = F5.one()    # sigma(e1) = e1 + e2 while sigma(e2) = e1
    rep = algebra_validate(A)
    assert not rep.ok
    assert any("sigma" in v[0] for v in rep.violations)


# -- predicates -------------------------------------------------------------------


def test_collapsed_pair_predicate_profile():
    R1 = collapsed_pair(F5)
    assert not is_sigma_separable(R1)
    assert not is_sigma_reduced(R1)
    assert is_etale(R1)
    assert not is_strongly_sigma_etale(R1)


def test_swap_pair_predicate_profile():
    SW = swap_pair(F5)
    assert is_sigma_separable(SW) and is_etale(SW)
    assert is_strongly_sigma_etale(SW)


def test_field_case_predicates():
    A = field_algebra(2, [1, 1, 1])
    assert is_sigma_separable(A) and is_etale(A) and is_strongly_sigma_etale(A)


def test_etale_cross_checked_with_factorization():
    # split <=> squarefree defining polynomial, cross-check the trace form
    square_free = poly_quotient(F5, [4, 0, 1], 1)   # y^2 - 1
    doubled = poly_quotient(F5, [0, 0, 1], 1)       # y^2
    assert is_etale(square_free)
    assert not is_etale(doubled)
    from diffalg.poly import Poly

    fl = factor_over_finite_field(Poly.from_ints(F5, [4, 0, 1]))
    assert all(m == 1 for _, m in fl.factors)


def test_nilpotent_sigma_separable_profile():
    A = nilpotent_sigma_separable(F5, F5.from_int(2))
    assert is_sigma_separable(A) and not is_etale(A)


def test_separability_reduction_equivalence_over_inversive_bases():
    rng = random.Random(17)
    for _ in range(200):
        k = (F2, F3, F5)[rng.randrange(3)]
        A = random_valid_algebra(k, rng, max_dim=4)
        assert is_sigma_separable(A) == is_sigma_reduced(A)


def test_frobenius_structures_tie_separability_to_etale():
    # with sigma the p-power map, sigma-separable and etale coincide
    rng = random.Random(19)
    count = 0
    for p in (2, 3):
        k = PrimeField(p)
        for _ in range(60):
            dim = rng.randint(1, 4)
            coeffs = [k.sample(rng) for _ in range(dim)] + [k.one()]
            A = poly_quotient(k, coeffs, p)
            assert algebra_validate(A).ok
            assert is_sigma_separable(A) == is_etale(A)
            count += 1
    assert count == 120


# -- idempotents --------------------------------------------------------------------


def test_primitive_idempotents_of_split_quadratic():
    A = poly_quotient(F5, [4, 0, 1], 1)   # y^2 = 1
    prims = primitive_idempotents(A)
    assert len(prims) == 2
    # the indicator idempotents (1 +- y)/2 with 1/2 = 3 mod 5
    found = {tuple(e.coords) for e in prims}
    assert found == {(3, 3), (3, 2)}
    e1, e2 = [e.coords for e in prims]
    assert A.vec_is_zero(A.multiply(e1, e2))
    assert A.vec_eq(A.vec_add(e1, e2), A.unit)


def test_primitive_idempotents_of_a_field():
    A = field_algebra(3, [1, 0, 1])
    prims = primitive_idempotents(A)
    assert len(prims) == 1
    assert A.vec_eq(prims[0].coords, A.unit)


def test_primitive_idempotents_with_radical_part():
    # y^2(y+1): one local factor with nilpotents, one reduced point
    A = poly_quotient(F2, [0, 0, 1, 1], 1)
    prims = primitive_idempotents(A)
    assert len(prims) == 2


def test_supplied_idempotents_are_verified():
    A = swap_pair(F5)
    with pytest.raises(ValueError):
        primitive_idempotents(A, supplied=[[F5.from_int(2), F5.zero()]])
    ok = primitive_idempotents(A, supplied=[A.basis_vec(0), A.basis_vec(1)])
    assert len(ok) == 2


def test_enumeration_needs_finite_base_or_supplied_data():
    Q = Rationals()
    one = Q.one()
    zero = Q.zero()
    A = FinSigmaAlgebra(Q, [[[one]]], [one], [[one]])
    # dim-1 over Q: restricted automation
    with pytest.raises(RestrictedAutomationError):
        primitive_idempotents(A)


ORACLE_FIELDS = {"F2": F2, "F3": F3, "F4": GaloisField(2, [1, 1, 1]), "F5": F5,
                 "F9": GaloisField(3, [1, 0, 1])}


def _elements(k):
    return list(k.all_elements()) if isinstance(k, GaloisField) else list(range(k.p))


def _brute_primitive_idempotents(A):
    """The minimal nonzero idempotents, found among all q^n elements."""
    idem = [list(v) for v in itertools.product(_elements(A.base), repeat=A.dim)
            if A.is_idempotent(list(v)) and not A.vec_is_zero(list(v))]
    return sorted(tuple(e) for e in idem
                  if not any(f != e and A.vec_eq(A.multiply(e, f), f) for f in idem))


def _monic(k, rng, degree):
    return [k.sample(rng) for _ in range(degree)] + [k.one()]


def _oracle_algebras(k, rng):
    """Seeded, conjugated algebras over k with q^dim <= 729 and at most six
    local factors."""
    from diffalg import _polycore as pc

    n = min(6, max(d for d in range(1, 7) if k.order ** d <= 729))

    def hide(A):
        return conjugate(A, random_invertible(k, A.dim, rng))

    out = [random_point_algebra(k, rng, d, bijective=b) for d in (2, n) for b in (True, False)]
    # k[y]/(g^2 h): a repeated linear factor and a random cofactor
    g = _monic(k, rng, 1)
    out.append(hide(poly_quotient(k, pc.mul(k, pc.mul(k, g, g), _monic(k, rng, n - 2)), 1)))
    # a field k[y]/(f), f irreducible of degree min(n, 3)
    while True:
        f = _monic(k, rng, min(n, 3))
        fl = factor_over_finite_field(Poly.make(k, f)).factors
        if len(fl) == 1 and fl[0][0].degree() == len(f) - 1:
            break
    out.append(hide(poly_quotient(k, f, 1)))
    out.append(hide(nilpotent_sigma_separable(k, k.sample(rng))))
    return out


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_primitive_idempotents_match_brute_force(name):
    k = ORACLE_FIELDS[name]
    for A in _oracle_algebras(k, random.Random(f"idempotent-oracle-{name}")):
        got = [tuple(e.coords) for e in primitive_idempotents(A)]
        assert sorted(got) == _brute_primitive_idempotents(A)


def test_primitive_idempotents_of_a_tensor_of_fields_match_brute_force():
    # F_8 (x) F_8 over F_2 is F_8^3: three idempotents no basis vector shows
    F8 = field_algebra(2, [1, 1, 0, 1])
    T = tensor_product(F8, F8)
    A = conjugate(T, random_invertible(F2, T.dim, random.Random("idempotent-oracle-tensor")))
    got = [tuple(e.coords) for e in primitive_idempotents(A)]
    assert len(got) == 3 and sorted(got) == _brute_primitive_idempotents(A)


def test_non_associative_input_raises_instead_of_hanging():
    # commutative and unital over F_5 but not associative: e1e1 = e2,
    # e1e2 = e1, e2e2 = e0
    e = la.identity(F5, 3)
    mul = [[e[0], e[1], e[2]], [e[1], e[2], e[1]], [e[2], e[1], e[0]]]
    A = FinSigmaAlgebra(F5, mul, e[0], la.identity(F5, 3))
    with pytest.raises(AssertionError, match="primitive idempotent count mismatch"):
        primitive_idempotents(A)


def test_splitter_gives_up_after_its_round_cap(monkeypatch):
    # a field claimed to have two local factors never splits
    A = field_algebra(3, [1, 0, 1])
    rounds, power = [], mp.power
    monkeypatch.setattr(mp, "power",
                        lambda f, e, one, mul: rounds.append(e) or power(f, e, one, mul))
    with pytest.raises(AssertionError, match="primitive idempotent count mismatch"):
        la.split_idempotents(A.base, A.unit, [A.unit, A.unit], A.multiply)
    assert len(rounds) == la._SPLIT_ROUNDS


def test_residue_primitive_search_gives_up_after_its_round_cap(monkeypatch):
    # F_9 over F_3 is one local factor of dimension 2; degrees 2 and 3 claimed
    # for its basis vectors ask for a degree-6 element that no draw is
    draws = []

    def claimed_degree(A, v, unit):
        draws.append(v)
        return {1: 2, 2: 3}.get(len(draws), 1), None

    monkeypatch.setattr(findiff, "_irreducible_part", claimed_degree)
    with pytest.raises(AssertionError, match="no residue-primitive element"):
        _local_factors(field_algebra(3, [1, 0, 1]))
    assert len(draws) == 2 + la._SPLIT_ROUNDS


# -- periodicity ----------------------------------------------------------------------


def test_periodicity_examples():
    SW = swap_pair(F5)
    res = is_periodic(SW, SW.basis_vec(0))
    assert res.is_periodic() and res.period == 2

    R1 = collapsed_pair(F5)
    res2 = is_periodic(R1, R1.basis_vec(1))
    assert res2.status == "nonperiodic" and res2.reason == "orbit-hits-zero"
    res3 = is_periodic(R1, R1.basis_vec(0))
    assert res3.status == "nonperiodic"

    ident = diagonal_algebra(F5, [0, 1])
    res4 = is_periodic(ident, ident.basis_vec(0))
    assert res4.is_periodic() and res4.period == 1


# -- subalgebras and quotients -----------------------------------------------------------


def test_subalgebra_generated_by_nothing_is_scalars():
    SW = swap_pair(F5)
    sub, incl = sigma_subalgebra_generated(SW, [])
    assert sub.dim == 1 and incl.validate().ok


def test_subalgebra_generated_by_one_indicator_is_everything():
    SW = swap_pair(F5)
    sub, incl = sigma_subalgebra_generated(SW, [SW.basis_vec(0)])
    assert sub.dim == 2 and incl.validate().ok


def test_generated_by_periodic_idempotents_is_strongly_setale():
    rng = random.Random(23)
    for _ in range(50):
        A = random_point_algebra(F5, rng, rng.randint(2, 4))
        prims = primitive_idempotents(A)
        periodic = [e.coords for e in prims
                    if is_periodic(A, e.coords).is_periodic()]
        sub, _ = sigma_subalgebra_generated(A, periodic)
        assert is_strongly_sigma_etale(sub)


def test_quotient_by_whole_algebra_rejected():
    SW = swap_pair(F5)
    with pytest.raises(ZeroRingError):
        quotient_by_sigma_ideal(SW, [SW.basis_vec(0)])


def test_quotient_by_zero_ideal_is_identity():
    SW = swap_pair(F5)
    Q, proj = quotient_by_sigma_ideal(SW, [])
    assert Q.dim == SW.dim and proj.validate().ok


def test_quotient_of_collapsed_pair():
    R1 = collapsed_pair(F5)
    Q, proj = quotient_by_sigma_ideal(R1, [R1.basis_vec(1)])
    assert Q.dim == 1 and proj.validate().ok


# -- tensor products ----------------------------------------------------------------------


def test_tensor_unit_law():
    SW = swap_pair(F5)
    one_dim = diagonal_algebra(F5, [0])
    T = tensor_product(one_dim, SW)
    assert T.dim == 2 and algebra_validate(T).ok
    assert is_strongly_sigma_etale(T)


def test_tensor_of_swaps_has_two_two_cycles():
    SW = swap_pair(F5)
    T = tensor_product(SW, SW)
    assert algebra_validate(T).ok
    prims = primitive_idempotents(T)
    periods = sorted(is_periodic(T, e.coords).period for e in prims)
    assert periods == [2, 2, 2, 2]


def test_tensor_mixed_bases_rejected():
    with pytest.raises(TypeError):
        tensor_product(swap_pair(F5), swap_pair(F3))


# -- twist and the canonical map -------------------------------------------------------------


def test_twist_psi_is_a_morphism_and_detects_separability():
    rng = random.Random(31)
    for _ in range(40):
        A = random_valid_algebra(F5, rng, max_dim=4)
        twisted, psi = twist_and_psi(A)
        assert psi.validate().ok
        assert (la.rank(F5, psi.matrix) == A.dim) == is_sigma_separable(A)


def test_twist_psi_kernel_on_collapsed_pair():
    R1 = collapsed_pair(F5)
    _, psi = twist_and_psi(R1)
    assert la.rank(F5, psi.matrix) == 1
    kernel = la.nullspace(F5, psi.matrix)
    assert len(kernel) == 1


def test_twist_psi_bijective_over_inversive_base_when_separable():
    SW = swap_pair(F5)
    _, psi = twist_and_psi(SW)
    assert la.rank(F5, psi.matrix) == 2


# -- strong cores -------------------------------------------------------------------------------


def test_strong_core_of_collapsed_pair_is_scalars():
    core = strong_core(collapsed_pair(F5))
    assert core.algebra.dim == 1 and core.complete
    assert core.inclusion.validate().ok


def test_strong_core_of_swap_is_everything():
    core = strong_core(swap_pair(F5))
    assert core.algebra.dim == 2


def test_strong_core_of_field_extension_is_everything():
    A = field_algebra(3, [1, 0, 1])
    core = strong_core(A)
    assert core.algebra.dim == 2


def test_strong_core_hidden_by_conjugation():
    rng = random.Random(41)
    A = collapsed_pair(F5)
    C = conjugate(A, random_invertible(F5, 2, rng))
    core = strong_core(C)
    assert core.algebra.dim == 1


def test_strong_core_tensor_of_named_factors():
    R1 = collapsed_pair(F5)
    SW = swap_pair(F5)
    assert strong_core(tensor_product(R1, SW)).algebra.dim == 2
    assert strong_core(tensor_product(R1, R1)).algebra.dim == 1


def test_strong_core_matches_exhaustive_span_on_every_small_point_map():
    import itertools

    from diffalg.suites import _oracle_periodic_span

    for p in (2, 3):
        k = PrimeField(p)
        for n in (2, 3):
            for pm in itertools.product(range(n), repeat=n):
                A = diagonal_algebra(k, list(pm))
                assert strong_core(A).span.equals(_oracle_periodic_span(A)), pm


def test_strong_core_on_tree_over_cycle_dynamics():
    from diffalg.suites import _oracle_periodic_span

    rng = random.Random(2)
    k = PrimeField(2)
    for pm in [(1, 0, 0, 0), (1, 2, 0, 0), (0, 0, 1, 2), (3, 2, 1, 0),
               (1, 1, 1, 1), (2, 3, 3, 2)]:
        A = conjugate(diagonal_algebra(k, list(pm)), random_invertible(k, 4, rng))
        assert strong_core(A).span.equals(_oracle_periodic_span(A)), pm


# every table field with q^n <= 729 at the largest dimension drawn over it
TABLE_CORE_FIELDS = {"F4": (GaloisField(2, [1, 1, 1]), 4), "F8": (GaloisField(2, [1, 1, 0, 1]), 3),
                     "F8-sigma-4th-power": (GaloisField(2, [1, 1, 0, 1], 2), 3),
                     "F9": (GaloisField(3, [1, 0, 1]), 3), "F25": (GaloisField(5, [2, 1, 1]), 2)}


@pytest.mark.parametrize("name", sorted(TABLE_CORE_FIELDS))
@settings(derandomize=True, max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_strong_core_matches_exhaustive_span_over_table_fields(name, seed):
    # the periodic idempotents span the core when every residue field of A
    # is the base field; otherwise they span part of it.  A is split so
    # exactly when its nilpotents number q^(n - r), r = log2 #idempotents.
    from diffalg.suites import _all_vectors, _oracle_periodic_span

    k, max_dim = TABLE_CORE_FIELDS[name]
    A = random_valid_algebra(k, random.Random(seed), max_dim=max_dim)
    vectors = list(_all_vectors(k, A.dim))
    r = sum(map(A.is_idempotent, vectors)).bit_length() - 1
    nilpotents = sum(A.vec_is_zero(A.power(v, A.dim)) for v in vectors)
    core, oracle = strong_core(A).span, _oracle_periodic_span(A)
    assert all(core.contains(v) for v in oracle.basis())
    if nilpotents * k.order ** r == k.order ** A.dim:
        assert core.equals(oracle)


def test_is_periodic_unknown_at_tiny_horizon():
    SW = swap_pair(F5)
    res = is_periodic(SW, SW.basis_vec(0), horizon=1)
    assert res.status == "unknown"


def test_strong_core_lower_bound_over_rationals():
    Q = Rationals()
    one, zero = Q.one(), Q.zero()
    mul = [[[one, zero], [zero, one]], [[zero, one], [one, zero]]]
    unit = [one, zero]
    sigma = [[one, zero], [zero, one]]
    A = FinSigmaAlgebra(Q, mul, unit, sigma)   # group algebra of Z/2 over Q
    core = strong_core(A, supplied_idempotents=[])
    assert not core.complete and core.algebra.dim >= 1


def test_sigma_permutes_primitive_idempotents_when_strongly_setale():
    rng = random.Random(43)
    for _ in range(60):
        A = random_strongly_setale(F5, rng, max_dim=4)
        prims = [e.coords for e in primitive_idempotents(A)]
        images = [A.apply_sigma(e) for e in prims]
        for img in images:
            assert any(A.vec_eq(img, e) for e in prims)
        keys = {repr([F5.scalar_to_json(c) for c in img]) for img in images}
        assert len(keys) == len(prims)
        for e in prims:
            assert is_periodic(A, e).is_periodic()


# -- base change -------------------------------------------------------------------------------


def test_base_change_preserves_predicates():
    rng = random.Random(47)
    for _ in range(60):
        k = (F2, F3, F5)[rng.randrange(3)]
        A = random_valid_algebra(k, rng, max_dim=3)
        K, embed = splitting_extension(k, rng.randint(2, 3))
        AK = base_change(A, K, embed)
        assert algebra_validate(AK).ok
        assert AK.dim == A.dim
        assert is_strongly_sigma_etale(A) == is_strongly_sigma_etale(AK)
        assert is_sigma_separable(A) == is_sigma_separable(AK)
        assert is_etale(A) == is_etale(AK)


def test_base_change_of_base_field_is_target():
    k = F3
    one = k.one()
    A = FinSigmaAlgebra(k, [[[one]]], [one], [[one]])
    K, embed = splitting_extension(k, 2)
    AK = base_change(A, K, embed)
    assert AK.dim == 1 and AK.base == K


def test_field_embedding_checks_each_condition_on_the_pair():
    F4, F16 = GaloisField(2, [1, 1, 1]), GaloisField(2, [1, 1, 0, 0, 1])
    for k, K, error in [
            (F3, F4, "different characteristics"),
            (F4, GaloisField(3, [1, 0, 1]), "different characteristics"),
            (F4, GaloisField(2, [1, 1, 0, 1]), "required degree"),
            (F4, F2, "required degree"),
            (F4, GaloisField(2, [1, 1, 0, 0, 1], 2), "does not restrict"),
            (Rationals(), F4, "no embedding rule"),
            (F4, Rationals(), "no embedding rule")]:
        with pytest.raises(CompatibilityError, match=error):
            field_embedding(k, K)
    for k, K in [(F2, F16), (PrimeField(2, 3), F16), (F4, F16),
                 (F4, GaloisField(2, [1, 1, 0, 0, 1], 3))]:
        embed = field_embedding(k, K)
        for a in ([0, 1] if k.degree == 1 else list(k.all_elements())):
            assert K.sigma(embed(a)) == embed(k.sigma(a))
            for b in ([0, 1] if k.degree == 1 else list(k.all_elements())):
                assert embed(k.add(a, b)) == K.add(embed(a), embed(b))
                assert embed(k.mul(a, b)) == K.mul(embed(a), embed(b))


@pytest.mark.parametrize("k", [GaloisField(2, [1, 1, 1]), GaloisField(2, [1, 1, 0, 1]),
                               GaloisField(2, [1, 1, 0, 1], 2), GaloisField(3, [1, 0, 1])],
                         ids=["F4", "F8", "F8-sigma-4th-power", "F9"])
def test_truncated_quotients_are_valid_off_the_prime_fields(k):
    # sigma(y) = y^q is a ring map only for q = p^m, sigma_k = x -> x^(p^m),
    # or q = 1 with sigma_k fixing f
    rng = random.Random(61)
    for _ in range(40):
        A = truncated_quotient_algebra(k, rng, rng.randint(1, 4))
        assert algebra_validate(A).ok


def test_minimal_polynomial_matches_defining_relation():
    A = poly_quotient(F5, [4, 0, 1], 1)
    y = A.basis_vec(1)
    m = minimal_polynomial(A, y)
    assert m.to_json() == ["4", "0", "1"]


@pytest.mark.parametrize("name", ["F2", "F3", "F4", "F9"])
def test_linalg_minimal_polynomial_is_monic_annihilating_and_of_degree_dim_k_v(name):
    k = ORACLE_FIELDS[name]
    rng = random.Random(f"minpoly-{name}")
    for _ in range(30):
        A = random_valid_algebra(k, rng, max_dim=5)
        v = [k.sample(rng) for _ in range(A.dim)]
        m = la.minimal_polynomial(k, A.unit, lambda x: A.multiply(x, v), list)
        assert k.eq(m[-1], k.one())
        value = A.zero_vec()
        for c in reversed(m):
            value = A.vec_add(A.multiply(value, v), A.scalar_mul(c, A.unit))
        assert A.vec_is_zero(value)
        # dim k[v]: the rank of 1, v, ..., v^dim, which span k[v]
        powers = [A.power(v, e) for e in range(A.dim + 1)]
        assert len(m) - 1 == la.rank(k, powers)


STABLE_IMAGE_FIELDS = {
    "F2": F2, "F3": F3, "F5": F5, "F4": GaloisField(2, [1, 1, 1]),
    "F8, sigma x^2": GaloisField(2, [1, 1, 0, 1]),
    "F8, sigma x^4": GaloisField(2, [1, 1, 0, 1], frobenius_power=2),
    "F9": GaloisField(3, [1, 0, 1]), "F25": GaloisField(5, [2, 0, 1]),
}


@pytest.mark.parametrize("name", sorted(STABLE_IMAGE_FIELDS))
def test_strong_core_is_the_stable_image_of_sigma_after_frobenius(name):
    # over F_q, L(x) = sigma(x^q) is a semilinear ring endomorphism; its
    # images L^i(A) fall to a subalgebra that holds every strongly
    # sigma-etale one and is one itself, which is the strong core
    k = STABLE_IMAGE_FIELDS[name]
    rng = random.Random(f"stable-image-{name}")
    for _ in range(25):
        A = random_valid_algebra(k, rng, max_dim=5)
        image = _span_of(k, A.dim, [A.basis_vec(i) for i in range(A.dim)])
        while True:
            nxt = _span_of(k, A.dim, [A.apply_sigma(A.power(b, k.order))
                                      for b in image.basis()])
            if nxt.dim() == image.dim():
                break
            image = nxt
        assert image.equals(strong_core(A).span)


def test_restrict_scalars_keeps_strongly_setale():
    K = GaloisField(3, [1, 0, 1])
    rng = random.Random(53)
    R = random_strongly_setale(K, rng, max_dim=2, conjugated=False)
    flat = restrict_scalars(R, F3)
    assert algebra_validate(flat).ok
    assert flat.dim == 2 * R.dim
    assert is_strongly_sigma_etale(flat)


def _restrict_by_index_loops(A, k):
    """restrict_scalars by index loops over (i, t, j, u), summing each
    relative coordinate into a zero vector."""
    K = A.base
    gammas, coord_fn = _relative_basis(k, K, field_embedding(k, K))
    N, n = len(gammas), A.dim
    dim = n * N

    def expand(vec):
        out = [k.zero()] * dim
        for i, c in enumerate(vec):
            if not K.is_zero(c):
                for t, coef in enumerate(coord_fn(c)):
                    out[i * N + t] = k.add(out[i * N + t], coef)
        return out

    mul = [[None] * dim for _ in range(dim)]
    for i, t, j, u in itertools.product(range(n), range(N), range(n), range(N)):
        g = K.mul(gammas[t], gammas[u])
        mul[i * N + t][j * N + u] = expand([K.mul(g, c) for c in A.mul[i][j]])
    cols = []
    for j, u in itertools.product(range(n), range(N)):
        v = [K.zero()] * n
        v[j] = gammas[u]
        cols.append(expand(A.apply_sigma(v)))
    return mul, expand(A.unit), la.transpose(cols, dim)


@pytest.mark.parametrize("K, k", [(GaloisField(3, [1, 0, 1]), F3),
                                  (GaloisField(2, [1, 1, 0, 0, 1]), GaloisField(2, [1, 1, 1])),
                                  (GaloisField(2, [1, 1, 0, 0, 1]), F2)],
                         ids=["F9/F3", "F16/F4", "F16/F2"])
def test_restrict_scalars_equals_the_index_loops(K, k):
    rng = random.Random(f"restrict-{K.order}-{k.order}")
    for n in (1, 2, 3):
        A = _seeded_algebra(K, rng, n)
        flat = restrict_scalars(A, k)
        assert (flat.mul, flat.unit, flat.sigma) == _restrict_by_index_loops(A, k)


# -- the structure-constant builder ----------------------------------------------


def test_algebra_on_basis_of_the_full_basis_is_the_algebra():
    # sigma comes back transposed: column j holds the coordinates of sigma(e_j)
    A = poly_quotient(F5, [1, 0, 0, 1], 2)
    B = algebra_on_basis(F5, [A.basis_vec(i) for i in range(A.dim)], A.multiply,
                         A.apply_sigma, A.unit, list)
    assert (B.mul, B.unit, B.sigma) == (A.mul, A.unit, A.sigma)


def _span_coords(A, vectors):
    span = la.SpanBasis(A.base, A.dim)
    for v in vectors:
        span.add(v)
    return span.basis(), span.coordinates


@pytest.mark.parametrize("error", [AssertionError, UnsupportedPresentationError])
@pytest.mark.parametrize("law", ["closed under products", "unital", "sigma-stable"])
def test_algebra_on_basis_raises_the_given_error(error, law):
    if law == "closed under products":
        # 1 and y in k[y]/(y^3 - 2): y^2 falls outside
        A = poly_quotient(F5, [3, 0, 0, 1], 1)
        vectors = [A.unit, A.basis_vec(1)]
    else:
        # three points; sigma(e_0) = e_2
        A = diagonal_algebra(F5, [1, 2, 0])
        vectors = [A.basis_vec(0)] if law == "unital" else [A.unit, A.basis_vec(0)]
    basis, coords = _span_coords(A, vectors)
    with pytest.raises(error, match=law):
        algebra_on_basis(F5, basis, A.multiply, A.apply_sigma, A.unit, coords, error)


# -- the sparse product kernel and the factor memo ---------------------------------


# F_5^6 is above TABLE_MAX_ORDER: no log tables, so its kernels are the generic
# loops over a coordinate-list mul and a coordinatewise add
KERNEL_FIELDS = {"F2": F2, "F7": PrimeField(7), "F4": GaloisField(2, [1, 1, 1]),
                 "F9": GaloisField(3, [1, 0, 1]), "F625": GaloisField(5, [4, 1, 0, 0, 1]),
                 "F5^6": GaloisField(5, [2, 1, 0, 0, 0, 0, 1]), "Q": Rationals()}


def _sparse_sample(k, rng):
    return k.zero() if rng.random() < 0.4 else k.sample(rng)


def _seeded_structure(k, rng, n):
    """Random commutative structure constants, about 40% zero; the product
    need not be associative, which the kernel does not use."""
    mul = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mul[i][j] = mul[j][i] = [_sparse_sample(k, rng) for _ in range(n)]
    return FinSigmaAlgebra(k, mul, [k.one()] + [k.zero()] * (n - 1),
                           la.identity(k, n))


def _dense_product(A, u, v):
    """u*v by the dense triple loop over every (i, j, t), skipping nothing."""
    k = A.base
    out = [k.zero()] * A.dim
    for i in range(A.dim):
        for j in range(A.dim):
            c = k.mul(u[i], v[j])
            for t in range(A.dim):
                out[t] = k.add(out[t], k.mul(c, A.mul[i][j][t]))
    return out


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_sparse_product_equals_the_dense_triple_loop(name):
    k = KERNEL_FIELDS[name]
    rng = random.Random(f"bilinear-{name}")
    for n in (1, 2, 3, 5, 6):
        A = _seeded_structure(k, rng, n)
        for _ in range(6):
            u = [_sparse_sample(k, rng) for _ in range(n)]
            v = [_sparse_sample(k, rng) for _ in range(n)]
            want = _dense_product(A, u, v)
            assert A.multiply(u, v) == want
            # the generic loop, which the finite fields override, on its own table
            table = DifferenceField.bilinear_table(k, A.mul)
            assert DifferenceField.bilinear(k, u, v, table) == want
        assert A.multiply(A.zero_vec(), A.unit) == A.zero_vec()


def test_sparse_table_stays_out_of_the_json_form():
    A = _seeded_structure(F5, random.Random(3), 4)
    before = A.to_json()
    A.multiply(A.unit, A.unit)
    assert A._table is not None and A.to_json() == before
    assert FinSigmaAlgebra.from_json(before).mul == A.mul


@pytest.mark.parametrize("k", [F3, GaloisField(2, [1, 1, 0, 1])], ids=["F3", "F8"])
def test_factor_memo_returns_a_fresh_factorization(k):
    rng = random.Random(f"factor-memo-{k.order}")
    A, B = random_point_algebra(k, rng, 2), random_point_algebra(k, rng, 2)
    # many polynomials of each degree, each asked for twice
    polys = [Poly.make(k, [k.sample(rng) for _ in range(d)] + [k.one()])
             for d in (1, 2, 3, 4) for _ in range(8)]
    for f in polys + polys:
        assert A.factor(f) == factor_over_finite_field(f)
    assert all(A.factor(f) is A.factor(f) for f in polys)
    assert B.factor(polys[0]) == A.factor(polys[0])
    assert B.factor(polys[0]) is not A.factor(polys[0])   # one memo per algebra


# -- the Kronecker builders and the vector encoder ---------------------------------


# F_5^6 is above TABLE_MAX_ORDER, so its kron is the generic row_scale loop
TENSOR_FIELDS = {"F2": F2, "F5": F5, "F4": GaloisField(2, [1, 1, 1]),
                 "F9": GaloisField(3, [1, 0, 1]),
                 "F5^6": GaloisField(5, [2, 1, 0, 0, 0, 0, 1]), "Q": Rationals()}


def _seeded_algebra(k, rng, n):
    """_seeded_structure with a random unit and sigma, about 40% zero."""
    A = _seeded_structure(k, rng, n)
    A.unit = [_sparse_sample(k, rng) for _ in range(n)]
    A.sigma = [[_sparse_sample(k, rng) for _ in range(n)] for _ in range(n)]
    return A


def _tensor_by_index_loops(A, B):
    """A (x) B by the index loops over every pair of basis vectors, with a
    zero test on each factor coordinate."""
    k = A.base
    na, nb = A.dim, B.dim
    n = na * nb
    mul = [[None] * n for _ in range(n)]
    for i1, j1, i2, j2 in itertools.product(range(na), range(nb), range(na), range(nb)):
        out = [k.zero()] * n
        pa, pb = A.mul[i1][i2], B.mul[j1][j2]
        for m1 in range(na):
            if k.is_zero(pa[m1]):
                continue
            for m2 in range(nb):
                if not k.is_zero(pb[m2]):
                    out[m1 * nb + m2] = k.mul(pa[m1], pb[m2])
        mul[i1 * nb + j1][i2 * nb + j2] = out
    unit = [k.mul(A.unit[i], B.unit[j]) for i in range(na) for j in range(nb)]
    sig = [[k.mul(A.sigma[i1][i2], B.sigma[j1][j2]) for i2 in range(na) for j2 in range(nb)]
           for i1 in range(na) for j1 in range(nb)]
    return mul, unit, sig


def _per_scalar_json(A):
    enc = A.base.scalar_to_json
    return {"base": A.base.descriptor(), "dim": A.dim,
            "mul": [[[enc(c) for c in cell] for cell in row] for row in A.mul],
            "unit": [enc(c) for c in A.unit],
            "sigma": [[enc(c) for c in row] for row in A.sigma]}


@pytest.mark.parametrize("name", list(TENSOR_FIELDS))
def test_tensor_product_equals_the_index_loops(name):
    k = TENSOR_FIELDS[name]
    rng = random.Random(f"kron-{name}")
    for na, nb in ((1, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2)):
        A, B = _seeded_algebra(k, rng, na), _seeded_algebra(k, rng, nb)
        T = tensor_product(A, B)
        assert (T.mul, T.unit, T.sigma) == _tensor_by_index_loops(A, B)
        assert T.dim == na * nb
        # the rows are distinct lists, so changing one changes no other
        rows = [cell for row in T.mul for cell in row]
        assert len({id(r) for r in rows}) == len(rows)
        assert T.to_json() == _per_scalar_json(T)


def _conjugate_every_pair(A, P):
    """conjugate's change of basis with all n^2 products evaluated."""
    k, n = A.base, A.dim
    Pinv = la.inverse(k, P)
    cols = la.transpose(P, n)
    mul = [[la.mat_vec(k, Pinv, A.multiply(cols[i], cols[j])) for j in range(n)]
           for i in range(n)]
    sigma = la.transpose([la.mat_vec(k, Pinv, A.apply_sigma(c)) for c in cols], n)
    return mul, la.mat_vec(k, Pinv, A.unit), sigma


@pytest.mark.parametrize("name", list(TENSOR_FIELDS))
def test_conjugate_equals_the_evaluation_of_every_product(name):
    k = TENSOR_FIELDS[name]
    rng = random.Random(f"conjugate-{name}")
    for n in (1, 2, 3, 4):
        A, P = _seeded_algebra(k, rng, n), random_invertible(k, n, rng)
        C = conjugate(A, P)
        assert (C.mul, C.unit, C.sigma) == _conjugate_every_pair(A, P)
        rows = [cell for row in C.mul for cell in row]
        assert len({id(r) for r in rows}) == len(rows)
        assert C.to_json() == _per_scalar_json(C)


@pytest.mark.parametrize("e", [0, 1, 2, 5])
def test_algebra_power_equals_repeated_products(e):
    rng = random.Random(40 + e)
    algebras = [field_algebra(3, [1, 0, 1]), truncated_quotient_algebra(F5, rng, 4),
                conjugate(diagonal_algebra(GaloisField(2, [1, 1, 1]), [1, 0, 2]),
                          random_invertible(GaloisField(2, [1, 1, 1]), 3, rng))]
    for A in algebras:
        for _ in range(4):
            v = [A.base.sample(rng) for _ in range(A.dim)]
            want = list(A.unit)
            for _ in range(e):
                want = A.multiply(want, v)
            got = A.power(v, e)
            assert got == want and got is not v and got is not A.unit


# -- the one orbit walk and the worklist closures against the loops they replaced --------


def _walk_periodic(A, v, horizon):
    """The orbit walk is_periodic replaced, as (status, period, reason, steps)."""
    seen = [list(v)]
    cur = list(v)
    for step in range(1, horizon + 1):
        cur = A.apply_sigma(cur)
        if A.vec_eq(cur, v):
            return "periodic", step, None, step
        if A.vec_is_zero(cur):
            return "nonperiodic", None, "orbit-hits-zero", step
        for prev in seen[1:]:
            if A.vec_eq(cur, prev):
                return "nonperiodic", None, "orbit-cycles-without-start", step
        seen.append(list(cur))
    return "unknown", None, None, horizon


def _rescanned_subalgebra_span(A, gens):
    """The span sigma_subalgebra_generated closed by rescanning: sigma of
    every row and every product of two rows, until a round adds nothing."""
    span = la.SpanBasis(A.base, A.dim)
    span.add(A.unit)
    for g in gens:
        span.add(list(g))
    changed = True
    while changed:
        changed = False
        for v in span.basis():
            changed |= span.add(A.apply_sigma(v))
        rows = span.basis()
        for i in range(len(rows)):
            for j in range(i, len(rows)):
                changed |= span.add(A.multiply(rows[i], rows[j]))
    return span


def _rescanned_ideal_span(A, gens):
    """The span quotient_by_sigma_ideal closed by rescanning: sigma of every
    row and every row times every basis vector, until a round adds nothing."""
    span = la.SpanBasis(A.base, A.dim)
    for g in gens:
        span.add(list(g))
    changed = True
    while changed:
        changed = False
        for v in span.basis():
            changed |= span.add(A.apply_sigma(v))
        for v in span.basis():
            for i in range(A.dim):
                changed |= span.add(A.multiply(v, A.basis_vec(i)))
    return span


def _span_of(k, n, vectors):
    span = la.SpanBasis(k, n)
    for v in vectors:
        span.add(v)
    return span


def _oracle_draws(k, seed, count=40):
    rng = random.Random(seed)
    for _ in range(count):
        A = random_valid_algebra(k, rng, max_dim=5)
        vecs = [A.basis_vec(i) for i in range(A.dim)]
        vecs += [[k.sample(rng) for _ in range(A.dim)] for _ in range(2)]
        yield A, rng, vecs


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_is_periodic_matches_the_orbit_walk_it_replaced(name):
    k = ORACLE_FIELDS[name]
    outcomes = set()
    for A, _, vecs in _oracle_draws(k, 22):
        vecs += [e.coords for e in primitive_idempotents(A)] + [A.zero_vec(), A.unit]
        for v in vecs:
            for horizon in (1, 3, None):
                r = is_periodic(A, v, horizon)
                got = (r.status, r.period, r.reason, r.steps)
                h = horizon if horizon is not None else _default_horizon(A.dim)
                assert got == _walk_periodic(A, v, h)
                outcomes.add(got[0] if got[2] is None else got[2])
    assert {"periodic", "unknown", "orbit-hits-zero"} <= outcomes


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_worklist_closures_match_the_rescanning_loops(name):
    k = ORACLE_FIELDS[name]
    proper = set()
    for A, rng, vecs in _oracle_draws(k, 23, count=60):
        # random vectors mostly generate everything, idempotents often less
        pool = rng.choice([vecs, [e.coords for e in primitive_idempotents(A)]])
        gens = rng.sample(pool, min(len(pool), rng.randint(0, 2)))
        sub, incl = sigma_subalgebra_generated(A, gens)
        old = _rescanned_subalgebra_span(A, gens)
        new = _span_of(k, A.dim, [incl.column(j) for j in range(sub.dim)])
        assert new.pivots == old.pivots and new.equals(old)
        assert incl.matrix == la.transpose(old.basis(), A.dim)
        if 1 < sub.dim < A.dim:
            proper.add("subalgebra")
        old = _rescanned_ideal_span(A, gens)
        if old.contains(A.unit):
            with pytest.raises(ZeroRingError):
                quotient_by_sigma_ideal(A, gens)
            continue
        Q, proj = quotient_by_sigma_ideal(A, gens)
        new = _span_of(k, A.dim, la.nullspace(k, proj.matrix))
        assert new.pivots == old.pivots and new.equals(old)
        assert Q.dim == A.dim - old.dim() and proj.validate().ok
        if 0 < old.dim():
            proper.add("quotient")
    assert proper == {"subalgebra", "quotient"}
