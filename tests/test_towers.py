"""Towers: construction, limit degree, cores, chains, compatibility."""

import itertools
import math
import random

import pytest

from diffalg.exactfield import (FunctionField, GaloisField, PrimeField, Rationals,
                                ShiftField)
from diffalg.gallery import (chain_for, collapse_tower_f5, corrupted_chain,
                             cubic_tower_f7, fourth_root_tower_f5,
                             frobenius_tower, radical_tower_f5, repaired_chain,
                             stacked_tower_f5)
from diffalg import _linalg as la
from diffalg import _multipoly as mp
from diffalg import _polycore as pc
from diffalg.towers import (BabbittChain, InconsistentDynamicsError,
                            NotGaloisError, TowerError, TowerExtension,
                            _degrees, _least_sigma_power,
                            _sigma_closed_span, babbitt_search, babbitt_verify,
                            benign_make, compatible,
                            core_sradicial_over_strong_core_check,
                            field_sigma_radicial_over, inversive_closure,
                            is_sigma_radicial, limit_degree,
                            strong_core_finite_ext, tower_from_json,
                            tower_make, tower_to_json)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
S5 = ShiftField(F5)


# -- construction --------------------------------------------------------------


def test_radical_tower_construction():
    T = radical_tower_f5()
    a0 = T.gen_by_name("a0")
    sq = T.mul(a0, a0)
    assert T.eq(sq, T.const(S5.t(0)))
    # sigma rule closure: sigma(a0) = a1 and a1^2 = t1
    sa = T.sigma(a0)
    a1 = T.gen_by_name("a1")
    assert T.eq(sa, a1)


def test_finite_tower_frobenius():
    T = frobenius_tower(3, [1, 0, 1], 1)
    al = T.gen_by_name("g")
    assert T.eq(T.sigma(al), T.neg(al))


def test_inconsistent_sigma_rule_rejected():
    with pytest.raises(InconsistentDynamicsError):
        tower_make(F3, [{"name": "a", "minpoly": [1, 0, 1], "sigma": "a+1"}])


def test_reducible_explicit_level_rejected():
    with pytest.raises(TowerError):
        tower_make(F5, [{"name": "a", "minpoly": [-1, 0, 1], "sigma": "a"}])


# F_4096 over F_2 in three levels: a generates F_4, b F_16 and c F_4096;
# sigma is the Frobenius x -> x^2 on each
F4096_LEVELS = [{"name": "a", "minpoly": [1, 1, 1], "sigma": "a^2"},
                {"name": "b", "minpoly": ["a", 1, 1], "sigma": "b^2"},
                {"name": "c", "minpoly": [1, 1, 0, 1], "sigma": "c^2"}]


def _reduce_from_scratch(T, f):
    """f in normal form, one overflowing monomial at a time, each step reading
    a_t^d = -(c_0 + ... + c_(d-1) a_t^(d-1)) off the minimal polynomial anew."""
    k = T.base
    f = dict(f)
    while True:
        over = sorted((m, t) for m in f for t, e in enumerate(m)
                      if e >= T.levels[t].degree)
        if not over:
            return f
        m, t = over[0]
        lv = T.levels[t]
        c = f.pop(m)
        for e, coeff in enumerate(lv.minpoly[:-1]):
            low = list(m)
            low[t] += e - lv.degree
            mono = T._mono_mul(tuple(low), ())
            mp.iadd(k, f, mp.mul(k, {mono: k.neg(c)}, coeff, T._mono_mul))


def test_three_level_finite_tower_products_equal_a_fresh_reduction():
    T = tower_make(F2, F4096_LEVELS)
    monos = T.monomials()
    assert len(monos) == 12
    rng = random.Random(18)

    def draw():
        return T.from_coords([F2.sample(rng) for _ in monos], monos)

    for _ in range(40):
        x, y = draw(), draw()
        got = T.mul(x, y)
        assert T.eq(got, _reduce_from_scratch(T, mp.mul(F2, x, y, T._mono_mul)))
        assert T.eq(got, T.mul(y, x))
        assert T.mul(x, T.zero()) == {} and T.mul(T.zero(), y) == {}
    for _ in range(4):
        x = draw()
        assert T.eq(T.power(x, 2 ** 12), x)


@pytest.mark.parametrize("minpoly", [[1, 1, 1], ["a^2", 0, 1]])
def test_reducible_finite_level_over_a_finite_level_rejected(minpoly):
    # x^2 + x + 1 has the root a in F_4, and x^2 + a^2 = (x + a)^2 is
    # inseparable too: certification runs first and names reducibility
    levels = [F4096_LEVELS[0], {"name": "b", "minpoly": minpoly, "sigma": "b^2"}]
    with pytest.raises(TowerError, match="'b': minimal polynomial is reducible "
                                         "over its level"):
        tower_make(F2, levels)


def _monic_polys(k, n):
    """Every monic polynomial of degree n over the finite field k, low first."""
    elems = list(k.all_elements()) if k.degree > 1 else list(range(k.p))
    return [list(low) + [k.one()] for low in itertools.product(elems, repeat=n)]


def _irreducible_count(q, n):
    """Gauss's count of the monic irreducibles of degree n over F_q."""
    def mobius(d):
        out, m, r = 1, d, 2
        while r * r <= m:
            if m % r == 0:
                m //= r
                if m % r == 0:
                    return 0
                out = -out
            r += 1
        return -out if m > 1 else out
    return sum(mobius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


@pytest.mark.parametrize("k, degrees", [(F2, (2, 3, 4)), (F3, (2, 3, 4)),
                                        (GaloisField(2, [1, 1, 1]), (2, 3))],
                         ids=["F2", "F3", "F4"])
def test_level_zero_finite_certificate_is_rabin_over_the_empty_tower(
        k, degrees, monkeypatch):
    empty = TowerExtension(k)
    oracle = {}
    for n in degrees:
        for f in _monic_polys(k, n):
            oracle[tuple(f)] = pc.is_irreducible(empty, [empty.const(c) for c in f],
                                                 k.order)
    # level zero runs Rabin's test over k itself, never over the tower
    monkeypatch.setattr(TowerExtension, "mul", None)
    for f, irreducible in oracle.items():
        T = TowerExtension(k)
        if irreducible:
            T.add_explicit_level("a", list(f), "a")
            assert T.levels[0].cert == "finite"
        else:
            with pytest.raises(TowerError) as err:
                T.add_explicit_level("a", list(f), "a")
            assert str(err.value) == ("level 'a': minimal polynomial is reducible "
                                      "over its level")
    for n in degrees:
        found = sum(irr for f, irr in oracle.items() if len(f) == n + 1)
        assert found == _irreducible_count(k.order, n)


def test_inseparable_level_rejected():
    # x^5 - t specializes to x^5 - c = (x - c)^5 over F_5: no specialization
    # certifies an inseparable level, so none needs a separate gcd check
    K = FunctionField(F5, [0, 0, 1], [1])
    with pytest.raises(TowerError, match="'a': specialization failed to certify "
                                         "irreducibility"):
        tower_make(K, [{"name": "a", "minpoly": ["-t", 0, 0, 0, 0, 1],
                        "sigma": "t"}])


def test_trivial_benign_rejected():
    with pytest.raises(TowerError):
        benign_make(S5, ["-1", 1], kind="radical")


def test_benign_galois_requires_roots_of_unity():
    with pytest.raises(NotGaloisError):
        benign_make(S5, ["-t0", 0, 0, 1], kind="radical")


def test_tower_inverse_through_levels():
    T = radical_tower_f5()
    x = T.add(T.gen_by_name("a0"), T.one())
    assert T.eq(T.mul(T.inv(x), x), T.one())


def test_tower_inverse_of_element_over_two_levels():
    # c0 + a0 + 1 has c0 on top and a0 in its coefficients: inv recurses
    # through the level below
    T = stacked_tower_f5()
    x = T.add(T.add(T.gen_by_name("c0"), T.gen_by_name("a0")), T.one())
    assert T.max_level(x) == T.by_name["c0"] and T.max_level(x) > T.by_name["a0"]
    assert T.eq(T.mul(T.inv(x), x), T.one())


def test_tower_inverse_of_zero_raises():
    T = stacked_tower_f5()
    with pytest.raises(ZeroDivisionError):
        T.inv(T.zero())


# -- limit degree ----------------------------------------------------------------


def test_limit_degree_radical_certified():
    rep = limit_degree(radical_tower_f5(), horizon=5)
    assert rep.d_sequence == [2] * 6
    assert rep.value == 2 and rep.certified


def test_limit_degree_cubic():
    rep = limit_degree(cubic_tower_f7(), horizon=4)
    assert rep.value == 3 and rep.certified


def test_limit_degree_finite_extension_drops_to_one():
    rep = limit_degree(frobenius_tower(3, [1, 0, 1], 1), horizon=5)
    assert rep.d_sequence[0] == 2 and rep.value == 1


def test_limit_degree_stacked_multiplicative():
    rep = limit_degree(stacked_tower_f5(), horizon=4)
    assert rep.d_sequence[0] == 8
    assert rep.value == 4
    block = limit_degree(radical_tower_f5(), horizon=4)
    assert rep.value == block.value * 2   # two stacked quadratic blocks


def test_limit_degree_nonincreasing_enforced():
    rep = limit_degree(stacked_tower_f5(), horizon=6)
    seq = rep.d_sequence
    assert all(b <= a for a, b in zip(seq, seq[1:]))


# -- transform degree laws ----------------------------------------------------------


def test_transform_of_generator_keeps_degree():
    T = radical_tower_f5()
    a0 = T.gen_by_name("a0")
    sa = T.sigma(a0)
    lc = len(T.levels)
    assert T.degree_over_base(a0, lc) == T.degree_over_base(sa, lc) == 2


def test_elements_of_the_bottom_level_never_reach_the_base():
    T = radical_tower_f5()
    a0 = T.gen_by_name("a0")
    b = T.add(a0, T.one())
    cur = b
    for _ in range(4):
        cur = T.sigma(cur)
        assert not T.in_base(cur)


# -- sigma-radicial ------------------------------------------------------------------


def test_radicial_collapse_example():
    T = collapse_tower_f5()
    v = is_sigma_radicial(T, horizon=4)
    assert v.status == "radicial" and v.exponents == {"a": 1}


def test_radicial_unknown_for_benign():
    v = is_sigma_radicial(radical_tower_f5(), horizon=3)
    assert v.status == "unknown" and v.evidence


def test_field_inversive_closure_is_radicial():
    deep = inversive_closure(S5, 2)
    v = field_sigma_radicial_over(deep, S5)
    assert v.status == "radicial" and v.exponents["t"] == 2
    assert inversive_closure(F5, 3) == F5


def test_negative_closure_depth_is_rejected():
    # depth -1 would give the subfield with min_index 1, not a closure
    for obj in (S5, F5, radical_tower_f5()):
        with pytest.raises(TowerError, match="closure depth must be >= 0"):
            inversive_closure(obj, -1)
    assert inversive_closure(S5, 0) == S5


def test_tower_inversive_closure_preimage_chain():
    B = radical_tower_f5()
    Bs = inversive_closure(B, 2)
    am2 = Bs.gen_by_name("a_m2")
    am1 = Bs.gen_by_name("a_m1")
    assert Bs.eq(Bs.sigma(am2), am1)
    sq = Bs.mul(am2, am2)
    assert Bs.eq(sq, Bs.const(Bs.base.t(-2)))


def test_tower_inversive_closure_starts_each_family_depth_below_its_start():
    # a family starting at t_m1 closes down to t_m3, the closed base's
    # least index; one starting at t3 closes to t2 and gains no b1
    T = benign_make(ShiftField(F5, -1), ["-t_m1", 0, 1], kind="radical", family="a")
    C = inversive_closure(T, 2)
    assert C.base.min_index == C.family_min["a"] == -3
    am3 = C.gen_by_name("a_m3")
    assert C.eq(C.mul(am3, am3), C.const(C.base.t(-3)))
    assert C.eq(C.sigma(am3), C.gen_by_name("a_m2"))
    C3 = inversive_closure(benign_make(S5, ["-t3", 0, 1], kind="radical"), 1)
    assert C3.family_min["b"] == 2 and C3.gen_by_name("b2")
    with pytest.raises(TowerError, match="unknown tower generator 'b1'"):
        C3.gen_by_name("b1")


def test_tower_inversive_closure_needs_radical_blocks():
    # a radical-on family, and a specialization-verified family
    K = FunctionField(F5, [1, 1], [1])
    spec = benign_make(K, ["-t", 0, 1], kind="specialization-verified")
    for T in (stacked_tower_f5(), spec):
        with pytest.raises(TowerError, match="needs radical families"):
            inversive_closure(T, 1)


def test_inversive_closure_unsupported_for_expanding_function_field():
    K = FunctionField(F5, [0, 0, 1], [1])
    with pytest.raises(TowerError):
        inversive_closure(K, 1)


# -- strong cores of finite extensions --------------------------------------------------


def test_core_of_frobenius_extension_is_everything():
    res = strong_core_finite_ext(frobenius_tower(3, [1, 0, 1], 1))
    assert res.algebra.dim == 2 and res.strongly_sigma_etale
    assert res.radicial_exponents == {"g": 0}


def test_core_of_collapse_tower_is_base():
    res = strong_core_finite_ext(collapse_tower_f5())
    assert res.algebra.dim == 1
    assert res.radicial_exponents == {"a": 1}
    assert res.strongly_sigma_etale


def test_core_of_fourth_root_tower():
    res = strong_core_finite_ext(fourth_root_tower_f5())
    assert res.algebra.dim == 1
    assert res.radicial_exponents == {"a": 2}


def test_core_certificate_bundle():
    cert = core_sradicial_over_strong_core_check(collapse_tower_f5())
    assert cert["strongly_sigma_etale"] and cert["radicial_exponents"] == {"a": 1}
    cert2 = core_sradicial_over_strong_core_check(frobenius_tower(2, [1, 1, 1], 0))
    assert cert2["radicial_exponents"] == {"g": 0}


def test_core_closed_under_realized_conjugation():
    # the materialized conjugation of F9 over F3 maps the core into itself
    T = frobenius_tower(3, [1, 0, 1], 1)
    res = strong_core_finite_ext(T)
    g = T.gen_by_name("g")
    conj = T.neg(g)   # the nontrivial conjugate of the generator
    cv = T.coords(conj, res.monos, res.index)
    assert cv is not None and res.span.contains(cv)


# -- generator-based closures against the pairwise fixed point ------------------------


def _pairwise_closure(T, gens, level_count):
    """Reference span: multiply every pair of echelon rows until a round
    adds nothing."""
    monos = T.monomials(level_count)
    index = {m: t for t, m in enumerate(monos)}
    span = la.SpanBasis(T.base, len(monos))
    span.add(T.coords(T.one(), monos, index))
    for g in gens:
        span.add(T.coords(T._reduce(dict(g)), monos, index))
    changed = True
    while changed:
        changed = False
        rows = span.basis()
        for i in range(len(rows)):
            fi = T.from_coords(rows[i], monos)
            for j in range(i, len(rows)):
                p = T.mul(fi, T.from_coords(rows[j], monos))
                changed |= span.add(T.coords(p, monos, index))
    return span


def _reference_core(T, level_count=None):
    """The strong core by sigma images of a whole basis, stage by stage."""
    n = len(T.levels) if level_count is None else level_count
    monos = T.monomials(n)
    index = {m: t for t, m in enumerate(monos)}
    cur = [T.from_coords(v, monos) for v in la.identity(T.base, len(monos))]
    dims = [len(monos)]
    prev = None
    while True:
        span = _pairwise_closure(T, [T.sigma(b) for b in cur], n)
        dims.append(span.dim())
        if dims[-1] == dims[-2]:
            span = prev or span
            break
        prev = span
        cur = [T.from_coords(v, monos) for v in span.basis()]
    stabilized = len(dims) - 2

    def in_core(el):
        v = T.coords(T._reduce(el), monos, index)
        return v is not None and span.contains(v)

    exps = {lv.name: _least_sigma_power(T, T.gen(t), stabilized + 1, in_core)
            for t, lv in enumerate(T.levels[:n])}
    return span, stabilized, exps


def _two_level_f3_tower():
    # F_9 = F_3(g) and then F_729 = F_9(h), h^3 - h - 1 Artin-Schreier;
    # sigma is the Frobenius on both levels
    return tower_make(F3, [{"name": "g", "minpoly": [1, 0, 1], "sigma": "-g"},
                           {"name": "h", "minpoly": [-1, -1, 0, 1], "sigma": "h+1"}])


def _finite_towers():
    return [frobenius_tower(3, [1, 0, 1], 1), frobenius_tower(2, [1, 1, 1], 0),
            frobenius_tower(2, [1, 1, 0, 0, 1], 1), frobenius_tower(2, [1, 1, 0, 0, 1], 2),
            frobenius_tower(5, [2, 0, 1], 1), _two_level_f3_tower(),
            collapse_tower_f5(), fourth_root_tower_f5()]


def _random_element(T, rng, level_count, terms):
    monos = T.monomials(level_count)
    k = T.base
    return {m: k.from_int(rng.randrange(1, k.characteristic()))
            for m in rng.sample(monos, min(terms, len(monos)))}


def _assert_same_span(s1, s2):
    assert s1.pivots == s2.pivots and s1.equals(s2)


def test_subalgebra_span_equals_pairwise_closure_on_finite_towers():
    rng = random.Random(1201)
    for T in _finite_towers():
        n = len(T.levels)
        cases = [[T.gen(t) for t in range(n)], [], [T.one()]]
        cases += [[_random_element(T, rng, n, rng.randint(1, 3))
                   for _ in range(rng.randint(1, 2))] for _ in range(6)]
        for gens in cases:
            span, _, _ = T.subalgebra_span(gens, n)
            _assert_same_span(span, _pairwise_closure(T, gens, n))


def test_subalgebra_span_equals_pairwise_closure_on_family_towers():
    rng = random.Random(1202)
    deep = radical_tower_f5()
    deep.materialize_family("a", 10)
    assert len(deep.levels) == 11 and len(deep.monomials()) == 2048
    for T, n in ((deep, 11), (stacked_tower_f5(), 3), (cubic_tower_f7(), 1)):
        lo = T.monomials(min(n, 3))
        for _ in range(5):
            # sparse elements on a few levels keep the reference loop small
            gens = [{m: T.base.from_int(rng.randrange(1, T.base.characteristic()))
                     for m in rng.sample(lo, 2)} for _ in range(rng.randint(1, 2))]
            if n == 11:
                gens.append(T.gen(rng.randrange(3, 11)))
            span, _, _ = T.subalgebra_span(gens, n)
            _assert_same_span(span, _pairwise_closure(T, gens, n))


def test_strong_core_equals_basis_image_reference():
    for T in _finite_towers():
        res = strong_core_finite_ext(T)
        span, stabilized, exps = _reference_core(T)
        _assert_same_span(res.span, span)
        assert res.stabilized_at == stabilized
        assert res.radicial_exponents == exps
    T = corrupted_chain().tower
    res = strong_core_finite_ext(T, level_count=1)
    span, stabilized, exps = _reference_core(T, level_count=1)
    _assert_same_span(res.span, span)
    assert (res.stabilized_at, res.radicial_exponents) == (stabilized, exps)


def test_degrees_on_the_prefix_equal_full_level_spans():
    rng = random.Random(1203)
    deep = radical_tower_f5()
    deep.materialize_family("a", 10)
    stacked = stacked_tower_f5()
    stacked.materialize_family("c", 2)
    elements = [(deep, deep.gen(t)) for t in (0, 4, 9)]
    elements += [(deep, deep.add(deep.gen(rng.randrange(9)), deep.gen(rng.randrange(9))))
                 for _ in range(3)]
    elements += [(stacked, stacked.gen_by_name(n)) for n in ("a0", "c0", "c1")]
    elements += [(T, T.gen(0)) for T in (collapse_tower_f5(), fourth_root_tower_f5(),
                                         cubic_tower_f7())]
    for T, a in elements:
        d0, rel = _degrees(T, a)
        n = len(T.levels)
        full0 = _pairwise_closure(T, [a], n).dim()
        full_pair = _pairwise_closure(T, [a, T.sigma(a)], n).dim()
        assert (d0, rel) == (full0, full_pair // full0)


def test_non_sigma_closed_prefix_still_raises():
    T = radical_tower_f5()
    with pytest.raises(TowerError, match="sigma images escape the finite prefix"):
        strong_core_finite_ext(T, level_count=1)
    T.materialize_family("a", 3)
    # K[a0], K[a0, a1], ... escapes on the fourth round, at sigma(a3) = a4
    for level_count in (1, 4):
        with pytest.raises(TowerError, match="sigma closure escapes the finite prefix"):
            _sigma_closed_span(T, [T.gen_by_name("a0")], level_count)


def test_generator_outside_the_prefix_still_raises():
    T = radical_tower_f5()
    T.materialize_family("a", 3)
    with pytest.raises(TowerError, match="generator escapes the materialized tower"):
        T.subalgebra_span([T.gen(0), T.gen(3)], 2)
    chain = chain_for(radical_tower_f5())
    chain.steps[0]["generators"] = ["a0"]
    with pytest.raises(TowerError, match="generator escapes the materialized tower"):
        babbitt_verify(chain, horizon=3)


# -- Babbitt chains -------------------------------------------------------------------------


def test_shipped_chains_verify():
    for chain in (chain_for(radical_tower_f5()), chain_for(cubic_tower_f7())):
        cert = babbitt_verify(chain, horizon=4)
        assert cert["verdict"] == "verified", cert


def test_stacked_chain_has_two_benign_steps():
    chain = chain_for(stacked_tower_f5())
    assert len(chain.steps) == 3
    cert = babbitt_verify(chain, horizon=3)
    assert cert["verdict"] == "verified"


def test_corrupted_chain_refuted_with_witness():
    cert = babbitt_verify(corrupted_chain(), horizon=3)
    assert cert["verdict"] == "refuted"
    assert cert["witness"] is not None and "element" in cert["witness"]


def test_repaired_chain_verifies():
    cert = babbitt_verify(repaired_chain(), horizon=3)
    assert cert["verdict"] == "verified"


def test_search_finds_benign_generator():
    rep = babbitt_search(radical_tower_f5(), ["a0"], horizon=3)
    assert rep["found"] and rep["steps"] == 1
    assert rep["certificate"]["verdict"] == "verified"


def test_search_empty_candidates_fails_gracefully():
    rep = babbitt_search(radical_tower_f5(), [], horizon=3)
    assert not rep["found"] and "reason" in rep


def test_search_finite_case_returns_zero_steps():
    rep = babbitt_search(frobenius_tower(3, [1, 0, 1], 1), [], horizon=3)
    assert rep["found"] and rep["steps"] == 0


def test_chain_json_round_trip():
    chain = chain_for(radical_tower_f5())
    blob = chain.to_json()
    again = BabbittChain.from_json(blob)
    cert = babbitt_verify(again, horizon=3)
    assert cert["verdict"] == "verified"


# -- compatibility ----------------------------------------------------------------------------


def _oracle(d1, m1, d2, m2):
    D = math.lcm(d1, d2)
    return any((r - m1) % d1 == 0 and (r - m2) % d2 == 0 for r in range(D))


def test_compatibility_matches_embedding_oracle_on_all_pairs():
    structures = [(2, m, frobenius_tower(2, [1, 1, 1], m)) for m in range(2)]
    structures += [(4, m, frobenius_tower(2, [1, 1, 0, 0, 1], m)) for m in range(4)]
    for d1, m1, T1 in structures:
        for d2, m2, T2 in structures:
            v = compatible(T1, T2)
            assert v.compatible == _oracle(d1, m1, d2, m2), (d1, m1, d2, m2)
            if v.compatible:
                assert v.witness is not None


def test_twisted_f4_pair_incompatible():
    L = frobenius_tower(2, [1, 1, 1], 1)
    Lp = frobenius_tower(2, [1, 1, 1], 0)
    assert not compatible(L, Lp).compatible
    assert compatible(L, L).compatible


def test_radicial_extensions_compatible_with_anything_available():
    radicial = collapse_tower_f5()
    for other in (fourth_root_tower_f5(), collapse_tower_f5()):
        assert compatible(other, radicial).compatible


def test_compatibility_rejects_mixed_bases():
    with pytest.raises(TypeError):
        compatible(frobenius_tower(2, [1, 1, 1], 0), collapse_tower_f5())


# -- serialization -----------------------------------------------------------------------------


def _specialization_tower():
    return benign_make(FunctionField(F5, [0, 1], [1, 1]), ["-t", 0, 1],
                       kind="specialization-verified")


def test_tower_json_round_trip_explicit_and_lazy():
    # a tower and the tower its document loads write the same document and
    # certify the same limit degree, kind included; a specialization family
    # certifies level zero only
    for T, horizon in ((frobenius_tower(3, [1, 0, 1], 1), 3), (radical_tower_f5(), 3),
                       (cubic_tower_f7(), 3), (stacked_tower_f5(), 3),
                       (_specialization_tower(), 0), (corrupted_chain().tower, 3),
                       (inversive_closure(radical_tower_f5(), 2), 3)):
        blob = tower_to_json(T)
        again = tower_from_json(blob)
        assert tower_to_json(again) == blob
        assert limit_degree(again, horizon=horizon).to_json() == \
            limit_degree(T, horizon=horizon).to_json()
    # the closure's document still names a_m2, and certifies limit degree 2
    closure = tower_from_json(tower_to_json(inversive_closure(radical_tower_f5(), 2)))
    am2 = closure.gen_by_name("a_m2")
    assert closure.eq(closure.mul(am2, am2), closure.const(closure.base.t(-2)))
    assert limit_degree(closure).value == 2


def test_specialization_tower_loads_the_json_it_writes():
    T = _specialization_tower()
    blob = tower_to_json(T)
    assert blob["families"][0]["kind"] == "specialization-verified"
    again = tower_from_json(blob)
    assert tower_to_json(again) == blob
    # level zero is certified and checked Galois at load, as benign_make does
    assert [lv.name for lv in again.levels] == [lv.name for lv in T.levels] == ["b0"]
    assert again.certified_kind is None and T.certified_kind is None
    r1, r2 = limit_degree(T, horizon=0), limit_degree(again, horizon=0)
    assert r1 == r2 and r1.d_sequence == [2] and not r1.certified
    # deeper levels are refused in both, with the same text
    for tower in (T, again):
        with pytest.raises(TowerError, match="only apply at level zero"):
            limit_degree(tower, horizon=1)


def test_specialization_family_that_is_not_galois_is_refused_at_its_path():
    blob = tower_to_json(_specialization_tower())
    # x^3 + x + t: irreducible at t = 1 over F_5, but of no shape whose
    # Galois property the tower can certify
    one = {"num": ["1"], "den": ["1"]}
    blob["families"][0]["minpoly"] = [{"num": ["0", "1"], "den": ["1"]}, one,
                                      {"num": [], "den": ["1"]}, one]
    with pytest.raises(NotGaloisError, match="cannot certify the Galois property") as err:
        tower_from_json(blob)
    assert err.value.path == "families[0]"


# -- the one rewriter against a rescanning reduction ------------------------------------


def _materialized(T, upto):
    for fam in sorted(T.families):
        T.materialize_family(fam, upto)
    return T


@pytest.mark.parametrize("make", [
    lambda: frobenius_tower(3, [1, 0, 1], 1),
    lambda: tower_make(F2, F4096_LEVELS[:2]),
    lambda: _materialized(radical_tower_f5(), 2),
    lambda: _materialized(stacked_tower_f5(), 1),
], ids=["finite", "f16-two-level", "radical", "stacked"])
def test_reduce_matches_a_rescanning_reduction(make):
    T = make()
    k = T.base
    rng = random.Random(22)
    degrees = [lv.degree for lv in T.levels]

    def draw():
        # exponents up to twice past each degree, so rewrites chain
        return mp.iadd(k, {}, {T._mono_mul(tuple(rng.randrange(2 * d + 1) for d in degrees), ()):
                               k.sample(rng) for _ in range(3)})

    for _ in range(30 if k.is_finite else 8):
        prod = mp.mul(k, draw(), draw(), T._mono_mul)
        kept = dict(prod)
        got = T._reduce(prod)
        assert prod == kept
        assert T.eq(got, _reduce_from_scratch(T, prod))
        assert T.eq(T._reduce(got), got)
        assert all(e < d for m in got for e, d in zip(m, degrees))
