"""Truncated presentations: dimensions, certificates, windowed strong cores."""

import random

import pytest

from diffalg import _multipoly as mp
from diffalg.diffpoly import (Presentation, UnsupportedPresentationError,
                              classify_idempotent, level_primitive_idempotents,
                              periodic_idempotents_truncated, sigma_kernel_slice,
                              strong_core_truncated, truncate)
from diffalg.exactfield import FunctionField, PrimeField, Rationals
from diffalg.findiff import (FinSigmaAlgebra, PeriodicityResult, RestrictedAutomationError,
                             strong_core)
from diffalg.gallery import (collapsed_line, free_line, product_carrier,
                             swap_presentation)
from diffalg.poly import Poly, roots

F5 = PrimeField(5)


def test_free_line_dimensions_double():
    R2 = free_line(5)
    assert [R2.level_dimension(n) for n in range(4)] == [2, 4, 8, 16]


def test_collapsed_line_dimension_stays_two():
    R1 = collapsed_line(5)
    assert all(R1.level_dimension(n) == 2 for n in range(4))


def test_empty_presentation_is_scalars():
    triv = Presentation(F5, [], [])
    assert triv.level_dimension(3) == 1


def test_truncate_returns_finite_level():
    lvl = truncate(free_line(5), 2)
    assert lvl.dim() == 8 and len(lvl.monomials) == 8


def test_unbounded_variable_rejected():
    pres = Presentation(F5, ["y"], [])
    with pytest.raises(UnsupportedPresentationError):
        pres.level_dimension(0)


def test_inconsistent_rules_rejected():
    with pytest.raises(UnsupportedPresentationError):
        Presentation(F5, ["y"], ["y0^2-1", "y1-2"])


def test_grammar_sigma_call_and_powers():
    R = product_carrier(5)
    x = R.parse("sigma(y0*z0)")
    assert R.eq(x, R.var_element(1, 1))    # y1 -> 1, z shifts
    y = R.parse("sigma(z0, 2)")
    assert R.eq(y, R.var_element(1, 2))
    z = R.parse("z0**2")
    assert R.eq(z, R.one())


def test_classification_certificates():
    R1 = collapsed_line(5)
    half = 3  # inverse of 2 mod 5
    e2 = R1.scale(R1.sub(R1.one(), R1.var_element(0, 0)), half)
    assert R1.eq(R1.mul(e2, e2), e2)
    c = classify_idempotent(R1, e2, 20)
    assert c.status == "nonperiodic" and c.reason == "orbit-hits-zero"

    e1 = R1.scale(R1.add(R1.one(), R1.var_element(0, 0)), half)
    c1 = classify_idempotent(R1, e1, 20)
    assert c1.status == "nonperiodic"

    R2 = free_line(5)
    e = R2.scale(R2.add(R2.one(), R2.var_element(0, 0)), half)
    c2 = classify_idempotent(R2, e, 20)
    assert c2.status == "nonperiodic" and c2.reason == "support-shift"

    cone = classify_idempotent(R2, R2.one(), 20)
    assert cone.status == "periodic" and cone.period == 1


def test_level_primitive_idempotents_counts():
    R = product_carrier(5)
    assert len(level_primitive_idempotents(R, 1)) == 8
    cls = periodic_idempotents_truncated(R, 1, 30)
    statuses = {c.status for c in cls}
    assert statuses == {"periodic", "nonperiodic"}


@pytest.mark.parametrize("rule", ["y0^2-2", "y0^5-1"])
def test_a_local_level_algebra_is_its_own_primitive_idempotent(rule):
    # y^2 - 2 is irreducible over F_5 and y^5 - 1 = (y - 1)^5: F_25 and
    # F_5[y]/(y - 1)^5 are local, so one is the only primitive idempotent
    pres = Presentation(F5, ["y"], [rule])
    prims = level_primitive_idempotents(pres, 0)
    assert len(prims) == 1 and pres.eq(prims[0], pres.one())


@pytest.mark.parametrize("pres", [product_carrier(5), product_carrier(7), free_line(3),
                                  free_line(5), collapsed_line(5), swap_presentation(5)])
def test_level_primitive_idempotents_split_the_level_algebra(pres):
    k = pres.base
    for n in range(3):
        prims = level_primitive_idempotents(pres, n)
        total = pres.zero()
        for i, e in enumerate(prims):
            assert not pres.is_zero(e) and pres.eq(pres.mul(e, e), e)
            assert all(pres.is_zero(pres.mul(e, f)) for f in prims[:i])
            total = pres.add(total, e)
        assert pres.eq(total, pres.one())
        # one idempotent per point: a root of each free variable's power rule
        count = 1
        for (j, i), _cap in pres.free_variables(n):
            rhs = pres._power_rhs_coeffs(j, i)
            count *= len(roots(Poly.make(k, [k.neg(c) for c in rhs] + [k.one()])))
        assert len(prims) == count


def test_level_primitive_idempotents_need_a_finite_base():
    pres = Presentation(Rationals(), ["y"], ["y0^2-1"])
    with pytest.raises(RestrictedAutomationError):
        level_primitive_idempotents(pres, 0)


def test_strong_core_of_named_presentations():
    res1 = strong_core_truncated(collapsed_line(5), 2)
    assert len(res1.basis) == 1 and res1.status == "exact"

    res2 = strong_core_truncated(free_line(5), 3)
    assert len(res2.basis) == 1 and res2.status == "exact"

    ressw = strong_core_truncated(swap_presentation(5), 2)
    assert len(ressw.basis) == 2 and ressw.status == "exact"

    for char in (5, 7):
        res = strong_core_truncated(product_carrier(char), 3)
        assert len(res.basis) == 1 and res.status == "exact"


def test_level_coherence_of_cores():
    R = product_carrier(5)
    prev = None
    for n in (1, 2, 3):
        res = strong_core_truncated(R, n)
        basis_reprs = {tuple(sorted((m, str(c)) for m, c in x.items()))
                       for x in res.basis}
        if prev is not None:
            assert prev <= basis_reprs
        prev = basis_reprs


def test_stabilized_presentation_agrees_with_algebra_core():
    SW = swap_presentation(5)
    lvl = truncate(SW, 0)
    k = F5
    monos = lvl.monomials
    idx = {m: t for t, m in enumerate(monos)}
    d = len(monos)

    def elem(m):
        return {m: k.one()} if m else SW.one()

    mul = [[lvl.coords(SW.mul(elem(monos[i]), elem(monos[j])))
            for j in range(d)] for i in range(d)]
    unit = lvl.coords(SW.one())
    sig_cols = [lvl.coords(SW.sigma(elem(monos[j]))) for j in range(d)]
    sigma = [[sig_cols[c][r] for c in range(d)] for r in range(d)]
    A = FinSigmaAlgebra(k, mul, unit, sigma)
    assert strong_core(A).algebra.dim == len(strong_core_truncated(SW, 2).basis)


def test_sigma_kernel_slice_dimensions():
    R = product_carrier(5)
    for n in (1, 2, 3):
        assert len(sigma_kernel_slice(R, n)) == 2 ** (n + 1)
    assert len(sigma_kernel_slice(swap_presentation(5), 1)) == 0
    assert len(sigma_kernel_slice(collapsed_line(5), 1)) == 1


def test_sigma_kernel_slice_over_the_rationals():
    # sigma is the identity on Q, so its inverse is too; y0 - 1 spans the
    # slice, as over F_5
    for k in (Rationals(), F5):
        pres = Presentation(k, ["y"], ["y0^2-1", "y1-1"])
        assert len(sigma_kernel_slice(pres, 1)) == 1


@pytest.mark.parametrize("sigma_num", [[1, 1], [0, 0, 1]])
def test_sigma_kernel_slice_needs_an_inverse_on_the_base(sigma_num):
    # Q(t) with sigma(t) = t + 1 (a Moebius map) or t^2: neither kind computes
    # sigma's inverse, which is an unsupported presentation, not an AttributeError
    pres = Presentation(FunctionField(Rationals(), sigma_num, [1]), ["y"],
                        ["y0^2-1", "y1-1"])
    with pytest.raises(UnsupportedPresentationError,
                       match="base field without invertible endomorphism"):
        sigma_kernel_slice(pres, 1)


def test_presentation_json_round_trip():
    R = product_carrier(5)
    blob = R.to_json()
    again = Presentation.from_json(blob)
    assert again.level_dimension(2) == R.level_dimension(2)


# -- the one rewriter and the one orbit walk against the loops they replaced ----------


def _two_pass_normalize(pres, f):
    """The rewriter normalize replaced: substitute one variable through the
    whole polynomial, rescanning until no substitution applies, then lower
    one capped exponent at a time, rescanning after each step."""
    k = pres.base
    f = dict(f)
    while True:
        target = next(((j, i) for m in f for (j, i), _ in m
                       if pres._sub_rhs(j, i) is not None), None)
        if target is None:
            break
        rhs = pres._sub_rhs(*target)
        out = {}
        for m, c in f.items():
            e = dict(m).get(target, 0)
            if not e:
                mp.iadd(k, out, {m: c})
                continue
            stripped = tuple((v, x) for v, x in m if v != target)
            rep = mp.power(rhs, e, {(): k.one()}, lambda a, b: mp.mul(k, a, b))
            mp.iadd(k, out, mp.mul(k, {stripped: c}, rep))
        f = out
    while True:
        target = next(((m, v, e) for m in f for v, e in m
                       if pres._has_power(*v) and e >= pres.power_rules[v[0]][1]), None)
        if target is None:
            return f
        m, (j, i), e = target
        d = pres.power_rules[j][1]
        c = f.pop(m)
        stripped = tuple((v, x) for v, x in m if v != (j, i))
        base_term = {mp.mono_mul(stripped, (((j, i), e - d),) if e - d else ()): c}
        rhs = {(((j, i), x),) if x else (): coef
               for x, coef in enumerate(pres._power_rhs_coeffs(j, i)) if not k.is_zero(coef)}
        mp.iadd(k, f, mp.mul(k, base_term, rhs))


def _random_poly(pres, rng, terms=4, orders=3):
    """A polynomial in the declared variables up to the given order, not in
    normal form: substitutable variables and exponents past the caps."""
    k = pres.base
    out = {}
    for _ in range(terms):
        vs = rng.sample([(j, i) for j in range(len(pres.var_names)) for i in range(orders + 1)],
                        rng.randint(0, 2))
        m = tuple(sorted((v, rng.randint(1, 3)) for v in vs))
        out[m] = k.from_int(rng.randrange(1, k.characteristic()))
    return out


@pytest.mark.parametrize("make, char", [(product_carrier, 3), (product_carrier, 5),
                                        (swap_presentation, 3), (swap_presentation, 5),
                                        (collapsed_line, 3), (collapsed_line, 5)])
def test_normalize_matches_the_two_pass_rewriter(make, char):
    pres = make(char)
    rng = random.Random(22 + char)
    for _ in range(60):
        prod = mp.mul(pres.base, _random_poly(pres, rng), _random_poly(pres, rng))
        kept = dict(prod)
        got = pres.normalize(prod)
        assert prod == kept
        assert got == _two_pass_normalize(pres, prod)
        assert pres.normalize(got) == got


def _walk_classify(pres, e, horizon):
    """The orbit walk classify_idempotent replaced, as (status, period,
    reason, steps)."""
    monotone = pres.shift_monotone()
    start_max = pres.max_order(e)
    seen = [e]
    cur = e
    for step in range(1, horizon + 1):
        cur = pres.sigma(cur)
        if pres.eq(cur, e):
            return "periodic", step, None, step
        if pres.is_zero(cur):
            return "nonperiodic", None, "orbit-hits-zero", step
        for prev in seen[1:]:
            if pres.eq(cur, prev):
                return "nonperiodic", None, "orbit-cycles-without-start", step
        if monotone and start_max is not None:
            mo = pres.min_order(cur)
            if mo is not None and mo > start_max:
                return "nonperiodic", None, "support-shift", step
        seen.append(cur)
    return "unknown", None, None, horizon


def test_classify_idempotent_matches_the_orbit_walk_it_replaced():
    outcomes = set()
    for pres in (product_carrier(3), product_carrier(5), swap_presentation(5),
                 collapsed_line(5), free_line(3), free_line(5)):
        for n in range(3):
            prims = level_primitive_idempotents(pres, n)
            elems = [pres.one(), pres.zero()] + prims
            elems += [pres.add(a, b) for a, b in zip(prims, prims[1:])]
            for e in elems:
                for horizon in (1, 2, 3, 20):
                    c = classify_idempotent(pres, e, horizon)
                    got = (c.status, c.period, c.reason, c.steps)
                    assert got == _walk_classify(pres, e, horizon)
                    assert c.element is e and isinstance(c, PeriodicityResult)
                    outcomes.add(got[0] if got[2] is None else got[2])
    assert outcomes == {"periodic", "unknown", "orbit-hits-zero",
                        "orbit-cycles-without-start", "support-shift"}


# -- pinned windowed cores ---------------------------------------------------------------

TRUNCATED_PRESENTATIONS = {
    "product": lambda: product_carrier(5),
    "collapsed": lambda: collapsed_line(5),
    "free": lambda: free_line(5),
    "swap": lambda: swap_presentation(5),
    "y3": lambda: Presentation(F5, ["y"], ["y0^2-1", "y3-y0"]),
    "yz": lambda: Presentation(PrimeField(3), ["y", "z"],
                               ["y0^3-y0", "z0^3-z0", "z2-y0", "y2-1"]),
}
Y3_WINDOW, YZ_WINDOW = [(0, 0), (0, 1), (0, 2)], [(0, 0), (0, 1), (1, 0), (1, 1)]
Y3_CORE = ["1", "y0", "y1", "y2", "y0*y1", "y0*y2", "y1*y2", "y0*y1*y2"]
# (presentation, level, horizon): (status, window variables, transient and
# unknown variables, window dimension, core basis), as strong_core_truncated
# gave them when it closed the window under sigma in rounds capped at the
# horizon; the worklist that replaced the rounds must give the same
TRUNCATED_CORES = {
    ("product", 1, 1): ("lower-bound", [(0, 0)], [], [1], 2, ["1"]),
    ("product", 1, 2): ("exact", [(0, 0)], [1], [], 2, ["1"]),
    ("product", 1, 64): ("exact", [(0, 0)], [1], [], 2, ["1"]),
    ("product", 2, 1): ("lower-bound", [(0, 0)], [], [1], 2, ["1"]),
    ("product", 2, 2): ("lower-bound", [(0, 0)], [], [1], 2, ["1"]),
    ("product", 2, 64): ("exact", [(0, 0)], [1], [], 2, ["1"]),
    ("product", 3, 1): ("lower-bound", [(0, 0)], [], [1], 2, ["1"]),
    ("product", 3, 2): ("lower-bound", [(0, 0)], [], [1], 2, ["1"]),
    ("product", 3, 64): ("exact", [(0, 0)], [1], [], 2, ["1"]),
    ("collapsed", 1, 1): ("exact", [(0, 0)], [], [], 2, ["1"]),
    ("collapsed", 1, 2): ("exact", [(0, 0)], [], [], 2, ["1"]),
    ("collapsed", 1, 64): ("exact", [(0, 0)], [], [], 2, ["1"]),
    ("collapsed", 2, 1): ("exact", [(0, 0)], [], [], 2, ["1"]),
    ("collapsed", 2, 2): ("exact", [(0, 0)], [], [], 2, ["1"]),
    ("collapsed", 2, 64): ("exact", [(0, 0)], [], [], 2, ["1"]),
    ("collapsed", 3, 1): ("exact", [(0, 0)], [], [], 2, ["1"]),
    ("collapsed", 3, 2): ("exact", [(0, 0)], [], [], 2, ["1"]),
    ("collapsed", 3, 64): ("exact", [(0, 0)], [], [], 2, ["1"]),
    ("free", 1, 1): ("lower-bound", [], [], [0], 1, ["1"]),
    ("free", 1, 2): ("exact", [], [0], [], 1, ["1"]),
    ("free", 1, 64): ("exact", [], [0], [], 1, ["1"]),
    ("free", 2, 1): ("lower-bound", [], [], [0], 1, ["1"]),
    ("free", 2, 2): ("lower-bound", [], [], [0], 1, ["1"]),
    ("free", 2, 64): ("exact", [], [0], [], 1, ["1"]),
    ("free", 3, 1): ("lower-bound", [], [], [0], 1, ["1"]),
    ("free", 3, 2): ("lower-bound", [], [], [0], 1, ["1"]),
    ("free", 3, 64): ("exact", [], [0], [], 1, ["1"]),
    ("swap", 1, 1): ("lower-bound", [], [], [0], 1, ["1"]),
    ("swap", 1, 2): ("exact", [(0, 0)], [], [], 2, ["1", "y0"]),
    ("swap", 1, 64): ("exact", [(0, 0)], [], [], 2, ["1", "y0"]),
    ("swap", 2, 1): ("lower-bound", [], [], [0], 1, ["1"]),
    ("swap", 2, 2): ("exact", [(0, 0)], [], [], 2, ["1", "y0"]),
    ("swap", 2, 64): ("exact", [(0, 0)], [], [], 2, ["1", "y0"]),
    ("swap", 3, 1): ("lower-bound", [], [], [0], 1, ["1"]),
    ("swap", 3, 2): ("exact", [(0, 0)], [], [], 2, ["1", "y0"]),
    ("swap", 3, 64): ("exact", [(0, 0)], [], [], 2, ["1", "y0"]),
    ("y3", 1, 1): ("lower-bound", [], [], [0], 1, ["1"]),
    ("y3", 1, 2): ("lower-bound", [], [], [0], 1, ["1"]),
    ("y3", 1, 64): ("lower-bound", [], [], [0], 1, ["1"]),
    ("y3", 2, 1): ("lower-bound", [], [], [0], 1, ["1"]),
    ("y3", 2, 2): ("lower-bound", [], [], [0], 1, ["1"]),
    ("y3", 2, 64): ("exact", Y3_WINDOW, [], [], 8, Y3_CORE),
    ("y3", 3, 1): ("lower-bound", [], [], [0], 1, ["1"]),
    ("y3", 3, 2): ("lower-bound", [], [], [0], 1, ["1"]),
    ("y3", 3, 64): ("exact", Y3_WINDOW, [], [], 8, Y3_CORE),
    ("yz", 1, 1): ("lower-bound", [], [], [0, 1], 1, ["1"]),
    ("yz", 1, 2): ("lower-bound", [(0, 0), (0, 1)], [], [1], 9, ["1"]),
    ("yz", 1, 64): ("exact", YZ_WINDOW, [], [], 81, ["1"]),
    ("yz", 2, 1): ("lower-bound", [], [], [0, 1], 1, ["1"]),
    ("yz", 2, 2): ("lower-bound", [(0, 0), (0, 1)], [], [1], 9, ["1"]),
    ("yz", 2, 64): ("exact", YZ_WINDOW, [], [], 81, ["1"]),
    ("yz", 3, 1): ("lower-bound", [], [], [0, 1], 1, ["1"]),
    ("yz", 3, 2): ("lower-bound", [(0, 0), (0, 1)], [], [1], 9, ["1"]),
    ("yz", 3, 64): ("exact", YZ_WINDOW, [], [], 81, ["1"]),
}


@pytest.mark.parametrize("case", sorted(TRUNCATED_CORES))
def test_strong_core_truncated_results_are_pinned(case):
    name, n, horizon = case
    pres = TRUNCATED_PRESENTATIONS[name]()
    status, window, transient, unknown, window_dim, core = TRUNCATED_CORES[case]
    r = strong_core_truncated(pres, n, horizon)
    assert (r.status, r.window_vars) == (status, window)
    assert r.details == {"transient_vars": transient, "unknown_vars": unknown,
                         "window_dim": window_dim}
    assert r.basis == [pres.normalize(pres.parse(text)) for text in core]
