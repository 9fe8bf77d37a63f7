"""The shared sparse-polynomial kernel and the expression adapter, exercised
on both rings that use them: truncated presentations and towers."""

import pytest

from diffalg import _multipoly as mp
from diffalg._exprs import ExpressionError
from diffalg.diffpoly import Presentation
from diffalg.exactfield import PrimeField
from diffalg.gallery import frobenius_tower, radical_tower_f5

F5 = PrimeField(5)


def _capped_presentation():
    # y_i^3 = y_i + 1 at every order: a power-rule cap that power() must hit
    return Presentation(F5, ["y"], ["y0^3 - y0 - 1"])


def _rings():
    pres = _capped_presentation()
    tower = radical_tower_f5()
    return [(pres, pres.parse("y0 + 2*y1 + 3")),
            (tower, tower.parse("a0 + t0 + 1"))]


def _repeated_mul(ring, f, e):
    acc = ring.one()
    for _ in range(e):
        acc = ring.mul(acc, f)
    return acc


@pytest.mark.parametrize("e", [0, 1, 2, 5])
@pytest.mark.parametrize("which", [0, 1])
def test_power_matches_repeated_mul(which, e):
    ring, f = _rings()[which]
    before = dict(f)
    got = ring.power(f, e)
    assert ring.eq(got, _repeated_mul(ring, f, e))
    # a tower passes in its cached sigma rules, so f^1 must be a new dict
    assert got is not f and f == before


@pytest.mark.parametrize("e, products", [(0, 0), (1, 0), (2, 1), (5, 3), (6, 3)])
def test_kernel_power_never_multiplies_by_the_unit(e, products):
    calls = []

    def mul(a, b):
        calls.append(1)
        return mp.mul(F5, a, b)

    f = mp.add(F5, mp.var(F5, 0), mp.const(F5, 2))
    one = mp.const(F5, 1)
    got = mp.power(f, e, one, mul)
    want = one
    for _ in range(e):
        want = mp.mul(F5, want, f)
    assert got == want and got is not f and len(calls) == products


class CountingPrimeField(PrimeField):
    """F_p counting the scalar calls a product makes besides mul."""

    def __init__(self, p):
        super().__init__(p)
        self.calls = 0

    def zero(self):
        self.calls += 1
        return super().zero()

    def add(self, a, b):
        self.calls += 1
        return super().add(a, b)

    def is_zero(self, a):
        self.calls += 1
        return super().is_zero(a)


@pytest.mark.parametrize("f, g, want, calls", [
    # (x + 1)(y + 2): four distinct monomials, nothing to add
    ({((0, 1),): 1, (): 1}, {((1, 1),): 1, (): 2},
     {((0, 1), (1, 1)): 1, ((0, 1),): 2, ((1, 1),): 1, (): 2}, 0),
    # (x + 1)(x + 4) = x^2 + 4: the x terms meet and cancel
    ({((0, 1),): 1, (): 1}, {((0, 1),): 1, (): 4}, {((0, 2),): 1, (): 4}, 2),
    # (x + 1)^2 = x^2 + 2x + 1: the x terms meet and add up
    ({((0, 1),): 1, (): 1}, {((0, 1),): 1, (): 1},
     {((0, 2),): 1, ((0, 1),): 2, (): 1}, 2),
], ids=["distinct", "cancel", "accumulate"])
def test_kernel_mul_stores_first_products_without_a_sum(f, g, want, calls):
    k = CountingPrimeField(5)
    assert mp.mul(k, f, g) == want and k.calls == calls


def test_power_applies_the_cap():
    pres = _capped_presentation()
    y0 = pres.var_element(0, 0)
    assert pres.eq(pres.power(y0, 3), pres.parse("y0 + 1"))
    assert max(e for m in pres.power(y0, 5) for _, e in m) < 3


def test_kernel_power_and_iadd():
    x = mp.var(F5, 0)
    f = mp.add(F5, x, mp.const(F5, 1))
    cube = mp.power(f, 3, mp.const(F5, 1), lambda a, b: mp.mul(F5, a, b))
    assert mp.eq(F5, cube, {((0, 3),): 1, ((0, 2),): 3, ((0, 1),): 3, (): 1})
    out = {(): 2, ((0, 1),): 1}
    assert mp.iadd(F5, out, {(): 3}) is out and out == {((0, 1),): 1}


def test_kernel_mul_takes_the_monomial_product():
    # tensor keys: the product of two keys is the pair of them
    t = mp.mul(F5, {0: 2, 1: 1}, {1: 3}, lambda a, b: (a, b))
    assert t == {(0, 1): 1, (1, 1): 3}


@pytest.mark.parametrize("which, text", [(0, "y0/y1"), (0, "1/(y0+1)"),
                                         (1, "a0/a1"), (1, "1/(a0+1)")])
def test_division_by_a_nonconstant_raises(which, text):
    ring, _ = _rings()[which]
    with pytest.raises(ExpressionError):
        ring.parse(text)


@pytest.mark.parametrize("which, text, want", [(0, "y0/2", "3*y0"),
                                               (1, "a0/2", "3*a0")])
def test_division_by_a_constant(which, text, want):
    ring, _ = _rings()[which]
    assert ring.eq(ring.parse(text), ring.parse(want))


def test_sigma_with_a_count_iterates_on_a_tower():
    T = radical_tower_f5()
    x = T.parse("a0 + t0*a1")
    assert T.eq(T.parse("sigma(a0 + t0*a1, 2)"), T.sigma(T.sigma(x)))
    assert T.eq(T.parse("sigma(a0, 2)"), T.gen_by_name("a2"))


def test_sigma_of_an_integer_literal_is_that_constant():
    pres = _capped_presentation()
    assert pres.eq(pres.parse("sigma(2)"), pres.const(2))


def test_t_call_needs_a_shift_base():
    T = radical_tower_f5()
    assert T.eq(T.parse("t(1)"), T.const(T.base.t(1)))
    F = frobenius_tower(3, [1, 0, 1], 1)
    with pytest.raises(ExpressionError):
        F.parse("t(1)")


def test_unknown_names_and_calls_raise():
    pres = _capped_presentation()
    for text in ("w0", "f(y0)", "sigma(y0, y1)"):
        with pytest.raises(ExpressionError):
            pres.parse(text)


# one monomial list per kind of key: presentation, tower, multipoly
_MONOS = [
    [(), (((0, 0), 1),), (((0, 0), 1), ((0, 1), 2))],
    [(), (1,), (0, 1), (1, 1)],
    [(), ((0, 1),), ((0, 2), (3, 1))],
]


@pytest.mark.parametrize("monos", _MONOS)
def test_to_dense_and_from_dense_round_trip(monos):
    index = {m: t for t, m in enumerate(monos)}
    f = {monos[0]: 3, monos[-1]: 4}
    v = mp.to_dense(F5, f, index)
    assert v == [3] + [0] * (len(monos) - 2) + [4]
    assert mp.from_dense(F5, v, monos) == f
    assert mp.to_dense(F5, mp.from_dense(F5, [1, 0, 2], monos), index)[:3] == [1, 0, 2]


@pytest.mark.parametrize("monos", _MONOS)
def test_to_dense_refuses_an_unindexed_monomial(monos):
    index = {m: t for t, m in enumerate(monos[:-1])}
    assert mp.to_dense(F5, {monos[0]: 1, monos[-1]: 2}, index) is None
    assert mp.to_dense(F5, {}, index) == [0] * len(index)
