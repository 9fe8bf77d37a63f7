"""Truncated presentations: dimensions, certificates, windowed strong cores."""

import pytest

from diffalg.diffpoly import (Presentation, UnsupportedPresentationError,
                              classify_idempotent, level_primitive_idempotents,
                              periodic_idempotents_truncated, sigma_kernel_slice,
                              strong_core_truncated, truncate)
from diffalg.exactfield import FunctionField, PrimeField, Rationals
from diffalg.findiff import FinSigmaAlgebra, strong_core
from diffalg.gallery import (collapsed_line, free_line, product_carrier,
                             swap_presentation)

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
