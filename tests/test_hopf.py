"""Hopf axioms and the strong-core Hopf-subalgebra certificates."""

import pytest

from diffalg import _linalg as la
from diffalg.diffpoly import LevelAlgebra, Presentation, sigma_kernel_slice
from diffalg.exactfield import PrimeField
from diffalg.findiff import (FinSigmaAlgebra, algebra_on_basis, is_etale,
                             is_strongly_sigma_etale, strong_core)
from diffalg.gallery import (broken_antipode_fixture, collapsed_dual_hopf,
                             group_automorphism_duals, group_dual_hopf,
                             invalid_swap_dual, product_carrier,
                             product_carrier_hopf, z3_inversion_dual)
from diffalg.hopf import (SigmaHopf, TruncatedGroupLikeHopf, hopf_validate,
                          hopf_validate_truncated,
                          strong_core_is_hopf_subalgebra,
                          strong_core_is_hopf_subalgebra_truncated,
                          union_of_etale_subalgebras_probe)


def test_group_like_product_carrier_validates():
    for char in (5, 7):
        H = product_carrier_hopf(char)
        rep = hopf_validate_truncated(H, 1)
        assert rep.ok, rep.violations[:5]


def test_collapsed_dual_is_a_difference_hopf_algebra():
    rep = hopf_validate(collapsed_dual_hopf(5))
    assert rep.ok


def test_z3_inversion_dual_validates_and_swaps_idempotents():
    H = z3_inversion_dual(5)
    assert hopf_validate(H).ok
    A = H.carrier
    images = [A.apply_sigma(A.basis_vec(j)) for j in range(3)]
    moved = sum(0 if A.vec_eq(images[j], A.basis_vec(j)) else 1 for j in range(3))
    assert moved == 2


def test_translation_dual_fails_sigma_compatibility():
    rep = hopf_validate(invalid_swap_dual(5))
    assert not rep.ok
    assert any(v[0] == "comul-sigma" for v in rep.violations)


def test_broken_antipode_reported_with_witness():
    rep = hopf_validate(broken_antipode_fixture(5))
    assert not rep.ok
    witnesses = [v[1] for v in rep.violations if v[0] == "antipode-law"]
    assert witnesses and 1 in witnesses    # the group-like basis vector


def test_group_like_hopf_requires_unit_caps():
    from diffalg.exactfield import PrimeField
    from diffalg.diffpoly import Presentation

    pres = Presentation(PrimeField(5), ["y"], ["y0^2-2"])
    with pytest.raises(ValueError):
        TruncatedGroupLikeHopf(pres)


def test_core_containment_on_matrix_carriers():
    for H in (z3_inversion_dual(5), collapsed_dual_hopf(5)):
        cert = strong_core_is_hopf_subalgebra(H)
        assert cert["status"] == "verified"
        assert len(cert["comul_witness"]) == cert["core_dimension"]


def test_core_containment_refuted_when_comul_leaves_core_square():
    H = collapsed_dual_hopf(5)
    k = H.carrier.base
    # the core is the scalars; moving one entry of Delta(e_0) takes
    # Delta(1) = Delta(e_0) + Delta(e_1) off the line through 1 (x) 1
    H.comul[0][0] = k.add(H.comul[0][0], k.one())
    cert = strong_core_is_hopf_subalgebra(H)
    assert cert["status"] == "refuted"
    assert "outside core (x) core" in cert["reason"]


def test_core_containment_on_truncated_carrier():
    for char in (5, 7):
        cert = strong_core_is_hopf_subalgebra_truncated(
            product_carrier_hopf(char), 2)
        assert cert["status"] == "verified" and cert["core_dimension"] == 1


def test_every_automorphism_dual_has_a_full_hopf_core():
    duals = group_automorphism_duals(5)
    assert len(duals) >= 8
    for H in duals:
        assert hopf_validate(H).ok
        assert is_strongly_sigma_etale(H.carrier)
        cert = strong_core_is_hopf_subalgebra(H)
        assert cert["status"] == "verified"
        assert cert["core_dimension"] == H.carrier.dim


def test_collapsed_dual_core_is_proper():
    H = collapsed_dual_hopf(5)
    core = strong_core(H.carrier)
    assert core.algebra.dim == 1 < H.carrier.dim


def test_union_probe_grows_while_core_stays_small():
    for char in (5, 7):
        pres = product_carrier(char)
        dims = []
        for level in (1, 2, 3):
            probe = union_of_etale_subalgebras_probe(pres, level)
            assert probe["all_etale"]
            assert probe["slice_dimension"] >= 2 ** level
            dims.append(probe["slice_dimension"])
        assert dims[0] < dims[1] < dims[2]


def test_union_probe_zero_for_injective_sigma():
    from diffalg.gallery import swap_presentation

    probe = union_of_etale_subalgebras_probe(swap_presentation(5), 1)
    assert probe["slice_dimension"] == 0


def test_collapsed_line_probe_is_one_dimensional():
    from diffalg.gallery import collapsed_line

    probe = union_of_etale_subalgebras_probe(collapsed_line(5), 2)
    assert probe["slice_dimension"] == 1 and probe["all_etale"]


def _trace_form_verdict(pres, a, level):
    """is_etale of k[a], built on the echelon basis of the span of the powers
    of a inside the level algebra: the oracle for the probe's gcd test."""
    k = pres.base
    ambient = LevelAlgebra.make(pres, level)
    span = la.SpanBasis(k, ambient.dim())
    power = pres.one()
    while span.add(ambient.coords(power)):
        power = pres.mul(power, a)

    def coords(x):
        v = ambient.coords(x)
        return None if v is None else span.coordinates(v)

    A = algebra_on_basis(k, [ambient.element(r) for r in span.basis()],
                         pres.mul, pres.sigma, pres.one(), coords)
    return is_etale(A)


F5 = PrimeField(5)
PROBE_CASES = ([(product_carrier(c), level) for c in (5, 7) for level in (1, 2, 3)]
               + [(Presentation(F5, ["y"], ["y0^3-y0^2", "y1"]), 1),
                  (Presentation(F5, ["y", "z"], ["y0^2", "y1", "z0^2-z0", "z1"]), 1)])


@pytest.mark.parametrize("case", range(len(PROBE_CASES)))
def test_union_probe_agrees_with_the_trace_form(case):
    pres, level = PROBE_CASES[case]
    probe = union_of_etale_subalgebras_probe(pres, level)
    want = [_trace_form_verdict(pres, a, level) for a in sigma_kernel_slice(pres, level)]
    assert probe["certificates"] == want
    assert probe["all_etale"] == all(want)


def test_union_probe_sees_nilpotents():
    # y0^3 = y0^2 makes k[y0] = k[x]/(x^2 (x - 1)), which is not etale
    pres, level = PROBE_CASES[-2]
    assert union_of_etale_subalgebras_probe(pres, level)["certificates"] == [False, True]
    pres, level = PROBE_CASES[-1]
    assert union_of_etale_subalgebras_probe(pres, level)["certificates"] == [False, True, False]


def test_z4_inversion_dual_validates():
    H = group_dual_hopf(5, (4,), lambda g: ((-g[0]) % 4,))
    assert hopf_validate(H).ok
    assert strong_core_is_hopf_subalgebra(H)["status"] == "verified"


def _corrupted_collapsed_dual(field, pos):
    """collapsed_dual_hopf(5) with one entry of one matrix raised by one."""
    H = collapsed_dual_hopf(5)
    k = H.carrier.base
    A = H.carrier
    data = {"mul": [[list(c) for c in row] for row in A.mul], "unit": list(A.unit),
            "sigma": [list(r) for r in A.sigma], "comul": [list(r) for r in H.comul],
            "antipode": [list(r) for r in H.antipode], "counit": list(H.counit)}
    ref = data[field]
    for p in pos[:-1]:
        ref = ref[p]
    ref[pos[-1]] = k.add(ref[pos[-1]], k.one())
    carrier = FinSigmaAlgebra(k, data["mul"], data["unit"], data["sigma"])
    return SigmaHopf(carrier, data["comul"], data["antipode"], data["counit"])


# Exact violation lists, in report order; the corrupted carriers hit each
# violation kind at least once.
@pytest.mark.parametrize("make, expected", [
    (lambda: invalid_swap_dual(5),
     [("comul-sigma", 0), ("counit-sigma", 0), ("comul-sigma", 1), ("counit-sigma", 1)]),
    (lambda: broken_antipode_fixture(5), [("antipode-law", 1)]),
    (lambda: _corrupted_collapsed_dual("sigma", (1, 0)),
     [("carrier", ("sigma-unit", None)), ("carrier", ("sigma-multiplicative", (0, 0))),
      ("comul-sigma", 0)]),
    (lambda: _corrupted_collapsed_dual("comul", (3, 0)),
     [("comul-unital", None), ("comul-multiplicative", (0, 0)), ("antipode-law", 0),
      ("comul-sigma", 0)]),
    (lambda: _corrupted_collapsed_dual("mul", (1, 1, 1)),
     [("carrier", ("unit-law", 1)), ("carrier", ("sigma-multiplicative", (0, 0))),
      ("comul-multiplicative", (0, 0)), ("antipode-law", 0)]),
    (lambda: _corrupted_collapsed_dual("comul", (3, 1)),
     [("comul-unital", None), ("comul-multiplicative", (0, 1)), ("comul-sigma", 0),
      ("antipode-law", 1)]),
    (lambda: _corrupted_collapsed_dual("unit", (0,)),
     [("carrier", ("unit-law", 0)), ("carrier", ("sigma-unit", None)),
      ("comul-unital", None), ("counit-unital", None), ("antipode-law", 0)]),
    (lambda: _corrupted_collapsed_dual("counit", (0,)),
     [("counit-unital", None), ("counit-multiplicative", (0, 0)), ("counit-law", 0),
      ("antipode-law", 0), ("counit-law", 1)]),
    (lambda: _corrupted_collapsed_dual("counit", (1,)),
     [("counit-unital", None), ("counit-multiplicative", (0, 1)), ("counit-law", 0),
      ("counit-sigma", 0), ("counit-law", 1), ("antipode-law", 1), ("counit-sigma", 1)]),
    (lambda: _corrupted_collapsed_dual("antipode", (0, 0)),
     [("antipode-unital", None), ("antipode-multiplicative", (0, 0)), ("antipode-law", 0),
      ("antipode-sigma", 0)]),
    (lambda: _corrupted_collapsed_dual("antipode", (1, 1)),
     [("antipode-unital", None), ("antipode-multiplicative", (1, 1)), ("antipode-law", 0),
      ("antipode-sigma", 0)]),
    (lambda: _corrupted_collapsed_dual("antipode", (0, 1)),
     [("antipode-unital", None), ("antipode-multiplicative", (0, 1)), ("antipode-sigma", 0),
      ("antipode-law", 1), ("antipode-sigma", 1)]),
    (lambda: _corrupted_collapsed_dual("comul", (1, 0)),
     [("comul-unital", None), ("comul-multiplicative", (0, 1)), ("coassociativity", 0),
      ("counit-law", 0), ("comul-sigma", 0), ("coassociativity", 1)]),
    (lambda: _corrupted_collapsed_dual("comul", (1, 1)),
     [("comul-unital", None), ("comul-multiplicative", (1, 1)), ("coassociativity", 0),
      ("comul-sigma", 0), ("coassociativity", 1), ("counit-law", 1)]),
    (lambda: _corrupted_collapsed_dual("antipode", (1, 0)),
     [("antipode-unital", None), ("antipode-multiplicative", (0, 1)), ("antipode-sigma", 0),
      ("antipode-law", 1)]),
], ids=["invalid-swap-dual", "broken-antipode", "carrier", "comul-unital",
        "comul-multiplicative", "comul-sigma", "counit-unital", "counit-multiplicative",
        "counit-sigma", "antipode-unital", "antipode-multiplicative", "antipode-sigma",
        "coassociativity", "counit-law", "antipode-law"])
def test_exact_violation_lists(make, expected):
    rep = hopf_validate(make())
    assert rep.violations == expected and not rep.ok
