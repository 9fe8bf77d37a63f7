"""Difference Hopf structures and the strong-core Hopf-subalgebra check.

Two carrier shapes are supported: finite-dimensional algebras with explicit
comultiplication/antipode/counit matrices, and truncated presentations whose
declared variables are group-like (each power rule must cap to one, making
every normal monomial invertible).  All axiom checks are exact and run over
a full basis; nothing is sampled.
"""

from __future__ import annotations

from . import _linalg as la
from . import _multipoly as mp
from . import _polycore as pc
from .diffpoly import (LevelAlgebra, Presentation, level_sigma_kernel,
                       strong_core_truncated)
from .findiff import (FinSigmaAlgebra, SigmaAlgebraMorphism, ValidationReport,
                      algebra_validate, strong_core, tensor_product)


class SigmaHopf:
    """Matrix-backed Hopf data over a FinSigmaAlgebra carrier A of dimension n.

    comul is an (n*n) x n matrix whose row a*n + b is tensor_product's index
    of e_a (x) e_b, so column j holds the coordinates of the image of the j-th
    basis vector in A (x) A; antipode is n x n; counit is a length-n row.
    """

    def __init__(self, carrier, comul, antipode, counit):
        self.carrier, self.comul, self.antipode, self.counit = carrier, comul, antipode, counit

    def morphisms(self):
        """comul, counit and antipode as maps A -> A (x) A, A -> k, A -> A,
        with k the one-dimensional algebra on its unit."""
        A = self.carrier
        one = A.base.one()
        scalars = FinSigmaAlgebra(A.base, [[[one]]], [one], [[one]])
        return (SigmaAlgebraMorphism(A, tensor_product(A, A), self.comul),
                SigmaAlgebraMorphism(A, scalars, [self.counit]),
                SigmaAlgebraMorphism(A, A, self.antipode))

    def comul_apply(self, v):
        k = self.carrier.base
        n = self.carrier.dim
        return {divmod(t, n): c for t, c in enumerate(la.mat_vec(k, self.comul, v))
                if not k.is_zero(c)}


# Tensors are sparse dicts keyed by tuples of basis indices or monomials,
# one entry per factor; _multipoly's kernel does their arithmetic.  The
# product of two keys is their pair (x (x) y) or, when they are already
# tuples of factors, their concatenation.


def _pair(a, b):
    return (a, b)


def _concat(a, b):
    return a + b


def _coassociativity_sides(k, delta, comul):
    """(comul (x) id) delta and (id (x) comul) delta as 3-index tensors."""
    left = {}
    right = {}
    for (a, b), c in delta.items():
        mp.iadd(k, left, mp.mul(k, comul(a), {(b,): c}, _concat))
        mp.iadd(k, right, mp.mul(k, {(a,): c}, comul(b), _concat))
    return left, right


def _convolve(A, delta, left, right):
    """The sum of c * left(a) * right(b) over the terms c e_a (x) e_b of delta."""
    out = A.zero_vec()
    for (a, b), c in delta.items():
        out = A.vec_add(out, A.scalar_mul(c, A.multiply(left(a), right(b))))
    return out


def hopf_validate(H: SigmaHopf) -> ValidationReport:
    """Exact basis-complete check of the Hopf axioms and sigma-compatibility.

    Comultiplication, counit and antipode must be sigma-algebra morphisms
    into A (x) A, k and A; the coalgebra and antipode laws are checked on
    every basis vector.
    """
    A = H.carrier
    k = A.base
    n = A.dim
    comul, counit, antipode = H.morphisms()
    # the report takes the unit and pair checks in the order comul, counit,
    # antipode, and the sigma checks in the order comul, antipode, counit
    maps = (("comul", comul), ("counit", counit), ("antipode", antipode))
    sigma_maps = (("comul", comul), ("antipode", antipode), ("counit", counit))
    violations = [("carrier", v) for v in algebra_validate(A).violations]
    violations += [(name + "-unital", None) for name, f in maps if not f.unit_ok()]
    violations += [(name + "-multiplicative", (i, j))
                   for i in range(n) for j in range(i, n)
                   for name, f in maps if not f.multiplicative_ok(i, j)]
    deltas = [H.comul_apply(A.basis_vec(j)) for j in range(n)]
    for j, delta in enumerate(deltas):
        left, right = _coassociativity_sides(k, delta, deltas.__getitem__)
        if not mp.eq(k, left, right):
            violations.append(("coassociativity", j))
        # (counit (x) id) delta and (id (x) counit) delta give back e_j
        lhs1 = A.zero_vec()
        lhs2 = A.zero_vec()
        for (a, b), c in delta.items():
            lhs1[b] = k.add(lhs1[b], k.mul(c, H.counit[a]))
            lhs2[a] = k.add(lhs2[a], k.mul(c, H.counit[b]))
        if not A.vec_eq(lhs1, A.basis_vec(j)) or not A.vec_eq(lhs2, A.basis_vec(j)):
            violations.append(("counit-law", j))
        want = A.scalar_mul(H.counit[j], A.unit)
        if not (A.vec_eq(_convolve(A, delta, antipode.column, A.basis_vec), want)
                and A.vec_eq(_convolve(A, delta, A.basis_vec, antipode.column), want)):
            violations.append(("antipode-law", j))
        violations += [(name + "-sigma", j) for name, f in sigma_maps if not f.sigma_ok(j)]
    return ValidationReport(not violations, violations)


_OUTSIDE_CORE_SQUARE = "comultiplication image outside core (x) core"


def _comul_witness(k, basis, images):
    """Coordinates of each comultiplication image in the products b (x) b' of
    the core basis (sparse dicts), or None when one lies outside core (x) core."""
    cols = [mp.mul(k, a, b, _pair) for a in basis for b in basis]
    keys = sorted({key for col in cols for key in col}
                  | {key for img in images for key in img})
    key_index = {key: t for t, key in enumerate(keys)}
    matrix = la.transpose([mp.to_dense(k, col, key_index) for col in cols], len(keys))
    solve = la.solver(k, matrix)
    witness = []
    for img in images:
        sol = solve(mp.to_dense(k, img, key_index))
        if sol is None:
            return None
        witness.append(k.vec_to_json(sol))
    return witness


def strong_core_is_hopf_subalgebra(H: SigmaHopf) -> dict:
    """Certificate that the strong core is closed under the Hopf maps.

    Expands the comultiplication of every core basis vector in the products
    of core basis vectors and the antipode image in the core itself; the
    expansion coefficients are the emitted witnesses.
    """
    A = H.carrier
    k = A.base
    core = strong_core(A)
    if not core.complete:
        return {"status": "inconclusive",
                "reason": "strong core is only a lower bound on this base"}
    basis = [core.inclusion.column(j) for j in range(core.algebra.dim)]
    r = len(basis)
    comul_witness = _comul_witness(k, [mp.from_dense(k, v, range(A.dim)) for v in basis],
                                   [H.comul_apply(v) for v in basis])
    if comul_witness is None:
        return {"status": "refuted", "reason": _OUTSIDE_CORE_SQUARE}
    span = core.span
    antipode_witness = []
    for v in basis:
        coords = span.coordinates(la.mat_vec(k, H.antipode, v))
        if coords is None:
            return {"status": "refuted", "reason": "antipode image outside the core"}
        antipode_witness.append(k.vec_to_json(coords))
    return {"status": "verified", "core_dimension": r,
            "comul_witness": comul_witness,
            "antipode_witness": antipode_witness}


# -- truncated group-like carriers ---------------------------------------------


class TruncatedGroupLikeHopf:
    """Presentation-backed Hopf structure with every variable group-like.

    Requires each power rule to cap to one so normal monomials form a group;
    the comultiplication doubles monomials, the antipode inverts them, and
    the counit sends every monomial to one.
    """

    def __init__(self, pres):
        self.pres = pres
        k = pres.base
        for j, (start, d, coeffs) in pres.power_rules.items():
            ok = all(k.is_zero(c) for c in coeffs[1:]) and k.eq(coeffs[0], k.one())
            if not ok:
                raise ValueError(
                    "group-like Hopf structure needs power rules capping to one")

    def comul(self, f):
        return {(m, m): c for m, c in f.items()}

    def antipode(self, f):
        p = self.pres
        out = p.zero()
        for m, c in f.items():
            inv = p.one()
            for (j, i), e in m:
                d = p.power_rules[j][1]
                inv = p.mul(inv, p.power(p.var_element(j, i), (d - e) % d))
            out = p.add(out, p.scale(inv, c))
        return out

    def counit(self, f):
        k = self.pres.base
        acc = k.zero()
        for _, c in f.items():
            acc = k.add(acc, c)
        return acc


def _trunc_tensor_mul(p, t1, t2):
    k = p.base
    out = {}
    for (a1, b1), c in t1.items():
        for (a2, b2), d in t2.items():
            left = p.mul({a1: k.one()}, {a2: k.one()})
            right = p.mul({b1: k.one()}, {b2: k.one()})
            mp.iadd(k, out, mp.scale(k, mp.mul(k, left, right, _pair), k.mul(c, d)))
    return out


def hopf_validate_truncated(H: TruncatedGroupLikeHopf, level: int) -> ValidationReport:
    """Levelwise exact verification on the level-n monomial basis."""
    p = H.pres
    k = p.base
    violations = []
    basis = LevelAlgebra.make(p, level).monomials
    for m in basis:
        x = {m: k.one()}
        delta = H.comul(x)
        # coassociativity and counit laws are immediate for group-likes but
        # get checked against the generic expansions anyway
        left, right = _coassociativity_sides(k, delta, lambda a: H.comul({a: k.one()}))
        if not mp.eq(k, left, right):
            violations.append(("coassociativity", m))
        recon = p.zero()
        for (a, b), c in delta.items():
            recon = p.add(recon, p.scale({b: k.one()}, k.mul(c, H.counit({a: k.one()}))))
        if not p.eq(recon, x):
            violations.append(("counit-law", m))
        want = p.scale(p.one(), H.counit(x))
        got = p.zero()
        for (a, b), c in delta.items():
            term = p.mul(H.antipode({a: k.one()}), {b: k.one()})
            got = p.add(got, p.scale(term, c))
        if not p.eq(got, want):
            violations.append(("antipode-law", m))
        # morphism of difference rings: commutes with sigma, levelwise
        sx = p.sigma(x)
        lhs = H.comul(sx)
        rhs = {}
        for (a, b), c in delta.items():
            sa = p.sigma({a: k.one()})
            sb = p.sigma({b: k.one()})
            mp.iadd(k, rhs, mp.scale(k, mp.mul(k, sa, sb, _pair), k.sigma(c)))
        if not mp.eq(k, lhs, rhs):
            violations.append(("comul-sigma", m))
        if not p.eq(H.antipode(sx), p.sigma(H.antipode(x))):
            violations.append(("antipode-sigma", m))
        if not k.eq(H.counit(sx), k.sigma(H.counit(x))):
            violations.append(("counit-sigma", m))
    # multiplicativity of the comultiplication on basis pairs
    for i, m1 in enumerate(basis):
        for m2 in basis[i:]:
            x1, x2 = {m1: k.one()}, {m2: k.one()}
            prod = p.mul(x1, x2)
            lhs = H.comul(prod)
            rhs = _trunc_tensor_mul(p, H.comul(x1), H.comul(x2))
            if not mp.eq(k, lhs, rhs):
                violations.append(("comul-multiplicative", (m1, m2)))
    return ValidationReport(not violations, violations)


def strong_core_is_hopf_subalgebra_truncated(H: TruncatedGroupLikeHopf,
                                             level: int, horizon: int = 64) -> dict:
    p = H.pres
    k = p.base
    core = strong_core_truncated(p, level, horizon)
    if core.status != "exact":
        return {"status": "inconclusive", "reason": "core status " + core.status}
    basis = core.basis
    comul_witness = _comul_witness(k, basis, [H.comul(x) for x in basis])
    if comul_witness is None:
        return {"status": "refuted", "reason": _OUTSIDE_CORE_SQUARE}
    # antipode containment
    mono_set = sorted({m for x in basis for m in x} | {()}, key=lambda m: (len(m), m))
    idx = {m: t for t, m in enumerate(mono_set)}
    span = la.SpanBasis(k, len(mono_set))
    for x in basis:
        span.add(mp.to_dense(k, x, idx))
    antipode_witness = []
    for x in basis:
        v = mp.to_dense(k, H.antipode(x), idx)
        coords = None if v is None else span.coordinates(v)
        if coords is None:
            return {"status": "refuted", "reason": "antipode image outside the core"}
        antipode_witness.append(k.vec_to_json(coords))
    return {"status": "verified", "core_dimension": len(basis),
            "comul_witness": comul_witness, "antipode_witness": antipode_witness}


def union_of_etale_subalgebras_probe(pres: Presentation, level: int) -> dict:
    """Dimension of the sigma-annihilated slice at the given level, with an
    etale certificate for the subalgebra each slice element generates.

    k[a] is k[x]/(m_a) for the minimal polynomial m_a of a, which
    _linalg.minimal_polynomial finds on the level algebra's coordinates, and
    its trace form's discriminant is +-Res(m_a, m_a'), so k[a] is etale
    exactly when gcd(m_a, m_a') = 1.
    """
    k = pres.base
    ambient, slice_basis = level_sigma_kernel(pres, level)
    certs = []
    for a in slice_basis:
        m = la.minimal_polynomial(k, pres.one(), lambda x: pres.mul(x, a), ambient.coords)
        certs.append(pc.deg(pc.gcd(k, m, pc.derivative(k, m))) == 0)
    return {"level": level, "slice_dimension": len(slice_basis),
            "all_etale": all(certs), "certificates": certs}
