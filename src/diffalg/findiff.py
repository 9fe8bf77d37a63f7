"""Finite-dimensional commutative difference algebras over a difference field.

An algebra is given by structure constants, a unit vector and a semilinear
endomorphism matrix: mul[i][j] is the coordinate vector of e_i * e_j, and
sigma is stored transposed, sigma[i][j] being the i-th coordinate of
sigma(e_j), so its columns are the images of the basis vectors.  This module
hosts the separability and etale predicates, idempotent enumeration, and the
strong-core engine: base-change to a splitting extension, the periodic atoms
there (the fibres of pi^|U|, pi the predecessor map on the recurrent
primitive idempotents U), and exact linear descent of their span, which
hands the core its echelon span.  Over F_q the primitive idempotents are
split out of the q-power-fixed subalgebra inside the algebra, by powers of
random fixed elements alone (_linalg.split_idempotents, the splitter that
factor_over_finite_field also runs).

multiply runs the base field's bilinear kernel on the table its
bilinear_table builds from mul: per row i, the nonzero products e_i e_j
only, each as its nonzero (t, c) pairs (c as a log on a table F_q), so a
point algebra's row holds one product.  The table is built on the first
product and kept off to_json.  factor memoises factor_over_finite_field on
the algebra, so the memo lives as long as the algebra: one strong core or
one CLI verdict.  minimal_polynomial is _linalg's, one echelon reduction
per power with no rref.
The base field's is_finite gates the automatic paths; field_embedding and
the relative bases read its degree, frobenius_power, power_basis and
prime_coords, and find the image of the small field's generator once per
pair of defining polynomials and process (_defpoly_root, a 32-entry LRU).
A relative basis eliminates its coordinate matrix once (_linalg.solver)
and answers every scalar its coordinate function is asked for from it.

Every subalgebra or quotient carved out of a bigger ring (the strong core,
a sigma-closure, the quotient by a sigma-ideal, a presentation's level and
its window, the core of a finite tower) is built by algebra_on_basis from
a list of ambient elements and a coordinate function.
"""

from __future__ import annotations

import functools
import math
import random

from . import _linalg as la
from . import _multipoly as mp
from . import _polycore as pc
from ._load import cursor
from .exactfield import GaloisField, PrimeField, field_make
from .poly import Poly, factor_over_finite_field, roots


class RestrictedAutomationError(RuntimeError):
    """Full automation needs a finite base field or supplied idempotents."""


class ZeroRingError(ArithmeticError):
    """A construction collapsed to the zero ring."""


class CompatibilityError(ValueError):
    """Base-change data with mismatched endomorphisms."""


class FinSigmaAlgebra:
    """Commutative unital algebra with a semilinear endomorphism, laid out
    as the module docstring says.  sigma acts on arbitrary vectors
    semilinearly: sigma(sum v_j e_j) = sum sigma_base(v_j) sigma(e_j).
    """

    def __init__(self, base, mul, unit, sigma):
        self.base = base
        self.dim = len(unit)
        self.mul = mul
        self.unit = list(unit)
        self.sigma = [list(r) for r in sigma]
        self._table = None   # base.bilinear_table(mul), built at the first product
        self._factors = {}   # factor's memo, keyed by coefficient tuples

    # -- element helpers ---------------------------------------------------

    def zero_vec(self):
        return [self.base.zero()] * self.dim

    def basis_vec(self, i):
        v = self.zero_vec()
        v[i] = self.base.one()
        return v

    def vec_eq(self, u, v):
        return self.base.vec_eq(u, v)

    def vec_is_zero(self, v):
        return self.base.vec_is_zero(v)

    def scalar_mul(self, c, v):
        return self.base.row_scale(c, v)

    def vec_add(self, u, v):
        k = self.base
        return k.row_sub(u, k.neg(k.one()), v)

    def multiply(self, u, v):
        k = self.base
        if self._table is None:
            self._table = k.bilinear_table(self.mul)
        return k.bilinear(u, v, self._table)

    def power(self, v, e):
        return mp.power(list(v), e, list(self.unit), self.multiply)

    def factor(self, m: Poly):
        """factor_over_finite_field(m) for m over the base, computed once per
        coefficient tuple on this algebra."""
        fl = self._factors.get(m.coeffs)
        if fl is None:
            fl = self._factors[m.coeffs] = factor_over_finite_field(m)
        return fl

    def apply_sigma(self, v):
        k = self.base
        return la.mat_vec(k, self.sigma, [k.sigma(c) for c in v])

    def is_idempotent(self, v):
        return self.vec_eq(self.multiply(v, v), v)

    def evaluate_poly(self, f: Poly, v, unit):
        """f(v) inside the algebra, the constant term times the given unit."""
        acc = self.zero_vec()
        for c in reversed(list(f.coeffs)):
            acc = self.multiply(acc, v)
            acc = self.vec_add(acc, self.scalar_mul(c, unit))
        return acc

    # -- serialization -----------------------------------------------------

    def to_json(self):
        enc = self.base.vec_to_json
        return {
            "base": self.base.descriptor(),
            "dim": self.dim,
            "mul": [[enc(cell) for cell in row] for row in self.mul],
            "unit": enc(self.unit),
            "sigma": [enc(row) for row in self.sigma],
        }

    @staticmethod
    def from_json(data, base=None):
        """Load an algebra from a plain JSON value or a _load.Cursor; base,
        when given, replaces the descriptor at key base."""
        doc = cursor(data)
        base = base if base is not None else field_make(doc.key("base"))
        unit = doc.key("unit").scalars(base, None)
        n = len(unit)
        if not n:
            raise doc.key("unit").error("must be a non-empty JSON array")
        at_mul = doc.key("mul")
        mul = at_mul.scalars(base, n, n, n)
        sigma = doc.key("sigma").scalars(base, n, n)
        # decoded scalars are canonical, so == decides equal products
        for i in range(n):
            for j in range(i + 1, n):
                if mul[i][j] != mul[j][i]:
                    raise at_mul.error(f"is not commutative: mul[{i}][{j}] != mul[{j}][{i}]")
        return FinSigmaAlgebra(base, mul, unit, sigma)


class ValidationReport:
    def __init__(self, ok, violations):
        self.ok, self.violations = ok, violations

    def __bool__(self):
        return self.ok


class Idempotent:
    def __init__(self, coords, primitive=False):
        self.coords, self.primitive = coords, primitive


class SigmaAlgebraMorphism:
    """k-linear map given by a (target.dim x source.dim) matrix."""

    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        self.matrix = [list(r) for r in matrix]

    def apply(self, v):
        return la.mat_vec(self.source.base, self.matrix, v)

    def column(self, j):
        return [self.matrix[i][j] for i in range(len(self.matrix))]

    def unit_ok(self):
        return self.target.vec_eq(self.apply(self.source.unit), self.target.unit)

    def multiplicative_ok(self, i, j):
        lhs = self.apply(self.source.mul[i][j])
        return self.target.vec_eq(lhs, self.target.multiply(self.column(i),
                                                            self.column(j)))

    def sigma_ok(self, j):
        src = self.source
        lhs = self.apply([src.sigma[i][j] for i in range(src.dim)])
        return self.target.vec_eq(lhs, self.target.apply_sigma(self.column(j)))

    def validate(self):
        n = self.source.dim
        violations = [] if self.unit_ok() else [("unit", None)]
        violations += [("multiplicative", (i, j)) for i in range(n)
                       for j in range(i, n) if not self.multiplicative_ok(i, j)]
        violations += [("sigma-square", j) for j in range(n) if not self.sigma_ok(j)]
        return ValidationReport(not violations, violations)


class PeriodicityResult:
    def __init__(self, status, period=None, reason=None, steps=0):
        # status: "periodic" | "nonperiodic" | "unknown"
        self.status, self.period, self.reason, self.steps = status, period, reason, steps

    def is_periodic(self):
        return self.status == "periodic"


class CoreResult:
    def __init__(self, algebra, inclusion, complete, span):
        self.algebra, self.inclusion = algebra, inclusion
        self.complete, self.span = complete, span


def algebra_validate(A: FinSigmaAlgebra) -> ValidationReport:
    """Check commutativity, associativity, the unit law and that sigma is a
    unital, multiplicative, semilinear endomorphism."""
    k = A.base
    n = A.dim
    violations = []
    for i in range(n):
        for j in range(i + 1, n):
            if not A.vec_eq(A.mul[i][j], A.mul[j][i]):
                violations.append(("commutativity", (i, j)))
    for i in range(n):
        if not A.vec_eq(A.multiply(A.unit, A.basis_vec(i)), A.basis_vec(i)):
            violations.append(("unit-law", i))
    for i in range(n):
        for j in range(n):
            ij = A.mul[i][j]
            for l in range(n):
                left = A.multiply(ij, A.basis_vec(l))
                right = A.multiply(A.basis_vec(i), A.mul[j][l])
                if not A.vec_eq(left, right):
                    violations.append(("associativity", (i, j, l)))
    if not A.vec_eq(A.apply_sigma(A.unit), A.unit):
        violations.append(("sigma-unit", None))
    for i in range(n):
        for j in range(i, n):
            lhs = A.apply_sigma(A.mul[i][j])
            rhs = A.multiply(A.apply_sigma(A.basis_vec(i)), A.apply_sigma(A.basis_vec(j)))
            if not A.vec_eq(lhs, rhs):
                violations.append(("sigma-multiplicative", (i, j)))
    return ValidationReport(not violations, violations)


def is_sigma_separable(A: FinSigmaAlgebra) -> bool:
    """Whether sigma maps a basis to a family linearly independent over the
    base field (the sigma matrix has full rank): exactly sigma-separability.
    It is also exactly sigma-reducedness (a trivial kernel) over inversive
    bases, Q and the finite fields among them; over the others True still
    proves a trivial kernel, while False only shows a rank drop."""
    return la.rank(A.base, A.sigma) == A.dim


# the same test, under the name of the property it decides over inversive bases
is_sigma_reduced = is_sigma_separable


def trace_gram_matrix(A: FinSigmaAlgebra):
    k = A.base
    n = A.dim
    # trace of multiplication by e_m: the sum of the diagonal of A.mul[m]
    tr = [k.vec_sum([c[t] for t, c in enumerate(row)]) for row in A.mul]
    gram = [[k.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = k.dot(A.mul[i][j], tr)
    return gram


def is_etale(A: FinSigmaAlgebra) -> bool:
    """Nondegeneracy of the trace bilinear form."""
    return not A.base.is_zero(la.det(A.base, trace_gram_matrix(A)))


def is_strongly_sigma_etale(A: FinSigmaAlgebra) -> bool:
    """Etale with sigma injective.  Sigma's rank comes first: it is one
    elimination of the n x n sigma matrix, while etaleness builds the trace
    form (n(n+1)/2 dot products) before its determinant, so the trace form
    is built only when sigma is injective.  Both tests are exact and raise
    nothing on a loaded algebra, so the order changes no verdict."""
    return is_sigma_separable(A) and is_etale(A)


def minimal_polynomial(A: FinSigmaAlgebra, v, unit=None) -> Poly:
    """Minimal polynomial of v in the unital subalgebra generated by v."""
    unit = A.unit if unit is None else unit
    return Poly.make(A.base, la.minimal_polynomial(
        A.base, list(unit), lambda x: A.multiply(x, v), list))


def primitive_idempotents(A: FinSigmaAlgebra, supplied=None):
    """Complete list of primitive idempotents: orthogonal, summing to one.

    Over a finite base F_q this is fully automatic through Berlekamp's
    subalgebra B = {x : x^q = x}, a copy of F_q^r with one coordinate per
    local factor.  _linalg.split_idempotents splits B inside the algebra by
    random elements of B, without a minimal polynomial or a factorization,
    as factor_over_finite_field splits F_q[x]/(g).  Over other bases a
    complete orthogonal decomposition must be supplied.
    Each Frobenius column e_i^q is (e_i^2)^(q//2) e_i^(q%2), e_i^2 being the
    table entry mul[i][i]: one product fewer than powering e_i, none at q = 2.
    """
    k = A.base
    if supplied is not None:
        _check_supplied_idempotents(A, supplied)
        return [Idempotent(list(e), primitive=True) for e in supplied]
    if not k.is_finite:
        raise RestrictedAutomationError(
            "idempotent enumeration needs a finite base field or a supplied splitting")
    q = k.order
    # fixed-point subalgebra of x -> x^q
    phi_cols = [A.power(A.mul[i][i], q // 2) for i in range(A.dim)]
    if q % 2:
        phi_cols = [A.multiply(c, A.basis_vec(i)) for i, c in enumerate(phi_cols)]
    m = [[k.sub(phi_cols[j][i], k.one() if i == j else k.zero())
          for j in range(A.dim)] for i in range(A.dim)]
    fixed = la.nullspace(k, m)
    prims = la.split_idempotents(k, A.unit, fixed, A.multiply)
    prims.sort(key=lambda v: repr(k.vec_to_json(v)))
    return [Idempotent(v, primitive=True) for v in prims]


def _check_supplied_idempotents(A, supplied):
    k = A.base
    total = A.zero_vec()
    for i, e in enumerate(supplied):
        if not A.is_idempotent(e):
            raise ValueError(f"supplied element {i} is not idempotent")
        if A.vec_is_zero(e):
            raise ValueError(f"supplied element {i} is zero")
        total = A.vec_add(total, e)
        for j in range(i):
            if not A.vec_is_zero(A.multiply(e, supplied[j])):
                raise ValueError(f"supplied elements {j},{i} are not orthogonal")
    if not A.vec_eq(total, A.unit):
        raise ValueError("supplied idempotents do not sum to the unit")


def orbit(v, step, eq, is_zero, horizon, drifted=None) -> PeriodicityResult:
    """Walk the orbit v, step(v), step(step(v)), ... for at most horizon
    steps.  A return to v is periodic; a zero hit, a cycle that misses v, or
    (where drifted is given) drifted(x) saying the support has moved past
    v's for good is nonperiodic; a horizon exhausted first is unknown."""
    seen = []
    cur = v
    for n in range(1, horizon + 1):
        cur = step(cur)
        if eq(cur, v):
            return PeriodicityResult("periodic", period=n, steps=n)
        if is_zero(cur):
            reason = "orbit-hits-zero"
        elif any(eq(cur, prev) for prev in seen):
            reason = "orbit-cycles-without-start"
        elif drifted is not None and drifted(cur):
            reason = "support-shift"
        else:
            seen.append(cur)
            continue
        return PeriodicityResult("nonperiodic", reason=reason, steps=n)
    return PeriodicityResult("unknown", steps=horizon)


def is_periodic(A: FinSigmaAlgebra, v, horizon=None) -> PeriodicityResult:
    """orbit's verdict on whether the sigma-orbit of v returns to v."""
    if horizon is None:
        horizon = _default_horizon(A.dim)
    return orbit(list(v), A.apply_sigma, A.vec_eq, A.vec_is_zero, horizon)


def _default_horizon(dim):
    h = 1
    for i in range(1, dim + 1):
        h *= i
        if h >= 10_000:
            return 10_000
    return h


def sigma_subalgebra_generated(A: FinSigmaAlgebra, gens):
    """Smallest sigma-stable unital subalgebra containing the generators.

    Each element that enlarges the span goes through sigma once and is
    multiplied once by itself and by each element that enlarged it before."""
    span = la.SpanBasis(A.base, A.dim)
    work = [list(v) for v in (A.unit, *gens) if span.add(v)]
    for n, v in enumerate(work):
        for w in [A.apply_sigma(v)] + [A.multiply(u, v) for u in work[:n + 1]]:
            if span.add(w):
                work.append(w)
    return _subalgebra_on_span(A, span)


def algebra_on_basis(k, basis, mul, sigma, unit, coords, error=AssertionError):
    """The FinSigmaAlgebra on a list of ambient elements.

    mul and sigma act on the ambient ring and unit is its one; coords(x)
    gives x's coordinates in basis, or None when x lies outside their span,
    which raises error naming the failed law.  The ambient ring must be
    commutative, as every caller's is (algebras from JSON are checked, towers
    and presentations are commutative by construction): each product b_i b_j
    is evaluated once, for i <= j, and table[j][i] is a copy of table[i][j].
    All products are evaluated first, then the unit, then each sigma image.
    """
    def at(x, law):
        c = coords(x)
        if c is None:
            raise error(f"basis span is not {law}")
        return c

    n = len(basis)
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            table[i][j] = at(mul(basis[i], basis[j]), "closed under products")
            table[j][i] = list(table[i][j])
    one = at(unit, "unital")
    cols = [at(sigma(b), "sigma-stable") for b in basis]
    return FinSigmaAlgebra(k, table, one, la.transpose(cols, len(basis)))


def _subalgebra_on_span(A, span):
    """Package an echelon span that is closed under product and sigma."""
    basis = span.basis()
    sub = algebra_on_basis(A.base, basis, A.multiply, A.apply_sigma, A.unit,
                           span.coordinates)
    return sub, SigmaAlgebraMorphism(sub, A, la.transpose(basis, A.dim))


def tensor_product(A: FinSigmaAlgebra, B: FinSigmaAlgebra) -> FinSigmaAlgebra:
    """Basis e_i (x) f_j at index i * B.dim + j: each structure-constant
    vector, the unit and each row of sigma is the Kronecker product of the
    factors' corresponding vectors."""
    if A.base != B.base:
        raise TypeError("tensor factors live over different base fields")
    kron = A.base.kron
    mul = [[kron(pa, pb) for pa in ra for pb in rb] for ra in A.mul for rb in B.mul]
    sig = [kron(ra, rb) for ra in A.sigma for rb in B.sigma]
    return FinSigmaAlgebra(A.base, mul, kron(A.unit, B.unit), sig)


def quotient_by_sigma_ideal(A: FinSigmaAlgebra, gens):
    """Quotient by the sigma-ideal generated by gens, with the projection."""
    k = A.base
    span = la.SpanBasis(k, A.dim)
    # each element that enlarges the span meets sigma and each e_i once
    work = [list(g) for g in gens if span.add(g)]
    for v in work:
        for w in [A.apply_sigma(v)] + [A.multiply(v, A.basis_vec(i)) for i in range(A.dim)]:
            if span.add(w):
                work.append(w)
    if span.contains(A.unit):
        raise ZeroRingError("the sigma-ideal is the whole algebra")
    pivots = set(span.pivots)
    keep = [i for i in range(A.dim) if i not in pivots]

    def project(v):
        r = span.reduce(v)
        return [r[i] for i in keep]

    Q = algebra_on_basis(k, [A.basis_vec(i) for i in keep], A.multiply, A.apply_sigma,
                         A.unit, project)
    cols = [project(A.basis_vec(col)) for col in range(A.dim)]
    return Q, SigmaAlgebraMorphism(A, Q, la.transpose(cols, len(keep)))


def twist_and_psi(A: FinSigmaAlgebra):
    """The scalar-twisted algebra and the canonical map onto sigma's image.

    The twist re-reads every structure scalar through the base endomorphism;
    the canonical map sends the j-th twisted basis vector to sigma(e_j), and
    it is injective exactly when the algebra is sigma-separable.
    """
    k = A.base
    n = A.dim
    tw = k.sigma
    mul = [[[tw(c) for c in A.mul[i][j]] for j in range(n)] for i in range(n)]
    unit = [tw(c) for c in A.unit]
    sig = [[tw(c) for c in row] for row in A.sigma]
    twisted = FinSigmaAlgebra(k, mul, unit, sig)
    psi = SigmaAlgebraMorphism(twisted, A, [list(r) for r in A.sigma])
    return twisted, psi


# -- base change and splitting extensions ----------------------------------

_IRRED_CACHE = {}


def _irreducible_over_prime(p, degree):
    key = (p, degree)
    if key not in _IRRED_CACHE:
        fp = PrimeField(p)
        rng = random.Random(f"splitext-{p}-{degree}")
        _IRRED_CACHE[key] = tuple(pc.random_irreducible(fp, degree, p, rng))
    return _IRRED_CACHE[key]


def field_embedding(k, K):
    """An embedding k -> K commuting with both endomorphisms.

    Supports the finite-field descriptors; raises CompatibilityError when the
    endomorphisms disagree on the small field or no embedding exists.
    """
    if k == K:
        return lambda a: a
    if not (k.is_finite and K.is_finite):
        raise CompatibilityError(
            f"no embedding rule for {k.descriptor()} into {K.descriptor()}")
    if K.p != k.p:
        raise CompatibilityError("different characteristics")
    if K.degree % k.degree != 0:
        raise CompatibilityError("no subfield embedding of the required degree")
    if (K.frobenius_power - k.frobenius_power) % k.degree != 0:
        raise CompatibilityError(
            "the larger field's endomorphism does not restrict to the base's")
    if k.degree == 1:
        return K.from_int
    root = _defpoly_root(k.p, k.defpoly, K.defpoly)
    if root is None:
        raise CompatibilityError("defining polynomial has no root in the target")
    return lambda a: pc.evaluate(K, [K.from_int(c) for c in a], root)


@functools.lru_cache(maxsize=32)
def _defpoly_root(p, small, big):
    """The least root of small in F_p[x]/(big), or None: the image of x under
    field_embedding, found once per pair of defining polynomials."""
    K = GaloisField(p, list(big), _validated=True)
    rs = sorted(r for r, _ in roots(Poly.make(K, [K.from_int(c) for c in small])))
    return rs[0] if rs else None


def splitting_extension(base, N):
    """The degree-N extension of a finite base with the same Frobenius power."""
    if N <= 1:
        return base, (lambda a: a)
    p = base.characteristic()
    big = GaloisField(p, list(_irreducible_over_prime(p, base.degree * N)),
                      frobenius_power=base.frobenius_power, _validated=True)
    return big, field_embedding(base, big)


def base_change(A: FinSigmaAlgebra, K, embed=None) -> FinSigmaAlgebra:
    """Read the same structure constants in a larger difference field."""
    k = A.base
    if embed is None:
        embed = field_embedding(k, K)
    n = A.dim
    mul = [[[embed(c) for c in A.mul[i][j]] for j in range(n)] for i in range(n)]
    unit = [embed(c) for c in A.unit]
    sig = [[embed(c) for c in row] for row in A.sigma]
    return FinSigmaAlgebra(K, mul, unit, sig)


def restrict_scalars(A: FinSigmaAlgebra, k) -> FinSigmaAlgebra:
    """Flatten an algebra over a finite extension K down to the subfield k,
    the basis e_i gamma_t at index i * N + t for a k-basis gamma of K."""
    K = A.base
    gammas, coord_fn = _relative_basis(k, K, field_embedding(k, K))
    zeros = [k.zero()] * len(gammas)

    def expand(vec_over_K):
        return [x for c in vec_over_K for x in (zeros if K.is_zero(c) else coord_fn(c))]

    basis = [(i, g) for i in range(A.dim) for g in gammas]
    mul = [[expand(K.row_scale(K.mul(g, h), A.mul[i][j])) for j, h in basis]
           for i, g in basis]
    sig_cols = [expand(A.apply_sigma([g if t == i else K.zero() for t in range(A.dim)]))
                for i, g in basis]
    return FinSigmaAlgebra(k, mul, expand(A.unit), la.transpose(sig_cols, len(basis)))


def _relative_basis(k, K, embed):
    """A k-basis of K and a coordinate function K -> k^N.  The basis is
    1, x, ..., x^(N-1), N = [K:k]: x generates K over F_p, so also over k,
    and its minimal polynomial over k has degree N."""
    fp = PrimeField(K.p)
    s, S = k.degree, K.degree
    N = S // s
    k_basis = k.power_basis()
    emb_k = [embed(b) for b in k_basis]
    gammas = K.power_basis()[:N]
    m = la.transpose([K.prime_coords(K.mul(eb, g)) for g in gammas for eb in emb_k], S)
    solve = la.solver(fp, m)

    def coord_fn(z):
        sol = solve(K.prime_coords(z))
        if sol is None:
            raise AssertionError("relative coordinate solve failed")
        return [k.dot([k.from_int(c) for c in sol[t * s:(t + 1) * s]], k_basis)
                for t in range(N)]

    return gammas, coord_fn


# -- the strong core --------------------------------------------------------


def strong_core(A: FinSigmaAlgebra, supplied_idempotents=None) -> CoreResult:
    """Largest subalgebra spanned by periodic idempotent data, descended to
    the ground field.

    Over a finite base: base-change to the splitting extension, take the
    periodic atoms there (_periodic_idempotent_atoms) and descend their span
    by an exact linear system, whose echelon span is the core's.  The
    completeness flag is True on that path.
    Otherwise the sigma-closure of periodic supplied idempotents gives an
    honest lower bound.
    """
    k = A.base
    if k.is_finite:
        factors = _local_factors(A)
        K, embed = splitting_extension(k, math.lcm(*(d for _, d, _, _ in factors)))
        AN = base_change(A, K, embed)
        prim_vecs = _split_primitives_over_extension(AN, K, embed, factors)
        span = _descend_span(A, K, embed, _periodic_idempotent_atoms(AN, prim_vecs))
        sub, incl = _subalgebra_on_span(A, span)
        return CoreResult(sub, incl, True, span)
    gens = []
    for e in (supplied_idempotents or []):
        if not A.is_idempotent(e):
            raise ValueError("supplied element is not idempotent")
        if is_periodic(A, e).is_periodic():
            gens.append(list(e))
    sub, incl = sigma_subalgebra_generated(A, gens)
    span = la.SpanBasis(k, A.dim)
    for j in range(sub.dim):
        span.add(incl.column(j))
    return CoreResult(sub, incl, False, span)


def _irreducible_part(A, v, unit):
    """(degree, full minimal polynomial) of an element of a local factor."""
    m = minimal_polynomial(A, v, unit=unit)
    if m.degree() == 1:
        return 1, m
    fl = A.factor(m)
    degs = {g.degree() for g, _ in fl.factors}
    if len(degs) != 1:
        raise AssertionError("local factor with non-primary minimal polynomial")
    return degs.pop(), m


def _local_factors(A):
    """(idempotent, residue degree, residue-primitive element, its minimal
    polynomial) for every local factor of the algebra.

    When the primitive idempotents number A.dim, the e A, whose dimensions
    sum to A.dim and none of which is 0, are the lines k e: each factor is
    (e, 1, e, x - 1), with no span and no minimal polynomial.  Otherwise
    each e A is spanned, and where no basis vector of it is residue-primitive
    at most _linalg._SPLIT_ROUNDS random combinations are tried."""
    k = A.base
    prims = primitive_idempotents(A)
    if len(prims) == A.dim:
        x_minus_1 = Poly.make(k, [k.neg(k.one()), k.one()])
        return [(e.coords, 1, e.coords, x_minus_1) for e in prims]
    out = []
    for e in prims:
        span = la.SpanBasis(k, A.dim)
        for i in range(A.dim):
            span.add(A.multiply(e.coords, A.basis_vec(i)))
        basis = span.basis()
        d = 1
        best = None
        for b in basis:
            db, mb = _irreducible_part(A, b, e.coords)
            d = math.lcm(d, db)
            if best is None or db > best[0]:
                best = (db, b, mb)
        if best[0] != d:
            rng = random.Random(0xA70A ^ A.dim)
            for _ in range(la._SPLIT_ROUNDS):
                v = A.zero_vec()
                for b in basis:
                    v = A.vec_add(v, A.scalar_mul(k.from_int(rng.randrange(k.order)), b))
                dv, mv = _irreducible_part(A, v, e.coords)
                if dv == d:
                    best = (d, v, mv)
                    break
            else:
                raise AssertionError("no residue-primitive element in a local factor")
        out.append((e.coords, d, best[1], best[2]))
    return out


def _split_primitives_over_extension(AN, K, embed, factors):
    """Primitive idempotents of the base-changed algebra, one partial-fraction
    lift per linear-power component of each factor's minimal polynomial."""
    prim_vecs = []
    for e, d, b, m in factors:
        eK = [embed(c) for c in e]
        if d == 1:
            prim_vecs.append(eK)
            continue
        bK = [embed(c) for c in b]
        mK = pc.trim(K, [embed(c) for c in m.coeffs])
        pieces = AN.factor(Poly(tuple(mK), K)).factors
        total = AN.zero_vec()
        for g, mult in pieces:
            if g.degree() != 1:
                raise AssertionError("minimal polynomial failed to split over the extension")
            qj = [K.one()]
            for _ in range(mult):
                qj = pc.mul(K, qj, list(g.coeffs))
            rest = pc.divmod_(K, mK, qj)[0]
            inv = pc.invmod(K, rest, qj)
            h = pc.mod(K, pc.mul(K, rest, inv), mK)
            eij = AN.evaluate_poly(Poly(tuple(h), K), bK, unit=eK)
            if AN.vec_is_zero(eij) or not AN.is_idempotent(eij):
                raise AssertionError("partial-fraction lift is not a proper idempotent")
            total = AN.vec_add(total, eij)
            prim_vecs.append(eij)
        if not AN.vec_eq(total, eK):
            raise AssertionError("lifted idempotents do not resum to the factor unit")
    prim_vecs.sort(key=lambda v: repr(K.vec_to_json(v)))
    return prim_vecs


def _sigma_supports(A, prim_vecs):
    """For each primitive idempotent e_i, the set of j with e_j in sigma(e_i):
    the coordinates of sigma(e_i) in the e_j, all solved for from one
    elimination (_linalg.solver), each of which must be 0 or 1."""
    k = A.base
    coords = la.solver(k, la.transpose(prim_vecs, A.dim))
    one = k.one()
    supp = []
    for e in prim_vecs:
        c = coords(A.apply_sigma(e))
        T = [] if c is None else k.vec_nonzero(c)
        if c is None or not all(k.eq(x, one) for _, x in T):
            raise AssertionError("sigma image is not a sum of primitive idempotents")
        supp.append(frozenset(j for j, _ in T))
    return supp


def _periodic_idempotent_atoms(A, prim_vecs):
    """Indicator vectors of the atoms of the periodic-subset lattice.

    sigma sends each primitive idempotent to a subset-sum of primitive
    idempotents (_sigma_supports).  On the recurrent part U each one has a
    single predecessor pi(j), and pi permutes the cycles, so x and y reach
    their cycles at one phase exactly when pi^|U|(x) = pi^|U|(y): the atoms
    are the fibres of pi^|U| on U, and the periodic sums are their unions.
    """
    supp = _sigma_supports(A, prim_vecs)
    U = frozenset(range(len(prim_vecs)))
    while True:
        U2 = frozenset(j for i in U for j in supp[i])
        if U2 == U:
            break
        U = U2
    pi = {}
    for j in U:
        owners = [i for i in U if j in supp[i]]
        if len(owners) != 1:
            raise AssertionError("recurrent primitive with non-unique predecessor")
        pi[j] = owners[0]
    atoms = {}
    for x in U:
        a = x
        for _ in U:
            a = pi[a]
        atoms[a] = A.vec_add(atoms.get(a) or A.zero_vec(), prim_vecs[x])
    return list(atoms.values())


def _descend_span(A, K, embed, vectors_over_K):
    """Echelon span (la.SpanBasis) of the k-rational part of a K-subspace
    of the base-changed algebra, by expanding the membership equations over
    a relative basis.  A subspace with no membership equation is the whole
    space, and no relative basis is built for it."""
    k, n = A.base, A.dim
    rows = vectors_over_K
    if K != k and rows:
        constraints = la.nullspace(K, rows)
        if constraints:
            gammas, coord_fn = _relative_basis(k, K, embed)
            eqs = []
            for w in constraints:
                eqs += la.transpose([coord_fn(c) for c in w], len(gammas))
            rows = la.nullspace(k, eqs)
        else:
            rows = la.identity(k, n)
    span = la.SpanBasis(k, n)
    for v in rows:
        span.add(v)
    return span
