"""Finitely presented difference algebras as directed systems of truncations.

A presentation is a list of difference-polynomial generators over a base
field; the supported class is the one whose level-n reductions form a
confluent rewriting system of two rule shapes:

  * power rules      v^d -> r(v)   with r a polynomial in v of degree < d,
  * substitutions    v -> r        with r supported on strictly lower orders.

Rules propagate to all higher transforms of their variable.  Elements are
sparse polynomials in variables (j, i) = (declared variable, transform
order); the level-n algebra is spanned by the normal monomials of order at
most n, and sigma raises the level by one.  Finite-dimensional work on a
level (its primitive idempotents, the core of its sigma-stable window) is
done by findiff on the FinSigmaAlgebra algebra_on_basis builds there.
"""

from __future__ import annotations

from . import _exprs
from . import _linalg as la
from . import _multipoly as mp
from ._load import cursor
from .exactfield import field_make
from .findiff import (PeriodicityResult, algebra_on_basis, orbit, primitive_idempotents,
                      strong_core as _fin_strong_core)


class UnsupportedPresentationError(ValueError):
    pass


# elements: dict mapping monomials to scalars; a monomial is a sorted tuple
# of ((j, i), exp) pairs


def _mono_key(m):
    return (sum(e for _, e in m), m)


def _monomials(vars_caps):
    """The monomials prod v^e with 0 <= e < cap over the (v, cap) pairs,
    sorted by _mono_key."""
    monos = [()]
    for v, cap in vars_caps:
        monos = [mp.mono_mul(m, ((v, e),) if e else ()) for m in monos for e in range(cap)]
    return sorted(monos, key=_mono_key)


class Presentation(mp.Ring):
    """Parsed and validated presentation of k{y_1..y_m}/[generators]."""

    def __init__(self, base, var_names, generator_texts):
        if not base.is_finite and base.characteristic() != 0:
            raise UnsupportedPresentationError("unsupported base field")
        self.base = base
        self.var_names = list(var_names)
        self.generator_texts = list(generator_texts)
        # per variable j: (start_order, degree, rhs coefficients low..deg-1)
        self.power_rules = {}
        # per variable j: (start_order, rhs element)
        self.sub_rules = {}
        for text in generator_texts:
            self._add_generator(text)
        self._check_consistency()

    # -- parsing -----------------------------------------------------------

    def parse(self, text):
        return _exprs.evaluate(text, _exprs.RingOps(self, self._name))

    def _name(self, s):
        for j, vn in enumerate(self.var_names):
            if s.startswith(vn):
                tail = s[len(vn):]
                if tail.startswith("_"):
                    tail = tail[1:]
                if tail.isdigit():
                    return self.var_element(j, int(tail))
        raise _exprs.ExpressionError(f"unknown name {s!r}")

    def _add_generator(self, text):
        g = self.parse(text)
        if not g:
            return
        vs = sorted({v for m in g for v, _ in m})
        top = max(((sum(e for _, e in m), m) for m in g))[1]
        if len(top) != 1:
            raise UnsupportedPresentationError(
                f"generator {text!r} is not univariate-monomial-headed")
        (var, exp_) = top[0]
        k = self.base
        lead = g[top]
        rest = {m: k.neg(k.mul(c, k.inv(lead))) for m, c in g.items() if m != top}
        j, i = var
        if exp_ == 1:
            for m in rest:
                for (j2, i2), _ in m:
                    if i2 >= i:
                        raise UnsupportedPresentationError(
                            f"substitution in {text!r} does not lower the order")
            if j in self.sub_rules:
                raise UnsupportedPresentationError(
                    f"second substitution rule for variable {self.var_names[j]}")
            self.sub_rules[j] = (i, rest)
        else:
            coeffs = [k.zero()] * exp_
            for m, c in rest.items():
                if len(m) == 0:
                    coeffs[0] = c
                elif len(m) == 1 and m[0][0] == var and m[0][1] < exp_:
                    coeffs[m[0][1]] = c
                else:
                    raise UnsupportedPresentationError(
                        f"power rule in {text!r} has a mixed right-hand side")
            if j in self.power_rules:
                raise UnsupportedPresentationError(
                    f"second power rule for variable {self.var_names[j]}")
            self.power_rules[j] = (i, exp_, coeffs)

    def _check_consistency(self):
        # where both rules apply, the substituted value must satisfy the power rule
        for j, (si, rhs) in self.sub_rules.items():
            if j not in self.power_rules:
                continue
            pi, d, coeffs = self.power_rules[j]
            for probe in (max(si, pi), max(si, pi) + 1):
                v = self.var_element(j, probe)
                lhs = self.power(v, d)
                rhs_val = self.zero()
                for e, c in enumerate(self._power_rhs_coeffs(j, probe)):
                    rhs_val = self.add(rhs_val, self.scale(self.power(v, e), c))
                if not self.eq(lhs, rhs_val):
                    raise UnsupportedPresentationError(
                        "substitution and power rules are inconsistent "
                        f"(the ideal contains a unit) for {self.var_names[j]}")

    # -- rule access --------------------------------------------------------

    def _sub_rhs(self, j, i):
        rule = self.sub_rules.get(j)
        if rule is None or i < rule[0]:
            return None
        start, rhs = rule
        return self._shift(rhs, i - start)

    def _power_rhs_coeffs(self, j, i):
        start, d, coeffs = self.power_rules[j]
        k = self.base
        out = list(coeffs)
        for _ in range(i - start):
            out = [k.sigma(c) for c in out]
        return out

    def _has_power(self, j, i):
        rule = self.power_rules.get(j)
        return rule is not None and i >= rule[0]

    def shift_monotone(self):
        """True when every substitution right-hand side is constant, so sigma
        never lowers the minimal order of a nonconstant normal form."""
        for _start, rhs in self.sub_rules.values():
            if any(m for m in rhs):
                return False
        return True

    # -- element arithmetic --------------------------------------------------

    def var_element(self, j, i):
        return self.normalize({(((j, i), 1),): self.base.one()})

    def mul(self, f, g):
        return self.normalize(mp.mul(self.base, f, g))

    def normalize(self, f):
        """f's normal form, f left as it is: substitutions first, then power
        rules, monomial by monomial.  A power right-hand side holds only its
        own variable, so a power rule never brings a substitution back."""
        return mp.normal_form(self.base, f, self._normal_rule)

    def _normal_rule(self, m):
        # one factor v^d of m rewritten: v by a substitution, else v^cap
        def lowered(v, d):
            return tuple((w, x - d if w == v else x) for w, x in m if w != v or x > d)
        for v, _ in m:
            rhs = self._sub_rhs(*v)
            if rhs is not None:
                return lowered(v, 1), rhs
        for v, e in m:
            if self._has_power(*v) and e >= self.power_rules[v[0]][1]:
                return lowered(v, self.power_rules[v[0]][1]), {
                    ((v, x),) if x else (): c for x, c in enumerate(self._power_rhs_coeffs(*v))
                    if not self.base.is_zero(c)}
        return None

    def _shift(self, f, steps):
        if steps == 0:
            return f
        k = self.base
        out = {}
        for m, c in f.items():
            mm = tuple(((j, i + steps), e) for (j, i), e in m)
            for _ in range(steps):
                c = k.sigma(c)
            out[tuple(sorted(mm))] = c
        return out

    def sigma(self, f):
        return self.normalize(self._shift(f, 1))

    # -- levels --------------------------------------------------------------

    def free_variables(self, n):
        """Normal-form variables of order <= n, with their exponent caps."""
        out = []
        for j in range(len(self.var_names)):
            for i in range(n + 1):
                if self._sub_rhs(j, i) is not None:
                    continue
                if not self._has_power(j, i):
                    raise UnsupportedPresentationError(
                        f"level {n} is not finite-dimensional: "
                        f"{self.var_names[j]} order {i} has no exponent cap")
                out.append(((j, i), self.power_rules[j][1]))
        return out

    def level_monomials(self, n):
        return _monomials(self.free_variables(n))

    def level_dimension(self, n):
        return len(self.level_monomials(n))

    def min_order(self, f):
        orders = [i for m in f for (j, i), _ in m]
        return min(orders) if orders else None

    def max_order(self, f):
        orders = [i for m in f for (j, i), _ in m]
        return max(orders) if orders else None

    def to_json(self):
        return {"base": self.base.descriptor(), "vars": self.var_names,
                "gens": [{"poly": t} for t in self.generator_texts]}

    @staticmethod
    def from_json(data):
        """Load a presentation from a plain JSON value or a _load.Cursor."""
        doc = cursor(data)
        base = field_make(doc.key("base"))
        gens = [g.key("poly").of(str) for g in doc.key("gens").each()]
        var_names = doc.key("vars").array(str)
        with doc.blame():
            return Presentation(base, var_names, gens)


class LevelAlgebra:
    """The level-n truncation with an explicit monomial basis; index maps each
    monomial to its position in monomials."""

    def __init__(self, pres, level, monomials, index):
        self.pres, self.level, self.monomials, self.index = pres, level, monomials, index

    @staticmethod
    def make(pres, n):
        monos = pres.level_monomials(n)
        return LevelAlgebra(pres, n, monos, {m: t for t, m in enumerate(monos)})

    def dim(self):
        return len(self.monomials)

    def coords(self, f):
        return mp.to_dense(self.pres.base, f, self.index)

    def element(self, coords):
        return mp.from_dense(self.pres.base, coords, self.monomials)


class TruncatedQuotient:
    """Directed system access: levels, inclusions (identity on normal forms)
    and sigma maps raising the level."""

    def __init__(self, pres, levels=None):
        self.pres, self.levels = pres, {} if levels is None else levels

    def level(self, n):
        if n not in self.levels:
            self.levels[n] = LevelAlgebra.make(self.pres, n)
        return self.levels[n]


def truncate(pres: Presentation, n: int) -> LevelAlgebra:
    """Level-n truncation; raises if the level is not finite dimensional."""
    return LevelAlgebra.make(pres, n)


class IdempotentClassification(PeriodicityResult):
    def __init__(self, element, status, period=None, reason=None, steps=0):
        super().__init__(status, period, reason, steps)
        self.element = element


def level_primitive_idempotents(pres: Presentation, n: int):
    """Primitive idempotents of the level-n algebra, as element dicts: the
    algebra splitter run on the level algebra, with sigma the identity, as
    primitive_idempotents reads only products and the unit."""
    k = pres.base
    lvl = LevelAlgebra.make(pres, n)
    A = algebra_on_basis(k, [{m: k.one()} for m in lvl.monomials], pres.mul,
                         lambda f: f, pres.one(), lvl.coords, UnsupportedPresentationError)
    return [lvl.element(e.coords) for e in primitive_idempotents(A)]


def classify_idempotent(pres: Presentation, e, horizon: int) -> IdempotentClassification:
    """findiff.orbit's verdict on e's sigma-orbit, with a support shift past
    e's largest order as a certificate where the rules never lower orders."""
    start_max = pres.max_order(e)
    drifted = None
    if pres.shift_monotone() and start_max is not None:
        def drifted(x):
            mo = pres.min_order(x)
            return mo is not None and mo > start_max
    r = orbit(e, pres.sigma, pres.eq, pres.is_zero, horizon, drifted)
    return IdempotentClassification(e, r.status, r.period, r.reason, r.steps)


def periodic_idempotents_truncated(pres: Presentation, n: int, horizon: int = 64):
    """Classified primitive idempotents of the level-n algebra, plus the
    constants zero and one."""
    out = [classify_idempotent(pres, pres.one(), horizon)]
    for e in level_primitive_idempotents(pres, n):
        out.append(classify_idempotent(pres, e, horizon))
    return out


class TruncatedCoreResult:
    def __init__(self, basis, status, window_vars, algebra, details):
        # basis: element dicts spanning the core inside level n;
        # status: "exact" | "lower-bound"; algebra: a FinSigmaAlgebra or None
        self.basis, self.status, self.window_vars = basis, status, window_vars
        self.algebra, self.details = algebra, details


def _variable_window(pres, n, horizon):
    """Split variables into recurrent (orbit support stays bounded within
    level n) and transient (certified drifting) classes; the rest, a
    recurrent orbit through orders above n included, are unknown."""
    window = set()
    transient = []
    unknown = []
    monotone = pres.shift_monotone()
    for j in range(len(pres.var_names)):
        x = pres.var_element(j, 0)
        if pres.min_order(x) is None:
            continue
        orbit = [x]
        cur = x
        verdict = None
        for step in range(1, horizon + 1):
            cur = pres.sigma(cur)
            if pres.is_zero(cur) or pres.min_order(cur) is None:
                verdict = "recurrent"
                break
            if any(pres.eq(cur, prev) for prev in orbit):
                verdict = "recurrent"
                break
            if monotone and pres.min_order(cur) > n:
                verdict = "transient"
                break
            orbit.append(cur)
        if verdict == "recurrent" and max(pres.max_order(f) for f in orbit) <= n:
            for f in orbit:
                for m in f:
                    for v, _ in m:
                        window.add(v)
        elif verdict == "transient":
            transient.append(j)
        else:
            unknown.append(j)
    return window, transient, unknown


def strong_core_truncated(pres: Presentation, n: int, horizon: int = 64) -> TruncatedCoreResult:
    """Span of periodic idempotent orbits inside the level-n algebra.

    Periodic elements live in the sigma-stable window subalgebra spanned by
    the recurrent variables, where the finite-dimensional engine takes over;
    the status is exact when every variable received a certificate.
    """
    window, transient, unknown = _variable_window(pres, n, horizon)
    # close the window under sigma inside level n: each variable's image is
    # read once, and only finitely many variables have order <= n
    work = sorted(window)
    for v in work:
        for m in pres.sigma(pres.var_element(*v)):
            for w, _ in m:
                if w[1] <= n and w not in window:
                    window.add(w)
                    work.append(w)
    caps = dict(pres.free_variables(n))
    if any(v not in caps for v in window):
        raise UnsupportedPresentationError("window variable outside the free basis")
    monos = _monomials((v, caps[v]) for v in sorted(window))
    k = pres.base
    idx = {m: t for t, m in enumerate(monos)}
    A = algebra_on_basis(k, [{m: k.one()} for m in monos], pres.mul, pres.sigma, pres.one(),
                         lambda f: mp.to_dense(k, f, idx), UnsupportedPresentationError)
    core = _fin_strong_core(A)
    basis = []
    for j in range(core.algebra.dim):
        col = core.inclusion.column(j)
        basis.append(pres.normalize(mp.from_dense(k, col, monos)))
    status = "exact" if not unknown and core.complete else "lower-bound"
    return TruncatedCoreResult(
        basis=basis, status=status,
        window_vars=sorted(window),
        algebra=core.algebra,
        details={"transient_vars": transient, "unknown_vars": unknown,
                 "window_dim": len(monos)})


def sigma_kernel_slice(pres: Presentation, n: int):
    """Basis of the kernel of sigma on the level-n algebra."""
    return level_sigma_kernel(pres, n)[1]


def level_sigma_kernel(pres: Presentation, n: int):
    """(the level-n LevelAlgebra, the basis sigma_kernel_slice gives), so a
    caller that also needs the level does not build it again."""
    k = pres.base
    level_n = LevelAlgebra.make(pres, n)
    level_up = LevelAlgebra.make(pres, n + 1)
    cols = []
    for m in level_n.monomials:
        img = pres.sigma({m: k.one()} if m else pres.one())
        cv = level_up.coords(img)
        if cv is None:
            raise UnsupportedPresentationError("sigma image escaped the next level")
        cols.append(cv)
    null = la.nullspace(k, la.transpose(cols, level_up.dim()))
    if k.sigma_inverse is None:
        raise UnsupportedPresentationError("base field without invertible endomorphism")
    return level_n, [level_n.element([k.sigma_inverse(c) for c in w]) for w in null]
