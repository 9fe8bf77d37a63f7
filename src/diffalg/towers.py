"""Difference field extensions as lazily materialized algebraic towers.

A tower is its document.  tower_from_json, the one loader, keeps the
document's explicit levels, families (each name once: a radical block, a
radical family on another family, or a specialization-verified family),
explicit groups and family groups (one per family) as the tower's only state
besides the levels made so far, and tower_to_json writes them back, so a
tower and its JSON certify the same limit degree.  Every constructor here
writes a document and loads it; a family's level i is made from its entry
when an expression first names it.

Each level carries a monic minimal polynomial over the levels below it, a
sigma rule (an expression that may reference later levels, materialized on
demand), and an irreducibility certificate.  Four certificates are supported:

  * "finite"        Rabin's test run over the prefix field (finite bases),
                    over the base field itself at level zero,
  * "radical-fresh" x^r - t_j with t_j a fresh shift variable; irreducible
                    by the valuation argument at t_j,
  * "radical-chain" x^r - a with a an exponent-one radical-chain generator;
                    the ramification over the underlying variable multiplies,
  * "specialized"   a degree-preserving random specialization over a finite
                    field certifies level-zero polynomials over function
                    fields.

Elements are sparse exponent-tuple polynomials over the base field with all
exponents strictly below the level degrees.

The base field names its own elements in rules, specializes and builds its
inversive closure itself; its class is tested only to decide which
certificate a tower supports (radical shapes need a shift field).
"""

from __future__ import annotations

import random

from . import _exprs
from . import _linalg as la
from . import _multipoly as mp
from . import _polycore as pc
from ._load import cursor
from .exactfield import DifferenceField, FractionField, ShiftField, field_make
from .findiff import (FinSigmaAlgebra, algebra_on_basis, is_strongly_sigma_etale,
                      primitive_idempotents, tensor_product,
                      RestrictedAutomationError)
from .poly import Poly, is_irreducible, roots

# the radical certificate kinds and the minimal polynomial each one needs
RADICAL_SHAPES = {"radical-fresh": "x^r - t_j",
                  "radical-chain": "x^r - a with a an earlier radical generator"}
SPECIALIZE_TRIALS = 12
SPECIALIZE_SEED = 0x5BEC


class TowerError(ValueError):
    pass


class InconsistentDynamicsError(TowerError):
    """sigma of a generator does not satisfy the twisted minimal polynomial."""


class NotGaloisError(TowerError):
    pass


class TowerLevel:
    """One level: minpoly holds its monic minimal polynomial's coefficients as
    elements of the levels below, sigma_elem caches the parsed sigma rule
    (reading is True while it is parsed, so a rule needing itself is caught),
    power_rule the reduction rule of the generator's degree-th power, and cert
    is the certificate kind, picked when the level is certified if None."""

    def __init__(self, name, family, index, minpoly, sigma_text, cert, degree,
                 sigma_elem=None):
        self.name, self.family, self.index, self.minpoly = name, family, index, minpoly
        self.sigma_text, self.cert, self.degree = sigma_text, cert, degree
        self.sigma_elem, self.reading = sigma_elem, False
        self.power_rule = None


class TowerExtension(mp.Ring):
    """K(<levels>) with sigma rules; levels materialize append-only.  The
    tower is itself a field (inv), so _polycore runs over it directly."""

    def __init__(self, base: DifferenceField):
        super().__init__(base)
        self.levels: list[TowerLevel] = []
        self.by_name: dict[str, int] = {}
        # the tower's document, which tower_from_json alone fills
        self.explicit_specs: list[dict] = []
        self.families: dict[str, dict] = {}     # name -> its document entry
        self.explicit_groups: list[list[str]] = []
        self.family_groups: list[dict] = []
        self.family_min: dict[str, int] = {}    # name -> its least level index
        self.certified_kind = None  # "finite-levels" | "mixed-radical" | None

    # -- naming --------------------------------------------------------------

    @staticmethod
    def level_name(fam, i):
        return f"{fam}{i}" if i >= 0 else f"{fam}_m{-i}"

    @staticmethod
    def _family_candidates(s):
        for cut in range(len(s), 0, -1):
            fam, tail = s[:cut], s[cut:]
            if tail and tail.isdigit():
                yield fam, int(tail)
            if tail.startswith("_m") and tail[2:].isdigit():
                yield fam, -int(tail[2:])

    # -- materialization -----------------------------------------------------

    def _family_levels(self, name):
        """Each (family, index) that reads name as a level ensure_name can make."""
        return [(fam, i) for fam, i in self._family_candidates(name)
                if fam in self.families and i >= self.family_min[fam]]

    def ensure_name(self, name):
        if name in self.by_name:
            return self.by_name[name]
        for fam, i in self._family_levels(name):
            return self._add_level(name, fam, i, _family_level(self, self.families[fam], i))
        raise TowerError(f"unknown tower generator {name!r}")

    def add_explicit_level(self, name, minpoly_exprs, sigma_text, cert=None):
        if name in self.by_name:
            raise TowerError(f"duplicate level name {name!r}")
        spec = {"minpoly": minpoly_exprs, "sigma": sigma_text, "cert": cert}
        return self._add_level(name, None, len(self.levels), spec)

    def _coerce_coeff(self, e):
        if isinstance(e, str):
            return self.parse(e)
        if isinstance(e, dict):
            return dict(e)
        if isinstance(e, int):
            return self.const(self.base.from_int(e))
        return self.const(e)

    def _add_level(self, name, fam, i, spec):
        # parsing may recursively materialize other levels, never this one
        coeffs = [self._coerce_coeff(e) for e in spec["minpoly"]]
        if name in self.by_name:
            return self.by_name[name]
        while coeffs and self.is_zero(coeffs[-1]):
            coeffs.pop()
        if len(coeffs) < 3:
            raise TowerError(f"level {name!r} needs a minimal polynomial of degree >= 2")
        if not self.eq(coeffs[-1], self.one()):
            raise TowerError(f"level {name!r} minimal polynomial must be monic")
        level = TowerLevel(name=name, family=fam, index=i, minpoly=coeffs,
                           sigma_text=spec["sigma"], cert=spec.get("cert"),
                           degree=len(coeffs) - 1)
        self._certify_irreducible(level)
        idx = len(self.levels)
        self.levels.append(level)
        self.by_name[name] = idx
        return idx

    def materialize_family(self, fam, upto):
        for i in range(self.family_min[fam], upto + 1):
            self.ensure_name(self.level_name(fam, i))

    def group_names(self, g):
        """The g-th transform group: the g-th explicit group, then each
        family's level start + g; with no families and no explicit groups,
        every level at g = 0."""
        groups = self.explicit_groups or ([] if self.families
                                          else [[lv.name for lv in self.levels]])
        if g < len(groups):
            return list(groups[g])
        return [self.level_name(f["family"], f["start"] + g) for f in self.family_groups]

    # -- element arithmetic ----------------------------------------------------

    def gen(self, idx):
        key = tuple([0] * idx + [1])
        return {key: self.base.one()}

    def gen_by_name(self, name):
        return self.gen(self.ensure_name(name))

    @staticmethod
    def _mono_mul(m1, m2):
        n = max(len(m1), len(m2))
        out = [0] * n
        for t, e in enumerate(m1):
            out[t] += e
        for t, e in enumerate(m2):
            out[t] += e
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    def mul(self, f, g):
        if not f or not g:
            return {}
        return self._reduce(mp.mul(self.base, f, g, self._mono_mul))

    def _reduce(self, f):
        """f's normal form, f left as it is: a monomial whose top exponent is
        at or past its level's degree d rewrites a_t^d through _power_rule."""
        return mp.normal_form(self.base, f, self._reduce_rule, self._mono_mul)

    def _reduce_rule(self, m):
        # rest may end in zeros, which _mono_mul trims from every product
        for t in range(len(m) - 1, -1, -1):
            if m[t] >= self.levels[t].degree:
                return m[:t] + (m[t] - self.levels[t].degree,) + m[t + 1:], self._power_rule(t)
        return None

    def _power_rule(self, t):
        """a_t^d = -(c_0 + c_1 a_t + ... + c_(d-1) a_t^(d-1)) as an element,
        read off level t's minimal polynomial once; the c_e lie in the levels
        below t, so their monomials have at most t entries."""
        lv = self.levels[t]
        if lv.power_rule is None:
            lv.power_rule = {}
            for e, coeff in enumerate(lv.minpoly[:-1]):
                for m, c in coeff.items():
                    key = m + (0,) * (t - len(m)) + (e,) if e else m
                    lv.power_rule[key] = self.base.neg(c)
        return lv.power_rule

    def inv(self, a):
        """The inverse modulo the top level's minimal polynomial, _polycore's
        invmod over the tower below that level."""
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero in tower")
        top = self.max_level(a)
        if top < 0:
            return self.const(self.base.inv(self.base_value(a)))
        out = self.zero()
        for e, c in enumerate(pc.invmod(self, _as_univariate(a, top), self.levels[top].minpoly)):
            term = self.mul(c, {tuple([0] * top + [e]) if e else (): self.base.one()})
            out = self.add(out, term)
        return out

    def in_base(self, f):
        return all(not m for m in f)

    def base_value(self, f):
        if not self.in_base(f):
            raise TowerError("element is not in the base field")
        return f.get((), self.base.zero())

    def max_level(self, f):
        lv = -1
        for m in f:
            for t, e in enumerate(m):
                if e:
                    lv = max(lv, t)
        return lv

    def sigma(self, f):
        k = self.base
        out = self.zero()
        for m, c in f.items():
            term = self.const(k.sigma(c))
            for t, e in enumerate(m):
                if e:
                    term = self.mul(term, self.power(self._sigma_gen(t), e))
            out = self.add(out, term)
        return out

    def _sigma_gen(self, t):
        lv = self.levels[t]
        if lv.sigma_elem is None:
            if lv.reading:
                raise TowerError(f"sigma rule for {lv.name!r} needs sigma of {lv.name!r}")
            lv.reading = True
            try:
                lv.sigma_elem = self.parse(lv.sigma_text)
            finally:
                lv.reading = False
            self._check_sigma_consistency(t)
        return lv.sigma_elem

    def _check_sigma_consistency(self, t):
        lv = self.levels[t]
        # sigma the coefficients from the top down, the order in which they
        # may materialize levels
        twisted = [self.sigma(c) for c in reversed(lv.minpoly[:-1])]
        if not self.is_zero(pc.evaluate(self, twisted[::-1] + [self.one()], lv.sigma_elem)):
            raise InconsistentDynamicsError(
                f"sigma rule for {lv.name!r} does not satisfy the twisted "
                "minimal polynomial")

    # -- expression parsing ------------------------------------------------------

    def parse(self, text):
        return _exprs.evaluate(text, _exprs.RingOps(self, self._name, self._call))

    def _name(self, s):
        c = self.base.named_constant(s)
        return self.gen_by_name(s) if c is None else self.const(c)

    def _call(self, fname, args):
        if fname == "t" and len(args) == 1 and isinstance(args[0], int):
            c = self.base.named_constant(self.level_name("t", args[0]))
            if c is None:
                raise _exprs.ExpressionError("t(i) needs a shift-field base")
            return self.const(c)
        return None

    # -- linear algebra over the base ---------------------------------------------

    def monomials(self, level_count=None):
        n = len(self.levels) if level_count is None else level_count
        monos = [()]
        for t in range(n):
            d = self.levels[t].degree
            monos = [self._mono_mul(m, tuple([0] * t + [e]) if e else ())
                     for m in monos for e in range(d)]
        return monos

    def coords(self, f, monos, index=None):
        idx = index if index is not None else {m: t for t, m in enumerate(monos)}
        return mp.to_dense(self.base, f, idx)

    def from_coords(self, v, monos):
        return mp.from_dense(self.base, v, monos)

    def dimension(self):
        d = 1
        for lv in self.levels:
            d *= lv.degree
        return d

    def subalgebra_span(self, gens, level_count=None):
        """Echelon span over K of the unital algebra generated by gens.

        The ring is commutative, so multiplying each element that enlarges
        the span once by each generator that enlarged it closes the span."""
        monos = self.monomials(level_count)
        index = {m: t for t, m in enumerate(monos)}
        span = la.SpanBasis(self.base, len(monos))
        span.add(self.coords(self.one(), monos, index))
        gens = [self._reduce(g) for g in gens]
        cvs = [self.coords(g, monos, index) for g in gens]
        if any(cv is None for cv in cvs):
            raise TowerError("generator escapes the materialized tower")
        work = [g for g, cv in zip(gens, cvs) if span.add(cv)]
        mults = list(work)
        for f in work:
            for g in mults:
                p = self.mul(f, g)
                if span.add(self.coords(p, monos, index)):
                    work.append(p)
        return span, monos, index

    def degree_over_base(self, a, level_count=None):
        span, _, _ = self.subalgebra_span([a], level_count)
        return span.dim()

    # -- irreducibility certificates ------------------------------------------------

    def _certify_irreducible(self, level):
        k = self.base
        coeffs = level.minpoly
        prefix_count = len(self.levels)
        if level.cert is None:
            level.cert = self._pick_cert(level, prefix_count)
        if level.cert == "finite":
            # level zero has its coefficients in the base field, so Rabin's
            # test runs there, as _check_specialized's does, and not over
            # the empty tower's one-term dicts
            if prefix_count == 0:
                ring, coeffs = k, [self.base_value(c) for c in coeffs]
            else:
                ring, coeffs = self, list(coeffs)
            deg_prod = 1
            for lv in self.levels[:prefix_count]:
                deg_prod *= lv.degree
            if not pc.is_irreducible(ring, coeffs, k.order ** deg_prod):
                raise TowerError(
                    f"level {level.name!r}: minimal polynomial is reducible "
                    "over its level")
            return
        if level.cert in RADICAL_SHAPES:
            if self._radical_kind(level) != level.cert:
                raise TowerError(f"level {level.name!r}: {level.cert} certificate "
                                 f"needs {RADICAL_SHAPES[level.cert]}")
            return
        if level.cert == "specialized":
            self._check_specialized(level, prefix_count)
            return
        raise TowerError(f"unknown certificate kind {level.cert!r}")

    def _pick_cert(self, level, prefix_count):
        k = self.base
        if k.is_finite:
            return "finite"
        kind = self._radical_kind(level)
        if kind is not None:
            return kind
        if prefix_count == 0 and isinstance(k, FractionField):
            return "specialized"
        raise TowerError(
            f"cannot certify irreducibility for level {level.name!r}; "
            "supported certificates: finite base, radical shapes over shift "
            "fields, or specialization at level zero")

    def _radical_kind(self, level):
        """The radical certificate kind level's minimal polynomial has the
        shape of over a shift field (see RADICAL_SHAPES), else None."""
        u = self._radical_shape(level) if isinstance(self.base, ShiftField) else None
        if u is None:
            return None
        if self.in_base(u) and self.base.variable_index(self.base_value(u)) is not None:
            return "radical-fresh"
        if self._is_radical_generator(u):
            return "radical-chain"
        return None

    def _radical_shape(self, level):
        """For x^r - u return u, else None."""
        coeffs = level.minpoly
        for e in range(1, level.degree):
            if not self.is_zero(coeffs[e]):
                return None
        u = self.neg(coeffs[0])
        if self.is_zero(u):
            return None
        p = self.base.characteristic()
        if p and level.degree % p == 0:
            return None
        return u

    def _is_radical_generator(self, u):
        t = _generator_level_of(self, u)
        return t is not None and self.levels[t].cert in ("radical-fresh", "radical-chain")

    def _check_specialized(self, level, prefix_count):
        """Certify level zero's minimal polynomial f over the fraction field
        by a specialization of its coefficients into the constant field that
        keeps its degree and is irreducible there.  That certifies f separable
        too, so no gcd(f, f') follows: the constant fields (Q, F_p, F_q) are
        perfect, so an inseparable f = g(x^p) specializes to g_s(x^p), a p-th
        power and never irreducible, and in characteristic 0 every irreducible
        polynomial is separable."""
        if prefix_count != 0:
            raise TowerError("specialization certificates only apply at level zero")
        k = self.base
        rng = random.Random(SPECIALIZE_SEED)
        for _ in range(SPECIALIZE_TRIALS):
            try:
                spec = [k.specialize(self.base_value(c), rng) for c in level.minpoly]
            except ZeroDivisionError:
                continue
            f = Poly.make(k.constants(), spec)
            if f.degree() == level.degree and is_irreducible(f):
                return
        raise TowerError(
            f"level {level.name!r}: specialization failed to certify "
            "irreducibility")


def _as_univariate(a, top):
    """View an element as a polynomial in generator `top` with lower coefficients."""
    coeffs = {}
    for m, c in a.items():
        e = m[top] if len(m) > top else 0
        rest = list(m)
        if len(rest) > top:
            rest[top] = 0
            while rest and not rest[-1]:
                rest.pop()
        coeffs.setdefault(e, {})[tuple(rest)] = c
    n = max(coeffs) + 1 if coeffs else 0
    return [coeffs.get(e, {}) for e in range(n)]


# -- public constructors ------------------------------------------------------


def tower_make(base, levels) -> TowerExtension:
    """Validated explicit tower over the field base, its levels given as in
    a tower document, all in one group; every sigma rule is checked by exact
    reduction against the twisted minimal polynomial."""
    return tower_from_json({"base": base, "levels": levels,
                            "explicit_groups": [[spec["name"] for spec in levels]]})


def benign_make(base, minpoly, kind="radical", family="b") -> TowerExtension:
    """Lazy tower adjoining the transforms of one finite Galois extension.

    minpoly is the coefficient list of the defining polynomial over the base
    (scalars or expression strings), monic, degree >= 2.  kind "radical"
    requires x^r - t_j over a shift field and certifies every level
    structurally; "specialization-verified" certifies level zero by
    specialization and refuses towers it cannot certify deeper.
    """
    probe = TowerExtension(base)
    coeffs = [probe._coerce_coeff(c) for c in minpoly]
    while coeffs and probe.is_zero(coeffs[-1]):
        coeffs.pop()
    deg = len(coeffs) - 1
    if deg < 2:
        raise TowerError("a degree < 2 extension is trivial; nothing to adjoin")
    scalar_coeffs = [probe.base_value(c) for c in coeffs]

    if kind == "radical":
        if not isinstance(base, ShiftField):
            raise TowerError("radical benign towers need a shift-field base")
        u = probe.neg(coeffs[0])
        j0 = None
        if all(probe.is_zero(c) for c in coeffs[1:-1]) and probe.in_base(u):
            j0 = base.variable_index(probe.base_value(u))
        if j0 is None:
            raise TowerError("radical benign towers need minpoly x^r - t_j")
        T = tower_from_json({
            "base": base,
            "families": [{"name": family, "kind": "radical-block", "r": deg, "var_start": j0}],
            "family_groups": [{"family": family, "start": j0}]})
        _verify_galois_level(T, T.levels[T.ensure_name(TowerExtension.level_name(family, j0))])
        return T

    if kind != "specialization-verified":
        raise TowerError(f"unknown benign kind {kind!r}")
    return tower_from_json({
        "base": base,
        "families": [{"name": family, "kind": "specialization-verified",
                      "minpoly": base.vec_to_json(scalar_coeffs)}],
        "family_groups": [{"family": family, "start": 0}]})


def _assert_root(T, lv, cand):
    if not T.is_zero(pc.evaluate(T, lv.minpoly, cand)):
        raise NotGaloisError(f"claimed root of {lv.name!r} fails exact reduction")


def stacked_radical_tower(base, r1=2, r2=2, shift=1, fam1="a", fam2="c") -> TowerExtension:
    """Two stacked radical benign blocks: a_i^r1 = t_i and c_i^r2 = a_(i+shift)."""
    if not isinstance(base, ShiftField):
        raise TowerError("stacked radical towers need a shift-field base")
    T = tower_from_json({
        "base": base,
        "families": [{"name": fam1, "kind": "radical-block", "r": r1, "var_start": 0},
                     {"name": fam2, "kind": "radical-on", "r": r2, "on": fam1,
                      "shift": shift}],
        "explicit_groups": [[TowerExtension.level_name(fam1, i) for i in range(shift + 1)]
                            + [TowerExtension.level_name(fam2, 0)]],
        "family_groups": [{"family": fam1, "start": shift}, {"family": fam2, "start": 0}]})
    T.materialize_family(fam1, shift)
    T.materialize_family(fam2, 0)
    _verify_galois_level(T, T.levels[T.by_name[TowerExtension.level_name(fam1, 0)]])
    return T


# -- limit degree --------------------------------------------------------------


class LimitDegreeReport:
    def __init__(self, d_sequence, stabilized_at, value, certified, observed_window, kind):
        self.d_sequence, self.stabilized_at, self.value = d_sequence, stabilized_at, value
        self.certified, self.observed_window, self.kind = certified, observed_window, kind

    def __eq__(self, other):
        return isinstance(other, LimitDegreeReport) and self.to_json() == other.to_json()

    def to_json(self):
        return {"d_sequence": self.d_sequence, "stabilized_at": self.stabilized_at,
                "value": self.value, "certified": self.certified,
                "observed_window": self.observed_window, "kind": self.kind}


def limit_degree(T: TowerExtension, horizon: int = 6, window: int = 4) -> LimitDegreeReport:
    """d_i as products of certified level degrees per transform group.

    The sequence must be non-increasing; a violation is a hard failure.
    Certification is structural: fully materialized explicit towers and
    radical families have eventually constant degree sequences.
    """
    seq = []
    for g in range(horizon + 1):
        names = T.group_names(g)
        d = 1
        for n in names:
            idx = T.ensure_name(n)
            d *= T.levels[idx].degree
        seq.append(d)
    for a, b in zip(seq, seq[1:]):
        if b > a:
            raise AssertionError(f"limit degree sequence increased: {seq}")
    s = len(seq) - 1
    while s > 0 and seq[s - 1] == seq[-1]:
        s -= 1
    observed = len(seq) - s
    certified = T.certified_kind in ("finite-levels", "mixed-radical")
    value = seq[-1] if (certified or observed >= window) else None
    return LimitDegreeReport(d_sequence=seq, stabilized_at=s,
                             value=value, certified=certified,
                             observed_window=observed,
                             kind=T.certified_kind or "observed")


# -- sigma-radicial ------------------------------------------------------------


class RadicialVerdict:
    def __init__(self, status, exponents, evidence):
        # status: "radicial" | "unknown"
        self.status, self.exponents, self.evidence = status, exponents, evidence


def is_sigma_radicial(T: TowerExtension, horizon: int = 6) -> RadicialVerdict:
    """Search sigma powers of every materialized generator for membership in
    the base."""
    exps = {}
    evidence = {}
    ok = True
    for lv in list(T.levels):
        found = _least_sigma_power(T, T.gen(T.by_name[lv.name]), horizon, T.in_base)
        if found is None:
            ok = False
            evidence[lv.name] = {
                "horizon": horizon,
                "note": "generator keeps positive degree at every checked power",
            }
        else:
            exps[lv.name] = found
    return RadicialVerdict("radicial" if ok else "unknown", exps, evidence)


def _least_sigma_power(T, g, horizon, inside):
    """The least n <= horizon with inside(sigma^n(g)), or None.  sigma runs
    after every miss, the last one too, since it may materialize levels."""
    cur = dict(g)
    for n in range(horizon + 1):
        if inside(cur):
            return n
        cur = T.sigma(cur)
    return None


def field_sigma_radicial_over(K_star, K) -> RadicialVerdict:
    """Structural verdict for a deepened shift field over the original."""
    if isinstance(K_star, ShiftField) and isinstance(K, ShiftField) \
            and K_star.base == K.base:
        depth = K.min_index - K_star.min_index
        if depth < 0:
            raise TowerError("the first field must be the deeper one")
        return RadicialVerdict("radicial", {"t": depth},
                               {"note": "index shift by the closure depth"})
    if K_star == K:
        return RadicialVerdict("radicial", {}, {"note": "identical fields"})
    raise TowerError("unsupported field pair")


# -- strong core of finite extensions -------------------------------------------


class FiniteCoreResult:
    def __init__(self, algebra, basis_elements, span, monos, index, stabilized_at,
                 radicial_exponents, strongly_sigma_etale):
        self.algebra, self.basis_elements, self.span = algebra, basis_elements, span
        self.monos, self.index, self.stabilized_at = monos, index, stabilized_at
        self.radicial_exponents = radicial_exponents
        self.strongly_sigma_etale = strongly_sigma_etale


def strong_core_finite_ext(T: TowerExtension, level_count=None) -> FiniteCoreResult:
    """Stabilize the decreasing chain of sigma-image subfields and certify.

    Returns the stabilized subfield as an algebra over the base together
    with a strongly-sigma-etale certificate and, per generator, the exponent
    at which its sigma power lands in the core.
    """
    if T.families and level_count is None:
        raise TowerError("the extension must be finite; pass level_count for a prefix")
    n_levels = len(T.levels) if level_count is None else level_count
    monos = T.monomials(n_levels)
    index = {m: t for t, m in enumerate(monos)}
    # each stage is K[gens]; sigma is a ring map, so the next one is
    # K[sigma(gens)], and sigma(K[gens]) stays in the prefix exactly when
    # sigma(gens) does.  Stage s+1 lies in stage s, so equal dimensions mean
    # the same subspace, whose reduced echelon rows the last span holds
    gens = [T.gen(t) for t in range(n_levels)]
    dims = [len(monos)]
    while True:
        gens = [T.sigma(g) for g in gens]
        for el in gens:
            if T.coords(el, monos, index) is None:
                raise TowerError("sigma images escape the finite prefix; "
                                 "the extension is not sigma-closed")
        span, _, _ = T.subalgebra_span(gens, n_levels)
        dims.append(span.dim())
        if dims[-1] == dims[-2]:
            break
    stabilized = len(dims) - 2
    core_basis = [T.from_coords(v, monos) for v in span.basis()]

    def coords(x):
        v = T.coords(x, monos, index)
        return None if v is None else span.coordinates(v)

    def in_core(el):
        v = T.coords(T._reduce(el), monos, index)
        return v is not None and span.contains(v)

    algebra = algebra_on_basis(T.base, core_basis, T.mul, T.sigma, T.one(), coords)
    ssetale = is_strongly_sigma_etale(algebra)
    exps = {}
    for lv in T.levels[:n_levels]:
        found = _least_sigma_power(T, T.gen(T.by_name[lv.name]), stabilized + 1, in_core)
        if found is None:
            raise AssertionError("generator sigma power failed to land in the core")
        exps[lv.name] = found
    return FiniteCoreResult(algebra=algebra, basis_elements=core_basis,
                            span=span, monos=monos, index=index,
                            stabilized_at=stabilized,
                            radicial_exponents=exps,
                            strongly_sigma_etale=ssetale)


def core_sradicial_over_strong_core_check(T: TowerExtension) -> dict:
    """Certificate that the whole finite extension is sigma-radicial over its
    strong core, with one explicit exponent per generator."""
    res = strong_core_finite_ext(T)
    if not res.strongly_sigma_etale:
        raise AssertionError("computed core failed the strongly-sigma-etale check")
    return {
        "core_dimension": res.algebra.dim,
        "strongly_sigma_etale": True,
        "stabilized_at": res.stabilized_at,
        "radicial_exponents": dict(sorted(res.radicial_exponents.items())),
    }


# -- inversive closure -----------------------------------------------------------


def inversive_closure(obj, depth: int = 1):
    """Partial materialization of the inversive closure, depth >= 0 steps
    down.

    Fields answer through DifferenceField.inversive_closure: finite fields,
    Q and Moebius function fields are already inversive; shift fields deepen
    their index range; expanding function fields are unsupported.  A tower of
    radical blocks is its document over the deepened base, each family
    starting depth below its var_start.
    """
    if depth < 0:
        raise TowerError(f"closure depth must be >= 0, not {depth}")
    if isinstance(obj, TowerExtension):
        return _tower_inversive_closure(obj, depth)
    closure = obj.inversive_closure(depth)
    if closure is None:
        raise TowerError(
            "no constructive inversive closure for an expanding function field")
    return closure


def _tower_inversive_closure(T, depth):
    if T.explicit_specs:
        raise TowerError("inversive closure of explicit towers is unsupported")
    fams = list(T.families.values())
    if not fams or any(f["kind"] != "radical-block" for f in fams):
        raise TowerError("inversive closure needs radical families")
    return tower_from_json(dict(tower_to_json(T), base=inversive_closure(T.base, depth),
                                families=[dict(f, var_start=f.get("var_start", 0) - depth)
                                          for f in fams]))


# -- serialization -----------------------------------------------------------------


def _family_level(T, entry, i):
    """The level spec of level i of the family whose document entry is entry,
    sigma sending it to level i + 1: x^r - t_i for a radical block, x^r - b
    for b level i + shift of the family a radical-on family is on, and the
    entry's minimal polynomial with sigma^i applied to its coefficients for a
    specialization-verified family."""
    k, sigma = T.base, TowerExtension.level_name(entry["name"], i + 1)
    if entry["kind"] == "specialization-verified":
        coeffs = k.vec_from_json(entry["minpoly"])
        for _ in range(i):
            coeffs = list(map(k.sigma, coeffs))
        return {"minpoly": [T.const(c) for c in coeffs], "sigma": sigma, "cert": "specialized"}
    if entry["kind"] == "radical-block":
        u, cert = T.const(k.t(i)), "radical-fresh"
    else:
        on = TowerExtension.level_name(entry["on"], i + entry.get("shift", 1))
        u, cert = T.gen_by_name(on), "radical-chain"
    return {"minpoly": [T.neg(u)] + [T.zero()] * (entry["r"] - 1) + [T.one()],
            "sigma": sigma, "cert": cert}


def tower_to_json(T: TowerExtension) -> dict:
    return {
        "base": T.base.descriptor(),
        "levels": [dict(s) for s in T.explicit_specs],
        "families": [dict(f) for f in T.families.values()],
        "explicit_groups": [list(g) for g in T.explicit_groups],
        "family_groups": [dict(g) for g in T.family_groups],
    }


def tower_from_json(data) -> TowerExtension:
    """Load a tower from a plain JSON value or a _load.Cursor.  This is the
    one constructor of towers: it fills the document fields of the tower,
    which tower_to_json writes back, and the certified kind they imply.
    Family names are unique, and each family has exactly one family group."""
    doc = cursor(data)
    T = TowerExtension(field_make(doc.key("base")))
    levels = doc.get("levels", []).each()
    T.explicit_specs = [dict(lv.value) for lv in levels]
    for lv in levels:
        name, sigma = lv.key("name").of(str), lv.key("sigma").of(str)
        minpoly = lv.key("minpoly").array((str, int))
        with lv.blame():
            T.add_explicit_level(name, minpoly, sigma, lv.get("cert", None).value)
    for t, lv in enumerate(levels):
        with lv.key("sigma").blame():
            T._sigma_gen(t)
    fams = doc.get("families", []).each()
    for f in fams:
        kind = f.key("kind")
        if kind.of(str) not in ("radical-block", "radical-on", "specialization-verified"):
            raise kind.error("must be 'radical-block', 'radical-on' or "
                             f"'specialization-verified', not {kind.value!r}")
        f.key("name").of(str)
        if kind.value == "specialization-verified":
            f.key("minpoly").scalars(T.base, None)
            continue
        f.key("r").of(int)
        if kind.value == "radical-block":
            f.get("var_start", 0).of(int)
        else:
            f.key("on").of(str)
            f.get("shift", 1).of(int)
    T.explicit_groups = [list(g.array(str))
                         for g in doc.get("explicit_groups", []).each(list)]
    groups = doc.get("family_groups", []).each()
    for g in groups:
        g.key("family").of(str)
        g.key("start").of(int)
    T.family_groups = [dict(g.value) for g in groups]
    grouped = [g["family"] for g in T.family_groups]
    for f in fams:
        name = f.value["name"]
        if name in T.families:
            raise f.key("name").error(f"names the family {name!r} a second time")
        if grouped.count(name) != 1:
            raise f.error(f"needs one family_groups entry for {name!r}, "
                          f"not {grouped.count(name)}")
        T.families[name] = dict(f.value)
        radical_block = f.value["kind"] == "radical-block"
        T.family_min[name] = f.value.get("var_start", 0) if radical_block else 0
    for g in groups:
        if g.value["family"] not in T.families:
            raise g.key("family").error(f"names {g.value['family']!r}, which is no family")
    for f in fams:
        if f.value["kind"] != "specialization-verified":
            r = f.value["r"]
            if r < 2:
                raise f.key("r").error(f"must be at least 2, not {r}")
            if r > _exprs.MAX_LITERAL:      # x^r - u has an exponent literal
                raise f.key("r").error(f"must be at most {_exprs.MAX_LITERAL}, not {r}")
            p = T.base.characteristic()
            if p and r % p == 0:            # x^r - u is then inseparable
                raise f.key("r").error(f"must be prime to the characteristic {p}, not {r}")
        if f.value["kind"] == "radical-on" and f.value["on"] not in T.families:
            raise f.key("on").error(f"names {f.value['on']!r}, which is no family")
    for g in doc.get("explicit_groups", []).each(list):
        for name in g.each(str):
            if name.value not in T.by_name and not T._family_levels(name.value):
                raise name.error(f"names {name.value!r}, which is no level")
    spec = [f for f in fams if f.value["kind"] == "specialization-verified"]
    T.certified_kind = None if spec else "mixed-radical" if fams else "finite-levels"
    for f in spec:      # certified at level zero only, and Galois there
        with f.blame():
            level0 = TowerExtension.level_name(f.value["name"], 0)
            _verify_galois_level(T, T.levels[T.ensure_name(level0)])
    return T


def element_to_json(T: TowerExtension, el) -> list:
    k = T.base
    return [[list(m), k.scalar_to_json(c)]
            for m, c in sorted(el.items(), key=lambda mc: mc[0])]


# -- Babbitt chains ------------------------------------------------------------------


class BabbittChain:
    """Marked intermediate levels: steps[0] is the claimed strong core, each
    later step adds one benign block, and the tower top must be sigma-radicial
    over the last step.  Each step is a dict
    {"name", "generators": [...], "benign_generator": ...}."""

    def __init__(self, tower, steps):
        self.tower, self.steps = tower, steps

    def to_json(self):
        return {"tower": tower_to_json(self.tower),
                "chain": [dict(s) for s in self.steps]}

    @staticmethod
    def from_json(data):
        """Load a chain from a plain JSON value or a _load.Cursor; every
        step's generators must name a family or a level of the tower, and
        its benign_generator a level."""
        doc = cursor(data)
        T = tower_from_json(doc.key("tower"))
        steps = doc.key("chain").each()
        if not steps:
            raise doc.key("chain").error("must hold at least its bottom step")
        for step in steps:
            if "benign_generator" in step.value:
                gen = step.key("benign_generator")
                with gen.blame():
                    T.ensure_name(gen.of(str))
            names = step.get("generators", [])
            with names.blame():
                for name in names.array(str):
                    if name not in T.families:
                        T.ensure_name(name)
        return BabbittChain(T, [dict(s.value) for s in steps])


def _finite_part_count(T):
    """Largest sigma-closed prefix of explicit (non-family) levels."""
    E = 0
    for lv in T.levels:
        if lv.family is not None:
            break
        E += 1
    while E > 0:
        ok = True
        for t in range(E):
            img = T._sigma_gen(t)
            if T.max_level(img) >= E:
                ok = False
                break
        if ok:
            break
        E -= 1
    return E


def _sigma_closed_span(T, gens, level_count):
    """K[gens, sigma(gens), sigma^2(gens), ...]; each round adds the sigma
    images of the last round's new generators."""
    gens = [T._reduce(g) for g in gens]
    span, monos, index = T.subalgebra_span(gens, level_count)
    fresh = gens
    while True:
        fresh = [T.sigma(g) for g in fresh]
        for e in fresh:
            if T.coords(e, monos, index) is None:
                raise TowerError("sigma closure escapes the finite prefix")
        gens = gens + fresh
        span2, _, _ = T.subalgebra_span(gens, level_count)
        if span2.dim() == span.dim():
            return span2, monos, index
        span = span2


def _verify_galois_level(T, lv):
    """K(b) must be Galois over the prefix: exact root finding inside the tower."""
    k = T.base
    idx = T.by_name[lv.name]
    if lv.degree == 2:
        # separable quadratics are normal; exhibit the second root
        b = T.gen(idx)
        other = T.neg(T.add(b, lv.minpoly[1]))
        _assert_root(T, lv, other)
        return "quadratic"
    u = T._radical_shape(lv)
    if u is not None:
        const_field = k.constants()
        r = lv.degree
        xr1 = Poly.make(const_field,
                        [const_field.neg(const_field.one())]
                        + [const_field.zero()] * (r - 1) + [const_field.one()])
        zetas = [root for root, mult in roots(xr1) if mult == 1]
        if len(zetas) != r:
            raise NotGaloisError(
                f"x^{r} - u is not Galois: missing roots of unity in the constants")
        b = T.gen(idx)
        for z in zetas:
            _assert_root(T, lv, T.scale(b, k.constant(z)))
        return "radical-split"
    raise NotGaloisError("cannot certify the Galois property for this level")


def _family_of_name(T, name):
    idx = T.by_name.get(name)
    if idx is not None and T.levels[idx].family:
        return T.levels[idx].family
    for fam, i in TowerExtension._family_candidates(name):
        if fam in T.families:
            return fam
    return None


def babbitt_verify(chain: BabbittChain, horizon: int = 4) -> dict:
    """Per-step certificates for a claimed decomposition chain.

    Checks the claimed bottom field against the strong core of the finite
    sigma-closed part, certifies every benign step (Galois witness plus
    degree persistence along transforms up to the horizon), and searches
    bounded sigma powers for the radicial top.  Returns a certificate with
    verdict "verified", "refuted" (with a witness) or "inconclusive".
    """
    T = chain.tower
    cert = {"steps": [], "verdict": "verified", "witness": None}
    ld_report = limit_degree(T, horizon=horizon)
    cert["d_sequence"] = ld_report.d_sequence
    cert["limit_degree"] = ld_report.value

    # step 0: the claimed strong core
    E = _finite_part_count(T)
    core = strong_core_finite_ext(T, level_count=E)
    claimed_gens = [T.gen_by_name(n) for n in chain.steps[0].get("generators", [])]
    claimed, monos, index = _sigma_closed_span(T, claimed_gens, E)
    step0 = {"name": chain.steps[0].get("name", "L0"),
             "finite_part_levels": E,
             "core_dimension": core.span.dim(),
             "claimed_dimension": claimed.dim()}
    if not claimed.equals(core.span):
        missing = None
        for v in core.span.basis():
            if not claimed.contains(v):
                missing = T.from_coords(v, monos)
                break
        if missing is None:
            for v in claimed.basis():
                if not core.span.contains(v):
                    missing = T.from_coords(v, monos)
                    break
        step0["ok"] = False
        cert["verdict"] = "refuted"
        cert["witness"] = {"step": step0["name"],
                           "element": element_to_json(T, missing)}
    else:
        step0["ok"] = core.strongly_sigma_etale
        if not core.strongly_sigma_etale:
            cert["verdict"] = "refuted"
            cert["witness"] = {"step": step0["name"],
                               "reason": "core not strongly sigma etale"}
    cert["steps"].append(step0)

    covered = set(chain.steps[0].get("generators", []))
    prev_is_base = E == 0 and not covered
    for step in chain.steps[1:]:
        entry = {"name": step.get("name"), "ok": True}
        gname = step.get("benign_generator")
        if gname is None:
            entry["ok"] = False
            entry["reason"] = "missing benign witness generator"
            cert["verdict"] = "refuted"
            cert["steps"].append(entry)
            continue
        idx = T.ensure_name(gname)
        lv = T.levels[idx]
        try:
            entry["galois"] = _verify_galois_level(T, lv)
        except NotGaloisError as exc:
            entry["ok"] = False
            entry["reason"] = str(exc)
            cert["verdict"] = "refuted"
            cert["witness"] = {"step": step.get("name"), "reason": str(exc)}
            cert["steps"].append(entry)
            continue
        fam = _family_of_name(T, gname)
        degs = []
        if fam is not None:
            base_index = lv.index
            for j in range(horizon + 1):
                jdx = T.ensure_name(TowerExtension.level_name(fam, base_index + j))
                degs.append(T.levels[jdx].degree)
        entry["transform_degrees"] = degs
        if degs and any(d != lv.degree for d in degs):
            entry["ok"] = False
            entry["reason"] = "transform degree dropped"
            cert["verdict"] = "refuted"
            cert["witness"] = {"step": step.get("name"), "degrees": degs}
        if prev_is_base:
            d0, rel = _degrees(T, T.gen(idx))
            entry["degree_over_base"] = d0
            entry["relative_degree"] = rel
            if d0 != lv.degree or rel != lv.degree:
                entry["ok"] = False
                entry["reason"] = "linear-algebra degree recheck failed"
                cert["verdict"] = "refuted"
        covered.update(step.get("generators", []))
        if fam is not None:
            covered.add(fam)
        prev_is_base = False
        cert["steps"].append(entry)

    # sigma-radicial top
    leftovers = []
    for lv in T.levels:
        key = lv.family or lv.name
        if key not in covered and lv.name not in covered:
            leftovers.append(lv.name)
    for fam in T.families:
        if fam not in covered:
            if not any(lv.family == fam for lv in T.levels):
                leftovers.append(TowerExtension.level_name(fam, T.family_min.get(fam, 0)))
    top = {"name": "top", "radicial_exponents": {}, "ok": True}
    for name in leftovers:
        found = _least_sigma_power(T, T.gen(T.ensure_name(name)), horizon,
                                   lambda el: _supported_on_covered(T, el, covered))
        if found is None:
            top["ok"] = False
            top["radicial_exponents"][name] = None
            if cert["verdict"] == "verified":
                cert["verdict"] = "inconclusive"
        else:
            top["radicial_exponents"][name] = found
    cert["steps"].append(top)
    return cert


def _degrees(T, a):
    """[K(a):K] and the relative degree [K(a, sigma(a)):K(a)], both on the
    shortest prefix holding a and sigma(a); a subalgebra's dimension does not
    depend on the ambient."""
    sa = T.sigma(a)
    n = max(T.max_level(a), T.max_level(sa)) + 1
    d0 = T.degree_over_base(a, n)
    pair, _, _ = T.subalgebra_span([a, sa], n)
    return d0, pair.dim() // d0


def _supported_on_covered(T, el, covered):
    for m in el:
        for t, e in enumerate(m):
            if not e:
                continue
            lv = T.levels[t]
            if lv.name in covered:
                continue
            if lv.family and lv.family in covered:
                continue
            return False
    return True


def babbitt_search(T: TowerExtension, candidates, horizon: int = 4) -> dict:
    """Best-effort decomposition: computes the strong core of the finite
    part, scans the candidate elements for a substandard generator of
    minimal degree, and certifies a benign step when the degree matches the
    limit degree.  Returns the verified chain or a failure report naming
    what broke."""
    report = {"found": False, "candidates": []}
    if not T.families:
        core = strong_core_finite_ext(T)
        if core.span.dim() == T.dimension():
            chain = BabbittChain(T, [{"name": "L0",
                                      "generators": [lv.name for lv in T.levels]}])
            report.update({"found": True, "steps": 0,
                           "chain": chain.to_json(),
                           "certificate": babbitt_verify(chain, horizon=horizon)})
            return report
        report.update({
            "found": True, "steps": 0,
            "note": "finite extension: sigma-radicial over its strong core",
            "core_dimension": core.span.dim(),
            "radicial_exponents": core.radicial_exponents,
        })
        return report
    ld = limit_degree(T, horizon=horizon)
    if ld.value is None:
        report["reason"] = "limit degree unresolved at the horizon"
        return report
    best = None
    for text in candidates:
        entry = {"candidate": text}
        try:
            a = T.parse(text)
        except (TowerError, _exprs.ExpressionError) as exc:
            entry["reason"] = f"parse error: {exc}"
            report["candidates"].append(entry)
            continue
        gen_level = _generator_level_of(T, a)
        if gen_level is None:
            entry["reason"] = "candidate is not a tower generator; unsupported"
            report["candidates"].append(entry)
            continue
        lv = T.levels[gen_level]
        try:
            _verify_galois_level(T, lv)
        except NotGaloisError as exc:
            entry["reason"] = f"not Galois: {exc}"
            report["candidates"].append(entry)
            continue
        d0, rel = _degrees(T, a)
        entry.update({"degree": d0, "relative_degree": rel})
        if rel != ld.value:
            entry["reason"] = "relative transform degree differs from the limit degree"
            report["candidates"].append(entry)
            continue
        fam = lv.family
        if fam is None or set(T.families) != {fam}:
            entry["reason"] = "candidate does not sigma-generate the tower"
            report["candidates"].append(entry)
            continue
        entry["substandard"] = True
        report["candidates"].append(entry)
        if best is None or d0 < best[0]:
            best = (d0, text, fam)
    if best is None:
        report["reason"] = report.get("reason", "no qualifying candidate")
        return report
    d0, text, fam = best
    if d0 != ld.value:
        report["reason"] = ("the best substandard candidate has degree "
                            f"{d0} > limit degree {ld.value}")
        return report
    chain = BabbittChain(T, [
        {"name": "L0", "generators": []},
        {"name": "L1", "generators": [fam], "benign_generator": text},
    ])
    certificate = babbitt_verify(chain, horizon=horizon)
    report.update({"found": certificate["verdict"] == "verified",
                   "steps": 1, "chain": chain.to_json(),
                   "certificate": certificate})
    return report


def _generator_level_of(T, el):
    if len(el) != 1:
        return None
    (mono, coeff), = el.items()
    if not T.base.eq(coeff, T.base.one()):
        return None
    nz = [(t, e) for t, e in enumerate(mono) if e]
    if len(nz) != 1 or nz[0][1] != 1:
        return None
    return nz[0][0]


# -- compatibility -------------------------------------------------------------------


class CompatibilityVerdict:
    def __init__(self, compatible, witness, details):
        self.compatible, self.witness, self.details = compatible, witness, details


def compatible(L: TowerExtension, Lp: TowerExtension) -> CompatibilityVerdict:
    """Decide compatibility through the strong cores (finite separable case).

    Forms the tensor product of the two core algebras and looks for a
    primitive idempotent e with sigma(e) e = e, which makes the quotient by
    the complementary ideal a sigma-field containing both cores.
    """
    if L.base != Lp.base:
        raise TypeError("extensions live over different base fields")
    NL = strong_core_finite_ext(L)
    NLp = strong_core_finite_ext(Lp)
    A = tensor_product(NL.algebra, NLp.algebra)
    details = {"core_dims": [NL.algebra.dim, NLp.algebra.dim],
               "tensor_dim": A.dim}
    if A.dim == 1:
        return CompatibilityVerdict(True, {"idempotent": "unit"}, details)
    k = A.base
    if not k.is_finite:
        raise RestrictedAutomationError(
            "compatibility enumeration needs a finite base field")
    enumerated = []
    witness = None
    for e in primitive_idempotents(A):
        stable = A.vec_eq(A.multiply(A.apply_sigma(e.coords), e.coords), e.coords)
        enumerated.append({
            "idempotent": k.vec_to_json(e.coords),
            "sigma_stable_quotient": stable,
        })
        if stable and witness is None:
            witness = {"idempotent": k.vec_to_json(e.coords)}
    details["enumeration"] = enumerated
    return CompatibilityVerdict(witness is not None, witness, details)
