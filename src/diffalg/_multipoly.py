"""Sparse multivariate polynomials over a field object.

A monomial is a tuple of (variable_index, exponent) pairs, sorted by index,
all exponents positive; () is the constant monomial.  A polynomial is a dict
mapping monomials to nonzero field elements; {} is zero.  Variable indices
are arbitrary integers, which lets the shift fields address transforms
t_i for i < 0 after inversive-closure deepening.

This is the package's one sparse-polynomial kernel: iadd/add, mul, power, eq
and normal_form, the one rewriter, also serve presentations (((j, i), exp)
pairs), towers (dense exponent tuples) and the Hopf tensors (tuples of basis
keys): mul and normal_form take the monomial product, power the ring product.
to_dense and from_dense are the one map between these sparse dicts and
coordinate vectors over a list of monomials, for every kind of key.  Ring
holds the ring operations over a base field once, for the presentation and
tower classes that differ only in their product.

The gcd is the classical primitive-PRS recursion on the largest variable.
Degrees stay tiny in this artifact, so simplicity wins over asymptotics.
"""

from __future__ import annotations

import copy

from ._polycore import Kernels


def mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def mono_key(m):
    # graded lexicographic, higher variables first
    return (sum(e for _, e in m), tuple(sorted(((-v, e) for v, e in m))))


def zero():
    return {}


def const(k, a):
    if k.is_zero(a):
        return {}
    return {(): a}


def var(k, idx, exp=1):
    return {((idx, exp),): k.one()}


def is_zero(f):
    return not f


def is_const(f):
    return not f or (len(f) == 1 and () in f)


def const_value(k, f):
    return f.get((), k.zero())


def variables(f):
    out = set()
    for m in f:
        for v, _ in m:
            out.add(v)
    return out


def iadd(k, out, g):
    """Add g into out in place, dropping terms that cancel; returns out."""
    for m, c in g.items():
        s = k.add(out.get(m, k.zero()), c)
        if k.is_zero(s):
            out.pop(m, None)
        else:
            out[m] = s
    return out


def add(k, f, g):
    return iadd(k, dict(f), g)


def neg(k, f):
    return {m: k.neg(c) for m, c in f.items()}


def sub(k, f, g):
    return add(k, f, neg(k, g))


def scale(k, f, a):
    if k.is_zero(a):
        return {}
    return {m: k.mul(c, a) for m, c in f.items()}


def mul(k, f, g, mono_mul=mono_mul):
    """Product of f and g; mono_mul multiplies two monomials, so any monomial
    format (sorted pairs, dense exponent tuples, tensor keys) shares the loop.
    Coefficients are nonzero and a field has no zero divisors, so a
    monomial's first product is stored as it is; only a sum can cancel."""
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = mono_mul(m1, m2)
            c = k.mul(c1, c2)
            if m in out:
                c = k.add(out[m], c)
                if k.is_zero(c):
                    del out[m]
                    continue
            out[m] = c
    return out


def normal_form(k, f, rule, mono_mul=mono_mul):
    """f rewritten until rule matches no term, f left as it is.  rule(m) is
    None on a normal monomial m, else (rest, g) with m = rest * n for an n
    that rewrites to g; the term c m then goes back on the worklist as
    c rest g, each of its terms summed where its monomial is: pending on the
    worklist or normal in the output, never both."""
    work, out = dict(f), {}
    while work:
        m, c = work.popitem()
        r = rule(m)
        if r is None:
            out[m] = c
            continue
        for m, c in mul(k, {r[0]: c}, r[1], mono_mul).items():
            into = out if m in out else work
            if m in into:
                c = k.add(into[m], c)
                if k.is_zero(c):
                    del into[m]
                    continue
            into[m] = c
    return out


def power(f, e, one, mul):
    """f^e by binary powering under the ring product mul; one, the unit, is
    the answer at e = 0 and is never multiplied in.  The product starts from
    a shallow copy of its first factor, so it is never the caller's f."""
    acc = None
    while e:
        if e & 1:
            acc = copy.copy(f) if acc is None else mul(acc, f)
        e >>= 1
        if e:
            f = mul(f, f)
    return one if acc is None else acc


def eq(k, f, g):
    if len(f) != len(g):
        return False
    for m, c in f.items():
        if m not in g or not k.eq(c, g[m]):
            return False
    return True


def leading(f):
    """Leading (monomial, coefficient) under graded lex."""
    m = max(f, key=mono_key)
    return m, f[m]


def lc(f):
    return leading(f)[1]


def map_coeffs(k_out, f, fn):
    out = {}
    for m, c in f.items():
        c2 = fn(c)
        if not k_out.is_zero(c2):
            out[m] = c2
    return out


def shift_vars(f, offset):
    """Rename every variable index v to v + offset."""
    return {tuple((v + offset, e) for v, e in m): c for m, c in f.items()}


def evaluate(k, f, assignment):
    """Full evaluation; assignment maps every variable index to a scalar."""
    acc = k.zero()
    for m, c in f.items():
        t = c
        for v, e in m:
            a = assignment[v]
            for _ in range(e):
                t = k.mul(t, a)
        acc = k.add(acc, t)
    return acc


# univariate view in a chosen main variable, coefficients again sparse dicts


def _split_main(m, v):
    e = 0
    rest = []
    for w, d in m:
        if w == v:
            e = d
        else:
            rest.append((w, d))
    return e, tuple(rest)


def to_univariate(f, v):
    """List of coefficient polynomials in the remaining variables, low first."""
    if not f:
        return []
    coeffs = {}
    for m, c in f.items():
        e, rest = _split_main(m, v)
        coeffs.setdefault(e, {})[rest] = c
    n = max(coeffs) + 1
    return [coeffs.get(i, {}) for i in range(n)]


def from_univariate(cs, v):
    out = {}
    for e, poly in enumerate(cs):
        for m, c in poly.items():
            full = mono_mul(m, ((v, e),) if e else ())
            out[full] = c
    return out


def _uni_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _uni_scale(k, a, c):
    return _uni_trim([mul(k, ci, c) for ci in a])


def _uni_sub(k, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        ca = a[i] if i < len(a) else {}
        cb = b[i] if i < len(b) else {}
        out.append(sub(k, ca, cb))
    return _uni_trim(out)


def content(k, f, v):
    """gcd of the coefficients of f viewed in the main variable v."""
    cs = to_univariate(f, v)
    g = {}
    for c in cs:
        g = gcd(k, g, c)
        if is_const(g) and not is_zero(g):
            break
    return g if g else {}


def _normalize_leading(k, f):
    """Scale so the graded-lex leading coefficient is one."""
    if not f:
        return f
    _, c = leading(f)
    return scale(k, f, k.inv(c))


def _prem(k, f_uni, g_uni):
    """Pseudo-remainder: lc(g)^(deg f - deg g + 1) * f mod g, univariate views."""
    f = _uni_trim(list(f_uni))
    g = _uni_trim(list(g_uni))
    lc = g[-1]
    delta = len(f) - len(g)
    scalings = 0
    while f and len(f) >= len(g):
        d = len(f) - len(g)
        top = f[-1]
        f = _uni_scale(k, f, lc)
        scalings += 1
        sub_term = _uni_scale(k, [({} if i < d else g[i - d])
                                  for i in range(len(g) + d)], top)
        f = _uni_sub(k, f, sub_term)
    for _ in range(delta + 1 - scalings):
        f = _uni_scale(k, f, lc)
    return f


def _subresultant_last(k, a, b, v):
    """Last nonzero member of the subresultant remainder sequence in v."""
    r0 = to_univariate(a, v)
    r1 = to_univariate(b, v)
    if len(r0) < len(r1):
        r0, r1 = r1, r0
    g_ = const(k, k.one())
    h = const(k, k.one())

    def pw(f, e):
        return power(f, e, const(k, k.one()), lambda x, y: mul(k, x, y))

    while True:
        if not r1:
            return from_univariate(r0, v)
        if len(r1) == 1:
            return from_univariate(r1, v)
        d = len(r0) - len(r1)
        rem = _prem(k, r0, r1)
        divisor = mul(k, g_, pw(h, d))
        rem = [exact_div(k, c, divisor) for c in rem]
        r0, r1 = r1, rem
        g_ = r0[-1]
        if d > 0:
            h = exact_div(k, pw(g_, d), pw(h, d - 1))


def gcd(k, f, g):
    """Monic-normalized gcd; content-primitive recursion over the largest
    variable with a subresultant remainder sequence for the primitive parts."""
    if not f:
        return _normalize_leading(k, dict(g))
    if not g:
        return _normalize_leading(k, dict(f))
    vs = variables(f) | variables(g)
    if not vs:
        return {(): k.one()}
    v = max(vs)
    cf = content(k, f, v)
    cg = content(k, g, v)
    cont = gcd(k, cf, cg)
    fp = exact_div(k, f, cf)
    gp = exact_div(k, g, cg)
    last = _subresultant_last(k, fp, gp, v)
    if len(to_univariate(last, v)) == 1:
        # coprime primitive parts: only the content survives
        return _normalize_leading(k, cont)
    cp = content(k, last, v)
    prim = exact_div(k, last, cp)
    return _normalize_leading(k, mul(k, cont, prim))


def exact_div(k, f, g):
    """Divide f by a known divisor g, exactly."""
    if not f:
        return {}
    if is_const(g):
        return scale(k, f, k.inv(const_value(k, g)))
    vs = variables(g)
    v = max(vs)
    a = to_univariate(f, v)
    b = to_univariate(g, v)
    q = [{} for _ in range(len(a) - len(b) + 1)]
    while a:
        if len(a) < len(b):
            raise ArithmeticError("exact_div: division is not exact")
        d = len(a) - len(b)
        qc = exact_div(k, a[-1], b[-1])
        q[d] = qc
        sub_term = _uni_scale(k, [({} if i < d else b[i - d]) for i in range(len(b) + d)], qc)
        a = _uni_sub(k, a, sub_term)
    return from_univariate(q, v)


def to_dense(k, f, index):
    """f's coefficient vector, index mapping each monomial to its position;
    None when a monomial of f has no position."""
    out = [k.zero()] * len(index)
    for m, c in f.items():
        t = index.get(m)
        if t is None:
            return None
        out[t] = c
    return out


def from_dense(k, v, monos):
    """The polynomial with coefficient v[t] on monos[t]."""
    return {m: c for m, c in zip(monos, v) if not k.is_zero(c)}


def to_terms(f):
    """Canonical sorted term list, highest monomial first."""
    return sorted(f.items(), key=lambda kv: mono_key(kv[0]), reverse=True)


class Ring(Kernels):
    """The sparse-polynomial ring operations over the field self.base, shared
    by presentations and towers; a subclass supplies mul, which multiplies
    and brings the product to its normal form.  A tower is also a field, and
    the generic dense-polynomial kernels of _polycore run over it."""

    def zero(self):
        return {}

    def one(self):
        return {(): self.base.one()}

    def const(self, c):
        c = self.base.canon(c)
        return {} if self.base.is_zero(c) else {(): c}

    def from_int(self, n):
        return self.const(self.base.from_int(n))

    def add(self, f, g):
        return add(self.base, f, g)

    def neg(self, f):
        return neg(self.base, f)

    def sub(self, f, g):
        return sub(self.base, f, g)

    def scale(self, f, c):
        return scale(self.base, f, c)

    def power(self, f, e):
        return power(f, e, self.one(), self.mul)

    def eq(self, f, g):
        return eq(self.base, f, g)

    def is_zero(self, f):
        return not f
