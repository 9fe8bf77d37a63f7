"""Property suites: each returns a deterministic, JSON-serializable report.

Every suite draws instances from a seeded generator and checks one family
of laws; the oracles used for cross-checking (exhaustive idempotent
enumeration, subspace enumeration, embedding search) are deliberately
separate code paths from the operations they check.
"""

from __future__ import annotations

import itertools
import math
import random

from . import _linalg as la
from . import gallery
from .diffpoly import strong_core_truncated
from .exactfield import PrimeField
from .findiff import (algebra_validate, base_change, is_etale, is_periodic,
                      is_sigma_reduced, is_sigma_separable,
                      is_strongly_sigma_etale, quotient_by_sigma_ideal,
                      restrict_scalars, sigma_subalgebra_generated,
                      splitting_extension, strong_core, tensor_product,
                      twist_and_psi, SigmaAlgebraMorphism, _subalgebra_on_span)
from .hopf import (hopf_validate, hopf_validate_truncated,
                   strong_core_is_hopf_subalgebra,
                   strong_core_is_hopf_subalgebra_truncated,
                   union_of_etale_subalgebras_probe)
from .instances import (conjugate, diagonal_algebra,
                        nilpotent_sigma_separable, random_invertible,
                        random_point_algebra, random_strongly_setale,
                        random_valid_algebra, sigma_closed_idempotent_subsets)
from .towers import babbitt_verify, compatible, strong_core_finite_ext, tower_make


def _report(name, instances, failures, details=None):
    return {"name": name, "passed": not failures, "instances": instances,
            "failures": failures[:20], "failure_count": len(failures),
            "details": details or {}}


# -- 1. worked example gallery ---------------------------------------------------


def suite_example_gallery(seed=0, chars=(5, 7), levels=(1, 2, 3)):
    failures = []
    details = {}
    count = 0
    for char in chars:
        pres = gallery.product_carrier(char)
        hopf_carrier = gallery.product_carrier_hopf(char)
        rep = hopf_validate_truncated(hopf_carrier, 1)
        if not rep.ok:
            failures.append(f"char {char}: carrier Hopf axioms failed")
        for level in levels:
            count += 1
            core = strong_core_truncated(pres, level)
            probe = union_of_etale_subalgebras_probe(pres, level)
            key = f"char{char}-level{level}"
            details[key] = {"core_dim": len(core.basis), "core_status": core.status,
                            "slice_dim": probe["slice_dimension"],
                            "all_etale": probe["all_etale"]}
            if len(core.basis) != 1 or core.status != "exact":
                failures.append(f"{key}: core is not exactly the scalars")
            if probe["slice_dimension"] < 2 ** level:
                failures.append(f"{key}: etale-union bound below 2^level")
            if not probe["all_etale"]:
                failures.append(f"{key}: slice element generated a non-etale algebra")
        cert = strong_core_is_hopf_subalgebra_truncated(hopf_carrier, max(levels))
        if cert["status"] != "verified":
            failures.append(f"char {char}: Hopf core containment {cert['status']}")
        dims = [details[f"char{char}-level{lv}"]["slice_dim"] for lv in levels]
        if not all(b > a for a, b in zip(dims, dims[1:])):
            failures.append(f"char {char}: slice dimension did not grow strictly")
    return _report("example-gallery", count, failures, details)


# -- 2. separability equivalences --------------------------------------------------


def suite_separability_equivalences(seed=42, count=510):
    rng = random.Random(seed)
    bases = [PrimeField(2), PrimeField(3), PrimeField(5)]
    failures = []
    stats = {"separable": 0, "inseparable": 0}
    for trial in range(count):
        k = bases[trial % len(bases)]
        A = random_valid_algebra(k, rng, max_dim=5)
        rep = algebra_validate(A)
        if not rep.ok:
            failures.append(f"trial {trial}: generated instance invalid")
            continue
        via_images = is_sigma_separable(A)
        twisted, psi = twist_and_psi(A)
        if not psi.validate().ok:
            failures.append(f"trial {trial}: canonical map is not a morphism")
        via_psi = la.rank(k, psi.matrix) == A.dim
        if via_images != via_psi:
            failures.append(f"trial {trial}: image criterion disagrees with the "
                            "canonical-map criterion")
        if is_sigma_reduced(A) != via_images:
            failures.append(f"trial {trial}: reducedness disagrees over an "
                            "inversive base")
        stats["separable" if via_images else "inseparable"] += 1
    return _report("separability-equivalences", count, failures, stats)


# -- 3. closure laws ---------------------------------------------------------------


def suite_closure_laws(seed=42, count=200):
    rng = random.Random(seed)
    bases = [PrimeField(2), PrimeField(3), PrimeField(5)]
    failures = []
    done = {"subalgebra": 0, "tensor-setale": 0, "tensor-separable": 0,
            "quotient": 0, "transitivity": 0}

    for trial in range(count):
        k = bases[trial % len(bases)]
        # subalgebra closure
        A = random_strongly_setale(k, rng, max_dim=4)
        gens = [[k.sample(rng) for _ in range(A.dim)]
                for _ in range(rng.randint(1, 2))]
        sub, incl = sigma_subalgebra_generated(A, gens)
        if not incl.validate().ok:
            failures.append(f"trial {trial}: subalgebra inclusion not a morphism")
        if not is_strongly_sigma_etale(sub):
            failures.append(f"trial {trial}: sigma-stable subalgebra lost the property")
        done["subalgebra"] += 1

        # tensor of strongly sigma-etale
        B = random_strongly_setale(k, rng, max_dim=3)
        C = random_strongly_setale(k, rng, max_dim=3)
        if not is_strongly_sigma_etale(tensor_product(B, C)):
            failures.append(f"trial {trial}: tensor lost strongly-sigma-etale")
        done["tensor-setale"] += 1

        # tensor of sigma-separable (not necessarily etale)
        S1 = nilpotent_sigma_separable(k, k.one())
        S2 = random_strongly_setale(k, rng, max_dim=2)
        T = tensor_product(S1, S2)
        if not is_sigma_separable(T) or is_etale(T):
            failures.append(f"trial {trial}: separable tensor misbehaved")
        done["tensor-separable"] += 1

        # quotient by a sigma-ideal
        dim = rng.randint(2, 4)
        pm = list(range(dim))
        rng.shuffle(pm)
        subsets = sigma_closed_idempotent_subsets(pm)
        if not subsets:
            pm = list(range(dim))  # identity map always has stable subsets
            subsets = sigma_closed_idempotent_subsets(pm)
        S = subsets[rng.randrange(len(subsets))]
        D = diagonal_algebra(k, pm)
        P = random_invertible(k, dim, rng)
        DC = conjugate(D, P)
        Pinv = la.inverse(k, P)
        gens = []
        for i in S:
            gens.append(la.mat_vec(k, Pinv, D.basis_vec(i)))
        Q, proj = quotient_by_sigma_ideal(DC, gens)
        if not proj.validate().ok:
            failures.append(f"trial {trial}: quotient projection not a morphism")
        if not is_strongly_sigma_etale(Q):
            failures.append(f"trial {trial}: quotient lost strongly-sigma-etale")
        done["quotient"] += 1

        # transitivity through a finite field step
        p = k.p
        d = rng.choice([2, 3])
        K, _ = splitting_extension(k, d)
        R = random_strongly_setale(K, rng, max_dim=2, conjugated=False)
        flat = restrict_scalars(R, k)
        if not is_strongly_sigma_etale(flat):
            failures.append(f"trial {trial}: transitivity failed after flattening")
        done["transitivity"] += 1
    return _report("closure-laws", count, failures, done)


# -- 4. strong-core functoriality ---------------------------------------------------


def _span_from_vectors(k, dim, vectors):
    span = la.SpanBasis(k, dim)
    for v in vectors:
        span.add(list(v))
    return span


def suite_core_functoriality(seed=42, count=100):
    rng = random.Random(seed)
    bases = [PrimeField(2), PrimeField(3), PrimeField(5)]
    failures = []
    done = {"base-change": 0, "tensor": 0, "monoidal": 0, "idempotence": 0}

    for trial in range(count):
        k = bases[trial % len(bases)]
        # base change: compute both sides independently
        A = random_valid_algebra(k, rng, max_dim=3)
        m = rng.randint(2, 4)
        K, embed = splitting_extension(k, m)
        AK = base_change(A, K, embed)
        left = strong_core(AK).span
        right_vectors = [[embed(c) for c in v]
                         for v in strong_core(A).span.basis()]
        right = _span_from_vectors(K, A.dim, right_vectors)
        if not left.equals(right):
            failures.append(f"trial {trial}: base-change core mismatch")
        done["base-change"] += 1

        # tensor compatibility
        B = random_valid_algebra(k, rng, max_dim=3)
        C = random_valid_algebra(k, rng, max_dim=3)
        T = tensor_product(B, C)
        coreT = strong_core(T).span
        kron = []
        for vb in strong_core(B).span.basis():
            for vc in strong_core(C).span.basis():
                vec = [k.zero()] * T.dim
                for i, x in enumerate(vb):
                    if k.is_zero(x):
                        continue
                    for j, y in enumerate(vc):
                        if not k.is_zero(y):
                            vec[i * C.dim + j] = k.mul(x, y)
                kron.append(vec)
        if not coreT.equals(_span_from_vectors(k, T.dim, kron)):
            failures.append(f"trial {trial}: tensor core mismatch")
        done["tensor"] += 1

        # monoidality: images of cores under morphisms land in cores
        D = random_point_algebra(k, rng, rng.randint(2, 3), conjugated=False)
        pm = [rng.randrange(D.dim) for _ in range(D.dim)]
        D = diagonal_algebra(k, pm)
        subsets = sigma_closed_idempotent_subsets(pm)
        morphisms = []
        E = random_strongly_setale(k, rng, max_dim=2, conjugated=False)
        TE = tensor_product(D, E)
        emb = [[k.zero()] * D.dim for _ in range(TE.dim)]
        for i in range(D.dim):
            for j in range(E.dim):
                if not k.is_zero(E.unit[j]):
                    emb[i * E.dim + j][i] = E.unit[j]
        morphisms.append(SigmaAlgebraMorphism(D, TE, emb))
        if subsets:
            S = subsets[rng.randrange(len(subsets))]
            Q, proj = quotient_by_sigma_ideal(D, [D.basis_vec(i) for i in S])
            morphisms.append(proj)
        for f in morphisms:
            src_core = strong_core(f.source)
            tgt_core = strong_core(f.target)
            for j in range(src_core.algebra.dim):
                img = f.apply(src_core.inclusion.column(j))
                if not tgt_core.span.contains(img):
                    failures.append(f"trial {trial}: morphism image left the core")
                    break
        done["monoidal"] += 1

        # idempotence
        core = strong_core(A)
        again = strong_core(core.algebra)
        if again.algebra.dim != core.algebra.dim:
            failures.append(f"trial {trial}: core of the core changed dimension")
        done["idempotence"] += 1
    return _report("core-functoriality", count, failures, done)


# -- 5. brute-force oracle agreement --------------------------------------------------


def _all_vectors(k, n):
    """Every vector of k^n, F_q's elements and not only F_p's."""
    return map(list, itertools.product(k.all_elements(), repeat=n))


def _oracle_periodic_span(A):
    """Exhaustive: solve e*e = e over the whole coordinate space, keep the
    periodic solutions, span them."""
    k = A.base
    span = la.SpanBasis(k, A.dim)
    for v in _all_vectors(k, A.dim):
        if A.vec_is_zero(v):
            continue
        if not A.vec_eq(A.multiply(v, v), v):
            continue
        if is_periodic(A, v, horizon=2 ** A.dim + 2).is_periodic():
            span.add(v)
    return span


def _all_subspaces_containing_unit(A):
    """Every subspace of k^n that contains the unit, by echelon enumeration."""
    k = A.base
    n = A.dim
    vectors = [v for v in _all_vectors(k, n)]
    seen = set()
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(len(vectors)), r):
            span = la.SpanBasis(k, n)
            for idx in combo:
                span.add(list(vectors[idx]))
            if span.dim() != r or not span.contains(A.unit):
                continue
            key = tuple(tuple(k.vec_to_json(row)) for row in span.basis())
            if key in seen:
                continue
            seen.add(key)
            yield span


def _oracle_definitional_core(A):
    """Union of all sigma-stable subalgebras passing the predicates."""
    k = A.base
    union = la.SpanBasis(k, A.dim)
    for span in _all_subspaces_containing_unit(A):
        rows = span.basis()
        closed = True
        for v in rows:
            if not span.contains(A.apply_sigma(v)):
                closed = False
                break
        if closed:
            for i in range(len(rows)):
                for j in range(i, len(rows)):
                    if not span.contains(A.multiply(rows[i], rows[j])):
                        closed = False
                        break
                if not closed:
                    break
        if not closed:
            continue
        sub, _ = _subalgebra_on_span(A, span)
        if is_strongly_sigma_etale(sub):
            for v in rows:
                union.add(list(v))
    return union


def suite_core_oracle(seed=42, count=40, definitional_count=12):
    rng = random.Random(seed)
    failures = []
    done = 0
    for trial in range(count):
        k = PrimeField(2 if trial % 2 == 0 else 3)
        dim = rng.randint(1, 3)
        A = random_point_algebra(k, rng, dim, bijective=bool(rng.randrange(2)),
                                 conjugated=bool(rng.randrange(2)))
        core = strong_core(A)
        oracle = _oracle_periodic_span(A)
        if not core.span.equals(oracle):
            failures.append(f"trial {trial}: exhaustive periodic span disagrees")
        if trial < definitional_count:
            union = _oracle_definitional_core(A)
            if not core.span.equals(union):
                failures.append(f"trial {trial}: definitional union disagrees")
        done += 1
    return _report("core-oracle", done, failures)


# -- 6. finite tower cores -------------------------------------------------------------


def _finite_tower_instances():
    from . import _polycore as pc

    out = []
    for p in (2, 3, 5, 7):
        fp = PrimeField(p)
        for degree in (2, 3, 4):
            rng = random.Random(f"tower-defpoly-{p}-{degree}")
            defpoly = pc.random_irreducible(fp, degree, p, rng)
            for m in range(degree):
                out.append(("frobenius", p, tuple(defpoly), m))
    # (p, d) with d dividing p - 1, so irreducible specializations of
    # x^d - t exist over the prime field
    for p, d in [(5, 2), (5, 4), (7, 2), (7, 3), (11, 2), (13, 2), (13, 3), (13, 4)]:
        for kexp in (2, 3):
            out.append(("radical-collapse", p, d, kexp))
    out.append(("two-level-f16", 2, None, None))
    return out


def _build_finite_tower(spec):
    kind = spec[0]
    if kind == "frobenius":
        _, p, defpoly, m = spec
        return gallery.frobenius_tower(p, list(defpoly), m)
    if kind == "radical-collapse":
        _, p, d, kexp = spec
        from .exactfield import FunctionField

        K = FunctionField(PrimeField(p), [0] * kexp + [1], [1])
        minpoly = ["-t"] + [0] * (d - 1) + [1]
        return tower_make(K, [{"name": "a", "minpoly": minpoly,
                               "sigma": f"a^{kexp}"}])
    if kind == "two-level-f16":
        F2 = PrimeField(2)
        return tower_make(F2, [
            {"name": "g1", "minpoly": [1, 1, 1], "sigma": "g1^2"},
            {"name": "g2", "minpoly": ["g1", 1, 1], "sigma": "g2^2"},
        ])
    raise ValueError(spec)


def suite_finite_tower_cores(seed=0, minimum=50):
    failures = []
    details = []
    instances = _finite_tower_instances()
    if len(instances) < minimum:
        failures.append(f"only {len(instances)} instances available")
    for spec in instances:
        label = "-".join(str(s) for s in spec)
        try:
            T = _build_finite_tower(spec)
            res = strong_core_finite_ext(T)
        except Exception as exc:
            failures.append(f"{label}: {exc}")
            continue
        if not res.strongly_sigma_etale:
            failures.append(f"{label}: core failed the strongly-sigma-etale check")
        if any(e is None for e in res.radicial_exponents.values()):
            failures.append(f"{label}: missing radicial exponent")
        details.append({"instance": label, "core_dim": res.algebra.dim,
                        "stabilized_at": res.stabilized_at,
                        "exponents": res.radicial_exponents})
    return _report("finite-tower-cores", len(instances), failures,
                   {"cases": details})


# -- 7. Babbitt chains ------------------------------------------------------------------


def suite_babbitt(seed=0, horizon=4):
    failures = []
    details = {}
    chains = {
        "radical-ld2": gallery.chain_for(gallery.radical_tower_f5()),
        "radical-ld3": gallery.chain_for(gallery.cubic_tower_f7()),
        "stacked": gallery.chain_for(gallery.stacked_tower_f5()),
        "repaired": gallery.repaired_chain(),
    }
    for name, chain in chains.items():
        cert = babbitt_verify(chain, horizon=horizon)
        details[name] = {"verdict": cert["verdict"], "d_sequence": cert["d_sequence"]}
        if cert["verdict"] != "verified":
            failures.append(f"{name}: expected verified, got {cert['verdict']}")
        seq = cert["d_sequence"]
        if any(b > a for a, b in zip(seq, seq[1:])):
            failures.append(f"{name}: degree sequence increased")
    bad = babbitt_verify(gallery.corrupted_chain(), horizon=horizon)
    details["corrupted"] = {"verdict": bad["verdict"], "witness": bad["witness"]}
    if bad["verdict"] != "refuted" or bad["witness"] is None:
        failures.append("corrupted chain was not refuted with a witness")
    return _report("babbitt", len(chains) + 1, failures, details)


# -- 8. compatibility cross-oracle ----------------------------------------------------------


def _oracle_common_embedding(d1, m1, d2, m2):
    """Finite-field oracle: a compatible Frobenius power on the compositum."""
    D = math.lcm(d1, d2)
    return any((r - m1) % d1 == 0 and (r - m2) % d2 == 0 for r in range(D))


def suite_compatibility(seed=0):
    failures = []
    F4 = [(2, m) for m in range(2)]
    F16 = [(4, m) for m in range(4)]
    towers = {}
    for d, m in F4:
        towers[(d, m)] = gallery.frobenius_tower(2, [1, 1, 1], m)
    for d, m in F16:
        towers[(d, m)] = gallery.frobenius_tower(2, [1, 1, 0, 0, 1], m)
    pairs = 0
    for (d1, m1), T1 in towers.items():
        for (d2, m2), T2 in towers.items():
            verdict = compatible(T1, T2)
            expected = _oracle_common_embedding(d1, m1, d2, m2)
            pairs += 1
            if verdict.compatible != expected:
                failures.append(
                    f"F{2**d1}(m={m1}) vs F{2**d2}(m={m2}): got "
                    f"{verdict.compatible}, oracle {expected}")
    # sigma-radicial extensions are compatible with everything available
    radicial = gallery.collapse_tower_f5()
    others = [gallery.fourth_root_tower_f5(), gallery.collapse_tower_f5()]
    for i, L in enumerate(others):
        v = compatible(L, radicial)
        pairs += 1
        if not v.compatible:
            failures.append(f"radicial pairing {i} reported incompatible")
    return _report("compatibility", pairs, failures)


# -- 9. Hopf cores ---------------------------------------------------------------------------


def suite_hopf(seed=42):
    failures = []
    count = 0
    for char in (5, 7):
        H = gallery.product_carrier_hopf(char)
        rep = hopf_validate_truncated(H, 1)
        count += 1
        if not rep.ok:
            failures.append(f"product carrier char {char}: axioms failed")
        cert = strong_core_is_hopf_subalgebra_truncated(H, 2)
        if cert["status"] != "verified":
            failures.append(f"product carrier char {char}: containment failed")
    fixed = {
        "z3-inversion": gallery.z3_inversion_dual(5),
        "collapsed-dual": gallery.collapsed_dual_hopf(5),
    }
    for name, H in fixed.items():
        count += 1
        if not hopf_validate(H).ok:
            failures.append(f"{name}: axioms failed")
        cert = strong_core_is_hopf_subalgebra(H)
        if cert["status"] != "verified":
            failures.append(f"{name}: containment {cert['status']}")
    for i, H in enumerate(gallery.group_automorphism_duals(5)):
        count += 1
        if not hopf_validate(H).ok:
            failures.append(f"automorphism dual {i}: axioms failed")
        if not is_strongly_sigma_etale(H.carrier):
            failures.append(f"automorphism dual {i}: carrier not strongly sigma-etale")
        cert = strong_core_is_hopf_subalgebra(H)
        if cert["status"] != "verified":
            failures.append(f"automorphism dual {i}: containment {cert['status']}")
    # negative fixtures must be flagged
    count += 2
    if hopf_validate(gallery.invalid_swap_dual(5)).ok:
        failures.append("translation-dual sigma passed validation")
    if hopf_validate(gallery.broken_antipode_fixture(5)).ok:
        failures.append("broken antipode passed validation")
    return _report("hopf", count, failures)


SUITES = {
    "example-gallery": suite_example_gallery,
    "separability-equivalences": suite_separability_equivalences,
    "closure-laws": suite_closure_laws,
    "core-functoriality": suite_core_functoriality,
    "core-oracle": suite_core_oracle,
    "finite-tower-cores": suite_finite_tower_cores,
    "babbitt": suite_babbitt,
    "compatibility": suite_compatibility,
    "hopf": suite_hopf,
}


def run_suite(name, seed=42):
    if name == "all":
        return run_all(seed=seed)
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return SUITES[name](seed=seed)


def run_all(seed=42):
    reports = {}
    for name, fn in SUITES.items():
        reports[name] = fn(seed=seed)
    return {"seed": seed, "passed": all(r["passed"] for r in reports.values()),
            "suites": reports}
