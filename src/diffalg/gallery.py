"""Named instances shipped with the package.

The headline item is the product carrier whose union of etale subalgebras
outgrows every truncation level while the strong core stays at the scalars;
the rest are the tower and Hopf fixtures the verification suites exercise.
"""

from __future__ import annotations

import itertools

from .diffpoly import Presentation
from .exactfield import FunctionField, PrimeField, ShiftField
from .findiff import FinSigmaAlgebra
from .hopf import SigmaHopf, TruncatedGroupLikeHopf
from .instances import diagonal_algebra
from .towers import (BabbittChain, TowerExtension, benign_make,
                     stacked_radical_tower, tower_from_json, tower_make)


def product_carrier(char: int) -> Presentation:
    """The tensor of a sigma-collapsed group-like line with a free one.

    Over a prime field of odd characteristic: y is group-like with its first
    transform pinned to one, z is group-like and free, so the z-block keeps
    growing while everything periodic collapses to the scalars.
    """
    if char == 2:
        raise ValueError("the carrier needs characteristic different from two")
    k = PrimeField(char)
    return Presentation(k, ["y", "z"], ["y0^2-1", "y1-1", "z0^2-1"])


def product_carrier_hopf(char: int) -> TruncatedGroupLikeHopf:
    return TruncatedGroupLikeHopf(product_carrier(char))


def collapsed_line(char: int) -> Presentation:
    """k{y}/[y^2-1, sigma(y)-1]: two points, one transform pinned."""
    k = PrimeField(char)
    return Presentation(k, ["y"], ["y0^2-1", "y1-1"])


def free_line(char: int) -> Presentation:
    """k{y}/[y^2-1]: the free group-like line."""
    k = PrimeField(char)
    return Presentation(k, ["y"], ["y0^2-1"])


def swap_presentation(char: int) -> Presentation:
    """Two points exchanged by sigma, presented with a substitution rule."""
    k = PrimeField(char)
    return Presentation(k, ["y"], ["y0^2-y0", "y1-(1-y0)"])


# -- Hopf fixtures -----------------------------------------------------------------


def group_dual_hopf(char: int, shape, endo) -> SigmaHopf:
    """Functions on a finite abelian group with sigma dual to an endomorphism.

    shape is a tuple of cyclic orders; endo maps group tuples to group
    tuples.  The comultiplication is dual to addition, the antipode to
    negation, the counit evaluates at zero.
    """
    k = PrimeField(char)
    elems = list(itertools.product(*[range(m) for m in shape]))
    index = {g: i for i, g in enumerate(elems)}
    n = len(elems)

    def neg(g):
        return tuple((-a) % m for a, m in zip(g, shape))

    z, o = k.zero(), k.one()
    carrier = diagonal_algebra(k, [index[endo(h)] for h in elems])
    comul = [[z] * n for _ in range(n * n)]
    for g in elems:
        for h1 in elems:
            h2 = tuple((a - b) % m for a, b, m in zip(g, h1, shape))
            comul[index[h1] * n + index[h2]][index[g]] = o
    antipode = [[z] * n for _ in range(n)]
    for g in elems:
        antipode[index[neg(g)]][index[g]] = o
    counit = [o if all(a == 0 for a in g) else z for g in elems]
    return SigmaHopf(carrier, comul, antipode, counit)


def z3_inversion_dual(char: int = 5) -> SigmaHopf:
    """Functions on Z/3 with sigma dual to inversion: one idempotent fixed,
    the other two swapped."""
    return group_dual_hopf(char, (3,), lambda g: ((-g[0]) % 3,))


def collapsed_dual_hopf(char: int = 5) -> SigmaHopf:
    """Functions on Z/2 with sigma dual to the zero endomorphism: the Hopf
    form of the collapsed line."""
    return group_dual_hopf(char, (2,), lambda g: (0,))


def invalid_swap_dual(char: int = 5) -> SigmaHopf:
    """Negative fixture: sigma dual to translation by one, which is not a
    group endomorphism, so the comultiplication square must fail."""
    return group_dual_hopf(char, (2,), lambda g: ((g[0] + 1) % 2,))


def broken_antipode_fixture(char: int = 5) -> SigmaHopf:
    """Group algebra of Z/2 with the antipode deliberately set to one."""
    k = PrimeField(char)
    z, o = k.zero(), k.one()
    # basis 1, g with g^2 = 1; Delta(g) = g (x) g, eps(g) = 1, S(g) := 1 (wrong)
    mul = [[[o, z], [z, o]], [[z, o], [o, z]]]
    unit = [o, z]
    sigma = [[o, z], [z, o]]
    carrier = FinSigmaAlgebra(k, mul, unit, sigma)
    comul = [[z, z] for _ in range(4)]
    comul[0][0] = o          # Delta(1) = 1 (x) 1
    comul[3][1] = o          # Delta(g) = g (x) g
    antipode = [[o, o], [z, z]]   # S(1) = 1, S(g) = 1: breaks the antipode law
    counit = [o, o]
    return SigmaHopf(carrier, comul, antipode, counit)


def group_automorphism_duals(char: int = 5):
    """All function Hopf algebras on abelian groups of order <= 4 with sigma
    dual to a group automorphism; every one is strongly sigma-etale."""
    out = []
    for shape in [(2,), (3,), (4,), (2, 2)]:
        elems = list(itertools.product(*[range(m) for m in shape]))

        def is_auto(perm, _shape=shape, _elems=elems):
            def add(g, h):
                return tuple((a + b) % m for a, b, m in zip(g, h, _shape))

            for g in _elems:
                for h in _elems:
                    if perm[add(g, h)] != add(perm[g], perm[h]):
                        return False
            return len(set(perm.values())) == len(_elems)

        for images in itertools.permutations(elems):
            perm = dict(zip(elems, images))
            if perm[tuple(0 for _ in shape)] != tuple(0 for _ in shape):
                continue
            if is_auto(perm):
                out.append(group_dual_hopf(char, shape, lambda g, _p=perm: _p[g]))
    return out


# -- tower fixtures -----------------------------------------------------------------


def radical_tower_f5() -> TowerExtension:
    """Benign square-root tower over the shift field of characteristic 5."""
    return benign_make(ShiftField(PrimeField(5)), ["-t0", 0, 1],
                       kind="radical", family="a")


def cubic_tower_f7() -> TowerExtension:
    """Benign cube-root tower over characteristic 7, where the cube roots of
    unity live in the constants."""
    return benign_make(ShiftField(PrimeField(7)), ["-t0", 0, 0, 1],
                       kind="radical", family="b")


def stacked_tower_f5() -> TowerExtension:
    return stacked_radical_tower(ShiftField(PrimeField(5)), 2, 2, shift=1)


def chain_for(tower: TowerExtension) -> BabbittChain:
    """The canonical chain of a benign or stacked radical tower."""
    fams = sorted(tower.families)
    steps = [{"name": "L0", "generators": []}]
    for i, fam in enumerate(fams, start=1):
        start = tower.family_min.get(fam, 0)
        steps.append({"name": f"L{i}", "generators": [fam],
                      "benign_generator": TowerExtension.level_name(fam, start)})
    return BabbittChain(tower, steps)


def corrupted_chain() -> BabbittChain:
    """A tower with a finite strongly sigma-etale bottom whose chain claims
    the bottom field is trivial; verification must refute it."""
    S3 = ShiftField(PrimeField(3))
    T = tower_from_json({
        "base": S3.descriptor(),
        "levels": [{"name": "c", "minpoly": ["1", 0, 1], "sigma": "-c",
                    "cert": "specialized"}],
        "families": [{"name": "a", "kind": "radical-block", "r": 2, "var_start": 0}],
        "explicit_groups": [["c", "a0"]],
        "family_groups": [{"family": "a", "start": 0}],
    })
    return BabbittChain(T, [
        {"name": "L0", "generators": []},
        {"name": "L1", "generators": ["a"], "benign_generator": "a0"},
    ])


def repaired_chain() -> BabbittChain:
    bad = corrupted_chain()
    return BabbittChain(bad.tower, [
        {"name": "L0", "generators": ["c"]},
        {"name": "L1", "generators": ["a"], "benign_generator": "a0"},
    ])


def collapse_tower_f5() -> TowerExtension:
    """K = F5(t) with sigma(t) = t^2 and a = sqrt(t) sent to t: the first
    sigma image already lands in the base."""
    K = FunctionField(PrimeField(5), [0, 0, 1], [1])
    return tower_make(K, [{"name": "a", "minpoly": ["-t", 0, 1], "sigma": "t"}])


def fourth_root_tower_f5() -> TowerExtension:
    """K = F5(t), sigma(t) = t^2, a = t^(1/4) with sigma(a) = a^2 = sqrt(t)."""
    K = FunctionField(PrimeField(5), [0, 0, 1], [1])
    return tower_make(K, [{"name": "a", "minpoly": ["-t", 0, 0, 0, 1],
                           "sigma": "a^2"}])


def frobenius_tower(p: int, defpoly, power: int = 1) -> TowerExtension:
    """A finite field extension presented as a one-level tower."""
    k = PrimeField(p)
    probe = tower_make(k, [{"name": "g", "minpoly": list(defpoly),
                            "sigma": _frobenius_rule(p, power, len(defpoly) - 1)}])
    return probe


def _frobenius_rule(p, power, degree):
    e = p ** (power % degree) if degree else 1
    return f"g^{e}" if e != 1 else "g"
