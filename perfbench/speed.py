"""The speed kernel: how fast the machine runs pure-Python code right now.

The benchmark runs on a shared host whose speed for the same code moves by up
to about 2x, in stretches from under a second to several minutes.  Every
timing the benchmark reports is scaled by the kernel's duration measured next
to it, so that it reads as the time at a reference speed: a machine on which
the kernel takes REF_MS.  The kernel runs no diffalg code, so a change to the
program does not change it.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

REF_MS = 6.0
# kernel runs per scale factor of a side measurement (before and after it)
SAMPLES = 5


class _Residue:
    """An element of Z/10007 as a small object, like the engine's field
    elements."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % 10007

    def __add__(self, other):
        return _Residue(self.v + other.v)

    def __mul__(self, other):
        return _Residue(self.v * other.v)


# Objects scattered over a few megabytes, read in a fixed random order: the
# engine's larger requests miss the caches.  In a nine-minute probe the rest
# of the kernel moved only 0.7-0.8 times as much as cli-gallery and
# core-galois requests did (in log terms); these reads alone moved about as
# much as they did.
_rng = random.Random(0)
_TABLE = [_Residue(_rng.randrange(10007)) for _ in range(1 << 16)]
_ORDER = [_rng.randrange(1, 1 << 16) for _ in range(2000)]
del _rng


def kernel():
    """Fixed work of the kinds the engine's inner loops do: an integer loop,
    Gauss-Jordan elimination over Fractions, a convolution of small
    field-element objects and scattered reads of such objects."""
    acc = 0
    for i in range(8000):
        acc = (acc * 31 + i * i) % 1000003
    n = 6
    rows = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + j) % 5 + 1) for j in range(n + 1)]
            for i in range(n)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    xs = [_Residue(i * 3 + 1) for i in range(40)]
    ys = [_Residue(i * 5 + 2) for i in range(30)]
    conv = [_Residue(0)] * 70
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            conv[i + j] = conv[i + j] + x * y
    walk = _Residue(1)
    for i in _ORDER:
        walk = walk * _TABLE[i] + _TABLE[i - 1]
    return acc, rows, conv, walk


def kernel_ms():
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) * 1e3


def kernel_runs():
    return [kernel_ms() for _ in range(SAMPLES)]


def scale(kernels_ms):
    """The factor that turns a time measured next to these kernel runs into
    a time at the reference speed."""
    return REF_MS / statistics.median(kernels_ms)
