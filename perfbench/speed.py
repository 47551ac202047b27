"""Host-speed probe: a fixed exact-arithmetic kernel timed between invocations.

On a host shared with other tenants, their load can make the same
pure-Python work run up to twice as slow from one minute to the next.  ``probe()`` times a kernel that never changes -- ``Fraction``
Gaussian elimination and a dict-of-monomials product, the operation mix
of ``diskeds`` -- so its time measures the host, not the program.

An invocation's latency is scaled by ``NOMINAL_S / local`` where
``local`` is the median probe time around it, giving milliseconds at the
nominal host speed: the speed at which the kernel takes ``NOMINAL_S``.
A change to the program moves the scaled latency exactly as it moves the
wall time; a change in the host's load mostly cancels.
"""
from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# About the kernel's time (3.2-4 ms) on a lightly loaded 2-vCPU x86-64 VM
# with CPython 3.11, so that scaled figures stay close to wall-clock
# figures on such a machine.
NOMINAL_S = 0.004

_rng = random.Random(20231101)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 6)) for _ in range(9)]
           for _ in range(8)]
_POLY = {(i, j): Fraction(_rng.randint(-5, 5), _rng.randint(1, 4))
         for i in range(5) for j in range(5)}


def kernel():
    """Rank of a fixed rational 8x9 matrix and the square of a fixed polynomial."""
    m = [list(row) for row in _MATRIX]
    rank = 0
    for c in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    square = {}
    for e1, c1 in _POLY.items():
        for e2, c2 in _POLY.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            square[e] = square.get(e, 0) + c1 * c2
    return rank, sum(square.values())


def probe():
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def local_speeds(probes, span=2):
    """Probe time around each gap between consecutive probes.

    ``probes`` were taken before the first invocation, between each two
    and after the last, so invocation i lies between probes i and i + 1.
    Its local probe time is the median of the ``span`` probes on either
    side, which damps the noise of a single few-millisecond probe.
    """
    return [statistics.median(probes[max(0, i + 1 - span):i + 1 + span])
            for i in range(len(probes) - 1)]


def scale(seconds, local):
    """Seconds at the nominal host speed."""
    return seconds * NOMINAL_S / local
