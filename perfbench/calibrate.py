"""Host-speed reference: a fixed piece of pure-Python work, timed beside
the queries, that puts every timing of a run on one scale.

On a shared host the same work runs up to 2x slower in stretches lasting
from seconds to minutes, and a thread's CPU time grows with it (the core's
caches and pipeline are shared with other tenants).  A run therefore times
this reference work between its timed stretches and reports each timing
scaled by ``REFERENCE_S / reference time`` around it: the time it would
have taken on a host that does the reference work in ``REFERENCE_S``.
The work uses the oracles' code (tuples, frozensets, dicts, Fraction
arithmetic) and never hyperpoly, so no change to the program moves it.
"""
from __future__ import annotations

from fractions import Fraction

import oracles as orc

REFERENCE_S = 0.1


def reference_work() -> None:
    orc.scan_count(orc.plain_model("S"), 2, True)
    acc = Fraction(0)
    for i in range(1, 3000):
        acc = max(acc, Fraction(i, 7) + Fraction(3, i)) - Fraction(1, i + 1)


def reference_seconds(clock) -> float:
    t0 = clock()
    reference_work()
    return clock() - t0
