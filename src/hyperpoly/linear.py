"""Exact linear feasibility over the rationals via Fourier-Motzkin elimination.

Systems are conjunctions of constraints  sum(coeffs[i]*x[i]) <= rhs  (or < rhs
when strict).  Everything is a Fraction, so feasibility answers are exact and
a feasible system always yields an exact rational witness point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

Rat = Fraction


@dataclass(frozen=True)
class Constraint:
    """sum(coeffs[i] * x[i]) <= rhs; strict turns <= into <."""

    coeffs: tuple[Rat, ...]
    rhs: Rat
    strict: bool = False


def _rat(x) -> Rat:
    return x if isinstance(x, Fraction) else Fraction(x)


def le(coeffs: Sequence, rhs) -> Constraint:
    return Constraint(tuple(_rat(c) for c in coeffs), _rat(rhs), False)


def lt(coeffs: Sequence, rhs) -> Constraint:
    return Constraint(tuple(_rat(c) for c in coeffs), _rat(rhs), True)


def eq(coeffs: Sequence, rhs) -> list[Constraint]:
    return [le(coeffs, rhs), le([-_rat(c) for c in coeffs], -_rat(rhs))]


def _eliminate_last(constraints: list[Constraint], nvars: int) -> list[Constraint]:
    """Project away variable nvars-1."""
    uppers, lowers, rest = [], [], []
    for con in constraints:
        c = con.coeffs[nvars - 1]
        if c > 0:
            uppers.append(con)
        elif c < 0:
            lowers.append(con)
        else:
            rest.append(Constraint(con.coeffs[: nvars - 1], con.rhs, con.strict))
    for up in uppers:
        cu = up.coeffs[nvars - 1]
        for lo in lowers:
            cl = lo.coeffs[nvars - 1]
            # (-cl)*up + cu*lo cancels the eliminated variable; both
            # multipliers are positive so the inequality directions survive.
            coeffs = tuple(
                -cl * up.coeffs[j] + cu * lo.coeffs[j] for j in range(nvars - 1)
            )
            rest.append(
                Constraint(coeffs, -cl * up.rhs + cu * lo.rhs, up.strict or lo.strict)
            )
    return rest


def feasible_point(
    constraints: Sequence[Constraint], nvars: int
) -> Optional[list[Rat]]:
    """An exact rational solution of the system, or None if infeasible."""
    systems: list[list[Constraint]] = [list(constraints)]
    for m in range(nvars, 0, -1):
        systems.append(_eliminate_last(systems[-1], m))
    for con in systems[-1]:
        if con.rhs < 0 or (con.strict and con.rhs == 0):
            return None
    values: list[Rat] = []
    for m in range(1, nvars + 1):
        lo: Optional[tuple[Rat, bool]] = None
        hi: Optional[tuple[Rat, bool]] = None
        for con in systems[nvars - m]:
            c = con.coeffs[m - 1]
            if c == 0:
                continue
            bound = (con.rhs - sum(con.coeffs[j] * values[j] for j in range(m - 1))) / c
            if c > 0:
                if hi is None or bound < hi[0] or (bound == hi[0] and con.strict):
                    hi = (bound, con.strict)
            else:
                if lo is None or bound > lo[0] or (bound == lo[0] and con.strict):
                    lo = (bound, con.strict)
        if lo is None and hi is None:
            values.append(Fraction(0))
        elif lo is None:
            values.append(hi[0] - 1 if hi[1] else hi[0])
        elif hi is None:
            values.append(lo[0] + 1 if lo[1] else lo[0])
        elif lo[0] == hi[0]:
            values.append(lo[0])
        else:
            values.append((lo[0] + hi[0]) / 2)
    return values
