"""Exact feasibility of conjunctions of quadratic inequalities over Q.

A constraint is (A, B, C) meaning A*a^2 + B*a + C >= 0.  Feasibility over an
IntervalUnion with rational endpoints is decided exactly: interiors are
covered by rational sample points between root brackets, and isolated
boundary points at irrational quadratic roots are handled symbolically (sign
of a linear remainder against a shrinking rational bracket).  Each
quadratic is scaled to integer coefficients once, and every sign at a
rational point a = n/d is read on integers, from A*n^2 + B*n*d + C*d^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .sets import ExtRat, IntervalUnion, qadd, qmul, qsub

Quad = tuple[Fraction, Fraction, Fraction]  # or ints, once scaled
_ONE, _HALF = Fraction(1), Fraction(1, 2)


def integer_quad(g: Quad) -> Quad:
    """g times its coefficients' common denominator: same roots and signs."""
    scale = math.lcm(*(x.denominator for x in g))
    return tuple(x.numerator * (scale // x.denominator) for x in g)


def sign_at(g: Quad, a: Fraction) -> int:
    """The sign of g at a = n/d (d > 0), that of A*n^2 + B*n*d + C*d^2."""
    A, B, C = g
    n, d = a.numerator, a.denominator
    v = (A * n + B * d) * n + C * d * d
    return (v > 0) - (v < 0)


def sqrt_exact(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class IrrationalRoot:
    """A real quadratic root isolated in a rational bracket (lo, hi)."""

    quad: Quad
    lo: Fraction
    hi: Fraction

    def refined(self, times: int = 1) -> "IrrationalRoot":
        lo, hi = self.lo, self.hi
        slo = sign_at(self.quad, lo)
        for _ in range(times):
            mid = (lo + hi) / 2
            sm = sign_at(self.quad, mid)
            if sm == 0:
                raise AssertionError("irrational bracket hit a rational root")
            if (slo < 0) != (sm < 0):
                hi = mid
            else:
                lo, slo = mid, sm
        return IrrationalRoot(self.quad, lo, hi)

    def avoid(self, point: Fraction) -> "IrrationalRoot":
        """Refine until the bracket strictly excludes the rational point."""
        cur = self
        while cur.lo < point < cur.hi:
            cur = cur.refined()
        return cur

    def compare(self, point: Fraction) -> int:
        """-1 if the root is below the rational point, +1 if above."""
        if sign_at(self.quad, point) == 0:
            raise AssertionError("point is a root")
        cur = self.avoid(point)
        return -1 if cur.hi <= point else 1


def roots_of(g: Quad) -> tuple[list[Fraction], list[IrrationalRoot]]:
    A, B, C = g
    if A == 0:
        if B == 0:
            return [], []
        return [Fraction(-C, B)], []
    disc = B * B - 4 * A * C
    if disc < 0:
        return [], []
    if disc == 0:
        return [Fraction(-B, 2 * A)], []
    s = sqrt_exact(disc)
    if s is not None:
        r1 = (-B - s) / (2 * A)
        r2 = (-B + s) / (2 * A)
        return sorted([r1, r2]), []
    # irrational pair: bracket sqrt(disc) within 1/d, then divide through
    n, d = disc.numerator, disc.denominator
    k = math.isqrt(n * d)
    s_lo, s_hi = Fraction(k, d), Fraction(k + 1, d)
    out = []
    for sgn in (-1, 1):
        e_lo = (-B + sgn * (s_lo if sgn > 0 else s_hi)) / (2 * A)
        e_hi = (-B + sgn * (s_hi if sgn > 0 else s_lo)) / (2 * A)
        lo, hi = min(e_lo, e_hi), max(e_lo, e_hi)
        root = IrrationalRoot(g, lo, hi)
        if sign_at(g, lo) == 0 or sign_at(g, hi) == 0:
            raise AssertionError("non-square disc with rational bracket root")
        out.append(root)
    out.sort(key=lambda r: r.lo)
    return [], out


def sign_at_root(h: Quad, root: IrrationalRoot) -> int:
    """Exact sign of h at the irrational root of root.quad."""
    A, B, C = h
    gA, gB, gC = root.quad
    # gA*h - A*g = u*a + v is linear, gA*h at the root (gA != 0 there)
    u = B * gA - A * gB
    v = C * gA - A * gC
    if u == 0:
        return (v * gA > 0) - (v * gA < 0)
    return (1 if u * gA > 0 else -1) * root.compare(Fraction(-v, u))


def root_in_union(root: IrrationalRoot, union: IntervalUnion) -> bool:
    for part in union.parts:
        below_hi = (part.hi.inf == 1 or
                    (part.hi.inf == 0 and root.compare(part.hi.q) < 0))
        above_lo = (part.lo.inf == -1 or
                    (part.lo.inf == 0 and root.compare(part.lo.q) > 0))
        if below_hi and above_lo:
            return True
    return False


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    witness: Optional[Fraction] = None
    bracket: Optional[tuple[Fraction, Fraction]] = None


def _proportional(g: Quad, h: Quad) -> bool:
    (a1, b1, c1), (a2, b2, c2) = g, h
    return (a1 * b2 == a2 * b1 and a1 * c2 == a2 * c1 and b1 * c2 == b2 * c1)


def feasible_point(union: IntervalUnion, quads: list[Quad]) -> Feasibility:
    """Exact: is there a real a in the union with g(a) >= 0 for all g?"""
    if union.is_empty():
        return Feasibility(False)
    quads = [integer_quad(g) for g in quads]
    rational_marks: set[Fraction] = set()
    irrational: list[IrrationalRoot] = []
    for g in quads:
        rats, irrs = roots_of(g)
        rational_marks.update(rats)
        irrational.extend(irrs)
    for part in union.parts:
        for end in (part.lo, part.hi):
            if end.inf == 0:
                rational_marks.add(end.q)
    # brackets must not contain rational marks, and brackets of distinct
    # roots must be disjoint; non-proportional quadratics cannot share an
    # irrational root (the shared minimal polynomial would divide both)
    ordered = sorted(rational_marks)
    for i, r in enumerate(irrational):
        for m in ordered:
            r = r.avoid(m)
        irrational[i] = r
    changed = True
    while changed:
        changed = False
        for i in range(len(irrational)):
            for j in range(i + 1, len(irrational)):
                a, b = irrational[i], irrational[j]
                if _proportional(a.quad, b.quad):
                    continue
                if a.hi <= b.lo or b.hi <= a.lo:
                    continue
                irrational[i] = a.refined()
                irrational[j] = b.refined()
                changed = True
    for r in irrational:
        rational_marks.update((r.lo, r.hi))
    marks = sorted(rational_marks)

    # the distinct marks, the midpoints between them, and one below and
    # one above them all, in increasing order
    if not marks:
        candidates = [Fraction(0)]
    else:
        candidates = [qsub(marks[0], _ONE)]
        for lo, hi in zip(marks, marks[1:]):
            candidates += (lo, qmul(qadd(lo, hi), _HALF))
        candidates += (marks[-1], qadd(marks[-1], _ONE))

    for a in candidates:
        if union.contains(ExtRat(a)) and all(sign_at(g, a) >= 0 for g in quads):
            return Feasibility(True, witness=a)
    # only isolated irrational boundary points remain possible
    for root in irrational:
        if not root_in_union(root, union):
            continue
        if all(sign_at_root(g, root) >= 0 for g in quads):
            tight = root.refined(8)
            return Feasibility(True, bracket=(tight.lo, tight.hi))
    return Feasibility(False)
