"""Roots, quotient sets, and multiplicities.

a is a root of p when 0 is in p(a), equivalently when p lies in the
hyperproduct (T-a) (x) q for some q; the quotients q are exactly the
solutions of the reversed coefficient chain c0 = -a*d0, c_i in
-a*d_i (+) d_{i-1}, c_n = d_{n-1}.  Multiplicity is 1 plus the best
multiplicity among quotients, recursively; over T, S and K it has a
closed form (Baker & Lorscheid, arXiv:1811.04966), which mult_at reads.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

from .carriers import (CarrierSet, Element, FiniteSet, Hyperfield,
                       IntervalSet, TropicalHyperfield, UndecidedError,
                       ViroHyperfield)
from .polyalg import (Polynomial, _chain_walk, chain_representatives,
                      in_product, solve_linear_chain)
from .realroots import Quad, feasible_point
from .sets import ExtRat, Interval, IntervalUnion, POS_INF

Region = Union[Sequence[Element], CarrierSet]


def linear_for_root(hf: Hyperfield, a: Element) -> Polynomial:
    """T - a as a polynomial (coefficients (-a, 1))."""
    return Polynomial(hf, (hf.neg(a), hf.one()))


def is_root(p: Polynomial, a: Element) -> bool:
    return p.eval(a).contains(p.hf.zero())


@dataclass(frozen=True)
class QuotientSet:
    """All q with p in (T-a) (x) q, as arc-consistent per-coefficient
    domains along the constraint chain plus concrete representatives."""

    poly: Polynomial
    root: Element
    domains: Optional[tuple[CarrierSet, ...]]
    representatives: tuple[Polynomial, ...]
    exact: bool  # representatives are the complete quotient set

    def is_empty(self) -> bool:
        return self.domains is None

    def contains(self, q: Polynomial) -> bool:
        ell = linear_for_root(self.poly.hf, self.root)
        return in_product(self.poly, ell, q)

    def describe(self) -> str:
        if self.is_empty():
            return "no quotients"
        hf = self.poly.hf
        doms = "; ".join(f"d{i} in {d}" for i, d in enumerate(self.domains))
        reps = ", ".join(str(q) for q in self.representatives)
        tag = "exactly" if self.exact else "including"
        return f"{doms} | {tag}: {reps}"


def quotients(p: Polynomial, a: Element) -> QuotientSet:
    hf = p.hf
    if p.degree == 0:
        return QuotientSet(p, a, None, (), True)
    ell = linear_for_root(hf, a)
    cells = [hf.full_set() for _ in range(p.degree)]
    cells[-1] = hf.remove_zero(cells[-1])
    domains, _steps = solve_linear_chain(p, ell, cells)
    if domains is None:
        return QuotientSet(p, a, None, (), True)
    if hf.is_finite():
        reps = sorted(_chain_walk(p, ell, domains, hf.sample_elements),
                      key=Polynomial.sort_key)
        exact = True
    else:
        reps = chain_representatives(p, ell, domains)
        exact = all(d.is_singleton() for d in domains)
    for q in reps:
        if not in_product(p, ell, q):
            raise AssertionError(
                f"quotient {q} of {p} at {a}: p is not in (T-a)*q")
    return QuotientSet(p, a, tuple(domains), tuple(reps), exact)


def mult_at(p: Polynomial, a: Element) -> int:
    """Multiplicity of the root a in p, 0 when a is not a root.

    Exact by theorem over T, S and K, where no quotient is taken: over T
    it is the width of the Newton-polygon edge of slope -a (at -inf, the
    number of low -inf coefficients); over S the sign changes of the
    coefficients of p(aT) for a = +-1, and the lowest nonzero index at
    0; over K ord p at 0 and deg p - ord p at 1.  On every other finite
    carrier it is mult_by_quotients, exact because the quotients are
    enumerated exhaustively.  Over V and P it is mult_by_quotients over
    sampled quotient representatives, a lower bound."""
    hf = p.hf
    hf.check(a)
    if isinstance(hf, TropicalHyperfield):
        return dict(_newton_roots(p)).get(a, 0)
    if hf.name not in ("S", "K"):
        return mult_by_quotients(p, [a])
    cs = [c.payload for c in p.coeffs]
    order = next(i for i, c in enumerate(cs) if c)
    if a.payload == 0:
        return order
    if hf.name == "K":
        # with c0 != 0 the all-ones q of degree n-1 is a quotient of p by
        # T+1 = T-1, so mult_1 p >= n by induction, and a factor T^order
        # shifts every quotient by T^order
        return p.degree - order
    signs = [c * a.payload ** i for i, c in enumerate(cs) if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def mult_by_quotients(p: Polynomial, elems: list[Element]) -> int:
    """The quotient recursion: 0 when no a in elems is a root of p, else 1
    plus the best mult_by_quotients(q, elems) over the roots a in elems
    and the quotients q of p by T-a.  Exact on finite carriers and
    whenever every chain domain is a singleton; otherwise a lower bound
    over sampled representatives (domain endpoints and midpoints)."""
    return _mult_known(p, elems, {})


def mult_set(p: Polynomial, region: Region) -> int:
    """Multiplicity of p over a set of root candidates: 0 when no a in the
    region is a root, else 1 + max of mult_set(q, region) over all roots
    a in the region and quotients q."""
    hf = p.hf
    if p.degree == 0:
        return 0  # a nonzero constant has no root
    if isinstance(region, FiniteSet):
        return mult_by_quotients(p, hf.sample_elements(region))
    if not isinstance(region, CarrierSet):
        return mult_by_quotients(p, list(region))
    if isinstance(hf, ViroHyperfield):
        return _mult_viro_region(p, region)
    if isinstance(hf, TropicalHyperfield):
        roots = tropical_root_points(p)
        inside = [a for a in roots if region.contains(a)]
        return mult_by_quotients(p, inside) if inside else 0
    raise UndecidedError(
        f"continuous root regions over {hf.name} are out of scope")


def _mult_known(p: Polynomial, elems: list[Element], known: dict) -> int:
    """p's multiplicity, read from known if this call has divided p."""
    if p not in known:
        known[p] = 0
        for a in elems:
            if not is_root(p, a):
                continue
            qs = quotients(p, a)
            if qs.is_empty():
                raise AssertionError("root with empty quotient set")
            sub = max((_mult_known(q, elems, known)
                       for q in qs.representatives), default=0)
            known[p] = max(known[p], 1 + sub)
    return known[p]


# ---------------------------------------------------------------------------
# tropical root points: the evaluation map is a max of finitely many affine
# terms c_i + i*a, which tie exactly at the negated slopes of the edges of
# the upper concave hull of the points (i, c_i) (the Newton polygon)


def _newton_roots(p: Polynomial) -> list[tuple[Element, int]]:
    """(root, multiplicity) pairs of a tropical polynomial: -inf counted
    once per low -inf coefficient, then one pair per hull edge, the root
    being the negated edge slope and the multiplicity the edge width, in
    ascending root order."""
    hf = p.hf
    shift = 0
    while hf.is_zero(p.coeff(shift)):
        shift += 1
    out = [(hf.zero(), shift)] if shift else []
    qs = [(i, c.payload.q) for i, c in enumerate(p.coeffs)
          if not hf.is_zero(c)]
    den = lcm(*(q.denominator for _, q in qs))  # the hull on integers
    hull = _upper_hull([(i, q.numerator * (den // q.denominator))
                        for i, q in qs])
    for (i1, c1), (i2, c2) in zip(hull, hull[1:]):
        out.append((hf.element(Fraction(c1 - c2, (i2 - i1) * den)), i2 - i1))
    return out


def tropical_root_points(p: Polynomial) -> list[Element]:
    return [a for a, _ in _newton_roots(p)]


def _upper_hull(pts: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Vertices of the upper concave hull of points sorted by x; collinear
    points are dropped, so consecutive edge slopes strictly decrease."""
    hull: list[tuple[int, int]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) <= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


# ---------------------------------------------------------------------------
# Viro regions: root feasibility for degree <= 2 reduces to quadratic
# inequalities with rational coefficients, decided exactly


def _viro_root_quads(p: Polynomial) -> list[Quad]:
    """0 in p(a) for quadratic p over V means |c2 a^2 - c1 a| <= c0 and
    c2 a^2 + c1 a >= c0."""
    c0 = p.coeff(0).payload.q
    c1 = p.coeff(1).payload.q
    c2 = p.coeff(2).payload.q
    return [(-c2, c1, c0), (c2, -c1, c0), (c2, c1, -c0)]


def _invert_through(k: Fraction, union: IntervalUnion) -> IntervalUnion:
    """{a > 0 : k/a in union} for k > 0; the map is a decreasing bijection
    of (0, inf) so interval endpoints swap and flags follow them."""
    parts = []
    for part in union.parts:
        if part.hi.inf == 0 and part.hi.q <= 0:
            continue  # no positive values reachable
        lo_v, lo_closed = part.lo, part.lo_closed
        if lo_v.inf == 0 and lo_v.q < 0:
            lo_v, lo_closed = ExtRat(Fraction(0)), False
        # image of [lo_v, hi] under a -> k/a
        if part.hi.inf == 1:
            new_lo, new_lo_closed = ExtRat(Fraction(0)), False
        else:
            new_lo, new_lo_closed = ExtRat(k / part.hi.q), part.hi_closed
        if lo_v.inf == 0 and lo_v.q > 0:
            new_hi, new_hi_closed = ExtRat(k / lo_v.q), lo_closed
        else:
            new_hi, new_hi_closed = POS_INF, False
        part_out = Interval(new_lo, new_hi, new_lo_closed, new_hi_closed) \
            if (new_lo < new_hi or (new_lo == new_hi and new_lo_closed
                                    and new_hi_closed)) else None
        if part_out is not None:
            parts.append(part_out)
    return IntervalUnion.of(parts)


def _mult_viro_region(p: Polynomial, region: IntervalSet) -> int:
    hf = p.hf
    S = region.intervals
    if p.degree == 1:
        b = hf.mul(p.coeff(0), hf.inv(p.coeff(1)))
        return 1 if region.contains(b) else 0
    if p.degree != 2:
        raise UndecidedError(
            "V regions are decided exactly only up to degree 2")
    c0 = p.coeff(0).payload.q
    c1 = p.coeff(1).payload.q
    c2 = p.coeff(2).payload.q
    if c0 == 0:
        # roots are exactly 0 and c1/c2: a finite set
        roots = [hf.zero()]
        if c1 != 0:
            roots.append(hf.element(Fraction(c1, c2)))
        inside = [a for a in roots if region.contains(a)]
        return mult_by_quotients(p, inside) if inside else 0
    quads = _viro_root_quads(p)
    positive = IntervalUnion((Interval(ExtRat(Fraction(0)), POS_INF,
                                       False, False),))
    root_region = S.intersect(positive)
    if not feasible_point(root_region, quads).feasible:
        return 0
    # multiplicity 2 needs a root a in S whose unique quotient c2*T + c0/a
    # has its root c0/(c2*a) in S as well
    k = c0 / c2
    s_prime = _invert_through(k, S)
    two_region = root_region.intersect(s_prime)
    if feasible_point(two_region, quads).feasible:
        return 2
    return 1
