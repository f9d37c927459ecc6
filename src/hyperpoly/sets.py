"""Canonical exact set representations used by the hyperfield carriers.

Two families live here:

* ``IntervalUnion`` -- finite unions of intervals over the extended rationals
  (finite Fractions plus -inf/+inf sentinels), each endpoint open or closed.
  Used for max-plus and triangle-inequality carriers, and for region inputs.
* ``ArcUnion`` -- finite unions of angular arcs on the unit circle, angles
  measured in units of pi as Fractions reduced modulo 2, plus an optional
  zero element.  Internally an arc set is stored as its set of normalized
  angle coordinates in [0, 2), i.e. an ``IntervalUnion`` whose parts stay
  inside [0, 2] and never contain the coordinate 2 itself (2 == 0 on the
  circle is always expressed at 0).

Canonical form (parts sorted, disjoint, maximal) makes set equality plain
structural equality.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

Rat = Fraction


@dataclass(frozen=True, order=False)
class ExtRat:
    """A rational number, or an infinity used as an element (-inf only) or bound."""

    q: Rat = Fraction(0)
    inf: int = 0  # -1: -infinity, 0: finite, +1: +infinity

    def __post_init__(self):
        if self.inf not in (-1, 0, 1):
            raise ValueError("inf flag must be -1, 0 or 1")
        if self.inf != 0:
            object.__setattr__(self, "q", Fraction(0))
        elif not isinstance(self.q, Fraction):
            object.__setattr__(self, "q", Fraction(self.q))

    @property
    def finite(self) -> bool:
        return self.inf == 0

    def _key(self) -> tuple:
        return (self.inf, self.q)

    def __lt__(self, other: "ExtRat") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "ExtRat") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "ExtRat") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "ExtRat") -> bool:
        return self._key() >= other._key()

    def __add__(self, other: "ExtRat") -> "ExtRat":
        if self.inf == 0 and other.inf == 0:
            return ExtRat(self.q + other.q)
        if -1 in (self.inf, other.inf):
            if 1 in (self.inf, other.inf):
                raise ArithmeticError("cannot add -inf and +inf")
            return NEG_INF
        return POS_INF

    def __neg__(self) -> "ExtRat":
        if self.inf == 0:
            return ExtRat(-self.q)
        return ExtRat(inf=-self.inf)

    def __str__(self) -> str:
        if self.inf == -1:
            return "-inf"
        if self.inf == 1:
            return "+inf"
        return str(self.q)


NEG_INF = ExtRat(inf=-1)
POS_INF = ExtRat(inf=1)


def ext(x) -> ExtRat:
    if isinstance(x, ExtRat):
        return x
    return ExtRat(Fraction(x))


@dataclass(frozen=True)
class Interval:
    """A nonempty interval; degenerate intervals have lo == hi, both closed."""

    lo: ExtRat
    hi: ExtRat
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if self.start_key() > self.end_key():
            raise ValueError(f"empty interval {self}")

    def start_key(self) -> tuple:
        # open starts sort just after the closed start at the same value
        return (self.lo._key(), 0 if self.lo_closed else 1)

    def end_key(self) -> tuple:
        # open ends sort just before the closed end at the same value
        return (self.hi._key(), 0 if self.hi_closed else -1)

    def contains(self, x: ExtRat) -> bool:
        return self.start_key() <= (x._key(), 0) <= self.end_key()

    def is_point(self) -> bool:
        return self.lo == self.hi

    def midpoint(self) -> ExtRat:
        """Some interior-or-member value, preferring simple representatives."""
        if self.is_point():
            return self.lo
        if self.lo.inf == -1:
            if self.hi.inf == 1:
                return ExtRat(Fraction(0))
            return self.hi + ExtRat(Fraction(-1))
        if self.hi.inf == 1:
            return self.lo + ExtRat(Fraction(1))
        return ExtRat((self.lo.q + self.hi.q) / 2)

    def __str__(self) -> str:
        if self.is_point():
            return "{%s}" % self.lo
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo},{self.hi}{right}"


def _make_interval(lo, hi, lo_closed=True, hi_closed=True) -> Optional[Interval]:
    lo, hi = ext(lo), ext(hi)
    probe = Interval.__new__(Interval)
    object.__setattr__(probe, "lo", lo)
    object.__setattr__(probe, "hi", hi)
    object.__setattr__(probe, "lo_closed", lo_closed)
    object.__setattr__(probe, "hi_closed", hi_closed)
    if probe.start_key() > probe.end_key():
        return None
    return probe


def _connected(left: Interval, right: Interval) -> bool:
    """Whether left and right (sorted by start) have connected union."""
    if right.start_key() <= left.end_key():
        return True
    return right.lo == left.hi and (right.lo_closed or left.hi_closed)


@dataclass(frozen=True)
class IntervalUnion:
    parts: tuple[Interval, ...] = ()

    @staticmethod
    def of(intervals: Iterable[Optional[Interval]]) -> "IntervalUnion":
        parts = sorted((i for i in intervals if i is not None),
                       key=lambda i: (i.start_key(), i.end_key()))
        merged: list[Interval] = []
        for part in parts:
            if merged and _connected(merged[-1], part):
                prev = merged[-1]
                if part.end_key() > prev.end_key():
                    merged[-1] = Interval(prev.lo, part.hi, prev.lo_closed,
                                          part.hi_closed)
            else:
                merged.append(part)
        return IntervalUnion(tuple(merged))

    @staticmethod
    def point(x) -> "IntervalUnion":
        x = ext(x)
        return IntervalUnion((Interval(x, x),))

    @staticmethod
    def closed(lo, hi) -> "IntervalUnion":
        return IntervalUnion.of([_make_interval(lo, hi)])

    def is_empty(self) -> bool:
        return not self.parts

    def contains(self, x) -> bool:
        x = ext(x)
        return any(p.contains(x) for p in self.parts)

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        return IntervalUnion.of(self.parts + other.parts)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        out = []
        for a in self.parts:
            for b in other.parts:
                lo, lc = max((a.lo, a.lo_closed), (b.lo, b.lo_closed),
                             key=lambda t: (t[0]._key(), 0 if t[1] else 1))
                hi, hc = min((a.hi, a.hi_closed), (b.hi, b.hi_closed),
                             key=lambda t: (t[0]._key(), 0 if t[1] else -1))
                out.append(_make_interval(lo, hi, lc, hc))
        return IntervalUnion.of(out)

    def complement(self, line_lo: ExtRat = NEG_INF,
                   line_hi: ExtRat = POS_INF) -> "IntervalUnion":
        """Complement within the line segment [line_lo, line_hi)."""
        whole = _make_interval(line_lo, line_hi, True, False)
        if whole is None:
            return IntervalUnion()
        out: list[Optional[Interval]] = []
        cursor_lo, cursor_closed = whole.lo, whole.lo_closed
        for p in self.parts:
            out.append(_make_interval(cursor_lo, p.lo, cursor_closed,
                                      not p.lo_closed))
            cursor_lo, cursor_closed = p.hi, not p.hi_closed
        out.append(_make_interval(cursor_lo, whole.hi, cursor_closed,
                                  whole.hi_closed))
        return IntervalUnion.of(out).intersect(IntervalUnion((whole,)))

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        return self.intersect(other.complement())

    def remove_point(self, x) -> "IntervalUnion":
        x = ext(x)
        out: list[Optional[Interval]] = []
        for p in self.parts:
            if not p.contains(x):
                out.append(p)
                continue
            out.append(_make_interval(p.lo, x, p.lo_closed, False))
            out.append(_make_interval(x, p.hi, False, p.hi_closed))
        return IntervalUnion.of(out)

    def translate(self, c: ExtRat) -> "IntervalUnion":
        """Image under x -> x + c (c finite, or -inf collapsing all to -inf)."""
        if c.inf == -1:
            return IntervalUnion.point(NEG_INF) if self.parts else self
        return IntervalUnion.of(
            Interval(p.lo + c, p.hi + c, p.lo_closed, p.hi_closed)
            for p in self.parts)

    def scale(self, c: Rat) -> "IntervalUnion":
        """Image under x -> c*x for finite rational c > 0."""
        if c <= 0:
            raise ValueError("scale expects a positive rational")
        def s(v: ExtRat) -> ExtRat:
            return v if v.inf else ExtRat(v.q * c)
        return IntervalUnion.of(
            Interval(s(p.lo), s(p.hi), p.lo_closed, p.hi_closed)
            for p in self.parts)

    def max_value(self) -> tuple[ExtRat, bool]:
        """(supremum, attained) of a nonempty union."""
        last = self.parts[-1]
        return last.hi, last.hi_closed

    def sample_values(self) -> list[ExtRat]:
        """Exact members probing every part: closed endpoints and a midpoint."""
        out: list[ExtRat] = []
        for p in self.parts:
            if p.lo_closed:
                out.append(p.lo)
            if p.hi_closed:
                out.append(p.hi)
            out.append(p.midpoint())
        seen, uniq = set(), []
        for v in out:
            if v._key() not in seen:
                seen.add(v._key())
                uniq.append(v)
        return uniq

    def __str__(self) -> str:
        if not self.parts:
            return "{}"
        return "u".join(str(p) for p in self.parts)


def interval_max(a: Interval, b: Interval) -> Interval:
    """{max(x, y) : x in a, y in b} with exact endpoint attainment."""
    if a.lo > b.lo:
        lo, lc = a.lo, a.lo_closed
    elif b.lo > a.lo:
        lo, lc = b.lo, b.lo_closed
    else:
        lo, lc = a.lo, a.lo_closed and b.lo_closed
    if a.hi > b.hi:
        hi, hc = a.hi, a.hi_closed
    elif b.hi > a.hi:
        hi, hc = b.hi, b.hi_closed
    else:
        hi, hc = a.hi, a.hi_closed or b.hi_closed
    return Interval(lo, hi, lc, hc)


def interval_add(a: Interval, b: Interval) -> Interval:
    """Minkowski sum {x + y} over the max-plus carrier (-inf absorbs)."""
    lo = a.lo + b.lo
    hi = a.hi + b.hi
    lo_closed = ((a.lo.inf == -1 and a.lo_closed)
                 or (b.lo.inf == -1 and b.lo_closed)
                 or (a.lo_closed and b.lo_closed))
    if hi.inf == -1:
        hi_closed = True
    elif hi.inf == 1:
        hi_closed = False
    else:
        hi_closed = a.hi_closed and b.hi_closed
    return Interval(lo, hi, lo_closed, hi_closed)


def interval_mul_nonneg(a: Interval, b: Interval) -> Interval:
    """Product set {x*y} for intervals inside the nonnegative rationals."""
    if a.lo.inf or b.lo.inf or a.hi.inf or b.hi.inf:
        raise ValueError("products need bounded nonnegative intervals")
    lo = ExtRat(a.lo.q * b.lo.q)
    hi = ExtRat(a.hi.q * b.hi.q)
    lo_closed = ((a.lo_closed and b.lo_closed)
                 or (a.lo.q == 0 and a.lo_closed)
                 or (b.lo.q == 0 and b.lo_closed))
    hi_closed = a.hi_closed and b.hi_closed
    return Interval(lo, hi, lo_closed, hi_closed)


# --- circle sets -----------------------------------------------------------

def angle_mod(a: Rat) -> Rat:
    return a % 2


def _wrap(lo: Rat, hi: Rat, lo_closed: bool, hi_closed: bool) -> list[Interval]:
    """Normalize an unrolled angle interval onto [0, 2) coordinates.

    The input is read on the universal cover; its image on the circle is
    returned as line parts.  Spans of length >= 2 cover the whole circle
    except possibly the seam point when both ends are open.
    """
    if hi - lo > 2 or (hi - lo == 2 and (lo_closed or hi_closed)):
        return [Interval(ext(0), ext(2), True, False)]
    if hi - lo == 2:  # circle minus the single point lo (mod 2)
        s = angle_mod(lo)
        if s == 0:
            return [_make_interval(0, 2, False, False)]
        return [_make_interval(0, s, True, False), _make_interval(s, 2, False, False)]
    shift = lo - angle_mod(lo)
    lo, hi = lo - shift, hi - shift
    if hi < 2 or (hi == 2 and not hi_closed):
        return [i for i in (_make_interval(lo, hi, lo_closed, hi_closed),) if i]
    out = [_make_interval(lo, 2, lo_closed, False)]
    rest = hi - 2
    if rest > 0 or hi_closed:
        out.append(_make_interval(0, rest, True, hi_closed))
    return [i for i in out if i is not None]


_FULL_PARTS = IntervalUnion((Interval(ext(0), ext(2), True, False),))


@dataclass(frozen=True)
class ArcUnion:
    """A subset of the circle, plus the optional zero element of the carrier."""

    parts: IntervalUnion = IntervalUnion()
    has_zero: bool = False

    @staticmethod
    def zero_only() -> "ArcUnion":
        return ArcUnion(IntervalUnion(), True)

    @staticmethod
    def point(angle: Rat, has_zero: bool = False) -> "ArcUnion":
        return ArcUnion(IntervalUnion.point(angle_mod(angle)), has_zero)

    @staticmethod
    def full_circle(has_zero: bool = False) -> "ArcUnion":
        return ArcUnion(_FULL_PARTS, has_zero)

    @staticmethod
    def arc(lo: Rat, hi: Rat, lo_closed: bool, hi_closed: bool,
            has_zero: bool = False) -> "ArcUnion":
        """Arc from angle lo counterclockwise to hi on the universal cover."""
        return ArcUnion(IntervalUnion.of(_wrap(lo, hi, lo_closed, hi_closed)),
                        has_zero)

    def is_full_circle(self) -> bool:
        return self.parts == _FULL_PARTS

    def is_empty(self) -> bool:
        return not self.has_zero and self.parts.is_empty()

    def contains_angle(self, a: Rat) -> bool:
        return self.parts.contains(angle_mod(a))

    def union(self, other: "ArcUnion") -> "ArcUnion":
        return ArcUnion(self.parts.union(other.parts),
                        self.has_zero or other.has_zero)

    def intersect(self, other: "ArcUnion") -> "ArcUnion":
        return ArcUnion(self.parts.intersect(other.parts),
                        self.has_zero and other.has_zero)

    def difference(self, other: "ArcUnion") -> "ArcUnion":
        gaps = other.parts.complement(ExtRat(Fraction(0)), ExtRat(Fraction(2)))
        return ArcUnion(self.parts.intersect(gaps),
                        self.has_zero and not other.has_zero)

    def rotate(self, phi: Rat) -> "ArcUnion":
        """Image of the angle part under multiplication by the phase phi."""
        out: list[Interval] = []
        for p in self.parts.parts:
            out.extend(_wrap(p.lo.q + phi, p.hi.q + phi, p.lo_closed, p.hi_closed))
        return ArcUnion(IntervalUnion.of(out), self.has_zero)

    def antipode(self) -> "ArcUnion":
        return self.rotate(Fraction(1))

    def without_zero(self) -> "ArcUnion":
        return ArcUnion(self.parts, False)

    def angles_sample(self) -> list[Rat]:
        return [v.q for v in self.parts.sample_values()]

    def __str__(self) -> str:
        bits = []
        if self.is_full_circle():
            bits.append("circle")
        else:
            for p in self.parts.parts:
                if p.is_point():
                    bits.append("{ph(%s)}" % p.lo.q)
                else:
                    left = "[" if p.lo_closed else "("
                    right = "]" if p.hi_closed else ")"
                    bits.append(f"{left}ph({p.lo.q}),ph({p.hi.q}){right}")
        if self.has_zero:
            bits.append("{0}")
        if not bits:
            return "{}"
        return "u".join(bits)


def minor_arc(x: Rat, y: Rat) -> ArcUnion:
    """The open arc strictly between non-antipodal distinct phases x and y."""
    x, y = angle_mod(x), angle_mod(y)
    d = angle_mod(y - x)
    if d == 0 or d == 1:
        raise ValueError("minor_arc needs distinct, non-antipodal phases")
    if d < 1:
        return ArcUnion.arc(x, x + d, False, False)
    return ArcUnion.arc(y, y + (2 - d), False, False)


def arcs_minkowski(a: ArcUnion, b: ArcUnion) -> IntervalUnion:
    """Angle part of the elementwise product of two circle sets."""
    out: list[Interval] = []
    for p in a.parts.parts:
        for q in b.parts.parts:
            lo = p.lo.q + q.lo.q
            hi = p.hi.q + q.hi.q
            out.extend(_wrap(lo, hi, p.lo_closed and q.lo_closed,
                             p.hi_closed and q.hi_closed))
    return IntervalUnion.of(out)
