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
structural equality.  ``IntervalUnion.of`` sorts and merges any parts into
that form.  ``intersect``, ``translate`` by a finite c and ``scale`` build
their parts directly instead: their inputs are canonical and their maps
keep order, so the parts come out sorted, disjoint and maximal.  The
endpoint rules of the carriers' set operations live here too:
``interval_*`` for T and V, the arc functions for P.

All four types are immutable ``__slots__`` values whose equality and hash
are those of their field tuples, as for frozen dataclasses.  Finite
endpoints compare by cross-multiplying the integer numerators and
denominators of their Fractions, never through Fraction's generic
comparison.  The arithmetic on hot paths (sums, differences and products
of endpoints, angles mod 2) also runs on those integer pairs and builds
the reduced result Fraction directly from its two integer slots, and a
finite result ExtRat from that Fraction, both without re-checking.  An
ExtRat, and an angle given to the arc functions, is not read from a
float, whose binary expansion is seldom the rational that was meant.
"""
from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional

Rat = Fraction

_new = object.__new__


def _frac(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime n and d > 0, built without re-reducing."""
    f = _new(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def _ratio(n: int, d: int) -> Fraction:
    """The Fraction n/d for any n and d > 0."""
    g = gcd(n, d)
    return _frac(n // g, d // g)


def qadd(x: Fraction, y: Fraction) -> Fraction:
    xd, yd = x._denominator, y._denominator
    return _ratio(x._numerator * yd + y._numerator * xd, xd * yd)


def qsub(x: Fraction, y: Fraction) -> Fraction:
    xd, yd = x._denominator, y._denominator
    return _ratio(x._numerator * yd - y._numerator * xd, xd * yd)


def qmul(x: Fraction, y: Fraction) -> Fraction:
    return _ratio(x._numerator * y._numerator, x._denominator * y._denominator)


_ZERO = Fraction(0)


class _Value:
    """Base of the immutable slot value types.  Each field is set once,
    through its slot descriptor, when the value is built.  Equality, hash
    and repr are those of a frozen dataclass over the same fields:
    ``_fields()`` gives the field tuple, in ``__slots__`` order."""

    __slots__ = ()

    def _fields(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


class ExtRat(_Value):
    """A rational number, or an infinity used as an element (-inf only) or bound.

    ``q`` is a Fraction (0 for the infinities) and ``inf`` is -1 (-infinity),
    0 (finite) or +1 (+infinity)."""

    __slots__ = ("q", "inf")

    def __init__(self, q: Rat = _ZERO, inf: int = 0):
        if inf:
            if inf not in (-1, 1):
                raise ValueError("inf flag must be -1, 0 or 1")
            q = _ZERO
        elif type(q) is not Fraction:
            if isinstance(q, float):
                raise ValueError(f"an extended rational is exact, not the "
                                 f"float {q!r}")
            q = Fraction(q)
        _set_q(self, q)
        _set_inf(self, inf)

    @property
    def finite(self) -> bool:
        return self.inf == 0

    def _fields(self) -> tuple:
        return (self.q, self.inf)

    def __eq__(self, other) -> bool:
        if other.__class__ is not ExtRat:
            return NotImplemented
        x, y = self.q, other.q
        return (self.inf == other.inf and x._numerator == y._numerator
                and x._denominator == y._denominator)

    def __hash__(self) -> int:
        # hash((q, inf)); an integral Fraction hashes as its numerator
        q = self.q
        return hash((q._numerator if q._denominator == 1 else q, self.inf))

    def __lt__(self, other: "ExtRat") -> bool:
        return _cmp(self, other) < 0

    def __le__(self, other: "ExtRat") -> bool:
        return _cmp(self, other) <= 0

    def __gt__(self, other: "ExtRat") -> bool:
        return _cmp(self, other) > 0

    def __ge__(self, other: "ExtRat") -> bool:
        return _cmp(self, other) >= 0

    def __add__(self, other: "ExtRat") -> "ExtRat":
        if self.inf == 0 and other.inf == 0:
            return _ext(qadd(self.q, other.q))
        if -1 in (self.inf, other.inf):
            if 1 in (self.inf, other.inf):
                raise ArithmeticError("cannot add -inf and +inf")
            return NEG_INF
        return POS_INF

    def __neg__(self) -> "ExtRat":
        if self.inf == 0:
            return _ext(_frac(-self.q._numerator, self.q._denominator))
        return ExtRat(inf=-self.inf)

    def __str__(self) -> str:
        if self.inf == -1:
            return "-inf"
        if self.inf == 1:
            return "+inf"
        return str(self.q)


_set_q = ExtRat.q.__set__
_set_inf = ExtRat.inf.__set__


def _ext(q: Fraction) -> ExtRat:
    """The finite ExtRat of the reduced Fraction q, built without checks."""
    e = _new(ExtRat)
    _set_q(e, q)
    _set_inf(e, 0)
    return e


def _cmp(a: ExtRat, b: ExtRat) -> int:
    """Negative, zero or positive as a < b, a == b or a > b."""
    if a.inf or b.inf:
        return a.inf - b.inf
    x, y = a.q, b.q
    return x._numerator * y._denominator - y._numerator * x._denominator


NEG_INF = ExtRat(inf=-1)
POS_INF = ExtRat(inf=1)
EXT_ZERO = ExtRat(_ZERO)
_E2 = ExtRat(Fraction(2))


def ext(x) -> ExtRat:
    if type(x) is ExtRat:
        return x
    return ExtRat(x)


def _is_empty(lo: ExtRat, hi: ExtRat, lo_closed: bool,
              hi_closed: bool) -> bool:
    c = _cmp(lo, hi)
    return c > 0 or (c == 0 and not (lo_closed and hi_closed))


class Interval(_Value):
    """A nonempty interval; degenerate intervals have lo == hi, both closed."""

    __slots__ = ("lo", "hi", "lo_closed", "hi_closed")

    def __init__(self, lo: ExtRat, hi: ExtRat, lo_closed: bool = True,
                 hi_closed: bool = True):
        _set_lo(self, lo)
        _set_hi(self, hi)
        _set_lo_closed(self, lo_closed)
        _set_hi_closed(self, hi_closed)
        if _is_empty(lo, hi, lo_closed, hi_closed):
            raise ValueError(f"empty interval {self}")

    def _fields(self) -> tuple:
        return (self.lo, self.hi, self.lo_closed, self.hi_closed)

    def contains(self, x: ExtRat) -> bool:
        c = _cmp(self.lo, x)
        if c > 0 or (c == 0 and not self.lo_closed):
            return False
        c = _cmp(x, self.hi)
        return c < 0 or (c == 0 and self.hi_closed)

    def is_point(self) -> bool:
        return self.lo == self.hi

    def midpoint(self) -> ExtRat:
        """Some interior-or-member value, preferring simple representatives."""
        if self.is_point():
            return self.lo
        if self.lo.inf == -1:
            if self.hi.inf == 1:
                return EXT_ZERO
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


_set_lo = Interval.lo.__set__
_set_hi = Interval.hi.__set__
_set_lo_closed = Interval.lo_closed.__set__
_set_hi_closed = Interval.hi_closed.__set__


def _interval(lo: ExtRat, hi: ExtRat, lo_closed: bool,
              hi_closed: bool) -> Interval:
    """An Interval whose endpoints are known to bound a nonempty set."""
    i = _new(Interval)
    _set_lo(i, lo)
    _set_hi(i, hi)
    _set_lo_closed(i, lo_closed)
    _set_hi_closed(i, hi_closed)
    return i


def _make_interval(lo, hi, lo_closed=True, hi_closed=True) -> Optional[Interval]:
    lo, hi = ext(lo), ext(hi)
    if _is_empty(lo, hi, lo_closed, hi_closed):
        return None
    return _interval(lo, hi, lo_closed, hi_closed)


def _sort_key(i: Interval) -> tuple:
    return (i.lo, 0 if i.lo_closed else 1, i.hi, 0 if i.hi_closed else -1)


def _later_start(a: Interval, b: Interval) -> tuple[ExtRat, bool]:
    """(value, closed) of the start of a or b that sorts later, a on a tie;
    an open start sorts just after the closed start at the same value."""
    c = _cmp(b.lo, a.lo)
    if c > 0 or (c == 0 and a.lo_closed and not b.lo_closed):
        return b.lo, b.lo_closed
    return a.lo, a.lo_closed


def _earlier_end(a: Interval, b: Interval) -> tuple[ExtRat, bool]:
    """(value, closed) of the end of a or b that sorts earlier, a on a tie;
    an open end sorts just before the closed end at the same value."""
    c = _cmp(b.hi, a.hi)
    if c < 0 or (c == 0 and a.hi_closed and not b.hi_closed):
        return b.hi, b.hi_closed
    return a.hi, a.hi_closed


class IntervalUnion(_Value):
    """Sorted, disjoint, maximal parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[Interval, ...] = ()):
        _set_parts(self, parts)

    def _fields(self) -> tuple:
        return (self.parts,)

    @staticmethod
    def of(intervals: Iterable[Optional[Interval]]) -> "IntervalUnion":
        parts = [i for i in intervals if i is not None]
        if len(parts) < 2:
            return IntervalUnion(tuple(parts))
        parts.sort(key=_sort_key)
        merged: list[Interval] = []
        for part in parts:
            if merged:
                prev = merged[-1]
                # connected: part starts before prev ends, or they touch at a
                # value that one of them holds
                c = _cmp(part.lo, prev.hi)
                if c < 0 or (c == 0 and (part.lo_closed or prev.hi_closed)):
                    c = _cmp(part.hi, prev.hi)
                    if c > 0 or (c == 0 and part.hi_closed
                                 and not prev.hi_closed):
                        merged[-1] = _interval(prev.lo, part.hi,
                                               prev.lo_closed, part.hi_closed)
                    continue
            merged.append(part)
        return IntervalUnion(tuple(merged))

    @staticmethod
    def point(x) -> "IntervalUnion":
        x = ext(x)
        return IntervalUnion((_interval(x, x, True, True),))

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
        """The meets of the part pairs, in the order of the pairs: both
        unions are canonical, so the meets are sorted, disjoint and
        maximal, and need no pass through ``of``."""
        out = []
        for a in self.parts:
            for b in other.parts:
                lo, lc = _later_start(a, b)
                hi, hc = _earlier_end(a, b)
                if not _is_empty(lo, hi, lc, hc):
                    out.append(_interval(lo, hi, lc, hc))
        return IntervalUnion(tuple(out))

    def complement(self) -> "IntervalUnion":
        """Complement within the line [-inf, +inf): the gaps between parts."""
        out: list[Optional[Interval]] = []
        cursor_lo, cursor_closed = NEG_INF, True
        for p in self.parts:
            out.append(_make_interval(cursor_lo, p.lo, cursor_closed,
                                      not p.lo_closed))
            cursor_lo, cursor_closed = p.hi, not p.hi_closed
        out.append(_make_interval(cursor_lo, POS_INF, cursor_closed, False))
        return IntervalUnion.of(out)

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
        """Image under x -> x + c (c finite, or -inf collapsing all to -inf).
        A finite c keeps order, so the images of the parts are canonical."""
        if c.inf == -1:
            return IntervalUnion.point(NEG_INF) if self.parts else self
        return IntervalUnion(tuple([
            _interval(p.lo + c, p.hi + c, p.lo_closed, p.hi_closed)
            for p in self.parts]))

    def scale(self, c: Rat) -> "IntervalUnion":
        """Image under x -> c*x for finite rational c > 0, which keeps
        order, so the images of the parts are canonical."""
        if type(c) is not Fraction:
            c = ext(c).q
        if c._numerator <= 0:
            raise ValueError("scale expects a positive rational")
        def s(v: ExtRat) -> ExtRat:
            return v if v.inf else _ext(qmul(v.q, c))
        return IntervalUnion(tuple([
            _interval(s(p.lo), s(p.hi), p.lo_closed, p.hi_closed)
            for p in self.parts]))

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
            if v not in seen:
                seen.add(v)
                uniq.append(v)
        return uniq

    def __str__(self) -> str:
        if not self.parts:
            return "{}"
        return "u".join(str(p) for p in self.parts)


_set_parts = IntervalUnion.parts.__set__


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
    lo = _ext(qmul(a.lo.q, b.lo.q))
    hi = _ext(qmul(a.hi.q, b.hi.q))
    lo_closed = ((a.lo_closed and b.lo_closed)
                 or (a.lo.q == 0 and a.lo_closed)
                 or (b.lo.q == 0 and b.lo_closed))
    hi_closed = a.hi_closed and b.hi_closed
    return Interval(lo, hi, lo_closed, hi_closed)


def interval_triangle(a: Interval, b: Interval) -> Interval:
    """{z : |x - y| <= z <= x + y, x in a, y in b} for intervals inside
    the nonnegative rationals: the triangle carrier's sum of a and b."""
    (meet_lo, lo_closed), (meet_hi, hi_closed) = \
        _later_start(a, b), _earlier_end(a, b)
    if not _is_empty(meet_lo, meet_hi, lo_closed, hi_closed):
        lo, lo_closed = EXT_ZERO, True  # a and b overlap
    else:  # the gap from the lower interval's end to the other's start
        low, high = (a, b) if a.hi <= b.lo else (b, a)
        gap = qsub(high.lo.q, low.hi.q)
        lo = ExtRat(gap)
        lo_closed = gap > 0 and high.lo_closed and low.hi_closed
    hi = a.hi + b.hi
    hi_closed = a.hi_closed and b.hi_closed and hi.inf == 0
    return Interval(lo, hi, lo_closed, hi_closed)


# --- circle sets -----------------------------------------------------------

def angle_mod(a: Rat) -> Fraction:
    """The angle a (an int or Fraction, in units of pi) reduced to [0, 2)."""
    if type(a) is not Fraction:
        a = ExtRat(a).q  # refuses a float
    d = a._denominator
    return _frac(a._numerator % (2 * d), d)


def _wrap(lo: Rat, hi: Rat, lo_closed: bool, hi_closed: bool) -> list[Interval]:
    """Normalize an unrolled angle interval onto [0, 2) coordinates.

    The input is read on the universal cover; its image on the circle is
    returned as line parts.  Spans of length >= 2 cover the whole circle
    except possibly the seam point when both ends are open.  The angles are
    handled as integer numerator/denominator pairs.
    """
    if type(lo) is not Fraction:
        lo = ExtRat(lo).q  # refuses a float
    if type(hi) is not Fraction:
        hi = ExtRat(hi).q
    ln, ld = lo._numerator, lo._denominator
    hn, hd = hi._numerator, hi._denominator
    span = hn * ld - ln * hd - 2 * ld * hd  # sign of (hi - lo) - 2
    if span > 0 or (span == 0 and (lo_closed or hi_closed)):
        return [_interval(EXT_ZERO, _E2, True, False)]
    # shift both ends down by the even integer 2k with lo - 2k in [0, 2)
    k = ln // (2 * ld)
    ln -= 2 * k * ld
    hn -= 2 * k * hd
    lo_e = _ext(_frac(ln, ld))
    if span == 0:  # circle minus the single point lo (mod 2)
        if ln == 0:
            return [_interval(EXT_ZERO, _E2, False, False)]
        return [_interval(EXT_ZERO, lo_e, True, False),
                _interval(lo_e, _E2, False, False)]
    over = hn - 2 * hd  # sign of hi - 2, after the shift
    if over < 0 or (over == 0 and not hi_closed):
        hi_e = _ext(_frac(hn, hd))
        if _is_empty(lo_e, hi_e, lo_closed, hi_closed):
            return []
        return [_interval(lo_e, hi_e, lo_closed, hi_closed)]
    out = [_interval(lo_e, _E2, lo_closed, False)]
    if over > 0 or hi_closed:
        out.append(_interval(EXT_ZERO, _ext(_frac(over, hd)), True, hi_closed))
    return out


_FULL_PARTS = IntervalUnion((Interval(EXT_ZERO, _E2, True, False),))


class ArcUnion(_Value):
    """A subset of the circle, plus the optional zero element of the carrier."""

    __slots__ = ("parts", "has_zero")

    def __init__(self, parts: IntervalUnion = IntervalUnion(),
                 has_zero: bool = False):
        _set_arc_parts(self, parts)
        _set_has_zero(self, has_zero)

    def _fields(self) -> tuple:
        return (self.parts, self.has_zero)

    @staticmethod
    def zero_only() -> "ArcUnion":
        return ArcUnion(IntervalUnion(), True)

    @staticmethod
    def point(angle: Rat) -> "ArcUnion":
        return ArcUnion(IntervalUnion.point(angle_mod(angle)))

    @staticmethod
    def full_circle() -> "ArcUnion":
        return ArcUnion(_FULL_PARTS)

    @staticmethod
    def arc(lo: Rat, hi: Rat, lo_closed: bool, hi_closed: bool) -> "ArcUnion":
        """Arc from angle lo counterclockwise to hi on the universal cover."""
        return ArcUnion(IntervalUnion.of(_wrap(lo, hi, lo_closed, hi_closed)))

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
        return ArcUnion(self.parts.difference(other.parts),
                        self.has_zero and not other.has_zero)

    def rotate(self, phi: Rat) -> "ArcUnion":
        """Image of the angle part under multiplication by the phase phi."""
        if type(phi) is not Fraction:
            phi = ExtRat(phi).q  # refuses a float
        out: list[Interval] = []
        for p in self.parts.parts:
            out.extend(_wrap(qadd(p.lo.q, phi), qadd(p.hi.q, phi),
                             p.lo_closed, p.hi_closed))
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


_set_arc_parts = ArcUnion.parts.__set__
_set_has_zero = ArcUnion.has_zero.__set__


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
            lo = qadd(p.lo.q, q.lo.q)
            hi = qadd(p.hi.q, q.hi.q)
            out.extend(_wrap(lo, hi, p.lo_closed and q.lo_closed,
                             p.hi_closed and q.hi_closed))
    return IntervalUnion.of(out)


def minor_arcs(p: Interval, q: Interval) -> list[Interval]:
    """The angle parts of the union of the open minor arcs between x in p
    and y in q, over the pairs that are neither equal nor antipodal.

    The angles a, b (of p) and c, d (of q) are handled as integers over
    their common denominator."""
    ends = (p.lo.q, p.hi.q, q.lo.q, q.hi.q)
    den = lcm(*(e._denominator for e in ends))
    a, b, c, d = (e._numerator * (den // e._denominator) for e in ends)
    s_lo, s_hi = c - b, d - a
    out: list[Interval] = []
    for k in range(s_lo // den - 1, -(-s_hi // den) + 2):
        if not (s_hi > k * den and s_lo < (k + 1) * den):
            continue
        if k % 2 == 0:
            start = max(a, c - (k + 1) * den) + k * den
            end = min(d, b + (k + 1) * den)
        else:
            start = max(c, a + k * den)
            end = min(b, d - k * den) + (k + 1) * den
        out.extend(_wrap(_ratio(start, den), _ratio(end, den), False, False))
    return out
