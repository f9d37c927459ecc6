"""Hyperfield carriers: elements, canonical subsets, and the operation table.

A hyperfield is a field-like structure whose addition is set valued: x (+) y
is a nonempty subset of the carrier.  Multiplication stays single valued.
Every carrier here is exact: finite symbol tables, rationals extended with
-inf (max-plus), nonnegative rationals (triangle), or rational angles in
units of pi (circle phases).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from operator import attrgetter, itemgetter, or_
from typing import Iterable, Optional, Sequence, Union

from .sets import (EXT_ZERO, NEG_INF, POS_INF, ArcUnion, ExtRat, Interval,
                   IntervalUnion, angle_mod, arcs_minkowski, interval_add,
                   interval_max, interval_mul_nonneg, interval_triangle,
                   minor_arc, minor_arcs, qadd, qinv, qmul, qsub)

Payload = Union[int, str, ExtRat, Fraction, None]


class UndecidedError(Exception):
    """Raised when a question is outside the implemented decision scope.

    Callers that reach this are expected to surface an explicit "undecided"
    status rather than guess."""


class Element(tuple):
    """One value of a hyperfield carrier, tagged with the carrier name: the
    immutable pair (carrier, payload), so it hashes and compares as that
    tuple does, in C."""

    __slots__ = ()
    _fields = ("carrier", "payload")  # dataclasses.asdict rebuilds it by these

    def __new__(cls, carrier: str, payload: Payload) -> "Element":
        return tuple.__new__(cls, (carrier, payload))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    carrier = property(itemgetter(0), doc="The carrier name.")
    payload = property(itemgetter(1), doc="The value within the carrier.")

    def __repr__(self) -> str:
        return f"Element(carrier={self[0]!r}, payload={self[1]!r})"

    def __str__(self) -> str:
        return format_payload(self[1])


class _Interned(dict):
    """key -> the one value make(key), made on first lookup."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        x = self[key] = self.make(key)
        return x


def format_payload(payload: Payload) -> str:
    if payload is None:
        return "0"
    if isinstance(payload, ExtRat):
        return str(payload)
    if isinstance(payload, Fraction) :
        return f"ph({payload})"
    return str(payload)


@dataclass(frozen=True)
class CarrierSet:
    """A canonical subset of one carrier.  Each subclass is one shape of
    subset: FiniteSet, IntervalSet or ArcSet."""

    carrier: str

    def includes(self, other: "CarrierSet") -> bool:
        return self.intersect(other) == other

    def the_element(self) -> Element:
        if not self.is_singleton():
            raise ValueError(f"not a singleton: {self}")
        return Element(self.carrier, self._sole_payload())

    def _check(self, other: "CarrierSet") -> None:
        if type(other) is not type(self) or other.carrier != self.carrier:
            raise ValueError("set operation across carriers")

    def _check_element(self, x: Element) -> None:
        if x.carrier != self.carrier:
            raise ValueError(f"cross-carrier membership {x.carrier} vs {self.carrier}")


@dataclass(frozen=True)
class FiniteSet(CarrierSet):
    """A subset of a finite carrier as one int: bit c of mask is set when
    the element of code c is a member.  hf, the carrier that made the set,
    decodes it, as names may be shared; sets compare by name, mask and hf,
    so that a mask is read in one code order (see FiniteHyperfield.__eq__),
    and hash by name and mask."""

    mask: int
    hf: "FiniteHyperfield" = field(hash=False, repr=False)

    def is_empty(self) -> bool:
        return not self.mask

    def _check(self, other: "FiniteSet") -> None:
        if type(other) is not FiniteSet or other.hf != self.hf:
            raise ValueError("set operation across carriers")

    def contains(self, x: Element) -> bool:
        self._check_element(x)
        code = self.hf._place.get(x[1])
        return code is not None and self.mask >> code & 1 == 1

    def union(self, other: "FiniteSet") -> "FiniteSet":
        self._check(other)
        return self.hf._set[self.mask | other.mask]

    def intersect(self, other: "FiniteSet") -> "FiniteSet":
        self._check(other)
        return self.hf._set[self.mask & other.mask]

    def difference(self, other: "FiniteSet") -> "FiniteSet":
        self._check(other)
        return self.hf._set[self.mask & ~other.mask]

    def is_singleton(self) -> bool:
        return self.mask.bit_count() == 1

    def the_element(self) -> Element:
        if not self.is_singleton():
            raise ValueError(f"not a singleton: {self}")
        hf = self.hf
        return hf._elem[hf._payloads[self.mask.bit_length() - 1]]

    @cached_property
    def _text(self) -> str:
        return "{%s}" % ",".join(map(str, self.hf.sample_elements(self)))

    def __str__(self) -> str:
        return self._text


@dataclass(frozen=True)
class _ExactSet(CarrierSet):
    """A set held as one exact value of sets.py, its body (an IntervalUnion
    or an ArcUnion), whose own union, intersect and difference it wraps."""

    def is_empty(self) -> bool:
        return self._body.is_empty()

    def union(self, other: "_ExactSet") -> "_ExactSet":
        self._check(other)
        return type(self)(self.carrier, self._body.union(other._body))

    def intersect(self, other: "_ExactSet") -> "_ExactSet":
        self._check(other)
        return type(self)(self.carrier, self._body.intersect(other._body))

    def difference(self, other: "_ExactSet") -> "_ExactSet":
        self._check(other)
        return type(self)(self.carrier, self._body.difference(other._body))

    def __str__(self) -> str:
        return str(self._body)


@dataclass(frozen=True)
class IntervalSet(_ExactSet):
    """A union of intervals of extended rationals (the T and V carriers)."""

    intervals: IntervalUnion
    _body = property(attrgetter("intervals"))

    def contains(self, x: Element) -> bool:
        self._check_element(x)
        return self.intervals.contains(x.payload)

    def is_singleton(self) -> bool:
        parts = self.intervals.parts
        return len(parts) == 1 and parts[0].is_point()

    def _sole_payload(self) -> Payload:
        return self.intervals.parts[0].lo


@dataclass(frozen=True)
class ArcSet(_ExactSet):
    """Circle angles plus the optional zero element (the P carrier)."""

    arcs: ArcUnion
    _body = property(attrgetter("arcs"))

    def contains(self, x: Element) -> bool:
        self._check_element(x)
        if x.payload is None:
            return self.arcs.has_zero
        return self.arcs.contains_angle(x.payload)

    def is_singleton(self) -> bool:
        if self.arcs.has_zero:
            return self.arcs.parts.is_empty()
        parts = self.arcs.parts.parts
        return len(parts) == 1 and parts[0].is_point()

    def _sole_payload(self) -> Payload:
        if self.arcs.has_zero:
            return None
        return self.arcs.parts.parts[0].lo.q


def ElementSet(carrier: str, kind: str,
               intervals: IntervalUnion = IntervalUnion(),
               arcs: ArcUnion = ArcUnion()) -> CarrierSet:
    """The set of shape kind ('intervals' or 'arcs') built from the
    matching field.  Kept for callers outside the package; the package
    builds IntervalSet and ArcSet directly, and FiniteSet in its carrier."""
    shape, value = {"intervals": (IntervalSet, intervals),
                    "arcs": (ArcSet, arcs)}[kind]
    return shape(carrier, value)


class Hyperfield:
    """Base carrier descriptor.  Each carrier class defines its elements
    and operations: _zero and _one, made once and returned by zero() and
    one(); element(raw), which validates and canonicalises a raw payload;
    mul, neg and inv; the set-valued set_hyperadd(a, b), scale_set(a, s) =
    {a (*) x : x in s}, set_mul(a, b) = {x (*) y : x in a, y in b} and
    neg_set; the set plumbing singleton, full_set and remove_zero;
    sample_elements(s), finitely many exact members covering every
    component of s; and parse_scalar(text).
    The base supplies hypersum and hyperadd(x, y) = hypersum([x, y]); a
    carrier may define faster sums: P's hypersum starts from its own
    two-point hyperadd, and a finite carrier's sums read its code table."""

    name: str

    def is_finite(self) -> bool:
        return False

    def elements(self) -> list[Element]:
        raise ValueError(f"{self.name} is not a finite carrier")

    def zero(self) -> Element:
        return self._zero

    def one(self) -> Element:
        return self._one

    def is_zero(self, x: Element) -> bool:
        return x == self._zero

    def hyperadd(self, x: Element, y: Element) -> CarrierSet:
        return self.hypersum([x, y])

    def hypersum(self, xs: Sequence[Element]) -> CarrierSet:
        if not xs:
            raise ValueError("hypersum of an empty list")
        acc = self.singleton(xs[0])
        for x in xs[1:]:
            acc = self.set_hyperadd(acc, self.singleton(x))
        return acc

    def format_element(self, x: Element) -> str:
        return format_payload(x.payload)

    def sort_key(self, x: Element) -> tuple:
        return (x.payload is not None, x.payload)  # P's zero None first

    def check(self, x: Element) -> Element:
        if x.carrier != self.name:
            raise ValueError(f"element of {x.carrier} used in {self.name}")
        return x

    def __eq__(self, other) -> bool:
        return isinstance(other, Hyperfield) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"<hyperfield {self.name}>"


# ---------------------------------------------------------------------------
# finite carriers


class FiniteHyperfield(Hyperfield):
    """Carrier given by tables over hashable payload symbols.

    A table is anything indexed like a dict: mul_table maps (x, y) to the
    product, hyperadd_table maps (x, y) to a collection of payloads,
    neg_table and inv_table map x.  All but inv_table are read once, into
    codes.  A prime field passes its modulus, by which its literals
    reduce, and code_rows, its product and sum rows already indexed by
    codes (which are its payloads), in place of mul_table and
    hyperadd_table, so that it builds no p x p table."""

    def __init__(self, name: str, payloads: Sequence[Payload], zero, one,
                 mul_table, neg_table, inv_table, hyperadd_table,
                 modulus: Optional[int] = None, *,
                 code_rows: Optional[tuple] = None):
        self.name = name
        self.modulus = modulus
        self._payloads = payloads
        self._int_payloads = all(isinstance(p, int) for p in payloads)
        # a payload's place is its sort key and code; its Element and text,
        # and each mask's FiniteSet, are made on first use (set-up makes none)
        place = self._place = {p: i for i, p in enumerate(payloads)}
        self._elem = _Interned(partial(Element, name))
        self._texts = _Interned(format_payload)
        self._set = _Interned(partial(FiniteSet, name, hf=self))
        self._zero = self._elem[zero]
        self._one = self._elem[one]
        self._inv = inv_table
        if code_rows is None:
            code_rows = ([[place[mul_table[x, y]] for y in payloads]
                          for x in payloads],
                         [[sum({1 << place[z] for z in hyperadd_table[x, y]})
                           for y in payloads] for x in payloads])
        elif mul_table is not None or hyperadd_table is not None:
            raise ValueError("code_rows replace mul_table and hyperadd_table")
        self.codes = CodeTable(self, *code_rows,
                               [place[neg_table[p]] for p in payloads])

    def is_finite(self) -> bool:
        return True

    def __eq__(self, other) -> bool:  # names are shared, code orders not
        return self is other or (Hyperfield.__eq__(self, other)
                                 and self._place == other._place)

    __hash__ = Hyperfield.__hash__

    def elements(self) -> list[Element]:
        elem = self._elem
        return [elem[p] for p in self._payloads]

    def element(self, raw) -> Element:
        if isinstance(raw, Element):
            return self.check(raw)
        payloads = self._payloads
        if raw in payloads:
            # the carrier's own payload, so 1.0 or True reads as 1
            return self._elem[payloads[payloads.index(raw)]]
        raise ValueError(f"{raw!r} is not in the carrier of {self.name}")

    def format_element(self, x: Element) -> str:
        return self._texts[x[1]]

    def _code(self, x: Element) -> int:
        if x[0] != self.name:
            self.check(x)
        return self._place[x[1]]

    # The single-valued operations read the code tables.
    def mul(self, x: Element, y: Element) -> Element:
        code = self.codes.mul[self._code(x)][self._code(y)]
        return self._elem[self._payloads[code]]

    def neg(self, x: Element) -> Element:
        return self._elem[self._payloads[self.codes.neg[self._code(x)]]]

    def inv(self, x: Element) -> Element:
        if self._code(x) == self.codes.zero:
            raise ZeroDivisionError(f"inv(0) in {self.name}")
        return self._elem[self._inv[x[1]]]

    # The set operations wrap those of codes: elements in, interned sets out.
    def hyperadd(self, x: Element, y: Element) -> FiniteSet:
        return self._set[self.codes.add[self._code(x)][self._code(y)]]

    def hypersum(self, xs: Sequence[Element]) -> FiniteSet:
        return self._set[self.codes.hypersum([self._code(x) for x in xs])]

    def set_hyperadd(self, a: FiniteSet, b: FiniteSet) -> FiniteSet:
        return self._set[self.codes.set_hyperadd(a.mask, b.mask)]

    def scale_set(self, a: Element, s: FiniteSet) -> FiniteSet:
        return self._set[self.codes.scale_set(self._code(a), s.mask)]

    def set_mul(self, a: FiniteSet, b: FiniteSet) -> FiniteSet:
        return self._set[self.codes.set_mul(a.mask, b.mask)]

    def neg_set(self, s: FiniteSet) -> FiniteSet:
        return self._set[self.codes.neg_set(s.mask)]

    def singleton(self, x: Element) -> FiniteSet:
        return self._set[1 << self._code(x)]

    def full_set(self) -> FiniteSet:
        return self._set[self.codes.full]

    def remove_zero(self, s: FiniteSet) -> FiniteSet:
        return self._set[self.codes.remove_zero(s.mask)]

    def sample_elements(self, s: FiniteSet) -> list[Element]:
        """The members in the payloads' natural order (integers by value,
        symbols as strings), in which a set also prints."""
        elem, pays = self._elem, self._payloads
        return sorted(elem[pays[c]] for c in self.codes.members[s.mask])

    def sort_key(self, x: Element) -> int:
        return self._place[x.payload]

    def parse_scalar(self, text: str) -> Element:
        text = text.strip()
        if self._int_payloads:
            try:
                value = int(text)
            except ValueError as err:
                raise ValueError(f"bad {self.name} literal {text!r}") from err
            if self.modulus is not None:
                return self._elem[value % self.modulus]
            if value in self._payloads:
                return self._elem[value]
            raise ValueError(f"{value} is not in the carrier of {self.name}")
        if text in self._payloads:
            return self._elem[text]
        raise ValueError(f"{text!r} is not a symbol of {self.name}")


def _set_bits(s: int) -> tuple[int, ...]:
    codes = []
    while s:
        low = s & -s
        codes.append(low.bit_length() - 1)
        s ^= low
    return tuple(codes)


class CodeTable:
    """A finite carrier's arithmetic on ints, each finite set operation
    written once.  A value is an element's code, its place in the payload
    list and so its sort key (code tuples sort as polynomials do); a set is
    a mask whose bit c is set when code c is a member.  mul[x][y] is the
    code of x (*) y, add[x][y] the mask of x (+) y and neg[x] the code of
    -x; step[s][y] is the mask of (set s) (+) y, which every finite sum
    reads.  The carrier's operations wrap these: elements in, FiniteSets
    out; the law table reads the carrier."""

    def __init__(self, hf: "FiniteHyperfield", mul, add, neg: list):
        self.hf = hf
        self.place = hf._place
        self.mul = mul
        self.add = add
        self.neg = neg
        self.full = (1 << len(neg)) - 1
        self.zero, self.one = self.encode((hf.zero(), hf.one()))
        # members[s] is the codes of s, lowest first: its set bits, walked
        # the first time s is read
        self.members = _Interned(_set_bits)
        # a plain dict, as CPython specialises subscripts only on exact
        # dicts; step_row(s) adds step[s] the first time mask s is read
        self.step: dict = {}

    def step_row(self, s: int):
        """step[s]: a singleton's row is its own add row; any other mask's
        joins its members' rows once (the empty mask's is all empty)."""
        row = self.step.get(s)
        if row is None:
            rows = [self.add[x] for x in self.members[s]]
            row = self.step[s] = rows[0] if len(rows) == 1 else [
                reduce(or_, [r[y] for r in rows], 0)
                for y in range(len(self.neg))]
        return row

    elements = cached_property(lambda self: self.hf.elements())

    @cached_property
    def units(self) -> list[int]:
        """The nonzero codes.  Multiplying by one is a symmetry of Poly(F)
        (see assoc_scan) if c(xy) = (cx)y and c(x (+) y) = cx (+) cy for all
        c, x and y, 0 included: two laws of _laws, read exhaustively.  A
        table that breaks either raises AssertionError."""
        laws = _laws(self.hf, ProbeSpec.exhaustive())[1]
        for law, broken in [("mul-associative", "c(xy) != (cx)y"), (
                "distributivity-left", "c(x (+) y) != cx (+) cy")]:
            bad = next(laws[law], None)
            if bad is not None:
                raise AssertionError(f"{broken} at {bad}")
        return [c for c in range(len(self.neg)) if c != self.zero]

    def encode(self, coeffs: Sequence[Element]) -> tuple[int, ...]:
        return tuple(self.place[x[1]] for x in coeffs)

    def decode(self, codes: Sequence[int]) -> tuple[Element, ...]:
        return tuple(self.elements[c] for c in codes)

    def set_hyperadd(self, s: int, t: int) -> int:
        """The union of x (+) y over x in s and y in t, in that order, since
        a table need not commute."""
        row, out = self.step_row(s), 0
        for y in self.members[t]:
            out |= row[y]
        return out

    def scale_set(self, a: int, s: int) -> int:
        row, out = self.mul[a], 0
        for x in self.members[s]:
            out |= 1 << row[x]
        return out

    def set_mul(self, s: int, t: int) -> int:
        mul, right, out = self.mul, self.members[t], 0
        for x in self.members[s]:
            row = mul[x]
            for y in right:
                out |= 1 << row[y]
        return out

    def hypersum(self, xs: Sequence[int]) -> int:
        """x1 (+) ... (+) xn, folded left to right through the step table."""
        if not xs:
            raise ValueError("hypersum of an empty list")
        step, s = self.step, 1 << xs[0]
        for y in xs[1:]:
            try:
                s = step[s][y]
            except KeyError:
                s = self.step_row(s)[y]
        return s

    def neg_set(self, s: int) -> int:
        neg, out = self.neg, 0
        for x in self.members[s]:
            out |= 1 << neg[x]
        return out

    def remove_zero(self, s: int) -> int:
        return s & ~(1 << self.zero)

    def sort_key(self, codes: Sequence[int]) -> tuple:
        """Orders code tuples as Polynomial.sort_key orders polynomials."""
        return (len(codes), codes[::-1])

    def terms(self, q: Sequence[int]) -> list:
        """The nonzero (position, code) terms of a code tuple."""
        return [(a, c) for a, c in enumerate(q) if c != self.zero]

    def row_terms(self, q: Sequence[int]) -> list:
        """The nonzero (position, multiplication row) terms of a code tuple."""
        return [(a, self.mul[c]) for a, c in self.terms(q)]

    def product_cells(self, q_rows: Sequence, r_terms: Iterable,
                      size: int) -> set:
        """The cell tuples (masks) of q (x) r for q's row_terms and the
        terms of every r, where size is len(q) + len(r) - 1.  Every member
        is trimmed: the leading cell is the leading codes' product."""
        step, zero = self.step, 1 << self.zero
        out: set = set()
        for terms in r_terms:
            cells = [zero] * size
            for a, row in q_rows:
                for b, d in terms:
                    t = a + b
                    try:
                        cells[t] = step[cells[t]][row[d]]
                    except KeyError:
                        cells[t] = self.step_row(cells[t])[row[d]]
            out.add(tuple(cells))
        return out

    def expand(self, cell_tuples: Iterable) -> set:
        """Every member code tuple of the products with the given cells."""
        members = self.members
        out: set = set()
        for cells in cell_tuples:
            out.update(itertools.product(*[members[s] for s in cells]))
        return out

    def cells_of_product(self, q: Sequence[int], r: Sequence[int]) -> tuple:
        """The one cell tuple (masks) of q (x) r for two trimmed code tuples."""
        return self.product_cells(self.row_terms(q), [self.terms(r)],
                                  len(q) + len(r) - 1).pop()

    def members_of_product(self, q: Sequence[int], r: Sequence[int]):
        """Member code tuples of q (x) r for two trimmed code tuples."""
        return itertools.product(*map(self.members.__getitem__,
                                      self.cells_of_product(q, r)))


def _sign_mul(payloads):
    return {(x, y): x * y for x in payloads for y in payloads}


def krasner() -> FiniteHyperfield:
    payloads = [0, 1]
    add = {(0, 0): {0}, (0, 1): {1}, (1, 0): {1}, (1, 1): {0, 1}}
    return FiniteHyperfield("K", payloads, 0, 1, _sign_mul(payloads),
                            {0: 0, 1: 1}, {1: 1}, add)


def _signs_like(name: str, self_sum) -> FiniteHyperfield:
    payloads = [-1, 0, 1]
    add = {}
    for x in payloads:
        for y in payloads:
            if x == 0:
                add[(x, y)] = {y}
            elif y == 0:
                add[(x, y)] = {x}
            elif x == y:
                add[(x, y)] = self_sum(x)
            else:
                add[(x, y)] = {-1, 0, 1}
    return FiniteHyperfield(name, payloads, 0, 1, _sign_mul(payloads),
                            {-1: 1, 0: 0, 1: -1}, {1: 1, -1: -1}, add)


def signs() -> FiniteHyperfield:
    return _signs_like("S", lambda x: {x})


def weak_signs() -> FiniteHyperfield:
    return _signs_like("W", lambda x: {x, -x})


def _row_mod(entry, p: int, x: int) -> _Interned:
    """Row x of a GF(p) table, filled on lookup: y -> entry(p, x, y)."""
    return _Interned(partial(entry, p, x))


def _product_mod(p: int, x: int, y: int) -> int:
    return x * y % p


def _sum_mod(p: int, x: int, y: int) -> int:
    return 1 << (x + y) % p  # the mask of the singleton {x + y mod p}


def gf(p: int) -> FiniteHyperfield:
    if p < 2 or any(p % d == 0 for d in range(2, int(math.isqrt(p)) + 1)):
        raise ValueError(f"GF({p}): modulus must be prime")
    if p > 1009:
        raise ValueError("GF(p) supported for p <= 1009")
    payloads = range(p)
    neg = [(-x) % p for x in payloads]
    inv = {x: pow(x, p - 2, p) for x in payloads[1:]}
    entries = (_product_mod, _sum_mod)
    if p < 128:  # list rows read fastest, and cost at most 128^2 entries
        mul, add = ([[f(p, x, y) for y in payloads] for x in payloads]
                    for f in entries)
    else:  # rows filled on lookup, so that no p x p table is built
        mul, add = (_Interned(partial(_row_mod, f, p)) for f in entries)
    return FiniteHyperfield(f"GF({p})", payloads, 0, 1 % p, None, neg, inv,
                            None, modulus=p, code_rows=(mul, add))


def weak_group(table: dict, symbols: Sequence[str], e: str,
               name: Optional[str] = None) -> FiniteHyperfield:
    """W(G,e): abelian group G plus 0, with weak-sign style hyperaddition.

    table maps (symbol, symbol) -> symbol.  The zero symbol "0" is adjoined
    and must not be a group symbol.  e must satisfy e*e = identity.
    """
    symbols = list(symbols)
    if "0" in symbols:
        raise ValueError('the symbol "0" is reserved for the zero element')
    if e not in symbols:
        raise ValueError(f"e={e!r} is not a group symbol")
    identity = None
    for cand in symbols:
        if all(table[(cand, g)] == g for g in symbols):
            identity = cand
            break
    if identity is None:
        raise ValueError("group table has no identity")
    for x in symbols:
        for y in symbols:
            if table[(x, y)] not in symbols:
                raise ValueError("group table is not closed")
            if table[(x, y)] != table[(y, x)]:
                raise ValueError("group must be abelian")
            for z in symbols:
                if table[(table[(x, y)], z)] != table[(x, table[(y, z)])]:
                    raise ValueError("group table is not associative")
    inv_table = {}
    for x in symbols:
        invs = [y for y in symbols if table[(x, y)] == identity]
        if len(invs) != 1:
            raise ValueError(f"no unique inverse for {x!r}")
        inv_table[x] = invs[0]
    if table[(e, e)] != identity:
        raise ValueError(f"e={e!r} is not self-inverse")
    payloads: list[Payload] = ["0"] + symbols
    full = set(payloads)
    nonzero = set(symbols)
    mul = {("0", "0"): "0"}
    for g in symbols:
        mul[("0", g)] = mul[(g, "0")] = "0"
        for h in symbols:
            mul[(g, h)] = table[(g, h)]
    add = {("0", "0"): {"0"}}
    for g in symbols:
        add[("0", g)] = add[(g, "0")] = {g}
        for h in symbols:
            add[(g, h)] = full if h == table[(e, g)] else nonzero
    neg = {"0": "0", **{g: table[(e, g)] for g in symbols}}
    return FiniteHyperfield(name or f"W(G,{e})", payloads, "0", identity,
                            mul, neg, inv_table, add)


def cyclic_group_table(n: int) -> tuple[dict, list[str], str]:
    """Cayley data for Z/n written multiplicatively; e is the unique
    self-inverse element (-1 for even n, the identity for odd n)."""
    symbols = [f"g{k}" if k else "1" for k in range(n)]
    table = {(symbols[i], symbols[j]): symbols[(i + j) % n]
             for i in range(n) for j in range(n)}
    e = symbols[n // 2] if n % 2 == 0 and n > 1 else symbols[0]
    return table, symbols, e


def load_cayley_table(path: str) -> FiniteHyperfield:
    """Read `n`, an n x n symbol grid, then the symbol e, from a text file."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty Cayley table file")
    try:
        n = int(tokens[0])
    except ValueError:
        raise ValueError(f"{path}: the table size {tokens[0]!r} is not an "
                         f"integer") from None
    if len(tokens) != 1 + n * n + 1:
        raise ValueError(f"{path}: expected {n * n} grid entries plus e")
    grid = tokens[1:1 + n * n]
    e = tokens[-1]
    symbols: list[str] = []
    for s in grid:
        if s not in symbols:
            symbols.append(s)
    if len(symbols) != n:
        raise ValueError(f"{path}: grid uses {len(symbols)} symbols, expected {n}")
    # row/column labels follow the order of first appearance down the diagonal
    # of the grid's first row/column; we take row i to be symbols[i].
    table = {(symbols[i], symbols[j]): grid[i * n + j]
             for i in range(n) for j in range(n)}
    return weak_group(table, symbols, e, name=f"W(G,e):{path}")


def _rational(body: str, kind: str, literal: str) -> Fraction:
    """The rational written as body, read out of a literal of the kind."""
    if body.isdecimal():  # a plain integer, which int reads as Fraction does
        return Fraction(int(body))
    try:
        return Fraction(body)
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"bad {kind} literal {literal!r}") from err


def _exact(raw, kind: str) -> Fraction:
    """raw as a Fraction.  A float is refused: its binary expansion is
    seldom the rational that was written."""
    if type(raw) is Fraction:
        return raw
    if isinstance(raw, float):
        raise ValueError(f"{kind} takes exact rationals, not the float {raw!r}")
    return Fraction(raw)


# ---------------------------------------------------------------------------
# interval carriers: tropical (max-plus) and Viro


class _IntervalHyperfield(Hyperfield):
    """A carrier whose sets are IntervalSets over a line whose least value
    is the zero, and on which neg is the identity.  A set operation that
    is a union over part pairs reads one rule of sets.py (see _pairwise)."""

    def neg(self, x: Element) -> Element:
        return self.check(x)

    def _pairwise(self, rule, a: IntervalSet, b: IntervalSet) -> IntervalSet:
        """The union of rule(i, j) over the parts i of a and j of b."""
        return IntervalSet(self.name, IntervalUnion.of(
            rule(i, j) for i in a.intervals.parts for j in b.intervals.parts))

    def singleton(self, x: Element) -> IntervalSet:
        self.check(x)
        return IntervalSet(self.name, IntervalUnion.point(x.payload))

    def full_set(self) -> IntervalSet:
        whole = Interval(self.zero().payload, POS_INF, True, False)
        return IntervalSet(self.name, IntervalUnion((whole,)))

    def remove_zero(self, s: IntervalSet) -> IntervalSet:
        return IntervalSet(self.name,
                           s.intervals.remove_point(self.zero().payload))

    def sample_elements(self, s: IntervalSet) -> list[Element]:
        return [Element(self.name, v) for v in s.intervals.sample_values()]


class TropicalHyperfield(_IntervalHyperfield):
    name = "T"
    _zero, _one = Element(name, NEG_INF), Element(name, EXT_ZERO)

    def element(self, raw) -> Element:
        if isinstance(raw, Element):
            return self.check(raw)
        if raw == "-inf":
            return self._zero
        return Element(self.name, ExtRat(_exact(raw, self.name)))

    def mul(self, x: Element, y: Element) -> Element:
        if not x[0] == y[0] == self.name:
            self.check(x), self.check(y)
        return Element(self.name, x[1] + y[1])

    def inv(self, x: Element) -> Element:
        self.check(x)
        if x.payload.inf:
            raise ZeroDivisionError("inv(-inf)")
        return Element(self.name, -x.payload)

    def hypersum(self, xs: Sequence[Element]) -> IntervalSet:
        """{max} when the maximum is attained once, else [-inf, max]."""
        if not xs:
            raise ValueError("hypersum of an empty list")
        payloads = [self.check(x).payload for x in xs]
        top = max(payloads)
        if payloads.count(top) == 1:
            return IntervalSet(self.name, IntervalUnion.point(top))
        return IntervalSet(self.name, IntervalUnion((Interval(NEG_INF, top),)))

    def set_hyperadd(self, a: IntervalSet, b: IntervalSet) -> IntervalSet:
        if a.is_empty() or b.is_empty():
            raise ValueError("set_hyperadd of an empty set")
        maxes = self._pairwise(interval_max, a, b)
        meet = a.intervals.intersect(b.intervals)
        if meet.is_empty():
            return maxes
        top, attained = meet.max_value()
        return IntervalSet(self.name, maxes.intervals.union(
            IntervalUnion((Interval(NEG_INF, top, True, attained),))))

    def scale_set(self, a: Element, s: IntervalSet) -> IntervalSet:
        self.check(a)
        return IntervalSet(self.name, s.intervals.translate(a.payload))

    def set_mul(self, a: IntervalSet, b: IntervalSet) -> IntervalSet:
        return self._pairwise(interval_add, a, b)

    def neg_set(self, s: IntervalSet) -> IntervalSet:
        return s

    def parse_scalar(self, text: str) -> Element:
        text = text.strip()
        if text in ("-inf", "-oo"):
            return self.zero()
        return Element(self.name, ExtRat(_rational(text, "T", text)))


class ViroHyperfield(_IntervalHyperfield):
    name = "V"
    _zero, _one = Element(name, EXT_ZERO), Element(name, ExtRat(Fraction(1)))

    def element(self, raw) -> Element:
        if isinstance(raw, Element):
            return self.check(raw)
        q = _exact(raw, self.name)
        if q < 0:
            raise ValueError(f"{q} is not a nonnegative rational")
        return Element(self.name, ExtRat(q))

    def mul(self, x: Element, y: Element) -> Element:
        self.check(x), self.check(y)
        return Element(self.name, ExtRat(qmul(x.payload.q, y.payload.q)))

    def inv(self, x: Element) -> Element:
        self.check(x)
        if x.payload.q == 0:
            raise ZeroDivisionError("inv(0)")
        return Element(self.name, ExtRat(qinv(x.payload.q)))

    def hypersum(self, xs: Sequence[Element]) -> IntervalSet:
        """[max(0, 2 max - sum), sum]: the polygon inequality."""
        if not xs:
            raise ValueError("hypersum of an empty list")
        if len(xs) == 1:
            return self.singleton(xs[0])
        ps = [self.check(x).payload for x in xs]
        total, top = sum(ps[1:], ps[0]), max(ps)
        lo = max(EXT_ZERO, top + top + -total)
        return IntervalSet(self.name, IntervalUnion.closed(lo, total))

    def set_hyperadd(self, a: IntervalSet, b: IntervalSet) -> IntervalSet:
        if a.is_empty() or b.is_empty():
            raise ValueError("set_hyperadd of an empty set")
        return self._pairwise(interval_triangle, a, b)

    def scale_set(self, a: Element, s: IntervalSet) -> IntervalSet:
        self.check(a)
        if a.payload.q == 0:
            return self.singleton(self.zero())
        return IntervalSet(self.name, s.intervals.scale(a.payload.q))

    def set_mul(self, a: IntervalSet, b: IntervalSet) -> IntervalSet:
        return self._pairwise(interval_mul_nonneg, a, b)

    def neg_set(self, s: IntervalSet) -> IntervalSet:
        return s

    def parse_scalar(self, text: str) -> Element:
        text = text.strip()
        return self.element(_rational(text, "V", text))


# ---------------------------------------------------------------------------
# phase carrier (unit circle plus zero)


class PhaseHyperfield(Hyperfield):
    name = "P"
    _zero, _one = Element(name, None), Element(name, Fraction(0))
    _half_turn = Fraction(1)  # the angle of -1

    def element(self, raw) -> Element:
        if isinstance(raw, Element):
            return self.check(raw)
        if raw is None:
            return self._zero
        return Element(self.name, angle_mod(_exact(raw, self.name)))

    def mul(self, x: Element, y: Element) -> Element:
        self.check(x), self.check(y)
        if x.payload is None or y.payload is None:
            return self.zero()
        return Element(self.name, angle_mod(qadd(x.payload, y.payload)))

    def neg(self, x: Element) -> Element:
        self.check(x)
        if x.payload is None:
            return x
        return Element(self.name, angle_mod(qadd(x.payload, self._half_turn)))

    def inv(self, x: Element) -> Element:
        self.check(x)
        if x.payload is None:
            raise ZeroDivisionError("inv(0)")
        turn = qsub(self._one.payload, x.payload)  # the angle 0 - x
        return Element(self.name, angle_mod(turn))

    def hyperadd(self, x: Element, y: Element) -> ArcSet:
        self.check(x), self.check(y)
        if x.payload is None:
            return self.singleton(y)
        if y.payload is None:
            return self.singleton(x)
        if x.payload == y.payload:
            return self.singleton(x)
        if angle_mod(qsub(x.payload, y.payload)) == self._half_turn:
            arcs = ArcUnion.point(x.payload).union(ArcUnion.point(y.payload))
            return ArcSet(self.name, ArcUnion(arcs.parts, has_zero=True))
        return ArcSet(self.name, minor_arc(x.payload, y.payload))

    def hypersum(self, xs: Sequence[Element]) -> ArcSet:
        """The base fold, started from P's own sum of the first two terms."""
        acc = self.hyperadd(*xs[:2]) if len(xs) > 1 else super().hypersum(xs)
        for x in xs[2:]:
            acc = self.set_hyperadd(acc, self.singleton(x))
        return acc

    def set_hyperadd(self, a: ArcSet, b: ArcSet) -> ArcSet:
        if a.is_empty() or b.is_empty():
            raise ValueError("set_hyperadd of an empty set")
        au, bu = a.arcs, b.arcs
        parts: list[Interval] = []
        has_zero = au.has_zero and bu.has_zero
        if au.has_zero:
            parts.extend(bu.parts.parts)
        if bu.has_zero:
            parts.extend(au.parts.parts)
        equal = au.parts.intersect(bu.parts)
        parts.extend(equal.parts)
        anti = ArcUnion(au.parts.intersect(bu.antipode().parts))
        if not anti.parts.is_empty():
            has_zero = True
            parts.extend(anti.parts.parts)
            parts.extend(anti.antipode().parts.parts)
        for p in au.parts.parts:
            for q in bu.parts.parts:
                parts.extend(minor_arcs(p, q))
        return ArcSet(self.name, ArcUnion(IntervalUnion.of(parts), has_zero))

    def scale_set(self, a: Element, s: ArcSet) -> ArcSet:
        self.check(a)
        if a.payload is None:
            return self.singleton(self.zero())
        return ArcSet(self.name, s.arcs.rotate(a.payload))

    def set_mul(self, a: ArcSet, b: ArcSet) -> ArcSet:
        has_zero = ((a.arcs.has_zero and not b.is_empty())
                    or (b.arcs.has_zero and not a.is_empty()))
        return ArcSet(self.name, ArcUnion(arcs_minkowski(a.arcs, b.arcs), has_zero))

    def neg_set(self, s: ArcSet) -> ArcSet:
        return ArcSet(self.name, s.arcs.antipode())

    def singleton(self, x: Element) -> ArcSet:
        self.check(x)
        if x.payload is None:
            return ArcSet(self.name, ArcUnion.zero_only())
        return ArcSet(self.name, ArcUnion.point(x.payload))

    def full_set(self) -> ArcSet:
        return ArcSet(self.name, ArcUnion(ArcUnion.full_circle().parts, True))

    def remove_zero(self, s: ArcSet) -> ArcSet:
        return ArcSet(self.name, s.arcs.without_zero())

    def sample_elements(self, s: ArcSet) -> list[Element]:
        out = [Element(self.name, a) for a in s.arcs.angles_sample()]
        if s.arcs.has_zero:
            out.append(self.zero())
        return out

    def parse_scalar(self, text: str) -> Element:
        """0, or a phase a*pi written ph(a) or e^{i a pi}, a rational."""
        text = text.strip()
        if text == "0":
            return self.zero()
        if text.startswith("ph(") and text.endswith(")"):
            return self.element(_rational(text[3:-1], "phase", text))
        compact = text.replace(" ", "")
        if compact.startswith("e^{i") and compact.endswith("pi}"):
            return self.element(_rational(compact[4:-3] or "1", "phase", text))
        raise ValueError(f"bad phase literal {text!r}")


# ---------------------------------------------------------------------------
# factory


@lru_cache(maxsize=None)
def _build(name: str) -> Hyperfield:
    """One carrier per name; a Cayley file is read once per process."""
    if name.startswith("W(G,e):"):
        return load_cayley_table(name[len("W(G,e):"):])
    if name == "K":
        return krasner()
    if name == "S":
        return signs()
    if name == "W":
        return weak_signs()
    if name == "T":
        return TropicalHyperfield()
    if name == "V":
        return ViroHyperfield()
    if name == "P":
        return PhaseHyperfield()
    if name.startswith("GF(") and name.endswith(")"):
        try:
            p = int(name[3:-1])
        except ValueError:
            raise ValueError(f"unknown hyperfield {name!r}") from None
        return gf(p)
    raise ValueError(f"unknown hyperfield {name!r}")


def by_name(name: str) -> Hyperfield:
    """Hyperfield selector: K, S, W, T, V, P, GF(p), W(G,e):<table-file>."""
    return _build(name.strip())


# ---------------------------------------------------------------------------
# axiom checking


@dataclass(frozen=True)
class ProbeSpec:
    """Either an exhaustive check (finite carriers) or a finite probe grid."""

    mode: str  # 'exhaustive' | 'probe'
    points: tuple[Element, ...] = ()

    @staticmethod
    def exhaustive() -> "ProbeSpec":
        return ProbeSpec("exhaustive")

    @staticmethod
    def probe(points: Sequence[Element]) -> "ProbeSpec":
        return ProbeSpec("probe", tuple(points))


_DEFAULT_GRIDS = {
    "T": ["-inf", -2, -1, 0, Fraction(1, 2), 1, 3],
    "V": [0, Fraction(1, 2), 1, 2, 3],
    "P": [None, Fraction(0), Fraction(1), Fraction(1, 4), Fraction(5, 4),
          Fraction(1, 2), Fraction(3, 2), Fraction(1, 6)],
}


def default_probe(hf: Hyperfield, extra: Sequence[Element] = ()) -> ProbeSpec:
    """Exhaustive for finite carriers; else a closure-enriched rational grid."""
    if hf.is_finite():
        return ProbeSpec.exhaustive()
    base = [hf.element(raw) for raw in _DEFAULT_GRIDS[hf.name]]
    pts: list[Element] = []
    for x in [*base, *extra, hf.zero(), hf.one(), hf.neg(hf.one())]:
        if x not in pts:
            pts.append(x)
    for x in list(pts):
        for y in (hf.neg(x), *(() if hf.is_zero(x) else (hf.inv(x),))):
            if y not in pts:
                pts.append(y)
    for x in list(pts):
        for y in list(pts):
            prod = hf.mul(x, y)
            if prod not in pts and len(pts) < 14:
                pts.append(prod)
    return ProbeSpec.probe(pts)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    counterexample: Optional[str] = None


@dataclass(frozen=True)
class AxiomReport:
    hyperfield: str
    mode: str
    points: int
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        lines = [f"axioms for {self.hyperfield} ({self.mode}, {self.points} points)"]
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            tail = "" if c.passed else f"  [{c.counterexample}]"
            lines.append(f"  {mark}  {c.name}{tail}")
        return "\n".join(lines)


def _points_of(hf: Hyperfield, probe: ProbeSpec) -> list[Element]:
    if probe.mode == "exhaustive":
        return hf.elements()
    return list(probe.points)


def _laws(hf: Hyperfield, probe: ProbeSpec) -> tuple[list[Element], dict]:
    """The probed points and, per law, the lazy sequence of its violation
    texts over them: the hypergroup axioms for (+) (identity, unique
    hyperinverse, reversibility, associativity as sets, commutativity), the
    commutative monoid axioms with inverses for (*), the absorbing zero,
    both distributivity clauses and (a(+)b)(c(+)d) = ac(+)ad(+)bc(+)bd as
    sets.  The inverse rule tests -x only where -x is probed; an exhaustive
    check probes every -x, so there it reads set(hits) == {-x}.

    The laws read the carrier's own operations, so a value is an element
    or a set of the carrier.  Each value they compare has one small-int id,
    its place in vals, so equal values have equal ids, and each operation
    runs once per distinct tuple of argument ids, in tables that live for
    this call.  The texts name the points pts[i], and v[i] is the id of
    pts[i]."""
    pts = _points_of(hf, probe)
    ids: dict = {}
    vals: list = []

    def intern(x) -> int:
        i = ids.setdefault(x, len(vals))
        if i == len(vals):
            vals.append(x)
        return i

    def table(op, out=intern):
        """op on the values of two ids, run once per distinct pair."""
        return lru_cache(maxsize=None)(lambda a, b: out(op(vals[a], vals[b])))

    def value(x: Element) -> int:
        return intern(hf.check(x))

    times, add = table(hf.mul), table(hf.hyperadd)
    has = table(lambda s, x: s.contains(x), bool)
    sadd, smul, scale = (table(hf.set_hyperadd), table(hf.set_mul),
                         table(hf.scale_set))
    hsum = lru_cache(maxsize=None)(
        lambda *xs: intern(hf.hypersum([vals[x] for x in xs])))
    zero, one = value(hf.zero()), value(hf.one())
    v = [value(x) for x in pts]
    idx = range(len(pts))
    prod = [[times(x, y) for y in v] for x in v]
    pair = [[add(x, y) for y in v] for x in v]
    single = [intern(hf.singleton(x)) for x in pts]
    neg = [value(hf.neg(x)) for x in pts]
    hits = [[j for j in idx if has(pair[i][j], zero)] for i in idx]
    minus = [[add(x, y) for y in neg] for x in v]

    def unequal_products(a: Element, b: Element, c: Element,
                         d: Element) -> str:
        lhs = hf.set_mul(hf.hyperadd(a, b), hf.hyperadd(c, d))
        rhs = hf.hypersum([hf.mul(a, c), hf.mul(a, d),
                           hf.mul(b, c), hf.mul(b, d)])
        return f"a={a}, b={b}, c={c}, d={d}: {lhs} != {rhs}"

    return pts, {
        "zero-one-distinct": iter(["0 = 1"] if zero == one else []),
        "absorbing-zero": (
            f"0*{pts[i]}" for i, x in enumerate(v)
            if times(zero, x) != zero or times(x, zero) != zero),
        "mul-commutative": (
            f"{pts[i]}*{pts[j]}" for i in idx for j in idx
            if prod[i][j] != prod[j][i]),
        "mul-associative": (
            f"({pts[i]}*{pts[j]})*{pts[k]}"
            for i in idx for j in idx for k in idx
            if times(prod[i][j], v[k]) != times(v[i], prod[j][k])),
        "mul-identity": (
            f"1*{pts[i]}" for i, x in enumerate(v) if times(one, x) != x),
        "mul-inverse": (
            f"{pts[i]}*inv({pts[i]})" for i, x in enumerate(v)
            if x != zero and times(x, value(hf.inv(pts[i]))) != one),
        "hyperadd-commutative": (
            f"{pts[i]}(+){pts[j]}" for i in idx for j in idx
            if pair[i][j] != pair[j][i]),
        "hyperadd-identity": (
            f"0(+){pts[i]}" for i, x in enumerate(v)
            if add(zero, x) != single[i]),
        "hyperadd-associative": (
            f"{pts[i]}(+)({pts[j]}(+){pts[k]})"
            for i in idx for j in idx for k in idx
            if sadd(single[i], pair[j][k]) != sadd(pair[i][j], single[k])),
        "unique-hyperinverse": (
            f"inverses of {pts[i]}: {[str(pts[j]) for j in hits[i]]}"
            for i in idx
            if (neg[i] in v and neg[i] not in [v[j] for j in hits[i]])
            or any(v[j] != neg[i] for j in hits[i])),
        "reversibility": (
            f"x={pts[i]}, y={pts[j]}, z={pts[k]}"
            for i in idx for j in idx for k in idx
            if has(pair[j][k], v[i]) != has(minus[i][j], v[k])),
        "distributivity-left": (
            f"{pts[a]}*({pts[i]}(+){pts[j]})"
            for a in idx for i in idx for j in idx
            if scale(v[a], pair[i][j]) != add(prod[a][i], prod[a][j])),
        "distributivity-right": (
            f"({pts[i]}(+){pts[j]})*{pts[a]}"
            for a in idx for i in idx for j in idx
            if smul(pair[i][j], single[a]) != add(prod[i][a], prod[j][a])),
        "double-distributivity": (
            unequal_products(pts[a], pts[b], pts[c], pts[d])
            for a in idx for b in idx for c in idx for d in idx
            if smul(pair[a][b], pair[c][d])
            != hsum(prod[a][c], prod[a][d], prod[b][c], prod[b][d])),
    }


def check_axioms(hf: Hyperfield, probe: ProbeSpec) -> AxiomReport:
    """Decide (exhaustive) or falsify (probe) the hyperfield axioms: every
    law of _laws but double distributivity, each with its first violation
    as its counterexample."""
    pts, laws = _laws(hf, probe)
    laws.pop("double-distributivity")
    firsts = [(name, next(bad, None)) for name, bad in laws.items()]
    return AxiomReport(hf.name, probe.mode, len(pts), tuple(
        AxiomCheck(name, bad is None, bad) for name, bad in firsts))


@dataclass(frozen=True)
class DdistReport:
    hyperfield: str
    mode: str
    holds: bool
    counterexample: Optional[str] = None

    def __str__(self) -> str:
        verdict = "doubly distributive" if self.holds else \
            f"not doubly distributive [{self.counterexample}]"
        return f"{self.hyperfield} ({self.mode}): {verdict}"


def is_doubly_distributive(hf: Hyperfield, probe: ProbeSpec) -> DdistReport:
    """Check (a(+)b)(c(+)d) = ac(+)ad(+)bc(+)bd as sets on all probed
    quadruples: the first violation of that law in _laws."""
    bad = next(_laws(hf, probe)[1]["double-distributivity"], None)
    return DdistReport(hf.name, probe.mode, bad is None, bad)
