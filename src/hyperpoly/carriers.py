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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from operator import itemgetter
from typing import Iterable, Optional, Sequence, Union

from .sets import (NEG_INF, POS_INF, ArcUnion, ExtRat, Interval, IntervalUnion,
                   _E0, _earlier_end, _is_empty, _later_start, _qadd, _qmul,
                   _qsub, _ratio, _wrap, angle_mod,
                   arcs_minkowski, interval_add, interval_max,
                   interval_mul_nonneg, minor_arc)

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
    """payload -> the one value make(payload), made on first lookup."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, payload: Payload):
        x = self[payload] = self.make(payload)
        return x


@lru_cache(maxsize=None)
def _interned(carrier: str) -> _Interned:
    """The Elements of one carrier name.  An Element is a value of its
    (carrier, payload) pair alone, so every finite carrier and FiniteSet of
    that name share the table.  Payloads enter it only from a carrier's own
    payload list and tables, never as an equal payload of another type."""
    return _Interned(partial(Element, carrier))


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
    """Payloads of a finite carrier, stored explicitly."""

    finite: frozenset

    def is_empty(self) -> bool:
        return not self.finite

    def contains(self, x: Element) -> bool:
        self._check_element(x)
        return x.payload in self.finite

    def union(self, other: "FiniteSet") -> "FiniteSet":
        self._check(other)
        return FiniteSet(self.carrier, self.finite | other.finite)

    def intersect(self, other: "FiniteSet") -> "FiniteSet":
        self._check(other)
        return FiniteSet(self.carrier, self.finite & other.finite)

    def difference(self, other: "FiniteSet") -> "FiniteSet":
        self._check(other)
        return FiniteSet(self.carrier, self.finite - other.finite)

    def is_singleton(self) -> bool:
        return len(self.finite) == 1

    def the_element(self) -> Element:
        if not self.is_singleton():
            raise ValueError(f"not a singleton: {self}")
        return _interned(self.carrier)[next(iter(self.finite))]

    @cached_property
    def _text(self) -> str:
        if not self.finite:
            return "{}"
        # a finite carrier's payloads are all ints or all strs
        inner = ",".join(format_payload(p) for p in sorted(self.finite))
        return "{%s}" % inner

    def __str__(self) -> str:
        return self._text


@dataclass(frozen=True)
class IntervalSet(CarrierSet):
    """A union of intervals of extended rationals (the T and V carriers)."""

    intervals: IntervalUnion

    def is_empty(self) -> bool:
        return self.intervals.is_empty()

    def contains(self, x: Element) -> bool:
        self._check_element(x)
        return self.intervals.contains(x.payload)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        self._check(other)
        return IntervalSet(self.carrier, self.intervals.union(other.intervals))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        self._check(other)
        return IntervalSet(self.carrier, self.intervals.intersect(other.intervals))

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        self._check(other)
        return IntervalSet(self.carrier, self.intervals.difference(other.intervals))

    def is_singleton(self) -> bool:
        parts = self.intervals.parts
        return len(parts) == 1 and parts[0].is_point()

    def _sole_payload(self) -> Payload:
        return self.intervals.parts[0].lo

    def __str__(self) -> str:
        return str(self.intervals)


@dataclass(frozen=True)
class ArcSet(CarrierSet):
    """Circle angles plus the optional zero element (the P carrier)."""

    arcs: ArcUnion

    def is_empty(self) -> bool:
        return self.arcs.is_empty()

    def contains(self, x: Element) -> bool:
        self._check_element(x)
        if x.payload is None:
            return self.arcs.has_zero
        return self.arcs.contains_angle(x.payload)

    def union(self, other: "ArcSet") -> "ArcSet":
        self._check(other)
        return ArcSet(self.carrier, self.arcs.union(other.arcs))

    def intersect(self, other: "ArcSet") -> "ArcSet":
        self._check(other)
        return ArcSet(self.carrier, self.arcs.intersect(other.arcs))

    def difference(self, other: "ArcSet") -> "ArcSet":
        self._check(other)
        return ArcSet(self.carrier, self.arcs.difference(other.arcs))

    def is_singleton(self) -> bool:
        if self.arcs.has_zero:
            return self.arcs.parts.is_empty()
        parts = self.arcs.parts.parts
        return len(parts) == 1 and parts[0].is_point()

    def _sole_payload(self) -> Payload:
        if self.arcs.has_zero:
            return None
        return self.arcs.parts.parts[0].lo.q

    def __str__(self) -> str:
        return str(self.arcs)


def ElementSet(carrier: str, kind: str, finite: frozenset = frozenset(),
               intervals: IntervalUnion = IntervalUnion(),
               arcs: ArcUnion = ArcUnion()) -> CarrierSet:
    """The set of shape kind ('finite', 'intervals' or 'arcs') built from
    the matching field.  Kept for callers outside the package; the package
    builds FiniteSet, IntervalSet and ArcSet directly."""
    shape, value = {"finite": (FiniteSet, finite),
                    "intervals": (IntervalSet, intervals),
                    "arcs": (ArcSet, arcs)}[kind]
    return shape(carrier, value)


def _singleton_set(carrier: str, payload: Payload) -> FiniteSet:
    return FiniteSet(carrier, frozenset((payload,)))


class Hyperfield:
    """Base carrier descriptor.  Each carrier class defines its elements
    and operations: zero() and one(); element(raw), which validates and
    canonicalises a raw payload; mul, neg and inv; the set-valued
    hyperadd(x, y), set_hyperadd(a, b), scale_set(a, s) = {a (*) x : x in
    s}, set_mul(a, b) = {x (*) y : x in a, y in b} and neg_set; the set
    plumbing singleton, full_set and remove_zero; sample_elements(s),
    finitely many exact members covering every component of s; and
    parse_scalar(text).  The base supplies hypersum and the three relays
    of the law table's operations (see value) from these."""

    name: str

    def is_finite(self) -> bool:
        return False

    def elements(self) -> list[Element]:
        raise ValueError(f"{self.name} is not a finite carrier")

    def is_zero(self, x: Element) -> bool:
        return x == self.zero()

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

    # The law table (_laws) reads these three relays and the carrier's own
    # hyperadd, singleton, set_hyperadd, scale_set, set_mul and hypersum.
    def value(self, x: Element) -> Element:
        return x

    def times(self, x: Element, y: Element) -> Element:
        return self.mul(x, y)

    def has(self, s: CarrierSet, x: Element) -> bool:
        return s.contains(x)

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
    product, hyperadd_table maps (x, y) to a frozenset, neg_table and
    inv_table map x.  A prime field passes its modulus; its literals then
    reduce mod p."""

    def __init__(self, name: str, payloads: Sequence[Payload], zero, one,
                 mul_table, neg_table, inv_table, hyperadd_table,
                 modulus: Optional[int] = None):
        self.name = name
        self.modulus = modulus
        self._payloads = payloads
        self._int_payloads = all(isinstance(p, int) for p in payloads)
        # an element's place in payloads is its sort key and its code
        self._place = {p: i for i, p in enumerate(payloads)}
        # one Element and one singleton FiniteSet per payload, filled on
        # first use so that set-up of a large field builds none of them
        self._elem = _interned(name)
        self._single = _Interned(partial(_singleton_set, name))
        self._zero = self._elem[zero]
        self._one = self._elem[one]
        self._mul = mul_table
        self._neg = neg_table
        self._inv = inv_table
        self._add = hyperadd_table

    def is_finite(self) -> bool:
        return True

    def elements(self) -> list[Element]:
        elem = self._elem
        return [elem[p] for p in self._payloads]

    def zero(self) -> Element:
        return self._zero

    def one(self) -> Element:
        return self._one

    def element(self, raw) -> Element:
        if isinstance(raw, Element):
            return self.check(raw)
        payloads = self._payloads
        if raw in payloads:
            # the carrier's own payload, so 1.0 or True reads as 1
            return self._elem[payloads[payloads.index(raw)]]
        raise ValueError(f"{raw!r} is not in the carrier of {self.name}")

    # The single-valued operations index the (carrier, payload) pair.
    def mul(self, x: Element, y: Element) -> Element:
        if x[0] != self.name or y[0] != self.name:
            self.check(x), self.check(y)
        return self._elem[self._mul[x[1], y[1]]]

    def neg(self, x: Element) -> Element:
        if x[0] != self.name:
            self.check(x)
        return self._elem[self._neg[x[1]]]

    def inv(self, x: Element) -> Element:
        if x[0] != self.name:
            self.check(x)
        if x == self._zero:
            raise ZeroDivisionError(f"inv(0) in {self.name}")
        return self._elem[self._inv[x[1]]]

    def hyperadd(self, x: Element, y: Element) -> FiniteSet:
        self.check(x), self.check(y)
        return FiniteSet(self.name, self._add[(x.payload, y.payload)])

    def hypersum(self, xs: Sequence[Element]) -> FiniteSet:
        """Folds the payloads through the table; one FiniteSet at the end."""
        if not xs:
            raise ValueError("hypersum of an empty list")
        acc, add = self.singleton(xs[0]).finite, self._add
        for x in xs[1:]:
            y = self.check(x)[1]
            acc = add[(*acc, y)] if len(acc) == 1 else frozenset().union(
                *[add[z, y] for z in acc])
        return FiniteSet(self.name, acc)

    def set_hyperadd(self, a: FiniteSet, b: FiniteSet) -> FiniteSet:
        out = frozenset()
        for x in a.finite:
            for y in b.finite:
                out |= self._add[(x, y)]
        return FiniteSet(self.name, out)

    def scale_set(self, a: Element, s: FiniteSet) -> FiniteSet:
        self.check(a)
        return FiniteSet(self.name,
                         frozenset(self._mul[(a.payload, p)] for p in s.finite))

    def set_mul(self, a: FiniteSet, b: FiniteSet) -> FiniteSet:
        out = frozenset(self._mul[(x, y)] for x in a.finite for y in b.finite)
        return FiniteSet(self.name, out)

    def neg_set(self, s: FiniteSet) -> FiniteSet:
        return FiniteSet(self.name, frozenset(self._neg[p] for p in s.finite))

    def singleton(self, x: Element) -> FiniteSet:
        return self._single[self.check(x)[1]]

    def full_set(self) -> FiniteSet:
        return self._full

    @cached_property
    def _full(self) -> FiniteSet:
        return FiniteSet(self.name, frozenset(self._payloads))

    def remove_zero(self, s: FiniteSet) -> FiniteSet:
        return FiniteSet(self.name, s.finite - {self._zero.payload})

    def sample_elements(self, s: FiniteSet) -> list[Element]:
        elem = self._elem
        return [elem[p] for p in sorted(s.finite)]

    def sort_key(self, x: Element) -> int:
        return self._place[x.payload]

    @cached_property
    def codes(self) -> "CodeTable":
        """The integer-code tables of this carrier, built on first use."""
        return CodeTable(self)

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


class CodeTable:
    """A finite carrier as integer codes.  An element's code is its place in
    the carrier's payload list, which is also its sort key, so a polynomial
    is a tuple of codes and code tuples sort as polynomials do.
    Hyperaddition becomes a code -> bitmask table, and the masks a cell
    hypersum can reach are numbered in one step table: step[s][c] is the
    set (set s) (+) c, and the singleton {c} is set c.  A coefficient cell
    of a product is then one set number, and masks[s] is its bitmask."""

    def __init__(self, hf: FiniteHyperfield):
        self.hf = hf
        self.elements = hf.elements()
        n = len(self.elements)
        self.code = {x: c for c, x in enumerate(self.elements)}
        pays, pos = hf._payloads, hf._place
        self.zero, self.one = self.code[hf.zero()], self.code[hf.one()]
        self.mul = [[pos[hf._mul[(x, y)]] for y in pays] for x in pays]
        add = [[sum(1 << pos[z] for z in hf._add[(x, y)]) for y in pays]
               for x in pays]
        masks = [1 << c for c in range(n)]
        index = {m: c for c, m in enumerate(masks)}
        self.step = []
        for mask in masks:  # grows while new sums appear
            row = []
            for c in range(n):
                total = 0
                for b in range(n):
                    if mask >> b & 1:
                        total |= add[b][c]
                if total not in index:
                    index[total] = len(masks)
                    masks.append(total)
                row.append(index[total])
            self.step.append(row)
        self.masks, self.numbers = masks, index
        self.choices = [tuple(c for c in range(n) if m >> c & 1)
                        for m in masks]

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
        return [c for c in range(len(self.mul)) if c != self.zero]

    def encode(self, coeffs: Sequence[Element]) -> tuple[int, ...]:
        return tuple(self.code[x] for x in coeffs)

    def decode(self, codes: Sequence[int]) -> tuple[Element, ...]:
        return tuple(self.elements[c] for c in codes)

    # The operations the law table reads (see Hyperfield.value): a value is
    # a code and a set is a bitmask.  A set handed in is a singleton or a
    # sum x (+) y, so it has a set number.
    def value(self, x: Element) -> int:
        return self.code[x]

    def times(self, x: int, y: int) -> int:
        return self.mul[x][y]

    def hyperadd(self, x: int, y: int) -> int:
        return self.masks[self.step[x][y]]

    def singleton(self, x: int) -> int:
        return 1 << x

    def has(self, s: int, x: int) -> int:
        return s >> x & 1

    def set_hyperadd(self, s: int, t: int) -> int:
        """The union of s (+) c over the members c of t: one lookup when t
        is a singleton, and left to right when the table does not commute."""
        masks, row, out = self.masks, self.step[self.numbers[s]], 0
        for c in self.choices[self.numbers[t]]:
            out |= masks[row[c]]
        return out

    def scale_set(self, a: int, s: int) -> int:
        row, out = self.mul[a], 0
        for b in self.choices[self.numbers[s]]:
            out |= 1 << row[b]
        return out

    def set_mul(self, s: int, t: int) -> int:
        mul, right, out = self.mul, self.choices[self.numbers[t]], 0
        for b in self.choices[self.numbers[s]]:
            row = mul[b]
            for c in right:
                out |= 1 << row[c]
        return out

    def hypersum(self, xs: Sequence[int]) -> int:
        step, s = self.step, xs[0]
        for x in xs[1:]:
            s = step[s][x]
        return self.masks[s]

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
        """The cell tuples (set numbers) of q (x) r for q's row_terms and
        the terms of every r, where size is len(q) + len(r) - 1.  Every
        member is trimmed: the leading cell is the leading codes' product."""
        step, zero = self.step, self.zero
        out: set = set()
        for terms in r_terms:
            cells = [zero] * size
            for a, row in q_rows:
                for b, d in terms:
                    t = a + b
                    cells[t] = step[cells[t]][row[d]]
            out.add(tuple(cells))
        return out

    def expand(self, cell_tuples: Iterable) -> set:
        """Every member code tuple of the products with the given cells."""
        choices = self.choices
        out: set = set()
        for cells in cell_tuples:
            out.update(itertools.product(*[choices[s] for s in cells]))
        return out

    def members_of_product(self, q: Sequence[int], r: Sequence[int]):
        """Member code tuples of q (x) r for two trimmed code tuples."""
        (cells,) = self.product_cells(self.row_terms(q), [self.terms(r)],
                                      len(q) + len(r) - 1)
        return itertools.product(*[self.choices[s] for s in cells])

    def members_of_sum(self, p: Sequence[int], q: Sequence[int]):
        """Member code tuples of p (+) q for two trimmed code tuples, each
        trimmed of its leading zeros; the all-zero choice is no member."""
        if len(p) < len(q):
            p, q = q, p
        step, zero = self.step, self.zero
        cells = [step[c][d] for c, d in zip(p, q)] + list(p[len(q):])
        for combo in itertools.product(*[self.choices[s] for s in cells]):
            top = len(combo)
            while top and combo[top - 1] == zero:
                top -= 1
            if top:
                yield combo[:top]


def _sign_mul(payloads):
    return {(x, y): x * y for x in payloads for y in payloads}


def _frozen(add: dict) -> dict:
    return {k: frozenset(v) for k, v in add.items()}


def krasner() -> FiniteHyperfield:
    payloads = [0, 1]
    add = {(0, 0): {0}, (0, 1): {1}, (1, 0): {1}, (1, 1): {0, 1}}
    return FiniteHyperfield("K", payloads, 0, 1, _sign_mul(payloads),
                            {0: 0, 1: 1}, {1: 1}, _frozen(add))


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
                            {-1: 1, 0: 0, 1: -1}, {1: 1, -1: -1}, _frozen(add))


def signs() -> FiniteHyperfield:
    return _signs_like("S", lambda x: {x})


def weak_signs() -> FiniteHyperfield:
    return _signs_like("W", lambda x: {x, -x})


class _ProductModP:
    """The p x p product table of GF(p), computed on lookup."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        self.p = p

    def __getitem__(self, xy: tuple[int, int]) -> int:
        x, y = xy
        return x * y % self.p


class _SumModP:
    """The p x p hyperaddition table of GF(p), computed on lookup: every
    sum is one of p singletons."""

    __slots__ = ("p", "sums")

    def __init__(self, p: int):
        self.p = p
        self.sums = tuple(frozenset([z]) for z in range(p))

    def __getitem__(self, xy: tuple[int, int]) -> frozenset:
        x, y = xy
        return self.sums[(x + y) % self.p]


def gf(p: int) -> FiniteHyperfield:
    if p < 2 or any(p % d == 0 for d in range(2, int(math.isqrt(p)) + 1)):
        raise ValueError(f"GF({p}): modulus must be prime")
    if p > 1009:
        raise ValueError("GF(p) supported for p <= 1009")
    payloads = range(p)
    neg = {x: (-x) % p for x in payloads}
    inv = {x: pow(x, p - 2, p) for x in payloads[1:]}
    return FiniteHyperfield(f"GF({p})", payloads, 0, 1 % p, _ProductModP(p),
                            neg, inv, _SumModP(p), modulus=p)


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
                            mul, neg, inv_table, _frozen(add))


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
    try:
        return Fraction(body)
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"bad {kind} literal {literal!r}") from err


# ---------------------------------------------------------------------------
# tropical carrier (max-plus)


class TropicalHyperfield(Hyperfield):
    name = "T"

    def zero(self) -> Element:
        return Element(self.name, NEG_INF)

    def one(self) -> Element:
        return Element(self.name, _E0)

    def element(self, raw) -> Element:
        if isinstance(raw, Element):
            return self.check(raw)
        if raw == "-inf":
            return Element(self.name, NEG_INF)
        return Element(self.name, ExtRat(Fraction(raw)))

    def mul(self, x: Element, y: Element) -> Element:
        self.check(x), self.check(y)
        return Element(self.name, x.payload + y.payload)

    def neg(self, x: Element) -> Element:
        return self.check(x)

    def inv(self, x: Element) -> Element:
        self.check(x)
        if x.payload.inf:
            raise ZeroDivisionError("inv(-inf)")
        return Element(self.name, ExtRat(-x.payload.q))

    def hyperadd(self, x: Element, y: Element) -> IntervalSet:
        return self.hypersum([x, y])

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
        maxes = IntervalUnion.of(
            interval_max(i, j) for i in a.intervals.parts for j in b.intervals.parts)
        meet = a.intervals.intersect(b.intervals)
        if not meet.is_empty():
            top, attained = meet.max_value()
            maxes = maxes.union(IntervalUnion((Interval(NEG_INF, top, True, attained),)))
        return IntervalSet(self.name, maxes)

    def scale_set(self, a: Element, s: IntervalSet) -> IntervalSet:
        self.check(a)
        return IntervalSet(self.name, s.intervals.translate(a.payload))

    def set_mul(self, a: IntervalSet, b: IntervalSet) -> IntervalSet:
        out = IntervalUnion.of(
            interval_add(i, j) for i in a.intervals.parts for j in b.intervals.parts)
        return IntervalSet(self.name, out)

    def neg_set(self, s: IntervalSet) -> IntervalSet:
        return s

    def singleton(self, x: Element) -> IntervalSet:
        self.check(x)
        return IntervalSet(self.name, IntervalUnion.point(x.payload))

    def full_set(self) -> IntervalSet:
        whole = Interval(NEG_INF, POS_INF, True, False)
        return IntervalSet(self.name, IntervalUnion((whole,)))

    def remove_zero(self, s: IntervalSet) -> IntervalSet:
        return IntervalSet(self.name, s.intervals.remove_point(NEG_INF))

    def sample_elements(self, s: IntervalSet) -> list[Element]:
        return [Element(self.name, v) for v in s.intervals.sample_values()]

    def parse_scalar(self, text: str) -> Element:
        text = text.strip()
        if text in ("-inf", "-oo"):
            return self.zero()
        return Element(self.name, ExtRat(_rational(text, "T", text)))


# ---------------------------------------------------------------------------
# Viro carrier (triangle inequality)


class ViroHyperfield(Hyperfield):
    name = "V"

    def zero(self) -> Element:
        return Element(self.name, _E0)

    def one(self) -> Element:
        return Element(self.name, ExtRat(Fraction(1)))

    def element(self, raw) -> Element:
        if isinstance(raw, Element):
            return self.check(raw)
        q = Fraction(raw)
        if q < 0:
            raise ValueError(f"{q} is not a nonnegative rational")
        return Element(self.name, ExtRat(q))

    def mul(self, x: Element, y: Element) -> Element:
        self.check(x), self.check(y)
        return Element(self.name, ExtRat(_qmul(x.payload.q, y.payload.q)))

    def neg(self, x: Element) -> Element:
        return self.check(x)

    def inv(self, x: Element) -> Element:
        self.check(x)
        if x.payload.q == 0:
            raise ZeroDivisionError("inv(0)")
        return Element(self.name, ExtRat(1 / x.payload.q))

    def hyperadd(self, x: Element, y: Element) -> IntervalSet:
        self.check(x), self.check(y)
        lo = abs(_qsub(x.payload.q, y.payload.q))
        hi = _qadd(x.payload.q, y.payload.q)
        return IntervalSet(self.name, IntervalUnion.closed(lo, hi))

    def hypersum(self, xs: Sequence[Element]) -> IntervalSet:
        """[max(0, 2 max - sum), sum]: the polygon inequality."""
        if not xs:
            raise ValueError("hypersum of an empty list")
        if len(xs) == 1:
            return self.singleton(xs[0])
        ps = [self.check(x).payload for x in xs]
        total, top = sum(ps[1:], ps[0]), max(ps)
        lo = max(_E0, top + top + -total)
        return IntervalSet(self.name, IntervalUnion.closed(lo, total))

    def set_hyperadd(self, a: IntervalSet, b: IntervalSet) -> IntervalSet:
        if a.is_empty() or b.is_empty():
            raise ValueError("set_hyperadd of an empty set")
        out = []
        for i in a.intervals.parts:
            for j in b.intervals.parts:
                out.append(self._pair(i, j))
        return IntervalSet(self.name, IntervalUnion.of(out))

    @staticmethod
    def _pair(i: Interval, j: Interval) -> Interval:
        (meet_lo, lo_closed), (meet_hi, hi_closed) = \
            _later_start(i, j), _earlier_end(i, j)
        if not _is_empty(meet_lo, meet_hi, lo_closed, hi_closed):
            lo, lo_closed = _E0, True  # i and j overlap
        elif i.hi <= j.lo:
            gap = _qsub(j.lo.q, i.hi.q)
            lo = ExtRat(gap)
            lo_closed = (gap > 0 and j.lo_closed and i.hi_closed)
        else:
            gap = _qsub(i.lo.q, j.hi.q)
            lo = ExtRat(gap)
            lo_closed = (gap > 0 and i.lo_closed and j.hi_closed)
        hi = i.hi + j.hi
        hi_closed = i.hi_closed and j.hi_closed and hi.inf == 0
        return Interval(lo, hi, lo_closed, hi_closed)

    def scale_set(self, a: Element, s: IntervalSet) -> IntervalSet:
        self.check(a)
        if a.payload.q == 0:
            return self.singleton(self.zero())
        return IntervalSet(self.name, s.intervals.scale(a.payload.q))

    def set_mul(self, a: IntervalSet, b: IntervalSet) -> IntervalSet:
        out = IntervalUnion.of(
            interval_mul_nonneg(i, j)
            for i in a.intervals.parts for j in b.intervals.parts)
        return IntervalSet(self.name, out)

    def neg_set(self, s: IntervalSet) -> IntervalSet:
        return s

    def singleton(self, x: Element) -> IntervalSet:
        self.check(x)
        return IntervalSet(self.name, IntervalUnion.point(x.payload))

    def full_set(self) -> IntervalSet:
        whole = Interval(_E0, POS_INF, True, False)
        return IntervalSet(self.name, IntervalUnion((whole,)))

    def remove_zero(self, s: IntervalSet) -> IntervalSet:
        return IntervalSet(self.name, s.intervals.remove_point(Fraction(0)))

    def sample_elements(self, s: IntervalSet) -> list[Element]:
        return [Element(self.name, v) for v in s.intervals.sample_values()]

    def parse_scalar(self, text: str) -> Element:
        text = text.strip()
        return self.element(_rational(text, "V", text))


# ---------------------------------------------------------------------------
# phase carrier (unit circle plus zero)


class PhaseHyperfield(Hyperfield):
    name = "P"

    def zero(self) -> Element:
        return Element(self.name, None)

    def one(self) -> Element:
        return Element(self.name, Fraction(0))

    def element(self, raw) -> Element:
        if isinstance(raw, Element):
            return self.check(raw)
        if raw is None:
            return Element(self.name, None)
        return Element(self.name, Fraction(raw) % 2)

    def mul(self, x: Element, y: Element) -> Element:
        self.check(x), self.check(y)
        if x.payload is None or y.payload is None:
            return self.zero()
        return Element(self.name, angle_mod(_qadd(x.payload, y.payload)))

    def neg(self, x: Element) -> Element:
        self.check(x)
        if x.payload is None:
            return x
        return Element(self.name, (x.payload + 1) % 2)

    def inv(self, x: Element) -> Element:
        self.check(x)
        if x.payload is None:
            raise ZeroDivisionError("inv(0)")
        return Element(self.name, (-x.payload) % 2)

    def hyperadd(self, x: Element, y: Element) -> ArcSet:
        self.check(x), self.check(y)
        if x.payload is None:
            return self.singleton(y)
        if y.payload is None:
            return self.singleton(x)
        if x.payload == y.payload:
            return self.singleton(x)
        if (x.payload - y.payload) % 2 == 1:
            arcs = ArcUnion.point(x.payload).union(ArcUnion.point(y.payload))
            return ArcSet(self.name, ArcUnion(arcs.parts, has_zero=True))
        return ArcSet(self.name, minor_arc(x.payload, y.payload))

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
                parts.extend(_phase_generic_pieces(p, q))
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


def _phase_generic_pieces(p: Interval, q: Interval) -> list[Interval]:
    """Union of open minor arcs over x in p, y in q, skipping equal and
    antipodal pairs (those are handled separately by set_hyperadd).

    The angles a, b (of p) and c, d (of q) are handled as integers over
    their common denominator."""
    ends = (p.lo.q, p.hi.q, q.lo.q, q.hi.q)
    den = math.lcm(*(e._denominator for e in ends))
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

    The laws read their operations from ops: a finite carrier's code table
    (values are codes and sets bitmasks), else the carrier itself.  The
    texts name the points pts[i], and v[i] is the value of pts[i] in ops;
    a double-distributivity text prints the carrier's own sets."""
    pts = _points_of(hf, probe)
    ops = hf.codes if hf.is_finite() else hf
    zero, one = ops.value(hf.zero()), ops.value(hf.one())
    v = [ops.value(hf.check(x)) for x in pts]
    idx = range(len(pts))
    prod = [[ops.times(x, y) for y in v] for x in v]
    pair = [[ops.hyperadd(x, y) for y in v] for x in v]
    single = [ops.singleton(x) for x in v]
    neg = [ops.value(hf.neg(x)) for x in pts]
    hits = [[j for j in idx if ops.has(pair[i][j], zero)] for i in idx]
    minus = [[ops.hyperadd(x, y) for y in neg] for x in v]

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
            if ops.times(zero, x) != zero or ops.times(x, zero) != zero),
        "mul-commutative": (
            f"{pts[i]}*{pts[j]}" for i in idx for j in idx
            if prod[i][j] != prod[j][i]),
        "mul-associative": (
            f"({pts[i]}*{pts[j]})*{pts[k]}"
            for i in idx for j in idx for k in idx
            if ops.times(prod[i][j], v[k]) != ops.times(v[i], prod[j][k])),
        "mul-identity": (
            f"1*{pts[i]}" for i, x in enumerate(v) if ops.times(one, x) != x),
        "mul-inverse": (
            f"{pts[i]}*inv({pts[i]})" for i, x in enumerate(v)
            if x != zero and ops.times(x, ops.value(hf.inv(pts[i]))) != one),
        "hyperadd-commutative": (
            f"{pts[i]}(+){pts[j]}" for i in idx for j in idx
            if pair[i][j] != pair[j][i]),
        "hyperadd-identity": (
            f"0(+){pts[i]}" for i, x in enumerate(v)
            if ops.hyperadd(zero, x) != single[i]),
        "hyperadd-associative": (
            f"{pts[i]}(+)({pts[j]}(+){pts[k]})"
            for i in idx for j in idx for k in idx
            if ops.set_hyperadd(single[i], pair[j][k])
            != ops.set_hyperadd(pair[i][j], single[k])),
        "unique-hyperinverse": (
            f"inverses of {pts[i]}: {[str(pts[j]) for j in hits[i]]}"
            for i in idx
            if (neg[i] in v and neg[i] not in [v[j] for j in hits[i]])
            or any(v[j] != neg[i] for j in hits[i])),
        "reversibility": (
            f"x={pts[i]}, y={pts[j]}, z={pts[k]}"
            for i in idx for j in idx for k in idx
            if ops.has(pair[j][k], v[i]) != ops.has(minus[i][j], v[k])),
        "distributivity-left": (
            f"{pts[a]}*({pts[i]}(+){pts[j]})"
            for a in idx for i in idx for j in idx
            if ops.scale_set(v[a], pair[i][j])
            != ops.hyperadd(prod[a][i], prod[a][j])),
        "distributivity-right": (
            f"({pts[i]}(+){pts[j]})*{pts[a]}"
            for a in idx for i in idx for j in idx
            if ops.set_mul(pair[i][j], single[a])
            != ops.hyperadd(prod[i][a], prod[j][a])),
        "double-distributivity": (
            unequal_products(pts[a], pts[b], pts[c], pts[d])
            for a in idx for b in idx for c in idx for d in idx
            if ops.set_mul(pair[a][b], pair[c][d])
            != ops.hypersum([prod[a][c], prod[a][d], prod[b][c], prod[b][d]])),
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
