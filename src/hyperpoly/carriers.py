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
from functools import cached_property, lru_cache
from typing import Optional, Sequence, Union

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


@dataclass(frozen=True)
class Element:
    """One value of a hyperfield carrier, tagged with the carrier name."""

    carrier: str
    payload: Payload

    def __str__(self) -> str:
        return format_payload(self.payload)


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

    def _sole_payload(self) -> Payload:
        return next(iter(self.finite))

    def __str__(self) -> str:
        if not self.finite:
            return "{}"
        # a finite carrier's payloads are all ints or all strs
        inner = ",".join(format_payload(p) for p in sorted(self.finite))
        return "{%s}" % inner


@dataclass(frozen=True)
class IntervalSet(CarrierSet):
    """A union of intervals of extended rationals (the T and V carriers)."""

    intervals: IntervalUnion

    def is_empty(self) -> bool:
        return self.intervals.is_empty()

    def contains(self, x: Element) -> bool:
        self._check_element(x)
        return self.intervals.contains(_as_ext(x.payload))

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


def _payload_sort_key(p: Payload) -> tuple:
    if p is None:
        return (0,)
    if isinstance(p, ExtRat):
        return (1, p._key())
    if isinstance(p, Fraction):
        return (1, p)
    if isinstance(p, int):
        return (1, p)
    return (2, p)


def _as_ext(payload: Payload) -> ExtRat:
    if isinstance(payload, ExtRat):
        return payload
    if isinstance(payload, Fraction):
        return ExtRat(payload)
    raise TypeError(f"payload {payload!r} has no interval coordinate")


class Hyperfield:
    """Base carrier descriptor; subclasses fill in the operation table."""

    name: str

    # -- carrier structure ---------------------------------------------------
    def is_finite(self) -> bool:
        return False

    def elements(self) -> list[Element]:
        raise ValueError(f"{self.name} is not a finite carrier")

    def zero(self) -> Element:
        raise NotImplementedError

    def one(self) -> Element:
        raise NotImplementedError

    def element(self, raw) -> Element:
        """Validate and canonicalize a raw payload into an Element."""
        raise NotImplementedError

    def is_zero(self, x: Element) -> bool:
        return x == self.zero()

    # -- single-valued operations ---------------------------------------------
    def mul(self, x: Element, y: Element) -> Element:
        raise NotImplementedError

    def neg(self, x: Element) -> Element:
        raise NotImplementedError

    def inv(self, x: Element) -> Element:
        raise NotImplementedError

    # -- set-valued operations --------------------------------------------------
    def hyperadd(self, x: Element, y: Element) -> CarrierSet:
        raise NotImplementedError

    def set_hyperadd(self, a: CarrierSet, b: CarrierSet) -> CarrierSet:
        raise NotImplementedError

    def hypersum(self, xs: Sequence[Element]) -> CarrierSet:
        if not xs:
            raise ValueError("hypersum of an empty list")
        acc = self.singleton(xs[0])
        for x in xs[1:]:
            acc = self.set_hyperadd(acc, self.singleton(x))
        return acc

    def scale_set(self, a: Element, s: CarrierSet) -> CarrierSet:
        """{a (*) x : x in s} for a single element a."""
        raise NotImplementedError

    def set_mul(self, a: CarrierSet, b: CarrierSet) -> CarrierSet:
        """Elementwise product set {x (*) y : x in a, y in b}."""
        raise NotImplementedError

    def neg_set(self, s: CarrierSet) -> CarrierSet:
        raise NotImplementedError

    # -- set plumbing -----------------------------------------------------------
    def singleton(self, x: Element) -> CarrierSet:
        raise NotImplementedError

    def full_set(self) -> CarrierSet:
        raise NotImplementedError

    def remove_zero(self, s: CarrierSet) -> CarrierSet:
        raise NotImplementedError

    def sample_elements(self, s: CarrierSet) -> list[Element]:
        """Finitely many exact members covering every component of s."""
        raise NotImplementedError

    # -- text -----------------------------------------------------------------
    def format_element(self, x: Element) -> str:
        return format_payload(x.payload)

    def parse_scalar(self, text: str) -> Element:
        raise NotImplementedError

    def sort_key(self, x: Element) -> tuple:
        return _payload_sort_key(x.payload)

    # -- misc -------------------------------------------------------------------
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
        # symbols sort in table order; integer payloads sort by value
        self._rank = {} if self._int_payloads else {
            p: i for i, p in enumerate(payloads)}
        self._zero = Element(name, zero)
        self._one = Element(name, one)
        self._mul = mul_table
        self._neg = neg_table
        self._inv = inv_table
        self._add = hyperadd_table

    def is_finite(self) -> bool:
        return True

    def elements(self) -> list[Element]:
        return [Element(self.name, p) for p in self._payloads]

    def zero(self) -> Element:
        return self._zero

    def one(self) -> Element:
        return self._one

    def element(self, raw) -> Element:
        if isinstance(raw, Element):
            return self.check(raw)
        if raw in self._payloads:
            return Element(self.name, raw)
        raise ValueError(f"{raw!r} is not in the carrier of {self.name}")

    def mul(self, x: Element, y: Element) -> Element:
        self.check(x), self.check(y)
        return Element(self.name, self._mul[(x.payload, y.payload)])

    def neg(self, x: Element) -> Element:
        self.check(x)
        return Element(self.name, self._neg[x.payload])

    def inv(self, x: Element) -> Element:
        self.check(x)
        if x == self._zero:
            raise ZeroDivisionError(f"inv(0) in {self.name}")
        return Element(self.name, self._inv[x.payload])

    def hyperadd(self, x: Element, y: Element) -> FiniteSet:
        self.check(x), self.check(y)
        return FiniteSet(self.name, self._add[(x.payload, y.payload)])

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
        self.check(x)
        return FiniteSet(self.name, frozenset([x.payload]))

    def full_set(self) -> FiniteSet:
        return FiniteSet(self.name, frozenset(self._payloads))

    def remove_zero(self, s: FiniteSet) -> FiniteSet:
        return FiniteSet(self.name, s.finite - {self._zero.payload})

    def sample_elements(self, s: FiniteSet) -> list[Element]:
        return [Element(self.name, p) for p in sorted(s.finite)]

    def sort_key(self, x: Element) -> tuple:
        if isinstance(x.payload, str):
            return (2, self._rank[x.payload])
        return _payload_sort_key(x.payload)

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
                return Element(self.name, value % self.modulus)
            if value in self._payloads:
                return Element(self.name, value)
            raise ValueError(f"{value} is not in the carrier of {self.name}")
        if text in self._payloads:
            return Element(self.name, text)
        raise ValueError(f"{text!r} is not a symbol of {self.name}")


class CodeTable:
    """A finite carrier as integer codes.  Elements are numbered in display
    order (shortest text first), so a polynomial is a tuple of codes.
    Hyperaddition becomes a code -> bitmask table, and the masks a cell
    hypersum can reach are numbered in one step table: step[s][c] is the
    set (set s) (+) c, and the singleton {c} is set c.  A coefficient cell
    of a product is then one set number."""

    def __init__(self, hf: FiniteHyperfield):
        def display(x: Element) -> tuple:
            text = hf.format_element(x)
            return (len(text), text)

        self.elements = sorted(hf.elements(), key=display)
        n = len(self.elements)
        self.code = {x: c for c, x in enumerate(self.elements)}
        pays = [x.payload for x in self.elements]
        pos = {p: c for c, p in enumerate(pays)}
        self.zero = self.code[hf.zero()]
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
        self.choices = [tuple(c for c in range(n) if m >> c & 1)
                        for m in masks]
        # rank[c] is the place of code c in hf.sort_key order
        self.rank = [0] * n
        for i, c in enumerate(sorted(range(n), key=lambda c: hf.sort_key(
                self.elements[c]))):
            self.rank[c] = i

    def encode(self, coeffs: Sequence[Element]) -> tuple[int, ...]:
        return tuple(self.code[x] for x in coeffs)

    def decode(self, codes: Sequence[int]) -> tuple[Element, ...]:
        return tuple(self.elements[c] for c in codes)

    def sort_key(self, codes: Sequence[int]) -> tuple:
        """Orders code tuples as Polynomial.sort_key orders polynomials."""
        return (len(codes), tuple(self.rank[c] for c in reversed(codes)))

    def members_of_product(self, q: Sequence[int], r: Sequence[int]):
        """Member code tuples of q (x) r for two trimmed code tuples.  The
        leading cell is the single nonzero product of the leading codes,
        so every member is already trimmed."""
        zero, step, mul = self.zero, self.step, self.mul
        cells = [zero] * (len(q) + len(r) - 1)
        for a, c in enumerate(q):
            if c != zero:
                row, t = mul[c], a
                for d in r:
                    if d != zero:
                        cells[t] = step[cells[t]][row[d]]
                    t += 1
        return itertools.product(*[self.choices[s] for s in cells])


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
    n = int(tokens[0])
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
        if isinstance(raw, ExtRat):
            if raw.inf == 1:
                raise ValueError("+inf is not a tropical element")
            return Element(self.name, raw)
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
        self.check(x), self.check(y)
        if x.payload != y.payload:
            top = max(x.payload, y.payload)
            return IntervalSet(self.name, IntervalUnion.point(top))
        return IntervalSet(self.name, IntervalUnion((Interval(NEG_INF, x.payload),)))

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
        return Element(self.name, ExtRat(Fraction(text)))


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
        if isinstance(raw, ExtRat):
            if raw.inf or raw.q < 0:
                raise ValueError(f"{raw} is not a nonnegative rational")
            return Element(self.name, raw)
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
        return self.element(Fraction(text.strip()))


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
        text = text.strip()
        if text == "0":
            return self.zero()
        if text.startswith("ph(") and text.endswith(")"):
            return self.element(Fraction(text[3:-1]))
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
def _plain(name: str) -> Hyperfield:
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
        return gf(int(name[3:-1]))
    raise ValueError(f"unknown hyperfield {name!r}")


def by_name(name: str) -> Hyperfield:
    """Hyperfield selector: K, S, W, T, V, P, GF(p), W(G,e):<table-file>."""
    name = name.strip()
    if name.startswith("W(G,e):"):
        return load_cayley_table(name[len("W(G,e):"):])
    return _plain(name)


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


def check_axioms(hf: Hyperfield, probe: ProbeSpec) -> AxiomReport:
    """Decide (exhaustive) or falsify (probe) the hyperfield axioms.

    Covers the hypergroup axioms for (+) (identity, unique hyperinverse,
    reversibility, associativity as sets, commutativity), the commutative
    monoid axioms with inverses for (*), the absorbing zero, and both
    distributivity clauses.
    """
    pts = _points_of(hf, probe)
    zero, one = hf.zero(), hf.one()
    checks: list[AxiomCheck] = []
    n = len(pts)
    pair = {(i, j): hf.hyperadd(pts[i], pts[j])
            for i in range(n) for j in range(n)}

    def run(name: str, violation) -> None:
        checks.append(AxiomCheck(name, violation is None,
                                 None if violation is None else violation))

    run("zero-one-distinct", None if zero != one else "0 = 1")

    bad = next((f"0*{x}" for x in pts
                if hf.mul(zero, x) != zero or hf.mul(x, zero) != zero), None)
    run("absorbing-zero", bad)

    bad = next((f"{x}*{y}" for x in pts for y in pts
                if hf.mul(x, y) != hf.mul(y, x)), None)
    run("mul-commutative", bad)

    bad = next((f"({x}*{y})*{z}" for x in pts for y in pts for z in pts
                if hf.mul(hf.mul(x, y), z) != hf.mul(x, hf.mul(y, z))), None)
    run("mul-associative", bad)

    bad = next((f"1*{x}" for x in pts if hf.mul(one, x) != x), None)
    run("mul-identity", bad)

    bad = next((f"{x}*inv({x})" for x in pts
                if not hf.is_zero(x) and hf.mul(x, hf.inv(x)) != one), None)
    run("mul-inverse", bad)

    bad = next((f"{pts[i]}(+){pts[j]}" for i in range(n) for j in range(n)
                if pair[(i, j)] != pair[(j, i)]), None)
    run("hyperadd-commutative", bad)

    bad = next((f"0(+){x}" for x in pts
                if hf.hyperadd(zero, x) != hf.singleton(x)), None)
    run("hyperadd-identity", bad)

    bad = None
    singles = [hf.singleton(x) for x in pts]
    for i in range(n):
        for j in range(n):
            left_base = pair[(i, j)]
            for k in range(n):
                lhs = hf.set_hyperadd(singles[i], pair[(j, k)])
                rhs = hf.set_hyperadd(left_base, singles[k])
                if lhs != rhs:
                    bad = f"{pts[i]}(+)({pts[j]}(+){pts[k]})"
                    break
            if bad:
                break
        if bad:
            break
    run("hyperadd-associative", bad)

    bad = None
    for i, x in enumerate(pts):
        hits = [y for j, y in enumerate(pts) if pair[(i, j)].contains(zero)]
        expected = hf.neg(x)
        if probe.mode == "exhaustive":
            if set(hits) != {expected}:
                bad = f"inverses of {x}: {[str(h) for h in hits]}"
                break
        else:
            if (expected in pts and expected not in hits) or \
                    any(h != expected for h in hits):
                bad = f"inverses of {x}: {[str(h) for h in hits]}"
                break
    run("unique-hyperinverse", bad)

    bad = None
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            neg_add = hf.hyperadd(x, hf.neg(y))
            for k, z in enumerate(pts):
                if pair[(j, k)].contains(x) != neg_add.contains(z):
                    bad = f"x={x}, y={y}, z={z}"
                    break
            if bad:
                break
        if bad:
            break
    run("reversibility", bad)

    bad = next(
        (f"{a}*({pts[i]}(+){pts[j]})" for a in pts
         for i in range(n) for j in range(n)
         if hf.scale_set(a, pair[(i, j)])
         != hf.hyperadd(hf.mul(a, pts[i]), hf.mul(a, pts[j]))), None)
    run("distributivity-left", bad)

    bad = next(
        (f"({pts[i]}(+){pts[j]})*{a}" for a in pts
         for i in range(n) for j in range(n)
         if hf.set_mul(pair[(i, j)], hf.singleton(a))
         != hf.hyperadd(hf.mul(pts[i], a), hf.mul(pts[j], a))), None)
    run("distributivity-right", bad)

    return AxiomReport(hf.name, probe.mode, len(pts), tuple(checks))


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
    """Check (a(+)b)(c(+)d) = ac(+)ad(+)bc(+)bd as sets on all probed quadruples."""
    pts = _points_of(hf, probe)
    for a in pts:
        for b in pts:
            left = hf.hyperadd(a, b)
            for c in pts:
                for d in pts:
                    lhs = hf.set_mul(left, hf.hyperadd(c, d))
                    rhs = hf.hypersum([hf.mul(a, c), hf.mul(a, d),
                                       hf.mul(b, c), hf.mul(b, d)])
                    if lhs != rhs:
                        why = (f"a={a}, b={b}, c={c}, d={d}: "
                               f"{lhs} != {rhs}")
                        return DdistReport(hf.name, probe.mode, False, why)
    return DdistReport(hf.name, probe.mode, True)
