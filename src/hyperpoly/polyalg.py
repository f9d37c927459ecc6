"""Polynomials over a hyperfield and the two hyperoperations on them.

The product p (x) q and sum p (+) q of two polynomials are SETS of
polynomials.  Both are coefficient boxes: independent per-index value sets
(product cell i is the hypersum of c_k*d_l over k+l=i, sum cell i is
c_i (+) d_i).  Iterated products stop being boxes; the value of a deeper
tree is kept as an outer factor applied to a resolved inner box, and
membership questions are answered by an exact constraint solver over the
inner coefficient choices.

Expression text grammar: sum := product ('+' product)*, product := atom
('*' atom)*, atom := '(' sum ')' | literal, a literal being polynomial text
for parse_poly.  A group holding no 'T', '*' or '+' outside braces is a
scalar and stays in its literal, so "(T+(-1))*(ph(1/2)T)" is a product of
two literals.  A literal ends at ')', '*', and at a '+' that starts it, has
no term after it, precedes a non-scalar group or follows a lone scalar
group, so "(T+1)+T" and "((-1))+(2)" are set-level sums.
"""
from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from functools import cache, cached_property
from typing import (AbstractSet, Callable, Iterator, NamedTuple, Optional,
                    Sequence, Union)

from .carriers import (CarrierSet, Element, FiniteHyperfield, Hyperfield,
                       TropicalHyperfield, UndecidedError, by_name)

MAX_DEGREE = 6  # cap on parsed and product degrees


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class Polynomial:
    """Coefficient vector c0..cn over one hyperfield, cn nonzero."""

    hf: Hyperfield
    coeffs: tuple[Element, ...]

    @staticmethod
    def of(hf: Hyperfield, raws: Sequence) -> "Polynomial":
        elems = [hf.element(r) for r in raws]
        while len(elems) > 1 and hf.is_zero(elems[-1]):
            elems.pop()
        if len(elems) == 1 and hf.is_zero(elems[0]):
            raise ValueError("the zero polynomial is not a valid polynomial")
        if not elems:
            raise ValueError("a polynomial needs at least one coefficient")
        return Polynomial(hf, tuple(elems))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Element:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.hf.zero()

    def is_monic(self) -> bool:
        return self.coeffs[-1] == self.hf.one()

    def monomial_values(self, a: Element) -> list[Element]:
        hf = self.hf
        out, power = [], hf.one()
        for c in self.coeffs:
            out.append(hf.mul(c, power))
            power = hf.mul(power, a)
        return out

    def eval(self, a: Element) -> CarrierSet:
        """p(a): the hypersum of the monomial values c_i * a^i."""
        return self.hf.hypersum(self.monomial_values(a))

    def sort_key(self) -> tuple:
        return (self.degree,
                tuple(self.hf.sort_key(c) for c in reversed(self.coeffs)))

    @cached_property
    def _text(self) -> str:
        return format_poly(self)

    def __str__(self) -> str:
        return self._text


def scalar_prod(a: Element, p: Polynomial) -> Polynomial:
    if p.hf.is_zero(a):
        raise ValueError("scalar factor must be nonzero")
    return Polynomial(p.hf, tuple(p.hf.mul(a, c) for c in p.coeffs))


def monic_decompose(p: Polynomial) -> tuple[Element, Polynomial]:
    """(c_n, p0) with p0 monic and c_n (x) p0 = p."""
    lead = p.coeffs[-1]
    return lead, scalar_prod(p.hf.inv(lead), p)


# ---------------------------------------------------------------------------
# formatting and parsing


def format_poly(p: Polynomial) -> str:
    """Render so that parse_poly round-trips exactly.

    Sign-like finite carriers use '-' joins (T^3-1); tropical coefficients
    are always printed (the unit is 0) with negatives parenthesized, since a
    '-' join would re-parse through neg which is the identity there."""
    hf = p.hf
    sign_join = isinstance(hf, FiniteHyperfield)
    one = None if isinstance(hf, TropicalHyperfield) else \
        hf.format_element(hf.one())
    parts: list[str] = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if hf.is_zero(c) and (i or parts):
            continue
        text = hf.format_element(c)
        op = "+"
        if sign_join and text.startswith("-"):
            op, text = "-", text[1:]
        if text.startswith("-"):
            text = f"({text})"
        if i:
            text = ("" if text == one else text) + ("T" if i == 1 else f"T^{i}")
        parts.append(op + text)
    return "".join(parts).removeprefix("+")


def parse_scalar_literal(hf: Hyperfield, text: str) -> Element:
    """The carrier's literal, in any number of parentheses."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        return parse_scalar_literal(hf, text[1:-1])
    return hf.parse_scalar(text)


def parse_poly(text: str, hf: Hyperfield) -> Polynomial:
    """Parse `term ('+' term | '-' term)*` with per-carrier coefficients."""
    src = text.replace(" ", "").replace("-inf", "~inf")
    if not src:
        raise ValueError("empty polynomial")
    terms: list[str] = []
    depth, start = 0, 0
    for i, ch in enumerate(src):
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > start:
            terms.append(src[start:i])
            start = i
    terms.append(src[start:])
    coeffs: dict[int, Element] = {}
    top = 0
    for raw in terms:
        if not raw or raw in "+-":
            raise ValueError(f"bad polynomial {text!r}")
        sign = 1
        if raw[0] == "+":
            raw = raw[1:]
        elif raw[0] == "-":
            sign, raw = -1, raw[1:]
        raw = raw.replace("~inf", "-inf")
        if "T" in raw:
            head, _, tail = raw.partition("T")
            if tail == "":
                exp = 1
            elif tail[:1] == "^" and tail[1:].isdecimal():
                exp = int(tail[1:])
            else:
                raise ValueError(f"bad term {raw!r} in {text!r}")
            coeff = hf.one() if head == "" else parse_scalar_literal(hf, head)
        else:
            exp = 0
            coeff = parse_scalar_literal(hf, raw)
        if sign < 0:
            coeff = hf.neg(coeff)
        if exp in coeffs:
            raise ValueError(f"duplicate T^{exp} term in {text!r}")
        if exp > MAX_DEGREE:
            raise ValueError(f"degree {exp} exceeds the cap {MAX_DEGREE}")
        coeffs[exp] = coeff
        top = max(top, exp)
    if hf.is_zero(coeffs[top]) and top > 0:
        raise ValueError(f"zero leading coefficient in {text!r}")
    vec = [coeffs.get(i, hf.zero()) for i in range(top + 1)]
    return Polynomial.of(hf, vec)


# ---------------------------------------------------------------------------
# coefficient boxes


@dataclass(frozen=True)
class PolyBox:
    """Vector of per-coefficient value sets; denotes all polynomials whose
    padded coefficient vector selects from the cells, after trimming leading
    zeros.  The all-zero selection never yields a polynomial; zero_excluded
    records that it was a possible selection.  A box is also a resolved
    value: a set whose coefficients are chosen independently."""

    hf: Hyperfield
    cells: tuple[CarrierSet, ...]
    zero_excluded: bool = False

    @property
    def nominal_degree(self) -> int:
        return len(self.cells) - 1

    def cell(self, i: int) -> CarrierSet:
        if 0 <= i < len(self.cells):
            return self.cells[i]
        return self.hf.singleton(self.hf.zero())

    def is_empty(self) -> bool:
        return not self.cells

    def __post_init__(self) -> None:
        """Normalise once, so every box is canonical: trim {0} top cells;
        if only the top cell can be nonzero, drop its zero choice (it is
        realizable only through the excluded all-zero selection).  Equal
        sets then have equal cells.  A cell of another carrier is refused."""
        hf = self.hf
        for c in self.cells:
            if c.carrier != hf.name:
                raise ValueError(f"cell of {c.carrier} in a box over {hf.name}")
        top = self.cells[-1] if self.cells else None
        if top is not None and not (top.is_empty() or top.contains(hf.zero())):
            return  # a top cell without zero: nothing to trim or drop
        zero_set = hf.singleton(hf.zero())
        cells = list(self.cells)
        while len(cells) > 1 and cells[-1] == zero_set:
            cells.pop()
        if cells and all(c == zero_set for c in cells[:-1]):
            top = hf.remove_zero(cells[-1])
            cells[-1:] = [] if top.is_empty() else [top]
        object.__setattr__(self, "cells", tuple(cells))

    def canonical(self) -> "PolyBox":
        """The box itself: it is canonical since it was built.  The name
        stays because perfbench/tracer.py wraps PolyBox.canonical by name
        and tests/test_benchmark_contract.py requires it on the class."""
        return self

    def contains(self, p: Polynomial) -> bool:
        if self.is_empty() or p.degree > self.nominal_degree:
            return False
        return all(c.contains(p.coeff(i)) for i, c in enumerate(self.cells))

    def is_singleton(self) -> bool:
        return bool(self.cells) and all(c.is_singleton() for c in self.cells)

    def the_polynomial(self) -> Polynomial:
        """The sole member; canonical cells are checked, with a nonzero top."""
        return Polynomial(self.hf, tuple(c.the_element() for c in self.cells))

    def member_set(self) -> frozenset:
        """All member polynomials (finite carriers only), unsorted.  Each
        member is built from its selection directly, with the leading zeros
        trimmed."""
        hf = self.hf
        if not (hf.is_finite() or all(c.is_singleton() for c in self.cells)):
            raise UndecidedError("cannot enumerate an infinite box")
        zero = hf.zero()
        out = set()
        for combo in itertools.product(*[hf.sample_elements(c)
                                         for c in self.cells]):
            top = len(combo)
            while top and combo[top - 1] == zero:
                top -= 1
            if top:
                out.add(Polynomial(hf, combo[:top]))
        return frozenset(out)

    @cached_property
    def members(self) -> frozenset:
        """Every member, unsorted; enumerated at most once per box."""
        return self.member_set()

    def enumerate_members(self) -> list[Polynomial]:
        """All member polynomials (finite carriers only), sorted."""
        return sorted(self.member_set(), key=Polynomial.sort_key)

    def times(self, p: Polynomial) -> Resolved:
        """p (x) this set, for one polynomial p; the empty set stays empty."""
        if self.is_empty():
            return self
        if self.is_singleton():
            return boxprod(p, self.the_polynomial())
        hf = self.hf
        if all(hf.is_zero(c) for c in p.coeffs[:-1]):
            # cT^n (x) r is a singleton for every r, so the product of cT^n
            # with a box is again a box: shift and scale
            cells = (hf.singleton(hf.zero()),) * p.degree + tuple(
                hf.scale_set(p.coeffs[-1], c) for c in self.cells)
            return PolyBox(hf, cells, self.zero_excluded)
        return CoupledValue(p, self)

    def decide(self, p: Polynomial) -> Decision:
        if self.is_empty() or p.degree > self.nominal_degree:
            return Decision("no", "box", [StepRecord(
                "degree", None, "degree {} outside the box".format,
                (p.degree,))])
        steps = []
        for i in range(self.nominal_degree + 1):
            c, cell = p.coeff(i), self.cell(i)
            ok = cell.contains(c)
            steps.append(StepRecord("cell" if ok else "fail", i,
                                    "coeff T^{}: {} {} {}".format,
                                    (i, c, "in" if ok else "not in", cell)))
            if not ok:
                break
        return Decision("yes" if ok else "no", "box", steps)

    def separator_candidates(self, seed: int) -> list[Polynomial]:
        return self.sample_members(60, seed)

    def sample_members(self, limit: int = 200,
                       seed: Optional[int] = None) -> list[Polynomial]:
        """Deterministic member sample: cell-sample combinations (endpoints,
        midpoints) up to `limit`, plus seeded random mixes for large boxes."""
        if self.is_empty():
            return []
        choices = [self.hf.sample_elements(c) for c in self.cells]
        out: list[Polynomial] = []
        seen = set()

        def push(combo) -> None:
            if all(self.hf.is_zero(x) for x in combo):
                return
            p = Polynomial.of(self.hf, list(combo))
            if p not in seen:
                seen.add(p)
                out.append(p)

        for combo in itertools.islice(itertools.product(*choices), limit):
            push(combo)
        total = 1
        for c in choices:
            total *= max(len(c), 1)
        if total > limit and seed is not None:
            rng = random.Random(seed)
            for _ in range(limit // 4):
                push(tuple(rng.choice(c) for c in choices))
        return out

    def __str__(self) -> str:
        inner = "; ".join(f"T^{i}: {c}" for i, c in enumerate(self.cells))
        tail = " (zero selection excluded)" if self.zero_excluded else ""
        return f"[{inner}]{tail}"


def box_of(p: Polynomial) -> PolyBox:
    return PolyBox(p.hf, tuple(p.hf.singleton(c) for c in p.coeffs))


def _cell_terms(p: Polynomial, q: Polynomial, i: int) -> list[Element]:
    """The terms c_k * d_l with k+l = i of cell i of p (x) q."""
    return [p.hf.mul(p.coeff(k), q.coeff(i - k))
            for k in range(max(0, i - q.degree), min(i, p.degree) + 1)]


def boxprod(p: Polynomial, q: Polynomial) -> PolyBox:
    """p (x) q: cell i is the hypersum of all c_k * d_l with k+l = i."""
    if p.hf != q.hf:
        raise ValueError("product across hyperfields")
    hf = p.hf
    if hf.is_finite():  # the cell kernel's masks, as the interned sets
        enc = hf.codes.encode
        cells = hf.codes.cells_of_product(enc(p.coeffs), enc(q.coeffs))
        return PolyBox(hf, tuple([hf._set[m] for m in cells]))
    return PolyBox(hf, tuple(hf.hypersum(_cell_terms(p, q, i))
                             for i in range(p.degree + q.degree + 1)))


def in_product(p: Polynomial, q: Polynomial, r: Polynomial) -> bool:
    """p in q (x) r, cell by cell and without building the box: the first
    cell whose hypersum misses p's coefficient answers no.  The top cell
    is the nonzero product of the leading coefficients, so a member has
    degree deg q + deg r."""
    if not p.hf == q.hf == r.hf:
        raise ValueError("product across hyperfields")
    n = q.degree + r.degree
    return p.degree == n and all(
        p.hf.hypersum(_cell_terms(q, r, i)).contains(p.coeffs[i])
        for i in range(n + 1))


def boxsum(p: Polynomial, q: Polynomial) -> PolyBox:
    """p (+) q: cell i is c_i (+) d_i at nominal degree max(deg p, deg q)."""
    if p.hf != q.hf:
        raise ValueError("sum across hyperfields")
    return box_hyperadd(box_of(p), box_of(q))


def box_hyperadd(a: PolyBox, b: PolyBox) -> PolyBox:
    """Set-level sum of two boxes; exact because cell choices stay independent."""
    hf = a.hf
    k = max(a.nominal_degree, b.nominal_degree)
    cells = tuple(hf.set_hyperadd(a.cell(i), b.cell(i)) for i in range(k + 1))
    zero = hf.zero()
    excluded = all(c.contains(zero) for c in cells)
    return PolyBox(hf, cells, excluded)


def scale_box(a: Element, box: PolyBox) -> PolyBox:
    hf = box.hf
    if hf.is_zero(a):
        raise ValueError("scalar factor must be nonzero")
    return PolyBox(hf, tuple(hf.scale_set(a, c) for c in box.cells),
                   box.zero_excluded)


# ---------------------------------------------------------------------------
# product expressions


@dataclass(frozen=True)
class PolyLeaf:
    poly: Polynomial


@dataclass(frozen=True)
class ProdNode:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class SumNode:
    left: "Expr"
    right: "Expr"


Expr = Union[PolyLeaf, ProdNode, SumNode]


# a scalar group's text between its inner groups; a literal's up to a '('
_SCALAR_TEXT = re.compile(r"(?:[^(){}T*+]+|\{[^}]*\})*")
_LITERAL_TEXT = re.compile(r"(?:[^(){}*+]+|\{[^}]*\}|\+(?=[^()*+]))*")


def _scalar_end(src: str, i: int) -> int:
    """One past the ')' that closes the group opened at i, when the group
    is a scalar: it holds no 'T', '*' or '+' outside braces; else -1."""
    j = _SCALAR_TEXT.match(src, i + 1).end()
    while src[j:j + 1] == "(":
        j = _scalar_end(src, j)
        if j < 0:
            return -1
        j = _SCALAR_TEXT.match(src, j).end()
    return j + 1 if src[j:j + 1] == ")" else -1


def _literal_end(src: str, i: int) -> int:
    """One past the polynomial literal that starts at i (rules in the
    module docstring)."""
    if src[i:i + 1] == "+":
        return i
    j = _LITERAL_TEXT.match(src, i).end()
    while True:
        k = j + 1 if src[j:j + 1] == "+" else j
        end = _scalar_end(src, k) if src[k:k + 1] == "(" else -1
        if end < 0:
            return j
        if k == i and src[end:end + 1] == "+":
            return end
        j = _LITERAL_TEXT.match(src, end).end()


class _ExprParser:
    """One recursive-descent pass over src from pos.  Each rule returns
    (node, degree); the rules are methods, not closures over one another,
    so a parse leaves no reference cycle behind."""

    __slots__ = ("text", "hf", "src", "pos")

    def __init__(self, text: str, hf: Hyperfield):
        self.text, self.hf = text, hf
        self.src, self.pos = text.replace(" ", ""), 0

    def sum(self) -> tuple[Expr, int]:
        node, deg = self.product()
        while self.src[self.pos:self.pos + 1] == "+":
            self.pos += 1
            right, rdeg = self.product()
            node, deg = SumNode(node, right), max(deg, rdeg)
        return node, deg

    def product(self) -> tuple[Expr, int]:
        node, deg = self.atom()
        while self.src[self.pos:self.pos + 1] == "*":
            self.pos += 1
            right, rdeg = self.atom()
            node, deg = ProdNode(node, right), deg + rdeg
            if deg > MAX_DEGREE:
                raise ValueError(
                    f"product degree exceeds the cap {MAX_DEGREE}")
        return node, deg

    def atom(self) -> tuple[Expr, int]:
        src, pos = self.src, self.pos
        if src[pos:pos + 1] == "(" and _scalar_end(src, pos) < 0:
            self.pos += 1
            node = self.sum()
            if src[self.pos:self.pos + 1] != ")":
                raise ValueError(f"unbalanced parentheses in {self.text!r}")
            self.pos += 1
            return node
        end = _literal_end(src, pos)
        if end == pos:
            raise ValueError(f"expected a polynomial atom in {self.text!r}")
        poly = parse_poly(src[pos:end], self.hf)
        self.pos = end
        return PolyLeaf(poly), poly.degree


def parse_expr(text: str, hf: Hyperfield) -> Expr:
    """One pass over the text (grammar in the module docstring); a product's
    degree, the sum of its factors' (a sum's is the larger of its two), may
    not pass MAX_DEGREE."""
    parser = _ExprParser(text, hf)
    node, _ = parser.sum()
    if parser.pos != len(parser.src):
        raise ValueError(f"trailing input in {text!r}")
    return node


def format_expr(node: Expr) -> str:
    if isinstance(node, PolyLeaf):
        return f"({node.poly})"
    op = "*" if isinstance(node, ProdNode) else "+"
    left, right = node.left, node.right
    def wrap(n: Expr) -> str:
        if isinstance(n, PolyLeaf):
            return f"({n.poly})"
        return f"({format_expr(n)})"
    return f"{wrap(left)}{op}{wrap(right)}"


# ---------------------------------------------------------------------------
# resolution: each node becomes a box, an outer factor over a box, or an
# explicit finite enumeration.  Each value decides membership as a Decision;
# _member_in_resolved alone writes it out as a MemberCertificate.


class StepRecord(NamedTuple):
    """One step of a decision, raw: its kind and index, and a format with
    the values its text names.  The writers alone read the text."""

    kind: str
    index: Optional[int]
    fmt: Callable[..., str]
    values: tuple

    @property
    def text(self) -> str:
        return self.fmt(*self.values)


class Decision(NamedTuple):
    verdict: str  # 'yes' | 'no' | 'undecided'
    method: str
    steps: Sequence[StepRecord]
    found: Union[None, Polynomial, Callable[[], Polynomial]] = None

    @property
    def witness(self) -> Optional[Polynomial]:
        """The inner choice, or p itself; a chain `yes` builds it when read."""
        return self.found() if callable(self.found) else self.found


@dataclass(frozen=True)
class CoupledValue:
    """outer (x) r for every member r of the inner box: the product
    coefficients are coupled through the shared choice of r."""

    outer: Polynomial
    inner: PolyBox

    def __str__(self) -> str:
        return f"({self.outer}) (x) members of {self.inner}"

    @cached_property
    def _member_codes(self) -> dict:
        """Each member's code tuple -> the sort_key-least inner choice r that
        gives it (finite carriers only), from one walk over the inner box's
        cached members, greatest first, so that the least r is written
        last."""
        hf = self.outer.hf
        if not hf.is_finite():
            raise UndecidedError(
                "cannot enumerate members over an infinite carrier")
        codes = hf.codes
        q = codes.encode(self.outer.coeffs)
        inner = {codes.encode(r.coeffs): r for r in self.inner.members}
        table: dict = {}
        for t in sorted(inner, key=codes.sort_key, reverse=True):
            table.update(dict.fromkeys(codes.members_of_product(q, t),
                                       inner[t]))
        return table

    @cached_property
    def members(self) -> frozenset:
        """Every member polynomial, unsorted, decoded once."""
        hf = self.outer.hf
        return frozenset(Polynomial(hf, hf.codes.decode(t))
                         for t in self._member_codes)

    def times(self, p: Polynomial) -> Optional[Resolved]:
        """A scalar rescales the outer factor; other factors leave the shape."""
        if p.degree == 0:
            return CoupledValue(scalar_prod(p.coeff(0), self.outer),
                                self.inner)
        return None

    def decide(self, p: Polynomial) -> Decision:
        """The chain solver for a linear outer factor, the single-unknown
        solver when at most one inner cell is open, else enumeration over
        a finite carrier."""
        hf = p.hf
        q = self.outer
        cells, pre_steps = _truncate_inner(p, q, self.inner)
        if cells is None:
            return Decision("no", "degree", pre_steps)
        if q.degree == 1:
            # every member of the product vanishes at the root of the linear
            # factor, so 0 not in p(a) already refutes membership; the chain
            # derivation below is complete either way and carries the detail
            a = hf.mul(hf.neg(q.coeff(0)), hf.inv(q.coeff(1)))
            mono = p.monomial_values(a)
            pa = hf.hypersum(mono)  # p(a)
            method = "chain"
            if not pa.contains(hf.zero()):
                pre_steps = pre_steps + [
                    StepRecord("root", None, "the outer factor {} has root "
                               "{}, so every member does".format, (q, a)),
                    StepRecord("eval", None, _eval_text, (a, mono, pa))]
                method = "root-obstruction"
            domains, steps = solve_linear_chain(p, q, cells)
            steps = pre_steps + steps
            if domains is None:
                return Decision("no", method, steps)
            if method != "chain":
                raise AssertionError(
                    "chain found a member past a root obstruction")
            # chain_witness is looked up when called, so a tracer sees it
            witness = cache(lambda: chain_witness(p, q, domains))
            steps.append(StepRecord("witness", None, _chain_choice_text,
                                    (witness, q)))
            return Decision("yes", "chain", steps, witness)
        if sum(1 for c in cells if not c.is_singleton()) <= 1:
            witness, steps = solve_single_free(p, q, cells)
            steps = pre_steps + steps
            if witness is None:
                return Decision("no", "single-unknown", steps)
            steps.append(StepRecord("witness", None,
                                    "inner choice r = {}".format, (witness,)))
            return Decision("yes", "single-unknown", steps, witness)
        if hf.is_finite():
            member_codes = self._member_codes
            witness = member_codes.get(hf.codes.encode(p.coeffs))
            if witness is not None and not in_product(p, q, witness):
                raise AssertionError(
                    f"{p} is a member of {self}, but no "
                    f"inner choice gives it")
            return _enumeration_decision(p, len(member_codes), witness)
        return Decision("undecided", "unsupported", [StepRecord(
            "scope", None, str,
            ("several coupled coefficients over an infinite carrier",))])

    def separator_candidates(self, seed: int) -> Iterator[Polynomial]:
        """Drawn lazily, one inner choice's product sample at a time."""
        for r in self.inner.sample_members(12, seed):
            yield from boxprod(self.outer, r).sample_members(8, seed)


@dataclass(frozen=True)
class FiniteValue:
    """An explicitly enumerated set of polynomials (finite carriers only)."""

    members: frozenset

    def __str__(self) -> str:
        return "{%s}" % ", ".join(str(p) for p in
                                  sorted(self.members, key=Polynomial.sort_key))

    def times(self, p: Polynomial) -> None:
        return None

    def decide(self, p: Polynomial) -> Decision:
        return _enumeration_decision(
            p, len(self.members), p if p in self.members else None)


Resolved = Union[PolyBox, CoupledValue, FiniteValue]


def resolved_members(value: Resolved) -> list[Polynomial]:
    """Explicit sorted member list; finite carriers or finite boxes only."""
    return sorted(value.members, key=Polynomial.sort_key)


def resolve(expr: Expr, hf: Hyperfield) -> Resolved:
    if isinstance(expr, PolyLeaf):
        return box_of(expr.poly)
    left, right = resolve(expr.left, hf), resolve(expr.right, hf)
    if isinstance(expr, ProdNode):
        return product_value(left, right, hf)
    if isinstance(left, PolyBox) and isinstance(right, PolyBox):
        return box_hyperadd(left, right)
    if not hf.is_finite():
        raise UndecidedError("set-level sum of coupled values is out of scope")
    return FiniteValue(frozenset().union(*(
        boxsum(p, q).members for p in left.members for q in right.members)))


def product_value(left: Resolved, right: Resolved, hf: Hyperfield) -> Resolved:
    """resolve's product rule: left (x) right for two resolved sets."""
    for a, b in ((left, right), (right, left)):
        if isinstance(a, PolyBox) and a.is_singleton():
            value = b.times(a.the_polynomial())
            if value is not None:
                return value
    return _pairwise(left, right, hf)


def _pairwise(left, right, hf: Hyperfield) -> FiniteValue:
    """p (x) q over every member pair, on a finite carrier's integer codes;
    the members are decoded once."""
    if not hf.is_finite():
        raise UndecidedError(
            "product of two undetermined polynomial sets is out of scope")
    codes = hf.codes
    rights = [codes.encode(q.coeffs) for q in right.members]
    out: set = set()
    for p in left.members:
        p = codes.encode(p.coeffs)
        for q in rights:
            out.update(codes.members_of_product(p, q))
    return FiniteValue(frozenset(Polynomial(hf, codes.decode(t))
                                 for t in out))


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class CertStep:
    kind: str
    index: Optional[int]
    text: str


@dataclass(frozen=True)
class MemberCertificate:
    verdict: str  # 'yes' | 'no' | 'undecided'
    hyperfield: str
    poly: str
    expr: str
    method: str
    witness: Optional[str] = None
    steps: tuple[CertStep, ...] = ()

    def to_dict(self) -> dict:
        return _member_dict(self)

    @staticmethod
    def from_dict(data: dict) -> "MemberCertificate":
        steps = tuple(CertStep(**s) for s in data.get("steps", ()))
        return MemberCertificate(data["verdict"], data["hyperfield"],
                                 data["poly"], data["expr"], data["method"],
                                 data.get("witness"), steps)

    def __str__(self) -> str:
        head = {"yes": "YES", "no": "NO",
                "undecided": "UNDECIDED"}[self.verdict]
        lines = [f"{head}: {self.poly} in {self.expr} over {self.hyperfield}"
                 f" [{self.method}]"]
        if self.witness:
            lines.append(f"  witness: {self.witness}")
        lines.extend(f"  {s.text}" for s in self.steps)
        return "\n".join(lines)


@dataclass(frozen=True)
class EqualCertificate:
    verdict: str  # 'equal' | 'unequal' | 'undecided'
    hyperfield: str
    expr1: str
    expr2: str
    witness: Optional[str] = None
    witness_side: Optional[int] = None
    member_in: Optional[MemberCertificate] = None
    member_out: Optional[MemberCertificate] = None
    detail: tuple[CertStep, ...] = ()

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "hyperfield": self.hyperfield,
                "expr1": self.expr1, "expr2": self.expr2,
                "witness": self.witness, "witness_side": self.witness_side,
                "member_in": _member_dict(self.member_in),
                "member_out": _member_dict(self.member_out),
                "detail": _step_dicts(self.detail)}

    @staticmethod
    def from_dict(data: dict) -> "EqualCertificate":
        def sub(key):
            return (MemberCertificate.from_dict(data[key])
                    if data.get(key) else None)
        return EqualCertificate(
            data["verdict"], data["hyperfield"], data["expr1"], data["expr2"],
            data.get("witness"), data.get("witness_side"),
            sub("member_in"), sub("member_out"),
            tuple(CertStep(**s) for s in data.get("detail", ())))

    def __str__(self) -> str:
        head = {"equal": "EQUAL", "unequal": "UNEQUAL",
                "undecided": "UNDECIDED"}[self.verdict]
        lines = [f"{head}: {self.expr1} vs {self.expr2} "
                 f"over {self.hyperfield}"]
        if self.witness:
            side = self.witness_side
            lines.append(f"  witness {self.witness} belongs to side {side} only")
        lines.extend(f"  {s.text}" for s in self.detail)
        for sub in (self.member_in, self.member_out):
            if sub is not None:
                lines.extend("  | " + ln for ln in str(sub).splitlines())
        return "\n".join(lines)


def _step_dicts(steps: Sequence[CertStep]) -> tuple:
    """to_dict reads the declared fields, one key each, with no deep copy:
    steps become a tuple of dicts, a member certificate a dict or None."""
    return tuple({"kind": s.kind, "index": s.index, "text": s.text}
                 for s in steps)


def _member_dict(c: Optional[MemberCertificate]) -> Optional[dict]:
    return None if c is None else {
        "verdict": c.verdict, "hyperfield": c.hyperfield, "poly": c.poly,
        "expr": c.expr, "method": c.method, "witness": c.witness,
        "steps": _step_dicts(c.steps)}


# ---------------------------------------------------------------------------
# exact membership solvers


def _truncate_inner(p: Polynomial, outer: Polynomial, box: PolyBox
                    ) -> tuple[Optional[list[CarrierSet]], list[StepRecord]]:
    """Cells for the inner factor when p must equal outer (x) r exactly:
    deg r = deg p - deg outer, cells above must allow 0, top cell loses 0."""
    hf = p.hf
    steps: list[StepRecord] = []
    k = p.degree - outer.degree
    if k < 0 or k > box.nominal_degree:
        steps.append(StepRecord("degree", None, "no inner choice of degree "
                                "{} exists".format, (k,)))
        return None, steps
    zero = hf.zero()
    for j in range(k + 1, box.nominal_degree + 1):
        if not box.cell(j).contains(zero):
            steps.append(StepRecord(
                "degree", j, "inner cell T^{} = {} cannot vanish, so every "
                "member of the product has degree {} > {}".format,
                (j, box.cell(j), outer.degree + j, p.degree)))
            return None, steps
    cells = [box.cell(i) for i in range(k + 1)]
    top = hf.remove_zero(cells[k])
    if top.is_empty():
        steps.append(StepRecord("degree", k, "inner cell T^{} = {} has no "
                                "nonzero choice".format, (k, cells[k])))
        return None, steps
    cells[k] = top
    return cells, steps


def solve_linear_chain(p: Polynomial, ell: Polynomial,
                       cells: list[CarrierSet]
                       ) -> tuple[Optional[list[CarrierSet]], list[StepRecord]]:
    """Domains for r with p in ell (x) r, ell linear, via the reversibility
    chain c_i in l0*d_i (+) l1*d_{i-1}.  Returns (domains, trace); domains
    are arc-consistent along the chain, None when some domain empties."""
    hf = p.hf
    l0, l1 = ell.coeff(0), ell.coeff(1)
    m = len(cells) - 1
    steps: list[StepRecord] = []
    domains = list(cells)

    def narrow(i: int, sols: CarrierSet, fmt, *why) -> bool:
        domains[i] = domains[i].intersect(sols)
        steps.append(StepRecord("narrow", i, _narrowed,
                                (fmt, why, i, domains[i])))
        return not domains[i].is_empty()

    def pin(i: int, j: int, k: int, lead: str = "") -> bool:
        """Narrow d_i to the one value with c_j = l_k*d_i."""
        v = hf.mul(p.coeff(j), hf.inv(ell.coeff(k)))
        if narrow(i, hf.singleton(v), "{0}c{1} = l{2}*d{3} pins d{3} = {4} "
                  "-> ".format, lead, j, k, i, v):
            return True
        steps.append(StepRecord("fail", i, "pinned value is outside cell "
                                "{}".format, (cells[i],)))
        return False

    # exact pins at both ends
    if hf.is_zero(l0):
        if not hf.is_zero(p.coeff(0)):
            steps.append(StepRecord("fail", 0, "c0 = {} but the product's "
                                    "constant term is always 0".format,
                                    (p.coeff(0),)))
            return None, steps
        for i in range(1, m + 2):
            if not pin(i - 1, i, 1):
                return None, steps
        return domains, steps
    if not (pin(0, 0, 0) and pin(m, m + 1, 1, "leading ")):
        return None, steps

    for i in range(1, m + 1):
        prev = domains[i - 1]
        cur = domains[i]
        ci = p.coeff(i)
        shifted = _solve_term(hf, ci, l0, hf.scale_set(l1, prev))
        if not narrow(i, shifted, "c{0} = {1} in l0*d{0} (+) l1*d{2} gives "
                      "d{0} in {3}; intersect {4} -> ".format,
                      i, ci, i - 1, shifted, cur):
            steps.append(StepRecord("fail", i, _chain_gap_text,
                                    (hf, ell, i, cur, prev, ci)))
            return None, steps
    return domains, steps


def _chain_gap_text(hf: Hyperfield, ell: Polynomial, i: int, cur: CarrierSet,
                    prev: CarrierSet, ci: Element) -> str:
    forward = hf.set_hyperadd(hf.scale_set(ell.coeff(0), cur),
                              hf.scale_set(ell.coeff(1), prev))
    return (f"with d{i} in {cur} and d{i-1} in {prev}, "
            f"c{i} ranges over {forward} which does not contain {ci}")


def _narrowed(fmt: Callable[..., str], why: tuple, i: int,
              dom: CarrierSet) -> str:
    """fmt's text, then d_i's domain, and d_i's value when it has one."""
    text = f"{fmt(*why)}domain {dom}"
    if dom.is_singleton():
        return f"{text}; d{i} must be {dom.the_element()}"
    return text


def _eval_text(a: Element, mono: list[Element], pa: CarrierSet) -> str:
    return (f"p({a}) = hypersum of [{', '.join(map(str, mono))}] = {pa} "
            f"does not contain 0")


def _chain_choice_text(witness: Callable[[], Polynomial],
                       q: Polynomial) -> str:
    return f"inner choice r = {witness()}; p in ({q})*(r) checks cellwise"


def _solve_term(hf: Hyperfield, c: Element, u: Element,
                rest: CarrierSet) -> CarrierSet:
    """All x with c in u*x (+) rest, by reversibility: inv(u)*(c (+) -rest)."""
    return hf.scale_set(hf.inv(u), hf.set_hyperadd(hf.singleton(c),
                                                   hf.neg_set(rest)))


def _chain_walk(p: Polynomial, ell: Polynomial, domains: list[CarrierSet],
                pick, cap: Optional[int] = None) -> list[Polynomial]:
    """Inner polynomials from arc-consistent chain domains, walked backward
    from the top: pick(s) lists the values tried from each feasible set,
    cap bounds the partial choices kept per level.  Every walked tuple
    satisfies every chain constraint, and with pick listing all values the
    walk reaches every solution."""
    hf = p.hf
    l0, l1 = ell.coeff(0), ell.coeff(1)
    partials: list[list[Element]] = [[v] for v in pick(domains[-1])]
    for i in range(len(domains) - 1, 0, -1):
        nxt: list[list[Element]] = []
        for tail in partials:
            sols = _solve_term(hf, p.coeff(i), l1,
                               hf.singleton(hf.mul(l0, tail[0])))
            nxt.extend([v] + tail for v in pick(domains[i - 1].intersect(sols)))
        partials = nxt[:cap]
    return list(dict.fromkeys(Polynomial.of(hf, picks) for picks in partials))


def chain_witness(p: Polynomial, ell: Polynomial,
                  domains: list[CarrierSet]) -> Polynomial:
    """One inner polynomial from arc-consistent chain domains (backward walk)."""
    return _chain_walk(p, ell, domains,
                       lambda s: p.hf.sample_elements(s)[:1])[0]


CHAIN_PER_LEVEL = 3  # sampled values kept per chain domain


def chain_representatives(p: Polynomial, ell: Polynomial,
                          domains: list[CarrierSet]) -> list[Polynomial]:
    """Several chain-consistent inner polynomials, branching on the last
    CHAIN_PER_LEVEL sampled values of each domain, in reverse order."""
    return _chain_walk(
        p, ell, domains,
        lambda s: p.hf.sample_elements(s)[::-1][:CHAIN_PER_LEVEL],
        cap=CHAIN_PER_LEVEL ** 3)


def solve_single_free(p: Polynomial, q: Polynomial, cells: list[CarrierSet]
                      ) -> tuple[Optional[Polynomial], list[StepRecord]]:
    """Membership p in q (x) r where at most one cell of r is undetermined.

    Returns (an inner choice r with p in q (x) r, trace); r is None when
    some constraint fails.  The free cell, if any, takes the first sampled
    value of its feasible set."""
    hf = p.hf
    steps: list[StepRecord] = []
    free = [i for i, c in enumerate(cells) if not c.is_singleton()]
    if len(free) > 1:
        raise UndecidedError("more than one undetermined inner coefficient")
    f = free[0] if free else None
    pinned: dict[int, Element] = {i: c.the_element()
                                  for i, c in enumerate(cells) if i != f}
    feasible = cells[f] if f is not None else None
    k = len(cells) - 1
    for i in range(p.degree + 1):
        terms = []
        unknown_mult: Optional[Element] = None
        for s in range(max(0, i - k), min(i, q.degree) + 1):
            t = i - s
            if t == f:
                qs = q.coeff(s)
                if hf.is_zero(qs):
                    terms.append(hf.zero())
                else:
                    unknown_mult = qs
            else:
                terms.append(hf.mul(q.coeff(s), pinned[t]))
        ci = p.coeff(i)
        if unknown_mult is None:
            value = hf.hypersum(terms)
            if not value.contains(ci):
                steps.append(StepRecord("fail", i, "c{} = {} not in the "
                                        "pinned hypersum {}".format,
                                        (i, ci, value)))
                return None, steps
            steps.append(StepRecord("check", i, "c{} = {} in pinned hypersum "
                                    "{}".format, (i, ci, value)))
            continue
        if terms:
            sols = _solve_term(hf, ci, unknown_mult, hf.hypersum(terms))
        else:
            sols = hf.singleton(hf.mul(ci, hf.inv(unknown_mult)))
        feasible = feasible.intersect(sols)
        steps.append(StepRecord("narrow", i, _narrowed, (
            "c{} = {} forces d{} in {}; running ".format, (i, ci, f, sols),
            f, feasible)))
        if feasible.is_empty():
            steps.append(StepRecord("fail", i, "no value of d{} satisfies all "
                                    "constraints through c{}".format, (f, i)))
            return None, steps
    if f is not None:
        pinned[f] = hf.sample_elements(feasible)[0]
    return Polynomial.of(hf, [pinned[i] for i in range(len(cells))]), steps


def expr_member(p: Polynomial, expr: Expr) -> MemberCertificate:
    hf = p.hf
    expr_text = format_expr(expr)
    try:
        value = resolve(expr, hf)
    except UndecidedError as err:
        return MemberCertificate("undecided", hf.name, str(p), expr_text,
                                 "unsupported",
                                 steps=(CertStep("scope", None, str(err)),))
    return _member_in_resolved(p, value.decide(p), expr_text)


def _member_in_resolved(p: Polynomial, decision: Decision,
                        expr_text: str) -> MemberCertificate:
    """The one writer of a membership certificate: a resolved value's
    decision on p, written out, its raw steps rendered as text."""
    witness = decision.witness
    return MemberCertificate(
        decision.verdict, p.hf.name, str(p), expr_text, decision.method,
        None if witness is None else str(witness),
        tuple([CertStep(s.kind, s.index, s.text) for s in decision.steps]))


def _enumeration_decision(p: Polynomial, size: int,
                          witness: Optional[Polynomial]) -> Decision:
    present = witness is not None
    step = StepRecord("enumerate", None,
                      "enumerated {} members; {} is {}".format,
                      (size, p, "present" if present else "absent"))
    return Decision("yes" if present else "no", "enumeration", [step],
                    witness)


# ---------------------------------------------------------------------------
# set equality


def _member_with_pinned(box: PolyBox, i: int, x: Element) -> Polynomial:
    """Some member of the box whose coefficient i equals x."""
    hf = box.hf
    picks: list[Element] = []
    top = box.nominal_degree
    for j in range(top + 1):
        if j == i:
            picks.append(x)
            continue
        samples = hf.sample_elements(box.cell(j))
        nonzero = [v for v in samples if not hf.is_zero(v)]
        picks.append(nonzero[0] if (j == top and nonzero) else samples[0])
    if all(hf.is_zero(v) for v in picks):
        for j in range(top, -1, -1):
            if j == i:
                continue
            nonzero = [v for v in hf.sample_elements(box.cell(j))
                       if not hf.is_zero(v)]
            if nonzero:
                picks[j] = nonzero[0]
                break
    return Polynomial.of(hf, picks)


def _box_pair_certificate(e1_text: str, e2_text: str, b1: PolyBox,
                          b2: PolyBox) -> EqualCertificate:
    hf = b1.hf
    if b1.cells == b2.cells:
        detail = (CertStep("box", None,
                           f"both sides resolve to the box {b1}"),)
        return EqualCertificate("equal", hf.name, e1_text, e2_text,
                                detail=detail)
    k = max(b1.nominal_degree, b2.nominal_degree)
    for i in range(k + 1):
        a, b = b1.cell(i), b2.cell(i)
        if a == b:
            continue
        diff, side, b_in = a.difference(b), 1, b1
        if diff.is_empty():
            diff, side, b_in = b.difference(a), 2, b2
        witness = _member_with_pinned(b_in, i, hf.sample_elements(diff)[0])
        detail = CertStep("cell", i,
                          f"coefficient sets at T^{i} differ: {a} vs {b}")
        return _unequal(e1_text, e2_text, b1.decide(witness),
                        b2.decide(witness), witness, side, detail)
    raise AssertionError("differing boxes with identical cells")


def _unequal(t1: str, t2: str, d1: Decision, d2: Decision, w: Polynomial,
             side: int, *detail: CertStep) -> EqualCertificate:
    """The one writer of an UNEQUAL certificate: w belongs to side `side`
    only, and _member_in_resolved writes the decisions d1 and d2 of w on
    the two sides."""
    sides = ((t1, d1), (t2, d2))
    (t_in, d_in), (t_out, d_out) = sides if side == 1 else sides[::-1]
    return EqualCertificate("unequal", w.hf.name, t1, t2, witness=str(w),
                            witness_side=side,
                            member_in=_member_in_resolved(w, d_in, t_in),
                            member_out=_member_in_resolved(w, d_out, t_out),
                            detail=detail)


def unequal_certificate(t1: str, t2: str, v1: Resolved, v2: Resolved,
                        s1: AbstractSet, s2: AbstractSet,
                        key=Polynomial.sort_key,
                        decode=None) -> EqualCertificate:
    """UNEQUAL for two resolved sides whose member sets s1 and s2 differ:
    polynomials, or code tuples with their sort key and decoder.  Two boxes
    are compared cell by cell.  Otherwise the witness is the key-least
    member of s1 - s2, else of s2 - s1; the key is injective on one
    carrier, so it is the one a full sort would give.  Both memberships are
    stated by the membership procedure on the resolved values."""
    if isinstance(v1, PolyBox) and isinstance(v2, PolyBox):
        return _box_pair_certificate(t1, t2, v1, v2)
    only, side = s1 - s2, 1
    if not only:
        only, side = s2 - s1, 2
    w = min(only, key=key)
    if decode is not None:
        w = decode(w)
    detail = CertStep("enumerate", None,
                      f"side 1 has {len(s1)} members, side 2 has {len(s2)}")
    return _unequal(t1, t2, v1.decide(w), v2.decide(w), w, side, detail)


SEPARATOR_SEED = 11  # seed of the sampled separator candidates


def expr_equal(e1: Expr, e2: Expr, hf: Hyperfield) -> EqualCertificate:
    t1, t2 = format_expr(e1), format_expr(e2)
    try:
        v1 = resolve(e1, hf)
        v2 = resolve(e2, hf)
    except UndecidedError as err:
        return EqualCertificate("undecided", hf.name, t1, t2,
                                detail=(CertStep("scope", None, str(err)),))
    return equal_values(t1, t2, v1, v2, hf)


def equal_values(t1: str, t2: str, v1: Resolved, v2: Resolved,
                 hf: Hyperfield) -> EqualCertificate:
    """Equality of two resolved sets written t1 and t2: two boxes cell by
    cell, a finite carrier by enumeration, otherwise a separator search."""
    if isinstance(v1, PolyBox) and isinstance(v2, PolyBox):
        return _box_pair_certificate(t1, t2, v1, v2)
    if hf.is_finite():
        s1, s2 = v1.members, v2.members
        if s1 == s2:
            detail = (CertStep("enumerate", None,
                               f"both sides enumerate to the same "
                               f"{len(s1)} polynomials"),)
            return EqualCertificate("equal", hf.name, t1, t2, detail=detail)
        return unequal_certificate(t1, t2, v1, v2, s1, s2)
    # one side is coupled over an infinite carrier: draw candidates until
    # one separates the two sides' decisions, and write out only that pair.
    # A candidate is a member of the side it was drawn from, which can only
    # say yes or undecided, so that side is decided after the other's no
    seen: set = set()
    candidates = ((w, side, home, other)
                  for side, home, other in ((1, v1, v2), (2, v2, v1))
                  for w in home.separator_candidates(SEPARATOR_SEED)
                  if not (w in seen or seen.add(w)))
    for tried, (w, side, home, other) in enumerate(candidates, 1):
        d_out = other.decide(w)
        if d_out.verdict != "no":
            continue
        d_in = home.decide(w)
        if d_in.verdict == "yes":
            d1, d2 = (d_in, d_out) if side == 1 else (d_out, d_in)
            return _unequal(t1, t2, d1, d2, w, side,
                            CertStep("search", None,
                                     f"separating polynomial found among "
                                     f"{tried} sampled candidates"))
    return EqualCertificate(
        "undecided", hf.name, t1, t2,
        detail=(CertStep("scope", None,
                         "no separator found and coupled sets cannot be "
                         "certified equal"),))


def replay_member(cert: MemberCertificate) -> bool:
    """Re-derive a membership certificate from its text fields alone."""
    hf = by_name(cert.hyperfield)
    p = parse_poly(cert.poly, hf)
    try:
        value = resolve(parse_expr(cert.expr, hf), hf)
    except UndecidedError:
        return cert.verdict == "undecided"
    if value.decide(p).verdict != cert.verdict:
        return False
    if cert.verdict == "yes" and cert.witness and isinstance(value, CoupledValue):
        r = parse_poly(cert.witness, hf)
        return value.inner.contains(r) and in_product(p, value.outer, r)
    return True
