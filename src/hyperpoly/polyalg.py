"""Polynomials over a hyperfield and the two hyperoperations on them.

The product p (x) q and sum p (+) q of two polynomials are SETS of
polynomials.  Both are coefficient boxes: independent per-index value sets
(product cell i is the hypersum of c_k*d_l over k+l=i, sum cell i is
c_i (+) d_i).  Iterated products stop being boxes; the value of a deeper
tree is kept as an outer factor applied to a resolved inner box, and
membership questions are answered by an exact constraint solver over the
inner coefficient choices.

Expression text grammar: '(' ')' and '*' are structural; '+' is structural
only at atom boundaries (next to a parenthesis or at the ends of a
segment), otherwise it belongs to the polynomial literal.  So
"(T+1)*(T^2+1)" is a product of two atoms and "(T+1)+T" is a set-level sum.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field, asdict
from fractions import Fraction
from functools import cached_property
from typing import AbstractSet, Optional, Sequence, Union

from .carriers import (CarrierSet, Element, FiniteHyperfield, Hyperfield,
                       PhaseHyperfield, TropicalHyperfield, UndecidedError,
                       by_name)

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

    def __str__(self) -> str:
        return format_poly(self)


def monomial(hf: Hyperfield, n: int) -> Polynomial:
    return Polynomial.of(hf, [hf.zero()] * n + [hf.one()])


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
    always_coeff = isinstance(hf, TropicalHyperfield)
    parts: list[tuple[str, str]] = []
    for i in range(p.degree, -1, -1):
        c = p.coeff(i)
        if hf.is_zero(c) and not (i == 0 and not parts):
            continue
        text = hf.format_element(c)
        op = "+"
        if sign_join and text.startswith("-"):
            op, text = "-", text[1:]
        if text.startswith("-"):
            text = f"({text})"
        if i == 0:
            parts.append((op, text))
            continue
        var = "T" if i == 1 else f"T^{i}"
        if not always_coeff and text == hf.format_element(hf.one()):
            text = ""
        parts.append((op, text + var))
    out = ""
    for op, body in parts:
        if not out:
            out = body if op == "+" else op + body
        else:
            out += op + body
    return out


def _parse_rational(text: str) -> Fraction:
    return Fraction(text.replace(" ", ""))


def parse_scalar_literal(hf: Hyperfield, text: str) -> Element:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        return parse_scalar_literal(hf, text[1:-1])
    if isinstance(hf, PhaseHyperfield):
        compact = text.replace(" ", "")
        if compact.startswith("e^{i") and compact.endswith("pi}"):
            inner = compact[4:-3]
            return hf.element(_parse_rational(inner) if inner else Fraction(1))
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
            elif tail.startswith("^"):
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
    records that it was a possible selection."""

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

    def canonical(self) -> "PolyBox":
        """Trim {0} top cells; if only the top cell can be nonzero, drop its
        zero choice (it is realizable only through the excluded all-zero
        selection)."""
        hf = self.hf
        zero_set = hf.singleton(hf.zero())
        cells = list(self.cells)
        while len(cells) > 1 and cells[-1] == zero_set:
            cells.pop()
        if not cells:
            return PolyBox(hf, (), self.zero_excluded)
        if all(c == zero_set for c in cells[:-1]):
            # remove_zero labels its result with hf: refuse a foreign cell
            if cells[-1].carrier != hf.name:
                raise ValueError(
                    f"cell of {cells[-1].carrier} in a box over {hf.name}")
            top = hf.remove_zero(cells[-1])
            if top.is_empty():
                return PolyBox(hf, (), self.zero_excluded)
            cells[-1] = top
        return PolyBox(hf, tuple(cells), self.zero_excluded)

    def contains(self, p: Polynomial) -> bool:
        box = self.canonical()
        if box.is_empty() or p.degree > box.nominal_degree:
            return False
        return all(box.cell(i).contains(p.coeff(i))
                   for i in range(box.nominal_degree + 1))

    def is_singleton(self) -> bool:
        box = self.canonical()
        return bool(box.cells) and all(c.is_singleton() for c in box.cells)

    def the_polynomial(self) -> Polynomial:
        box = self.canonical()
        return Polynomial.of(self.hf,
                             [c.the_element() for c in box.cells])

    def member_set(self) -> frozenset:
        """All member polynomials (finite carriers only), unsorted.  The
        cells are checked once to belong to hf; each member is then built
        from its selection directly, with the leading zeros trimmed."""
        hf = self.hf
        box = self.canonical()
        for c in box.cells:
            if c.carrier != hf.name:
                raise ValueError(f"cell of {c.carrier} in a box over {hf.name}")
        if not (hf.is_finite() or all(c.is_singleton() for c in box.cells)):
            raise UndecidedError("cannot enumerate an infinite box")
        zero = hf.zero()
        out = set()
        for combo in itertools.product(*[hf.sample_elements(c)
                                         for c in box.cells]):
            top = len(combo)
            while top and combo[top - 1] == zero:
                top -= 1
            if top:
                out.add(Polynomial(hf, combo[:top]))
        return frozenset(out)

    def enumerate_members(self) -> list[Polynomial]:
        """All member polynomials (finite carriers only), sorted."""
        return sorted(self.member_set(), key=Polynomial.sort_key)

    def sample_members(self, limit: int = 200,
                       seed: Optional[int] = None) -> list[Polynomial]:
        """Deterministic member sample: cell-sample combinations (endpoints,
        midpoints) up to `limit`, plus seeded random mixes for large boxes."""
        box = self.canonical()
        if box.is_empty():
            return []
        choices = [self.hf.sample_elements(c) for c in box.cells]
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


def boxprod(p: Polynomial, q: Polynomial) -> PolyBox:
    """p (x) q: cell i is the hypersum of all c_k * d_l with k+l = i."""
    if p.hf != q.hf:
        raise ValueError("product across hyperfields")
    hf = p.hf
    cells = []
    for i in range(p.degree + q.degree + 1):
        terms = [hf.mul(p.coeff(k), q.coeff(i - k))
                 for k in range(max(0, i - q.degree),
                                min(i, p.degree) + 1)]
        cells.append(hf.hypersum(terms))
    return PolyBox(hf, tuple(cells))


def boxsum(p: Polynomial, q: Polynomial) -> PolyBox:
    """p (+) q: cell i is c_i (+) d_i at nominal degree max(deg p, deg q)."""
    if p.hf != q.hf:
        raise ValueError("sum across hyperfields")
    return box_hyperadd(box_of(p), box_of(q))


def box_hyperadd(a: PolyBox, b: PolyBox) -> PolyBox:
    """Set-level sum of two boxes; exact because cell choices stay independent."""
    hf = a.hf
    a, b = a.canonical(), b.canonical()
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


def _tokenize_expr(text: str) -> list[str]:
    tokens: list[str] = []
    buf = ""
    brace = 0
    for ch in text.replace(" ", ""):
        if ch == "{":
            brace += 1
        elif ch == "}":
            brace -= 1
        if brace == 0 and ch in "()*":
            if buf:
                tokens.append(buf)
                buf = ""
            tokens.append(ch)
        else:
            buf += ch
    if buf:
        tokens.append(buf)
    out: list[str] = []
    for tok in tokens:
        if tok in ("(", ")", "*"):
            out.append(tok)
            continue
        # '+' at a segment edge joins atoms; inner '+'/'-' stay in the literal
        seg = tok
        while seg.startswith("+"):
            out.append("+")
            seg = seg[1:]
        trailing = 0
        while seg.endswith("+"):
            trailing += 1
            seg = seg[:-1]
        if seg:
            out.append(("atom", seg))
        out.extend("+" * trailing)
    return out


def parse_expr(text: str, hf: Hyperfield) -> Expr:
    tokens = _tokenize_expr(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_sum() -> Expr:
        node = parse_product()
        while peek() == "+":
            take()
            node = SumNode(node, parse_product())
        return node

    def parse_product() -> Expr:
        node = parse_atom()
        while peek() == "*":
            take()
            node = ProdNode(node, parse_atom())
        return node

    def parse_atom() -> Expr:
        tok = peek()
        if tok == "(":
            take()
            node = parse_sum()
            if peek() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            take()
            return node
        if isinstance(tok, tuple):
            take()
            return PolyLeaf(parse_poly(tok[1], hf))
        raise ValueError(f"expected a polynomial atom in {text!r}")

    node = parse_sum()
    if pos != len(tokens):
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
# explicit finite enumeration


@dataclass(frozen=True)
class BoxValue:
    """A set of polynomials whose coefficients are chosen independently."""

    box: PolyBox

    def describe(self) -> str:
        return str(self.box)

    @cached_property
    def members(self) -> frozenset:
        """Every member, unsorted; enumerated at most once per value."""
        return self.box.member_set()

    def times(self, p: Polynomial) -> Resolved:
        """p (x) this set, for one polynomial p; the empty set stays empty."""
        box = self.box
        if box.is_empty():
            return self
        if box.is_singleton():
            q = box.the_polynomial()
            if p.degree + q.degree > MAX_DEGREE:
                raise ValueError(
                    f"product degree exceeds the cap {MAX_DEGREE}")
            return BoxValue(boxprod(p, q))
        if p.degree + box.nominal_degree > MAX_DEGREE:
            raise ValueError(f"product degree exceeds the cap {MAX_DEGREE}")
        hf = box.hf
        if all(hf.is_zero(c) for c in p.coeffs[:-1]):
            # cT^n (x) r is a singleton for every r, so the product of cT^n
            # with a box is again a box: shift and scale
            cells = (hf.singleton(hf.zero()),) * p.degree + tuple(
                hf.scale_set(p.coeffs[-1], c) for c in box.cells)
            return BoxValue(PolyBox(hf, cells, box.zero_excluded))
        return CoupledValue(p, box)

    def member_certificate(self, p: Polynomial,
                           expr_text: str) -> MemberCertificate:
        hf = p.hf
        cbox = self.box.canonical()
        steps = []
        if cbox.is_empty() or p.degree > cbox.nominal_degree:
            steps.append(CertStep("degree", None,
                                  f"degree {p.degree} outside the box"))
            return MemberCertificate("no", hf.name, str(p), expr_text, "box",
                                     steps=tuple(steps))
        for i in range(cbox.nominal_degree + 1):
            c, cell = p.coeff(i), cbox.cell(i)
            ok = cell.contains(c)
            steps.append(CertStep("cell" if ok else "fail", i,
                                  f"coeff T^{i}: {hf.format_element(c)} "
                                  f"{'in' if ok else 'not in'} {cell}"))
            if not ok:
                return MemberCertificate("no", hf.name, str(p), expr_text,
                                         "box", steps=tuple(steps))
        return MemberCertificate("yes", hf.name, str(p), expr_text, "box",
                                 steps=tuple(steps))

    def separator_candidates(self, seed: int) -> list[Polynomial]:
        return self.box.sample_members(60, seed)


@dataclass(frozen=True)
class CoupledValue:
    """outer (x) r for every member r of the inner box: the product
    coefficients are coupled through the shared choice of r."""

    outer: Polynomial
    inner: PolyBox

    def describe(self) -> str:
        return f"({self.outer}) (x) members of {self.inner}"

    @cached_property
    def members(self) -> frozenset:
        """Every member polynomial, unsorted (finite carriers only),
        enumerated on the carrier's integer codes and decoded once."""
        hf = self.outer.hf
        if not hf.is_finite():
            raise UndecidedError(
                "cannot enumerate members over an infinite carrier")
        codes = hf.codes
        q = codes.encode(self.outer.coeffs)
        out: set = set()
        for r in self.inner.member_set():
            out.update(codes.members_of_product(q, codes.encode(r.coeffs)))
        return frozenset(Polynomial(hf, codes.decode(t)) for t in out)

    def times(self, p: Polynomial) -> Optional[Resolved]:
        """A scalar rescales the outer factor; other factors leave the shape."""
        if p.degree == 0:
            return CoupledValue(scalar_prod(p.coeff(0), self.outer),
                                self.inner)
        return None

    def member_certificate(self, p: Polynomial,
                           expr_text: str) -> MemberCertificate:
        """The chain solver for a linear outer factor, the single-unknown
        solver when at most one inner cell is open, else enumeration over
        a finite carrier."""
        hf = p.hf
        q = self.outer
        cells, pre_steps = _truncate_inner(p, q, self.inner)
        if cells is None:
            return MemberCertificate("no", hf.name, str(p), expr_text,
                                     "degree", steps=tuple(pre_steps))
        if q.degree == 1:
            # every member of the product vanishes at the root of the linear
            # factor, so 0 not in p(a) already refutes membership; the chain
            # derivation below is complete either way and carries the detail
            a = hf.mul(hf.neg(q.coeff(0)), hf.inv(q.coeff(1)))
            pa = p.eval(a)
            method = "chain"
            if not pa.contains(hf.zero()):
                mono = ", ".join(hf.format_element(v)
                                 for v in p.monomial_values(a))
                pre_steps = pre_steps + [
                    CertStep("root", None,
                             f"the outer factor {q} has root "
                             f"{hf.format_element(a)}, so every member does"),
                    CertStep("eval", None,
                             f"p({hf.format_element(a)}) = hypersum of "
                             f"[{mono}] = {pa} does not contain 0"),
                ]
                method = "root-obstruction"
            domains, steps = solve_linear_chain(p, q, cells)
            steps = pre_steps + steps
            if domains is None:
                return MemberCertificate("no", hf.name, str(p), expr_text,
                                         method, steps=tuple(steps))
            assert method == "chain", \
                "chain found a member past a root obstruction"
            witness = chain_witness(p, q, domains)
            steps.append(CertStep("witness", None,
                                  f"inner choice r = {witness}; "
                                  f"p in ({q})*(r) checks cellwise"))
            return MemberCertificate("yes", hf.name, str(p), expr_text,
                                     "chain", witness=str(witness),
                                     steps=tuple(steps))
        singles = sum(1 for c in cells if not c.is_singleton())
        if singles <= 1:
            feasible, f, steps = solve_single_free(p, q, cells)
            steps = pre_steps + steps
            if feasible is None or (f is not None and feasible.is_empty()):
                return MemberCertificate("no", hf.name, str(p), expr_text,
                                         "single-unknown", steps=tuple(steps))
            picks = list(cells)
            if f is not None:
                choice = hf.sample_elements(feasible)[0]
                picks[f] = hf.singleton(choice)
            witness = Polynomial.of(hf, [c.the_element() for c in picks])
            steps.append(CertStep("witness", None,
                                  f"inner choice r = {witness}"))
            return MemberCertificate("yes", hf.name, str(p), expr_text,
                                     "single-unknown", witness=str(witness),
                                     steps=tuple(steps))
        if hf.is_finite():
            witness = None
            if p in self.members:
                witness = next((str(r) for r in self.inner.enumerate_members()
                                if boxprod(q, r).contains(p)), None)
            return _enumeration_cert(p, self.members, expr_text, witness)
        return MemberCertificate("undecided", hf.name, str(p), expr_text,
                                 "unsupported",
                                 steps=(CertStep("scope", None,
                                                 "several coupled coefficients "
                                                 "over an infinite carrier"),))

    def separator_candidates(self, seed: int) -> list[Polynomial]:
        out: list[Polynomial] = []
        for r in self.inner.sample_members(12, seed):
            out.extend(boxprod(self.outer, r).sample_members(8, seed))
        return out


@dataclass(frozen=True)
class FiniteValue:
    """An explicitly enumerated set of polynomials (finite carriers only)."""

    members: frozenset

    def describe(self) -> str:
        return "{%s}" % ", ".join(str(p) for p in
                                  sorted(self.members, key=Polynomial.sort_key))

    def times(self, p: Polynomial) -> None:
        return None

    def member_certificate(self, p: Polynomial,
                           expr_text: str) -> MemberCertificate:
        return _enumeration_cert(p, self.members, expr_text, str(p))


Resolved = Union[BoxValue, CoupledValue, FiniteValue]


def resolved_members(value: Resolved) -> list[Polynomial]:
    """Explicit sorted member list; finite carriers or finite boxes only."""
    return sorted(value.members, key=Polynomial.sort_key)


def resolve(expr: Expr, hf: Hyperfield) -> Resolved:
    if isinstance(expr, PolyLeaf):
        return BoxValue(box_of(expr.poly))
    left = resolve(expr.left, hf)
    right = resolve(expr.right, hf)
    if isinstance(expr, SumNode):
        if isinstance(left, BoxValue) and isinstance(right, BoxValue):
            return BoxValue(box_hyperadd(left.box, right.box))
        combine, scope = boxsum, "set-level sum of coupled values"
    else:
        left, right = (BoxValue(v.box.canonical())
                       if isinstance(v, BoxValue) else v
                       for v in (left, right))
        for a, b in ((left, right), (right, left)):
            if isinstance(a, BoxValue) and a.box.is_singleton():
                value = b.times(a.box.the_polynomial())
                if value is not None:
                    return value
        combine, scope = boxprod, "product of two undetermined polynomial sets"
    if not hf.is_finite():
        raise UndecidedError(f"{scope} is out of scope")
    out = set()
    for p in left.members:
        for q in right.members:
            out.update(combine(p, q).member_set())
    return FiniteValue(frozenset(out))


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
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

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
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

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


# ---------------------------------------------------------------------------
# exact membership solvers


def _truncate_inner(p: Polynomial, outer: Polynomial,
                    box: PolyBox) -> tuple[Optional[list[CarrierSet]], list[CertStep]]:
    """Cells for the inner factor when p must equal outer (x) r exactly:
    deg r = deg p - deg outer, cells above must allow 0, top cell loses 0."""
    hf = p.hf
    steps: list[CertStep] = []
    k = p.degree - outer.degree
    box = box.canonical()
    if k < 0 or k > box.nominal_degree:
        steps.append(CertStep("degree", None,
                              f"no inner choice of degree {k} exists"))
        return None, steps
    zero = hf.zero()
    for j in range(k + 1, box.nominal_degree + 1):
        if not box.cell(j).contains(zero):
            steps.append(CertStep(
                "degree", j,
                f"inner cell T^{j} = {box.cell(j)} cannot vanish, so every "
                f"member of the product has degree {outer.degree + j} > "
                f"{p.degree}"))
            return None, steps
    cells = [box.cell(i) for i in range(k + 1)]
    top = hf.remove_zero(cells[k])
    if top.is_empty():
        steps.append(CertStep(
            "degree", k,
            f"inner cell T^{k} = {cells[k]} has no nonzero choice"))
        return None, steps
    cells[k] = top
    return cells, steps


def solve_linear_chain(p: Polynomial, ell: Polynomial,
                       cells: list[CarrierSet]
                       ) -> tuple[Optional[list[CarrierSet]], list[CertStep]]:
    """Domains for r with p in ell (x) r, ell linear, via the reversibility
    chain c_i in l0*d_i (+) l1*d_{i-1}.  Returns (domains, trace); domains
    are arc-consistent along the chain, None when some domain empties."""
    hf = p.hf
    l0, l1 = ell.coeff(0), ell.coeff(1)
    m = len(cells) - 1
    steps: list[CertStep] = []
    domains = list(cells)

    def narrow(i: int, sols: CarrierSet, why: str) -> bool:
        domains[i] = domains[i].intersect(sols)
        tail = ""
        if domains[i].is_singleton():
            tail = f"; d{i} must be {hf.format_element(domains[i].the_element())}"
        steps.append(CertStep("narrow", i, f"{why} -> domain {domains[i]}{tail}"))
        return not domains[i].is_empty()

    # exact pins at both ends
    if hf.is_zero(l0):
        if not hf.is_zero(p.coeff(0)):
            steps.append(CertStep(
                "fail", 0,
                f"c0 = {hf.format_element(p.coeff(0))} but the product's "
                f"constant term is always 0"))
            return None, steps
        for i in range(1, m + 2):
            want = hf.mul(p.coeff(i), hf.inv(l1))
            if not narrow(i - 1, hf.singleton(want),
                          f"c{i} = l1*d{i-1} pins d{i-1} = {hf.format_element(want)}"):
                _fail_pin(hf, steps, i - 1, cells)
                return None, steps
        return domains, steps

    v0 = hf.mul(p.coeff(0), hf.inv(l0))
    if not narrow(0, hf.singleton(v0),
                  f"c0 = l0*d0 pins d0 = {hf.format_element(v0)}"):
        _fail_pin(hf, steps, 0, cells)
        return None, steps
    vtop = hf.mul(p.coeff(m + 1), hf.inv(l1))
    if not narrow(m, hf.singleton(vtop),
                  f"leading c{m+1} = l1*d{m} pins d{m} = {hf.format_element(vtop)}"):
        _fail_pin(hf, steps, m, cells)
        return None, steps

    for i in range(1, m + 1):
        prev = domains[i - 1]
        cur = domains[i]
        # c_i in l0*d_i (+) l1*d_{i-1}  <=>  d_i in inv(l0)*(c_i (+) -l1*d_{i-1})
        shifted = hf.scale_set(hf.inv(l0), hf.set_hyperadd(
            hf.singleton(p.coeff(i)),
            hf.neg_set(hf.scale_set(l1, prev))))
        ci = hf.format_element(p.coeff(i))
        ok = narrow(i, shifted,
                    f"c{i} = {ci} in l0*d{i} (+) l1*d{i-1} gives d{i} in {shifted}"
                    f"; intersect {cur}")
        if not ok:
            forward = hf.set_hyperadd(hf.scale_set(l0, cur),
                                      hf.scale_set(l1, prev))
            steps.append(CertStep(
                "fail", i,
                f"with d{i} in {cur} and d{i-1} in {prev}, "
                f"c{i} ranges over {forward} which does not contain {ci}"))
            return None, steps
    return domains, steps


def _fail_pin(hf: Hyperfield, steps: list[CertStep], i: int,
              cells: list[CarrierSet]) -> None:
    steps.append(CertStep("fail", i,
                          f"pinned value is outside cell {cells[i]}"))


def chain_witness(p: Polynomial, ell: Polynomial,
                  domains: list[CarrierSet]) -> Polynomial:
    """One inner polynomial from arc-consistent chain domains (backward walk)."""
    hf = p.hf
    m = len(domains) - 1
    picks: list[Optional[Element]] = [None] * (m + 1)
    picks[m] = hf.sample_elements(domains[m])[0]
    l0, l1 = ell.coeff(0), ell.coeff(1)
    for i in range(m, 0, -1):
        sols = hf.scale_set(hf.inv(l1), hf.set_hyperadd(
            hf.singleton(p.coeff(i)),
            hf.neg_set(hf.singleton(hf.mul(l0, picks[i])))))
        feas = domains[i - 1].intersect(sols)
        picks[i - 1] = hf.sample_elements(feas)[0]
    return Polynomial.of(hf, picks)


CHAIN_PER_LEVEL = 3  # sampled values kept per chain domain


def chain_representatives(p: Polynomial, ell: Polynomial,
                          domains: list[CarrierSet]) -> list[Polynomial]:
    """Several chain-consistent inner polynomials, branching on the sampled
    values of each domain (largest attained values first)."""
    hf = p.hf
    m = len(domains) - 1
    l0, l1 = ell.coeff(0), ell.coeff(1)

    def level_values(s: CarrierSet) -> list[Element]:
        vals = hf.sample_elements(s)
        return list(reversed(vals))[:CHAIN_PER_LEVEL]

    partials: list[list[Element]] = [[v] for v in level_values(domains[m])]
    for i in range(m, 0, -1):
        nxt: list[list[Element]] = []
        for tail in partials:
            top = tail[0]
            sols = hf.scale_set(hf.inv(l1), hf.set_hyperadd(
                hf.singleton(p.coeff(i)),
                hf.neg_set(hf.singleton(hf.mul(l0, top)))))
            feas = domains[i - 1].intersect(sols)
            for v in level_values(feas):
                nxt.append([v] + tail)
        # keep the search bounded but deterministic
        partials = nxt[:CHAIN_PER_LEVEL ** 3]
    out = []
    seen = set()
    for picks in partials:
        q = Polynomial.of(hf, picks)
        if q not in seen:
            seen.add(q)
            out.append(q)
    return out


def solve_single_free(p: Polynomial, q: Polynomial, cells: list[CarrierSet]
                      ) -> tuple[Optional[CarrierSet], Optional[int], list[CertStep]]:
    """Membership p in q (x) r where at most one cell of r is undetermined.

    Returns (feasible set for the free cell, its index, trace); the feasible
    set is None when some fully pinned constraint fails.  With no free cell
    the returned set is the whole-carrier stand-in and index is None."""
    hf = p.hf
    steps: list[CertStep] = []
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
        ci = hf.format_element(p.coeff(i))
        if unknown_mult is None:
            value = hf.hypersum(terms)
            if not value.contains(p.coeff(i)):
                steps.append(CertStep(
                    "fail", i, f"c{i} = {ci} not in the pinned hypersum {value}"))
                return None, f, steps
            steps.append(CertStep("check", i,
                                  f"c{i} = {ci} in pinned hypersum {value}"))
            continue
        if terms:
            rest = hf.hypersum(terms)
            sols = hf.scale_set(hf.inv(unknown_mult), hf.set_hyperadd(
                hf.singleton(p.coeff(i)), hf.neg_set(rest)))
        else:
            sols = hf.singleton(hf.mul(p.coeff(i), hf.inv(unknown_mult)))
        feasible = feasible.intersect(sols)
        tail = ""
        if feasible.is_singleton():
            tail = (f"; d{f} must be "
                    f"{hf.format_element(feasible.the_element())}")
        steps.append(CertStep(
            "narrow", i,
            f"c{i} = {ci} forces d{f} in {sols}; running domain {feasible}{tail}"))
        if feasible.is_empty():
            steps.append(CertStep("fail", i,
                                  f"no value of d{f} satisfies all "
                                  f"constraints through c{i}"))
            return None, f, steps
    return feasible, f, steps


def expr_member(p: Polynomial, expr: Expr) -> MemberCertificate:
    hf = p.hf
    expr_text = format_expr(expr)
    try:
        value = resolve(expr, hf)
    except UndecidedError as err:
        return MemberCertificate("undecided", hf.name, str(p), expr_text,
                                 "unsupported",
                                 steps=(CertStep("scope", None, str(err)),))
    return _member_in_resolved(p, value, expr_text)


def _member_in_resolved(p: Polynomial, value: Resolved,
                        expr_text: str) -> MemberCertificate:
    """The one membership decision for a resolved value."""
    return value.member_certificate(p, expr_text)


def _enumeration_cert(p: Polynomial, members: AbstractSet, expr_text: str,
                      witness: Optional[str]) -> MemberCertificate:
    present = p in members
    step = CertStep("enumerate", None,
                    f"enumerated {len(members)} members; "
                    f"{p} is {'present' if present else 'absent'}")
    return MemberCertificate("yes" if present else "no", p.hf.name, str(p),
                             expr_text, "enumeration",
                             witness=witness if present else None,
                             steps=(step,))


# ---------------------------------------------------------------------------
# set equality


def _member_with_pinned(box: PolyBox, i: int, x: Element) -> Polynomial:
    """Some member of the (canonical) box whose coefficient i equals x."""
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
    c1, c2 = b1.canonical(), b2.canonical()
    if c1.cells == c2.cells:
        detail = (CertStep("box", None,
                           f"both sides resolve to the box {c1}"),)
        return EqualCertificate("equal", hf.name, e1_text, e2_text,
                                detail=detail)
    k = max(c1.nominal_degree, c2.nominal_degree)
    for i in range(k + 1):
        a, b = c1.cell(i), c2.cell(i)
        if a == b:
            continue
        diff = a.difference(b)
        side = 1
        if diff.is_empty():
            diff = b.difference(a)
            side = 2
            c_in, c_out = c2, c1
        else:
            c_in, c_out = c1, c2
        x = hf.sample_elements(diff)[0]
        witness = _member_with_pinned(c_in, i, x)
        cert_in = BoxValue(c_in).member_certificate(
            witness, e1_text if side == 1 else e2_text)
        cert_out = BoxValue(c_out).member_certificate(
            witness, e2_text if side == 1 else e1_text)
        detail = (CertStep("cell", i,
                           f"coefficient sets at T^{i} differ: {a} vs {b}"),)
        return EqualCertificate("unequal", hf.name, e1_text, e2_text,
                                witness=str(witness), witness_side=side,
                                member_in=cert_in, member_out=cert_out,
                                detail=detail)
    raise AssertionError("differing boxes with identical cells")


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
    if isinstance(v1, BoxValue) and isinstance(v2, BoxValue):
        return _box_pair_certificate(t1, t2, v1.box, v2.box)
    only, side = s1 - s2, 1
    if not only:
        only, side = s2 - s1, 2
    w = min(only, key=key)
    if decode is not None:
        w = decode(w)
    v_in, v_out = (v1, v2) if side == 1 else (v2, v1)
    t_in, t_out = (t1, t2) if side == 1 else (t2, t1)
    cert_in = _member_in_resolved(w, v_in, t_in)
    cert_out = _member_in_resolved(w, v_out, t_out)
    detail = (CertStep("enumerate", None,
                       f"side 1 has {len(s1)} members, side 2 has "
                       f"{len(s2)}"),)
    return EqualCertificate("unequal", w.hf.name, t1, t2, witness=str(w),
                            witness_side=side, member_in=cert_in,
                            member_out=cert_out, detail=detail)


SEPARATOR_SEED = 11  # seed of the sampled separator candidates


def expr_equal(e1: Expr, e2: Expr, hf: Hyperfield) -> EqualCertificate:
    t1, t2 = format_expr(e1), format_expr(e2)
    try:
        v1 = resolve(e1, hf)
        v2 = resolve(e2, hf)
    except UndecidedError as err:
        return EqualCertificate("undecided", hf.name, t1, t2,
                                detail=(CertStep("scope", None, str(err)),))
    if isinstance(v1, BoxValue) and isinstance(v2, BoxValue):
        return _box_pair_certificate(t1, t2, v1.box, v2.box)
    if hf.is_finite():
        s1, s2 = v1.members, v2.members
        if s1 == s2:
            detail = (CertStep("enumerate", None,
                               f"both sides enumerate to the same "
                               f"{len(s1)} polynomials"),)
            return EqualCertificate("equal", hf.name, t1, t2, detail=detail)
        return unequal_certificate(t1, t2, v1, v2, s1, s2)
    # one side is coupled over an infinite carrier: hunt for a separator
    candidates = (v1.separator_candidates(SEPARATOR_SEED)
                  + v2.separator_candidates(SEPARATOR_SEED))
    for tried, w in enumerate(dict.fromkeys(candidates), 1):
        m1 = _member_in_resolved(w, v1, t1)
        m2 = _member_in_resolved(w, v2, t2)
        if "undecided" in (m1.verdict, m2.verdict):
            continue
        if m1.verdict != m2.verdict:
            side = 1 if m1.verdict == "yes" else 2
            cert_in = m1 if side == 1 else m2
            cert_out = m2 if side == 1 else m1
            detail = (CertStep("search", None,
                               f"separating polynomial found among "
                               f"{tried} sampled candidates"),)
            return EqualCertificate("unequal", hf.name, t1, t2,
                                    witness=str(w), witness_side=side,
                                    member_in=cert_in, member_out=cert_out,
                                    detail=detail)
    return EqualCertificate(
        "undecided", hf.name, t1, t2,
        detail=(CertStep("scope", None,
                         "no separator found and coupled sets cannot be "
                         "certified equal"),))


def replay_member(cert: MemberCertificate) -> bool:
    """Re-derive a membership certificate from its text fields alone."""
    hf = by_name(cert.hyperfield)
    p = parse_poly(cert.poly, hf)
    expr = parse_expr(cert.expr, hf)
    again = expr_member(p, expr)
    if again.verdict != cert.verdict:
        return False
    if cert.verdict == "yes" and cert.witness and cert.method in (
            "chain", "single-unknown", "enumeration"):
        value = resolve(expr, hf)
        if isinstance(value, CoupledValue):
            r = parse_poly(cert.witness, hf)
            if not value.inner.contains(r):
                return False
            if not boxprod(value.outer, r).contains(p):
                return False
    return True
