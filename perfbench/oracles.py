"""Independent reference answers for the benchmark's verdict checks.

Nothing here imports hyperpoly.  Finite carriers are rebuilt from the
hyperaddition rules of the weak/sign/Krasner hyperfields and classical
GF(p) arithmetic; product sets are enumerated by brute force.  Over the
tropical and triangle carriers the references are closed forms: the
hypersum cell of a list of values, the Newton-polygon multiplicity
(Baker & Lorscheid, arXiv:1811.04966) and, over S, Descartes' sign rule.

Polynomials are coefficient tuples c0..cn with a nonzero top entry.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Optional

NEG_INF = None  # the tropical zero in oracle coefficient tuples


# ---------------------------------------------------------------------------
# finite carriers


class FiniteModel:
    """A finite hyperfield from explicit rules: elements, zero, one, the
    single-valued product, negation and the set-valued sum."""

    def __init__(self, name, elems, zero, one, mul, neg, add):
        self.name = name
        self.elems = list(elems)
        self.zero = zero
        self.one = one
        self._mul = mul
        self._neg = neg
        self._add = add
        self.nonzero = [x for x in self.elems if x != zero]

    def mul(self, x, y):
        return self._mul(x, y)

    def neg(self, x):
        return self._neg(x)

    def add(self, x, y) -> frozenset:
        return self._add(x, y)

    def hypersum(self, values) -> frozenset:
        acc = frozenset([values[0]])
        for v in values[1:]:
            acc = frozenset(z for a in acc for z in self.add(a, v))
        return acc

    def set_add(self, a: frozenset, b: frozenset) -> frozenset:
        return frozenset(z for x in a for y in b for z in self.add(x, y))


def _sign_add(self_sum):
    def add(x, y):
        if x == 0:
            return frozenset([y])
        if y == 0:
            return frozenset([x])
        if x == y:
            return self_sum(x)
        return frozenset([-1, 0, 1])
    return add


@lru_cache(maxsize=None)
def plain_model(name: str) -> FiniteModel:
    if name == "K":
        return FiniteModel(
            "K", [0, 1], 0, 1, lambda x, y: x * y, lambda x: x,
            lambda x, y: frozenset([0, 1]) if x == y == 1
            else frozenset([x | y]))
    if name == "S":
        return FiniteModel("S", [-1, 0, 1], 0, 1, lambda x, y: x * y,
                           lambda x: -x, _sign_add(lambda x: frozenset([x])))
    if name == "W":
        return FiniteModel("W", [-1, 0, 1], 0, 1, lambda x, y: x * y,
                           lambda x: -x,
                           _sign_add(lambda x: frozenset([x, -x])))
    if name.startswith("GF("):
        p = int(name[3:-1])
        return FiniteModel(name, range(p), 0, 1, lambda x, y: x * y % p,
                           lambda x: -x % p,
                           lambda x, y: frozenset([(x + y) % p]))
    raise ValueError(f"no oracle model for {name}")


def weak_group_model(name: str, symbols: list, mul_table: dict,
                     identity: str, e: str) -> FiniteModel:
    """W(G,e): g (+) h is everything when h = e*g (so h = -g), else the
    whole group G; 0 is the additive identity."""
    everything = frozenset(["0", *symbols])
    group = frozenset(symbols)

    def mul(x, y):
        if x == "0" or y == "0":
            return "0"
        return mul_table[(x, y)]

    def neg(x):
        return "0" if x == "0" else mul_table[(e, x)]

    def add(x, y):
        if x == "0":
            return frozenset([y])
        if y == "0":
            return frozenset([x])
        return everything if y == neg(x) else group

    return FiniteModel(name, ["0", *symbols], "0", identity, mul, neg, add)


def trim(model: FiniteModel, coeffs) -> Optional[tuple]:
    c = list(coeffs)
    while len(c) > 1 and c[-1] == model.zero:
        c.pop()
    if len(c) == 1 and c[0] == model.zero:
        return None
    return tuple(c)


def product_cells(model: FiniteModel, p: tuple, q: tuple) -> list:
    cells = []
    for i in range(len(p) + len(q) - 1):
        terms = [model.mul(p[k], q[i - k])
                 for k in range(max(0, i - len(q) + 1), min(i, len(p) - 1) + 1)]
        cells.append(model.hypersum(terms))
    return cells


def box_members(model: FiniteModel, cells: list) -> frozenset:
    out = set()
    for combo in itertools.product(*cells):
        t = trim(model, combo)
        if t is not None:
            out.add(t)
    return frozenset(out)


def product_set(model: FiniteModel, left: frozenset,
                right: frozenset) -> frozenset:
    out = set()
    for p in left:
        for q in right:
            out |= box_members(model, product_cells(model, p, q))
    return frozenset(out)


def expr_set(model: FiniteModel, tree) -> frozenset:
    """tree is a coefficient tuple (a leaf) or ('*', left, right)."""
    if tree[0] != "*":
        return frozenset([tuple(tree)])
    return product_set(model, expr_set(model, tree[1]),
                       expr_set(model, tree[2]))


def evaluate(model: FiniteModel, p: tuple, a) -> frozenset:
    values, power = [], model.one
    for c in p:
        values.append(model.mul(c, power))
        power = model.mul(power, a)
    return model.hypersum(values)


def quotient_set(model: FiniteModel, p: tuple, a) -> frozenset:
    """Every q with p in (T - a) (x) q, by enumerating all q of degree
    deg p - 1 and testing the product box cellwise."""
    if len(p) < 2:
        return frozenset()
    ell = (model.neg(a), model.one)
    out = set()
    for lower in itertools.product(model.elems, repeat=len(p) - 2):
        for lead in model.nonzero:
            q = tuple(lower) + (lead,)
            cells = product_cells(model, ell, q)
            if all(c in cell for c, cell in zip(p, cells)):
                out.add(q)
    return frozenset(out)


def multiplicity(model: FiniteModel, p: tuple, a) -> int:
    """Recursive multiplicity from brute-force quotient sets."""
    if len(p) < 2 or model.zero not in evaluate(model, p, a):
        return 0
    qs = quotient_set(model, p, a)
    return 1 + max((multiplicity(model, q, a) for q in qs), default=0)


def gf_multiplicity(prime: int, p: tuple, a: int) -> int:
    """Classical root multiplicity by repeated synthetic division."""
    m = 0
    cur = list(p)
    while len(cur) > 1:
        acc, quo = 0, []
        for c in reversed(cur):
            acc = (acc * a + c) % prime
            quo.append(acc)
        if quo[-1] != 0:
            break
        cur = list(reversed(quo[:-1]))
        m += 1
    return m


def descartes(p: tuple, a: int) -> int:
    """Baker-Lorscheid over S: mult of 1 is the number of sign changes of
    the coefficients, of -1 that of p(-T), of 0 the lowest nonzero index."""
    if a == 0:
        return next(i for i, c in enumerate(p) if c != 0)
    signs = [c * (a ** i) for i, c in enumerate(p) if c != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def axioms_hold(model: FiniteModel) -> bool:
    """Exhaustive hyperfield axioms on the model's own tables."""
    els, zero, one = model.elems, model.zero, model.one
    for x in els:
        if model.add(zero, x) != frozenset([x]) or model.mul(one, x) != x:
            return False
        if [y for y in els if zero in model.add(x, y)] != [model.neg(x)]:
            return False
        for y in els:
            if model.add(x, y) != model.add(y, x):
                return False
            for z in els:
                left = model.set_add(frozenset([x]), model.add(y, z))
                right = model.set_add(model.add(x, y), frozenset([z]))
                if left != right:
                    return False
                if (x in model.add(y, z)) != (z in model.add(x, model.neg(y))):
                    return False
                scaled = frozenset(model.mul(x, w) for w in model.add(y, z))
                if scaled != model.add(model.mul(x, y), model.mul(x, z)):
                    return False
    return True


# ---------------------------------------------------------------------------
# tropical (max-plus) and triangle (V) closed forms; a cell is (lo, hi)
# with lo == hi for a point and lo = NEG_INF for the tie cell [-inf, max]


def trop_cell(values: list) -> tuple:
    finite = [v for v in values if v is not NEG_INF]
    if not finite:
        return (NEG_INF, NEG_INF)
    top = max(finite)
    if finite.count(top) > 1:
        return (NEG_INF, top)
    return (top, top)


def viro_cell(values: list) -> tuple:
    total = sum(values, Fraction(0))
    if len([v for v in values if v != 0]) <= 1:
        return (total, total)
    return (max(Fraction(0), 2 * max(values) - total), total)


def _trop_mul(x, y):
    return NEG_INF if x is NEG_INF or y is NEG_INF else x + y


def closed_cells(carrier: str, p: tuple, q: tuple) -> list:
    mul = _trop_mul if carrier == "T" else (lambda x, y: x * y)
    cell = trop_cell if carrier == "T" else viro_cell
    return [cell([mul(p[k], q[i - k])
                  for k in range(max(0, i - len(q) + 1),
                                 min(i, len(p) - 1) + 1)])
            for i in range(len(p) + len(q) - 1)]


def in_cell(value, cell: tuple) -> bool:
    lo, hi = cell
    if hi is NEG_INF:
        return value is NEG_INF
    if lo is NEG_INF:
        return value is NEG_INF or value <= hi
    if value is NEG_INF:
        return False
    return lo <= value <= hi


def in_closed_box(carrier: str, p: tuple, cells: list) -> bool:
    """p in the box: degree fits and every coefficient lies in its cell
    (cells above deg p must allow the carrier's zero)."""
    if len(p) > len(cells):
        return False
    zero = NEG_INF if carrier == "T" else Fraction(0)
    padded = list(p) + [zero] * (len(cells) - len(p))
    return all(in_cell(c, cell) for c, cell in zip(padded, cells))


def newton_multiplicity(p: tuple, a) -> int:
    """Over T the multiplicity of a is the width of the Newton-polygon edge
    of slope -a: the spread of indices where c_i + i*a attains the max."""
    if a is NEG_INF:
        return next(i for i, c in enumerate(p) if c is not NEG_INF)
    vals = [(c + i * a, i) for i, c in enumerate(p) if c is not NEG_INF]
    top = max(v for v, _ in vals)
    hits = [i for v, i in vals if v == top]
    return max(hits) - min(hits)


def newton_roots(p: tuple) -> list:
    """Root multiset (descending) of a monic tropical polynomial from its
    upper hull: an edge from (i, c_i) to (j, c_j) gives j - i roots
    (c_i - c_j)/(j - i); trailing -inf coefficients give roots -inf."""
    shift = next(i for i, c in enumerate(p) if c is not NEG_INF)
    pts = [(i, c) for i, c in enumerate(p) if c is not NEG_INF]
    hull: list = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) <= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    roots = []
    for (i1, c1), (i2, c2) in zip(hull, hull[1:]):
        roots.extend([Fraction(c1 - c2, i2 - i1)] * (i2 - i1))
    roots.sort(reverse=True)
    return roots + [NEG_INF] * shift


def gf_divide(prime: int, p: tuple, a: int) -> Optional[tuple]:
    """The classical quotient p / (T - a) over GF(p), None when a is not a
    root."""
    acc, out = 0, []
    for c in reversed(p):
        acc = (acc * a + c) % prime
        out.append(acc)
    if out[-1] != 0 or len(p) < 2:
        return None
    return tuple(reversed(out[:-1]))


def scan_count(model: FiniteModel, max_deg: int, monic: bool) -> int:
    """Non-associative multisets {p, q, r} of positive-degree polynomials
    up to max_deg: those whose three outer-choice products differ."""
    leads = [model.one] if monic else model.nonzero
    polys = [tuple(lower) + (lead,)
             for d in range(1, max_deg + 1) for lead in leads
             for lower in itertools.product(model.elems, repeat=d)]
    cache: dict = {}

    def outer(x, y, z):
        key = (x, frozenset([y, z]) if y != z else (y,))
        if key not in cache:
            cache[key] = expr_set(model, ("*", x, ("*", y, z)))
        return cache[key]

    bad = 0
    for p, q, r in itertools.combinations_with_replacement(polys, 3):
        if not outer(p, q, r) == outer(q, p, r) == outer(r, p, q):
            bad += 1
    return bad
