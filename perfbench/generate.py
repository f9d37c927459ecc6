"""Seeded query generators for the three workloads.

A query is text only, as a user would type it on the command line, plus
the reference data its oracle needs.  Generation never calls hyperpoly, so
the inputs for a seed stay the same whatever the program does.  Each pass
has a fixed number of queries per class (the mix below), so that the cost
of a pass hardly depends on the seed.
"""
from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import oracles as orc
from oracles import NEG_INF

# Queries per pass and class.  A pass holds enough queries that its cost
# hardly depends on the seed; each finite carrier's exhaustive axiom check
# is seed-independent, so it appears once.
FINITE_MIX = {"member": 336, "equal": 144, "assoc_check": 72,
              "quotients": 144, "mult_at": 168, "check_axioms": 10}
CONTINUOUS_MIX = {"member": 240, "equal": 96, "mult_at": 120,
                  "mult_set": 96, "root_multiset": 72,
                  "box_equivalence": 48, "is_reducible": 48,
                  "check_axioms": 12}
# (carrier, max_deg, monic_only); W(G,e) entries name a group file.  Two
# heavy calls (S and W, monic, degree 2) and many light ones, so that the
# latency tail has ten calls beyond it.  The full S degree-2 scan is left
# out: it alone takes 16 s on a 2-vCPU host, so a 15 s run would make one
# pass and time each call once.
SCAN_CALLS = [("S", 2, True), ("W", 2, True), ("K", 2, False), ("K", 2, True),
              ("K", 3, False), ("K", 1, False), ("K", 1, True),
              ("S", 1, False), ("W", 1, False), ("S", 1, True), ("W", 1, True),
              ("GF(2)", 1, False), ("GF(2)", 2, False), ("GF(2)", 2, True),
              ("GF(3)", 1, False), ("GF(3)", 2, False), ("GF(3)", 2, True),
              ("GF(5)", 1, False), ("GF(5)", 2, True), ("GF(7)", 1, False),
              ("GF(7)", 2, True), ("C2a", 1, False), ("C2a", 1, True),
              ("C3", 1, False), ("C3", 1, True), ("C4", 1, True),
              ("C4z", 1, True), ("V4", 1, True), ("V4a", 1, True),
              ("GF(2)", 1, True), ("GF(3)", 1, True), ("GF(5)", 1, True),
              ("GF(7)", 1, True), ("GF(11)", 1, True), ("GF(13)", 1, True),
              ("GF(17)", 1, True), ("GF(19)", 1, True), ("GF(23)", 1, True),
              ("GF(29)", 1, True), ("GF(31)", 1, True)]

# Queries that raise at the seed commit: (error text, reason).  They stay
# in the inputs; the run counts them in failed_ratio and lists them.
KNOWN_DEFECTS = {
    ("K", 3, False): (
        "ValueError: product degree exceeds the cap 6",
        "certifying a counterexample among degree-3 factors resolves a "
        "degree-9 product, past the degree cap of 6"),
}

SYMBOL_POOL = list("abcdfghkmnpqrsuvwxyz")


@dataclass
class Query:
    qclass: str
    carrier: str            # the --hf text
    args: dict              # option name -> text
    ref: dict = field(default_factory=dict)   # oracle data, never sent
    known_defect: Optional[tuple] = None   # (error text, reason)


@dataclass
class Group:
    """A finite abelian group written to a Cayley file for W(G,e)."""

    path: str
    symbols: list
    table: dict
    identity: str
    e: str

    def model(self) -> orc.FiniteModel:
        return orc.weak_group_model(self.carrier, self.symbols, self.table,
                                     self.identity, self.e)

    @property
    def carrier(self) -> str:
        return f"W(G,e):{self.path}"


# group key -> (kind, order, index of e); elements are 0..n-1 under
# addition mod n (cyclic) or xor (Klein four-group)
_GROUPS = {"C2a": ("cyclic", 2, 1), "C3": ("cyclic", 3, 0),
           "C4": ("cyclic", 4, 2), "C4z": ("cyclic", 4, 0),
           "V4": ("klein", 4, 0), "V4a": ("klein", 4, 1)}


def make_groups(rng: random.Random, directory: str, keys) -> dict:
    """Write one Cayley file per group key with seeded symbol names and
    row order; the identity row comes first, as the file format needs."""
    os.makedirs(directory, exist_ok=True)
    out = {}
    for key in keys:
        kind, n, e_index = _GROUPS[key]
        if kind == "cyclic":
            elements = list(range(n))
            op = lambda x, y, n=n: (x + y) % n
        else:
            elements = [0, 1, 2, 3]
            op = lambda x, y: x ^ y
        names = rng.sample(SYMBOL_POOL, n)
        name_of = dict(zip(elements, names))
        rest = elements[1:]
        rng.shuffle(rest)
        order = [0] + rest
        table = {(name_of[x], name_of[y]): name_of[op(x, y)]
                 for x in elements for y in elements}
        path = os.path.join(directory, f"{key}.txt")
        rows = [" ".join(name_of[op(x, y)] for y in order) for x in order]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{n}\n" + "\n".join(rows) + f"\n{name_of[e_index]}\n")
        out[key] = Group(path, [name_of[x] for x in order], table,
                         name_of[0], name_of[e_index])
    return out


# ---------------------------------------------------------------------------
# text rendering of coefficient tuples


def _rat_text(q: Fraction) -> str:
    return f"({q})" if q < 0 else str(q)


def poly_text(carrier: str, p: tuple, in_expr: bool = False) -> str:
    """Inside an expression '(' is structural, so phases are written
    e^{i a pi} there; tropical factors of expressions are generated with
    nonnegative coefficients, which need no parentheses."""
    terms = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        var = "" if i == 0 else ("T" if i == 1 else f"T^{i}")
        if carrier == "T":
            if c is NEG_INF:
                continue
            terms.append(("+", _rat_text(c) + var))
        elif carrier == "V":
            if c == 0:
                continue
            terms.append(("+", str(c) + var))
        elif carrier == "P":
            if c is None:
                continue
            text = f"e^{{i{c}pi}}" if in_expr else f"ph({c})"
            terms.append(("+", text + var))
        elif carrier in ("S", "W", "K"):
            if c == 0:
                continue
            body = var if (var and abs(c) == 1) else str(abs(c)) + var
            terms.append(("-" if c < 0 else "+", body))
        else:  # GF(p) and W(G,e): explicit coefficients
            if c == 0 or c == "0":
                continue
            terms.append(("+", f"{c}{var}"))
    text = ""
    for op, body in terms:
        text += (op + body) if (text or op == "-") else body
    return text


def expr_text(carrier: str, tree) -> str:
    """Every factor is parenthesized: (p)*((q)*(r))."""
    def wrap(t) -> str:
        text = expr_text(carrier, t)
        return text if t[0] != "*" else f"({text})"
    if tree[0] != "*":
        return f"({poly_text(carrier, tree, in_expr=True)})"
    return f"{wrap(tree[1])}*{wrap(tree[2])}"


# ---------------------------------------------------------------------------
# finite-decide


# Degrees of the three factors of equal and assoc_check queries over the
# three-element carriers, round-robin.  No (2, 2, 2): over W such a triple
# takes 5 to 300 ms with its coefficients, so the seed's draw of them would
# set the pass time; scan covers the degree-2 triples exhaustively.
TRIPLE_DEGREES = ((1, 1, 1), (1, 1, 2), (1, 2, 2))


def _nth(seq, i: int):
    """Round-robin pick, so each pass holds the same carriers and shapes
    whatever the seed."""
    return seq[i % len(seq)]


class FiniteGen:
    def __init__(self, rng: random.Random, groups: dict):
        self.rng = rng
        self.groups = groups
        self.models = {g.carrier: g.model() for g in groups.values()}

    def model(self, key: str) -> tuple:
        if key in self.groups:
            carrier = self.groups[key].carrier
            return carrier, self.models[carrier]
        return key, orc.plain_model(key)

    def poly(self, model: orc.FiniteModel, deg: int, monic=False) -> tuple:
        lower = [self.rng.choice(model.elems) for _ in range(deg)]
        lead = model.one if monic else self.rng.choice(model.nonzero)
        return tuple(lower) + (lead,)

    def member(self, i: int) -> Query:
        """Bracketings that resolve to a box, a coupled value (outer factor
        over an inner box) or an explicit finite set; half of the targets
        are drawn from the set, half from outside it."""
        rng = self.rng
        hf, model = self.model(_nth(("K", "S", "W", "C3", "C4", "V4",
                                     "GF(5)", "GF(1009)"), i))
        shape = _nth(("box", "coupled", "finite"), i // 8)
        inside = (i // 24) % 2 == 0
        big = len(model.elems) > 3
        pick = (lambda: 1) if big else (lambda: rng.randint(1, 2))
        while True:
            if shape == "box":
                tree = ("*", self.poly(model, rng.randint(1, 2)),
                        self.poly(model, rng.randint(1, 2)))
            elif shape == "coupled":
                tree = ("*", self.poly(model, pick()),
                        ("*", self.poly(model, 1), self.poly(model, pick())))
            else:
                tree = ("*", ("*", self.poly(model, 1), self.poly(model, 1)),
                        ("*", self.poly(model, 1), self.poly(model, 1)))
            members = orc.expr_set(model, tree)
            target = self._target(model, members, inside,
                                  max(len(p) for p in members) - 1)
            if target is not None:
                break
        return Query("member", hf, {"poly": poly_text(hf, target),
                                    "expr": expr_text(hf, tree)},
                     {"tree": tree, "target": target, "inside": inside})

    def _target(self, model, members, inside, deg):
        rng = self.rng
        if inside:
            return rng.choice(sorted(members, key=repr))
        for _ in range(50):
            cand = self.poly(model, rng.randint(max(1, deg - 1), deg))
            if cand not in members:
                return cand
        return None

    def equal(self, i: int) -> Query:
        rng = self.rng
        hf, model = self.model(_nth(("K", "S", "W", "C3", "V4", "GF(7)",
                                     "GF(1009)"), i))
        degrees = (1, 1, 1) if len(model.elems) > 3 \
            else _nth(TRIPLE_DEGREES, i // 21)
        p, q, r = (self.poly(model, d) for d in degrees)
        form = _nth(("direct", "outer", "box"), i // 7)
        if form == "direct":
            t1, t2 = ("*", p, ("*", q, r)), ("*", ("*", p, q), r)
        elif form == "outer":
            t1, t2 = ("*", p, ("*", q, r)), ("*", q, ("*", p, r))
        else:
            t1, t2 = ("*", p, q), ("*", rng.choice([q, r]), p)
        return Query("equal", hf, {"expr1": expr_text(hf, t1),
                                   "expr2": expr_text(hf, t2)},
                     {"trees": (t1, t2)})

    def assoc_check(self, i: int) -> Query:
        hf, model = self.model(_nth(("K", "S", "W", "C3", "GF(5)"), i))
        degrees = (1, 1, 1) if len(model.elems) > 3 \
            else _nth(TRIPLE_DEGREES, i // 5)
        polys = [self.poly(model, d) for d in degrees]
        args = {k: poly_text(hf, p) for k, p in zip(("p", "q", "r"), polys)}
        return Query("assoc_check", hf, args, {"polys": polys})

    def _with_root(self, model, a, q: tuple) -> tuple:
        """A member of (T - a) (x) q."""
        cells = orc.product_cells(model, (model.neg(a), model.one), q)
        return tuple(self.rng.choice(sorted(c, key=repr)) for c in cells)

    def quotients(self, i: int) -> Query:
        rng = self.rng
        hf, model = self.model(_nth(("K", "S", "W", "C3", "C4", "GF(7)",
                                     "GF(1009)"), i))
        deg = rng.randint(2, 3)
        a = rng.choice(model.elems)
        if (i // 7) % 2 == 0:
            p = self._with_root(model, a, self.poly(model, deg - 1))
        else:
            p = self.poly(model, deg)
        return Query("quotients", hf, {"poly": poly_text(hf, p),
                                       "root": str(a)}, {"p": p, "a": a})

    def mult_at(self, i: int) -> Query:
        """Roots built in once or twice, for multiplicities 1 to 3."""
        rng = self.rng
        hf, model = self.model(_nth(("S", "S", "K", "W", "C3", "GF(5)",
                                     "GF(1009)"), i))
        a = rng.choice(model.elems)
        p = self._with_root(model, a, self.poly(model, rng.randint(1, 2)))
        if (i // 7) % 2 == 0:
            p = self._with_root(model, a, p)
        return Query("mult_at", hf, {"poly": poly_text(hf, p),
                                     "root": str(a)}, {"p": p, "a": a})

    def check_axioms(self, i: int) -> Query:
        hf, _ = self.model(_nth(("C2a", "C3", "C4", "C4z", "V4", "V4a",
                                 "GF(5)", "GF(7)", "GF(11)", "GF(13)"), i))
        return Query("check_axioms", hf, {"mode": "exhaustive"})


def finite_queries(rng: random.Random, groups: dict) -> list:
    gen = FiniteGen(rng, groups)
    out = []
    for qclass, count in FINITE_MIX.items():
        out += [getattr(gen, qclass)(i) for i in range(count)]
    rng.shuffle(out)
    return out


FINITE_GROUPS = ("C2a", "C3", "C4", "C4z", "V4", "V4a")


# ---------------------------------------------------------------------------
# continuous-decide


def _scalar_text(carrier: str, x) -> str:
    if carrier == "T":
        return "-inf" if x is NEG_INF else str(x)
    if carrier == "P":
        return "0" if x is None else f"ph({x})"
    return str(x)


def _pmul(x, y):
    return None if x is None or y is None else (x + y) % 2


def _phase_sum2(x, y):
    """A member of x (+) y over P: the other summand when one is 0, x for
    equal phases, 0 for antipodes, else the middle of the open minor arc."""
    if x is None or y is None:
        return y if x is None else x
    if x == y:
        return x
    d = (y - x) % 2
    if d == 1:
        return None
    return (x + d / 2) % 2 if d < 1 else (y + (2 - d) / 2) % 2


class ContinuousGen:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def value(self, carrier: str, nonzero=False):
        rng = self.rng
        if carrier == "T":
            if not nonzero and rng.random() < 0.1:
                return NEG_INF
            return Fraction(rng.randint(0, 6), rng.choice((1, 1, 2)))
        if carrier == "V":
            lo = 1 if nonzero else 0
            return Fraction(rng.randint(lo, 6), rng.choice((1, 1, 2)))
        if not nonzero and rng.random() < 0.1:
            return None
        return Fraction(rng.randint(0, 11), 6)

    def poly(self, carrier: str, deg: int, monic=False) -> tuple:
        one = {"T": Fraction(0), "V": Fraction(1), "P": Fraction(0)}[carrier]
        lead = one if monic else self.value(carrier, nonzero=True)
        return tuple(self.value(carrier) for _ in range(deg)) + (lead,)

    def _pick(self, carrier: str, cell: tuple):
        lo, hi = cell
        if carrier == "T" and lo is NEG_INF and hi is not NEG_INF:
            return self.rng.choice([hi, hi - 1, NEG_INF])
        return self.rng.choice([lo, hi, (lo + hi) / 2]) if lo != hi else lo

    def _outside(self, carrier: str, p: tuple) -> tuple:
        i = self.rng.randrange(len(p) - 1) if len(p) > 1 else 0
        c = list(p)
        if carrier == "T":
            c[i] = (Fraction(7) if c[i] is NEG_INF else c[i] + 7)
        elif carrier == "V":
            c[i] = c[i] + 9
        else:
            c[i] = Fraction(1, 7) if c[i] is None else (c[i] + Fraction(1, 7)) % 2
        return tuple(c)

    def member(self, i: int) -> Query:
        rng = self.rng
        carrier = ("T", "V", "P")[i % 3]
        shape = ("box", "chain", "single", "search")[(i // 3) % 4]
        inside = (i // 12) % 2 == 0
        if carrier == "P":
            return self._phase_member(shape, inside)
        if shape == "box":
            p, q = self.poly(carrier, rng.randint(1, 2)), self.poly(carrier, rng.randint(1, 2))
            tree = ("*", p, q)
            cells = orc.closed_cells(carrier, p, q)
        elif shape in ("chain", "single"):
            outer = self.poly(carrier, 1 if shape == "chain" else 2)
            q, r = self.poly(carrier, 1, monic=True), self.poly(carrier, 1)
            tree = ("*", outer, ("*", q, r))
            inner = orc.closed_cells(carrier, q, r)
            pick = tuple(self._pick(carrier, c) for c in inner)
            cells = orc.closed_cells(carrier, outer, pick)
        else:
            outer = self.poly(carrier, 2)
            q, r = self.poly(carrier, 2), self.poly(carrier, 1)
            tree = ("*", outer, ("*", q, r))
            inner = orc.closed_cells(carrier, q, r)
            pick = tuple(self._pick(carrier, c) for c in inner)
            cells = orc.closed_cells(carrier, outer, pick)
        target = tuple(self._pick(carrier, c) for c in cells)
        if not inside:
            target = self._outside(carrier, target)
        target = self._trim(carrier, target)
        return Query("member", carrier, {"poly": poly_text(carrier, target),
                                         "expr": expr_text(carrier, tree)},
                     {"tree": tree, "target": target, "shape": shape,
                      "inside": inside})

    def _trim(self, carrier: str, p: tuple) -> tuple:
        zero = {"T": NEG_INF, "V": Fraction(0), "P": None}[carrier]
        c = list(p)
        while len(c) > 1 and c[-1] == zero:
            c.pop()
        return tuple(c)

    def _phase_member(self, shape: str, inside: bool) -> Query:
        """Over P every factor is linear and monic, so each product cell
        has at most two terms and an inside target is known in closed
        form (the program is never asked)."""
        a, b, c = (self.value("P", True) for _ in range(3))
        one = Fraction(0)
        m = _phase_sum2(a, b)
        if shape in ("box", "single"):
            tree = ("*", (a, one), (b, one))
            target = ((a + b) % 2, m, one)
        else:
            tree = ("*", (c, one), ("*", (a, one), (b, one)))
            target = ((a + b + c) % 2, _phase_sum2(_pmul(c, m), (a + b) % 2),
                      _phase_sum2(c, m), one)
        if not inside:
            target = self._outside("P", target)
        target = self._trim("P", target)
        return Query("member", "P", {"poly": poly_text("P", target),
                                     "expr": expr_text("P", tree)},
                     {"tree": tree, "target": target, "shape": shape,
                      "inside": inside})

    def equal(self, i: int) -> Query:
        rng = self.rng
        carrier = ("T", "V", "P")[i % 3]
        p, q, r = (self.poly(carrier, 1) for _ in range(3))
        if (i // 3) % 2 == 0:
            t1, t2 = ("*", p, q), ("*", rng.choice([q, r]), p)
        else:
            t1, t2 = ("*", p, ("*", q, r)), ("*", ("*", p, q), r)
        return Query("equal", carrier, {"expr1": expr_text(carrier, t1),
                                        "expr2": expr_text(carrier, t2)},
                     {"trees": (t1, t2)})

    def mult_at(self, i: int) -> Query:
        rng = self.rng
        carrier = ("T", "T", "P")[i % 3]
        if carrier == "T":
            roots = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(2, 4))]
            p = self._trop_member(roots)
            a = rng.choice(roots + [Fraction(rng.randint(-3, 3))])
        else:
            # a member of (T - a) (x) (T + b): the root a is built in
            a, b = self.value("P", True), self.value("P", True)
            minus_a = (a + 1) % 2
            p = ((minus_a + b) % 2, _phase_sum2(minus_a, b), Fraction(0))
        return Query("mult_at", carrier, {"poly": poly_text(carrier, p),
                                          "root": _scalar_text(carrier, a)},
                     {"p": p, "a": a})

    def _trop_member(self, roots: list) -> tuple:
        """A member of the box of prod (T + r_i): cell n-s holds the
        hypersum of the s-subset sums of the roots."""
        n = len(roots)
        cells = []
        for s in range(n, -1, -1):
            sums = [sum(c, Fraction(0))
                    for c in itertools.combinations(roots, s)] if s else [Fraction(0)]
            cells.append(orc.trop_cell(sums))
        return tuple(self._pick("T", c) for c in cells)

    def mult_set(self, i: int) -> Query:
        rng = self.rng
        deg = 1 if i % 4 == 0 else 2
        p = self.poly("V", deg)
        lo = Fraction(rng.randint(0, 4), rng.choice((1, 2)))
        region = (f"[{lo},inf)" if rng.random() < 0.5
                  else f"[{lo},{lo + rng.randint(1, 4)}]")
        return Query("mult_set", "V", {"poly": poly_text("V", p),
                                       "region": region},
                     {"p": p, "region": region})

    def root_multiset(self, i: int) -> Query:
        roots = [Fraction(self.rng.randint(-4, 4), self.rng.choice((1, 2)))
                 for _ in range(self.rng.randint(2, 4))]
        p = self._trop_member(roots)
        return Query("root_multiset", "T", {"poly": poly_text("T", p)},
                     {"p": p})

    def box_equivalence(self, i: int) -> Query:
        roots = [Fraction(self.rng.randint(-6, 6), self.rng.choice((1, 2)))
                 for _ in range(self.rng.randint(3, 4))]
        return Query("box_equivalence", "T",
                     {"roots": ",".join(str(r) for r in roots)},
                     {"roots": roots})

    def is_reducible(self, i: int) -> Query:
        rng = self.rng
        split = i % 2 == 0
        if split:
            # distinct roots: the product of linear factors is a singleton
            roots = rng.sample(range(-5, 6), 2)
            p = self._trop_member([Fraction(r) for r in roots])
        else:
            p = self.poly("T", 2, monic=True)
        return Query("is_reducible", "T", {"poly": poly_text("T", p)},
                     {"p": p, "split": split})

    def check_axioms(self, i: int) -> Query:
        """A seeded probe grid: zero, one and three further points."""
        carrier = ("T", "V", "P")[i % 3]
        zero = {"T": NEG_INF, "V": Fraction(0), "P": None}[carrier]
        one = {"T": Fraction(0), "V": Fraction(1), "P": Fraction(0)}[carrier]
        pts = [zero, one]
        while len(pts) < 5:
            x = self.value(carrier, nonzero=True)
            if x not in pts:
                pts.append(x)
        text = "{" + ",".join(_scalar_text(carrier, x) for x in pts) + "}"
        return Query("check_axioms", carrier, {"mode": "probe",
                                               "points": text})


def continuous_queries(rng: random.Random) -> list:
    gen = ContinuousGen(rng)
    out = []
    for qclass, count in CONTINUOUS_MIX.items():
        out += [getattr(gen, qclass)(i) for i in range(count)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# scan


SCAN_GROUPS = ("C2a", "C3", "C4", "C4z", "V4", "V4a")


def scan_queries(rng: random.Random, groups: dict) -> list:
    out = []
    for name, deg, monic in SCAN_CALLS:
        carrier = groups[name].carrier if name in groups else name
        out.append(Query("assoc_scan", carrier,
                         {"max_deg": str(deg), "monic_only": str(monic)},
                         known_defect=KNOWN_DEFECTS.get((name, deg, monic))))
    rng.shuffle(out)
    return out
