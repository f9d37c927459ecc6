"""Reproduction suite: one function per headline result, each returning a
pass/fail record with the computed evidence.  `run_all` prints the table the
`repro` CLI subcommand shows."""
from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .assoc import assoc_scan, one_plus_one_criterion, pointwise_products_equal
from .carriers import (IntervalSet, ProbeSpec, by_name, check_axioms,
                       cyclic_group_table, default_probe, gf,
                       is_doubly_distributive, weak_group)
from .divide import is_root, mult_at, mult_set, quotients
from .polyalg import expr_equal, expr_member, parse_expr, parse_poly, replay_member
from .sets import Interval, IntervalUnion, POS_INF, ext
from .tropical import box_equivalence, is_reducible, linear_product_box, root_multiset


@dataclass(frozen=True)
class ReproResult:
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{self.number:2d}. {mark}  {self.title} ({self.seconds:.2f}s)"


def _result(number: int, title: str, started: float, passed: bool,
            detail: str) -> ReproResult:
    return ReproResult(number, title, passed, detail,
                       time.perf_counter() - started)


def crit_01() -> ReproResult:
    t0 = time.perf_counter()
    lines = []
    ok = True
    exhaustive = [by_name("K"), by_name("S"), by_name("W"),
                  weak_group(*cyclic_group_table(3))]
    for hf in exhaustive:
        rep = check_axioms(hf, ProbeSpec.exhaustive())
        ok = ok and rep.ok
        lines.append(f"{hf.name}: {'ok' if rep.ok else 'VIOLATION'} "
                     f"({rep.points} points)")
    for hf in (by_name("T"), by_name("V"), by_name("P"), gf(5)):
        rep = check_axioms(hf, default_probe(hf))
        ok = ok and rep.ok
        lines.append(f"{hf.name}: {'ok' if rep.ok else 'VIOLATION'} "
                     f"({rep.mode}, {rep.points} points)")
    return _result(1, "hyperfield axioms (exhaustive + probe grids)", t0,
                   ok, "; ".join(lines))


def crit_02() -> ReproResult:
    t0 = time.perf_counter()
    s_rep = is_doubly_distributive(by_name("S"), ProbeSpec.exhaustive())
    w_rep = is_doubly_distributive(by_name("W"), ProbeSpec.exhaustive())
    ok = s_rep.holds and not w_rep.holds and w_rep.counterexample is not None
    return _result(2, "double distributivity: S yes, W no", t0, ok,
                   f"S holds; W fails at {w_rep.counterexample}")


def crit_03() -> ReproResult:
    t0 = time.perf_counter()
    hf = by_name("T")
    p = parse_poly("1T^3+(-2)", hf)
    ok = True
    for a in (-2, -5, Fraction(-3, 2)):
        ok = ok and p.eval(hf.element(a)) == hf.singleton(hf.element(-2))
    tie = p.eval(hf.element(-1))
    ok = ok and tie == hf.hyperadd(hf.element(-2), hf.element(-2))
    for a in (0, 1, 3, Fraction(1, 2)):
        want = hf.singleton(hf.element(1 + 3 * Fraction(a)))
        ok = ok and p.eval(hf.element(a)) == want
    return _result(3, "tropical evaluation of 1T^3+(-2) is piecewise", t0,
                   ok, f"value at -1 is {tie}")


def crit_04() -> ReproResult:
    t0 = time.perf_counter()
    hf = by_name("V")
    p = parse_poly("T^3+2T^2+11T+6", hf)
    yes = expr_member(p, parse_expr("(T+2)*((T+1)*(T+3))", hf))
    no = expr_member(p, parse_expr("(T+1)*((T+2)*(T+3))", hf))
    texts = [s.text for s in no.steps]
    ok = (yes.verdict == "yes" and no.verdict == "no"
          and any("d1 must be 5" in t for t in texts)
          and any("[4,6]" in t and "does not contain 2" in t for t in texts))
    return _result(4, "V: one bracketing contains T^3+2T^2+11T+6, the other"
                      " cannot", t0, ok,
                   f"yes witness {yes.witness}; no-trace pins d1=5 then "
                   f"c1 range [4,6] misses 2")


def crit_05() -> ReproResult:
    t0 = time.perf_counter()
    hf = by_name("P")
    cubic = parse_poly("T^3+ph(9/8)T^2+ph(5/24)T+ph(4/3)", hf)
    a12 = hf.parse_scalar("ph(1/12)")
    a6 = hf.parse_scalar("ph(1/6)")
    not_root = not is_root(cubic, a12)
    qs = quotients(cubic, a6)
    q = parse_poly("T^2+ph(13/12)T+ph(1/6)", hf)
    held = qs.contains(q)
    m = mult_at(q, a12)
    ok = not_root and held and m == 2
    return _result(5, "P: ph(1/12) is not a root of the cubic, yet has "
                      "multiplicity 2 in a quotient", t0, ok,
                   f"0 not in p(ph(1/12)); quotient {q} accepted; "
                   f"mult_at = {m}")


def crit_06() -> ReproResult:
    t0 = time.perf_counter()
    hf = by_name("W")
    p = parse_poly("T^3-1", hf)
    yes = expr_member(p, parse_expr("(T-1)*((T+1)*(T+1))", hf))
    no = expr_member(p, parse_expr("(T+1)*((T-1)*(T+1))", hf))
    texts = [s.text for s in no.steps]
    ok = (yes.verdict == "yes" and no.verdict == "no"
          and no.method == "root-obstruction"
          and any("does not contain 0" in t and "{-1,1}" in t for t in texts))
    return _result(6, "W: T^3-1 factors one way but not the other "
                      "(evaluation obstruction)", t0, ok,
                   f"yes witness {yes.witness}; obstruction: value set at -1 "
                   f"is {{-1,1}}")


def crit_07() -> ReproResult:
    t0 = time.perf_counter()
    hf = by_name("S")
    p = parse_poly("T^3+T^2+T+1", hf)
    member = expr_member(p, parse_expr("(T+1)*((T-1)*(T-1))", hf))
    at_one = p.eval(hf.element(1))
    cert = expr_equal(parse_expr("(T+1)*((T-1)*(T-1))", hf),
                      parse_expr("((T+1)*(T-1))*(T-1)", hf), hf)
    ok = (member.verdict == "yes"
          and at_one == hf.singleton(hf.element(1))
          and cert.verdict == "unequal")
    return _result(7, "S: sign vector membership plus unequal bracketings",
                   t0, ok,
                   f"p(1) = {at_one}; bracketings differ at {cert.witness}")


def crit_08() -> ReproResult:
    t0 = time.perf_counter()
    hf = by_name("K")
    cert = expr_equal(parse_expr("(T+1)*((T^2+1)*(T+1))", hf),
                      parse_expr("(T^2+1)*((T+1)*(T+1))", hf), hf)
    scan = assoc_scan(hf, 2)
    ok = (cert.verdict == "unequal" and cert.witness is not None
          and len(scan.counterexamples) >= 1)
    first = scan.counterexamples[0].triple if scan.counterexamples else ()
    return _result(8, "K: bracketings differ; degree-2 scan finds a "
                      "counterexample", t0, ok,
                   f"witness {cert.witness}; scan hit {first}")


def crit_09() -> ReproResult:
    t0 = time.perf_counter()
    lines = []
    ok = True
    applicable = set()
    for name in ("K", "S", "W", "T", "V", "P"):
        rep = one_plus_one_criterion(by_name(name))
        if rep.applicable:
            applicable.add(name)
            replays = (replay_member(rep.free_cert)
                       and replay_member(rep.coupled_cert))
            ok = ok and replays
            lines.append(f"{name}: 1(+)1 = {rep.b_set}, witness "
                         f"{rep.witness} ({'replays' if replays else 'REPLAY FAIL'})")
        else:
            lines.append(f"{name}: 1(+)1 = {rep.b_set} singleton, inapplicable")
    ok = ok and {"K", "W", "T", "V"} <= applicable and "S" not in applicable
    return _result(9, "1+1 criterion across built-in carriers", t0, ok,
                   "; ".join(lines))


def crit_10() -> ReproResult:
    t0 = time.perf_counter()
    hf = by_name("T")
    rng = random.Random(101)

    def rand_root():
        return hf.element(Fraction(rng.randint(-12, 12),
                                   rng.choice((1, 1, 2, 3))))

    ok = True
    for count, size in ((100, 3), (50, 4)):
        for _ in range(count):
            roots = [rand_root() for _ in range(size)]
            cert = box_equivalence(roots)
            ok = ok and cert.equal
            base = linear_product_box(roots).cells
            for perm in itertools.permutations(roots):
                ok = ok and linear_product_box(list(perm)).cells == base
            if not ok:
                return _result(10, "tropical linear-product boxes", t0, False,
                               f"failed at roots {[str(r) for r in roots]}")
    return _result(10, "tropical linear-product boxes: iterated union = "
                       "subset-sum box, permutation invariant", t0, ok,
                   "100 triples + 50 quadruples")


def crit_11() -> ReproResult:
    t0 = time.perf_counter()
    hf = by_name("T")
    rng = random.Random(202)
    count = 0
    while count < 100:
        n = rng.randint(1, 5)
        roots = sorted((Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2)))
                        for _ in range(n)), reverse=True)
        box = linear_product_box([hf.element(r) for r in roots])
        for p in box.sample_members(3, seed=count):
            rm = root_multiset(p)  # verifies mult_at agreement internally
            if [a.payload.q for a in rm.roots] != roots:
                return _result(11, "tropical factorization round-trip", t0,
                               False, f"{p} gave {rm}, expected {roots}")
            count += 1
            if count >= 100:
                break
    return _result(11, "tropical factorization round-trip on 100 sampled "
                       "members", t0, True, "root multisets recovered exactly")


def crit_12() -> ReproResult:
    t0 = time.perf_counter()
    hf = by_name("T")
    irr = is_reducible(parse_poly("0T^2+2", hf))
    forced = (any("every product term at T^0 is -inf" in t for t in irr.trace)
              and any("target coefficient of T^1 is -inf" in t
                      for t in irr.trace))
    from .polyalg import boxprod
    prod = boxprod(parse_poly("0T+0", hf), parse_poly("0T+5", hf))
    red = is_reducible(prod.the_polynomial())
    ok = (irr.reducible is False and forced and red.reducible is True)
    return _result(12, "tropical reducibility: 0T^2+2 irreducible, "
                       "distinct-root product reducible", t0, ok,
                   f"contradiction trace has {len(irr.trace)} case lines; "
                   f"factors {red.factors}")


def crit_13() -> ReproResult:
    t0 = time.perf_counter()
    s = by_name("S")
    m1 = mult_at(parse_poly("T^3-T", s), s.element(0))
    v = by_name("V")
    region = IntervalSet(v.name, IntervalUnion(
        (Interval(ext(1), POS_INF, True, False),)))
    m2 = mult_set(parse_poly("T^2+3T+1", v), region)
    ok = m1 == 1 and m2 == 1
    return _result(13, "multiplicities: mult_at over S and mult_set over a "
                       "V interval", t0, ok,
                   f"mult_at(T^3-T, 0) = {m1}; mult_set on [1,inf) = {m2}")


def crit_14() -> ReproResult:
    t0 = time.perf_counter()
    hf = by_name("S")
    p = parse_poly("T+1", hf)
    q = parse_poly("T-1", hf)
    pts = [hf.element(-1), hf.element(0), hf.element(1)]
    rep = pointwise_products_equal(p, q, q, pts)
    return _result(14, "pointwise evaluation products agree over S", t0,
                   rep.equal, "; ".join(f"a={r[0]}: {r[1]}" for r in rep.rows))


CRITERIA: tuple[Callable[[], ReproResult], ...] = (
    crit_01, crit_02, crit_03, crit_04, crit_05, crit_06, crit_07,
    crit_08, crit_09, crit_10, crit_11, crit_12, crit_13, crit_14)


def run_all(only: Optional[int] = None) -> list[ReproResult]:
    if only is not None and not 1 <= only <= len(CRITERIA):
        raise ValueError(
            f"criterion must be in 1..{len(CRITERIA)}, got {only}")
    picked = CRITERIA if only is None else (CRITERIA[only - 1],)
    return [fn() for fn in picked]


def format_table(results: list[ReproResult], verbose: bool = False) -> str:
    lines = [str(r) + (f"\n      {r.detail}" if verbose else "")
             for r in results]
    total = sum(r.seconds for r in results)
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} passed in {total:.1f}s")
    return "\n".join(lines)
