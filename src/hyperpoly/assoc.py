"""Associativity of iterated hyperproducts: triple checks, exhaustive scans
over finite carriers, the 1+1 singleton criterion, and pointwise evaluation
comparisons.

Since the set-level product is commutative, every bracketing of an ordered
triple equals one of the three "outer choice" forms x (x) (y (x) z) with
{x,y,z} the underlying multiset, so a triple is associative exactly when
those three sets coincide."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .carriers import CodeTable, Element, Hyperfield, UndecidedError
from .polyalg import (MAX_DEGREE, CertStep, EqualCertificate, Expr,
                      Polynomial, PolyLeaf, ProdNode, Resolved, _unequal,
                      equal_values, format_expr, resolve, unequal_certificate)


def _outer_form(outer: Polynomial, a: Polynomial, b: Polynomial) -> Expr:
    return ProdNode(PolyLeaf(outer), ProdNode(PolyLeaf(a), PolyLeaf(b)))


@dataclass(frozen=True)
class AssocReport:
    hyperfield: str
    triple: tuple[str, str, str]
    associative: Optional[bool]  # None when some comparison is undecided
    comparisons: tuple[EqualCertificate, ...]

    def __str__(self) -> str:
        head = {True: "ASSOCIATIVE", False: "NOT ASSOCIATIVE",
                None: "UNDECIDED"}[self.associative]
        lines = [f"{head}: ({', '.join(self.triple)}) over {self.hyperfield}"]
        for cert in self.comparisons:
            lines.extend("  " + ln for ln in str(cert).splitlines())
        return "\n".join(lines)


def assoc_check(p: Polynomial, q: Polynomial, r: Polynomial) -> AssocReport:
    """Resolve the three outer choices A = p*(q*r), C = q*(p*r) and
    B = r*(p*q) once each, then compare A with the direct bracketing
    (p*q)*r, which is the set B since the set product commutes, A with C,
    and C with B, stopping at the first unequal comparison."""
    hf = p.hf
    if p.degree + q.degree + r.degree > MAX_DEGREE:
        raise ValueError(f"product degree exceeds the cap {MAX_DEGREE}")
    (ta, va), (tc, vc), (tb, vb) = ((format_expr(e), resolve(e, hf)) for e in (
        _outer_form(p, q, r), _outer_form(q, p, r), _outer_form(r, p, q)))
    direct = format_expr(ProdNode(ProdNode(PolyLeaf(p), PolyLeaf(q)),
                                  PolyLeaf(r)))
    comparisons = []
    for t1, v1, t2, v2 in ((ta, va, direct, vb), (ta, va, tc, vc),
                           (tc, vc, tb, vb)):
        comparisons.append(equal_values(t1, t2, v1, v2, hf))
        if comparisons[-1].verdict == "unequal":
            break
    verdicts = {c.verdict for c in comparisons}
    associative = (False if "unequal" in verdicts
                   else None if "undecided" in verdicts else True)
    return AssocReport(hf.name, (str(p), str(q), str(r)), associative,
                       tuple(comparisons))


@dataclass(frozen=True)
class ScanReport:
    hyperfield: str
    max_deg: int
    monic_only: bool
    polynomials: int
    triples_checked: int
    counterexamples: tuple[AssocReport, ...]

    def __str__(self) -> str:
        head = (f"scan over {self.hyperfield}, degrees 1..{self.max_deg}"
                f"{' (monic)' if self.monic_only else ''}: "
                f"{self.polynomials} polynomials, "
                f"{self.triples_checked} triples, "
                f"{len(self.counterexamples)} counterexample(s)")
        lines = [head]
        for rep in self.counterexamples:
            lines.extend("  " + ln for ln in str(rep).splitlines())
        return "\n".join(lines)


def _scan_polys(hf: Hyperfield, max_deg: int,
                monic_only: bool) -> list[Polynomial]:
    # display order, shortest text first: the scan's enumeration order
    elems = sorted(hf.elements(), key=lambda x: (len(str(x)), str(x)))
    nonzero = [e for e in elems if not hf.is_zero(e)]
    leads = [hf.one()] if monic_only else nonzero
    out = []
    for deg in range(1, max_deg + 1):
        for lead in leads:
            for lower in itertools.product(elems, repeat=deg):
                out.append(Polynomial.of(hf, list(lower) + [lead]))
    return out


def _triple_rank(n: int):
    """rank(i, j, k), for i <= j <= k < n, is the place of (i, j, k) in
    combinations_with_replacement(range(n), 3) order: C(n+2, 3) -
    C(n-i+2, 3) triples start below i, C(n-i+1, 2) - C(n-j+1, 2) start
    with i and go on below j, and k - j more start with (i, j).  Since
    C(m+1, 3) - C(m, 2) = C(m, 3), that is first[i] - second[j] + k."""
    total = math.comb(n + 2, 3)
    first = [total - math.comb(n - i + 1, 3) for i in range(n)]
    second = [math.comb(n - j + 1, 2) + j for j in range(n)]
    return lambda i, j, k: first[i] - second[j] + k


def _symmetries(codes: CodeTable, enc: list,
                monic_only: bool) -> list[list[int]]:
    """The index permutations of the scan list under p -> u c^-deg(p) p(cT)
    for units c, with u = 1 in a monic scan and every unit otherwise.  As
    c runs over the units so does 1/c, so these are the maps that multiply
    the coefficient of T^a in a degree-d polynomial by u c^(d-a)."""
    index = {t: n for n, t in enumerate(enc)}
    mul, units = codes.mul, codes.units
    top = max(len(t) for t in enc)
    perms = []
    for c in units:
        powers = [codes.one]
        while len(powers) < top:
            powers.append(mul[powers[-1]][c])
        for u in [codes.one] if monic_only else units:
            rows = [mul[mul[u][w]] for w in powers]
            perms.append([index[tuple(rows[len(t) - 1 - a][x]
                                      for a, x in enumerate(t))]
                          for t in enc])
    return perms


def assoc_scan(hf: Hyperfield, max_deg: int, monic_only: bool = False,
               stop_after: Optional[int] = 1) -> ScanReport:
    """Exhaustive associativity scan over all positive-degree polynomial
    multisets of size three with degrees up to max_deg.  Scalar factors
    distribute exactly over hypersums, so constants cannot contribute a
    counterexample and are omitted.  Enumeration is by ascending degree and
    lexicographic coefficients; commutativity of the set product makes
    unordered multisets cover all bracketings.

    A triple is compared only if no earlier associative triple maps to it
    under a symmetry of the scan list: phi(p) = u c^-deg(p) p(cT) for units
    c and u (u = 1 in a monic scan), which keeps degrees and monic leads.
    A unit distributes, c(x (+) y) = cx (+) cy, and units commute, so every
    coefficient cell of phi(x) (x) phi(y) is the matching cell of x (x) y
    scaled as phi scales it.  So phi(x) (x) (phi(y) (x) phi(z)) is the
    image of x (x) (y (x) z) under one bijection, the same for all three
    outer choices: the unit u^3 c^-(deg x + deg y + deg z) times the
    substitution T -> cT.  The choices of a triple thus agree exactly when
    those of its image do.  An associative triple sets the bit of every
    image in a bit array indexed by rank in the enumeration order, and a
    triple whose bit is set is counted and skipped.  A counterexample
    marks nothing and is compared, expanded and certified on its own, so
    the report is that of the full scan.  The code table checks both laws
    for its units on first use (CodeTable.units) and raises AssertionError
    if one fails.

    The scan runs on the carrier's integer codes (hf.codes): a polynomial
    is a tuple of codes, and y (x) z is kept per unordered pair as the
    nonzero terms of its members.  An outer choice x (x) (y (x) z) is first
    the set of the cell tuples of x (x) r over those members r; equal cell
    sets have equal members.  Only where two consecutive choices' cells
    differ are both expanded into members, and the first two that differ
    in members make the counterexample.  Its certificate is built from
    those two member sets: the witness is the sort_key-least member of the
    one-sided difference and the sizes are theirs (two boxes are compared
    cell by cell instead, as expr_equal does).  polyalg's membership
    procedure on the resolved sides must then confirm the witness in one
    side and not the other, or the scan raises AssertionError."""
    if max_deg < 1:
        raise ValueError(f"max_deg must be at least 1, got {max_deg}")
    if not hf.is_finite():
        raise UndecidedError(f"cannot scan the infinite carrier {hf.name}")
    polys = _scan_polys(hf, max_deg, monic_only)
    codes = hf.codes
    enc = [codes.encode(p.coeffs) for p in polys]
    rows = [codes.row_terms(t) for t in enc]
    size = [len(t) for t in enc]
    perms = _symmetries(codes, enc, monic_only)
    rank = _triple_rank(len(polys))
    marks = bytearray((math.comb(len(polys) + 2, 3) + 7) // 8)
    found: list[AssocReport] = []
    checked = 0
    pair: dict = {}
    inner_value: dict[tuple[int, int], Resolved] = {}

    def cells(m: int, a: int, b: int) -> set:
        """The cell tuples of x (x) (y (x) z); the scan passes a <= b."""
        inner = pair.get((a, b))
        if inner is None:
            inner = pair[(a, b)] = [codes.terms(r) for r in
                                    codes.members_of_product(enc[a], enc[b])]
        return codes.product_cells(rows[m], inner,
                                   size[m] + size[a] + size[b] - 2)

    def side(m: int, a: int, b: int) -> Resolved:
        inner = inner_value.get((a, b))
        if inner is None:
            inner = inner_value[(a, b)] = resolve(
                ProdNode(PolyLeaf(polys[a]), PolyLeaf(polys[b])), hf)
        return inner.times(polys[m])

    def certify(i: int, j: int, k: int, d1: tuple, s1: set, d2: tuple,
                s2: set) -> None:
        t1 = format_expr(_outer_form(*(polys[n] for n in d1)))
        t2 = format_expr(_outer_form(*(polys[n] for n in d2)))
        cert = unequal_certificate(
            t1, t2, side(*d1), side(*d2), s1, s2,
            codes.sort_key, lambda t: Polynomial(hf, codes.decode(t)))
        if (cert.verdict != "unequal" or cert.member_in.verdict != "yes"
                or cert.member_out.verdict != "no"):
            raise AssertionError(
                f"scan mismatch not confirmed by polyalg membership: "
                f"{t1} vs {t2}")
        found.append(AssocReport(
            hf.name, (str(polys[i]), str(polys[j]), str(polys[k])),
            False, (cert,)))

    for i, j, k in itertools.combinations_with_replacement(
            range(len(polys)), 3):
        here = checked  # this triple's rank
        checked += 1
        if marks[here >> 3] >> (here & 7) & 1:
            continue
        decomps = list(dict.fromkeys(((i, j, k), (j, i, k), (k, i, j))))
        if len(decomps) < 2:
            continue
        prev = cells(*decomps[0])
        for t in range(1, len(decomps)):
            cur = cells(*decomps[t])
            if cur != prev:
                s1, s2 = codes.expand(prev), codes.expand(cur)
                if s1 != s2:
                    certify(i, j, k, decomps[t - 1], s1, decomps[t], s2)
                    break
            prev = cur
        else:
            for perm in perms:
                r = rank(*sorted((perm[i], perm[j], perm[k])))
                marks[r >> 3] |= 1 << (r & 7)
        if stop_after is not None and len(found) >= stop_after:
            break
    return ScanReport(hf.name, max_deg, monic_only, len(polys), checked,
                      tuple(found))


# ---------------------------------------------------------------------------
# the 1+1 criterion


@dataclass(frozen=True)
class OnePlusOneReport:
    """When 1 (+) 1 = B is not a singleton, the products
    (T^2+1)(x)((T+1)(x)(T+1)) and (T+1)(x)((T^2+1)(x)(T+1)) differ: the
    first couples the T^3 and T coefficients through a shared b in B, the
    second leaves them free, so any witness with two distinct values from B
    at those positions separates the two sets."""

    hyperfield: str
    b_set: str
    applicable: bool
    cert: Optional[EqualCertificate] = None

    def certificate(self) -> EqualCertificate:
        if not self.applicable:
            raise ValueError("criterion inapplicable: 1 (+) 1 is a singleton")
        return self.cert

    def __str__(self) -> str:
        if not self.applicable:
            return (f"{self.hyperfield}: 1 (+) 1 = {self.b_set} is a "
                    f"singleton; criterion inapplicable")
        return (f"{self.hyperfield}: 1 (+) 1 = {self.b_set} is not a "
                f"singleton\n" + str(self.certificate()))


def one_plus_one_criterion(hf: Hyperfield) -> OnePlusOneReport:
    one = hf.one()
    b = hf.hyperadd(one, one)
    if b.is_singleton():
        return OnePlusOneReport(hf.name, str(b), False)
    lin = Polynomial.of(hf, [one, one])
    quad = Polynomial.of(hf, [one, hf.zero(), one])
    coupled_expr = _outer_form(quad, lin, lin)
    free_expr = _outer_form(lin, quad, lin)
    samples = hf.sample_elements(b)
    d1 = one if b.contains(one) else samples[-1]
    rest = [s for s in samples if s != d1]
    nonzero = [s for s in rest if not hf.is_zero(s)]
    d2 = (nonzero or rest)[0]
    witness = Polynomial.of(hf, [one, d2, d1, d1, one])
    free, coupled = resolve(free_expr, hf), resolve(coupled_expr, hf)
    cert = _unequal(format_expr(free_expr), format_expr(coupled_expr),
                    free.decide(witness), coupled.decide(witness), witness, 1,
                    CertStep("shape", None,
                             f"side 1 resolves to {free}"),
                    CertStep("shape", None,
                             f"side 2 resolves to {coupled}"))
    if cert.member_in.verdict != "yes" or cert.member_out.verdict != "no":
        raise AssertionError(
            f"1+1 witness construction failed over {hf.name}: "
            f"{cert.member_in.verdict}/{cert.member_out.verdict}")
    return OnePlusOneReport(hf.name, str(b), True, cert)


# ---------------------------------------------------------------------------
# pointwise evaluation


@dataclass(frozen=True)
class PointwiseReport:
    hyperfield: str
    triple: tuple[str, str, str]
    rows: tuple[tuple[str, str, str, str, bool], ...]
    equal: bool

    def __str__(self) -> str:
        lines = [f"pointwise products of ({', '.join(self.triple)}) "
                 f"over {self.hyperfield}: "
                 f"{'equal' if self.equal else 'NOT equal'}"]
        for a, s1, s2, s3, ok in self.rows:
            mark = "=" if ok else "!="
            lines.append(f"  a={a}: {s1} {mark} {s2} {mark} {s3}")
        return "\n".join(lines)


def pointwise_products_equal(p: Polynomial, q: Polynomial, r: Polynomial,
                             points: Sequence[Element]) -> PointwiseReport:
    """Elementwise products of the evaluation sets p(a), q(a), r(a) under
    the three outer choices, for each sample point a."""
    hf = p.hf
    rows = []
    all_ok = True
    for a in points:
        pa, qa, ra = p.eval(a), q.eval(a), r.eval(a)
        s1 = hf.set_mul(pa, hf.set_mul(qa, ra))
        s2 = hf.set_mul(hf.set_mul(pa, qa), ra)
        s3 = hf.set_mul(qa, hf.set_mul(pa, ra))
        ok = s1 == s2 == s3
        all_ok = all_ok and ok
        rows.append((hf.format_element(a), str(s1), str(s2), str(s3), ok))
    return PointwiseReport(hf.name, (str(p), str(q), str(r)),
                           tuple(rows), all_ok)
