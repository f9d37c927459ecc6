"""Tropical-specific algebra: the product box of linear factors, root
multiset extraction, and exact reducibility at small degree.

Over T = (Q union {-inf}, max-style hyperaddition, +), the hypersum of a
list is {max} when the maximum is attained once and the interval
[-inf, max] when it ties, so products of linear factors have per-coefficient
value sets given by subset sums of the roots."""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .carriers import (CarrierSet, Element, Hyperfield, TropicalHyperfield,
                       by_name)
from .divide import _newton_roots, linear_for_root, mult_at
from .linear import Constraint, eq, lt, feasible_point as lp_feasible_point
from .polyalg import (Polynomial, PolyBox, box_of, boxprod, monic_decompose,
                      solve_linear_chain, chain_witness)
from .sets import ExtRat, NEG_INF


def _trop() -> Hyperfield:
    return by_name("T")


def trop_hypersum_sorted(values: Sequence[Element]) -> CarrierSet:
    """Hypersum of a list over T: {max} when the maximum is strict,
    [-inf, max] when it ties."""
    return _trop().hypersum(values)


def linear_product_box(roots: Sequence[Element]) -> PolyBox:
    """The product set of the monic linear factors (0T + a_i) as a box:
    cell n-s is the hypersum of all s-subset sums of the roots."""
    hf = _trop()
    if not roots:
        raise ValueError("no roots given")
    n = len(roots)
    cells: list[CarrierSet] = [None] * (n + 1)
    cells[n] = hf.singleton(hf.one())
    for s in range(1, n + 1):
        sums = []
        for combo in itertools.combinations(range(n), s):
            total = roots[combo[0]].payload
            for t in combo[1:]:
                total = total + roots[t].payload
            sums.append(Element(hf.name, total))
        cells[n - s] = trop_hypersum_sorted(sums)
    return PolyBox(hf, tuple(cells))


def iterated_linear_product(roots: Sequence[Element]) -> str:
    """Description of S_k = union over p in S_{k-1} of (0T+a_k) (x) p."""
    hf = _trop()
    box = linear_product_box(roots)
    chain = " -> ".join(f"(0T+{hf.format_element(a)})" for a in roots)
    return f"S_n from {chain}; equals the box {box}"


@dataclass(frozen=True)
class BoxEquivalence:
    """Certificate that the iterated union of linear products equals the
    subset-sum box: forward inclusion holds cellwise at every growth step,
    and sampled members of each box factor back through the constraint
    chain into the previous box."""

    roots: tuple[str, ...]
    equal: bool
    steps: tuple[str, ...]
    samples_checked: int
    failure: Optional[str] = None


SAMPLES_PER_STEP = 24  # members of each grown box factored back


def box_equivalence(roots: Sequence[Element]) -> BoxEquivalence:
    hf = _trop()
    names = tuple(hf.format_element(a) for a in roots)
    steps: list[str] = []
    checked = 0
    prev = linear_product_box(roots[:1])
    steps.append(f"S_1 = {prev}")
    for k in range(2, len(roots) + 1):
        a = roots[k - 1]
        cur = linear_product_box(roots[:k])
        # forward: coefficient i of (0T+a)(x)p is a*p_i (+) p_{i-1}, so the
        # union over p in the previous box stays inside these cell sets
        for i in range(cur.nominal_degree + 1):
            reach = hf.set_hyperadd(hf.scale_set(a, prev.cell(i)),
                                    prev.cell(i - 1)) \
                if i >= 1 else hf.scale_set(a, prev.cell(0))
            if not cur.cell(i).includes(reach):
                return BoxEquivalence(names, False, tuple(steps), checked,
                                      f"step {k}: cell {i} reach {reach} "
                                      f"escapes {cur.cell(i)}")
        # reverse: sampled members of the bigger box factor through the
        # chain back into the previous box
        ell = linear_for_root(hf, a)
        for p in cur.sample_members(SAMPLES_PER_STEP, seed=k):
            if p.degree != cur.nominal_degree:
                continue
            cells = list(prev.cells)
            domains, _ = solve_linear_chain(p, ell, cells)
            if domains is None:
                return BoxEquivalence(names, False, tuple(steps), checked,
                                      f"step {k}: member {p} does not factor "
                                      f"through the previous box")
            witness = chain_witness(p, ell, domains)
            if not prev.contains(witness):
                return BoxEquivalence(names, False, tuple(steps), checked,
                                      f"step {k}: factor {witness} escapes "
                                      f"the previous box")
            checked += 1
        steps.append(f"S_{k} = {cur}; forward cells included, "
                     f"sampled members factored")
        prev = cur
    return BoxEquivalence(names, True, tuple(steps), checked)


# ---------------------------------------------------------------------------
# root multisets via the upper concave hull of (i, c_i)


@dataclass(frozen=True)
class RootMultiset:
    roots: tuple[Element, ...]  # descending

    def counts(self) -> dict:
        out: dict = {}
        for a in self.roots:
            out[a] = out.get(a, 0) + 1
        return out

    def __str__(self) -> str:
        hf = _trop()
        return "{" + ", ".join(hf.format_element(a) for a in self.roots) + "}"


def root_multiset(p: Polynomial) -> RootMultiset:
    """The unique root multiset of a monic tropical polynomial, from the
    upper concave hull of the finite coefficient points (i, c_i): each unit
    step of a hull edge of slope s contributes one root -s; trailing -inf
    coefficients contribute roots -inf.  Verified in-process against the
    subset-sum box and the recursive multiplicity."""
    hf = _trop()
    if p.hf != hf:
        raise ValueError("root_multiset is tropical-only")
    if not p.is_monic():
        raise ValueError("root_multiset needs a monic polynomial")
    roots = [a for a, k in _newton_roots(p) for _ in range(k)]
    roots.sort(key=lambda a: a.payload, reverse=True)
    result = RootMultiset(tuple(roots))
    if not linear_product_box(result.roots).contains(p):
        raise AssertionError(f"hull roots {result} fail the box check")
    for a, count in result.counts().items():
        if mult_at(p, a) != count:
            raise AssertionError(
                f"mult_at({p}, {hf.format_element(a)}) != {count}")
    return result


# ---------------------------------------------------------------------------
# reducibility: is {p} exactly a hyperproduct of two positive-degree
# polynomials?


@dataclass(frozen=True)
class ReducibilityCertificate:
    poly: str
    reducible: Optional[bool]  # None = undecided
    factors: Optional[tuple[str, str]]
    trace: tuple[str, ...]

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)

    def __str__(self) -> str:
        head = {True: "REDUCIBLE", False: "IRREDUCIBLE",
                None: "UNDECIDED"}[self.reducible]
        lines = [f"{head}: {self.poly}"]
        if self.factors:
            lines.append(f"  factors: {self.factors[0]} and {self.factors[1]}")
        lines.extend(f"  {t}" for t in self.trace)
        return "\n".join(lines)


def is_reducible(p: Polynomial, search_bound: int = 4) -> ReducibilityCertificate:
    hf = p.hf
    if p.degree < 2:
        raise ValueError("reducibility needs degree >= 2")
    if hf.is_finite():
        return _reducible_finite(p)
    if not isinstance(hf, TropicalHyperfield):
        return ReducibilityCertificate(
            str(p), None, None,
            (f"no exact factor analysis for {hf.name}",))
    if p.degree > search_bound:
        return ReducibilityCertificate(
            str(p), None, None,
            (f"degree {p.degree} above the exact-analysis bound "
             f"{search_bound}",))
    lead, p0 = monic_decompose(p)
    trace: list[str] = []
    found = _tropical_factor_search(p0, trace)
    if found is not None:
        q0, r0 = found
        q = Polynomial(hf, tuple(hf.mul(lead, c) for c in q0.coeffs))
        if boxprod(q, r0) != box_of(p):
            raise AssertionError("constructed factors fail verification")
        trace.append(f"verified ({q})*({r0}) = {{{p}}} cellwise")
        return ReducibilityCertificate(str(p), True, (str(q), str(r0)),
                                       tuple(trace))
    return ReducibilityCertificate(str(p), False, None, tuple(trace))


def _tropical_factor_search(p: Polynomial,
                            trace: list[str]) -> Optional[tuple[Polynomial, Polynomial]]:
    """Monic factor pair with singleton product, by exact case analysis:
    choose which coefficients are -inf, then which product term is the
    strict maximum at every index, and solve the linear system."""
    hf = p.hf
    n = p.degree
    for k in range(1, n // 2 + 1):
        m = n - k
        # variables: q_0..q_{k-1}, r_0..r_{m-1}; leading coefficients are 0
        nq, nr = k, m
        names = [f"q{j}" for j in range(nq)] + [f"r{j}" for j in range(nr)]
        for pattern in itertools.product((False, True), repeat=nq + nr):
            reason = _try_pattern(p, k, pattern, names)
            if isinstance(reason, tuple):
                return reason
            trace.append(f"split ({k},{m}), " + reason)
    return None


def _try_pattern(p: Polynomial, k: int, pattern: tuple[bool, ...],
                 names: list[str]):
    """One -inf pattern: returns (q, r) on success, else a failure line."""
    hf = p.hf
    n, m = p.degree, p.degree - k
    inf_desc = ", ".join(f"{nm}=-inf" for nm, z in zip(names, pattern) if z) \
        or "all coefficients finite"

    def var_index(side: str, j: int) -> Optional[int]:
        # None marks a unit leading coefficient (constant 0)
        if side == "q":
            return None if j == k else j
        return None if j == m else k + j

    def is_dead(side: str, j: int) -> bool:
        idx = var_index(side, j)
        return idx is not None and pattern[idx]

    finite_vars = [i for i, z in enumerate(pattern) if not z]
    pos_of = {v: i for i, v in enumerate(finite_vars)}
    nvars = len(finite_vars)

    def term_coeffs(s: int, t: int) -> Optional[list[Fraction]]:
        """Linear form of q_s + r_t over the finite variables, or None if
        the term is -inf under the pattern."""
        coeffs = [Fraction(0)] * nvars
        for side, j in (("q", s), ("r", t)):
            if is_dead(side, j):
                return None
            idx = var_index(side, j)
            if idx is None:
                continue  # unit leading coefficient contributes 0
            coeffs[pos_of[idx]] += 1
        return coeffs

    constraints: list[Constraint] = []
    choice_sets: list[list[tuple[int, tuple[int, int], list]]] = []
    fixed: list[tuple[int, tuple[int, int]]] = []
    for i in range(n + 1):
        pairs = [(s, i - s) for s in range(max(0, i - m), min(i, k) + 1)]
        live = [(s, t) for (s, t) in pairs if term_coeffs(s, t) is not None]
        ci = p.coeff(i)
        if hf.is_zero(ci):
            if live:
                s, t = live[0]
                return (f"pattern {inf_desc}: the target coefficient of T^{i} "
                        f"is -inf but the product term q{s}+r{t} stays finite")
            continue
        if not live:
            return (f"pattern {inf_desc}: every product term at T^{i} is "
                    f"-inf, but the target coefficient is "
                    f"{hf.format_element(ci)}")
        if len(live) == 1:
            fixed.append((i, live[0]))
        else:
            choice_sets.append([(i, st, live) for st in live])
    for i, (s, t) in fixed:
        constraints.extend(eq(term_coeffs(s, t), p.coeff(i).payload.q))
    base = constraints
    for choices in itertools.product(*choice_sets):
        constraints = list(base)
        for (i, st, live) in choices:
            target = p.coeff(i).payload.q
            constraints.extend(eq(term_coeffs(*st), target))
            constraints.extend(lt(term_coeffs(*other), target)
                               for other in live if other != st)
        point = lp_feasible_point(constraints, nvars)
        if point is None:
            continue
        values: list = []
        for idx in range(len(pattern)):
            if pattern[idx]:
                values.append(NEG_INF)
            else:
                values.append(ExtRat(point[pos_of[idx]]))
        q = Polynomial(hf, tuple(Element(hf.name, v) for v in values[:k])
                       + (hf.one(),))
        r = Polynomial(hf, tuple(Element(hf.name, v) for v in values[k:])
                       + (hf.one(),))
        if boxprod(q, r) == box_of(p):
            return q, r
    return f"pattern {inf_desc}: no strict-maximum assignment is consistent"


def _reducible_finite(p: Polynomial) -> ReducibilityCertificate:
    hf = p.hf
    n = p.degree
    elems = sorted(hf.elements(), key=str)
    nonzero = [e for e in elems if not hf.is_zero(e)]

    def all_polys(deg: int):
        for combo in itertools.product(elems, repeat=deg):
            for lead in nonzero:
                yield Polynomial(hf, combo + (lead,))

    for k in range(1, n // 2 + 1):
        for q in all_polys(k):
            for r in all_polys(n - k):
                if boxprod(q, r) == box_of(p):
                    return ReducibilityCertificate(
                        str(p), True, (str(q), str(r)),
                        (f"verified ({q})*({r}) = {{{p}}} by enumeration",))
    return ReducibilityCertificate(
        str(p), False, None,
        ("no positive-degree factor pair has singleton product equal "
         "to the polynomial",))
