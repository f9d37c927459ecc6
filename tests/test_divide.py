"""Roots, quotient sets, and multiplicities across carriers."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import (
    Polynomial,
    UndecidedError,
    boxprod,
    by_name,
    cyclic_group_table,
    gf,
    is_root,
    linear_for_root,
    mult_at,
    mult_set,
    parse_poly,
    quotients,
    tropical_root_points,
    weak_group,
)
from hyperpoly import divide
from hyperpoly.carriers import ArcSet, ElementSet
from hyperpoly.polyalg import MAX_DEGREE
from hyperpoly.sets import ExtRat, Interval, IntervalUnion, NEG_INF, POS_INF

from finite_tables import payloads


def interval_region(name, lo=None, hi=None):
    lo_e = NEG_INF if lo is None else ExtRat(Fraction(lo))
    hi_e = POS_INF if hi is None else ExtRat(Fraction(hi))
    part = Interval(lo_e, hi_e, lo is not None, hi is not None)
    return ElementSet(name, "intervals", intervals=IntervalUnion((part,)))


def all_polys(hf, degree):
    elems = hf.elements()
    nonzero = [x for x in elems if not hf.is_zero(x)]
    for body in itertools.product(elems, repeat=degree):
        for lead in nonzero:
            yield Polynomial.of(hf, list(body) + [lead])


class TestRootsAndQuotients:
    @pytest.mark.parametrize("name", ["K", "S", "W", "GF(3)"])
    def test_root_iff_quotient_exists(self, name):
        hf = by_name(name)
        for deg in (1, 2, 3):
            for p in all_polys(hf, deg):
                for a in hf.elements():
                    qs = quotients(p, a)
                    assert is_root(p, a) == (not qs.is_empty())
                    for q in qs.representatives:
                        assert qs.contains(q)
                        assert boxprod(linear_for_root(hf, a), q).contains(p)

    @pytest.mark.parametrize("name", ["K", "S", "W", "GF(3)"])
    def test_nonzero_constants_have_no_roots(self, name):
        hf = by_name(name)
        for p in all_polys(hf, 0):
            for a in hf.elements():
                assert not is_root(p, a)
                assert quotients(p, a).is_empty()

    def test_signs_cubic_quotient_is_unique(self):
        S = by_name("S")
        p = parse_poly("T^3-T", S)
        qs = quotients(p, S.zero())
        assert qs.exact
        assert [str(q) for q in qs.representatives] == ["T^2-1"]
        assert [payloads(d) for d in qs.domains] == [
            frozenset({-1}), frozenset({0}), frozenset({1})]
        assert "exactly: T^2-1" in qs.describe()

    def test_signs_multiplicities(self):
        S = by_name("S")
        p = parse_poly("T^3-T", S)
        for a in (-1, 0, 1):
            assert is_root(p, S.element(a))
            assert mult_at(p, S.element(a)) == 1
        assert mult_set(p, [S.zero(), S.one()]) == 2
        assert mult_set(p, [S.element(-1), S.zero(), S.one()]) == 3

    @pytest.mark.parametrize("name,poly,root", [
        ("K", "T^4+T^3+T+1", "1"), ("V", "T^3+2T^2+2T+1", "1")])
    def test_a_quotient_outside_its_product_is_loud(self, monkeypatch, name,
                                                     poly, root):
        # the chain walk enforces every product cell, so a walked quotient
        # whose product misses p is a fault, not a quotient to drop
        hf = by_name(name)
        p, a = parse_poly(poly, hf), hf.parse_scalar(root)
        assert quotients(p, a).representatives
        monkeypatch.setattr(divide, "in_product", lambda r, ell, q: r != p)
        with pytest.raises(AssertionError, match=re.escape(f"of {p} at {a}")):
            quotients(p, a)

    def test_non_root_has_no_quotients(self):
        S = by_name("S")
        p = parse_poly("T+1", S)
        assert not is_root(p, S.one())
        assert quotients(p, S.one()).is_empty()
        assert mult_at(p, S.one()) == 0


# Z/2 written e, a: its table order is not the lexicographic order, so the
# order in which the chain walk meets quotients differs from the sort order
EA = weak_group({("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a",
                 ("a", "a"): "e"}, ["e", "a"], "a")
QUOTIENT_CARRIERS = [by_name(n) for n in ("K", "S", "W", "GF(3)")] + [
    weak_group(*cyclic_group_table(3), name="W(C3)"), EA]


class TestFiniteQuotientsByBruteForce:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_representatives_are_every_quotient_in_sorted_order(self, data):
        hf = data.draw(st.sampled_from(QUOTIENT_CARRIERS))
        elems = hf.elements()
        nonzero = [x for x in elems if not hf.is_zero(x)]
        deg = data.draw(st.integers(1, 4))
        coeffs = [data.draw(st.sampled_from(elems)) for _ in range(deg)]
        p = Polynomial.of(hf, coeffs + [data.draw(st.sampled_from(nonzero))])
        a = data.draw(st.sampled_from(elems))
        qs = quotients(p, a)
        assert qs.exact
        if qs.is_empty():
            assert not is_root(p, a)
            return
        # every combination of domain values, kept when (T-a) (x) q holds p
        ell = linear_for_root(hf, a)
        combos = itertools.product(*(hf.sample_elements(d)
                                     for d in qs.domains))
        expected = sorted((q for q in (Polynomial(hf, c) for c in combos)
                           if boxprod(ell, q).contains(p)),
                          key=Polynomial.sort_key)
        assert expected
        assert list(qs.representatives) == expected


def unmemoised_mult(p, elems):
    """The multiplicity recursion without memory: every branch divides its
    quotient again."""
    best = 0
    for a in elems:
        if not is_root(p, a):
            continue
        qs = quotients(p, a)
        assert not qs.is_empty()
        sub = 0
        for q in qs.representatives:
            sub = max(sub, unmemoised_mult(q, elems))
        best = max(best, 1 + sub)
    return best


T = by_name("T")
MEMO_CARRIERS = [by_name(n) for n in ("S", "W", "K")] + [
    weak_group(*cyclic_group_table(3), name="W(C3)"), gf(5), T]


def small_elements(hf):
    if hf.is_finite():
        return hf.elements()
    return [T.zero()] + [T.element(k) for k in range(-2, 3)]


class TestOneVisitPerQuotient:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_unmemoised_recursion(self, data):
        hf = data.draw(st.sampled_from(MEMO_CARRIERS))
        elems = small_elements(hf)
        nonzero = [x for x in elems if not hf.is_zero(x)]
        deg = data.draw(st.integers(1, 4))
        coeffs = [data.draw(st.sampled_from(elems)) for _ in range(deg)]
        p = Polynomial.of(hf, coeffs + [data.draw(st.sampled_from(nonzero))])
        a = data.draw(st.sampled_from(elems))
        region = data.draw(st.lists(st.sampled_from(elems), min_size=1,
                                    max_size=3, unique=True))
        assert mult_at(p, a) == unmemoised_mult(p, [a])
        assert mult_set(p, region) == unmemoised_mult(p, region)

    def test_each_quotient_is_divided_once(self, monkeypatch):
        # the unmemoised recursion makes 4,105 and 131,296 calls here
        calls = []
        real = divide.quotients

        def counted(p, a):
            calls.append((p, a))
            return real(p, a)

        monkeypatch.setattr(divide, "quotients", counted)
        W = by_name("W")
        p = parse_poly("T^6+T^5+T^4+T^3+T^2+T+1", W)
        assert mult_at(p, W.one()) == 6
        assert len(calls) == len(set(calls)) == 57
        calls.clear()
        assert mult_set(p, [W.one(), W.neg(W.one())]) == 6
        assert len(calls) == len(set(calls)) == 242


class TestGaloisMultiplicity:
    @given(st.sampled_from([3, 5]),
           st.lists(st.integers(0, 4), min_size=1, max_size=4),
           st.integers(1, 4))
    @settings(max_examples=120, deadline=None)
    def test_matches_linear_factor_count(self, m, roots, lead):
        hf = gf(m)
        roots = [r % m for r in roots]
        p = Polynomial.of(hf, [lead % m if lead % m else 1])
        for r in roots:
            p = boxprod(p, linear_for_root(hf, hf.element(r))).the_polynomial()
        for a in range(m):
            assert mult_at(p, hf.element(a)) == roots.count(a)

    def test_irreducible_quadratic_has_no_roots(self):
        hf = gf(3)
        p = parse_poly("T^2+1", hf)
        assert all(not is_root(p, a) for a in hf.elements())
        assert mult_set(p, hf.elements()) == 0


class TestMultiplicityBounds:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_bounded_by_degree(self, data):
        hf = by_name(data.draw(st.sampled_from(["K", "S", "W", "GF(3)"])))
        deg = data.draw(st.integers(1, 4))
        elems = hf.elements()
        nonzero = [x for x in elems if not hf.is_zero(x)]
        coeffs = [data.draw(st.sampled_from(elems)) for _ in range(deg)]
        coeffs.append(data.draw(st.sampled_from(nonzero)))
        p = Polynomial.of(hf, coeffs)
        a = data.draw(st.sampled_from(elems))
        m = mult_at(p, a)
        assert 0 <= m <= p.degree
        assert (m > 0) == is_root(p, a)


class TestPhase:
    def test_squared_linear_factor(self):
        P = by_name("P")
        p = parse_poly("T^2+ph(4/3)T+ph(2/3)", P)
        a = P.element(Fraction(1, 3))
        assert is_root(p, a) and mult_at(p, a) == 2
        qs = quotients(p, a)
        assert qs.exact
        assert [str(q) for q in qs.representatives] == ["T+ph(4/3)"]

    def test_balanced_phases_are_a_simple_root(self):
        # 1 + w + w^2 = 0 for a primitive third root of unity, so ph(0) is
        # also a root here, but only to order one
        P = by_name("P")
        p = parse_poly("T^2+ph(4/3)T+ph(2/3)", P)
        assert is_root(p, P.element(0))
        assert mult_at(p, P.element(0)) == 1


class TestTropical:
    def test_root_points(self):
        T = by_name("T")
        roots = tropical_root_points(parse_poly("0T^2+2", T))
        assert [T.format_element(x) for x in roots] == ["1"]
        roots = tropical_root_points(parse_poly("0T^2+1T+(-5)", T))
        assert sorted(T.format_element(x) for x in roots) == ["-6", "1"]
        roots = tropical_root_points(parse_poly("0T^3+1T^2", T))
        assert sorted(T.format_element(x) for x in roots) == ["-inf", "1"]

    @given(st.lists(st.sampled_from([None, -3, -1, 0, Fraction(1, 2), 2, 3]),
                    max_size=5), st.integers(-3, 3))
    @settings(max_examples=300, deadline=None)
    def test_root_points_are_the_pairwise_ties(self, low, top):
        # the definition: a is a root where two terms c_i + i*a tie at the
        # maximum, and -inf is a root when c_0 = -inf
        T = by_name("T")
        p = Polynomial.of(T, ["-inf" if c is None else c for c in low + [top]])
        finite = [(i, c.payload.q) for i, c in enumerate(p.coeffs)
                  if not T.is_zero(c)]
        expected = {T.zero()} if T.is_zero(p.coeff(0)) else set()
        for (i, ci), (j, cj) in itertools.combinations(finite, 2):
            a = Fraction(ci - cj, j - i)
            if all(ck + k * a <= ci + i * a for k, ck in finite):
                expected.add(T.element(a))
        roots = tropical_root_points(p)
        assert len(roots) == len(set(roots))
        assert set(roots) == expected

    def test_tie_quotient_and_double_root(self):
        T = by_name("T")
        p = parse_poly("0T^2+2", T)
        one = T.element(1)
        qs = quotients(p, one)
        assert qs.exact
        assert [str(q) for q in qs.representatives] == ["0T+1"]
        assert mult_at(p, one) == 2

    def test_region_multiplicities(self):
        T = by_name("T")
        p = parse_poly("0T^2+1T+(-5)", T)
        assert mult_set(p, interval_region("T", lo=0)) == 1
        assert mult_set(p, interval_region("T")) == 2
        assert mult_set(p, interval_region("T", lo=-10, hi=-3)) == 1
        assert mult_set(p, interval_region("T", lo=2, hi=9)) == 0

    def test_neg_inf_root_multiplicity(self):
        T = by_name("T")
        p = parse_poly("0T^3+1T^2", T)
        assert mult_at(p, T.zero()) == 2
        assert mult_at(p, T.element(1)) == 1


class TestViroRegions:
    def test_quadratic_region_multiplicities(self):
        V = by_name("V")
        p = parse_poly("T^2+3T+1", V)
        assert mult_set(p, interval_region("V", lo=1)) == 1
        assert mult_set(p, interval_region("V", lo=0)) == 2
        assert mult_set(p, interval_region("V", lo=4)) == 0

    def test_zero_constant_reduces_to_point_roots(self):
        V = by_name("V")
        p = parse_poly("T^2+3T", V)
        assert mult_set(p, interval_region("V", lo=2, hi=4)) == 1
        assert mult_set(p, interval_region("V", lo=0, hi=4)) == 2

    def test_linear_case(self):
        V = by_name("V")
        p = parse_poly("2T+3", V)
        assert mult_set(p, interval_region("V", lo=1, hi=2)) == 1
        assert mult_set(p, interval_region("V", lo=2, hi=9)) == 0

    def test_degree_three_region_is_out_of_scope(self):
        V = by_name("V")
        with pytest.raises(UndecidedError):
            mult_set(parse_poly("T^3+1", V), interval_region("V", lo=0))

    def test_explicit_point_lists_still_work(self):
        V = by_name("V")
        p = parse_poly("T^2+3T+1", V)
        # 0 in p(a) at a = 3 means |9-9| <= 1 <= 18: a genuine root
        assert mult_set(p, [V.element(3)]) == 1
        assert mult_set(p, [V.element(9)]) == 0


class TestFiniteSetRegion:
    def test_a_carrier_set_region_counts_each_member(self):
        # T^2-1 = (T-1)(T+1) over S, and the quotient T+1 has the root -1
        S = by_name("S")
        assert mult_set(parse_poly("T^2-1", S), S.full_set()) == 2


class TestContinuousRegionScope:
    def test_phase_regions_are_refused(self):
        P = by_name("P")
        p = parse_poly("T^2+ph(4/3)T+ph(2/3)", P)
        with pytest.raises(UndecidedError):
            mult_set(p, P.full_set())

    def test_arc_region_names_the_scope(self):
        P = by_name("P")
        region = P.hyperadd(P.element(Fraction(0)), P.element(Fraction(1, 2)))
        assert isinstance(region, ArcSet) and not region.is_singleton()
        with pytest.raises(UndecidedError, match="continuous root regions "
                                                 "over P are out of scope"):
            mult_set(parse_poly("T+ph(1)", P), region)

    def test_a_constant_has_no_root_on_an_arc(self):
        P = by_name("P")
        region = P.hyperadd(P.element(Fraction(0)), P.element(Fraction(1, 2)))
        assert mult_set(parse_poly("ph(1/3)", P), region) == 0


# ---------------------------------------------------------------------------
# closed forms of Baker & Lorscheid (arXiv:1811.04966) as oracles; the
# coefficient lists run from T^0 up, None is the tropical zero -inf


def newton_width(coeffs, a):
    """Over T: the width of the Newton-polygon edge of slope -a, the spread
    of indices at which c_i + i*a attains its maximum."""
    values = {i: c + i * a for i, c in enumerate(coeffs) if c is not None}
    top = max(values.values())
    hits = [i for i, v in values.items() if v == top]
    return max(hits) - min(hits)


def descartes_count(coeffs, a):
    """Over S: the sign changes of the coefficients of p(aT) for a = +-1,
    and the lowest nonzero index for a = 0."""
    if a == 0:
        return next(i for i, c in enumerate(coeffs) if c)
    signs = [c * a ** i for i, c in enumerate(coeffs) if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def krasner_count(coeffs, a):
    """Over K: ord p at 0 and deg p - ord p at 1."""
    order = next(i for i, c in enumerate(coeffs) if c)
    return order if a == 0 else len(coeffs) - 1 - order


class TestClosedFormMultiplicities:
    """mult_at reads the closed forms; the quotient recursion must agree."""

    @given(st.lists(st.sampled_from([None, -3, -2, -1, 0, 1, 2, 3]),
                    max_size=4),
           st.integers(-3, 3), st.one_of(st.none(), st.integers(-3, 3)))
    @settings(max_examples=200, deadline=None)
    def test_tropical_mult_at_is_the_newton_edge_width(self, low, top, a):
        coeffs = low + [top]
        T = by_name("T")
        p = Polynomial.of(T, ["-inf" if c is None else c for c in coeffs])
        if a is None:
            # -inf is a root once per low -inf coefficient
            want = next(i for i, c in enumerate(coeffs) if c is not None)
            root = T.zero()
        else:
            want, root = newton_width(coeffs, a), T.element(a)
        assert mult_at(p, root) == want
        assert divide.mult_by_quotients(p, [root]) == want

    @given(st.lists(st.sampled_from([-1, 0, 1]), max_size=5),
           st.sampled_from([-1, 1]), st.sampled_from([-1, 0, 1]))
    @settings(max_examples=200, deadline=None)
    def test_sign_mult_at_is_the_descartes_count(self, low, top, a):
        coeffs = low + [top]
        S = by_name("S")
        p = Polynomial.of(S, coeffs)
        want = descartes_count(coeffs, a)
        assert mult_at(p, S.element(a)) == want
        assert divide.mult_by_quotients(p, [S.element(a)]) == want

    def test_krasner_mult_at_is_deg_minus_ord(self):
        K = by_name("K")
        polys = [p for d in range(MAX_DEGREE + 1) for p in all_polys(K, d)]
        assert len(polys) == 127
        for p in polys:
            coeffs = [c.payload for c in p.coeffs]
            for a in (0, 1):
                want = krasner_count(coeffs, a)
                assert mult_at(p, K.element(a)) == want, (p, a)
                assert divide.mult_by_quotients(p, [K.element(a)]) == want

    def test_no_quotient_is_taken(self, monkeypatch):
        def refused(p, a):
            raise AssertionError("quotients called")

        monkeypatch.setattr(divide, "quotients", refused)
        T, S, K = by_name("T"), by_name("S"), by_name("K")
        assert mult_at(parse_poly("0T^3+1T^2", T), T.zero()) == 2
        assert mult_at(parse_poly("0T^4+2", T), T.element(Fraction(1, 2))) == 4
        assert mult_at(parse_poly("0T^2+2", T), T.element(0)) == 0
        assert mult_at(parse_poly("T^4-T^3-T+1", S), S.one()) == 2
        assert mult_at(parse_poly("T^3-T", S), S.zero()) == 1
        assert mult_at(parse_poly("T^5+T^2", K), K.one()) == 3
        assert mult_at(parse_poly("T^5+T^2", K), K.zero()) == 2
        assert isinstance(mult_at(parse_poly("T^2+1", K), K.one()), int)
