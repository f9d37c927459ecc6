"""Exact quadratic-inequality feasibility against independent float checks."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly.realroots import (
    Feasibility,
    IrrationalRoot,
    feasible_point,
    integer_quad,
    root_in_union,
    roots_of,
    sign_at,
    sign_at_root,
    sqrt_exact,
)
from hyperpoly.sets import ExtRat, Interval, IntervalUnion, NEG_INF, POS_INF

small = st.fractions(min_value=-5, max_value=5, max_denominator=4)
quads = st.tuples(small, small, small)


def qeval(g, a):
    """g at a in Fraction arithmetic: the reference for the integer signs."""
    A, B, C = g
    return A * a * a + B * a + C


def sign(x):
    return (x > 0) - (x < 0)


def float_roots(g):
    A, B, C = (float(x) for x in g)
    if A == 0:
        return [] if B == 0 else [-C / B]
    disc = B * B - 4 * A * C
    if disc < 0:
        return []
    s = math.sqrt(disc)
    return sorted([(-B - s) / (2 * A), (-B + s) / (2 * A)])


class TestSqrtExact:
    def test_perfect_squares(self):
        assert sqrt_exact(Fraction(4)) == 2
        assert sqrt_exact(Fraction(4, 9)) == Fraction(2, 3)
        assert sqrt_exact(Fraction(0)) == 0

    def test_non_squares_and_negatives(self):
        assert sqrt_exact(Fraction(2)) is None
        assert sqrt_exact(Fraction(1, 2)) is None
        assert sqrt_exact(Fraction(-4)) is None

    @given(st.fractions(min_value=0, max_value=40, max_denominator=12))
    def test_square_round_trip(self, x):
        assert sqrt_exact(x * x) == x


coefficients = st.one_of(st.just(0), st.integers(-10**6, 10**6),
                         st.fractions(max_denominator=10**4))


class TestIntegerSigns:
    @given(st.tuples(coefficients, coefficients, coefficients),
           st.fractions(max_denominator=10**4))
    @settings(max_examples=500)
    def test_integer_sign_is_the_sign_of_qeval(self, g, a):
        a = Fraction(a)
        scaled = integer_quad(g)
        assert all(type(x) is int for x in scaled)
        assert sign_at(scaled, a) == sign_at(g, a) == sign(qeval(g, a))

    def test_scaling_by_the_common_denominator(self):
        g = (Fraction(1, 2), Fraction(-3, 4), Fraction(1, 6))
        assert integer_quad(g) == (6, -9, 2)
        assert integer_quad((0, 5, Fraction(-1, 3))) == (0, 15, -1)

    @given(quads)
    def test_scaling_keeps_the_roots(self, g):
        rats, irrs = roots_of(g)
        int_rats, int_irrs = roots_of(integer_quad(g))
        assert int_rats == rats and len(int_irrs) == len(irrs)
        for root in int_irrs:
            assert qeval(g, root.lo) * qeval(g, root.hi) < 0


class TestRootsOf:
    def test_rational_pairs_and_degenerate_cases(self):
        assert roots_of((Fraction(1), Fraction(-3), Fraction(2)))[0] == [1, 2]
        assert roots_of((Fraction(0), Fraction(2), Fraction(-4)))[0] == [2]
        assert roots_of((Fraction(0), Fraction(0), Fraction(5))) == ([], [])
        assert roots_of((Fraction(1), Fraction(0), Fraction(1))) == ([], [])
        assert roots_of((Fraction(1), Fraction(-2), Fraction(1)))[0] == [1]

    def test_sqrt_two_brackets(self):
        g = (Fraction(1), Fraction(0), Fraction(-2))
        rats, irrs = roots_of(g)
        assert rats == [] and len(irrs) == 2
        for root, target in zip(irrs, (-math.sqrt(2), math.sqrt(2))):
            assert float(root.lo) < target < float(root.hi)
            assert qeval(g, root.lo) * qeval(g, root.hi) < 0

    @given(quads)
    @settings(max_examples=300)
    def test_exact_roots_match_float_roots(self, g):
        rats, irrs = roots_of(g)
        for r in rats:
            assert qeval(g, r) == 0
        for root in irrs:
            assert qeval(g, root.lo) * qeval(g, root.hi) < 0
        got = sorted([float(r) for r in rats] +
                     [(float(r.lo) + float(r.hi)) / 2
                      for r in (root.refined(30) for root in irrs)])
        expected = sorted(set(float_roots(g)))
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert abs(a - b) < 1e-5


class TestIrrationalRoots:
    def test_refined_shrinks_and_keeps_sign_change(self):
        g = (Fraction(1), Fraction(0), Fraction(-2))
        root = roots_of(g)[1][1]
        tighter = root.refined(6)
        assert tighter.hi - tighter.lo <= (root.hi - root.lo) / 64
        assert qeval(g, tighter.lo) * qeval(g, tighter.hi) < 0

    def test_compare_against_rationals(self):
        g = (Fraction(1), Fraction(0), Fraction(-2))
        neg, pos = roots_of(g)[1]
        assert pos.compare(Fraction(1)) == 1
        assert pos.compare(Fraction(2)) == -1
        assert neg.compare(Fraction(0)) == -1
        refined = pos.avoid(Fraction(141, 100))
        assert not (refined.lo < Fraction(141, 100) < refined.hi)

    def test_sign_at_root_of_independent_quadratics(self):
        g = (Fraction(1), Fraction(0), Fraction(-2))
        neg, pos = roots_of(g)[1]
        ident = (Fraction(0), Fraction(1), Fraction(0))
        assert sign_at_root(ident, pos) == 1
        assert sign_at_root(ident, neg) == -1
        assert sign_at_root((Fraction(1), Fraction(0), Fraction(-3)), pos) == -1
        assert sign_at_root((Fraction(2), Fraction(0), Fraction(-4)), pos) == 0

    def test_root_in_union(self):
        pos = roots_of((Fraction(1), Fraction(0), Fraction(-2)))[1][1]
        assert root_in_union(pos, IntervalUnion.closed(Fraction(1), Fraction(2)))
        assert not root_in_union(pos, IntervalUnion.closed(Fraction(3, 2),
                                                           Fraction(2)))
        ray = IntervalUnion((Interval(ExtRat(Fraction(1)), POS_INF, True, False),))
        assert root_in_union(pos, ray)


class TestFeasiblePoint:
    def test_rational_witness(self):
        union = IntervalUnion.closed(Fraction(0), Fraction(3))
        out = feasible_point(union, [(Fraction(1), Fraction(0), Fraction(-2))])
        assert out.feasible and out.witness is not None
        assert out.witness * out.witness >= 2
        assert union.contains(ExtRat(out.witness))

    def test_isolated_irrational_point(self):
        # a^2 >= 2 and a^2 <= 2 inside [1,2] leaves only sqrt(2)
        union = IntervalUnion.closed(Fraction(1), Fraction(2))
        out = feasible_point(union, [(Fraction(1), Fraction(0), Fraction(-2)),
                                     (Fraction(-1), Fraction(0), Fraction(2))])
        assert out.feasible and out.witness is None
        lo, hi = out.bracket
        assert float(lo) < math.sqrt(2) < float(hi)

    def test_tangency_witness_is_the_double_root(self):
        union = IntervalUnion.closed(Fraction(0), Fraction(3))
        out = feasible_point(union, [(Fraction(-1), Fraction(2), Fraction(-1))])
        assert out.feasible and out.witness == 1

    def test_proportional_quadratics_do_not_loop(self):
        union = IntervalUnion.closed(Fraction(0), Fraction(2))
        out = feasible_point(union, [
            (Fraction(1), Fraction(0), Fraction(-2)),
            (Fraction(2), Fraction(0), Fraction(-4)),
            (Fraction(-1), Fraction(0), Fraction(2)),
        ])
        assert out.feasible and out.bracket is not None

    def test_infeasible_cases(self):
        union = IntervalUnion.closed(Fraction(0), Fraction(1))
        assert not feasible_point(union,
                                  [(Fraction(1), Fraction(0), Fraction(-2))]).feasible
        assert not feasible_point(IntervalUnion(()), []).feasible
        # strictly negative quadratic
        assert not feasible_point(
            IntervalUnion.closed(Fraction(-9), Fraction(9)),
            [(Fraction(-1), Fraction(0), Fraction(-1))]).feasible

    def test_unconstrained_line(self):
        line = IntervalUnion((Interval(NEG_INF, POS_INF, False, False),))
        out = feasible_point(line, [])
        assert out.feasible and out.witness == 0

    @given(st.lists(quads, max_size=3),
           st.fractions(min_value=-6, max_value=6, max_denominator=3),
           st.fractions(min_value=0, max_value=6, max_denominator=3))
    @settings(max_examples=250, deadline=None)
    def test_verdicts_against_dense_float_sampling(self, gs, lo, width):
        union = IntervalUnion.closed(lo, lo + width)
        out = feasible_point(union, gs)
        if out.feasible:
            if out.witness is not None:
                assert union.contains(ExtRat(out.witness))
                assert all(qeval(g, out.witness) >= 0 for g in gs)
            else:
                mid = (float(out.bracket[0]) + float(out.bracket[1])) / 2
                assert float(lo) - 1e-6 <= mid <= float(lo + width) + 1e-6
                assert all(float(g[0]) * mid * mid + float(g[1]) * mid +
                           float(g[2]) >= -1e-6 for g in gs)
        else:
            steps = 64
            grid = [lo + Fraction(k, steps) * width for k in range(steps + 1)]
            for g in gs:
                grid.extend(r for r in roots_of(g)[0] if lo <= r <= lo + width)
            for a in grid:
                assert not all(qeval(g, a) >= 0 for g in gs), \
                    f"claimed infeasible but a={a} works"
