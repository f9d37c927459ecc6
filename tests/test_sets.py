"""Interval and arc machinery, tested against brute-force rational sampling."""
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly.sets import (ArcUnion, ExtRat, Interval, IntervalUnion,
                            NEG_INF, POS_INF, _earlier_end, _later_start,
                            _make_interval, _wrap, angle_mod, arcs_minkowski,
                            ext, interval_add, interval_max, minor_arc)

rationals = st.fractions(min_value=-8, max_value=8,
                         max_denominator=4).map(Fraction)


def make_union(endpoints):
    parts = []
    for lo, hi, lc, hc in endpoints:
        if lo > hi or (lo == hi and not (lc and hc)):
            continue
        parts.append(Interval(ext(lo), ext(hi), lc, hc))
    return IntervalUnion.of(parts)


unions = st.lists(
    st.tuples(rationals, rationals, st.booleans(), st.booleans()),
    max_size=3).map(make_union)


def grid(step=Fraction(1, 4), lo=-10, hi=10):
    n = int((hi - lo) / step)
    return [Fraction(lo) + k * step for k in range(n + 1)]


GRID = grid()


class TestExtRat:
    def test_order_and_addition(self):
        assert NEG_INF < ext(-100) < ext(0) < ext(100) < POS_INF
        assert NEG_INF + ext(5) == NEG_INF
        assert ext(Fraction(1, 2)) + ext(Fraction(1, 3)) == ext(Fraction(5, 6))
        assert -NEG_INF == POS_INF

    def test_str(self):
        assert str(NEG_INF) == "-inf"
        assert str(ext(Fraction(3, 2))) == "3/2"


# The reference model of an extended rational is the key (inf, q): inf is -1,
# 0 or +1 and q a Fraction, 0 for the infinities.
ext_keys = st.one_of(st.tuples(st.just(0), rationals),
                     st.tuples(st.sampled_from([-1, 1]), st.just(Fraction(0))))


def from_key(key):
    inf, q = key
    return ExtRat(q, inf)


def is_reduced(q):
    return q.denominator > 0 and math.gcd(q.numerator, q.denominator) == 1


class TestValueTypes:
    @given(ext_keys, ext_keys)
    @settings(max_examples=200, deadline=None)
    def test_order_and_equality_follow_the_reference_key(self, a, b):
        x, y = from_key(a), from_key(b)
        for op in (operator.lt, operator.le, operator.gt, operator.ge,
                   operator.eq, operator.ne):
            assert op(x, y) == op(a, b)

    @given(ext_keys)
    @settings(max_examples=200, deadline=None)
    def test_hash_is_that_of_the_field_tuple(self, key):
        inf, q = key
        assert hash(ExtRat(q, inf)) == hash((q, inf))
        assert ExtRat(q, inf).q == q and ExtRat(q, inf).inf == inf

    @given(rationals, rationals)
    @settings(max_examples=200, deadline=None)
    def test_addition_and_negation_are_exact(self, a, b):
        total = (ext(a) + ext(b)).q
        assert total == a + b and is_reduced(total)
        assert (-ext(a)).q == -a

    def test_fields_cannot_be_assigned_or_deleted(self):
        x = ext(Fraction(1, 2))
        part = Interval(ext(0), x, True, False)
        union = IntervalUnion((part,))
        values = [(x, "q"), (x, "inf"), (part, "lo"), (part, "hi_closed"),
                  (union, "parts"), (ArcUnion(union), "has_zero")]
        for value, field in values:
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field))
            with pytest.raises(AttributeError):
                delattr(value, field)
        assert x == ext(Fraction(1, 2)) and part.hi is x

    def test_interval_hash_and_repr_are_those_of_the_fields(self):
        part = Interval(NEG_INF, ext(3), True, False)
        assert hash(part) == hash((NEG_INF, ext(3), True, False))
        assert part == Interval(ExtRat(inf=-1), ext(Fraction(6, 2)),
                                True, False)
        assert repr(part) == ("Interval(lo=ExtRat(q=Fraction(0, 1), inf=-1), "
                              "hi=ExtRat(q=Fraction(3, 1), inf=0), "
                              "lo_closed=True, hi_closed=False)")

    @given(ext_keys, ext_keys, ext_keys, st.booleans(), st.booleans())
    @settings(max_examples=250, deadline=None)
    def test_contains_and_emptiness_follow_the_endpoint_keys(
            self, lo, hi, x, lo_closed, hi_closed):
        start = (lo, 0 if lo_closed else 1)
        end = (hi, 0 if hi_closed else -1)
        made = _make_interval(from_key(lo), from_key(hi), lo_closed, hi_closed)
        assert (made is None) == (start > end)
        if made is None:
            with pytest.raises(ValueError):
                Interval(from_key(lo), from_key(hi), lo_closed, hi_closed)
            return
        assert made == Interval(from_key(lo), from_key(hi), lo_closed,
                                hi_closed)
        assert made.contains(from_key(x)) == (start <= (x, 0) <= end)


def wrap_reference(lo, hi, lo_closed, hi_closed):
    """The image of the unrolled arc from lo to hi on [0, 2), in Fraction
    arithmetic, as (lo, hi, lo_closed, hi_closed) tuples."""
    span = hi - lo
    if span > 2 or (span == 2 and (lo_closed or hi_closed)):
        return [(0, 2, True, False)]
    s = lo % 2
    if span == 2:
        if s == 0:
            return [(0, 2, False, False)]
        return [(0, s, True, False), (s, 2, False, False)]
    lo, hi = s, hi - (lo - s)
    if hi < 2 or (hi == 2 and not hi_closed):
        if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
            return []
        return [(lo, hi, lo_closed, hi_closed)]
    out = [(lo, 2, lo_closed, False)]
    if hi > 2 or hi_closed:
        out.append((0, hi - 2, True, hi_closed))
    return out


spans = st.one_of(st.just(Fraction(2)), st.just(Fraction(0)),
                  st.fractions(min_value=0, max_value=5, max_denominator=6))


class TestWrap:
    @given(st.fractions(min_value=-9, max_value=9, max_denominator=6), spans,
           st.booleans(), st.booleans())
    @settings(max_examples=250, deadline=None)
    def test_wrap_agrees_with_fraction_reference(self, lo, span, lo_closed,
                                                 hi_closed):
        parts = _wrap(lo, lo + span, lo_closed, hi_closed)
        got = [(p.lo.q, p.hi.q, p.lo_closed, p.hi_closed) for p in parts]
        assert got == wrap_reference(lo, lo + span, lo_closed, hi_closed)
        assert all(is_reduced(q) for p in got for q in p[:2])

    @given(st.fractions(min_value=-9, max_value=9, max_denominator=6))
    @settings(max_examples=100, deadline=None)
    def test_angle_mod_is_the_remainder_mod_2(self, a):
        assert angle_mod(a) == a % 2 and is_reduced(angle_mod(a))


class TestIntervalUnion:
    @given(unions, unions)
    @settings(max_examples=60, deadline=None)
    def test_union_intersect_agree_with_pointwise(self, a, b):
        for x in GRID[::3]:
            assert a.union(b).contains(ext(x)) == \
                (a.contains(ext(x)) or b.contains(ext(x)))
            assert a.intersect(b).contains(ext(x)) == \
                (a.contains(ext(x)) and b.contains(ext(x)))

    @given(unions)
    @settings(max_examples=60, deadline=None)
    def test_complement_involution(self, a):
        again = a.complement().complement()
        for x in GRID[::3]:
            assert again.contains(ext(x)) == a.contains(ext(x))

    @given(unions, unions)
    @settings(max_examples=60, deadline=None)
    def test_difference_is_intersection_with_complement(self, a, b):
        d = a.difference(b)
        for x in GRID[::3]:
            assert d.contains(ext(x)) == \
                (a.contains(ext(x)) and not b.contains(ext(x)))

    def test_normalization_merges_touching_parts(self):
        u = IntervalUnion.of([
            Interval(ext(0), ext(1), True, False),
            Interval(ext(1), ext(2), True, True)])
        assert len(u.parts) == 1
        gap = IntervalUnion.of([
            Interval(ext(0), ext(1), True, False),
            Interval(ext(1), ext(2), False, True)])
        assert len(gap.parts) == 2 and not gap.contains(ext(1))

    def test_remove_point_and_samples(self):
        u = IntervalUnion.closed(0, 2).remove_point(ext(0))
        assert not u.contains(ext(0)) and u.contains(ext(Fraction(1, 100)))
        for v in u.sample_values():
            assert u.contains(v)

    def test_max_value_flags_attainment(self):
        top, attained = IntervalUnion.closed(0, 2).max_value()
        assert top == ext(2) and attained
        half_open = IntervalUnion.of([Interval(ext(0), ext(2), True, False)])
        top, attained = half_open.max_value()
        assert top == ext(2) and not attained


class TestFloatsRefused:
    def test_an_extended_rational_is_not_read_from_a_float(self):
        for make in (lambda: ExtRat(0.1), lambda: ext(0.5),
                     lambda: IntervalUnion.closed(0.1, 1),
                     lambda: IntervalUnion.point(2.0)):
            with pytest.raises(ValueError, match="float"):
                make()
        assert ExtRat(Fraction(1, 10)) == ExtRat("1/10") == ext("0.1")
        assert IntervalUnion.closed(0, 1) == IntervalUnion.closed(
            Fraction(0), ExtRat(1))


# Endpoints of the wide unions: rationals and both infinities.
ext_ends = st.one_of(rationals.map(ext), st.sampled_from([NEG_INF, POS_INF]))
wide_unions = st.lists(
    st.tuples(ext_ends, ext_ends, st.booleans(), st.booleans()),
    max_size=4).map(make_union)


# The earlier forms of the operations that now build their results
# directly: each part list goes through IntervalUnion.of, and each finite
# extended rational through the checked constructor.
def reference_add(x, y):
    if x.inf == 0 and y.inf == 0:
        return ExtRat(x.q + y.q)
    if -1 in (x.inf, y.inf):
        if 1 in (x.inf, y.inf):
            raise ArithmeticError("cannot add -inf and +inf")
        return NEG_INF
    return POS_INF


def reference_neg(x):
    return ExtRat(-x.q) if x.inf == 0 else ExtRat(inf=-x.inf)


def reference_intersect(a, b):
    out = []
    for p in a.parts:
        for q in b.parts:
            lo, lc = _later_start(p, q)
            hi, hc = _earlier_end(p, q)
            out.append(_make_interval(lo, hi, lc, hc))
    return IntervalUnion.of(out)


def reference_translate(u, c):
    if c.inf == -1:
        return IntervalUnion.point(NEG_INF) if u.parts else u
    return IntervalUnion.of(
        Interval(reference_add(p.lo, c), reference_add(p.hi, c),
                 p.lo_closed, p.hi_closed) for p in u.parts)


def reference_scale(u, c):
    def s(v):
        return v if v.inf else ExtRat(v.q * c)
    return IntervalUnion.of(Interval(s(p.lo), s(p.hi), p.lo_closed,
                                     p.hi_closed) for p in u.parts)


def outcome(fn):
    """fn's value, or the type of the error it raised."""
    try:
        return fn()
    except Exception as err:
        return type(err)


def assert_same_canonical(got, expected):
    assert got == expected
    assert IntervalUnion.of(got.parts) == got
    for p in got.parts:
        for v in (p.lo, p.hi):
            assert type(v.q) is Fraction and is_reduced(v.q)


class TestDirectBuilds:
    """intersect, translate and scale of canonical unions give the
    canonical union that the earlier forms made through of, and the
    unchecked finite results of + and negation are the checked ones."""

    @given(wide_unions, wide_unions)
    @settings(max_examples=300, deadline=None)
    def test_intersect_is_the_reference(self, a, b):
        assert_same_canonical(a.intersect(b), reference_intersect(a, b))

    @given(wide_unions, st.one_of(rationals.map(ext), st.just(NEG_INF)))
    @settings(max_examples=200, deadline=None)
    def test_translate_is_the_reference(self, u, c):
        assert_same_canonical(u.translate(c), reference_translate(u, c))

    @given(wide_unions, rationals.filter(lambda q: q > 0))
    @settings(max_examples=200, deadline=None)
    def test_scale_is_the_reference(self, u, c):
        assert_same_canonical(u.scale(c), reference_scale(u, c))
        with pytest.raises(ValueError):
            u.scale(-c)

    @given(ext_keys, ext_keys)
    @settings(max_examples=200, deadline=None)
    def test_add_and_negation_are_the_reference(self, a, b):
        x, y = from_key(a), from_key(b)
        got = outcome(lambda: x + y)
        assert got == outcome(lambda: reference_add(x, y))
        assert -x == reference_neg(x)
        for v in ([got] if isinstance(got, ExtRat) else []) + [-x]:
            assert type(v.q) is Fraction and is_reduced(v.q)
            assert hash(v) == hash((v.q, v.inf))


def sample_members(u, limit=12):
    out = [v for v in u.sample_values() if v.inf == 0]
    return out[:limit]


class TestIntervalArithmetic:
    @given(unions, unions)
    @settings(max_examples=40, deadline=None)
    def test_interval_max_soundness(self, a, b):
        if a.is_empty() or b.is_empty():
            return
        maxes = IntervalUnion.of(interval_max(i, j)
                                 for i in a.parts for j in b.parts)
        for x in sample_members(a):
            for y in sample_members(b):
                assert maxes.contains(max(x, y))

    @given(unions, unions)
    @settings(max_examples=40, deadline=None)
    def test_interval_add_soundness(self, a, b):
        if a.is_empty() or b.is_empty():
            return
        sums = IntervalUnion.of(interval_add(i, j)
                                for i in a.parts for j in b.parts)
        for x in sample_members(a):
            for y in sample_members(b):
                assert sums.contains(x + y)

    def test_translate_scale(self):
        u = IntervalUnion.closed(1, 2).translate(ext(3))
        assert u.contains(ext(4)) and not u.contains(ext(1))
        s = IntervalUnion.closed(1, 2).scale(Fraction(2))
        assert s.contains(ext(4)) and not s.contains(ext(1))


class TestArcs:
    def test_angle_mod(self):
        assert angle_mod(Fraction(5, 2)) == Fraction(1, 2)
        assert angle_mod(Fraction(-1, 4)) == Fraction(7, 4)

    def test_the_arc_helpers_refuse_a_float(self):
        # 0.1 is not the rational 1/10 but 3602879701896397/2^55
        arc = ArcUnion.arc(Fraction(1, 10), Fraction(1, 2), True, True)
        for call in (lambda: angle_mod(0.1),
                     lambda: _wrap(0.1, Fraction(1, 2), True, True),
                     lambda: _wrap(Fraction(0), 0.5, True, True),
                     lambda: ArcUnion.arc(0.1, 0.5, True, True),
                     lambda: ArcUnion.point(0.25),
                     lambda: arc.rotate(0.5),
                     lambda: arc.contains_angle(0.25)):
            with pytest.raises(ValueError, match="exact.*float"):
                call()

    def test_the_arc_helpers_read_ints_and_fractions(self):
        assert angle_mod(5) == Fraction(1) and angle_mod(-1) == Fraction(1)
        assert type(angle_mod(3)) is Fraction
        arc = ArcUnion.arc(0, 1, True, True)
        assert arc == ArcUnion.arc(Fraction(0), Fraction(1), True, True)
        assert arc.rotate(1) == arc.rotate(Fraction(1)) == \
            ArcUnion.arc(1, 2, True, True)
        assert _wrap(3, 4, True, False) == _wrap(Fraction(1), Fraction(2),
                                                  True, False)

    def test_minor_arc_is_open_between(self):
        arc = minor_arc(Fraction(0), Fraction(1, 2))
        assert arc.contains_angle(Fraction(1, 4))
        assert not arc.contains_angle(Fraction(0))
        assert not arc.contains_angle(Fraction(1, 2))
        assert not arc.contains_angle(Fraction(1))

    def test_minor_arc_wraps(self):
        arc = minor_arc(Fraction(7, 4), Fraction(1, 4))
        assert arc.contains_angle(Fraction(0))
        assert not arc.contains_angle(Fraction(1))

    def test_rotate_antipode(self):
        arc = minor_arc(Fraction(0), Fraction(1, 2))
        assert arc.rotate(Fraction(1)).contains_angle(Fraction(5, 4))
        assert arc.antipode().contains_angle(Fraction(5, 4))

    def test_arcs_minkowski_covers_samples(self):
        rng = random.Random(3)
        for _ in range(25):
            a = minor_arc(Fraction(rng.randint(0, 7), 4),
                          Fraction(rng.randint(0, 7), 4) + Fraction(1, 8))
            b = minor_arc(Fraction(rng.randint(0, 7), 4),
                          Fraction(rng.randint(0, 7), 4) + Fraction(1, 8))
            if a.is_empty() or b.is_empty():
                continue
            total = arcs_minkowski(a, b)
            for x in a.angles_sample():
                for y in b.angles_sample():
                    assert total.contains(ext(angle_mod(x + y))) or \
                        total.contains(ext(x + y))

    def test_full_circle_and_difference(self):
        full = ArcUnion.full_circle()
        assert full.is_full_circle()
        rest = full.difference(ArcUnion.point(Fraction(1, 2)))
        assert not rest.contains_angle(Fraction(1, 2))
        assert rest.contains_angle(Fraction(1, 4))
