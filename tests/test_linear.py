"""Fourier-Motzkin feasibility: each back-substitution branch of
linear.feasible_point (a free variable, only an upper or only a lower
bound, strict or not, equal bounds and two distinct bounds) returns a point
that satisfies every constraint, and an infeasible system is refuted."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly.linear import Constraint, eq, feasible_point, le, lt


def satisfies(point, constraints) -> bool:
    for con in constraints:
        lhs = sum(c * x for c, x in zip(con.coeffs, point))
        if lhs > con.rhs or (con.strict and lhs == con.rhs):
            return False
    return True


@pytest.mark.parametrize("constraints,nvars,point", [
    # x0 free, x1 <= 3
    ([le([0, 1], 3)], 2, [0, 3]),
    # only an upper bound: x <= 2, then x < 2
    ([le([1], 2)], 1, [2]),
    ([lt([1], 2)], 1, [1]),
    # only a lower bound: x >= 2, then x > 2
    ([le([-1], -2)], 1, [2]),
    ([lt([-1], -2)], 1, [3]),
    # equal bounds
    (eq([1], 5), 1, [5]),
    # two distinct bounds: 0 <= x <= 4, then 0 < x < 1
    ([le([1], 4), le([-1], 0)], 1, [2]),
    ([lt([1], 1), lt([-1], 0)], 1, [Fraction(1, 2)]),
    # the tighter of two bounds on one side, the strict one on a tie
    ([le([1], 3), le([1], 1), lt([1], 1)], 1, [0]),
    # x0 > 0, x1 > 0, x0 + x1 < 1: x1's bounds depend on x0
    ([lt([-1, 0], 0), lt([0, -1], 0), lt([1, 1], 1)], 2,
     [Fraction(1, 2), Fraction(1, 4)]),
    # x0 + x1 = 3 with x0 >= 1: x1 is pinned once x0 is chosen
    (eq([1, 1], 3) + [le([-1, 0], -1)], 2, [1, 2]),
])
def test_each_branch_gives_a_feasible_point(constraints, nvars, point):
    got = feasible_point(constraints, nvars)
    assert got == point
    assert satisfies(got, constraints)


@pytest.mark.parametrize("constraints,nvars", [
    ([lt([1], 0), lt([-1], 0)], 1),  # x < 0 and -x < 0
    ([le([1], 0), le([-1], -1)], 1),  # x <= 0 and x >= 1
    ([lt([1, 1], 0), le([-1, 0], 0), le([0, -1], 0)], 2),
])
def test_an_infeasible_system_is_refuted(constraints, nvars):
    assert feasible_point(constraints, nvars) is None


def test_no_constraint_gives_the_origin():
    assert feasible_point([], 3) == [0, 0, 0]


@st.composite
def systems(draw):
    nvars = draw(st.integers(1, 3))
    small = st.integers(-3, 3)
    cons = [Constraint(tuple(Fraction(draw(small)) for _ in range(nvars)),
                       Fraction(draw(small)), draw(st.booleans()))
            for _ in range(draw(st.integers(0, 5)))]
    return cons, nvars


@given(systems())
@settings(max_examples=300, deadline=None)
def test_a_returned_point_satisfies_every_constraint(system):
    constraints, nvars = system
    point = feasible_point(constraints, nvars)
    if point is not None:
        assert len(point) == nvars
        assert satisfies(point, constraints)
    else:
        # a refuted system has no point on a small grid either
        grid = [Fraction(k, 4) for k in range(-16, 17)]
        if nvars == 1:
            assert not any(satisfies([x], constraints) for x in grid)
