"""Tropical subset-sum boxes, root multisets, and exact reducibility."""

import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import (
    Element,
    PolyBox,
    Polynomial,
    UndecidedError,
    boxprod,
    box_equivalence,
    by_name,
    is_reducible,
    linear_product_box,
    parse_poly,
    root_multiset,
    trop_hypersum_sorted,
)
from hyperpoly import tropical
from hyperpoly.divide import mult_by_quotients
from hyperpoly.polyalg import MAX_DEGREE

T = by_name("T")

finite_vals = st.fractions(min_value=-9, max_value=9, max_denominator=4)
trop_vals = st.one_of(st.just("-inf"), finite_vals)


def elems(raws):
    return [T.element(r) for r in raws]


class TestHypersumShortcut:
    @given(st.lists(trop_vals, min_size=1, max_size=6))
    @settings(max_examples=300)
    def test_agrees_with_pairwise_fold(self, raws):
        values = elems(raws)
        assert trop_hypersum_sorted(values) == T.hypersum(values)

    def test_bulk_random_agreement(self):
        rng = random.Random(515)
        for _ in range(1000):
            raws = [rng.choice(["-inf", Fraction(rng.randint(-40, 40), rng.choice([1, 2, 4]))])
                    for _ in range(rng.randint(1, 6))]
            values = elems(raws)
            assert trop_hypersum_sorted(values) == T.hypersum(values)

    @given(st.lists(trop_vals, min_size=1, max_size=6))
    @settings(max_examples=300)
    def test_closed_form_matches_the_left_fold(self, raws):
        # the generic hypersum: set_hyperadd folded over singletons
        values = elems(raws)
        acc = T.singleton(values[0])
        for x in values[1:]:
            acc = T.set_hyperadd(acc, T.singleton(x))
        assert T.hypersum(values) == acc

    def test_strict_versus_tied_maximum(self):
        strict = trop_hypersum_sorted(elems([1, 3, 2]))
        assert strict == T.singleton(T.element(3))
        tied = trop_hypersum_sorted(elems([3, 1, 3]))
        assert tied.contains(T.element(3)) and tied.contains(T.zero())
        assert not tied.contains(T.element(4))
        assert trop_hypersum_sorted(elems(["-inf", "-inf"])) == \
            T.singleton(T.zero())
        with pytest.raises(ValueError):
            trop_hypersum_sorted([])


def subset_walk_box(roots):
    """linear_product_box by its definition: cell n-s is the hypersum of
    every s-subset sum of the roots."""
    n = len(roots)
    cells = [None] * n + [T.singleton(T.one())]
    for s in range(1, n + 1):
        sums = []
        for combo in itertools.combinations(roots, s):
            total = combo[0].payload
            for a in combo[1:]:
                total = total + a.payload
            sums.append(Element(T.name, total))
        cells[n - s] = T.hypersum(sums)
    return PolyBox(T, tuple(cells))


class TestLinearProductBox:
    @given(st.lists(st.one_of(trop_vals, st.sampled_from([-1, 0, 2])),
                    min_size=1, max_size=6))
    @settings(max_examples=300)
    def test_closed_form_matches_the_subset_walk(self, raws):
        # small integers repeat often, so ties and -inf runs are drawn
        roots = elems(raws)
        box, walk = linear_product_box(roots), subset_walk_box(roots)
        assert box.cells == walk.cells
        assert str(box) == str(walk)

    def test_single_root(self):
        box = linear_product_box(elems([5]))
        assert box.cell(0) == T.singleton(T.element(5))
        assert box.cell(1) == T.singleton(T.one())

    @given(finite_vals, finite_vals)
    def test_two_roots_match_boxprod(self, a, b):
        box = linear_product_box(elems([a, b]))
        direct = boxprod(parse_poly(f"0T+({a})", T), parse_poly(f"0T+({b})", T))
        assert box.cells == direct.cells

    def test_equal_roots_tie_cells(self):
        box = linear_product_box(elems([0, 0]))
        assert box.cell(0) == T.singleton(T.element(0))
        assert box.cell(1).contains(T.zero()) and box.cell(1).contains(T.element(0))
        assert box.cell(2) == T.singleton(T.one())

    def test_triple_root_constant_cell_is_a_singleton(self):
        # only the middle cells widen: the size-3 subset is unique, so the
        # constant coefficient stays pinned at 3a
        box = linear_product_box(elems([2, 2, 2]))
        assert box.cell(0) == T.singleton(T.element(6))
        for i in (1, 2):
            assert box.cell(i).contains(T.zero())
        assert box.cell(3) == T.singleton(T.one())

    @given(st.lists(trop_vals, min_size=1, max_size=5), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_permutation_invariance(self, raws, rng):
        shuffled = list(raws)
        rng.shuffle(shuffled)
        assert linear_product_box(elems(raws)).cells == \
            linear_product_box(elems(shuffled)).cells

    @given(st.lists(trop_vals, min_size=1, max_size=5))
    @settings(max_examples=100)
    def test_top_cell_is_always_monic(self, raws):
        assert linear_product_box(elems(raws)).cell(len(raws)) == \
            T.singleton(T.one())


class TestBoxEquivalence:
    @given(st.lists(finite_vals, min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_iterated_products_fill_the_box(self, raws):
        result = box_equivalence(elems(raws))
        assert result.equal, result.failure
        assert result.samples_checked > 0
        assert len(result.steps) == len(raws)

    def test_repeated_roots_with_neg_inf(self):
        result = box_equivalence(elems([1, 1, "-inf"]))
        assert result.equal, result.failure


class TestRootMultiset:
    def test_frozen_examples(self):
        assert str(root_multiset(parse_poly("0T^2+2", T))) == "{1, 1}"
        assert str(root_multiset(parse_poly("0T^2+1T+(-5)", T))) == "{1, -6}"
        assert str(root_multiset(parse_poly("0T^3+1T^2", T))) == \
            "{1, -inf, -inf}"
        assert str(root_multiset(parse_poly("0T^4+2", T))) == \
            "{1/2, 1/2, 1/2, 1/2}"

    def test_counts(self):
        counts = root_multiset(parse_poly("0T^3+1T^2", T)).counts()
        assert counts[T.element(1)] == 1 and counts[T.zero()] == 2

    def test_rejects_non_monic_and_foreign_carriers(self):
        with pytest.raises(ValueError):
            root_multiset(parse_poly("1T^2+2", T))
        with pytest.raises(ValueError):
            root_multiset(parse_poly("T^2+1", by_name("S")))

    @given(st.integers(1, MAX_DEGREE).flatmap(
               lambda d: st.lists(trop_vals, min_size=d, max_size=d)),
           finite_vals)
    @settings(max_examples=300, deadline=None)
    def test_hull_counts_are_the_quotient_recursion(self, low, other):
        # root_multiset reads the Newton hull only; the quotient recursion,
        # a second algorithm, must count every root the same, and give 0
        # at -inf and at a finite value that is not a hull root
        p = Polynomial.of(T, low + [0])
        counts = root_multiset(p).counts()
        assert sum(counts.values()) == p.degree
        for a in set(counts) | {T.zero(), T.element(other)}:
            assert mult_by_quotients(p, [a]) == counts.get(a, 0), (p, a)

    def test_a_failing_box_replay_is_loud(self, monkeypatch):
        # the hull roots are replayed on the subset-sum box of their linear
        # factors; a box that misses p stops the answer
        real = tropical.linear_product_box
        monkeypatch.setattr(tropical, "linear_product_box",
                            lambda roots: real(list(roots) + [T.one()]))
        with pytest.raises(AssertionError,
                           match=re.escape("hull roots {1, 1} fail the box")):
            root_multiset(parse_poly("0T^2+2", T))

    @given(st.lists(trop_vals, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_through_box_members(self, raws):
        roots = elems(raws)
        expected = sorted((a.payload for a in roots), reverse=True)
        box = linear_product_box(roots)
        for p in box.sample_members(8, seed=3):
            got = root_multiset(p)
            assert [a.payload for a in got.roots] == expected


class TestReducibility:
    def test_double_root_is_irreducible(self):
        cert = is_reducible(parse_poly("0T^2+2", T))
        assert cert.reducible is False and cert.factors is None
        assert any("stays finite" in line for line in cert.trace)
        assert any("every product term at T^0 is -inf" in line
                   for line in cert.trace)

    def test_quadruple_root_is_irreducible(self):
        # all four roots are 1/2, but no singleton factorization exists
        cert = is_reducible(parse_poly("0T^4+2", T))
        assert cert.reducible is False

    def test_distinct_roots_split(self):
        p = boxprod(parse_poly("0T+0", T), parse_poly("0T+5", T)).the_polynomial()
        cert = is_reducible(p)
        assert cert.reducible is True
        assert cert.factors == ("0T+5", "0T+0")
        assert "verified" in cert.trace[-1]
        q = parse_poly(cert.factors[0], T)
        r = parse_poly(cert.factors[1], T)
        box = boxprod(q, r)
        assert box.is_singleton() and box.the_polynomial() == p

    def test_distinct_root_quadratic(self):
        cert = is_reducible(parse_poly("0T^2+1T+(-5)", T))
        assert cert.reducible is True
        q = parse_poly(cert.factors[0], T)
        r = parse_poly(cert.factors[1], T)
        box = boxprod(q, r)
        assert box.is_singleton() and \
            box.the_polynomial() == parse_poly("0T^2+1T+(-5)", T)

    def test_undecided_paths(self):
        high = parse_poly("0T^5+1T+0", T)
        cert = is_reducible(high)
        assert cert.reducible is None
        assert any("bound" in line for line in cert.trace)
        assert is_reducible(high, search_bound=5).reducible is not None
        viro = is_reducible(parse_poly("T^2+3T+1", by_name("V")))
        assert viro.reducible is None

    def test_degree_below_two_rejected(self):
        with pytest.raises(ValueError):
            is_reducible(parse_poly("0T+1", T))

    def test_galois_quadratics_match_classical_root_criterion(self):
        hf = by_name("GF(3)")
        for b in range(3):
            for c in range(3):
                p = parse_poly(f"T^2+{b}T+{c}", hf) if b or c else \
                    parse_poly("T^2", hf)
                has_root = any((a * a + b * a + c) % 3 == 0 for a in range(3))
                cert = is_reducible(p)
                assert cert.reducible is has_root, str(p)
                if cert.reducible:
                    assert "verified" in cert.trace[-1]

    def test_known_irreducible_cubic(self):
        hf = by_name("GF(3)")
        cert = is_reducible(parse_poly("T^3-T+1", hf))
        assert cert.reducible is False
        assert "no positive-degree factor pair" in cert.trace[-1]

    def test_json_form(self):
        cert = is_reducible(parse_poly("0T^2+2", T))
        assert '"reducible": false' in json.dumps(vars(cert))
