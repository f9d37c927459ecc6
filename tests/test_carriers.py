"""Carrier-level behaviour: axiom checks, arithmetic tables, parsing."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import (
    PolyLeaf,
    ProbeSpec,
    ProdNode,
    assoc_check,
    by_name,
    check_axioms,
    cyclic_group_table,
    default_probe,
    expr_equal,
    expr_member,
    gf,
    is_doubly_distributive,
    krasner,
    load_cayley_table,
    parse_expr,
    parse_poly,
    signs,
    weak_group,
    weak_signs,
)
from hyperpoly import carriers
from hyperpoly.carriers import FiniteHyperfield, FiniteSet

FINITE = [
    krasner(),
    signs(),
    weak_signs(),
    gf(2),
    gf(3),
    gf(5),
    weak_group(*cyclic_group_table(3)),
    weak_group(*cyclic_group_table(4)),
]
INFINITE = [by_name("T"), by_name("V"), by_name("P")]

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
nonneg_rationals = st.fractions(min_value=0, max_value=8, max_denominator=6)


# ---------------------------------------------------------------------------
# axiom reports


class TestAxioms:
    @pytest.mark.parametrize("hf", FINITE, ids=lambda hf: hf.name)
    def test_finite_carriers_exhaustively(self, hf):
        report = check_axioms(hf, ProbeSpec.exhaustive())
        assert report.mode == "exhaustive"
        assert report.ok, str(report)

    @pytest.mark.parametrize("hf", INFINITE, ids=lambda hf: hf.name)
    def test_infinite_carriers_on_default_probe(self, hf):
        probe = default_probe(hf)
        assert probe.mode == "probe" and len(probe.points) > 0
        report = check_axioms(hf, probe)
        assert report.ok, str(report)

    def test_corrupted_table_is_caught(self):
        # GF(3) with 1(+)2 misdirected away from {0}: several axioms break
        # and the report must name at least one with a counterexample.
        base = gf(3)
        pairs = [(x, y) for x in base.elements() for y in base.elements()]
        mul = {(x.payload, y.payload): base.mul(x, y).payload
               for x, y in pairs}
        add = {(x.payload, y.payload): frozenset(
                   z.payload for z in base.sample_elements(base.hyperadd(x, y)))
               for x, y in pairs}
        add[(1, 2)] = frozenset({1})
        neg = {x.payload: base.neg(x).payload for x in base.elements()}
        inv = {x.payload: base.inv(x).payload
               for x in base.elements() if not base.is_zero(x)}
        broken = FiniteHyperfield("GF(3)~", [0, 1, 2], 0, 1,
                                  mul, neg, inv, add)
        report = check_axioms(broken, ProbeSpec.exhaustive())
        assert not report.ok
        failed = [c for c in report.checks if not c.passed]
        assert failed and all(c.counterexample for c in failed)
        assert {"hyperadd-commutative", "unique-hyperinverse"} <= \
            {c.name for c in failed}


class TestDoubleDistributivity:
    def test_verdicts(self):
        expected = {"K": True, "S": True, "GF(3)": True, "W": False}
        for name, holds in expected.items():
            hf = by_name(name)
            report = is_doubly_distributive(hf, default_probe(hf))
            assert report.holds is holds, str(report)

    def test_weak_signs_counterexample_is_replayable(self):
        hf = weak_signs()
        report = is_doubly_distributive(hf, ProbeSpec.exhaustive())
        assert not report.holds
        # -1 (+) -1 times itself misses 0, while the four products reach it.
        m1 = hf.element(-1)
        left = hf.hyperadd(m1, m1)
        lhs = hf.set_mul(left, left)
        rhs = hf.hypersum([hf.one()] * 4)
        assert lhs != rhs and rhs.contains(hf.zero()) and not lhs.contains(hf.zero())

    def test_probe_rejects_triangle_and_phase(self):
        for name in ("V", "P"):
            hf = by_name(name)
            report = is_doubly_distributive(hf, default_probe(hf))
            assert not report.holds and report.counterexample


# ---------------------------------------------------------------------------
# concrete tables


class TestSignLikeTables:
    def test_krasner(self):
        K = krasner()
        one, zero = K.one(), K.zero()
        assert K.hyperadd(one, one) == K.full_set()
        assert K.hyperadd(one, zero) == K.singleton(one)
        assert K.neg(one) == one
        assert K.mul(one, one) == one

    def test_signs(self):
        S = signs()
        p, m, z = S.one(), S.element(-1), S.zero()
        assert S.hyperadd(p, p) == S.singleton(p)
        assert S.hyperadd(m, m) == S.singleton(m)
        assert S.hyperadd(p, m) == S.full_set()
        assert S.hyperadd(p, z) == S.singleton(p)
        assert S.mul(m, m) == p and S.mul(p, m) == m

    def test_weak_signs(self):
        W = weak_signs()
        p, m = W.one(), W.element(-1)
        assert sorted(e.payload for e in W.sample_elements(W.hyperadd(p, p))) == [-1, 1]
        assert W.hyperadd(p, m) == W.full_set()
        assert not W.hyperadd(p, p).contains(W.zero())


class TestGaloisFields:
    @given(st.sampled_from([2, 3, 5, 7, 997, 1009]), st.integers(-30, 30),
           st.integers(-30, 30))
    def test_matches_modular_arithmetic(self, p, a, b):
        hf = gf(p)
        x, y = hf.element(a % p), hf.element(b % p)
        assert hf.mul(x, y).payload == (a * b) % p
        assert hf.hyperadd(x, y) == hf.singleton(hf.element((a + b) % p))
        assert hf.neg(x).payload == (-a) % p
        if a % p:
            assert hf.mul(x, hf.inv(x)) == hf.one()

    def test_modulus_validation(self):
        for bad in (1, 4, 6, 1013):
            with pytest.raises(ValueError):
                gf(bad)
        assert gf(1009).element(1008).payload == 1008

    def test_largest_field_is_built_without_tables(self):
        # Products and sums of GF(1009) are computed on lookup; p^2 dict
        # tables would take hundreds of megabytes.
        tracemalloc.start()
        try:
            hf = gf(1009)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert hf.mul(hf.element(1008), hf.element(1008)) == hf.one()

    def test_largest_field_decides_without_the_code_table(self,
                                                           monkeypatch):
        # resolve never yields a coupled value over GF(p), so deciding
        # equality and associativity must not build the p^2 code tables;
        # building them here fails at once instead of running for minutes
        def refuse(hf):
            raise AssertionError(f"code table of {hf.name} built")

        monkeypatch.setattr(carriers, "CodeTable", refuse)
        tracemalloc.start()
        try:
            hf = gf(1009)
            p, q, r = (parse_poly(t, hf) for t in ("T+1", "T+2", "T+1008"))
            cert = expr_equal(
                ProdNode(PolyLeaf(p), ProdNode(PolyLeaf(q), PolyLeaf(r))),
                ProdNode(ProdNode(PolyLeaf(p), PolyLeaf(q)), PolyLeaf(r)), hf)
            report = assoc_check(p, q, r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.verdict == "equal" and report.associative is True
        assert "codes" not in vars(hf)
        assert peak < 1_000_000

    def test_cancelling_sum_decides_without_the_code_table(self):
        # (T+1)+(6T+6) cancels to the empty set over GF(7), and its product
        # with T+1 stays an empty box instead of a coupled value, whose
        # members would be enumerated on the p^2 code table
        hf = gf(7)
        e = parse_expr("(T+1)*((T+1)+(6T+6))", hf)
        assert expr_equal(e, e, hf).verdict == "equal"
        assert expr_member(parse_poly("T+1", hf), e).verdict == "no"
        assert "codes" not in vars(hf)

    def test_int_literals_reduce_mod_p(self):
        hf = gf(5)
        assert hf.parse_scalar("7").payload == 2
        assert hf.parse_scalar("-1").payload == 4


class TestTropical:
    @given(rationals, rationals)
    def test_hyperadd_max_rule(self, a, b):
        T = by_name("T")
        x, y = T.element(a), T.element(b)
        s = T.hyperadd(x, y)
        if a != b:
            assert s == T.singleton(T.element(max(a, b)))
        else:
            assert s.contains(x) and s.contains(T.zero())
            assert s.contains(T.element(a - 1))
            assert not s.contains(T.element(a + Fraction(1, 3)))

    def test_zero_and_one(self):
        T = by_name("T")
        assert T.format_element(T.zero()) == "-inf"
        assert T.element("-inf") == T.zero()
        assert T.mul(T.element(2), T.element(3)).payload.q == 5
        assert T.neg(T.element(2)) == T.element(2)

    @given(rationals, rationals)
    def test_reversibility_on_samples(self, a, b):
        T = by_name("T")
        x, y = T.element(a), T.element(b)
        for z in T.sample_elements(T.hyperadd(x, y)):
            assert T.hyperadd(z, T.neg(y)).contains(x)


class TestViro:
    @given(nonneg_rationals, nonneg_rationals)
    def test_hyperadd_is_triangle_interval(self, a, b):
        V = by_name("V")
        s = V.hyperadd(V.element(a), V.element(b))
        lo, hi = abs(a - b), a + b
        assert s.contains(V.element(lo)) and s.contains(V.element(hi))
        if lo > 0:
            assert not s.contains(V.element(lo * Fraction(99, 100)))
        assert not s.contains(V.element(hi + 1))

    @given(nonneg_rationals)
    def test_every_element_is_its_own_hyperinverse(self, a):
        V = by_name("V")
        x = V.element(a)
        assert V.neg(x) == x
        assert V.hyperadd(x, x).contains(V.zero())

    def test_negative_raw_values_rejected(self):
        V = by_name("V")
        with pytest.raises(ValueError):
            V.element(Fraction(-1, 2))

    @given(nonneg_rationals, nonneg_rationals)
    def test_reversibility_on_samples(self, a, b):
        V = by_name("V")
        x, y = V.element(a), V.element(b)
        for z in V.sample_elements(V.hyperadd(x, y)):
            assert V.hyperadd(z, V.neg(y)).contains(x)


class TestPhase:
    def test_equal_angles_collapse(self):
        P = by_name("P")
        x = P.element(Fraction(1, 3))
        assert P.hyperadd(x, x) == P.singleton(x)

    def test_antipodal_pair_gives_zero_and_both_points(self):
        P = by_name("P")
        x, y = P.element(Fraction(1, 4)), P.element(Fraction(5, 4))
        s = P.hyperadd(x, y)
        assert s.contains(P.zero()) and s.contains(x) and s.contains(y)
        assert not s.contains(P.element(Fraction(3, 4)))

    def test_generic_pair_gives_open_minor_arc(self):
        P = by_name("P")
        s = P.hyperadd(P.element(0), P.element(Fraction(1, 2)))
        assert s.contains(P.element(Fraction(1, 4)))
        assert not s.contains(P.element(0))
        assert not s.contains(P.element(Fraction(1, 2)))
        assert not s.contains(P.element(Fraction(3, 2)))

    @given(st.fractions(min_value=0, max_value=2, max_denominator=8),
           st.fractions(min_value=0, max_value=2, max_denominator=8))
    def test_reversibility_on_samples(self, a, b):
        P = by_name("P")
        x, y = P.element(a), P.element(b)
        for z in P.sample_elements(P.hyperadd(x, y)):
            assert P.hyperadd(z, P.neg(y)).contains(x)

    def test_angles_reduce_mod_two(self):
        P = by_name("P")
        assert P.element(Fraction(9, 4)) == P.element(Fraction(1, 4))
        assert P.mul(P.element(Fraction(3, 2)), P.element(Fraction(3, 2))) == \
            P.element(1)


# ---------------------------------------------------------------------------
# parsing and formatting


SCALAR_CASES = [
    ("K", ["0", "1"]),
    ("S", ["-1", "0", "1"]),
    ("W", ["-1", "0", "1"]),
    ("GF(5)", ["0", "1", "2", "3", "4"]),
    ("T", ["-inf", "-2", "0", "1/2", "7"]),
    ("V", ["0", "1", "3/2"]),
    ("P", ["0", "ph(0)", "ph(1/3)", "ph(7/4)"]),
]


class TestScalarSyntax:
    @pytest.mark.parametrize("name,texts", SCALAR_CASES,
                             ids=[c[0] for c in SCALAR_CASES])
    def test_parse_format_round_trip(self, name, texts):
        hf = by_name(name)
        for text in texts:
            x = hf.parse_scalar(text)
            assert hf.parse_scalar(hf.format_element(x)) == x

    def test_symbolic_carrier_round_trip(self):
        hf = weak_group(*cyclic_group_table(4))
        for x in hf.elements():
            assert hf.parse_scalar(hf.format_element(x)) == x

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            by_name("S").parse_scalar("2")
        with pytest.raises(ValueError):
            by_name("P").parse_scalar("1/3")
        with pytest.raises(ValueError):
            by_name("T").parse_scalar("oops")


# ---------------------------------------------------------------------------
# set-level algebra


@st.composite
def finite_carrier_lists(draw):
    hf = draw(st.sampled_from(FINITE))
    elems = hf.elements()
    xs = draw(st.lists(st.sampled_from(elems), min_size=1, max_size=5))
    return hf, xs


class TestHypersum:
    @given(finite_carrier_lists(), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_permutation_invariance(self, case, rng):
        hf, xs = case
        shuffled = list(xs)
        rng.shuffle(shuffled)
        assert hf.hypersum(xs) == hf.hypersum(shuffled)

    @given(finite_carrier_lists())
    @settings(max_examples=150)
    def test_members_extend_to_longer_sums(self, case):
        # every member of a partial sum stays reachable after one more term
        hf, xs = case
        partial = hf.hypersum(xs)
        extra = xs[0]
        total = hf.hypersum(xs + [extra])
        for z in hf.sample_elements(partial):
            reach = hf.hyperadd(z, extra)
            assert total.includes(reach)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            by_name("S").hypersum([])


class TestFiniteSetOrder:
    @given(st.sampled_from(FINITE + [gf(7), gf(13)]), st.data())
    @settings(max_examples=200)
    def test_printed_and_sampled_in_payload_key_order(self, hf, data):
        # a finite carrier's payloads are all ints or all strs, so their
        # natural order is the _payload_sort_key order
        pays = [x.payload for x in hf.elements()]
        chosen = data.draw(st.sets(st.sampled_from(pays)))
        s = FiniteSet(hf.name, frozenset(chosen))
        ordered = sorted(chosen, key=carriers._payload_sort_key)
        text = ",".join(carriers.format_payload(p) for p in ordered)
        assert str(s) == "{" + text + "}"
        assert [x.payload for x in hf.sample_elements(s)] == ordered


# ---------------------------------------------------------------------------
# group-based carriers


class TestWeakGroups:
    def test_z2_matches_weak_signs(self):
        table, symbols, e = cyclic_group_table(2)
        G = weak_group(table, symbols, e)
        W = weak_signs()
        relabel = {"0": 0, "1": 1, "g1": -1}

        def image(s):
            return frozenset(relabel[p] for p in s.finite)

        for x in G.elements():
            for y in G.elements():
                expected = W.hyperadd(W.element(relabel[x.payload]),
                                      W.element(relabel[y.payload]))
                assert image(G.hyperadd(x, y)) == expected.finite

    def test_symbols_sort_in_table_order(self):
        G = weak_group(*cyclic_group_table(5))
        keys = [G.sort_key(x) for x in G.elements()]
        assert keys == sorted(keys) == [(2, i) for i in range(6)]

    def test_cyclic_table_self_inverse_choice(self):
        _, _, e3 = cyclic_group_table(3)
        _, _, e4 = cyclic_group_table(4)
        assert e3 == "1"
        assert e4 == "g2"

    def test_validation_errors(self):
        table, symbols, _ = cyclic_group_table(4)
        with pytest.raises(ValueError):
            weak_group(table, symbols, "g1")  # g1*g1 = g2, not the identity
        bad = dict(table)
        bad[("g1", "g2")] = "1"  # breaks commutativity against (g2, g1)
        with pytest.raises(ValueError):
            weak_group(bad, symbols, "g2")
        with pytest.raises(ValueError):
            weak_group({("0", "0"): "0"}, ["0"], "0")

    def test_cayley_file_round_trip(self, tmp_path):
        table, symbols, e = cyclic_group_table(3)
        rows = [" ".join(table[(a, b)] for b in symbols) for a in symbols]
        path = tmp_path / "z3.txt"
        path.write_text("3\n" + "\n".join(rows) + f"\n{e}\n", encoding="utf-8")
        loaded = load_cayley_table(str(path))
        direct = weak_group(table, symbols, e)
        for x in direct.elements():
            for y in direct.elements():
                assert loaded.hyperadd(loaded.element(x.payload),
                                       loaded.element(y.payload)).finite == \
                    direct.hyperadd(x, y).finite
        assert by_name(f"W(G,e):{path}").name.endswith("z3.txt")

    def test_cayley_file_validation(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(ValueError):
            load_cayley_table(str(empty))
        short = tmp_path / "short.txt"
        short.write_text("2\n1 g1\n1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_cayley_table(str(short))


class TestFactory:
    def test_known_names(self):
        for name in ("K", "S", "W", "T", "V", "P", "GF(7)"):
            assert by_name(name).name == name

    def test_unknown_names(self):
        with pytest.raises(ValueError):
            by_name("Q")
        with pytest.raises(ValueError):
            by_name("GF(4)")


class TestSetGuards:
    """Set operations refuse to mix carriers or set shapes."""

    OPS = ("union", "intersect", "difference")

    @staticmethod
    def _one(name):
        hf = by_name(name)
        return hf.singleton(hf.one())

    @pytest.mark.parametrize("op", OPS)
    def test_same_shape_different_carriers_raise(self, op):
        t_set, v_set = self._one("T"), self._one("V")
        with pytest.raises(ValueError):
            getattr(t_set, op)(v_set)
        with pytest.raises(ValueError):
            getattr(v_set, op)(t_set)

    @pytest.mark.parametrize("op", OPS)
    def test_different_shapes_raise(self, op):
        s_set, t_set = self._one("S"), self._one("T")
        with pytest.raises(ValueError):
            getattr(s_set, op)(t_set)
        with pytest.raises(ValueError):
            getattr(t_set, op)(s_set)

    @pytest.mark.parametrize("name,other", [("S", "K"), ("T", "V"),
                                            ("P", "T")])
    def test_contains_rejects_another_carriers_element(self, name, other):
        with pytest.raises(ValueError):
            by_name(name).full_set().contains(by_name(other).one())

    @pytest.mark.parametrize("name", ["S", "T", "V", "P"])
    def test_the_element_of_a_non_singleton_raises(self, name):
        with pytest.raises(ValueError):
            by_name(name).full_set().the_element()

    @pytest.mark.parametrize("name", ["S", "T", "V", "P"])
    def test_the_element_of_a_singleton(self, name):
        hf = by_name(name)
        assert hf.singleton(hf.one()).the_element() == hf.one()
        assert hf.singleton(hf.zero()).the_element() == hf.zero()
