"""Carrier-level behaviour: axiom checks, arithmetic tables, parsing."""

import dataclasses
import itertools
import pickle
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperpoly import (
    PolyLeaf,
    Polynomial,
    ProbeSpec,
    ProdNode,
    SumNode,
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
    mult_at,
    parse_expr,
    parse_poly,
    quotients,
    signs,
    weak_group,
    weak_signs,
)
from hyperpoly import carriers
from hyperpoly.carriers import (
    ArcSet,
    AxiomCheck,
    AxiomReport,
    DdistReport,
    Element,
    FiniteHyperfield,
    FiniteSet,
    Hyperfield,
    IntervalSet,
    _points_of,
)
from hyperpoly.sets import NEG_INF, ArcUnion, Interval, IntervalUnion, ext

from finite_tables import (assert_step_rows_are_add_rows, finite_set,
                           payload_tables, payloads)

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


def reference_check_axioms(hf, probe):
    """The axiom check as it was written law by law, kept as the oracle
    for the table-driven `check_axioms`: same laws, order, verdicts and
    counterexample texts."""
    pts = _points_of(hf, probe)
    zero, one = hf.zero(), hf.one()
    checks = []
    n = len(pts)
    pair = {(i, j): hf.hyperadd(pts[i], pts[j])
            for i in range(n) for j in range(n)}

    def run(name, violation):
        checks.append(AxiomCheck(name, violation is None,
                                 None if violation is None else violation))

    run("zero-one-distinct", None if zero != one else "0 = 1")

    bad = next((f"0*{x}" for x in pts
                if hf.mul(zero, x) != zero or hf.mul(x, zero) != zero), None)
    run("absorbing-zero", bad)

    bad = next((f"{x}*{y}" for x in pts for y in pts
                if hf.mul(x, y) != hf.mul(y, x)), None)
    run("mul-commutative", bad)

    bad = next((f"({x}*{y})*{z}" for x in pts for y in pts for z in pts
                if hf.mul(hf.mul(x, y), z) != hf.mul(x, hf.mul(y, z))), None)
    run("mul-associative", bad)

    bad = next((f"1*{x}" for x in pts if hf.mul(one, x) != x), None)
    run("mul-identity", bad)

    bad = next((f"{x}*inv({x})" for x in pts
                if not hf.is_zero(x) and hf.mul(x, hf.inv(x)) != one), None)
    run("mul-inverse", bad)

    bad = next((f"{pts[i]}(+){pts[j]}" for i in range(n) for j in range(n)
                if pair[(i, j)] != pair[(j, i)]), None)
    run("hyperadd-commutative", bad)

    bad = next((f"0(+){x}" for x in pts
                if hf.hyperadd(zero, x) != hf.singleton(x)), None)
    run("hyperadd-identity", bad)

    bad = None
    singles = [hf.singleton(x) for x in pts]
    for i in range(n):
        for j in range(n):
            left_base = pair[(i, j)]
            for k in range(n):
                lhs = hf.set_hyperadd(singles[i], pair[(j, k)])
                rhs = hf.set_hyperadd(left_base, singles[k])
                if lhs != rhs:
                    bad = f"{pts[i]}(+)({pts[j]}(+){pts[k]})"
                    break
            if bad:
                break
        if bad:
            break
    run("hyperadd-associative", bad)

    bad = None
    for i, x in enumerate(pts):
        hits = [y for j, y in enumerate(pts) if pair[(i, j)].contains(zero)]
        expected = hf.neg(x)
        if probe.mode == "exhaustive":
            if set(hits) != {expected}:
                bad = f"inverses of {x}: {[str(h) for h in hits]}"
                break
        else:
            if (expected in pts and expected not in hits) or \
                    any(h != expected for h in hits):
                bad = f"inverses of {x}: {[str(h) for h in hits]}"
                break
    run("unique-hyperinverse", bad)

    bad = None
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            neg_add = hf.hyperadd(x, hf.neg(y))
            for k, z in enumerate(pts):
                if pair[(j, k)].contains(x) != neg_add.contains(z):
                    bad = f"x={x}, y={y}, z={z}"
                    break
            if bad:
                break
        if bad:
            break
    run("reversibility", bad)

    bad = next(
        (f"{a}*({pts[i]}(+){pts[j]})" for a in pts
         for i in range(n) for j in range(n)
         if hf.scale_set(a, pair[(i, j)])
         != hf.hyperadd(hf.mul(a, pts[i]), hf.mul(a, pts[j]))), None)
    run("distributivity-left", bad)

    bad = next(
        (f"({pts[i]}(+){pts[j]})*{a}" for a in pts
         for i in range(n) for j in range(n)
         if hf.set_mul(pair[(i, j)], hf.singleton(a))
         != hf.hyperadd(hf.mul(pts[i], a), hf.mul(pts[j], a))), None)
    run("distributivity-right", bad)

    return AxiomReport(hf.name, probe.mode, len(pts), tuple(checks))


def reference_is_doubly_distributive(hf, probe):
    """The double-distributivity check as it was written, a loop over the
    carrier's own sets, kept as the oracle for the law table's reading."""
    pts = _points_of(hf, probe)
    for a in pts:
        for b in pts:
            left = hf.hyperadd(a, b)
            for c in pts:
                for d in pts:
                    lhs = hf.set_mul(left, hf.hyperadd(c, d))
                    rhs = hf.hypersum([hf.mul(a, c), hf.mul(a, d),
                                       hf.mul(b, c), hf.mul(b, d)])
                    if lhs != rhs:
                        why = (f"a={a}, b={b}, c={c}, d={d}: "
                               f"{lhs} != {rhs}")
                        return DdistReport(hf.name, probe.mode, False, why)
    return DdistReport(hf.name, probe.mode, True)


SMALL = [krasner(), signs(), weak_signs(), gf(2), gf(3)]


@st.composite
def perturbed_tables(draw):
    """The FiniteHyperfield arguments of a carrier of 2 or 3 payloads: the
    tables of K, S, W, GF(2) or GF(3) with up to six entries (and possibly
    the one) redrawn, so most draws break some axioms and some break
    none."""
    base = draw(st.sampled_from(SMALL))
    pays = [x.payload for x in base.elements()]
    keys = [(a, b) for a in pays for b in pays]
    mul, neg, inv, add = payload_tables(base)
    for _ in range(draw(st.integers(0, 6))):
        table = draw(st.sampled_from(["mul", "add", "neg", "inv"]))
        if table == "mul":
            mul[draw(st.sampled_from(keys))] = draw(st.sampled_from(pays))
        elif table == "add":
            add[draw(st.sampled_from(keys))] = draw(
                st.frozensets(st.sampled_from(pays)))
        else:
            target = neg if table == "neg" else inv
            target[draw(st.sampled_from(sorted(target)))] = draw(
                st.sampled_from(pays))
    one = draw(st.one_of(st.just(base.one().payload), st.sampled_from(pays)))
    return base.name + "~", pays, base.zero().payload, one, mul, neg, inv, add


def perturbed_carriers():
    return perturbed_tables().map(lambda args: FiniteHyperfield(*args))


class TestAxiomTable:
    """`check_axioms` gives the law-by-law reference's whole report."""

    @given(perturbed_carriers(), st.data())
    @settings(max_examples=400)
    def test_report_equals_the_reference(self, hf, data):
        probe = data.draw(st.one_of(
            st.just(ProbeSpec.exhaustive()),
            st.lists(st.sampled_from(hf.elements()), unique=True,
                     min_size=1).map(ProbeSpec.probe)))
        assert check_axioms(hf, probe) == reference_check_axioms(hf, probe)

    @pytest.mark.parametrize(
        "hf", [krasner(), signs(), weak_signs(),
               weak_group(*cyclic_group_table(3)), gf(5)],
        ids=lambda hf: hf.name)
    def test_probe_of_every_point_is_the_exhaustive_report(self, hf):
        exhaustive = check_axioms(hf, ProbeSpec.exhaustive())
        probe = check_axioms(hf, ProbeSpec.probe(hf.elements()))
        assert probe.mode == "probe"
        assert dataclasses.replace(probe, mode="exhaustive") == exhaustive


def klein_group_table() -> tuple[dict, list[str]]:
    """Cayley data for C2 x C2: symbols 1, a, b, c multiply as bit xor."""
    symbols = ["1", "a", "b", "c"]
    table = {(x, y): symbols[i ^ j]
             for i, x in enumerate(symbols) for j, y in enumerate(symbols)}
    return table, symbols


def weak_groups_both_ways():
    """W(G,e) over C2, C3, C4 and C2 x C2, with e the identity and, where
    the group has one, each non-identity self-inverse element."""
    out = []
    groups = {f"C{n}": cyclic_group_table(n)[:2] for n in (2, 3, 4)}
    groups["V4"] = klein_group_table()
    for group, (table, symbols) in groups.items():
        for e in symbols:
            if table[(e, e)] == symbols[0]:
                out.append(weak_group(table, symbols, e,
                                      name=f"W({group},{e})"))
    return out


LARGER = [gf(5), gf(7), gf(11), gf(13), *weak_groups_both_ways()]


class TestAxiomsOnLargerCarriers:
    """The perturbation property draws 2-3 element carriers; these run the
    code-table check against the law-by-law reference up to 13 elements."""

    @pytest.mark.parametrize("hf", LARGER, ids=lambda hf: hf.name)
    def test_exhaustive_report_equals_the_reference(self, hf):
        probe = ProbeSpec.exhaustive()
        report = check_axioms(hf, probe)
        assert report == reference_check_axioms(hf, probe)
        assert report.ok

    @pytest.mark.parametrize("hf", LARGER, ids=lambda hf: hf.name)
    def test_exhaustive_ddist_equals_the_reference(self, hf):
        probe = ProbeSpec.exhaustive()
        assert is_doubly_distributive(hf, probe) == \
            reference_is_doubly_distributive(hf, probe)

    def test_every_self_inverse_element_is_covered(self):
        assert [hf.name for hf in weak_groups_both_ways()] == [
            "W(C2,1)", "W(C2,g1)", "W(C3,1)", "W(C4,1)", "W(C4,g2)",
            "W(V4,1)", "W(V4,a)", "W(V4,b)", "W(V4,c)"]


def skewed_krasner() -> FiniteHyperfield:
    """K with 0 (+) 1 = {0,1} but 1 (+) 0 = {1}, and 1 (+) 1 empty."""
    add = {(0, 0): frozenset({0}), (0, 1): frozenset({0, 1}),
           (1, 0): frozenset({1}), (1, 1): frozenset()}
    return FiniteHyperfield("K~skew", [0, 1], 0, 1,
                            {(x, y): x * y for x in (0, 1) for y in (0, 1)},
                            {0: 0, 1: 1}, {1: 1}, add)


class TestCodeTableData:
    """The integer tables check_axioms reads decode to the carrier's own
    operations, on non-commutative tables and empty sums too."""

    @given(perturbed_carriers())
    @example(skewed_krasner())
    @settings(max_examples=200)
    def test_tables_decode_to_the_carrier(self, hf):
        codes = hf.codes
        els, row = codes.elements, codes.step_row
        n = len(els)

        def bits(mask):
            return tuple(c for c in range(n) if mask >> c & 1)

        def decoded(mask):
            return finite_set(hf, [els[c].payload for c in bits(mask)])

        for x in range(n):
            for y in range(n):
                assert decoded(row(1 << x)[y]) == hf.hyperadd(els[x], els[y])
                assert els[codes.mul[x][y]] == hf.mul(els[x], els[y])
        for mask in range(1 << n):  # the empty mask too
            assert codes.members[mask] == bits(mask)
            for c in range(n):
                union = finite_set(hf, frozenset().union(
                    *[payloads(hf.hyperadd(els[b], els[c]))
                      for b in bits(mask)]))
                assert decoded(row(mask)[c]) == union
            assert codes.step[mask] is row(mask)


def unsorted_group() -> FiniteHyperfield:
    """W(G,e) over the cyclic group zz, b, aa = b^2, m = b^3 with e = aa:
    its payloads in table order (0, zz, b, aa, m) are not in natural order
    (0, aa, b, m, zz)."""
    symbols = ["zz", "b", "aa", "m"]
    table = {(x, y): symbols[(i + j) % 4]
             for i, x in enumerate(symbols) for j, y in enumerate(symbols)}
    return weak_group(table, symbols, "aa", name="W(C4 unsorted,aa)")


# A finite carrier's set operations on frozensets of payloads, read from
# payload-keyed tables: the reference for the operations on masks.
def reference_hypersum(add, xs):
    acc = frozenset([xs[0]])
    for y in xs[1:]:
        acc = frozenset().union(*[add[z, y] for z in acc])
    return acc


def reference_set_hyperadd(add, a, b):
    out = frozenset()
    for x in a:
        for y in b:
            out |= add[(x, y)]
    return out


def reference_scale_set(mul, a, s):
    return frozenset(mul[(a, p)] for p in s)


def reference_set_mul(mul, a, b):
    return frozenset(mul[(x, y)] for x in a for y in b)


def reference_neg_set(neg, s):
    return frozenset(neg[p] for p in s)


def reference_text(s):
    if not s:
        return "{}"
    return "{%s}" % ",".join(carriers.format_payload(p) for p in sorted(s))


REFERENCE_CARRIERS = [krasner(), signs(), weak_signs(), gf(5),
                      *weak_groups_both_ways(), unsorted_group(),
                      skewed_krasner()]


class TestSetOperationsReference:
    """Every finite set operation, on masks, gives the frozenset reference:
    the built-in, W(G,e) and perturbed tables, an unsorted symbol table,
    and a table with empty and non-commutative sums."""

    @pytest.mark.parametrize("hf", REFERENCE_CARRIERS,
                             ids=[hf.name for hf in REFERENCE_CARRIERS])
    def test_every_set_prints_and_decodes_as_the_reference(self, hf):
        # every subset, so that a set printed or sampled in place order
        # fails on the unsorted symbol table whatever the examples drawn
        pays = [x.payload for x in hf.elements()]
        for k in range(len(pays) + 1):
            for chosen in itertools.combinations(pays, k):
                ref, s = frozenset(chosen), finite_set(hf, chosen)
                assert payloads(s) == ref
                assert str(s) == reference_text(ref)
                assert [x.payload for x in hf.sample_elements(s)] == \
                    sorted(ref)
                assert s.is_singleton() == (k == 1)
                if k == 1:
                    assert s.the_element() is hf.element(*ref)

    @given(st.one_of(
        st.sampled_from(REFERENCE_CARRIERS).map(
            lambda hf: (hf, payload_tables(hf))),
        # a redrawn carrier's own input tables, so that the conversion
        # into code tables is checked too
        perturbed_tables().map(
            lambda args: (FiniteHyperfield(*args), args[4:]))), st.data())
    @settings(max_examples=300)
    def test_operations_equal_the_frozenset_reference(self, carrier, data):
        hf, (mul, neg, _, add) = carrier
        pays = [x.payload for x in hf.elements()]
        a, b = (frozenset(data.draw(st.sets(st.sampled_from(pays)),
                                    label=label)) for label in "ab")
        sa, sb = finite_set(hf, a), finite_set(hf, b)
        x = hf.element(data.draw(st.sampled_from(pays), label="x"))
        xs = data.draw(st.lists(st.sampled_from(pays), min_size=1,
                                max_size=5), label="xs")
        for s, ref in ((sa, a), (sb, b)):
            assert payloads(s) == ref
            assert str(s) == reference_text(ref)
            assert [y.payload for y in hf.sample_elements(s)] == sorted(ref)
            assert s.is_singleton() == (len(ref) == 1)
            assert s.is_empty() == (not ref)
            if len(ref) == 1:
                assert s.the_element() == hf.element(*ref)
            else:
                with pytest.raises(ValueError):
                    s.the_element()
            assert s.contains(x) == (x.payload in ref)
        assert payloads(sa.union(sb)) == a | b
        assert payloads(sa.intersect(sb)) == a & b
        assert payloads(sa.difference(sb)) == a - b
        assert sa.includes(sb) == (b <= a)
        y = hf.element(xs[0])
        assert payloads(hf.hyperadd(x, y)) == add[x.payload, y.payload]
        assert payloads(hf.hypersum([hf.element(p) for p in xs])) == \
            reference_hypersum(add, xs)
        assert payloads(hf.set_hyperadd(sa, sb)) == \
            reference_set_hyperadd(add, a, b)
        assert payloads(hf.scale_set(x, sa)) == \
            reference_scale_set(mul, x.payload, a)
        assert payloads(hf.set_mul(sa, sb)) == reference_set_mul(mul, a, b)
        assert payloads(hf.neg_set(sa)) == reference_neg_set(neg, a)
        assert payloads(hf.remove_zero(sa)) == a - {hf.zero().payload}
        assert payloads(hf.full_set()) == frozenset(pays)
        assert payloads(hf.singleton(x)) == {x.payload}


class TestDdistTable:
    """`is_doubly_distributive` reads one law of the law table, on codes
    for a finite carrier, and gives the loop reference's whole report."""

    @given(perturbed_carriers(),
           st.lists(st.integers(0, 2), min_size=1, max_size=6))
    @example(skewed_krasner(), [1, 0, 1])
    @settings(max_examples=300)
    def test_report_equals_the_reference(self, hf, picks):
        els = hf.elements()
        # a probe of drawn points, repeats allowed
        points = [els[i % len(els)] for i in picks]
        for probe in (ProbeSpec.exhaustive(), ProbeSpec.probe(points)):
            assert is_doubly_distributive(hf, probe) == \
                reference_is_doubly_distributive(hf, probe)


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

    def test_modulus_reduces_literals_and_leaves_tables_on_payloads(self):
        # payload tables read the same with or without a modulus; only
        # code_rows hand in tables already indexed by codes
        g = gf(7)
        tables = payload_tables(g)
        hf = FiniteHyperfield("GF(7)", g._payloads, 0, 1, *tables, modulus=7)
        assert hf.codes.mul == g.codes.mul and hf.codes.add == g.codes.add
        assert hf.codes.neg == g.codes.neg
        assert hf.parse_scalar("9") == g.parse_scalar("9") == g.element(2)
        with pytest.raises(ValueError, match="code_rows"):
            FiniteHyperfield("GF(7)", g._payloads, 0, 1, *tables, modulus=7,
                             code_rows=(g.codes.mul, g.codes.add))

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

    def test_largest_field_decides_without_the_code_table(self):
        # deciding equality and associativity over GF(p) steps only through
        # singleton rows, so no p x p table is built
        tracemalloc.start()
        try:
            hf = gf(1009)
            p, q, r = (parse_poly(t, hf) for t in ("T+1", "T+2", "T+1008"))
            cert = expr_equal(
                ProdNode(PolyLeaf(p), ProdNode(PolyLeaf(q), PolyLeaf(r))),
                ProdNode(ProdNode(PolyLeaf(p), PolyLeaf(q)), PolyLeaf(r)), hf)
            report = assoc_check(p, q, r)
            # a sum of boxes stays a box, and the product of two empty sums
            # pairs no members
            total = SumNode(ProdNode(PolyLeaf(p), PolyLeaf(q)), PolyLeaf(r))
            total_cert = expr_member(parse_poly("T^2+4T+1", hf), total)
            empty = parse_expr("((T+1)+(1008T+1008))*((T+2)+(1008T+1007))",
                               hf)
            empty_cert = expr_equal(empty, empty, hf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.verdict == "equal" and report.associative is True
        assert total_cert.verdict == "yes"
        assert empty_cert.verdict == "equal"
        assert_step_rows_are_add_rows(hf.codes)
        assert peak < 1_000_000

    def test_largest_field_answers_queries_without_a_step_table(self):
        # membership, quotients and multiplicities read the set operations
        # on masks, whose step rows over GF(p) are the add rows themselves
        hf = gf(1009)
        p = parse_poly("T^2+1008", hf)  # (T-1)(T+1)
        q, r = parse_poly("T+1008", hf), parse_poly("T+1", hf)
        assert expr_member(p, ProdNode(PolyLeaf(q), PolyLeaf(r))).verdict \
            == "yes"
        assert [str(x) for x in quotients(p, hf.one()).representatives] \
            == ["T+1"]
        assert mult_at(p, hf.one()) == 1
        assert_step_rows_are_add_rows(hf.codes)

    def test_cancelling_sum_decides_without_the_code_table(self):
        # (T+1)+(6T+6) cancels to the empty set over GF(7), and its product
        # with T+1 stays an empty box instead of a coupled value
        hf = gf(7)
        e = parse_expr("(T+1)*((T+1)+(6T+6))", hf)
        assert expr_equal(e, e, hf).verdict == "equal"
        assert expr_member(parse_poly("T+1", hf), e).verdict == "no"
        assert_step_rows_are_add_rows(hf.codes)

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
        assert s.intervals == IntervalUnion.closed(lo, hi)
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

    @pytest.mark.parametrize("text,phase", [
        ("e^{i1/3pi}", "ph(1/3)"), ("e^{i 1/3 pi}", "ph(1/3)"),
        ("e^{i pi}", "ph(1)"), ("e^{i-3/2pi}", "ph(-3/2)"), ("0", "0")])
    def test_phase_reads_both_spellings(self, text, phase):
        P = by_name("P")
        assert P.parse_scalar(text) == P.parse_scalar(phase)

    @pytest.mark.parametrize("body", [
        "12", "0", "007", "-0", "-3", "+3", " 7 ", "1/2", "-3/4", "2.50",
        "1e3", "1_000", "1_0/2_0", "١٢", "３", "٣/4",
        "", " ", "abc", "1/0", "1/-2", "--1", "1__0", "_1", "1_", "²",
        "0x10", "3j", "inf", "nan"])
    def test_a_literal_reads_as_fraction_reads_it(self, body):
        # integers take a shorter path; the value and the errors are
        # Fraction's own, for every spelling it accepts or refuses
        try:
            expected = Fraction(body)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ValueError, match="bad T literal 'x'"):
                carriers._rational(body, "T", "x")
            return
        got = carriers._rational(body, "T", "x")
        assert type(got) is Fraction and got == expected
        assert (got.numerator, got.denominator) == (
            expected.numerator, expected.denominator)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            by_name("S").parse_scalar("2")
        with pytest.raises(ValueError):
            by_name("P").parse_scalar("1/3")
        with pytest.raises(ValueError):
            by_name("T").parse_scalar("oops")


# ---------------------------------------------------------------------------
# set-level algebra


FOLD_CARRIERS = [krasner(), signs(), weak_signs(),
                 weak_group(*cyclic_group_table(3)),
                 weak_group(*cyclic_group_table(4)), gf(5), gf(1009)]


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

    @given(st.sampled_from(FOLD_CARRIERS), st.data())
    @settings(max_examples=300)
    def test_table_fold_matches_the_base_fold(self, hf, data):
        # the base fold: set_hyperadd over the singletons of the terms
        xs = data.draw(st.lists(elements_of(hf), min_size=1, max_size=6))
        assert hf.hypersum(xs) == Hyperfield.hypersum(hf, xs)

    @given(st.lists(st.one_of(st.just(Fraction(0)), nonneg_rationals),
                    min_size=1, max_size=6))
    @settings(max_examples=300)
    def test_viro_closed_form_matches_the_base_fold(self, raws):
        V = by_name("V")
        xs = [V.element(q) for q in raws]
        assert V.hypersum(xs) == Hyperfield.hypersum(V, xs)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            by_name("S").hypersum([])

    @pytest.mark.parametrize("name", ["GF(5)", "V"])
    def test_empty_list_rejected_by_each_fold(self, name):
        with pytest.raises(ValueError):
            by_name(name).hypersum([])


SUM_CARRIERS = [by_name("T"), by_name("V"), by_name("P"), krasner(), signs(),
                weak_signs(), gf(5), weak_group(*cyclic_group_table(3))]


@st.composite
def line_sets(draw, hf):
    """A nonempty set of T or V: up to three random parts, and for T maybe
    also a part reaching down to -inf or the point -inf alone."""
    ends = rationals if hf.name == "T" else nonneg_rationals
    parts = []
    for lo, hi, lc, hc in draw(st.lists(st.tuples(
            ends, ends, st.booleans(), st.booleans()), min_size=1,
            max_size=3)):
        lo, hi = min(lo, hi), max(lo, hi)
        parts.append(Interval(ext(lo), ext(hi), lc or lo == hi,
                              hc or lo == hi))
    if hf.name == "T" and draw(st.booleans()):
        top = draw(st.one_of(st.none(), ends))
        parts.append(Interval(NEG_INF, NEG_INF) if top is None else
                     Interval(NEG_INF, ext(top), True, draw(st.booleans())))
    return IntervalSet(hf.name, IntervalUnion.of(parts))


@st.composite
def arc_sets(draw, hf):
    """A nonempty set of P: up to three random arcs, with or without 0."""
    has_zero = draw(st.booleans())
    arcs = ArcUnion(IntervalUnion(), has_zero)
    for lo, span, lc, hc in draw(st.lists(st.tuples(
            st.fractions(0, 2, max_denominator=6),
            st.fractions(0, Fraction(5, 2), max_denominator=6),
            st.booleans(), st.booleans()), min_size=0 if has_zero else 1,
            max_size=3)):
        arcs = arcs.union(ArcUnion.arc(lo, lo + span, lc or span == 0,
                                       hc or span == 0))
    return ArcSet(hf.name, arcs)


class TestSums:
    """hyperadd, each carrier's own rule or the base's, is the base fold
    of its two terms; set_hyperadd holds the sums of its sets' members."""

    @given(st.sampled_from(SUM_CARRIERS), st.data())
    @settings(max_examples=400)
    def test_hyperadd_is_the_fold_of_its_two_terms(self, hf, data):
        # P's draws hold 0, and y is often x or -x: equal and antipodal
        x = data.draw(elements_of(hf), label="x")
        y = data.draw(st.one_of(elements_of(hf), st.just(x),
                                st.just(hf.neg(x))), label="y")
        assert hf.hyperadd(x, y) == Hyperfield.hypersum(hf, [x, y])

    @given(st.sampled_from(INFINITE), st.data())
    @settings(max_examples=300, deadline=None)
    def test_set_hyperadd_holds_every_pointwise_sum(self, hf, data):
        sets = arc_sets(hf) if hf.name == "P" else line_sets(hf)
        a, b = data.draw(sets, label="a"), data.draw(sets, label="b")
        total = hf.set_hyperadd(a, b)
        for x in hf.sample_elements(a):
            for y in hf.sample_elements(b):
                for z in hf.sample_elements(hf.hyperadd(x, y)):
                    assert total.contains(z), f"{x} (+) {y} holds {z}"


@dataclasses.dataclass(frozen=True)
class ReferenceElement:
    """Element as the frozen dataclass that the interned tuple replaced."""

    carrier: str
    payload: object

    def __str__(self) -> str:
        return carriers.format_payload(self.payload)


ReferenceElement.__qualname__ = "Element"  # the dataclass repr reads it

ELEMENT_CARRIERS = [krasner(), signs(), weak_signs(),
                    weak_group(*cyclic_group_table(3)), gf(5),
                    by_name("T"), by_name("V"), by_name("P")]


def elements_of(hf):
    if hf.is_finite():
        return st.sampled_from(hf.elements())
    raws = {"T": st.one_of(st.just("-inf"), rationals),
            "V": nonneg_rationals,
            "P": st.one_of(st.none(), rationals)}[hf.name]
    return raws.map(hf.element)


class TestElementValue:
    @given(st.data())
    @settings(max_examples=300)
    def test_matches_the_dataclass_form(self, data):
        hf = data.draw(st.sampled_from(ELEMENT_CARRIERS), label="hf")
        other = data.draw(st.one_of(st.just(hf),
                                    st.sampled_from(ELEMENT_CARRIERS)),
                          label="other")
        x, y = data.draw(elements_of(hf)), data.draw(elements_of(other))
        rx, ry = (ReferenceElement(e.carrier, e.payload) for e in (x, y))
        assert hash(x) == hash(rx)
        assert (x == y) == (rx == ry) and (x != y) == (rx != ry)
        assert repr(x) == repr(rx) and str(x) == str(rx)
        # a change of meaning: an Element equals its plain pair
        assert x == (rx.carrier, rx.payload)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(x, protocol))
            assert type(back) is Element
            assert (back.carrier, back.payload) == (x.carrier, x.payload)
            assert back == x and hash(back) == hash(x)

    @pytest.mark.parametrize("hf", ELEMENT_CARRIERS, ids=lambda hf: hf.name)
    def test_fields_cannot_be_assigned(self, hf):
        x = hf.one()
        for field in ("carrier", "payload", "other"):
            with pytest.raises(AttributeError):
                setattr(x, field, hf.zero().payload)
        assert (x.carrier, x.payload) == (hf.name, hf.one().payload)

    @pytest.mark.parametrize("hf", ELEMENT_CARRIERS, ids=lambda hf: hf.name)
    def test_dataclasses_asdict_rebuilds_elements(self, hf):
        p = Polynomial.of(hf, [hf.one(), hf.one()])
        assert dataclasses.asdict(p)["coeffs"] == p.coeffs

    @given(st.data())
    @settings(max_examples=200)
    def test_finite_carriers_hand_out_one_element_per_payload(self, data):
        hf = data.draw(st.sampled_from(
            [hf for hf in ELEMENT_CARRIERS if hf.is_finite()]), label="hf")
        x, y = data.draw(elements_of(hf)), data.draw(elements_of(hf))
        assert hf.mul(x, y) is hf.mul(x, y)
        assert hf.neg(x) is hf.neg(x)
        if not hf.is_zero(x):
            assert hf.inv(x) is hf.inv(x)
        assert hf.element(x.payload) is x
        assert hf.singleton(x).the_element() is x
        assert hf.parse_scalar(str(x)) is x
        assert hf.sample_elements(hf.singleton(x)) == [x]
        assert hf.sample_elements(hf.singleton(x))[0] is x
        assert any(e is x for e in hf.elements())

    def test_an_equal_payload_of_another_type_reads_as_the_carriers_own(self):
        # a carrier of its own name, so that 3.0 is the first lookup of 3
        g = gf(7)
        hf = FiniteHyperfield("GF(7) read by type", g._payloads, 0, 1,
                              *payload_tables(g), modulus=7)
        x = hf.element(3.0)
        assert type(x.payload) is int and str(x) == "3"
        assert hf.element(3) is x and hf.element(Fraction(3)) is x

    @pytest.mark.parametrize("name", ["T", "V", "P"])
    def test_a_continuous_carrier_refuses_a_float(self, name):
        # 0.1 is not the rational 1/10 but 3602879701896397/2^55
        hf = by_name(name)
        for raw in (0.1, 0.5, 2.0):
            with pytest.raises(ValueError, match=f"^{name} .*float"):
                hf.element(raw)
        exact = hf.element(Fraction(1, 10))
        assert hf.element("1/10") == hf.element("0.1") == exact
        assert str(exact) in ("1/10", "ph(1/10)")
        assert hf.element(2) == hf.element(Fraction(2))

    @pytest.mark.parametrize("hf", INFINITE, ids=lambda hf: hf.name)
    def test_zero_and_one_are_made_once(self, hf):
        assert hf.zero() is hf.zero() and hf.one() is hf.one()
        assert hf.is_zero(hf.zero()) and not hf.is_zero(hf.one())
        x = hf.element(Fraction(3, 2))
        assert hf.mul(x, hf.one()) == x

    @pytest.mark.parametrize("hf", ELEMENT_CARRIERS, ids=lambda hf: hf.name)
    def test_foreign_elements_are_refused(self, hf):
        nonzero = hf.one()
        for foreign in (by_name("S" if hf.name == "K" else "K").one(),
                        Element("elsewhere", nonzero.payload)):
            calls = [lambda: hf.mul(foreign, nonzero),
                     lambda: hf.mul(nonzero, foreign),
                     lambda: hf.neg(foreign), lambda: hf.inv(foreign),
                     lambda: hf.singleton(foreign)]
            for call in calls:
                with pytest.raises(ValueError):
                    call()

    @given(st.data())
    @settings(max_examples=200)
    def test_finite_carriers_hand_out_one_singleton_per_payload(self, data):
        hf = data.draw(st.sampled_from(
            [hf for hf in ELEMENT_CARRIERS if hf.is_finite()]), label="hf")
        x = data.draw(elements_of(hf))
        s = hf.singleton(x)
        assert hf.singleton(x) is s and str(hf.singleton(x)) is str(s)
        assert s == finite_set(hf, [x.payload])

    def test_singletons_are_made_on_first_use(self):
        hf = weak_group(*cyclic_group_table(4))
        assert not hf._set and not gf(1009)._set
        for _ in range(2):
            for x in hf.elements():
                hf.singleton(x)
        assert len(hf._set) == len(hf.elements())

    def test_full_set_and_its_text_are_built_once(self):
        hf = gf(1009)
        full = hf.full_set()
        assert hf.full_set() is full
        assert str(full) is str(full)
        assert str(full) == "{%s}" % ",".join(map(str, range(1009)))


class TestInternedSets:
    """A finite carrier hands out one FiniteSet per mask: every set
    operation returns the carrier's interned set of its result."""

    CARRIERS = [by_name("K"), by_name("S"), by_name("W"), gf(5), gf(1009),
                weak_group(*cyclic_group_table(3)),
                weak_group(*cyclic_group_table(4))]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_set_operation_returns_the_interned_set(self, data):
        hf = data.draw(st.sampled_from(self.CARRIERS), label="hf")
        elems = hf.elements()
        picks = st.lists(st.sampled_from(elems), min_size=1, max_size=4)
        a, b = (hf._set[sum({1 << hf.sort_key(x) for x in data.draw(picks)})]
                for _ in range(2))
        x, y = data.draw(st.sampled_from(elems)), data.draw(st.sampled_from(elems))
        xs = data.draw(picks)
        results = [hf.hyperadd(x, y), hf.hypersum(xs), hf.set_hyperadd(a, b),
                   hf.scale_set(x, a), hf.set_mul(a, b), hf.neg_set(a),
                   hf.singleton(x), hf.full_set(), hf.remove_zero(a),
                   a.union(b), a.intersect(b), a.difference(b)]
        for s in results:
            assert type(s) is FiniteSet and s.hf is hf
            assert s is hf._set[s.mask]
            assert str(s) is str(hf._set[s.mask])

    def test_carriers_sharing_a_name_decode_through_their_own(self):
        c3, c5 = (weak_group(*cyclic_group_table(n)) for n in (3, 5))
        assert c3.name == c5.name == "W(G,1)"
        a, b = c3.full_set(), c5.full_set()
        assert a.hf is c3 and b.hf is c5 and a is not b
        assert [str(x) for x in c3.sample_elements(a)] == ["0", "1", "g1", "g2"]
        assert str(b) == "{0,1,g1,g2,g3,g4}" and str(a) == "{0,1,g1,g2}"
        for s in (a.union(a), a.intersect(a), a.difference(c3.singleton(
                c3.zero()))):
            assert s.hf is c3 and s is c3._set[s.mask]
        g4 = c5.element("g4")
        assert c5.singleton(g4).the_element() is g4

    @pytest.mark.parametrize("op", ["union", "intersect", "difference"])
    def test_same_named_carriers_of_other_code_orders_do_not_mix(self, op):
        table, symbols, e = cyclic_group_table(3)
        first = weak_group(table, symbols, e)
        other = weak_group(table, list(reversed(symbols)), e)
        again = weak_group(table, symbols, e)
        assert first.name == other.name == again.name == "W(G,1)"
        g2, one = first.singleton(first.element("g2")), \
            other.singleton(other.one())
        assert g2.mask == one.mask and g2 != one and first != other
        with pytest.raises(ValueError, match="across carriers"):
            getattr(g2, op)(one)
        # a carrier built again from the same table is the same carrier
        same = again.singleton(again.element("g2"))
        assert same == g2 and again == first and hash(again) == hash(first)
        assert getattr(g2, op)(same) is getattr(g2, op)(g2)

    @pytest.mark.parametrize("op", ["union", "intersect", "difference"])
    def test_a_union_across_carriers_still_raises(self, op):
        K, S = by_name("K"), by_name("S")
        with pytest.raises(ValueError, match="across carriers"):
            getattr(K.full_set(), op)(S.full_set())
        with pytest.raises(ValueError, match="across carriers"):
            getattr(S.singleton(S.one()), op)(by_name("T").full_set())

    def test_sets_are_made_on_first_use(self):
        hf = gf(1009)
        assert not hf._set
        hf.hypersum([hf.element(1000), hf.element(20), hf.element(5)])
        assert list(hf._set) == [1 << 16]


class TestFiniteSetOrder:
    @given(st.sampled_from(FINITE + [gf(7), gf(13)]), st.data())
    @settings(max_examples=200)
    def test_printed_and_sampled_in_payload_key_order(self, hf, data):
        # a finite carrier's payloads are all ints or all strs, so they
        # have a natural order, and sets print and sample in it
        pays = [x.payload for x in hf.elements()]
        chosen = data.draw(st.sets(st.sampled_from(pays)))
        s = finite_set(hf, chosen)
        ordered = sorted(chosen)
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
            return frozenset(relabel[p] for p in payloads(s))

        for x in G.elements():
            for y in G.elements():
                expected = W.hyperadd(W.element(relabel[x.payload]),
                                      W.element(relabel[y.payload]))
                assert image(G.hyperadd(x, y)) == payloads(expected)

    def test_symbols_sort_in_table_order(self):
        G = weak_group(*cyclic_group_table(5))
        keys = [G.sort_key(x) for x in G.elements()]
        assert keys == list(range(6))

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
                assert payloads(loaded.hyperadd(
                    loaded.element(x.payload), loaded.element(y.payload))) \
                    == payloads(direct.hyperadd(x, y))
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

    def test_cayley_carrier_is_built_once(self, tmp_path, monkeypatch):
        table, symbols, e = cyclic_group_table(3)
        rows = [" ".join(table[(a, b)] for b in symbols) for a in symbols]
        path = tmp_path / "c3.txt"
        path.write_text("3\n" + "\n".join(rows) + f"\n{e}\n", encoding="utf-8")
        loads = []
        real = carriers.load_cayley_table
        monkeypatch.setattr(carriers, "load_cayley_table",
                            lambda p: loads.append(p) or real(p))
        first = by_name(f"W(G,e):{path}")
        assert by_name(f" W(G,e):{path} ") is first
        assert loads == [str(path)]


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
