"""Associativity checks, exhaustive scans, the 1+1 criterion, pointwise rows."""

import dataclasses
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import (
    EqualCertificate,
    Polynomial,
    PolyLeaf,
    ProdNode,
    ProbeSpec,
    UndecidedError,
    assoc_check,
    assoc_scan,
    by_name,
    check_axioms,
    cyclic_group_table,
    expr_equal,
    one_plus_one_criterion,
    parse_expr,
    parse_poly,
    pointwise_products_equal,
    replay_member,
    resolve,
    resolved_members,
    weak_group,
)
from hyperpoly import assoc, polyalg
from hyperpoly.carriers import CodeTable, FiniteHyperfield
from hyperpoly.cli import _plain
from hyperpoly.polyalg import (box_of, boxprod, format_expr, product_value,
                               unequal_certificate)

from finite_tables import payload_tables


def counterexample(report):
    """The first unequal comparison of an associativity report, or None."""
    return next((c for c in report.comparisons if c.verdict == "unequal"),
                None)


class TestAssocCheck:
    def test_krasner_counterexample_needs_outer_variants(self):
        # with the quadratic in the middle, both direct bracketings carry the
        # same outer linear factor, so only another outer choice differs
        K = by_name("K")
        p = parse_poly("T+1", K)
        q = parse_poly("T^2+1", K)
        report = assoc_check(p, q, p)
        assert report.associative is False
        assert report.comparisons[0].verdict == "equal"
        cex = counterexample(report)
        assert cex is not None and cex.witness == "T^4+T+1"
        assert replay_member(cex.member_in) and replay_member(cex.member_out)
        assert str(report).startswith("NOT ASSOCIATIVE")

    def test_krasner_direct_bracketings_can_differ(self):
        K = by_name("K")
        p = parse_poly("T+1", K)
        r = parse_poly("T^2+1", K)
        report = assoc_check(p, p, r)
        assert report.associative is False
        assert report.comparisons[0].verdict == "unequal"

    def test_signs_counterexample_is_direct(self):
        S = by_name("S")
        report = assoc_check(parse_poly("T+1", S), parse_poly("T+1", S),
                             parse_poly("T-1", S))
        assert report.associative is False
        assert report.comparisons[0].verdict == "unequal"

    def test_galois_triples_are_associative(self):
        hf = by_name("GF(3)")
        report = assoc_check(parse_poly("T+1", hf), parse_poly("T+2", hf),
                             parse_poly("T^2+1", hf))
        assert report.associative is True
        assert counterexample(report) is None

    def test_infinite_carrier_without_separator_is_undecided(self):
        T = by_name("T")
        p = parse_poly("T+1", T)
        report = assoc_check(p, p, p)
        assert report.associative is None


def reference_assoc_check(p, q, r):
    """assoc_check as three expr_equal calls, each resolving both of its
    sides: the direct bracketings, then p*(q*r) against q*(p*r), then
    q*(p*r) against r*(p*q)."""
    hf = p.hf
    direct = expr_equal(
        assoc._outer_form(p, q, r),
        ProdNode(ProdNode(PolyLeaf(p), PolyLeaf(q)), PolyLeaf(r)), hf)
    comparisons = [direct]
    if direct.verdict != "unequal":
        comparisons.append(expr_equal(assoc._outer_form(p, q, r),
                                      assoc._outer_form(q, p, r), hf))
    if all(c.verdict != "unequal" for c in comparisons):
        comparisons.append(expr_equal(assoc._outer_form(q, p, r),
                                      assoc._outer_form(r, p, q), hf))
    verdicts = {c.verdict for c in comparisons}
    associative = (False if "unequal" in verdicts
                   else None if "undecided" in verdicts else True)
    return assoc.AssocReport(hf.name, (str(p), str(q), str(r)), associative,
                             tuple(comparisons))


def same_reports(report, reference):
    assert str(report) == str(reference)
    assert json.dumps(_plain(report)) == json.dumps(_plain(reference))


class TestAssocCheckReference:
    """assoc_check resolves each of a triple's three outer choices once
    and reports what three expr_equal calls report."""

    FINITE = [by_name(name) for name in ("K", "S", "W", "GF(5)")] + [
        weak_group(*cyclic_group_table(3), name="W(C3)")]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_finite_triples_match_the_reference(self, data):
        hf = data.draw(st.sampled_from(self.FINITE), label="hf")
        elems = hf.elements()
        nonzero = [x for x in elems if not hf.is_zero(x)]
        # degrees up to (1, 2, 2), in any order
        degrees = [data.draw(st.integers(1, top))
                   for top in data.draw(st.permutations([1, 2, 2]))]

        def poly(deg):
            coeffs = [data.draw(st.sampled_from(elems)) for _ in range(deg)]
            return Polynomial.of(hf, coeffs + [data.draw(
                st.sampled_from(nonzero))])

        p, q, r = (poly(d) for d in degrees)
        same_reports(assoc_check(p, q, r), reference_assoc_check(p, q, r))

    @pytest.mark.parametrize("name,triple", [
        ("T", ("T+1", "T+2", "T+3")),
        ("T", ("T^2+0", "T+0", "T+0")),
        ("V", ("2T^2+2T+3", "3T+2", "1/2T^2+3T+1")),
        ("V", ("T+1", "T+2", "T+3")),
        ("P", ("T+ph(1)", "T+ph(0)", "T+ph(1/2)")),
    ])
    def test_continuous_triples_match_the_reference(self, name, triple):
        hf = by_name(name)
        p, q, r = (parse_poly(t, hf) for t in triple)
        same_reports(assoc_check(p, q, r), reference_assoc_check(p, q, r))

    def test_separator_searches_make_the_reference_687_decisions(
            self, monkeypatch):
        # the three separator searches of the undecided V triple decide each
        # candidate on the side it was not drawn from (its own side only
        # after a no, which none gives here), so they make the reference's
        # 687 decisions; deciding both sides of every candidate took 1,320
        # calls on 990 distinct (value, candidate) pairs
        computed = record_decisions(monkeypatch)
        V = by_name("V")
        p, q, r = (parse_poly(t, V)
                   for t in ("2T^2+2T+3", "3T+2", "1/2T^2+3T+1"))
        assert assoc_check(p, q, r).associative is None
        assert len(computed) == 687
        computed.clear()
        reference_assoc_check(p, q, r)
        assert len(computed) == 687


def record_decisions(monkeypatch) -> list:
    """Patch decide on the three value types to record (value, p) per call;
    the list keeps each value alive, so ids are not reused."""
    computed = []
    for cls in (polyalg.PolyBox, polyalg.CoupledValue,
                polyalg.FiniteValue):
        def counted(value, p, real=cls.decide):
            computed.append((value, p))
            return real(value, p)
        monkeypatch.setattr(cls, "decide", counted)
    return computed


class TestAssocScan:
    def test_krasner_degree_two(self):
        report = assoc_scan(by_name("K"), 2)
        assert report.polynomials == 6
        assert len(report.counterexamples) == 1
        cex = report.counterexamples[0]
        assert cex.triple == ("T+1", "T+1", "T^2+1")
        cert = counterexample(cex)
        assert cert.verdict == "unequal"
        assert replay_member(cert.member_in) and replay_member(cert.member_out)
        assert "counterexample(s)" in str(report)

    def test_signs_degree_one(self):
        report = assoc_scan(by_name("S"), 1)
        assert len(report.counterexamples) == 1
        assert report.counterexamples[0].triple == ("T+1", "T+1", "T-1")

    def test_weak_signs_uses_set_valued_path(self):
        # W hypersums are set-valued, so boxes have cells with several codes
        report = assoc_scan(by_name("W"), 1)
        assert len(report.counterexamples) == 1
        assert report.counterexamples[0].triple == ("T+1", "T+1", "T-1")

    def test_krasner_degree_one_is_associative(self):
        for monic in (False, True):
            report = assoc_scan(by_name("K"), 1, monic_only=monic)
            assert report.counterexamples == ()
        assert assoc_scan(by_name("K"), 1).triples_checked == 4

    @pytest.mark.parametrize("name", ["GF(2)", "GF(3)", "GF(5)"])
    def test_galois_fields_scan_clean(self, name):
        report = assoc_scan(by_name(name), 2, stop_after=None)
        assert report.counterexamples == ()
        assert report.triples_checked > 0

    def test_stop_after_none_collects_everything(self):
        report = assoc_scan(by_name("S"), 1, stop_after=None)
        assert len(report.counterexamples) >= 1
        assert report.triples_checked == 56  # all multisets of the 6 polys

    @pytest.mark.parametrize("name,calls", [("S", 2200), ("W", 2424)])
    def test_no_value_decides_a_polynomial_twice(self, monkeypatch, name,
                                                 calls):
        # values keep no decisions, so the full degree-2 scan must not ask
        # one resolved value about the same polynomial twice
        computed = record_decisions(monkeypatch)
        assoc_scan(by_name(name), 2, stop_after=None)
        assert len(computed) == calls
        assert len({(id(value), p) for value, p in computed}) == calls

    def test_infinite_carrier_rejected(self):
        with pytest.raises(UndecidedError):
            assoc_scan(by_name("T"), 1)

    @pytest.mark.parametrize("max_deg", [0, -1])
    def test_degree_below_one_is_refused(self, max_deg):
        # no polynomial to scan is not an associative answer
        with pytest.raises(ValueError, match="max_deg must be at least 1"):
            assoc_scan(by_name("K"), max_deg)

    @pytest.mark.parametrize("hf,max_deg,monic_only", [
        (by_name("K"), 2, False),
        (by_name("S"), 1, False),
        (by_name("W"), 1, False),
        (by_name("GF(3)"), 2, True),
        (weak_group(*cyclic_group_table(3)), 1, True),
    ], ids=["K-2", "S-1", "W-1", "GF(3)-2-monic", "W(C3)-1-monic"])
    def test_counterexamples_match_resolved_member_sets(self, hf, max_deg,
                                                        monic_only):
        # an independent check: every multiset whose three outer forms
        # x (x) (y (x) z) resolve to different member lists, and no other
        elems = hf.elements()
        leads = [hf.one()] if monic_only else [
            x for x in elems if not hf.is_zero(x)]
        polys = [Polynomial.of(hf, list(lower) + [lead])
                 for deg in range(1, max_deg + 1) for lead in leads
                 for lower in itertools.product(elems, repeat=deg)]

        def members(x, y, z):
            expr = ProdNode(PolyLeaf(x), ProdNode(PolyLeaf(y), PolyLeaf(z)))
            return resolved_members(resolve(expr, hf))

        expected = set()
        for x, y, z in itertools.combinations_with_replacement(polys, 3):
            forms = [members(x, y, z), members(y, x, z), members(z, x, y)]
            if forms[0] != forms[1] or forms[1] != forms[2]:
                expected.add(tuple(sorted(map(str, (x, y, z)))))
        report = assoc_scan(hf, max_deg, monic_only=monic_only,
                            stop_after=None)
        found = [tuple(sorted(rep.triple)) for rep in report.counterexamples]
        assert len(found) == len(set(found))
        assert set(found) == expected


def reference_scan(hf, max_deg, monic_only=False, stop_after=1):
    """The scan as it was before cell sets: every outer choice is the union
    of the member tuples of x (x) r over the inner members r, and the outer
    choices are compared as member sets."""
    polys = assoc._scan_polys(hf, max_deg, monic_only)
    codes = hf.codes
    enc = [codes.encode(p.coeffs) for p in polys]
    found = []
    checked = 0
    pair: dict = {}
    inner_value: dict = {}

    def outer_choice(m: int, a: int, b: int) -> set:
        key = (a, b) if a <= b else (b, a)
        inner = pair.get(key)
        if inner is None:
            inner = pair[key] = tuple(codes.members_of_product(
                enc[key[0]], enc[key[1]]))
        out: set = set()
        q = enc[m]
        for r in inner:
            out.update(codes.members_of_product(q, r))
        return out

    def side(m, a, b):
        inner = inner_value.get((a, b))
        if inner is None:
            inner = inner_value[(a, b)] = resolve(
                ProdNode(PolyLeaf(polys[a]), PolyLeaf(polys[b])), hf)
        return product_value(box_of(polys[m]), inner, hf)

    def certify(i, j, k, d1, s1, d2, s2):
        t1 = format_expr(assoc._outer_form(*(polys[n] for n in d1)))
        t2 = format_expr(assoc._outer_form(*(polys[n] for n in d2)))
        cert = unequal_certificate(
            t1, t2, side(*d1), side(*d2), s1, s2,
            codes.sort_key, lambda t: Polynomial(hf, codes.decode(t)))
        found.append(assoc.AssocReport(
            hf.name, (str(polys[i]), str(polys[j]), str(polys[k])),
            False, (cert,)))

    for i, j, k in itertools.combinations_with_replacement(
            range(len(polys)), 3):
        checked += 1
        decomps = list(dict.fromkeys(((i, j, k), (j, i, k), (k, i, j))))
        if len(decomps) < 2:
            continue
        prev = outer_choice(*decomps[0])
        for t in range(1, len(decomps)):
            cur = outer_choice(*decomps[t])
            if cur != prev:
                certify(i, j, k, decomps[t - 1], prev, decomps[t], cur)
                break
            prev = cur
        if stop_after is not None and len(found) >= stop_after:
            break
    return checked, [[c.to_dict() for c in rep.comparisons] for rep in found]


def _klein_four():
    symbols = ["1", "a", "b", "c"]
    table = {(x, y): symbols[i ^ j] for i, x in enumerate(symbols)
             for j, y in enumerate(symbols)}
    return weak_group(table, symbols, "1", name="W(V4,1)")


def scan_grid():
    """K, S, W, GF(2), GF(3) and GF(5) up to degree 2, and W(G,e) over C2,
    C3, C4 and V4 at degree 1, monic and not, with stop_after 1 and None;
    the cases listed beside it in the test are not repeated."""
    carriers = [(by_name(name), deg) for name in
                ("K", "S", "W", "GF(2)", "GF(3)", "GF(5)") for deg in (1, 2)]
    carriers += [(weak_group(*cyclic_group_table(n), name=f"W(C{n})"), 1)
                 for n in (2, 3, 4)]
    carriers += [(_klein_four(), 1)]
    for hf, deg in carriers:
        for monic in (True, False):
            for stop in (1, None):
                key = (hf.name, deg, monic, stop)
                if key in {("S", 1, False, None), ("W", 1, False, None),
                           ("K", 2, False, None), ("W(C3)", 1, False, None),
                           # 295,240 triples and no counterexample, so
                           # stop_after=1 runs the loop to the same end
                           ("GF(5)", 2, False, 1)}:
                    continue
                yield pytest.param(hf, deg, monic, stop, id="-".join(
                    [hf.name, str(deg), "monic" if monic else "all",
                     "all-cex" if stop is None else "first"]))


class TestScanCells:
    """The scan compares outer choices as sets of cell tuples and expands
    members only where two consecutive choices' cells differ, at one triple
    per symmetry orbit."""

    C3 = weak_group(*cyclic_group_table(3))

    @pytest.mark.parametrize("hf,max_deg,monic_only,stop_after", [
        pytest.param(by_name("S"), 1, False, None, id="S-1"),
        pytest.param(by_name("W"), 1, False, None, id="W-1"),
        pytest.param(by_name("K"), 2, False, None, id="K-2"),
        # 303 of its 364 triples differ in cells, yet none in members
        pytest.param(C3, 1, False, None, id="W(C3)-1"),
        # 174 of the 340 comparisons that differ in cells agree in members
        pytest.param(by_name("W"), 2, True, 40, id="W-2-monic"),
        *scan_grid(),
    ])
    def test_same_report_as_the_member_union_scan(self, hf, max_deg,
                                                  monic_only, stop_after):
        report = assoc_scan(hf, max_deg, monic_only, stop_after=stop_after)
        checked, certs = reference_scan(hf, max_deg, monic_only, stop_after)
        assert report.triples_checked == checked
        assert [[c.to_dict() for c in rep.comparisons]
                for rep in report.counterexamples] == certs

    @staticmethod
    def count_expansions(monkeypatch):
        calls = []
        real = CodeTable.expand

        def counted(self, cell_tuples):
            calls.append(1)
            return real(self, cell_tuples)

        monkeypatch.setattr(CodeTable, "expand", counted)
        return calls

    def test_a_field_scan_expands_no_outer_choice(self, monkeypatch):
        # over a field every cell is one code, and no triple is a
        # counterexample, so the cell sets always agree
        calls = self.count_expansions(monkeypatch)
        report = assoc_scan(by_name("GF(5)"), 2, True, stop_after=None)
        assert report.triples_checked == 4960
        assert report.counterexamples == () and calls == []

    def test_expansions_are_the_comparisons_whose_cells_differ(
            self, monkeypatch):
        # the cells of x (x) r as boxes, over every inner member r: each
        # consecutive pair of outer choices whose cell sets differ expands
        # both, at the triples the scan still compares.  W(C3) degree 1 has
        # no counterexample to stop at, so those are the first triple of
        # each symmetry orbit (303 differences over all 364 triples)
        hf = self.C3
        polys = assoc._scan_polys(hf, 1, False)

        def cells(x, y, z):
            return {boxprod(polys[x], r).cells
                    for r in boxprod(polys[y], polys[z]).member_set()}

        differing = 0
        for i, j, k in orbit_firsts(hf, polys, False):
            forms = [cells(*d) for d in dict.fromkeys(
                ((i, j, k), (j, i, k), (k, i, j)))]
            differing += sum(a != b for a, b in zip(forms, forms[1:]))
        calls = self.count_expansions(monkeypatch)
        report = assoc_scan(hf, 1, stop_after=None)
        assert report.counterexamples == ()
        assert differing == 30 and len(calls) == 2 * differing


def symmetry_maps(hf, polys, monic_only):
    """Each map phi(p) = u c^-deg p(cT) of the scan list, for units c and u
    (u = 1 if monic_only), as the list of image indices, computed on
    Elements through hf.inv and hf.mul."""
    index = {p: n for n, p in enumerate(polys)}
    units = [x for x in hf.elements() if not hf.is_zero(x)]
    maps = []
    for c in units:
        for u in [hf.one()] if monic_only else units:
            image = []
            for p in polys:
                coeffs = []
                for a, x in enumerate(p.coeffs):
                    scale = u
                    for _ in range(p.degree - a):
                        scale = hf.mul(scale, hf.inv(c))
                    coeffs.append(hf.mul(scale, x))
                image.append(index[Polynomial.of(hf, coeffs)])
            maps.append(image)
    return maps


def orbit_firsts(hf, polys, monic_only):
    """The triples, in scan order, that no earlier triple maps to."""
    maps = symmetry_maps(hf, polys, monic_only)
    seen = set()
    for t in itertools.combinations_with_replacement(range(len(polys)), 3):
        if t not in seen:
            seen.update(tuple(sorted(m[n] for n in t)) for m in maps)
            yield t


class TestScanSymmetry:
    """A scan compares one triple per orbit of p -> u c^-deg p(cT) and
    carries an associative verdict to the rest of the orbit."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rank_is_the_enumeration_index(self, n):
        rank = assoc._triple_rank(n)
        for place, (i, j, k) in enumerate(
                itertools.combinations_with_replacement(range(n), 3)):
            assert rank(i, j, k) == place

    def test_the_scan_maps_the_list_as_the_element_maps_do(self):
        hf = by_name("GF(5)")
        for monic in (True, False):
            polys = assoc._scan_polys(hf, 2, monic)
            enc = [hf.codes.encode(p.coeffs) for p in polys]
            assert (sorted(assoc._symmetries(hf.codes, enc, monic))
                    == sorted(symmetry_maps(hf, polys, monic)))

    @pytest.mark.parametrize("monic_only", [True, False])
    def test_a_carrier_that_does_not_distribute_is_refused(self, monic_only):
        # S with 1 (+) 1 = {0, 1}: then -1 (x) (1 (+) 1) = {0, -1}, but
        # (-1) (+) (-1) = {-1}, and no orbit argument holds
        S = by_name("S")
        mul, neg, inv, add = payload_tables(S)
        add[(1, 1)] = frozenset({0, 1})
        broken = FiniteHyperfield("S'", S._payloads, 0, 1, mul, neg, inv,
                                  add)
        with pytest.raises(AssertionError, match=r"c\(x \(\+\) y\)"):
            assoc_scan(broken, 1, monic_only, stop_after=None)


class TestScanUnitLaws:
    """The scan's symmetry needs c(xy) = (cx)y and c(x (+) y) = cx (+) cy
    for every c, x and y of the code table, 0 included."""

    @staticmethod
    def redrawn(name, mul=None, add=None):
        hf = by_name(name)
        base_mul, neg, inv, base_add = payload_tables(hf)
        return FiniteHyperfield(f"{name}'", hf._payloads, 0, 1,
                                {**base_mul, **(mul or {})}, neg, inv,
                                {**base_add, **(add or {})})

    @pytest.mark.parametrize("monic_only", [True, False])
    def test_a_carrier_that_does_not_associate_is_refused(self, monic_only):
        # S with 1 (x) 1 = -1: then (-1 (x) -1) (x) 1 = -1, but
        # -1 (x) (-1 (x) 1) = 1
        broken = self.redrawn("S", mul={(1, 1): -1})
        with pytest.raises(AssertionError, match=r"^c\(xy\) != \(cx\)y"):
            assoc_scan(broken, 1, monic_only, stop_after=None)

    @pytest.mark.parametrize("monic_only", [True, False])
    def test_a_law_broken_only_at_zero_is_refused(self, monic_only):
        # K with 1 (+) 1 empty: 0 (x) (1 (+) 1) is empty, but 0 (+) 0 = {0}.
        # No unit breaks a law, so a check of the units alone would scan.
        broken = self.redrawn("K", add={(1, 1): frozenset()})
        assert not check_axioms(broken, ProbeSpec.exhaustive()).ok
        with pytest.raises(AssertionError,
                           match=r"^c\(x \(\+\) y\) != cx \(\+\) cy"):
            assoc_scan(broken, 1, monic_only, stop_after=None)


class TestScanCertificates:
    @staticmethod
    def least_one_sided(cert, hf):
        # the witness rule: the sort_key-least member of side 1 alone,
        # else of side 2 alone
        s1, s2 = (set(resolved_members(resolve(parse_expr(t, hf), hf)))
                  for t in (cert.expr1, cert.expr2))
        if s1 - s2:
            return min(s1 - s2, key=Polynomial.sort_key), 1
        return min(s2 - s1, key=Polynomial.sort_key), 2

    @pytest.mark.parametrize("name,e1,e2", [
        ("K", "(T+1)*(T+1)", "(T^2+1)"),
        ("K", "(T^2+1)", "(T+1)*(T+1)"),
        ("S", "((T+1)*(T-1))*((T+1)*(T-1))", "(T+1)*((T-1)*((T+1)*(T-1)))"),
        ("W", "((T+1)*(T+1))+((T+1)*(T+1))", "(T+1)*((T+1)*(T+1))"),
        ("GF(3)", "(T+1)*((T+2)*(T+2))", "(T^2+1)"),
    ])
    def test_witness_is_least_of_the_one_sided_difference(self, name, e1, e2):
        hf = by_name(name)
        cert = expr_equal(parse_expr(e1, hf), parse_expr(e2, hf), hf)
        assert cert.verdict == "unequal"
        witness, side = self.least_one_sided(cert, hf)
        assert (cert.witness, cert.witness_side) == (str(witness), side)

    @staticmethod
    def c3_from_file(tmp_path):
        # W(C3) read from a Cayley file, so that by_name (and replay_member)
        # can rebuild the carrier from its name
        table, symbols, e = cyclic_group_table(3)
        rows = [" ".join(table[(a, b)] for b in symbols) for a in symbols]
        path = tmp_path / "c3.txt"
        path.write_text("3\n" + "\n".join(rows) + f"\n{e}\n", encoding="utf-8")
        return by_name(f"W(G,e):{path}")

    @pytest.mark.parametrize("name,max_deg,monic_only,stop_after", [
        ("S", 1, False, None),
        ("K", 2, False, None),
        ("W", 1, False, None),
        # monic degree 1 over W(C3) is associative; the first 40 of the 792
        # degree-2 counterexamples keep the test short
        ("W(C3)", 2, True, 40),
    ], ids=["S-1", "K-2", "W-1", "W(C3)-2-monic"])
    def test_every_scan_certificate_replays(self, name, max_deg, monic_only,
                                            stop_after, tmp_path):
        hf = self.c3_from_file(tmp_path) if name == "W(C3)" else by_name(name)
        report = assoc_scan(hf, max_deg, monic_only=monic_only,
                            stop_after=stop_after)
        assert report.counterexamples
        for rep in report.counterexamples:
            cert = counterexample(rep)
            witness, side = self.least_one_sided(cert, hf)
            assert (cert.witness, cert.witness_side) == (str(witness), side)
            sizes = [len(resolved_members(resolve(parse_expr(t, hf), hf)))
                     for t in (cert.expr1, cert.expr2)]
            assert cert.detail[0].text == (
                f"side 1 has {sizes[0]} members, side 2 has {sizes[1]}")
            assert cert.member_in.verdict == "yes"
            assert cert.member_out.verdict == "no"
            assert replay_member(cert.member_in)
            assert replay_member(cert.member_out)

    def test_scan_over_unsorted_symbols(self, unsorted_symbols):
        # the scan enumerates in display order, shortest text first, which
        # is neither the table order of the codes nor the natural order
        hf = unsorted_symbols
        polys = assoc._scan_polys(hf, 1, True)
        assert [str(p) for p in polys] == ["T", "T+b", "T+m", "T+aa",
                                           "T+zz"]
        assert [str(p) for p in assoc._scan_polys(hf, 1, False)[:5]] == [
            "bT", "bT+b", "bT+m", "bT+aa", "bT+zz"]
        report = assoc_scan(hf, 1, stop_after=None)
        assert len(report.counterexamples) == 416
        for rep in report.counterexamples:
            cert = counterexample(rep)
            witness, side = self.least_one_sided(cert, hf)
            assert (cert.witness, cert.witness_side) == (str(witness), side)
            assert replay_member(cert.member_in)
            assert replay_member(cert.member_out)

    def test_membership_disagreement_stops_the_scan(self, monkeypatch):
        # the scan's own sets name the witness; polyalg's membership
        # procedure must confirm it, so a flipped verdict is an error
        real = polyalg._member_in_resolved

        def flipped(p, value, expr_text):
            cert = real(p, value, expr_text)
            other = {"yes": "no", "no": "yes"}[cert.verdict]
            return dataclasses.replace(cert, verdict=other)

        monkeypatch.setattr(polyalg, "_member_in_resolved", flipped)
        with pytest.raises(AssertionError, match="not confirmed"):
            assoc_scan(by_name("K"), 2)


class TestOnePlusOneCriterion:
    @pytest.mark.parametrize("name,b_text,witness", [
        ("K", "{0,1}", "T^4+T^3+T^2+1"),
        ("W", "{-1,1}", None),
        ("T", "[-inf,0]", "0T^4+0T^3+0T^2+(-1)T+0"),
        ("V", "[0,2]", "T^4+T^3+T^2+2T+1"),
    ])
    def test_applicable_carriers(self, name, b_text, witness):
        hf = by_name(name)
        report = one_plus_one_criterion(hf)
        assert report.applicable and report.b_set == b_text
        cert = report.certificate()
        if witness is not None:
            assert cert.witness == witness
        assert cert.member_in.verdict == "yes"
        assert cert.member_out.verdict == "no"
        assert replay_member(cert.member_in)
        assert replay_member(cert.member_out)
        assert cert.verdict == "unequal" and cert.witness_side == 1
        assert EqualCertificate.from_dict(cert.to_dict()) == cert

    @pytest.mark.parametrize("name", ["S", "P", "GF(2)", "GF(3)"])
    def test_singleton_carriers_are_inapplicable(self, name):
        report = one_plus_one_criterion(by_name(name))
        assert not report.applicable
        assert "inapplicable" in str(report)
        with pytest.raises(ValueError):
            report.certificate()

    def test_coupled_shape_reveals_the_outer_factor(self):
        report = one_plus_one_criterion(by_name("K"))
        free, coupled = report.certificate().detail
        assert coupled.text.startswith(
            "side 2 resolves to (T^2+1) (x) members of")
        assert free.text.startswith("side 1 resolves to [T^0:")


class TestPointwiseProducts:
    def test_signs_rows_are_equal_despite_set_difference(self):
        S = by_name("S")
        p = parse_poly("T+1", S)
        r = parse_poly("T-1", S)
        report = pointwise_products_equal(p, p, r, S.elements())
        assert report.equal
        rows = {row[0]: row[1] for row in report.rows}
        assert rows["-1"] == "{-1,0,1}"
        assert rows["0"] == "{-1}"
        assert rows["1"] == "{-1,0,1}"

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_scalar_multiplication_is_always_associative(self, data):
        # evaluation products cannot detect the set-level failure: they
        # multiply subsets of the carrier, and that product is associative
        hf = by_name(data.draw(st.sampled_from(["K", "S", "W", "GF(3)"])))
        elems = hf.elements()
        nonzero = [x for x in elems if not hf.is_zero(x)]

        def poly(deg):
            coeffs = [data.draw(st.sampled_from(elems)) for _ in range(deg)]
            coeffs.append(data.draw(st.sampled_from(nonzero)))
            return Polynomial.of(hf, coeffs)

        p, q, r = (poly(data.draw(st.integers(1, 2))) for _ in range(3))
        report = pointwise_products_equal(p, q, r, elems)
        assert report.equal
