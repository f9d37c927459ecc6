"""Associativity checks, exhaustive scans, the 1+1 criterion, pointwise rows."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import (
    EqualCertificate,
    Polynomial,
    PolyLeaf,
    ProdNode,
    UndecidedError,
    assoc_check,
    assoc_scan,
    by_name,
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
from hyperpoly import polyalg


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
        cex = report.counterexample
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
        assert report.counterexample is None

    def test_infinite_carrier_without_separator_is_undecided(self):
        T = by_name("T")
        p = parse_poly("T+1", T)
        report = assoc_check(p, p, p)
        assert report.associative is None


class TestAssocScan:
    def test_krasner_degree_two(self):
        report = assoc_scan(by_name("K"), 2)
        assert report.polynomials == 6
        assert len(report.counterexamples) == 1
        cex = report.counterexamples[0]
        assert cex.triple == ("T+1", "T+1", "T^2+1")
        cert = cex.counterexample
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
            cert = rep.counterexample
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
        if witness is not None:
            assert report.witness == witness
        assert report.free_cert.verdict == "yes"
        assert report.coupled_cert.verdict == "no"
        assert replay_member(report.free_cert)
        assert replay_member(report.coupled_cert)
        cert = report.certificate()
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
        assert report.coupled_shape.startswith("(T^2+1) (x) members of")
        assert report.free_shape.startswith("[T^0:")


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
