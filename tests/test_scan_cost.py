"""Scan certificates at the cost of their cross-check: each inner pair of a
scan is resolved once, a polynomial formats its text once, certificates
serialise field by field, and the CLI scalar options read every literal a
polynomial coefficient reads.  Each shortcut is checked against the path it
replaced, which stays here as the reference."""

import dataclasses
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import (EqualCertificate, MemberCertificate, PolyLeaf,
                       Polynomial, ProdNode, SumNode, assoc, assoc_scan,
                       box_of, boxprod, by_name, cyclic_group_table,
                       expr_equal, expr_member, format_expr, format_poly,
                       parse_expr, parse_poly, resolve, weak_group)
from hyperpoly.cli import main
from hyperpoly.polyalg import CoupledValue, PolyBox, product_value

FINITE = {name: by_name(name) for name in ("K", "S", "W", "GF(5)")}
FINITE["W(C3)"] = weak_group(*cyclic_group_table(3))
CARRIERS = {name: by_name(name) for name in ("K", "S", "W", "T", "V", "P")}


def scalars(hf):
    if hf.is_finite():
        return st.sampled_from(hf.elements())
    if hf.name == "T":
        raw = st.one_of(st.just("-inf"), st.integers(-2, 2))
    elif hf.name == "V":
        raw = st.integers(0, 3)
    else:  # P: 0 and phases
        raw = st.sampled_from([None, Fraction(0), Fraction(1, 2),
                               Fraction(1), Fraction(3, 2)])
    return raw.map(hf.element)


@st.composite
def polys(draw, hf, min_deg=0, max_deg=2):
    elems = scalars(hf)
    deg = draw(st.integers(min_deg, max_deg))
    coeffs = [draw(elems) for _ in range(deg)]
    coeffs.append(draw(elems.filter(lambda c: not hf.is_zero(c))))
    return Polynomial.of(hf, coeffs)


@st.composite
def exprs(draw, hf, depth=2):
    """Small trees: at most three leaves of degree at most 2."""
    kind = draw(st.sampled_from(["leaf", "prod", "sum"])) if depth else "leaf"
    if kind == "leaf":
        return PolyLeaf(draw(polys(hf)))
    node = ProdNode if kind == "prod" else SumNode
    return node(draw(exprs(hf, depth - 1)), PolyLeaf(draw(polys(hf))))


def side(outer, inner_value, hf):
    """A scan side x (x) (y (x) z) from the resolved inner pair."""
    return product_value(box_of(outer), inner_value, hf)


class TestSerialisation:
    @staticmethod
    def same_as_asdict(cert):
        data = cert.to_dict()
        reference = dataclasses.asdict(cert)
        # == tells a tuple from a list, so the value types match too
        assert data == reference
        assert (json.dumps(data, sort_keys=True)
                == json.dumps(reference, sort_keys=True))
        assert type(cert).from_dict(data) == cert

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_member_certificates(self, data):
        hf = CARRIERS[data.draw(st.sampled_from(sorted(CARRIERS)))]
        cert = expr_member(data.draw(polys(hf, max_deg=4)),
                           data.draw(exprs(hf)))
        self.same_as_asdict(cert)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_equal_certificates(self, data):
        hf = CARRIERS[data.draw(st.sampled_from(sorted(CARRIERS)))]
        cert = expr_equal(data.draw(exprs(hf)), data.draw(exprs(hf)), hf)
        self.same_as_asdict(cert)

    @pytest.mark.parametrize("name,e1,e2,verdict", [
        ("K", "(T+1)*(T+1)", "(T+1)*(T+1)", "equal"),  # no sub-certificates
        ("K", "(T+1)*((T+1)*(T+1))", "(T^2+1)*(T+1)", "unequal"),
        ("T", "(T+0)*((T+0)*(T+0))", "((T+0)*(T+0))*(T+0)", "undecided"),
    ])
    def test_each_verdict_and_missing_sub_certificates(self, name, e1, e2,
                                                       verdict):
        hf = by_name(name)
        cert = expr_equal(parse_expr(e1, hf), parse_expr(e2, hf), hf)
        assert cert.verdict == verdict
        assert (cert.member_in is None) == (verdict != "unequal")
        self.same_as_asdict(cert)
        for sub in (cert.member_in, cert.member_out):
            if sub is not None:
                self.same_as_asdict(sub)

    def test_undecided_member_certificate(self):
        V = by_name("V")
        cert = expr_member(
            Polynomial.of(V, [V.element(x) for x in (1, 2, 3, 3, 3, 2, 1)]),
            parse_expr("(T^2+T+1)*((T^2+T+1)*(T^2+T+1))", V))
        assert cert.verdict == "undecided"
        self.same_as_asdict(cert)
        assert isinstance(cert.to_dict()["steps"], tuple)


class TestCachedInnerPair:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_side_from_the_cached_inner_value_equals_resolve(self, data):
        hf = FINITE[data.draw(st.sampled_from(sorted(FINITE)))]
        y, z = (data.draw(polys(hf, 1, 2)) for _ in range(2))
        inner = resolve(ProdNode(PolyLeaf(y), PolyLeaf(z)), hf)
        # one inner value serves several outer factors, as in the scan
        for _ in range(2):
            x = data.draw(polys(hf, 1, 2))
            direct = resolve(ProdNode(PolyLeaf(x), ProdNode(PolyLeaf(y),
                                                            PolyLeaf(z))), hf)
            built = side(x, inner, hf)
            assert built == direct
            assert str(built) == str(direct)
            # the scan's construction: the inner value's own product rule
            assert inner.times(x) == direct

    def test_full_K_degree_3_scan_resolves_each_inner_pair_once(
            self, monkeypatch):
        calls = []
        original = assoc.resolve

        def counting(expr, hf):
            calls.append((str(expr.left.poly), str(expr.right.poly)))
            return original(expr, hf)

        monkeypatch.setattr(assoc, "resolve", counting)
        enumerated = []
        member_set = PolyBox.member_set

        def counting_members(box):
            enumerated.append(box)  # the reference keeps each id unique
            return member_set(box)

        monkeypatch.setattr(PolyBox, "member_set", counting_members)
        K = by_name("K")
        rep = assoc_scan(K, 3, stop_after=None)
        # the certified sides are two of the three outer choices; their
        # texts exceed the reader's degree cap, so match them as printed
        inner_pairs = set()
        for r in rep.counterexamples:
            x, y, z = (parse_poly(t, K) for t in r.triple)
            cert = r.comparisons[0]
            for m, a, b in ((x, y, z), (y, x, z), (z, x, y)):
                text = format_expr(ProdNode(PolyLeaf(m), ProdNode(
                    PolyLeaf(a), PolyLeaf(b))))
                if text in (cert.expr1, cert.expr2):
                    inner_pairs.add((str(a), str(b)))
        assert len(rep.counterexamples) == 181
        assert len(calls) == len(set(calls)) == len(inner_pairs) == 66
        assert set(calls) == inner_pairs
        # a coupled value reads its inner box's cached members, so each
        # box is enumerated once however many outer factors it meets
        assert enumerated
        assert len({id(box) for box in enumerated}) == len(enumerated)


class TestCoupledDecisionOnCodes:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_verdict_equals_membership_of_decoded_members(self, data):
        hf = FINITE[data.draw(st.sampled_from(sorted(FINITE)))]
        value = CoupledValue(data.draw(polys(hf, 2, 2)),
                             boxprod(data.draw(polys(hf, 1, 2)),
                                     data.draw(polys(hf, 1, 2))))
        members = value.members  # the decoded reference
        p = data.draw(st.one_of(
            st.sampled_from(sorted(members, key=Polynomial.sort_key)),
            polys(hf, value.outer.degree + value.inner.nominal_degree - 1,
                  value.outer.degree + value.inner.nominal_degree)))
        decision = value.decide(p)
        assert decision.verdict == ("yes" if p in members else "no")
        if decision.method == "enumeration":
            assert f"enumerated {len(members)} members" in \
                decision.steps[0].text
            # the reference witness: the first inner choice in sort_key
            # order whose product holds p
            reference = next((r for r in value.inner.enumerate_members()
                              if boxprod(value.outer, r).contains(p)), None)
            assert decision.witness == reference
            assert (reference is None) == (decision.verdict == "no")

    def test_enumeration_branch_reads_the_code_set(self):
        S = by_name("S")
        value = resolve(parse_expr("(T^2+1)*((T^2+T+1)*(T^2-T+1))", S), S)
        assert isinstance(value, CoupledValue)
        for p in sorted(value.members, key=Polynomial.sort_key)[:5]:
            decision = value.decide(p)
            assert (decision.verdict, decision.method) == ("yes",
                                                          "enumeration")
            assert boxprod(value.outer, decision.witness).contains(p)
        outsider = parse_poly("T^6-T^5-T^4-T^3-T^2-T-1", S)
        assert outsider not in value.members
        assert value.decide(outsider)[:2] == ("no", "enumeration")


class TestPolynomialText:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_cached_text_keeps_equality_hash_and_pickle(self, data):
        hf = CARRIERS[data.draw(st.sampled_from(sorted(CARRIERS)))]
        p = data.draw(polys(hf, max_deg=4))
        fresh = Polynomial(hf, p.coeffs)
        before = hash(p)
        assert str(p) == format_poly(p) == format_poly(fresh)
        assert p == fresh and hash(p) == hash(fresh) == before
        again = pickle.loads(pickle.dumps(p))
        assert again == p and hash(again) == before
        assert str(again) == str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestScalarOptions:
    def test_parenthesised_root(self, capsys):
        args = ("mult", "--hf", "T", "--poly", "T^2+(-1)T+(-3)")
        assert run_cli(capsys, *args, "--root=(-1)") == \
            run_cli(capsys, *args, "--root=-1") == (0, "1\n")

    def test_exponential_phase_point(self, capsys):
        args = ("eval", "--hf", "P", "--poly", "T+ph(1)")
        code, out = run_cli(capsys, *args, "--at", "e^{i1/2pi}")
        assert (code, out) == run_cli(capsys, *args, "--at", "ph(1/2)")
        assert code == 0

    def test_region_bounds_and_root_lists(self, capsys):
        args = ("mult-set", "--hf", "T", "--poly", "T^2+(-1)T+(-3)")
        assert run_cli(capsys, *args, "--region", "[(-2),(0)]") == \
            run_cli(capsys, *args, "--region", "[-2,0]")
        assert run_cli(capsys, "trop-box", "--hf", "T",
                       "--roots", "(-1),(2)") == \
            run_cli(capsys, "trop-box", "--hf", "T", "--roots=-1,2")
