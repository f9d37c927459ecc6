"""Expression text: every printed expression and polynomial reads back to
itself, the degree cap is checked where input enters, and membership is
decided once per written certificate."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import (MemberCertificate, PolyLeaf, Polynomial, ProdNode,
                       SumNode, assoc, assoc_check, by_name,
                       cyclic_group_table, expr_equal, expr_member,
                       format_expr, one_plus_one_criterion, parse_expr,
                       parse_poly, polyalg, replay_member, resolve, weak_group)
from hyperpoly.cli import main
from hyperpoly.polyalg import MAX_DEGREE, CoupledValue, PolyBox

DATA = Path(__file__).parent / "data"

CARRIERS = {name: by_name(name)
            for name in ("K", "S", "W", "GF(5)", "T", "V", "P")}
CARRIERS["W(C3)"] = weak_group(*cyclic_group_table(3))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def scalars(hf):
    """Every element of a finite carrier; over T negative values and -inf,
    over V nonnegative values, over P phases and 0."""
    if hf.is_finite():
        return st.sampled_from(hf.elements())
    frac = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    if hf.name == "T":
        raw = st.one_of(st.just("-inf"), frac)
    elif hf.name == "V":
        raw = st.fractions(min_value=0, max_value=6, max_denominator=4)
    else:
        raw = st.one_of(st.none(), st.fractions(
            min_value=0, max_value=2, max_denominator=6).filter(
                lambda a: a < 2))
    return raw.map(hf.element)


@st.composite
def polys(draw, hf, max_deg):
    elems = scalars(hf)
    deg = draw(st.integers(0, max_deg))
    coeffs = [draw(elems) for _ in range(deg)]
    coeffs.append(draw(elems.filter(lambda c: not hf.is_zero(c))))
    return Polynomial.of(hf, coeffs)


@st.composite
def exprs(draw, hf, budget=MAX_DEGREE, depth=3):
    """Trees whose products stay within the degree budget; leaves are
    constants about a quarter of the time, so sums of constants occur."""
    kind = draw(st.sampled_from(["leaf", "prod", "sum"])) if depth else "leaf"
    if kind == "leaf":
        return PolyLeaf(draw(polys(hf, min(budget, 3))))
    if kind == "sum":
        return SumNode(draw(exprs(hf, budget, depth - 1)),
                       draw(exprs(hf, budget, depth - 1)))
    split = draw(st.integers(0, budget))
    return ProdNode(draw(exprs(hf, split, depth - 1)),
                    draw(exprs(hf, budget - split, depth - 1)))


class TestRoundTrip:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_every_printed_expression_reads_back(self, data):
        hf = CARRIERS[data.draw(st.sampled_from(sorted(CARRIERS)))]
        e = data.draw(exprs(hf))
        assert parse_expr(format_expr(e), hf) == e

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_every_printed_polynomial_reads_back(self, data):
        hf = CARRIERS[data.draw(st.sampled_from(sorted(CARRIERS)))]
        p = data.draw(polys(hf, MAX_DEGREE))
        assert parse_poly(str(p), hf) == p

    @pytest.mark.parametrize("name,text", [
        ("T", "((-1))+(2)"),
        ("T", "(((-1))+((-2)))+(0T^2+(-1)T+(-3))"),
        ("T", "((-1)T)*((0T+(-1))+(5))"),
        ("P", "(ph(1/2))+(ph(3/2))"),
        ("P", "(T+ph(1/2))*((ph(1/3)T^2+T+ph(1))+(ph(5/3)))"),
        ("V", "(1/2)+(3)"),
        ("S", "(-1)+(1)"),
        ("S", "(-T+1)*((T-1)+(-1))"),
        ("GF(5)", "((2)+(3))*(4T+1)"),
    ])
    def test_constant_leaves_and_their_sums_read_back(self, name, text):
        hf = CARRIERS[name]
        e = parse_expr(text, hf)
        assert format_expr(e) == text
        assert parse_expr(format_expr(e), hf) == e


class TestScalarGroups:
    def test_negative_tropical_coefficients_stay_in_their_literal(self):
        T = CARRIERS["T"]
        e = parse_expr("(T+(-1))*(T+(-2))", T)
        assert e == ProdNode(PolyLeaf(parse_poly("T+(-1)", T)),
                             PolyLeaf(parse_poly("T+(-2)", T)))

    @pytest.mark.parametrize("spelling", [
        "T+ph(1/2)", "T+(ph(1/2))", "T+e^{i1/2pi}", "T+(e^{i1/2pi})",
        "(ph(0))T+ph(1/2)",
    ])
    def test_phase_spellings_are_one_literal(self, spelling):
        P = CARRIERS["P"]
        e = parse_expr(f"({spelling})*(T)", P)
        assert e.left == PolyLeaf(parse_poly("T+ph(1/2)", P))

    def test_lone_scalar_group_ends_at_plus(self):
        T = CARRIERS["T"]
        e = parse_expr("(-1)+(T)", T)
        assert e == SumNode(PolyLeaf(parse_poly("(-1)", T)),
                            PolyLeaf(parse_poly("T", T)))

    @pytest.mark.parametrize("bad", ["+T", "(+T)", "T++T", "T+", "(T+(-1)",
                                     "((-1)T"])
    def test_grammar_errors(self, bad):
        with pytest.raises(ValueError):
            parse_expr(bad, CARRIERS["T"])


class TestTropicalCommands:
    def test_product_of_negative_linear_factors_is_a_member(self, capsys):
        code, out, _ = run_cli(capsys, "member", "--hf", "T",
                               "--poly", "T^2+(-1)T+(-3)",
                               "--expr", "(T+(-1))*(T+(-2))")
        assert code == 0
        assert out.startswith("YES: 0T^2+(-1)T+(-3) in (0T+(-1))*(0T+(-2))")

    def test_negative_coefficient_inside_a_nested_product(self, capsys):
        code, out, err = run_cli(capsys, "member", "--hf", "T",
                                 "--poly", "0T^3+2T^2+1T+(-1)",
                                 "--expr", "(0T+0)*((2T)*((-1)T))")
        assert code in (0, 1) and err == ""
        assert "in (0T+0)*((2T)*((-1)T)) over T" in out


def count_top_level_resolves(monkeypatch) -> dict:
    """Count resolve calls by expression text, through both bindings."""
    calls: dict = {}
    original = polyalg.resolve

    def counting(expr, hf):
        text = format_expr(expr)
        calls[text] = calls.get(text, 0) + 1
        return original(expr, hf)

    monkeypatch.setattr(polyalg, "resolve", counting)
    monkeypatch.setattr(assoc, "resolve", counting)
    return calls


class TestReplay:
    def test_phase_member_certificate_replays(self):
        P = CARRIERS["P"]
        cert = expr_member(parse_poly("T^3+ph(1/2)T^2+ph(1)T+ph(3/2)", P),
                           parse_expr("(T+e^{i1/2pi})*((T+ph(1))*(T+ph(0)))",
                                      P))
        assert (cert.verdict, cert.method) == ("yes", "chain")
        assert cert.expr == "(T+ph(1/2))*((T+ph(1))*(T+ph(0)))"
        again = MemberCertificate.from_dict(
            json.loads(json.dumps(cert.to_dict())))
        assert replay_member(again)

    def test_replay_resolves_the_expression_once(self, monkeypatch):
        K = CARRIERS["K"]
        cert = expr_member(parse_poly("T^3+T^2+T+1", K),
                           parse_expr("(T+1)*((T+1)*(T+1))", K))
        calls = count_top_level_resolves(monkeypatch)
        assert replay_member(cert)
        assert calls[cert.expr] == 1

    def test_one_plus_one_resolves_each_expression_once(self, monkeypatch):
        calls = count_top_level_resolves(monkeypatch)
        cert = one_plus_one_criterion(CARRIERS["K"]).certificate()
        assert calls[cert.expr1] == calls[cert.expr2] == 1

    @pytest.mark.parametrize("name,triple", [
        ("W", ("T+1", "T^2+T+1", "T^2-T+1")),
        ("K", ("T+1", "T^2+T+1", "T+1")),
        ("T", ("T+1", "T+2", "T+3")),
    ])
    def test_assoc_check_resolves_each_outer_choice_once(self, monkeypatch,
                                                         name, triple):
        # the set product commutes, so (p*q)*r is the set r*(p*q): a
        # triple has three sets, and a finite carrier enumerates each once
        hf = CARRIERS[name]
        p, q, r = (parse_poly(t, hf) for t in triple)
        calls = count_top_level_resolves(monkeypatch)
        enumerated = []
        real = CoupledValue._member_codes.func

        def member_codes(value):
            enumerated.append(value)
            return real(value)

        monkeypatch.setattr(CoupledValue._member_codes, "func", member_codes)
        report = assoc_check(p, q, r)
        assert report.associative is True
        outer = [f"({a})*(({b})*({c}))"
                 for a, b, c in ((p, q, r), (q, p, r), (r, p, q))]
        assert [calls.get(t) for t in outer] == [1, 1, 1]
        assert f"(({p})*({q}))*({r})" not in calls
        assert len(enumerated) == (3 if hf.is_finite() else 0)


class TestSeparatorDecidesOnce:
    def test_kept_pair_is_written_from_the_search_decisions(self,
                                                            monkeypatch):
        made = []
        for cls in (PolyBox, CoupledValue):
            def decide(self, p, _orig=cls.decide):
                made.append(_orig(self, p))
                return made[-1]
            monkeypatch.setattr(cls, "decide", decide)
        written = []
        writer = polyalg._member_in_resolved

        def spy(p, decision, expr_text):
            written.append(decision)
            return writer(p, decision, expr_text)

        monkeypatch.setattr(polyalg, "_member_in_resolved", spy)
        T = CARRIERS["T"]
        cert = expr_equal(parse_expr("(T^2+1)*((T+1)*(T+1))", T),
                          parse_expr("(0)*((T+1)*(T+1))", T), T)
        assert cert.verdict == "unequal"
        tried = int(cert.detail[0].text.split(" among ")[1].split()[0])
        # one decision per candidate, and the separator's own side
        assert len(made) == tried + 1
        assert len(written) == 2
        assert all(any(d is m for m in made[-2:]) for d in written)


class TestDegreeCap:
    @pytest.mark.parametrize("text", [
        "(T^4)*(T^3)",
        "((T^4)+(T^2))*(T^3)",
        "((T^4+1)+(T^4))*((T^4+1)+(T^4))",
        "(T^2)*((T^2)*((T)*(T^2)))",
    ])
    def test_reader_refuses_products_over_the_cap(self, text):
        with pytest.raises(ValueError,
                           match=f"product degree exceeds the cap "
                                 f"{MAX_DEGREE}"):
            parse_expr(text, CARRIERS["K"])

    @pytest.mark.parametrize("text", [
        "(T^3)*(T^3)", "((T^4)+(T^2))*(T^2)", "((T^6)+(T))+(T^5)",
    ])
    def test_reader_accepts_products_at_the_cap(self, text):
        parse_expr(text, CARRIERS["K"])

    def test_enumerated_product_over_the_cap_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "member", "--hf", "K", "--poly", "T",
            "--expr", "((T^4+1)+(T^4))*((T^4+1)+(T^4))")
        assert (code, out) == (2, "")
        assert err == f"error: product degree exceeds the cap {MAX_DEGREE}\n"

    def test_assoc_check_refuses_factors_over_the_cap(self, capsys):
        S = CARRIERS["S"]
        with pytest.raises(ValueError, match="product degree exceeds"):
            assoc_check(parse_poly("T^3+1", S), parse_poly("T^2+1", S),
                        parse_poly("T^2-1", S))
        code, _, err = run_cli(capsys, "assoc-check", "--hf", "S",
                               "--p", "T^3+1", "--q", "T^2+1", "--r", "T^2")
        assert code == 2 and "product degree exceeds the cap" in err

    def test_resolve_itself_has_no_cap(self):
        K = CARRIERS["K"]
        value = resolve(ProdNode(PolyLeaf(parse_poly("T^4+1", K)),
                                 PolyLeaf(parse_poly("T^3+T", K))), K)
        assert value.nominal_degree == 7

    def test_full_K_degree_3_scan_matches_golden_head(self, capsys):
        code, out, _ = run_cli(capsys, "assoc-scan", "--hf", "K",
                               "--max-deg", "3", "--all",
                               "--format", "structured")
        payload = json.loads(out)
        assert code == 1
        assert len(payload["counterexamples"]) == 181
        payload["counterexamples"] = payload["counterexamples"][:5]
        golden = (DATA / "assoc_scan_K_deg3_head.json").read_text()
        assert json.dumps(payload, sort_keys=True) + "\n" == golden
        for rep in payload["counterexamples"]:
            cert = rep["comparisons"][0]
            for key in ("member_in", "member_out"):
                assert replay_member(MemberCertificate.from_dict(cert[key]))
