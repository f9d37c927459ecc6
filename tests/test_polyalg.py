"""Polynomial algebra: parsing, boxes, expression resolution, certificates."""

import dataclasses
import gc
import itertools
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperpoly import (
    CertStep,
    EqualCertificate,
    MemberCertificate,
    PolyBox,
    Polynomial,
    ProdNode,
    PolyLeaf,
    SumNode,
    UndecidedError,
    boxprod,
    boxsum,
    box_hyperadd,
    box_of,
    by_name,
    cyclic_group_table,
    expr_equal,
    expr_member,
    format_expr,
    format_poly,
    gf,
    linear_for_root,
    monic_decompose,
    parse_expr,
    parse_poly,
    replay_member,
    resolve,
    resolved_members,
    scalar_prod,
    scale_box,
    weak_group,
)
from hyperpoly import polyalg
from hyperpoly.polyalg import (CoupledValue, FiniteValue,
                               chain_representatives, chain_witness,
                               solve_linear_chain)

from finite_tables import assert_step_rows_are_add_rows, payloads

FINITE_NAMES = ["K", "S", "W", "GF(3)", "GF(5)"]


@st.composite
def finite_polys(draw, names=FINITE_NAMES, max_deg=4):
    hf = by_name(draw(st.sampled_from(names)))
    deg = draw(st.integers(0, max_deg))
    elems = hf.elements()
    nonzero = [e for e in elems if not hf.is_zero(e)]
    coeffs = [draw(st.sampled_from(elems)) for _ in range(deg)]
    coeffs.append(draw(st.sampled_from(nonzero)))
    return Polynomial.of(hf, coeffs)


@st.composite
def tropical_polys(draw, max_deg=4):
    T = by_name("T")
    deg = draw(st.integers(0, max_deg))
    vals = st.one_of(st.just("-inf"),
                     st.fractions(min_value=-6, max_value=6, max_denominator=4))
    coeffs = [T.element(draw(vals)) for _ in range(deg)]
    coeffs.append(T.element(draw(
        st.fractions(min_value=-6, max_value=6, max_denominator=4))))
    return Polynomial.of(T, coeffs)


# ---------------------------------------------------------------------------
# polynomials and text forms


class TestPolynomialBasics:
    def test_trailing_zeros_are_stripped(self):
        S = by_name("S")
        p = Polynomial.of(S, [1, 0, 0])
        assert p.degree == 0 and p.coeff(5) == S.zero()

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.of(by_name("S"), [0, 0])

    def test_monic_decompose(self):
        hf = gf(5)
        p = parse_poly("3T^2+4T+2", hf)
        lead, p0 = monic_decompose(p)
        assert lead.payload == 3 and p0.is_monic()
        assert boxprod(Polynomial.of(hf, [lead]), p0).the_polynomial() == p

    def test_monomial_and_scalar_prod(self):
        S = by_name("S")
        m = parse_poly("T^3", S)
        assert format_poly(m) == "T^3"
        sp = scalar_prod(S.element(-1), parse_poly("T+1", S))
        assert format_poly(sp) == "-T-1"
        with pytest.raises(ValueError):
            scalar_prod(S.zero(), m)

    @given(st.sampled_from([2, 3, 5]), st.lists(st.integers(0, 4), min_size=1,
                                                max_size=5))
    def test_gf_eval_matches_classical(self, p, raws):
        hf = gf(p)
        if all(r % p == 0 for r in raws):
            raws = raws + [1]
        poly = Polynomial.of(hf, [hf.element(r % p) for r in raws])
        for a in range(p):
            classical = sum(c.payload * a ** i
                            for i, c in enumerate(poly.coeffs)) % p
            assert poly.eval(hf.element(a)) == hf.singleton(hf.element(classical))

    def test_signs_eval_spans_full_set(self):
        S = by_name("S")
        p = parse_poly("T^2-T", S)
        assert p.eval(S.one()) == S.full_set()


def reference_format_poly(p):
    """format_poly as it was written per term: the unit's text read again
    for every term, and the parts joined one at a time."""
    hf = p.hf
    sign_join = hf.is_finite()
    always_coeff = hf.name == "T"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeff(i)
        if hf.is_zero(c) and not (i == 0 and not parts):
            continue
        text = hf.format_element(c)
        op = "+"
        if sign_join and text.startswith("-"):
            op, text = "-", text[1:]
        if text.startswith("-"):
            text = f"({text})"
        if i == 0:
            parts.append((op, text))
            continue
        var = "T" if i == 1 else f"T^{i}"
        if not always_coeff and text == hf.format_element(hf.one()):
            text = ""
        parts.append((op, text + var))
    out = ""
    for op, body in parts:
        if not out:
            out = body if op == "+" else op + body
        else:
            out += op + body
    return out


# every carrier kind, with the scalars its text forms must cover: negative
# and -inf tropical coefficients, Viro magnitudes, phases, group symbols
TEXT_CARRIERS = ([by_name(n) for n in ("K", "S", "W", "T", "V", "P")]
                 + [gf(5), gf(1009), weak_group(*cyclic_group_table(3)),
                    weak_group(*cyclic_group_table(4))])


@st.composite
def any_polys(draw, max_deg=4):
    hf = draw(st.sampled_from(TEXT_CARRIERS))
    if hf.is_finite():
        scalars = st.sampled_from(hf.elements())
    else:
        raws = {"T": st.one_of(st.just("-inf"), st.fractions(
                    min_value=-6, max_value=6, max_denominator=4)),
                "V": st.fractions(min_value=0, max_value=6, max_denominator=4),
                "P": st.one_of(st.none(), st.fractions(
                    min_value=0, max_value=2, max_denominator=6))}[hf.name]
        scalars = raws.map(hf.element)
    deg = draw(st.integers(0, max_deg))
    coeffs = [draw(scalars) for _ in range(deg)]
    coeffs.append(draw(scalars.filter(lambda x: not hf.is_zero(x))))
    return Polynomial.of(hf, coeffs)


class TestTextForms:
    @given(any_polys())
    @settings(max_examples=400)
    def test_format_equals_the_per_term_reference_and_round_trips(self, p):
        text = format_poly(p)
        assert text == reference_format_poly(p)
        assert parse_poly(text, p.hf) == p

    @pytest.mark.parametrize("name,text", [
        ("T", "(-2)T^3+0T^2+(-1/2)T+(-3)"), ("T", "0T^4+(-1)T"),
        ("V", "T^2+1/2T"), ("P", "T^2+ph(1/2)T+ph(3/2)"), ("P", "ph(1)T"),
        ("S", "-T^2-1"), ("GF(1009)", "T^3+1008")])
    def test_every_carrier_kind_keeps_its_text(self, name, text):
        p = parse_poly(text, by_name(name))
        assert format_poly(p) == reference_format_poly(p) == text

    @given(finite_polys())
    @settings(max_examples=200)
    def test_round_trip_finite(self, p):
        assert parse_poly(format_poly(p), p.hf) == p

    @given(tropical_polys())
    @settings(max_examples=200)
    def test_round_trip_tropical(self, p):
        assert parse_poly(format_poly(p), p.hf) == p

    def test_sign_join_and_parenthesized_negatives(self):
        S = by_name("S")
        p = parse_poly("T^3-1", S)
        assert p.coeff(0) == S.element(-1) and p.coeff(3) == S.one()
        assert format_poly(p) == "T^3-1"
        T = by_name("T")
        q = parse_poly("1T^3+(-2)", T)
        assert q.coeff(0).payload.q == -2
        assert format_poly(q) == "1T^3+(-2)"

    def test_tropical_unit_coefficient_is_explicit(self):
        T = by_name("T")
        assert format_poly(parse_poly("0T^2+2", T)) == "0T^2+2"

    def test_phase_literals(self):
        P = by_name("P")
        p = parse_poly("T^2+ph(1/2)T+ph(1)", P)
        assert p.coeff(1).payload == Fraction(1, 2)
        assert parse_poly(format_poly(p), P) == p
        assert parse_poly("e^{i pi}", P) == parse_poly("ph(1)", P)

    @pytest.mark.parametrize("bad", [
        "", "+", "T+T", "T^-1", "T^", "2x+1", "0T^2+1", "T^99",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            parse_poly(bad, by_name("S"))

    def test_degree_cap_refuses_T7(self):
        S = by_name("S")
        with pytest.raises(ValueError):
            parse_poly("T^7", S)


class TestExpressionGrammar:
    def test_plus_binds_to_literal_inside_segment(self):
        S = by_name("S")
        e = parse_expr("(T+1)*(T^2+1)", S)
        assert isinstance(e, ProdNode)
        assert isinstance(e.left, PolyLeaf) and e.left.poly.degree == 1

    def test_plus_at_atom_boundary_is_set_sum(self):
        S = by_name("S")
        e = parse_expr("(T+1)+T", S)
        assert isinstance(e, SumNode)
        assert isinstance(e.right, PolyLeaf) and e.right.poly == parse_poly("T", S)

    def test_format_round_trip(self):
        S = by_name("S")
        for text in ["(T+1)*(T^2+1)", "(T+1)+T", "(T+1)*((T+1)+(1))*(T)"]:
            e = parse_expr(text, S)
            assert parse_expr(format_expr(e), S) == e

    @pytest.mark.parametrize("bad", ["(T+1", "T+1)", "()", "(T+1)*", "*T"])
    def test_grammar_errors(self, bad):
        with pytest.raises(ValueError):
            parse_expr(bad, by_name("S"))

    @pytest.mark.parametrize("bad, message", [
        ("(T+1", "unbalanced parentheses in '(T+1'"),
        ("((T+1)", "unbalanced parentheses in '((T+1)'"),
        ("T+1)", "trailing input in 'T+1)'"),
        ("(T+1)*", "expected a polynomial atom in '(T+1)*'"),
        ("(T+1)+", "expected a polynomial atom in '(T+1)+'"),
        ("*T", "expected a polynomial atom in '*T'"),
        ("(T^3)*(T^3)*(T)", "product degree exceeds the cap 6")])
    def test_grammar_error_messages(self, bad, message):
        with pytest.raises(ValueError) as err:
            parse_expr(bad, by_name("S"))
        assert str(err.value) == message

    def test_parsing_leaves_no_cyclic_garbage(self):
        texts = ["(T+1)*(T+(-1))", "((T+1)+T)*(T^2+1)", "(T+1)*((T+1)*(T))"]
        carriers = [by_name(name) for name in ("S", "GF(5)", "T", "W")]
        for hf in carriers:  # fill the carriers' lazy tables first
            for text in texts:
                parse_expr(text, hf)
        gc.collect()
        gc.disable()
        try:
            for k in range(100):
                parse_expr(texts[k % 3], carriers[k % 4])
            assert gc.collect() == 0
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# boxes


class TestBoxProduct:
    @given(finite_polys(max_deg=3), finite_polys(max_deg=3))
    @settings(max_examples=150)
    def test_commutative(self, p, q):
        if p.hf != q.hf:
            q = Polynomial.of(p.hf, [p.hf.one()] * (q.degree + 1))
        assert boxprod(p, q).cells == boxprod(q, p).cells

    @given(st.sampled_from([2, 3, 5, 997, 1009]),
           st.lists(st.integers(0, 4), min_size=1, max_size=4),
           st.lists(st.integers(0, 4), min_size=1, max_size=4))
    def test_gf_product_is_classical_convolution(self, m, araw, braw):
        hf = gf(m)
        if all(r % m == 0 for r in araw):
            araw = araw + [1]
        if all(r % m == 0 for r in braw):
            braw = braw + [1]
        p = Polynomial.of(hf, [r % m for r in araw])
        q = Polynomial.of(hf, [r % m for r in braw])
        box = boxprod(p, q)
        assert box.is_singleton()
        prod = box.the_polynomial()
        for i in range(p.degree + q.degree + 1):
            conv = sum(p.coeff(k).payload * q.coeff(i - k).payload
                       for k in range(max(0, i - q.degree),
                                      min(i, p.degree) + 1)) % m
            assert prod.coeff(i).payload == conv

    def test_middle_cells_by_carrier(self):
        # (T+1) (x) (T+1): the T cell is 1(+)1, which separates the carriers.
        expected = {"S": {1}, "W": {-1, 1}, "K": {0, 1}}
        for name, mid in expected.items():
            hf = by_name(name)
            p = parse_poly("T+1", hf)
            box = boxprod(p, p)
            assert payloads(box.cell(1)) == frozenset(mid)
            assert box.cell(0) == hf.singleton(hf.one())
            assert box.cell(2) == hf.singleton(hf.one())

    @given(finite_polys(max_deg=3))
    @settings(max_examples=100)
    def test_top_cell_is_lead_product(self, p):
        hf = p.hf
        box = boxprod(p, p)
        lead = hf.mul(p.coeffs[-1], p.coeffs[-1])
        assert box.cell(2 * p.degree) == hf.singleton(lead)


def reference_boxprod(p, q):
    """boxprod as it was built over a finite carrier before the cell
    kernel: each cell the hypersum of its Element products."""
    hf = p.hf
    return PolyBox(hf, tuple(
        hf.hypersum([hf.mul(p.coeff(k), q.coeff(i - k))
                     for k in range(max(0, i - q.degree),
                                    min(i, p.degree) + 1)])
        for i in range(p.degree + q.degree + 1)))


class TestFiniteBoxprodReference:
    CARRIERS = [by_name("K"), by_name("S"), by_name("W"),
                weak_group(*cyclic_group_table(3)), gf(5), gf(7), gf(1009)]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_cells_and_text_equal_the_element_built_reference(self, data):
        hf = data.draw(st.sampled_from(self.CARRIERS), label="hf")
        elems = hf.elements()
        nonzero = [e for e in elems if not hf.is_zero(e)]

        def poly(label):
            deg = data.draw(st.integers(0, 3), label=f"deg {label}")
            coeffs = [data.draw(st.sampled_from(elems)) for _ in range(deg)]
            coeffs.append(data.draw(st.sampled_from(nonzero)))
            return Polynomial.of(hf, coeffs)

        p, q = poly("p"), poly("q")
        box, ref = boxprod(p, q), reference_boxprod(p, q)
        assert box.cells == ref.cells and box == ref
        assert str(box) == str(ref)
        # each cell is the carrier's interned set of its mask
        assert all(c is hf._set[c.mask] for c in box.cells)

    @given(st.lists(st.lists(st.integers(0, 1008), min_size=1, max_size=4),
                    min_size=2, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_largest_field_steps_only_through_add_rows(self, raws):
        # sampled GF(1009) products equal the reference, and the kernel
        # steps only through singleton rows: no p x p table is built
        hf = gf(1009)
        polys = [Polynomial.of(hf, r + [1]) for r in raws]
        for p, q in zip(polys, polys[1:]):
            box = boxprod(p, q)
            assert box == reference_boxprod(p, q) and box.is_singleton()
        assert_step_rows_are_add_rows(hf.codes)


class TestBoxSum:
    def test_cancellation_excludes_zero_selection(self):
        S = by_name("S")
        p = parse_poly("T+1", S)
        q = scalar_prod(S.element(-1), p)
        box = boxsum(p, q)
        assert box.zero_excluded
        assert str(box).endswith("(zero selection excluded)")
        members = box.enumerate_members()
        assert parse_poly("T-1", S) in members
        assert parse_poly("1", S) in members
        assert len(members) == 8

    def test_unequal_degrees_align_low_coefficients(self):
        S = by_name("S")
        box = boxsum(parse_poly("T^2+1", S), parse_poly("-1", S))
        assert box.cell(0) == S.full_set()
        assert box.cell(2) == S.singleton(S.one())
        assert not box.zero_excluded

    def test_box_hyperadd_matches_pairwise_sums(self):
        W = by_name("W")
        a = boxsum(parse_poly("T+1", W), parse_poly("T-1", W))
        b = box_of(parse_poly("T", W))
        combined = box_hyperadd(a, b)
        expected = set()
        for p in a.enumerate_members():
            for q in b.enumerate_members():
                expected.update(boxsum(p, q).enumerate_members())
        assert set(combined.enumerate_members()) == expected


class TestCanonical:
    def test_phantom_zero_top_cell_is_trimmed(self):
        S = by_name("S")
        box = PolyBox(S, (S.singleton(S.one()), S.singleton(S.zero())))
        assert box.canonical().nominal_degree == 0
        assert box.contains(parse_poly("1", S))

    def test_top_only_box_loses_zero_choice(self):
        S = by_name("S")
        box = PolyBox(S, (S.singleton(S.zero()), S.full_set()))
        canon = box.canonical()
        assert payloads(canon.cell(1)) == frozenset({-1, 1})
        assert box.contains(parse_poly("T", S))
        assert not box.contains(parse_poly("T+1", S))
        assert not box.contains(parse_poly("1", S))

    @given(finite_polys(max_deg=3), finite_polys(max_deg=3))
    @settings(max_examples=100)
    def test_idempotent(self, p, q):
        if p.hf != q.hf:
            q = scalar_prod(p.hf.one(), p)
        box = boxsum(p, q).canonical()
        assert box.canonical() == box

    def test_sample_members_deterministic_and_contained(self):
        V = by_name("V")
        box = boxprod(parse_poly("T+1", V), parse_poly("T+2", V))
        one = box.sample_members(50, seed=7)
        two = box.sample_members(50, seed=7)
        assert one == two and one
        for p in one:
            assert box.contains(p)

    @given(finite_polys(max_deg=3))
    @settings(max_examples=100)
    def test_scale_box_maps_members(self, p):
        hf = p.hf
        nonzero = [e for e in hf.elements() if not hf.is_zero(e)]
        box = boxprod(p, p)
        for a in nonzero:
            scaled = scale_box(a, box)
            for q in box.sample_members(20):
                assert scaled.contains(scalar_prod(a, q))


def reference_canonical(hf, cells):
    """PolyBox.canonical as it was written before boxes were canonical
    when built: the canonical cells of a raw cell tuple."""
    zero_set = hf.singleton(hf.zero())
    cells = list(cells)
    while len(cells) > 1 and cells[-1] == zero_set:
        cells.pop()
    if not cells:
        return ()
    if all(c == zero_set for c in cells[:-1]):
        if cells[-1].carrier != hf.name:
            raise ValueError(
                f"cell of {cells[-1].carrier} in a box over {hf.name}")
        top = hf.remove_zero(cells[-1])
        if top.is_empty():
            return ()
        cells[-1] = top
    return tuple(cells)


BOX_RAWS = {"T": ["-inf", -1, 0, Fraction(1, 2), 1, 2],
            "V": [0, Fraction(1, 2), 1, 2, 3],
            "P": [None, Fraction(0), Fraction(1, 3), Fraction(1, 2),
                  Fraction(1), Fraction(3, 2)]}
FOREIGN = {"K": "S", "S": "K", "W": "S", "GF(3)": "K", "T": "V", "V": "T",
           "P": "S"}


def element_of(hf):
    raws = BOX_RAWS.get(hf.name)
    if raws is None:
        return st.sampled_from(hf.elements())
    return st.sampled_from(raws).map(hf.element)


@st.composite
def raw_cells(draw, hf):
    """A cell of hf, zero-heavy: {0}, a singleton, a pair sum, the whole
    carrier, a sum without 0, or a union of two of these."""
    x, y = draw(element_of(hf)), draw(element_of(hf))
    zero_set = hf.singleton(hf.zero())
    shapes = [zero_set, zero_set, hf.singleton(x), hf.hyperadd(x, y),
              hf.full_set()]
    no_zero = hf.remove_zero(hf.hyperadd(x, y))
    if not no_zero.is_empty():
        shapes.append(no_zero)
    a, b = draw(st.sampled_from(shapes)), draw(st.sampled_from(shapes))
    return a.union(b) if draw(st.booleans()) else a


@st.composite
def raw_boxes(draw):
    """(hf, raw cell tuple, zero_excluded), with all-{0} tuples, {0} tops,
    lone top cells holding 0 and, now and then, a cell of another carrier."""
    hf = by_name(draw(st.sampled_from(sorted(FOREIGN))))
    cells = draw(st.lists(raw_cells(hf), max_size=4))
    if cells and draw(st.integers(0, 5)) == 0:
        other = by_name(FOREIGN[hf.name])
        cells[draw(st.integers(0, len(cells) - 1))] = draw(raw_cells(other))
    return hf, tuple(cells), draw(st.booleans())


def outcome(fn):
    """fn's value, or the type of the error it raised."""
    try:
        return fn()
    except Exception as err:
        return type(err)


class TestBuiltCanonical:
    """A PolyBox is canonical when it is built: its cells are the ones the
    old canonical() gave for the raw cells, and it denotes the same set."""

    @pytest.mark.parametrize("name", ["K", "S", "W", "GF(5)", "T", "V", "P"])
    def test_a_top_cell_without_zero_leaves_the_cells_as_given(self, name):
        # nothing to trim or drop, so the given tuple is kept as it is
        hf = by_name(name)
        p = Polynomial.of(hf, [hf.zero(), hf.one(), hf.zero(), hf.one()])
        q = Polynomial.of(hf, [hf.one(), hf.one()])
        for cells in (tuple(hf.singleton(c) for c in p.coeffs),
                      tuple(hf.hyperadd(c, hf.one()) for c in q.coeffs)
                      + (hf.singleton(hf.one()),)):
            assert PolyBox(hf, cells).cells is cells
            assert cells == reference_canonical(hf, cells)
        assert box_of(p).cells == reference_canonical(hf, box_of(p).cells)
        assert boxprod(p, q).cells == reference_canonical(
            hf, boxprod(p, q).cells)

    @given(raw_boxes(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_built_box_is_the_reference_canonical_box(self, raw, data):
        hf, cells, excluded = raw
        expected = outcome(lambda: reference_canonical(hf, cells))
        built = outcome(lambda: PolyBox(hf, cells, excluded))
        if expected is ValueError or any(c.carrier != hf.name
                                         for c in cells):
            # a cell of another carrier is refused wherever it stands
            assert built is ValueError
            return
        assert (built.cells, built.zero_excluded) == (expected, excluded)
        reference = PolyBox(hf, expected, excluded)
        assert reference.cells == expected
        assert built.canonical() is built
        members = outcome(lambda: built.sample_members(30, seed=3))
        assert members == outcome(lambda: reference.sample_members(30, seed=3))
        probes = data.draw(st.lists(polys_of(hf, len(cells)), max_size=6))
        for p in probes + ([] if isinstance(members, type) else members):
            got = outcome(lambda: built.contains(p))
            assert got == outcome(lambda: reference.contains(p))
            # the raw cells denote the same set: p pads with zeros
            assert got == (p.degree < len(cells) and all(
                c.contains(p.coeff(i)) for i, c in enumerate(cells)))
        single = outcome(built.is_singleton)
        assert single == outcome(reference.is_singleton)
        if single is True:
            p = outcome(built.the_polynomial)
            assert p == outcome(reference.the_polynomial)
            assert built.cells == box_of(p).cells
        if hf.is_finite():
            got = outcome(built.member_set)
            assert got == outcome(reference.member_set)
            assert got == {
                Polynomial.of(hf, combo) for combo in itertools.product(
                    *(hf.sample_elements(c) for c in cells))
                if not all(hf.is_zero(x) for x in combo)}


@st.composite
def polys_of(draw, hf, max_deg):
    coeffs = [draw(element_of(hf))
              for _ in range(draw(st.integers(0, max(max_deg, 0))))]
    nonzero = element_of(hf).filter(lambda x: not hf.is_zero(x))
    coeffs.append(draw(nonzero))
    return Polynomial.of(hf, coeffs)


def polys_of_degree(hf, degree):
    """Polynomials of exactly this degree over hf."""
    nonzero = element_of(hf).filter(lambda x: not hf.is_zero(x))
    return st.tuples(st.lists(element_of(hf), min_size=degree,
                              max_size=degree), nonzero).map(
        lambda t: Polynomial.of(hf, list(t[0]) + [t[1]]))


class TestInProduct:
    """in_product(p, q, r) is boxprod(q, r).contains(p), read cell by cell
    without the box."""

    CARRIERS = [by_name(n) for n in ("K", "S", "W", "T", "V", "P")] + [
        gf(5), weak_group(*cyclic_group_table(3), name="W(C3)")]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_box_product(self, data):
        hf = data.draw(st.sampled_from(self.CARRIERS))
        q, r = data.draw(polys_of(hf, 2)), data.draw(polys_of(hf, 2))
        box = boxprod(q, r)
        n = q.degree + r.degree
        # degrees below, at and above deg q + deg r, and members of the box
        # with one coefficient redrawn
        probes = [data.draw(polys_of_degree(hf, d))
                  for d in (n - 1, n, n + 1) if d >= 0]
        for p in box.sample_members(6, seed=data.draw(st.integers(0, 9))):
            probes.append(p)
            i = data.draw(st.integers(0, p.degree))
            coeffs = list(p.coeffs)
            coeffs[i] = data.draw(element_of(hf))
            if not (i == p.degree and hf.is_zero(coeffs[i])):
                probes.append(Polynomial.of(hf, coeffs))
        for p in probes:
            assert polyalg.in_product(p, q, r) == box.contains(p), (p, q, r)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_across_carriers_is_a_value_error(self, data):
        hf, other = data.draw(st.lists(st.sampled_from(self.CARRIERS),
                                       min_size=2, max_size=2, unique=True))
        polys = [data.draw(polys_of(hf, 2)) for _ in range(3)]
        spot = data.draw(st.integers(0, 2))
        polys[spot] = data.draw(polys_of(other, 2))
        with pytest.raises(ValueError, match="across hyperfields"):
            polyalg.in_product(*polys)
        if spot:
            with pytest.raises(ValueError, match="across hyperfields"):
                boxprod(polys[1], polys[2])


class TestEnumeration:
    CARRIERS = [by_name("K"), by_name("S"), by_name("W"), gf(3),
                weak_group(*cyclic_group_table(3))]

    @staticmethod
    def boxes(hf):
        one, zero = hf.one(), hf.zero()
        lin = Polynomial.of(hf, [one, one])
        quad = Polynomial.of(hf, [one, zero, one])
        full = hf.full_set()
        return [boxprod(lin, quad), boxsum(lin, scalar_prod(hf.neg(one), lin)),
                PolyBox(hf, (full, full, full)),
                PolyBox(hf, (hf.singleton(zero), full))]

    @pytest.mark.parametrize("hf", CARRIERS, ids=lambda hf: hf.name)
    def test_sorted_list_and_unsorted_set_agree(self, hf):
        for box in self.boxes(hf):
            members = box.enumerate_members()
            assert set(members) == box.member_set()
            assert len(members) == len(box.member_set())
            assert members == sorted(members, key=Polynomial.sort_key)
            assert all(box.contains(p) for p in members)

    @pytest.mark.parametrize("hf", CARRIERS, ids=lambda hf: hf.name)
    def test_members_are_trimmed_and_exclude_zero(self, hf):
        # every nonzero coefficient vector of length at most 3, trimmed
        full = hf.full_set()
        members = PolyBox(hf, (full, full, full)).member_set()
        n = len(hf.elements())
        assert len(members) == n ** 3 - 1
        assert all(not hf.is_zero(p.coeffs[-1]) for p in members)

    def test_coupled_resolved_members_are_sorted(self):
        K = by_name("K")
        value = resolve(parse_expr("(T^2+1)*((T+1)*(T+1))", K), K)
        assert isinstance(value, CoupledValue)
        members = resolved_members(value)
        assert members == sorted(members, key=Polynomial.sort_key)
        assert set(members) == value.members

    def test_coupled_members_over_an_infinite_carrier_are_undecided(self):
        T = by_name("T")
        value = resolve(parse_expr("(T^2+1)*((T+1)*(T+1))", T), T)
        assert isinstance(value, CoupledValue)
        with pytest.raises(UndecidedError, match="infinite carrier"):
            value.members
        with pytest.raises(UndecidedError, match="infinite carrier"):
            resolved_members(value)

    def test_infinite_box_is_not_enumerated(self):
        T = by_name("T")
        box = boxprod(parse_poly("T+1", T), parse_poly("T+1", T))
        assert not box.is_singleton()
        with pytest.raises(UndecidedError):
            box.member_set()
        with pytest.raises(UndecidedError):
            box.enumerate_members()

    def test_cell_of_another_carrier_is_refused(self):
        K, S = by_name("K"), by_name("S")
        with pytest.raises(ValueError):
            PolyBox(S, (K.full_set(), S.singleton(S.one()))).member_set()

    def test_lower_cell_of_another_carrier_is_refused_when_built(self):
        # before the check moved into construction, this box was built and
        # its sample_members raised AttributeError in P's own code
        P, S = by_name("P"), by_name("S")
        cell = P.hyperadd(P.one(), P.one())
        with pytest.raises(ValueError, match="cell of S in a box over P"):
            PolyBox(P, (S.singleton(S.zero()), cell, cell))

    def test_top_cell_of_another_carrier_is_refused(self):
        K, S = by_name("K"), by_name("S")
        for cells in ((K.full_set(),),
                      (S.singleton(S.zero()), K.full_set())):
            with pytest.raises(ValueError, match="cell of K in a box over S"):
                PolyBox(S, cells).member_set()


class TestCodeTable:
    CARRIERS = TestEnumeration.CARRIERS

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_coupled_members_are_the_union_of_outer_products(self, data):
        # reference: q (x) (a (x) b) is the union over every member r of
        # the box a (x) b of the box q (x) r, each enumerated cell by cell
        hf = data.draw(st.sampled_from(self.CARRIERS), label="hf")
        elems = hf.elements()
        nonzero = [e for e in elems if not hf.is_zero(e)]

        def poly(label):
            deg = data.draw(st.integers(1, 2), label=f"deg {label}")
            coeffs = [data.draw(st.sampled_from(elems)) for _ in range(deg)]
            coeffs.append(data.draw(st.sampled_from(nonzero)))
            return Polynomial.of(hf, coeffs)

        q, a, b = poly("q"), poly("a"), poly("b")
        expected = set()
        for r in boxprod(a, b).member_set():
            expected |= boxprod(q, r).member_set()
        value = resolve(ProdNode(PolyLeaf(q), ProdNode(PolyLeaf(a),
                                                       PolyLeaf(b))), hf)
        assert value.members == expected

    @staticmethod
    def reference_members_of_product(codes, q, r):
        """members_of_product as it was before the cell kernel."""
        zero, step, mul = codes.zero, codes.step_row, codes.mul
        cells = [1 << zero] * (len(q) + len(r) - 1)
        for a, c in enumerate(q):
            if c != zero:
                row, t = mul[c], a
                for d in r:
                    if d != zero:
                        cells[t] = step(cells[t])[row[d]]
                    t += 1
        return itertools.product(*[codes.members[s] for s in cells])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_cell_kernel_expands_to_the_member_union(self, data):
        hf = data.draw(st.sampled_from(self.CARRIERS), label="hf")
        codes = hf.codes
        n = len(codes.elements)
        nonzero = [c for c in range(n) if c != codes.zero]

        def code_tuple(deg):
            return tuple(data.draw(st.lists(st.integers(0, n - 1),
                                            min_size=deg, max_size=deg))
                         + [data.draw(st.sampled_from(nonzero))])

        q = code_tuple(data.draw(st.integers(0, 2), label="deg q"))
        deg = data.draw(st.integers(0, 2), label="deg r")
        count = data.draw(st.integers(1, 6), label="inner members")
        inner = list(dict.fromkeys(code_tuple(deg) for _ in range(count)))
        reference = self.reference_members_of_product
        expected = set()
        for r in inner:
            expected.update(reference(codes, q, r))
            assert (list(codes.members_of_product(q, r))
                    == list(reference(codes, q, r)))
            # a cell is a mask, the same as the Element-built box's cell
            box = reference_boxprod(*(Polynomial(hf, codes.decode(t))
                                      for t in (q, r)))
            assert codes.product_cells(codes.row_terms(q), [codes.terms(r)],
                                       len(q) + deg) == {
                tuple(cell.mask for cell in box.cells)}
        cells = codes.product_cells(codes.row_terms(q),
                                    [codes.terms(r) for r in inner],
                                    len(q) + deg)
        assert codes.expand(cells) == expected

    @pytest.mark.parametrize("hf", CARRIERS, ids=lambda hf: hf.name)
    def test_codes_round_trip_and_sort_like_polynomials(self, hf):
        codes = hf.codes
        full = hf.full_set()
        polys = list(PolyBox(hf, (full, full, full)).member_set())
        encoded = [codes.encode(p.coeffs) for p in polys]
        assert [Polynomial(hf, codes.decode(t)) for t in encoded] == polys
        by_codes = sorted(encoded, key=codes.sort_key)
        assert [Polynomial(hf, codes.decode(t)) for t in by_codes] == \
            sorted(polys, key=Polynomial.sort_key)

    def test_codes_sort_like_polynomials_over_unsorted_symbols(
            self, unsorted_symbols):
        # table, natural and display order all differ
        hf = unsorted_symbols
        pays = [x.payload for x in hf.elements()]
        display = sorted(pays, key=lambda p: (len(p), p))
        assert len({tuple(pays), tuple(sorted(pays)), tuple(display)}) == 3
        self.test_codes_round_trip_and_sort_like_polynomials(hf)

    @pytest.mark.parametrize("hf", CARRIERS, ids=lambda hf: hf.name)
    def test_a_code_is_the_place_in_the_payload_list(self, hf):
        elems = hf.elements()
        places = tuple(range(len(elems)))
        assert hf.codes.encode(elems) == places
        assert tuple(hf.sort_key(x) for x in elems) == places


def reference_pairwise(product, left, right):
    """A set-level product or sum of two values on Elements: every member
    pair's box, enumerated."""
    combine = boxprod if product else boxsum
    out = set()
    for p in left.members:
        for q in right.members:
            out.update(combine(p, q).member_set())
    return FiniteValue(frozenset(out))


class TestPairwise:
    CARRIERS = TestEnumeration.CARRIERS

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_members_match_the_element_level_form(self, data):
        hf = data.draw(st.sampled_from(self.CARRIERS), label="hf")
        nonzero = element_of(hf).filter(lambda x: not hf.is_zero(x))

        def leaf():
            # a nonzero constant keeps an outer factor from being a monomial
            return PolyLeaf(Polynomial.of(hf, [data.draw(nonzero),
                                               data.draw(nonzero)]))

        def coupled():
            # an outer factor over a product box: a coupled value
            return ProdNode(leaf(), ProdNode(leaf(), leaf()))

        def side():
            return data.draw(st.sampled_from(
                [leaf, lambda: ProdNode(leaf(), leaf()), coupled]))()

        node = data.draw(st.sampled_from([ProdNode, SumNode]), label="node")
        if node is ProdNode:
            # both factors undetermined sets: at most degree 3 + 2
            pair = [coupled(), ProdNode(leaf(), leaf())]
        else:
            pair = [coupled(), side()]
        if data.draw(st.booleans(), label="swap"):
            pair.reverse()
        expr = node(*pair)
        expected = reference_pairwise(node is ProdNode,
                                      *(resolve(e, hf) for e in pair))
        real, calls = polyalg._pairwise, []

        def spy(*args):
            calls.append(args)
            return real(*args)

        with mock.patch.object(polyalg, "_pairwise", spy):
            assert resolve(expr, hf).members == expected.members
        if node is SumNode:
            assert calls == []  # a sum unites boxsum members instead

    def test_a_polynomial_times_an_enumerated_value(self):
        # FiniteValue.times declines, so (T+1) pairs with every member
        K = by_name("K")
        expr = parse_expr(
            "(T+1)*(((T+1)*((T+1)*(T+1)))+((T)*((T+1)*(T+1))))", K)
        real, calls = polyalg._pairwise, []

        def spy(*args):
            calls.append(args)
            return real(*args)

        with mock.patch.object(polyalg, "_pairwise", spy):
            value = resolve(expr, K)
        # the inner sum unites boxsum members; only the product pairs codes
        assert len(calls) == 1
        assert isinstance(value, FiniteValue) and len(value.members) == 15
        assert parse_poly("T^4+1", K) in value.members

        def times(p, members):
            return {m for r in members for m in boxprod(p, r).member_set()}

        lin, mono = parse_poly("T+1", K), parse_poly("T", K)
        squares = boxprod(lin, lin).member_set()
        inner = {m for x in times(lin, squares) for y in times(mono, squares)
                 for m in boxsum(x, y).member_set()}
        assert value.members == times(lin, inner)


# ---------------------------------------------------------------------------
# resolution shapes


class TestResolve:
    def test_singleton_product_is_a_box(self):
        K = by_name("K")
        value = resolve(parse_expr("(T+1)*(T^2+1)", K), K)
        assert isinstance(value, PolyBox)

    def test_deeper_product_is_coupled(self):
        K = by_name("K")
        value = resolve(parse_expr("(T+1)*((T+1)*(T+1))", K), K)
        assert isinstance(value, CoupledValue)
        assert value.outer == parse_poly("T+1", K)

    def test_monomial_outer_stays_a_box(self):
        S = by_name("S")
        value = resolve(parse_expr("(T)*((T+1)*(T+1))", S), S)
        assert isinstance(value, PolyBox)
        assert value.cell(0) == S.singleton(S.zero())
        assert resolved_members(value) == [parse_poly("T^3+T^2+T", S)]

    def test_scalar_outer_rescales(self):
        S = by_name("S")
        value = resolve(parse_expr("(-1)*((T+1)*(T+1))", S), S)
        assert isinstance(value, PolyBox)
        assert resolved_members(value) == [parse_poly("-T^2-T-1", S)]

    @pytest.mark.parametrize("name,text", [
        ("K", "{T^4+1, T^4+T+1, T^4+T^2+1, T^4+T^2+T+1, T^4+T^3+1, "
              "T^4+T^3+T+1, T^4+T^3+T^2+1, T^4+T^3+T^2+T+1}"),
        ("W", "{T^4-T^3-T^2-T+1, T^4-T^3-T^2+1, T^4-T^3-T^2+T+1, "
              "T^4-T^3-T+1, T^4-T^3+1, T^4-T^3+T+1, T^4-T^3+T^2-T+1, "
              "T^4-T^3+T^2+1, T^4-T^3+T^2+T+1, T^4-T^2-T+1, T^4-T^2+1, "
              "T^4-T^2+T+1, T^4-T+1, T^4+1, T^4+T+1, T^4+T^2-T+1, "
              "T^4+T^2+1, T^4+T^2+T+1, T^4+T^3-T^2-T+1, T^4+T^3-T^2+1, "
              "T^4+T^3-T^2+T+1, T^4+T^3-T+1, T^4+T^3+1, T^4+T^3+T+1, "
              "T^4+T^3+T^2-T+1, T^4+T^3+T^2+1, T^4+T^3+T^2+T+1}"),
    ])
    def test_an_enumerated_value_prints_in_polynomial_order(self, name,
                                                            text):
        hf = by_name(name)
        value = resolve(parse_expr("((T+1)*(T+1))*((T+1)*(T+1))", hf), hf)
        assert isinstance(value, FiniteValue)
        assert str(value) == text

    def test_sum_of_coupled_values_needs_enumeration(self):
        W = by_name("W")
        e = parse_expr("((T+1)*((T+1)*(T+1)))+(1)", W)
        assert isinstance(resolve(e, W), FiniteValue)
        T = by_name("T")
        with pytest.raises(UndecidedError):
            resolve(parse_expr("((T^2+1)*((T+1)*(T+1)))+(1)", T), T)

    def test_an_enumerated_member_without_a_witness_is_loud(self):
        # membership reads the code table, the witness walks the inner
        # members: a "yes" the walk cannot witness is a fault
        K = by_name("K")
        expr = parse_expr("(T^2+1)*((T^2+T+1)*(T+1))", K)
        value = resolve(expr, K)
        p = parse_poly("T^5+T^4+T+1", K)
        assert isinstance(value, CoupledValue)
        assert value.decide(p).verdict == "yes"
        with mock.patch.object(polyalg, "in_product", lambda p, q, r: False):
            with pytest.raises(AssertionError, match="no inner choice"):
                value.decide(p)

    @pytest.mark.parametrize("name,text,p", [
        ("K", "(T^2+1)*((T^2+T+1)*(T+1))", "T^5+T^4+T+1"),
        ("W", "(T+1)*(T+1)", "T^2+T+1"),
        ("V", "(T+1)*((T+1)*(T+2))", "T^3+2T+2"),
        ("W", "((T+1)*((T+1)*(T+1)))+(1)", "T^3+T")])
    def test_a_value_decides_each_polynomial_once(self, name, text, p):
        # a value keeps no decisions, so each resolution decides p afresh;
        # two resolutions of the same text decide it alike
        hf = by_name(name)
        p = parse_poly(p, hf)
        first, other = (resolve(parse_expr(text, hf), hf).decide(p)
                        for _ in range(2))
        assert other[:2] == first[:2] and other.witness == first.witness
        assert [s.text for s in other.steps] == [s.text for s in first.steps]

    def test_degree_cap_applies_to_products(self):
        S = by_name("S")
        with pytest.raises(ValueError):
            resolve(parse_expr("(T^3+1)*(T^4+1)", S), S)


# ---------------------------------------------------------------------------
# membership certificates


class TestExprMember:
    def test_chain_yes_with_witness(self):
        K = by_name("K")
        e = parse_expr("(T+1)*((T+1)*(T+1))", K)
        cert = expr_member(parse_poly("T^3+T^2+T+1", K), e)
        assert cert.verdict == "yes" and cert.method == "chain"
        assert cert.witness == "T^2+1"
        assert replay_member(cert)

    def test_root_obstruction_no(self):
        W = by_name("W")
        e = parse_expr("(T+1)*((T+1)*(T+1))", W)
        cert = expr_member(parse_poly("T^3-T^2", W), e)
        assert cert.verdict == "no" and cert.method == "root-obstruction"
        texts = [s.text for s in cert.steps]
        assert any("does not contain 0" in t for t in texts)
        assert any("{-1,1}" in t for t in texts)
        # the chain derivation still follows the obstruction steps
        assert any("pins d0" in t for t in texts)
        assert replay_member(cert)

    def test_single_unknown_paths(self):
        W = by_name("W")
        e = parse_expr("(T^2+1)*((T+1)*(T+1))", W)
        yes = expr_member(parse_poly("T^4+T^3-T^2+T+1", W), e)
        assert yes.verdict == "yes" and yes.method == "single-unknown"
        assert yes.witness == "T^2+T+1"
        no = expr_member(parse_poly("T^4+1", W), e)
        assert no.verdict == "no" and no.method == "single-unknown"
        assert replay_member(yes) and replay_member(no)

    def test_degree_mismatch_is_refused_early(self):
        K = by_name("K")
        e = parse_expr("(T+1)*((T+1)*(T+1))", K)
        cert = expr_member(parse_poly("T^4", K), e)
        assert cert.verdict == "no" and cert.method == "degree"

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_verdict_matches_enumeration(self, data):
        hf = by_name(data.draw(st.sampled_from(["K", "S", "W", "GF(3)"])))
        texts = data.draw(st.sampled_from([
            "(T+1)*((T+1)*(T+1))",
            "(T-1)*((T+1)*(T-1))",
            "(T^2+1)*((T+1)*(T+1))",
            "((T+1)*(T+1))*(T+1)",
            "(T+1)+((T+1)*(T+1))",
        ]))
        e = parse_expr(texts, hf)
        members = set(resolved_members(resolve(e, hf)))
        if members and data.draw(st.booleans()):
            p = data.draw(st.sampled_from(sorted(members, key=Polynomial.sort_key)))
        else:
            deg = data.draw(st.integers(0, 4))
            elems = hf.elements()
            nonzero = [x for x in elems if not hf.is_zero(x)]
            coeffs = [data.draw(st.sampled_from(elems)) for _ in range(deg)]
            coeffs.append(data.draw(st.sampled_from(nonzero)))
            p = Polynomial.of(hf, coeffs)
        cert = expr_member(p, e)
        assert cert.verdict == ("yes" if p in members else "no")
        assert replay_member(cert)

    def test_certificate_json_round_trip(self):
        K = by_name("K")
        e = parse_expr("(T+1)*((T+1)*(T+1))", K)
        cert = expr_member(parse_poly("T^3+T^2+T+1", K), e)
        again = MemberCertificate.from_dict(
            json.loads(json.dumps(cert.to_dict())))
        assert again == cert
        assert replay_member(again)


class TestReplayRejectsTampering:
    K = by_name("K")
    EXPR = "(T+1)*((T+1)*(T+1))"

    def cert(self, poly):
        return expr_member(parse_poly(poly, self.K),
                           parse_expr(self.EXPR, self.K))

    @pytest.mark.parametrize("poly", ["T^3+T^2+T+1", "T^3-T^2", "T^4"])
    def test_a_flipped_verdict_fails(self, poly):
        cert = self.cert(poly)
        other = {"yes": "no", "no": "yes"}[cert.verdict]
        assert replay_member(cert)
        assert not replay_member(dataclasses.replace(cert, verdict=other))

    def test_a_coupled_witness_outside_the_inner_box_fails(self):
        # the inner set (T+1)*(T+1) is [1; {0,1}; 1], so T^2 is not in it
        cert = self.cert("T^3+T^2+T+1")
        assert cert.witness == "T^2+1" and replay_member(cert)
        assert not replay_member(dataclasses.replace(cert, witness="T^2"))

    def test_a_coupled_witness_whose_product_misses_p_fails(self):
        # (T+1)*(T^2+1) is {T^3+T^2+T+1} over K, which misses T^3+T+1
        cert = self.cert("T^3+T+1")
        assert cert.witness == "T^2+T+1" and replay_member(cert)
        assert not replay_member(dataclasses.replace(cert, witness="T^2+1"))

    def test_an_out_of_scope_expression_replays_only_as_undecided(self):
        V = by_name("V")
        cert = expr_member(parse_poly("T^6+1", V), parse_expr(
            "((T+1)*((T+1)*(T+1)))*((T+1)*((T+2)*(T+1)))", V))
        assert (cert.verdict, cert.method) == ("undecided", "unsupported")
        assert replay_member(cert)
        for verdict in ("yes", "no"):
            assert not replay_member(
                dataclasses.replace(cert, verdict=verdict))


@st.composite
def polys_over(draw, hf, max_deg):
    elems = hf.elements()
    coeffs = [draw(st.sampled_from(elems))
              for _ in range(draw(st.integers(0, max_deg)))]
    coeffs.append(draw(st.sampled_from([e for e in elems if not hf.is_zero(e)])))
    return Polynomial.of(hf, coeffs)


class TestNoOpenInnerCell:
    """q (x) (a (+) b) and q (x) (a (x) b): when p's degree leaves every
    inner cell pinned, the single-unknown solver checks the pinned product
    instead of answering NO."""

    CARRIERS = [by_name("K"), by_name("S"), by_name("W"), gf(3),
                weak_group(*cyclic_group_table(3))]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_verdict_matches_enumeration(self, data):
        hf = data.draw(st.sampled_from(self.CARRIERS), label="carrier")
        q, a, b = (data.draw(polys_over(hf, 2)) for _ in range(3))
        inner = data.draw(st.sampled_from([SumNode, ProdNode]))
        e = ProdNode(PolyLeaf(q), inner(PolyLeaf(a), PolyLeaf(b)))
        value = resolve(e, hf)
        members = value.members
        outside = data.draw(polys_over(hf, 6))
        for p in sorted(members, key=Polynomial.sort_key):
            assert value.decide(p).verdict == "yes", p
        assert expr_member(outside, e).verdict == (
            "yes" if outside in members else "no"), outside

    @pytest.mark.parametrize("name,text,witness", [
        ("T", "(0T^2+0T+0)*((0T+0)+(0T))", "0"),
        ("V", "(T^2+T+1)*((T+1)+(T))", "1"),
        ("K", "(T^2+T+1)*((T+1)+(T))", "1"),
    ])
    def test_outer_factor_is_a_member(self, name, text, witness):
        hf = by_name(name)
        e = parse_expr(text, hf)
        cert = expr_member(e.left.poly, e)
        assert (cert.verdict, cert.method) == ("yes", "single-unknown")
        assert cert.witness == witness
        assert replay_member(cert)


CHAIN_RAWS = {"T": ["-inf", -1, 0, Fraction(1, 2), 1, 2],
              "V": [0, Fraction(1, 2), 1, 2, 3],
              "P": [None, Fraction(0), Fraction(1, 3), Fraction(1, 2),
                    Fraction(1), Fraction(3, 2)]}


def branching_walk(p, ell, domains):
    """Reference for chain_representatives: walk the chain down from the
    top, branching on the last 3 sampled values of each feasible set in
    reverse order, keep at most 27 partial choices per level, and drop
    duplicates."""
    hf = p.hf
    l0, l1 = ell.coeff(0), ell.coeff(1)

    def level_values(s):
        return list(reversed(hf.sample_elements(s)))[:3]

    partials = [[v] for v in level_values(domains[-1])]
    for i in range(len(domains) - 1, 0, -1):
        nxt = []
        for tail in partials:
            # c_i in l0*tail[0] (+) l1*x  <=>  x in inv(l1)*(c_i (+) -l0*tail[0])
            sols = hf.scale_set(hf.inv(l1), hf.set_hyperadd(
                hf.singleton(p.coeff(i)),
                hf.neg_set(hf.singleton(hf.mul(l0, tail[0])))))
            for v in level_values(domains[i - 1].intersect(sols)):
                nxt.append([v] + tail)
        partials = nxt[:27]
    out = []
    for picks in partials:
        q = Polynomial.of(hf, picks)
        if q not in out:
            out.append(q)
    return out


class TestLinearChain:
    def test_agrees_with_brute_force(self):
        W = by_name("W")
        ell = parse_poly("T+1", W)
        cells = [W.full_set(), W.full_set()]
        elems = W.elements()
        nonzero = [x for x in elems if not W.is_zero(x)]
        for c0 in elems:
            for c1 in elems:
                for c2 in nonzero:
                    p = Polynomial.of(W, [c0, c1, c2])
                    domains, _ = solve_linear_chain(p, ell, list(cells))
                    witnesses = [
                        Polynomial.of(W, [d0, d1])
                        for d0 in elems for d1 in nonzero
                        if boxprod(ell, Polynomial.of(W, [d0, d1])).contains(p)
                    ]
                    if domains is None:
                        assert not witnesses, str(p)
                    else:
                        assert witnesses, str(p)
                        w = chain_witness(p, ell, domains)
                        assert boxprod(ell, w).contains(p), str(p)

    def test_trace_records_pins_and_failures(self):
        V = by_name("V")
        ell = parse_poly("T+1", V)
        inner = boxprod(parse_poly("T+2", V), parse_poly("T+3", V))
        p = parse_poly("T^3+6T^2+11T+6", V)
        domains, steps = solve_linear_chain(p, ell, list(inner.cells))
        assert domains is not None
        assert any("pins d0" in s.text for s in steps)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_representatives_match_the_branching_walk(self, data):
        name = data.draw(st.sampled_from(sorted(CHAIN_RAWS)))
        hf = by_name(name)
        raws = st.sampled_from(CHAIN_RAWS[name])
        coeffs = [hf.element(data.draw(raws))
                  for _ in range(data.draw(st.integers(2, 4)))]
        coeffs.append(hf.element(data.draw(raws.filter(
            lambda r: not hf.is_zero(hf.element(r))))))
        p = Polynomial.of(hf, coeffs)
        a = hf.element(data.draw(raws))
        ell = linear_for_root(hf, a)
        cells = [hf.full_set() for _ in range(p.degree)]
        cells[-1] = hf.remove_zero(cells[-1])
        domains, _ = solve_linear_chain(p, ell, cells)
        if domains is not None:
            assert chain_representatives(p, ell, domains) == \
                branching_walk(p, ell, domains)


# ---------------------------------------------------------------------------
# set equality


class TestExprEqual:
    def test_box_equality_is_cellwise(self):
        hf = gf(5)
        cert = expr_equal(parse_expr("(T+1)*(T+2)", hf),
                          parse_expr("(T+2)*(T+1)", hf), hf)
        assert cert.verdict == "equal"

    def test_unequal_boxes_carry_replayable_witness(self):
        K = by_name("K")
        cert = expr_equal(parse_expr("(T+1)*(T+1)", K),
                          parse_expr("(T^2+1)", K), K)
        assert cert.verdict == "unequal"
        assert cert.witness == "T^2+T+1" and cert.witness_side == 1
        assert cert.member_in.verdict == "yes"
        assert cert.member_out.verdict == "no"
        assert replay_member(cert.member_in) and replay_member(cert.member_out)

    def test_witness_side_tracks_the_larger_side(self):
        K = by_name("K")
        cert = expr_equal(parse_expr("(T^2+1)", K),
                          parse_expr("(T+1)*(T+1)", K), K)
        assert cert.verdict == "unequal" and cert.witness_side == 2

    def test_coupled_self_comparison_is_undecided(self):
        T = by_name("T")
        e = "(T^2+1)*((T+1)*(T+1))"
        cert = expr_equal(parse_expr(e, T), parse_expr(e, T), T)
        assert cert.verdict == "undecided"

    def test_coupled_vs_box_separator_over_tropical(self):
        T = by_name("T")
        cert = expr_equal(parse_expr("(T^2+1)*((T+1)*(T+1))", T),
                          parse_expr("(0)*((T+1)*(T+1))", T), T)
        assert cert.verdict == "unequal"
        assert cert.witness is not None

    def test_json_round_trip(self):
        K = by_name("K")
        cert = expr_equal(parse_expr("(T+1)*(T+1)", K),
                          parse_expr("(T^2+1)", K), K)
        again = EqualCertificate.from_dict(
            json.loads(json.dumps(cert.to_dict())))
        assert again == cert


# ---------------------------------------------------------------------------
# the separator search over T, V and P


@st.composite
def factors(draw, hf):
    """A polynomial of degree 1 or 2 over hf with a nonzero constant term:
    a product with one of them is a box only when the other is a
    singleton box."""
    nonzero = st.sampled_from([x for x in map(hf.element, BOX_RAWS[hf.name])
                               if not hf.is_zero(x)])
    middle = [draw(element_of(hf)) for _ in range(draw(st.integers(0, 1)))]
    return Polynomial.of(hf, [draw(nonzero), *middle, draw(nonzero)])


@st.composite
def continuous_values(draw, hf):
    """A resolved value over T, V or P: a box (the product or the sum of two
    polynomials) or a third polynomial times a product, coupled unless the
    product is a singleton box."""
    q, r, s = (draw(factors(hf)) for _ in range(3))
    shape = draw(st.sampled_from(["product", "sum", "coupled"]))
    if shape == "sum":
        return box_hyperadd(box_of(r), box_of(s))
    box = boxprod(r, s)
    return box.times(q) if shape == "coupled" else box


@st.composite
def coupled_pairs(draw):
    """Two values over one of T, V and P, the first coupled (a polynomial
    times a product or a sum): the other bracketings of its triple, or any
    value."""
    hf = draw(st.sampled_from([by_name(n) for n in ("T", "V", "P")]))
    q, r, s = (draw(factors(hf)) for _ in range(3))
    inner = draw(st.sampled_from([boxprod(r, s),
                                  box_hyperadd(box_of(r), box_of(s))]))
    coupled = inner.times(q)
    assume(isinstance(coupled, CoupledValue))
    other = draw(st.one_of(st.just(boxprod(q, r).times(s)),
                           st.just(boxprod(q, s).times(r)),
                           continuous_values(hf)))
    return hf, coupled, other


def both_sides_equal_values(t1, t2, v1, v2, hf):
    """The separator search that decides both sides of every candidate,
    kept as the oracle for equal_values's one-sided search."""
    seen = set()
    candidates = (w for w in itertools.chain(
        v1.separator_candidates(polyalg.SEPARATOR_SEED),
        v2.separator_candidates(polyalg.SEPARATOR_SEED))
        if not (w in seen or seen.add(w)))
    for tried, w in enumerate(candidates, 1):
        d1, d2 = v1.decide(w), v2.decide(w)
        if {d1.verdict, d2.verdict} == {"yes", "no"}:
            return polyalg._unequal(
                t1, t2, d1, d2, w, 1 if d1.verdict == "yes" else 2,
                CertStep("search", None, f"separating polynomial found "
                                         f"among {tried} sampled candidates"))
    return EqualCertificate(
        "undecided", hf.name, t1, t2,
        detail=(CertStep("scope", None, "no separator found and coupled "
                                        "sets cannot be certified equal"),))


class TestOneSidedSearch:
    """A separator candidate is a member of the side that drew it, so
    equal_values decides that side only after the other side's no."""

    @given(st.sampled_from([by_name(n) for n in ("T", "V", "P")]).flatmap(
        continuous_values))
    @settings(max_examples=200, deadline=None)
    def test_a_candidate_is_never_refused_by_its_own_side(self, value):
        for w in value.separator_candidates(polyalg.SEPARATOR_SEED):
            assert value.decide(w).verdict in ("yes", "undecided"), w

    @given(coupled_pairs())
    @settings(max_examples=150, deadline=None)
    def test_certificate_equals_the_both_sides_search(self, pair):
        hf, v1, v2 = pair
        got = polyalg.equal_values("A", "B", v1, v2, hf)
        want = both_sides_equal_values("A", "B", v1, v2, hf)
        assert got.to_dict() == want.to_dict()
