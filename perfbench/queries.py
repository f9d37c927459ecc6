"""Run one query through hyperpoly's public functions and check the answer.

``execute`` parses the query text the way the command line does, calls the
library and renders the result as sorted JSON, the ``--format structured``
form.  ``check`` compares a rendered answer with the independent oracles
and says which oracle covered it.
"""
from __future__ import annotations

import json
from dataclasses import asdict
from fractions import Fraction

import hyperpoly as hp
from hyperpoly.carriers import ElementSet
from hyperpoly.sets import POS_INF, Interval, IntervalUnion

import oracles as orc
from oracles import NEG_INF


def render(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _region(hf, text: str) -> ElementSet:
    lo_s, hi_s = (part.strip() for part in text[1:-1].split(",", 1))
    lo = hf.parse_scalar(lo_s).payload
    if hi_s == "inf":
        hi, hi_closed = POS_INF, False
    else:
        hi, hi_closed = hf.parse_scalar(hi_s).payload, text[-1] == "]"
    return ElementSet(hf.name, "intervals", intervals=IntervalUnion(
        (Interval(lo, hi, text[0] == "[", hi_closed),)))


def _assoc_payload(rep) -> dict:
    return {"hyperfield": rep.hyperfield, "triple": list(rep.triple),
            "associative": rep.associative,
            "comparisons": [c.to_dict() for c in rep.comparisons]}


def execute(q) -> dict:
    """The structured payload of one query; raises what the library raises."""
    hf = hp.by_name(q.carrier)
    a = q.args
    poly = (lambda key: hp.parse_poly(a[key], hf))
    c = q.qclass
    if c == "member":
        return hp.expr_member(poly("poly"), hp.parse_expr(a["expr"], hf)).to_dict()
    if c == "equal":
        return hp.expr_equal(hp.parse_expr(a["expr1"], hf),
                             hp.parse_expr(a["expr2"], hf), hf).to_dict()
    if c == "assoc_check":
        return _assoc_payload(hp.assoc_check(poly("p"), poly("q"), poly("r")))
    if c == "quotients":
        qs = hp.quotients(poly("poly"), hf.parse_scalar(a["root"]))
        return {"hyperfield": hf.name, "poly": str(qs.poly), "root": a["root"],
                "domains": None if qs.is_empty()
                else [str(d) for d in qs.domains],
                "representatives": [str(r) for r in qs.representatives],
                "exact": qs.exact, "empty": qs.is_empty()}
    if c == "mult_at":
        m = hp.mult_at(poly("poly"), hf.parse_scalar(a["root"]))
        return {"hyperfield": hf.name, "poly": a["poly"], "root": a["root"],
                "mult": m}
    if c == "mult_set":
        m = hp.mult_set(poly("poly"), _region(hf, a["region"]))
        return {"hyperfield": hf.name, "poly": a["poly"],
                "region": a["region"], "mult": m}
    if c == "check_axioms":
        if a["mode"] == "exhaustive":
            probe = hp.ProbeSpec.exhaustive()
        else:
            probe = hp.ProbeSpec.probe(
                [hf.parse_scalar(t) for t in a["points"][1:-1].split(",")])
        rep = hp.check_axioms(hf, probe)
        return {"hyperfield": rep.hyperfield, "mode": rep.mode,
                "points": rep.points, "ok": rep.ok,
                "checks": [{"name": k.name, "passed": k.passed,
                            "counterexample": k.counterexample}
                           for k in rep.checks]}
    if c == "root_multiset":
        rm = hp.root_multiset(poly("poly"))
        return {"poly": a["poly"],
                "roots": [hf.format_element(r) for r in rm.roots]}
    if c == "box_equivalence":
        roots = [hf.parse_scalar(t) for t in a["roots"].split(",")]
        cert = hp.box_equivalence(roots)
        return {"roots": list(cert.roots), "equal": cert.equal,
                "steps": list(cert.steps),
                "samples_checked": cert.samples_checked,
                "failure": cert.failure}
    if c == "is_reducible":
        return asdict(hp.is_reducible(poly("poly"), search_bound=4))
    if c == "assoc_scan":
        rep = hp.assoc_scan(hf, int(a["max_deg"]),
                            monic_only=a["monic_only"] == "True",
                            stop_after=None)
        return {"hyperfield": hf.name, "max_deg": rep.max_deg,
                "monic_only": rep.monic_only, "polynomials": rep.polynomials,
                "triples_checked": rep.triples_checked,
                "counterexamples": [_assoc_payload(r)
                                    for r in rep.counterexamples]}
    raise ValueError(f"unknown query class {c}")


_DECIDED = {"member": ("yes", "no"), "equal": ("equal", "unequal")}


def decided(q, payload: dict) -> bool:
    """An answer that is not 'undecided' (nor an error)."""
    if "error" in payload or "undecided" in payload:
        return False
    if q.qclass in _DECIDED:
        return payload["verdict"] in _DECIDED[q.qclass]
    if q.qclass == "assoc_check":
        return payload["associative"] is not None
    if q.qclass == "is_reducible":
        return payload["reducible"] is not None
    return True


# ---------------------------------------------------------------------------
# oracle checks: (oracle name or None when uncovered, agreed, message)


def _parse_rat(text: str):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    if text in ("-inf", "~inf"):
        return NEG_INF
    return Fraction(text)


def parse_continuous(carrier: str, text: str) -> tuple:
    """Coefficient tuple of a T or V polynomial as hyperpoly prints it."""
    terms, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += ch == "("
        depth -= ch == ")"
        if ch == "+" and depth == 0 and i > start:
            terms.append(text[start:i])
            start = i + 1
    terms.append(text[start:])
    coeffs: dict = {}
    for term in terms:
        head, var, tail = term.partition("T")
        exp = (1 if not tail else int(tail[1:])) if var else 0
        coeffs[exp] = _parse_rat(head) if head else (
            Fraction(0) if carrier == "T" else Fraction(1))
    zero = NEG_INF if carrier == "T" else Fraction(0)
    return tuple(coeffs.get(i, zero) for i in range(max(coeffs) + 1))


def parse_finite(model: orc.FiniteModel, text: str) -> tuple:
    """Coefficient tuple of a finite-carrier polynomial as printed."""
    terms, start = [], 0
    for i, ch in enumerate(text):
        if ch in "+-" and i > start:
            terms.append(text[start:i])
            start = i
    terms.append(text[start:])
    coeffs: dict = {}
    gf = model.name.startswith("GF(")
    for term in terms:
        sign = term.startswith("-")
        term = term.lstrip("+-")
        head, var, tail = term.partition("T")
        exp = (1 if not tail else int(tail[1:])) if var else 0
        if not head:
            value = model.one
        elif head.lstrip("-").isdigit():
            value = int(head) % int(model.name[3:-1]) if gf else int(head)
        else:
            value = head
        coeffs[exp] = model.neg(value) if sign else value
    return tuple(coeffs.get(i, model.zero) for i in range(max(coeffs) + 1))


class Checker:
    """Oracle verdicts for one workload; ``models`` maps carrier text to
    the oracle model of each finite carrier."""

    def __init__(self, models: dict):
        self.models = models

    def model(self, carrier: str) -> orc.FiniteModel:
        if carrier not in self.models:
            self.models[carrier] = orc.plain_model(carrier)
        return self.models[carrier]

    def check(self, q, payload: dict) -> tuple:
        if "error" in payload or "undecided" in payload:
            return None, True, ""
        method = getattr(self, "_" + q.qclass)
        return method(q, payload)

    @staticmethod
    def _finite_oracle(carrier: str) -> str:
        return "classical-gf" if carrier.startswith("GF(") else "brute-force"

    @staticmethod
    def _agree(name: str, ok: bool, what: str) -> tuple:
        return name, ok, "" if ok else what

    def _member(self, q, pl: dict) -> tuple:
        verdict, ref, carrier = pl["verdict"], q.ref, q.carrier
        if verdict == "undecided":
            return None, True, ""
        if carrier in ("T", "V", "P"):
            return self._member_continuous(q, pl)
        model = self.model(carrier)
        want = ref["target"] in orc.expr_set(model, ref["tree"])
        return self._agree(self._finite_oracle(carrier),
                           want == (verdict == "yes"),
                           f"oracle says member={want}")

    def _member_continuous(self, q, pl: dict) -> tuple:
        carrier, ref, verdict = q.carrier, q.ref, pl["verdict"]
        tree, target = ref["tree"], ref["target"]
        name = "closed-form-cells"
        if carrier != "P" and tree[2][0] != "*":
            cells = orc.closed_cells(carrier, tree[1], tree[2])
            want = orc.in_closed_box(carrier, target, cells)
            return self._agree(name, want == (verdict == "yes"),
                               f"box cells say member={want}")
        if verdict == "yes" and carrier != "P" and pl.get("witness"):
            r = parse_continuous(carrier, pl["witness"])
            inner = orc.closed_cells(carrier, tree[2][1], tree[2][2])
            outer = orc.closed_cells(carrier, tree[1], r)
            ok = (orc.in_closed_box(carrier, r, inner)
                  and orc.in_closed_box(carrier, target, outer))
            return self._agree(name, ok, "the yes witness fails the cells")
        if ref.get("inside"):
            return self._agree(name, verdict == "yes",
                               "target built inside the set was refused")
        return None, True, ""

    def _equal(self, q, pl: dict) -> tuple:
        verdict, (t1, t2), carrier = pl["verdict"], q.ref["trees"], q.carrier
        if verdict == "undecided":
            return None, True, ""
        if carrier in ("T", "V", "P"):
            if carrier == "P" or t1[2][0] == "*" or t2[2][0] == "*":
                return None, True, ""
            c1 = orc.closed_cells(carrier, t1[1], t1[2])
            c2 = orc.closed_cells(carrier, t2[1], t2[2])
            ok = (c1 == c2) == (verdict == "equal")
            if ok and verdict == "unequal":
                w = parse_continuous(carrier, pl["witness"])
                sides = [orc.in_closed_box(carrier, w, c) for c in (c1, c2)]
                ok = sides[pl["witness_side"] - 1] and not sides[2 - pl["witness_side"]]
            return self._agree("closed-form-cells", ok,
                               f"box cells equal={c1 == c2}")
        model = self.model(carrier)
        s1, s2 = orc.expr_set(model, t1), orc.expr_set(model, t2)
        ok = (s1 == s2) == (verdict == "equal")
        if ok and verdict == "unequal":
            w = parse_finite(model, pl["witness"])
            inside = (s1, s2)[pl["witness_side"] - 1]
            outside = (s1, s2)[2 - pl["witness_side"]]
            ok = w in inside and w not in outside
        return self._agree(self._finite_oracle(carrier), ok,
                           f"oracle says equal={s1 == s2}")

    def _assoc_check(self, q, pl: dict) -> tuple:
        model = self.model(q.carrier)
        p, r, s = q.ref["polys"]
        forms = [orc.expr_set(model, ("*", x, ("*", y, z)))
                 for x, y, z in ((p, r, s), (r, p, s), (s, p, r))]
        want = forms[0] == forms[1] == forms[2]
        return self._agree(self._finite_oracle(q.carrier),
                           pl["associative"] == want,
                           f"oracle says associative={want}")

    def _quotients(self, q, pl: dict) -> tuple:
        model = self.model(q.carrier)
        p, a = q.ref["p"], q.ref["a"]
        if q.carrier.startswith("GF("):
            prime = int(q.carrier[3:-1])
            quo = orc.gf_divide(prime, p, a)
            want = frozenset() if quo is None else frozenset([quo])
        else:
            want = orc.quotient_set(model, p, a)
        got = frozenset(parse_finite(model, t) for t in pl["representatives"])
        ok = got == want and pl["empty"] == (not want) and pl["exact"]
        return self._agree(self._finite_oracle(q.carrier), ok,
                           f"oracle has {len(want)} quotients")

    def _mult_at(self, q, pl: dict) -> tuple:
        p, a, carrier = q.ref["p"], q.ref["a"], q.carrier
        if carrier == "S":
            name, want = "descartes", orc.descartes(p, a)
        elif carrier == "T":
            name, want = "newton-polygon", orc.newton_multiplicity(p, a)
        elif carrier.startswith("GF("):
            name = "classical-gf"
            want = orc.gf_multiplicity(int(carrier[3:-1]), p, a)
        elif carrier == "P":
            return None, True, ""
        else:
            name, want = "brute-force", orc.multiplicity(self.model(carrier), p, a)
        return self._agree(name, pl["mult"] == want, f"oracle says {want}")

    def _mult_set(self, q, pl: dict) -> tuple:
        p = q.ref["p"]
        if len(p) != 2:
            return None, True, ""
        root = p[0] / p[1]   # 0 in c0 (+) c1*a over V iff a = c0/c1
        lo_s, hi_s = q.ref["region"][1:-1].split(",")
        inside = Fraction(lo_s) <= root and (hi_s == "inf"
                                             or root <= Fraction(hi_s))
        return self._agree("closed-form-cells", pl["mult"] == int(inside),
                           f"root {root} inside={inside}")

    def _check_axioms(self, q, pl: dict) -> tuple:
        if q.carrier in ("T", "V", "P"):
            # T, V and P are hyperfields, so no probe may find a violation
            return self._agree("hyperfield-theory", pl["ok"],
                               "a probe reported a violation")
        want = orc.axioms_hold(self.model(q.carrier))
        return self._agree(self._finite_oracle(q.carrier), pl["ok"] == want,
                           f"oracle says axioms hold={want}")

    def _root_multiset(self, q, pl: dict) -> tuple:
        want = orc.newton_roots(q.ref["p"])
        got = [_parse_rat(t) for t in pl["roots"]]
        return self._agree("newton-polygon", got == want,
                           f"oracle roots {want}")

    def _box_equivalence(self, q, pl: dict) -> tuple:
        # products of tropical linear factors fill their subset-sum box
        return self._agree("tropical-box-theorem", pl["equal"] is True,
                           "box equivalence refused")

    def _is_reducible(self, q, pl: dict) -> tuple:
        p = q.ref["p"]
        if pl["reducible"]:
            f, g = (parse_continuous("T", t) for t in pl["factors"])
            cells = orc.closed_cells("T", f, g)
            ok = all(lo == hi for lo, hi in cells) and \
                tuple(lo for lo, _ in cells) == p
            return self._agree("closed-form-cells", ok,
                               f"the factors do not multiply to {p}")
        if q.ref["split"]:
            # (T + r1) (x) (T + r2) with r1 != r2 is the singleton {p}
            return self._agree("closed-form-cells", False,
                               "a product of distinct linear factors")
        return None, True, ""

    def _assoc_scan(self, q, pl: dict) -> tuple:
        model = self.model(q.carrier)
        deg, monic = int(q.args["max_deg"]), q.args["monic_only"] == "True"
        leads = 1 if monic else len(model.nonzero)
        n = sum(leads * len(model.elems) ** d for d in range(1, deg + 1))
        ok = (pl["polynomials"] == n
              and pl["triples_checked"] == n * (n + 1) * (n + 2) // 6)
        name = "closed-form-counts"
        if ok and q.carrier.startswith("GF("):
            name, ok = "classical-gf", not pl["counterexamples"]
        elif ok:
            name = "brute-force"
            ok = len(pl["counterexamples"]) == orc.scan_count(model, deg, monic)
        return self._agree(name, ok, "scan counts disagree with the oracle")
