"""Command-line front end.

Exit codes: 0 success / affirmative answer, 1 negative finding (non-member,
unequal, counterexample found, axiom violation, irreducible, failed repro),
2 parse or validation error, 3 undecided.

Scalar options read what a polynomial coefficient reads: rationals as p/q,
-inf for the tropical zero, ph(a) or e^{ia pi} for a phase of a*pi, any of
them in parentheses.  Option values starting with '-' (such as --at -1 or
--at -inf) are safest written as --at=-1 / --at=-inf.  Regions are either
finite lists {a,b,c} or intervals [lo,hi], (lo,hi], [lo,inf) over the
tropical and triangle carriers."""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, is_dataclass
from typing import Optional, Sequence

from .assoc import (assoc_check, assoc_scan, one_plus_one_criterion,
                    pointwise_products_equal)
from .carriers import (CarrierSet, Hyperfield, IntervalSet, ProbeSpec,
                       TropicalHyperfield, UndecidedError, ViroHyperfield,
                       by_name, check_axioms, default_probe,
                       is_doubly_distributive)
from .divide import mult_at, mult_set, quotients
from .polyalg import (boxprod, boxsum, expr_equal, expr_member, parse_expr,
                      parse_poly, parse_scalar_literal)
from .repro import format_table, run_all
from .sets import POS_INF, Interval, IntervalUnion
from .tropical import box_equivalence, is_reducible, linear_product_box, root_multiset


def _parse_region(hf: Hyperfield, text: str):
    text = text.strip()
    if text.startswith("{") and text.endswith("}"):
        items = [tok.strip() for tok in text[1:-1].split(",") if tok.strip()]
        if not items:
            raise ValueError("empty region")
        return [parse_scalar_literal(hf, tok) for tok in items]
    if text[:1] in "[(" and text[-1:] in ")]":
        if not isinstance(hf, (TropicalHyperfield, ViroHyperfield)):
            raise ValueError(
                f"interval regions are supported over T and V, not {hf.name}")
        bounds = [part.strip() for part in text[1:-1].split(",")]
        if len(bounds) != 2:
            raise ValueError("interval region needs two bounds lo,hi")
        lo_s, hi_s = bounds
        lo_closed, hi_closed = text[0] == "[", text[-1] == "]"
        lo = parse_scalar_literal(hf, lo_s).payload
        if hi_s in ("inf", "+inf", "oo", "+oo"):
            hi, hi_closed = POS_INF, False
        else:
            hi = parse_scalar_literal(hf, hi_s).payload
        if hi < lo or (lo == hi and not (lo_closed and hi_closed)):
            raise ValueError(f"empty interval {text!r}")
        return IntervalSet(hf.name, IntervalUnion(
            (Interval(lo, hi, lo_closed, hi_closed),)))
    raise ValueError(f"cannot parse region {text!r}")


def _point_list(hf: Hyperfield, text: str) -> list:
    points = _parse_region(hf, text)
    if isinstance(points, CarrierSet):
        raise ValueError("--points needs a finite point list {a,b,...}")
    return points


def _plain(value):
    """The JSON form of a report: a dataclass becomes the dict of its
    fields, a certificate its own to_dict, a tuple a list.  Leaves are
    shared, not copied as dataclasses.asdict copies them."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def _box_payload(box) -> dict:
    return {"cells": [str(c) for c in box.cells],
            "zero_excluded": box.zero_excluded,
            "display": str(box)}


_MEMBER_EXIT = {"yes": 0, "no": 1, "undecided": 3}
_EQUAL_EXIT = {"equal": 0, "unequal": 1, "undecided": 3}


def _cmd_eval(hf, args):
    p = parse_poly(args.poly, hf)
    value = p.eval(parse_scalar_literal(hf, args.at))
    return 0, {"command": "eval", "hyperfield": hf.name, "poly": str(p),
               "at": args.at, "value": str(value)}, str(value)


def _cmd_prod(hf, args):
    box = boxprod(parse_poly(args.p, hf), parse_poly(args.q, hf))
    payload = {"command": "prod", "hyperfield": hf.name, **_box_payload(box)}
    return 0, payload, str(box)


def _cmd_sum(hf, args):
    box = boxsum(parse_poly(args.p, hf), parse_poly(args.q, hf))
    payload = {"command": "sum", "hyperfield": hf.name, **_box_payload(box)}
    return 0, payload, str(box)


def _cmd_member(hf, args):
    cert = expr_member(parse_poly(args.poly, hf), parse_expr(args.expr, hf))
    return _MEMBER_EXIT[cert.verdict], cert.to_dict(), str(cert)


def _cmd_equal(hf, args):
    cert = expr_equal(parse_expr(args.expr1, hf), parse_expr(args.expr2, hf),
                      hf)
    return _EQUAL_EXIT[cert.verdict], cert.to_dict(), str(cert)


def _cmd_quotients(hf, args):
    qs = quotients(parse_poly(args.poly, hf), parse_scalar_literal(hf, args.root))
    payload = {"command": "quotients", "hyperfield": hf.name,
               "poly": str(qs.poly), "root": args.root,
               "domains": None if qs.is_empty()
               else [str(d) for d in qs.domains],
               "representatives": [str(r) for r in qs.representatives],
               "exact": qs.exact, "empty": qs.is_empty()}
    return 0, payload, qs.describe()


def _cmd_mult(hf, args):
    m = mult_at(parse_poly(args.poly, hf), parse_scalar_literal(hf, args.root))
    return 0, {"command": "mult", "hyperfield": hf.name, "poly": args.poly,
               "root": args.root, "mult": m}, str(m)


def _cmd_mult_set(hf, args):
    region = _parse_region(hf, args.region)
    m = mult_set(parse_poly(args.poly, hf), region)
    return 0, {"command": "mult-set", "hyperfield": hf.name,
               "poly": args.poly, "region": args.region, "mult": m}, str(m)


def _cmd_assoc_check(hf, args):
    rep = assoc_check(parse_poly(args.p, hf), parse_poly(args.q, hf),
                      parse_poly(args.r, hf))
    code = {True: 0, False: 1, None: 3}[rep.associative]
    return code, _plain(rep), str(rep)


def _cmd_assoc_scan(hf, args):
    rep = assoc_scan(hf, args.max_deg, monic_only=args.monic_only,
                     stop_after=None if args.all else 1)
    payload = {"command": "assoc-scan", **_plain(rep)}
    return (1 if rep.counterexamples else 0), payload, str(rep)


def _cmd_one_one(hf, args):
    rep = one_plus_one_criterion(hf)
    payload = {"command": "one-one", "hyperfield": rep.hyperfield,
               "b_set": rep.b_set, "applicable": rep.applicable}
    if rep.applicable:
        payload["certificate"] = rep.certificate().to_dict()
    return 0, payload, str(rep)


def _cmd_pointwise(hf, args):
    rep = pointwise_products_equal(parse_poly(args.p, hf),
                                   parse_poly(args.q, hf),
                                   parse_poly(args.r, hf),
                                   _point_list(hf, args.points))
    payload = {"command": "pointwise", **_plain(rep)}
    return (0 if rep.equal else 1), payload, str(rep)


def _probe_spec(hf: Hyperfield, args) -> ProbeSpec:
    """default_probe, with any --points added.  They are read over every
    carrier, so a bad literal exits 2; a finite carrier is checked
    exhaustively, so there a valid list changes nothing."""
    return default_probe(
        hf, _point_list(hf, args.points) if args.points else ())


def _cmd_axioms(hf, args):
    rep = check_axioms(hf, _probe_spec(hf, args))
    payload = {"command": "axioms", "ok": rep.ok, **_plain(rep)}
    return (0 if rep.ok else 1), payload, str(rep)


def _cmd_ddist(hf, args):
    rep = is_doubly_distributive(hf, _probe_spec(hf, args))
    payload = {"command": "ddist", **_plain(rep)}
    return (0 if rep.holds else 1), payload, str(rep)


def _cmd_trop_roots(hf, args):
    if not isinstance(hf, TropicalHyperfield):
        raise ValueError("trop-roots runs over the tropical carrier")
    rm = root_multiset(parse_poly(args.poly, hf))
    payload = {"command": "trop-roots", "poly": args.poly,
               "roots": [hf.format_element(a) for a in rm.roots]}
    return 0, payload, str(rm)


def _cmd_trop_box(hf, args):
    if not isinstance(hf, TropicalHyperfield):
        raise ValueError("trop-box runs over the tropical carrier")
    roots = [parse_scalar_literal(hf, tok.strip())
             for tok in args.roots.split(",") if tok.strip()]
    box = linear_product_box(roots)
    payload = {"command": "trop-box",
               "roots": [hf.format_element(a) for a in roots],
               **_box_payload(box)}
    human = str(box)
    code = 0
    if args.certify:
        cert = box_equivalence(roots)
        payload["equivalence"] = {"equal": cert.equal, "steps": list(cert.steps),
                                  "samples_checked": cert.samples_checked,
                                  "failure": cert.failure}
        human += "\n" + "\n".join(cert.steps)
        human += (f"\niterated union equals the box: {cert.equal} "
                  f"({cert.samples_checked} members factored)")
        code = 0 if cert.equal else 1
    return code, payload, human


def _cmd_reducible(hf, args):
    cert = is_reducible(parse_poly(args.poly, hf), search_bound=args.bound)
    code = {True: 0, False: 1, None: 3}[cert.reducible]
    return code, dict(vars(cert)), str(cert)


def _cmd_repro(hf, args):
    results = run_all(args.criterion)
    payload = {"command": "repro",
               "results": [dict(vars(r)) for r in results],
               "passed": all(r.passed for r in results)}
    human = format_table(results, verbose=args.verbose)
    return (0 if payload["passed"] else 1), payload, human


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperpoly", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, needs_hf=True, **help_kw):
        p = sub.add_parser(name, **help_kw)
        if needs_hf:
            p.add_argument("--hf", required=True,
                           help="carrier: K, S, W, T, V, P, GF(p), "
                                "W(G,e):PATH")
        p.add_argument("--format", choices=("human", "structured"),
                       default="human")
        p.set_defaults(handler=handler)
        return p

    p = add("eval", _cmd_eval, help="evaluate a polynomial at a point")
    p.add_argument("--poly", required=True)
    p.add_argument("--at", required=True)

    p = add("prod", _cmd_prod, help="hyperproduct box of two polynomials")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)

    p = add("sum", _cmd_sum, help="hypersum box of two polynomials")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)

    p = add("member", _cmd_member,
            help="decide p in an iterated product/sum expression")
    p.add_argument("--poly", required=True)
    p.add_argument("--expr", required=True)

    p = add("equal", _cmd_equal, help="decide equality of two expressions")
    p.add_argument("--expr1", required=True)
    p.add_argument("--expr2", required=True)

    p = add("quotients", _cmd_quotients,
            help="all q with p in (T-a)(x)q")
    p.add_argument("--poly", required=True)
    p.add_argument("--root", required=True)

    p = add("mult", _cmd_mult, help="recursive root multiplicity")
    p.add_argument("--poly", required=True)
    p.add_argument("--root", required=True)

    p = add("mult-set", _cmd_mult_set,
            help="multiplicity over a region of root candidates")
    p.add_argument("--poly", required=True)
    p.add_argument("--region", required=True)

    p = add("assoc-check", _cmd_assoc_check,
            help="associativity of one triple")
    for flag in ("--p", "--q", "--r"):
        p.add_argument(flag, required=True)

    p = add("assoc-scan", _cmd_assoc_scan,
            help="exhaustive associativity scan (finite carriers)")
    p.add_argument("--max-deg", type=int, required=True)
    p.add_argument("--monic-only", action="store_true")
    p.add_argument("--all", action="store_true",
                   help="collect every counterexample, not just the first")

    add("one-one", _cmd_one_one,
        help="the 1+1 singleton criterion with witness certificates")

    p = add("pointwise", _cmd_pointwise,
            help="pointwise evaluation products of a triple")
    for flag in ("--p", "--q", "--r"):
        p.add_argument(flag, required=True)
    p.add_argument("--points", required=True, help="finite list {a,b,c}")

    for name, cmd, text in (
            ("axioms", _cmd_axioms, "check the hyperfield axioms"),
            ("ddist", _cmd_ddist, "double distributivity check")):
        p = add(name, cmd, help=text)
        p.add_argument("--points", help="extra probe points {a,b,c} over T, "
                       "V, P; a finite carrier is always checked exhaustively")

    p = add("trop-roots", _cmd_trop_roots,
            help="tropical root multiset of a monic polynomial")
    p.add_argument("--poly", required=True)

    p = add("trop-box", _cmd_trop_box,
            help="product box of tropical linear factors")
    p.add_argument("--roots", required=True, help="comma list, e.g. 1,1")
    p.add_argument("--certify", action="store_true",
                   help="also certify the iterated union equals the box")

    p = add("reducible", _cmd_reducible, help="two-factor reducibility")
    p.add_argument("--poly", required=True)
    p.add_argument("--bound", type=int, default=4)

    p = add("repro", _cmd_repro, needs_hf=False,
            help="run the full reproduction suite")
    p.add_argument("--criterion", type=int, default=None,
                   help="run a single numbered check")
    p.add_argument("--verbose", action="store_true")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    hf = None
    try:
        if getattr(args, "hf", None):
            hf = by_name(args.hf)
        code, payload, human = args.handler(hf, args)
        text = (json.dumps(payload, sort_keys=True)
                if args.format == "structured" else human)
    except UndecidedError as err:
        print(f"undecided: {err}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a crash must not read as exit 1, "negative"
        message = " ".join(str(err).split())
        print(f"error: internal {type(err).__name__}: {message}",
              file=sys.stderr)
        return 4
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout early; the verdict stands, and stdout
        # goes to devnull so the interpreter's final flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
