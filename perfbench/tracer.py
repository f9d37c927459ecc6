"""Span tracing from outside the package: wrappers around the set-level
entry points of each hyperpoly module, installed for a traced run and
removed afterwards.

A span has a name (``<layer>.<entry point>``), a start and an end; its
parent is the span below it on the stack, and the query it belongs to is
the enclosing ``bench.query`` span.  Self time is the span's duration minus
the time its child spans cover.  Spans are aggregated as they close
(per-name calls, self time, counters), so a pass with millions of spans
needs no span list.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self._stack: list = []   # [name, start, child_seconds]

    def enter(self, name: str) -> None:
        self._stack.append([name, _clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = _clock() - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.total_s[name] += duration

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def layer_totals(self) -> tuple[dict, dict]:
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        for name, n in self.calls.items():
            layer = name.split(".", 1)[0]
            calls[layer] += n
            self_s[layer] += self.self_s[name]
        return calls, self_s


# ---------------------------------------------------------------------------
# wrappers


def _wrap(tracer: Tracer, name: str, fn: Callable,
          after: Optional[Callable] = None) -> Callable:
    enter, leave = tracer.enter, tracer.exit

    def wrapper(*args, **kwargs):
        enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave()
        if after is not None:
            after(tracer, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _count(key: str, size: Callable) -> Callable:
    def after(tracer: Tracer, result) -> None:
        tracer.counts[key] += size(result)
    return after


def _parts(result) -> int:
    parts = result.parts
    return len(parts.parts if hasattr(parts, "parts") else parts)


def _member_method(tracer: Tracer, cert) -> None:
    tracer.counts[f"solver.method.{cert.method}"] += 1


_DISPATCH_SCOPE_TEXT = "several coupled coefficients over an infinite carrier"


def _expr_member_scope(tracer: Tracer, cert) -> None:
    # expr_member answers "unsupported" itself, without the dispatcher,
    # when resolve raises; the dispatcher counted every other answer
    if cert.method == "unsupported" and cert.steps and \
            cert.steps[0].text != _DISPATCH_SCOPE_TEXT:
        tracer.counts["solver.method.unsupported"] += 1


def _equal_kind(tracer: Tracer, cert) -> None:
    kind = cert.detail[0].kind if cert.detail else "scope"
    kind = {"cell": "box"}.get(kind, kind)
    tracer.counts[f"solver.equal.{kind}"] += 1
    if kind == "search" or (kind == "scope" and "no separator" in
                            cert.detail[0].text):
        tracer.counts["solver.search.comparisons"] += 1
        tracer.counts["solver.search.hits"] += kind == "search"


def _assoc_check(tracer: Tracer, rep) -> None:
    tracer.counts["assoc.triples"] += 1
    tracer.counts["assoc.counterexamples"] += rep.associative is False


def _assoc_scan(tracer: Tracer, rep) -> None:
    tracer.counts["assoc.triples"] += rep.triples_checked
    tracer.counts["assoc.counterexamples"] += len(rep.counterexamples)


def entry_points(hp) -> list:
    """(owner, attribute, span name, after-hook) for every wrapped entry
    point.  Owners are modules or classes of the package."""
    c, s, pa = hp.carriers, hp.sets, hp.polyalg
    out = []
    for cls in (s.IntervalUnion, s.ArcUnion):
        for attr in ("of", "union", "intersect", "complement", "difference",
                     "remove_point", "translate", "scale", "rotate",
                     "antipode", "reflect"):
            if attr in vars(cls):
                out.append((cls, attr, f"sets.{attr}",
                            _count("sets.parts_out", _parts)))
    out.append((s, "arcs_minkowski", "sets.arcs_minkowski",
                _count("sets.parts_out", lambda r: len(r.parts))))
    out.append((s, "minor_arc", "sets.minor_arc",
                _count("sets.parts_out", _parts)))
    for cls in (c.Hyperfield, c.FiniteHyperfield, c.TropicalHyperfield,
                c.ViroHyperfield, c.PhaseHyperfield):
        for attr in ("hypersum", "set_hyperadd", "scale_set", "set_mul",
                     "neg_set"):
            if attr in vars(cls):
                out.append((cls, attr, f"carriers.{attr}", None))
    for attr in ("by_name", "gf", "load_cayley_table", "weak_group"):
        out.append((c, attr, "carriers.build", None))
    for attr in ("check_axioms", "is_doubly_distributive", "default_probe"):
        out.append((c, attr, f"carriers.{attr}", None))
    for attr in ("boxprod", "boxsum", "box_hyperadd", "scale_box", "box_of",
                 "resolve", "resolved_members"):
        out.append((pa, attr, f"polyalg.{attr}", None))
    for attr in ("parse_poly", "parse_expr"):
        out.append((pa, attr, "polyalg.parse", None))
    out.append((pa.PolyBox, "canonical", "polyalg.canonical", None))
    out.append((pa.PolyBox, "contains", "polyalg.box_contains", None))
    out.append((pa.PolyBox, "sample_members", "polyalg.sample", None))
    out.append((pa.PolyBox, "enumerate_members", "polyalg.enumerate",
                _count("polyalg.enumerate.members", len)))
    for cls in (pa.MemberCertificate, pa.EqualCertificate):
        out.append((cls, "to_dict", "polyalg.render", None))
    out += [(pa, "solve_linear_chain", "solver.chain", None),
            (pa, "chain_witness", "solver.chain", None),
            (pa, "chain_representatives", "solver.chain", None),
            (pa, "solve_single_free", "solver.single", None),
            (pa, "_member_in_resolved", "solver.member", _member_method),
            (pa, "expr_member", "solver.expr_member", _expr_member_scope),
            (pa, "expr_equal", "solver.equal", _equal_kind)]
    d = hp.divide
    out.append((d, "quotients", "divide.quotients",
                _count("divide.quotient_reps",
                       lambda r: len(r.representatives))))
    for attr in ("mult_at", "mult_set", "is_root", "tropical_root_points"):
        out.append((d, attr, f"divide.{attr}", None))
    for attr in ("feasible_point", "roots_of", "sign_at_root"):
        out.append((hp.realroots, attr, f"realroots.{attr}", None))
    out.append((hp.linear, "feasible_point", "linear.feasible_point", None))
    for attr in ("root_multiset", "box_equivalence", "is_reducible",
                 "linear_product_box", "trop_hypersum_sorted"):
        out.append((hp.tropical, attr, f"tropical.{attr}", None))
    a = hp.assoc
    out += [(a, "assoc_check", "assoc.assoc_check", _assoc_check),
            (a, "assoc_scan", "assoc.assoc_scan", _assoc_scan),
            (a, "one_plus_one_criterion", "assoc.one_plus_one", None),
            (a, "pointwise_products_equal", "assoc.pointwise", None)]
    return out


class Installation:
    """Wrappers in place; ``remove()`` restores every original binding."""

    def __init__(self, tracer: Tracer, hp):
        self.restore: list = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hyperpoly"
                                         or name.startswith("hyperpoly."))]
        for owner, attr, name, after in entry_points(hp):
            raw = vars(owner)[attr]
            if isinstance(owner, type):
                if isinstance(raw, staticmethod):
                    new = staticmethod(_wrap(tracer, name, raw.__func__, after))
                else:
                    new = _wrap(tracer, name, raw, after)
                self._patch(owner, attr, raw, new)
                continue
            new = _wrap(tracer, name, raw, after)
            # every module that imported the function by name rebinds it
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, key, raw, new)

    def _patch(self, owner, attr, old, new) -> None:
        setattr(owner, attr, new)
        self.restore.append((owner, attr, old))

    def remove(self) -> None:
        for owner, attr, old in reversed(self.restore):
            setattr(owner, attr, old)
        self.restore.clear()


@contextmanager
def installed(tracer: Tracer, hp):
    inst = Installation(tracer, hp)
    try:
        yield inst
    finally:
        inst.remove()
