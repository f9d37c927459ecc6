"""A finite carrier read back on payloads: its sets as payload sets and its
tables as payload-keyed dicts, for tests that compare it with references
written on payloads or that rebuild it with some entries redrawn."""

from hyperpoly.carriers import FiniteSet


def payloads(s: FiniteSet) -> frozenset:
    """The payloads of the members of a finite set."""
    return frozenset(x.payload for x in s.hf.sample_elements(s))


def finite_set(hf, members) -> FiniteSet:
    """The set of hf whose members have the given payloads."""
    codes = {hf.sort_key(hf.element(p)) for p in members}
    return FiniteSet(hf.name, sum(1 << c for c in codes), hf)


def payload_tables(hf) -> tuple[dict, dict, dict, dict]:
    """The product, negation, inverse and hyperaddition tables of hf, keyed
    by payloads, in the order FiniteHyperfield takes them."""
    els = hf.elements()
    mul = {(x.payload, y.payload): hf.mul(x, y).payload
           for x in els for y in els}
    neg = {x.payload: hf.neg(x).payload for x in els}
    inv = {x.payload: hf.inv(x).payload for x in els if not hf.is_zero(x)}
    add = {(x.payload, y.payload): payloads(hf.hyperadd(x, y))
           for x in els for y in els}
    return mul, neg, inv, add
