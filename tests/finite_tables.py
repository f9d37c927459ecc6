"""A finite carrier read back on payloads: its sets as payload sets and its
tables as payload-keyed dicts, for tests that compare it with references
written on payloads or that rebuild it with some entries redrawn; and the
check that a prime field's step table holds only its own add rows."""

from hyperpoly.carriers import FiniteSet


def payloads(s: FiniteSet) -> frozenset:
    """The payloads of the members of a finite set."""
    return frozenset(x.payload for x in s.hf.sample_elements(s))


def finite_set(hf, members) -> FiniteSet:
    """The set of hf whose members have the given payloads: the carrier's
    interned set of their mask."""
    codes = {hf.sort_key(hf.element(p)) for p in members}
    return hf._set[sum(1 << c for c in codes)]


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


def assert_step_rows_are_add_rows(codes) -> None:
    """A sum of singletons over GF(p) is a singleton, so every row the step
    table holds is a singleton's, the carrier's own add row."""
    assert codes.step
    for mask, row in codes.step.items():
        assert mask.bit_count() == 1
        assert row is codes.add[mask.bit_length() - 1]
