"""Classical arithmetic as an oracle: Krasner's quotient hyperfields GF(p)/U.

For a subgroup U of GF(p)^x, the classes xU together with 0 form a
hyperfield with [x] (+) [y] = {[x' + y'] : x' in xU, y' in yU}, and the
projection GF(p) -> GF(p)/U is a morphism.  A morphism maps sums into
hypersums, so the projection of a classical product q*r*s is a member of
both bracketings of the hyperproduct of the projections: a "no" is always
wrong, and an "undecided" is a gap of the engine."""

import random

import pytest

from hyperpoly import (Polynomial, PolyLeaf, ProbeSpec, ProdNode,
                       check_axioms, expr_member, mult_at, quotients)
from hyperpoly.carriers import FiniteHyperfield


def quotient(p, order):
    """GF(p)/U for the subgroup U of GF(p)^x of the given order, on the
    least member of each class, with 0 first and the classes ascending.
    Returns the carrier and the projection of a residue to its class."""
    units = [u for u in range(1, p) if pow(u, order, p) == 1]
    assert len(units) == order, f"{order} does not divide {p - 1}"
    rep = {0: 0}
    for x in range(1, p):
        rep[x] = min(x * u % p for u in units)
    pays = sorted(set(rep.values()))
    classes = {c: [x for x in range(p) if rep[x] == c] for c in pays}
    mul = {(x, y): rep[x * y % p] for x in pays for y in pays}
    neg = {x: rep[-x % p] for x in pays}
    inv = {x: rep[pow(x, -1, p)] for x in pays if x}
    add = {(x, y): frozenset(rep[(a + b) % p] for a in classes[x]
                             for b in classes[y])
           for x in pays for y in pays}
    hf = FiniteHyperfield(f"GF({p})/U{order}", pays, 0, 1, mul, neg, inv,
                          add)
    return hf, rep


QUOTIENTS = [(7, 3), (13, 3), (13, 4), (31, 6)]
IDS = [f"GF({p})/U{order}" for p, order in QUOTIENTS]


def poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def divide_root(f, root, p):
    """(f div (T - root), f(root)) over GF(p), by synthetic division."""
    out, carry = [], 0
    for c in reversed(f):
        carry = (carry * root + c) % p
        out.append(carry)
    return out[-2::-1], out[-1]


def with_root(rng, p, root, mult, degree):
    """A random classical polynomial of the given degree with (T - root)^mult
    as a factor, coefficients from T^0 up."""
    f = classical(rng, p, degree - mult)
    for _ in range(mult):
        f = poly_mul(f, [-root % p, 1], p)
    return f


def classical(rng, p, degree):
    """A random polynomial over GF(p), coefficients from T^0 up, with a
    nonzero leading coefficient."""
    return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]


@pytest.mark.parametrize("p,order", QUOTIENTS, ids=IDS)
def test_quotients_are_hyperfields(p, order):
    hf, _ = quotient(p, order)
    report = check_axioms(hf, ProbeSpec.exhaustive())
    assert report.ok, str(report)
    assert report.points == (p - 1) // order + 1


@pytest.mark.parametrize("p,order", QUOTIENTS, ids=IDS)
def test_projected_classical_products_are_members(p, order):
    hf, rep = quotient(p, order)
    rng = random.Random(f"GF({p})/U{order}")

    def project(coeffs):
        return Polynomial.of(hf, [rep[c] for c in coeffs])

    verdicts = []
    for _ in range(60):
        q, r, s = (classical(rng, p, d) for d in (2, 1, 1))
        target = project(poly_mul(poly_mul(q, r, p), s, p))
        leaves = [PolyLeaf(project(f)) for f in (q, r, s)]
        for expr in (ProdNode(leaves[0], ProdNode(leaves[1], leaves[2])),
                     ProdNode(ProdNode(leaves[0], leaves[1]), leaves[2])):
            verdicts.append(expr_member(target, expr).verdict)
    assert verdicts == ["yes"] * 120


def projected_roots(p, order, count):
    """(carrier, projection, [(f, root, its classical multiplicity)]):
    seeded classical polynomials of degree 2-4 with a chosen root."""
    hf, rep = quotient(p, order)
    rng = random.Random(f"roots GF({p})/U{order}")
    cases = []
    for _ in range(count):
        root, degree = rng.randrange(p), rng.randint(2, 4)
        f = with_root(rng, p, root, rng.randint(1, degree), degree)
        mult, rest = 0, f
        while len(rest) > 1 and divide_root(rest, root, p)[1] == 0:
            rest, mult = divide_root(rest, root, p)[0], mult + 1
        cases.append((f, root, mult))
    return hf, rep, cases


@pytest.mark.parametrize("p,order", QUOTIENTS, ids=IDS)
def test_projected_multiplicity_is_at_least_the_classical(p, order):
    """A morphism maps each classical quotient step to a hyperfield one,
    so the recursive multiplicity of the projected root can only grow."""
    hf, rep, cases = projected_roots(p, order, 40)
    for f, root, mult in cases:
        image = Polynomial.of(hf, [rep[c] for c in f])
        assert mult_at(image, hf.element(rep[root])) >= mult, (f, root)


@pytest.mark.parametrize("p,order", QUOTIENTS, ids=IDS)
def test_projected_quotient_is_a_representative(p, order):
    """f = (T - root) q classically, so the projection of q is one of the
    quotients of the projection of f at the projected root; over a finite
    carrier the representatives are every quotient."""
    hf, rep, cases = projected_roots(p, order, 40)
    for f, root, _ in cases:
        q, remainder = divide_root(f, root, p)
        assert remainder == 0
        image = Polynomial.of(hf, [rep[c] for c in f])
        found = quotients(image, hf.element(rep[root]))
        assert found.exact
        assert Polynomial.of(hf, [rep[c] for c in q]) in \
            found.representatives, (f, root)
