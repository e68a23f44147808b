"""Shared fixtures, and the boundary between the package's values and the
plain values of :mod:`reference`, crossed by the public constructors."""

import pytest

import reference as ref
from qexpand import verify
from qexpand.exactarith import IntPolynomial, RationalFunction
from qexpand.freealgebra import NCPolynomial


def to_rf(value):
    """The RationalFunction of a reference pair (num, k)."""
    num, k = value
    den = ref.power(ref.ONE_MINUS_Q, k)
    return RationalFunction(IntPolynomial(num), IntPolynomial(den))


def to_nc(terms):
    """The NCPolynomial of a reference dict from word to value."""
    return NCPolynomial({word: to_rf(c) for word, c in terms.items()})


def of_rf(value):
    """The reference pair of a RationalFunction, read from its fields."""
    k = value.den.degree
    assert value.den.coeffs == ref.power(ref.ONE_MINUS_Q, k)
    return value.num.coeffs, k


def of_nc(p):
    """The reference dict of an NCPolynomial."""
    return {word: of_rf(c) for word, c in p.items()}


@pytest.fixture
def reduce_randomly():
    """``reduce_randomly(p, system, rng)``: :func:`reference.reduce_randomly`
    on the NCPolynomial p and the rules of ``system``, as an NCPolynomial."""

    def reduce(p, system, rng):
        rules = {pattern: of_nc(r) for pattern, r in system.rules.items()}
        return to_nc(ref.reduce_randomly(of_nc(p), rules, system.rank, rng))

    return reduce


@pytest.fixture
def wrong_formula_term(monkeypatch):
    """``wrong_formula_term(system, word)``: from then on, the formula route
    of ``system`` gives the coefficient of ``word`` plus one.  It wraps the
    row walk that builds every formula expansion, so each suite that compares
    a formula expansion sees exactly that one wrong value."""
    walk = verify._walk

    def plant(system, word):
        def wrong_walk(s, n):
            for w, c in walk(s, n):
                yield w, plus_one(c) if (s, w) == (system, word) else c

        monkeypatch.setattr(verify, "_walk", wrong_walk)

    return plant


def plus_one(value):
    """value + 1, by the reference ring."""
    return to_rf(ref.frac_add(of_rf(value), ref.ONE))
