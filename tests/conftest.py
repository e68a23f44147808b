"""Shared fixtures."""

import heapq

import pytest

from qexpand import verify
from qexpand.exactarith import RF_ONE, RF_ZERO
from qexpand.freealgebra import NCPolynomial


def _reduce_randomly(p, system, rng):
    """A normal form of p reached by rewriting a random out-of-order pair
    of each pending word.

    The deglex-largest pending word is rewritten first.  Every rule shrinks
    in deglex, so no later rewrite adds to that word, and each word is
    rewritten once.  It reads only ``system.rules`` and ``system.rank``, and
    multiplies its coefficients as ``RationalFunction`` values, by the
    schoolbook product at every coefficient size; the engine packs its
    coefficients by a codec of its own.  So it shares no code with the
    rewrite engine whose normal forms it is compared with.
    """
    rank = system.rank
    pending = {}
    heap = []

    def add(word, coeff):
        if word not in pending:
            heapq.heappush(heap, ((-len(word), [-rank[x] for x in word]), word))
        pending[word] = pending.get(word, RF_ZERO) + coeff

    for word, coeff in p.items():
        add(word, coeff)
    normal = {}
    while heap:
        word = heapq.heappop(heap)[1]
        coeff = pending.pop(word)
        positions = [
            i for i in range(len(word) - 1) if rank[word[i]] > rank[word[i + 1]]
        ]
        if not positions:
            normal[word] = coeff
            continue
        i = rng.choice(positions)
        prefix, suffix = word[:i], word[i + 2 :]
        for w, c in system.rules[word[i : i + 2]].items():
            add(prefix + w + suffix, coeff * c)
    return NCPolynomial(normal)


@pytest.fixture
def reduce_randomly():
    """``reduce_randomly(p, system, rng)``: see :func:`_reduce_randomly`."""
    return _reduce_randomly


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
                yield w, c + RF_ONE if (s, w) == (system, word) else c

        monkeypatch.setattr(verify, "_walk", wrong_walk)

    return plant
