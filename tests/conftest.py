"""Shared fixtures."""

import pytest

from qexpand.exactarith import RF_ZERO
from qexpand.freealgebra import NCPolynomial


def _reduce_randomly(p, system, rng):
    """A normal form of p reached by rewriting a random out-of-order pair
    of each pending word.

    It reads only ``system.rules`` and ``system.rank``, so it shares no
    code with the rewrite engine whose normal forms it is compared with.
    """
    rank = system.rank
    pending = dict(p.items())
    normal = {}
    while pending:
        word, coeff = pending.popitem()
        positions = [
            i for i in range(len(word) - 1) if rank[word[i]] > rank[word[i + 1]]
        ]
        if not positions:
            normal[word] = normal.get(word, RF_ZERO) + coeff
            continue
        i = rng.choice(positions)
        prefix, suffix = word[:i], word[i + 2 :]
        for w, c in system.rules[word[i : i + 2]].items():
            produced = prefix + w + suffix
            pending[produced] = pending.get(produced, RF_ZERO) + coeff * c
    return NCPolynomial(normal)


@pytest.fixture
def reduce_randomly():
    """``reduce_randomly(p, system, rng)``: see :func:`_reduce_randomly`."""
    return _reduce_randomly
