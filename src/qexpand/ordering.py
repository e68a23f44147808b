"""Normal ordering of free-algebra elements by terminating rewrite rules.

A :class:`RelationSystem` orients a set of two-letter commutation rules
toward a target generator order.  A word is normal when its letter ranks
are non-decreasing from left to right; :func:`normalize` rewrites every
word of a polynomial into a combination of normal words.

One order governs the engine: deglex under the letter ranks, comparing
words by length first and then lexicographically.  Every rule is checked
on construction to replace its pattern by deglex-smaller words.  Deglex
is a monomial order (Bergman, "The diamond lemma for ring theory", 1978),
so a rewrite at any position of any word also makes the word smaller, and
since deglex is a well-order, rewriting terminates for every system that
passes the check.  Word reduction pops the deglex-largest pending word
first, so each word is processed once, after every word that can produce
it.

The default strategy reduces the leftmost out-of-order adjacent pair.  A
``choose`` callback can pick any reducible position instead, which the
test-suite uses to probe confluence.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from .exactarith import IntPolynomial, RF_ONE, RationalFunction
from .freealgebra import GENERATORS, NCPolynomial, _accumulate, parse_word
from .qnumbers import xi

ChoosePosition = Callable[[str, list[int]], int]


class RelationSystem:
    """A named rewrite rule set plus the generator order of its normal form."""

    def __init__(self, name: str, normal_order: str, rules: dict[str, NCPolynomial]):
        if sorted(normal_order) != sorted(GENERATORS):
            raise ValueError(
                f"normal order {normal_order!r} is not a permutation of {GENERATORS!r}"
            )
        self.name = name
        self.normal_order = normal_order
        self.rank = {g: i for i, g in enumerate(normal_order)}
        # letter of rank r -> a character that decreases with r
        self._table = str.maketrans(
            normal_order, "".join(sorted(normal_order, reverse=True))
        )
        self.rules = dict(rules)
        for pattern, replacement in self.rules.items():
            self._check_rule(pattern, replacement)

    def order_key(self, word: str) -> tuple[int, str]:
        """Sort key under which deglex-larger words come first."""
        return (-len(word), word.translate(self._table))

    def _check_rule(self, pattern: str, replacement: NCPolynomial) -> None:
        parse_word(pattern)
        if len(pattern) != 2:
            raise ValueError(f"rule pattern must have two letters: {pattern!r}")
        if is_normal(pattern, self):
            raise ValueError(f"rule pattern {pattern!r} is already normal")
        bound = self.order_key(pattern)
        for word in replacement.words():
            if self.order_key(word) <= bound:
                raise ValueError(
                    f"replacement word {word!r} does not shrink pattern "
                    f"{pattern!r} in the deglex order"
                )

    def __repr__(self) -> str:
        return f"RelationSystem({self.name!r})"


def is_normal(word: str, system: RelationSystem) -> bool:
    """True iff the word's letter ranks are non-decreasing left to right."""
    rank = system.rank
    return all(rank[word[i]] <= rank[word[i + 1]] for i in range(len(word) - 1))


def reducible_positions(word: str, system: RelationSystem) -> list[int]:
    """Indices i where letters i, i+1 appear in decreasing rank order."""
    rank = system.rank
    return [
        i for i in range(len(word) - 1) if rank[word[i]] > rank[word[i + 1]]
    ]


def _apply_at(word: str, i: int, system: RelationSystem) -> NCPolynomial:
    replacement = system.rules.get(word[i : i + 2])
    if replacement is None:
        raise ValueError(
            f"no rule for pattern {word[i:i + 2]!r} in system {system.name}"
        )
    prefix, suffix = word[:i], word[i + 2 :]
    # replacement words differ pairwise, so the rebuilt words do too
    return NCPolynomial._from_reduced(
        {prefix + w + suffix: c for w, c in replacement.items()}
    )


def rewrite_step(word: str, system: RelationSystem) -> Optional[NCPolynomial]:
    """Rewrite the leftmost out-of-order pair; None when the word is normal."""
    positions = reducible_positions(word, system)
    if not positions:
        return None
    return _apply_at(word, positions[0], system)


def _reduce_word(
    word: str, system: RelationSystem, choose: Optional[ChoosePosition]
) -> NCPolynomial:
    key = system.order_key
    normal: dict[str, RationalFunction] = {}
    pending: dict[str, RationalFunction] = {word: RF_ONE}
    heap = [(key(word), word)]
    while heap:
        _, w = heapq.heappop(heap)
        coeff = pending.pop(w, None)
        if coeff is None:
            continue  # stale heap entry for a cancelled word
        positions = reducible_positions(w, system)
        if not positions:
            _accumulate(normal, w, coeff)
            continue
        i = positions[0] if choose is None else choose(w, positions)
        if i not in positions:
            raise ValueError("choose() returned a non-reducible position")
        for produced, factor in _apply_at(w, i, system).items():
            if produced not in pending:
                heapq.heappush(heap, (key(produced), produced))
            _accumulate(pending, produced, coeff * factor)
    return NCPolynomial._from_reduced(normal)


def normalize(
    p: NCPolynomial,
    system: RelationSystem,
    *,
    choose: Optional[ChoosePosition] = None,
) -> NCPolynomial:
    """The normal form of p: every word rewritten to a combination of
    normal words, extended linearly over the terms of p."""
    total: dict[str, RationalFunction] = {}
    for word, coeff in p.items():
        for w, c in _reduce_word(word, system, choose).items():
            _accumulate(total, w, coeff * c)
    return NCPolynomial._from_reduced(total)


_Q1 = RationalFunction(IntPolynomial((0, 1)))
_Q2 = RationalFunction(IntPolynomial((0, 0, 1)))

SYSTEM_A = RelationSystem(
    "A",
    "bca",
    {
        "ab": NCPolynomial({"ba": _Q1, "c": RF_ONE}),
        "ac": NCPolynomial({"ca": _Q2}),
        "cb": NCPolynomial({"bc": _Q2}),
    },
)

SYSTEM_B = RelationSystem(
    "B",
    "cba",
    {
        "ac": NCPolynomial({"ca": _Q2, "bb": xi()}),
        "ab": NCPolynomial({"ba": _Q2}),
        "bc": NCPolynomial({"cb": _Q2}),
    },
)

# the degenerate limits: c = 0 in System A, xi = 0 in System B
SYSTEM_A_C0 = RelationSystem(
    "A-c0", "bca", {**SYSTEM_A.rules, "ab": NCPolynomial({"ba": _Q1})}
)
SYSTEM_B_XI0 = RelationSystem(
    "B-xi0", "cba", {**SYSTEM_B.rules, "ac": NCPolynomial({"ca": _Q2})}
)

SYSTEMS = {s.name: s for s in (SYSTEM_A, SYSTEM_B, SYSTEM_A_C0, SYSTEM_B_XI0)}
