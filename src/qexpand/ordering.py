"""Normal ordering of free-algebra elements by terminating rewrite rules.

A :class:`RelationSystem` orients a set of two-letter commutation rules
toward a target generator order.  A word is normal when its letter ranks
are non-decreasing from left to right; :func:`normalize` rewrites every
word of a polynomial into a combination of normal words.

Each system is checked for termination and for confluence when it is
built.  One order governs the engine: deglex under the letter ranks,
comparing words by length first and then lexicographically.  Every rule
must replace its pattern by deglex-smaller words.  Deglex is a monomial
order, so a rewrite at any position of any word also makes the word
smaller, and since deglex is a well-order, rewriting terminates.  The
only ambiguities of two-letter rules are overlaps ``xyz`` of patterns
``xy`` and ``yz``; the check normalises both one-step rewrites of each
overlap and requires the results to agree.  By Bergman's diamond lemma
("The diamond lemma for ring theory", 1978) every word of a system that
passes both checks has a unique normal form, whatever pairs are rewritten
in whatever order.  Word reduction rewrites the leftmost out-of-order
pair and pops the deglex-largest pending word first, so each word is
processed once, after every word that can produce it.
"""

from __future__ import annotations

import heapq

from .exactarith import IntPolynomial, RF_ONE, RationalFunction
from .freealgebra import GENERATORS, NCPolynomial, _accumulate, parse_word
from .qnumbers import xi


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
        for xy in self.rules:
            for yz in self.rules:
                if xy[1] == yz[0]:
                    self._check_overlap(xy + yz[1])

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

    def _check_overlap(self, word: str) -> None:
        via_left = normalize(_apply_at(word, 0, self), self)
        if via_left != normalize(_apply_at(word, 1, self), self):
            raise ValueError(
                f"overlap {word!r} has two normal forms in system {self.name}"
            )

    def __repr__(self) -> str:
        return f"RelationSystem({self.name!r})"


def _leftmost_pair(word: str, rank: dict[str, int]) -> int:
    """Index of the leftmost adjacent pair in decreasing rank order, or -1."""
    for i in range(len(word) - 1):
        if rank[word[i]] > rank[word[i + 1]]:
            return i
    return -1


def is_normal(word: str, system: RelationSystem) -> bool:
    """True iff the word's letter ranks are non-decreasing left to right."""
    return _leftmost_pair(word, system.rank) < 0


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


def _reduce_word(word: str, system: RelationSystem) -> NCPolynomial:
    key, rank = system.order_key, system.rank
    normal: dict[str, RationalFunction] = {}
    pending: dict[str, RationalFunction] = {word: RF_ONE}
    heap = [(key(word), word)]
    while heap:
        _, w = heapq.heappop(heap)
        coeff = pending.pop(w, None)
        if coeff is None:
            continue  # stale heap entry for a cancelled word
        i = _leftmost_pair(w, rank)
        if i < 0:
            _accumulate(normal, w, coeff)
            continue
        for produced, factor in _apply_at(w, i, system).items():
            if produced not in pending:
                heapq.heappush(heap, (key(produced), produced))
            _accumulate(pending, produced, coeff * factor)
    return NCPolynomial._from_reduced(normal)


def normalize(p: NCPolynomial, system: RelationSystem) -> NCPolynomial:
    """The normal form of p: every word rewritten to a combination of
    normal words, extended linearly over the terms of p."""
    total: dict[str, RationalFunction] = {}
    for word, coeff in p.items():
        for w, c in _reduce_word(word, system).items():
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
