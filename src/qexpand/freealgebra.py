"""The free associative algebra on the generators a, b, c.

Words are plain strings over the alphabet ``abc``; the empty string is the
multiplicative identity.  An :class:`NCPolynomial` maps words to nonzero
rational-function coefficients.  Its constructor is the one way to build
a sum: it adds the coefficients of a repeated word, drops a word whose
coefficients cancel, and raises TypeError for a coefficient that is not a
``RationalFunction``.  The one operator is the product, which
concatenates words and is deliberately noncommutative; no route calls it,
and it stays because ``bench/tracer.py`` wraps it by name.  Serialization
and printing use a fixed term order (word length first, then
lexicographic with a < b < c) so output is deterministic.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .exactarith import RF_ONE, RF_ZERO, RationalFunction

GENERATORS = "abc"


def parse_word(text: str) -> str:
    """Validate a word over the generator alphabet; '' is the identity word."""
    for i, ch in enumerate(text):
        if ch not in GENERATORS:
            raise ValueError(f"invalid generator '{ch}' at position {i + 1}")
    return text


def word_sort_key(word: str) -> tuple[int, str]:
    """Canonical term order: by length, then lexicographic with a < b < c."""
    return (len(word), word)


def _accumulate(
    terms: dict[str, RationalFunction], word: str, coeff: RationalFunction
) -> None:
    """Add coeff to the term of word, dropping the term when it sums to zero."""
    merged = terms.get(word)
    total = coeff if merged is None else merged + coeff
    if total.is_zero():
        terms.pop(word, None)
    else:
        terms[word] = total


def format_word(word: str) -> str:
    """Render a word with powers and middle dots, e.g. 'aab' -> 'a^2·b'."""
    if not word:
        return "1"
    runs: list[list] = []
    for ch in word:
        if runs and runs[-1][0] == ch:
            runs[-1][1] += 1
        else:
            runs.append([ch, 1])
    return "·".join(ch if n == 1 else f"{ch}^{n}" for ch, n in runs)


class NCPolynomial:
    """A finite linear combination of words with rational-function coefficients.

    Zero coefficients are pruned eagerly, so equality is a structural
    comparison of the underlying term maps.
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[str, RationalFunction]
        | Iterable[tuple[str, RationalFunction]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[str, RationalFunction] = {}
        for word, coeff in items:
            if not isinstance(coeff, RationalFunction):
                raise TypeError(f"coefficient of {word!r} is not a RationalFunction")
            _accumulate(clean, parse_word(word), coeff)
        self._terms = clean

    @classmethod
    def _from_reduced(cls, terms: dict[str, RationalFunction]) -> NCPolynomial:
        # internal: caller guarantees valid words and no zero coefficients
        out = object.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls) -> NCPolynomial:
        return cls._from_reduced({})

    @classmethod
    def from_word(cls, word: str, coeff: RationalFunction = RF_ONE) -> NCPolynomial:
        parse_word(word)
        if coeff.is_zero():
            return cls.zero()
        return cls._from_reduced({word: coeff})

    def items(self):
        """Raw (word, coefficient) view; use terms() for canonical order."""
        return self._terms.items()

    def terms(self) -> list[tuple[str, RationalFunction]]:
        """Terms sorted in the canonical word order."""
        return sorted(self._terms.items(), key=lambda kv: word_sort_key(kv[0]))

    def words(self) -> list[str]:
        return sorted(self._terms, key=word_sort_key)

    def coefficient(self, word: str) -> RationalFunction:
        return self._terms.get(word, RF_ZERO)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __iter__(self) -> Iterator[str]:
        return iter(self.words())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __mul__(self, other: NCPolynomial) -> NCPolynomial:
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        out: dict[str, RationalFunction] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                _accumulate(out, w1 + w2, c1 * c2)
        return NCPolynomial._from_reduced(out)

    def json_terms(self) -> Iterator[dict]:
        """The items of to_json(), one at a time."""
        for w, c in self.terms():
            yield {"word": w, "coeff": c.to_json()}

    def to_json(self) -> list[dict]:
        """Terms in canonical order; the empty word serializes as ''."""
        return list(self.json_terms())

    @classmethod
    def from_json(cls, data: Iterable[dict]) -> NCPolynomial:
        return cls(
            (item["word"], RationalFunction.from_json(item["coeff"])) for item in data
        )

    def str_parts(self) -> Iterator[str]:
        """The pieces of str(self), one per term, to be joined by ' + '."""
        if not self._terms:
            yield "0"
        for word, coeff in self.terms():
            if coeff == RF_ONE:
                yield format_word(word)
            elif word:
                yield f"({coeff})·{format_word(word)}"
            else:
                yield f"({coeff})"

    def __str__(self) -> str:
        return " + ".join(self.str_parts())

    def __repr__(self) -> str:
        return f"NCPolynomial({str(self)!r})"
