"""Normal ordering of free-algebra elements by terminating rewrite rules.

A :class:`RelationSystem` orients a set of two-letter commutation rules
toward a target generator order.  A word is normal when its letter ranks
are non-decreasing from left to right; :func:`normalize` rewrites every
word of a polynomial into a combination of normal words.

Each system is checked for termination, for completeness and for
confluence when it is built.  One order governs the engine: deglex under
the letter ranks, comparing words by length first and then
lexicographically.  Every rule must replace its pattern by deglex-smaller
words.  Deglex is a monomial order, so a rewrite at any position of any
word also makes the word smaller, and since deglex is a well-order,
rewriting terminates.  Every out-of-order pair ``xy`` must have a rule,
so a word is irreducible exactly when it is normal.  The only ambiguities
of two-letter rules are overlaps ``xyz`` of patterns ``xy`` and ``yz``;
the check normalises both one-step rewrites of each overlap and requires
the results to agree.  By Bergman's diamond lemma ("The diamond lemma for
ring theory", 1978) every word of a system that passes these checks has a
unique normal form, whatever pairs are rewritten in whatever order.

Word reduction uses that freedom: it works by insertion, and every word
it extends is normal and is extended by one letter.  A pass starts by
appending the letters of each word of its input to the empty word one at
a time, and each later step appends one letter to each normal word of the
last.  A normal word followed by a letter of at least the rank of its
last letter is normal, so its value carries over.  Otherwise the word is
a core u y x with u y normal and rank(y) > rank(x), whose only
out-of-order pair is yx: it is rewritten there once, to a sum of terms
f u w, and each term is reduced by appending the letters of w to u one
at a time, normalising after each.  So every word the reduction needs
(through the table of its core, below) is again a normal word N followed
by one letter l, and no word is scanned for its out-of-order pair.
These needs have no cycle: N l is strictly deglex-smaller than the word
being reduced.  N is a word of the normal form of a prefix P of u w,
so N <= P, and N l <= P l, which is again a prefix of u w; a proper
prefix is shorter, and u w itself is smaller than u y x because the
rule shrinks in deglex.  Since deglex is a well-order, the reduction
ends.  The needs of one word may nest as deep as the word is long, so
they are walked on an explicit stack of suspended reductions, not by
recursion.  Each insertion step is made in line by the insertion, with
no generator of its own.

A prefix can be inert for the letter x being appended.  Let t(x) be the
lowest rank that a rewrite of a word whose letters rank at least rank(x)
can bring in: from t = rank(x), t is lowered while a rule whose pattern
letters both rank at least t brings in a letter ranked below t.  The
letters ranked at least t(x) are then closed under the rules.  A normal
word w before x splits into a prefix P of letters ranked at most t(x) and
a rest whose letters, like x, rank above or at t(x); every word that a
rewrite of the rest followed by x reaches keeps letters ranked at least
t(x), so its junction with P stays in order, and since every pattern
``xy`` has rank(x) > rank(y), no pattern starts inside P.  By unique
normal forms, normalize(P·X) = P·normalize(X) for the core X = rest·x,
and the engine reduces only the core.  One pass computes the
normal forms of p, p s, p s^2, ... for a sum s of letters, with one table
from each core to its reduction for all of its steps and for the
insertions within each reduction, so each core is reduced once per pass
at each width (below); no table outlives its pass.
:func:`normalize` is the first step of a pass with no letters.  This
module is the whole oracle route: no other module sees a packed value.

The grade of a word is g(w) = count(first) - count(last), for the first
and last letters of the normal order, and tau reverses a word and swaps
those two letters.  tau maps g to -g and reverses the normal order, so it
maps normal words to normal words, and it is an anti-automorphism of the
free algebra: tau(u v) = tau(v) tau(u).  A system has a mirror when tau
maps each rule to a rule with an equal coefficient and every rule keeps
the grade; the four built-in systems have one, derived and checked when
each is built.  Then tau maps the ideal of the rules to itself, so by
unique normal forms normalize(tau(p)) = tau(normalize(p)), and the normal
form of a word w x has only words of grade g(w) + g(x).  A pass of c s,
for one coefficient c and s the sum of distinct letters closed under tau,
has tau-invariant steps c s^(n+1).  So each of its steps after the first
is a half step: it multiplies only the pairs (w, x) with g(w) + g(x) <= 0,
and the pass keeps only the words these make, those of grade <= 0.  A
letter has grade -1, 0 or 1, so of the words of grade > 0 only those of
grade 1 take a letter, those of grade -1, and the next step makes each of
them as the mirror of a kept word of grade -1, with that word's packed
value; no other mirror is made inside the pass.  A caller that reads a
step fills it first: each kept word of grade < 0 gives its packed value to
its mirror.  A tau-invariant input is not enough: tau(p s^n) =
s^n tau(p), which is p s^n only when p commutes with s, and the inputs c
and ab + ba of System A are tau-invariant while their steps are not.
Every other pass takes full steps.

The engine computes in Z[q, 1/(1-q)], the ring of every
:class:`~qexpand.exactarith.RationalFunction`, and packs each coefficient
num/(1-q)^k by Kronecker substitution as a record (N, k, b): the integer
N = num(2^W), the exponent k, and a bound b >= ||num||_1, the sum of the
sizes of the coefficients of num.  The rules, the pass's input and every
step are packed values of this one form.  Since q -> 2^W is a ring map
from Z[q] to the integers, a product of numerators is one product of
integers, a sum one sum, and q^m a shift by mW bits; products multiply
the bounds and sums add them.  Two values over different powers of 1 - q
are added over the higher: the numerator over the lower power is
multiplied by (1-q)^d (:func:`_lift`), whose 1-norm is 2^d, so its bound
is multiplied by 2^d.  A reduced core term is stored as q^m R with
R(0) != 0, so a monomial factor costs a shift, and is tagged when R is a
q-integer [a] = 1 + q + ... + q^(a-1), the factor of every core of the
built-in systems: a product by [a] is O(log a) shifts and sums.  Every
coefficient of num is at most ||num||_1 in size, so while b < 2^(W-1)
the balanced base-2^W digits of N are exactly the coefficients of num
(see :func:`kronecker_unpack`), and N = 0 exactly when num = 0.  So
(N, k) fixes the value, and a step is decoded once per distinct pair, its
words sharing one value object: in a half step a word and its mirror
hold one packed value, so about half of a step's values repeat.  Every
decode and every zero test is made only under that check: each value of
a step, and of the sum that ends a core's reduction, is tested for zero
only after its bound is checked, which covers every partial sum because
bounds only grow as terms are added.
When a bound reaches 2^(W-1), the engine raises an internal overflow,
re-spaces the step's input and the rules to a wider W (each value's
digits copied by :func:`kronecker_respace`, with no decode), empties the
core table and redoes the step, which reduces each core it needs again at
the new width.  So the table holds the reductions of one width, and no
stored reduction is re-spaced: many of those finished before an overflow
are never read again.  A rule or input coefficient too wide for W is
packed after the same widening, which re-spaces the values packed before
it.  The bounds do not depend on W, so the redone work checks against the
same bounds.

:func:`normal_powers` takes the polynomial each step is expected to be,
and compares the step with it in packed form, word by word, with no
decode.  The two word sets must be equal.  Take a word whose step value
is (N, k, b) and whose expected value is num_f/(1-q)^k_f.  The expected
value is canonical (1 - q does not divide num_f when k_f > 0), so k_f is
the least power of 1/(1-q) it can be written over.  If k < k_f, the
values differ, for equality would make num_f = num (1-q)^(k_f-k) vanish
at q = 1.  If k >= k_f, they are equal exactly when num = num_f (1-q)^d
with d = k - k_f.  The right side is packed at the step's W and lifted
by :func:`_lift`, as in :func:`_add`, and its bound is ||num_f||_1 2^d.
When that bound is below 2^(W-1), both N and the lifted integer are
packings of polynomials whose coefficients are balanced base-2^W digits
(b < 2^(W-1) holds for every value of a step), and packing is injective
on those, so the integers are equal exactly when the values are.  For
d = 0 the bound is not needed: :func:`kronecker_pack` returns a value
only when every coefficient of num_f is such a digit.  When the lift's
bound reaches 2^(W-1), or the pack refuses a coefficient, no bound
decides the word, and the step is decoded, like every step that differs;
the caller compares decoded steps word by word, so every mismatch it
reports holds decoded values.  A step proved equal is handed back as the
expected polynomial itself.  Each distinct value object of the expected
polynomial is packed once per power of 1 - q that the step asks of it,
so a word and its mirror, which share one object, cost one pack.

This module is the only one that packs (Kronecker substitution: von zur
Gathen and Gerhard, *Modern Computer Algebra*, section 8.4), with one
byte-aligned codec on balanced base-2^W digits, W a multiple of 8:
:func:`kronecker_pack` (reading coefficients in [0, 2^63) as 64-bit
words with ``array``, one ``to_bytes`` per coefficient otherwise),
:func:`kronecker_respace` (to a wider W, by strided copies of byte
columns) and :func:`kronecker_unpack` (reading 64-bit limbs with
``array``).  Decoded results are built by
:func:`~qexpand.exactarith.over_one_minus_q`, which cancels any factor
1 - q, so they are canonical and equal to values computed any other way.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain, islice, repeat
from operator import sub
from typing import Callable, Generator, Iterable, Iterator, Optional, Sequence

from .exactarith import (
    IntPolynomial,
    RF_ONE,
    RationalFunction,
    over_one_minus_q,
    xi,
)
from .freealgebra import GENERATORS, NCPolynomial, parse_word


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
        descents = [
            x + y
            for x in normal_order
            for y in normal_order
            if self.rank[x] > self.rank[y]
        ]
        # letter of rank r -> a character that decreases with r
        self._table = str.maketrans(
            normal_order, "".join(sorted(normal_order, reverse=True))
        )
        self.rules = dict(rules)
        for pattern, replacement in self.rules.items():
            self._check_rule(pattern, replacement)
        missing = [xy for xy in descents if xy not in self.rules]
        if missing:
            raise ValueError(
                f"no rule for out-of-order pattern {', '.join(map(repr, missing))} "
                f"in system {name}"
            )
        # letter x -> the letters inert before a core ending in x
        self._inert = {x: self._inert_letters(x) for x in normal_order}
        self.mirror = self._mirror_swap()
        for xy in self.rules:
            for yz in self.rules:
                if xy[1] == yz[0]:
                    self._check_overlap(xy + yz[1])

    def order_key(self, word: str) -> tuple[int, str]:
        """Sort key under which deglex-larger words come first."""
        return (-len(word), word.translate(self._table))

    def _inert_letters(self, x: str) -> str:
        """The letters ranked at most t(x), the lowest rank that a rewrite of
        a word whose letters rank at least rank(x) can bring in: from
        t = rank(x), lower t while a rule whose pattern letters both rank at
        least t brings in a letter ranked below t."""
        rank, t = self.rank, self.rank[x]
        # (the lower rank of a pattern, a rank its replacement brings in)
        brought = [
            (min(map(rank.get, pattern)), rank[letter])
            for pattern, replacement in self.rules.items()
            for word, _ in replacement.items()
            for letter in word
        ]
        while (low := min([r for p, r in brought if p >= t], default=t)) < t:
            t = low
        return self.normal_order[: t + 1]

    def grade(self, word: str) -> int:
        """g(w): the count of the first letter of the normal order in the
        word, less the count of its last letter."""
        return word.count(self.normal_order[0]) - word.count(self.normal_order[-1])

    def _mirror_swap(self) -> Optional[dict]:
        """The ``str.translate`` table that swaps the first and last letters
        of the normal order, when tau (that swap, then the word reversed) maps
        every rule to a rule with an equal coefficient and every rule keeps
        the grade g; otherwise None.  The swap reverses the normal order, so
        tau maps normal words to normal words."""
        first, last = self.normal_order[0], self.normal_order[-1]
        swap = str.maketrans(first + last, last + first)
        for pattern, replacement in self.rules.items():
            image = NCPolynomial(
                (w.translate(swap)[::-1], c) for w, c in replacement.items()
            )
            if self.rules.get(pattern.translate(swap)[::-1]) != image or any(
                self.grade(w) != self.grade(pattern) for w, _ in replacement.items()
            ):
                return None
        return swap

    def _check_rule(self, pattern: str, replacement: NCPolynomial) -> None:
        parse_word(pattern)
        if len(pattern) != 2:
            raise ValueError(f"rule pattern must have two letters: {pattern!r}")
        if is_normal(pattern, self):
            raise ValueError(f"rule pattern {pattern!r} is already normal")
        bound = self.order_key(pattern)
        for word, _ in replacement.items():
            if self.order_key(word) <= bound:
                raise ValueError(
                    f"replacement word {word!r} does not shrink pattern "
                    f"{pattern!r} in the deglex order"
                )

    def _check_overlap(self, word: str) -> None:
        via_left = normalize(NCPolynomial(_apply_at(word, 0, self.rules)), self)
        if via_left != normalize(NCPolynomial(_apply_at(word, 1, self.rules)), self):
            raise ValueError(
                f"overlap {word!r} has two normal forms in system {self.name}"
            )

    def __repr__(self) -> str:
        return f"RelationSystem({self.name!r})"


def is_normal(word: str, system: RelationSystem) -> bool:
    """True iff the word's letter ranks are non-decreasing left to right."""
    rank = system.rank
    return all(rank[x] <= rank[y] for x, y in zip(word, word[1:]))


def _apply_at(word: str, i: int, rules: dict[str, NCPolynomial]) -> list:
    """The (word, coefficient) terms of one rewrite of the pair at index i."""
    prefix, suffix = word[:i], word[i + 2 :]
    return [(prefix + w + suffix, c) for w, c in rules[word[i : i + 2]].items()]


def _bias(count: int, bits: int) -> int:
    """The sum of 2**(bits-1) * 2**(bits*i) over i < count."""
    return int.from_bytes((b"\0" * (bits // 8 - 1) + b"\x80") * count, "little")


def kronecker_pack(cs: Sequence[int], bits: int) -> int:
    """The value at q = 2**bits of the polynomial with coefficients cs.

    ``bits`` is a multiple of 8 and every coefficient must lie in
    [-2**(bits-1), 2**(bits-1)); OverflowError when one does not, so a
    value returned is always the packing of cs.  From 64 bits up,
    coefficients in [0, 2**63) are read by ``array`` as unsigned 64-bit
    words, which are then the digits at 64 bits (``array`` refuses a
    negative coefficient or one of 64 bits, and the mask of the words' top
    bits shows one of 63), and :func:`kronecker_respace` moves the value
    to ``bits``.  Otherwise a bias of 2**(bits-1) makes each coefficient a
    nonnegative ``bits``-bit digit, one ``to_bytes`` each, so the digits
    pack with one ``int.from_bytes``; the biases are subtracted again as
    one integer.
    """
    if bits >= 64:
        try:
            words = array("Q", cs)
        except OverflowError:
            pass
        else:
            if sys.byteorder == "big":
                words.byteswap()
            value = int.from_bytes(words, "little")
            if not value & _bias(len(words), 64):
                return kronecker_respace(value, 64, bits) if bits > 64 else value
    width, half = bits // 8, 1 << (bits - 1)
    digits = b"".join([(c + half).to_bytes(width, "little") for c in cs])
    return int.from_bytes(digits, "little") - _bias(len(cs), bits)


_SIGN_FILL = bytes(128) + b"\xff" * 128  # top byte -> its sign extension


def _respaced_digits(value: int, old: int, new: int) -> bytes:
    """The balanced base-2**old digits of ``value`` as little-endian new-bit
    two's complements (multiples of 8, new >= old): one ``(v + B) ^ B``, B
    the bias at ``old``, then one strided slice assignment per byte column,
    the sign byte filling the new top bytes.  A polynomial of d coefficients
    in [-2**(old-1), 2**(old-1)) has a value at least 2**(old*(d-1)) / 3 in
    size, so d <= ``count``."""
    src, dst, count = old // 8, new // 8, abs(value).bit_length() // old + 2
    bias = _bias(count, old)
    data = ((value + bias) ^ bias).to_bytes(count * src, "little")
    if dst == src:
        return data
    out = bytearray(count * dst)
    for j in range(src):
        out[j::dst] = data[j::src]
    sign = data[src - 1 :: src].translate(_SIGN_FILL)
    for j in range(src, dst):
        out[j::dst] = sign
    return out


def kronecker_respace(value: int, old: int, new: int) -> int:
    """The value at q = 2**new of the polynomial whose value at q = 2**old
    is ``value``, for multiples of 8 with new >= old; every coefficient
    must lie in [-2**(old-1), 2**(old-1)), which the caller must know from
    a bound.  The digits move as bytes, in O(new/8) Python operations."""
    data = _respaced_digits(value, old, new)
    bias = _bias(len(data) * 8 // new, new)
    return (int.from_bytes(data, "little") ^ bias) - bias


def kronecker_unpack(value: int, bits: int) -> tuple[int, ...]:
    """The coefficients, with no trailing zero, of the polynomial whose
    value at q = 2**bits is ``value``: its balanced base-2**bits digits.

    The result is that polynomial only when each of its coefficients lies
    in [-2**(bits-1), 2**(bits-1)); the caller must know this from a bound.
    The digits are re-spaced to the next multiple W of 64 bits as
    little-endian two's complements, and ``array`` reads them as W/64
    64-bit limbs each (swapped on a big-endian machine): the top limb
    signed, the lower ones unsigned, joined by ``h << 64 | l``.
    """
    limbs = -(-bits // 64)
    data = _respaced_digits(value, bits, 64 * limbs)
    words = [array("q", data)]
    if limbs > 1:
        words.append(array("Q", data))
    if sys.byteorder == "big":
        for a in words:
            a.byteswap()
    out = (words[0] if limbs == 1 else words[0][limbs - 1 :: limbs]).tolist()
    for j in range(limbs - 2, -1, -1):
        out = [h << 64 | l for h, l in zip(out, words[1][j::limbs].tolist())]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


# A packed value (N, k, b) stands for num/(1-q)^k with N = num(2^W) and
# b >= ||num||_1; a stored core factor (mW, R, k, b, a) for q^m R/(1-q)^k
# alike, with a tag a > 0 exactly when R is the q-integer
# [a] = 1 + q + ... + q^(a-1).
_START_BITS = 64


class _Overflow(Exception):
    """A bound reached 2^(W-1): values packed at width W may no longer be
    decoded or tested for zero."""

    def __init__(self, bound: int):
        super().__init__(bound)
        self.bound = bound


def _lift(n: int, d: int, bits: int) -> int:
    """The packed numerator n multiplied by (1-q)^d at width W = ``bits``,
    one shift-subtraction per power; (1-q)^d has 1-norm 2^d, so a bound of
    n times 2^d bounds the product."""
    for _ in range(d):
        n -= n << bits
    return n


def _add(terms: dict, word: str, n: int, k: int, b: int, bits: int) -> None:
    """Add the packed value (n, k, b) to the term of word, over the higher
    of the two powers of 1 - q.  A sum that is zero stays in ``terms``."""
    old = terms.get(word)
    if old is not None:
        n0, k0, b0 = old
        if k0 < k:
            n0, k0, b0, n, k, b = n, k, b, n0, k0, b0
        if k0 > k:
            n, b = _lift(n, k0 - k, bits), b << k0 - k
        n, k, b = n0 + n, k0, b0 + b
    terms[word] = (n, k, b)


def _respaced(terms: dict, old: int, new: int) -> dict:
    """The packed values ``terms`` moved from width ``old`` to ``new``."""
    return {w: (kronecker_respace(n, old, new), k, b) for w, (n, k, b) in terms.items()}


class _Cores:
    """The packed rules of one system and its table of core reductions, at
    one width W = ``bits``, which only this class changes; one instance
    serves one :func:`_power_pass`.  Each rule is the packed values of its
    replacement's words, values of the same form as a step's terms, and is
    re-spaced with them."""

    def __init__(self, system: RelationSystem):
        self.system = system
        self.bits = _START_BITS
        self.table: dict[str, list] = {}
        self.rules: dict[str, dict] = {}
        for pattern, replacement in system.rules.items():
            # pack may widen, which replaces self.rules: look it up after
            self.rules[pattern] = self.pack(replacement)

    def widen(self, bound: int, terms: dict) -> dict:
        """Move to a width at least ``_START_BITS`` whose 2^(W-1) exceeds
        ``bound`` by a margin: re-space the rules and the packed values
        ``terms``, return the new terms, and empty the table, so that each
        core is reduced again at the new width when a step needs it."""
        old = self.bits
        need = bound.bit_length() + 1
        self.bits = bits = max(_START_BITS, 8 * ((need + need // 8) // 8 + 1))
        self.rules = {p: _respaced(r, old, bits) for p, r in self.rules.items()}
        self.table = {}
        return _respaced(terms, old, bits)

    def pack(self, p: NCPolynomial) -> dict:
        """The packed values of the terms of p, widening first if one of
        their bounds does not fit."""
        bounds = {w: sum(map(abs, c.num.coeffs)) for w, c in p.items()}
        bound = max(bounds.values(), default=0)
        if bound >> (self.bits - 1):
            self.widen(bound, {})
        return {
            w: (kronecker_pack(c.num.coeffs, self.bits), c.k, bounds[w])
            for w, c in p.items()
        }

    def run(
        self, step: Callable[[dict], Generator[str, None, dict]], terms: dict
    ) -> dict:
        """The value of the step generator ``step(terms)`` (see
        :func:`_normalize_step`), for the packed values ``terms``.

        Each core it asks for is reduced by a generator of its own, on an
        explicit stack, and stored in the table before the one that asked
        resumes; so no word is too long for the recursion limit.  On an
        overflow the terms are widened and the step is built on them again
        and redone, until it fits."""
        while True:
            stack = [(None, step(terms))]
            try:
                while True:
                    core, top = stack[-1]
                    try:
                        need = next(top)
                    except StopIteration as done:
                        stack.pop()
                        if not stack:
                            return done.value
                        self.table[core] = done.value
                    else:
                        stack.append((need, _reduce_word(need, self)))
            except _Overflow as err:
                terms = self.widen(err.bound, terms)


def _decode(terms: dict, bits: int) -> NCPolynomial:
    """The polynomial of packed values word -> (N, k, b) at a width of
    ``bits``, each with b < 2^(bits-1) and N != 0.

    Under the bound, N fixes the numerator and (N, k) the value, whatever
    b is, so each distinct pair is decoded once and its words share one
    value object."""
    values: dict = {}
    out: dict = {}
    for w, (n, k, _) in terms.items():
        value = values.get((n, k))
        if value is None:
            value = values[n, k] = over_one_minus_q(kronecker_unpack(n, bits), k)
        out[w] = value
    return NCPolynomial._from_reduced(out)


def _normalize_step(
    pairs: Iterable[tuple], cores: _Cores
) -> Generator[str, None, dict]:
    """The packed normal form of the sum of v * w x over the triples (w, v,
    xs) of ``pairs``, w a normal word, v a packed value and x each letter
    of xs, zero terms dropped; _Overflow when a bound reaches 2^(W-1).  A
    word w x whose last pair is in order is normal, so its value carries
    over; otherwise the prefix of w ranked at most t(x) is inert (see
    :meth:`RelationSystem._inert_letters`) and the rest of w x is a core.
    The letters ranked at least t(x) are closed under the rules, so every
    word that a rewrite of the core reaches keeps them and stays in order
    after the prefix, and by unique normal forms normalize(P core) =
    P normalize(core).

    Every rule of a system with a mirror keeps the grade g, so the normal
    form of w x has only words of grade g(w) + g(x): a half step of
    :func:`_power_pass` leaves out each pair with g(w) + g(x) > 0, and its
    words of grade <= 0 are still exact.

    A generator for :meth:`_Cores.run`: it yields each core that the table
    lacks, resumes once that core is stored, and returns the normal form."""
    rank, inert = cores.system.rank, cores.system._inert
    table, bits = cores.table, cores.bits
    total: dict = {}
    for word, (n, k, b), letters in pairs:
        for x in letters:
            if not word or rank[word[-1]] <= rank[x]:
                _add(total, word + x, n, k, b, bits)
                continue
            rest = word.lstrip(inert[x])
            prefix, core = word[: len(word) - len(rest)], rest + x
            reduced = table.get(core)
            if reduced is None:
                yield core
                reduced = table[core]
            _times_core(total, prefix, reduced, n, k, b, bits)
    return _checked(total, bits)


def _times_core(
    total: dict, prefix: str, reduced: list, n: int, k: int, b: int, bits: int
) -> None:
    """Add to ``total`` the packed value (n, k, b) times each term of the
    stored reduction ``reduced`` of a core, its word after ``prefix``: the
    one loop that applies a core's factors, for :func:`_normalize_step` and
    for the steps that :func:`_insert` makes itself."""
    for w, (shift, r, kr, br, a) in reduced:
        if a == 1:  # [1] = 1: a monomial factor costs its shift alone
            product = n << shift
        else:
            product = (_times_q_int(n, a, bits) if a else n * r) << shift
        _add(total, prefix + w, product, k + kr, b * br, bits)


def _insert(items: Iterable[tuple], cores: _Cores) -> Generator[str, None, dict]:
    """The packed normal form of the sum of v * u x over the triples (u, v,
    x) of ``items``, u a normal word, v a packed value and x a word, zero
    terms dropped: the letters of x are appended to u one at a time, each
    step made here as :func:`_normalize_step` makes a step, with no
    generator of its own, and checked by :func:`_checked`."""
    rank, inert = cores.system.rank, cores.system._inert
    table, bits = cores.table, cores.bits
    total: dict = {}
    for u, value, x in items:
        terms = {u: value}
        for letter in x:
            step: dict = {}
            for word, (n, k, b) in terms.items():
                if not word or rank[word[-1]] <= rank[letter]:
                    _add(step, word + letter, n, k, b, bits)
                    continue
                rest = word.lstrip(inert[letter])
                prefix, core = word[: len(word) - len(rest)], rest + letter
                reduced = table.get(core)
                if reduced is None:
                    yield core
                    reduced = table[core]
                _times_core(step, prefix, reduced, n, k, b, bits)
            terms = _checked(step, bits)
        for w, (n, k, b) in terms.items():
            _add(total, w, n, k, b, bits)
    return _checked(total, bits)


def _reduce_word(word: str, cores: _Cores) -> Generator[str, None, list]:
    """The normal form of a core u y x, with u y normal and rank(y) >
    rank(x), as (normal word, packed factor) terms: the pair yx is
    rewritten once, and each word it produces is inserted after u."""
    bits, u = cores.bits, word[:-2]
    items = [(u, value, w) for w, value in cores.rules[word[-2:]].items()]
    total = yield from _insert(items, cores)
    reduced = []
    for w, (n, k, b) in total.items():
        # n = 2^(mW) R(2^W) with 0 < |R(0)| < 2^(W-1), so m = v2(n) // W
        shift = ((n & -n).bit_length() - 1) // bits * bits
        r = n >> shift
        # R(2^W) (2^W - 1) + 1 is 2^(aW) exactly when R = [a]: packing is
        # injective under the bound, and 2^W - 1 divides 2^e - 1 iff W | e
        tag = (r << bits) - r + 1
        a = (tag.bit_length() - 1) // bits if tag & (tag - 1) == 0 else 0
        reduced.append((w, (shift, r, k, b, a)))
    return reduced


def _times_q_int(n: int, a: int, bits: int) -> int:
    """n times the q-integer [a] packed at width W = ``bits``, by doubling:
    n[2m] = n[m] + (n[m] << mW) and n[m+1] = n + (n[m] << W)."""
    x, m = n, 1
    for bit in bin(a)[3:]:
        x += x << m * bits
        m += m
        if bit == "1":
            x = n + (x << bits)
            m += 1
    return x


def _checked(terms: dict, bits: int) -> dict:
    """The packed values ``terms`` with the zero ones dropped; _Overflow,
    with the largest bound, when a bound reaches 2^(bits-1).  Each value
    is tested for zero only after its own bound is checked."""
    out = {}
    for w, v in terms.items():
        if v[2] >> (bits - 1):
            raise _Overflow(max(v[2] for v in terms.values()))
        if v[0]:
            out[w] = v
    return out


def _half_step(p: NCPolynomial, letters: str, system: RelationSystem) -> bool:
    """True when every step of the pass of p is tau-invariant, so that its
    words of grade > 0 may be copied from their mirrors: the system has a
    mirror, the letters are distinct and closed under it, and p is c s for
    one coefficient c, s the sum of the letters.

    tau is an anti-automorphism: tau(p s^n) = tau(s)^n tau(p).  With
    tau(s) = s that is s^n tau(p), which equals p s^n when p commutes with
    s, not whenever tau(p) = p.  A tau-invariant p such as c or ab + ba in
    System A gives steps that are not tau-symmetric, so this guard asks for
    c s itself: c s^(n+1) is tau-invariant, and tau maps each rule to a
    rule and normal words to normal words, so by unique normal forms the
    normal form of c s^(n+1) is tau-invariant too."""
    swap = system.mirror
    return (
        swap is not None
        and sorted(p.words()) == sorted(letters)
        and set(letters.translate(swap)) == set(letters)
        and len({c for _, c in p.items()}) <= 1
    )


def _filled(terms: dict, lower: dict, system: RelationSystem) -> dict:
    """The step ``terms`` with each word w of ``lower`` giving its packed
    value to its mirror tau(w), the word reversed with the first and last
    letters of the normal order swapped, whose grade is -g(w) > 0."""
    if not lower:
        return terms
    swap = system.mirror
    return terms | {w.translate(swap)[::-1]: terms[w] for w in lower}


def _power_pass(
    p: NCPolynomial, letters: str, system: RelationSystem
) -> Iterator[tuple[dict, int, dict]]:
    """The packed normal forms of p, p s, p s^2, ..., s the sum of the
    letters, each with its width and the words of grade < 0 whose mirrors
    :func:`_filled` adds to it: the first step inserts each word of p letter
    by letter after the empty word, and each later one appends to each word
    of the last the letters it takes, in a full step all of them.
    :meth:`_Cores.run` redoes a step that overflows on its input widened,
    whose words keep their order, and so their letters.

    When :func:`_half_step` shows every step tau-invariant, each step after
    the first is a half step, and the pass keeps only the words it
    computes, those of grade <= 0; a caller fills in the rest.  tau maps g
    to -g, so each word of grade > 0 is the mirror of a word kept, and a
    mirror that is absent is zero.  A word of grade g takes the letters x
    with g + g(x) <= 0, and the grade of a letter is -1, 0 or 1: a word of
    grade 1 takes the letters of grade -1, and one of grade 2 or more none.
    So the next step also extends the mirror of each word of grade -1 kept,
    with the value that it reads from its input, re-spaced when the step is
    redone wider, and makes no other mirror.  Each grade is counted once."""
    cores = _Cores(system)
    terms = cores.run(
        lambda t: _insert((("", v, w) for w, v in t.items()), cores), cores.pack(p)
    )
    grade, swap = system.grade, system.mirror
    first, last = system.normal_order[0], system.normal_order[-1]
    taken = {g: "".join(x for x in letters if grade(x) <= -g) for g in (-1, 0, 1)}
    half, takes, lower = _half_step(p, letters, system), repeat(letters), {}
    if half:
        takes = [taken[grade(w)] for w in terms]  # the words of c s are letters

    def step(t: dict) -> Generator[str, None, dict]:
        ones = (w for w, g in lower.items() if g == -1)
        ups = ((w.translate(swap)[::-1], t[w], taken[1]) for w in ones)
        return _normalize_step(chain(zip(t, t.values(), takes), ups), cores)

    while True:
        yield terms, cores.bits, lower
        terms = cores.run(step, terms)
        if half:
            firsts = map(str.count, terms, repeat(first))
            grades = list(map(sub, firsts, map(str.count, terms, repeat(last))))
            takes = [taken[max(g, -1)] for g in grades]
            lower = {w: g for w, g in zip(terms, grades) if g < 0}


def _packed_over(value: RationalFunction, k: int, bits: int) -> Optional[int]:
    """The numerator of ``value`` written over (1-q)^k, packed at width W =
    ``bits`` under a bound below 2^(W-1); None when k is below the power of
    the canonical ``value``, so that no such numerator exists, or when no
    bound decides.  Over a power d higher, the numerator is multiplied by
    (1-q)^d by :func:`_lift`, with its bound ||num||_1 2^d."""
    cs, d = value.num.coeffs, k - value.k
    if d < 0 or (d and sum(map(abs, cs)) << d >> (bits - 1)):
        return None
    try:
        n = kronecker_pack(cs, bits)
    except OverflowError:
        return None
    return _lift(n, d, bits)


def _proven_equal(terms: dict, bits: int, expected: NCPolynomial) -> bool:
    """True when the packed step ``terms`` at width ``bits`` is proven equal
    to ``expected``, word by word in packed form; False when the two differ
    or when no bound decides.  Each distinct value object of ``expected``
    is packed once per power of 1 - q that the step asks of it."""
    if len(terms) != len(expected):
        return False
    packed: dict = {}
    for word, value in expected.items():
        if word not in terms:
            return False
        n, k, _ = terms[word]
        key = id(value), k  # expected keeps every value alive: ids are distinct
        if key not in packed:
            packed[key] = _packed_over(value, k, bits)
        if packed[key] != n:  # None, undecided, is equal to no N
            return False
    return True


def normal_powers(
    p: NCPolynomial,
    letters: str,
    expected: Iterable[NCPolynomial],
    system: RelationSystem,
) -> Iterator[NCPolynomial]:
    """The normal forms of p, p s, p s^2, ..., s the sum of the letters, one
    per polynomial of ``expected``, from one pass: each step is filled from
    its mirrors (:func:`_filled`) and then compared, a step proven equal to
    its expected polynomial in packed form is that polynomial itself, and
    any other step, one that differs or that no bound decides, is
    decoded."""
    for want, (terms, bits, lower) in zip(expected, _power_pass(p, letters, system)):
        terms = _filled(terms, lower, system)
        yield want if _proven_equal(terms, bits, want) else _decode(terms, bits)


def normal_power(
    p: NCPolynomial, letters: str, n: int, system: RelationSystem
) -> NCPolynomial:
    """The normal form of p s^n, s the sum of the letters, from one pass
    that fills from its mirrors (:func:`_filled`) and decodes only its last
    step."""
    terms, bits, lower = next(islice(_power_pass(p, letters, system), n, None))
    return _decode(_filled(terms, lower, system), bits)


def normalize(p: NCPolynomial, system: RelationSystem) -> NCPolynomial:
    """The normal form of p: every word rewritten to a combination of
    normal words, extended linearly over the terms of p."""
    return normal_power(p, "", 0, system)


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
