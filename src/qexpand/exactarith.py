"""Exact arithmetic in Z[q] and in the ring Z[q, 1/(1-q)].

Two value types live here.  ``IntPolynomial`` is a dense univariate
polynomial with arbitrary-precision integer coefficients, stored in
ascending degree order with no trailing zero entry, so equal values always
have identical representations.  ``RationalFunction`` is a value
num/(1-q)**k of Z[q, 1/(1-q)] in a unique canonical form, which makes
equality a plain structural comparison.

The public ``IntPolynomial`` constructor checks every coefficient with
``operator.index`` and trims trailing zeros.  Internal operations build
their results with ``IntPolynomial._raw`` instead, which trusts its
argument to be a tuple of ints with no trailing zero, so the check runs
only on outside input.

Products use one algorithm, a schoolbook loop over the nonzero
coefficients of both operands; the ``identity`` suite's (1+q)[2i+1]_(q^2)
is the one route that calls it.  The oracle keeps its coefficients packed
and multiplies them as integers (Kronecker substitution, in
:mod:`qexpand.ordering`).  The tests build their expected values in
``tests/reference.py``, which imports nothing from this package, so no
reference shares code with either route.

The only denominator the relations bring in is that of ``xi`` =
(q+q^2)/(1-q), defined here for both routes, so every rule, every
phi_beta and every coefficient of both expansions lies in Z[q, 1/(1-q)];
phi_2i = psi(i)/(1-q)^i, for example.  Every route builds its values as
num/(1-q)^k, and the pair (num, k) is the one stored form: ``.num`` and
``.k``, with the denominator ``.den`` = (1-q)^k derived from k for
output and evaluation.  The public constructor ``RationalFunction(num,
k)`` raises TypeError unless num is an ``IntPolynomial`` value and k an
int, and ValueError for k < 0; the package builds its own values with
``over_one_minus_q(cs, k)``, which skips these checks.  Both divide the
root q = 1 out of the numerator, at most k times, by running sums; since
1 - q is prime in Z[q], the result is canonical with no gcd, exact
division or content step.  JSON is an output form only: num/(q-1)^k, so
``to_json`` negates both parts for odd k.

No route adds values, or multiplies ``RationalFunction`` values.  These
operators stay only for the benchmark harness under ``bench/``:

- ``IntPolynomial.exact_div`` and ``poly_gcd``, with the helpers of the
  gcd (``_pseudo_rem``, ``_primitive_positive``, ``content``,
  ``leading_coefficient`` and ``_scale_div``): ``bench/tracer.py`` wraps
  both by name;
- ``IntPolynomial.__add__``: ``bench/selftest.py`` adds values;
- ``RationalFunction.__add__`` (lifting the lower power of 1 - q) and
  ``__mul__`` (adding the exponents): they are the coefficient arithmetic
  of ``NCPolynomial.__mul__``, which ``bench/tracer.py`` wraps, and of the
  ``NCPolynomial`` constructor's merge of a repeated word.

All values are immutable and every operation is a pure function, so values
may be shared freely across threads and tasks.  Both value types are
``__slots__`` classes that refuse ``__setattr__``, with equality, hash,
``repr`` and ``__reduce__`` (for copy and pickle) written by hand: the
generated kind would import ``inspect``, ``ast`` and ``dis`` at start-up.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate
from math import comb
from math import gcd as _int_gcd
from operator import add, index, sub
from typing import Iterable, Iterator

_new = object.__new__


def _immutable(self, name: str, value: object = None) -> None:
    raise AttributeError(f"{type(self).__name__} values are immutable")


class IntPolynomial:
    """A polynomial in q with integer coefficients; ``coeffs[k]`` is for q**k."""

    __slots__ = ("coeffs",)
    __setattr__ = __delattr__ = _immutable

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        if type(coeffs) is not tuple or any(type(c) is not int for c in coeffs):
            coeffs = tuple(map(index, coeffs))  # TypeError for floats, strings, ...
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        _set_coeffs(self, coeffs[:n])

    @classmethod
    def _raw(cls, coeffs: tuple[int, ...]) -> IntPolynomial:
        """Internal constructor: ``coeffs`` is a tuple of ints with no trailing zero."""
        p = _new(cls)
        _set_coeffs(p, coeffs)
        return p

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(coeffs={self.coeffs!r})"

    def __reduce__(self):
        return type(self), (self.coeffs,)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def content(self) -> int:
        """Nonnegative gcd of all coefficients; 0 for the zero polynomial."""
        return reduce(_int_gcd, (abs(c) for c in self.coeffs), 0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(map(add, a, b))
        if len(a) > len(b):
            out.extend(a[len(b) :])
            return IntPolynomial._raw(tuple(out))
        return _trimmed(out)

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial._raw(tuple([-c for c in self.coeffs]))

    def __mul__(self, other: IntPolynomial) -> IntPolynomial:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if b == (1,):
            return self
        if a == (1,):
            return other
        if not a or not b:
            return ZERO
        if len(a) < len(b):
            a, b = b, a
        # the leading coefficient of a product of nonzero polynomials is nonzero
        return IntPolynomial._raw(_mul_coeffs(a, b))

    def __call__(self, point):
        """Evaluate at ``point`` by Horner's scheme; exact for int points."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def _scale_div(self, divisor: int) -> IntPolynomial:
        # internal: divisor divides every coefficient exactly
        return IntPolynomial._raw(tuple([c // divisor for c in self.coeffs]))

    def exact_div(self, divisor: IntPolynomial) -> IntPolynomial:
        """Quotient by an exact polynomial divisor; raises if it does not divide."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return ZERO
        dd = divisor.degree
        if self.degree < dd:
            raise ValueError("not an exact divisor")
        lead = divisor.coeffs[-1]
        rem = list(self.coeffs)
        out = [0] * (self.degree - dd + 1)
        for k in range(self.degree - dd, -1, -1):
            step, residue = divmod(rem[k + dd], lead)
            if residue:
                raise ValueError("not an exact divisor")
            out[k] = step
            if step:
                for j, dc in enumerate(divisor.coeffs):
                    rem[k + j] -= step * dc
        if any(rem[:dd]):
            raise ValueError("not an exact divisor")
        return IntPolynomial._raw(tuple(out))

    def to_json(self) -> list[str]:
        """Coefficients as decimal strings, ascending degree, bit-exact."""
        return [str(c) for c in self.coeffs]

    def str_parts(self) -> Iterator[str]:
        """The pieces of str(self), one per nonzero term, to be joined by ''."""
        if not self.coeffs:
            yield "0"
        first = True
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif mag == 1:
                body = "q" if k == 1 else f"q^{k}"
            else:
                body = f"{mag}q" if k == 1 else f"{mag}q^{k}"
            if first:
                yield body if c > 0 else "-" + body
                first = False
            else:
                yield ("+" if c > 0 else "-") + body

    def __str__(self) -> str:
        return "".join(self.str_parts())


# the slot's own setter, which the refusing __setattr__ does not reach
_set_coeffs = IntPolynomial.coeffs.__set__


def _trimmed(out: list[int]) -> IntPolynomial:
    while out and not out[-1]:
        out.pop()
    return IntPolynomial._raw(tuple(out))


def _mul_coeffs(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of the product of two nonzero polynomials, len(a) >= len(b)."""
    out = [0] * (len(a) + len(b) - 1)
    nonzero_b = [(j, cb) for j, cb in enumerate(b) if cb]
    for i, ca in enumerate(a):
        if ca:
            for j, cb in nonzero_b:
                out[i + j] += ca * cb
    return tuple(out)


def q_ratio(cs: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """Coefficients of cs (1 - q^a) / (1 - q^b), for coefficients cs with no
    trailing zero, a >= 0 and b >= 1; ValueError unless the quotient is a
    polynomial.

    The product is the shifted difference d_i = c_i - c_(i-a), and the
    quotient the running sums out_i = d_i + out_(i-b) along each residue
    class mod b: O(len(cs) + a + b) additions, with no division and no
    multiplication.  The top b sums are the remainder.
    """
    if b < 1:
        raise ZeroDivisionError("division by 1 - q^0")
    if a == b or not cs:
        return cs
    if a == 0:
        return ()
    pad = (0,) * a
    diffs = map(sub, cs + pad, pad + cs)
    if b == 1:
        # one lazy pass frees each difference as soon as it is summed
        out = list(accumulate(diffs))
    else:
        out = list(diffs)
        for r in range(b):
            out[r::b] = accumulate(out[r::b])
    size = len(out) - b
    if size <= 0 or any(out[size:]):
        raise ValueError(f"1 - q^{b} does not divide the product")
    del out[size:]
    return tuple(out)


def times_q_int(cs: tuple[int, ...], m: int, s: int = 1) -> tuple[int, ...]:
    """Coefficients of cs [m] in base q^s, [m] = (1 - q^(ms)) / (1 - q^s):
    the windowed prefix sum out_i = out_(i-s) + c_i - c_(i-ms)."""
    return q_ratio(cs, m * s, s)


ZERO = IntPolynomial()
ONE = IntPolynomial((1,))

@lru_cache(maxsize=None)
def _one_minus_q_power(k: int) -> IntPolynomial:
    """(1-q)**k, built on first use: coefficient i is (-1)**i C(k, i)."""
    return IntPolynomial._raw(
        tuple([-comb(k, i) if i % 2 else comb(k, i) for i in range(k + 1)])
    )


def _divide_out_root_one(
    cs: tuple[int, ...], cap: int
) -> tuple[tuple[int, ...], int]:
    """(cs / (1-q)**j, j), where j is the multiplicity of the root q = 1 of
    the polynomial cs, capped at ``cap``; the zero polynomial has j = cap."""
    if not cs:
        return cs, cap
    j = 0
    while j < cap and not sum(cs):
        # division by 1 - q: the running sums from the bottom are the
        # quotient's coefficients, and the last of them is the remainder 0
        cs = tuple(accumulate(cs))[:-1]
        j += 1
    return cs, j


def _primitive_positive(p: IntPolynomial) -> IntPolynomial:
    """The primitive associate of p with positive leading coefficient."""
    if p.is_zero():
        return ZERO
    c = p.content()
    if p.leading_coefficient() < 0:
        c = -c
    return p._scale_div(c)


def _pseudo_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    # remainder of lc(b)**k * a under division by b, with degree < degree of b;
    # works in place so monic divisors cost O(deg b) per step, not O(deg a)
    lead = b.coeffs[-1]
    bc = b.coeffs
    db = len(bc) - 1
    rem = list(a.coeffs)
    while len(rem) - 1 >= db:
        top = rem[-1]
        if top == 0:
            rem.pop()
            continue
        shift = len(rem) - 1 - db
        if lead != 1:
            for i in range(len(rem)):
                rem[i] *= lead
        for j, c in enumerate(bc):
            rem[shift + j] -= top * c
        rem.pop()  # leading entry cancelled exactly
        while rem and rem[-1] == 0:
            rem.pop()
    return IntPolynomial._raw(tuple(rem))


def poly_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Greatest common divisor, primitive with positive leading coefficient.

    Uses the primitive-remainder Euclidean sequence: contents are stripped
    after every pseudo-division, which keeps coefficient growth in check
    without any rational intermediate values.
    """
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd undefined for two zero polynomials")
    a = _primitive_positive(f)
    b = _primitive_positive(g)
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        a, b = b, _primitive_positive(_pseudo_rem(a, b))
    return a


class RationalFunction:
    """A value num/(1-q)**k of the ring Z[q, 1/(1-q)] in canonical form.

    k must be an int >= 0; the constructor raises ValueError for k < 0.
    Canonical means: 1 - q does not divide num when k > 0, and zero is 0
    with k = 0.  Since 1 - q is prime in Z[q], this form is unique.  The
    denominator ``den`` is derived from k.  ``to_json`` writes the value
    over (q-1)**k, the published form.
    """

    __slots__ = ("num", "k")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, num: IntPolynomial = ZERO, k: int = 0) -> None:
        if not isinstance(num, IntPolynomial):
            raise TypeError("num must be an IntPolynomial value")
        k = index(k)
        if k < 0:
            raise ValueError(f"negative power {k} of 1 - q")
        # cancel the multiplicity j of the root q = 1 of num
        cs, j = _divide_out_root_one(num.coeffs, k)
        _set_num(self, IntPolynomial._raw(cs) if j else num)
        _set_k(self, k - j)

    @property
    def den(self) -> IntPolynomial:
        """The denominator (1-q)**k."""
        return _one_minus_q_power(self.k)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.k == other.k and self.num == other.num
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.k))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num={self.num!r}, k={self.k!r})"

    def __reduce__(self):
        return type(self), (self.num, self.k)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __add__(self, other: RationalFunction) -> RationalFunction:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        # lift the lower power of 1 - q
        a, b = self.num, other.num
        ka, kb = self.k, other.k
        if ka < kb:
            a = a * _one_minus_q_power(kb - ka)
        elif kb < ka:
            b = b * _one_minus_q_power(ka - kb)
        return over_one_minus_q((a + b).coeffs, max(ka, kb))

    def __mul__(self, other: RationalFunction) -> RationalFunction:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return over_one_minus_q((self.num * other.num).coeffs, self.k + other.k)

    def evaluate(self, point: complex) -> complex:
        """num(point)/den(point) in complex double precision.

        Raises ZeroDivisionError only when den(point) is exactly zero.
        """
        z = complex(point)
        return complex(self.num(z)) / complex(self.den(z))

    def to_json(self) -> dict[str, list[str]]:
        """num and den over the denominator (q-1)**k."""
        num, den = self.num, self.den
        if self.k % 2:
            num, den = -num, -den
        return {"num": num.to_json(), "den": den.to_json()}

    def str_parts(self) -> Iterator[str]:
        """The pieces of str(self), to be joined by ''."""
        if not self.k:
            yield from self.num.str_parts()
            return
        yield "("
        yield from self.num.str_parts()
        yield ")/("
        yield from self.den.str_parts()
        yield ")"

    def __str__(self) -> str:
        return "".join(self.str_parts())


_set_num = RationalFunction.num.__set__
_set_k = RationalFunction.k.__set__


def over_one_minus_q(cs: tuple[int, ...], k: int) -> RationalFunction:
    """The canonical value cs / (1-q)^k, for coefficients cs with no
    trailing zero and k >= 0: the package's own constructor, which only
    divides the root q = 1 out of cs and checks nothing."""
    cs, j = _divide_out_root_one(cs, k)
    value = _new(RationalFunction)
    _set_num(value, IntPolynomial._raw(cs))
    _set_k(value, k - j)
    return value


@lru_cache(maxsize=None)
def xi() -> RationalFunction:
    """The structure constant -(1+q)^2/(q - 1/q), cleared to (q+q^2)/(1-q)."""
    return over_one_minus_q((0, 1, 1), 1)


RF_ZERO = RationalFunction()
RF_ONE = RationalFunction(ONE)
