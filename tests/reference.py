"""The tests' own ring arithmetic, written with no import from qexpand.

The package checks its two routes against each other; the tests check
both against expected values built here, so a fault in the package's
arithmetic cannot cancel out of a comparison.  Every value is a plain
tuple, pair or dict:

- Z[q]: a tuple of ints in ascending degree with no trailing zero; ``()``
  is zero.
- Z[q, 1/(1-q)]: a pair ``(num, k)``, the value num/(1-q)^k, in canonical
  form: 1 - q does not divide num when k > 0, and zero is ``((), 0)``.
  Since 1 - q is prime in Z[q], equal values are equal pairs.
- The free algebra on a, b, c: a dict from word to a nonzero value of
  Z[q, 1/(1-q)]; ``""`` is the identity word.

``tests/conftest.py`` converts at the boundary with the package's public
constructors.  The canonical form divides 1 - q out by long division, not
by the package's running sums, and products are schoolbook loops, written
here again, with no packing.
"""

import heapq
from functools import lru_cache

# Z[q]


def trim(cs):
    """The coefficients cs as a tuple with no trailing zero."""
    cs = tuple(cs)
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return cs[:n]


def add(x, y):
    if len(x) < len(y):
        x, y = y, x
    out = list(x)
    for i, c in enumerate(y):
        out[i] += c
    return trim(out)


def neg(x):
    return tuple(-c for c in x)


def mul(x, y):
    if not x or not y:
        return ()
    out = [0] * (len(x) + len(y) - 1)
    terms = [(j, b) for j, b in enumerate(y) if b]
    for i, a in enumerate(x):
        if a:
            for j, b in terms:
                out[i + j] += a * b
    return tuple(out)


@lru_cache(maxsize=None)
def power(x, e):
    out = (1,)
    for _ in range(e):
        out = mul(out, x)
    return out


def monomial(degree, coeff=1):
    """coeff q^degree."""
    return trim((0,) * degree + (coeff,))


def exact_div(x, y):
    """x / y by long division; ValueError unless y divides x in Z[q]."""
    if not y:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(x)
    out = [0] * max(len(x) - len(y) + 1, 0)
    for i in reversed(range(len(out))):
        c, r = divmod(rem[i + len(y) - 1], y[-1])
        if r:
            raise ValueError("not an exact divisor")
        out[i] = c
        for j, b in enumerate(y):
            rem[i + j] -= c * b
    if any(rem):
        raise ValueError("not an exact divisor")
    return tuple(out)


def q_int(m, s=1):
    """[m] in base q^s: 1 + q^s + ... + q^((m-1)s)."""
    if not m:
        return ()
    return tuple(0 if i % s else 1 for i in range(s * (m - 1) + 1))


def product(factors):
    out = (1,)
    for x in factors:
        out = mul(out, x)
    return out


@lru_cache(maxsize=None)
def q_factorial(n, s=1):
    """[1][2]...[n] in base q^s."""
    return product(q_int(m, s) for m in range(1, n + 1))


# Z[q, 1/(1-q)]

ONE_MINUS_Q = (1, -1)
ZERO = ((), 0)
ONE = ((1,), 0)
XI = ((0, 1, 1), 1)  # (q + q^2)/(1 - q)


def frac(num, k=0):
    """The canonical pair of num/(1-q)^k."""
    num = trim(num)
    if not num:
        return ZERO
    while k and not sum(num):  # q = 1 is a root: 1 - q divides num
        num = exact_div(num, ONE_MINUS_Q)
        k -= 1
    return num, k


def published(data):
    """The value of the published JSON form {"num": [...], "den": [...]}:
    num over (q-1)^k, with decimal-string coefficients in ascending degree;
    ValueError for any other denominator."""
    num, den = (tuple(int(c) for c in data[part]) for part in ("num", "den"))
    k = len(den) - 1
    if den != power((-1, 1), k):
        raise ValueError(f"{den} is not (q-1)^{k}")
    return frac(neg(num) if k % 2 else num, k)


def q_power(k):
    """q^k as a value of the ring."""
    return monomial(k), 0


def frac_add(x, y):
    (a, ka), (b, kb) = x, y
    if ka < kb:
        a = mul(a, power(ONE_MINUS_Q, kb - ka))
    elif kb < ka:
        b = mul(b, power(ONE_MINUS_Q, ka - kb))
    return frac(add(a, b), max(ka, kb))


def frac_mul(x, y):
    return frac(mul(x[0], y[0]), x[1] + y[1])


def frac_sum(*terms):
    out = ZERO
    for x in terms:
        out = frac_add(out, x)
    return out


def frac_product(*factors):
    out = ONE
    for x in factors:
        out = frac_mul(out, x)
    return out


# the free algebra


def nc(terms):
    """The element sum c w over an iterable of (word, value) pairs."""
    out = {}
    for word, coeff in terms:
        total = frac_add(out.get(word, ZERO), coeff)
        if total == ZERO:
            out.pop(word, None)
        else:
            out[word] = total
    return out


def published_terms(items):
    """The element of the published JSON form, a list of {"word", "coeff"}
    items; ValueError for a repeated word or a zero coefficient."""
    out = {item["word"]: published(item["coeff"]) for item in items}
    if len(out) != len(items) or ZERO in out.values():
        raise ValueError("a word is repeated or has the coefficient zero")
    return out


def nc_add(x, y):
    return nc([*x.items(), *y.items()])


def nc_mul(x, y):
    return nc((u + v, frac_mul(c, d)) for u, c in x.items() for v, d in y.items())


# references for the rewrite engine and the recurrences


def reduce_randomly(p, rules, rank, rng):
    """A normal form of p reached by rewriting a random out-of-order pair
    of each pending word.

    ``rules`` maps each two-letter pattern to its replacement and ``rank``
    each letter to its place in the normal order, both in the form of this
    module.  The deglex-largest pending word is rewritten first.  Every
    rule shrinks in deglex, so no later rewrite adds to that word, and
    each word is rewritten once.  It multiplies its coefficients by the
    schoolbook product of this module at every size, so it shares no code
    with the rewrite engine, which packs its coefficients, or with the
    package's arithmetic.
    """
    pending = {}
    heap = []

    def push(word, coeff):
        if word not in pending:
            heapq.heappush(heap, ((-len(word), [-rank[x] for x in word]), word))
        pending[word] = frac_add(pending.get(word, ZERO), coeff)

    for word, coeff in p.items():
        push(word, coeff)
    normal = []
    while heap:
        word = heapq.heappop(heap)[1]
        coeff = pending.pop(word)
        positions = [
            i for i in range(len(word) - 1) if rank[word[i]] > rank[word[i + 1]]
        ]
        if not positions:
            normal.append((word, coeff))
            continue
        i = rng.choice(positions)
        prefix, suffix = word[:i], word[i + 2 :]
        for w, c in rules[word[i : i + 2]].items():
            push(prefix + w + suffix, frac_mul(coeff, c))
    return nc(normal)


def _shifted_q_int(shift, m, s=1):
    """q^shift [m] in base q^s, as a value of Z[q, 1/(1-q)]."""
    return mul(monomial(shift), q_int(m, s)), 0


def a_word_times_b(alpha, beta, gamma):
    """The normal form of b^alpha c^beta a^gamma b in System A, from
    a b = q b a + c, c b = q^2 b c and a c = q^2 c a:
    q^(gamma + 2 beta) b^(alpha+1) c^beta a^gamma
    + q^(gamma-1) [gamma] b^alpha c^(beta+1) a^(gamma-1)."""
    terms = {"b" * (alpha + 1) + "c" * beta + "a" * gamma: q_power(gamma + 2 * beta)}
    if gamma:
        word = "b" * alpha + "c" * (beta + 1) + "a" * (gamma - 1)
        terms[word] = _shifted_q_int(gamma - 1, gamma)
    return terms


def b_word_times(x, alpha, beta, gamma):
    """The normal form of c^alpha b^beta a^gamma x in System B, for x = b
    or c, from a b = q^2 b a, b c = q^2 c b and a c = q^2 c a + xi b^2:
    q^(2 gamma) c^alpha b^(beta+1) a^gamma for x = b, and for x = c
    q^(2 gamma + 2 beta) c^(alpha+1) b^beta a^gamma
    + xi q^(2 gamma - 2) [gamma]_(q^2) c^alpha b^(beta+2) a^(gamma-1)."""
    if x == "b":
        return {"c" * alpha + "b" * (beta + 1) + "a" * gamma: q_power(2 * gamma)}
    terms = {"c" * (alpha + 1) + "b" * beta + "a" * gamma: q_power(2 * (gamma + beta))}
    if gamma:
        word = "c" * alpha + "b" * (beta + 2) + "a" * (gamma - 1)
        terms[word] = frac_mul(XI, _shifted_q_int(2 * (gamma - 1), gamma, 2))
    return terms


def a_power_b_power(m, n):
    """The normal form of a^m b^n in System A, from a recurrence on m.

    a b^t = q^t b^t a + q^(t-1)[t] b^(t-1) c and a c^j = q^(2j) c^j a, so
    if a^m b^n is the sum of C(m, j) b^(n-j) c^j a^(m-j) over j, then
    C(m+1, j) = q^(n+j) C(m, j) + q^(n-j)[n-j+1] C(m, j-1)."""
    column = [ONE]
    for _ in range(m):
        previous, column = column, []
        for j in range(min(len(previous), n) + 1):
            c = frac_mul(q_power(n + j), previous[j]) if j < len(previous) else ZERO
            if j:
                step = frac(mul(monomial(n - j), q_int(n - j + 1)))
                c = frac_add(c, frac_mul(step, previous[j - 1]))
            column.append(c)
    return nc(
        ("b" * (n - j) + "c" * j + "a" * (m - j), c) for j, c in enumerate(column)
    )


def _at(theta, alpha, beta, gamma):
    """theta at the indices, or zero when any index is negative."""
    return theta(alpha, beta, gamma) if min(alpha, beta, gamma) >= 0 else ZERO


def reference_a(theta, alpha, beta, gamma):
    """The right side of the System A recurrence, a sum of products, for a
    family ``theta`` that gives values of this module."""
    return frac_sum(
        _at(theta, alpha, beta, gamma - 1),
        frac_mul(q_power(gamma + 2 * beta), _at(theta, alpha - 1, beta, gamma)),
        frac_product(
            q_power(gamma),
            frac(q_int(gamma + 1)),
            _at(theta, alpha, beta - 1, gamma + 1),
        ),
    )


def reference_b(theta, alpha, beta, gamma):
    """The right side of the System B recurrence, a sum of products, for a
    family ``theta`` that gives values of this module."""
    return frac_sum(
        _at(theta, alpha, beta, gamma - 1),
        frac_mul(q_power(2 * gamma), _at(theta, alpha, beta - 1, gamma)),
        frac_mul(q_power(2 * gamma + 2 * beta), _at(theta, alpha - 1, beta, gamma)),
        frac_product(
            XI,
            q_power(2 * gamma),
            frac(q_int(gamma + 1, 2)),
            _at(theta, alpha, beta - 2, gamma + 1),
        ),
    )
