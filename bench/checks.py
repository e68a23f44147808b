"""Checks of qexpand's outputs that do not rely on the program's own routes.

Each check returns a list of failure messages; an empty list is a pass.
The references are the paper's closed forms evaluated with the standard
library (fractions, math.factorial) and sympy's polynomial cancel, never
qexpand's formula route, rewrite engine or arithmetic.

A coefficient is a pair (num, den) of integer tuples in ascending degree,
as in qexpand's JSON.
"""

import json
from fractions import Fraction
from math import factorial, gcd, prod

# Default bounds of `qexpand verify --suite all`, from its documentation.
LEMMA1_MAX_N, LEMMA2_MAX_N = 8, 6
MAX_BETA, MAX_I = 40, 20
RECURRENCE_BOUND_A, RECURRENCE_BOUND_B = 10, 8
BINOMIAL_BOUND, MULTINOMIAL_BOUND = 12, 8


def parse_terms(terms_json):
    """word -> (num, den) from an NCPolynomial's JSON."""
    return {
        t["word"]: (
            tuple(int(c) for c in t["coeff"]["num"]),
            tuple(int(c) for c in t["coeff"]["den"]),
        )
        for t in terms_json
    }


def normal_words(system, n):
    """word -> (alpha, beta, gamma) for every normal word of degree n.

    System A: b^alpha c^beta a^gamma with alpha + 2 beta + gamma = n.
    System B: c^alpha b^beta a^gamma with alpha + beta + gamma = n.
    """
    words = {}
    if system == "A":
        for beta in range(n // 2 + 1):
            for alpha in range(n - 2 * beta + 1):
                gamma = n - 2 * beta - alpha
                words["b" * alpha + "c" * beta + "a" * gamma] = (alpha, beta, gamma)
    else:
        for alpha in range(n + 1):
            for beta in range(n - alpha + 1):
                gamma = n - alpha - beta
                words["c" * alpha + "b" * beta + "a" * gamma] = (alpha, beta, gamma)
    return words


def _at(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _value(coeff, x):
    num, den = coeff
    d = _at(den, x)
    return None if d == 0 else Fraction(_at(num, x), d)


# --- closed forms at q = 2, in exact rationals -------------------------------


def _qint(k, q):
    return sum(q**i for i in range(k))


def _qfact(k, q):
    return prod((_qint(j, q) for j in range(1, k + 1)), start=Fraction(1))


def _phi(beta, q):
    """phi_beta from its three-term recursion, with the paper's
    xi = -(1+q)^2 / (q - 1/q)."""
    xi = -((1 + q) ** 2) / (q - 1 / q)
    prev, cur = Fraction(1), Fraction(1)
    for b in range(2, beta + 1):
        prev, cur = cur, cur + xi * _qint(b - 1, q * q) * prev
    return cur


def closed_form(system, alpha, beta, gamma, q):
    """The paper's coefficient of the normal word (alpha, beta, gamma) at q."""
    q = Fraction(q)
    if system == "A":
        n = alpha + 2 * beta + gamma
        evens = prod((_qint(2 * j, q) for j in range(1, beta + 1)), start=Fraction(1))
        return _qfact(n, q) / (_qfact(alpha, q) * _qfact(gamma, q) * evens)
    n = alpha + beta + gamma
    q2 = q * q
    quotient = _qfact(n, q2) / (_qfact(alpha, q2) * _qfact(beta, q2) * _qfact(gamma, q2))
    return quotient * _phi(beta, q)


# --- checks on one expansion ------------------------------------------------


def check_word_set(system, n, terms):
    expected = set(normal_words(system, n))
    missing = sorted(expected - set(terms))
    extra = sorted(set(terms) - expected)
    msgs = [f"missing normal word {w!r}" for w in missing[:3]]
    msgs += [f"unexpected word {w!r}" for w in extra[:3]]
    return msgs


def check_nonneg_polynomial(terms):
    """System A: every coefficient is a nonzero polynomial in q with
    nonnegative integer coefficients."""
    msgs = []
    for word, (num, den) in terms.items():
        if den != (1,) or not num or min(num) < 0:
            msgs.append(f"{word!r}: not a nonzero polynomial with nonnegative coefficients")
    return msgs


def check_q1_count(n, terms):
    """System A: at q = 1 the coefficient of b^alpha c^beta a^gamma is the
    classical normal-ordering count n! / (alpha! gamma! 2^beta beta!) for
    [a, b] = c central."""
    msgs = []
    for word, (alpha, beta, gamma) in normal_words("A", n).items():
        if word not in terms:
            continue
        count = factorial(n) // (
            factorial(alpha) * factorial(gamma) * 2**beta * factorial(beta)
        )
        if _value(terms[word], 1) != count:
            msgs.append(f"{word!r}: value at q=1 is not {count}")
    return msgs


def check_q2_closed_form(system, n, terms):
    """Every coefficient, evaluated exactly at q = 2, equals the closed form."""
    msgs = []
    for word, (alpha, beta, gamma) in normal_words(system, n).items():
        if word in terms and _value(terms[word], 2) != closed_form(
            system, alpha, beta, gamma, 2
        ):
            msgs.append(f"{word!r}: value at q=2 differs from the closed form")
    return msgs


def sample_words(system, n, terms, rng, k):
    """A seeded sample of k normal words that have a coefficient."""
    words = sorted(w for w in normal_words(system, n) if w in terms)
    return rng.sample(words, min(k, len(words)))


def check_sympy(system, n, terms, words):
    """The coefficients of ``words`` equal the closed form reduced by sympy's
    polynomial cancel, and are in qexpand's canonical form: reduced, with no
    shared integer content and a positive leading denominator coefficient."""
    from sympy import Poly, Symbol

    q = Symbol("q")
    one = Poly(1, q)

    def poly(coeffs):
        return Poly(list(reversed(coeffs)) or [0], q)

    def qint(k, power=1):
        return Poly.from_dict({(i * power,): 1 for i in range(k)}, q) if k else Poly(0, q)

    def qfact(k, power=1):
        return prod((qint(j, power) for j in range(1, k + 1)), start=one)

    def phi(beta):
        # (num, den) from the recursion, cancelled at every step
        xi_num, xi_den = Poly(-((1 + q) ** 2) * q, q), Poly(q**2 - 1, q)
        prev, cur = (one, one), (one, one)
        for b in range(2, beta + 1):
            tn = xi_num * qint(b - 1, 2) * prev[0]
            td = xi_den * prev[1]
            num = cur[0] * td + tn * cur[1]
            den = cur[1] * td
            prev, cur = cur, num.cancel(den, include=True)
        return cur

    msgs = []
    shape = normal_words(system, n)
    for word in words:
        if word not in terms:
            msgs.append(f"{word!r}: no coefficient")
            continue
        alpha, beta, gamma = shape[word]
        if system == "A":
            num = qfact(n)
            den = qfact(alpha) * qfact(gamma) * prod(
                (qint(2 * j) for j in range(1, beta + 1)), start=one
            )
        else:
            pn, pd = phi(beta)
            num = qfact(n, 2) * pn
            den = qfact(alpha, 2) * qfact(beta, 2) * qfact(gamma, 2) * pd
        ref_num, ref_den = num.cancel(den, include=True)
        got_num, got_den = terms[word]
        same = poly(got_num) * ref_den == poly(got_den) * ref_num
        reduced = (
            poly(got_num).degree() == ref_num.degree()
            and poly(got_den).degree() == ref_den.degree()
            and gcd(*got_num, *got_den) == 1
            and got_den[-1] > 0
        )
        if not same:
            msgs.append(f"{word!r}: differs from sympy's cancelled closed form")
        elif not reduced:
            msgs.append(f"{word!r}: equal to sympy's form but not canonical")
    return msgs


def check_expansion(system, n, terms, sample):
    """All applicable checks of one expansion, with the words in ``sample``
    checked against sympy; name -> failure messages."""
    results = {
        "word_set": check_word_set(system, n, terms),
        "q2_closed_form": check_q2_closed_form(system, n, terms),
        "sympy": check_sympy(system, n, terms, sample),
    }
    if system == "A":
        results["nonneg_polynomial"] = check_nonneg_polynomial(terms)
        results["q1_count"] = check_q1_count(n, terms)
    return results


def check_lemma2(reports, max_n, rng, k):
    """Output of verify_expansions(SYSTEM_B, max_n): one report per n, every
    one matching, and both routes' terms passing the expansion checks (the
    sympy sample is drawn from the largest n only)."""
    results = {"reports": []}
    if [r["n"] for r in reports] != list(range(1, max_n + 1)):
        results["reports"].append("reports do not cover n = 1..max_n")
    for r in reports:
        if not r["match"] or r["mismatches"] or r["formula"] != r["oracle"]:
            results["reports"].append(f"n={r['n']}: routes disagree")
        for route in ("formula", "oracle"):
            terms = parse_terms(r[route])
            sample = []
            if r["n"] == max_n and route == "oracle":
                sample = sample_words("B", max_n, terms, rng, k)
            for name, msgs in check_expansion("B", r["n"], terms, sample).items():
                results.setdefault(name, []).extend(
                    f"n={r['n']} {route}: {m}" for m in msgs
                )
    return results


# --- checks on `qexpand verify --suite all --format json` -------------------


def expected_case_counts():
    """Case count of every suite at the default bounds, derived from the
    bounds alone."""

    def tuples(bound, weight):
        # index tuples (alpha, beta, gamma), not all zero, with
        # alpha + weight * beta + gamma <= bound
        return sum(
            (bound - weight * beta + 1) * (bound - weight * beta + 2) // 2
            for beta in range(bound // weight + 1)
        ) - 1

    return {
        "lemma1": LEMMA1_MAX_N,
        "lemma2": LEMMA2_MAX_N,
        "phi": MAX_BETA + 1,
        "recurrences-A": 2 + tuples(RECURRENCE_BOUND_A, 2),
        "recurrences-B": 3 + tuples(RECURRENCE_BOUND_B, 1),
        "degenerations": sum(n + 1 for n in range(1, BINOMIAL_BOUND + 1))
        + sum((n + 1) * (n + 2) // 2 for n in range(1, MULTINOMIAL_BOUND + 1)),
        "identity": MAX_I,
    }


def check_verify_all(stdout, exit_code):
    msgs = []
    if exit_code != 0:
        msgs.append(f"exit code {exit_code}")
    try:
        suites = json.loads(stdout)["suites"]
    except (ValueError, KeyError, TypeError) as err:
        return msgs + [f"unreadable output: {err}"]
    expected = expected_case_counts()
    got = {s.get("suite"): s for s in suites}
    if list(got) != list(expected):
        msgs.append(f"suites {list(got)} != {list(expected)}")
    for name, cases in expected.items():
        suite = got.get(name)
        if suite is None:
            continue
        if suite.get("cases") != cases:
            msgs.append(f"{name}: {suite.get('cases')} cases, expected {cases}")
        if suite.get("failures") != 0:
            msgs.append(f"{name}: {suite.get('failures')} failures")
        for report in suite.get("reports", ()):
            if not report.get("match") or report.get("mismatches"):
                msgs.append(f"{name}: n={report.get('n')} does not match")
    return msgs
