"""Acceptance suite: every criterion at its stated bound and tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
"""

import cmath
import random
import time

import reference as ref
from conftest import to_nc

from qexpand.exactarith import IntPolynomial, RationalFunction
from qexpand.freealgebra import NCPolynomial
from qexpand.ordering import SYSTEM_A, SYSTEM_B, normalize
from qexpand.qnumbers import phi_closed, phi_recursive, q_int
from qexpand.verify import (
    expand_formula,
    expand_oracle,
    verify_degenerations,
    verify_expansions,
    verify_identity_4i2,
    verify_phi,
    verify_recurrences,
)

P = IntPolynomial


def _criterion(name: str, ok: bool) -> None:
    print(("PASS" if ok else "FAIL") + f": {name}")
    assert ok, name



def test_lemma1_equivalence():
    start = time.perf_counter()
    reports = verify_expansions(SYSTEM_A, 8)
    elapsed = time.perf_counter() - start
    ok = (
        len(reports) == 8
        and all(r.match and not r.mismatches for r in reports)
        and elapsed < 10.0
    )
    _criterion(f"lemma1 equivalence n=1..8 in {elapsed:.2f}s (<10s)", ok)


def test_lemma2_equivalence():
    start = time.perf_counter()
    reports = verify_expansions(SYSTEM_B, 6)
    elapsed = time.perf_counter() - start
    ok = (
        len(reports) == 6
        and all(r.match and not r.mismatches for r in reports)
        and elapsed < 30.0
    )
    _criterion(f"lemma2 equivalence n=1..6 in {elapsed:.2f}s (<30s)", ok)


def test_lemma3_phi_routes():
    summary = verify_phi(40)
    beta2 = phi_recursive(2) == phi_closed(2) == RationalFunction(P((1, 0, 1)), 1)
    ok = summary.cases == 41 and summary.failures == 0 and beta2
    _criterion("phi recursion equals closed form for beta=0..40, beta=2 verbatim", ok)


def test_recurrences():
    a = verify_recurrences(SYSTEM_A, 10)
    b = verify_recurrences(SYSTEM_B, 8)
    ok = a.failures == 0 and b.failures == 0
    _criterion(
        f"recurrences hold at all tuples (A bound 10: {a.cases} cases; "
        f"B bound 8: {b.cases} cases) incl. boundary values",
        ok,
    )


def test_auxiliary_identities():
    ok = True
    for n in range(1, 11):
        result = normalize(NCPolynomial.from_word("a" * n + "b"), SYSTEM_A)
        ok = ok and result == to_nc(ref.a_word_times_b(0, 0, n))

        result = normalize(NCPolynomial.from_word("a" * n + "c"), SYSTEM_B)
        ok = ok and result == to_nc(ref.b_word_times("c", 0, 0, n))

    for alpha in range(4):
        for beta in range(4):
            for gamma in range(4):
                word = "b" * alpha + "c" * beta + "a" * gamma + "b"
                result = normalize(NCPolynomial.from_word(word), SYSTEM_A)
                ok = ok and result == to_nc(ref.a_word_times_b(alpha, beta, gamma))

                prefix = "c" * alpha + "b" * beta + "a" * gamma
                for x in "bc":
                    result = normalize(NCPolynomial.from_word(prefix + x), SYSTEM_B)
                    expected = ref.b_word_times(x, alpha, beta, gamma)
                    ok = ok and result == to_nc(expected)

    _criterion(
        "auxiliary power identities n=1..10 and mixed-word relations for "
        "alpha,beta,gamma<=3",
        ok,
    )


def test_degenerations():
    summary = verify_degenerations(binomial_bound=12, multinomial_bound=8)
    _criterion(
        f"degenerations match independent oracles ({summary.cases} coefficients)",
        summary.failures == 0,
    )


def test_even_odd_identity():
    summary = verify_identity_4i2(20)
    _criterion(
        "(1+q)[2i+1] in base q^2 equals [4i+2] for i=1..20",
        summary.cases == 20 and summary.failures == 0,
    )


def test_confluence(reduce_randomly):
    word_rng = random.Random(20260810)
    words = [
        "".join(word_rng.choice("abc") for _ in range(word_rng.randint(0, 8)))
        for _ in range(1000)
    ]
    strategy_rng = random.Random(4242)
    ok = True
    for word in words:
        p = NCPolynomial.from_word(word)
        for system in (SYSTEM_A, SYSTEM_B):
            left = normalize(p, system)
            ok = ok and left == reduce_randomly(p, system, strategy_rng)
    _criterion("confluence on 1000 seeded words (len<=8), both systems", ok)


def test_numeric_shadow():
    rng = random.Random(77)
    points = [cmath.exp(2j * cmath.pi * rng.uniform(0.01, 0.99)) for _ in range(10)]
    ok = True
    for system in (SYSTEM_A, SYSTEM_B):
        for n in range(1, 6):
            formula = expand_formula(system, n)
            oracle = expand_oracle(system, n)
            ok = ok and formula.words() == oracle.words()
            for q0 in points:
                for word in formula.words():
                    f = formula.coefficient(word).evaluate(q0)
                    o = oracle.coefficient(word).evaluate(q0)
                    ok = ok and abs(f - o) <= 1e-9 * max(1.0, abs(f), abs(o))
    omega = cmath.exp(2j * cmath.pi / 3)
    ok = ok and abs(RationalFunction(q_int(3)).evaluate(omega)) <= 1e-12
    _criterion(
        "numeric shadow at 10 unit-circle points (n<=5, rel 1e-9) and "
        "[3] vanishing at the cube root of unity (1e-12)",
        ok,
    )
