"""Cross-checks between closed-form expansions and the rewrite oracle.

:func:`expand_formula` builds an expansion directly from the coefficient
families; :func:`expand_oracle` multiplies out the corresponding sum of
generators and normal-orders after every step.  The ``verify_*`` entry
points compare the two routes exactly, check the coefficient recurrences
and boundary values, the two routes to phi, the degenerate single-relation
limits against independent Pascal-style oracles, and a numeric
specialization at complex points on the unit circle.

Verification failures are data (counted and reported), never exceptions.
"""

from __future__ import annotations

import cmath
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from .exactarith import (
    IntPolynomial,
    ONE,
    PoleError,
    RF_ONE,
    RF_ZERO,
    RationalFunction,
    ZERO,
)
from .freealgebra import NCPolynomial, word_sort_key
from .ordering import (
    SYSTEM_A,
    SYSTEM_A_C0,
    SYSTEM_B,
    SYSTEM_B_XI0,
    RelationSystem,
    normalize,
)
from .qnumbers import phi_closed, phi_recursive, q_int, theta_a, theta_b, xi


@dataclass(frozen=True)
class Mismatch:
    """One disagreeing coefficient between the formula and oracle routes."""

    word: str
    formula: RationalFunction
    oracle: RationalFunction

    def to_json(self) -> dict:
        return {
            "word": self.word,
            "formula": self.formula.to_json(),
            "oracle": self.oracle.to_json(),
        }


@dataclass(frozen=True)
class ExpansionReport:
    """Outcome of comparing both expansion routes for one exponent."""

    system: str
    n: int
    formula_terms: NCPolynomial
    oracle_terms: NCPolynomial
    match: bool
    mismatches: tuple[Mismatch, ...]
    duration_ms: int

    def to_json(self) -> dict:
        return {
            "system": self.system,
            "n": self.n,
            "match": self.match,
            "mismatches": [m.to_json() for m in self.mismatches],
            "duration_ms": self.duration_ms,
        }


@dataclass(frozen=True)
class VerificationSummary:
    """Aggregate pass/fail count for one verification suite."""

    suite: str
    cases: int
    failures: int
    duration_ms: int

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failures": self.failures,
            "duration_ms": self.duration_ms,
        }


@dataclass(frozen=True)
class Pole:
    """Marker for a coefficient whose denominator vanishes at the point."""

    num_value: complex
    den_value: complex


_SUM_LETTERS = {"A": "ab", "A-c0": "ab", "B": "abc", "B-xi0": "abc"}


def base_sum(system: RelationSystem) -> NCPolynomial:
    """The sum of generators whose powers the system's expansion describes."""
    letters = _SUM_LETTERS.get(system.name)
    if letters is None:
        raise ValueError(f"no expansion base for system {system.name!r}")
    return NCPolynomial({ch: RF_ONE for ch in letters})


def expand_formula(system: RelationSystem, n: int) -> NCPolynomial:
    """The degree-n expansion assembled directly from the coefficient family."""
    if n < 1:
        raise ValueError("n must be >= 1")
    terms: dict[str, RationalFunction] = {}
    if system.name == "A":
        for beta in range(n // 2 + 1):
            for alpha in range(n - 2 * beta + 1):
                gamma = n - 2 * beta - alpha
                terms["b" * alpha + "c" * beta + "a" * gamma] = theta_a(
                    alpha, beta, gamma
                )
    elif system.name == "B":
        for alpha in range(n + 1):
            for beta in range(n - alpha + 1):
                gamma = n - alpha - beta
                terms["c" * alpha + "b" * beta + "a" * gamma] = theta_b(
                    alpha, beta, gamma
                )
    else:
        raise ValueError("closed-form expansion exists only for systems A and B")
    return NCPolynomial(terms)


def expand_oracle(system: RelationSystem, n: int) -> NCPolynomial:
    """The degree-n expansion computed by brute force: multiply the sum of
    generators left to right, normal-ordering after every multiplication."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s = base_sum(system)
    acc = s
    for _ in range(n - 1):
        acc = normalize(acc * s, system)
    return acc


def _compare(formula: NCPolynomial, oracle: NCPolynomial) -> tuple[Mismatch, ...]:
    words = sorted(set(formula.words()) | set(oracle.words()), key=word_sort_key)
    return tuple(
        Mismatch(w, formula.coefficient(w), oracle.coefficient(w))
        for w in words
        if formula.coefficient(w) != oracle.coefficient(w)
    )


def verify_expansions(system: RelationSystem, max_n: int) -> list[ExpansionReport]:
    """Compare formula and oracle expansions for every n up to max_n."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    reports = []
    for n in range(1, max_n + 1):
        start = time.perf_counter()
        formula = expand_formula(system, n)
        oracle = expand_oracle(system, n)
        mismatches = _compare(formula, oracle)
        duration = int((time.perf_counter() - start) * 1000)
        reports.append(
            ExpansionReport(
                system.name, n, formula, oracle, not mismatches, mismatches, duration
            )
        )
    return reports


def _theta_ext(theta, alpha: int, beta: int, gamma: int) -> RationalFunction:
    """The family theta at the indices, or zero when any index is negative."""
    if min(alpha, beta, gamma) < 0:
        return RF_ZERO
    return theta(alpha, beta, gamma)


def _q_power(k: int) -> RationalFunction:
    return RationalFunction(IntPolynomial.monomial(k))


def verify_recurrences(system: RelationSystem, bound: int) -> VerificationSummary:
    """Check the coefficient recurrence at every index tuple within the bound.

    Indices with a negative entry count as zero.  Tuples are those with
    total degree between 1 and the bound (degree alpha + 2*beta + gamma for
    system A, alpha + beta + gamma for system B); the degree-0 tuple is the
    recurrence's seed, not an instance of it.  Boundary values are checked
    as additional cases.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    start = time.perf_counter()
    cases = failures = 0
    if system.name == "A":
        for boundary in ((1, 0, 0), (0, 0, 1)):
            cases += 1
            failures += theta_a(*boundary) != RF_ONE
        for beta in range(bound // 2 + 1):
            for alpha in range(bound - 2 * beta + 1):
                for gamma in range(bound - 2 * beta - alpha + 1):
                    if alpha + 2 * beta + gamma == 0:
                        continue
                    rhs = (
                        _theta_ext(theta_a, alpha, beta, gamma - 1)
                        + _q_power(gamma + 2 * beta)
                        * _theta_ext(theta_a, alpha - 1, beta, gamma)
                        + _q_power(gamma)
                        * RationalFunction(q_int(gamma + 1))
                        * _theta_ext(theta_a, alpha, beta - 1, gamma + 1)
                    )
                    cases += 1
                    failures += theta_a(alpha, beta, gamma) != rhs
    elif system.name == "B":
        for boundary in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            cases += 1
            failures += theta_b(*boundary) != RF_ONE
        for alpha in range(bound + 1):
            for beta in range(bound - alpha + 1):
                for gamma in range(bound - alpha - beta + 1):
                    if alpha + beta + gamma == 0:
                        continue
                    rhs = (
                        _theta_ext(theta_b, alpha, beta, gamma - 1)
                        + _q_power(2 * gamma)
                        * _theta_ext(theta_b, alpha, beta - 1, gamma)
                        + _q_power(2 * gamma + 2 * beta)
                        * _theta_ext(theta_b, alpha - 1, beta, gamma)
                        + xi()
                        * _q_power(2 * gamma)
                        * RationalFunction(q_int(gamma + 1, 2))
                        * _theta_ext(theta_b, alpha, beta - 2, gamma + 1)
                    )
                    cases += 1
                    failures += theta_b(alpha, beta, gamma) != rhs
    else:
        raise ValueError("recurrences exist only for systems A and B")
    duration = int((time.perf_counter() - start) * 1000)
    return VerificationSummary(f"recurrences-{system.name}", cases, failures, duration)


def verify_phi(max_beta: int) -> VerificationSummary:
    """Check that the recursion and the closed form agree for every beta."""
    if max_beta < 2:
        raise ValueError("max_beta must be >= 2")
    start = time.perf_counter()
    cases = failures = 0
    for beta in range(max_beta + 1):
        cases += 1
        failures += phi_recursive(beta) != phi_closed(beta)
    duration = int((time.perf_counter() - start) * 1000)
    return VerificationSummary("phi", cases, failures, duration)


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, power: int = 1) -> IntPolynomial:
    """The q-binomial coefficient in base q**power via the Pascal recursion."""
    if k < 0 or k > n:
        return ZERO
    if n == 0:
        return ONE
    return gaussian_binomial(n - 1, k - 1, power) + IntPolynomial.monomial(
        power * k
    ) * gaussian_binomial(n - 1, k, power)


def q2_multinomial(alpha: int, beta: int, gamma: int) -> IntPolynomial:
    """The three-part multinomial coefficient in base q^2, built from nested
    Gaussian binomials so it stays independent of the theta families."""
    if min(alpha, beta, gamma) < 0:
        raise ValueError("indices must be >= 0")
    n = alpha + beta + gamma
    return gaussian_binomial(n, alpha, 2) * gaussian_binomial(n - alpha, beta, 2)


def verify_degenerations(
    binomial_bound: int = 12, multinomial_bound: int = 8
) -> VerificationSummary:
    """Check both degenerate systems coefficient-by-coefficient.

    System A with the shortening rule removed must reproduce Gaussian
    binomials; system B with the squaring rule removed must reproduce
    base-q^2 multinomials.  Both references come from recursions that never
    touch the theta code paths.
    """
    if binomial_bound < 1 or multinomial_bound < 1:
        raise ValueError("bounds must be >= 1")
    start = time.perf_counter()
    cases = failures = 0
    for n in range(1, binomial_bound + 1):
        expansion = expand_oracle(SYSTEM_A_C0, n)
        expected = {
            "b" * k + "a" * (n - k): gaussian_binomial(n, k) for k in range(n + 1)
        }
        for word in sorted(set(expansion.words()) | set(expected), key=word_sort_key):
            cases += 1
            reference = RationalFunction(expected.get(word, ZERO))
            failures += expansion.coefficient(word) != reference
    for n in range(1, multinomial_bound + 1):
        expansion = expand_oracle(SYSTEM_B_XI0, n)
        expected = {}
        for alpha in range(n + 1):
            for beta in range(n - alpha + 1):
                gamma = n - alpha - beta
                expected["c" * alpha + "b" * beta + "a" * gamma] = q2_multinomial(
                    alpha, beta, gamma
                )
        for word in sorted(set(expansion.words()) | set(expected), key=word_sort_key):
            cases += 1
            reference = RationalFunction(expected.get(word, ZERO))
            failures += expansion.coefficient(word) != reference
    duration = int((time.perf_counter() - start) * 1000)
    return VerificationSummary("degenerations", cases, failures, duration)


def verify_identity_4i2(max_i: int) -> VerificationSummary:
    """Check (1+q) [2i+1] in base q^2 equals [4i+2] in base q, exactly."""
    if max_i < 1:
        raise ValueError("max_i must be >= 1")
    start = time.perf_counter()
    one_plus_q = IntPolynomial((1, 1))
    cases = failures = 0
    for i in range(1, max_i + 1):
        cases += 1
        failures += one_plus_q * q_int(2 * i + 1, 2) != q_int(4 * i + 2)
    duration = int((time.perf_counter() - start) * 1000)
    return VerificationSummary("identity", cases, failures, duration)


def eval_at_root(
    p: NCPolynomial, order: int, sign: str = "+"
) -> list[tuple[str, Union[complex, Pole]]]:
    """Evaluate every coefficient at q = sign * exp(2*pi*i/order).

    Coefficients whose denominator vanishes at the point come back as
    :class:`Pole` markers carrying the raw numerator and denominator
    values; poles are reported, never raised.
    """
    if order < 3:
        raise ValueError("N must be >= 3")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    point = cmath.exp(2j * cmath.pi / order)
    if sign == "-":
        point = -point
    rows: list[tuple[str, Union[complex, Pole]]] = []
    for word, coeff in p.terms():
        try:
            rows.append((word, coeff.evaluate(point)))
        except PoleError as err:
            rows.append((word, Pole(err.num_value, err.den_value)))
    return rows
