"""Cross-checks between closed-form expansions and the rewrite oracle.

:func:`expand_formula` builds an expansion directly from the coefficient
families; :func:`expand_oracle` multiplies out the corresponding sum of
generators and normal-orders after every step.  The ``verify_*`` entry
points compare the two routes exactly, check the coefficient recurrences
and boundary values, the two routes to phi, the degenerate single-relation
limits, and a numeric specialization at complex points on the unit circle.
The recurrences sum on numerators: per term a family value num/(1-q)^k from
its closed form times q^s (a shift), a q-integer or xi = q [2]/(1-q) (a shift,
a step and k + 1), added over the top k with no polynomial product.

The oracle route is :mod:`qexpand.ordering` alone, and it hands back
``NCPolynomial`` values only.  :func:`verify_expansions` gives one pass the
formula of each n as input; the pass compares its step with it in packed
form and hands back a step it proves equal as the formula's polynomial
itself, and any other step decoded.  :func:`expand_oracle` gets the last
step of a pass alone, decoded.

The formula route walks each row of fixed beta: neighbouring coefficients
differ by a ratio of q-integers, so each costs one O(degree) step of
:func:`~qexpand.exactarith.q_ratio` from the last.  Every family is
symmetric in alpha and gamma, as [n, k] = [n, n-k], so the walk steps only
the first half of a row and gives each term past the middle the value
built at its mirror index, gamma for alpha.  The walk reads each system's
family from its :class:`~qexpand.qnumbers.Family` record, theta = F(beta)
times a multinomial, and states no factor of its own.  The degenerate
limits are walks of records too: System A at c = 0 has F = 0 past beta = 0,
so only its row 0, the q-binomials, and System B at xi = 0 has F = 1, the
base-q^2 multinomials.

Verification failures are data (counted and reported), never exceptions.
Every step of the walk is an exact division on correct code, so a step
that leaves a remainder is a package defect, not a failure: it raises
ValueError, and the command line exits 1 with ``error: ...``.  Reports and
the records of ``SPECS`` are named tuples, equal to any same-field tuple.
"""

from __future__ import annotations

import cmath
import time
from itertools import chain, count, tee, zip_longest
from operator import index, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .exactarith import (
    IntPolynomial,
    RF_ONE,
    RationalFunction,
    over_one_minus_q,
    q_ratio,
    times_q_int,
)
from .freealgebra import NCPolynomial, word_sort_key
from .ordering import (
    SYSTEM_A,
    SYSTEM_A_C0,
    SYSTEM_B,
    SYSTEM_B_XI0,
    RelationSystem,
    normal_power,
    normal_powers,
)
from .qnumbers import (
    Q2_MULTINOMIAL,
    Q_BINOMIAL,
    THETA_A,
    THETA_B,
    Family,
    phi_closed_sequence,
    phi_sequence,
    q_int,
    theta_a,
    theta_b,
)


class Mismatch(NamedTuple):
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


class ExpansionReport(NamedTuple):
    """Outcome of comparing both expansion routes for one exponent.  When
    the oracle proved its step equal in packed form, ``oracle_terms`` is
    the ``formula_terms`` object itself; otherwise it is the decoded step."""

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


class VerificationSummary(NamedTuple):
    """Aggregate pass/fail count for one verification suite."""

    suite: str
    cases: int
    failures: int
    duration_ms: int

    def to_json(self) -> dict:
        return self._asdict()


def _term(theta, indices, shift=0, m=1, p=1, times_xi=False):
    """(coefficients, k) of q^shift [m]_(q^p) xi^times_xi theta(*indices),
    with theta = num / (1-q)^k; ((), 0) when an index is negative."""
    if min(indices) < 0:
        return (), 0
    value = theta(*indices)
    cs, k = value.num.coeffs, value.k
    if times_xi:
        cs, k = times_q_int((0,) + cs, 2), k + 1
    return (0,) * shift + times_q_int(cs, m, p), k


def _sum_terms(*terms: tuple[tuple[int, ...], int]) -> RationalFunction:
    """The sum of terms cs / (1-q)^k over the top k; one power lower (only
    System B's beta-1 term can be) is lifted by one difference."""
    top = max(k for _, k in terms)
    lift = (tuple(map(sub, cs + (0,), (0,) + cs)) if k < top else cs for cs, k in terms)
    total = list(map(sum, zip_longest(*lift, fillvalue=0)))
    while total and not total[-1]:
        total.pop()
    return over_one_minus_q(tuple(total), top)


def _recurrence_a(alpha: int, beta: int, gamma: int) -> RationalFunction:
    return _sum_terms(
        _term(theta_a, (alpha, beta, gamma - 1)),
        _term(theta_a, (alpha - 1, beta, gamma), gamma + 2 * beta),
        _term(theta_a, (alpha, beta - 1, gamma + 1), gamma, gamma + 1),
    )


def _recurrence_b(alpha: int, beta: int, gamma: int) -> RationalFunction:
    return _sum_terms(
        _term(theta_b, (alpha, beta, gamma - 1)),
        _term(theta_b, (alpha, beta - 1, gamma), 2 * gamma),
        _term(theta_b, (alpha - 1, beta, gamma), 2 * gamma + 2 * beta),
        _term(theta_b, (alpha, beta - 2, gamma + 1), 2 * gamma, gamma + 1, 2, True),
    )


class SystemSpec(NamedTuple):
    """The expansion data of a built-in system: the record of its closed
    form in :mod:`qexpand.qnumbers`, which the walk reads, the cached
    family that gives one coefficient from that record, and the family's
    recurrence from lower indices; the degenerate limits have neither."""

    closed_form: Family
    family: Optional[Callable[..., RationalFunction]] = None
    recurrence: Optional[Callable[..., RationalFunction]] = None


SPECS = {
    SYSTEM_A: SystemSpec(THETA_A, theta_a, _recurrence_a),
    SYSTEM_B: SystemSpec(THETA_B, theta_b, _recurrence_b),
    SYSTEM_A_C0: SystemSpec(Q_BINOMIAL),
    SYSTEM_B_XI0: SystemSpec(Q2_MULTINOMIAL),
}


def _spec(system: RelationSystem) -> SystemSpec:
    spec = SPECS.get(system)
    if spec is None:
        raise ValueError(f"no expansion record for system {system.name!r}")
    return spec


def _indices(weight: int, n: int) -> Iterator[tuple[int, int, int]]:
    """Every (alpha, beta, gamma) >= 0 with alpha + weight*beta + gamma = n."""
    for beta in range(n // weight + 1):
        for alpha in range(n - weight * beta + 1):
            yield alpha, beta, n - weight * beta - alpha


def base_sum(system: RelationSystem) -> NCPolynomial:
    """The sum of generators whose powers the system's expansion describes:
    the letters of degree one in the normal order."""
    first, middle, last = system.normal_order
    middle = middle if _spec(system).closed_form.weight == 1 else ""
    return NCPolynomial({ch: RF_ONE for ch in first + middle + last})


def _walk(system: RelationSystem, n: int) -> Iterator[tuple[str, RationalFunction]]:
    """Every term of the degree-n expansion, row by row in beta, alpha
    ascending.  Each coefficient is a numerator over (1-q)^k, one q-integer
    step from the last, for alpha up to half the row only: every family is
    symmetric in alpha and gamma, so the term at alpha > gamma is the value
    already built at the mirrored index.  A row head comes from the last by
    the w ratios of the multinomial [n; 0, w beta, gamma], then the
    record's factor F(beta)/F(beta-1) = (1-q^a)/(1-q^b); a ratio whose
    denominator is 1 - q^a takes 1 - q^b in its place, so the factor costs
    no step of its own.  The rows end at the first zero head."""
    form = _spec(system).closed_form
    first, middle, last = system.normal_order
    w, p = form.weight, form.base
    head, k = (1,), 0
    for beta in range(n // w + 1):
        top = n - w * beta
        if beta:
            a, b, d = form.factor(beta)
            for j in range(w):
                low = (w * beta - w + j + 1) * p
                if low == a:
                    low = a = b
                head = q_ratio(head, (top + w - j) * p, low)
            if a != b:
                head = q_ratio(head, a, b)
            k += d
            if not head:
                break
        cs, half = head, [over_one_minus_q(head, k)]
        for alpha in range(1, top // 2 + 1):
            cs = q_ratio(cs, (top - alpha + 1) * p, alpha * p)
            half.append(over_one_minus_q(cs, k))
        for alpha in range(top + 1):
            word = first * alpha + middle * beta + last * (top - alpha)
            yield word, half[min(alpha, top - alpha)]


def expand_formula(system: RelationSystem, n: int) -> NCPolynomial:
    """The degree-n expansion assembled directly from the coefficient family,
    one half-row walk per power of the middle letter.  The walk's words are
    distinct and spelt in the system's validated normal-order letters, and
    each coefficient is a product of nonzero q-integer ratios, so the terms
    go into the polynomial as they are, with no merge and no zero test."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return NCPolynomial._from_reduced(dict(_walk(system, n)))


def expand_oracle(system: RelationSystem, n: int) -> NCPolynomial:
    """The degree-n expansion computed by brute force: multiply the sum of
    generators left to right, normal-ordering after every multiplication."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s = base_sum(system)
    return normal_power(s, "".join(s.words()), n - 1, system)


def _words(formula: NCPolynomial, oracle: NCPolynomial) -> set[str]:
    """Every word of either expansion."""
    return {w for w, _ in formula.items()} | {w for w, _ in oracle.items()}


def _pairs(
    formula: NCPolynomial, oracle: NCPolynomial
) -> Iterator[tuple[str, RationalFunction, RationalFunction]]:
    """Every word of either expansion, in term order, with both coefficients."""
    for w in sorted(_words(formula, oracle), key=word_sort_key):
        yield w, formula.coefficient(w), oracle.coefficient(w)


def _compare(formula: NCPolynomial, oracle: NCPolynomial) -> tuple[Mismatch, ...]:
    """The words whose coefficients differ, in term order.  A step that the
    oracle proved equal is the formula itself; one decoded that agrees
    needs no sort."""
    if oracle is formula or formula == oracle:
        return ()
    return tuple(Mismatch(w, f, o) for w, f, o in _pairs(formula, oracle) if f != o)


def _word_flags(report: ExpansionReport) -> Iterator[bool]:
    """One flag per word of either expansion of a report, true on a word
    whose coefficients differ: the report's mismatches, counted with no
    second comparison."""
    failed = {m.word for m in report.mismatches}
    return (w in failed for w in _words(report.formula_terms, report.oracle_terms))


def _tally(suite: str, failed: Iterable[bool]) -> VerificationSummary:
    """Time and count a suite's cases, one flag per case, true on failure."""
    start = time.perf_counter()
    flags = list(failed)
    duration = int((time.perf_counter() - start) * 1000)
    return VerificationSummary(suite, len(flags), sum(flags), duration)


def verify_expansions(system: RelationSystem, max_n: int) -> list[ExpansionReport]:
    """Compare formula and oracle expansions for every n up to max_n.

    The oracle runs one pass, each step building on the last and compared
    in packed form with the formula of its n, which it is given as input.
    A step it proves equal is handed back as the formula's polynomial
    itself, which is then the report's ``oracle_terms`` too; any other
    step, one that differs or that no bound decides, is decoded and
    compared word by word.  A report's duration_ms times step n only: the
    formula, one oracle step, its comparison and any decoding."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    s = base_sum(system)
    formulas, expected = tee(expand_formula(system, n) for n in range(1, max_n + 1))
    steps = normal_powers(s, "".join(s.words()), expected, system)
    reports = []
    start = time.perf_counter()
    for n, formula, oracle in zip(count(1), formulas, steps):
        mismatches = _compare(formula, oracle)
        end = time.perf_counter()
        duration = int((end - start) * 1000)
        reports.append(
            ExpansionReport(
                system.name, n, formula, oracle, not mismatches, mismatches, duration
            )
        )
        start = end
    return reports


def verify_recurrences(system: RelationSystem, bound: int) -> VerificationSummary:
    """Check the coefficient recurrence at every index tuple within the bound.

    Indices with a negative entry count as zero.  Tuples are those with
    degree alpha + weight*beta + gamma from 1 to the bound; the degree-0
    tuple is the recurrence's seed.  The boundary values, 1 at every
    degree-1 tuple, are checked as additional cases.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    spec = _spec(system)
    if spec.recurrence is None:
        raise ValueError(f"no recurrence for system {system.name!r}")
    degrees = [list(_indices(spec.closed_form.weight, d)) for d in range(1, bound + 1)]
    boundary = (spec.family(*i) != RF_ONE for i in degrees[0])
    recurrence = (spec.family(*i) != spec.recurrence(*i) for i in chain(*degrees))
    return _tally(f"recurrences-{system.name}", chain(boundary, recurrence))


def verify_phi(max_beta: int) -> VerificationSummary:
    """Check that the recursion and the closed form agree for every beta."""
    if max_beta < 2:
        raise ValueError("max_beta must be >= 2")
    pairs = zip(range(max_beta + 1), phi_sequence(), phi_closed_sequence())
    return _tally("phi", (phi != closed for _, phi, closed in pairs))


def verify_degenerations(
    binomial_bound: int = 12, multinomial_bound: int = 8
) -> VerificationSummary:
    """Check both degenerate systems coefficient-by-coefficient, one case
    per word of either expansion.

    System A with the shortening rule removed must reproduce Gaussian
    binomials; system B with the squaring rule removed must reproduce
    base-q^2 multinomials.  Both references come from the row walk of
    :func:`expand_formula`.
    """
    if binomial_bound < 1 or multinomial_bound < 1:
        raise ValueError("bounds must be >= 1")
    bounds = ((SYSTEM_A_C0, binomial_bound), (SYSTEM_B_XI0, multinomial_bound))
    reports = (r for system, bound in bounds for r in verify_expansions(system, bound))
    return _tally("degenerations", chain.from_iterable(map(_word_flags, reports)))


def verify_identity_4i2(max_i: int) -> VerificationSummary:
    """Check (1+q) [2i+1] in base q^2 equals [4i+2] in base q, exactly."""
    if max_i < 1:
        raise ValueError("max_i must be >= 1")
    one_plus_q = IntPolynomial((1, 1))
    failed = (
        one_plus_q * q_int(2 * i + 1, 2) != q_int(4 * i + 2)
        for i in range(1, max_i + 1)
    )
    return _tally("identity", failed)


def eval_at_root(
    p: NCPolynomial, order: int, sign: str = "+"
) -> list[tuple[str, complex]]:
    """Evaluate every coefficient at q = sign * exp(2*pi*i/order), for an
    integer order; TypeError for any other, which names no root of unity."""
    if index(order) < 3:
        raise ValueError("N must be >= 3")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    point = cmath.exp(2j * cmath.pi / order)
    if sign == "-":
        point = -point
    return [(word, coeff.evaluate(point)) for word, coeff in p.terms()]
