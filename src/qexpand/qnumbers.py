"""The named q-analog scalar families used by the expansion coefficients.

Everything here is a pure function of small integer indices returning
canonical values from :mod:`qexpand.exactarith`.  Every family is a chain
of q-integer steps: a product or quotient of q-integers is built one
factor at a time by :func:`~qexpand.exactarith.q_ratio`, O(degree)
additions per factor, with no polynomial product, gcd or general division.
Each quotient in a chain is exact, because every partial product is itself
a polynomial, so no step can fail on correct indices.  No family recurses
on its index.

Each coefficient family is one :class:`Family` record, the only place its
factors are stated: theta(alpha, beta, gamma) = F(beta) [n; alpha, w beta,
gamma] in base q^p, with F a chain of one step per beta.  theta_A has
F(beta) = [1][3]...[2 beta - 1] and theta_B has F = phi, whose chain
F(0), F(1), ... gives :func:`phi_closed_sequence` and :func:`psi`.  The
formula walk of :mod:`qexpand.verify` reads the same records.  Results are
memoized because the same indices recur constantly during verification;
the caches are an observationally pure detail.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, islice
from operator import add, sub
from typing import Callable, Iterator, NamedTuple

from .exactarith import (
    IntPolynomial,
    ONE,
    RationalFunction,
    ZERO,
    over_one_minus_q,
    q_ratio,
    times_q_int,
    xi,  # re-exported: qnumbers.xi names the constant of exactarith
)


def _check_base(power: int) -> None:
    if power not in (1, 2):
        raise ValueError("base power must be 1 or 2")


@lru_cache(maxsize=None)
def q_int(n: int, power: int = 1) -> IntPolynomial:
    """The q-integer [n] in base q**power: 1 + q^p + ... + q^((n-1)p); 0 for n = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_base(power)
    return IntPolynomial._raw(times_q_int(ONE.coeffs, n, power))


@lru_cache(maxsize=None)
def q_factorial(n: int, power: int = 1) -> IntPolynomial:
    """The q-factorial [n]! = [n][n-1]...[1] in base q**power; [0]! = 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _check_base(power)
    cs = ONE.coeffs
    for m in range(2, n + 1):
        cs = times_q_int(cs, m, power)
    return IntPolynomial._raw(cs)


def _times_multinomial(
    cs: tuple[int, ...], alpha: int, beta: int, gamma: int, power: int = 1
) -> tuple[int, ...]:
    """Coefficients of cs [n; alpha, beta, gamma] in base q**power, with
    n = alpha + beta + gamma: cs [beta + gamma, beta] [n, alpha].

    Each binomial [n, k] is min(k, n-k) steps of the ratio [n-k+j]/[j], so
    after step j the running value is cs [n-k+j, j], a polynomial.
    """
    for n, k in ((beta + gamma, beta), (alpha + beta + gamma, alpha)):
        k = min(k, n - k)
        for j in range(1, k + 1):
            cs = q_ratio(cs, (n - k + j) * power, j * power)
    return cs


def gaussian_binomial(n: int, k: int, power: int = 1) -> IntPolynomial:
    """The q-binomial [n, k] in base q**power; 0 unless 0 <= k <= n."""
    _check_base(power)
    if k < 0 or k > n:
        return ZERO
    return IntPolynomial._raw(_times_multinomial(ONE.coeffs, k, n - k, 0, power))


class Family(NamedTuple):
    """A coefficient family theta(alpha, beta, gamma) = F(beta) [n; alpha,
    weight*beta, gamma] in base q^base, n = alpha + weight*beta + gamma.

    F(0) = 1, and ``factor(beta)`` = (a, b, d) states the step
    F(beta)/F(beta-1) = (1-q^a) / (1-q^b) / (1-q)^d, with b dividing a, so
    each F(beta) is a polynomial over (1-q)^k, k the sum of the steps' d;
    a = 0 makes F zero past beta = 0.
    """

    weight: int
    base: int
    factor: Callable[[int], tuple[int, int, int]]


def _odd_step(beta: int) -> tuple[int, int, int]:
    """[2 beta - 1]: F(beta) = [1][3]...[2 beta - 1]."""
    return 2 * beta - 1, 1, 0


def _phi_step(beta: int) -> tuple[int, int, int]:
    """phi_beta / phi_(beta-1): [beta] for odd beta, and for even beta
    [2] in base q^beta, 1 + q^beta, over 1 - q."""
    return (beta, 1, 0) if beta % 2 else (2 * beta, beta, 1)


def _zero_step(beta: int) -> tuple[int, int, int]:
    """1 - q^0 = 0: only the row beta = 0 is nonzero."""
    return 0, 1, 0


def _unit_step(beta: int) -> tuple[int, int, int]:
    """(1-q)/(1-q) = 1: F = 1."""
    return 1, 1, 0


# System A's [n]!/([alpha]! [gamma]! [2][4]...[2 beta]), System B's
# [n]'! phi_beta/([alpha]'! [beta]'! [gamma]'!), and their limits at c = 0
# (the q-binomial [alpha + gamma, alpha]) and at xi = 0 (the q^2-multinomial)
THETA_A = Family(2, 1, _odd_step)
THETA_B = Family(1, 2, _phi_step)
Q_BINOMIAL = Family(2, 1, _zero_step)
Q2_MULTINOMIAL = Family(1, 2, _unit_step)


def _factors(family: Family) -> Iterator[tuple[tuple[int, ...], int]]:
    """The F chain of a family: (cs, k) with F(beta) = cs / (1-q)^k for
    beta = 0, 1, 2, ..., one q-integer step per beta."""
    cs, k = ONE.coeffs, 0
    for beta in count(1):
        yield cs, k
        a, b, d = family.factor(beta)
        cs, k = q_ratio(cs, a, b), k + d


@lru_cache(maxsize=None)
def _factor(family: Family, beta: int) -> tuple[tuple[int, ...], int]:
    """F(beta) of a family as (cs, k), item beta of its chain."""
    return next(islice(_factors(family), beta, None))


def theta(family: Family, alpha: int, beta: int, gamma: int) -> RationalFunction:
    """The family's value at one index: F(beta) times the multinomial."""
    if min(alpha, beta, gamma) < 0:
        raise ValueError("indices must be >= 0")
    cs, k = _factor(family, beta)
    cs = _times_multinomial(cs, alpha, family.weight * beta, gamma, family.base)
    return over_one_minus_q(cs, k)


def q2_multinomial(alpha: int, beta: int, gamma: int) -> IntPolynomial:
    """The base-q^2 multinomial [n, alpha]' [n-alpha, beta]', n = alpha+beta+gamma."""
    return theta(Q2_MULTINOMIAL, alpha, beta, gamma).num


@lru_cache(maxsize=None)
def theta_a(alpha: int, beta: int, gamma: int) -> RationalFunction:
    """Coefficient of b^alpha c^beta a^gamma in the system-A expansion:
    [n]! / ([alpha]! [gamma]! [2][4]...[2*beta]) with n = alpha + 2*beta +
    gamma, the record ``THETA_A``."""
    return theta(THETA_A, alpha, beta, gamma)


@lru_cache(maxsize=None)
def theta_b(alpha: int, beta: int, gamma: int) -> RationalFunction:
    """Coefficient of c^alpha b^beta a^gamma in the system-B expansion:
    [n]'! phi_beta / ([alpha]'! [beta]'! [gamma]'!) where [.]' is the
    base-q^2 analog and n = alpha + beta + gamma, the record ``THETA_B``."""
    return theta(THETA_B, alpha, beta, gamma)


def _phi_numerators() -> Iterator[tuple[tuple[int, ...], int]]:
    """(N_b, b//2) for b = 0, 1, 2, ...: the coefficients of the numerators
    N_b = phi_b (1-q)^(b//2) of the three-term recursion, which satisfy
    N_0 = N_1 = 1 and N_b = N_(b-1) (1-q)^[b even] + (q+q^2) [b-1]' N_(b-2)."""
    yield ONE.coeffs, 0
    yield ONE.coeffs, 0
    older, old = ONE.coeffs, ONE.coeffs
    for b in count(2):
        head = tuple(map(sub, old + (0,), (0,) + old)) if b % 2 == 0 else old
        # (q + q^2) [b-1]' = q [2b-2]; the step has N_b's degree, above head's
        step = (0,) + times_q_int(older, 2 * b - 2)
        older, old = old, tuple(map(add, head, step)) + step[len(head):]
        yield old, b // 2


def phi_sequence() -> Iterator[RationalFunction]:
    """phi_0, phi_1, phi_2, ... from the three-term recursion.

    phi_0 = phi_1 = 1 and phi_b = phi_(b-1) + xi * [b-1]' * phi_(b-2)
    with [.]' the base-q^2 q-integer, run on the numerators over
    (1-q)^(b//2).  Kept as an independent route so the closed form can be
    cross-checked against it.
    """
    return (over_one_minus_q(cs, k) for cs, k in _phi_numerators())


def phi_recursive(beta: int) -> RationalFunction:
    """phi_beta, item beta of :func:`phi_sequence`, the only item it builds."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    return over_one_minus_q(*next(islice(_phi_numerators(), beta, None)))


def psi(i: int) -> RationalFunction:
    """The alternating product ([4]/[2]) [3] ([8]/[4]) [5] ... [2i-1] ([4i]/[2i]),
    phi_2i (1-q)^i: item 2i of the F chain of ``THETA_B``, 2i - 1 steps."""
    if i < 1:
        raise ValueError("i must be >= 1")
    return RationalFunction(IntPolynomial._raw(_factor(THETA_B, 2 * i)[0]))


def phi_closed(beta: int) -> RationalFunction:
    """phi_beta in closed form, F(beta) of ``THETA_B``: psi(i) / (1-q)^i for
    beta = 2i, and [2i+1] psi(i) / (1-q)^i for beta = 2i+1; phi_0 = phi_1 = 1."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    return over_one_minus_q(*_factor(THETA_B, beta))


def phi_closed_sequence() -> Iterator[RationalFunction]:
    """phi_0, phi_1, ... as :func:`phi_closed` gives them, from one pass of
    the F chain of ``THETA_B``."""
    return (over_one_minus_q(cs, k) for cs, k in _factors(THETA_B))
