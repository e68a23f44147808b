"""The named q-analog scalar families used by the expansion coefficients.

Everything here is a pure function of small integer indices returning
canonical values from :mod:`qexpand.exactarith`.  Every family is a chain
of q-integer steps: a product or quotient of q-integers is built one
factor at a time by :func:`~qexpand.exactarith.q_ratio`, O(degree)
additions per factor, with no polynomial product, gcd or general division.
Each quotient in a chain is exact, because every partial product is itself
a polynomial, so no step can fail on correct indices.  No family recurses
on its index; psi(1), psi(2), ... are one chain, from which
:func:`phi_closed_sequence` gives phi_0, phi_1, ... in closed form.
Results are memoized because the same indices recur constantly during
verification; the caches are an observationally pure detail.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, islice
from operator import add, sub
from typing import Iterator

from .exactarith import (
    IntPolynomial,
    ONE,
    RF_ONE,
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
    coeffs = [0] * ((n - 1) * power + 1) if n else []
    for k in range(n):
        coeffs[k * power] = 1
    return IntPolynomial(tuple(coeffs))


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


def q2_multinomial(alpha: int, beta: int, gamma: int) -> IntPolynomial:
    """The base-q^2 multinomial [n, alpha]' [n-alpha, beta]', n = alpha+beta+gamma."""
    if min(alpha, beta, gamma) < 0:
        raise ValueError("indices must be >= 0")
    return IntPolynomial._raw(_times_multinomial(ONE.coeffs, alpha, beta, gamma, 2))


@lru_cache(maxsize=None)
def _odd_product(beta: int) -> IntPolynomial:
    """The product [1][3]...[2*beta-1] of odd q-integers; 1 for beta = 0."""
    cs = ONE.coeffs
    for i in range(2, beta + 1):
        cs = times_q_int(cs, 2 * i - 1)
    return IntPolynomial._raw(cs)


@lru_cache(maxsize=None)
def theta_a(alpha: int, beta: int, gamma: int) -> RationalFunction:
    """Coefficient of b^alpha c^beta a^gamma in the system-A expansion.

    Equal to [n]! / ([alpha]! [gamma]! [2][4]...[2*beta]) with
    n = alpha + 2*beta + gamma, built as the multinomial [n; alpha, 2*beta,
    gamma] times the odd product [1][3]...[2*beta-1].
    """
    if min(alpha, beta, gamma) < 0:
        raise ValueError("indices must be >= 0")
    odd = _odd_product(beta).coeffs
    return RationalFunction(
        IntPolynomial._raw(_times_multinomial(odd, alpha, 2 * beta, gamma))
    )


@lru_cache(maxsize=None)
def theta_b(alpha: int, beta: int, gamma: int) -> RationalFunction:
    """Coefficient of c^alpha b^beta a^gamma in the system-B expansion.

    Equal to [n]'! phi_beta / ([alpha]'! [beta]'! [gamma]'!) where [.]' is
    the base-q^2 analog and n = alpha + beta + gamma: the numerator of
    phi_beta times the base-q^2 multinomial, over phi_beta's denominator.
    """
    if min(alpha, beta, gamma) < 0:
        raise ValueError("indices must be >= 0")
    phi = phi_closed(beta)
    num = _times_multinomial(phi.num.coeffs, alpha, beta, gamma, 2)
    return over_one_minus_q(num, phi.den.degree)


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


def _psi_numerators() -> Iterator[tuple[int, ...]]:
    """The coefficients of psi(1), psi(2), ...: psi(0) = 1 and psi(i) =
    psi(i-1) [2i-1] [2] in base q^(2i)."""
    cs = ONE.coeffs
    for i in count(1):
        cs = times_q_int(times_q_int(cs, 2 * i - 1), 2, 2 * i)
        yield cs


@lru_cache(maxsize=None)
def psi(i: int) -> RationalFunction:
    """The alternating product ([4]/[2]) [3] ([8]/[4]) [5] ... [2i-1] ([4i]/[2i]).

    Each quotient [4k]/[2k] is 1 + q^(2k), the q-integer [2] in base
    q^(2k), so psi(i), item i-1 of the chain, costs 2i q-integer steps.
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    cs = next(islice(_psi_numerators(), i - 1, None))
    return RationalFunction(IntPolynomial._raw(cs))


@lru_cache(maxsize=None)
def phi_closed(beta: int) -> RationalFunction:
    """phi_beta in closed form: psi(i) / (1-q)^i for beta = 2i, and
    [2i+1] psi(i) / (1-q)^i for beta = 2i+1; phi_0 = phi_1 = 1."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if beta <= 1:
        return RF_ONE
    cs = psi(beta // 2).num.coeffs
    if beta % 2:
        cs = times_q_int(cs, beta)
    return over_one_minus_q(cs, beta // 2)


def phi_closed_sequence() -> Iterator[RationalFunction]:
    """phi_0, phi_1, ... as :func:`phi_closed` gives them, from one pass of
    the psi chain: phi_2i = psi(i)/(1-q)^i, phi_(2i+1) = [2i+1] phi_2i."""
    yield from (RF_ONE, RF_ONE)
    for i, cs in enumerate(_psi_numerators(), 1):
        yield over_one_minus_q(cs, i)
        yield over_one_minus_q(times_q_int(cs, 2 * i + 1), i)
