"""The named q-analog scalar families used by the expansion coefficients.

Everything here is a pure function of small integer indices returning
canonical values from :mod:`qexpand.exactarith`.  Results are memoized
because the same indices recur constantly during verification; the caches
are an observationally pure detail.  The closed forms are built from
polynomial sums and products only, so no gcd or exact division runs.
"""

from __future__ import annotations

import threading
from functools import lru_cache

from .exactarith import IntPolynomial, ONE, RF_ONE, RationalFunction, ZERO

_ONE_MINUS_Q = IntPolynomial((1, -1))


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
    if n == 0:
        return ONE
    return q_int(n, power) * q_factorial(n - 1, power)


_PASCAL: dict[int, list[list[IntPolynomial]]] = {}  # power -> columns, see below
_PASCAL_LOCK = threading.Lock()


def gaussian_binomial(n: int, k: int, power: int = 1) -> IntPolynomial:
    """The q-binomial [n, k] in base q**power; 0 unless 0 <= k <= n.

    Column i of the table _PASCAL[power] lists [i + j, j] for j = 0, 1, ....
    A miss extends columns 0, ..., n - k to row k, in order, by the Pascal
    rule [i+j, j] = q^(power*i) [i+j-1, j-1] + [i+j-1, j], so no call recurses.
    """
    if k < 0 or k > n:
        return ZERO
    columns = _PASCAL.setdefault(power, [])
    i = n - k
    if i < len(columns) and k < len(columns[i]):
        return columns[i][k]
    with _PASCAL_LOCK:
        columns.extend([ONE] for _ in range(len(columns), i + 1))
        left = [ZERO] * (k + 1)  # column -1 of the rule: [j - 1, j] = 0
        for c, column in enumerate(columns[: i + 1]):
            if len(column) <= k:
                shift = IntPolynomial.monomial(power * c)
                for j in range(len(column), k + 1):
                    column.append(shift * column[j - 1] + left[j])
            left = column
        return left[k]


def q2_multinomial(alpha: int, beta: int, gamma: int) -> IntPolynomial:
    """The base-q^2 multinomial [n, alpha]' [n-alpha, beta]', n = alpha+beta+gamma."""
    if min(alpha, beta, gamma) < 0:
        raise ValueError("indices must be >= 0")
    n = alpha + beta + gamma
    return gaussian_binomial(n, alpha, 2) * gaussian_binomial(n - alpha, beta, 2)


@lru_cache(maxsize=None)
def _odd_product(beta: int) -> IntPolynomial:
    """The product [1][3]...[2*beta-1] of odd q-integers; 1 for beta = 0."""
    if beta == 0:
        return ONE
    return _odd_product(beta - 1) * q_int(2 * beta - 1)


@lru_cache(maxsize=None)
def xi() -> RationalFunction:
    """The structure constant -(1+q)^2/(q - 1/q), cleared to (q+q^2)/(1-q)."""
    return RationalFunction(IntPolynomial((0, 1, 1)), _ONE_MINUS_Q)


@lru_cache(maxsize=None)
def theta_a(alpha: int, beta: int, gamma: int) -> RationalFunction:
    """Coefficient of b^alpha c^beta a^gamma in the system-A expansion.

    Equal to [n]! / ([alpha]! [gamma]! [2][4]...[2*beta]) with
    n = alpha + 2*beta + gamma, built as the polynomial product
    [n, alpha] [n-alpha, 2*beta] [1][3]...[2*beta-1].
    """
    if min(alpha, beta, gamma) < 0:
        raise ValueError("indices must be >= 0")
    n = alpha + 2 * beta + gamma
    multinomial = gaussian_binomial(n, alpha) * gaussian_binomial(n - alpha, 2 * beta)
    return RationalFunction(multinomial * _odd_product(beta))


@lru_cache(maxsize=None)
def theta_b(alpha: int, beta: int, gamma: int) -> RationalFunction:
    """Coefficient of c^alpha b^beta a^gamma in the system-B expansion.

    Equal to [n]'! phi_beta / ([alpha]'! [beta]'! [gamma]'!) where [.]' is
    the base-q^2 analog and n = alpha + beta + gamma, built as
    q2_multinomial(alpha, beta, gamma) * phi_beta.
    """
    return RationalFunction(q2_multinomial(alpha, beta, gamma)) * phi_closed(beta)


@lru_cache(maxsize=None)
def phi_recursive(beta: int) -> RationalFunction:
    """phi_beta from the three-term recursion.

    phi_0 = phi_1 = 1 and phi_b = phi_(b-1) + xi * [b-1]' * phi_(b-2)
    with [.]' the base-q^2 q-integer.  Kept as an independent route so the
    closed form can be cross-checked against it.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if beta <= 1:
        return RF_ONE
    return phi_recursive(beta - 1) + xi() * RationalFunction(
        q_int(beta - 1, 2)
    ) * phi_recursive(beta - 2)


@lru_cache(maxsize=None)
def psi(i: int) -> RationalFunction:
    """The alternating product ([4]/[2]) [3] ([8]/[4]) [5] ... [2i-1] ([4i]/[2i]).

    Each quotient [4k]/[2k] is 1 + q^(2k), so psi(i) is the polynomial
    product psi(i-1) [2i-1] (1 + q^(2i)): O(n) products over i = 1..n.
    """
    if i < 1:
        raise ValueError("i must be >= 1")
    prev = psi(i - 1).num if i > 1 else ONE
    factor = ONE + IntPolynomial.monomial(2 * i)
    return RationalFunction(prev * q_int(2 * i - 1) * factor)


@lru_cache(maxsize=None)
def phi_closed(beta: int) -> RationalFunction:
    """phi_beta in closed form: psi(i) / (1-q)^i for beta = 2i, and
    [2i+1] psi(i) / (1-q)^i for beta = 2i+1; phi_0 = phi_1 = 1."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if beta <= 1:
        return RF_ONE
    odd = q_int(beta) if beta % 2 else ONE
    return RationalFunction(odd * psi(beta // 2).num, _ONE_MINUS_Q ** (beta // 2))
