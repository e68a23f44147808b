"""Tests for the q-analog scalar families."""

import math
import os
import random
import subprocess
import sys
import threading
from itertools import islice

import pytest

import reference as ref
from conftest import of_rf, to_rf

from qexpand import cli, exactarith, qnumbers
from qexpand.exactarith import IntPolynomial, ONE, RF_ONE, RationalFunction, ZERO
from qexpand.freealgebra import NCPolynomial
from qexpand.ordering import SYSTEM_A, SYSTEM_B, SYSTEMS, normalize
from qexpand.qnumbers import (
    THETA_A,
    THETA_B,
    _factor,
    _factors,
    gaussian_binomial,
    phi_closed,
    phi_closed_sequence,
    phi_recursive,
    psi,
    q2_multinomial,
    q_factorial,
    q_int,
    theta_a,
    theta_b,
    xi,
)
from qexpand.verify import expand_formula, expand_oracle, verify_recurrences

P = IntPolynomial


def rf(num, k=0):
    return RationalFunction(P(num), k)


class TestQInt:
    def test_base_q(self):
        assert q_int(4) == P((1, 1, 1, 1))

    def test_zero_is_empty_sum(self):
        assert q_int(0) == ZERO

    def test_base_q_squared(self):
        assert q_int(3, 2) == P((1, 0, 1, 0, 1))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            q_int(-1)
        with pytest.raises(ValueError):
            q_int(2, 3)


class TestQFactorial:
    def test_empty_product(self):
        assert q_factorial(0) == ONE

    def test_two(self):
        assert q_factorial(2) == P((1, 1))

    def test_three(self):
        assert q_factorial(3) == P((1, 2, 2, 1))

    def test_base_q_squared(self):
        assert q_factorial(2, 2) == P((1, 0, 1))


class TestOddProduct:
    """The F chain of theta_A: F(beta) = [1][3]...[2 beta - 1], over (1-q)^0."""

    def test_empty(self):
        assert _factor(THETA_A, 0) == (ONE.coeffs, 0)

    def test_single(self):
        assert _factor(THETA_A, 1) == (ONE.coeffs, 0)

    def test_two_factors(self):
        assert _factor(THETA_A, 2) == ((1, 1, 1), 0)

    def test_three_factors(self):
        assert _factor(THETA_A, 3) == ((1, 2, 3, 3, 3, 2, 1), 0)


class TestQBinomial:
    @pytest.mark.parametrize("power", [1, 2])
    def test_counts_subsets_at_one(self, power):
        for n in range(21):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, power)(1) == math.comb(n, k)

    @pytest.mark.parametrize("power", [1, 2])
    def test_symmetric(self, power):
        for n in range(21):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, power) == gaussian_binomial(
                    n, n - k, power
                )

    def test_small_values(self):
        assert gaussian_binomial(2, 1) == P((1, 1))
        assert gaussian_binomial(3, 2) == P((1, 1, 1))
        assert gaussian_binomial(4, 2) == P((1, 1, 2, 1, 1))
        assert gaussian_binomial(3, 1, 2) == P((1, 0, 1, 0, 1))
        assert gaussian_binomial(3, 0) == ONE
        assert gaussian_binomial(0, 0) == ONE

    def test_zero_out_of_range(self):
        for power in (1, 2):
            assert gaussian_binomial(3, 5, power) == ZERO
            assert gaussian_binomial(3, -1, power) == ZERO
            assert gaussian_binomial(-1, 0, power) == ZERO

    def test_rejects_bad_base(self):
        # checked before the out-of-range zero, as q_int and q_factorial do
        for power in (3, 0, -1):
            for n, k in ((5, 2), (3, 5)):
                with pytest.raises(ValueError, match="base power must be 1 or 2"):
                    gaussian_binomial(n, k, power)


class TestXi:
    def test_canonical_value(self):
        assert xi() == rf((0, 1, 1), 1)

    def test_numeric_at_two(self):
        assert xi().evaluate(2) == pytest.approx(-6)

    def test_numeric_at_i(self):
        assert xi().evaluate(1j) == pytest.approx(-1)

    def test_matches_uncleared_form_at_random_points(self):
        # xi was cleared of 1/q by hand; cross-check against the raw form
        rng = random.Random(20260810)
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z) < 0.1 or abs(z - 1) < 0.1 or abs(z + 1) < 0.1:
                continue
            raw = -((1 + z) ** 2) / (z - 1 / z)
            assert xi().evaluate(z) == pytest.approx(raw, rel=1e-9)


class TestThetaA:
    def test_boundary_values(self):
        assert theta_a(1, 0, 0) == RF_ONE
        assert theta_a(0, 0, 1) == RF_ONE

    def test_single_pair(self):
        assert theta_a(1, 0, 1) == rf((1, 1))

    def test_pure_c_term(self):
        assert theta_a(0, 1, 0) == RF_ONE

    def test_recurrence_small_range(self):
        def family(*indices):
            return of_rf(theta_a(*indices))

        for alpha in range(7):
            for beta in range(4):
                for gamma in range(7):
                    n = alpha + 2 * beta + gamma
                    if not 1 <= n <= 6:
                        continue
                    rhs = ref.reference_a(family, alpha, beta, gamma)
                    assert theta_a(alpha, beta, gamma) == to_rf(rhs)

    def test_beta_zero_is_gaussian_binomial(self):
        # theta_a is built from q-integer steps, so compare with the quotient
        # by long division
        for alpha in range(13):
            for gamma in range(13 - alpha):
                quotient = ref.exact_div(
                    ref.q_factorial(alpha + gamma),
                    ref.mul(ref.q_factorial(alpha), ref.q_factorial(gamma)),
                )
                assert theta_a(alpha, 0, gamma) == RationalFunction(P(quotient))

    def test_polynomiality_observation(self):
        # a q-multinomial times an odd product: a polynomial by construction
        total = 0
        for alpha in range(11):
            for beta in range(6):
                for gamma in range(11 - alpha - 2 * beta):
                    total += 1
                    assert theta_a(alpha, beta, gamma).k == 0
        assert total == 161


class TestPhi:
    def test_base_cases(self):
        assert phi_recursive(0) == RF_ONE
        assert phi_recursive(1) == RF_ONE
        assert phi_closed(0) == RF_ONE
        assert phi_closed(1) == RF_ONE

    def test_beta_two(self):
        expected = rf((1, 0, 1), 1)
        assert phi_recursive(2) == expected
        assert phi_closed(2) == expected

    def test_beta_three(self):
        expected = to_rf(ref.frac_mul(ref.frac(ref.q_int(3)), ((1, 0, 1), 1)))
        assert phi_recursive(3) == expected
        assert phi_closed(3) == expected

    def test_beta_four_closed_form_shape(self):
        num = ref.mul(ref.mul((1, 0, 1), ref.q_int(3)), (1, 0, 0, 0, 1))
        assert phi_closed(4) == RationalFunction(P(num), 2)
        assert phi_closed(4) == phi_recursive(4)

    def test_routes_agree_through_sixteen(self):
        for beta in range(17):
            assert phi_recursive(beta) == phi_closed(beta)

    def test_recursion_agrees_in_any_call_order(self):
        # phi_recursive keeps no state between calls
        for beta in (9, 3, 12, 12, 0, 7, 25, 1, 2, 24):
            assert phi_recursive(beta) == phi_closed(beta)

    def test_recursion_builds_only_the_item_asked_for(self, monkeypatch):
        expected, built = phi_closed(41), []

        def counted(cs, k):
            built.append(k)
            return exactarith.over_one_minus_q(cs, k)

        monkeypatch.setattr(qnumbers, "over_one_minus_q", counted)
        assert phi_recursive(41) == expected
        assert built == [20]

    def test_closed_sequence_gives_phi_closed(self):
        values = list(zip(range(121), phi_closed_sequence()))
        assert len(values) == 121
        for beta, value in values:
            expected = phi_closed(beta)
            assert (value.num, value.k) == (expected.num, expected.k)


class TestPsi:
    def test_chain_matches_products_of_q_integers(self):
        # psi(i) [2][4]...[2i] = [1][3]...[2i-1] [4][8]...[4i], all products
        # item 2i of the F chain of theta_B is phi_2i = psi(i) / (1-q)^i
        chain = list(zip(range(1, 11), islice(_factors(THETA_B), 2, None, 2)))
        assert len(chain) == 10
        low, high = (1,), (1,)
        for i, (cs, k) in chain:
            assert k == i
            low = ref.mul(low, ref.q_int(2 * i))
            high = ref.mul(high, ref.mul(ref.q_int(2 * i - 1), ref.q_int(4 * i)))
            assert ref.mul(cs, low) == high
            assert psi(i) == RationalFunction(P(cs))

    def test_first_factor(self):
        assert psi(1) == rf((1, 0, 1))

    def test_second(self):
        num = ref.mul(ref.mul((1, 0, 1), ref.q_int(3)), (1, 0, 0, 0, 1))
        assert psi(2) == RationalFunction(P(num))

    def test_numeric(self):
        assert psi(1).evaluate(2) == pytest.approx(5)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            psi(0)


class TestThetaB:
    def test_boundary_values(self):
        assert theta_b(1, 0, 0) == RF_ONE
        assert theta_b(0, 1, 0) == RF_ONE
        assert theta_b(0, 0, 1) == RF_ONE

    def test_pure_b_square(self):
        assert theta_b(0, 2, 0) == phi_closed(2)

    def test_outer_pair(self):
        assert theta_b(1, 0, 1) == rf((1, 0, 1))

    def test_recurrence_small_range(self):
        def family(*indices):
            return of_rf(theta_b(*indices))

        for alpha in range(6):
            for beta in range(6):
                for gamma in range(6):
                    n = alpha + beta + gamma
                    if not 1 <= n <= 5:
                        continue
                    rhs = ref.reference_b(family, alpha, beta, gamma)
                    assert theta_b(alpha, beta, gamma) == to_rf(rhs)

    def test_rejects_negative_indices(self):
        for indices in ((-1, 0, 1), (0, -1, 1), (1, 0, -1)):
            with pytest.raises(ValueError, match="indices must be >= 0"):
                theta_b(*indices)
            with pytest.raises(ValueError, match="indices must be >= 0"):
                q2_multinomial(*indices)

    def test_xi_zero_variant_is_q2_multinomial(self):
        # theta_b with the phi factor forced to 1
        for alpha in range(9):
            for beta in range(9 - alpha):
                for gamma in range(9 - alpha - beta):
                    n = alpha + beta + gamma
                    parts = [ref.q_factorial(i, 2) for i in (alpha, beta, gamma)]
                    plain = ref.exact_div(ref.q_factorial(n, 2), ref.product(parts))
                    assert plain == q2_multinomial(alpha, beta, gamma).coeffs


class TestEvenOddIdentity:
    def test_identity_through_twenty(self):
        for i in range(1, 21):
            lhs = ref.mul((1, 1), q_int(2 * i + 1, 2).coeffs)
            assert lhs == q_int(4 * i + 2).coeffs

    def test_degrees_match(self):
        for i in (1, 5, 20):
            lhs = ref.mul((1, 1), q_int(2 * i + 1, 2).coeffs)
            assert len(lhs) - 1 == q_int(4 * i + 2).degree == 4 * i + 1


def _even_product(beta):
    return ref.product(ref.q_int(2 * k) for k in range(1, beta + 1))


class TestQuotientDefinitions:
    """The product-built families against their quotient definitions, which
    are computed here by long division of polynomial products in
    :mod:`reference`, independent of the q-integer steps."""

    def test_theta_a(self):
        for n in range(17):
            for beta in range(n // 2 + 1):
                for alpha in range(n - 2 * beta + 1):
                    gamma = n - 2 * beta - alpha
                    parts = [ref.q_factorial(alpha), ref.q_factorial(gamma)]
                    parts.append(_even_product(beta))
                    quotient = ref.exact_div(ref.q_factorial(n), ref.product(parts))
                    assert of_rf(theta_a(alpha, beta, gamma)) == (quotient, 0)

    def test_theta_b(self):
        for n in range(15):
            for beta in range(n + 1):
                for alpha in range(n - beta + 1):
                    gamma = n - beta - alpha
                    parts = [ref.q_factorial(i, 2) for i in (alpha, beta, gamma)]
                    whole = ref.q_factorial(n, 2)
                    multinomial = ref.exact_div(whole, ref.product(parts))
                    phi = of_rf(phi_recursive(beta))
                    quotient = ref.frac_mul(ref.frac(multinomial), phi)
                    assert of_rf(theta_b(alpha, beta, gamma)) == quotient

    def test_psi(self):
        quotient = (1,)
        for i in range(1, 31):
            step = ref.exact_div(ref.q_int(4 * i), ref.q_int(2 * i))
            quotient = ref.product((quotient, ref.q_int(2 * i - 1), step))
            assert of_rf(psi(i)) == (quotient, 0)


@pytest.fixture
def cold_qnumbers_caches():
    """Empty every lru_cache table of qnumbers before and after the test, so
    the test computes each value afresh and leaves none behind."""
    tables = [f for f in vars(qnumbers).values() if hasattr(f, "cache_clear")]
    clears = [table.cache_clear for table in tables]
    for clear in clears:
        clear()
    yield
    for clear in clears:
        clear()


def test_formula_route_divides_nothing(monkeypatch, capsys, cold_qnumbers_caches):
    # nor does any other route: the CLI's checks, the oracle, the recurrences
    # and the rewrite engine on every system
    def no_division(*args):
        raise AssertionError("a route reached a polynomial division")

    monkeypatch.setattr(exactarith, "poly_gcd", no_division)
    monkeypatch.setattr(IntPolynomial, "exact_div", no_division)
    expand_formula(SYSTEM_A, 14)
    expand_formula(SYSTEM_B, 12)
    for beta in range(31):
        phi_closed(beta)
    assert cli.main(["verify", "--suite", "all"]) == 0
    assert "error" not in capsys.readouterr().err
    for system in (SYSTEM_A, SYSTEM_B):
        assert expand_oracle(system, 8) == expand_formula(system, 8)
        assert verify_recurrences(system, 6).failures == 0
    for system in SYSTEMS.values():
        for word in ("acab", "cbacba", "aabbcc"):
            normalize(NCPolynomial.from_word(word), system)


def test_chain_families_never_recurse():
    # a fresh interpreter, with a recursion limit far below every index
    code = (
        "import sys\n"
        "from qexpand import qnumbers as Q\n"
        "sys.setrecursionlimit(30)\n"
        "Q.q_factorial(150), Q.psi(75), Q.phi_recursive(150), Q.phi_closed(150)\n"
    )
    src = os.path.dirname(os.path.dirname(qnumbers.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("n, k, power", [(1500, 1, 1), (1500, 1499, 2)])
def test_gaussian_binomial_past_the_recursion_limit(cold_qnumbers_caches, n, k, power):
    # [n, 1] = [n, n-1] = [n]; the chain takes min(k, n-k) steps and never recurses
    assert gaussian_binomial(n, k, power) == q_int(n, power)


def test_families_are_thread_safe(cold_qnumbers_caches):
    # both families are pure functions of their indices, computed in
    # shuffled orders on many threads at once
    cases = [
        (gaussian_binomial, (n, k, p))
        for p in (1, 2)
        for n in range(26)
        for k in range(n + 1)
    ]
    cases += [(phi_recursive, (beta,)) for beta in range(40)]
    expected = [family(*args) for family, args in cases]
    results = {}

    def work(seed):
        order = list(range(len(cases)))
        random.Random(seed).shuffle(order)
        results[seed] = {i: cases[i][0](*cases[i][1]) for i in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for seed in range(8):
        assert [results[seed][i] for i in range(len(cases))] == expected
