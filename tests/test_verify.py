"""Tests for the formula-versus-oracle verification layer."""

import cmath
import hashlib
import json

import pytest

import reference as ref
from conftest import of_rf, plus_one, to_rf

import qexpand
from qexpand.exactarith import (
    IntPolynomial,
    ONE,
    RF_ONE,
    RF_ZERO,
    RationalFunction,
    q_ratio,
)
from qexpand.freealgebra import NCPolynomial
from qexpand import exactarith, qnumbers, verify
from qexpand.ordering import (
    SYSTEM_A,
    SYSTEM_A_C0,
    SYSTEM_B,
    SYSTEM_B_XI0,
    RelationSystem,
    is_normal,
)
from qexpand.qnumbers import (
    THETA_B,
    gaussian_binomial,
    phi_closed,
    q2_multinomial,
    q_int,
    theta,
    theta_a,
    theta_b,
)
from qexpand.verify import (
    SPECS,
    Mismatch,
    _indices,
    base_sum,
    eval_at_root,
    expand_formula,
    expand_oracle,
    verify_degenerations,
    verify_expansions,
    verify_identity_4i2,
    verify_phi,
    verify_recurrences,
)

P = IntPolynomial


def rf(num, k=0):
    return RationalFunction(P(num), k)


def _binomial(alpha, beta, gamma):
    """System A at c = 0: [alpha + gamma, alpha] on words without c, else 0."""
    return RF_ZERO if beta else RationalFunction(gaussian_binomial(alpha + gamma, alpha))


def _multinomial(alpha, beta, gamma):
    """System B at xi = 0: the base-q^2 multinomial coefficient."""
    return RationalFunction(q2_multinomial(alpha, beta, gamma))


# the single-index family of each system, by its own closed form
FAMILIES = {
    SYSTEM_A: theta_a,
    SYSTEM_B: theta_b,
    SYSTEM_A_C0: _binomial,
    SYSTEM_B_XI0: _multinomial,
}


class TestExpandFormula:
    def test_system_a_degree_one(self):
        assert expand_formula(SYSTEM_A, 1) == NCPolynomial({"b": RF_ONE, "a": RF_ONE})

    def test_system_a_degree_two(self):
        expected = NCPolynomial(
            {"bb": RF_ONE, "ba": rf((1, 1)), "c": RF_ONE, "aa": RF_ONE}
        )
        assert expand_formula(SYSTEM_A, 2) == expected

    def test_system_b_degree_two(self):
        expected = NCPolynomial(
            {
                "cc": RF_ONE,
                "cb": rf((1, 0, 1)),
                "ca": rf((1, 0, 1)),
                "bb": rf((1, 0, 1), 1),
                "ba": rf((1, 0, 1)),
                "aa": RF_ONE,
            }
        )
        assert expand_formula(SYSTEM_B, 2) == expected

    def test_term_count_matches_composition_count(self):
        for n in range(1, 9):
            count = sum(
                1
                for beta in range(n // 2 + 1)
                for _alpha in range(n - 2 * beta + 1)
            )
            assert len(expand_formula(SYSTEM_A, n)) == count

    def test_rejects_degenerate_systems_and_bad_n(self):
        # the degenerate systems' families are their Pascal references, up to
        # the degenerations suite's default bounds; they have no recurrence
        for system, bound in ((SYSTEM_A_C0, 12), (SYSTEM_B_XI0, 8)):
            for n in range(1, bound + 1):
                assert expand_formula(system, n) == expand_oracle(system, n)
            with pytest.raises(ValueError, match="no recurrence"):
                verify_recurrences(system, 3)
        with pytest.raises(ValueError):
            expand_formula(SYSTEM_A, 0)


class TestWalk:
    @pytest.mark.parametrize(
        "system, max_n",
        [(SYSTEM_A, 30), (SYSTEM_B, 30), (SYSTEM_A_C0, 20), (SYSTEM_B_XI0, 20)],
        ids=lambda v: getattr(v, "name", v),
    )
    def test_walk_matches_the_single_index_family(self, system, max_n):
        # theta_A and theta_B, and for the degenerate limits the q-binomial
        # and the base-q^2 multinomial, at every index
        spec, family = SPECS[system], FAMILIES[system]
        first, middle, last = system.normal_order
        for n in range(1, max_n + 1):
            expected = NCPolynomial(
                (first * a + middle * b + last * g, family(a, b, g))
                for a, b, g in _indices(spec.closed_form.weight, n)
            )
            assert expand_formula(system, n) == expected

    @pytest.mark.parametrize("system", list(SPECS), ids=lambda s: s.name)
    def test_families_are_symmetric_in_alpha_and_gamma(self, system):
        # the walk builds half of each row and mirrors the rest
        spec, family = SPECS[system], FAMILIES[system]
        for n in range(1, 21):
            for a, b, g in _indices(spec.closed_form.weight, n):
                assert family(a, b, g) == family(g, b, a)

    def test_walk_steps_only_half_of_each_row(self, monkeypatch):
        # every q-integer step, wherever q_ratio is looked up; times_q_int
        # calls the one in exactarith
        calls = []

        def counted(cs, a, b):
            calls.append((a, b))
            return q_ratio(cs, a, b)

        for module in (exactarith, qnumbers, verify):
            monkeypatch.setattr(module, "q_ratio", counted)
        expand_formula(SYSTEM_A, 24)
        # one step per alpha in 1..top//2 of each row top = 24 - 2 beta, and
        # two at each of the 12 row heads, [gamma] and [gamma - 1]/[2 beta]:
        # the factor [2 beta - 1] cancels the denominator of the first
        # ratio; a step per term would be 168
        assert len(calls) == sum(top // 2 for top in range(0, 25, 2)) + 2 * 12 == 102
        calls.clear()
        expand_formula(SYSTEM_B, 24)
        # rows top = 24 - beta; at an odd head [gamma]'/[beta]' and then
        # [beta], which is 1 at beta = 1; at an even head one step, as the
        # factor (1 - q^(2 beta))/(1 - q^beta) cancels [beta]'
        heads = 1 + 2 * 11 + 12
        assert len(calls) == sum(top // 2 for top in range(25)) + heads == 179

    @pytest.mark.parametrize("system", list(SPECS), ids=lambda s: s.name)
    def test_expansion_has_a_nonzero_term_at_every_index(self, system):
        # expand_formula skips the merge and the zero test, which is sound
        # only while every walked index gives one distinct nonzero term
        weight, family = SPECS[system].closed_form.weight, FAMILIES[system]
        for n in range(1, 21):
            terms = expand_formula(system, n).items()
            indices = [i for i in _indices(weight, n) if not family(*i).is_zero()]
            assert len(terms) == len(indices)
            assert not any(c.is_zero() for _, c in terms)


class TestSystemRecord:
    def test_record_is_keyed_by_system_not_name(self):
        # named "A" but with the c = 0 rules: it must not get System A's family
        impostor = RelationSystem("A", "bca", dict(SYSTEM_A_C0.rules))
        with pytest.raises(ValueError):
            expand_formula(impostor, 3)
        with pytest.raises(ValueError):
            verify_recurrences(impostor, 3)
        with pytest.raises(ValueError):
            base_sum(impostor)

    def test_indices_solve_the_degree_equation(self):
        for weight in (1, 2):
            for n in range(9):
                expected = {
                    (alpha, beta, gamma)
                    for alpha in range(n + 1)
                    for beta in range(n + 1)
                    for gamma in range(n + 1)
                    if alpha + weight * beta + gamma == n
                }
                found = list(_indices(weight, n))
                assert len(found) == len(expected)
                assert set(found) == expected


class TestExpandOracle:
    def test_degree_one(self):
        assert expand_oracle(SYSTEM_A, 1) == NCPolynomial({"a": RF_ONE, "b": RF_ONE})
        assert expand_oracle(SYSTEM_B, 1) == NCPolynomial(
            {"a": RF_ONE, "b": RF_ONE, "c": RF_ONE}
        )

    def test_degree_two_matches_formula(self):
        assert expand_oracle(SYSTEM_A, 2) == expand_formula(SYSTEM_A, 2)

    def test_support_shape_system_a(self):
        for n in range(1, 7):
            for word in expand_oracle(SYSTEM_A, n).words():
                assert is_normal(word, SYSTEM_A)
                weight = word.count("a") + word.count("b") + 2 * word.count("c")
                assert weight == n

    def test_support_shape_system_b(self):
        for n in range(1, 5):
            for word in expand_oracle(SYSTEM_B, n).words():
                assert is_normal(word, SYSTEM_B)
                assert len(word) == n


class TestVerifyExpansions:
    def test_system_a_small(self):
        reports = verify_expansions(SYSTEM_A, 4)
        assert len(reports) == 4
        for report in reports:
            assert report.match
            assert report.mismatches == ()
            assert report.match == (report.formula_terms == report.oracle_terms)

    def test_system_b_small(self):
        assert all(r.match for r in verify_expansions(SYSTEM_B, 3))

    def test_one_pass_matches_separate_oracle_calls(self):
        for system in (SYSTEM_A, SYSTEM_B):
            reports = verify_expansions(system, 6)
            for n in range(1, 7):
                assert reports[n - 1].oracle_terms == expand_oracle(system, n)

    def test_a_matching_step_is_the_formula_itself(self):
        # the oracle proves each step equal in packed form and hands back
        # the formula's polynomial, with nothing decoded
        for system in SPECS:
            for report in verify_expansions(system, 8):
                assert report.match
                assert report.oracle_terms is report.formula_terms

    def test_coefficients_past_63_bits_compare_packed(self, monkeypatch):
        # at n = 40, System A has coefficients of 64 bits and more, packed
        # one at a time at W > 64 and proven equal; at n = 41 a planted
        # coefficient of 2^200 fits no digit at that W, so no bound decides
        # the step, and it is decoded
        word, right = "b" * 20 + "a" * 21, theta_a(20, 0, 21)
        wrong = to_rf(ref.frac_add(of_rf(right), ((1 << 200,), 0)))
        walk = verify._walk

        def planted(system, n):
            for w, c in walk(system, n):
                yield w, wrong if (n, w) == (41, word) else c

        monkeypatch.setattr(verify, "_walk", planted)
        reports = verify_expansions(SYSTEM_A, 41)
        values = (v for _, v in reports[39].formula_terms.items())
        assert max(abs(c) for v in values for c in v.num.coeffs) >= 1 << 63
        assert all(r.oracle_terms is r.formula_terms for r in reports[:40])
        assert reports[40].mismatches == (Mismatch(word, wrong, right),)
        assert reports[40].oracle_terms == expand_oracle(SYSTEM_A, 41)

    def test_oracle_output_is_pinned(self):
        # digests of the serialised expansions, computed before the rewrite
        # engine began to reduce each word core once per pass; every
        # numerator and denominator must stay identical
        pinned = {
            (SYSTEM_A, 24): "eaea5f4411ebd777dfa01acc767dcd7966bfaafb81a8287c8206ac2afed43ca6",
            (SYSTEM_B, 14): "573a990e3c951689b9060e6245be5652673d3143ae863179b391ad8bba979886",
        }
        for (system, n), digest in pinned.items():
            data = json.dumps(expand_oracle(system, n).to_json()).encode()
            assert hashlib.sha256(data).hexdigest() == digest

    def test_report_json_schema(self):
        report = verify_expansions(SYSTEM_A, 1)[0]
        data = report.to_json()
        assert set(data) == {"system", "n", "match", "mismatches", "duration_ms"}
        assert data["system"] == "A"
        assert data["n"] == 1
        assert data["match"] is True
        assert data["mismatches"] == []
        assert isinstance(data["duration_ms"], int)


class TestVerifyRecurrences:
    def test_system_a(self):
        summary = verify_recurrences(SYSTEM_A, 10)
        assert summary.failures == 0
        assert summary.cases > 100

    def test_system_b(self):
        summary = verify_recurrences(SYSTEM_B, 8)
        assert summary.failures == 0

    def test_boundary_instance(self):
        # theta(1,0,0) comes out of the recurrence seeded by theta(0,0,0)
        assert theta_a(1, 0, 0) == theta_a(0, 0, 0)
        assert theta_a(0, 0, 0) == RF_ONE

    def test_summary_json(self):
        data = verify_recurrences(SYSTEM_A, 3).to_json()
        assert set(data) == {"suite", "cases", "failures", "duration_ms"}


class TestRecurrencesOnNumerators:
    @pytest.mark.parametrize(
        "system, theta, reference, max_degree",
        [
            (SYSTEM_A, theta_a, ref.reference_a, 14),
            (SYSTEM_B, theta_b, ref.reference_b, 12),
        ],
        ids=["A", "B"],
    )
    def test_sums_equal_the_products(self, system, theta, reference, max_degree):
        # the recurrence as a sum of products in the reference ring, over
        # the package's family values
        spec = SPECS[system]

        def family(*indices):
            return of_rf(theta(*indices))

        cases = negative = 0
        for degree in range(max_degree + 1):
            for alpha, beta, gamma in _indices(spec.closed_form.weight, degree):
                # a zero index sends some term of the recurrence below zero
                negative += min(alpha, beta, gamma) == 0
                value = spec.recurrence(alpha, beta, gamma)
                expected = to_rf(reference(family, alpha, beta, gamma))
                assert (value.num, value.k) == (expected.num, expected.k)
                cases += 1
        assert negative and negative < cases


class TestVerifyPhi:
    def test_through_twenty(self):
        summary = verify_phi(20)
        assert summary.cases == 21
        assert summary.failures == 0

    def test_each_route_builds_one_item_per_case(self, monkeypatch):
        built = {}
        for name in ("phi_sequence", "phi_closed_sequence"):

            def counted(name=name, original=getattr(verify, name)):
                for built[name], value in enumerate(original(), 1):
                    yield value

            monkeypatch.setattr(verify, name, counted)
        assert verify_phi(40).cases == 41
        assert built == {"phi_sequence": 41, "phi_closed_sequence": 41}

    def test_beta_two_from_both_routes(self):
        assert phi_closed(2) == rf((1, 0, 1), 1)


class TestOracles:
    def test_gaussian_binomial_values(self):
        assert gaussian_binomial(2, 1) == P((1, 1))
        assert gaussian_binomial(3, 2) == P((1, 1, 1))
        assert gaussian_binomial(4, 2) == P((1, 1, 2, 1, 1))
        assert gaussian_binomial(3, 5) == P(())
        assert gaussian_binomial(3, 0) == ONE

    def test_gaussian_binomial_symmetry(self):
        for n in range(9):
            for k in range(n + 1):
                assert gaussian_binomial(n, k) == gaussian_binomial(n, n - k)

    def test_one_q_binomial_for_the_package(self):
        for name in ("gaussian_binomial", "q2_multinomial"):
            # verify builds neither and holds no copy of its own
            assert getattr(verify, name, None) in (None, getattr(qnumbers, name))
            assert getattr(qexpand, name) is getattr(qnumbers, name)

    def test_q2_multinomial_values(self):
        assert q2_multinomial(1, 1, 0) == P((1, 0, 1))
        assert q2_multinomial(1, 1, 1) == P(ref.mul(ref.q_int(3, 2), ref.q_int(2, 2)))
        assert q2_multinomial(0, 0, 0) == ONE


class TestVerifyDegenerations:
    def test_small_bounds(self):
        summary = verify_degenerations(6, 5)
        assert summary.failures == 0

    def test_specific_coefficients(self):
        two = expand_oracle(SYSTEM_A_C0, 2)
        assert two.coefficient("ba") == rf((1, 1))
        three = expand_oracle(SYSTEM_A_C0, 3)
        assert three.coefficient("bba") == rf((1, 1, 1))


def _plant(monkeypatch, system, n, change):
    """From now on the formula route of ``system`` at degree n gives its
    terms after ``change``, called on a dict from word to value."""
    walk = verify._walk

    def planted(s, m):
        terms = dict(walk(s, m))
        if (s, m) == (system, n):
            change(terms)
        return iter(terms.items())

    monkeypatch.setattr(verify, "_walk", planted)


class TestSuitesCanFail:
    """One wrong value injected into each suite shows as exactly one failure."""

    def test_lemma_reports_the_mismatched_word(self, wrong_formula_term):
        right = theta_a(1, 1, 1)
        wrong = plus_one(right)
        wrong_formula_term(SYSTEM_A, "bca")
        reports = verify_expansions(SYSTEM_A, 6)
        assert [r.n for r in reports if not r.match] == [4]
        assert reports[3].mismatches == (Mismatch("bca", wrong, right),)
        assert reports[3].to_json()["mismatches"] == [
            {"word": "bca", "formula": wrong.to_json(), "oracle": right.to_json()}
        ]

    def test_lemma_reports_one_mismatch_off_the_mirror_line(self, wrong_formula_term):
        # bbca (alpha 2, gamma 1) shares its value with its mirror bcaa
        right = theta_a(2, 1, 1)
        wrong_formula_term(SYSTEM_A, "bbca")
        reports = verify_expansions(SYSTEM_A, 6)
        assert [r.n for r in reports if not r.match] == [5]
        assert reports[4].mismatches == (Mismatch("bbca", plus_one(right), right),)
        assert reports[4].formula_terms.coefficient("bcaa") == right

    def test_lemma_reports_a_missing_word(self, monkeypatch):
        right = theta_a(1, 1, 1)
        _plant(monkeypatch, SYSTEM_A, 4, lambda terms: terms.pop("bca"))
        reports = verify_expansions(SYSTEM_A, 6)
        assert [r.n for r in reports if not r.match] == [4]
        assert reports[3].mismatches == (Mismatch("bca", RF_ZERO, right),)
        assert reports[3].oracle_terms.coefficient("bca") == right

    def test_lemma_reports_an_extra_word(self, monkeypatch):
        value = rf((1, 1))
        _plant(monkeypatch, SYSTEM_B, 3, lambda terms: terms.update(cccc=value))
        reports = verify_expansions(SYSTEM_B, 5)
        assert [r.n for r in reports if not r.match] == [3]
        assert reports[2].mismatches == (Mismatch("cccc", value, RF_ZERO),)
        assert reports[2].oracle_terms == expand_oracle(SYSTEM_B, 3)

    def test_a_mismatch_holds_the_decoded_oracle_values(self, wrong_formula_term):
        wrong_formula_term(SYSTEM_B, "cba")
        report = verify_expansions(SYSTEM_B, 3)[2]
        assert report.oracle_terms is not report.formula_terms
        assert report.oracle_terms == expand_oracle(SYSTEM_B, 3)
        assert report.mismatches == (
            Mismatch("cba", plus_one(theta_b(1, 1, 1)), theta_b(1, 1, 1)),
        )

    def test_degenerations_count_one_wrong_binomial(self, wrong_formula_term):
        wrong_formula_term(SYSTEM_A_C0, "bbaaaa")  # [6, 2]
        summary = verify_degenerations(6, 5)
        assert (summary.cases, summary.failures) == (82, 1)

    def test_phi_counts_one_wrong_beta(self, monkeypatch):
        original = verify.phi_sequence

        def recursive():
            for beta, phi in enumerate(original()):
                yield plus_one(phi) if beta == 7 else phi

        monkeypatch.setattr(verify, "phi_sequence", recursive)
        summary = verify_phi(10)
        assert (summary.cases, summary.failures) == (11, 1)

    def test_phi_counts_one_wrong_closed_value(self, monkeypatch):
        original = verify.phi_closed_sequence

        def closed():
            for beta, phi in enumerate(original()):
                yield plus_one(phi) if beta == 4 else phi

        monkeypatch.setattr(verify, "phi_closed_sequence", closed)
        summary = verify_phi(10)
        assert (summary.cases, summary.failures) == (11, 1)

    def test_recurrences_count_one_wrong_value(self, monkeypatch):
        spec = SPECS[SYSTEM_B]

        def recurrence(*indices):
            value = spec.recurrence(*indices)
            return plus_one(value) if indices == (1, 1, 1) else value

        monkeypatch.setitem(SPECS, SYSTEM_B, spec._replace(recurrence=recurrence))
        summary = verify_recurrences(SYSTEM_B, 4)
        assert (summary.cases, summary.failures) == (37, 1)

    def test_identity_counts_one_wrong_side(self, monkeypatch):
        original = verify.q_int

        def q_int_wrong(n, power=1):
            value = original(n, power)
            wrong = P(ref.add(value.coeffs, (1,)))
            return wrong if (n, power) == (10, 1) else value

        monkeypatch.setattr(verify, "q_int", q_int_wrong)
        summary = verify_identity_4i2(5)
        assert (summary.cases, summary.failures) == (5, 1)


def _without_the_pole(beta):
    """theta_B's factor phi_beta/phi_(beta-1) with d = 0: 1 + q^beta at an
    even beta, not (1 + q^beta)/(1 - q)."""
    return THETA_B.factor(beta)[:2] + (0,)


WRONG_THETA_B = THETA_B._replace(factor=_without_the_pole)


class TestWrongRecord:
    """A record of theta_B with a wrong beta-factor fails both suites that
    read the record: the lemma through the walk, the recurrences through
    theta."""

    def test_lemma_catches_a_wrong_beta_factor(self, monkeypatch):
        # the walk on the wrong record
        spec = SPECS[SYSTEM_B]
        monkeypatch.setitem(SPECS, SYSTEM_B, spec._replace(closed_form=WRONG_THETA_B))
        reports = verify_expansions(SYSTEM_B, 6)
        assert [r.n for r in reports if not r.match] == [2, 3, 4, 5, 6]
        assert [m.word for m in reports[1].mismatches] == ["bb"]

    def test_recurrences_catch_a_wrong_beta_factor(self, monkeypatch):
        # the wrong record's theta, as the family and inside the recurrence
        def wrong_theta(alpha, beta, gamma):
            return theta(WRONG_THETA_B, alpha, beta, gamma)

        monkeypatch.setattr(verify, "theta_b", wrong_theta)
        spec = SPECS[SYSTEM_B]
        monkeypatch.setitem(SPECS, SYSTEM_B, spec._replace(family=wrong_theta))
        summary = verify_recurrences(SYSTEM_B, 6)
        assert (summary.cases, summary.failures) == (86, 35)


class TestVerifyIdentity:
    def test_through_twenty(self):
        summary = verify_identity_4i2(20)
        assert summary.cases == 20
        assert summary.failures == 0


class TestEvalAtRoot:
    def test_vanishing_coefficient(self):
        p = NCPolynomial({"a": RationalFunction(q_int(3))})
        ((word, value),) = eval_at_root(p, 3)
        assert word == "a"
        assert abs(value) < 1e-12

    def test_finite_value(self):
        p = NCPolynomial({"a": rf((1,), 1)})
        ((_, value),) = eval_at_root(p, 3)
        expected = 1 / (1 - cmath.exp(2j * cmath.pi / 3))
        assert value == pytest.approx(expected)

    def test_negative_sign_point(self):
        p = NCPolynomial({"a": RationalFunction(P((0, 1)))})
        ((_, value),) = eval_at_root(p, 4, sign="-")
        assert value == pytest.approx(-cmath.exp(2j * cmath.pi / 4))

    def test_rejects_small_order(self):
        with pytest.raises(ValueError, match="N must be >= 3"):
            eval_at_root(NCPolynomial({"": RF_ONE}), 2)

    def test_rejects_an_order_that_is_no_integer(self):
        # exp(2 pi i / 3.5) is no root of unity
        for order in (3.5, 4.0, "5"):
            with pytest.raises(TypeError):
                eval_at_root(NCPolynomial({"": RF_ONE}), order)

    def test_formula_matches_oracle_numerically(self):
        q0 = cmath.exp(2j * cmath.pi * 0.2371)
        for system in (SYSTEM_A, SYSTEM_B):
            formula = expand_formula(system, 3)
            oracle = expand_oracle(system, 3)
            assert formula.words() == oracle.words()
            for word in formula.words():
                f = formula.coefficient(word).evaluate(q0)
                o = oracle.coefficient(word).evaluate(q0)
                assert abs(f - o) <= 1e-9 * max(1.0, abs(f), abs(o))
