"""Tests for the normal-ordering rewrite engine."""

import copy
import random

import pytest

from qexpand.exactarith import IntPolynomial, RF_ONE, RationalFunction
from qexpand.freealgebra import NCPolynomial
from qexpand import ordering
from qexpand.ordering import (
    SYSTEM_A,
    SYSTEM_A_C0,
    SYSTEM_B,
    SYSTEM_B_XI0,
    SYSTEMS,
    RelationSystem,
    is_normal,
    normalize,
)
from qexpand.qnumbers import q_int, xi

P = IntPolynomial


def qpow(k):
    return RationalFunction(P.monomial(k))


def word_poly(word, coeff=RF_ONE):
    return NCPolynomial.from_word(word, coeff)


class TestRelationSystem:
    def test_known_systems_registered(self):
        assert set(SYSTEMS) == {"A", "B", "A-c0", "B-xi0"}
        assert SYSTEM_A.rank == {"b": 0, "c": 1, "a": 2}
        assert SYSTEM_B.rank == {"c": 0, "b": 1, "a": 2}

    def test_rule_must_shrink_measure(self):
        with pytest.raises(ValueError, match="does not shrink"):
            RelationSystem("bad", "bca", {"ab": NCPolynomial({"ab": RF_ONE})})

    def test_rule_pattern_must_be_reducible(self):
        with pytest.raises(ValueError, match="already normal"):
            RelationSystem("bad", "bca", {"ba": NCPolynomial({"c": RF_ONE})})

    def test_nonterminating_system_rejected(self):
        # ca -> cc grows in deglex under a < b < c, and cab -> ccb -> cab
        # would loop; the check must refuse the system before any rewriting
        ab = NCPolynomial({"ab": RF_ONE})
        with pytest.raises(ValueError, match="does not shrink"):
            RelationSystem(
                "loop", "abc", {"ba": ab, "ca": NCPolynomial({"cc": RF_ONE}), "cb": ab}
            )

    def test_unresolvable_overlap_rejected_system_a(self):
        # rewriting ac first ends in q^4 bca + q^2 cc, rewriting cb first
        # in q^4 bca + q cc
        rules = {**SYSTEM_A.rules, "cb": NCPolynomial({"bc": qpow(1)})}
        with pytest.raises(ValueError, match="overlap 'acb'"):
            RelationSystem("bad", "bca", rules)

    def test_unresolvable_overlap_rejected_system_b(self):
        rules = {**SYSTEM_B.rules, "bc": NCPolynomial({"cb": qpow(1)})}
        with pytest.raises(ValueError, match="overlap 'abc'"):
            RelationSystem("bad", "cba", rules)

    def test_pure_q_commutations_resolve(self):
        # with no c term in ab, both sides of acb collect the same power of q
        rules = {**SYSTEM_A_C0.rules, "cb": NCPolynomial({"bc": qpow(1)})}
        system = RelationSystem("A-c0 variant", "bca", rules)
        assert normalize(word_poly("acb"), system) == NCPolynomial({"bca": qpow(4)})

    def test_normal_order_must_permute_generators(self):
        rule = {"ab": NCPolynomial({"ba": RF_ONE})}
        for order in ("bc", "bcaa", "bcd", "bba"):
            with pytest.raises(ValueError, match="not a permutation"):
                RelationSystem("bad", order, rule)

    def test_rule_pattern_must_be_a_word(self):
        with pytest.raises(ValueError, match="invalid generator 'd'"):
            RelationSystem("bad", "bca", {"ad": NCPolynomial({"ca": RF_ONE})})

    def test_builtin_rules_shrink_in_deglex(self):
        for system in SYSTEMS.values():
            for pattern, replacement in system.rules.items():
                for word in replacement.words():
                    assert system.order_key(word) > system.order_key(pattern)

    def test_order_key_is_deglex(self):
        # under b < c < a: longer words first, then the larger letter first
        words = ["b", "c", "a", "bb", "ab", "acb", "bca", "aab", "aba"]
        ranked = sorted(words, key=SYSTEM_A.order_key)
        assert ranked == ["aab", "acb", "aba", "bca", "ab", "bb", "a", "c", "b"]


class TestIsNormal:
    def test_system_a_shape(self):
        assert is_normal("bca", SYSTEM_A)
        assert not is_normal("ab", SYSTEM_A)
        assert is_normal("bbcaa", SYSTEM_A)

    def test_system_b_shape(self):
        assert is_normal("cba", SYSTEM_B)
        assert not is_normal("bc", SYSTEM_B)

    def test_trivial_words(self):
        for system in SYSTEMS.values():
            assert is_normal("", system)
            assert is_normal("a", system)


class TestRewriteStep:
    """Words whose normal form is one rewrite step away, or zero steps."""

    def test_core_rule_a(self):
        assert normalize(word_poly("ab"), SYSTEM_A) == NCPolynomial(
            {"ba": qpow(1), "c": RF_ONE}
        )

    def test_core_rule_b(self):
        assert normalize(word_poly("ac"), SYSTEM_B) == NCPolynomial(
            {"ca": qpow(2), "bb": xi()}
        )

    def test_swap_rule(self):
        assert normalize(word_poly("cb"), SYSTEM_A) == NCPolynomial({"bc": qpow(2)})

    def test_normal_word_is_noop(self):
        assert normalize(word_poly("bca"), SYSTEM_A) == word_poly("bca")


class TestNormalizeExamples:
    def test_aab_system_a(self):
        result = normalize(word_poly("aab"), SYSTEM_A)
        expected = NCPolynomial(
            {"baa": qpow(2), "ca": RationalFunction(P.monomial(1) * q_int(2))}
        )
        assert result == expected

    def test_aac_system_b(self):
        result = normalize(word_poly("aac"), SYSTEM_B)
        expected = NCPolynomial(
            {
                "caa": qpow(4),
                "bba": xi() * RationalFunction(P.monomial(2) * q_int(2, 2)),
            }
        )
        assert result == expected

    def test_mixed_word_system_a(self):
        result = normalize(word_poly("bcab"), SYSTEM_A)
        expected = NCPolynomial({"bbca": qpow(3), "bcc": RF_ONE})
        assert result == expected


class TestAuxiliaryFamilies:
    def test_a_power_times_b(self):
        for n in range(1, 11):
            result = normalize(word_poly("a" * n + "b"), SYSTEM_A)
            expected = NCPolynomial(
                {
                    "b" + "a" * n: qpow(n),
                    "c" + "a" * (n - 1): RationalFunction(
                        P.monomial(n - 1) * q_int(n)
                    ),
                }
            )
            assert result == expected

    def test_a_power_times_c(self):
        for n in range(1, 11):
            result = normalize(word_poly("a" * n + "c"), SYSTEM_B)
            expected = NCPolynomial(
                {
                    "c" + "a" * n: qpow(2 * n),
                    "bb" + "a" * (n - 1): xi()
                    * RationalFunction(P.monomial(2 * (n - 1)) * q_int(n, 2)),
                }
            )
            assert result == expected

    def test_mixed_relation_system_a(self):
        for alpha in range(4):
            for beta in range(4):
                for gamma in range(4):
                    word = "b" * alpha + "c" * beta + "a" * gamma + "b"
                    terms = {
                        "b" * (alpha + 1) + "c" * beta + "a" * gamma: qpow(
                            gamma + 2 * beta
                        )
                    }
                    if gamma >= 1:
                        terms["b" * alpha + "c" * (beta + 1) + "a" * (gamma - 1)] = (
                            RationalFunction(P.monomial(gamma - 1) * q_int(gamma))
                        )
                    assert normalize(word_poly(word), SYSTEM_A) == NCPolynomial(terms)

    def test_mixed_relations_system_b(self):
        for alpha in range(4):
            for beta in range(4):
                for gamma in range(4):
                    prefix = "c" * alpha + "b" * beta + "a" * gamma
                    expected_b = NCPolynomial(
                        {
                            "c" * alpha + "b" * (beta + 1) + "a" * gamma: qpow(
                                2 * gamma
                            )
                        }
                    )
                    assert normalize(word_poly(prefix + "b"), SYSTEM_B) == expected_b

                    terms = {
                        "c" * (alpha + 1) + "b" * beta + "a" * gamma: qpow(
                            2 * gamma + 2 * beta
                        )
                    }
                    if gamma >= 1:
                        terms[
                            "c" * alpha + "b" * (beta + 2) + "a" * (gamma - 1)
                        ] = xi() * RationalFunction(
                            P.monomial(2 * (gamma - 1)) * q_int(gamma, 2)
                        )
                    assert normalize(word_poly(prefix + "c"), SYSTEM_B) == NCPolynomial(
                        terms
                    )


def _random_words(count, max_len, seed):
    rng = random.Random(seed)
    return [
        "".join(rng.choice("abc") for _ in range(rng.randint(0, max_len)))
        for _ in range(count)
    ]


class TestNormalizeProperties:
    def test_idempotent(self):
        for word in _random_words(60, 6, seed=11):
            for system in (SYSTEM_A, SYSTEM_B):
                once = normalize(word_poly(word), system)
                assert normalize(once, system) == once

    def test_linear(self):
        words = _random_words(40, 5, seed=12)
        k = RationalFunction(P((1, 1)))
        for w1, w2 in zip(words[::2], words[1::2]):
            for system in (SYSTEM_A, SYSTEM_B):
                x = word_poly(w1)
                y = word_poly(w2, k)
                assert normalize(x + y, system) == normalize(x, system) + normalize(
                    y, system
                )

    def test_every_output_word_is_normal(self):
        for word in _random_words(60, 6, seed=13):
            for system in SYSTEMS.values():
                for w in normalize(word_poly(word), system).words():
                    assert is_normal(w, system)

    def test_confluence_smoke(self, reduce_randomly):
        rng = random.Random(99)
        for word in _random_words(200, 8, seed=14):
            for system in (SYSTEM_A, SYSTEM_B):
                left = normalize(word_poly(word), system)
                assert left == reduce_randomly(word_poly(word), system, rng)

    def test_each_word_is_rewritten_once(self, monkeypatch):
        seen = []
        apply_at = ordering._apply_at

        def recording(word, i, system):
            seen.append(word)
            return apply_at(word, i, system)

        monkeypatch.setattr(ordering, "_apply_at", recording)
        for word in _random_words(100, 8, seed=15):
            for system in SYSTEMS.values():
                seen.clear()
                normalize(word_poly(word), system)
                assert len(seen) == len(set(seen))

    def test_normalize_stores_nothing(self):
        system = RelationSystem("fresh", "bca", dict(SYSTEM_A.rules))
        before = {name: copy.copy(value) for name, value in vars(system).items()}
        first = normalize(word_poly("acab"), system)
        again = normalize(word_poly("acab"), system)
        assert first == again
        assert vars(system) == before

    def test_degenerate_systems_drop_extra_terms(self):
        assert normalize(word_poly("ab"), SYSTEM_A_C0) == NCPolynomial({"ba": qpow(1)})
        assert normalize(word_poly("ac"), SYSTEM_B_XI0) == NCPolynomial(
            {"ca": qpow(2)}
        )
