"""Tests for words and noncommutative polynomials."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexpand.exactarith import IntPolynomial, RF_ONE, RF_ZERO, RationalFunction
from qexpand.freealgebra import NCPolynomial, format_word, parse_word, word_sort_key

P = IntPolynomial


def rf(num, den=(1,)):
    return RationalFunction(P(num), P(den))


Q1 = rf((0, 1))

words = st.text(alphabet="abc", max_size=4)
# cs/±(q-1)^k, the values of Z[q, 1/(1-q)]
small_coeffs = st.builds(
    RationalFunction,
    st.lists(st.integers(-5, 5), min_size=1, max_size=3).map(lambda cs: P(tuple(cs))),
    st.builds(
        lambda sign, k: P((-1, 1)) ** k * sign,
        st.sampled_from([1, -1]),
        st.integers(0, 2),
    ),
)
ncpolys = st.dictionaries(words, small_coeffs, max_size=5).map(NCPolynomial)


class TestParseWord:
    def test_plain(self):
        assert parse_word("aab") == "aab"

    def test_empty_is_identity(self):
        assert parse_word("") == ""

    def test_rejects_foreign_letters(self):
        with pytest.raises(ValueError, match="invalid generator 'x' at position 2"):
            parse_word("axb")


class TestFormatWord:
    def test_runs(self):
        assert format_word("aab") == "a^2·b"
        assert format_word("bbcaaa") == "b^2·c·a^3"

    def test_identity(self):
        assert format_word("") == "1"

    def test_single(self):
        assert format_word("c") == "c"


class TestNCPolynomial:
    def test_add_disjoint(self):
        p = NCPolynomial.from_word("a") + NCPolynomial.from_word("b")
        assert p == NCPolynomial({"a": RF_ONE, "b": RF_ONE})

    def test_add_cancels_to_zero(self):
        p = NCPolynomial({"ba": Q1}) + NCPolynomial({"ba": -Q1})
        assert p == NCPolynomial.zero()
        assert len(p) == 0

    def test_add_merges_coefficients(self):
        p = NCPolynomial({"a": RF_ONE, "c": RF_ONE}) + NCPolynomial({"c": RF_ONE})
        assert p.coefficient("c") == rf((2,))
        assert p.coefficient("a") == RF_ONE

    def test_sub_self_is_zero(self):
        p = NCPolynomial({"ba": Q1, "c": rf((2,))})
        assert p - p == NCPolynomial.zero()
        assert len(p - p) == 0

    def test_sub_merges_a_partial_cancel(self):
        p = NCPolynomial({"a": RF_ONE, "c": rf((3,))}) - NCPolynomial({"c": RF_ONE})
        assert p == NCPolynomial({"a": RF_ONE, "c": rf((2,))})

    def test_sub_rejects_foreign_types(self):
        with pytest.raises(TypeError):
            NCPolynomial.from_word("a") - 1

    def test_mul_concatenates(self):
        p = NCPolynomial.from_word("a") * NCPolynomial.from_word("b")
        assert p == NCPolynomial.from_word("ab")

    def test_square_of_sum(self):
        s = NCPolynomial({"a": RF_ONE, "b": RF_ONE})
        assert s * s == NCPolynomial(
            {"aa": RF_ONE, "ab": RF_ONE, "ba": RF_ONE, "bb": RF_ONE}
        )

    def test_identity_word(self):
        p = NCPolynomial({"ba": Q1, "c": RF_ONE})
        assert NCPolynomial.one() * p == p
        assert p * NCPolynomial.one() == p

    def test_scale_by_zero(self):
        p = NCPolynomial({"ba": Q1, "c": RF_ONE})
        assert p.scale(RF_ZERO) == NCPolynomial.zero()

    def test_scale_single_term(self):
        assert NCPolynomial.from_word("ba").scale(Q1) == NCPolynomial({"ba": Q1})

    def test_scale_distributes(self):
        k = rf((1, 1))
        p = NCPolynomial({"ba": RF_ONE, "c": RF_ONE})
        assert p.scale(k) == NCPolynomial({"ba": k, "c": k})
        assert k * p == p * k == p.scale(k)

    def test_equality_ignores_insertion_order(self):
        assert NCPolynomial([("a", RF_ONE), ("b", RF_ONE)]) == NCPolynomial(
            [("b", RF_ONE), ("a", RF_ONE)]
        )

    def test_free_algebra_keeps_words_distinct(self):
        lhs = NCPolynomial.from_word("ab")
        rhs = NCPolynomial({"ba": Q1, "c": RF_ONE})
        assert lhs != rhs

    def test_canonical_term_order(self):
        p = NCPolynomial({"bb": RF_ONE, "c": RF_ONE, "aa": RF_ONE, "ba": RF_ONE})
        assert [w for w, _ in p.terms()] == ["c", "aa", "ba", "bb"]
        assert sorted(["bca", "c", "", "ab"], key=word_sort_key) == [
            "",
            "c",
            "ab",
            "bca",
        ]

    def test_str_rendering(self):
        p = NCPolynomial({"bb": RF_ONE, "ba": rf((1, 1)), "c": RF_ONE, "aa": RF_ONE})
        assert str(p) == "c + a^2 + (1+q)·b·a + b^2"
        assert str(NCPolynomial.zero()) == "0"
        assert str(NCPolynomial.one()) == "1"

    def test_rejects_invalid_words(self):
        with pytest.raises(ValueError, match="invalid generator"):
            NCPolynomial({"xz": RF_ONE})

    def test_json_round_trip(self):
        p = NCPolynomial({"bca": rf((0, 1, 1), (1, -1)), "": RF_ONE})
        data = p.to_json()
        assert data[0]["word"] == ""
        assert NCPolynomial.from_json(data) == p

    @given(ncpolys, ncpolys, ncpolys)
    @settings(max_examples=40)
    def test_mul_associative(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(ncpolys, ncpolys, ncpolys)
    @settings(max_examples=40)
    def test_mul_distributes(self, x, y, z):
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z

    @given(ncpolys)
    def test_empty_word_is_identity(self, x):
        assert NCPolynomial.one() * x == x
        assert x * NCPolynomial.one() == x

    @given(ncpolys, ncpolys)
    def test_term_count_bound(self, x, y):
        assert len(x * y) <= len(x) * len(y)
