"""Tests for words and noncommutative polynomials."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import of_nc, to_nc

from qexpand.exactarith import IntPolynomial, RF_ONE, RationalFunction
from qexpand.freealgebra import NCPolynomial, format_word, parse_word, word_sort_key

P = IntPolynomial


def rf(num, k=0):
    return RationalFunction(P(num), k)


Q1 = rf((0, 1))
ONE = NCPolynomial({"": RF_ONE})

words = st.text(alphabet="abc", max_size=4)
# cs/±(q-1)^k, the values of Z[q, 1/(1-q)], in the reference form
small_coeffs = st.builds(
    ref.frac,
    st.lists(st.integers(-5, 5), min_size=1, max_size=3),
    st.integers(0, 2),
).filter(lambda c: c != ref.ZERO)
ncpolys = st.dictionaries(words, small_coeffs, max_size=5)


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
    """Sums are built by the constructor, which adds the coefficients of a
    repeated word and drops a word whose coefficients cancel; a scalar k
    multiplies as the empty word with coefficient k."""

    def test_add_disjoint(self):
        p = NCPolynomial([("a", RF_ONE), ("b", RF_ONE)])
        assert p.words() == ["a", "b"]
        assert p.coefficient("a") == p.coefficient("b") == RF_ONE

    def test_add_cancels_to_zero(self):
        p = NCPolynomial([("ba", Q1), ("ba", rf((0, -1)))])
        assert p == NCPolynomial()
        assert len(p) == 0

    def test_add_merges_coefficients(self):
        p = NCPolynomial([("a", RF_ONE), ("c", RF_ONE), ("c", RF_ONE)])
        assert p.coefficient("c") == rf((2,))
        assert p.coefficient("a") == RF_ONE

    def test_mul_rejects_foreign_types(self):
        p = NCPolynomial.from_word("a")
        for op in (lambda: p * 1, lambda: p * Q1, lambda: Q1 * p):
            with pytest.raises(TypeError):
                op()

    def test_rejects_coefficients_that_are_not_rational_functions(self):
        for coeff in (1, P((1,)), (1,)):
            with pytest.raises(TypeError, match="coefficient of 'ab'"):
                NCPolynomial({"ab": coeff})

    def test_from_word_checks_its_coefficient(self):
        for coeff in (P((1, 2)), 3):
            with pytest.raises(TypeError, match="coefficient of 'ab'"):
                NCPolynomial.from_word("ab", coeff)
        with pytest.raises(ValueError, match="invalid generator"):
            NCPolynomial.from_word("ax")
        assert NCPolynomial.from_word("ab", rf(())) == NCPolynomial()
        assert NCPolynomial.from_word("ab", Q1) == NCPolynomial({"ab": Q1})

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
        assert ONE * p == p
        assert p * ONE == p

    def test_scale_by_zero(self):
        p = NCPolynomial({"ba": Q1, "c": RF_ONE})
        zero = NCPolynomial({"": rf(())})
        assert zero == NCPolynomial()
        assert p * zero == zero * p == NCPolynomial()

    def test_scale_single_term(self):
        scaled = NCPolynomial.from_word("ba") * NCPolynomial({"": Q1})
        assert scaled == NCPolynomial({"ba": Q1})

    def test_scale_distributes(self):
        k = NCPolynomial({"": rf((1, 1))})
        p = NCPolynomial({"ba": RF_ONE, "c": RF_ONE})
        assert k * p == p * k == NCPolynomial({"ba": rf((1, 1)), "c": rf((1, 1))})

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
        assert str(NCPolynomial()) == "0"
        assert str(ONE) == "1"

    def test_rejects_invalid_words(self):
        with pytest.raises(ValueError, match="invalid generator"):
            NCPolynomial({"xz": RF_ONE})

    def test_json_round_trip(self):
        p = NCPolynomial({"bca": rf((0, 1, 1), 1), "": RF_ONE})
        data = p.to_json()
        assert [item["word"] for item in data] == ["", "bca"]
        assert ref.published_terms(data) == of_nc(p)

    @given(ncpolys, ncpolys, ncpolys)
    @settings(max_examples=40)
    def test_mul_associative(self, x, y, z):
        # both groupings against the reference product
        expected = ref.nc_mul(ref.nc_mul(x, y), z)
        x, y, z = map(to_nc, (x, y, z))
        assert of_nc((x * y) * z) == expected
        assert of_nc(x * (y * z)) == expected

    @given(ncpolys, ncpolys, ncpolys)
    @settings(max_examples=40)
    def test_mul_distributes(self, x, y, z):
        # a product of sums, the sums built by the constructor
        left = to_nc(x) * to_nc(ref.nc_add(y, z))
        right = to_nc(ref.nc_add(x, y)) * to_nc(z)
        assert of_nc(left) == ref.nc_add(ref.nc_mul(x, y), ref.nc_mul(x, z))
        assert of_nc(right) == ref.nc_add(ref.nc_mul(x, z), ref.nc_mul(y, z))

    @given(ncpolys)
    def test_empty_word_is_identity(self, x):
        p = to_nc(x)
        assert of_nc(ONE * p) == x
        assert of_nc(p * ONE) == x

    @given(ncpolys, ncpolys)
    def test_term_count_bound(self, x, y):
        assert len(to_nc(x) * to_nc(y)) <= len(x) * len(y)
