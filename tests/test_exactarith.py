"""Tests for polynomials and the canonical values of Z[q, 1/(1-q)]."""

import cmath
import copy
import pickle

from math import gcd

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import of_rf

from qexpand.exactarith import (
    IntPolynomial,
    ONE,
    RF_ONE,
    RF_ZERO,
    RationalFunction,
    ZERO,
    over_one_minus_q,
    poly_gcd,
    q_ratio,
    times_q_int,
)
from qexpand import exactarith
from qexpand.ordering import (
    SYSTEM_B,
    kronecker_pack,
    kronecker_respace,
    kronecker_unpack,
)
from qexpand.verify import SPECS, Mismatch, VerificationSummary, verify_expansions

P = IntPolynomial


def rf(num, k=0):
    return RationalFunction(P(num), k)


coefficients = st.integers(min_value=-(10**6), max_value=10**6)
polys = st.lists(coefficients, max_size=31).map(lambda cs: P(tuple(cs)))
nonzero_polys = polys.filter(lambda p: not p.is_zero())
small_polys = st.lists(st.integers(-20, 20), max_size=7).map(lambda cs: P(tuple(cs)))
small_nonzero = small_polys.filter(lambda p: not p.is_zero())


def q_minus_one(k):
    return ref.power((-1, 1), k)


def one_minus_q(k):
    return ref.power((1, -1), k)


signs = st.sampled_from([(1,), (-1,)])
rationals = st.builds(RationalFunction, small_polys, st.integers(0, 5))


class TestIntPolynomial:
    def test_constructor_rejects_non_integers(self):
        with pytest.raises(TypeError):
            P((1.5, 2.7))
        with pytest.raises(TypeError):
            P(("3",))
        with pytest.raises(TypeError):
            P("12")

    def test_constructor_accepts_lists_ints_and_bools(self):
        assert P([1, 2, 0]).coeffs == (1, 2)
        p = P((True, False, 2))
        assert p.coeffs == (1, 0, 2)
        assert all(type(c) is int for c in p.coeffs)

    def test_canonical_trims_trailing_zeros(self):
        assert P((1, 2, 0, 0)).coeffs == (1, 2)
        assert P((0, 0)).coeffs == ()
        assert P().is_zero()

    def test_mul_difference_of_squares(self):
        assert P((1, 1)) * P((1, -1)) == P((1, 0, -1))

    def test_add_identity(self):
        p = P((3, 0, -2, 7))
        assert p + ZERO == p

    def test_mul_schoolbook(self):
        assert P((1, 1, 1)) * P((1, 0, 1)) == P((1, 1, 2, 1, 1))

    def test_no_integer_scalars(self):
        # a scalar c is the constant polynomial (c,)
        for op in (lambda p: p * 2, lambda p: 2 * p):
            with pytest.raises(TypeError):
                op(P((1, 1)))

    def test_horner_evaluation(self):
        assert P((1, 1, 1))(2) == 7
        assert P((1, 2))(0) == 1
        assert abs(P((1, 1, 1))(cmath.exp(2j * cmath.pi / 3))) < 1e-12

    def test_exact_div(self):
        assert P((1, 0, -1)).exact_div(P((1, -1))) == P((1, 1))
        with pytest.raises(ValueError):
            P((1, 0, 1)).exact_div(P((1, 1)))
        with pytest.raises(ZeroDivisionError):
            P((1,)).exact_div(ZERO)

    def test_str(self):
        assert str(P((1, 1, 1, 1))) == "1+q+q^2+q^3"
        assert str(P((1, -1))) == "1-q"
        assert str(P((-1, 1))) == "-1+q"
        assert str(P((0, 2, 0, -3))) == "2q-3q^3"
        assert str(ZERO) == "0"

    def test_json_round_trip(self):
        p = P((10**30, -5, 0, 7))
        assert tuple(int(c) for c in p.to_json()) == p.coeffs
        assert p.to_json() == [str(10**30), "-5", "0", "7"]

    @given(polys, polys, polys)
    def test_ring_axioms(self, x, y, z):
        # both sides of each axiom against the reference ring
        a, b, c = x.coeffs, y.coeffs, z.coeffs
        assert (x + y).coeffs == ref.add(a, b) == (y + x).coeffs
        assert ((x + y) + z).coeffs == ref.add(ref.add(a, b), c)
        assert (x + (y + z)).coeffs == ref.add(ref.add(a, b), c)
        assert (x * y).coeffs == ref.mul(a, b) == (y * x).coeffs
        assert ((x * y) * z).coeffs == ref.mul(ref.mul(a, b), c)
        assert (x * (y * z)).coeffs == ref.mul(ref.mul(a, b), c)
        assert (x * (y + z)).coeffs == ref.add(ref.mul(a, b), ref.mul(a, c))

    @given(nonzero_polys, nonzero_polys)
    def test_product_degree_adds(self, x, y):
        assert (x * y).degree == x.degree + y.degree


bases = st.sampled_from([1, 2])


class TestQIntegerSteps:
    """Times [m] in base q^s, and divide by it as the ratio
    (1 - q^s)/(1 - q^(ms)), against multiplication by [m]."""

    @given(polys, st.integers(0, 12), bases)
    def test_times_is_the_product(self, c, m, s):
        assert times_q_int(c.coeffs, m, s) == ref.mul(c.coeffs, ref.q_int(m, s))

    @given(polys, st.integers(1, 12), bases)
    def test_divide_undoes_the_product(self, c, m, s):
        assert q_ratio(ref.mul(c.coeffs, ref.q_int(m, s)), s, m * s) == c.coeffs

    @given(polys, st.integers(2, 12), bases)
    def test_divide_rejects_a_non_multiple(self, c, m, s):
        with pytest.raises(ValueError):
            q_ratio(ref.add(ref.mul(c.coeffs, ref.q_int(m, s)), (1,)), s, m * s)

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            q_ratio((1, 1), 1, 0)

    def test_no_product_or_division_runs(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a q-integer step reached a product or division")

        c = ref.mul(ref.q_int(40), ref.q_int(35, 2))
        monkeypatch.setattr(exactarith, "_mul_coeffs", forbidden)
        monkeypatch.setattr(exactarith, "poly_gcd", forbidden)
        monkeypatch.setattr(IntPolynomial, "exact_div", forbidden)
        assert q_ratio(times_q_int(c, 30, 2), 2, 30 * 2) == c


class TestPolyGcd:
    def test_divides_smaller(self):
        assert poly_gcd(P((1, 0, -1)), P((1, -1))) == P((-1, 1))

    def test_with_zero(self):
        assert poly_gcd(P((2, -2)), ZERO) == P((-1, 1))
        assert poly_gcd(ZERO, P((0, 3))) == P((0, 1))

    def test_coprime(self):
        assert poly_gcd(P((1, 1)), P((1, -1))) == ONE

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError, match="gcd undefined"):
            poly_gcd(ZERO, ZERO)

    @given(small_polys, small_polys)
    def test_gcd_divides_both(self, x, y):
        assume(not (x.is_zero() and y.is_zero()))
        g = poly_gcd(x, y)
        for p in (x, y):
            if not p.is_zero():
                assert ref.mul(p.exact_div(g).coeffs, g.coeffs) == p.coeffs

    def test_gcd_divides_large(self):
        f = P(ref.mul((1, 2, 1), (3, 0, 5)))
        g = P(ref.mul((1, 2, 1), (-1, 7)))
        d = poly_gcd(f, g)
        assert f.exact_div(d) == P((3, 0, 5))
        assert g.exact_div(d) == P((-1, 7))
        assert d == P((1, 2, 1))


@st.composite
def packable(draw):
    """(bits, coefficients): a byte-aligned width up to five 64-bit limbs
    and a coefficient tuple with no trailing zero, every entry in
    [-2**(bits-1), 2**(bits-1)) and the edge values drawn often."""
    bits = 8 * draw(st.integers(1, 40))
    half = 1 << (bits - 1)
    edges = st.sampled_from((-half, -(half - 1), half - 1, -1, 0, 1))
    cs = draw(st.lists(st.one_of(edges, st.integers(-half, half - 1)), max_size=12))
    while cs and not cs[-1]:
        cs.pop()
    return bits, tuple(cs)


class TestKroneckerCodec:
    @given(packable())
    def test_round_trip(self, case):
        bits, cs = case
        packed = kronecker_pack(cs, bits)
        assert packed == sum(c << (bits * i) for i, c in enumerate(cs))
        assert kronecker_unpack(packed, bits) == cs

    @given(packable(), st.integers(0, 40))
    def test_respace_is_the_pack_at_the_new_width(self, case, extra):
        bits, cs = case
        new = bits + 8 * extra
        spaced = kronecker_respace(kronecker_pack(cs, bits), bits, new)
        assert spaced == kronecker_pack(cs, new)
        assert kronecker_unpack(spaced, new) == cs

    def test_edges(self):
        for bits in (8, 56, 64, 72, 128, 136, 192):
            half = 1 << (bits - 1)
            for cs in ((-half,), (half - 1,), (-half, half - 1, -half), (0, 0, -half)):
                assert kronecker_unpack(kronecker_pack(cs, bits), bits) == cs
            assert kronecker_unpack(0, bits) == ()

    def test_distinct_bytes_keep_their_places(self):
        # below its zero top byte every digit has bytes found in no other
        # place, and the signs alternate, so a swapped limb, a reversed byte
        # order or a lost sign changes the result
        for bits in (64, 128, 136, 192):
            width = bits // 8 - 1  # the top byte stays clear of the sign bit
            data = bytes(range(1, 1 + 3 * width))
            cs = tuple(
                (-1) ** i * int.from_bytes(data[i * width : (i + 1) * width], "little")
                for i in range(3)
            )
            value = sum(c << (bits * i) for i, c in enumerate(cs))
            assert kronecker_pack(cs, bits) == value
            assert kronecker_unpack(value, bits) == cs
            assert kronecker_respace(value, bits, bits + 56) == sum(
                c << ((bits + 56) * i) for i, c in enumerate(cs)
            )

    def test_product_of_images_is_image_of_product(self):
        # q -> 2**bits is a ring map, so the packed product decodes to the
        # polynomial product while its coefficients stay below the half-digit
        a, b = (3, -7, 0, 5), (-2, 0, 11)
        product = kronecker_unpack(kronecker_pack(a, 64) * kronecker_pack(b, 64), 64)
        assert product == ref.mul(a, b)


class TestOneMinusQForm:
    @given(small_polys, st.integers(0, 5))
    def test_inverse_of_over_one_minus_q(self, p, k):
        assume(not p.is_zero())
        value = over_one_minus_q(p.coeffs, k)
        twin = over_one_minus_q(value.num.coeffs, value.k)
        assert (twin.num, twin.k) == (value.num, value.k)

    def test_rejects_other_denominators(self):
        # the value itself refuses to exist, so no value has another form:
        # a negative power of 1 - q is the one other the pair can name
        for num in ((1,), ()):
            with pytest.raises(ValueError, match="negative power"):
                rf(num, -1)


class TestRationalFunction:
    def test_cancellation(self):
        assert rf((1, 0, -1), 1) == rf((1, 1))
        assert RationalFunction(P((1, -1)), 1) == RF_ONE

    def test_xi_style_clearing(self):
        # (q+q^2)(1-q) over (1-q)^2
        value = rf((0, 1, 0, -1), 2)
        assert value.num.coeffs == (0, 1, 1)
        assert (value.k, value.den.coeffs) == (1, (1, -1))

    def test_zero_numerator(self):
        assert rf((), 1) == RF_ZERO
        assert (rf((), 3).k, rf((), 3).den) == (0, ONE)
        with pytest.raises(ValueError, match="negative power"):
            rf((), -1)

    def test_sign_and_content_normalization(self):
        # (1-q)^k has constant term 1, so the sign and an integer content
        # of the numerator stay there
        assert rf((-2, -2)).num.coeffs == (-2, -2)
        assert rf((4, 2), 1).num.coeffs == (4, 2)
        assert rf((4, 2), 1).den.coeffs == (1, -1)
        assert rf((-4, -2), 1).num.coeffs == (-4, -2)

    def test_add_common_denominator(self):
        # 1/(1-q) + 1/(1-q)^2 over (1-q)^2
        assert rf((1,), 1) + rf((1,), 2) == rf((2, -1), 2)

    def test_one_plus_xi(self):
        xi = rf((0, 1, 1), 1)
        assert RF_ONE + xi == rf((1, 0, 1), 1)

    def test_add_sums_to_zero(self):
        x = rf((1, 2), 1)
        assert x + rf((-1, -2), 1) == RF_ZERO

    def test_constructor_rejects_non_polynomials(self):
        # an int is no polynomial: RationalFunction(IntPolynomial((3,))) is 3
        for args in ((3,), (3, 0), ((1, 1),), ((1, 1), 2)):
            with pytest.raises(TypeError, match="IntPolynomial"):
                RationalFunction(*args)

    def test_constructor_checks_k(self):
        for k in (1.0, "1", None, (1, -1)):
            with pytest.raises(TypeError):
                rf((1,), k)
        value = rf((0, 1, 1), True)
        assert (value.k, type(value.k)) == (1, int)

    @given(small_polys, st.integers(0, 5), st.integers(0, 5))
    def test_cancellation_invariant(self, a, k, j):
        num = P(ref.mul(a.coeffs, one_minus_q(j)))
        assert RationalFunction(num, k + j) == RationalFunction(a, k)

    def test_unit_denominators(self):
        for cs in ((), (1,), (3, 0, -2), (1, -1)):
            p = P(cs)
            assert RationalFunction(p, 0) == RationalFunction(p)
            assert (RationalFunction(p).k, RationalFunction(p).den) == (0, ONE)

    @given(small_nonzero, st.integers(0, 6))
    def test_one_minus_q_power_denominators(self, p, k):
        value = rf(p.coeffs, k)
        assert value.den.coeffs == one_minus_q(value.k)
        assert value.k == 0 or value.num(1) != 0
        assert value == over_one_minus_q(p.coeffs, k)
        if p(1) != 0:
            assert value.k == k

    def test_refuses_other_denominators(self):
        # a denominator polynomial, even (1-q)^k itself, is no power k
        for den in ((2,), (1, 1), (-1, 0, 1), (1, -1), (1,), ()):
            for num in ((1,), (), (-1, 1)):
                with pytest.raises(TypeError):
                    RationalFunction(P(num), P(den))

    def test_json_round_trip(self):
        x = rf((0, 1, 1), 1)
        assert ref.published(x.to_json()) == of_rf(x)
        assert x.to_json() == {"num": ["0", "-1", "-1"], "den": ["-1", "1"]}

    def test_str(self):
        assert str(rf((1, 0, 1), 1)) == "(1+q^2)/(1-q)"
        assert str(rf((1, 1))) == "1+q"
        assert str(RF_ZERO) == "0"


class TestValueTypes:
    """The hand-written value protocol of the two slot classes."""

    def test_fields_are_read_only(self):
        p, r = P((1, 2)), rf((1,), 1)
        for value, name in ((p, "coeffs"), (r, "num"), (r, "k"), (r, "den")):
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            p.extra = 1
        assert (p.coeffs, r.num, r.k, r.den) == ((1, 2), P((1,)), 1, P((1, -1)))
        assert RationalFunction.__slots__ == ("num", "k")

    def test_hash_is_that_of_the_field_tuple(self):
        for p in (ZERO, ONE, P((3, 0, -2))):
            assert hash(p) == hash((p.coeffs,))
        for r in (RF_ZERO, RF_ONE, rf((0, 1, 1), 1)):
            assert hash(r) == hash((r.num, r.k))
        assert hash(rf((1, 0, -1), 1)) == hash(rf((1, 1)))

    def test_repr(self):
        assert repr(P((1, 0, 2))) == "IntPolynomial(coeffs=(1, 0, 2))"
        assert repr(rf((0, 1, 1), 1)) == (
            "RationalFunction(num=IntPolynomial(coeffs=(0, 1, 1)), k=1)"
        )

    def test_copy_and_pickle_round_trips(self):
        xi = rf((0, 1, 1), 1)
        assert xi.__reduce__() == (RationalFunction, (P((0, 1, 1)), 1))
        values = (
            ZERO,
            P((3, 0, -2)),
            RF_ZERO,
            xi,
            Mismatch("ab", RF_ONE, xi),
            verify_expansions(SYSTEM_B, 3)[-1],
            VerificationSummary("phi", 11, 0, 2),
            SPECS[SYSTEM_B],
        )
        for value in values:
            for twin in (
                copy.copy(value),
                copy.deepcopy(value),
                pickle.loads(pickle.dumps(value)),
            ):
                assert type(twin) is type(value)
                assert twin == value

    def test_traced_methods_are_the_classes_own(self):
        # the benchmark tracer rebinds these keys of each class's __dict__
        assert {"__mul__", "exact_div"} <= set(IntPolynomial.__dict__)
        assert "__init__" in RationalFunction.__dict__


def is_canonical(value):
    """num/(1-q)^k with no trailing zero in num, and 1 - q not dividing num
    when k > 0; zero is 0/1."""
    k = value.k
    cs = value.num.coeffs
    return (
        type(value.num) is IntPolynomial
        and type(k) is int
        and k >= 0
        and value.den.coeffs == one_minus_q(k)
        and (not cs or cs[-1] != 0)
        and (k == 0 or (bool(cs) and sum(cs) != 0))
    )


# p (1-q)^j / (1-q)^k, through the public constructor
trusted_cases = st.tuples(small_polys, st.integers(0, 4), st.integers(0, 6))


def public(case):
    p, j, k = case
    return rf(ref.mul(p.coeffs, one_minus_q(j)), k)


def check_json(value):
    """The JSON of a value is num over (q-1)^k, and the reference reads it
    as the value itself."""
    data = value.to_json()
    assert data["den"] == [str(c) for c in q_minus_one(value.k)]
    assert ref.published(data) == of_rf(value)


class TestTrustedConstructor:
    """over_one_minus_q and the ring operations build their results without
    the public constructor's checks; both routes decode through the first,
    so only a comparison with the public constructor can catch a fault."""

    @given(trusted_cases)
    @settings(deadline=None)
    def test_over_one_minus_q(self, case):
        p, j, k = case
        value = over_one_minus_q(ref.mul(p.coeffs, one_minus_q(j)), k)
        assert is_canonical(value)
        assert value == public(case)
        check_json(value)

    @given(trusted_cases, trusted_cases)
    @settings(deadline=None)
    def test_sum_and_product(self, case_x, case_y):
        # the cross-multiplied forms, by the reference ring, through the
        # public constructor
        x, y = public(case_x), public(case_y)
        (xn, xd), (yn, yd) = [(v.num.coeffs, one_minus_q(v.k)) for v in (x, y)]
        k = x.k + y.k
        cases = (
            (x + y, rf(ref.add(ref.mul(xn, yd), ref.mul(yn, xd)), k)),
            (x * y, rf(ref.mul(xn, yn), k)),
        )
        for value, expected in cases:
            assert is_canonical(value)
            assert value == expected
            check_json(value)


class TestEvaluate:
    def test_plain_value(self):
        assert rf((1, 0, 0, -1), 1).evaluate(2) == pytest.approx(7)

    def test_root_of_unity_zero(self):
        value = rf((1, 1, 1)).evaluate(cmath.exp(2j * cmath.pi / 3))
        assert abs(value) < 1e-12

    def test_pole_detection(self):
        # only a denominator that is exactly zero in floats raises
        with pytest.raises(ZeroDivisionError):
            rf((1,), 1).evaluate(1.0)

    @given(rationals, rationals, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60)
    def test_homomorphism_on_unit_circle(self, x, y, t):
        q0 = cmath.exp(2j * cmath.pi * t)
        for r in (x, y):
            scale = 1.0 + max((abs(c) for c in r.den.coeffs), default=0)
            assume(abs(complex(r.den(q0))) > 1e-3 * scale)
        product = x * y
        vx, vy, vxy = x.evaluate(q0), y.evaluate(q0), product.evaluate(q0)
        assert abs(vxy - vx * vy) <= 1e-9 * max(1.0, abs(vxy), abs(vx * vy))


# Differential tests against sympy.  Operands reach 48 coefficients, and
# coefficients reach past 2**64 in both signs.

QS = sympy.Symbol("q")
big_coefficients = st.integers(min_value=-(2**70), max_value=2**70)


def dense(coeffs, max_len):
    return st.integers(0, max_len).flatmap(
        lambda n: st.lists(coeffs, min_size=n, max_size=n).map(lambda cs: P(cs))
    )


def monomials(coeffs):
    nonzero = coeffs.filter(bool)
    return st.builds(lambda d, c: P(ref.monomial(d, c)), st.integers(0, 32), nonzero)


def sparse(coeffs, max_len):
    # about half the coefficients zero, as in the base-q^2 q-integers
    return st.lists(st.one_of(st.just(0), coeffs), max_size=max_len).map(P)


operands = st.one_of(
    dense(big_coefficients, 48),
    dense(st.integers(-3, 3), 48),
    sparse(big_coefficients, 48),
    monomials(big_coefficients),
    st.just(ZERO),
    st.just(ONE),
    st.just(P((-1,))),
)


def to_sympy(p):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], QS, domain="ZZ")


def from_sympy(poly):
    return P(tuple(int(c) for c in reversed(poly.all_coeffs())))


def reduced_pair(num, den):
    """num/den with their shared integer content removed and den's constant
    term made positive."""
    shared = gcd(*num.coeffs, *den.coeffs)
    if den.coeffs[0] < 0:
        shared = -shared
    return (
        P(tuple(c // shared for c in num.coeffs)),
        P(tuple(c // shared for c in den.coeffs)),
    )


class TestAgainstSympy:
    @given(operands, operands)
    @settings(deadline=None)
    def test_mul(self, x, y):
        assert x * y == from_sympy(to_sympy(x) * to_sympy(y))

    def test_mul_large_signed(self):
        x = P(tuple((-1) ** k * (2**80 + k) for k in range(48)))
        y = P(tuple((-3) ** k for k in range(32)))
        assert x * y == from_sympy(to_sympy(x) * to_sympy(y))
        assert x * -y == from_sympy(-to_sympy(x) * to_sympy(y))

    @given(operands, operands.filter(bool))
    @settings(deadline=None)
    def test_exact_div(self, x, y):
        assert P(ref.mul(x.coeffs, y.coeffs)).exact_div(y) == x
        quotient, remainder = to_sympy(x).div(to_sympy(y))
        exact = remainder.is_zero and all(c.is_integer for c in quotient.all_coeffs())
        if exact:
            assert x.exact_div(y) == from_sympy(quotient)
        else:
            with pytest.raises(ValueError):
                x.exact_div(y)

    @given(operands, operands, dense(st.integers(-50, 50), 8))
    @settings(deadline=None)
    def test_poly_gcd(self, x, y, shared):
        x, y = (P(ref.mul(p.coeffs, shared.coeffs)) for p in (x, y))
        assume(x or y)
        g = from_sympy(to_sympy(x).gcd(to_sympy(y)))
        # its primitive associate with a positive leading coefficient
        content = gcd(*g.coeffs) if g.coeffs[-1] > 0 else -gcd(*g.coeffs)
        assert poly_gcd(x, y) == P(tuple(c // content for c in g.coeffs))

    def check_canonical(self, num, k):
        value = RationalFunction(num, k)
        if num.is_zero():
            assert (value.num, value.k, value.den) == (ZERO, 0, ONE)
            return
        den = P(one_minus_q(k))
        p, r = to_sympy(num).cancel(to_sympy(den), include=True)
        expected = reduced_pair(from_sympy(p), from_sympy(r))
        assert (value.num, value.den) == expected

    @given(operands, st.integers(0, 6), st.integers(0, 12), signs)
    @settings(deadline=None)
    def test_canonical_over_q_minus_one_powers(self, x, m, k, sign):
        # (1-q)^k under ±x times m factors (q-1) of its own
        num = ref.mul(ref.mul(x.coeffs, q_minus_one(m)), sign)
        self.check_canonical(P(num), k)

    @given(
        dense(st.integers(-99, 99), 20),
        st.integers(0, 8),
        st.integers(0, 8),
        signs,
    )
    @settings(deadline=None)
    def test_sums_match_cross_multiplication(self, x, m, k, sign):
        num = ref.mul(ref.mul(x.coeffs, q_minus_one(m)), sign)
        fast = rf(num, k)
        y = rf((1, 2, 3), m)
        # the sum over den(fast) den(y), cross-multiplied by sympy
        fn, fd, yn, yd = map(to_sympy, (fast.num, fast.den, y.num, y.den))
        assert from_sympy(fd * yd).coeffs == one_minus_q(fast.k + y.k)
        cross = rf(from_sympy(fn * yd + yn * fd).coeffs, fast.k + y.k)
        assert fast + y == cross
