"""Tests for the normal-ordering rewrite engine."""

import copy
import random
from itertools import islice, permutations, product, repeat

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from conftest import of_nc, of_rf, to_nc, to_rf

from qexpand.exactarith import (
    IntPolynomial,
    RF_ONE,
    RationalFunction,
    over_one_minus_q,
)
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
    kronecker_pack,
    kronecker_unpack,
    normal_power,
    normal_powers,
    normalize,
)
from qexpand.qnumbers import xi
from qexpand.verify import base_sum, expand_formula, expand_oracle

P = IntPolynomial


def qpow(k):
    return to_rf(ref.q_power(k))



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

    def test_partial_system_rejected(self):
        # without rules for cb and ac, the out-of-order word ac would have
        # no rewrite and would fail only when normalised
        with pytest.raises(ValueError, match="no rule for .*'cb', 'ac'"):
            RelationSystem("partial", "bca", {"ab": SYSTEM_A.rules["ab"]})

    def test_normal_order_must_permute_generators(self):
        rule = {"ab": NCPolynomial({"ba": RF_ONE})}
        for order in ("bc", "bcaa", "bcd", "bba"):
            with pytest.raises(ValueError, match="not a permutation"):
                RelationSystem("bad", order, rule)

    def test_rule_coefficient_must_lie_in_the_ring(self):
        # the engine packs every rule coefficient as num/(1-q)^k; a
        # coefficient outside Z[q, 1/(1-q)] cannot even be built, since a
        # value names its denominator by the power k
        for den in ((2,), (1, 1)):
            with pytest.raises(TypeError):
                RationalFunction(P((1,)), P(den))
        with pytest.raises(ValueError, match="negative power"):
            RationalFunction(P((1,)), -1)

    def test_rules_that_all_map_to_zero(self):
        zero = NCPolynomial()
        system = RelationSystem("zero", "bca", {"ab": zero, "ac": zero, "cb": zero})
        assert normalize(word_poly("acab"), system) == zero
        assert normalize(word_poly("bca"), system) == word_poly("bca")

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

    def test_every_short_word_against_the_definition(self):
        # the ranks, read left to right, never decrease
        for system in SYSTEMS.values():
            words = [""]
            for _ in range(6):
                words = [w + x for w in words for x in "abc"]
                for word in words:
                    ranks = [system.rank[x] for x in word]
                    assert is_normal(word, system) == (ranks == sorted(ranks))


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
        assert result == to_nc(ref.a_word_times_b(0, 0, 2))

    def test_aac_system_b(self):
        result = normalize(word_poly("aac"), SYSTEM_B)
        assert result == to_nc(ref.b_word_times("c", 0, 0, 2))

    def test_mixed_word_system_a(self):
        result = normalize(word_poly("bcab"), SYSTEM_A)
        expected = NCPolynomial({"bbca": qpow(3), "bcc": RF_ONE})
        assert result == expected


def _chain(system, k):
    """The normal form of a^k b: q^k b a^k + q^(k-1)[k] c a^(k-1) in
    System A and q^(2k) b a^k in System B."""
    if system is SYSTEM_B:
        return to_nc(ref.b_word_times("b", 0, 0, k))
    return to_nc(ref.a_word_times_b(0, 0, k))


class TestAuxiliaryFamilies:
    def test_a_power_times_b(self, reduce_randomly):
        rng = random.Random(23)
        for system in (SYSTEM_A, SYSTEM_B):
            for k in range(1, 11):
                p = word_poly("a" * k + "b")
                assert normalize(p, system) == _chain(system, k)
                assert reduce_randomly(p, system, rng) == _chain(system, k)

    def test_long_chain_within_the_recursion_limit(self):
        # the cores a^j b for j < k are each reduced before the next, on an
        # explicit stack: no nesting reaches the default recursion limit
        for system in (SYSTEM_A, SYSTEM_B):
            p = word_poly("a" * 2000 + "b")
            assert normalize(p, system) == _chain(system, 2000)

    def test_a_power_times_b_power(self, reduce_randomly):
        rng = random.Random(24)
        for m in range(7):
            for n in range(7):
                p = word_poly("a" * m + "b" * n)
                expected = to_nc(ref.a_power_b_power(m, n))
                assert reduce_randomly(p, SYSTEM_A, rng) == expected
        for m, n in ((12, 7), (7, 12), (16, 16)):
            p = word_poly("a" * m + "b" * n)
            assert normalize(p, SYSTEM_A) == to_nc(ref.a_power_b_power(m, n))

    def test_a_power_times_c(self):
        for n in range(1, 11):
            result = normalize(word_poly("a" * n + "c"), SYSTEM_B)
            assert result == to_nc(ref.b_word_times("c", 0, 0, n))

    def test_mixed_relation_system_a(self):
        for alpha in range(4):
            for beta in range(4):
                for gamma in range(4):
                    word = "b" * alpha + "c" * beta + "a" * gamma + "b"
                    expected = to_nc(ref.a_word_times_b(alpha, beta, gamma))
                    assert normalize(word_poly(word), SYSTEM_A) == expected

    def test_mixed_relations_system_b(self):
        for alpha in range(4):
            for beta in range(4):
                for gamma in range(4):
                    prefix = "c" * alpha + "b" * beta + "a" * gamma
                    for x in "bc":
                        expected = to_nc(ref.b_word_times(x, alpha, beta, gamma))
                        assert normalize(word_poly(prefix + x), SYSTEM_B) == expected


packed_terms = st.lists(
    st.tuples(st.lists(st.integers(-50, 50), max_size=6), st.integers(0, 4)),
    min_size=1,
    max_size=4,
)


class TestPackedSums:
    @given(packed_terms)
    def test_sum_over_powers_of_one_minus_q(self, terms):
        # each term num/(1-q)^k is added with its bound ||num||_1; the sum
        # must decode to the exact sum, and its bound must cover its numerator
        bits = 64
        total, expected = {}, ref.ZERO
        for cs, k in terms:
            while cs and not cs[-1]:
                cs.pop()
            n = kronecker_pack(cs, bits)
            ordering._add(total, "w", n, k, sum(map(abs, cs)), bits)
            expected = ref.frac_add(expected, ref.frac(cs, k))
        n, k, b = total["w"]
        num = kronecker_unpack(n, bits)
        assert sum(map(abs, num)) <= b
        assert ref.frac(num, k) == expected


def _around(prefix, p, suffix):
    """prefix p suffix, for words prefix and suffix."""
    return NCPolynomial({prefix + w + suffix: c for w, c in p.items()})


def _random_words(count, max_len, seed):
    rng = random.Random(seed)
    return [
        "".join(rng.choice("abc") for _ in range(rng.randint(0, max_len)))
        for _ in range(count)
    ]


def _lowering_system():
    """A confluent system whose rule ac brings in b, ranked below a and c,
    with the factor 2, which is no q-integer."""
    two = RationalFunction(P((2,)))
    return RelationSystem(
        "lowering",
        "bca",
        {
            "ab": NCPolynomial({"ba": RF_ONE, "c": RF_ONE}),
            "ac": NCPolynomial({"ca": RF_ONE, "b": two}),
            "cb": NCPolynomial({"bc": RF_ONE}),
        },
    )


@pytest.fixture
def widths(monkeypatch):
    """The width W that any ``_Cores`` from now on starts at, and the width
    after each of its widenings, in order."""
    seen, started = [], set()
    init, widen = ordering._Cores.__init__, ordering._Cores.widen

    def start(cores):
        if cores not in started:
            started.add(cores)
            seen.append(cores.bits)

    def recording_init(cores, system):
        init(cores, system)
        start(cores)

    def recording(cores, bound, terms):
        start(cores)  # packing the rules can widen before __init__ returns
        rewidened = widen(cores, bound, terms)
        seen.append(cores.bits)
        return rewidened

    monkeypatch.setattr(ordering._Cores, "__init__", recording_init)
    monkeypatch.setattr(ordering._Cores, "widen", recording)
    return seen


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
                x = of_nc(normalize(word_poly(w1), system))
                y = of_nc(normalize(word_poly(w2, k), system))
                both = NCPolynomial([(w1, RF_ONE), (w2, k)])
                assert normalize(both, system) == to_nc(ref.nc_add(x, y))

    def test_every_output_word_is_normal(self):
        for word in _random_words(60, 6, seed=13):
            for system in SYSTEMS.values():
                for w in normalize(word_poly(word), system).words():
                    assert is_normal(w, system)

    def test_confluence_smoke(self, reduce_randomly):
        # sums of up to three words of up to 12 letters, over coefficients
        # with and without powers of 1/(1-q), against random rewrite orders
        rng = random.Random(99)
        coefficients = [RF_ONE, qpow(1), RationalFunction(P((2, -1))), xi()]
        coefficients.append(over_one_minus_q((-1,), 2))
        words = _random_words(360, 12, seed=14)
        for count in (1, 2, 3) * 40:
            p = NCPolynomial(
                (words.pop(), rng.choice(coefficients)) for _ in range(count)
            )
            for system in SYSTEMS.values():
                assert normalize(p, system) == reduce_randomly(p, system, rng)

    def test_each_word_is_rewritten_once(self, monkeypatch):
        # each core is rewritten by one _reduce_word, and the table serves
        # every later need of it within the pass
        seen, rewrites = [], 0
        reduce_word = ordering._reduce_word

        def recording(word, cores):
            seen.append(word)
            return (yield from reduce_word(word, cores))

        monkeypatch.setattr(ordering, "_reduce_word", recording)
        for word in _random_words(100, 8, seed=15):
            for system in SYSTEMS.values():
                seen.clear()
                normalize(word_poly(word), system)
                assert len(seen) == len(set(seen))
                rewrites += len(seen)
        assert rewrites

    def test_inert_prefix_and_suffix(self, reduce_randomly):
        # a run of the rank-0 letter on the left and of the top-rank letter
        # on the right never takes part in a rewrite
        rng = random.Random(16)
        for core in _random_words(40, 6, seed=16):
            for system in SYSTEMS.values():
                first, last = system.normal_order[0], system.normal_order[-1]
                prefix = first * rng.randint(0, 3)
                suffix = last * rng.randint(0, 3)
                whole = word_poly(prefix + core + suffix)
                expected = _around(prefix, normalize(word_poly(core), system), suffix)
                assert normalize(whole, system) == expected
                assert reduce_randomly(whole, system, rng) == expected
        # a prefix that is inert only for the appended letter x: the rules
        # keep the core's letters, ranked at least t(x), at or above t(x)
        for system, inert, above in ((SYSTEM_A, "bc", "ca"), (SYSTEM_B, "cb", "ba")):
            x = inert[-1]
            assert system._inert[x] == inert
            for _ in range(40):
                prefix = "".join(y * rng.randint(0, 3) for y in inert)
                rest = "".join(rng.choice(above) for _ in range(rng.randint(1, 6)))
                core = rest + x
                expected = _around(prefix, normalize(word_poly(core), system), "")
                whole = word_poly(prefix + core)
                assert normalize(whole, system) == expected
                assert reduce_randomly(whole, system, rng) == expected

    def test_a_lowering_rule_narrows_the_inert_prefix(self, reduce_randomly):
        # ac -> ca + 2b brings in b, ranked below both pattern letters, so
        # before a core ending in c only b is inert, not c: c·ac is
        # rewritten whole, and stripping its c would leave the word c·b
        system = _lowering_system()
        assert system._inert == {"b": "b", "c": "b", "a": "bca"}
        expected = NCPolynomial({"bc": RationalFunction(P((2,))), "cca": RF_ONE})
        assert normalize(word_poly("cac"), system) == expected
        rng = random.Random(26)
        for word in ["cac"] + _random_words(200, 7, seed=26):
            p = word_poly(word)
            assert normalize(p, system) == reduce_randomly(p, system, rng)

    def test_normalize_stores_nothing(self):
        system = RelationSystem("fresh", "bca", dict(SYSTEM_A.rules))
        before = {name: copy.copy(value) for name, value in vars(system).items()}
        first = normalize(word_poly("acab"), system)
        again = normalize(word_poly("acab"), system)
        assert first == again
        assert vars(system) == before

    def test_coefficients_outside_the_ring(self, reduce_randomly):
        # normalize computes in Z[q, 1/(1-q)], where the rules lie; a
        # coefficient outside it is refused when it is built, and inside it,
        # coefficients over any power of 1 - q and of either sign scale the
        # normal form
        for num, den in (((1,), (2,)), ((0, 3), (1, 1))):
            with pytest.raises(TypeError):
                RationalFunction(P(num), P(den))
        in_ring = [xi(), over_one_minus_q((-1,), 3), qpow(5)]
        rng = random.Random(18)
        for system in SYSTEMS.values():
            for w1, w2 in zip(*[iter(_random_words(20, 6, seed=18))] * 2):
                c1, c2 = rng.sample(in_ring, 2)
                p = NCPolynomial([(w1, c1), (w2, c2)])
                assert normalize(p, system) == reduce_randomly(p, system, rng)

    def test_a_widening_empties_the_core_table(self, monkeypatch, widths):
        # a^30 b^30 in System A overflows four times; each widening empties
        # the table, and the redone step reduces each core it needs again,
        # once at each width
        started, tables = [], []
        reduce_word, widen = ordering._reduce_word, ordering._Cores.widen

        def recording(word, cores):
            started.append((word, cores.bits))
            return (yield from reduce_word(word, cores))

        def recording_widen(cores, bound, terms):
            rewidened = widen(cores, bound, terms)
            tables.append(len(cores.table))
            return rewidened

        monkeypatch.setattr(ordering, "_reduce_word", recording)
        monkeypatch.setattr(ordering._Cores, "widen", recording_widen)
        result = normalize(word_poly("a" * 30 + "b" * 30), SYSTEM_A)
        assert len(widths) > 2  # the first width, then at least two more
        assert tables == [0] * (len(widths) - 1)
        assert len(started) == len(set(started))
        assert result == to_nc(ref.a_power_b_power(30, 30))

    def test_normalize_widens_past_64_bits(self, widths, reduce_randomly):
        # ab -> (2^40 + q) ba: the normal form of a^3 b has a coefficient
        # of about 2^120, so the core must be reduced again at a wider width
        big = RationalFunction(P((2**40, 1)))
        rules = {**SYSTEM_A_C0.rules, "ab": NCPolynomial({"ba": big})}
        system = RelationSystem("big", "bca", rules)
        widths.clear()  # the overlap checks of the constructor widen too
        result = normalize(word_poly("aaab"), system)
        assert widths[0] == 64
        assert widths[-1] > 121
        cube = RationalFunction(P(ref.power((2**40, 1), 3)))
        assert result == NCPolynomial({"baaa": cube})
        assert result == reduce_randomly(word_poly("aaab"), system, random.Random(19))

    def test_wide_rule_coefficient_widens_the_packed_rules(
        self, widths, reduce_randomly
    ):
        # ab -> (2^70 + q) ba, packed last, does not fit 64 bits: packing it
        # widens and re-spaces the rules ac and cb packed before it
        big = RationalFunction(P((2**70, 1)))
        rules = {p: r for p, r in SYSTEM_A_C0.rules.items() if p != "ab"}
        rules["ab"] = NCPolynomial({"ba": big})
        system = RelationSystem("wide rule", "bca", rules)
        assert list(system.rules)[-1] == "ab"
        widths.clear()
        assert normalize(word_poly("ab"), system) == NCPolynomial({"ba": big})
        # the start, then the widening made by packing the rules
        assert widths[0] == 64
        assert widths[1] > 72
        rng = random.Random(29)
        for word in ["acb", "cbacab"] + _random_words(60, 7, seed=29):
            p = word_poly(word)
            assert normalize(p, system) == reduce_randomly(p, system, rng)

    def test_wide_input_coefficient_is_packed_wider(self, widths, reduce_randomly):
        # the coefficient 2^70 + q alone does not fit 64 bits
        p = word_poly("ab", RationalFunction(P((2**70, 1))))
        result = normalize(p, SYSTEM_A)
        # one widening, by pack, before any core is reduced
        assert len(widths) == 2
        assert widths[0] == 64
        assert widths[1] > 72
        assert result == reduce_randomly(p, SYSTEM_A, random.Random(20))
        assert result.coefficient("c") == RationalFunction(P((2**70, 1)))

    def test_input_terms_cancel_to_zero(self, reduce_randomly):
        # ab = q ba + c in System A
        minus_q, minus_one = RationalFunction(P((0, -1))), RationalFunction(P((-1,)))
        p = NCPolynomial({"ab": RF_ONE, "ba": minus_q, "c": minus_one})
        assert normalize(p, SYSTEM_A) == NCPolynomial({})
        assert reduce_randomly(p, SYSTEM_A, random.Random(21)) == NCPolynomial({})

    def test_degenerate_systems_drop_extra_terms(self):
        assert normalize(word_poly("ab"), SYSTEM_A_C0) == NCPolynomial({"ba": qpow(1)})
        assert normalize(word_poly("ac"), SYSTEM_B_XI0) == NCPolynomial(
            {"ca": qpow(2)}
        )


def _letters(system):
    return "".join(base_sum(system).words())


def _decoded_powers(p, letters, system):
    """The steps of a pass that expects the zero polynomial at every step,
    so that every nonzero step is decoded."""
    return normal_powers(p, letters, repeat(NCPolynomial()), system)


class TestPowerPass:
    def test_steps_are_normal_forms_of_the_products(self, reduce_randomly):
        # p s^n for a random p, against the products normalised one by one
        # and for a p whose coefficients lie over different powers of 1 - q
        rng = random.Random(22)
        mixed = [xi(), over_one_minus_q((-1,), 2), qpow(3)]
        for system in SYSTEMS.values():
            words = _random_words(4, 5, seed=rng.randrange(1000))
            s = base_sum(system)
            for p in (
                NCPolynomial((w, qpow(i)) for i, w in enumerate(words)),
                NCPolynomial(zip(_random_words(3, 5, seed=rng.randrange(1000)), mixed)),
            ):
                steps = list(islice(_decoded_powers(p, _letters(system), system), 4))
                assert steps[0] == normalize(p, system)
                product = of_nc(p)
                for n, step in enumerate(steps):
                    assert step == reduce_randomly(to_nc(product), system, rng)
                    assert step == normal_power(p, _letters(system), n, system)
                    product = ref.nc_mul(product, of_nc(s))

    def test_without_letters_only_the_first_step_is_nonzero(self):
        p = word_poly("acab")
        steps = _decoded_powers(p, "", SYSTEM_A)
        assert next(steps) == normalize(p, SYSTEM_A)
        assert next(steps) == NCPolynomial({})

    def test_negative_power_is_refused(self):
        with pytest.raises(ValueError):
            normal_power(word_poly("ab"), "ab", -1, SYSTEM_A)

    def test_oracle_pass_reduces_each_core_once(self, monkeypatch, reduce_randomly):
        reduced = []
        reduce_word = ordering._reduce_word

        def recording(word, cores):
            reduced.append(word)
            return reduce_word(word, cores)

        monkeypatch.setattr(ordering, "_reduce_word", recording)
        rng = random.Random(17)
        for system in (SYSTEM_A, SYSTEM_B):
            reduced.clear()
            s = base_sum(system)
            steps = list(islice(_decoded_powers(s, _letters(system), system), 10))
            assert len(reduced) == len(set(reduced))
            products = [ref.nc_mul(of_nc(step), of_nc(s)) for step in steps[:-1]]
            assert len(reduced) < sum(len(product) for product in products)
            for product, step in zip(products, steps[1:]):
                assert step == reduce_randomly(to_nc(product), system, rng)

    def test_every_core_is_a_normal_word_plus_one_letter(self, monkeypatch):
        # N y x with N y normal and rank(y) > rank(x): the engine never scans
        # a core for its out-of-order pair, and never gets a normal one
        seen = []
        reduce_word = ordering._reduce_word

        def recording(word, cores):
            seen.append(word)
            return reduce_word(word, cores)

        monkeypatch.setattr(ordering, "_reduce_word", recording)
        for system in SYSTEMS.values():
            seen.clear()
            for word in _random_words(40, 8, seed=25):
                normalize(word_poly(word), system)
            s = base_sum(system)
            list(islice(_decoded_powers(s, _letters(system), system), 10))
            assert seen
            for core in seen:
                ranks = [system.rank[x] for x in core]
                assert len(ranks) >= 2 and ranks[:-1] == sorted(ranks[:-1])
                assert ranks[-2] > ranks[-1]

    def test_oracle_widens_past_64_bits(self, widths):
        # the coefficients of (a+b)^40 in System A need 91 bits
        s = base_sum(SYSTEM_A)
        result = normal_power(s, _letters(SYSTEM_A), 39, SYSTEM_A)
        assert widths[-1] > 91
        assert result == expand_formula(SYSTEM_A, 40)

    def test_oracle_adds_over_different_powers_of_one_minus_q(self, monkeypatch):
        # in System B a word reached through more xi rewrites carries a
        # higher power of 1/(1-q); such sums lift the other term to it
        mixed = []
        add = ordering._add

        def recording(terms, word, n, k, b, bits):
            if word in terms and terms[word][1] != k:
                mixed.append(word)
            add(terms, word, n, k, b, bits)

        monkeypatch.setattr(ordering, "_add", recording)
        s = base_sum(SYSTEM_B)
        assert normal_power(s, _letters(SYSTEM_B), 9, SYSTEM_B) == expand_formula(
            SYSTEM_B, 10
        )
        assert mixed

    def test_inert_prefixes_shrink_the_core_table(self, monkeypatch):
        # cores that differ only in a prefix inert for their last letter
        # share one reduction, e.g. the c^g a^h c of System A
        reduced = []
        reduce_word = ordering._reduce_word

        def recording(word, cores):
            reduced.append(word)
            return reduce_word(word, cores)

        monkeypatch.setattr(ordering, "_reduce_word", recording)
        for system, n, count in ((SYSTEM_A, 24, 177), (SYSTEM_B, 11, 74)):
            reduced.clear()
            normal_power(base_sum(system), _letters(system), n - 1, system)
            assert len(reduced) == count

    def test_mirrored_words_share_one_decoded_value(self, monkeypatch):
        # b^x c^y a^z and b^z c^y a^x have one packed value, decoded once
        unpacked = []
        unpack = ordering.kronecker_unpack

        def recording(value, bits):
            unpacked.append(value)
            return unpack(value, bits)

        monkeypatch.setattr(ordering, "kronecker_unpack", recording)
        result = expand_oracle(SYSTEM_A, 24)
        for word, coeff in result.items():
            assert result.coefficient(_mirror(word, "ab")) is coeff
        assert (len(result), len(unpacked)) == (169, 90)

    def test_equal_numerators_over_different_powers_stay_apart(self):
        # a and b/(1-q) both pack to N = 1: only k tells their values apart
        p = NCPolynomial({"a": RF_ONE, "b": over_one_minus_q((1,), 1)})
        assert normalize(p, SYSTEM_A) == p

    @pytest.mark.parametrize(
        "system, p, letters, steps",
        [
            (SYSTEM_A, word_poly("a" * 30 + "b" * 30), "", 1),
            (SYSTEM_A, base_sum(SYSTEM_A), _letters(SYSTEM_A), 40),
            (SYSTEM_B, base_sum(SYSTEM_B), _letters(SYSTEM_B), 30),
        ],
        ids=["normalize-A", "half-steps-A", "half-steps-B"],
    )
    def test_a_redone_step_equals_a_fresh_one(
        self, system, p, letters, steps, monkeypatch, widths
    ):
        # from 64 bits the pass widens, and each step that overflows is
        # redone on its input re-spaced, with an empty table and, in a half
        # step, each word's letters; started at the last width reached, the
        # pass never widens, and its steps must be the same
        redone = list(islice(ordering._power_pass(p, letters, system), steps))
        bits = redone[-1][1]
        assert len(widths) > 1 and bits > 64
        widths.clear()
        monkeypatch.setattr(ordering, "_START_BITS", bits)
        fresh = list(islice(ordering._power_pass(p, letters, system), steps))
        assert widths == [bits]
        assert list(fresh[-1][0].items()) == list(redone[-1][0].items())
        decoded = [ordering._decode(*step) for step in redone]
        assert [ordering._decode(*step) for step in fresh] == decoded


@pytest.fixture
def lifts(monkeypatch):
    """(k - value.k, packed or None) for each value packed for a comparison."""
    seen = []
    packed_over = ordering._packed_over

    def recording(value, k, bits):
        packed = packed_over(value, k, bits)
        seen.append((k - value.k, packed))
        return packed

    monkeypatch.setattr(ordering, "_packed_over", recording)
    return seen


def _expected_powers(p, system, count, rng, reduce_randomly):
    """The normal forms of p s^n for n < count, by the reference rewriting."""
    product, out = of_nc(p), []
    for _ in range(count):
        out.append(reduce_randomly(to_nc(product), system, rng))
        product = ref.nc_mul(product, of_nc(base_sum(system)))
    return out


class TestPackedComparison:
    def test_pack_round_trips_at_the_64_bit_boundaries(self):
        # array reads coefficients in [0, 2^63) as 64-bit words; others go
        # one at a time, and one outside the width's digit range is refused
        top = 1 << 63
        for bits in (64, 72, 136):
            half = 1 << (bits - 1)
            inside = [(top - 1, 0, 7), (top - 1, -top), (-top, 5, top - 1), (1, -half)]
            inside.append((half - 1,))
            if bits > 64:
                inside += [(top, 1), (2 * top - 1,), (2 * top, 3), (-top - 1, 2)]
            for cs in inside:
                packed = kronecker_pack(cs, bits)
                assert packed == sum(c << (bits * i) for i, c in enumerate(cs))
                assert kronecker_unpack(packed, bits) == cs
            for cs in ((half,), (-half - 1,), (1, half, 2), (-half - 1, top - 1)):
                with pytest.raises(OverflowError):
                    kronecker_pack(cs, bits)

    def test_a_step_that_differs_is_decoded(self):
        s, letters = base_sum(SYSTEM_A), _letters(SYSTEM_A)
        right = expand_formula(SYSTEM_A, 5)
        terms = dict(right.items())
        value = terms["bcaa"]
        wrong = [
            {**terms, "bcaa": to_rf(ref.frac_add(of_rf(value), ref.ONE))},
            {w: c for w, c in terms.items() if w != "bcaa"},  # a missing word
            {**terms, "cccc": RF_ONE},  # an extra word
            # as many words, one of them in place of another
            {**{w: c for w, c in terms.items() if w != "bcaa"}, "cccc": value},
            # over a higher power of 1 - q than the step's own
            {**terms, "bcaa": to_rf(ref.frac_mul(of_rf(value), ref.frac((1,), 1)))},
        ]
        for want in map(NCPolynomial, wrong):
            expected = [*islice(_decoded_powers(s, letters, SYSTEM_A), 4), want]
            step = list(normal_powers(s, letters, expected, SYSTEM_A))[-1]
            assert step is not want and step == right

    def test_a_step_over_a_higher_power_is_lifted(self, lifts, reduce_randomly):
        # ac -> q^2 ca + xi bb, so the bb of ac - 2q/(1-q) bb is
        # (q^2 - q)/(1-q): the pass holds it over (1-q)^1, the canonical
        # value -q over (1-q)^0
        p = NCPolynomial({"ac": RF_ONE, "bb": over_one_minus_q((0, -2), 1)})
        rng = random.Random(30)
        expected = _expected_powers(p, SYSTEM_B, 4, rng, reduce_randomly)
        steps = list(normal_powers(p, _letters(SYSTEM_B), expected, SYSTEM_B))
        assert all(step is want for step, want in zip(steps, expected))
        assert expected[0] == NCPolynomial({"ca": qpow(2), "bb": to_rf(((0, -1), 0))})
        assert any(d > 0 and packed is not None for d, packed in lifts)

    def test_an_undecided_lift_is_decoded(self, lifts, reduce_randomly):
        # ba gets 2^60 (1 - q^8)/(1-q): bound 2^61 over (1-q)^1 in the pass,
        # while the canonical 2^60 [8] lifted by 1 - q has bound 2^64 > 2^63
        c = 1 << 60
        ab, ba = over_one_minus_q((0,) * 7 + (-c,), 1), over_one_minus_q((c,), 1)
        p = NCPolynomial({"ab": ab, "ba": ba})
        rng = random.Random(31)
        expected = _expected_powers(p, SYSTEM_A_C0, 3, rng, reduce_randomly)
        assert expected[0] == NCPolynomial({"ba": to_rf(((c,) * 8, 0))})
        steps = list(normal_powers(p, _letters(SYSTEM_A_C0), expected, SYSTEM_A_C0))
        assert steps[0] is not expected[0]
        assert steps == expected
        assert lifts[0] == (1, None)


def _mirror(word, swap):
    """The word reversed, with the two letters of ``swap`` exchanged."""
    return word.translate(str.maketrans(swap, swap[::-1]))[::-1]


def _anti_automorphisms(system):
    """Each letter permutation, as the image of "abc", under which w ->
    reverse(sigma(w)) maps every rule to a rule and every normal word to a
    normal word."""
    found = []
    for image in map("".join, permutations("abc")):
        table = str.maketrans("abc", image)

        def tau(word):
            return word.translate(table)[::-1]

        rules = all(
            system.rules.get(tau(pattern))
            == NCPolynomial((tau(w), c) for w, c in replacement.items())
            for pattern, replacement in system.rules.items()
        )
        # normality is a condition on neighbouring pairs
        pairs = map("".join, product("abc", repeat=2))
        normal = all(is_normal(tau(w), system) for w in pairs if is_normal(w, system))
        if rules and normal:
            found.append(image)
    return found


class TestMirror:
    @pytest.mark.parametrize(
        "system, swap, n",
        [
            (SYSTEM_A, "ab", 40),
            (SYSTEM_B, "ac", 24),
            (SYSTEM_A_C0, "ab", 30),
            (SYSTEM_B_XI0, "ac", 20),
        ],
        ids=lambda v: getattr(v, "name", None),
    )
    def test_the_mirror_is_a_theorem_of_the_rules(
        self, system, swap, n, monkeypatch
    ):
        # tau is an anti-automorphism of the algebra that fixes s and maps
        # normal words to normal words; normal forms are unique, so the
        # normal form of s^n is tau-symmetric, with no formula involved.
        # The steps checked are full steps, with the half step turned off,
        # so that no word's value is a copy of its mirror's
        image = "abc".translate(str.maketrans(swap, swap[::-1]))
        assert _anti_automorphisms(system) == [image]
        s, letters = base_sum(system), _letters(system)
        halved = list(islice(_decoded_powers(s, letters, system), n))
        monkeypatch.setattr(ordering, "_half_step", lambda p, letters, system: False)
        full = list(islice(_decoded_powers(s, letters, system), n))
        for step in full:
            for word, coeff in step.items():
                assert step.coefficient(_mirror(word, swap)) == coeff
        assert halved == full

    def test_each_system_derives_the_mirror_that_the_search_finds(self):
        # the one candidate swaps the first and last letters of the normal
        # order; the search tries all six letter permutations
        for system in SYSTEMS.values():
            assert ["abc".translate(system.mirror)] == _anti_automorphisms(system)

    def test_a_rule_without_its_mirror_image_leaves_no_mirror(self):
        # a <-> b would send ac -> ca + 2b to cb -> bc + 2a, which is not a rule
        assert _anti_automorphisms(_lowering_system()) == []
        assert _lowering_system().mirror is None

    def test_a_rule_that_changes_the_grade_leaves_no_mirror(self):
        # tau maps each rule of this system to a rule, but ac -> ca + c
        # takes grade -1 to grade 0
        assert _anti_automorphisms(_regraded_system()) == ["bac"]
        assert _regraded_system().mirror is None


def _regraded_system():
    """A confluent system that tau maps to itself, with rules ac -> ca + c
    and cb -> bc + c that do not keep the grade count(b) - count(a)."""
    return RelationSystem(
        "regraded",
        "bca",
        {
            "ab": NCPolynomial({"ba": RF_ONE}),
            "ac": NCPolynomial({"ca": RF_ONE, "c": RF_ONE}),
            "cb": NCPolynomial({"bc": RF_ONE, "c": RF_ONE}),
        },
    )


def _recorded_fills(monkeypatch):
    """The packed steps that a half step fills from their mirrors, one
    entry per fill, from now on."""
    fills = []
    mirrored = ordering._mirrored

    def recording(step, taken, system):
        fills.append(step)
        return mirrored(step, taken, system)

    monkeypatch.setattr(ordering, "_mirrored", recording)
    return fills


def _recorded_pairs(monkeypatch):
    """The (word, letter) pairs that each step after the first multiplies,
    one entry per step run, from now on: the pairs that a step builder
    hands to ``_normalize_step`` while :meth:`_Cores.run` builds it, and
    not those of the insertions within a core reduction."""
    counted, building = [], []
    run, normalize_step = ordering._Cores.run, ordering._normalize_step

    def recording_run(cores, step, terms):
        def built(t):
            building.append(t)
            try:
                return step(t)
            finally:
                building.pop()

        return run(cores, built, terms)

    def recording_step(pairs, cores):
        if building:
            pairs = list(pairs)
            counted.append(sum(len(xs) for _, _, xs in pairs))
        return normalize_step(pairs, cores)

    monkeypatch.setattr(ordering._Cores, "run", recording_run)
    monkeypatch.setattr(ordering, "_normalize_step", recording_step)
    return counted


class TestHalfStep:
    def test_invariant_inputs_that_are_not_multiples_of_s_step_in_full(
        self, monkeypatch, reduce_randomly
    ):
        # tau(p s^n) = s^n tau(p): a tau-invariant p that does not commute
        # with s has steps that are not tau-symmetric, so its pass must
        # compute every word; so must a pass in a system with no mirror
        fills = _recorded_fills(monkeypatch)
        rng = random.Random(32)
        for system, p, letters in (
            (SYSTEM_A, word_poly("c"), "ab"),
            (SYSTEM_A, NCPolynomial({"ab": RF_ONE, "ba": RF_ONE}), "ab"),
            (SYSTEM_B, word_poly("b"), "abc"),
            (SYSTEM_A, NCPolynomial({"a": RF_ONE, "b": qpow(1)}), "ab"),
            (SYSTEM_A, NCPolynomial({"a": RF_ONE, "b": RF_ONE}), "aab"),
            (_lowering_system(), NCPolynomial({"a": RF_ONE, "b": RF_ONE}), "ab"),
            (_regraded_system(), NCPolynomial({"a": RF_ONE, "b": RF_ONE}), "ab"),
        ):
            s = NCPolynomial((x, RF_ONE) for x in letters)
            product = of_nc(p)
            for step in islice(_decoded_powers(p, letters, system), 6):
                assert step == reduce_randomly(to_nc(product), system, rng)
                product = ref.nc_mul(product, of_nc(s))
        assert fills == []

    def test_the_oracle_pass_multiplies_half_of_the_pairs(self, monkeypatch):
        # the (word, letter) pairs that the steps of expand_oracle(A, 24)
        # multiply: 2754 pairs in full, so a guard that refuses the sum of
        # the letters shows here and not only in the benchmark
        fills = _recorded_fills(monkeypatch)
        counted = _recorded_pairs(monkeypatch)
        halved = expand_oracle(SYSTEM_A, 24)
        assert (len(counted), sum(counted), len(fills)) == (23, 1455, 23)
        counted.clear()
        fills.clear()
        monkeypatch.setattr(ordering, "_half_step", lambda p, letters, system: False)
        assert expand_oracle(SYSTEM_A, 24) == halved
        assert (len(counted), sum(counted), len(fills)) == (23, 2754, 0)

    def test_a_redone_half_step_fills_at_its_new_width(self, monkeypatch, widths):
        # the coefficients of (a+b)^40 need 91 bits: the steps that overflow
        # are redone wider, and each fill copies the redone values
        fills = _recorded_fills(monkeypatch)
        s = base_sum(SYSTEM_A)
        assert normal_power(s, "ab", 39, SYSTEM_A) == expand_formula(SYSTEM_A, 40)
        assert len(widths) > 1 and len(fills) == 39


def _packed_q_int(a, bits):
    return kronecker_pack((1,) * a, bits)


def _check_tags(reduced, bits):
    """Assert that each stored factor is tagged a > 0 exactly when its R is
    the packed q-integer [a]; return the number of untagged factors."""
    untagged = 0
    for _, (_, r, _, _, a) in reduced:
        if a:
            assert r == _packed_q_int(a, bits)
        else:
            untagged += 1
            assert set(kronecker_unpack(r, bits)) != {1}
    return untagged


class TestQIntegerFactors:
    def test_doubling_is_the_product_by_the_q_integer(self):
        rng = random.Random(27)
        for bits in (64, 136):
            for a in range(1, 65):
                n = rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 3 * bits))
                assert ordering._times_q_int(n, a, bits) == n * _packed_q_int(a, bits)

    def test_stored_factors_are_tagged_exactly_when_q_integers(
        self, monkeypatch, reduce_randomly
    ):
        seen = []
        reduce_word = ordering._reduce_word

        def recording(word, cores):
            reduced = yield from reduce_word(word, cores)
            seen.append(_check_tags(reduced, cores.bits))
            return reduced

        monkeypatch.setattr(ordering, "_reduce_word", recording)
        for system, n in ((SYSTEM_A, 24), (SYSTEM_B, 11)):
            seen.clear()
            normal_power(base_sum(system), _letters(system), n - 1, system)
            assert seen and not any(seen)  # every built-in core factor is [a]
        # the factor 2 of the lowering system is no q-integer: n * r
        seen.clear()
        lowering = _lowering_system()
        p = word_poly("cacab")
        assert normalize(p, lowering) == reduce_randomly(p, lowering, random.Random(28))
        assert any(seen)

    def test_tags_survive_a_widening(self, monkeypatch):
        # the coefficients of (a+b)^40 need 91 bits: each core reduced again
        # after a widening is tagged at the wider width
        wide = []
        reduce_word = ordering._reduce_word

        def recording(word, cores):
            reduced = yield from reduce_word(word, cores)
            if cores.bits > 64:
                wide.append(_check_tags(reduced, cores.bits))
            return reduced

        monkeypatch.setattr(ordering, "_reduce_word", recording)
        s = base_sum(SYSTEM_A)
        result = normal_power(s, _letters(SYSTEM_A), 39, SYSTEM_A)
        assert result == expand_formula(SYSTEM_A, 40)
        assert wide and not any(wide)  # reduced above 64 bits, all tagged
