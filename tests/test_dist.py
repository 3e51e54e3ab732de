"""Distribution construction, entropy, pushforward, suitability, rounding."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from entroset import (
    ApproximationError,
    DomainError,
    FiniteMap,
    RationalDist,
    SchemaError,
    entropy,
    is_suitable,
    minimal_suitable_k,
    pushforward,
    rationalize,
)

from entroset.dist import _grid

from genutil import random_dist, random_map


def dist(pairs):
    return RationalDist([p for p, _ in pairs], [q for _, q in pairs])


weights_strategy = st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8)


def dist_from_weights(weights):
    total = sum(weights)
    return RationalDist(
        [(i,) for i in range(len(weights))],
        [Fraction(w, total) for w in weights],
    )


class TestConstruction:
    def test_zero_mass_outcomes_dropped(self):
        d = RationalDist([(0,), (1,), (2,)], [Fraction(1, 2), 0, Fraction(1, 2)])
        assert d.support == ((0,), (2,))

    def test_scalars_become_length_one_tuples(self):
        d = RationalDist([3, 7], ["1/2", "1/2"])
        assert d.support == ((3,), (7,))

    def test_rejects_bad_total(self):
        with pytest.raises(SchemaError):
            RationalDist([(0,), (1,)], [Fraction(1, 2), Fraction(1, 3)])

    def test_rejects_duplicate_support(self):
        with pytest.raises(SchemaError):
            RationalDist([(0,), (0,)], [Fraction(1, 2), Fraction(1, 2)])

    def test_probs_stored_reduced(self):
        d = RationalDist([(0,), (1,)], [Fraction(2, 4), Fraction(3, 6)])
        assert all(p == Fraction(1, 2) for p in d.probs)
        assert all(p.denominator == 2 for p in d.probs)


class TestEntropy:
    def test_uniform_two_point_is_one_bit(self):
        assert entropy(dist([((0,), "1/2"), ((1,), "1/2")])) == 1.0

    def test_single_point_is_zero(self):
        assert entropy(dist([((5,), 1)])) == 0.0

    def test_third_two_thirds(self):
        # direct evaluation of the defining sum:
        # (1/3)log2(3) + (2/3)log2(3/2) = log2(3) - 2/3
        d = dist([((0,), "1/3"), ((1,), "2/3")])
        assert entropy(d) == pytest.approx(0.9182958340544893, abs=1e-12)
        assert entropy(d) == pytest.approx(math.log2(3) - 2 / 3, abs=1e-12)

    def test_natural_base(self):
        d = dist([((0,), "1/2"), ((1,), "1/2")])
        assert entropy(d, base=math.e) == pytest.approx(math.log(2), abs=1e-12)

    def test_rejects_other_bases(self):
        with pytest.raises(SchemaError):
            entropy(dist([((0,), 1)]), base=10)

    def test_probability_below_float_range(self):
        # float(2^-1100) is 0.0; the term itself underflows to 0.0
        tiny = Fraction(1, 2**1100)
        d = dist([((0,), tiny), ((1,), Fraction(1, 2)), ((2,), Fraction(1, 2) - tiny)])
        assert entropy(d) == 1.0
        assert entropy(d, base=math.e) == math.log(2)

    def test_subnormal_probability_term_is_finite(self):
        # 1/float(2^-1060) overflows to inf; the term 1060 * 2^-1060 does not
        tiny = Fraction(1, 2**1060)
        d = dist([((0,), tiny), ((1,), 1 - tiny)])
        got = entropy(d)
        assert 0 < got < 1e-300
        assert got == float(1060 * tiny)

    @given(weights_strategy)
    def test_jensen_bound(self, weights):
        d = dist_from_weights(weights)
        assert entropy(d) <= math.log2(len(d)) + 1e-9

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 17])
    def test_uniform_attains_log_size_exactly(self, size):
        d = RationalDist.uniform([(i,) for i in range(size)])
        assert entropy(d) == pytest.approx(math.log2(size), abs=1e-12)

    @given(weights_strategy)
    def test_equality_only_for_uniform(self, weights):
        d = dist_from_weights(weights)
        if len(set(d.probs)) > 1:
            assert entropy(d) < math.log2(len(d)) - 1e-12


class TestPushforward:
    def test_identity_map(self):
        d = dist([((0,), "1/3"), ((1,), "2/3")])
        assert pushforward(FiniteMap.identity(d.support), d) == d

    def test_mod_two_on_uniform_four(self):
        d = RationalDist.uniform([1, 2, 3, 4])
        f = FiniteMap({(i,): (i % 2,) for i in range(1, 5)})
        out = pushforward(f, d)
        assert out.as_mapping() == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}

    def test_exact_preimage_sums(self):
        d = dist([((0,), "1/6"), ((1,), "1/3"), ((2,), "1/2")])
        f = FiniteMap({(0,): (10,), (1,): (10,), (2,): (11,)})
        out = pushforward(f, d)
        assert out.as_mapping() == {(10,): Fraction(1, 2), (11,): Fraction(1, 2)}

    def test_missing_domain_element(self):
        d = dist([((0,), "1/2"), ((1,), "1/2")])
        f = FiniteMap({(0,): (0,)})
        with pytest.raises(DomainError):
            pushforward(f, d)

    def test_mass_is_preserved_exactly(self):
        rng = random.Random(7)
        for _ in range(50):
            d = random_dist(rng)
            f = random_map(rng, d.support)
            out = pushforward(f, d)
            assert sum(out.probs, Fraction(0)) == 1

    def test_data_processing_inequality(self):
        rng = random.Random(11)
        for _ in range(100):
            d = random_dist(rng)
            f = random_map(rng, d.support)
            assert entropy(pushforward(f, d)) <= entropy(d) + 1e-9

    def test_suitability_divides_under_pushforward(self):
        rng = random.Random(13)
        for _ in range(100):
            d = random_dist(rng)
            f = random_map(rng, d.support)
            assert minimal_suitable_k(d) % minimal_suitable_k(pushforward(f, d)) == 0


class TestSuitability:
    @pytest.mark.parametrize(
        "probs,expected",
        [((Fraction(1, 2), Fraction(1, 2)), 2),
         ((Fraction(1, 3), Fraction(2, 3)), 3),
         ((Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)), 6)],
    )
    def test_minimal_suitable_k(self, probs, expected):
        d = RationalDist([(i,) for i in range(len(probs))], probs)
        assert minimal_suitable_k(d) == expected
        assert is_suitable(d, expected)
        assert is_suitable(d, 5 * expected)
        assert not is_suitable(d, expected + 1) or expected == 1


def farey_vectors(length, max_denominator):
    """Brute-force oracle: all prob vectors with denominators <= D summing to 1."""
    values = sorted(
        {Fraction(a, b) for b in range(1, max_denominator + 1) for a in range(b + 1)}
    )
    for combo in product(values, repeat=length):
        if sum(combo) == 1:
            yield combo


def tv_distance(target, probs):
    return sum(abs(t - float(p)) for t, p in zip(target, probs))


class TestRationalize:
    def test_already_rational(self):
        out = rationalize([0.5, 0.5], 2)
        assert out.probs == (Fraction(1, 2), Fraction(1, 2))

    def test_recovers_thirds(self):
        out = rationalize([1 / 3, 2 / 3], 3)
        assert out.probs == (Fraction(1, 3), Fraction(2, 3))

    def test_near_half_rounds_to_half(self):
        out = rationalize([0.4999, 0.5001], 2)
        assert out.probs == (Fraction(1, 2), Fraction(1, 2))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_bruteforce_oracle(self, seed):
        rng = random.Random(seed)
        length = rng.randint(1, 3)
        max_denominator = rng.randint(1, 4)
        weights = [rng.random() + 0.01 for _ in range(length)]
        total = sum(weights)
        target = [w / total for w in weights]
        if all(t < 1 / (2 * max_denominator) for t in target):
            return
        got = rationalize(weights, max_denominator)
        got_map = got.as_mapping()
        full = [got_map.get((i,), Fraction(0)) for i in range(length)]
        best = min(
            tv_distance(target, v) for v in farey_vectors(length, max_denominator)
        )
        assert tv_distance(target, full) <= best + 1e-12

    def test_all_zero_rounding_is_an_error(self):
        with pytest.raises(ApproximationError):
            rationalize([1.0] * 10, 2)

    def test_ties_prefer_earlier_entries(self):
        out = rationalize([0.5, 0.5], 1)
        assert out.support == ((0,),)
        assert out.probs == (Fraction(1),)

    @pytest.mark.parametrize("max_denominator", range(1, 17))
    def test_grid_matches_gcd_scan(self, max_denominator):
        big_l = math.lcm(*range(1, max_denominator + 1))
        scan = [
            m
            for m in range(big_l + 1)
            if big_l // math.gcd(m, big_l) <= max_denominator
        ]
        assert _grid(big_l, max_denominator) == scan

    def test_denominators_bounded(self):
        rng = random.Random(23)
        for _ in range(20):
            length = rng.randint(1, 6)
            d = rng.randint(2, 12)
            weights = [rng.random() + 0.05 for _ in range(length)]
            total = sum(weights)
            if all(w / total < 1 / (2 * d) for w in weights):
                continue
            out = rationalize(weights, d)
            assert all(p.denominator <= d for p in out.probs)
            assert sum(out.probs, Fraction(0)) == 1
