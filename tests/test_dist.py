"""Distribution construction, entropy, pushforward, suitability, rounding."""

import inspect
import marshal
import math
import random
import struct
from enum import IntEnum
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entroset import (
    ApproximationError,
    CoverSpec,
    DomainError,
    FiniteMap,
    IndexSet,
    InequalitySpec,
    PointSet,
    RationalDist,
    RuzsaSpec,
    SchemaError,
    check_entropy,
    conditional_entropy,
    convergence_profile,
    empirical_lemma1,
    entropy,
    is_suitable,
    minimal_suitable_k,
    preimage_lift,
    project_rv,
    pushforward,
    rationalize,
    ruzsa_enumerate,
    ruzsa_size,
    verify_commutation,
)

from entroset import dist as dist_module
from entroset import jsonio
from entroset.dist import _grid, _ratio, as_element, as_elements, as_fraction
from entroset.errors import _cut

from genutil import random_dist, random_elements, random_map, reference_ratio


HALVES = RationalDist.uniform([0, 1])
IDENTITY = FiniteMap.identity(HALVES.support)


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: FiniteMap(5),
        lambda: RationalDist(5, [1]),
        lambda: RationalDist([(0,)], 1),
        lambda: PointSet(2, 5),
        lambda: PointSet.from_points(5),
        lambda: IndexSet(5),
        lambda: CoverSpec(2, 5),
        lambda: CoverSpec(2, [[1, 2]], 5),
        lambda: rationalize(5, 2),
        lambda: entropy(5),
        lambda: pushforward(FiniteMap.identity([0]), 5),
        lambda: minimal_suitable_k(5),
        lambda: is_suitable(5, 3),
        lambda: ruzsa_size(5),
        lambda: RuzsaSpec(5, 2),
        lambda: FiniteMap.identity(5),
        lambda: convergence_profile(HALVES, 5),
        # a generator: the spec is read at the first item
        lambda: next(ruzsa_enumerate(5)),
        lambda: verify_commutation(IDENTITY, 5),
        lambda: preimage_lift(IDENTITY, 5, [(0,), (1,)]),
        lambda: project_rv(5, IndexSet([1])),
        lambda: conditional_entropy(5, IndexSet([1])),
        lambda: check_entropy(InequalitySpec(IDENTITY, [IDENTITY], [1]), 5),
        lambda: empirical_lemma1(InequalitySpec(IDENTITY, [IDENTITY], [1]), 5, 4),
        lambda: pushforward(5, HALVES),
        lambda: IDENTITY.image(5),
        lambda: IDENTITY.map_vector(5),
        lambda: preimage_lift(IDENTITY, RuzsaSpec(HALVES, 2), 5),
        lambda: InequalitySpec(IDENTITY, 5, [1]),
        lambda: InequalitySpec(IDENTITY, [IDENTITY], 5),
    ],
    ids=[
        "FiniteMap",
        "RationalDist-support",
        "RationalDist-probs",
        "PointSet",
        "PointSet.from_points",
        "IndexSet",
        "CoverSpec-members",
        "CoverSpec-weights",
        "rationalize",
        "entropy",
        "pushforward",
        "minimal_suitable_k",
        "is_suitable",
        "ruzsa_size",
        "RuzsaSpec",
        "FiniteMap.identity",
        "convergence_profile",
        "ruzsa_enumerate",
        "verify_commutation",
        "preimage_lift",
        "project_rv",
        "conditional_entropy",
        "check_entropy",
        "empirical_lemma1",
        "pushforward-map",
        "FiniteMap.image",
        "FiniteMap.map_vector",
        "preimage_lift-y",
        "InequalitySpec-rhs_maps",
        "InequalitySpec-coefficients",
    ],
)
def test_non_iterable_argument_is_schema_error(call):
    with pytest.raises(SchemaError):
        call()


@pytest.mark.parametrize(
    "weights, max_denominator, message",
    [
        (["a"], 5, "weights must be real numbers: 'a'"),
        ([1.0, None], 5, "weights must be real numbers: None"),
        ([1.0, 1.0], 4.5, "max_denominator must be an integer: 4.5"),
        ([1.0, 1.0], "4", "max_denominator must be an integer: '4'"),
        ([1.0, 1.0], True, "max_denominator must be an integer: True"),
        ([True, False], 2, "weights must be real numbers: True"),
        ([1.0, False], 2, "weights must be real numbers: False"),
    ],
)
def test_rationalize_argument_of_wrong_type_is_schema_error(weights, max_denominator, message):
    with pytest.raises(SchemaError) as info:
        rationalize(weights, max_denominator)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "big, length",
    [(10**400, 401), (Fraction(10**400, 3), 403)],
    ids=["int", "fraction"],
)
def test_rationalize_weight_past_float_range(big, length):
    with pytest.raises(SchemaError) as info:
        rationalize([big, 1], 4)
    cut = f"1{'0' * 99}... ({length} characters)"
    assert str(info.value) == f"weight is outside the float range: {cut}"


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


def reference_entropy(probs: list[Fraction], base: float) -> float:
    """Entropy summed from Fractions, as the library did before it stored counts."""
    log = math.log2 if base == 2 else math.log
    if len(probs) == 1:
        return 0.0

    def term(p: Fraction) -> float:
        q = float(p)
        inv = 1 / q if q else math.inf
        if math.isinf(inv):
            return float(p * Fraction(log(p.denominator) - log(p.numerator)))
        return q * log(inv)

    return sum(term(p) for p in probs)


def reference_merge(images: list, probs: list[Fraction]) -> RationalDist:
    """Fraction preimage sums in first-image order, through the public constructor."""
    masses: dict = {}
    for y, p in zip(images, probs):
        masses[y] = masses.get(y, Fraction(0)) + p
    return RationalDist(list(masses), list(masses.values()))


def seeded_cases() -> list[tuple[list, list[Fraction]]]:
    """(support, probs) in dimension 2 with mixed denominators.

    Every other case adds a probability of 2^-1100 (below the float range),
    or of 2^-1060 or 2^-1030 (subnormal, so 1/p overflows).
    """
    rng = random.Random(2024)
    cases = []
    for n in range(60):
        raw = [Fraction(rng.randint(1, 9), rng.randint(1, 12)) for _ in range(rng.randint(1, 10))]
        probs = [r / sum(raw) for r in raw]
        if n % 2:
            tiny = Fraction(1, 2 ** (1100, 1060, 1030)[n % 3])
            probs = [tiny] + [p * (1 - tiny) for p in probs]
        cases.append((random_elements(rng, len(probs), dim=2, span=4), probs))
    # d = 5 * 2^1030 is not the reduced denominator of 2^-1030, and the
    # entropy is about 2^-1020, so an unreduced log(d) - log(c) would show
    tiny = Fraction(1, 2**1030)
    cases.append(([(0, 0), (0, 1), (1, 0)], [tiny, tiny / 5, 1 - tiny * 6 / 5]))
    return cases


class TestCountsFormat:
    """Counts over one denominator against an in-test Fraction reference."""

    CASES = seeded_cases()

    def test_probs_and_canonical_counts(self):
        for support, probs in self.CASES:
            d = RationalDist(support, probs)
            assert d.probs == tuple(probs)
            assert d.denominator == math.lcm(*(p.denominator for p in probs))
            assert sum(d.counts) == d.denominator
            assert math.gcd(d.denominator, *d.counts) == 1

    @pytest.mark.parametrize("base", [2, math.e])
    def test_entropy_repr_equal(self, base):
        for support, probs in self.CASES:
            got = entropy(RationalDist(support, probs), base=base)
            assert repr(got) == repr(reference_entropy(probs, base))

    def test_pushforward_and_project_rv_match_constructor(self):
        rng = random.Random(2025)
        for support, probs in self.CASES:
            d = RationalDist(support, probs)
            f = random_map(rng, support)
            pairs = [(pushforward(f, d), reference_merge([f(x) for x in support], probs))]
            for S in ([1], [2], [1, 2]):
                images = [tuple(x[i - 1] for i in S) for x in support]
                pairs.append((project_rv(d, IndexSet(S)), reference_merge(images, probs)))
            for got, want in pairs:
                assert got == want and hash(got) == hash(want)

    def test_merge_divides_out_a_common_factor(self):
        # the counts 2 and 2 of the images share the factor 2 with d = 4
        want = RationalDist([(1,), (0,)], ["1/2", "1/2"])
        grid = RationalDist.uniform([(a, b) for a in range(2) for b in range(2)])
        got = [
            pushforward(FiniteMap({(i,): (i % 2,) for i in range(1, 5)}),
                        RationalDist.uniform([1, 2, 3, 4])),
            project_rv(grid, IndexSet([2])),
        ]
        assert [(g.counts, g.denominator) for g in got] == [((1, 1), 2)] * 2
        assert got[0] == want and hash(got[0]) == hash(want)
        assert got[1] == RationalDist([(0,), (1,)], ["1/2", "1/2"])

    def test_pushforward_rejects_images_of_mixed_dimension(self):
        with pytest.raises(SchemaError, match="^support elements must share one dimension$"):
            pushforward(FiniteMap({0: 0, 1: (0, 1)}), RationalDist.uniform([0, 1]))


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

    def test_overflowing_weight_sum(self):
        out = rationalize([1e308, 1e308], 8)
        assert out.probs == (Fraction(1, 2), Fraction(1, 2))

    def test_overflowing_sum_scales_by_largest_weight(self):
        assert rationalize([1e308, 5e307, 1e308], 8) == rationalize([1.0, 0.5, 1.0], 8)
        assert rationalize([1.7e308, 1.7e308, 1.0], 12).probs == (
            Fraction(1, 2), Fraction(1, 2),
        )


def dense_sweep(weights, max_denominator):
    """Pure-Python copy of the dense sweep over all L + 1 partial sums.

    It builds the same float expressions in the same order as the sparse
    search: the cost abs(a - t*L) / L, the candidate b + c, an ascending
    sweep over the grid that keeps a candidate when it is <= the best so
    far (the largest value wins exact ties), and a forward reconstruction
    from L. Weights must have a finite, positive sum.
    """
    total = sum(weights)
    target = [w / total for w in weights]
    big_l = math.lcm(*range(1, max_denominator + 1))
    allowed = _grid(big_l, max_denominator)
    best = [0.0] + [math.inf] * big_l
    choices = []
    for i in range(len(target) - 1, -1, -1):
        cost = [abs(a - target[i] * big_l) / big_l for a in allowed]
        nxt = [math.inf] * (big_l + 1)
        pick = [-1] * (big_l + 1)
        for j, (a, c) in enumerate(zip(allowed, cost)):
            for s in range(big_l + 1 - a):
                cand = best[s] + c
                if cand <= nxt[s + a]:
                    nxt[s + a] = cand
                    pick[s + a] = j
        best = nxt
        choices.append(pick)
    choices.reverse()
    remaining = big_l
    numerators = []
    for pick in choices:
        m = allowed[pick[remaining]]
        numerators.append(m)
        remaining -= m
    return RationalDist(
        [(i,) for i in range(len(target))], [Fraction(m, big_l) for m in numerators]
    )


def numpy_rationalize(weights, max_denominator):
    """In-test numpy copy of the dense array sweep `rationalize` used before."""
    np = pytest.importorskip("numpy")
    total = sum(weights)
    target = [w / total for w in weights]
    big_l = math.lcm(*range(1, max_denominator + 1))
    allowed = np.array(_grid(big_l, max_denominator), dtype=np.int64)
    n = len(target)
    best = np.full(big_l + 1, np.inf)
    best[0] = 0.0
    choices = []
    for i in range(n - 1, -1, -1):
        cost = np.abs(allowed - target[i] * big_l) / big_l
        nxt = np.full(big_l + 1, np.inf)
        pick = np.full(big_l + 1, -1, dtype=np.int16)
        for j, (a, c) in enumerate(zip(allowed.tolist(), cost.tolist())):
            cand = best[: big_l + 1 - a] + c
            seg = nxt[a:]
            take = cand <= seg
            seg[take] = cand[take]
            pick[a:][take] = j
        best = nxt
        choices.append(pick)
    choices.reverse()
    remaining = big_l
    numerators = []
    for i in range(n):
        m = int(allowed[int(choices[i][remaining])])
        numerators.append(m)
        remaining -= m
    return RationalDist([(i,) for i in range(n)], [Fraction(m, big_l) for m in numerators])


def seeded_weights(rng, length):
    """Random weights: uniform floats, small integers (exact ties) or zeros."""
    kind = rng.randrange(4)
    if kind == 0:
        return [rng.uniform(0.05, 1.0) for _ in range(length)]
    if kind == 1:
        return [float(rng.randint(1, 4)) for _ in range(length)]
    if kind == 2:
        return [rng.randint(1, 20) / 10 for _ in range(length)]
    return [rng.choice([0.0, 1.0, 2.0, rng.random()]) for _ in range(length)]


def rounds_to_zero(weights, max_denominator):
    total = sum(weights)
    return total <= 0 or all(w / total < 1 / (2 * max_denominator) for w in weights)


# integer weights whose targets tie exactly between grid values
TIE_CASES = [
    ([1.0, 1.0], 1),
    ([1.0, 1.0, 1.0], 2),
    ([1.0, 1.0, 1.0, 1.0], 3),
    ([2.0, 2.0, 2.0], 4),
    ([1.0, 1.0, 1.0, 1.0, 1.0], 4),
    ([3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0], 5),
    ([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], 6),
    ([1.0, 3.0, 1.0, 3.0], 3),
]


class TestRationalizeMatchesDenseSweep:
    """The pruned search returns exactly what the dense sweep returns."""

    @pytest.mark.parametrize("weights,max_denominator", TIE_CASES)
    def test_exact_ties(self, weights, max_denominator):
        assert rationalize(weights, max_denominator) == dense_sweep(weights, max_denominator)

    @pytest.mark.parametrize("max_denominator", range(1, 9))
    def test_single_entry(self, max_denominator):
        expected = dense_sweep([0.3], max_denominator)
        assert expected.probs == (Fraction(1),)
        assert rationalize([0.3], max_denominator) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_instances(self, seed):
        rng = random.Random(100 + seed)
        checked = 0
        while checked < 20:
            max_denominator = rng.randint(1, 8)
            length = rng.randint(1, 5 if max_denominator > 6 else 8)
            weights = seeded_weights(rng, length)
            if rounds_to_zero(weights, max_denominator):
                continue
            got = rationalize(weights, max_denominator)
            assert got == dense_sweep(weights, max_denominator), (weights, max_denominator)
            checked += 1

    @pytest.mark.parametrize("seed", range(4))
    def test_many_weights(self, seed):
        # 9-12 entries, more than any other test draws; L <= 60 keeps the dense sweep cheap
        rng = random.Random(300 + seed)
        checked = 0
        while checked < 10:
            max_denominator = rng.randint(1, 6)
            weights = seeded_weights(rng, rng.randint(9, 12))
            if rounds_to_zero(weights, max_denominator):
                continue
            got = rationalize(weights, max_denominator)
            assert got == dense_sweep(weights, max_denominator), (weights, max_denominator)
            checked += 1

    def test_mutated_sparse_tie_rule_fails(self, monkeypatch):
        # a copy of the sparse sweep that breaks ties with < must disagree
        source = inspect.getsource(dist_module._sweep)
        mutated = source.replace("cand <= nxt.get(", "cand < nxt.get(")
        assert mutated != source
        namespace = dict(vars(dist_module))
        exec(mutated, namespace)
        monkeypatch.setattr(dist_module, "_sweep", namespace["_sweep"])
        assert any(
            rationalize(*case) != dense_sweep(*case) for case in TIE_CASES
        )


class TestRationalizeMatchesNumpySweep:
    """Against the numpy sweep `rationalize` used before, at larger D."""

    @pytest.mark.parametrize(
        "max_denominator,count,seed",
        [(10, 20, 0), (12, 10, 1), (16, 2, 2)],
        ids=["d10", "d12", "d16"],
    )
    def test_seeded_instances(self, max_denominator, count, seed):
        rng = random.Random(200 + seed)
        checked = 0
        while checked < count:
            length = rng.randint(1, 8 if max_denominator < 16 else 2)
            weights = seeded_weights(rng, length)
            if rounds_to_zero(weights, max_denominator):
                continue
            expected = numpy_rationalize(weights, max_denominator)
            assert rationalize(weights, max_denominator) == expected, weights
            checked += 1

    @pytest.mark.parametrize("max_denominator", [10, 12])
    def test_exact_ties(self, max_denominator):
        for weights in ([1.0] * 7, [1.0] * 8, [2.0, 1.0, 2.0, 1.0, 2.0], [5.0]):
            expected = numpy_rationalize(weights, max_denominator)
            assert rationalize(weights, max_denominator) == expected, weights


def reference_as_element(value):
    """`as_element` as it was before its fast path: every coordinate checked alone."""
    if isinstance(value, int) and not isinstance(value, bool):
        return (value,)
    if isinstance(value, (tuple, list)):
        coords = tuple(value)
        if not coords or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in coords
        ):
            raise SchemaError(f"element coordinates must be integers: {_cut(repr(value))}")
        return coords
    raise SchemaError(f"not a ground element: {_cut(repr(value))}")


def reference_table(table):
    """`FiniteMap.__init__`'s table, one entry at a time, in order.

    Every entry's [key, value] shape is checked first, before any element.
    """
    pairs = list(table.items() if isinstance(table, dict) else table)
    for entry in pairs:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise SchemaError(f"map table entries are [key, value] pairs: {_cut(repr(entry))}")
    normalized = {}
    for key, value in pairs:
        k = reference_as_element(key)
        if k in normalized:
            raise SchemaError(f"duplicate key in map table: {_cut(repr(k))}")
        normalized[k] = reference_as_element(value)
    if not normalized:
        raise SchemaError("map table must be nonempty")
    return normalized


def reference_image(f, points):
    """`FiniteMap.image` as it was: each point checked, then looked up, in order."""
    image = set()
    for x in points:
        key = reference_as_element(x)
        if key not in f.table:
            raise DomainError(f"element {_cut(repr(key))} not in map domain")
        image.add(f.table[key])
    return frozenset(image)


def outcome(fn, *args):
    """The result's repr (which tells an IntEnum from an int), or the error raised."""
    try:
        return "ok", repr(fn(*args))
    except Exception as exc:  # compared, never hidden: both sides must match
        return type(exc).__name__, str(exc)


class Small(IntEnum):
    ONE = 1
    TWO = 2


coordinates = st.one_of(
    st.integers(-3, 3),
    st.integers(),
    st.booleans(),
    st.sampled_from(list(Small)),
    st.floats(),
    st.text(max_size=2),
    st.none(),
    st.lists(st.integers(0, 2), max_size=2),
)
int_lists = st.lists(st.integers(-3, 3), min_size=1, max_size=4)
# ints on both sides of the 32 bits that a marshal `i` token holds
int32_edges = st.sampled_from([0, 2**31 - 1, 2**31, -2**31, -2**31 - 1])
edge_lists = st.lists(int32_edges, min_size=1, max_size=4)
elements = st.one_of(
    st.integers(),
    int_lists,
    edge_lists,
    st.tuples(st.integers(), st.integers()),
    coordinates,
    st.lists(coordinates, max_size=4),
    st.tuples(coordinates, coordinates),
)
element_lists = st.one_of(
    st.lists(int_lists, max_size=8),
    st.lists(st.one_of(int_lists, st.integers()), max_size=8),
    st.lists(st.one_of(int_lists, edge_lists), max_size=8),
    st.lists(elements, max_size=8),
)
# keys from a small domain, so that duplicates are common
map_keys = st.one_of(st.lists(st.integers(0, 2), min_size=1, max_size=2), elements)
map_pairs = st.lists(st.tuples(map_keys, elements).map(list), max_size=6)

# an element whose repr runs past the 100 characters an error message echoes
LONG_VALUE = [-10**34, -10**34, 1.3407807929916684e+154]

SEEDED_ELEMENTS = [
    0, -7, 2**80, True, False, Small.ONE, 1.0, float("nan"), "3", "", None,
    [], (), [1], (1, 2), [0, -1, 2**70], [True], [1, False], [Small.TWO, 3],
    (Small.ONE,), [1.0], [1, 2.5], ["1"], [None], [[1]], [1, [2]], ([1], [2]),
    {1: 2}, {1, 2},
]
SEEDED_LISTS = [
    [],
    [[1, 2], [3, 4]],
    [(1, 2), [3, 4]],
    [[1], 2, (3,)],
    [[1, 2], [3, True]],
    [[1], [], [2.0]],
    [[1], [2.0], []],
    [[Small.ONE, 2], [3, 4]],
    [[1, 2], "12"],
    [[0, i] for i in range(499)] + [[1, True]] + [[2, i] for i in range(10)],
]


class IntList(list):
    """A list subclass, which marshal refuses to write."""


def nested(depth: int) -> list:
    value = [1]
    for _ in range(depth):
        value = [value]
    return value


# floats whose 8 payload bytes are all `i`, `[` or `(`
FLOAT_I, FLOAT_LIST, FLOAT_TUPLE = (struct.unpack("<d", c * 8)[0] for c in (b"i", b"[", b"("))
# an int past 32 bits whose 11-byte `l` token has `i` bytes at offsets 5 and
# 10, so that a float after it lies off the stride
LONG_I = 0x69 + 0x6901 * 2**30

# columns at the edges of the marshal bytes that `_int_tuples` reads
EDGE_COLUMNS = {
    "int32-max": [[2**31 - 1, 0], [1, 2]],
    "int32-max-plus-1": [[1, 2], [2**31, 0]],
    "int32-min": [[-2**31], [0]],
    "int32-min-minus-1": [[0], [-2**31 - 1]],
    "true": [[1, 2], [True, 2]],
    "false": [[False]],
    "float-i": [[FLOAT_I, 1]],
    "float-i-last": [[1, 2], [3, FLOAT_I]],
    "float-list": [[1, FLOAT_LIST, 2]],
    "float-tuple": [(FLOAT_TUPLE,), (1,)],
    "long-then-float": [[LONG_I, FLOAT_I]],
    "nested-list": [[[1]]],
    "nested-tuple": [[1, (2,)], [3, 4]],
    "empty-element": [[1], []],
    "empty": [],
    "tuples-and-lists": [(1, 2), [3, 4], (5, 6)],
    "list-subclass": [IntList([1, 2]), [3, 4]],
    "intenum": [[Small.ONE, 2], [3, 4]],
    "empty-bytes": [[1, b""]],
    # marshal refuses the second element; the first is the one reported
    "past-marshal-depth": [[1.5], nested(3000)],
}


class TestElementFastPath:
    """`as_element`, `as_elements`, map tables and images against the old checks."""

    @pytest.mark.parametrize("value", SEEDED_ELEMENTS, ids=repr)
    def test_seeded_element(self, value):
        assert outcome(as_element, value) == outcome(reference_as_element, value)

    @pytest.mark.parametrize("values", SEEDED_LISTS, ids=range(len(SEEDED_LISTS)))
    def test_seeded_list(self, values):
        expected = outcome(lambda vs: [reference_as_element(v) for v in vs], values)
        assert outcome(as_elements, values) == expected
        assert outcome(as_elements, tuple(values)) == expected
        assert outcome(as_elements, iter(values)) == expected

    @given(elements)
    @example(LONG_VALUE)
    def test_element(self, value):
        assert outcome(as_element, value) == outcome(reference_as_element, value)

    @given(element_lists)
    @example([LONG_VALUE])
    def test_list(self, values):
        expected = outcome(lambda vs: [reference_as_element(v) for v in vs], values)
        assert outcome(as_elements, values) == expected

    @given(map_pairs)
    @example([[[0], LONG_VALUE]])
    def test_map_table(self, pairs):
        assert outcome(lambda p: FiniteMap(p).table, pairs) == outcome(reference_table, pairs)

    @pytest.mark.parametrize(
        "pairs",
        [
            [[[0], [0]], [[0], [1]], [[1], [True]]],
            [[[0], [True]], [[0], [1]]],
            [[[0], [0]], [[1], [0], [2]]],
            [[[0], [0]], 5],
            [5],
            [[1, 2, 3]],
            [[[0], [True]], [[1], [0], [2]]],
            [[[0], [0]], [[0], [0]]],
            {(0,): [1], 1: (2,)},
            # a value column marshal cannot write is not taken for the key column
            {(0,): (Small.ONE,)},
            {(0,): Fraction(1)},
        ],
        ids=["duplicate-first", "bad-value-first", "triple", "scalar-entry", "scalar-only",
             "flat-triple", "bad-pair-after-bad-value", "same-pair", "mapping", "enum-value",
             "fraction-value"],
    )
    def test_seeded_map_table(self, pairs):
        assert outcome(lambda p: FiniteMap(p).table, pairs) == outcome(reference_table, pairs)

    @given(st.lists(st.one_of(st.lists(st.integers(0, 3), min_size=2, max_size=2), elements),
                    max_size=6))
    @example([[10**34] * 4])
    def test_image(self, points):
        f = FiniteMap({(a, b): (a + b,) for a in range(3) for b in range(3)})
        assert outcome(lambda p: sorted(f.image(p)), points) == outcome(
            lambda p: sorted(reference_image(f, p)), points
        )

    @pytest.mark.parametrize("values", EDGE_COLUMNS.values(), ids=EDGE_COLUMNS)
    def test_edge_column(self, values):
        expected = outcome(lambda vs: [reference_as_element(v) for v in vs], values)
        assert outcome(as_elements, values) == expected
        # the column as a table's keys, and as its values
        for pairs in ([[v, [i]] for i, v in enumerate(values)],
                      [[[i], v] for i, v in enumerate(values)]):
            assert outcome(lambda p: FiniteMap(p).table, pairs) == outcome(reference_table, pairs)
        # read from the marshal bytes or type by type, the column is the same
        data = dist_module._marshalled(values)
        assert dist_module._int_tuples(values, data) == dist_module._int_tuples(values)

    def test_valid_columns_are_read_from_marshal_bytes(self, monkeypatch):
        # the type-by-type scan is not reached
        monkeypatch.setattr(dist_module, "chain", None)
        for values in ([[2**31 - 1, -2**31]], [(1, 2), [3, 4]], [[0]] * 700, []):
            assert as_elements(values) == [tuple(v) for v in values]
        pairs = [[[i], (i, -i)] for i in range(700)]
        assert FiniteMap(pairs).table == {(i,): (i, -i) for i in range(700)}

    def test_marshal_layout(self):
        """The marshal version 2 layout that `_int_tuples` reads: a list, a
        tuple and an int within 32 bits are a type byte and a 4-byte field,
        and no other value is written as a 5-byte `i` token."""
        def field(n):
            return n.to_bytes(4, "little", signed=True)
        data = marshal.dumps([[1, -1], (2,)], 2)
        assert data == b"".join([b"[", field(2), b"[", field(2), b"i", field(1), b"i",
                                 field(-1), b"(", field(1), b"i", field(2)])
        assert data[::5] == b"[[ii(i"
        for value in (True, False, 1.0, FLOAT_I, 2**31, -2**31 - 1, LONG_I, None, b""):
            token = marshal.dumps(value, 2)
            assert token[:1] not in (b"[", b"(", b"i"), value
        assert marshal.dumps(2**31 - 1, 2) == b"i" + field(2**31 - 1)
        assert marshal.dumps(-2**31, 2) == b"i" + field(-2**31)
        for value in (Small.ONE, IntList([1]), nested(3000)):
            with pytest.raises(ValueError):
                marshal.dumps(value, 2)

    def test_map_copy_shares_no_table(self):
        f = FiniteMap({(0,): (1,), (1,): (0,)})
        g = FiniteMap(f)
        assert g == f and g.table == f.table and g.table is not f.table


def reference_spec(doc):
    """`ineq_spec_from_json` map by map: each table through `reference_table`
    in document order, then the domains compared as frozensets."""
    lhs = reference_table(doc["lhs_map"]["table"])
    rhs = [reference_table(m["table"]) for m in doc["rhs_maps"]]
    if any(frozenset(t) != frozenset(lhs) for t in rhs):
        raise DomainError("all maps must share one declared domain")
    return InequalitySpec(FiniteMap(lhs), [FiniteMap(t) for t in rhs], doc["coefficients"])


# a bool or float equal to the int coordinate it replaces, and coordinates equal to no int
EQUAL_INTRUDERS = {0: False, 1: True}
BAD_COORDINATES = ["x", None, 1.5, [0]]


@st.composite
def spec_docs(draw):
    """A spec document over one domain of 1-6 keys: the lhs an identity or a
    drawn table, each rhs table in the lhs's key order, shuffled, an identity
    or over another domain; now and then one fault in one entry of one table."""
    dim = draw(st.integers(1, 3))
    coords = st.lists(st.integers(0, 3), min_size=dim, max_size=dim)
    domain = draw(st.lists(coords, min_size=1, max_size=6, unique_by=tuple))

    def table(kind):
        keys = [list(k) for k in domain]  # every table has its own lists, as JSON gives
        if kind == "shuffled":
            keys = draw(st.permutations(keys))
        elif kind == "other domain":
            keys = draw(st.lists(coords, min_size=1, max_size=6, unique_by=tuple))
        if kind == "identity":
            return [[k, list(k)] for k in keys]
        images = st.lists(st.integers(0, 3), min_size=1, max_size=2)
        return [[k, draw(images)] for k in keys]

    tables = [table(draw(st.sampled_from(["identity", "same order"])))]
    kinds = st.sampled_from(["same order", "shuffled", "identity", "other domain"])
    tables += [table(draw(kinds)) for _ in range(draw(st.integers(1, 3)))]
    fault = draw(st.sampled_from([None, "coordinate", "equal", "duplicate", "triple"]))
    if fault is not None:
        t = draw(st.sampled_from(tables))
        i = draw(st.integers(0, len(t) - 1))
        if fault == "triple":
            t[i] = [*t[i], t[i][1]]
        elif fault == "duplicate":
            t.insert(i, [list(draw(st.sampled_from(t))[0]), [0]])
        else:
            element = t[i][draw(st.integers(0, 1))]
            j = draw(st.integers(0, len(element) - 1))
            element[j] = (EQUAL_INTRUDERS.get(element[j], float(element[j]))
                          if fault == "equal" else draw(st.sampled_from(BAD_COORDINATES)))
    return {"lhs_map": {"table": tables[0]}, "rhs_maps": [{"table": t} for t in tables[1:]],
            "coefficients": ["1/2"] * (len(tables) - 1)}


class TestSpecDecoding:
    """`ineq_spec_from_json`, which shares a key column between tables, against
    `reference_spec`, which decodes each map alone."""

    @given(spec_docs())
    @settings(max_examples=400)
    def test_matches_map_by_map(self, doc):
        expected = outcome(reference_spec, doc)
        assert outcome(jsonio.ineq_spec_from_json, doc) == expected
        if expected[0] == "ok":
            spec = jsonio.ineq_spec_from_json(doc)
            assert spec == reference_spec(doc)
            tables = [m.table for m in (spec.lhs_map, *spec.rhs_maps)]
            assert len({id(t) for t in tables}) == len(tables)

    @pytest.mark.parametrize("intruder", [True, 1.0], ids=["bool", "float"])
    @pytest.mark.parametrize("where", ["rhs key", "lhs value", "second rhs value"])
    def test_value_equal_to_an_int_is_refused(self, intruder, where):
        # True == 1 and 1.0 == 1, so the columns compare equal with ==
        doc = {"lhs_map": {"table": [[[0, 1], [0, 1]], [[1, 1], [1, 1]]]},
               "rhs_maps": [{"table": [[[0, 1], [0]], [[1, 1], [1]]]}],
               "coefficients": ["1"]}
        if where == "second rhs value":
            doc["rhs_maps"].append({"table": [[[0, 1], [0]], [[1, 1], [intruder]]]})
            doc["coefficients"].append("1")
        else:
            table = doc["rhs_maps"][0]["table"] if where == "rhs key" else doc["lhs_map"]["table"]
            table[1][0 if where == "rhs key" else 1][1] = intruder
        with pytest.raises(SchemaError, match="^element coordinates must be integers: "):
            jsonio.ineq_spec_from_json(doc)

    def test_equal_value_columns_share_their_tuples(self):
        domain = [[0, 0], [0, 1], [1, 0], [1, 1]]
        doc = {"lhs_map": {"table": [[list(k), list(k)] for k in domain]},
               "rhs_maps": [{"table": [[list(k), [k[0] ^ k[1]]] for k in domain]}
                            for _ in range(2)],
               "coefficients": ["1/2", "1/2"]}
        f, g = jsonio.ineq_spec_from_json(doc).rhs_maps
        assert f.table == g.table and f.table is not g.table
        assert all(f.table[k] is g.table[k] for k in f.table)

    def test_key_column_equal_to_an_earlier_value_column_shares_its_tuples(self):
        # the lhs swaps the two keys, and the rhs lists its keys in the lhs's value order
        doc = {"lhs_map": {"table": [[[0], [1]], [[1], [0]]]},
               "rhs_maps": [{"table": [[[1], [5]], [[0], [6]]]}],
               "coefficients": ["1"]}
        spec = jsonio.ineq_spec_from_json(doc)
        assert list(spec.rhs_maps[0].table) == list(spec.lhs_map.table.values())
        assert all(k is v for k, v in zip(spec.rhs_maps[0].table, spec.lhs_map.table.values()))

    def test_identity_table_reuses_its_key_tuples(self):
        f = FiniteMap([[[0, 1], [0, 1]], [[1, 1], [1, 1]], [[2, 0], [2, 0]]])
        assert f.table == {(0, 1): (0, 1), (1, 1): (1, 1), (2, 0): (2, 0)}
        assert all(v is k for k, v in f.table.items())

    def test_array_value_is_refused_without_comparing_it(self):
        # `==` against a NumPy array of two entries raises ValueError
        np = pytest.importorskip("numpy")
        with pytest.raises(SchemaError, match="^not a ground element: array"):
            FiniteMap([[[0, 1], np.array([0, 1])]])


def reference_fraction(value):
    return Fraction(*reference_ratio(value))


def reference_dist(support, probs):
    """`RationalDist` as it was: every probability read as a Fraction, then checked."""
    try:
        lengths_differ = len(support) != len(probs)
    except TypeError:
        raise SchemaError("support and probs must be sequences") from None
    if lengths_differ:
        raise SchemaError("support and probs must have equal length")
    elems = as_elements(support)
    fracs = [reference_fraction(p) for p in probs]
    if any(p < 0 for p in fracs):
        raise SchemaError("probabilities must be nonnegative")
    kept = [(x, p) for x, p in zip(elems, fracs) if p > 0]
    if not kept:
        raise SchemaError("distribution has no positive-probability outcome")
    elems, fracs = zip(*kept)
    if len(set(elems)) != len(elems):
        raise SchemaError("support elements must be pairwise distinct")
    d = math.lcm(*(p.denominator for p in fracs))
    counts = tuple(p.numerator * (d // p.denominator) for p in fracs)
    if sum(counts) != d:
        raise SchemaError(
            f"probabilities must sum to 1 exactly, got {_cut(str(Fraction(sum(counts), d)))}")
    if len(set(map(len, elems))) != 1:
        raise SchemaError("support elements must share one dimension")
    return elems, counts, d


def stored(support, probs):
    d = RationalDist(support, probs)
    return d.support, d.counts, d.denominator


SEEDED_RATIOS = [
    "1", "0", "7/21", "01/002", "000", "0/5", "12/18",
    " 1/2", "1/2 ", "\t3\n", "+1/2", "-1/2", "-0", "+0/3",
    "1_0/20", "1__0/20", "_1/2", "1/2_",
    "\u0661/\u0662", "\uff11/\uff12", "\u0663", "\u00b2", "1/\u00b2",
    "1/0", "0/0", "", " ", "/", "/2", "1/", "1/2/3", "1 / 2", "1.5", "1e3", "1.", "1/-2", "abc",
    "1e-4301", "2E+4_301 ", "1e4300", "1/2e9999",
    "9" * 4300, "1/" + "9" * 4300, "9" * 4301, "1/" + "9" * 4301, "0" * 5000 + "1",
    0, 1, -3, 2**100, True, False, Small.ONE, Fraction(0), Fraction(-2, 6), Fraction(10**30, 7),
    0.5, float("nan"), None, [1, 2], (1, 2),
]
digit_strings = st.text(alphabet="0123456789", max_size=5)
ratio_values = st.one_of(
    st.builds(lambda a, b: f"{a}/{b}", digit_strings, digit_strings),
    digit_strings,
    st.text(alphabet="0123456789/+-_ .eE\t\u0661\uff11\u00b2x", max_size=8),
    st.text(max_size=4),
    st.fractions().map(str),
    st.integers(),
    st.booleans(),
    st.fractions(),
    st.floats(),
    st.none(),
    st.sampled_from(list(Small)),
)


@st.composite
def dist_arguments(draw):
    """Supports with probabilities that mostly sum to 1, written in mixed forms."""
    n = draw(st.integers(0, 4))
    support = draw(st.one_of(
        st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=2), min_size=n, max_size=n),
        st.lists(elements, min_size=n, max_size=n + 1),
    ))
    weights = draw(st.lists(st.integers(-1, 4), min_size=n, max_size=n))
    total = sum(weights) or 1
    forms = [str, lambda p: p, lambda p: f"{3 * p.numerator}/{3 * p.denominator}", lambda p: p.numerator]
    probs = [draw(st.sampled_from(forms))(Fraction(w, total)) for w in weights]
    if probs and draw(st.booleans()):
        probs[draw(st.integers(0, n - 1))] = draw(ratio_values)
    return support, probs


class TestRatio:
    """`_ratio` and `as_fraction` against `reference_ratio`, which reads with `Fraction` alone."""

    @pytest.mark.parametrize("value", SEEDED_RATIOS, ids=lambda v: repr(v)[:24])
    def test_seeded_value(self, value):
        assert outcome(_ratio, value) == outcome(reference_ratio, value)
        assert outcome(as_fraction, value) == outcome(reference_fraction, value)

    @given(ratio_values)
    def test_value(self, value):
        assert outcome(_ratio, value) == outcome(reference_ratio, value)
        assert outcome(as_fraction, value) == outcome(reference_fraction, value)

    @settings(max_examples=300)
    @given(dist_arguments())
    def test_constructor(self, arguments):
        assert outcome(stored, *arguments) == outcome(reference_dist, *arguments)

    def test_plain_probabilities_make_no_fraction(self, monkeypatch):
        # every string off the plain path has its exponent read before `Fraction`
        class Refuse:
            def search(self, value):
                raise AssertionError(f"{value!r} read by Fraction")

        monkeypatch.setattr(dist_module, "_EXPONENT", Refuse())
        with pytest.raises(AssertionError, match="read by Fraction"):
            RationalDist([0], [" 1"])
        doc = {"support": [[0], [1], [2], [3]], "probs": ["1/6", "2/6", "0", "01/2"]}
        X = jsonio.dist_from_json(doc)
        assert (X.support, X.counts, X.denominator) == (((0,), (1,), (3,)), (1, 2, 3), 6)
        assert jsonio.dist_to_json(X) == {"support": [[0], [1], [3]], "probs": ["1/6", "1/3", "1/2"]}
        X = RationalDist([0, 1, 2], ["1/4", 0, Fraction(3, 4)])
        assert (X.support, X.counts, X.denominator) == (((0,), (2,)), (1, 3), 4)
        assert RationalDist([0, 1], [1, "0/7"]).counts == (1,)

    @pytest.mark.parametrize("seed", range(20))
    def test_dist_to_json_writes_the_probs(self, seed):
        X = random_dist(random.Random(seed), max_support=6, max_denominator=40)
        assert jsonio.dist_to_json(X)["probs"] == [str(p) for p in X.probs]
