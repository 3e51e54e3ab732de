"""Type-class set counting, enumeration, commutation, lift, certificates."""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import islice, permutations, product

import pytest

from entroset import checkers, ruzsa
from entroset import (
    DomainError,
    FiniteMap,
    InequalitySpec,
    MembershipError,
    RationalDist,
    RuzsaSpec,
    SizeGuardError,
    SuitabilityError,
    convergence_profile,
    empirical_lemma1,
    minimal_suitable_k,
    preimage_lift,
    pushforward,
    ruzsa_enumerate,
    ruzsa_size,
    type_bound_check,
    verify_commutation,
)

from genutil import random_dist, random_map


def bruteforce_members(dist, k):
    """Independent oracle: scan all of support^k for exact occurrence counts."""
    counts = {x: p * k for x, p in dist.as_mapping().items()}
    return [
        v
        for v in product(dist.support, repeat=k)
        if all(v.count(x) == c for x, c in counts.items())
    ]


def reference_enumerate(spec):
    """Independent oracle: the next-lexicographic-permutation walk over indices."""
    support = spec.dist.support
    idx = []
    for i, c in enumerate(spec.counts):
        idx.extend([i] * c)
    k = len(idx)
    while True:
        yield tuple(support[i] for i in idx)
        j = k - 2
        while j >= 0 and idx[j] >= idx[j + 1]:
            j -= 1
        if j < 0:
            return
        m = k - 1
        while idx[m] <= idx[j]:
            m -= 1
        idx[j], idx[m] = idx[m], idx[j]
        idx[j + 1 :] = reversed(idx[j + 1 :])


def reference_commutation(f, spec, max_witnesses=5, drop=0):
    """`verify_commutation`'s JSON, from tuple sets of both enumerations.

    `drop` removes that many of the smallest mapped vectors first.
    """
    image_spec = RuzsaSpec(pushforward(f, spec.dist), spec.k)
    mapped = {f.map_vector(v) for v in reference_enumerate(spec)}
    for v in sorted(mapped)[:drop]:
        mapped.discard(v)
    direct = set(reference_enumerate(image_spec))
    only_mapped = sorted(mapped - direct)[:max_witnesses]
    only_direct = sorted(direct - mapped)[:max_witnesses]
    equal = not only_mapped and not only_direct and len(mapped) == len(direct)
    return {
        "verdict": "holds" if equal else "violated",
        "lhs": float(len(mapped)),
        "rhs": float(len(direct)),
        "slack": float(len(direct) - len(mapped)),
        "witnesses": [
            {"side": side, "vector": [list(x) for x in v]}
            for side, vs in (("mapped_only", only_mapped), ("direct_only", only_direct))
            for v in vs
        ],
        "provenance": "exact",
        "source_size": str(ruzsa_size(spec)),
        "mapped_size": str(len(mapped)),
        "direct_size": str(len(direct)),
        "k": spec.k,
    }


def reference_image(counts, symbols):
    """Independent oracle: the tuples (symbols[v_1], ..., symbols[v_k]) over
    every arrangement v of the indices with `counts`, grown one last
    coordinate at a time over the count vectors, without int coding,
    shared sets or a join."""
    level = {(0,) * len(counts): {()}}
    for _ in range(sum(counts)):
        grown = {}
        for u, images in level.items():
            for i, c in enumerate(u):
                if c < counts[i]:
                    child = grown.setdefault(u[:i] + (c + 1,) + u[i + 1 :], set())
                    child.update(w + (symbols[i],) for w in images)
        level = grown
    return level[tuple(counts)]


def spec_of_counts(counts, support=None):
    k = sum(counts)
    support = support or [(i,) for i in range(len(counts))]
    return RuzsaSpec(RationalDist(support, [Fraction(c, k) for c in counts]), k)


def random_counts_spec(rng, max_size):
    """Random counts on a shuffled support, |set| <= max_size."""
    while True:
        counts = [rng.randint(1, 6) for _ in range(rng.randint(1, 5))]
        if math.factorial(sum(counts)) // math.prod(map(math.factorial, counts)) <= max_size:
            break
    support = rng.sample([(v,) for v in range(-20, 20)], len(counts))
    return spec_of_counts(counts, support)


HALVES = RationalDist([(0,), (1,)], ["1/2", "1/2"])
THIRDS = RationalDist([(0,), (1,)], ["1/3", "2/3"])
SIXTHS = RationalDist([(0,), (1,), (2,)], ["1/6", "1/3", "1/2"])


class TestSpec:
    def test_unsuitable_k_rejected(self):
        with pytest.raises(SuitabilityError):
            RuzsaSpec(THIRDS, 4)

    @pytest.mark.parametrize("k", ["a", 2.0, True, None])
    def test_non_int_k_rejected(self, k):
        with pytest.raises(SuitabilityError, match="k must be an integer"):
            RuzsaSpec(HALVES, k)

    @pytest.mark.parametrize("k", [0, -2, -3])
    def test_nonpositive_k_message(self, k):
        want = f"k={k} must be a positive multiple of the probability denominator d=3"
        with pytest.raises(SuitabilityError, match=f"^{want}$"):
            RuzsaSpec(THIRDS, k)

    def test_counts_are_exact(self):
        assert RuzsaSpec(SIXTHS, 6).counts == (1, 2, 3)

    def test_contains(self):
        spec = RuzsaSpec(THIRDS, 3)
        assert spec.contains(((0,), (1,), (1,)))
        assert not spec.contains(((0,), (0,), (1,)))
        assert not spec.contains(((0,), (1,)))


class TestKGuard:
    """A k with k * bit_length(d) past the bit limit is refused before any size is built."""

    PAST = 65538  # the least even k with 2k > 2^17: d = 2 has 2 bits
    SIXTEENTHS = RationalDist.uniform([(i,) for i in range(16)])  # d = 16 has 5 bits

    @pytest.fixture(autouse=True)
    def refuse_sizes(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a multinomial was built")

        monkeypatch.setattr(ruzsa, "_multinomial", refuse)

    def test_at_and_past_the_limit(self):
        assert ruzsa._K_BIT_LIMIT == 2**17
        assert RuzsaSpec(HALVES, 65536).k == 65536
        want = "^k=65538 times the 2 bits of d=2 exceeds the bit limit 131072$"
        with pytest.raises(SizeGuardError, match=want):
            RuzsaSpec(HALVES, self.PAST)

    def test_the_bound_is_at_least_k(self):
        # d = 1 has one bit, so a point mass's vectors are at most 2^17 long
        point = RationalDist([(0,)], [1])
        assert RuzsaSpec(point, 2**17).k == 2**17
        with pytest.raises(SizeGuardError, match="^k=131073 times the 1 bits of d=1 "):
            RuzsaSpec(point, 2**17 + 1)

    def test_every_entry_point(self):
        ident = FiniteMap.identity(self.SIXTEENTHS.support)
        spec = InequalitySpec(ident, [ident], [1])
        calls = [
            lambda: ruzsa._sizes(HALVES, [2, self.PAST]),
            lambda: convergence_profile(HALVES, [2, self.PAST, 4]),
            # 1,700 rows, within the row limit; 16 * 1700 * 5 bits is past the bit limit
            lambda: empirical_lemma1(spec, self.SIXTEENTHS, 16 * 1700),
            lambda: empirical_lemma1(spec, self.SIXTEENTHS, 16 * 1700, cross_validate=True),
        ]
        for call in calls:
            with pytest.raises(SizeGuardError, match="exceeds the bit limit 131072$"):
                call()

    def test_unsuitable_ks_are_named_first(self):
        with pytest.raises(SuitabilityError, match="^k=3 is not a multiple"):
            convergence_profile(HALVES, [self.PAST, 3])


class TestSize:
    @pytest.mark.parametrize(
        "dist,k,expected",
        [(HALVES, 4, 6), (THIRDS, 3, 3), (SIXTHS, 6, 60)],
    )
    def test_closed_form(self, dist, k, expected):
        assert ruzsa_size(RuzsaSpec(dist, k)) == expected

    def test_matches_bruteforce(self):
        rng = random.Random(3)
        for _ in range(25):
            d = random_dist(rng, max_support=3, max_denominator=4)
            k = minimal_suitable_k(d)
            spec = RuzsaSpec(d, k)
            assert ruzsa_size(spec) == len(bruteforce_members(d, k))

    def test_matches_factorial_quotient(self):
        rng = random.Random(41)
        for _ in range(60):
            counts = [rng.randint(1, 400) for _ in range(rng.randint(1, 6))]
            expected = math.factorial(sum(counts))
            for c in counts:
                expected //= math.factorial(c)
            assert ruzsa_size(spec_of_counts(counts)) == expected


class TestEnumerate:
    def test_two_arrangements(self):
        got = list(ruzsa_enumerate(RuzsaSpec(HALVES, 2)))
        assert got == [((0,), (1,)), ((1,), (0,))]

    def test_single_point_is_constant_vector(self):
        d = RationalDist([(9,)], [1])
        for k in (1, 3, 7):
            assert list(ruzsa_enumerate(RuzsaSpec(d, k))) == [((9,),) * k]

    def test_thirds_k3(self):
        got = list(ruzsa_enumerate(RuzsaSpec(THIRDS, 3)))
        assert got == [
            ((0,), (1,), (1,)),
            ((1,), (0,), (1,)),
            ((1,), (1,), (0,)),
        ]

    def test_lexicographic_and_distinct(self):
        spec = RuzsaSpec(SIXTHS, 6)
        got = list(ruzsa_enumerate(spec))
        assert len(got) == len(set(got)) == ruzsa_size(spec)
        assert all(spec.contains(v) for v in got)
        index = {x: i for i, x in enumerate(SIXTHS.support)}
        keys = [tuple(index[x] for x in v) for v in got]
        assert keys == sorted(keys)

    def test_count_equals_closed_form(self):
        rng = random.Random(5)
        for _ in range(30):
            d = random_dist(rng)
            k = minimal_suitable_k(d)
            spec = RuzsaSpec(d, k)
            if ruzsa_size(spec) > 20000:
                continue
            assert sum(1 for _ in ruzsa_enumerate(spec)) == ruzsa_size(spec)

    def test_size_guard(self):
        d = RationalDist.uniform(range(8))
        with pytest.raises(SizeGuardError):
            list(ruzsa_enumerate(RuzsaSpec(d, 16), limit=1000))

    def test_size_guard_message(self):
        spec = RuzsaSpec(RationalDist.uniform(range(8)), 16)
        with pytest.raises(SizeGuardError) as exc:
            next(ruzsa_enumerate(spec, limit=1000))
        size = math.factorial(16) // 2**8
        assert str(exc.value) == f"enumeration of {size} vectors exceeds limit 1000"

    def test_first_items_are_lazy(self):
        # all 10! = 3,628,800 members would take about 450 MB as tuples
        spec = spec_of_counts([1] * 10)
        tracemalloc.start()
        try:
            first = list(islice(ruzsa_enumerate(spec, limit=10**7), 5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first == list(islice(reference_enumerate(spec), 5))
        assert peak < 32 * 2**20

    def test_more_than_256_support_elements(self):
        # 300! < 10**1000, so only the byte encoding stops this enumeration
        spec = RuzsaSpec(RationalDist.uniform(range(300)), 300)
        assert ruzsa_size(spec) < 10**1000
        vectors = ruzsa_enumerate(spec, limit=10**1000)
        with pytest.raises(SizeGuardError) as exc:
            next(vectors)
        assert str(exc.value) == "enumeration over 300 support elements exceeds 256"
        f = FiniteMap.identity(spec.dist.support)
        with pytest.raises(SizeGuardError):
            verify_commutation(f, spec, limit=10**1000)


class TestEnumerateMatchesReferenceWalk:
    """Same vectors in the same order as the index permutation walk."""

    def check(self, spec):
        assert list(ruzsa_enumerate(spec)) == list(reference_enumerate(spec))

    def test_seeded_random_counts(self):
        rng = random.Random(43)
        for _ in range(40):
            self.check(random_counts_spec(rng, max_size=20000))

    def test_single_point(self):
        for k in (1, 2, 9, 40):
            self.check(spec_of_counts([k], [(5,)]))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_all_ones(self, n):
        self.check(spec_of_counts([1] * n, [(v,) for v in range(n, 0, -1)]))

    @pytest.mark.parametrize("counts", [(10, 2), (1, 12, 2), (3, 11), (2, 1, 10, 1)])
    def test_large_count(self, counts):
        self.check(spec_of_counts(counts, [(-v,) for v in range(len(counts))]))

    def test_commute_workload_counts(self):
        for counts in ((1, 2, 11), (1, 1, 1, 8), (3, 3, 5), (2, 4, 8), (1, 3, 3, 4)):
            self.check(spec_of_counts(counts))


class TestImageSet:
    """`_image_set` equals the tuple-level image {f^k(v) : v in the k-set}."""

    @staticmethod
    def check(spec, f):
        image = pushforward(f, spec.dist).support
        position = {y: j for j, y in enumerate(image)}
        symbols = [position[f(x)] for x in spec.dist.support]
        got = ruzsa._image_set(spec.counts, symbols, ruzsa.DEFAULT_ENUM_LIMIT)
        want = {f.map_vector(v) for v in reference_enumerate(spec)}
        decoded = (ruzsa._decode(v, spec.k, len(image)) for v in got)
        assert {tuple(image[j] for j in v) for v in decoded} == want
        assert len(got) == len(want)

    def test_seeded_random_counts_and_maps(self):
        rng = random.Random(61)
        for _ in range(60):
            spec = random_counts_spec(rng, max_size=20000)
            self.check(spec, random_map(rng, spec.dist.support, merge_bias=rng.random()))

    def test_constant_map(self):
        spec = spec_of_counts([2, 3, 1, 2])
        f = FiniteMap({x: (7,) for x in spec.dist.support})
        self.check(spec, f)
        got = ruzsa._image_set(spec.counts, [0] * 4, 10**6)
        assert {ruzsa._decode(v, 8, 1) for v in got} == {(0,) * 8}

    def test_identity_map(self):
        spec = spec_of_counts([2, 1, 3])
        self.check(spec, FiniteMap.identity(spec.dist.support))

    def test_injective_reordering(self):
        rng = random.Random(67)
        for _ in range(20):
            spec = random_counts_spec(rng, max_size=5000)
            images = rng.sample([(v, -v) for v in range(30)], len(spec.dist))
            self.check(spec, FiniteMap(dict(zip(spec.dist.support, images))))

    @pytest.mark.parametrize("k", [1, 2, 9])
    def test_single_support_element(self, k):
        # k = 1 needs a point mass, so it is the case n = 1 with k = 1
        spec = spec_of_counts([k], [(4,)])
        self.check(spec, FiniteMap({(4,): (0,)}))
        got = ruzsa._image_set((k,), [3], 1)
        assert {ruzsa._decode(v, k, 4) for v in got} == {(3,) * k}

    @pytest.mark.parametrize("n", [2, 5])
    def test_all_ones_are_permutations(self, n):
        got = ruzsa._image_set((1,) * n, range(n), math.factorial(n))
        assert {ruzsa._decode(v, n, n) for v in got} == set(permutations(range(n)))
        self.check(spec_of_counts([1] * n), FiniteMap.identity(range(n)))

    def test_256_index_guard(self):
        def unread():
            raise AssertionError("symbols read before the guard")
            yield  # pragma: no cover

        counts = (1,) * 257
        with pytest.raises(SizeGuardError, match="257 support elements exceeds 256"):
            ruzsa._image_set(counts, unread(), math.factorial(257))
        with pytest.raises(SizeGuardError, match="10 vectors exceeds limit 9"):
            ruzsa._image_set((2, 3), unread(), 9)

    def test_size_guard_before_map_is_called(self):
        spec = spec_of_counts([2, 4, 8])
        partial = FiniteMap({(0,): (0,), (1,): (0,)})  # (2,) is not in the domain
        with pytest.raises(SizeGuardError):
            ruzsa._mapped_arrangements(partial, spec, [(0,)], limit=45044)
        with pytest.raises(DomainError):
            ruzsa._mapped_arrangements(partial, spec, [(0,)], limit=45045)


class TestImageSetSharing:
    """`_image_set` where two symbols are equal, so sets are shared, and on long
    vectors of many int digits, against the tuple-level image.

    Source sets here reach 7,484,400 vectors, so the image comes from
    `reference_image`, which `test_reference_matches_enumeration` checks
    against the enumerated source on small cases.
    """

    @staticmethod
    def check(counts, symbols):
        got = ruzsa._image_set(counts, symbols, ruzsa._multinomial(counts))
        base, k = max(symbols) + 1, sum(counts)
        want = reference_image(counts, symbols)
        assert {ruzsa._decode(v, k, base) for v in got} == want
        assert len(got) == len(want)

    @pytest.mark.parametrize(
        "counts, symbols",
        [
            ((2, 2, 2, 2, 2, 2), (0, 0, 1, 1, 2, 2)),
            ((3, 3, 3, 3), (0, 0, 1, 1)),
            ((1,) * 10, (0,) * 5 + (1,) * 5),
            ((3, 3, 3, 3), (0, 0, 0, 0)),
            ((2, 3, 1, 2), (1, 1, 1, 1)),
            ((1, 399), (0, 1)),
            ((1, 399), (1, 0)),
            ((3, 60), (0, 1)),
        ],
        ids=["2x6-to-3", "3x4-to-2", "ten-1s-to-2", "constant", "constant-1",
             "1-399", "1-399-swapped", "3-60"],
    )
    def test_fixed_cases(self, counts, symbols):
        self.check(counts, symbols)

    def test_seeded_merges(self):
        rng = random.Random(71)
        for _ in range(60):
            counts = tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 6)))
            if ruzsa._multinomial(counts) > 200_000:
                continue
            symbols = [rng.randrange(len(counts) - 1) for _ in counts]
            self.check(counts, symbols)

    def test_reference_matches_enumeration(self):
        rng = random.Random(73)
        for _ in range(40):
            spec = random_counts_spec(rng, max_size=5000)
            symbols = [rng.randrange(3) for _ in spec.counts]
            position = dict(zip(spec.dist.support, symbols))
            enumerated = {tuple(map(position.__getitem__, v)) for v in reference_enumerate(spec)}
            assert reference_image(spec.counts, symbols) == enumerated

    def test_equal_heads_share_one_set(self):
        level = {(0, 0, 0): {0}}
        grown = ruzsa._grow(level, (1, 1, 1), [0, 0, 1])
        assert grown[(1, 0, 0)] is grown[(0, 1, 0)]
        assert grown[(0, 0, 1)] == {1}
        grown = ruzsa._grow(grown, (1, 1, 1), [0, 0, 2])
        assert grown[(1, 0, 1)] is grown[(0, 1, 1)] != grown[(1, 1, 0)]

    def test_every_head_set_of_a_tail_set_is_joined(self, monkeypatch):
        # k = 7: tails at level 3, heads at level 4. The states whose heads share
        # one set get disjoint parts of it, so only the union of their head
        # sets covers the image; their tails stay shared.
        counts, symbols = (2, 2, 3), (0, 0, 1)
        grow = ruzsa._grow

        def split_heads(level, counts_, heads):
            grown = grow(level, counts_, heads)
            if sum(next(iter(grown))) == 4:
                states = {}
                for u, images in grown.items():
                    states.setdefault(id(images), []).append(u)
                for us in states.values():
                    images = sorted(grown[us[0]])
                    for j, u in enumerate(us):
                        grown[u] = set(images[j :: len(us)])
            return grown

        monkeypatch.setattr(ruzsa, "_grow", split_heads)
        self.check(counts, symbols)


class TestCommutation:
    def test_identity_map(self):
        spec = RuzsaSpec(SIXTHS, 6)
        report = verify_commutation(FiniteMap.identity(SIXTHS.support), spec)
        assert report.holds
        assert report.details["mapped_size"] == report.details["source_size"] == "60"

    def test_mod_two_on_uniform_four(self):
        d = RationalDist.uniform([1, 2, 3, 4])
        f = FiniteMap({(i,): (i % 2,) for i in range(1, 5)})
        report = verify_commutation(f, RuzsaSpec(d, 4))
        assert report.holds
        assert report.details["source_size"] == "24"
        assert report.details["mapped_size"] == "6"
        assert report.details["direct_size"] == "6"

    def test_merge_map_on_sixths(self):
        f = FiniteMap({(0,): (10,), (1,): (10,), (2,): (11,)})
        report = verify_commutation(f, RuzsaSpec(SIXTHS, 6))
        assert report.holds
        assert report.details["direct_size"] == str(math.comb(6, 3))

    def test_random_triples(self):
        rng = random.Random(17)
        done = 0
        while done < 40:
            d = random_dist(rng, max_support=4, max_denominator=5)
            k = minimal_suitable_k(d)
            if ruzsa_size(RuzsaSpec(d, k)) > 5000:
                continue
            f = random_map(rng, d.support)
            report = verify_commutation(f, RuzsaSpec(d, k))
            assert report.holds, (d, f)
            done += 1

    def test_source_size_past_the_str_digit_limit(self, monkeypatch):
        monkeypatch.setattr(ruzsa, "ruzsa_size", lambda spec: 10**5000)
        report = verify_commutation(FiniteMap.identity(SIXTHS.support), RuzsaSpec(SIXTHS, 6))
        assert report.details["source_size"] == "1" + "0" * 5000
        assert report.details["mapped_size"] == report.details["direct_size"] == "60"


class TestCommutationMatchesTupleReference:
    """Reports equal a double enumeration over element tuples."""

    def specs_and_maps(self, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            spec = random_counts_spec(rng, max_size=5000)
            support = spec.dist.support
            if rng.random() < 0.5:
                f = random_map(rng, support, merge_bias=rng.random())
            else:  # injective, images in shuffled order
                images = rng.sample([(v, -v) for v in range(50)], len(support))
                f = FiniteMap(dict(zip(support, images)))
            yield spec, f

    def test_random_specs_under_random_maps(self):
        for spec, f in self.specs_and_maps(47, 60):
            got = verify_commutation(f, spec).to_json()
            assert got == reference_commutation(f, spec), (spec, f)

    @pytest.mark.parametrize("drop", [1, 7])
    def test_witnesses_decoded_before_sorting(self, monkeypatch, drop):
        # drop the smallest mapped vectors (in element order, not byte
        # order) so the witnesses come from a real discrepancy
        mapped_arrangements = ruzsa._mapped_arrangements

        def dropping(f, spec, image_support, limit):
            mapped = mapped_arrangements(f, spec, image_support, limit)
            base = len(image_support)
            by_vector = sorted(mapped, key=lambda v: [
                image_support[i] for i in ruzsa._decode(v, spec.k, base)])
            return mapped - set(by_vector[:drop])

        monkeypatch.setattr(ruzsa, "_mapped_arrangements", dropping)
        for spec, f in self.specs_and_maps(53, 30):
            got = verify_commutation(f, spec).to_json()
            want = reference_commutation(f, spec, drop=drop)
            assert got == want, (spec, f)
            assert got["verdict"] == "violated"

    def test_size_guard_message(self):
        spec = spec_of_counts([2, 4, 8])
        f = FiniteMap.identity(spec.dist.support)
        with pytest.raises(SizeGuardError) as exc:
            verify_commutation(f, spec, limit=45044)
        assert str(exc.value) == "enumeration of 45045 vectors exceeds limit 45044"


class TestPreimageLift:
    def test_identity_lift(self):
        spec = RuzsaSpec(THIRDS, 3)
        y = ((1,), (0,), (1,))
        assert preimage_lift(FiniteMap.identity(THIRDS.support), spec, y) == y

    def test_block_rule_frozen_example(self):
        d = RationalDist.uniform([1, 2, 3, 4])
        f = FiniteMap({(i,): (i % 2,) for i in range(1, 5)})
        x = preimage_lift(f, RuzsaSpec(d, 4), [(0,), (0,), (1,), (1,)])
        assert x == ((2,), (4,), (1,), (3,))

    def test_nonmember_rejected(self):
        d = RationalDist.uniform([1, 2, 3, 4])
        f = FiniteMap({(i,): (i % 2,) for i in range(1, 5)})
        with pytest.raises(MembershipError):
            preimage_lift(f, RuzsaSpec(d, 4), [(0,), (0,), (0,), (1,)])

    def test_membership_postconditions(self):
        rng = random.Random(29)
        for _ in range(60):
            d = random_dist(rng, max_support=4, max_denominator=6)
            k = minimal_suitable_k(d)
            f = random_map(rng, d.support)
            image = pushforward(f, d)
            mspec = RuzsaSpec(image, k)
            entries = []
            for x, c in zip(image.support, mspec.counts):
                entries.extend([x] * c)
            rng.shuffle(entries)
            y = tuple(entries)
            spec = RuzsaSpec(d, k)
            x = preimage_lift(f, spec, y)
            assert f.map_vector(x) == y
            assert spec.contains(x)


class TestTypeBound:
    def test_halves_k2(self):
        report = type_bound_check(RuzsaSpec(HALVES, 2))
        assert report.holds
        assert report.details["size"] == "2"
        assert report.details["type_mass_inverse"] == "4"
        assert report.details["upper_factor"] == "3"

    def test_single_point_equality(self):
        d = RationalDist([(4,)], [1])
        report = type_bound_check(RuzsaSpec(d, 5))
        assert report.holds
        assert report.details["lower_ratio"] == "1"
        assert report.details["upper_ratio"] == "1"

    def test_thirds_k3_exact(self):
        report = type_bound_check(RuzsaSpec(THIRDS, 3))
        assert report.holds
        # oracle: T = 3^1 * (3/2)^2 = 27/4; 3 <= 27/4 <= 4*3
        assert report.details["type_mass_inverse"] == "27/4"

    def test_random_specs_sandwich_exactly(self):
        rng = random.Random(31)
        for _ in range(80):
            d = random_dist(rng)
            k = minimal_suitable_k(d) * rng.randint(1, 4)
            report = type_bound_check(RuzsaSpec(d, k))
            assert report.holds
            assert report.details["lower_ok"] and report.details["upper_ok"]


class TestConvergence:
    def test_halves_small_k(self):
        rows = convergence_profile(HALVES, [2])
        assert rows[0]["rate"] == pytest.approx(0.5, abs=1e-12)
        assert rows[0]["gap"] == pytest.approx(0.5, abs=1e-12)
        assert rows[0]["envelope"] == pytest.approx(math.log2(3) / 2, abs=1e-12)

    def test_halves_k64(self):
        rows = convergence_profile(HALVES, [64])
        assert rows[0]["gap"] <= math.log2(65) / 64
        assert rows[0]["gap"] == pytest.approx(
            1 - math.log2(math.comb(64, 32)) / 64, abs=1e-12
        )

    def test_single_point_gap_is_zero(self):
        d = RationalDist([(0,)], [1])
        for row in convergence_profile(d, [1, 4, 9]):
            assert row["gap"] == 0.0

    def test_gap_within_envelope(self):
        rng = random.Random(37)
        for _ in range(40):
            d = random_dist(rng)
            k_min = minimal_suitable_k(d)
            ks = [k_min * m for m in (1, 2, 5)]
            for row in convergence_profile(d, ks):
                assert -1e-12 <= row["gap"] <= row["envelope"] + 1e-9


def fresh_sizes(dist, ks):
    """Reference for `ruzsa._sizes`: one multinomial of the counts per k."""
    d = dist.denominator
    return {k: ruzsa._multinomial([c * (k // d) for c in dist.counts]) for k in ks}


def random_outcomes_dist(rng, max_count=9):
    """2 to 7 outcomes with counts up to max_count."""
    counts = [rng.randint(1, max_count) for _ in range(rng.randint(2, 7))]
    total = sum(counts)
    return RationalDist([(i,) for i in range(len(counts))], [Fraction(c, total) for c in counts])


class TestSizes:
    """`_sizes` steps between nearby ks; every size equals a fresh multinomial."""

    def test_matches_fresh_multinomials(self):
        rng = random.Random(59)
        for _ in range(30):
            d = random_outcomes_dist(rng)
            k_min = minimal_suitable_k(d)
            ks = [k_min * m for m in rng.sample(range(1, 200), 40)]
            ks += rng.sample(ks, 10)  # unsorted, with duplicates
            assert ruzsa._sizes(d, ks) == fresh_sizes(d, ks)

    @pytest.mark.parametrize(
        "multiples",
        [[1], [57], [8, 9], [7, 8], [16, 18], [16, 19], [1, 2, 3, 100, 101, 113, 114, 400]],
        ids=["single-min", "single", "step-edge", "direct-edge", "step", "direct",
             "mixed"],
    )
    def test_gaps_on_both_sides_of_the_step_rule(self, multiples):
        d = SIXTHS
        ks = [6 * m for m in multiples]
        assert ruzsa._sizes(d, ks) == fresh_sizes(d, ks)

    def test_step_rule_picks_the_path(self, monkeypatch):
        calls = []
        multinomial = ruzsa._multinomial

        def counting(counts):
            calls.append(sum(counts))
            return multinomial(counts)

        monkeypatch.setattr(ruzsa, "_multinomial", counting)
        ruzsa._sizes(SIXTHS, [6 * m for m in (16, 18, 7, 8, 9)])
        # k = 6m: m = 8 follows 7 by more than an eighth of 7; 9 and 18 step
        assert calls == [42, 48, 96]

    def test_two_outcomes_up_to_k_20000(self):
        d = RationalDist([(0,), (1,)], ["3/7", "4/7"])
        rng = random.Random(43)
        ks = sorted(rng.sample(range(7, 20_001, 7), 150)) + list(range(19_600, 20_001, 7))
        assert ruzsa._sizes(d, ks) == fresh_sizes(d, ks)

    def test_single_point_distribution(self):
        d = RationalDist([(0,)], [1])
        assert ruzsa._sizes(d, [1, 2, 3, 50, 51]) == dict.fromkeys([1, 2, 3, 50, 51], 1)

    @pytest.mark.parametrize("base", [2, math.e], ids=["base2", "base_e"])
    def test_convergence_rows_match_fresh_sizes(self, monkeypatch, base):
        rng = random.Random(47)
        cases = []
        for _ in range(20):
            d = random_outcomes_dist(rng)
            k_min = minimal_suitable_k(d)
            ks = [k_min * m for m in rng.choices(range(1, 150), k=50)]
            cases.append((d, ks, convergence_profile(d, ks, base=base)))
        monkeypatch.setattr(ruzsa, "_sizes", fresh_sizes)
        for d, ks, rows in cases:
            assert [row["k"] for row in rows] == ks
            assert rows == convergence_profile(d, ks, base=base)

    def test_bad_last_k_raises_before_any_size(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a size was computed")

        monkeypatch.setattr(ruzsa, "_sizes", refuse)
        monkeypatch.setattr(ruzsa, "_multinomial", refuse)
        with pytest.raises(SuitabilityError) as want:
            RuzsaSpec(SIXTHS, 7)
        with pytest.raises(SuitabilityError) as got:
            convergence_profile(SIXTHS, [6, 6 * 10**9, 7])
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("base", [2, math.e], ids=["base2", "base_e"])
    def test_lemma1_rows_match_fresh_sizes(self, monkeypatch, base):
        rng = random.Random(53)
        cases = []
        for _ in range(12):
            X = random_outcomes_dist(rng, max_count=5)
            rhs_maps = [random_map(rng, X.support) for _ in range(rng.randint(1, 3))]
            coefficients = [Fraction(rng.randint(1, 4), 2) for _ in rhs_maps]
            spec = InequalitySpec(random_map(rng, X.support), rhs_maps, coefficients)
            k_max = minimal_suitable_k(X) * 30
            cases.append((spec, X, k_max, empirical_lemma1(spec, X, k_max, base=base)))
        monkeypatch.setattr(checkers, "_sizes", fresh_sizes)
        for spec, X, k_max, report in cases:
            assert len(report.details["rows"]) == 30
            assert report == empirical_lemma1(spec, X, k_max, base=base)
