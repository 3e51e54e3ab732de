"""Projections, slices, conditional average sizes, conditional entropies."""

import math
import random
from fractions import Fraction

import pytest

from entroset import (
    EmptySliceError,
    FiniteMap,
    IndexRangeError,
    IndexSet,
    PointSet,
    RationalDist,
    SchemaError,
    conditional_avg_size,
    conditional_entropy,
    conditional_slice,
    entropy,
    project_rv,
    project_set,
    pushforward,
    s_star,
    slice_weights,
)
from entroset.projections import (
    EMPTY_INDEX_SET,
    _conditional_term,
    _prefix_terms,
    _restrictor,
    log_conditional_avg_size,
)

from genutil import random_dist_on, random_pointset

TRIANGLE = PointSet(2, [(0, 0), (0, 1), (1, 0)])


class TestIndexSet:
    def test_sorted_and_unique(self):
        assert IndexSet([3, 1]).indices == (1, 3)
        with pytest.raises(SchemaError):
            IndexSet([1, 1])
        with pytest.raises(SchemaError):
            IndexSet([0, 2])

    @pytest.mark.parametrize(
        "bad", [1.9, 2.0, "3", True, False, None, (1,)], ids=repr
    )
    def test_rejects_non_integer_index(self, bad):
        with pytest.raises(SchemaError) as info:
            IndexSet([1, bad])
        assert str(info.value) == f"index must be an integer: {bad!r}"

    def test_accepts_every_int(self):
        assert IndexSet(range(3, 0, -1)).indices == (1, 2, 3)
        assert IndexSet([2**70]).indices == (2**70,)

    def test_s_star(self):
        assert s_star(IndexSet([3, 5])).indices == (1, 2)
        assert s_star(IndexSet([1, 4])).indices == ()
        assert s_star(IndexSet([2])).indices == (1,)


@pytest.mark.parametrize(
    "indices",
    [[1], [3], [6], [2, 3, 4], [1, 2], [5, 6], [1, 3], [2, 4, 5], [1, 6], [1, 2, 3, 4, 5, 6]],
    ids=repr,
)
def test_restrictor_gives_the_tuple_of_the_coordinates(indices):
    S = IndexSet(indices)
    for x in [(0, 1, 2, 3, 4, 5), (7, -1, 7, 0, 9, 9), tuple(range(10, 16))]:
        got = _restrictor(S)(x)
        assert type(got) is tuple
        assert got == tuple(x[i - 1] for i in S)


HALF_SQUARE = RationalDist.uniform([(0, 0), (0, 1), (1, 0), (1, 1)])


@pytest.mark.parametrize(
    "name, call",
    [
        pytest.param("project_set", lambda S: project_set(TRIANGLE, S), id="project_set"),
        pytest.param("project_rv", lambda S: project_rv(HALF_SQUARE, S), id="project_rv"),
        pytest.param("conditional_slice", lambda S: conditional_slice(TRIANGLE, S, (0,)),
                     id="conditional_slice"),
        pytest.param("slice_weights", lambda S: slice_weights(TRIANGLE, S),
                     id="slice_weights"),
        pytest.param("conditional_avg_size",
                     lambda S: conditional_avg_size(TRIANGLE, S, IndexSet([1])),
                     id="conditional_avg_size-T"),
        pytest.param("conditional_avg_size",
                     lambda S: conditional_avg_size(TRIANGLE, IndexSet([1]), S),
                     id="conditional_avg_size-S"),
        pytest.param("log_conditional_avg_size",
                     lambda S: log_conditional_avg_size(TRIANGLE, IndexSet([1]), S),
                     id="log_conditional_avg_size-S"),
        pytest.param("conditional_entropy", lambda S: conditional_entropy(HALF_SQUARE, S),
                     id="conditional_entropy-S"),
        pytest.param("conditional_entropy",
                     lambda S: conditional_entropy(HALF_SQUARE, IndexSet([1]), S),
                     id="conditional_entropy-C"),
        pytest.param("s_star", lambda S: s_star(S), id="s_star"),
    ],
)
@pytest.mark.parametrize("bad", [[1], 5], ids=repr)
def test_index_argument_must_be_an_index_set(name, call, bad):
    """The type error names the public function that was called."""
    with pytest.raises(SchemaError) as info:
        call(bad)
    assert str(info.value) == f"{name} needs an IndexSet: {bad!r}"


def test_slice_weights_checks_the_index_range():
    with pytest.raises(IndexRangeError) as info:
        slice_weights(TRIANGLE, IndexSet([5]))
    assert str(info.value) == "index set (5,) exceeds dimension 2"


class TestProjectSet:
    def test_first_coordinate(self):
        assert project_set(TRIANGLE, IndexSet([1])).points == {(0,), (1,)}

    def test_full_projection_is_identity(self):
        assert project_set(TRIANGLE, IndexSet([1, 2])).points == TRIANGLE.points

    def test_singleton(self):
        single = PointSet(3, [(1, 2, 3)])
        for S in ([1], [2, 3], [1, 2, 3]):
            assert len(project_set(single, IndexSet(S))) == 1

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            project_set(TRIANGLE, IndexSet([3]))

    def test_out_of_range_index_is_a_schema_error(self):
        with pytest.raises(SchemaError, match=r"^index set \(3,\) exceeds dimension 2$"):
            project_set(TRIANGLE, IndexSet([3]))


class TestProjectRV:
    def test_symmetric_diagonal(self):
        X = RationalDist.uniform([(0, 0), (1, 1)])
        out = project_rv(X, IndexSet([1]))
        assert out.as_mapping() == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}

    def test_full_index_set_is_identity(self):
        X = RationalDist.uniform([(0, 0), (0, 1), (1, 0)])
        out = project_rv(X, IndexSet([1, 2]))
        assert out.as_mapping() == X.as_mapping()

    def test_exact_marginal(self):
        X = RationalDist.uniform([(0, 0), (0, 1), (1, 0)])
        out = project_rv(X, IndexSet([1]))
        assert out.as_mapping() == {(0,): Fraction(2, 3), (1,): Fraction(1, 3)}

    def test_matches_pushforward_of_projection_map(self):
        # same support order (first image) and the same exact masses
        rng = random.Random(61)
        for _ in range(40):
            A = random_pointset(rng, 3, span=3, max_size=27)
            support = A.sorted_points()
            rng.shuffle(support)
            X = random_dist_on(rng, support)
            for S in ([1], [3], [1, 3], [2, 3], [1, 2, 3]):
                S = IndexSet(S)
                proj = FiniteMap({x: _restrict(x, S) for x in X.support})
                want = pushforward(proj, X)
                got = project_rv(X, S)
                assert got.support == want.support
                assert got.probs == want.probs


class TestConditionalSlice:
    def test_filter(self):
        got = conditional_slice(TRIANGLE, IndexSet([1]), (0,))
        assert got.points == {(0, 0), (0, 1)}

    def test_full_conditioning_gives_singleton(self):
        got = conditional_slice(TRIANGLE, IndexSet([1, 2]), (1, 0))
        assert got.points == {(1, 0)}

    def test_product_structure(self):
        A = PointSet(2, [(a, b) for a in (0, 1) for b in (5, 6, 7)])
        got = conditional_slice(A, IndexSet([1]), (1,))
        assert got.points == {(1, 5), (1, 6), (1, 7)}

    def test_unattained_value(self):
        with pytest.raises(EmptySliceError):
            conditional_slice(TRIANGLE, IndexSet([1]), (9,))


class TestConditionalAvgSize:
    def test_weighted_geometric_mean(self):
        got = conditional_avg_size(TRIANGLE, IndexSet([2]), IndexSet([1]))
        assert got == pytest.approx(2 ** Fraction(2, 3), rel=1e-12)

    def test_empty_conditioning_is_plain_size(self):
        got = conditional_avg_size(TRIANGLE, IndexSet([2]), IndexSet([]))
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_product_set_factors(self):
        A = PointSet(2, [(a, b) for a in (0, 1) for b in (5, 6, 7)])
        got = conditional_avg_size(A, IndexSet([2]), IndexSet([1]))
        assert got == pytest.approx(3.0, rel=1e-12)

    def test_product_set_disjoint_condition_exact(self):
        rng = random.Random(41)
        for _ in range(20):
            b1 = rng.randint(1, 3)
            b2 = rng.randint(1, 3)
            b3 = rng.randint(1, 3)
            A = PointSet(
                3,
                [(a, b, c) for a in range(b1) for b in range(b2) for c in range(b3)],
            )
            got = conditional_avg_size(A, IndexSet([3]), IndexSet([1, 2]))
            assert got == pytest.approx(b3, rel=1e-12)

    def test_relabeling_invariance(self):
        rng = random.Random(43)
        for _ in range(30):
            A = random_pointset(rng, 3, span=3, max_size=20)
            relabeled = PointSet(
                3, [tuple(7 - c for c in p) for p in A]
            )
            for T, S in (([1, 2], [3]), ([2], [1]), ([1, 2, 3], [2])):
                a = conditional_avg_size(A, IndexSet(T), IndexSet(S))
                b = conditional_avg_size(relabeled, IndexSet(T), IndexSet(S))
                assert a == pytest.approx(b, rel=1e-12)

    def test_slice_weights_are_exact_masses(self):
        weights = slice_weights(TRIANGLE, IndexSet([1]))
        assert weights == {(0,): Fraction(2, 3), (1,): Fraction(1, 3)}


def _restrict(x, S):
    return tuple(x[i - 1] for i in S)


def _rescan_log_cond_size(A, T, S, base):
    """The defining sum, evaluated by rescanning A once per slice key."""
    log = math.log2 if base == 2 else math.log
    if not S:
        return log(len({_restrict(x, T) for x in A}))
    acc = 0.0
    for y in sorted({_restrict(x, S) for x in A}):
        members = [x for x in A if _restrict(x, S) == y]
        weight = Fraction(len(members), len(A))
        acc += float(weight) * log(len({_restrict(x, T) for x in members}))
    return acc


class TestGroupedConditionalSize:
    """The one-pass grouping gives bit-identical results to the rescan."""

    @pytest.mark.parametrize("base", [2, math.e])
    def test_random_targets_and_conditions(self, base):
        rng = random.Random(67)
        for _ in range(60):
            n = rng.randint(1, 4)
            A = random_pointset(rng, n, span=3, max_size=60)
            T = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
            S = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
            got = log_conditional_avg_size(A, IndexSet(T), IndexSet(S), base=base)
            assert got == _rescan_log_cond_size(A, T, S, base)

    @pytest.mark.parametrize("base", [2, math.e])
    def test_empty_condition(self, base):
        rng = random.Random(71)
        for _ in range(20):
            A = random_pointset(rng, 3, span=4, max_size=60)
            for T in ([1], [2, 3], [1, 2, 3]):
                got = log_conditional_avg_size(A, IndexSet(T), IndexSet([]), base=base)
                assert got == _rescan_log_cond_size(A, T, [], base)

    @pytest.mark.parametrize("base", [2, math.e])
    def test_deep_prefix(self, base):
        rng = random.Random(73)
        for _ in range(20):
            n = rng.randint(2, 5)
            A = random_pointset(rng, n, span=3, max_size=120)
            T, S = [n], list(range(1, n))
            got = log_conditional_avg_size(A, IndexSet(T), IndexSet(S), base=base)
            assert got == _rescan_log_cond_size(A, T, S, base)

    @pytest.mark.parametrize("base", [2, math.e])
    def test_overlapping_target_and_condition(self, base):
        rng = random.Random(79)
        for _ in range(20):
            A = random_pointset(rng, 4, span=3, max_size=80)
            for T, S in (([1, 2], [2, 3]), ([2, 3, 4], [1, 2, 3]), ([3], [3])):
                got = log_conditional_avg_size(A, IndexSet(T), IndexSet(S), base=base)
                assert got == _rescan_log_cond_size(A, T, S, base)

    @pytest.mark.parametrize("base", [2, math.e])
    def test_prefix_terms_equal_each_term_alone(self, base):
        # merged runs of the deepest prefix's slices: each term, of points and
        # of a law on them, equals the `_conditional_term` built with its
        # prefix's own restrictor, log and exact form alike
        rng, more = random.Random(83), random.Random(89)
        shapes = set()
        for _ in range(40):
            n = rng.randint(2, 6)
            A = random_pointset(rng, n, span=3, max_size=120)
            depths = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
            X = random_dist_on(more, A.sorted_points(), max_denominator=3 * len(A))
            # every depth, one of them repeated, and depth 0 (no condition)
            depths = [0, *depths, more.choice(depths)]
            more.shuffle(depths)
            terms = [(_restrictor(IndexSet(more.sample(range(1, n + 1), more.randint(1, n)))), k)
                     for k in depths]
            for data in (A, X):
                got = _prefix_terms(data, terms, base)
                want = [_conditional_term(data, f, _restrictor(IndexSet(range(1, k + 1))), base)
                        for f, k in terms]
                assert [log for log, _ in got] == [log for log, _ in want]
                assert ([form if isinstance(form, int) else form() for _, form in got]
                        == [form if isinstance(form, int) else form() for _, form in want])
            shapes.add(len(set(depths)) - 1)
        assert max(shapes) >= 4 and min(shapes) == 1  # nested chains, and a single prefix


class TestConditionalEntropy:
    def test_independent_uniform_coordinates(self):
        A = [(a, b) for a in (0, 1) for b in (0, 1)]
        X = RationalDist.uniform(A)
        got = conditional_entropy(X, IndexSet([2]), IndexSet([1]))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_determined_coordinate_is_zero(self):
        X = RationalDist.uniform([(0, 0), (1, 1)])
        got = conditional_entropy(X, IndexSet([2]), IndexSet([1]))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_triangle_chain_term(self):
        X = RationalDist.uniform([(0, 0), (0, 1), (1, 0)])
        got = conditional_entropy(X, IndexSet([2]), IndexSet([1]))
        assert got == pytest.approx(2 / 3, abs=1e-12)

    def test_chain_rule_is_exact(self):
        rng = random.Random(47)
        for _ in range(40):
            A = random_pointset(rng, 3, span=3, max_size=27)
            X = random_dist_on(rng, A.sorted_points())
            total = sum(
                conditional_entropy(
                    X, IndexSet([i]), IndexSet(range(1, i))
                )
                for i in range(1, 4)
            )
            assert total == pytest.approx(entropy(X), abs=1e-9)

    def test_uniform_projection_bound(self):
        rng = random.Random(53)
        for _ in range(40):
            A = random_pointset(rng, 2, span=4, max_size=16)
            X = RationalDist.uniform(A.sorted_points())
            for S in ([1], [2], [1, 2]):
                hs = entropy(project_rv(X, IndexSet(S)))
                size = len(project_set(A, IndexSet(S)))
                assert hs <= math.log2(size) + 1e-9

    def test_conditioned_size_entropy_bridge(self):
        # for X uniform on A: H(X_T | X_S) <= log |A_T cond A_S|, slice by
        # slice via the uniform bound, then averaged with the same weights
        rng = random.Random(59)
        for _ in range(40):
            A = random_pointset(rng, 3, span=3, max_size=24)
            X = RationalDist.uniform(A.sorted_points())
            for T, S in (([2], [1]), ([2, 3], [1]), ([3], [1, 2])):
                lhs = conditional_entropy(X, IndexSet(T), IndexSet(S))
                rhs = math.log2(conditional_avg_size(A, IndexSet(T), IndexSet(S)))
                assert lhs <= rhs + 1e-9


class TestTerms:
    """The public quantities are the logs of the terms the checkers compare."""

    @staticmethod
    def draw(rng):
        n = rng.randint(1, 4)
        A = random_pointset(rng, n, span=3, max_size=60)
        T = IndexSet(rng.sample(range(1, n + 1), rng.randint(1, n)))
        C = IndexSet(rng.sample(range(1, n + 1), rng.randint(1, n)))
        return A, T, C

    @pytest.mark.parametrize("base", [2, math.e])
    def test_public_functions_read_the_term_log(self, base):
        rng = random.Random(83)
        for _ in range(60):
            A, T, C = self.draw(rng)
            X = random_dist_on(rng, A.sorted_points())
            for given in (EMPTY_INDEX_SET, C):
                f, g = _restrictor(T), _restrictor(given)
                sets, entropy_log = (_conditional_term(data, f, g, base)[0] for data in (A, X))
                assert log_conditional_avg_size(A, T, given, base=base) == sets
                assert sets == _rescan_log_cond_size(A, T.indices, given.indices, base)
                assert conditional_entropy(X, T, given, base=base) == entropy_log
                if base == 2:
                    assert conditional_avg_size(A, T, given) == 2.0**sets

    def test_entropy_term_is_the_difference_of_marginals(self):
        rng = random.Random(89)
        for _ in range(60):
            A, T, C = self.draw(rng)
            X = random_dist_on(rng, A.sorted_points())
            joint, given = (entropy(project_rv(X, S)) for S in (IndexSet({*T, *C}), C))
            assert _conditional_term(X, _restrictor(T), _restrictor(C), 2)[0] == joint - given
            assert _conditional_term(X, _restrictor(T), None, 2)[0] == entropy(project_rv(X, T))

    @pytest.mark.parametrize("base", [2, math.e])
    def test_table_and_restrictor_give_one_term(self, base):
        """A coordinate projection given as a FiniteMap table and as a `_restrictor`
        gives one term, conditioned and not: equal logs and exact forms, and the
        logs of the defining rescan and of the difference of marginals."""
        rng = random.Random(101)
        for _ in range(60):
            A, T, C = self.draw(rng)
            X = random_dist_on(rng, A.sorted_points())

            def table(S):
                return FiniteMap({x: _restrict(x, S) for x in A}).table.__getitem__ if S else None

            for given in (EMPTY_INDEX_SET, C):
                for data in (A, X):
                    terms = [_conditional_term(data, f(T), f(given), base)
                             for f in (table, _restrictor)]
                    logs, forms = zip(*((log, form if isinstance(form, int) else form())
                                        for log, form in terms))
                    assert logs[0] == logs[1] and forms[0] == forms[1]
                sets, entropy_log = (_conditional_term(data, table(T), table(given), base)[0]
                                     for data in (A, X))
                assert sets == _rescan_log_cond_size(A, T.indices, given.indices, base)
                marginals = [entropy(project_rv(X, S), base) if S else 0.0
                             for S in (IndexSet({*T, *given}), given)]
                assert entropy_log == marginals[0] - marginals[1]

    def test_set_form_is_the_slice_census(self):
        # |A_T cond A_C|^|A| = prod s^e: e points of A lie in slices of T-size s
        rng = random.Random(97)
        for _ in range(60):
            A, T, C = self.draw(rng)
            census: dict[int, int] = {}
            for y in {_restrict(x, C.indices) for x in A}:
                members = [x for x in A if _restrict(x, C.indices) == y]
                size = len({_restrict(x, T.indices) for x in members})
                census[size] = census.get(size, 0) + len(members)
            assert _conditional_term(A, _restrictor(T), _restrictor(C), 2)[1]() == (len(A), census)
