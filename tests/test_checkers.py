"""Both sides of the cardinality/entropy inequalities, and the bridges."""

import decimal
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroset import checkers, cli, dist, jsonio, projections
from entroset import (
    CoverError,
    CoverSpec,
    DomainError,
    FiniteMap,
    IndexSet,
    InequalitySpec,
    NegativeCoefficientError,
    PointSet,
    RationalDist,
    RuzsaSpec,
    SizeGuardError,
    check_cardinality,
    check_entropy,
    check_projection_theorem,
    check_shearer,
    empirical_lemma1,
    entropy,
    lemma2_witness,
    project_rv,
    pushforward,
    ruzsa_size,
)

from genutil import (
    chain_cover,
    random_dist_on,
    random_fractional_cover,
    random_map,
    random_pointset,
    random_uniform_k_cover,
)

GRID2 = [(a, b) for a in range(2) for b in range(2)]
TRIANGLE = PointSet(2, [(0, 0), (0, 1), (1, 0)])


def projection_map(grid, indices):
    return FiniteMap({x: tuple(x[i - 1] for i in indices) for x in grid})


def projection_spec(grid, index_sets, coefficients):
    return InequalitySpec(
        lhs_map=FiniteMap.identity(grid),
        rhs_maps=[projection_map(grid, s) for s in index_sets],
        coefficients=coefficients,
    )


GRID3 = [(a, b) for a in range(3) for b in range(3)]


def spec_doc(grid, index_sets):
    """The JSON document of the projection spec: raw tables over one key order."""
    def table(indices):
        return [[list(x), [x[i - 1] for i in indices]] for x in grid]
    return {"lhs_map": {"table": table([1, 2])},
            "rhs_maps": [{"table": table(s)} for s in index_sets],
            "coefficients": ["1"] * len(index_sets)}


def count_column_checks(monkeypatch) -> list:
    """A list that gets one entry per bulk check of a column of elements."""
    calls = []
    real = dist._int_tuples
    monkeypatch.setattr(dist, "_int_tuples",
                        lambda values, data=None: calls.append(1) or real(values, data))
    return calls


class TestInequalitySpec:
    def test_maps_kept_as_given(self):
        f = FiniteMap.identity(GRID2)
        g = projection_map(GRID2, [1])
        spec = InequalitySpec(f, [g], [1])
        assert spec.lhs_map is f and spec.rhs_maps[0] is g

    def test_raw_tables_become_maps(self):
        table = {x: x for x in GRID2}
        spec = InequalitySpec(table, [list(table.items())], [1])
        assert spec.lhs_map == spec.rhs_maps[0] == FiniteMap.identity(GRID2)
        assert isinstance(spec.rhs_maps, tuple)


class TestSpecDomain:
    """A spec compares its maps' key sets only when their tables list keys in another order."""

    def test_same_order_tables_never_read_the_domain(self, monkeypatch):
        spec = projection_spec(GRID2, [[1], [2]], [1, 1])
        assert check_cardinality(spec, TRIANGLE).holds
        table = [[list(x), list(x)] for x in GRID2]
        doc = {"lhs_map": {"table": table}, "rhs_maps": [{"table": table}],
               "coefficients": ["1"]}
        calls = count_column_checks(monkeypatch)
        assert jsonio.ineq_spec_from_json(doc).coefficients == (1,)
        assert calls == [1]  # the one column of both identity tables

    def test_api_tables_check_each_column_once(self, monkeypatch):
        doc = spec_doc(GRID3, [[1], [2]])
        lhs, rhs = doc["lhs_map"]["table"], [m["table"] for m in doc["rhs_maps"]]
        calls = count_column_checks(monkeypatch)
        spec = InequalitySpec(lhs, rhs, [1, 1])
        assert calls == [1] * 3  # the keys, the first and the second coordinates
        assert spec == jsonio.ineq_spec_from_json(doc)
        assert calls == [1] * 6

    def test_api_table_in_another_key_order(self):
        doc = spec_doc(GRID3, [[1]])
        lhs, reordered = doc["lhs_map"]["table"], doc["rhs_maps"][0]["table"][::-1]
        spec = InequalitySpec(lhs, [reordered], [1])
        assert spec.rhs_maps[0].table == {x: x[:1] for x in GRID3}
        for table in (reordered[1:], [[[5, 5], [5]], *reordered[1:]]):
            with pytest.raises(DomainError, match="^all maps must share one declared domain$"):
                InequalitySpec(lhs, [table], [1])

    def test_reordered_keys_of_one_domain_are_accepted(self):
        ident = FiniteMap.identity(GRID2)
        reordered = FiniteMap({x: x[:1] for x in reversed(GRID2)})
        assert InequalitySpec(ident, [reordered], [1]).rhs_maps == (reordered,)

    def test_reordered_keys_of_another_domain_raise(self):
        ident = FiniteMap.identity(GRID2)
        for keys in (GRID2[:0:-1], [*GRID2[:0:-1], (2, 2)]):
            with pytest.raises(DomainError, match="^all maps must share one declared domain$"):
                InequalitySpec(ident, [FiniteMap({x: x for x in keys})], [1])


class TestCheckCardinality:
    def test_identity_equality(self):
        domain = [(i,) for i in range(4)]
        ident = FiniteMap.identity(domain)
        report = check_cardinality(
            InequalitySpec(ident, [ident], [1]), domain
        )
        assert report.holds
        assert report.slack == pytest.approx(0.0, abs=1e-12)

    def test_two_dim_projection_bound(self):
        spec = projection_spec(GRID2, [[1], [2]], [1, 1])
        report = check_cardinality(spec, TRIANGLE)
        assert report.holds
        assert report.details["lhs_count"] == "3"
        assert report.details["rhs_counts"] == ["2", "2"]

    def test_product_set_equality(self):
        spec = projection_spec(GRID2, [[1], [2]], [1, 1])
        report = check_cardinality(spec, PointSet(2, GRID2))
        assert report.holds
        assert report.slack == pytest.approx(0.0, abs=1e-12)
        assert report.provenance == "exact"

    def test_violation_detected(self):
        # an injective f against a single tiny projection
        spec = InequalitySpec(
            FiniteMap.identity(GRID2),
            [projection_map(GRID2, [1])],
            [1],
        )
        report = check_cardinality(spec, PointSet(2, GRID2))
        assert report.verdict == "violated"

    def test_negative_coefficients_rejected(self):
        spec = projection_spec(GRID2, [[1], [2]], [1, "-1/2"])
        with pytest.raises(NegativeCoefficientError):
            check_cardinality(spec, TRIANGLE)

    def test_coefficient_past_the_str_digit_limit(self):
        ident = FiniteMap.identity(GRID2)
        spec = InequalitySpec(ident, [ident], [Fraction(1, 10**5000)])
        report = check_cardinality(spec, TRIANGLE)
        assert report.verdict == "violated"
        assert report.details["coefficients"] == ["1/1" + "0" * 5000]

    def test_exact_fallback_settles_near_ties(self):
        # |f(A)| = 4 vs 2 * 2: float slack is ~0, exact comparison says holds
        spec = projection_spec(GRID2, [[1], [2]], [1, 1])
        report = check_cardinality(spec, PointSet(2, GRID2))
        assert report.provenance == "exact"
        assert report.holds

    def test_point_set_is_not_checked_again(self, monkeypatch):
        spec = projection_spec(GRID2, [[1], [2]], [1, 1])
        expected = check_cardinality(spec, TRIANGLE).to_json()
        calls = []
        real = dist._int_tuples
        monkeypatch.setattr(dist, "_int_tuples",
                            lambda values, data=None: calls.append(1) or real(values, data))
        assert check_cardinality(spec, TRIANGLE).to_json() == expected
        assert calls == []
        # a list of points is still checked once, where it enters
        points = list(TRIANGLE.points)
        assert check_cardinality(spec, points).to_json() == expected
        assert calls == [1]
        # and so by each named constructor, which builds what its general one would
        for build, general in (
                (PointSet.from_points, lambda: PointSet(2, points)),
                (RationalDist.uniform, lambda: RationalDist(sorted(points), ["1/3"] * 3)),
                (FiniteMap.identity, lambda: FiniteMap([(p, p) for p in points]))):
            calls.clear()
            value = build(points)
            assert calls == [1], build.__qualname__
            assert value == general()


class TestCheckEntropy:
    def test_identity_equality(self):
        domain = [(i,) for i in range(3)]
        ident = FiniteMap.identity(domain)
        X = RationalDist(domain, ["1/6", "1/3", "1/2"])
        report = check_entropy(InequalitySpec(ident, [ident], [1]), X)
        assert report.holds
        assert report.slack == pytest.approx(0.0, abs=1e-12)

    def test_subadditivity_on_pairs(self):
        spec = projection_spec(GRID2, [[1], [2]], [1, 1])
        rng = random.Random(5)
        for _ in range(40):
            X = random_dist_on(rng, GRID2)
            assert check_entropy(spec, X).holds

    def test_triangle_uniform_values(self):
        spec = projection_spec(GRID2, [[1], [2]], [1, 1])
        X = RationalDist.uniform(TRIANGLE.points)
        report = check_entropy(spec, X)
        assert report.lhs == pytest.approx(math.log2(3), abs=1e-12)
        assert report.rhs == pytest.approx(2 * (math.log2(3) - 2 / 3), abs=1e-12)
        assert report.holds

    def test_coefficient_past_the_str_digit_limit(self):
        ident = FiniteMap.identity(GRID2)
        spec = InequalitySpec(ident, [ident], [Fraction(-1, 10**5000)])
        report = check_entropy(spec, RationalDist.uniform(TRIANGLE.points))
        assert report.verdict == "violated"
        assert report.details["coefficients"] == ["-1/1" + "0" * 5000]

    def test_negative_coefficients_evaluated(self):
        spec = projection_spec(GRID2, [[1], [2]], [1, -1])
        X = RationalDist.uniform(GRID2)
        report = check_entropy(spec, X)
        assert report.rhs == pytest.approx(0.0, abs=1e-12)
        assert report.verdict == "violated"


class TestLemma2Witness:
    def test_injective_map_gives_uniform_on_a(self):
        A = [(0,), (2,), (5,)]
        f = FiniteMap({(0,): (1,), (2,): (3,), (5,): (6,)})
        witness = lemma2_witness(A, f)
        assert witness.support == ((0,), (2,), (5,))
        assert set(witness.probs) == {Fraction(1, 3)}

    def test_constant_map_gives_point_mass(self):
        A = [(0,), (1,), (2,)]
        f = FiniteMap({x: (9,) for x in A})
        witness = lemma2_witness(A, f)
        assert len(witness) == 1
        assert entropy(witness) == 0.0

    def test_merge_map_picks_minima(self):
        f = FiniteMap({(0,): (8,), (1,): (8,), (2,): (9,)})
        witness = lemma2_witness([(0,), (1,), (2,)], f)
        assert witness.support == ((0,), (2,))
        assert entropy(pushforward(f, witness)) == pytest.approx(1.0, abs=1e-12)

    def test_image_entropy_equals_log_image_size(self):
        rng = random.Random(7)
        for _ in range(60):
            size = rng.randint(1, 12)
            A = [(i,) for i in rng.sample(range(20), size)]
            f = random_map(rng, A)
            witness = lemma2_witness(A, f)
            image_size = len(f.image(A))
            got = entropy(pushforward(f, witness))
            assert got == pytest.approx(math.log2(image_size), abs=1e-12)

    def test_bridge_soundness(self):
        # if the entropy inequality holds for every distribution on A, then
        # the witness instance alone already forces the counting inequality
        rng = random.Random(11)
        grid = [(a, b) for a in range(3) for b in range(3)]
        spec = projection_spec(grid, [[1], [2]], ["1/2", "3/4"])
        for _ in range(40):
            A = random_pointset(rng, 2, span=3, max_size=9)
            witness = lemma2_witness(A.points, spec.lhs_map)
            entropy_report = check_entropy(spec, witness)
            counting_report = check_cardinality(spec, A)
            if entropy_report.holds:
                lhs = math.log2(int(counting_report.details["lhs_count"]))
                assert lhs <= entropy_report.rhs + 1e-9 or counting_report.holds


class TestEmpiricalLemma1:
    def test_product_set_holds_with_equal_entropy_sides(self):
        # counting sides differ at finite k (24 vs 36 at k=4); independence
        # makes the entropy sides equal and the per-k checks all pass
        spec = projection_spec(GRID2, [[1], [2]], [1, 1])
        X = RationalDist.uniform(GRID2)
        report = empirical_lemma1(spec, X, k_max=12)
        assert report.holds
        assert report.lhs == pytest.approx(report.rhs, abs=1e-12)
        for row in report.details["rows"]:
            assert row["lhs_rate"] <= row["rhs_rate"] + 1e-9

    def test_identity_equality(self):
        domain = [(i,) for i in range(3)]
        ident = FiniteMap.identity(domain)
        X = RationalDist(domain, ["1/6", "1/3", "1/2"])
        report = empirical_lemma1(InequalitySpec(ident, [ident], [1]), X, k_max=18)
        assert report.holds
        for row in report.details["rows"]:
            assert row["lhs_rate"] == pytest.approx(row["rhs_rate"], abs=1e-12)

    def test_rates_approach_entropy_inside_envelope(self):
        spec = projection_spec(GRID2, [[1], [2]], [1, 1])
        X = RationalDist.uniform(TRIANGLE.points)
        report = empirical_lemma1(spec, X, k_max=12)
        assert report.holds
        h_lhs = report.lhs
        for row in report.details["rows"]:
            k = row["k"]
            envelope = (len(X) - 1) * math.log2(k + 1) / k
            assert abs(row["lhs_rate"] - h_lhs) <= envelope + 1e-9

    def test_cross_validation_agrees(self):
        spec = projection_spec(GRID2, [[1], [2]], [1, 1])
        X = RationalDist.uniform(TRIANGLE.points)
        report = empirical_lemma1(spec, X, k_max=9, cross_validate=True)
        assert report.holds

    def test_cross_validation_mismatch_is_violated(self, monkeypatch):
        mapped_arrangements = checkers._mapped_arrangements

        def dropping(*args):
            mapped = set(mapped_arrangements(*args))
            mapped.pop()
            return mapped

        monkeypatch.setattr(checkers, "_mapped_arrangements", dropping)
        spec = projection_spec(GRID2, [[1], [2]], [1, 1])
        X = RationalDist.uniform(TRIANGLE.points)
        report = empirical_lemma1(spec, X, k_max=6, cross_validate=True)
        assert report.verdict == "violated"
        assert report.exit_code() == 1
        rows = report.details["rows"]
        assert [row["k"] for row in rows] == [3, 6]
        for row in rows:
            assert row["verdict"] == "violated"
            assert int(row["enumerated_count"]) == int(row["lhs_count"]) - 1

    def test_verdicts_match_entropy_side(self):
        rng = random.Random(13)
        grid = [(a, b) for a in range(3) for b in range(3)]
        for _ in range(20):
            coeffs = [Fraction(rng.randint(0, 4), 4), Fraction(rng.randint(0, 4), 4)]
            spec = projection_spec(grid, [[1], [2]], coeffs)
            X = random_dist_on(rng, rng.sample(grid, rng.randint(2, 6)))
            counting = empirical_lemma1(spec, X, k_max=3 * minimal(X))
            entropy_side = check_entropy(spec, X)
            if abs(entropy_side.slack) > 0.05:
                # far from ties the asymptotic and finite-k verdicts agree
                # once k is large enough; only sanity-check the direction here
                if not entropy_side.holds:
                    continue
                assert counting.lhs <= counting.rhs + 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_demo_rows_are_decided_exactly(self, seed, capsys):
        # the demo's coefficients are 1/2 and its terms are counts, which `_compare` decides exactly
        assert cli.run(["--seed", str(seed), "demo"]) in (0, 1)
        finite_k = json.loads(capsys.readouterr().out)["finite_k"]
        assert finite_k["provenance"] == "exact"
        half = Fraction(1, 2)
        for row in finite_k["rows"]:
            lhs = [(1, projections._count(int(row["lhs_count"])))]
            rhs = [(half, projections._count(int(n))) for n in row["rhs_counts"]]
            assert row["verdict"] == checkers._exact_verdict(lhs, rhs)

    def test_rows_past_the_bit_limit_are_exact(self, monkeypatch):
        # no row is a near tie, so the certified float sign decides every one
        spec = projection_spec(GRID2, [[1], [2]], [1, 1])
        X = RationalDist.uniform(GRID2)
        assert empirical_lemma1(spec, X, k_max=8).provenance == "exact"
        monkeypatch.setattr(checkers, "_EXACT_BIT_LIMIT", 0)
        report = empirical_lemma1(spec, X, k_max=8)
        assert (report.verdict, report.provenance) == ("holds", "exact")


def mixed_lengths_map(grid, index):
    """The projection onto coordinate `index`, its values (a,) for even a and (a, a)
    for odd a: the same fibers as `projection_map(grid, [index])`, values of two lengths."""
    return FiniteMap({x: (x[index - 1],) * (1 + x[index - 1] % 2) for x in grid})


class TestMixedLengthMaps:
    """A spec whose map values differ in length is applied the same way on both sides."""

    GRID3 = [(a, b) for a in range(3) for b in range(3)]
    # the projection spec below, each map's values relabelled to values of two lengths
    MIXED = InequalitySpec(FiniteMap({x: x + x[:sum(x) % 2] for x in GRID3}),
                           [mixed_lengths_map(GRID3, 1), mixed_lengths_map(GRID3, 2)],
                           ["1/2", 1])
    PLAIN = projection_spec(GRID3, [[1], [2]], ["1/2", 1])

    def test_every_checker_reports_as_for_the_relabelled_spec(self):
        rng = random.Random(31)
        for _ in range(30):
            A = random_pointset(rng, 2, span=3, max_size=9)
            X, U = random_dist_on(rng, A.sorted_points()), RationalDist.uniform(A)
            for call in (lambda spec: check_cardinality(spec, A),
                         lambda spec: check_entropy(spec, X),
                         lambda spec: empirical_lemma1(spec, X, 2 * minimal(X)),
                         lambda spec: empirical_lemma1(spec, U, len(A), cross_validate=True)):
                assert call(self.MIXED) == call(self.PLAIN)

    def test_lemma2_witness_ties_the_set_side_exactly(self):
        rng = random.Random(37)
        f = self.MIXED.rhs_maps[0]
        spec = InequalitySpec(f, [f], [1])
        for _ in range(30):
            A = random_pointset(rng, 2, span=3, max_size=9)
            X = lemma2_witness(A.points, f)
            (law, _), (image, _) = (checkers._images(spec, data) for data in (X, A.points))
            assert {len(y) for y in image} == {len(y) for y in law.support}
            h, n = projections._term(law, 2), projections._term(image, 2)
            assert h[0] == pytest.approx(n[0], abs=1e-12)
            assert checkers._exact_verdict([(1, h)], [(1, n)]) == "holds"
            assert checkers._exact_verdict([(1, n)], [(1, h)]) == "holds"

    def test_domain_errors(self):
        A, X = [(0, 3)], RationalDist([(0, 3)], [1])
        with pytest.raises(DomainError, match="^point set is not contained in the maps' domain$"):
            check_cardinality(self.MIXED, A)
        for call in (check_entropy, lambda spec, X: empirical_lemma1(spec, X, 2)):
            with pytest.raises(DomainError,
                               match="^distribution support is not contained in the maps' domain$"):
                call(self.MIXED, X)
        with pytest.raises(DomainError, match="^point set is not contained in the map domain$"):
            lemma2_witness(A, self.MIXED.rhs_maps[0])


def minimal(X):
    from entroset import minimal_suitable_k

    return minimal_suitable_k(X)


class TestCheckShearer:
    ALL_PAIRS = CoverSpec(3, [[1, 2], [1, 3], [2, 3]])

    def test_sets_side_example(self):
        A = PointSet(3, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
        report = check_shearer(A, self.ALL_PAIRS, 2, "sets")
        assert report.holds
        assert report.details["lhs_count"] == "16"
        assert report.details["rhs_count"] == "64"

    def test_product_set_equality(self):
        A = PointSet(3, [(a, b, c) for a in range(2) for b in range(3) for c in range(2)])
        report = check_shearer(A, self.ALL_PAIRS, 2, "sets")
        assert report.holds
        assert int(report.details["lhs_count"]) == int(report.details["rhs_count"])

    def test_entropy_side_independent_equality(self):
        X = RationalDist.uniform(
            [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
        )
        report = check_shearer(X, self.ALL_PAIRS, 2, "entropy")
        assert report.holds
        assert report.slack == pytest.approx(0.0, abs=1e-9)

    def test_not_a_uniform_cover(self):
        cover = CoverSpec(3, [[1, 2], [1, 3]])
        with pytest.raises(CoverError):
            check_shearer(RationalDist.uniform([(0, 0, 0)]), cover, 2, "entropy")

    def test_k_past_the_digit_limit_is_cut(self):
        # no count is that large, so the cover is not uniform
        with pytest.raises(CoverError) as info:
            check_shearer(PointSet(1, [[0], [1]]), CoverSpec(1, [[1]]), 10**5000, "sets")
        assert str(info.value) == (
            f"not a uniform 1{'0' * 99}... (5001 characters)-cover: counts [1]")

    def test_matches_direct_han_evaluation(self):
        rng = random.Random(17)
        grid = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
        for _ in range(30):
            X = random_dist_on(rng, rng.sample(grid, rng.randint(2, 8)))
            report = check_shearer(X, self.ALL_PAIRS, 2, "entropy")
            # independent evaluation straight from the marginals
            rhs = sum(
                entropy(project_rv(X, IndexSet(s)))
                for s in ([1, 2], [1, 3], [2, 3])
            )
            assert report.rhs == pytest.approx(rhs, abs=1e-12)
            assert report.lhs == pytest.approx(2 * entropy(X), abs=1e-12)
            assert rhs - 2 * entropy(X) >= -1e-9

    def test_agrees_with_check_cardinality(self):
        rng = random.Random(19)
        grid = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
        spec = projection_spec(
            grid, [[1, 2], [1, 3], [2, 3]], ["1/2", "1/2", "1/2"]
        )
        for _ in range(30):
            A = random_pointset(rng, 3, span=2, max_size=8)
            via_shearer = check_shearer(A, self.ALL_PAIRS, 2, "sets")
            via_cardinality = check_cardinality(spec, A)
            assert via_shearer.verdict == via_cardinality.verdict
            assert via_shearer.slack == pytest.approx(
                2 * via_cardinality.slack, abs=1e-9
            )


class TestProjectionTheorem:
    def test_chain_cover_entropy_equality(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(2, 4)
            A = random_pointset(rng, n, span=3, max_size=20)
            X = random_dist_on(rng, A.sorted_points())
            report = check_projection_theorem(X, chain_cover(n), "entropy")
            assert report.holds
            assert report.slack == pytest.approx(0.0, abs=1e-9)
            assert report.provenance == "exact"

    def test_triangle_sets_example(self):
        cover = CoverSpec(2, [[1], [2]], [1, 1])
        report = check_projection_theorem(TRIANGLE, cover, "sets")
        assert report.holds
        assert report.lhs == pytest.approx(math.log2(3), abs=1e-12)
        assert report.rhs == pytest.approx(math.log2(2 * 2 ** (2 / 3)), abs=1e-12)

    def test_product_set_chain_equality(self):
        A = PointSet(2, [(a, b) for a in range(2) for b in range(3)])
        report = check_projection_theorem(A, chain_cover(2), "sets")
        assert report.holds
        assert report.slack == pytest.approx(0.0, abs=1e-9)

    def test_zero_weight_members_ignored(self):
        cover = CoverSpec(2, [[1], [2], [1, 2]], [1, 1, 0])
        report = check_projection_theorem(TRIANGLE, cover, "sets")
        assert len(report.details["members"]) == 2

    def test_requires_fractional_cover(self):
        cover = CoverSpec(2, [[1]], [1])
        with pytest.raises(CoverError):
            check_projection_theorem(TRIANGLE, cover, "sets")

    def test_random_instances_hold(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(2, 4)
            cover = random_fractional_cover(rng, n)
            A = random_pointset(rng, n, span=3, max_size=32)
            assert check_projection_theorem(A, cover, "sets").slack >= -1e-9
            X = random_dist_on(rng, A.sorted_points())
            assert check_projection_theorem(X, cover, "entropy").slack >= -1e-9

    def test_empty_prefixes_match_the_projection_spec_bit_for_bit(self):
        # every member contains 1, so every S* is empty: the theorem is then
        # the spec of the projection maps with the cover weights, on both sides
        rng = random.Random(41)
        fields = ("verdict", "provenance", "lhs", "rhs", "slack")
        provenances = set()
        for _ in range(120):
            n = rng.randint(2, 4)
            grid = list(itertools.product(range(3), repeat=n))
            members = [[1, *rng.sample(range(2, n + 1), rng.randint(0, n - 1))]
                       for _ in range(rng.randint(1, 4))]
            members += [[1, i] for i in range(2, n + 1) if not any(i in m for m in members)]
            weights = [Fraction(rng.randint(1, 6), 6) for _ in members]
            least = min(sum(w for m, w in zip(members, weights) if i in m)
                        for i in range(1, n + 1))
            weights = [w / min(least, 1) for w in weights]
            cover = CoverSpec(n, members, weights)
            spec = projection_spec(grid, members, weights)
            A = random_pointset(rng, n, span=3, max_size=20)
            X = random_dist_on(rng, A.sorted_points())
            for theorem, direct in (
                (check_projection_theorem(A, cover, "sets"), check_cardinality(spec, A)),
                (check_projection_theorem(X, cover, "entropy"), check_entropy(spec, X)),
            ):
                got, want = ([getattr(r, f) for f in fields] for r in (theorem, direct))
                assert got == want
                provenances.add(theorem.provenance)
        assert provenances == {"exact"}

    # the fractional cover of benches/bench_checkers.py: prefixes {}, {1}, {1, 2}
    FRACTIONAL = CoverSpec(4, [[1, 2], [2, 3], [3, 4], [1, 4], [1, 3], [2, 4]],
                           ["1/2", "1/2", "1/2", "1/2", "1/3", "1/3"])

    @staticmethod
    def alone(A, cover):
        """The set side with each member's term built alone: its float
        `log_conditional_avg_size(A, S, S*)`, and its exact form from a
        `_conditional_term` that slices A by S* itself."""
        members = [(m, IndexSet(range(1, m.indices[0])), w)
                   for m, w in zip(cover.members, cover.weights) if w > 0]
        terms = [float(w) * projections.log_conditional_avg_size(A, m, prefix)
                 for m, prefix, w in members]
        lhs = math.log2(len(A))
        decided = checkers._compare(
            [(1, projections._term(A.points, 2))],
            [(w, projections._conditional_term(
                A, projections._restrictor(m), projections._restrictor(prefix), 2))
             for m, prefix, w in members], len(A))
        return {"terms": terms, "members": [list(m.indices) for m, _, _ in members],
                "lhs": lhs, "rhs": sum(terms), "slack": sum(terms) - lhs,
                "verdict": decided.verdict, "provenance": decided.provenance}

    @staticmethod
    def report_fields(report):
        return {"terms": report.details["terms"], "members": report.details["members"],
                "lhs": report.lhs, "rhs": report.rhs, "slack": report.slack,
                "verdict": report.verdict, "provenance": report.provenance}

    def test_shared_prefix_slices_match_each_term_alone(self):
        # covers whose positive-weight members repeat and nest prefixes, next to
        # zero-weight members (some with the deepest prefix) and min S = 1
        rng = random.Random(43)
        provenances, prefix_counts = set(), set()
        for _ in range(80):
            n = rng.randint(3, 6)
            members = [[i] for i in range(1, n + 1)]
            for lo in rng.choices(range(1, n + 1), k=rng.randint(2, 8)):
                members.append(sorted(rng.sample(range(lo + 1, n + 1), rng.randint(0, n - lo))
                                      + [lo]))
            # the singletons alone make it a fractional cover
            weights = [Fraction(rng.randint(3, 7), 3) for _ in range(n)]
            weights += [Fraction(rng.choice([0, 0, 1, 2, 5]), rng.choice([2, 3, 7]))
                        for _ in members[n:]]
            if rng.random() < 0.3:
                members.append([n])
                weights.append(Fraction(0))
            cover = CoverSpec(n, members, weights)
            A = random_pointset(rng, n, span=3, max_size=60)
            report = check_projection_theorem(A, cover, "sets")
            assert self.report_fields(report) == self.alone(A, cover)
            provenances.add(report.provenance)
            prefix_counts.add(len({m[0] for m, w in zip(members, weights) if w > 0 and m[0] > 1}))
        assert provenances == {"exact"}
        assert max(prefix_counts) >= 4  # three merges in one check

    @pytest.mark.parametrize("spans", [(2, 3, 4), (2, 3, 4, 5)], ids=repr)
    def test_product_set_chain_tie_from_merged_slices(self, spans):
        # the chain cover's prefixes {1}, ..., {1..n-1}: all but the deepest
        # are merged, and |A| = prod of the spans ties exactly
        A = PointSet(len(spans), itertools.product(*map(range, spans)))
        report = check_projection_theorem(A, chain_cover(len(spans)), "sets")
        assert (report.verdict, report.provenance) == ("holds", "exact")
        assert self.report_fields(report) == self.alone(A, chain_cover(len(spans)))
        assert report.details["terms"] == pytest.approx([math.log2(s) for s in spans])

    @pytest.mark.parametrize("side, passes", [("sets", 1), ("entropy", 0)])
    def test_one_grouping_pass_per_check(self, monkeypatch, side, passes):
        # members [2, 3] and [2, 4] condition on {1}, [3, 4] on {1, 2}: one
        # grouping by {1, 2} serves all three; the entropy side groups nothing
        calls = []
        real = projections._group
        monkeypatch.setattr(projections, "_group",
                            lambda *args: calls.append(1) or real(*args))
        A = PointSet(4, [(a, b, c, d) for a, b, c, d in itertools.product(range(3), repeat=4)
                         if (a + 2 * b + c * d) % 3])
        data = A if side == "sets" else RationalDist.uniform(A.points)
        assert check_projection_theorem(data, self.FRACTIONAL, side).holds
        assert len(calls) == passes


def product_dist(first: RationalDist, second: RationalDist) -> RationalDist:
    """The independent pair (X, Y) on two coordinates."""
    support, probs = [], []
    for (x,), p in zip(first.support, first.probs):
        for (y,), q in zip(second.support, second.probs):
            support.append((x, y))
            probs.append(p * q)
    return RationalDist(support, probs)


class TestComparator:
    """Every checker decides through one comparator: exact, or inconclusive past the bit limit."""

    SIXTHS = RationalDist([(0,), (1,), (2,)], ["1/6", "1/3", "1/2"])

    def test_entropy_violation_of_1e_3_is_exact(self):
        # H(X) <= (999/1000) H(X) is false by ~1.5e-3
        ident = FiniteMap.identity([(0,), (1,), (2,)])
        spec = InequalitySpec(ident, [ident], ["999/1000"])
        report = check_entropy(spec, self.SIXTHS)
        assert -1e-2 < report.slack < 0
        assert report.verdict == "violated"
        assert report.provenance == "exact"

    def test_product_distribution_shearer_tie_is_exact(self):
        X = product_dist(self.SIXTHS, RationalDist([(0,), (1,)], ["2/7", "5/7"]))
        cover = CoverSpec(2, [[1], [2]])
        report = check_shearer(X, cover, 1, "entropy")
        assert report.verdict == "holds"
        assert report.provenance == "exact"

    def test_product_distribution_shearer_ties_hold_exactly(self):
        # H(X, Y) = H(X) + H(Y) for independent X, Y; the float slack is
        # rounding noise of either sign, and the exact rule decides
        rng = random.Random(8)
        for _ in range(40):
            first, second = (
                random_dist_on(rng, [(i,) for i in range(rng.randint(2, 4))]) for _ in range(2)
            )
            X = product_dist(first, second)
            report = check_shearer(X, CoverSpec(2, [[1], [2]]), 1, "entropy")
            assert (report.verdict, report.provenance) == ("holds", "exact")

    def test_chain_cover_entropy_tie_is_exact(self):
        rng = random.Random(31)
        X = random_dist_on(rng, random_pointset(rng, 3, span=3).sorted_points())
        report = check_projection_theorem(X, chain_cover(3), "entropy")
        assert (report.verdict, report.provenance) == ("holds", "exact")

    def test_product_set_tie_is_exact(self):
        A = PointSet(3, [(a, b, c) for a in range(2) for b in range(3) for c in range(5)])
        cover = CoverSpec(3, [[1, 2], [1, 3], [2, 3]], ["1/2", "1/2", "1/2"])
        report = check_projection_theorem(A, cover, "sets")
        assert report.slack == pytest.approx(0.0, abs=1e-9)
        assert (report.verdict, report.provenance) == ("holds", "exact")
        shearer = check_shearer(A, CoverSpec(3, cover.members), 2, "sets")
        assert (shearer.verdict, shearer.provenance) == ("holds", "exact")
        assert shearer.details["lhs_count"] == shearer.details["rhs_count"] == "900"

    def test_true_violation_of_1e_12_is_exact(self):
        # log2(2^40 + 1) - 40 is about 1.3e-12
        lhs = [(1, checkers._count(2**40 + 1))]
        for rhs in ([(1, checkers._count(2**40))], [(Fraction(1, 2), checkers._count(2**80))]):
            report = checkers._compare(lhs, rhs, 1)
            assert -1e-11 < report.slack <= 0
            assert (report.verdict, report.provenance) == ("violated", "exact")

    def test_count_comparisons_far_from_a_tie_are_exact(self):
        spec = projection_spec(GRID2, [[1], [2]], [1, 1])
        report = check_cardinality(spec, TRIANGLE)
        assert report.slack > 0.4
        assert (report.verdict, report.provenance) == ("holds", "exact")
        half = check_cardinality(projection_spec(GRID2, [[1], [2]], ["1/2", 1]), TRIANGLE)
        assert half.provenance == "exact"

    def test_past_the_bit_limit_is_inconclusive(self):
        # 2^(d H) for d = 999983 * 1000003 has about 4e13 bits
        X = product_dist(
            RationalDist([(0,), (1,)], ["1/999983", "999982/999983"]),
            RationalDist([(0,), (1,)], ["1/1000003", "1000002/1000003"]),
        )
        report = check_shearer(X, CoverSpec(2, [[1], [2]]), 1, "entropy")
        assert abs(report.slack) < 1e-9
        assert (report.verdict, report.provenance) == ("inconclusive", "float")
        assert report.exit_code() == 3

    def test_int_coefficient_clears_a_denominator_above_2_53(self):
        d = 3**34  # odd and above 2^53, so d is not a float
        X = RationalDist([(0,), (1,)], [Fraction(1, d), Fraction(d - 1, d)])
        # k = 3 copies of {1}: 3 H(X) <= H(X) + H(X) + H(X)
        report = check_shearer(X, CoverSpec(1, [[1]] * 3), 3, "entropy")
        assert (report.verdict, report.provenance) == ("holds", "exact")
        # H(X, B) <= H(X) + H(B) for a fair bit B: the term H(B), of
        # denominator 2, is raised to the power 2d / 2 = d, an int
        XB = product_dist(X, RationalDist([(0,), (1,)], ["1/2", "1/2"]))
        report = check_shearer(XB, CoverSpec(2, [[1], [2]]), 1, "entropy")
        assert (report.verdict, report.provenance) == ("holds", "exact")

    def test_public_measures_build_no_exact_form(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("exact form built for a float measure")

        monkeypatch.setattr(projections, "entropy_power", refuse)
        monkeypatch.setattr(projections, "conditional_size_power", refuse)
        X = RationalDist.uniform(TRIANGLE.points)
        first, second = IndexSet([1]), IndexSet([2])
        assert projections.conditional_entropy(X, first, second) == pytest.approx(2 / 3)
        assert projections.conditional_avg_size(TRIANGLE, first, second) == pytest.approx(
            2 ** (2 / 3))
        assert projections.log_conditional_avg_size(TRIANGLE, first, second) == pytest.approx(
            2 / 3)

    def test_far_from_tie_comparisons_build_no_exact_form(self, monkeypatch):
        # stage 0 decides every comparison whose slack is past its bound from
        # the float sides alone, so no 2^H or |A|-th power is built
        def refuse(*args):
            raise AssertionError("exact form built for a far-from-tie comparison")

        monkeypatch.setattr(projections, "entropy_power", refuse)
        monkeypatch.setattr(projections, "conditional_size_power", refuse)
        A = PointSet(3, [x for x in itertools.product(range(3), repeat=3) if sum(x) % 3])
        X = random_dist_on(random.Random(44), A.sorted_points())
        grid = list(itertools.product(range(3), repeat=3))
        pairs = [[1, 2], [2, 3], [1, 3]]
        reports = [
            check_entropy(projection_spec(grid, pairs, ["1/2"] * 3), X),
            check_entropy(projection_spec(grid, pairs, ["1/3"] * 3), X),
            check_shearer(X, CoverSpec(3, pairs), 2, "entropy"),
            check_projection_theorem(X, CoverSpec(3, pairs, ["1/2"] * 3), "entropy"),
            check_projection_theorem(A, CoverSpec(3, pairs, ["1/2"] * 3), "sets"),
        ]
        assert [(r.verdict, r.provenance) for r in reports] == [
            ("holds", "exact"), ("violated", "exact"), ("holds", "exact"),
            ("holds", "exact"), ("holds", "exact")]
        assert min(abs(r.slack) for r in reports) > 0.05

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_stage_0_agrees_with_the_forms(self, seed):
        # every checker gives the same report when stage 0 declines every
        # comparison and the forms decide them all
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        grid = list(itertools.product(range(3), repeat=n))
        A = random_pointset(rng, n, span=3, max_size=20)
        X = random_dist_on(rng, A.sorted_points())
        spec = InequalitySpec(random_map(rng, grid), [random_map(rng, grid) for _ in range(2)],
                              [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(2)])
        fractional = random_fractional_cover(rng, n, max_members=4)
        uniform = random_uniform_k_cover(rng, n, rng.randint(1, 3))
        k = uniform.multiplicities()[0]

        def reports():
            return [report.to_json() for report in (
                check_cardinality(spec, A),
                check_entropy(spec, X),
                empirical_lemma1(spec, X, k_max=2 * X.denominator),
                *(check_shearer(data, uniform, k, side) for data, side in
                  ((A, "sets"), (X, "entropy"))),
                *(check_projection_theorem(data, fractional, side) for data, side in
                  ((A, "sets"), (X, "entropy"))),
            )]

        staged = reports()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(checkers, "_slack_bound", lambda *args: math.inf)
            assert reports() == staged

    def test_lemma1_builds_no_exact_entropy_form(self, monkeypatch):
        # H(X) <= H(X) is a tie; lemma1 reports its entropy
        # side in floats and lets the exact row counts decide
        def refuse(*args):
            raise AssertionError("exact entropy form built for lemma1")

        monkeypatch.setattr(projections, "entropy_power", refuse)
        ident = FiniteMap.identity([(0,), (1,), (2,)])
        report = empirical_lemma1(InequalitySpec(ident, [ident], [1]), self.SIXTHS, k_max=12)
        assert (report.verdict, report.provenance, report.slack) == ("holds", "exact", 0.0)
        assert report.details["k_values"] == [6, 12]

    def test_lemma1_row_limit(self, monkeypatch):
        # k_min = 2: k_max = 6 gives 3 rows, at the limit; k_max = 8 one more
        monkeypatch.setattr(checkers, "MAX_LEMMA1_ROWS", 3)
        spec = projection_spec(GRID2, [[1], [2]], [1, 1])
        X = RationalDist.uniform(GRID2[:2])
        assert empirical_lemma1(spec, X, k_max=7).details["k_values"] == [2, 4, 6]
        with pytest.raises(SizeGuardError, match="exceeds the row limit 3"):
            empirical_lemma1(spec, X, k_max=8)

    def test_lemma1_rows_past_the_bit_limit(self, monkeypatch):
        # a tie whose bases differ, 36 against 6 * 6, is left to the products;
        # with no product within the limit the rows are inconclusive, and so
        # is the whole report, instead of violated
        monkeypatch.setattr(checkers, "_EXACT_BIT_LIMIT", 0)
        tie = checkers._compare([(1, checkers._count(36))],
                                [(1, checkers._count(6)), (1, checkers._count(6))], 1)
        assert (tie.verdict, tie.provenance) == ("inconclusive", "float")
        counts = iter([36, 6, 6])
        monkeypatch.setattr(checkers, "_sizes",
                            lambda d, ks: dict.fromkeys(ks, next(counts)))
        spec = projection_spec(GRID2, [[1], [2]], [1, 1])
        report = empirical_lemma1(spec, RationalDist.uniform(GRID2), k_max=8)
        assert {row["verdict"] for row in report.details["rows"]} == {"inconclusive"}
        assert (report.verdict, report.provenance) == ("inconclusive", "float")


def count_reference(lhs, rhs) -> str:
    """prod n^c over lhs <= the same over rhs for (c, n) pairs of positive c, decided with
    int powers: both sides raised to the lcm of the coefficients' denominators."""
    lcm = math.lcm(*(c.denominator for c, _ in lhs + rhs))
    left, right = (math.prod(n ** int(c * lcm) for c, n in side) for side in (lhs, rhs))
    return "holds" if left <= right else "violated"


class TestCountComparisons:
    """A comparison of counts alone is exact, whatever its rational coefficients."""

    @staticmethod
    def coefficient(rng) -> Fraction:
        q = rng.randint(1, 12)
        return Fraction(rng.randint(1, 2 * q), q)

    def cases(self):
        """(lhs, rhs) lists of (c, n) pairs: ties (ab)^c = a^c b^c with the lhs count
        moved by -1, 0 or 1 and a shared term on both sides, then random pairs."""
        rng = random.Random(28)
        for _ in range(150):
            a, b = rng.randint(2, 1000), rng.randint(2, 1000)
            while a * b > 10**6:
                b //= 2
            c, shared = self.coefficient(rng), (self.coefficient(rng), rng.randint(1, 10**6))
            rhs = [(c, a), (c, b), shared]
            rng.shuffle(rhs)
            yield [(c, a * b + rng.choice((-1, 0, 1))), shared], rhs
        for _ in range(100):
            yield ([(self.coefficient(rng), rng.randint(1, 10**6)) for _ in range(2)]
                   for _ in range(2))

    def test_exact_and_equal_to_int_powers(self):
        # the near ties of large counts have a slack below 1e-4, of small ones not
        verdicts, small = set(), 1e-4
        for lhs, rhs in self.cases():
            report = checkers._compare(*([(c, projections._count(n)) for c, n in side]
                                         for side in (lhs, rhs)), 1)
            assert report.provenance == "exact"
            assert report.verdict == count_reference(lhs, rhs), (lhs, rhs)
            if abs(report.slack) >= small:
                assert report.verdict == ("holds" if report.slack > 0 else "violated")
            verdicts.add((report.verdict, abs(report.slack) < small))
        # slacks below and past 1e-4 on both sides of the verdict
        assert verdicts == set(itertools.product(("holds", "violated"), (False, True)))

    def test_lemma1_rows_are_compare_on_their_counts(self):
        rng = random.Random(29)
        grid = [(a, b) for a in range(3) for b in range(3)]
        for _ in range(12):
            coeffs = [self.coefficient(rng), self.coefficient(rng)]
            spec = projection_spec(grid, [[1], [2]], coeffs)
            X = random_dist_on(rng, rng.sample(grid, rng.randint(2, 5)))
            report = empirical_lemma1(spec, X, k_max=4 * minimal(X))
            assert report.provenance == "exact"
            for row in report.details["rows"]:
                k = row["k"]
                counts = [ruzsa_size(RuzsaSpec(pushforward(m, X), k))
                          for m in (spec.lhs_map, *spec.rhs_maps)]
                assert [row["lhs_count"], *row["rhs_counts"]] == list(map(str, counts))
                want = checkers._compare(
                    [(1, projections._count(counts[0]))],
                    [(c, projections._count(n)) for c, n in zip(coeffs, counts[1:])], 1)
                assert (row["verdict"], want.provenance) == (want.verdict, "exact")
                assert row["verdict"] == count_reference(
                    [(1, counts[0])], list(zip(coeffs, counts[1:])))
                assert (row["lhs_rate"], row["rhs_rate"]) == (want.lhs / k, want.rhs / k)


class TestSignRule:
    """The sign of sum e log2 b, certified in floats, then the products for near ties."""

    def test_log2_of_an_int_is_within_one_ulp(self):
        # the assumption the rounding bound rests on, against `decimal` at 60 digits
        rng = random.Random(44)
        ints = [*range(2, 300), *(2**j + s for j in range(2, 1100, 3) for s in (-1, 1)),
                *(rng.randint(2, 2 ** rng.randint(2, 1024)) for _ in range(300)),
                *(rng.getrandbits(rng.randint(1, 4000)) | 1 << 1024 for _ in range(100))]
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            ln2 = decimal.Decimal(2).ln()
            for n in ints:
                got = math.log2(n)
                error = abs(decimal.Decimal(got) - decimal.Decimal(n).ln() / ln2)
                assert error <= decimal.Decimal(math.ulp(got)), n

    def test_logs_of_ints_and_floats_are_within_one_ulp(self):
        # the rest of the assumption stage 0 rests on: `math.log` of an int,
        # and both logs of a float in (1, 2^1024), 1/q for q = c/d among them;
        # `math.log` of an int past 2^1024 is within 2 ulps
        rng = random.Random(45)
        ints = [*range(2, 300), *(2**j + s for j in range(2, 1100, 3) for s in (-1, 1)),
                *(rng.randint(2, 2 ** rng.randint(2, 1024)) for _ in range(300)),
                *(rng.getrandbits(rng.randint(1, 4000)) | 1 << 1024 for _ in range(100))]
        floats = [rng.uniform(1, 2) * 2.0 ** rng.randint(0, 1023) for _ in range(400)]
        for _ in range(400):
            d = rng.randint(2, 2 ** rng.randint(2, 1100))
            q = rng.randint(1, d - 1) / d
            if q and 1 / q < math.inf:
                floats.append(1 / q)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            ln2 = decimal.Decimal(2).ln()
            for x in ints + floats:
                truth = decimal.Decimal(x).ln()
                for log, exact in ((math.log2, truth / ln2), (math.log, truth)):
                    if log is math.log2 and isinstance(x, int):
                        continue  # test_log2_of_an_int_is_within_one_ulp
                    got = log(x)
                    ulps = 2 if isinstance(x, int) and x >= 2**1024 else 1
                    assert abs(decimal.Decimal(got) - exact) <= ulps * decimal.Decimal(
                        math.ulp(got)), (log, x)

    @staticmethod
    def nats(counts, d) -> decimal.Decimal:
        """The entropy in nats of the masses c / d, at the context's precision."""
        D = decimal.Decimal
        return sum((D(c) / D(d) * (D(d) / D(c)).ln() for c in counts), D(0))

    @staticmethod
    def random_law(rng, size: int, bits: int) -> RationalDist:
        """A law on `size` points of dimension 2 whose denominator has about `bits` bits,
        some masses 1/d among them."""
        d = max(rng.getrandbits(bits) | 1 << (bits - 1), size)
        ones = rng.randint(0, size - 1)
        cuts = set()
        while len(cuts) < size - ones - 1:
            cuts.add(rng.randrange(1, d - ones))
        bounds = [0, *sorted(cuts), d - ones]
        counts = [1] * ones + [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        rng.shuffle(counts)
        width = rng.randint(1, 8)
        return RationalDist([(i % width, i // width) for i in range(size)],
                            [Fraction(c, d) for c in counts])

    def test_float_terms_are_within_the_term_error(self):
        # every kind of term, in both bases, against `decimal` at 60 digits:
        # laws of up to 2,000 points with denominators up to past 2^1100, masses
        # below 2^-1074 among them, their conditional terms, and sliced set terms
        rng = random.Random(46)
        first, second = (projections._restrictor(IndexSet([i])) for i in (1, 2))
        fallbacks = 0
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            ln2 = decimal.Decimal(2).ln()
            cases = []  # (float term by base, truth in nats, size, bases)
            laws = (2, math.e)
            for size, bits in [(1, 1), (2, 2), (3, 60), (7, 1000), (40, 1023), (40, 1030),
                               (300, 1080), (300, 1200), (2000, 40), (2000, 1100),
                               *((rng.randint(1, 60), rng.randint(1, 1200)) for _ in range(20))]:
                X = self.random_law(rng, size, bits)
                fallbacks += any(c / X.denominator == 0 for c in X.counts)
                truth = self.nats(X.counts, X.denominator)
                cases.append((lambda base, X=X: projections._term(X, base)[0], truth, size, laws))
                given = dist._image(X, second)
                cases.append((lambda base, X=X: projections._conditional_term(
                    X, first, second, base)[0],
                    truth - self.nats(given.counts, given.denominator), size, laws))
                A = random_pointset(rng, 3, span=rng.randint(2, 13), max_size=size)
                sliced = {}
                for x in A:
                    sliced.setdefault(x[:1], set()).add(x[1:])
                cases.append((lambda base, A=A: projections._conditional_term(
                    A, projections._restrictor(IndexSet([2, 3])), first, base)[0],
                    sum((decimal.Decimal(len(s)) / len(A) * decimal.Decimal(len(s)).ln()
                         for s in sliced.values()), decimal.Decimal(0)), len(A), laws))
            # counts in nats are sizes of the data, below 2^53; lemma1's counts are in bits
            for count in [2, 3, 2**53 - 1, 2**53 + 1, 10**300, 3**2000, rng.getrandbits(5000)]:
                cases.append((lambda base, count=count: projections._count(
                    count, dist._log_function(base))[0], decimal.Decimal(count).ln(), 1,
                    laws if count < 2**53 else (2,)))
            terms = {2: [], math.e: []}  # (float log, truth, size) by base
            for term, truth, size, bases in cases:
                for base in bases:
                    exact = truth / ln2 if base == 2 else truth
                    got = term(base)
                    bound = checkers._term_error(got, size)
                    assert abs(decimal.Decimal(got) - exact) <= decimal.Decimal(bound), (
                        base, size)
                    terms[base].append((got, exact, size))
            # the slack of random comparisons of those terms is within B / 8
            for base, pool in terms.items():
                for _ in range(200):
                    sides = [[(Fraction(rng.randint(-99, 99), rng.randint(1, 9)), *rng.choice(pool))
                              for _ in range(rng.randint(1, 4))] for _ in range(2)]
                    lhs, rhs = ([(c, (got, None)) for c, got, _, _ in side] for side in sides)
                    lhs_log, rhs_log, *floats = checkers._logs(lhs, rhs)
                    bound = checkers._slack_bound(*floats, max(t[3] for t in sides[0] + sides[1]))
                    truth = sum((sign * decimal.Decimal(c.numerator) / c.denominator * exact
                                 for sign, side in ((-1, sides[0]), (1, sides[1]))
                                 for c, _, exact, _ in side), decimal.Decimal(0))
                    assert abs(decimal.Decimal(rhs_log - lhs_log) - truth) <= decimal.Decimal(
                        bound / 8)
        assert fallbacks >= 4

    # p of the convergents p/q of log2 3
    CONVERGENTS = [3, 8, 19, 65, 84, 485, 1054, 24727, 50508, 125743, 176251, 301994,
                   16785921, 17087915]

    def test_near_ties_of_powers_of_2_and_3(self, monkeypatch):
        # |p - q log2 3| falls to 1.8e-8 at the last, which alone the rounding
        # bound cannot separate from 0 and whose products are past the bit limit.
        # Stage 0 decides the convergents whose slack is past its bound; the
        # near ties within it reach the forms, which decide every convergent
        real, reached, near_ties, undecided = checkers._exact_verdict, [], [], []
        monkeypatch.setattr(checkers, "_exact_verdict",
                            lambda lhs, rhs: reached.append(1) or real(lhs, rhs))
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            ln2, ln3 = decimal.Decimal(2).ln(), decimal.Decimal(3).ln()
            for p in self.CONVERGENTS:
                q = int((p * ln2 / ln3).to_integral_value())
                holds = q * ln3 > p * ln2  # 2^p <= 3^q
                for lhs, rhs, truth in (([(p, 2)], [(q, 3)], holds),
                                        ([(q, 3)], [(p, 2)], not holds)):
                    sides = [[(c, projections._count(n)) for c, n in side] for side in (lhs, rhs)]
                    calls = len(reached)
                    report = checkers._compare(*sides, 1)
                    bound = checkers._slack_bound(*checkers._logs(*sides)[2:], 1)
                    near = abs(report.slack) <= bound
                    assert len(reached) == calls + near, (p, q)
                    near_ties += [p] * near
                    verdict = real(*sides)
                    if report.verdict == "inconclusive":
                        assert verdict == "inconclusive"
                        undecided.append(p)
                        continue
                    assert report.verdict == verdict == ("holds" if truth else "violated"), (p, q)
                    assert report.provenance == "exact"
                    if 2 * (p + q) <= checkers._EXACT_BIT_LIMIT:  # the products fit
                        assert report.verdict == count_reference(lhs, rhs)
        assert near_ties == [16785921] * 2 + [17087915] * 2
        assert undecided == [17087915] * 2

    def test_huge_denominators_are_decided_by_the_shifted_sign(self, monkeypatch):
        # d = 3^1893 has 3001 bits, so the cleared exponents, about 2^3000, are
        # shifted into the float range; with the bit limit at 0 no product is
        # built, and with stage 0 declining the forms decide
        monkeypatch.setattr(checkers, "_EXACT_BIT_LIMIT", 0)
        monkeypatch.setattr(checkers, "_slack_bound", lambda *args: math.inf)
        d = 3**1893
        X = RationalDist([(0,), (1,)], [Fraction(d // 2, d), Fraction(d - d // 2, d)])
        ident = FiniteMap.identity(X.support)
        for coefficient, verdict in (("1/2", "violated"), ("2", "holds")):
            report = check_entropy(InequalitySpec(ident, [ident], [coefficient]), X)
            assert (report.verdict, report.provenance) == (verdict, "exact")

    def test_shearer_count_details_only_within_the_bit_limit(self, monkeypatch):
        # 3^3 <= (2 * 2)^3: the powers take at most 3 * 2 + 6 * 2 = 18 bits
        cover = CoverSpec(2, [[1], [2]] * 3)
        report = check_shearer(TRIANGLE, cover, 3, "sets")
        assert (report.details["lhs_count"], report.details["rhs_count"]) == ("27", "64")
        monkeypatch.setattr(checkers, "_EXACT_BIT_LIMIT", 17)
        report = check_shearer(TRIANGLE, cover, 3, "sets")
        assert (report.verdict, report.provenance) == ("holds", "exact")
        assert report.details == {"projection_sizes": ["2"] * 6}

