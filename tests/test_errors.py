"""Error paths that no other test reaches: each raise with its class and message."""

import pytest

from entroset import (
    CheckReport,
    CoverSpec,
    DomainError,
    EntrosetError,
    FiniteMap,
    IndexSet,
    InequalitySpec,
    NegativeCoefficientError,
    PointSet,
    RationalDist,
    RuzsaSpec,
    SchemaError,
    SizeGuardError,
    SuitabilityError,
    check_cardinality,
    check_entropy,
    check_projection_theorem,
    check_shearer,
    cli,
    conditional_avg_size,
    conditional_entropy,
    convergence_profile,
    empirical_lemma1,
    is_fractional_cover,
    is_suitable,
    is_uniform_k_cover,
    jsonio,
    lemma2_witness,
    preimage_lift,
    project_rv,
    project_set,
    pushforward,
    rationalize,
    ruzsa_enumerate,
    type_bound_check,
    verify_commutation,
)
from entroset.covers import MAX_COVER_N
from entroset.dist import as_fraction
from entroset.projections import EMPTY_INDEX_SET, log_conditional_avg_size

HALVES = RationalDist.uniform([0, 1])
IDENTITY = FiniteMap.identity(HALVES.support)
SPEC = InequalitySpec(IDENTITY, [IDENTITY], [1])
PLANE = PointSet(2, [(0, 0), (0, 1), (1, 0)])
POINT = PointSet(1, [(0,)])
SQUARE = RationalDist.uniform([(0, 0), (0, 1), (1, 0), (1, 1)])
ONE = CoverSpec(1, [[1]])
PAIRS = RuzsaSpec(HALVES, 2)
FIRST = IndexSet([1])


def run_handler(argv):
    """The leaf handler of a parsed command line, called on its args."""
    args = cli.build_parser().parse_args(argv)
    return args.run(args)


CASES = {
    # checkers
    "coefficients_length": (lambda: InequalitySpec(IDENTITY, [IDENTITY], [1, 1]), SchemaError,
                            "rhs_maps and coefficients must have equal length"),
    "rhs_maps_empty": (lambda: InequalitySpec(IDENTITY, [], []), SchemaError,
                       "need at least one rhs map"),
    "maps_domain": (lambda: InequalitySpec(IDENTITY, [FiniteMap.identity([0])], [1]),
                    DomainError, "all maps must share one declared domain"),
    "points_empty": (lambda: check_cardinality(SPEC, []), SchemaError,
                     "point collection must be nonempty"),
    "cardinality_domain": (lambda: check_cardinality(SPEC, [5]), DomainError,
                           "point set is not contained in the maps' domain"),
    "entropy_domain": (lambda: check_entropy(SPEC, RationalDist.uniform([5])), DomainError,
                       "distribution support is not contained in the maps' domain"),
    "lemma2_domain": (lambda: lemma2_witness([5], IDENTITY), DomainError,
                      "point set is not contained in the map domain"),
    "lemma1_negative": (
        lambda: empirical_lemma1(InequalitySpec(IDENTITY, [IDENTITY], [-1]), HALVES, 4),
        NegativeCoefficientError, "counting-side checks require nonnegative coefficients"),
    "lemma1_no_k": (lambda: empirical_lemma1(SPEC, HALVES, 1), SuitabilityError,
                    "no suitable k <= 1 (minimal is 2)"),
    "shearer_side": (lambda: check_shearer([0], ONE, 1, "both"), SchemaError,
                     "side must be 'sets' or 'entropy', got 'both'"),
    "shearer_dimension": (lambda: check_shearer(PLANE, ONE, 1, "sets"), SchemaError,
                          "cover is over [1] but data has dimension 2"),
    "cardinality_spec": (lambda: check_cardinality(5, PLANE), SchemaError,
                         "check_cardinality needs an InequalitySpec: 5"),
    "lemma2_map": (lambda: lemma2_witness(PLANE, 5), SchemaError,
                   "lemma2_witness needs a FiniteMap: 5"),
    "lemma1_k_max": (lambda: empirical_lemma1(SPEC, HALVES, None), SchemaError,
                     "k_max must be an integer: None"),
    "entropy_spec": (lambda: check_entropy(5, HALVES), SchemaError,
                     "check_entropy needs an InequalitySpec: 5"),
    "lemma1_spec": (lambda: empirical_lemma1(5, HALVES, 4), SchemaError,
                    "empirical_lemma1 needs an InequalitySpec: 5"),
    "projection_cover": (lambda: check_projection_theorem(PLANE, 5, "sets"), SchemaError,
                         "check_projection_theorem needs a CoverSpec: 5"),
    "shearer_cover": (lambda: check_shearer(PLANE, 5, 1, "sets"), SchemaError,
                      "check_shearer needs a CoverSpec: 5"),
    # the entropy side's data is refused in the checker's name
    "shearer_entropy_data": (lambda: check_shearer(POINT, ONE, 1, "entropy"), SchemaError,
                             "check_shearer needs a RationalDist: "
                             "PointSet(dimension=1, points=frozenset({(0,)}))"),
    "projection_entropy_data": (
        lambda: check_projection_theorem(POINT, CoverSpec(1, [[1]], [1]), "entropy"),
        SchemaError, "check_projection_theorem needs a RationalDist: "
                     "PointSet(dimension=1, points=frozenset({(0,)}))"),
    # k_max // k_min is past sys.maxsize for both, so no row list is ever built
    "lemma1_rows_1e20": (lambda: empirical_lemma1(SPEC, HALVES, 10**20), SizeGuardError,
                         "k_max // k_min exceeds the row limit 10000 (k_min = 2)"),
    "lemma1_rows_1e400": (lambda: empirical_lemma1(SPEC, HALVES, 10**400), SizeGuardError,
                          "k_max // k_min exceeds the row limit 10000 (k_min = 2)"),
    # covers
    "n_zero": (lambda: CoverSpec(0, [[1]]), SchemaError, "n must be >= 1"),
    "n_past_the_limit": (lambda: CoverSpec(MAX_COVER_N + 1, [[1]]), SchemaError,
                         "n is outside the index range: 10001"),
    "no_members": (lambda: CoverSpec(2, []), SchemaError, "cover needs at least one member"),
    "member_empty": (lambda: CoverSpec(2, [[]]), SchemaError,
                     "cover members must be nonempty"),
    "member_past_n": (lambda: CoverSpec(2, [[3]]), SchemaError, "member (3,) exceeds n=2"),
    "weights_length": (lambda: CoverSpec(2, [[1, 2]], [1, 1]), SchemaError,
                       "weights must be parallel to members"),
    "weights_negative": (lambda: CoverSpec(2, [[1, 2]], [-1]), SchemaError,
                         "weights must be nonnegative"),
    "fractional_cover_type": (lambda: is_fractional_cover(5), SchemaError,
                              "is_fractional_cover needs a CoverSpec: 5"),
    "uniform_cover_type": (lambda: is_uniform_k_cover(5, 1), SchemaError,
                           "is_uniform_k_cover needs a CoverSpec: 5"),
    # dist
    "table_empty": (lambda: FiniteMap([]), SchemaError, "map table must be nonempty"),
    "uniform_empty": (lambda: RationalDist.uniform([]), SchemaError,
                      "uniform distribution needs a nonempty point set"),
    "weights_empty": (lambda: rationalize([], 4), SchemaError, "weights must be nonempty"),
    "max_denominator_zero": (lambda: rationalize([1], 0), SchemaError,
                             "max_denominator must be >= 1"),
    "max_denominator_17": (
        lambda: rationalize([1], 17), SchemaError,
        "max_denominator above 16 is not supported (lcm grid too large)"),
    "weight_negative": (lambda: rationalize([1, -1], 4), SchemaError,
                        "weights must be nonnegative"),
    "weights_zero": (lambda: rationalize([0, 0], 4), SchemaError,
                     "weights must have positive sum"),
    "suitable_k": (lambda: is_suitable(HALVES, None), SchemaError,
                   "k must be an integer: None"),
    "suitable_dist": (lambda: is_suitable(5, 2), SchemaError,
                      "is_suitable needs a RationalDist: 5"),
    "exponent_past_digit_limit": (lambda: as_fraction("1e-4301"), SchemaError,
                                  "not a rational string: '1e-4301'"),
    # jsonio
    "index_set_document": (lambda: jsonio.indexset_from_json(5), SchemaError,
                           "index sets are 1-based arrays: 5"),
    # projections
    "pointset_empty": (lambda: PointSet(2, []), SchemaError, "point set must be nonempty"),
    "pointset_dimension_list": (lambda: PointSet([], [(0, 0)]), SchemaError,
                                "dimension must be an integer: []"),
    "pointset_dimension_float": (lambda: PointSet(2.0, [(0, 0)]), SchemaError,
                                 "dimension must be an integer: 2.0"),
    "project_set_type": (lambda: project_set(5, FIRST), SchemaError,
                         "project_set needs a PointSet: 5"),
    "avg_size_type": (lambda: log_conditional_avg_size(5, FIRST, EMPTY_INDEX_SET),
                      SchemaError, "log_conditional_avg_size needs a PointSet: 5"),
    "avg_size_public_type": (lambda: conditional_avg_size(5, FIRST, EMPTY_INDEX_SET),
                             SchemaError, "conditional_avg_size needs a PointSet: 5"),
    "from_points_empty": (lambda: PointSet.from_points([]), SchemaError,
                          "point set must be nonempty"),
    "project_set_empty": (lambda: project_set(PLANE, EMPTY_INDEX_SET), SchemaError,
                          "cannot project onto the empty index set"),
    "project_rv_empty": (lambda: project_rv(SQUARE, EMPTY_INDEX_SET), SchemaError,
                         "cannot project onto the empty index set"),
    "target_T_empty": (
        lambda: log_conditional_avg_size(PLANE, EMPTY_INDEX_SET, IndexSet([1])),
        SchemaError, "conditioned projection needs a nonempty target T"),
    "target_S_empty": (lambda: conditional_entropy(SQUARE, EMPTY_INDEX_SET), SchemaError,
                       "conditional entropy needs a nonempty target S"),
    # report
    "report_verdict": (lambda: CheckReport("maybe"), SchemaError,
                       "bad report: verdict='maybe', witnesses=(), details=None"),
    "report_witnesses": (lambda: CheckReport("holds", witnesses=5), SchemaError,
                         "bad report: verdict='holds', witnesses=5, details=None"),
    "report_details": (lambda: CheckReport("holds", details=5), SchemaError,
                       "bad report: verdict='holds', witnesses=(), details=5"),
    # ruzsa
    "enumerate_limit": (lambda: next(ruzsa_enumerate(PAIRS, None)), SchemaError,
                        "limit must be an integer: None"),
    "commutation_limit": (lambda: verify_commutation(IDENTITY, PAIRS, None), SchemaError,
                          "limit must be an integer: None"),
    # a map argument is a FiniteMap, not any callable
    "pushforward_callable": (lambda: pushforward(len, HALVES), SchemaError,
                             "pushforward needs a FiniteMap: <built-in function len>"),
    "pushforward_map": (lambda: pushforward(5, HALVES), SchemaError,
                        "pushforward needs a FiniteMap: 5"),
    "commutation_callable": (lambda: verify_commutation(len, PAIRS), SchemaError,
                             "verify_commutation needs a FiniteMap: <built-in function len>"),
    "commutation_map": (lambda: verify_commutation(5, PAIRS), SchemaError,
                        "verify_commutation needs a FiniteMap: 5"),
    "lift_callable": (lambda: preimage_lift(len, PAIRS, [(0,), (1,)]), SchemaError,
                      "preimage_lift needs a FiniteMap: <built-in function len>"),
    "lift_map": (lambda: preimage_lift(5, PAIRS, [(0,), (1,)]), SchemaError,
                 "preimage_lift needs a FiniteMap: 5"),
    "ruzsa_spec_dist": (lambda: RuzsaSpec(5, 2), SchemaError,
                        "RuzsaSpec needs a RationalDist: 5"),
    "bound_spec": (lambda: type_bound_check(5), SchemaError,
                   "type_bound_check needs a RuzsaSpec: 5"),
    "converge_dist": (lambda: convergence_profile(5, [2]), SchemaError,
                      "convergence_profile needs a RationalDist: 5"),
    # a str where a sequence belongs is refused, not read one character at a time
    "coefficients_str": (lambda: InequalitySpec(IDENTITY, [IDENTITY, IDENTITY], "12"),
                         SchemaError, "coefficients must be a sequence: '12'"),
    "cover_weights_str": (lambda: CoverSpec(2, [[1], [2]], "11"), SchemaError,
                          "cover weights must be a sequence: '11'"),
    "probs_str": (lambda: RationalDist([(0,)], "1"), SchemaError,
                  "probs must be a sequence: '1'"),
    "indices_str": (lambda: IndexSet("12"), SchemaError, "indices must be a sequence: '12'"),
    "k_list_str": (lambda: convergence_profile(HALVES, "36"), SchemaError,
                   "k_list must be a sequence: '36'"),
    "map_table_str": (lambda: FiniteMap("ab"), SchemaError,
                      "map table must be a mapping or a sequence: 'ab'"),
    "map_table_empty_str": (lambda: FiniteMap(""), SchemaError,
                            "map table must be a mapping or a sequence: ''"),
    "spec_table_str": (lambda: InequalitySpec("ab", ["cd"], [1]), SchemaError,
                       "map table must be a mapping or a sequence: 'ab'"),
    # cli
    "project_both_inputs": (
        lambda: run_handler(["project", "--pointset", "a", "--dist", "b", "--indices", "1"]),
        EntrosetError, "project needs exactly one of --pointset / --dist"),
}


@pytest.mark.parametrize("case", CASES)
def test_error_path(case):
    call, cls, message = CASES[case]
    with pytest.raises(cls) as info:
        call()
    assert type(info.value) is cls
    assert str(info.value) == message
