"""Layer benchmarks of `entroset.ruzsa`, timed with pytest-benchmark.

The tier-1 test run does not collect this file (it is not named
`test_*.py`); pass it explicitly:

    PYTHONPATH=src python -m pytest benches/bench_ruzsa.py \
        --benchmark-only --benchmark-json=out.json

Inputs are fixed occurrence counts on the outcomes (0,), (1,), ...:

* `verify_commutation` under the pairwise merge map x -> x // 2, at
  |set| = 1,260 (counts 2,3,4), 9,240 (3,3,5) and 45,045 (2,4,8): both
  sides are built as image sets of partial arrangements, so the cost
  follows the image set (126, 462 and 3,003 vectors). Enumeration keeps
  its images as byte strings; image sets are int-coded, states whose
  sets are equal share one, and each distinct tail set is joined once;
* `verify_commutation` under the identity at |set| = 45,045 (2,4,8),
  where nothing merges and the image set is the whole source set;
* `verify_commutation` where the map merges outcomes in pairs, so states
  whose image sets are equal share one set: counts 3,3,3,3 onto 2
  outcomes (369,600 source vectors, 924 images), 2,2,2,2,2,2 onto 3
  (7,484,400 and 34,650) and 2,2,60 under 0,0,1 (3,812,256 and 635,376,
  vectors of length 64);
* `empirical_lemma1(..., cross_validate=True)` at the three budgets of the
  `solvers` benchmark's `lemma1_cv` ops (500, 2,000 and 8,000 enumerated
  vectors over its k values), on laws of the kind it draws: 1/4, 1/4, 1/2
  to k = 8, thirds to k = 9 and 1/7, 5/7, 1/7 to k = 14, each on points of
  {0,1,2}^2, with the identity against both coordinates;
* `ruzsa_enumerate` of the 46,200 vectors of counts 1,3,3,4, decoded to
  element tuples;
* `convergence_profile`, whose sizes come from one ascending pass that
  steps from the previous k by an exact recurrence when the gap is at
  most an eighth of it, and is a fresh multinomial otherwise:
  - probabilities 1/20, 3/20, 4/20, 5/20, 7/20 at 100 values of k up to
    2,000 (k = 20, 40, ...) and at 40 of those values, drawn by a seeded
    sample as the `solvers` benchmark draws them;
  - probabilities 2/5, 3/5 at 100 values of k up to 20,000 (k = 200, 400,
    ...);
  - the five-outcome distribution at k = 2,000 alone and at k = 20, 200,
    2,000, where every size is a fresh multinomial.
"""

import random
from fractions import Fraction

import pytest

from entroset import (
    FiniteMap,
    InequalitySpec,
    RationalDist,
    RuzsaSpec,
    convergence_profile,
    empirical_lemma1,
    ruzsa_enumerate,
    verify_commutation,
)


def _spec(counts) -> RuzsaSpec:
    k = sum(counts)
    support = [(i,) for i in range(len(counts))]
    return RuzsaSpec(RationalDist(support, [Fraction(c, k) for c in counts]), k)


def _merge_map(spec: RuzsaSpec) -> FiniteMap:
    return FiniteMap({x: (x[0] // 2,) for x in spec.dist.support})


@pytest.mark.parametrize(
    "counts", [(2, 3, 4), (3, 3, 5), (2, 4, 8)], ids=["s1e3", "s1e4", "s5e4"]
)
def test_verify_commutation(benchmark, counts):
    spec = _spec(counts)
    report = benchmark(verify_commutation, _merge_map(spec), spec)
    assert report.holds


def test_verify_commutation_identity(benchmark):
    spec = _spec((2, 4, 8))
    report = benchmark(verify_commutation, FiniteMap.identity(spec.dist.support), spec)
    assert report.details["mapped_size"] == "45045"


@pytest.mark.parametrize(
    "counts, symbols",
    [((3, 3, 3, 3), (0, 0, 1, 1)), ((2, 2, 2, 2, 2, 2), (0, 0, 1, 1, 2, 2)),
     ((2, 2, 60), (0, 0, 1))],
    ids=["3x4_to_2", "2x6_to_3", "2_2_60"],
)
def test_verify_commutation_shared(benchmark, counts, symbols):
    spec = _spec(counts)
    f = FiniteMap({x: (s,) for x, s in zip(spec.dist.support, symbols)})
    report = benchmark(verify_commutation, f, spec, 10**7)
    assert report.holds


GRID = [(a, b) for a in range(3) for b in range(3)]
LEMMA1_SPEC = InequalitySpec(
    FiniteMap.identity(GRID),
    [FiniteMap({x: x[i : i + 1] for x in GRID}) for i in (0, 1)],
    [1, 1],
)


@pytest.mark.parametrize(
    "probs, support, k_max",
    [
        (["1/4", "1/4", "1/2"], [(1, 2), (2, 1), (1, 1)], 8),
        (["1/3", "1/3", "1/3"], [(1, 0), (2, 1), (0, 2)], 9),
        (["1/7", "5/7", "1/7"], [(1, 1), (2, 2), (0, 1)], 14),
    ],
    ids=["c0", "c1", "c2"],
)
def test_lemma1_cross_validate(benchmark, probs, support, k_max):
    X = RationalDist(support, probs)
    report = benchmark(empirical_lemma1, LEMMA1_SPEC, X, k_max, cross_validate=True)
    assert report.holds


def test_ruzsa_enumerate(benchmark):
    spec = _spec((1, 3, 3, 4))
    assert benchmark(lambda: sum(1 for _ in ruzsa_enumerate(spec))) == 46200


FIVE = RationalDist([(i,) for i in range(5)], ["1/20", "3/20", "4/20", "5/20", "7/20"])
TWO = RationalDist([(0,), (1,)], ["2/5", "3/5"])


def test_convergence_profile(benchmark):
    ks = list(range(20, 2001, 20))
    assert len(benchmark(convergence_profile, FIVE, ks)) == 100


@pytest.mark.parametrize(
    "dist, ks",
    [
        (FIVE, sorted(random.Random(0).sample(range(20, 2001, 20), 40))),
        (TWO, range(200, 20_001, 200)),
        (FIVE, [2000]),
        (FIVE, [20, 200, 2000]),
    ],
    ids=["k40", "two_outcomes_k100_to_20000", "single_k", "large_gaps"],
)
def test_convergence_profile_shapes(benchmark, dist, ks):
    ks = list(ks)
    assert len(benchmark(convergence_profile, dist, ks)) == len(ks)
