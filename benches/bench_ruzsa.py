"""Layer benchmarks of `entroset.ruzsa`, timed with pytest-benchmark.

The tier-1 test run does not collect this file (it is not named
`test_*.py`); pass it explicitly:

    PYTHONPATH=src python -m pytest benches/bench_ruzsa.py \
        --benchmark-only --benchmark-json=out.json

Inputs are fixed occurrence counts on the outcomes (0,), (1,), ...:

* `verify_commutation` under the pairwise merge map x -> x // 2, at
  |set| = 1,260 (counts 2,3,4), 9,240 (3,3,5) and 45,045 (2,4,8): both
  sides are built as image sets of partial arrangements, so the cost
  follows the image set (126, 462 and 3,003 vectors);
* `verify_commutation` under the identity at |set| = 45,045 (2,4,8),
  where nothing merges and the image set is the whole source set;
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
    RationalDist,
    RuzsaSpec,
    convergence_profile,
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
