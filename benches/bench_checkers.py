"""Layer benchmarks for `entroset.checkers`, timed with pytest-benchmark.

The tier-1 test run does not collect this file (it is not named
`test_*.py`); pass it explicitly:

    PYTHONPATH=src python -m pytest benches/bench_checkers.py \
        --benchmark-only --benchmark-json=out.json

Inputs are seeded and fixed. Every check below is far from a tie, so its
float slack decides, except where noted:

* `check_cardinality`: the Loomis-Whitney spec (the identity against the
  three pair projections with coefficients 1/2) on random point sets of
  100, 400 and 1600 points of {0..s-1}^3, s = 6, 10, 16; the maps are
  tables over the whole grid.
* `check_entropy`: the same spec on distributions over 40, 300 and 2000
  points of {0..s-1}^3 with random exact masses.
* `check_shearer`: the four triples of {1..4}, a uniform 3-cover, on
  random point sets of 250, 1000 and 4000 points of {0..7}^4 (counts with
  integer coefficients, so the comparison is exact) and on distributions
  over 40, 300 and 2000 of those points.
* `check_projection_theorem`: a fixed fractional cover of {1..4} with
  weights 1/2 and 1/3 on the same point sets and distributions; the set
  side takes conditional average sizes.
* One in-band tie per side, which prices the exact comparison: a product
  set of 2 * 3 * 5 * 7 points under the pair cover of {1..4} with weights
  1/3 (sets), and the chain cover {1}, {2}, {3}, {4} on a distribution
  over 300 points (entropy).
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from entroset import (
    CoverSpec,
    FiniteMap,
    InequalitySpec,
    PointSet,
    RationalDist,
    check_cardinality,
    check_entropy,
    check_projection_theorem,
    check_shearer,
)

SPANS = {100: 6, 400: 10, 1600: 16}
TRIPLES = CoverSpec(4, list(combinations(range(1, 5), 3)))
FRACTIONAL = CoverSpec(
    4, [[1, 2], [2, 3], [3, 4], [1, 4], [1, 3], [2, 4]],
    ["1/2", "1/2", "1/2", "1/2", "1/3", "1/3"],
)


def _points(count: int, span: int, dim: int, seed: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    pts: set[tuple[int, ...]] = set()
    while len(pts) < count:
        pts.add(tuple(rng.randrange(span) for _ in range(dim)))
    return sorted(pts)


def _dist(points, seed: int) -> RationalDist:
    rng = random.Random(seed)
    weights = [rng.randint(1, 12) for _ in points]
    total = sum(weights)
    return RationalDist(points, [Fraction(w, total) for w in weights])


def _loomis_whitney(span: int) -> InequalitySpec:
    grid = list(product(range(span), repeat=3))
    pairs = [(0, 1), (0, 2), (1, 2)]
    return InequalitySpec(
        FiniteMap.identity(grid),
        [FiniteMap({x: (x[i], x[j]) for x in grid}) for i, j in pairs],
        ["1/2", "1/2", "1/2"],
    )


@pytest.mark.parametrize("size", [100, 400, 1600])
def test_check_cardinality(benchmark, size):
    span = SPANS[size]
    spec, A = _loomis_whitney(span), _points(size, span, 3, seed=size)
    benchmark.extra_info["points"] = size
    report = benchmark(check_cardinality, spec, A)
    assert report.verdict == "holds"


@pytest.mark.parametrize("support", [40, 300, 2000])
def test_check_entropy(benchmark, support):
    span = 16
    spec = _loomis_whitney(span)
    X = _dist(_points(support, span, 3, seed=support), seed=support)
    benchmark.extra_info["support"] = support
    report = benchmark(check_entropy, spec, X)
    assert report.verdict == "holds"


@pytest.mark.parametrize("size", [250, 1000, 4000])
def test_check_shearer_sets(benchmark, size):
    A = PointSet(4, _points(size, 8, 4, seed=size))
    benchmark.extra_info["points"] = size
    report = benchmark(check_shearer, A, TRIPLES, 3, "sets")
    assert report.verdict == "holds"


@pytest.mark.parametrize("support", [40, 300, 2000])
def test_check_shearer_entropy(benchmark, support):
    X = _dist(_points(support, 8, 4, seed=support), seed=support)
    benchmark.extra_info["support"] = support
    report = benchmark(check_shearer, X, TRIPLES, 3, "entropy")
    assert report.verdict == "holds"


@pytest.mark.parametrize("size", [250, 1000, 4000])
def test_check_projection_sets(benchmark, size):
    A = PointSet(4, _points(size, 8, 4, seed=size))
    benchmark.extra_info["points"] = size
    report = benchmark(check_projection_theorem, A, FRACTIONAL, "sets")
    assert report.verdict == "holds"


@pytest.mark.parametrize("support", [40, 300, 2000])
def test_check_projection_entropy(benchmark, support):
    X = _dist(_points(support, 8, 4, seed=support), seed=support)
    benchmark.extra_info["support"] = support
    report = benchmark(check_projection_theorem, X, FRACTIONAL, "entropy")
    assert report.verdict == "holds"


def test_tie_sets(benchmark):
    A = PointSet(4, list(product(range(2), range(3), range(5), range(7))))
    cover = CoverSpec(4, list(combinations(range(1, 5), 2)), ["1/3"] * 6)
    report = benchmark(check_projection_theorem, A, cover, "sets")
    assert report.verdict == "holds" and abs(report.slack) < 1e-9


def test_tie_entropy(benchmark):
    X = _dist(_points(300, 8, 4, seed=300), seed=300)
    chain = CoverSpec(4, [[1], [2], [3], [4]], [1, 1, 1, 1])
    report = benchmark(check_projection_theorem, X, chain, "entropy")
    assert report.verdict == "holds" and abs(report.slack) < 1e-9
