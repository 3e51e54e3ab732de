"""Layer benchmarks for `entroset.projections`, timed with pytest-benchmark.

The tier-1 test run does not collect this file (it is not named
`test_*.py`); pass it explicitly:

    PYTHONPATH=src python -m pytest benches/bench_projections.py \
        --benchmark-only --benchmark-json=out.json

Inputs are seeded and fixed:

* `log_conditional_avg_size` on point sets of 1k, 4k and 14k points in
  {0..5}^6 with T = {6} conditioned on the deep prefix S = {1..5}: the
  term of the last member of a chain cover, where nearly every point is
  its own slice.
* `project_rv` onto S = {1, 3, 5} of distributions on 40 and 3000 points
  of {0..5}^6 with random exact masses.
* `project_set` onto S = {1, 3, 5} of point sets of 1k, 4k and 14k points
  in {0..5}^6 (at most 216 image points).
"""

import random
from fractions import Fraction

import pytest

from entroset import IndexSet, PointSet, RationalDist, project_rv, project_set
from entroset.projections import log_conditional_avg_size

DIM = 6
SPAN = 6


def _points(count: int, seed: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    pts: set[tuple[int, ...]] = set()
    while len(pts) < count:
        pts.add(tuple(rng.randrange(SPAN) for _ in range(DIM)))
    return sorted(pts)


def _dist(count: int, seed: int) -> RationalDist:
    rng = random.Random(seed)
    support = _points(count, seed)
    rng.shuffle(support)
    weights = [rng.randint(1, 12) for _ in support]
    total = sum(weights)
    return RationalDist(support, [Fraction(w, total) for w in weights])


@pytest.mark.parametrize("size", [1000, 4000, 14000])
def test_log_conditional_avg_size_deep_prefix(benchmark, size):
    A = PointSet(DIM, _points(size, seed=size))
    T, S = IndexSet([DIM]), IndexSet(range(1, DIM))
    benchmark.extra_info["points"] = size
    result = benchmark(log_conditional_avg_size, A, T, S)
    assert result >= 0


@pytest.mark.parametrize("support", [40, 3000])
def test_project_rv(benchmark, support):
    X = _dist(support, seed=support)
    benchmark.extra_info["support"] = support
    out = project_rv(X, IndexSet([1, 3, 5]))
    assert sum(out.probs) == 1
    benchmark(project_rv, X, IndexSet([1, 3, 5]))


@pytest.mark.parametrize("size", [1000, 4000, 14000])
def test_project_set(benchmark, size):
    A = PointSet(DIM, _points(size, seed=size))
    benchmark.extra_info["points"] = size
    image = benchmark(project_set, A, IndexSet([1, 3, 5]))
    assert image.dimension == 3 and len(image) <= SPAN**3
