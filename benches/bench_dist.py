"""Layer benchmarks of `entroset.dist`, timed with pytest-benchmark.

The tier-1 test run does not collect this file (it is not named
`test_*.py`); pass it explicitly:

    PYTHONPATH=src python -m pytest benches/bench_dist.py \
        --benchmark-only --benchmark-json=out.json

Inputs are seeded and fixed:

* `rationalize` at max_denominator D = 8, 10, 12 and 16 with 3 and 8
  weights. The cost of one call depends strongly on the weights, so each
  timed round rationalizes the same batch of 5 weight vectors, drawn
  uniformly from [0.05, 1) like the `rationalize` ops of the benchmark's
  `solvers` workload.
* `entropy` and `pushforward` on distributions with 16, 256 and 4096
  support points and random exact masses; the map sends x to x // 4.
"""

import random
from fractions import Fraction

import pytest

from entroset import FiniteMap, RationalDist, entropy, pushforward, rationalize

BATCH = 5


def _weight_batch(max_denominator: int, count: int) -> list[list[float]]:
    rng = random.Random(1000 * max_denominator + count)
    return [[rng.uniform(0.05, 1.0) for _ in range(count)] for _ in range(BATCH)]


def _dist(support: int) -> RationalDist:
    rng = random.Random(support)
    weights = [rng.randint(1, 12) for _ in range(support)]
    total = sum(weights)
    return RationalDist([(x,) for x in range(support)], [Fraction(w, total) for w in weights])


def _rationalize_batch(batch, max_denominator):
    return [rationalize(weights, max_denominator) for weights in batch]


@pytest.mark.parametrize("count", [3, 8], ids=["w3", "w8"])
@pytest.mark.parametrize("max_denominator", [8, 10, 12, 16], ids=["d8", "d10", "d12", "d16"])
def test_rationalize(benchmark, max_denominator, count):
    batch = _weight_batch(max_denominator, count)
    benchmark.extra_info["calls_per_round"] = BATCH
    out = benchmark(_rationalize_batch, batch, max_denominator)
    assert all(sum(d.probs) == 1 for d in out)


@pytest.mark.parametrize("support", [16, 256, 4096])
def test_entropy(benchmark, support):
    X = _dist(support)
    assert benchmark(entropy, X) > 0


@pytest.mark.parametrize("support", [16, 256, 4096])
def test_pushforward(benchmark, support):
    X = _dist(support)
    f = FiniteMap({(x,): (x // 4,) for x in range(support)})
    assert len(benchmark(pushforward, f, X)) == support // 4
