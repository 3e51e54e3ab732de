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
* `as_fraction` and `_ratio`, the one reader of rationals, on 10, 100 and
  1,000 seeded values of each kind: plain "p/q" strings (every rational
  the CLI reads from a benchmark input), signed or spaced strings ("-3/4",
  " 1/2"), Fractions and ints; p/q has q in 1..40 and 0 <= p <= q.
"""

import random
from fractions import Fraction

import pytest

from entroset import FiniteMap, RationalDist, entropy, pushforward, rationalize
from entroset.dist import _ratio, as_fraction

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


def _rationals(kind: str, count: int) -> list:
    rng = random.Random(count)
    pairs = [(rng.randint(0, q), q) for q in (rng.randint(1, 40) for _ in range(count))]
    if kind == "plain":
        return [f"{p}/{q}" for p, q in pairs]
    if kind == "signed":
        return [f"-{p}/{q}" if i % 2 else f" {p}/{q}" for i, (p, q) in enumerate(pairs)]
    if kind == "fraction":
        return [Fraction(p, q) for p, q in pairs]
    return [p for p, _ in pairs]


def _read_all(read, values):
    return [read(v) for v in values]


@pytest.mark.parametrize("count", [10, 100, 1000], ids=["n10", "n100", "n1000"])
@pytest.mark.parametrize("kind", ["plain", "signed", "fraction", "int"])
@pytest.mark.parametrize("read", [as_fraction, _ratio], ids=["as_fraction", "_ratio"])
def test_read_rationals(benchmark, read, kind, count):
    values = _rationals(kind, count)
    out = benchmark(_read_all, read, values)
    assert [Fraction(*r) if isinstance(r, tuple) else r for r in out] == [
        Fraction(v) for v in values]
