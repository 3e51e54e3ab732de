"""Layer benchmarks of `entroset.covers`, timed with pytest-benchmark.

The tier-1 test run does not collect this file (it is not named
`test_*.py`); pass it explicitly:

    PYTHONPATH=src python -m pytest benches/bench_covers.py \
        --benchmark-only --benchmark-json=out.json

Inputs are seeded and fixed: `min_fractional_cover` of 3n random members
of {1..n}, each of 2 to n//2 elements, at n = 6, 9 and 12 (18, 27 and 36
members), redrawn until every element is covered. The simplex tableau
has n rows and 3n + 2n + 1 columns, so the cost grows with n.
"""

import random

import pytest

from entroset import min_fractional_cover


def _members(n: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    while True:
        members = [sorted(rng.sample(range(1, n + 1), rng.randint(2, n // 2)))
                   for _ in range(3 * n)]
        if set().union(*map(set, members)) == set(range(1, n + 1)):
            return members


@pytest.mark.parametrize("n", [6, 9, 12], ids=["n6", "n9", "n12"])
def test_min_fractional_cover(benchmark, n):
    members = _members(n, seed=n)
    benchmark.extra_info["members"] = len(members)
    solution = benchmark(min_fractional_cover, n, members)
    assert all(s >= 1 for s in solution.certificate)
