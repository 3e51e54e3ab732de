"""Layer benchmarks of `entroset.jsonio`, timed with pytest-benchmark.

The tier-1 test run does not collect this file (it is not named
`test_*.py`); pass it explicitly:

    PYTHONPATH=src python -m pytest benches/bench_jsonio.py \
        --benchmark-only --benchmark-json=out.json

Each decoding round decodes one already-parsed JSON document, so the time
is the element checks and constructors, not `json.load`. Inputs are seeded
and fixed, in the shapes the benchmark's `counting` workload reads:

* `pointset_from_json` of 250, 1000 and 4000 distinct points of {0..5}^6;
* `ineq_spec_from_json` of a cardinality spec on the grids {0..4}^3,
  {0..5}^4 and {0..6}^4 (125, 1296 and 2401 points): the identity table
  against the projection tables onto the 3 or 4 members of the cover by
  all sets of d - 1 coordinates, each with weight 1/(d - 1). Every table
  lists the grid in one key order, so the rhs tables share the lhs's key
  column; `test_ineq_spec_from_json_shuffled` decodes the same spec with
  each rhs table's entries in a seeded shuffled order, so none does;
* `dist_from_json` of a distribution on 4, 40, 400 and 4000 points of
  dimension 2, with probabilities w_i / sum(w) for seeded weights w_i in
  1..30, written reduced, so their denominators are mixed; and
  `dist_to_json` of the decoded distribution, its counts written back.

`load_json` reads and parses a file written to `tmp_path` with
`json.dumps`: the distribution on 4 points (89 bytes) and the point sets
of 1000 and 4000 points (20 KB and 80 KB), so both the fixed cost of a
read and its slope in bytes are on record.

`dump_json` writes documents shaped like the workloads' output: a
`project` output of 250, 1000 and 4000 points of dimension 6, a
`ruzsa converge` report of 40 and 100 rows, and a `check lemma1` report
(6 rows).
"""

import json
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from entroset import FiniteMap, InequalitySpec, RationalDist, empirical_lemma1
from entroset.jsonio import (
    dist_from_json,
    dist_to_json,
    dump_json,
    ineq_spec_from_json,
    load_json,
    pointset_from_json,
)
from entroset.ruzsa import convergence_profile

DIM = 6
SPAN = 6


def _pointset_doc(count: int, seed: int) -> dict:
    rng = random.Random(seed)
    pts: set[tuple[int, ...]] = set()
    while len(pts) < count:
        pts.add(tuple(rng.randrange(SPAN) for _ in range(DIM)))
    return {"dimension": DIM, "points": [list(p) for p in sorted(pts)]}


def _table(grid, indices) -> dict:
    return {"table": [[list(x), [x[i - 1] for i in indices]] for x in grid]}


def _spec_doc(side: int, d: int, shuffle: bool = False) -> dict:
    grid = list(product(range(side), repeat=d))
    members = list(combinations(range(1, d + 1), d - 1))
    rng = random.Random(side)
    rhs = [_table(rng.sample(grid, len(grid)) if shuffle else grid, m) for m in members]
    return {
        "lhs_map": _table(grid, range(1, d + 1)),
        "rhs_maps": rhs,
        "coefficients": [f"1/{d - 1}"] * len(members),
    }


@pytest.mark.parametrize("size", [250, 1000, 4000])
def test_pointset_from_json(benchmark, size):
    doc = _pointset_doc(size, seed=size)
    benchmark.extra_info["points"] = size
    A = benchmark(pointset_from_json, doc)
    assert len(A) == size


@pytest.mark.parametrize("side,d", [(5, 3), (6, 4), (7, 4)], ids=["g125", "g1296", "g2401"])
def test_ineq_spec_from_json(benchmark, side, d):
    doc = _spec_doc(side, d)
    benchmark.extra_info["domain"] = side**d
    spec = benchmark(ineq_spec_from_json, doc)
    assert len(spec.domain) == side**d


@pytest.mark.parametrize("side,d", [(5, 3), (6, 4), (7, 4)], ids=["g125", "g1296", "g2401"])
def test_ineq_spec_from_json_shuffled(benchmark, side, d):
    doc = _spec_doc(side, d, shuffle=True)
    benchmark.extra_info["domain"] = side**d
    spec = benchmark(ineq_spec_from_json, doc)
    assert spec == ineq_spec_from_json(_spec_doc(side, d))


def _dist_doc(size: int, seed: int) -> dict:
    rng = random.Random(seed)
    weights = [rng.randint(1, 30) for _ in range(size)]
    total = sum(weights)
    return {
        "support": [[i, i % 7] for i in range(size)],
        "probs": [str(Fraction(w, total)) for w in weights],
    }


@pytest.mark.parametrize("size", [4, 40, 400, 4000])
def test_dist_from_json(benchmark, size):
    doc = _dist_doc(size, seed=size)
    benchmark.extra_info["support"] = size
    X = benchmark(dist_from_json, doc)
    assert len(X) == size


@pytest.mark.parametrize("size", [4, 40, 400, 4000])
def test_dist_to_json(benchmark, size):
    X = dist_from_json(_dist_doc(size, seed=size))
    benchmark.extra_info["support"] = size
    doc = benchmark(dist_to_json, X)
    assert doc == _dist_doc(size, seed=size)


LOAD_DOCS = {
    "dist4": lambda: _dist_doc(4, seed=4),
    "points1000": lambda: _pointset_doc(1000, seed=1000),
    "points4000": lambda: _pointset_doc(4000, seed=4000),
}


@pytest.mark.parametrize("shape", list(LOAD_DOCS))
def test_load_json(benchmark, tmp_path, shape):
    doc = LOAD_DOCS[shape]()
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    benchmark.extra_info["bytes"] = path.stat().st_size
    assert benchmark(load_json, str(path)) == doc


def _converge_doc(rows: int) -> dict:
    X = RationalDist([[0], [1], [2]], ["1/6", "1/3", "1/2"])
    return {"rows": convergence_profile(X, [6 * (i + 1) for i in range(rows)])}


def _lemma1_doc() -> dict:
    X = RationalDist([[0, 0], [0, 1], [1, 0], [1, 1]], ["1/4"] * 4)
    maps = [FiniteMap({x: tuple(x[i] for i in S) for x in X.support})
            for S in ((0, 1), (0,), (1,))]  # the identity and both coordinates
    return empirical_lemma1(InequalitySpec(maps[0], maps[1:], [1, 1]), X, 24).to_json()


DUMP_DOCS = {
    "project250": lambda: _pointset_doc(250, seed=250),
    "project1000": lambda: _pointset_doc(1000, seed=1000),
    "project4000": lambda: _pointset_doc(4000, seed=4000),
    "converge40": lambda: _converge_doc(40),
    "converge100": lambda: _converge_doc(100),
    "lemma1": _lemma1_doc,
}


@pytest.mark.parametrize("shape", list(DUMP_DOCS))
def test_dump_json(benchmark, shape):
    doc = DUMP_DOCS[shape]()
    expected = json.dumps(doc, indent=2)
    benchmark.extra_info["bytes"] = len(expected)
    assert benchmark(dump_json, doc) == expected
