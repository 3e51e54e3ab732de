"""End-to-end benchmarks of `entroset.cli.run`, timed with pytest-benchmark.

The tier-1 test run does not collect this file (it is not named
`test_*.py`); pass it explicitly:

    PYTHONPATH=src python -m pytest benches/bench_cli.py \
        --benchmark-only --benchmark-json=out.json

Each round is one in-process `cli.run(argv)` with stdout captured, so it
includes parsing the arguments, reading the JSON inputs, the computation
and writing the output document. Inputs are seeded and fixed:

* `entropy --dist` of a distribution on 16 points of {0..3}^3;
* `check projection --side entropy` of the same distribution against the
  triangle cover {1,2}, {1,3}, {2,3} with weights 1/2.

`test_cold_import` times what every one-shot `entroset` call pays first:
a fresh interpreter that runs `import entroset.cli` and exits, with the
environment (and so PYTHONPATH) of the benchmark run.
"""

import contextlib
import io
import json
import random
import subprocess
import sys

import pytest

from entroset import cli

SUPPORT = 16


def _dist_doc(seed: int) -> dict:
    rng = random.Random(seed)
    grid = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
    support = rng.sample(grid, SUPPORT)
    weights = [rng.randint(1, 12) for _ in support]
    total = sum(weights)
    return {
        "support": [list(x) for x in support],
        "probs": [f"{w}/{total}" for w in weights],
    }


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def inputs(tmp_path):
    dist = _write(tmp_path / "x.json", _dist_doc(seed=SUPPORT))
    cover = _write(
        tmp_path / "c.json",
        {"n": 3, "members": [[1, 2], [1, 3], [2, 3]], "weights": ["1/2"] * 3},
    )
    return dist, cover


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)


def test_entropy(benchmark, inputs):
    dist, _ = inputs
    assert benchmark(_run, ["entropy", "--dist", dist]) == 0


def test_check_projection_entropy(benchmark, inputs):
    dist, cover = inputs
    argv = ["check", "projection", "--cover", cover, "--input", dist, "--side", "entropy"]
    assert benchmark(_run, argv) == 0


def test_cold_import(benchmark):
    argv = [sys.executable, "-c", "import entroset.cli"]
    benchmark.pedantic(subprocess.run, args=(argv,), kwargs={"check": True},
                       rounds=20, warmup_rounds=1)
