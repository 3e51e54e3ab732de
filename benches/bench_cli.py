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

`test_parse` times `cli.run`'s parse step alone (`cli._parse`) over one
plain argv per leaf command: its words, the global options and every one of
its options, with sample values. A round parses all of them once.

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


# a sample value per option type; None is an untyped (string) option
SAMPLE = {int: "4", float: "1e-09", cli._int_list: "1,2", cli._float_list: "0.25,0.75",
          cli._parse_base: "2", None: "x.json"}


def _plain_argvs(level=cli._ROOT, words=()) -> list[list[str]]:
    """One plain argv per leaf of the command table, with every option."""
    if level.run is None:
        return [argv for word, child in level.commands.items()
                for argv in _plain_argvs(child, (*words, word))]
    argv = ["--seed", "1", *words]
    for flag, keywords in level.options.items():
        argv.append(flag)
        if keywords.get("action") != "store_true":
            argv.append(keywords.get("choices", [SAMPLE[keywords.get("type")]])[0])
    return [argv]


def _parse_all(argvs) -> None:
    for argv in argvs:
        cli._parse(argv)


def test_parse(benchmark):
    argvs = _plain_argvs()
    assert all(cli._plain_args(argv) is not None for argv in argvs)
    benchmark(_parse_all, argvs)


def test_cold_import(benchmark):
    argv = [sys.executable, "-c", "import entroset.cli"]
    benchmark.pedantic(subprocess.run, args=(argv,), kwargs={"check": True},
                       rounds=20, warmup_rounds=1)
