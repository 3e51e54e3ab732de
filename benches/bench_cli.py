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

`test_demo` times `--seed 5 demo`, which builds its spec once per process
and then reads it from the cache.

`test_parse` times `cli.run`'s parse step alone (`cli._parse`) over one
plain argv per leaf command: its words, the global options and every one of
its options, with sample values. A round parses all of them once.

`test_cold_import` times what every one-shot `entroset` call pays first:
a fresh interpreter that runs `import entroset.cli` and exits, with the
environment (and so PYTHONPATH) of the benchmark run.

`test_size_series` times commands whose inputs grow, so that most of what
they allocate is live until the command ends:

* `check cardinality` of the identity against the three projections onto
  pairs of coordinates, each with weight 1/2 (Loomis-Whitney), on the grids
  {0..9}^3, {0..19}^3 and {0..29}^3 (1000, 8000 and 27000 points), with a
  seeded half of the grid as the input set;
* `condsize --t 4 --s 1,2,3` of 1000, 10000 and 100000 distinct seeded
  points of {0..17}^4.

`test_repeated_input` times `project --pointset --indices 1,2` of 250, 1000
and 4000 distinct seeded points of {0..9}^5, read by a first call (the kept
decoded files are dropped before each round, so the file is read, parsed
and decoded) and by a repeat (the file is read and its decoded point set is
the one kept from the call before).

`test_first_collection_after` times the same commands followed by the
first cyclic-collector pass that the allocations after them set off, so a
collector pass saved inside the command and paid just after it would show.
`extra_info` records that pass alone: its generation and milliseconds,
read with `gc.callbacks`, as the median over the rounds.
"""

import contextlib
import gc
import io
import json
import random
import statistics
import subprocess
import sys
from itertools import combinations, product
from time import perf_counter

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


def test_demo(benchmark):
    assert benchmark(_run, ["--seed", "5", "demo"]) == 0


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


# {0..side-1}^3 for the cardinality specs; condsize points are drawn from {0..17}^4
GRID_SIDES = {"g1000": 10, "g8000": 20, "g27000": 30}
CONDSIZE_POINTS = {"p1000": 1000, "p10000": 10000, "p100000": 100000}
COND_SPAN = 18


def _cardinality_argv(tmp_path, side: int) -> list[str]:
    grid = list(product(range(side), repeat=3))
    pairs = list(combinations(range(3), 2))
    spec = {
        "lhs_map": {"table": [[x, x] for x in grid]},
        "rhs_maps": [{"table": [[x, [x[i] for i in pair]] for x in grid]} for pair in pairs],
        "coefficients": ["1/2"] * len(pairs),
    }
    subset = sorted(random.Random(side).sample(grid, len(grid) // 2))
    return ["check", "cardinality", "--spec", _write(tmp_path / "spec.json", spec),
            "--input", _write(tmp_path / "a.json", {"dimension": 3, "points": subset})]


def _condsize_argv(tmp_path, count: int) -> list[str]:
    codes = random.Random(count).sample(range(COND_SPAN**4), count)
    points = [[c // COND_SPAN**i % COND_SPAN for i in range(4)] for c in sorted(codes)]
    path = _write(tmp_path / "a.json", {"dimension": 4, "points": points})
    return ["condsize", "--pointset", path, "--t", "4", "--s", "1,2,3"]


@pytest.fixture(params=[*GRID_SIDES, *CONDSIZE_POINTS])
def sized_argv(request, tmp_path):
    if request.param in GRID_SIDES:
        return _cardinality_argv(tmp_path, GRID_SIDES[request.param])
    return _condsize_argv(tmp_path, CONDSIZE_POINTS[request.param])


def test_size_series(benchmark, sized_argv):
    assert benchmark(_run, sized_argv) == 0


def _first_pass() -> tuple[int, float]:
    """(generation, ms) of the next collector pass, set off by allocating lists."""
    assert gc.isenabled()
    marks = []

    def note(phase, info):
        marks.append((info["generation"], perf_counter()))

    gc.callbacks.append(note)
    try:
        kept = []
        while len(marks) < 2:  # the pass's "start" and "stop"
            kept.append([])
    finally:
        gc.callbacks.remove(note)
    (generation, start), (_, stop) = marks
    return generation, (stop - start) * 1e3


def test_first_collection_after(benchmark, sized_argv):
    passes = []

    def command_then_first_pass():
        code = _run(sized_argv)
        passes.append(_first_pass())
        return code

    assert benchmark(command_then_first_pass) == 0
    benchmark.extra_info["first_pass_generation"] = statistics.median(g for g, _ in passes)
    benchmark.extra_info["first_pass_ms"] = statistics.median(ms for _, ms in passes)


REPEATED_POINTS = {"a250": 250, "a1000": 1000, "a4000": 4000}


def _first_call(argv) -> int:
    cli._decoded.cache_clear()
    return _run(argv)


@pytest.mark.parametrize("call", [_first_call, _run], ids=["first", "repeat"])
@pytest.mark.parametrize("size", REPEATED_POINTS)
def test_repeated_input(benchmark, tmp_path, size, call):
    codes = random.Random(size).sample(range(10**5), REPEATED_POINTS[size])
    points = [[c // 10**i % 10 for i in range(5)] for c in sorted(codes)]
    path = _write(tmp_path / "a.json", {"dimension": 5, "points": points})
    argv = ["project", "--pointset", path, "--indices", "1,2"]
    assert _run(argv) == 0
    assert benchmark(call, argv) == 0
