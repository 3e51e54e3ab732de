"""The benchmarks still run against the current API.

The layer benchmarks under benches/ are not named `test_*.py`, so the
tier-1 run never collects them on its own; this runs each benchmark once,
untimed, in a subprocess. The end-to-end harness under bench/ is checked
by running its self-test once, also in a subprocess, and the output dump
harness `tests/dump_outputs.py` is run once on one seed, with its help and
usage-error command lines, its fixed `rationalize` command lines and its
fixed inequality-spec and term command lines. The A/B timing harness
`tests/ab_ops.py` is run once, for one pass, with this `src/` on both sides,
and the line counter `tests/src_lines.py` once on this `src/` and once on a
fixture of known counts.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_layer_benches_run():
    pytest.importorskip("pytest_benchmark")
    benches = sorted(str(p) for p in (ROOT / "benches").glob("bench_*.py"))
    assert benches
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable", *benches],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]


def test_bench_selftest_runs():
    """`bench/selftest.py` finds every name it needs in the current src/."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]


def test_dump_outputs_runs(tmp_path):
    """`tests/dump_outputs.py` dumps every op of one seed, and its diff tells
    an identical dump from one with a changed byte."""
    script = str(ROOT / "tests" / "dump_outputs.py")
    dump = tmp_path / "a.jsonl"
    done = subprocess.run(
        [sys.executable, script, "dump", str(ROOT / "src"), str(dump), "--seeds", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    records = [json.loads(line) for line in dump.read_text().splitlines()]
    assert {r["workload"] for r in records} == {
        "counting", "entropy", "solvers", "usage", "rationalize", "specs", "terms", "guards",
        "commute", "covers", "prefixes", "table:counting", "table:entropy", "table:solvers"}
    assert {r["code"] for r in records
            if r["workload"] not in ("usage", "specs", "guards", "covers")} == {0}
    covers = [r for r in records if r["workload"] == "covers"]
    assert {r["code"] for r in covers} == {0, 1, 2}
    guards = [r for r in records if r["workload"] == "guards"]
    assert [(r["code"], r["stdout"]) for r in guards] == [(2, "")] * 5
    assert all(r["stderr"].endswith(" exceeds the bit limit 131072\n") for r in guards)
    # every comparison of counts is exact, whatever its coefficients
    cardinality = [r for r in records if r["kind"] == "cardinality"]
    assert len(cardinality) > 0 and {r["workload"] for r in cardinality} == {
        "counting", "table:counting"}
    assert all(json.loads(r["stdout"])["provenance"] == "exact"
               for r in cardinality if r["workload"] == "counting")
    assert all("\nprovenance: exact\n" in r["stdout"]
               for r in cardinality if r["workload"] == "table:counting")
    specs = {r["kind"]: r for r in records if r["workload"] == "specs"}
    assert {r["code"] for r in specs.values()} == {0, 2}
    assert specs["check cardinality bool in rhs key <a>"]["stderr"] == (
        "error: element coordinates must be integers: [1, True]\n")
    mixed = ["check cardinality mixed lengths <a>", "check entropy mixed lengths <d>",
             "check lemma1 mixed lengths <d> --kmax 4"]
    assert [json.loads(specs[kind]["stdout"])["verdict"] for kind in mixed] == ["holds"] * 3
    usage = {r["kind"]: r for r in records if r["workload"] == "usage"}
    assert usage["--help"]["stdout"].startswith("usage: entroset [-h]")
    assert usage["entropy"]["stderr"].endswith("required: --dist\nSystemExit(2)")

    changed = tmp_path / "b.jsonl"
    records[-1]["stdout"] += " "
    changed.write_text("".join(json.dumps(r) + "\n" for r in records))
    diffs = [subprocess.run([sys.executable, script, "diff", str(dump), str(other)],
                            capture_output=True, text=True) for other in (dump, changed)]
    assert [d.returncode for d in diffs] == [0, 1], [d.stdout for d in diffs]


def test_ab_ops_runs(tmp_path):
    """`tests/ab_ops.py` loads one `src/` twice, finds both sides' outputs
    identical, and ends with its JSON line; a side that prints one more
    byte is told apart, and over 3 passes each ratio is a per-pass median."""
    src = str(ROOT / "src")
    script = str(ROOT / "tests" / "ab_ops.py")
    done = subprocess.run([sys.executable, script, src, src, "entropy", "1", "2"],
                          cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["outputs_identical"] and result["passes"] == 1
    assert result["a"]["samples"] == result["b"]["samples"] == result["ops"] > 0
    assert set(result["ratio_by_kind"]) >= {"entropy", "demo"}
    # one ratio per op kind and size class, each kind's classes among them
    by_class = result["ratio_by_class"]
    assert {key.split("/")[0] for key in by_class} == set(result["ratio_by_kind"])
    assert all(ratio > 0 for ratio in by_class.values())
    # with one pass, every kind's and class's quartiles are its one ratio
    assert set(result["samples_by_kind"]) == set(result["ratio_quartiles_by_kind"]) == {
        *result["ratio_by_kind"], *by_class}
    assert sum(result["samples_by_kind"][kind] for kind in result["ratio_by_kind"]) == (
        result["ops"])
    assert all(result["ratio_quartiles_by_kind"][key] == [ratio] * 3
               for key, ratio in {**result["ratio_by_kind"], **by_class}.items())

    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "entroset", changed / "entroset",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "entroset" / "cli.py"
    cli.write_text(cli.read_text().replace("print(text, file=stream)",
                                           "print(text + ' ', file=stream)"))
    done = subprocess.run([sys.executable, script, src, str(changed), "entropy", "3", "2"],
                          cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 1, done.stdout[-4000:] + done.stderr[-4000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert not result["outputs_identical"]
    # each ratio is the median of 3 per-pass ratios, so it lies within their
    # quartiles; the ratios of summed times sit beside the medians
    ratios = {**result["ratio_by_kind"], **result["ratio_by_class"]}
    assert all(q1 <= ratios[key] <= q3
               for key, (q1, _, q3) in result["ratio_quartiles_by_kind"].items())
    assert set(result["summed_ratio_by_kind"]) == set(result["ratio_by_kind"])
    assert set(result["summed_ratio_by_class"]) == set(result["ratio_by_class"])
    assert set(ratios) == set(result["ratio_quartiles_by_kind"])
    assert result["ratio"] > 0 and result["summed_ratio"] > 0


def test_src_lines_counts(tmp_path):
    """`tests/src_lines.py` leaves docstrings, comments and blank lines out of
    the code lines, counts each line of a continued statement, and totals
    every module of this `src/`."""
    script = str(ROOT / "tests" / "src_lines.py")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "fixture.py").write_text(
        '"""A module docstring\nof two lines."""\n'
        "\n"
        "# a comment\n"
        "total = (1 +  # a trailing comment\n"
        "         2)\n"
        "\n"
        "def f():\n"
        '    """A function docstring."""\n'
        "    return total\n")
    done = subprocess.run([sys.executable, script, str(tmp_path)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    counts = json.loads(done.stdout.splitlines()[-1])
    assert counts == {"modules": {"pkg/fixture.py": {"lines": 10, "code": 4}},
                      "lines": 10, "code": 4}
    assert "pkg/fixture.py: 10 lines, 4 code lines" in done.stdout

    done = subprocess.run([sys.executable, script, str(ROOT / "src")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    counts = json.loads(done.stdout.splitlines()[-1])
    modules = counts["modules"]
    assert "entroset/checkers.py" in modules and "entroset/projections.py" in modules
    assert counts["lines"] == sum(m["lines"] for m in modules.values())
    assert counts["code"] == sum(m["code"] for m in modules.values())
    assert all(0 < m["code"] < m["lines"] for m in modules.values())
