"""Dump, and diff, what `entroset.cli.run` prints for every benchmark op.

Usage, from the root of a checkout:

    python tests/dump_outputs.py dump SRC OUT [--seeds 1 2 3 7 84]
    python tests/dump_outputs.py diff OLD NEW

`dump` generates the inputs of every workload at each seed with
`bench/gen.py` (imported, never changed), runs each op through
`cli.run` of the entroset package under SRC (the `src/` directory of any
checkout), and writes one JSON line per op: workload, seed, op id, kind,
exit code, stdout and stderr. Each op is run a second time with
`--format table` prepended and recorded under workload "table:<name>", so
both output formats are pinned. The input directory's path is replaced by
`<work>` in what is printed, so two dumps compare byte for byte. `dump`
also runs USAGE, a fixed list of command lines that no benchmark op uses
(`--help` at every parser level, usage errors, and options that argparse
reads but the command table does not), with COLUMNS fixed at 80; they are
dumped as workload "usage", seed 0. It runs RATIONALIZE too, fixed
`rationalize` command lines beyond the benchmark's sizes (which are D 8,
10 and 12 with 3-8 weights), dumped as workload "rationalize", seed 0,
and SPEC_OPS, `check cardinality` and `check entropy` over fixed specs whose
tables are written in one key order, reordered, with one fault each, or
with map values of two lengths (also under `check lemma1`), dumped as
workload "specs", seed 0, and TERM_OPS, fixed command lines
whose terms no benchmark op builds (the benchmark's `condentropy` ops take
disjoint S and C, in base 2 only), dumped as workload "terms", seed 0, and
GUARD_OPS, `ruzsa` and `check lemma1` command lines with k just past the
bit limit on k, dumped as workload "guards", seed 0, and COMMUTE_OPS,
`ruzsa commute` and `check lemma1 --cross-validate` command lines past the
benchmark's instances (merge-heavy counts, constant and injective maps,
vectors of length 63 and 400, and lhs maps that are not the identity),
dumped as workload "commute", seed 0, and COVER_OPS, `cover check`, `cover min`,
`check shearer` and `check projection` command lines on covers that hold, are
under-weighted, are not uniform, miss an element, have no weights, or have a k
or a least coverage past the float range, dumped as workload "covers", seed 0,
and PREFIX_OPS, `check projection` on a point set of dimension 5 and a law on
it, in both bases, with a cover whose prefixes S* are 0 to 4 deep (nested,
repeated, and zero-weight at depths 0 and 4), and one `check shearer`,
dumped as workload "prefixes", seed 0.
`diff` exits 1 when two dumps differ in any op. It prints the number of
differences, then each distinct pair of changed stdout or stderr lines
with the number of times it occurs, most common first, each cut to the
span that differs with about 20 characters of context on either side,
and then the first differences in full. A change that alters one field
on purpose shows there that nothing else moved.

The name does not match `test_*.py`, so pytest never collects this file;
`tests/test_benches.py` runs it once.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 7, 84)
FIELDS = ("code", "stdout", "stderr")

# every parser level, for `--help` at each
LEVELS = (
    "", "entropy", "pushforward", "suitable", "rationalize",
    "ruzsa", "ruzsa size", "ruzsa enum", "ruzsa commute", "ruzsa lift", "ruzsa bound",
    "ruzsa converge", "project", "condsize", "condentropy", "cover", "cover check",
    "cover min", "check", "check entropy", "check cardinality", "check shearer",
    "check projection", "check lemma1", "witness", "witness lemma2", "demo",
)
# <d> and <c> stand for a distribution file and a cover file
USAGE = [level.split() + ["--help"] for level in LEVELS] + [
    [],                                                    # no command
    ["ruzsa"],                                             # no subcommand
    ["nosuch"],                                            # unknown command
    ["entropy"],                                           # missing required option
    ["ruzsa", "lift", "--dist", "<d>", "--k", "2"],
    ["entropy", "--dist", "<d>", "--bogus", "1"],          # unknown option
    ["ruzsa", "size", "--dist", "<d>", "--k", "two"],      # bad int
    ["rationalize", "--weights", "1,x", "--max-denominator", "4"],
    ["--base", "10", "entropy", "--dist", "<d>"],          # bad type
    ["--format", "xml", "demo"],                           # bad choice
    ["check", "projection", "--cover", "<c>", "--input", "<d>", "--side", "both"],
    ["entropy", "--di", "<d>"],                            # abbreviation
    ["--se", "4", "demo"],
    ["entropy", "--dist=<d>"],                             # --name=value
    ["ruzsa", "size", "--dist", "<d>", "--k", "2", "--k", "3"],  # repeated option
    ["ruzsa", "size", "--dist", "<d>", "--k", "-3"],       # negative number value
    ["entropy", "--dist", "<d>", "--seed", "1"],           # global option after command
    ["entropy", "--dist"],                                 # missing value
    ["entropy", "--dist", "<d>", "extra"],                 # extra token
    ["--seed", "1", "--", "demo"],
    ["-h"],
    ["--tolerance", "1e-9", "demo"],                       # an option that is gone
]
# (weights, D): 9-12 seeded weights at D 8, 12 and 16, equal weights (exact
# ties), zero weights, and sums past the float range
_RNG = random.Random(20)
RATIONALIZE = [
    (",".join(f"{_RNG.uniform(0.05, 1.0):.6f}" for _ in range(count)), d)
    for d in (8, 12, 16) for count in (9, 10, 11, 12)
] + [(",".join(["1"] * count), d) for d, count in ((4, 7), (5, 9), (6, 7), (6, 11))] + [
    ("0,1,2,0.5,0", 8), ("0,0,3", 12), (",".join(["1e308"] * 10), 12), ("1e308,5e307,1", 16),
]
UNIFORM2 = {"support": [[0], [1]], "probs": ["1/2", "1/2"]}
# inequality specs over the grid {0,1}^2: the identity against both coordinates,
# the tables written in one key order, reordered, with one fault each, and with
# values of two lengths


def _spec(*tables) -> dict:
    return {"lhs_map": {"table": tables[0]}, "rhs_maps": [{"table": t} for t in tables[1:]],
            "coefficients": ["1"] * (len(tables) - 1)}


GRID = [[0, 0], [0, 1], [1, 0], [1, 1]]
IDENTITY = [[x, list(x)] for x in GRID]
FIRST, SECOND = ([[x, [x[i]]] for x in GRID] for i in (0, 1))
SPECS = {
    "same order": _spec(IDENTITY, FIRST, SECOND),
    "reordered": _spec(IDENTITY, FIRST[::-1], SECOND[2:] + SECOND[:2]),
    "identity rhs": _spec(IDENTITY, IDENTITY, FIRST),
    "other domain": _spec(IDENTITY, FIRST[:3], SECOND),
    "bool in rhs key": _spec(IDENTITY, FIRST[:3] + [[[1, True], [1]]], SECOND),
    "float in lhs value": _spec(IDENTITY[:3] + [[[1, 1], [1, 1.0]]], FIRST, SECOND),
    "duplicate rhs key": _spec(IDENTITY, FIRST, SECOND[:3] + [[[1, 0], [0]]]),
    "3-entry rhs pair": _spec(IDENTITY, FIRST, SECOND[:3] + [[[1, 1], [1], [1]]]),
    "string in rhs value": _spec(IDENTITY, [[[0, 0], ["x"]]] + FIRST[1:], SECOND),
    "bad value before bad pair": _spec(IDENTITY, [[[0, 0], [None]]] + FIRST[1:] + [[0]], SECOND),
    # the identity and the first coordinate, each with values of two lengths; it holds
    "mixed lengths": _spec([[x, x[:1] if x == [0, 0] else x] for x in GRID],
                           [[x, x[:1] * (1 + x[0])] for x in GRID], SECOND),
}
# (spec, command, input): <a> is a point set of the grid, <h> half of it,
# <x> a point off the grid; <d> is uniform on the grid
SPEC_OPS = [
    *((name, command, data) for name in SPECS
      for command, data in (("cardinality", "<a>"), ("entropy", "<d>"))),
    ("same order", "cardinality", "<h>"),
    ("reordered", "cardinality", "<x>"),
    ("mixed lengths", "lemma1", "<d>", "--kmax", "4"),
]
TRIANGLE = {"n": 3, "members": [[1, 2], [1, 3], [2, 3]], "weights": ["1/2", "1/2", "1/2"]}
# conditional terms with overlapping or equal index sets, in both bases, and the
# cover checkers' terms: <a> is a point set of {0,1,2}^3, <d> a law on {0,1}^3
TERM_DOCS = {
    "<a>": {"dimension": 3, "points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 0, 0],
                                       [0, 2, 0], [0, 0, 2], [1, 1, 0], [1, 0, 1], [0, 1, 1]]},
    "<d>": {"support": [[a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)],
            "probs": ["1/16", "1/8", "1/16", "1/4", "1/8", "1/16", "3/16", "1/8"]},
    "<c>": TRIANGLE,
}
TERM_OPS = [
    *(["--base", base, "condentropy", "--dist", "<d>", "--s", s, "--c", c]
      for base in ("2", "e")
      for s, c in (("1,2", "2,3"), ("1", "1,2"), ("2,3", "3"), ("2", "2"), ("1,3", "1,3"))),
    *(["condsize", "--pointset", "<a>", "--t", t, "--s", s]
      for t, s in (("1,2", "2,3"), ("1", "1,2"), ("1,2,3", "3"), ("2", "2"))),
    *(["--base", base, "check", "projection", "--cover", "<c>", "--input", data, "--side", side]
      for base in ("2", "e") for data, side in (("<a>", "sets"), ("<d>", "entropy"))),
    ["--base", "e", "check", "shearer", "--cover", "<c>", "--input", "<d>", "--side", "entropy",
     "--k", "2"],
]

# k just past the bit limit on k * bit_length(d): 65538 * 2 bits for <d>, uniform
# on two points, and 12288 * 13 bits for <r>, of denominator 4096, whose lemma1
# rows are 3. Each is cheap to compute too, so a checkout without the limit
# dumps them in seconds.
GUARD_DOCS = {
    "<d>": UNIFORM2,
    "<r>": {"support": [[0], [1]], "probs": ["1/4096", "4095/4096"]},
    "<s>": _spec([[[0], [0]], [[1], [1]]], [[[0], [0]], [[1], [0]]]),
}
GUARD_OPS = [
    *(["ruzsa", command, "--dist", "<d>", "--k", "65538"] for command in ("size", "bound", "enum")),
    ["ruzsa", "converge", "--dist", "<d>", "--ks", "2,65538"],
    ["check", "lemma1", "--spec", "<s>", "--input", "<r>", "--kmax", "12288"],
]

# `ruzsa commute` past the benchmark's instances: merge-heavy counts (2 x 6, 3 x 4 and
# ten 1s) under the map that merges them, under a constant map and (3 x 4 only: the
# other two have millions of images) under an injective reordering, and vectors of
# length 400 and 63 over two outcomes, swapped; then `check lemma1 --cross-validate`
# with lhs maps that merge outcomes: the first coordinate and the coordinate sum
_DOMAIN = [[i] for i in range(10)]
COMMUTE_DOCS = {
    "<p2>": {"support": _DOMAIN[:6], "probs": ["1/6"] * 6},
    "<p3>": {"support": _DOMAIN[:4], "probs": ["1/4"] * 4},
    "<p1>": {"support": _DOMAIN, "probs": ["1/10"] * 10},
    "<half>": {"table": [[x, [x[0] // 2]] for x in _DOMAIN]},
    "<fifth>": {"table": [[x, [x[0] // 5]] for x in _DOMAIN]},
    "<const>": {"table": [[x, [7]] for x in _DOMAIN]},
    "<rev>": {"table": [[x, [9 - x[0], x[0]]] for x in _DOMAIN]},
    "<l1>": {"support": [[0], [1]], "probs": ["1/400", "399/400"]},
    "<l3>": {"support": [[0], [1]], "probs": ["1/21", "20/21"]},
    "<swap>": {"table": [[[0], [1]], [[1], [0]]]},
    "<x>": {"support": GRID, "probs": ["1/6", "1/3", "1/6", "1/3"]},
    "<first>": _spec(FIRST, IDENTITY),
    "<sum>": _spec([[x, [sum(x)]] for x in GRID], IDENTITY),
}
COMMUTE_OPS = [
    *(["--limit", "10000000", "ruzsa", "commute", "--dist", dist, "--k", k, "--map", m]
      for dist, k, merge in (("<p2>", "12", "<half>"), ("<p3>", "12", "<half>"),
                             ("<p1>", "10", "<fifth>"))
      for m in (merge, "<const>")),
    ["ruzsa", "commute", "--dist", "<p3>", "--k", "12", "--map", "<rev>"],
    ["ruzsa", "commute", "--dist", "<l1>", "--k", "400", "--map", "<swap>"],
    ["ruzsa", "commute", "--dist", "<l3>", "--k", "63", "--map", "<swap>"],
    *(["check", "lemma1", "--spec", spec, "--input", "<x>", "--kmax", "12", "--cross-validate"]
      for spec in ("<first>", "<sum>")),
]

# covers over [3]: <t> the triangle at weights 1/2, <u> an under-weighted copy,
# <m> counts [1, 3, 1], <miss> missing element 3, <plain> the triangle without
# weights, <big> one member of a weight (and least coverage) past the float range;
# <a> and <d> are the term ops' point set and law
COVER_DOCS = {
    "<t>": TRIANGLE,
    "<u>": {**TRIANGLE, "weights": ["1/2", "1/2", "1/4"]},
    "<m>": {"n": 3, "members": [[1, 2], [2, 3], [2]], "weights": ["1", "1", "0"]},
    "<miss>": {"n": 3, "members": [[1], [1, 2]]},
    "<plain>": {"n": 3, "members": TRIANGLE["members"]},
    "<big>": {"n": 3, "members": [[1, 2, 3]], "weights": ["1" + "0" * 400]},
    "<a>": TERM_DOCS["<a>"],
    "<d>": TERM_DOCS["<d>"],
}
COVER_OPS = [
    *(["cover", "check", "--cover", c, *k] for c, k in (
        ("<t>", []), ("<t>", ["--k", "2"]), ("<u>", []), ("<u>", ["--k", "2"]), ("<m>", []),
        *(("<m>", ["--k", k]) for k in ("1", "2", "3", "1" + "0" * 30)))),
    *(["cover", "min", "--cover", c] for c in ("<t>", "<miss>")),
    *(["check", "shearer", "--cover", c, "--input", "<a>", "--side", "sets", "--k", k]
      for c, k in (("<m>", "1"), ("<t>", "1" + "0" * 400))),
    *(["check", "projection", "--cover", c, "--input", data, "--side", side]
      for c in ("<plain>", "<u>", "<big>")
      for data, side in (("<a>", "sets"), ("<d>", "entropy"))),
]

# a point set of {0,1,2}^5 and a law on it of unequal probabilities; <p> a cover
# whose weighted members' prefixes S* have depths 0 to 4, depths 0, 1 and 3
# repeated, with zero-weight members at depths 0 and 4; <s> the 5-cycle, a
# uniform 2-cover
_POINTS = [[a, b, c, d, e] for a in range(3) for b in range(3) for c in range(3)
           for d in range(3) for e in range(3) if (a + 2 * b + c * d + e) % 5 < 2]
_MASSES = [i % 4 + 1 for i in range(len(_POINTS))]
PREFIX_DOCS = {
    "<a>": {"dimension": 5, "points": _POINTS},
    "<d>": {"support": _POINTS, "probs": [f"{m}/{sum(_MASSES)}" for m in _MASSES]},
    "<p>": {"n": 5, "members": [[1, 2], [1, 3, 5], [1, 4], [2, 3], [2, 5], [3, 4], [4, 5],
                                [4], [5], [5]],
            "weights": ["1/2", "1/2", "0", "1/2", "1/3", "1/2", "1/2", "1/3", "1/2", "0"]},
    "<s>": {"n": 5, "members": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]},
}
PREFIX_OPS = [
    *([*base, "check", "projection", "--cover", "<p>", "--input", data, "--side", side]
      for base in ([], ["--base", "e"]) for data, side in (("<a>", "sets"), ("<d>", "entropy"))),
    ["check", "shearer", "--cover", "<s>", "--input", "<a>", "--side", "sets", "--k", "2"],
]


def _import_cli(src: Path):
    """`entroset.cli` imported from `src`, or exit with a message."""
    if "entroset" in sys.modules:
        sys.exit("error: entroset is already imported; run dump in its own process")
    sys.path.insert(0, str(src))
    import entroset.cli

    found = Path(entroset.__file__).resolve().parent
    if found != (src / "entroset").resolve():
        sys.exit(f"error: entroset resolved to {found}, not under {src}")
    return entroset.cli


def _run(cli, argv) -> tuple[int | None, str, str]:
    """(exit code, stdout, stderr) of one `cli.run`; code None if it raised."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    except (Exception, SystemExit) as exc:
        code = None
        err.write(repr(exc))
    return code, out.getvalue(), err.getvalue()


def _fixed_ops(workdir: Path, docs: dict, lines) -> list[tuple[int, str, list[str]]]:
    """(op id, kind, argv) of each command line, each <x> in it the path of the
    document docs["<x>"], written to x.json in `workdir`."""
    workdir.mkdir()
    files = {mark: workdir / f"{mark[1:-1]}.json" for mark in docs}
    for mark, doc in docs.items():
        files[mark].write_text(json.dumps(doc), encoding="utf-8")
    ops = []
    for i, argv in enumerate(lines):
        real = list(argv)
        for mark, path in files.items():
            real = [arg.replace(mark, str(path)) for arg in real]
        ops.append((i, " ".join(argv), real))
    return ops


def _spec_ops(workdir: Path) -> list[tuple[int, str, list[str]]]:
    """(op id, kind, argv) of each SPEC_OPS line, its files in `workdir`."""
    workdir.mkdir()
    grid = {"dimension": 2, "points": GRID}
    docs = {"<a>": grid, "<h>": {**grid, "points": GRID[1:3]},
            "<x>": {**grid, "points": [[0, 0], [2, 0]]},
            "<d>": {"support": GRID, "probs": ["1/4"] * 4}}
    files = {}
    for i, (mark, doc) in enumerate([*docs.items(), *SPECS.items()]):
        files[mark] = workdir / f"{i}.json"
        files[mark].write_text(json.dumps(doc), encoding="utf-8")
    return [(i, " ".join(("check", command, name, data, *options)),
             ["check", command, "--spec", str(files[name]), "--input", str(files[data]), *options])
            for i, (name, command, data, *options) in enumerate(SPEC_OPS)]


def _write(handle, cli, workload: str, seed: int, workdir: Path, ops) -> int:
    """Run each (op id, kind, argv) and write its record; returns the count."""
    for op_id, kind, argv in ops:
        code, stdout, stderr = _run(cli, argv)
        handle.write(json.dumps({
            "workload": workload, "seed": seed, "op": op_id, "kind": kind, "code": code,
            "stdout": stdout.replace(str(workdir), "<work>"),
            "stderr": stderr.replace(str(workdir), "<work>"),
        }) + "\n")
    return len(ops)


def dump(src: Path, out: Path, seeds) -> int:
    cli = _import_cli(src)
    sys.path.insert(0, str(ROOT / "bench"))
    import gen

    os.environ["COLUMNS"] = "80"  # argparse wraps help and usage to the terminal width
    count = 0
    with tempfile.TemporaryDirectory() as tmp, open(out, "w", encoding="utf-8") as handle:
        for workload in sorted(gen.WORKLOADS):
            for seed in seeds:
                workdir = Path(tmp) / f"{workload}-{seed}"
                ops = [(op.op_id, op.kind, op.argv)
                       for op in gen.generate(workload, seed, workdir)]
                count += _write(handle, cli, workload, seed, workdir, ops)
                table = [(i, kind, ["--format", "table", *argv]) for i, kind, argv in ops]
                count += _write(handle, cli, f"table:{workload}", seed, workdir, table)
        workdir = Path(tmp) / "usage"
        ops = _fixed_ops(workdir, {"<d>": UNIFORM2, "<c>": TRIANGLE}, USAGE)
        count += _write(handle, cli, "usage", 0, workdir, ops)
        ops = [(i, f"rationalize D={d} n={weights.count(',') + 1}",
                ["rationalize", "--weights", weights, "--max-denominator", str(d)])
               for i, (weights, d) in enumerate(RATIONALIZE)]
        count += _write(handle, cli, "rationalize", 0, Path(tmp), ops)
        workdir = Path(tmp) / "specs"
        count += _write(handle, cli, "specs", 0, workdir, _spec_ops(workdir))
        workdir = Path(tmp) / "terms"
        ops = _fixed_ops(workdir, TERM_DOCS, TERM_OPS)
        count += _write(handle, cli, "terms", 0, workdir, ops)
        workdir = Path(tmp) / "guards"
        ops = _fixed_ops(workdir, GUARD_DOCS, GUARD_OPS)
        count += _write(handle, cli, "guards", 0, workdir, ops)
        workdir = Path(tmp) / "commute"
        ops = _fixed_ops(workdir, COMMUTE_DOCS, COMMUTE_OPS)
        count += _write(handle, cli, "commute", 0, workdir, ops)
        workdir = Path(tmp) / "covers"
        ops = _fixed_ops(workdir, COVER_DOCS, COVER_OPS)
        count += _write(handle, cli, "covers", 0, workdir, ops)
        workdir = Path(tmp) / "prefixes"
        ops = _fixed_ops(workdir, PREFIX_DOCS, PREFIX_OPS)
        count += _write(handle, cli, "prefixes", 0, workdir, ops)
    print(f"{count} ops dumped to {out}")
    return 0


def _load(path: Path) -> dict:
    records = map(json.loads, path.read_text(encoding="utf-8").splitlines())
    return {(r["workload"], r["seed"], r["op"]): r for r in records}


def _changed_spans(old: str, new: str, context: int = 20):
    """The (old, new) pairs of changed runs of lines, each cut to the span
    that differs with `context` characters on either side."""
    a, b = old.splitlines(), new.splitlines()
    for tag, i, j, k, m in difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes():
        if tag != "equal":
            x, y = "\n".join(a[i:j]), "\n".join(b[k:m])
            head = len(os.path.commonprefix([x, y]))
            tail = len(os.path.commonprefix([x[head:][::-1], y[head:][::-1]]))
            start = max(head - context, 0)
            yield x[start:len(x) - tail + context], y[start:len(y) - tail + context]


def diff(old: Path, new: Path) -> int:
    a, b = _load(old), _load(new)
    problems = [f"only in {old}: {key}" for key in sorted(a.keys() - b.keys())]
    problems += [f"only in {new}: {key}" for key in sorted(b.keys() - a.keys())]
    spans: Counter = Counter()
    for key in sorted(a.keys() & b.keys()):
        for name in FIELDS:
            if a[key][name] != b[key][name]:
                problems.append(f"{key} {a[key]['kind']} {name}: "
                                f"{a[key][name]!r:.200} != {b[key][name]!r:.200}")
                if name != "code":
                    spans.update(_changed_spans(a[key][name], b[key][name]))
    if problems:
        print(f"{len(problems)} differences")
        for (x, y), n in spans.most_common():
            print(f"{n:6d} x {x!r} -> {y!r}")
        print(*problems[:5], sep="\n")
        return 1
    print(f"{len(a)} ops identical")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    p = commands.add_parser("dump", help="run every op and write one JSON line per op")
    p.add_argument("src", type=Path, help="the src/ directory of a checkout")
    p.add_argument("out", type=Path)
    p.add_argument("--seeds", type=int, nargs="+", default=SEEDS)
    p = commands.add_parser("diff", help="compare two dumps; exit 1 if any op differs")
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.src, args.out, args.seeds)
    return diff(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())
