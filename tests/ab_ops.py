"""Time two checkouts' `cli.run` op by op, interleaved, in one process.

Usage, from the root of a checkout:

    python tests/ab_ops.py A_SRC B_SRC WORKLOAD PASSES [SEED]

A_SRC and B_SRC are the `src/` directories of two checkouts: A the parent,
B the change. Each tree's `entroset` package is copied into a temporary
directory as `entroset_a` and `entroset_b` (the package uses relative
imports only), so both load in one interpreter. The inputs of WORKLOAD at
SEED (default 5) are generated with `bench/gen.py`, imported and never
changed. Every op is first run once on each side, untimed, and both sides
must print the same exit code, stdout and stderr. Then each pass runs
every op on A and on B back to back, and the side that goes first
alternates from pass to pass, so a drift in machine speed falls on both
sides alike. Runs in separate processes cannot resolve a change of a few
percent on a shared VM; interleaved ones can.

It prints each side's ops/s, p50 and p90 latency with the number of
samples, and the B/A time ratio per op kind, per op kind and size class
("projection/s1000": a workload's p90 can hinge on its largest class
alone), and overall. A pass is one run of every op on both sides; each
ratio is the median of the per-pass B/A ratios, printed with their
quartiles and the number of timed samples (per side): a ratio whose
quartiles straddle 1 is within the spread. The ratio of the summed times
follows it; one slow pass can move that ratio outside its own quartiles.
The last line of stdout is one JSON object: `ratio`, `ratio_by_kind` and
`ratio_by_class` hold the medians, `summed_ratio`, `summed_ratio_by_kind`
and `summed_ratio_by_class` the ratios of summed times, and
`samples_by_kind` and `ratio_quartiles_by_kind` both the kinds and the
kind/class keys. The exit code is 1 if the two sides print different
outputs.

The name does not match `test_*.py`, so pytest never collects this file;
`tests/test_benches.py` runs it once.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("a", "b")

sys.path.insert(0, str(ROOT / "bench"))
import gen  # noqa: E402
from dump_outputs import _run  # noqa: E402


def _import_cli(src: Path, name: str, tmp: Path):
    """The `cli` module of `src`'s entroset package, copied to `tmp` as `name`."""
    package = src / "entroset"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found")
    shutil.copytree(package, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def _summary(times: list[float]) -> dict:
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {"ops_per_s": len(times) / sum(times), "p50_ms": deciles[4] * 1e3,
            "p90_ms": deciles[8] * 1e3, "samples": len(times)}


def _quartiles(ratios: list[float]) -> list[float]:
    """The quartiles of the per-pass ratios, the middle one their median;
    a single pass's ratio three times."""
    if len(ratios) == 1:
        return ratios * 3
    return statistics.quantiles(ratios, n=4, method="inclusive")


def compare(a_src: Path, b_src: Path, workload: str, passes: int, seed: int) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        clis = {side: _import_cli(src, f"entroset_{side}", Path(tmp))
                for side, src in zip(SIDES, (a_src, b_src))}
        ops = gen.generate(workload, seed, Path(tmp) / "work")
        differ = []
        for op in ops:  # untimed: each side's outputs, and its warm-up
            outputs = {side: _run(cli, op.argv) for side, cli in clis.items()}
            if outputs["a"] != outputs["b"]:
                differ.append(f"op {op.op_id} {op.kind}: {outputs['a']!r:.200} != "
                              f"{outputs['b']!r:.200}")
        times = {side: [] for side in SIDES}
        # each pass's time per op kind and per kind and size class, on each side
        spent = {side: [] for side in SIDES}
        for p in range(passes):
            order = SIDES if p % 2 == 0 else SIDES[::-1]
            for side in SIDES:
                spent[side].append({})
            for op in ops:
                for side in order:
                    t0 = perf_counter()
                    _run(clis[side], op.argv)
                    elapsed = perf_counter() - t0
                    times[side].append(elapsed)
                    for key in (op.kind, f"{op.kind}/{op.size_class}"):
                        spent[side][p][key] = spent[side][p].get(key, 0.0) + elapsed
    keys = sorted(spent["a"][0], key=lambda key: "/" in key)  # the kinds, then the classes
    quartiles = {key: _quartiles([b[key] / a[key] for a, b in zip(spent["a"], spent["b"])])
                 for key in keys}
    summed = {key: sum(s[key] for s in spent["b"]) / sum(s[key] for s in spent["a"])
              for key in keys}
    kinds = [key for key in keys if "/" not in key]
    total = _quartiles([sum(map(b.get, kinds)) / sum(map(a.get, kinds))
                        for a, b in zip(spent["a"], spent["b"])])
    samples = Counter(key for op in ops for key in (op.kind, f"{op.kind}/{op.size_class}"))
    result = {
        "workload": workload, "seed": seed, "passes": passes, "ops": len(ops),
        "outputs_identical": not differ,
        **{side: _summary(times[side]) for side in SIDES},
        "ratio": total[1],
        "ratio_by_kind": {key: quartiles[key][1] for key in kinds},
        "ratio_by_class": {key: quartiles[key][1] for key in keys if "/" in key},
        "summed_ratio": sum(times["b"]) / sum(times["a"]),
        "summed_ratio_by_kind": {key: summed[key] for key in kinds},
        "summed_ratio_by_class": {key: summed[key] for key in keys if "/" in key},
        "samples_by_kind": {key: samples[key] * passes for key in keys},
        "ratio_quartiles_by_kind": quartiles,
    }
    print(f"{workload} seed {seed}: {passes} passes of {len(ops)} ops, A then B alternating")
    for problem in differ[:5]:
        print(f"outputs differ: {problem}")
    for side, src in zip(SIDES, (a_src, b_src)):
        s = result[side]
        print(f"{side.upper()} {src}: {s['ops_per_s']:.1f} ops/s, p50 {s['p50_ms']:.3f} ms, "
              f"p90 {s['p90_ms']:.3f} ms ({s['samples']} samples)")
    for key in keys:
        q1, q2, q3 = quartiles[key]
        print(f"  {key}: B/A median per pass {q2:.3f}, quartiles {q1:.3f} {q3:.3f}, "
              f"summed {summed[key]:.3f} ({result['samples_by_kind'][key]} samples)")
    print(f"B/A total time: median per pass {total[1]:.3f}, quartiles {total[0]:.3f} "
          f"{total[2]:.3f}, summed {result['summed_ratio']:.3f}")
    print(json.dumps(result))
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_src", type=Path, help="the src/ directory of the parent checkout")
    parser.add_argument("b_src", type=Path, help="the src/ directory of the changed checkout")
    parser.add_argument("workload", choices=sorted(gen.WORKLOADS))
    parser.add_argument("passes", type=int)
    parser.add_argument("seed", type=int, nargs="?", default=5)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("PASSES must be at least 1")
    return compare(args.a_src, args.b_src, args.workload, args.passes, args.seed)


if __name__ == "__main__":
    sys.exit(main())
