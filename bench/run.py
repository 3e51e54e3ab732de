"""entroset benchmark: seeded closed-loop workloads through `cli.run`.

Usage, from the root of a checkout:

    python3 bench/run.py --workload counting --seed 1 --seconds 30 --trace 0

One client in one process calls `entroset.cli.run(argv)` in-process, waits
for each result, checks it, and sends the next op: a closed loop with no
think time counted. The op schedule (see `gen.py`) is run in whole passes
until `--seconds` have elapsed. The last line of stdout is one JSON
object: end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`. See README.md in this directory.

Every reported time is calibrated to a fixed machine speed. A shared
VM's speed can drift by 20-50% over seconds to minutes, with CPU time
drifting as much as wall time, so the drift is the host's and not the
scheduler's. A fixed pure-Python loop (`reference()`) is timed after
every op; each op's time is scaled by REF_NOMINAL_S over the median of
the loop times around it. Raw wall-clock values are printed beside the
calibrated ones in the summary.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

# (name, unit, better, bound); BENCHMARK.json declares the same
END_TO_END = [
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("exact_verdict_frac", "ratio", "higher", 0.1),
]

# the layer each workload was chosen to stress
STRESSED = {
    "counting": ("projections",),
    "entropy": ("cli", "jsonio"),
    "solvers": ("covers", "ruzsa", "dist"),
}

SETUP_SAMPLES = 21

# the reference loop: every time is reported at the machine speed at which
# REF_LOOPS iterations take REF_NOMINAL_S, about the loop's fastest time on
# the 2.0 GHz VM of the baselines in README.md
REF_LOOPS = 10_000
_REF_POINTS = [(i % 13, i % 7, i % 11, i % 5) for i in range(1000)]
REF_NOMINAL_S = 1.1e-3
# an op is calibrated by the median loop time of the REF_WINDOW ops on
# each side of it and itself
REF_WINDOW = 20

# at least 10 latency samples beyond the 90th percentile
MIN_OPS = 100


def import_entroset():
    """Import entroset from this checkout's src/, or exit 1 with a message."""
    package = SRC / "entroset"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import entroset.cli

    elapsed = perf_counter() - t0
    resolved = Path(entroset.__file__).resolve().parent
    if resolved != package.resolve():
        sys.exit(f"error: entroset resolved to {resolved}, not {package}")
    print(f"entroset imported from {resolved}")
    return entroset.cli, elapsed


def reference() -> float:
    """Wall seconds of fixed pure-Python work that calls no entroset code.

    Integer arithmetic, then tuple slicing and dict/set inserts: the two
    kinds of interpreter work that entroset's exact arithmetic and point
    sets do most.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    counts: dict = {}
    for x in _REF_POINTS:
        key = x[:3]
        counts[key] = counts.get(key, 0) + 1
    {x[1:] for x in _REF_POINTS}
    return perf_counter() - t0


def calibrate(latencies: list[float], refs: list[float]) -> list[float]:
    """Scale each op's time by REF_NOMINAL_S over its local loop time.

    `refs[i]` is the loop timed right after op i; op i's local loop time is
    the median of the refs within REF_WINDOW ops of it.
    """
    scaled = []
    for i, elapsed in enumerate(latencies):
        window = refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]
        scaled.append(elapsed * REF_NOMINAL_S / statistics.median(window))
    return scaled


def call(cli, argv) -> tuple[float, int | None, str, str]:
    """One timed `cli.run(argv)`; code None if it raised."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        code = None
        err.write(repr(exc))
    return perf_counter() - t0, code, out.getvalue(), err.getvalue()


class Ledger:
    """Checks every op result and counts attempts, failures and verdicts.

    The first result of each op is checked against the expected values;
    later results of the same op must be byte-identical to it.
    """

    def __init__(self, ops):
        self.ops = {op.op_id: op for op in ops}
        self.first: dict[int, tuple] = {}
        self.attempted = self.failed = 0
        self.verdicts = self.exact_verdicts = 0
        self.reasons: list[str] = []

    def record(self, op_id: int, code, out: str, err: str, counted: bool = True) -> bool:
        op = self.ops[op_id]
        digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
        if op_id not in self.first:
            if code is None:
                reason = f"raised {err.strip()}"
            else:
                reason = checks.check_output(op.kind, op.expect, code, out)
            reports = checks.verdict_reports(json.loads(out)) if reason is None else []
            self.first[op_id] = (digest, reason, reports)
        first_digest, reason, reports = self.first[op_id]
        if reason is None and digest != first_digest:
            reason = "output differs from an earlier run of the same op"
        if not counted:
            ok = reason is None
            if not ok:
                self.reasons.append(f"op {op_id} ({op.kind}, warm-up): {reason}")
            return ok
        self.attempted += 1
        self.verdicts += len(reports)
        self.exact_verdicts += sum(
            1 for provenance, verdict in reports
            if provenance == "exact" and verdict != "inconclusive"
        )
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"op {op_id} ({op.kind} {op.size_class}): {reason}")
            return False
        return True


def run_pass(cli, ops, ledger: Ledger, refs: list[float], tracer=None,
             probes=None) -> list[float]:
    """One pass over `ops`; appends one reference loop time per op to `refs`."""
    latencies = []
    for op in ops:
        if tracer is not None:
            tracer.op_id = op.op_id
        elapsed, code, out, err = call(cli, op.argv)
        latencies.append(elapsed)
        ledger.record(op.op_id, code, out, err)
        refs.append(reference())
        if probes is not None:
            probes.poll()
    return latencies


def run_timed(cli, ops, seconds: float, ledger: Ledger, tracer=None, probes=None):
    """Whole passes over `ops` until `seconds` have elapsed and MIN_OPS ran.

    With a tracer, each untraced pass is followed by a traced one, so both
    see the same machine conditions. Returns the untraced latencies (raw
    and calibrated), the traced ones (calibrated), the number of passes of
    each and the run's median reference loop time.
    """
    plain: list[float] = []
    plain_refs: list[float] = []
    traced: list[float] = []
    traced_refs: list[float] = []
    passes = 0
    deadline = perf_counter() + seconds
    while True:
        plain.extend(run_pass(cli, ops, ledger, plain_refs, probes=probes))
        if tracer is not None:
            tracer.install()
            try:
                traced.extend(run_pass(cli, ops, ledger, traced_refs, tracer))
            finally:
                tracer.uninstall()
        passes += 1
        if perf_counter() >= deadline and len(plain) >= MIN_OPS:
            return (plain, calibrate(plain, plain_refs),
                    calibrate(traced, traced_refs), passes,
                    statistics.median(plain_refs + traced_refs))


def warm_up(cli, ops, ledger: Ledger) -> float:
    """One untimed call of each op kind (its first op); returns wall seconds.

    Untimed means outside the timed loop: this time is part of set-up.
    """
    t0 = perf_counter()
    for op in first_of_each_kind(ops):
        _, code, out, err = call(cli, op.argv)
        ledger.record(op.op_id, code, out, err, counted=False)
    return perf_counter() - t0


def first_of_each_kind(ops):
    seen = {}
    for op in ops:
        seen.setdefault(op.kind, op)
    return list(seen.values())


class SetupProbes:
    """Set-up time of fresh interpreters (import entroset, warm up each
    kind), sampled at even intervals over the timed loop.

    A fresh interpreter's set-up time moves between levels (about 80 and
    140 ms for `entropy`) in phases of a few seconds that the reference
    loop does not follow. Back-to-back samples all land in one phase;
    spread over the run, they see all of its phases. Each probe is waited
    for before the client goes on, and the op times do not include it.
    """

    def __init__(self, ops, workdir: Path, samples: int, seconds: float):
        self.argvs = workdir / "warmup.json"
        self.argvs.write_text(json.dumps([op.argv for op in first_of_each_kind(ops)]))
        self.samples = samples
        self.interval = seconds / samples
        self.due = perf_counter() + self.interval / 2
        self.times: list[float] = []

    def poll(self) -> None:
        """Take one sample if one is due."""
        if len(self.times) < self.samples and perf_counter() >= self.due:
            self.times.append(self._probe())
            self.due += self.interval

    def finish(self) -> list[float]:
        """Take the samples still missing; return all of them."""
        while len(self.times) < self.samples:
            self.times.append(self._probe())
        return self.times

    def _probe(self) -> float:
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(self.argvs)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        return float(done.stdout.strip().splitlines()[-1])


def percentile(values, q: float) -> float:
    """Linear-interpolated q-quantile (0 < q < 1) of a nonempty sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(latencies, ledger: Ledger, setup_s: float) -> dict[str, float]:
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
        "latency_p90_ms": percentile(latencies, 0.9) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "exact_verdict_frac": ledger.exact_verdicts / max(ledger.verdicts, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, import_s = import_entroset()
    workdir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    ops = gen.generate(args.workload, args.seed, workdir)
    ledger = Ledger(ops)
    setup_main = import_s + warm_up(cli, ops, ledger)
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per pass, "
          f"kinds {', '.join(gen.WORKLOADS[args.workload]['kinds'])}")

    gc.collect()
    if args.trace:
        tracer = tracing.Tracer()
        raw, latencies, traced, passes, _ = run_timed(
            cli, ops, args.seconds, ledger, tracer
        )
        metrics = tracing.layer_metrics(
            tracer.spans, {op.op_id: op.size_class for op in ops}, passes
        )
        metrics["trace.overhead_frac"] = sum(traced) / sum(latencies) - 1
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
        report_layers(args.workload, metrics, passes, len(tracer.spans))
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        setup_raw = setup_main
        shown = end_to_end(latencies, ledger, setup_main)
    else:
        probes = SetupProbes(ops, workdir, SETUP_SAMPLES - 1, args.seconds)
        raw, latencies, _, passes, ref_s = run_timed(
            cli, ops, args.seconds, ledger, probes=probes
        )
        setups = [setup_main] + probes.finish()
        print(f"setup samples (s): {', '.join(f'{t:.4f}' for t in setups)}")
        # set-up samples are too short and too much I/O to calibrate one by
        # one; their median is scaled by the whole run's median loop time
        setup_raw = statistics.median(setups)
        metrics = shown = end_to_end(
            latencies, ledger, setup_raw * REF_NOMINAL_S / ref_s
        )
        units = {name: unit for name, unit, _, _ in END_TO_END}

    beyond = sum(1 for t in latencies if t * 1e3 > shown["latency_p90_ms"])
    print(f"untraced: {len(latencies)} ops in {passes} passes, {beyond} beyond p90")
    wall = end_to_end(raw, ledger, setup_raw)
    for name, unit, better, _ in END_TO_END:
        raw_note = f"; raw wall clock {wall[name]:.6g}" if unit in ("ops/s", "ms", "s") else ""
        print(f"  {name} = {shown[name]:.6g} {unit} ({better} is better{raw_note})")
    print(f"  failed_ops_frac = {ledger.failed / max(ledger.attempted, 1):.6g} ratio "
          f"(lower is better; {ledger.failed} of {ledger.attempted})")
    for reason in ledger.reasons:
        print(f"  FAILED {reason}")

    shutil.rmtree(workdir)
    result = {
        "correct": ledger.failed == 0 and not ledger.reasons,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def report_layers(workload: str, metrics: dict, passes: int, spans: int) -> None:
    self_ms = tracing.layer_self_ms(metrics)
    total = sum(self_ms.values())
    print(f"traced: {passes} passes, {spans} spans; self time per pass by layer:")
    for layer, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:12s} {ms:10.2f} ms  {ms / total:6.1%}")
    top = max(self_ms, key=self_ms.get)
    stressed = STRESSED[workload]
    verdict = "as chosen" if top in stressed else "NOT the stressed layer"
    print(f"largest self time: {top}; stressed: {'/'.join(stressed)} ({verdict})")
    print(f"trace overhead: {metrics['trace.overhead_frac']:.1%} per op")


if __name__ == "__main__":
    sys.exit(main())
