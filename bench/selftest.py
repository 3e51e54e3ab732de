"""Self-test of the benchmark's own machinery (not collected by pytest).

    python3 bench/selftest.py

Checks that a tampered output of every op kind is counted as failed, that
the same seed gives the same inputs, that tracing wraps names bound by
`from .x import y` and puts them back, and that BENCHMARK.json declares
the metrics and workloads this code reports. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import sys
from fractions import Fraction

import run  # puts this directory on sys.path

import checks
import gen
import tracing


def _bump_str_int(text: str) -> str:
    return str(int(text) + 1)


def tamper(kind: str, doc: dict) -> dict:
    """A plausible but wrong version of a correct output of `kind`."""
    doc = json.loads(json.dumps(doc))
    if kind in checks.THEOREM_KINDS:
        doc["verdict"] = "violated"
    elif kind in ("entropy", "condentropy"):
        doc["entropy"] += 1e-9
    elif kind == "condsize":
        doc["size"] *= 1.000001
    elif kind == "project":
        doc["points"] = doc["points"][:-1]
    elif kind == "pushforward":
        doc["probs"][0] = str(Fraction(doc["probs"][0]) / 2)
    elif kind == "ruzsa_size":
        doc["size"] = _bump_str_int(doc["size"])
    elif kind == "demo":
        doc["all_hold"] = False
    elif kind == "cover_min":
        doc["weights"] = ["0"] * len(doc["weights"])
    elif kind == "rationalize":
        doc["probs"][0] = str(Fraction(doc["probs"][0]) + Fraction(1, 7))
    elif kind == "converge":
        doc["rows"][0]["size"] = _bump_str_int(doc["rows"][0]["size"])
    else:
        raise AssertionError(f"no tamper rule for {kind}")
    return doc


def check_tampered_outputs_fail(cli) -> None:
    for workload in gen.WORKLOADS:
        workdir = run.WORK / f"selftest-{workload}"
        shutil.rmtree(workdir, ignore_errors=True)
        ops = gen.generate(workload, 0, workdir)
        for op in run.first_of_each_kind(ops):
            _, code, out, err = run.call(cli, op.argv)
            ledger = run.Ledger([op])
            assert ledger.record(op.op_id, code, out, err), (workload, op.kind, ledger.reasons)
            assert ledger.record(op.op_id, code, out, err), "identical repeat must pass"
            bad = run.Ledger([op])
            text = json.dumps(tamper(op.kind, json.loads(out)), indent=2)
            assert not bad.record(op.op_id, code, text, err), (op.kind, "tampered output passed")
            assert bad.failed == 1 and bad.attempted == 1
            repeat = run.Ledger([op])
            repeat.record(op.op_id, code, out, err)
            assert not repeat.record(op.op_id, code, out + " ", err), "changed repeat passed"
            wrong_code = run.Ledger([op])
            assert not wrong_code.record(op.op_id, 1 - code, out, err), "wrong exit code passed"
            raised = run.Ledger([op])
            assert not raised.record(op.op_id, None, "", "ValueError()"), "raising op passed"
        shutil.rmtree(workdir)
        print(f"ok: tampered outputs fail ({workload})")


def check_seeded_inputs() -> None:
    for workload in gen.WORKLOADS:
        texts = []
        for seed, name in ((3, "a"), (3, "b"), (4, "c")):
            workdir = run.WORK / f"selftest-{name}"
            shutil.rmtree(workdir, ignore_errors=True)
            gen.generate(workload, seed, workdir)
            texts.append([p.read_text() for p in sorted(workdir.iterdir())])
            shutil.rmtree(workdir)
        assert texts[0] == texts[1], f"{workload}: same seed gave different inputs"
        assert texts[0] != texts[2], f"{workload}: different seeds gave the same inputs"
    print("ok: inputs are a function of the seed")


def check_tracer_wraps_every_binding() -> None:
    import entroset.checkers
    import entroset.projections

    original = entroset.projections.log_conditional_avg_size
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert entroset.checkers.log_conditional_avg_size is not original
        assert (entroset.checkers.log_conditional_avg_size
                is entroset.projections.log_conditional_avg_size)
    finally:
        tracer.uninstall()
    assert entroset.checkers.log_conditional_avg_size is original
    assert entroset.projections.log_conditional_avg_size is original
    print("ok: tracer wraps names where they are looked up, and restores them")


def check_manifest() -> None:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]]
    assert declared == run.END_TO_END, "end_to_end differs from run.END_TO_END"
    declared = [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
    assert declared == tracing.PER_LAYER, "per_layer differs from tracing.PER_LAYER"
    declared = {w["name"]: w["why"] for w in manifest["workloads"]}
    assert declared == {name: w["why"] for name, w in gen.WORKLOADS.items()}, "workloads differ"
    print("ok: BENCHMARK.json matches the metrics and workloads reported")


def main() -> int:
    cli, _ = run.import_entroset()
    check_manifest()
    check_seeded_inputs()
    check_tracer_wraps_every_binding()
    check_tampered_outputs_fail(cli)
    return 0


if __name__ == "__main__":
    sys.exit(main())
