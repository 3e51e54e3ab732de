"""Output checks for benchmark ops, independent of the code under test.

Each check compares one `cli.run` output against what `gen.py` computed
with the standard library. A failed check is returned as a reason string;
it never raises, so one bad output is counted and the run goes on.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

THEOREM_KINDS = {
    "projection", "shearer", "cardinality", "check_entropy", "shearer_entropy",
    "projection_entropy", "lemma1", "ruzsa_bound", "commute", "lemma1_cv",
}


def verdict_reports(doc) -> list[tuple[str, str]]:
    """(provenance, verdict) of every report in an output document."""
    found = []
    if isinstance(doc, dict):
        if "verdict" in doc and "provenance" in doc:
            found.append((doc["provenance"], doc["verdict"]))
        for value in doc.values():
            if isinstance(value, dict):
                found.extend(verdict_reports(value))
    return found


def _close(a, b, tol) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= tol * max(1.0, abs(b))


def _check_fields(doc: dict, expect: dict, keys) -> str | None:
    for key in keys:
        if key in expect and doc.get(key) != expect[key]:
            return f"{key}: got {doc.get(key)!r}, expected {expect[key]!r}"
    return None


def _cover_min(doc: dict, expect: dict) -> str | None:
    members = expect["members"]
    weights = [Fraction(w) for w in doc["weights"]]
    if len(weights) != len(members) or any(w < 0 for w in weights):
        return "weights are not one nonnegative value per member"
    for i in range(1, expect["n"] + 1):
        if sum(w for w, m in zip(weights, members) if i in m) < 1:
            return f"element {i} covered with weight < 1"
    if Fraction(doc["objective"]) != sum(weights):
        return "objective is not the sum of the weights"
    return None


def _rationalize(doc: dict, expect: dict) -> str | None:
    probs = [Fraction(p) for p in doc["probs"]]
    if sum(probs) != 1:
        return f"probabilities sum to {sum(probs)}"
    if any(p.denominator > expect["max_denominator"] for p in probs):
        return "a denominator exceeds max_denominator"
    if len(probs) > expect["count"]:
        return "more outcomes than weights"
    return None


def _converge(doc: dict, expect: dict) -> str | None:
    rows = doc["rows"]
    if [row["k"] for row in rows] != expect["ks"]:
        return "rows are not the requested k values"
    if [row["size"] for row in rows] != expect["sizes"]:
        return "a row size is not the multinomial"
    return None


def check_output(kind: str, expect: dict, code: int, out: str) -> str | None:
    """None if the output is right, else the reason it is wrong."""
    if code != 0:
        return f"exit code {code}, expected 0"
    try:
        doc = json.loads(out)
    except ValueError:
        return "stdout is not one JSON document"
    try:
        if kind in THEOREM_KINDS and doc.get("verdict") != "holds":
            return f"theorem instance reported {doc.get('verdict')!r}"
        if kind == "entropy" and not _close(doc.get("entropy"), expect["entropy"], 1e-12):
            return f"entropy {doc.get('entropy')!r} != {expect['entropy']!r}"
        if kind == "condentropy" and not _close(doc.get("entropy"), expect["entropy"], 1e-9):
            return f"conditional entropy {doc.get('entropy')!r} != {expect['entropy']!r}"
        if kind == "condsize":
            size = doc.get("size")
            if not _close(math.log2(size), expect["log2_size"], 1e-9):
                return f"condsize {size!r} != 2^{expect['log2_size']!r}"
        if kind == "demo" and doc.get("all_hold") is not True:
            return "demo reported a failed step"
        if kind == "cover_min":
            return _cover_min(doc, expect)
        if kind == "rationalize":
            return _rationalize(doc, expect)
        if kind == "converge":
            return _converge(doc, expect)
        return _check_fields(
            doc, expect,
            ("lhs_count", "rhs_counts", "projection_sizes", "points", "dimension",
             "support", "probs", "size", "source_size", "direct_size", "k_values"),
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"
