"""JSON interchange for every value the CLI reads or writes.

Rationals travel as decimal-free strings ("1/6", "2"); big integers as
strings; elements as arrays of integer coordinates; index sets as
1-based sorted arrays. Parsing then re-serializing a canonical document
reproduces it modulo whitespace.

Output strings of exact numbers are exact at any size: `format_rational`
writes ints and Fractions past Python's int-to-str digit limit without
changing it, and `dump_json` writes a plain int past it as an exact JSON
number. On input, an integer literal past that limit is a
SchemaError naming the file.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .covers import CoverSpec
from .checkers import InequalitySpec
from .dist import FiniteMap, RationalDist, _as_int, _ratio, as_fraction
from .errors import SchemaError
from .projections import IndexSet, PointSet
from .report import exact_text


def _expect(doc: dict, key: str, kind: str):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"{kind} document needs field {key!r}")
    return doc[key]


def _array(value, what: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise SchemaError(f"{what} must be an array: {value!r}")
    return value


def _decimal_free(text):
    if isinstance(text, str) and ("." in text or "e" in text or "E" in text):
        raise SchemaError(f"rationals must be decimal-free 'p/q' strings: {text!r}")
    return text


def parse_rational(text) -> Fraction:
    return as_fraction(_decimal_free(text))


def format_rational(value: int | Fraction) -> str:
    return exact_text(value)


def dist_from_json(doc: dict) -> RationalDist:
    support = _array(_expect(doc, "support", "distribution"), "distribution field 'support'")
    probs = _array(_expect(doc, "probs", "distribution"), "distribution field 'probs'")
    # every probability is read, in order, before the support is checked
    return RationalDist._from_ratios(support, [_ratio(_decimal_free(p)) for p in probs])


def dist_to_json(dist: RationalDist) -> dict:
    d = dist.denominator
    return {
        "support": [list(x) for x in dist.support],
        "probs": [exact_text(c, d) for c in dist.counts],
    }


def map_from_json(doc: dict) -> FiniteMap:
    return FiniteMap(_array(_expect(doc, "table", "map"), "map field 'table'"))


def map_to_json(f: FiniteMap) -> dict:
    return {
        "table": [[list(k), list(v)] for k, v in sorted(f.table.items())]
    }


def pointset_from_json(doc: dict) -> PointSet:
    dimension = _as_int(_expect(doc, "dimension", "point set"), "point set field 'dimension'")
    points = _array(_expect(doc, "points", "point set"), "point set field 'points'")
    return PointSet(dimension, points)


def pointset_to_json(A: PointSet) -> dict:
    return {
        "dimension": A.dimension,
        "points": [list(p) for p in A.sorted_points()],
    }


def indexset_from_json(doc) -> IndexSet:
    if not isinstance(doc, (list, tuple)):
        raise SchemaError(f"index sets are 1-based arrays: {doc!r}")
    return IndexSet(doc)


def cover_from_json(doc: dict) -> CoverSpec:
    n = _as_int(_expect(doc, "n", "cover"), "cover field 'n'")
    members = _array(_expect(doc, "members", "cover"), "cover field 'members'")
    weights = doc.get("weights")
    if weights is not None:
        weights = [parse_rational(w) for w in _array(weights, "cover field 'weights'")]
    return CoverSpec(n, [indexset_from_json(m) for m in members], weights)


def cover_to_json(cover: CoverSpec) -> dict:
    doc = {
        "n": cover.n,
        "members": [list(m.indices) for m in cover.members],
    }
    if cover.weights is not None:
        doc["weights"] = [format_rational(w) for w in cover.weights]
    return doc


def ineq_spec_from_json(doc: dict) -> InequalitySpec:
    lhs = map_from_json(_expect(doc, "lhs_map", "inequality spec"))
    rhs = _array(_expect(doc, "rhs_maps", "inequality spec"), "inequality spec field 'rhs_maps'")
    rhs = [map_from_json(m) for m in rhs]
    coeffs = _expect(doc, "coefficients", "inequality spec")
    coeffs = [parse_rational(c) for c in _array(coeffs, "inequality spec field 'coefficients'")]
    return InequalitySpec(lhs, rhs, coeffs)


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise SchemaError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an int literal past the digit limit, or not UTF-8
        raise SchemaError(f"{path}: {exc}") from exc


def _slot_ints(value, slot, ints: list[int]):
    """Copy of `value` with every int replaced by `slot`, collected in order."""
    if isinstance(value, dict):
        return {k: _slot_ints(v, slot, ints) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_slot_ints(v, slot, ints) for v in value]
    if isinstance(value, int) and not isinstance(value, bool):
        ints.append(value)
        return slot
    return value


def dump_json(doc: dict) -> str:
    try:
        return json.dumps(doc, indent=2, sort_keys=False)
    except ValueError:  # an int past the digit limit: write it with exact_text
        pass
    ints: list[int] = []
    zeroed = json.dumps(_slot_ints(doc, 0, ints), indent=2, sort_keys=False)
    # a string of NULs that occurs nowhere else marks where each int goes
    slot = "\0"
    while json.dumps(slot) in zeroed:
        slot += "\0"
    text = json.dumps(_slot_ints(doc, slot, []), indent=2, sort_keys=False)
    parts = text.split(json.dumps(slot))
    return parts[0] + "".join(exact_text(n) + part for n, part in zip(ints, parts[1:]))
