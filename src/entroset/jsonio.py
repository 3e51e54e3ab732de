"""JSON interchange for every value the CLI reads or writes.

Rationals travel as decimal-free strings ("1/6", "2"); big integers as
strings; elements as arrays of integer coordinates; index sets as
1-based sorted arrays. Parsing then re-serializing a canonical document
reproduces it modulo whitespace.

Output is exact at any size, and Python's int-to-str digit limit is never
changed: one writer, `_encode`, writes both output formats as `json.dumps`
would, with every int an exact number at any depth. On input, an int literal
past that limit, nesting past the recursion limit, or a path that cannot be
read is a SchemaError naming the file.

A file is read with one unbuffered read and decoded as UTF-8, so a UTF-16
or UTF-32 file is refused as a text-mode read refuses it. A carriage return
gets text mode's newline translation, so a parse error names the line and
column a text-mode read would. `load_json` also takes bytes already read:
the CLI reads each input file on every call, and parses and decodes it only
when it keeps no decoded value for those exact bytes (see `cli`).

Elements are checked once, where a value enters: each decoder pulls out
its fields and builds its value through the constructor's checks.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape

from .covers import CoverSpec
from .checkers import InequalitySpec
from .dist import FiniteMap, RationalDist, _as_int, _ratio, as_fraction
from .errors import SchemaError, _echo
from .projections import IndexSet, PointSet
from .report import _decimal, exact_text


def _expect(doc: dict, key: str, kind: str):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"{kind} document needs field {key!r}")
    return doc[key]


def _array(value, what: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise SchemaError(f"{what} must be an array: {_echo(value)}")
    return value


def _decimal_free(text):
    if isinstance(text, str) and ("." in text or "e" in text or "E" in text):
        raise SchemaError(f"rationals must be decimal-free 'p/q' strings: {_echo(text)}")
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


def _table(doc: dict) -> list:
    return _array(_expect(doc, "table", "map"), "map field 'table'")


def map_from_json(doc: dict) -> FiniteMap:
    return FiniteMap(_table(doc))


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
        raise SchemaError(f"index sets are 1-based arrays: {_echo(doc)}")
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
    lhs = _table(_expect(doc, "lhs_map", "inequality spec"))
    rhs = _array(_expect(doc, "rhs_maps", "inequality spec"), "inequality spec field 'rhs_maps'")
    coeffs = _expect(doc, "coefficients", "inequality spec")
    coeffs = _array(coeffs, "inequality spec field 'coefficients'")
    # parsed lazily, so that the spec reads its tables before the coefficients
    return InequalitySpec(lhs, [_table(m) for m in rhs], map(parse_rational, coeffs))


def _read(path: str) -> bytes:
    """The bytes of the file at `path`, in one unbuffered read."""
    try:
        with open(path, "rb", buffering=0) as handle:
            return handle.read()
    except FileNotFoundError as exc:
        raise SchemaError(f"no such file: {path}") from exc
    except OSError as exc:  # a directory, a path through a file, no permission
        raise SchemaError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # a NUL in the path
        raise SchemaError(f"{path}: {exc}") from exc


def load_json(path: str, raw: bytes | None = None) -> dict:
    """The JSON document in the file at `path`; `raw` is its bytes, if already read."""
    if raw is None:
        raw = _read(path)
    try:
        text = raw.decode("utf-8")
        if "\r" in text:  # text mode's newline translation, for the error's line
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an int past the limit, too deep, not UTF-8
        raise SchemaError(f"{path}: {exc}") from exc


def _encode(value, indent: str | None) -> str:
    """`json.dumps(value)`, or `json.dumps(value, indent=2)` at the depth whose
    line break and indentation are `indent`; ints are exact at any size."""
    kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is int:
        return _decimal(value)
    if kind is float and math.isfinite(value):
        return repr(value)
    if isinstance(value, (dict, list, tuple)) and value:
        inner = None if indent is None else indent + "  "
        first, sep, last = ("", ", ", "") if inner is None else (inner, "," + inner, indent)
        if isinstance(value, dict):  # _escape refuses a non-str key with TypeError
            items = [_escape(k) + ": " + _encode(v, inner) for k, v in value.items()]
            return "{" + first + sep.join(items) + last + "}"
        return "[" + first + sep.join([_encode(v, inner) for v in value]) + last + "]"
    return json.dumps(value)  # bools, None, nan, inf, [] and {}; TypeError if not JSON


def dump_json(doc: dict) -> str:
    return _encode(doc, "\n")
