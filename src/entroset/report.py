"""Check reports: evaluated sides of an inequality plus a verdict.

Reports are plain value objects. `lhs`/`rhs` are floats (log-space for
cardinality checks). `provenance` is "exact" on every decided verdict:
exact integer or rational arithmetic settled it, or a float sign whose
rounding error is bounded (see `checkers._exact_verdict`). It is "float"
only on an `inconclusive` report, a near tie past the bit limit; the
float sides and slack are reported, never decisive. Exact quantities are
carried in `details` as strings. `witnesses` holds counterexample
structures for set-equality style checks. JSON has no NaN or infinity,
so `to_json` writes such a float (a side past the float range) as null.

`exact_text` writes those strings. Python refuses `str()` on an int of
more than `sys.get_int_max_str_digits()` digits (4300 by default);
`exact_text` splits such an int by a power of ten until each part is
below the limit, so an exact quantity of any size has a decimal string,
and the process-wide limit is never changed.

`Record` is the base of the value classes: its fields are the annotated
names, stored by `_set`; equality is by class and fields, the hash skips
the fields named in `unhashed=`, the repr is `Name(field=value, ...)`, and
no field can be assigned or deleted. It replaces frozen data classes:
importing their module (with `inspect` and `ast`) and generating their
methods took a third of a cold `import entroset.cli`.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Any

from .errors import SchemaError

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

#: CLI exit codes per verdict.
EXIT_CODES = {HOLDS: 0, VIOLATED: 1, INCONCLUSIVE: 3}


class Record:
    """Immutable value with equality, hash and repr built from its fields."""

    def __init_subclass__(cls, unhashed: tuple[str, ...] = ()):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._hashed = tuple(name for name in cls._fields if name not in unhashed)

    def _set(self, **fields):  # the one writer of fields; returns the instance
        self.__dict__.update(fields)
        return self

    @classmethod
    def _of(cls, **fields):
        """An instance of already-checked fields, kept as given."""
        return object.__new__(cls)._set(**fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__  # holds exactly the fields

    def __hash__(self):
        return hash(tuple([getattr(self, name) for name in self._hashed]))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class CheckReport(Record, unhashed=("details",)):
    verdict: str
    lhs: float | None
    rhs: float | None
    slack: float | None
    witnesses: tuple
    provenance: str
    details: dict[str, Any]

    def __init__(self, verdict: str, lhs=None, rhs=None, slack=None, witnesses: tuple = (),
                 provenance: str = "float", details: dict[str, Any] | None = None):
        if (verdict not in (HOLDS, VIOLATED, INCONCLUSIVE) or not hasattr(witnesses, "__iter__")
                or not isinstance(details, (dict, type(None)))):
            raise SchemaError(f"bad report: {verdict=}, {witnesses=}, {details=}")
        self._set(verdict=verdict, lhs=lhs, rhs=rhs, slack=slack, witnesses=tuple(witnesses),
                  provenance=provenance, details={} if details is None else details)

    def with_details(self, details: dict[str, Any]) -> "CheckReport":
        """This report with `details` in place of its own."""
        return CheckReport(**dict(self.__dict__, details=details))

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"verdict": self.verdict}
        for key, value in (("lhs", self.lhs), ("rhs", self.rhs), ("slack", self.slack)):
            if value is not None:
                doc[key] = _jsonable(value)
        doc["witnesses"] = [_jsonable(w) for w in self.witnesses]
        doc["provenance"] = self.provenance
        if self.details:
            doc.update({k: _jsonable(v) for k, v in self.details.items()})
        return doc


def _decimal(n: int) -> str:
    # fewer than 3 * limit bits means at most limit digits, and Python
    # accepts no limit below 640, so fewer than 1920 bits is always safe
    if n.bit_length() < 1920:
        return str(n)
    # interpreters without the limit (before 3.10.7) report it as 0
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit == 0 or n.bit_length() < 3 * limit:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    low_digits = n.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(n, 10**low_digits)
    return _decimal(high) + _decimal(low).zfill(low_digits)


def exact_text(value: int | Fraction, denominator: int = 1) -> str:
    """`str(Fraction(value, denominator))` of an int or Fraction, at any number of digits."""
    num, den = value.numerator, value.denominator * denominator
    g = math.gcd(num, den)
    text = _decimal(num // g)
    if den == g:
        return text
    return f"{text}/{_decimal(den // g)}"


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, Fraction):
        return exact_text(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value
