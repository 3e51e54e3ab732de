"""Exception hierarchy.

Everything raised on purpose derives from EntrosetError, so callers (and the
CLI) can separate input/feasibility problems (exit code 2) from genuine
inequality violations (reported in a CheckReport, never raised).
Out-of-range coordinate indices raise IndexRangeError, a SchemaError that
is also a builtin IndexError. A message that repeats an offending value
(`_echo`) or an exact number cuts it to a short line with `_cut`.
"""

#: the most characters of an offending value that an error message repeats
ECHO_CHARS = 100


def _cut(text: str) -> str:
    """`text` for an error message, cut to ECHO_CHARS characters."""
    if len(text) <= ECHO_CHARS:
        return text
    return f"{text[:ECHO_CHARS]}... ({len(text)} characters)"


def _echo(value) -> str:
    """`repr(value)` for an error message, cut by `_cut`."""
    try:
        return _cut(repr(value))
    except RecursionError:  # nested deeper than repr can go
        return f"a {type(value).__name__} nested too deep to show"
    except ValueError:  # holds an int past the int-to-str digit limit
        return f"a value of type {type(value).__name__} too large to show"


class EntrosetError(Exception):
    """Base class for all package errors."""


class DomainError(EntrosetError):
    """A map was applied to an element outside its declared domain."""


class SuitabilityError(EntrosetError):
    """k is not a common multiple of the probability denominators."""


class SizeGuardError(EntrosetError):
    """An enumeration or a cover LP would exceed its size limit."""


class MembershipError(EntrosetError):
    """A vector is not a member of the type-class set it was claimed in."""


class ApproximationError(EntrosetError):
    """No usable rational approximation exists at the requested precision."""


class SchemaError(EntrosetError):
    """Malformed or incomplete input data (JSON or constructor arguments)."""


class IndexRangeError(SchemaError, IndexError):
    """A coordinate index exceeds the dimension of the data."""


class InfeasibleError(EntrosetError):
    """The cover LP has no feasible point (some element is uncovered)."""


class CoverError(EntrosetError):
    """The supplied cover does not satisfy the required cover property."""


class NegativeCoefficientError(EntrosetError):
    """Negative exponents are not allowed in cardinality-side checks."""


class EmptySliceError(EntrosetError):
    """Conditioning value is not attained by any point of the set."""
