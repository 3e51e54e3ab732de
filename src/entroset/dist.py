"""Finite distributions with exact rational probabilities.

Ground elements are tuples of bounded integers; scalars are stored as
length-1 tuples so that every element lives in some product space.
A distribution stores positive int counts c_i over d, the lcm of the
reduced denominators of its probabilities p_i = c_i/d, so the form is
canonical. Zero-mass outcomes are dropped; `probs` derives the Fractions.
Every rational (probability, coefficient, cover weight) is read by `_ratio`
as an int (numerator, denominator) pair; a plain "p" or "p/q" string is read
with `int`, so no Fraction is made on the way in or out of a distribution.
`as_fraction` is the Fraction of that pair.

Entropy is the only float-valued quantity here; everything feeding it
(counts, preimage sums, denominators) stays exact, as does 2^(d*H).
`_image` makes the image of a map on both sides: f(A), or the law of f(X).

The input rules that every module shares live here, each a helper that
raises SchemaError naming the value: `_as_int` (an int, not a bool),
`_as_list` (any iterable, read into a list), `_expect_type` (an instance
of a given class) and `_as_float` (a value inside the float range).
Index-set arguments are checked by `projections._check_indices`.

Elements are checked once, where a value enters: a constructor, called
through the API or by a JSON decoder, reads every value of its fields (a
decoder only applies JSON's own rules first), and normalizes elements with
`as_element`/`as_elements`, which check every coordinate (a whole list at
once when it is valid). A map table is read by `_map_table`, which checks
each distinct column once: a column equal to one read before reuses its
tuples (the keys of an identity table; the tables of one spec, see
`InequalitySpec`).
Internal results, such as projections, slices and copies of a map,
are built from tuples that are already normal and are not checked again.
"""

from __future__ import annotations

import marshal
import math
import numbers
import re
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Sequence

from .errors import ApproximationError, DomainError, SchemaError, _cut, _echo
from .report import Record, exact_text

Element = tuple[int, ...]


_INT = frozenset({int})
_SEQUENCES = frozenset({list, tuple})


def _as_int(value, what: str) -> int:
    """`value` if it is an int and not a bool; else SchemaError naming it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer: {_echo(value)}")
    return value


def _as_list(values, what: str) -> list:
    """`list(values)`; SchemaError naming a value that cannot be iterated."""
    try:
        return list(values)
    except TypeError:
        raise SchemaError(f"{what} must be a sequence: {_echo(values)}") from None


def _expect_type(value, kind: type, what: str) -> None:
    """SchemaError unless `value` is a `kind`: "<what> needs a <kind>"."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise SchemaError(f"{what} needs {article} {kind.__name__}: {_echo(value)}")


def as_element(value) -> Element:
    """Normalize ints and int sequences to the canonical tuple form."""
    if isinstance(value, int) and not isinstance(value, bool):
        return (value,)
    if isinstance(value, (tuple, list)):
        coords = tuple(value)
        # exact ints pass at once; bools and int subclasses take the full check
        if coords and set(map(type, coords)) <= _INT:
            return coords
        if not coords or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in coords
        ):
            raise SchemaError(f"element coordinates must be integers: {_echo(value)}")
        return coords
    raise SchemaError(f"not a ground element: {_echo(value)}")


def _int_tuples(values: list) -> list[Element] | None:
    """The values as tuples if each is a nonempty list or tuple of ints, else None.

    The ints must be exact `int`s: a bool or an int subclass gives None.
    """
    if not set(map(type, values)) <= _SEQUENCES:
        return None
    elems = list(map(tuple, values))
    if all(elems) and set(map(type, chain.from_iterable(elems))) <= _INT:
        return elems
    return None


def as_elements(values: Iterable) -> list[Element]:
    """`[as_element(v) for v in values]`, checking all coordinates at once.

    Only when that bulk check fails are the values checked one by one, so
    the first bad value raises the same error as it would alone.
    """
    if not isinstance(values, list):
        values = _as_list(values, "elements")
    elems = _int_tuples(values)
    return [as_element(v) for v in values] if elems is None else elems


# the exponent of a rational string such as "15e-1", read by Fraction as 10**exponent
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _ratio(value) -> tuple[int, int]:
    """An exact rational as its (numerator, denominator), in lowest terms.

    The one reader of rationals. A plain "p" or "p/q" string of ASCII digits
    with q nonzero is read with `int` and one `gcd`; any other string is read
    by `Fraction`. A string with a part past the int digit limit is refused,
    as is one whose exponent exceeds it (`Fraction` would build 10**exponent).
    An int (not a bool) or a Fraction gives its own numerator and denominator.
    """
    try:
        if type(value) is str and value.isascii():
            num, slash, den = value.partition("/")
            if num.isdigit() and (den.isdigit() or not slash):
                n, q = int(num), int(den) if slash else 1
                if q:
                    g = math.gcd(n, q)
                    return n // g, q // g
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return value.numerator, value.denominator
        if isinstance(value, str):
            limit = getattr(sys, "get_int_max_str_digits", int)()
            exponent = _EXPONENT.search(value)
            if limit and exponent and int(exponent[1]) > limit:
                raise ValueError(f"exponent above the int digit limit {limit}")
            p = Fraction(value)
            return p.numerator, p.denominator
    except (ValueError, ZeroDivisionError) as exc:  # raised only in reading a string
        raise SchemaError(f"not a rational string: {_echo(value)}") from exc
    raise SchemaError(f"not an exact rational: {_echo(value)}")


def as_fraction(value) -> Fraction:
    """Ints, Fractions and rational strings as an exact Fraction, read by `_ratio`."""
    return value if isinstance(value, Fraction) else Fraction(*_ratio(value))


def _as_float(value, what: str) -> float:
    """`float(value)`; SchemaError naming an exact value past the float range."""
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{what} is outside the float range: {_cut(exact_text(value))}") from None


def _log_function(base: float) -> Callable[[float], float]:
    """The log of an accepted base: `math.log2` for bits (2), `math.log` for nats (e)."""
    if base == 2:
        return math.log2
    if base == math.e:
        return math.log
    raise SchemaError(f"log base must be 2 or e, got {_echo(base)}")


class RationalDist(Record):
    """Finite-support distribution with exact rational probabilities.

    `support` keeps the construction order; Pr(support[i]) = counts[i] / denominator.
    The constructor is the one reader of a distribution, for the API and for
    `jsonio` alike: it checks the lengths, then the support, then reads each
    probability with `_ratio`.
    """

    support: tuple[Element, ...]
    counts: tuple[int, ...]
    denominator: int

    def __init__(self, support: Sequence, probs: Sequence):
        try:
            lengths_differ = len(support) != len(probs)
        except TypeError:
            raise SchemaError("support and probs must be sequences") from None
        if lengths_differ:
            raise SchemaError("support and probs must have equal length")
        elems = as_elements(support)
        ratios = [_ratio(p) for p in probs]
        if any(n < 0 for n, _ in ratios):
            raise SchemaError("probabilities must be nonnegative")
        # zero-mass outcomes are dropped, not rejected
        kept = [(x, r) for x, r in zip(elems, ratios) if r[0]]
        if not kept:
            raise SchemaError("distribution has no positive-probability outcome")
        elems, ratios = zip(*kept)
        if len(set(elems)) != len(elems):
            raise SchemaError("support elements must be pairwise distinct")
        d = math.lcm(*(q for _, q in ratios))
        counts = tuple(n * (d // q) for n, q in ratios)
        if sum(counts) != d:
            raise SchemaError(
                f"probabilities must sum to 1 exactly, got {_cut(exact_text(sum(counts), d))}"
            )
        if len(set(map(len, elems))) != 1:
            raise SchemaError("support elements must share one dimension")
        self._set(support=elems, counts=counts, denominator=d)

    @classmethod
    def uniform(cls, points: Iterable) -> "RationalDist":
        """Uniform distribution over the given points, in canonical order."""
        elems = tuple(sorted(set(as_elements(points))))
        if not elems:
            raise SchemaError("uniform distribution needs a nonempty point set")
        if len(set(map(len, elems))) != 1:
            raise SchemaError("support elements must share one dimension")
        return cls._of(support=elems, counts=(1,) * len(elems), denominator=len(elems))

    @property
    def probs(self) -> tuple[Fraction, ...]:
        """The probabilities counts[i] / denominator, reduced, parallel to the support."""
        return tuple(Fraction(c, self.denominator) for c in self.counts)

    @property
    def dimension(self) -> int:
        return len(self.support[0])

    def as_mapping(self) -> Mapping[Element, Fraction]:
        return dict(zip(self.support, self.probs))

    def __len__(self) -> int:
        return len(self.support)


def _checked(raw: list, seen: list) -> list[Element] | None:
    """`_int_tuples(raw)`, or the tuples of the column in `seen` with the same
    marshal bytes, which tell True, 1.0 and 1 apart where `==` does not. A new
    column is added to `seen`; one that marshal cannot write (an IntEnum, an
    array) is checked anew. `seen` is a list, not a dict: a scan compares
    lengths first and stops at the first byte that differs, where a dict
    would hash every byte of each column.
    """
    try:
        data = marshal.dumps(raw, 2)
    except ValueError:  # a type marshal cannot write
        return _int_tuples(raw)
    for other, elems in seen:
        if other == data:
            return elems
    elems = _int_tuples(raw)
    seen.append((data, elems))
    return elems


def _map_table(table, seen: list | None = None) -> dict:
    """A map table (a mapping or a sequence of [key, value] pairs), normalized.

    Each column, the keys and the values, is bulk-checked once by `_checked`:
    a column equal to one in `seen` (the columns read before it, such as the
    other tables of one spec, or this table's keys) reuses its tuples. A bad
    entry or a repeated key falls back to one entry at a time, so the first
    in table order raises, as it would alone.
    """
    try:
        pairs = list(table.items() if isinstance(table, Mapping) else table)
    except TypeError:
        raise SchemaError(
            f"map table must be a mapping or a sequence: {_echo(table)}") from None
    if not (set(map(type, pairs)) <= _SEQUENCES and set(map(len, pairs)) <= {2}):
        # the shape of every entry is checked before any element
        for entry in pairs:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise SchemaError(f"map table entries are [key, value] pairs: {_echo(entry)}")
    seen = [] if seen is None else seen
    keys = _checked([k for k, _ in pairs], seen)
    values = _checked([v for _, v in pairs], seen)
    normalized = None if keys is None or values is None else dict(zip(keys, values))
    if normalized is None or len(normalized) != len(pairs):
        # a bad entry or a duplicate key: the first one in table order raises
        normalized = {}
        for key, value in pairs:
            k = as_element(key)
            if k in normalized:
                raise SchemaError(f"duplicate key in map table: {_echo(k)}")
            normalized[k] = as_element(value)
    if not normalized:
        raise SchemaError("map table must be nonempty")
    return normalized


class FiniteMap(Record, unhashed=("table",)):
    """Explicit function table between ground elements.

    Total on its declared domain; one image per key. Applying it to an
    element outside the domain raises DomainError.
    """

    table: Mapping[Element, Element]

    def __init__(self, table):
        # a FiniteMap is already normal: its table is copied, not checked again
        table = dict(table.table) if isinstance(table, FiniteMap) else _map_table(table)
        self._set(table=table)

    @classmethod
    def identity(cls, domain: Iterable) -> "FiniteMap":
        table = {x: x for x in as_elements(domain)}
        if not table:
            raise SchemaError("map table must be nonempty")
        return cls._of(table=table)

    def __call__(self, x) -> Element:
        key = as_element(x)
        try:
            return self.table[key]
        except KeyError:
            raise DomainError(f"element {_echo(key)} not in map domain") from None

    def map_vector(self, vec: Sequence) -> tuple[Element, ...]:
        """Coordinatewise application to a vector over the domain."""
        return tuple(map(self, _as_list(vec, "vector")))

    def image(self, points: Iterable) -> frozenset[Element]:
        return _image(_as_list(points, "points"), self)


def entropy(dist: RationalDist, base: float = 2) -> float:
    """Shannon entropy sum(p * log(1/p)); 0 for a single-point support."""
    _expect_type(dist, RationalDist, "entropy")
    log = _log_function(base)
    return sum(_entropy_term(c, dist.denominator, log) for c in dist.counts)


def _entropy_term(c: int, d: int, log: Callable[[float], float]) -> float:
    # int true division is correctly rounded, as float(Fraction(c, d)) is
    q = c / d
    inv = 1 / q if q else math.inf
    if math.isinf(inv):
        # c/d underflows or d/c overflows: take log(1/p) from the reduced
        # numerator and denominator, then round p * log(1/p) once
        p = Fraction(c, d)
        return float(p * Fraction(log(p.denominator) - log(p.numerator)))
    return q * log(inv)


def entropy_power(dist: RationalDist) -> tuple[int, dict[int, int]]:
    """(d, {b: e}) with 2^(d*H) = prod b^e: for p_i = c_i/d, d^d / prod c_i^c_i."""
    d = minimal_suitable_k(dist)
    powers = {d: d}
    for c in dist.counts:
        powers[c] = powers.get(c, 0) - c
    return d, powers


def _image(data, f: Callable) -> frozenset | RationalDist:
    """f(A) of a collection of points, or the law of f(X) of a RationalDist in first-image
    order, with the summed counts and d divided by their gcd (the canonical form)."""
    if not isinstance(data, RationalDist):
        return frozenset(map(f, data))
    masses: dict = {}
    for y, c in zip(map(f, data.support), data.counts):
        masses[y] = masses.get(y, 0) + c
    g = math.gcd(data.denominator, *masses.values())
    counts = tuple(c // g for c in masses.values())
    return RationalDist._of(
        support=tuple(masses), counts=counts, denominator=data.denominator // g)


def pushforward(f: FiniteMap, dist: RationalDist) -> RationalDist:
    """Distribution of f(X): exact preimage sums, support in first-image order."""
    _expect_type(dist, RationalDist, "pushforward")
    _expect_type(f, FiniteMap, "pushforward")
    image = _image(dist, f)
    # map values may differ in length
    if len(set(map(len, image.support))) != 1:
        raise SchemaError("support elements must share one dimension")
    return image


def minimal_suitable_k(dist: RationalDist) -> int:
    """Least k making every k*p_i an integer: the denominator d of the counts."""
    _expect_type(dist, RationalDist, "minimal_suitable_k")
    return dist.denominator


def is_suitable(dist: RationalDist, k: int) -> bool:
    _as_int(k, "k")
    _expect_type(dist, RationalDist, "is_suitable")
    return k % dist.denominator == 0 and k >= 1


def _grid(big_l: int, max_denominator: int) -> list[int]:
    """Sorted numerators m of every m/L in [0, 1] whose reduced denominator is <= D."""
    return sorted(
        {p * (big_l // q) for q in range(1, max_denominator + 1) for p in range(q + 1)}
    )


def _sweep(costs: list[list[tuple[int, float]]], big_l: int, limit: float):
    """Suffix DP over the (value, cost) pairs of each entry, within `limit`.

    Keeps only values and partial sums whose cost, plus the least cost of
    the entries still unassigned, is <= limit. Returns the least cost of
    total mass L (None if it was pruned) and, per entry, the value picked
    at each remaining mass.
    """
    rows = [[(a, c) for a, c in row if c <= limit] for row in costs]
    # what entries 0..i-1, still unassigned at entry i, add at the least and
    # the most mass, and at the least cost
    lo, hi, rest = [0], [0], [0.0]
    for row in rows[:-1]:
        lo.append(lo[-1] + row[0][0])
        hi.append(hi[-1] + row[-1][0])
        rest.append(rest[-1] + min(c for _, c in row))
    # best[s] = optimal cost of assigning entries i..n-1 with total mass s/L
    best = {0: 0.0}
    # choices[i][s] = value picked at entry i given remaining s; values are
    # swept in ascending order with <=, so exact cost ties keep the largest
    # value (mass prefers earlier entries at reconstruction)
    choices = []
    for i in range(len(rows) - 1, -1, -1):
        top, bottom, slack = big_l - lo[i], big_l - hi[i], limit - rest[i]
        nxt: dict[int, float] = {}
        pick: dict[int, int] = {}
        keys = sorted(best)
        for a, c in rows[i]:
            for s in keys[bisect_left(keys, bottom - a):bisect_right(keys, top - a)]:
                t = s + a
                cand = best[s] + c
                if cand <= slack and cand <= nxt.get(t, math.inf):
                    nxt[t] = cand
                    pick[t] = a
        best = nxt
        choices.append(pick)
    choices.reverse()
    return best.get(big_l), choices


def rationalize(weights: Sequence[float], max_denominator: int) -> RationalDist:
    """Best rational approximation of a weight vector as a distribution.

    Normalizes the weights, then finds probabilities with reduced
    denominators <= max_denominator, summing to exactly 1, at minimal total
    variation distance from the normalized input. Ties are broken toward
    putting mass on earlier entries. Entry i becomes the scalar element i.
    If the weights sum past the float range, they are first divided by the
    largest one.

    Every candidate probability is a multiple of 1/L for L = lcm(1..D), so
    the search is a shortest-path sweep over that grid. It keeps only the
    partial sums whose cost stays within a limit, and grows the limit until
    the least cost it finds lies within it, so it returns what a sweep over
    all L + 1 partial sums returns, ties included. That always happens:
    putting all mass on one entry costs at most 2. max_denominator is capped
    at 16: the partial sums within the limit, and so the time, grow steeply
    with the grid (81 values at D = 16, L = 720720) and the number of entries.
    """
    _as_int(max_denominator, "max_denominator")
    if max_denominator < 1:
        raise SchemaError("max_denominator must be >= 1")
    if max_denominator > 16:
        raise SchemaError("max_denominator above 16 is not supported (lcm grid too large)")
    weights = _as_list(weights, "weights")
    if not weights:
        raise SchemaError("weights must be nonempty")
    for w in weights:
        if isinstance(w, bool) or not isinstance(w, numbers.Real):
            raise SchemaError(f"weights must be real numbers: {_echo(w)}")
    if not all(math.isfinite(_as_float(w, "weight")) for w in weights):
        raise SchemaError("weights must be finite")
    if any(w < 0 for w in weights):
        raise SchemaError("weights must be nonnegative")
    total = sum(weights)
    if not math.isfinite(total):
        # the sum overflows: scale by the largest weight, which is then 1
        largest = max(weights)
        weights = [w / largest for w in weights]
        total = sum(weights)
    if total <= 0:
        raise SchemaError("weights must have positive sum")
    target = [w / total for w in weights]

    if all(p < 1 / (2 * max_denominator) for p in target):
        raise ApproximationError(
            f"all weights round to zero at max_denominator={max_denominator}"
        )

    big_l = math.lcm(*range(1, max_denominator + 1))
    grid = _grid(big_l, max_denominator)
    n = len(target)
    # The sweep assigns entries n-1..0 and sums costs in that order. Float
    # addition of nonnegative costs is monotone, so a sweep within a limit
    # keeps every path that costs at most the limit, and every state on it
    # at its unpruned value; the relative widening covers the rounding of
    # the lower bounds it adds. If the least cost found is within the
    # limit, the optimum and every path tied with it were kept, and the
    # picks are those of a sweep over all L + 1 partial sums. The time
    # grows steeply with the limit, so it starts low and grows by a
    # quarter. The loop ends: the grid holds 0 and L, so putting all mass
    # on one entry is a path of cost at most 2 (up to rounding), and a
    # sweep within a limit above its cost keeps it.
    costs = [[(a, abs(a - t * big_l) / big_l) for a in grid] for t in target]
    least = sum(min(c for _, c in row) for row in costs)
    # the start is no lower than any entry's least cost, so every entry
    # keeps a value, and above 0, so that growing it by a quarter moves it
    limit = max(1.5 * least, 1 / big_l)
    while True:
        value, choices = _sweep(costs, big_l, limit + limit * 1e-9)
        if value is not None and value <= limit:
            break
        limit *= 1.25

    remaining = big_l
    numerators = []
    for i in range(n):
        m = choices[i][remaining]
        numerators.append(m)
        remaining -= m
    # zero-mass entries are dropped by the constructor
    return RationalDist([(i,) for i in range(n)], [Fraction(m, big_l) for m in numerators])
