"""Finite distributions with exact rational probabilities.

Ground elements are tuples of bounded integers; scalars are stored as
length-1 tuples so that every element lives in some product space.
Probabilities are `fractions.Fraction` values, always reduced with a
positive denominator, strictly positive (zero-mass outcomes are dropped
at construction) and summing to exactly 1.

Entropy is the only float-valued quantity here; everything feeding it
(probabilities, preimage sums, denominators) stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ApproximationError, DomainError, SchemaError
from .report import exact_text

Element = tuple[int, ...]

#: Accepted log bases for entropy values: bits (2) or nats (e).
LOG_BASES = (2, math.e)


def as_element(value) -> Element:
    """Normalize ints and int sequences to the canonical tuple form."""
    if isinstance(value, int) and not isinstance(value, bool):
        return (value,)
    if isinstance(value, (tuple, list)):
        coords = tuple(value)
        if not coords or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in coords
        ):
            raise SchemaError(f"element coordinates must be integers: {value!r}")
        return coords
    raise SchemaError(f"not a ground element: {value!r}")


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"not a rational string: {value!r}") from exc
    raise SchemaError(f"not an exact rational: {value!r}")


def _log(x: float, base: float) -> float:
    if base == 2:
        return math.log2(x)
    return math.log(x)


def check_base(base: float) -> float:
    if base not in LOG_BASES:
        raise SchemaError(f"log base must be 2 or e, got {base!r}")
    return base


@dataclass(frozen=True)
class RationalDist:
    """Finite-support distribution with exact rational probabilities.

    `support` keeps the construction order; `probs` is parallel to it.
    """

    support: tuple[Element, ...]
    probs: tuple[Fraction, ...]

    def __init__(self, support: Sequence, probs: Sequence):
        if len(support) != len(probs):
            raise SchemaError("support and probs must have equal length")
        elems = [as_element(x) for x in support]
        fracs = [as_fraction(p) for p in probs]
        if any(p < 0 for p in fracs):
            raise SchemaError("probabilities must be nonnegative")
        # zero-mass outcomes are dropped, not rejected
        kept = [(x, p) for x, p in zip(elems, fracs) if p > 0]
        if not kept:
            raise SchemaError("distribution has no positive-probability outcome")
        elems = [x for x, _ in kept]
        fracs = [p for _, p in kept]
        if len(set(elems)) != len(elems):
            raise SchemaError("support elements must be pairwise distinct")
        total = sum(fracs)
        if total != 1:
            raise SchemaError(
                f"probabilities must sum to 1 exactly, got {exact_text(total)}"
            )
        dims = {len(x) for x in elems}
        if len(dims) != 1:
            raise SchemaError("support elements must share one dimension")
        object.__setattr__(self, "support", tuple(elems))
        object.__setattr__(self, "probs", tuple(fracs))

    @classmethod
    def uniform(cls, points: Iterable) -> "RationalDist":
        """Uniform distribution over the given points, in canonical order."""
        elems = sorted({as_element(x) for x in points})
        if not elems:
            raise SchemaError("uniform distribution needs a nonempty point set")
        p = Fraction(1, len(elems))
        return cls(elems, [p] * len(elems))

    @property
    def dimension(self) -> int:
        return len(self.support[0])

    def as_mapping(self) -> Mapping[Element, Fraction]:
        return dict(zip(self.support, self.probs))

    def __len__(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class FiniteMap:
    """Explicit function table between ground elements.

    Total on its declared domain; one image per key. Applying it to an
    element outside the domain raises DomainError.
    """

    table: Mapping[Element, Element] = field(hash=False)

    def __init__(self, table):
        if isinstance(table, FiniteMap):
            table = table.table
        pairs = table.items() if isinstance(table, Mapping) else table
        normalized: dict[Element, Element] = {}
        for key, value in pairs:
            k = as_element(key)
            if k in normalized:
                raise SchemaError(f"duplicate key in map table: {k}")
            normalized[k] = as_element(value)
        if not normalized:
            raise SchemaError("map table must be nonempty")
        object.__setattr__(self, "table", normalized)

    @classmethod
    def identity(cls, domain: Iterable) -> "FiniteMap":
        return cls({as_element(x): as_element(x) for x in domain})

    @property
    def domain(self) -> frozenset[Element]:
        return frozenset(self.table)

    def __call__(self, x) -> Element:
        key = as_element(x)
        try:
            return self.table[key]
        except KeyError:
            raise DomainError(f"element {key} not in map domain") from None

    def map_vector(self, vec: Sequence) -> tuple[Element, ...]:
        """Coordinatewise application to a vector over the domain."""
        return tuple(self(x) for x in vec)

    def image(self, points: Iterable) -> frozenset[Element]:
        return frozenset(self(x) for x in points)


def entropy(dist: RationalDist, base: float = 2) -> float:
    """Shannon entropy sum(p * log(1/p)); 0 for a single-point support."""
    check_base(base)
    if len(dist) == 1:
        return 0.0
    return sum(_entropy_term(p, base) for p in dist.probs)


def _entropy_term(p: Fraction, base: float) -> float:
    q = float(p)
    inv = 1 / q if q else math.inf
    if math.isinf(inv):
        # float(p) underflows or 1/float(p) overflows: take log(1/p) from
        # the exact numerator and denominator, then round p * log(1/p) once
        return float(p * Fraction(_log(p.denominator, base) - _log(p.numerator, base)))
    return q * _log(inv, base)


def pushforward(f: FiniteMap, dist: RationalDist) -> RationalDist:
    """Distribution of f(X): exact preimage sums, support in first-image order."""
    masses: dict[Element, Fraction] = {}
    order: list[Element] = []
    for x, p in zip(dist.support, dist.probs):
        y = f(x)
        if y not in masses:
            masses[y] = Fraction(0)
            order.append(y)
        masses[y] += p
    return RationalDist(order, [masses[y] for y in order])


def minimal_suitable_k(dist: RationalDist) -> int:
    """Least k making every k*p_i an integer: lcm of the reduced denominators."""
    return math.lcm(*(p.denominator for p in dist.probs))


def is_suitable(dist: RationalDist, k: int) -> bool:
    return k >= 1 and k % minimal_suitable_k(dist) == 0


def _grid(big_l: int, max_denominator: int) -> list[int]:
    """Sorted numerators m of every m/L in [0, 1] whose reduced denominator is <= D."""
    return sorted(
        {p * (big_l // q) for q in range(1, max_denominator + 1) for p in range(q + 1)}
    )


def rationalize(
    weights: Sequence[float],
    max_denominator: int,
    support: Sequence | None = None,
) -> RationalDist:
    """Best rational approximation of a weight vector as a distribution.

    Normalizes the weights, then finds probabilities with reduced
    denominators <= max_denominator, summing to exactly 1, at minimal total
    variation distance from the normalized input. Ties are broken toward
    putting mass on earlier entries. `support` defaults to scalar elements
    0, 1, 2, ...

    Every candidate probability is a multiple of 1/L for L = lcm(1..D), so
    the search is a shortest-path sweep over that grid; max_denominator is
    capped at 16 to keep L (720720) at desk scale.
    """
    import numpy as np

    if max_denominator < 1:
        raise SchemaError("max_denominator must be >= 1")
    if max_denominator > 16:
        raise SchemaError("max_denominator above 16 is not supported (lcm grid too large)")
    weights = list(weights)
    if not weights:
        raise SchemaError("weights must be nonempty")
    if not all(math.isfinite(w) for w in weights):
        raise SchemaError("weights must be finite")
    if any(w < 0 for w in weights):
        raise SchemaError("weights must be nonnegative")
    total = sum(weights)
    if total <= 0:
        raise SchemaError("weights must have positive sum")
    target = [w / total for w in weights]
    if support is None:
        support = [(i,) for i in range(len(weights))]
    elems = [as_element(x) for x in support]
    if len(elems) != len(weights):
        raise SchemaError("support and weights must have equal length")

    if all(p < 1 / (2 * max_denominator) for p in target):
        raise ApproximationError(
            f"all weights round to zero at max_denominator={max_denominator}"
        )

    big_l = math.lcm(*range(1, max_denominator + 1))
    allowed = np.array(_grid(big_l, max_denominator), dtype=np.int64)
    n = len(target)
    inf = np.inf
    # best[s] = optimal cost of assigning entries i..n-1 with total mass s/L
    best = np.full(big_l + 1, inf)
    best[0] = 0.0
    # choice[i][s] = index into `allowed` picked at entry i given remaining s;
    # swept in ascending value order with <=, so exact cost ties keep the
    # largest value (mass prefers earlier entries at reconstruction)
    choices = []
    for i in range(n - 1, -1, -1):
        cost = np.abs(allowed - target[i] * big_l) / big_l
        nxt = np.full(big_l + 1, inf)
        pick = np.full(big_l + 1, -1, dtype=np.int16)
        for j, (a, c) in enumerate(zip(allowed.tolist(), cost.tolist())):
            cand = best[: big_l + 1 - a] + c
            seg = nxt[a:]
            take = cand <= seg
            seg[take] = cand[take]
            pick[a:][take] = j
        best = nxt
        choices.append(pick)
    choices.reverse()
    if not np.isfinite(best[big_l]):
        raise ApproximationError("no rational rounding reaches total mass 1")

    remaining = big_l
    numerators = []
    for i in range(n):
        j = int(choices[i][remaining])
        m = int(allowed[j])
        numerators.append(m)
        remaining -= m
    # zero-mass entries are dropped by the constructor
    return RationalDist(elems, [Fraction(m, big_l) for m in numerators])
