"""Seeded random generators shared by the unit and acceptance tests.

Everything takes an explicit random.Random so each test fixes its own
seed; scales follow the desk-scale bounds used throughout (support and
point sets of a few dozen elements, denominators in the low teens).
`reference_ratio` is the test oracle for reading a rational: it reads with
`fractions.Fraction` alone, not with the package's own reader.
"""

from __future__ import annotations

import fractions
import math
import random
import sys
from fractions import Fraction

from entroset import CoverSpec, FiniteMap, IndexSet, PointSet, RationalDist, SchemaError
from entroset.errors import _echo


def reference_ratio(value) -> tuple[int, int]:
    """An exact rational as (numerator, denominator), read by `Fraction` alone.

    It refuses what the package documents refusing: a bool, a value that is
    not an int, a Fraction or a string, a string `Fraction` cannot read, and
    one whose exponent, as `Fraction` reads it, exceeds the int digit limit.
    """
    if isinstance(value, bool) or not isinstance(value, (int, Fraction, str)):
        raise SchemaError(f"not an exact rational: {_echo(value)}")
    try:
        if isinstance(value, str):
            match = fractions._RATIONAL_FORMAT.match(value)
            limit = sys.get_int_max_str_digits()
            if limit and match and match["exp"] and abs(int(match["exp"])) > limit:
                raise ValueError("exponent above the int digit limit")
        p = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"not a rational string: {_echo(value)}") from None
    return p.numerator, p.denominator


def random_elements(rng: random.Random, count: int, dim: int = 1, span: int = 10):
    """Distinct elements of the given dimension with coordinates in [0, span)."""
    out = set()
    while len(out) < count:
        out.add(tuple(rng.randrange(span) for _ in range(dim)))
    return sorted(out)


def random_dist(
    rng: random.Random,
    max_support: int = 5,
    max_denominator: int = 6,
    dim: int = 1,
    span: int = 10,
) -> RationalDist:
    """Distribution whose reduced denominators all divide one r <= max_denominator."""
    m = rng.randint(1, max_support)
    r = rng.randint(max(m, 1), max_denominator)
    cuts = sorted(rng.sample(range(1, r), m - 1)) if m > 1 else []
    bounds = [0] + cuts + [r]
    parts = [bounds[i + 1] - bounds[i] for i in range(m)]
    support = random_elements(rng, m, dim=dim, span=span)
    return RationalDist(support, [Fraction(p, r) for p in parts])


def random_dist_on(rng: random.Random, support, max_denominator: int = 12) -> RationalDist:
    """Random distribution over the given support (some mass may drop)."""
    support = list(support)
    m = len(support)
    r = rng.randint(max(m, 1), max(max_denominator, m))
    cuts = sorted(rng.sample(range(1, r), m - 1)) if m > 1 else []
    bounds = [0] + cuts + [r]
    parts = [bounds[i + 1] - bounds[i] for i in range(m)]
    return RationalDist(support, [Fraction(p, r) for p in parts])


def random_map(rng: random.Random, domain, merge_bias: float = 0.6) -> FiniteMap:
    """Map on the given domain; merge_bias shrinks the image to force collisions."""
    domain = sorted(as_tuple(x) for x in domain)
    pool_size = max(1, round(len(domain) * (1 - merge_bias)) + rng.randint(0, 1))
    pool = [(100 + j,) for j in range(pool_size)]
    return FiniteMap({x: rng.choice(pool) for x in domain})


def as_tuple(x):
    return tuple(x) if isinstance(x, (tuple, list)) else (x,)


def random_pointset(
    rng: random.Random, n: int, span: int = 4, max_size: int = 32
) -> PointSet:
    grid = [
        tuple((v // span**i) % span for i in range(n))
        for v in range(span**n)
    ]
    size = rng.randint(1, min(max_size, len(grid)))
    return PointSet(n, rng.sample(grid, size))


def random_members(rng: random.Random, n: int, max_members: int = 8) -> list[IndexSet]:
    """Random multiset of nonempty subsets whose union is all of [n]."""
    count = rng.randint(1, max_members)
    members = []
    for _ in range(count):
        size = rng.randint(1, n)
        members.append(IndexSet(rng.sample(range(1, n + 1), size)))
    covered = set().union(*(set(m.indices) for m in members))
    for i in range(1, n + 1):
        if i not in covered:
            members.append(IndexSet([i]))
    return members


def random_fractional_cover(
    rng: random.Random, n: int, max_members: int = 8, max_denominator: int = 12
) -> CoverSpec:
    """Fractional cover with weight denominators <= max_denominator.

    Raw weights are scaled by an integer, which preserves denominators
    while pushing every coverage sum to at least 1.
    """
    members = random_members(rng, n, max_members)
    weights = [
        Fraction(rng.randint(1, 2 * max_denominator), rng.randint(1, max_denominator))
        for _ in members
    ]
    cover = CoverSpec(n, members, weights)
    worst = min(cover.coverage())
    if worst < 1:
        scale = math.ceil(1 / worst)
        cover = CoverSpec(n, members, [w * scale for w in weights])
    return cover


def chain_cover(n: int) -> CoverSpec:
    """The singleton chain {1},...,{n} with unit weights."""
    return CoverSpec(n, [IndexSet([i]) for i in range(1, n + 1)], [1] * n)


def random_uniform_k_cover(rng: random.Random, n: int, k: int) -> CoverSpec:
    """Union of k random partitions of [n]: every element in exactly k members."""
    members = []
    for _ in range(k):
        order = list(range(1, n + 1))
        rng.shuffle(order)
        cut_count = rng.randint(0, n - 1)
        cuts = sorted(rng.sample(range(1, n), cut_count)) if cut_count else []
        bounds = [0] + cuts + [n]
        for lo, hi in zip(bounds, bounds[1:]):
            members.append(IndexSet(order[lo:hi]))
    return CoverSpec(n, members)


def all_subsets_cover(n: int, size: int) -> CoverSpec:
    """All size-subsets of [n]; a uniform cover with multiplicity C(n-1, size-1)."""
    from itertools import combinations

    return CoverSpec(n, [IndexSet(c) for c in combinations(range(1, n + 1), size)])
