"""Type-class vector sets built from exact rational distributions.

For a distribution X with probabilities p_i = c_i/d and a suitable k (a
multiple of d), the k-set of X is the set of length-k vectors over the
support in which element x_i occurs exactly k*p_i = c_i*(k/d) times.
Its cardinality is the multinomial coefficient k!/prod((k*p_i)!), and
log|set|/k converges to H(X) inside an exactly-checkable envelope: with
n support elements,

    |set|  <=  prod_i p_i^(-k*p_i)  <=  (k+1)^(n-1) * |set|,

all three quantities exact big integers/rationals. The first two are at
most n^k <= d^k, so a k is refused (`_check_k`) when d^k may pass a bit
limit, before any of them is built. Sizes over a list of k
(`convergence_profile`, the rows of `checkers.empirical_lemma1`) come from
one pass over the distinct k in ascending order: with m = k/d, a size
steps from the previous k' by the exact recurrence

    |k-set| = |k'-set| * perm(k, k-k') / prod_i perm(c_i*m, c_i*(m-m')),

whose operands grow with the gap, while a fresh multinomial grows with k.
So the step is taken only when the gap is small next to k'
(8*(k-k') <= k'); the first k and every larger jump are computed afresh.

Applying a map f coordinatewise commutes with the construction: the
image of the k-set of X under f^k equals the k-set of f(X). Both
directions are implemented: `verify_commutation` checks the identity by
computing both sets independently, and `preimage_lift` constructs an
explicit preimage vector witnessing the hard inclusion.

Arrangements come from one level-by-level DP (`_grow`): the images of
the arrangements of each source count vector u, grown a coordinate at a
time. `ruzsa_enumerate` keeps them as byte strings of support indices,
sorts the half-length ones once and walks the prefixes above them, lazily
and in lexicographic order. `_image_set` codes an image as an int in the
base of its alphabet size, first coordinate most significant. When two
symbols are equal, states whose sets are equal share one set object, and
each distinct half-length tail set is joined once, against the union of
its heads. So the mapped side is built without walking the source set and
costs what the (often much smaller) image set does. Both refuse more than
256 support elements (`_guard`).
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import product, starmap
from operator import add, sub
from typing import Callable, Collection, Iterable, Iterator

from .dist import (
    Element,
    FiniteMap,
    RationalDist,
    _as_int,
    _as_list,
    _expect_type,
    _log_function,
    as_elements,
    entropy,
    pushforward,
)
from .errors import MembershipError, SizeGuardError, SuitabilityError, _cut, _echo
from .projections import _group
from .report import HOLDS, VIOLATED, CheckReport, Record, exact_text

DEFAULT_ENUM_LIMIT = 10**6

# refuse a k for which k * bit_length(d) exceeds this (`_check_k`)
_K_BIT_LIMIT = 2**17

RuzsaVector = tuple[Element, ...]
# one level of the arrangement DP: source count vector -> its images (`_grow`)
Level = dict[tuple[int, ...], Collection]


class RuzsaSpec(Record):
    """A distribution together with a suitable vector length k."""

    dist: RationalDist
    k: int

    def __init__(self, dist: RationalDist, k: int):
        _check_k(k, _suitable(dist, k, "RuzsaSpec"))
        self._set(dist=dist, k=k)

    @property
    def counts(self) -> tuple[int, ...]:
        """Exact occurrence counts k*p_i = c_i * (k // d), parallel to the support."""
        return tuple(c * (self.k // self.dist.denominator) for c in self.dist.counts)

    def contains(self, vec) -> bool:
        """Exact membership test: every support element occurs k*p_i times."""
        vec = tuple(vec)
        return len(vec) == self.k and Counter(vec) == dict(zip(self.dist.support, self.counts))


def _suitable(dist: RationalDist, k, caller: str) -> int:
    """The denominator d of `dist`; SuitabilityError unless k is a positive multiple of it."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise SuitabilityError(f"k must be an integer: {_echo(k)}")
    _expect_type(dist, RationalDist, caller)
    d = dist.denominator
    if k < 1:
        raise SuitabilityError(
            f"k={_echo(k)} must be a positive multiple of the probability denominator "
            f"d={_cut(exact_text(d))}"
        )
    if k % d:
        raise SuitabilityError(
            f"k={_echo(k)} is not a multiple of the probability denominators"
        )
    return d


def _check_k(k: int, d: int) -> None:
    """SizeGuardError when k * bit_length(d), which bounds the bits of d^k (so of
    the k-set size and of `type_bound_check`'s powers) and the vector length k,
    exceeds _K_BIT_LIMIT."""
    if k * d.bit_length() > _K_BIT_LIMIT:
        raise SizeGuardError(f"k={_cut(exact_text(k))} times the {d.bit_length()} bits of "
                             f"d={_cut(exact_text(d))} exceeds the bit limit {_K_BIT_LIMIT}")


def _multinomial(counts) -> int:
    # the product of comb(r, c), r running down from k, equals k!/prod(c!)
    size, r = 1, sum(counts)
    for c in counts:
        size *= math.comb(r, c)
        r -= c
    return size


def _sizes(dist: RationalDist, ks) -> dict[int, int]:
    """Exact k-set size of X for every k in `ks`, each a positive multiple of d.

    The distinct ks are visited in ascending order. A k within an eighth of
    the previous k' steps from its size by the recurrence of the module
    docstring (the division is exact); any other k is a fresh multinomial.
    The largest k passes `_check_k` first.
    """
    d = dist.denominator
    _check_k(max(ks, default=0), d)
    sizes: dict[int, int] = {}
    prev = 0
    for k in sorted(set(ks)):
        m = k // d
        if prev and 8 * (k - prev) <= prev:
            step = m - prev // d
            num = sizes[prev] * math.perm(k, k - prev)
            sizes[k] = num // math.prod(math.perm(c * m, c * step) for c in dist.counts)
        else:
            sizes[k] = _multinomial([c * m for c in dist.counts])
        prev = k
    return sizes


def ruzsa_size(spec: RuzsaSpec) -> int:
    """Closed-form cardinality: the multinomial (k choose k*p_1, ..., k*p_n)."""
    _expect_type(spec, RuzsaSpec, "ruzsa_size")
    return _multinomial(spec.counts)


def _guard(counts: tuple[int, ...], limit: int) -> None:
    """Raise SizeGuardError unless the arrangements of `counts` may be built.

    They may not when their number exceeds `limit`, or when more than 256
    support indices cannot fit in a byte.
    """
    total = _multinomial(counts)
    if total > _as_int(limit, "limit"):
        raise SizeGuardError(f"enumeration of {_cut(exact_text(total))} vectors exceeds "
                             f"limit {_cut(exact_text(limit))}")
    if len(counts) > 256:
        raise SizeGuardError(
            f"enumeration over {len(counts)} support elements exceeds 256"
        )


def _grow(level: Level, counts: tuple[int, ...], heads: list) -> Level:
    """One level of the arrangement DP, shared by `_image_set` and `ruzsa_enumerate`.

    `level` maps count vectors u <= counts to the images of length sum(u)
    of their arrangements. The result maps every u + e_i <= counts to the
    union, over such u, of heads[i] prepended (`heads[i].__add__`) to the
    images of u. When the heads are distinct, an image's head names the u
    it grew from, so no image arises twice and each child collects its
    images in a list. Otherwise a child's parts are its (head, parent set)
    pairs; children with the same parts share one set object, built once
    and never changed, so each distinct set is prepended once per head.
    """
    grown: Level = {}
    if len(set(heads)) == len(heads):
        for state, images in level.items():
            for i, c in enumerate(state):
                if c < counts[i]:
                    child = state[:i] + (c + 1,) + state[i + 1 :]
                    grown.setdefault(child, []).extend(map(heads[i].__add__, images))
        return grown
    sets = {id(images): images for images in level.values()}
    parts: dict[tuple[int, ...], list[tuple]] = {}
    for state, images in level.items():
        for i, c in enumerate(state):
            if c < counts[i]:
                child = state[:i] + (c + 1,) + state[i + 1 :]
                parts.setdefault(child, []).append((heads[i], id(images)))
    shared: dict[frozenset, set] = {}
    for child, pairs in parts.items():
        key = frozenset(pairs)
        if key not in shared:
            shared[key] = set().union(*(map(head.__add__, sets[ident]) for head, ident in key))
        grown[child] = shared[key]
    return grown


def _decode(code: int, k: int, base: int) -> tuple[int, ...]:
    """The k symbols of an int-coded image (`_image_set`), first coordinate first."""
    digits = [0] * k
    for j in reversed(range(k)):
        code, digits[j] = divmod(code, base)
    return tuple(digits)


def _image_set(counts: tuple[int, ...], symbols: Iterable[int], limit: int) -> set[int]:
    """The image of every arrangement of `counts` under index i -> symbols[i].

    An image s_1 ... s_k is the int sum of s_j * b^(k-j), so the first
    coordinate is the most significant digit and `_decode` reads it back.
    The base b = max(symbols) + 1 is the size of the image alphabet, the
    same on both sides of `verify_commutation`, where every index below it
    occurs. `symbols` is read only after the guards of `_guard` have
    passed. The images of the arrangements of every partial count vector
    u <= counts are grown level by level from {0} by `_grow`: at depth d a
    symbol s is prepended by adding s * b^(d-1). The k//2 level is kept as
    the tails; the answer joins each distinct tail set once, as
    head * b^(k//2) + tail, against the union of the heads of every state u
    at level k - k//2 whose tails, those of counts - u, it holds. The union
    does not assume that such states have equal heads, which is the
    identity that `verify_commutation` checks. States are source count
    vectors, so every member is the image of a real arrangement.
    """
    _guard(counts, limit)
    symbols = list(symbols)
    base = max(symbols, default=0) + 1
    k = sum(counts)
    half = k // 2
    level: Level = {(0,) * len(counts): {0}}
    suffixes, scale, shift = level, 1, 1
    for depth in range(1, k - half + 1):
        level = _grow(level, counts, [s * scale for s in symbols])
        scale *= base
        if depth == half:
            suffixes, shift = level, scale
    joins: dict[int, tuple[Collection, dict[int, Collection]]] = {}
    for state, heads in level.items():
        tails = suffixes[tuple(map(sub, counts, state))]
        joins.setdefault(id(tails), (tails, {}))[1][id(heads)] = heads
    joined: set[int] = set()
    for tails, heads in joins.values():
        shifted = [head * shift for images in heads.values() for head in images]
        joined.update(starmap(add, product(shifted, tails)))
    return joined


def ruzsa_enumerate(
    spec: RuzsaSpec, limit: int = DEFAULT_ENUM_LIMIT
) -> Iterator[RuzsaVector]:
    """Yield every member exactly once, lexicographic in support indices.

    A generator: at the first item, before any vector is built, it raises
    SchemaError for a non-spec and SizeGuardError when the closed-form
    count exceeds `limit` (`_guard`); counting never needs enumeration.
    The suffixes of length k//2 come from `_grow` under the identity, as
    byte strings of support indices, each list sorted and decoded to
    elements once, at first use; the prefixes above them are walked depth
    first, so members come lazily in order.
    """
    _expect_type(spec, RuzsaSpec, "ruzsa_enumerate")
    counts = spec.counts
    _guard(counts, limit)
    n, k = len(counts), spec.k
    symbols = [bytes((i,)) for i in range(n)]
    half = k // 2
    level: Level = {(0,) * n: {b""}}
    for _ in range(half):
        level = _grow(level, counts, symbols)
    support = spec.dist.support
    suffixes: dict[tuple[int, ...], list[RuzsaVector]] = {}
    stack: list[tuple[RuzsaVector, tuple[int, ...]]] = [((), counts)]
    while stack:
        head, rest = stack.pop()
        if len(head) + half == k:
            if rest not in suffixes:
                suffixes[rest] = [tuple(map(support.__getitem__, t)) for t in sorted(level[rest])]
            yield from map(head.__add__, suffixes[rest])
            continue
        for i in reversed(range(n)):
            if rest[i]:
                stack.append((head + (support[i],), rest[:i] + (rest[i] - 1,) + rest[i + 1 :]))


def _mapped_arrangements(
    f: Callable[[Element], Element], spec: RuzsaSpec, image_support, limit: int
) -> set[int]:
    """The f^k-image of the k-set of X, int-coded over `image_support`.

    `image_support` is the support of the pushforward f(X): the symbol of
    source index i is the index of f(x_i) there. Every index occurs, so
    the base of the coding is len(image_support), as it is for the k-set
    of f(X) under the identity. `f` (a FiniteMap, or its table's
    `__getitem__`) is called only after the size guards have passed.
    """
    position = {y: j for j, y in enumerate(image_support)}
    symbols = (position[f(x)] for x in spec.dist.support)
    return _image_set(spec.counts, symbols, limit)


def verify_commutation(
    f: FiniteMap,
    spec: RuzsaSpec,
    limit: int = DEFAULT_ENUM_LIMIT,
) -> CheckReport:
    """Check that mapping coordinatewise commutes with the construction.

    Builds the f^k-image of the k-set of X and, independently, the k-set
    of the pushforward f(X) (both by `_image_set`, the second under the
    identity, each after the size guards of `_guard`); reports exact set
    equality with up to five discrepancy witnesses per side.
    """
    _expect_type(spec, RuzsaSpec, "verify_commutation")
    _expect_type(f, FiniteMap, "verify_commutation")
    image_spec = RuzsaSpec(pushforward(f, spec.dist), spec.k)
    image = image_spec.dist.support
    mapped = _mapped_arrangements(f, spec, image, limit)
    direct = _image_set(image_spec.counts, range(len(image)), limit)

    def witnesses(vecs: set[int]) -> list[RuzsaVector]:
        decoded = (tuple(map(image.__getitem__, _decode(v, spec.k, len(image)))) for v in vecs)
        return sorted(decoded)[:5]

    # one pass over the sets when they are equal; the differences otherwise
    equal = mapped == direct
    only_mapped = [] if equal else witnesses(mapped - direct)
    only_direct = [] if equal else witnesses(direct - mapped)
    return CheckReport(
        verdict=HOLDS if equal else VIOLATED,
        lhs=float(len(mapped)),
        rhs=float(len(direct)),
        slack=float(len(direct) - len(mapped)),
        witnesses=(
            {"side": side, "vector": list(v)}
            for side, vs in (("mapped_only", only_mapped), ("direct_only", only_direct))
            for v in vs
        ),
        provenance="exact",
        details={
            "source_size": exact_text(ruzsa_size(spec)),
            "mapped_size": exact_text(len(mapped)),
            "direct_size": exact_text(len(direct)),
            "k": spec.k,
        },
    )


def preimage_lift(f: FiniteMap, spec: RuzsaSpec, y) -> RuzsaVector:
    """Deterministic preimage of y in the k-set of X under f^k.

    Within the index set of each image value (positions in increasing
    order), preimage elements are assigned in contiguous blocks of size
    k*Pr(X=x), blocks ordered by the support ordering of X.
    """
    _expect_type(spec, RuzsaSpec, "preimage_lift")
    _expect_type(f, FiniteMap, "preimage_lift")
    y = tuple(as_elements(y))
    image_spec = RuzsaSpec(pushforward(f, spec.dist), spec.k)
    if not image_spec.contains(y):
        raise MembershipError("vector is not in the image k-set")
    positions = _group(range(len(y)), y.__getitem__)
    result: list[Element | None] = [None] * spec.k
    for x, c in zip(spec.dist.support, spec.counts):
        slots = positions[f(x)]
        for j in slots[:c]:
            result[j] = x
        del slots[:c]
    lifted = tuple(result)  # type: ignore[arg-type]
    if f.map_vector(lifted) != y or not spec.contains(lifted):
        raise MembershipError("lift postcondition failed")  # pragma: no cover
    return lifted


def type_bound_check(spec: RuzsaSpec) -> CheckReport:
    """Exact sandwich |set| <= prod p_i^(-k p_i) <= (k+1)^(n-1) |set|.

    All comparisons are exact, in big integers; the report carries both
    ratios so the finite-k distance to 2^(kH) is visible.
    """
    _expect_type(spec, RuzsaSpec, "type_bound_check")
    size = ruzsa_size(spec)
    # prod p_i^(-k p_i) = d^k / prod c_i^(k c_i / d), in lowest terms num/den
    num = spec.dist.denominator ** spec.k
    den = math.prod(map(pow, spec.dist.counts, spec.counts))
    g = math.gcd(num, den)
    num, den = num // g, den // g
    n = len(spec.dist)
    factor = (spec.k + 1) ** (n - 1)
    lower_ok = size * den <= num
    upper_ok = num <= factor * size * den
    lhs = math.log2(size)
    rhs = math.log2(num) - math.log2(den)
    return CheckReport(
        verdict=HOLDS if (lower_ok and upper_ok) else VIOLATED,
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        provenance="exact",
        details={
            "size": exact_text(size),
            "type_mass_inverse": exact_text(num, den),
            "upper_factor": exact_text(factor),
            "lower_ratio": exact_text(num, size * den),
            "upper_ratio": exact_text(factor * size * den, num),
            "lower_ok": lower_ok,
            "upper_ok": upper_ok,
        },
    )


def convergence_profile(
    dist: RationalDist, k_list, base: float = 2
) -> list[dict]:
    """Per-k rate log|set|/k against H(X), with the (n-1)log(k+1)/k envelope.

    Rows follow `k_list` as given, duplicates included. Every k is checked
    for suitability, and then the largest against the bit limit, before any
    size is computed; the sizes come from `_sizes`, which steps between
    nearby ks by an exact recurrence instead of a fresh multinomial.
    """
    log = _log_function(base)
    _expect_type(dist, RationalDist, "convergence_profile")
    h = entropy(dist, base=base)
    n = len(dist)
    k_list = _as_list(k_list, "k_list")
    for k in k_list:
        _suitable(dist, k, "convergence_profile")
    sizes = _sizes(dist, k_list)
    rows = []
    for k in k_list:
        size = sizes[k]
        rate = log(size) / k
        gap = h - rate
        envelope = (n - 1) * log(k + 1) / k
        rows.append(
            {
                "k": k,
                "rate": rate,
                "entropy": h,
                "gap": gap,
                "envelope": envelope,
                "size": exact_text(size),
            }
        )
    return rows
