"""Point sets in product spaces: projections, slices, conditional sizes.

Coordinates are 1-based throughout, matching the JSON interchange format.
The conditional average size of a projection is a geometric mean: slice
the ambient set A by its S-coordinates, project each slice to T, and
weight slice sizes by the exact probability that a uniformly random point
of A lands in the slice. Conditioning on the empty index set is defined
to be no conditioning at all: its `_restrictor` is None, no g.

Every term of the correspondence is built here once, for the public
functions and the checkers: `_term` (|f(A)| or 2^H(f(X))) and
`_conditional_term` (|f(A) cond g(A)| or 2^H(f(X) | g(X)) for any two fast
callables f and g), each a float log and an exact form built only when
asked for; every image is `dist._image`.

A point set's slices by any callable g are built by one builder,
`_slices`: one grouping pass over A (`_group`) and a sort of the slice
keys, not one rescan of A per slice. Every set-side conditional term
(`_sliced_term`) reads them; a term's log and its exact |A|-th power
(`conditional_size_power`) come from the same slice sizes.
The terms of f_i given the prefixes x -> x[:k_i], as a cover check lists
them, are evaluated in one place (`_prefix_terms`): the slices by a chain
of prefixes share one pass, since in the key order of the deepest prefix's
slices those of a shorter prefix are runs of consecutive slices, merged.
"""

from __future__ import annotations

import math
from itertools import chain, groupby
from operator import itemgetter
from typing import Callable, Iterable

from .dist import (
    Element,
    RationalDist,
    _as_int,
    _as_list,
    _expect_type,
    _image,
    _log_function,
    as_elements,
    entropy,
    entropy_power,
)
from .errors import IndexRangeError, SchemaError, _echo
from .report import Record


class IndexSet(Record):
    """Sorted duplicate-free subset of {1, ..., n}.

    Empty instances are allowed; they arise as conditioning sets (the
    prefix below a set whose minimum is 1). Operations that need a
    nonempty set say so.
    """

    indices: tuple[int, ...]

    def __init__(self, indices: Iterable[int]):
        raw = [int(_as_int(i, "index")) for i in _as_list(indices, "indices")]
        idx = tuple(sorted(raw))
        if len(set(idx)) != len(idx):
            raise SchemaError(f"duplicate indices: {_echo(raw)}")
        if any(i < 1 for i in idx):
            raise SchemaError(f"indices must be >= 1: {_echo(idx)}")
        self._set(indices=idx)

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, i) -> bool:
        return i in self.indices

    def __bool__(self) -> bool:
        return bool(self.indices)


EMPTY_INDEX_SET = IndexSet(())


class PointSet(Record):
    """Finite set of distinct points of a common dimension."""

    dimension: int
    points: frozenset[Element]

    def __init__(self, dimension: int, points: Iterable):
        self._set(**self._checked_fields(dimension, as_elements(points)))

    @classmethod
    def from_points(cls, points: Iterable) -> "PointSet":
        pts = as_elements(points)  # of the first point's dimension; [] is refused as empty
        return cls._of(**cls._checked_fields(len(pts[0]) if pts else 0, pts))

    @staticmethod
    def _checked_fields(dimension: int, elems: list[Element]) -> dict:
        """The fields of a point set of checked elements, all of `dimension`."""
        pts = frozenset(elems)
        if not pts:
            raise SchemaError("point set must be nonempty")
        if set(map(len, pts)) != {_as_int(dimension, "dimension")}:
            raise SchemaError(f"all points must have dimension {_echo(dimension)}")
        return {"dimension": int(dimension), "points": pts}

    def sorted_points(self) -> list[Element]:
        return sorted(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def _check_indices(S: IndexSet, data, name: str, empty: str | None = None) -> None:
    """SchemaError naming the function `name` unless S is an IndexSet, and
    unless S is nonempty when `empty` (the error message) is given;
    IndexRangeError when S exceeds the dimension of `data`."""
    _expect_type(S, IndexSet, name)
    if not S:
        if empty:
            raise SchemaError(empty)
    elif max(S.indices) > data.dimension:
        raise IndexRangeError(f"index set {_echo(S.indices)} exceeds dimension {data.dimension}")


def _restrictor(S: IndexSet) -> Callable[[Element], Element] | None:
    """The map x -> x_S, built once per index set; None (no g) for the empty S.

    A contiguous S, one index or a prefix S* included, is a slice of x, so
    a single index gives a 1-tuple; any other S has two or more indices.
    """
    if not S:
        return None
    lo, hi = S.indices[0], S.indices[-1]
    if hi - lo + 1 == len(S):
        return itemgetter(slice(lo - 1, hi))
    return itemgetter(*(i - 1 for i in S.indices))


def project_set(A: PointSet, S: IndexSet) -> PointSet:
    """Coordinate projection {x_S : x in A}, duplicates collapsed."""
    _expect_type(A, PointSet, "project_set")
    _check_indices(S, A, "project_set", "cannot project onto the empty index set")
    return PointSet._of(dimension=len(S), points=_image(A.points, _restrictor(S)))


def project_rv(X: RationalDist, S: IndexSet) -> RationalDist:
    """Marginal of X on the coordinates in S (pushforward of a projection)."""
    _expect_type(X, RationalDist, "project_rv")
    _check_indices(S, X, "project_rv", "cannot project onto the empty index set")
    return _image(X, _restrictor(S))


def _group(points, by: Callable) -> dict:
    """The points grouped by by(x), in one pass over them."""
    groups: dict = {}
    for x in points:
        groups.setdefault(by(x), []).append(x)
    return groups


def _slices(points, g: Callable) -> list[list]:
    """The slices [x : g(x) = y] of the points by g, in the order of their keys y."""
    groups = _group(points, g)
    return [groups[y] for y in sorted(groups)]


def _log_conditional_size(A, T: IndexSet, S: IndexSet, base: float, name: str) -> float:
    """The checks and the log of `log_conditional_avg_size`, errors naming `name`."""
    _expect_type(A, PointSet, name)
    _log_function(base)  # a bad base fails before the index checks
    _check_indices(T, A, name, "conditioned projection needs a nonempty target T")
    _check_indices(S, A, name)
    return _conditional_term(A, _restrictor(T), _restrictor(S), base)[0]


def log_conditional_avg_size(A: PointSet, T: IndexSet, S: IndexSet, base: float = 2) -> float:
    """log of the conditional average size, in bits or nats."""
    return _log_conditional_size(A, T, S, base, "log_conditional_avg_size")


def conditional_size_power(total: int, sizes) -> tuple[int, dict[int, int]]:
    """(|A|, {s: e}) with |f(A) cond g(A)|^|A| = prod s^e, from the (slice size,
    f-size) pairs of the slices: e points lie in slices of f-size s."""
    powers: dict[int, int] = {}
    for n, size in sizes:
        powers[size] = powers.get(size, 0) + n
    return total, powers


def conditional_avg_size(A: PointSet, T: IndexSet, S: IndexSet) -> float:
    """Geometric mean of |slice of A at A_S = y, projected to T| over y.

    Weights are the exact uniform-point probabilities p(y) = |A : x_S=y|/|A|;
    with S empty this is plainly |A_T|. Computed in log-space to avoid
    under/overflow, with exact rational exponents and float logs.
    """
    return 2.0 ** _log_conditional_size(A, T, S, 2, "conditional_avg_size")


def conditional_entropy(
    X: RationalDist, S: IndexSet, C: IndexSet = EMPTY_INDEX_SET, base: float = 2
) -> float:
    """H(X_S | X_C) = H(X_{S u C}) - H(X_C); plain H(X_S) when C is empty."""
    _expect_type(X, RationalDist, "conditional_entropy")
    _check_indices(S, X, "conditional_entropy", "conditional entropy needs a nonempty target S")
    _check_indices(C, X, "conditional_entropy")
    return _conditional_term(X, _restrictor(S), _restrictor(C), base)[0]


def _count(n: int, log=math.log2):
    return log(n), n


def _term(image, base: float):
    """The term of an image: the count |f(A)| of a set, or 2^H(f(X)) of a RationalDist."""
    if isinstance(image, RationalDist):
        return entropy(image, base=base), lambda: entropy_power(image)
    return _count(len(image), _log_function(base))


def _sliced_term(total: int, slices, f: Callable, base: float):
    """|f(A) cond g(A)| of points A, from the `_slices` of A by g; |A| = total."""
    # (slice size, f-size) of each slice, in key order; one point has one image
    sizes = [(len(pts), len(set(map(f, pts))) if len(pts) > 1 else 1) for pts in slices]
    log = _log_function(base)
    acc = 0.0
    for n, size in sizes:
        acc += n / total * log(size)
    return acc, lambda: conditional_size_power(total, sizes)


def _conditional_term(data, f: Callable, g: Callable | None, base: float):
    """|f(A) cond g(A)| of points A or 2^H(f(X) | g(X)) of a RationalDist X, for fast
    callables on checked points; the `_term` of the image of f when g is None."""
    if g is None:
        return _term(_image(data, f), base)
    if not isinstance(data, RationalDist):
        return _sliced_term(len(data), _slices(data, g), f, base)
    # H(f(X) | g(X)) = H((f, g)(X)) - H(g(X)); restrictors of T and C pair into
    # the classes of the restrictor of T u C, in the same order
    joint = _term(_image(data, lambda x: (f(x), g(x))), base)
    given = _term(_image(data, g), base)

    def form():
        # 2^H(f(X) | g(X)) = 2^H((f, g)(X)) / 2^H(g(X)), and d_g divides d
        (d, powers), (d_g, given_powers) = joint[1](), given[1]()
        for b, e in given_powers.items():
            powers[b] = powers.get(b, 0) - e * (d // d_g)
        return d, powers

    return joint[0] - given[0], form


def _prefix_terms(data, terms, base: float) -> list:
    """The `_conditional_term` of each (f, k) pair: f given the prefix x -> x[:k]
    of the points of A or of X, or the image of f when k = 0.

    A point set is grouped once, by the deepest prefix. In key order the
    slices that agree on a shorter prefix are one run of consecutive slices,
    so each shorter prefix's slices merge the runs of the next deeper one's,
    and stay in key order. A law's terms are built one by one.
    """
    depths = sorted({k for _, k in terms} - {0}, reverse=True)
    sliced = {}
    if depths and not isinstance(data, RationalDist):
        sliced[depths[0]] = _slices(data, itemgetter(slice(0, depths[0])))
        for deeper, k in zip(depths, depths[1:]):
            sliced[k] = [list(chain.from_iterable(run))
                         for _, run in groupby(sliced[deeper], lambda pts: pts[0][:k])]
    return [_sliced_term(len(data), sliced[k], f, base) if k in sliced
            else _conditional_term(data, f, itemgetter(slice(0, k)) if k else None, base)
            for f, k in terms]
