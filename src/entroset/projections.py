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

Slices are built in one grouping pass over A (`_group`, by any callable),
so a conditional average size costs O(|A|) restrictions plus a sort of the
|A_S| slice keys, not one rescan of A per slice. Its log and its exact
|A|-th power (`conditional_size_power`) are read from the same slice sizes.
"""

from __future__ import annotations

import math
from fractions import Fraction
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
    as_element,
    as_elements,
    entropy,
    entropy_power,
)
from .errors import EmptySliceError, IndexRangeError, SchemaError, _echo
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
        pts = frozenset(as_elements(points))
        if not pts:
            raise SchemaError("point set must be nonempty")
        if set(map(len, pts)) != {_as_int(dimension, "dimension")}:
            raise SchemaError(f"all points must have dimension {_echo(dimension)}")
        self._set(dimension=int(dimension), points=pts)

    @classmethod
    def from_points(cls, points: Iterable) -> "PointSet":
        pts = as_elements(points)
        if not pts:
            raise SchemaError("point set must be nonempty")
        return cls(len(pts[0]), pts)

    def sorted_points(self) -> list[Element]:
        return sorted(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def _check_indices(S: IndexSet, data, empty: str | None = None) -> None:
    """SchemaError unless S is an IndexSet, nonempty when `empty` (the error
    message) is given; IndexRangeError when S exceeds the dimension of `data`."""
    _expect_type(S, IndexSet, "index argument")
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
    _check_indices(S, A, "cannot project onto the empty index set")
    return PointSet._of(dimension=len(S), points=_image(A.points, _restrictor(S)))


def project_rv(X: RationalDist, S: IndexSet) -> RationalDist:
    """Marginal of X on the coordinates in S (pushforward of a projection)."""
    _expect_type(X, RationalDist, "project_rv")
    _check_indices(S, X, "cannot project onto the empty index set")
    return _image(X, _restrictor(S))


def s_star(S: IndexSet) -> IndexSet:
    """The prefix {1, ..., min(S)-1}; empty when min(S) = 1."""
    _expect_type(S, IndexSet, "index argument")
    if not S:
        raise SchemaError("s_star of the empty index set is undefined")
    return IndexSet(range(1, min(S.indices)))


def conditional_slice(A: PointSet, S: IndexSet, y) -> PointSet:
    """Subset of A whose S-coordinates equal y."""
    _expect_type(A, PointSet, "conditional_slice")
    _check_indices(S, A, "conditioning on the empty index set selects all of A")
    y = as_element(y)
    restrict = _restrictor(S)
    pts = frozenset(x for x in A if restrict(x) == y)
    if not pts:
        raise EmptySliceError(f"no point of A has coordinates {_echo(y)} on {S.indices}")
    return PointSet._of(dimension=A.dimension, points=pts)


def _group(points, by: Callable, to: Callable) -> dict:
    """The images to(x) of the points, grouped by by(x).

    One pass over the points; a group's length is its slice size |{x : by(x) = y}|.
    """
    groups: dict = {}
    for x in points:
        groups.setdefault(by(x), []).append(to(x))
    return groups


def slice_weights(A: PointSet, S: IndexSet) -> dict[Element, Fraction]:
    """Exact probability that a uniform point of A projects to each y in A_S."""
    _expect_type(A, PointSet, "slice_weights")
    _check_indices(S, A)
    total, restrict = len(A), _restrictor(S) or (lambda x: ())
    return {
        y: Fraction(len(group), total)
        for y, group in sorted(_group(A, restrict, restrict).items())
    }


def log_conditional_avg_size(A: PointSet, T: IndexSet, S: IndexSet, base: float = 2) -> float:
    """log of the conditional average size, in bits or nats."""
    _expect_type(A, PointSet, "log_conditional_avg_size")
    _log_function(base)  # a bad base fails before the index checks
    _check_indices(T, A, "conditioned projection needs a nonempty target T")
    _check_indices(S, A)
    return _conditional_term(A, _restrictor(T), _restrictor(S), base)[0]


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
    _expect_type(A, PointSet, "conditional_avg_size")
    return 2.0 ** log_conditional_avg_size(A, T, S, base=2)


def conditional_entropy(
    X: RationalDist, S: IndexSet, C: IndexSet = EMPTY_INDEX_SET, base: float = 2
) -> float:
    """H(X_S | X_C) = H(X_{S u C}) - H(X_C); plain H(X_S) when C is empty."""
    _expect_type(X, RationalDist, "conditional_entropy")
    _check_indices(S, X, "conditional entropy needs a nonempty target S")
    _check_indices(C, X)
    return _conditional_term(X, _restrictor(S), _restrictor(C), base)[0]


def _count(n: int, log=math.log2):
    return log(n), n


def _term(image, base: float):
    """The term of an image: the count |f(A)| of a set, or 2^H(f(X)) of a RationalDist."""
    if isinstance(image, RationalDist):
        return entropy(image, base=base), lambda: entropy_power(image)
    return _count(len(image), _log_function(base))


def _conditional_term(data, f: Callable, g: Callable | None, base: float):
    """|f(A) cond g(A)| of points A or 2^H(f(X) | g(X)) of a RationalDist X, for fast
    callables on checked points; the `_term` of the image of f when g is None."""
    if g is None:
        return _term(_image(data, f), base)
    if not isinstance(data, RationalDist):
        groups = _group(data, g, f)
        # (slice size, f-size) of each slice, in slice-key order
        sizes = [(len(groups[y]), len(set(groups[y]))) for y in sorted(groups)]
        total, log = len(data), _log_function(base)
        acc = 0.0
        for n, size in sizes:
            acc += n / total * log(size)
        return acc, lambda: conditional_size_power(total, sizes)
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
