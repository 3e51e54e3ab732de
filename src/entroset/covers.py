"""Fractional and uniform covers of {1..n}, and an exact cover LP.

A cover is a multiset of index sets with optional nonnegative rational
weights. Every per-element sum comes from one loop, `CoverSpec._sums`:
the coverage (the weights), the multiplicities (1 per member) and the LP's
certificate (its integer numerators, over d once). Both predicates build
their report from those sums with `_sum_report`; the cover checkers in
`checkers` test the sums themselves. The minimum-weight
fractional cover is solved by a dense dual simplex (Lemke 1954) with
Bland's anti-cycling rule over an integer tableau: with unit costs the
surplus basis is already dual feasible, so there is no phase 1. Every
entry is a Python int over one common denominator, and pivots are
fraction-free (Bareiss, Math. Comp. 1968; Edmonds 1967), so each
division is exact and no Fraction is built before the answer. For a 0/1
cover matrix the denominator is a basis determinant, bounded by
Hadamard's bound (about 4e3 at n=12). The solution carries the optimal
dual packing, which proves the objective optimal. For a fixed input order
the returned vertex is deterministic; between degenerate optima only the
objective value is contractual.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from typing import Iterable, Sequence

from .dist import _as_float, _as_int, _as_list, _expect_type, as_fraction
from .errors import InfeasibleError, SchemaError, SizeGuardError, _cut, _echo
from .projections import IndexSet
from .report import HOLDS, VIOLATED, CheckReport, Record, exact_text

MAX_COVER_N = 10_000  # the checks allocate lists of n entries
# the most entries of the cover LP's tableau, n rows by members + n + 1 columns:
# every pivot rewrites them all. Solving random covers of n elements by members
# of 2 to n // 2 elements, at 4,096 entries (n = 32, 95 members) took 0.06-0.11 s,
# and at 8,145 (n = 45, 135 members) 0.3-0.6 s, on a 2-vCPU VM
MAX_LP_CELLS = 4_096


class CoverSpec(Record):
    """Multiset of subsets of {1..n} with optional rational weights."""

    n: int
    members: tuple[IndexSet, ...]
    weights: tuple[Fraction, ...] | None

    def __init__(self, n: int, members: Sequence, weights: Sequence | None = None):
        if _as_int(n, "n") < 1:
            raise SchemaError("n must be >= 1")
        if n > MAX_COVER_N:
            raise SchemaError(f"n is outside the index range: {_cut(exact_text(n))}")
        members = _as_list(members, "cover members")
        mems = tuple(m if isinstance(m, IndexSet) else IndexSet(m) for m in members)
        if not mems:
            raise SchemaError("cover needs at least one member")
        for m in mems:
            if not m:
                raise SchemaError("cover members must be nonempty")
            if max(m.indices) > n:
                raise SchemaError(f"member {_echo(m.indices)} exceeds n={n}")
        ws = None
        if weights is not None:
            ws = tuple(map(as_fraction, _as_list(weights, "cover weights")))
            if len(ws) != len(mems):
                raise SchemaError("weights must be parallel to members")
            if any(w < 0 for w in ws):
                raise SchemaError("weights must be nonnegative")
        self._set(n=n, members=mems, weights=ws)

    def coverage(self) -> list[Fraction]:
        """Exact total weight covering each element 1..n (weights required)."""
        if self.weights is None:
            raise SchemaError("cover has no weights")
        return self._sums(self.weights, Fraction(0))

    def multiplicities(self) -> list[int]:
        """How many members contain each element 1..n."""
        return self._sums(repeat(1), 0)

    def _sums(self, weights: Iterable, zero):
        """Per element 1..n, `zero` plus the weights (parallel to the members)
        of the members that contain it."""
        sums = [zero] * self.n
        for member, w in zip(self.members, weights):
            for i in member:
                sums[i - 1] += w
        return sums


class LPSolution(Record):
    """Exact optimum of the cover LP, with certificates of both kinds.

    `certificate` is the coverage of each element by `weights` (all >= 1:
    feasibility). `dual` is a fractional packing y of the elements: y >= 0,
    the sum of y over every member is <= 1, and sum(y) == objective, which
    proves that no cover weighs less (optimality).
    """

    weights: tuple[Fraction, ...]
    objective: Fraction
    certificate: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]

    def __init__(self, weights, objective, certificate, dual):
        self._set(weights=weights, objective=objective, certificate=certificate, dual=dual)


def _sum_report(sums: list, target, details) -> CheckReport:
    """Holds when every element's sum is >= `target` (1, or a k that may be past
    the float range); the elements below it are the witnesses, and
    `details(below)` the details, built after the float sides."""
    least = min(sums)
    below = [i for i, s in enumerate(sums, 1) if s < target]
    return CheckReport(
        verdict=VIOLATED if below else HOLDS,
        lhs=_as_float(target, "k"),
        rhs=_as_float(least, "least coverage"),
        slack=float(least - target),
        witnesses=({"element": i} for i in below),
        provenance="exact",
        details=details(below),
    )


def is_fractional_cover(cover: CoverSpec) -> CheckReport:
    """Exact check that every element is covered with total weight >= 1."""
    _expect_type(cover, CoverSpec, "is_fractional_cover")
    sums = cover.coverage()
    return _sum_report(sums, 1, lambda _: {"coverage": [exact_text(s) for s in sums]})


def is_uniform_k_cover(cover: CoverSpec, k: int) -> CheckReport:
    """Multiplicity check: holds if every count is >= k; details say if all equal k."""
    _expect_type(cover, CoverSpec, "is_uniform_k_cover")
    _as_int(k, "k")
    counts = cover.multiplicities()
    return _sum_report(counts, k, lambda below: {
        "counts": counts, "k": k, "uniform": set(counts) == {k}, "k_cover": not below})


def uniform_cover_as_fractional(cover: CoverSpec, k: int) -> CoverSpec:
    """Scale a uniform k-cover by 1/k; every coverage sum becomes exactly 1."""
    _expect_type(cover, CoverSpec, "uniform_cover_as_fractional")
    if set(cover.multiplicities()) != {_as_int(k, "k")}:
        raise SchemaError(f"not a uniform {_cut(exact_text(k))}-cover")
    w = Fraction(1, k)
    return CoverSpec(cover.n, cover.members, [w] * len(cover.members))


def min_fractional_cover(n: int, members: Sequence) -> LPSolution:
    """Minimum total weight making the multiset a fractional cover.

    Solves min sum(a) s.t. coverage >= 1, a >= 0 exactly, and returns
    the dual packing beside the weights. Raises InfeasibleError when
    some element appears in no member, and SizeGuardError, before the
    tableau is built, when it would have more than MAX_LP_CELLS entries.
    """
    cover = CoverSpec(n, members)
    missing = [i + 1 for i, c in enumerate(cover.multiplicities()) if c == 0]
    if missing:
        raise InfeasibleError(f"elements {_echo(missing)} appear in no member")
    cells = n * (len(cover.members) + n + 1)
    if cells > MAX_LP_CELLS:
        raise SizeGuardError(f"cover LP tableau of {_cut(exact_text(cells))} entries "
                             f"exceeds the limit {MAX_LP_CELLS}")
    rows = [[1 if (i + 1) in m else 0 for m in cover.members] for i in range(n)]
    x, y, d = _simplex_min_geq(c=[1] * len(cover.members), a=rows, b=[1] * n)
    return LPSolution(
        weights=tuple(Fraction(v, d) for v in x),
        objective=Fraction(sum(x), d),
        certificate=tuple(Fraction(s, d) for s in cover._sums(x, 0)),
        dual=tuple(Fraction(v, d) for v in y),
    )


def _simplex_min_geq(
    c: list[int], a: list[list[int]], b: list[int]
) -> tuple[list[int], list[int], int]:
    """Exact dual simplex (Lemke 1954) for min c.x s.t. a x >= b, x >= 0, c >= 0.

    Integer data. Row i is -a_i.x + s_i = -b_i with its surplus s_i basic;
    columns are [x | surplus | rhs], and the reduced-cost row, which starts
    at c, is the tableau's last row. Every entry is an int over the common
    denominator d > 0. As c >= 0 the surplus basis is dual feasible, so no
    phase 1 is needed. Each pivot leaves the least-index basic variable whose
    value is negative, negates its row so that the pivot is positive, and
    enters the least ratio z_j / t_j over that row's entries t_j > 0, least
    index on ties: Bland's rule on the dual, which cannot cycle. A row with
    no such entry reads a sum of nonnegative terms equal to a negative value,
    so the LP is infeasible.

    Pivots are fraction-free (Bareiss). With the reduced-cost row, the
    tableau is d B^-1 M, where M is [-a | I | -b] over [c | 0 | 0], B is the
    basic columns of M beside the cost row's own unit column, and d = +-det B.
    Negating row r gives the same form for the basis with column r negated
    (its variable replaced by its negative), whose determinant is -det B; by
    Cramer's rule the positive pivot p is then +-det of the next basis, so
    every division by d is exact and d = p stays > 0. Returns the numerators
    of the optimal x and of the dual y (the reduced costs of the surplus
    columns), and d.
    """
    m = len(a)
    nvar = len(c)
    width = nvar + m
    tab = [[-v for v in a[i]] + [int(j == i) for j in range(m)] + [-b[i]] for i in range(m)]
    tab.append(list(c) + [0] * (m + 1))
    basis = list(range(nvar, width))
    d = 1
    while negative := [(bi, i) for i, bi in enumerate(basis) if tab[i][-1] < 0]:
        r = min(negative)[1]
        tab[r] = prow = [-v for v in tab[r]]
        z = tab[-1]
        enter = None
        for j in range(width):
            t = prow[j]
            # ratio z[j] / t against the best, cross-multiplied; ties keep the least j
            if t > 0 and (enter is None or z[j] * den < num * t):
                enter, num, den = j, z[j], t
        if enter is None:
            raise InfeasibleError("LP is infeasible")
        p = prow[enter]
        for i, row in enumerate(tab):
            if i == r:
                continue
            f = row[enter]
            if f:
                tab[i] = [(p * v - f * w) // d for v, w in zip(row, prow)]
            elif p != d:
                tab[i] = [p * v // d for v in row]
        d = p
        basis[r] = enter
    values = dict(zip(basis, (row[-1] for row in tab)))
    return [values.get(j, 0) for j in range(nvar)], tab[-1][nvar:width], d
