"""Fractional and uniform covers of {1..n}, and an exact cover LP.

A cover is a multiset of index sets with optional nonnegative rational
weights. Feasibility checks are exact rational sums. The minimum-weight
fractional cover is solved by a dense two-phase simplex with Bland's
anti-cycling rule over an integer tableau: every entry is a Python int
over one common denominator, and pivots are fraction-free (Bareiss,
Math. Comp. 1968; Edmonds 1967), so each division is exact and no
Fraction is built before the answer. For a 0/1 cover matrix the
denominator is a basis determinant, bounded by Hadamard's bound (about
4e3 at n=12). The solution carries the optimal dual packing, which
proves the objective optimal. For a fixed input order the returned
vertex is deterministic; between degenerate optima only the objective
value is contractual.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .dist import _as_float, _as_int, _as_list, _expect_type, as_fraction
from .errors import InfeasibleError, SchemaError, SizeGuardError, _cut, _echo
from .projections import IndexSet
from .report import HOLDS, VIOLATED, CheckReport, Record, exact_text

MAX_COVER_N = 10_000  # the checks allocate lists of n entries
# the most entries of the cover LP's tableau, n rows by members + n + 1 columns:
# every pivot rewrites them all. Solving random covers of n elements by members
# of 2 to n // 2 elements, at 4,096 entries (n = 32, 95 members) took 0.7 s,
# and at 8,145 (n = 45, 135 members) 3.3 s, on a 2-vCPU VM
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
        sums = [Fraction(0)] * self.n
        for member, w in zip(self.members, self.weights):
            for i in member:
                sums[i - 1] += w
        return sums

    def multiplicities(self) -> list[int]:
        """How many members contain each element 1..n."""
        counts = [0] * self.n
        for member in self.members:
            for i in member:
                counts[i - 1] += 1
        return counts


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


def is_fractional_cover(cover: CoverSpec) -> CheckReport:
    """Exact check that every element is covered with total weight >= 1."""
    _expect_type(cover, CoverSpec, "is_fractional_cover")
    sums = cover.coverage()
    uncovered = [i + 1 for i, s in enumerate(sums) if s < 1]
    worst = min(sums)
    return CheckReport(
        verdict=HOLDS if not uncovered else VIOLATED,
        lhs=1.0,
        rhs=_as_float(worst, "least coverage"),
        slack=float(worst - 1),
        witnesses=({"element": i} for i in uncovered),
        provenance="exact",
        details={"coverage": [exact_text(s) for s in sums]},
    )


def is_uniform_k_cover(cover: CoverSpec, k: int) -> CheckReport:
    """Multiplicity check: holds if every count is >= k; details say if all equal k."""
    _expect_type(cover, CoverSpec, "is_uniform_k_cover")
    _as_int(k, "k")
    counts = cover.multiplicities()
    uniform = all(c == k for c in counts)
    bad = [i + 1 for i, c in enumerate(counts) if c < k]
    return CheckReport(
        verdict=VIOLATED if bad else HOLDS,
        lhs=_as_float(k, "k"),
        rhs=float(min(counts)),
        slack=float(min(counts) - k),
        witnesses=({"element": i} for i in bad),
        provenance="exact",
        details={"counts": counts, "k": k, "uniform": uniform, "k_cover": not bad},
    )


def uniform_cover_as_fractional(cover: CoverSpec, k: int) -> CoverSpec:
    """Scale a uniform k-cover by 1/k; every coverage sum becomes exactly 1."""
    _expect_type(cover, CoverSpec, "uniform_cover_as_fractional")
    if not is_uniform_k_cover(cover, k).details["uniform"]:
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
        certificate=tuple(
            Fraction(sum(v for v, a in zip(x, row) if a), d) for row in rows
        ),
        dual=tuple(Fraction(v, d) for v in y),
    )


def _simplex_min_geq(
    c: list[int], a: list[list[int]], b: list[int]
) -> tuple[list[int], list[int], int]:
    """Exact two-phase simplex for min c.x s.t. a x >= b, x >= 0, b >= 0.

    Integer data, with a >= 0 and no zero row. Columns are [x | surplus |
    rhs]; each entry of the tableau, and of the two reduced-cost rows
    carried with it, is an int over the common denominator d > 0. Bland's
    rule picks the entering and leaving variables, and pivots only on a
    positive entry. The artificial of row i (minus surplus column i) is only
    the basis entry nvar + m + i. By the precondition some x > 0 has every
    surplus > 0, and [a | -I] has full row rank; so once the x and surplus
    columns price >= 0, the phase-1 multipliers y are 0 (at that point,
    y.b = 0 is a sum of column terms that are each <= 0), and no artificial
    is left basic or ever entered. Returns the numerators of the optimal x
    and of the dual y (the phase-2 reduced costs of the surplus columns), d.
    """
    m = len(a)
    nvar = len(c)
    art = nvar + m
    tab = []
    for i in range(m):
        row = list(a[i]) + [0] * m + [b[i]]
        row[nvar + i] = -1  # surplus
        tab.append(row)
    basis = list(range(art, art + m))
    # reduced-cost rows: phase 2 prices c, phase 1 prices the artificials
    # (basic at the start, so a column's reduced cost is minus its sum)
    objectives = [list(c) + [0] * (m + 1), [-sum(col) for col in zip(*tab)]]
    d = 1

    def pivot(r: int, col: int) -> None:
        # fraction-free (Bareiss) step: every division by d is exact
        nonlocal d
        prow = tab[r]
        p = prow[col]
        for rows in (tab, objectives):
            for i, row in enumerate(rows):
                if row is prow:
                    continue
                f = row[col]
                if f:
                    rows[i] = [(p * v - f * w) // d for v, w in zip(row, prow)]
                elif p != d:
                    rows[i] = [p * v // d for v in row]
        d = p
        basis[r] = col

    def optimize(phase: int) -> None:
        while True:
            z = objectives[phase]
            enter = next((j for j in range(art) if z[j] < 0), None)
            if enter is None:
                return
            leave = None
            for i, row in enumerate(tab):
                coef = row[enter]
                if coef > 0:
                    # ratio row[-1] / coef against the best, cross-multiplied
                    if leave is None:
                        leave, num, den = i, row[-1], coef
                        continue
                    lhs, rhs = row[-1] * den, num * coef
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, num, den = i, row[-1], coef
            if leave is None:
                raise InfeasibleError("LP is unbounded")  # pragma: no cover
            pivot(leave, enter)

    optimize(1)
    if any(bi >= art for bi in basis):
        raise InfeasibleError("no fractional cover exists")  # pragma: no cover
    objectives.pop()  # the phase-1 row is not needed past this point
    optimize(0)
    x = [0] * nvar
    for i, bi in enumerate(basis):
        if bi < nvar:
            x[bi] = tab[i][-1]
    return x, objectives[0][nvar:art], d
