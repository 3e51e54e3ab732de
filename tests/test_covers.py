"""Cover feasibility checks and the exact minimum fractional cover LP."""

import json
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from entroset import (
    CheckReport,
    CoverError,
    CoverSpec,
    IndexSet,
    InfeasibleError,
    PointSet,
    SchemaError,
    SizeGuardError,
    check_projection_theorem,
    check_shearer,
    is_fractional_cover,
    is_uniform_k_cover,
    min_fractional_cover,
)
from entroset import checkers, covers
from entroset.covers import MAX_COVER_N, MAX_LP_CELLS, _simplex_min_geq

from entroset.errors import _cut, _echo

from genutil import random_members, random_uniform_k_cover

TRIANGLE_MEMBERS = [[1, 2], [1, 3], [2, 3]]


def solve_by_vertex_enumeration(n, members):
    """Independent LP oracle: scan all basic points of the feasibility system.

    Vertices of {coverage >= 1, a >= 0} are solutions of square subsystems
    picked from tight coverage rows and tight nonnegativity rows.
    """
    members = [IndexSet(m) if not isinstance(m, IndexSet) else m for m in members]
    nvar = len(members)
    rows = [
        ([Fraction(1) if (i + 1) in m else Fraction(0) for m in members], Fraction(1))
        for i in range(n)
    ] + [
        ([Fraction(1) if j == v else Fraction(0) for j in range(nvar)], Fraction(0))
        for v in range(nvar)
    ]
    best = None
    for chosen in combinations(range(len(rows)), nvar):
        aug = [list(rows[i][0]) + [rows[i][1]] for i in chosen]
        point = _solve_square(aug, nvar)
        if point is None or any(v < 0 for v in point):
            continue
        coverage_ok = all(
            sum(point[j] for j, m in enumerate(members) if (i + 1) in m) >= 1
            for i in range(n)
        )
        if not coverage_ok:
            continue
        objective = sum(point, Fraction(0))
        if best is None or objective < best:
            best = objective
    return best


def _solve_square(aug, nvar):
    for col in range(nvar):
        pivot = next((r for r in range(col, nvar) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(nvar):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return [aug[r][nvar] for r in range(nvar)]


class TestFractionalCover:
    def test_triangle_halves(self):
        cover = CoverSpec(3, TRIANGLE_MEMBERS, ["1/2", "1/2", "1/2"])
        report = is_fractional_cover(cover)
        assert report.holds
        assert report.details["coverage"] == ["1", "1", "1"]

    def test_n_at_the_limit(self):
        report = is_fractional_cover(CoverSpec(MAX_COVER_N, [[1]], [1]))
        assert report.verdict == "violated" and len(report.witnesses) == MAX_COVER_N - 1

    def test_coverage_past_the_str_digit_limit(self):
        cover = CoverSpec(2, [[1, 2], [2]], [1, Fraction(1, 10**5000)])
        report = is_fractional_cover(cover)
        assert report.holds
        assert report.details["coverage"] == ["1", "1" + "0" * 4999 + "1/1" + "0" * 5000]

    def test_uncovered_element(self):
        cover = CoverSpec(2, [[1]], [1])
        report = is_fractional_cover(cover)
        assert not report.holds
        assert report.witnesses == ({"element": 2},)

    def test_integral_cover(self):
        cover = CoverSpec(4, [[1, 2], [3], [3, 4]], [1, 1, 1])
        assert is_fractional_cover(cover).holds

    def test_weights_required(self):
        with pytest.raises(SchemaError):
            is_fractional_cover(CoverSpec(2, [[1, 2]]))

    @pytest.mark.parametrize("n", ["abc", "2", 2.7, 2.0, True, None], ids=repr)
    def test_n_must_be_an_int(self, n):
        with pytest.raises(SchemaError, match=f"^n must be an integer: {re.escape(repr(n))}$"):
            CoverSpec(n, [[1]])


class TestUniformKCover:
    def test_all_pairs_is_uniform_two_cover(self):
        report = is_uniform_k_cover(CoverSpec(3, TRIANGLE_MEMBERS), 2)
        assert report.verdict == "holds"
        assert report.details["uniform"] is True

    def test_plain_cover_but_not_uniform(self):
        report = is_uniform_k_cover(CoverSpec(2, [[1], [1, 2]]), 1)
        assert report.verdict == "holds"
        assert report.details["uniform"] is False
        assert report.details["counts"] == [2, 1]

    def test_partition_is_uniform_one_cover(self):
        report = is_uniform_k_cover(CoverSpec(4, [[1], [2], [3], [4]]), 1)
        assert report.verdict == "holds"
        assert report.details["uniform"] is True

    def test_violated(self):
        report = is_uniform_k_cover(CoverSpec(3, [[1, 2]]), 1)
        assert report.verdict == "violated"
        assert report.details["uniform"] is False

    def test_random_partition_unions_are_uniform(self):
        rng = random.Random(61)
        for _ in range(20):
            n = rng.randint(2, 6)
            k = rng.randint(1, 4)
            cover = random_uniform_k_cover(rng, n, k)
            report = is_uniform_k_cover(cover, k)
            assert report.verdict == "holds"
            assert report.details["uniform"] is True

    def test_scaled_uniform_cover_has_unit_coverage(self):
        rng = random.Random(67)
        for _ in range(20):
            n = rng.randint(2, 5)
            k = rng.randint(1, 4)
            members = random_uniform_k_cover(rng, n, k).members
            scaled = CoverSpec(n, members, [Fraction(1, k)] * len(members))
            assert all(s == 1 for s in scaled.coverage())


class TestMinFractionalCover:
    def test_triangle_optimum(self):
        solution = min_fractional_cover(3, TRIANGLE_MEMBERS)
        assert solution.objective == Fraction(3, 2)
        assert solution.weights == (Fraction(1, 2),) * 3
        assert solve_by_vertex_enumeration(3, TRIANGLE_MEMBERS) == Fraction(3, 2)

    def test_partition_costs_its_parts(self):
        members = [[1, 3], [2], [4, 5]]
        solution = min_fractional_cover(5, members)
        assert solution.objective == 3
        assert solution.weights == (Fraction(1),) * 3

    def test_single_covering_member(self):
        solution = min_fractional_cover(2, [[1, 2]])
        assert solution.objective == 1

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            min_fractional_cover(3, [[1, 2]])

    def test_matches_vertex_enumeration_oracle(self):
        rng = random.Random(71)
        for _ in range(25):
            n = rng.randint(2, 4)
            members = random_members(rng, n, max_members=4)[:5]
            covered = set().union(*(set(m.indices) for m in members))
            if covered != set(range(1, n + 1)):
                members += [IndexSet([i]) for i in range(1, n + 1) if i not in covered]
            if len(members) > 5:
                continue
            got = min_fractional_cover(n, members).objective
            assert got == solve_by_vertex_enumeration(n, members)

    def test_solution_is_a_fractional_cover(self):
        rng = random.Random(73)
        for _ in range(30):
            n = rng.randint(2, 8)
            members = random_members(rng, n, max_members=12)
            solution = min_fractional_cover(n, members)
            cover = CoverSpec(n, members, solution.weights)
            assert is_fractional_cover(cover).holds
            assert all(s >= 1 for s in solution.certificate)
            assert sum(solution.weights, Fraction(0)) == solution.objective

    def test_objective_beats_random_feasible_points(self):
        rng = random.Random(79)
        for _ in range(25):
            n = rng.randint(2, 6)
            members = random_members(rng, n, max_members=10)
            objective = min_fractional_cover(n, members).objective
            for _ in range(10):
                cover = CoverSpec(
                    n,
                    members,
                    [Fraction(rng.randint(0, 12), rng.randint(1, 12)) for _ in members],
                )
                worst = min(cover.coverage())
                if worst < 1:
                    continue
                assert objective <= sum(cover.weights, Fraction(0))

    def test_objective_invariant_under_member_permutation(self):
        rng = random.Random(83)
        for _ in range(15):
            n = rng.randint(2, 6)
            members = random_members(rng, n, max_members=8)
            base = min_fractional_cover(n, members).objective
            shuffled = members[:]
            rng.shuffle(shuffled)
            assert min_fractional_cover(n, shuffled).objective == base

    def test_duplicate_members_allowed(self):
        solution = min_fractional_cover(2, [[1, 2], [1, 2]])
        assert solution.objective == 1
        assert sum(solution.weights) == 1

    def test_tableau_at_the_cell_limit_is_solved(self):
        # one row by members + 2 columns
        solution = min_fractional_cover(1, [[1]] * (MAX_LP_CELLS - 2))
        assert solution.objective == 1

    @pytest.mark.parametrize("n, members", [(1, [[1]] * (MAX_LP_CELLS - 1)),
                                            (MAX_COVER_N, [range(1, MAX_COVER_N + 1)])],
                             ids=["one-past", "largest-n"])
    def test_tableau_past_the_cell_limit_is_refused_before_it_is_built(
            self, monkeypatch, n, members):
        def refuse(*args):
            raise AssertionError("the simplex ran")

        monkeypatch.setattr(covers, "_simplex_min_geq", refuse)
        cells = n * (len(members) + n + 1)
        with pytest.raises(SizeGuardError, match=f"^cover LP tableau of {cells} entries "
                                                 f"exceeds the limit {MAX_LP_CELLS}$"):
            min_fractional_cover(n, members)


def reference_simplex_min_geq(c, a, b):
    """A two-phase Fraction simplex, the oracle for the optimal value.

    Dense Fraction tableau, objective recomputed every iteration, Bland's
    rule for entering and leaving variables, artificials driven out after
    phase 1. Columns are [x | surplus | artificial]; needs b >= 0. Its
    vertex may differ from the dual simplex's on degenerate LPs.
    """
    m = len(a)
    nvar = len(c)
    width = nvar + 2 * m
    tab = []
    for i in range(m):
        row = list(a[i])
        row += [Fraction(-1) if j == i else Fraction(0) for j in range(m)]
        row += [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        row.append(b[i])
        tab.append(row)
    basis = [nvar + m + i for i in range(m)]

    def reduced_costs(cost):
        red = list(cost)
        for i, bi in enumerate(basis):
            cb = cost[bi]
            if cb != 0:
                for j in range(width):
                    red[j] -= cb * tab[i][j]
        return red

    def pivot(row, col):
        inv = 1 / tab[row][col]
        tab[row] = [v * inv for v in tab[row]]
        for i in range(len(tab)):
            if i != row and tab[i][col] != 0:
                factor = tab[i][col]
                tab[i] = [v - factor * p for v, p in zip(tab[i], tab[row])]
        basis[row] = col

    def optimize(cost, allowed):
        while True:
            red = reduced_costs(cost)
            enter = next((j for j in range(allowed) if red[j] < 0), None)
            if enter is None:
                return
            best_ratio = None
            leave = None
            for i in range(len(tab)):
                coef = tab[i][enter]
                if coef > 0:
                    ratio = tab[i][-1] / coef
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leave])
                    ):
                        best_ratio = ratio
                        leave = i
            if leave is None:
                raise InfeasibleError("LP is unbounded")
            pivot(leave, enter)

    optimize([Fraction(0)] * (nvar + m) + [Fraction(1)] * m, width)
    infeas = sum((tab[i][-1] for i in range(m) if basis[i] >= nvar + m), Fraction(0))
    if infeas > 0:
        raise InfeasibleError("no fractional cover exists")
    for i in reversed(range(len(tab))):
        if basis[i] >= nvar + m:
            col = next((j for j in range(nvar + m) if tab[i][j] != 0), None)
            if col is None:
                del tab[i]
                del basis[i]
            else:
                pivot(i, col)
    optimize(list(c) + [Fraction(0)] * (2 * m), nvar + m)
    x = [Fraction(0)] * nvar
    for i, bi in enumerate(basis):
        if bi < nvar:
            x[bi] = tab[i][-1]
    return tuple(x)


def fraction_dual_simplex(c, a, b, ties="least"):
    """The solver's pivoting rules on a dense Fraction tableau, for its vertex.

    Rows are -a_i.x + s_i = -b_i with the surplus basis; the least-index
    basic variable of negative value leaves, and the least ratio z_j / -t_j
    over that row's entries t_j < 0 enters, the least j on ties (the greatest
    with ties="greatest"). Returns the optimal x and the duals y, the reduced
    costs of the surplus columns.
    """
    m, nvar = len(a), len(c)
    width = nvar + m
    tab = [[Fraction(-v) for v in a[i]] + [Fraction(int(j == i)) for j in range(m)]
           + [Fraction(-b[i])] for i in range(m)]
    z = [Fraction(v) for v in c] + [Fraction(0)] * (m + 1)
    basis = list(range(nvar, width))
    while True:
        negative = [i for i in range(m) if tab[i][-1] < 0]
        if not negative:
            break
        r = min(negative, key=lambda i: basis[i])
        ratios = {j: z[j] / -tab[r][j] for j in range(width) if tab[r][j] < 0}
        if not ratios:
            raise InfeasibleError("LP is infeasible")
        best = [j for j, q in ratios.items() if q == min(ratios.values())]
        enter = min(best) if ties == "least" else max(best)
        pivot = tab[r][enter]
        tab[r] = [v / pivot for v in tab[r]]
        for row in tab[:r] + tab[r + 1:] + [z]:
            f = row[enter]
            row[:] = [v - f * w for v, w in zip(row, tab[r])]
        basis[r] = enter
    x = [Fraction(0)] * nvar
    for i, bi in enumerate(basis):
        if bi < nvar:
            x[bi] = tab[i][-1]
    return tuple(x), tuple(z[nvar:width])


def cover_lp(n, members):
    rows = [[1 if (i + 1) in m else 0 for m in map(IndexSet, members)] for i in range(n)]
    return [1] * len(members), rows, [1] * n


def reference_weights(n, members):
    c, rows, b = cover_lp(n, members)
    return reference_simplex_min_geq(list(map(Fraction, c)), [list(map(Fraction, r)) for r in rows],
                                     list(map(Fraction, b)))


def check_against_references(n, members):
    """The vertex and duals of the Fraction dual simplex, and the two-phase
    optimum as both the objective and the dual value; says whether the vertex
    differs from the two-phase one."""
    solution = min_fractional_cover(n, members)
    assert (solution.weights, solution.dual) == fraction_dual_simplex(*cover_lp(n, members))
    two_phase = reference_weights(n, members)
    assert solution.objective == sum(two_phase) == sum(solution.dual)
    return solution.weights != two_phase


def check_general_lp(c, a, b):
    """The solver against both references on min c.x s.t. a x >= b, x >= 0:
    the vertex and duals of the Fraction dual simplex, the two-phase optimum
    as its objective and dual value; the objective, or None when infeasible."""
    try:
        two_phase = reference_simplex_min_geq(list(map(Fraction, c)),
                                              [list(map(Fraction, r)) for r in a],
                                              list(map(Fraction, b)))
    except InfeasibleError:
        with pytest.raises(InfeasibleError, match="^LP is infeasible$"):
            _simplex_min_geq(c, a, b)
        return None
    x, y, d = _simplex_min_geq(c, a, b)
    assert d > 0
    want_x, want_y = fraction_dual_simplex(c, a, b)
    assert (tuple(Fraction(v, d) for v in x), tuple(Fraction(v, d) for v in y)) == (want_x, want_y)
    objective = sum(ci * xi for ci, xi in zip(c, want_x))
    assert objective == sum(ci * xi for ci, xi in zip(c, two_phase))
    assert objective == sum(yi * bi for yi, bi in zip(want_y, b))
    return objective


def degenerate_members(rng, n, m):
    """Members covering {1..n}, mixed with duplicates, full sets and singletons."""
    members = []
    while len(members) < m:
        kind = rng.random()
        if kind < 0.15:
            members.append(list(range(1, n + 1)))
        elif kind < 0.3:
            members.append([rng.randint(1, n)])
        elif kind < 0.45 and members:
            members.append(list(rng.choice(members)))
        else:
            members.append(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
    covered = set().union(*map(set, members))
    return members + [[i] for i in range(1, n + 1) if i not in covered]


def bench_shaped_members(rng, n):
    """3n members of 2 to n // 2 elements covering {1..n}, as the benchmarks draw them."""
    while True:
        members = [sorted(rng.sample(range(1, n + 1), rng.randint(2, n // 2)))
                   for _ in range(3 * n)]
        if set().union(*map(set, members)) == set(range(1, n + 1)):
            return members


class TestIntegerTableauMatchesFractionSimplex:
    """The fraction-free solver returns the vertex and duals of a Fraction dual
    simplex with its rules, and the optimum of a two-phase Fraction simplex."""

    def test_seeded_instances(self):
        rng = random.Random(89)
        for _ in range(60):
            n = rng.randint(1, 12)
            check_against_references(n, degenerate_members(rng, n, rng.randint(1, 40)))

    @pytest.mark.parametrize("n, m", [(12, 40), (12, 20), (10, 40), (6, 40)])
    def test_largest_sizes(self, n, m):
        rng = random.Random(97 + n * m)
        check_against_references(n, degenerate_members(rng, n, m))

    @pytest.mark.parametrize("n", [6, 9, 12], ids=["n6", "n9", "n12"])
    def test_bench_shaped_covers(self, n):
        # degenerate optima: here the dual simplex leaves the two-phase vertex
        moved = [check_against_references(n, bench_shaped_members(random.Random(seed), n))
                 for seed in range(8)]
        assert any(moved)

    def test_twin_elements(self):
        # elements 1, 2 lie in the same members, so their rows are equal
        check_against_references(4, [[1, 2], [1, 2, 3], [3, 4], [1, 2, 4], [4]])

    def test_ratio_tie_goes_to_lower_index(self):
        # [1] and [1, 2] tie for element 1's row; the other choice is also optimal
        members = [[1], [1, 2], [2, 3]]
        check_against_references(3, members)
        assert min_fractional_cover(3, members).weights == (1, 0, 1)
        other, _ = fraction_dual_simplex(*cover_lp(3, members), ties="greatest")
        assert other == (0, 1, 1)

    def test_full_set_duplicates(self):
        check_against_references(3, [[1, 2, 3]] * 3 + [[2]])

    def test_mixed_sign_lps_match_the_reference(self):
        # a of either sign and c >= 0, where the surplus basis is still dual
        # feasible; first an LP whose phase 1 ends with a degenerate artificial basic
        c = [2, 1, 3, 0, 1, 3]
        a = [[1, 1, 1, 2, 0, 1], [0, 0, 0, 0, -1, -1], [-1, -1, 1, -1, -1, 0],
             [2, -1, 1, 0, 2, 1]]
        assert check_general_lp(c, a, [0, 0, 2, 2]) == 6
        rng = random.Random(107)
        seen = set()
        for _ in range(200):
            m, nvar = rng.randint(1, 5), rng.randint(1, 6)
            c = [rng.randint(0, 3) for _ in range(nvar)]
            a = [[rng.randint(-2, 2) for _ in range(nvar)] for _ in range(m)]
            infeasible = check_general_lp(c, a, [rng.randint(0, 2) for _ in range(m)]) is None
            seen.add(infeasible)
        assert seen == {True, False}  # both infeasible and optimal LPs were drawn

    @pytest.mark.parametrize("a, b", [
        ([[0, 0]], [1]),                 # a zero row
        ([[1, 1], [0, -1], [-1, 0]], [0, 1, 0]),  # a row with no a_ij > 0
        ([[1, 0], [-1, 1], [0, -1]], [1, 0, 0]),  # infeasible only after two pivots
    ], ids=["zero-row", "nonpositive-row", "after-pivots"])
    def test_infeasible_lp_is_refused(self, a, b):
        with pytest.raises(InfeasibleError, match="^LP is infeasible$"):
            _simplex_min_geq([1] * len(a[0]), a, b)
        with pytest.raises(InfeasibleError):
            fraction_dual_simplex([1] * len(a[0]), a, b)


def check_dual(n, members, solution):
    """Optimality proof, checked from the members and the dual alone."""
    y = solution.dual
    assert len(y) == n
    assert all(isinstance(v, Fraction) and v >= 0 for v in y)
    for member in members:
        assert sum((y[i - 1] for i in member), Fraction(0)) <= 1
    assert sum(y, Fraction(0)) == solution.objective


class TestDualCertificate:
    def test_triangle(self):
        solution = min_fractional_cover(3, TRIANGLE_MEMBERS)
        assert solution.dual == (Fraction(1, 2),) * 3
        check_dual(3, TRIANGLE_MEMBERS, solution)

    def test_partition(self):
        members = [[1, 3], [2], [4, 5]]
        check_dual(5, members, min_fractional_cover(5, members))

    def test_seeded_instances(self):
        rng = random.Random(101)
        for _ in range(80):
            n = rng.randint(1, 12)
            members = degenerate_members(rng, n, rng.randint(1, 40))
            check_dual(n, members, min_fractional_cover(n, members))

    def test_matches_vertex_enumeration_oracle(self):
        rng = random.Random(103)
        for _ in range(20):
            n = rng.randint(2, 4)
            members = degenerate_members(rng, n, rng.randint(1, 3))[:5]
            solution = min_fractional_cover(n, members)
            check_dual(n, members, solution)
            assert solution.objective == solve_by_vertex_enumeration(n, members)


# per-element sums and everything read from them, against brute-force sums:
# one sum per element over every member, with no shared loop
BIG = 10**400  # past the float range


def brute_sums(cover, weights, zero):
    return [sum((w for m, w in zip(cover.members, weights) if i in m.indices), zero)
            for i in range(1, cover.n + 1)]


def seeded_covers(seed, count):
    """Covers of n = 1..12: uniform, covering or missing elements, and weights
    that are absent, zero, repeated, under- or over-weighted, or past the float range."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        shape = rng.choice(["uniform", "covering", "sparse"])
        if shape == "uniform":
            members = list(random_uniform_k_cover(rng, n, rng.randint(1, 3)).members)
        elif shape == "covering":
            members = random_members(rng, n, 6)
        else:
            members = [IndexSet(rng.sample(range(1, n + 1), rng.randint(1, n)))
                       for _ in range(rng.randint(1, 5))]
        top = max(brute_sums(CoverSpec(n, members), [1] * len(members), 0))
        kind = rng.choice(["none", "repeated", "random", "scaled", "big"])
        if kind == "none":
            weights = None
        elif kind == "repeated":
            weights = [Fraction(1, rng.randint(1, 4))] * len(members)
        elif kind == "random":
            weights = [Fraction(rng.randint(0, 6), rng.randint(1, 6)) for _ in members]
        elif kind == "scaled":  # about 1 on the most covered element: under or over
            weights = [Fraction(rng.choice([1, 1, 2, 3]), top * rng.choice([1, 2]))
                       for _ in members]
        else:
            weights = [rng.choice([0, 1, BIG, Fraction(1, 3)]) for _ in members]
        yield CoverSpec(n, members, weights)


def k_values(counts):
    return sorted({0, 1, 2, 3, min(counts), max(counts), 10**30, BIG}) + [-1, True, "2"]


def as_float(x):
    try:
        return float(x)
    except OverflowError:
        return None


def outcome(call):
    """The report of `call()`, or the (type, text) of the error it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def reference_fractional(cover):
    if cover.weights is None:
        return SchemaError, "cover has no weights"
    sums = brute_sums(cover, cover.weights, Fraction(0))
    least = min(sums)
    if as_float(least) is None:
        return SchemaError, f"least coverage is outside the float range: {_cut(str(least))}"
    return CheckReport(
        verdict="violated" if least < 1 else "holds", lhs=1.0, rhs=float(least),
        slack=float(least - 1),
        witnesses=[{"element": i} for i, s in enumerate(sums, 1) if s < 1],
        details={"coverage": [str(s) for s in sums]},
    )


def reference_uniform(cover, k):
    if type(k) is not int:
        return SchemaError, f"k must be an integer: {k!r}"
    counts = brute_sums(cover, [1] * len(cover.members), 0)
    if as_float(k) is None:
        return SchemaError, f"k is outside the float range: {_cut(str(k))}"
    below = [i for i, c in enumerate(counts, 1) if c < k]
    return CheckReport(
        verdict="violated" if below else "holds", lhs=float(k), rhs=float(min(counts)),
        slack=float(min(counts) - k),
        witnesses=[{"element": i} for i in below],
        details={"counts": counts, "k": k, "uniform": all(c == k for c in counts),
                 "k_cover": not below},
    )


def same(got, want):
    """Equal outcomes; a report also in its field types and its JSON, key order included."""
    assert got == want
    if isinstance(want, CheckReport):
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())


class TestPerElementSums:
    """Both cover predicates, the LP certificate and the cover checkers read one
    per-element sum; each is pinned to brute-force sums here."""

    COVERS = list(seeded_covers(37, 150))

    def test_sums_keep_their_types(self):
        for cover in self.COVERS:
            counts = cover.multiplicities()
            assert counts == brute_sums(cover, [1] * len(cover.members), 0)
            assert {type(c) for c in counts} == {int}
            if cover.weights is not None:
                coverage = cover.coverage()
                assert coverage == brute_sums(cover, cover.weights, Fraction(0))
                assert {type(s) for s in coverage} == {Fraction}

    def test_fractional_report_matches_brute_force(self):
        seen = set()
        for cover in self.COVERS:
            want = reference_fractional(cover)
            same(outcome(lambda: is_fractional_cover(cover)), want)
            seen.add(want.verdict if isinstance(want, CheckReport) else want[1][:14])
        assert seen == {"holds", "violated", "cover has no w", "least coverage"}

    def test_uniform_report_matches_brute_force(self):
        seen = set()
        for cover in self.COVERS:
            for k in k_values(cover.multiplicities()):
                want = reference_uniform(cover, k)
                same(outcome(lambda: is_uniform_k_cover(cover, k)), want)
                if isinstance(want, CheckReport):
                    seen.add((want.verdict, want.details["uniform"]))
        assert seen == {("holds", True), ("holds", False), ("violated", False)}

    def test_certificate_is_the_coverage_of_the_weights(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 12)
            members = random_members(rng, n, rng.randint(1, 10))
            solution = min_fractional_cover(n, members)
            cover = CoverSpec(n, members, solution.weights)
            assert list(solution.certificate) == brute_sums(cover, solution.weights, Fraction(0))
            assert {type(s) for s in solution.certificate} == {Fraction}

    @staticmethod
    def points(rng, n):
        return PointSet(n, [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(6)])

    def test_shearer_errors_match_brute_force(self):
        rng = random.Random(43)
        seen = set()
        for cover in self.COVERS:
            counts = brute_sums(cover, [1] * len(cover.members), 0)
            for k in k_values(counts):
                side = rng.choice(["sets", "sets", "both"])
                got = outcome(lambda: check_shearer(self.points(rng, cover.n), cover, k, side))
                seen.add(got[0] if isinstance(got, tuple) else got.verdict)
                if type(k) is not int:
                    assert got == (SchemaError, f"k must be an integer: {k!r}")
                elif set(counts) != {k}:  # k past the float range lands here too
                    assert got == (CoverError, f"not a uniform {_cut(str(k))}-cover: "
                                               f"counts {_echo(counts)}")
                elif side == "both":
                    assert got == (SchemaError, "side must be 'sets' or 'entropy', got 'both'")
                else:
                    assert isinstance(got, CheckReport)
        assert seen == {SchemaError, CoverError, "holds"}

    def test_projection_errors_match_brute_force(self):
        rng = random.Random(47)
        seen = []
        for cover in self.COVERS:
            side = rng.choice(["sets", "sets", "both"])
            got = outcome(lambda: check_projection_theorem(self.points(rng, cover.n), cover, side))
            seen.append(got[1][:13] if isinstance(got, tuple) else got.verdict)
            if cover.weights is None:
                assert got == (CoverError, "projection theorem checks need cover weights")
                continue
            sums = brute_sums(cover, cover.weights, Fraction(0))
            big = [w for w in cover.weights if as_float(w) is None]
            if min(sums) < 1:
                assert got == (CoverError, "not a fractional cover: coverage "
                                           f"{_echo([str(s) for s in sums])}")
            elif side == "both":
                assert got == (SchemaError, "side must be 'sets' or 'entropy', got 'both'")
            elif big:  # a least coverage past the float range lands here too
                assert got == (SchemaError, f"weight is outside the float range: {_cut(str(BIG))}")
            else:
                assert isinstance(got, CheckReport)
        assert set(seen) == {"projection th", "not a fractio", "side must be ", "weight is out",
                             "holds"}

    def test_least_coverage_past_the_float_range_by_a_sum(self):
        # each weight is a float, only their sum is not: the check is decided
        w = 15 * 10**307
        report = check_projection_theorem(PointSet(1, [[0], [1]]), CoverSpec(1, [[1], [1]], [w, w]),
                                          "sets")
        assert (report.verdict, report.provenance, report.rhs) == ("holds", "exact", float("inf"))

    def test_checkers_decide_without_the_predicates(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a cover checker built a predicate's report")

        for module in (covers, checkers):
            for name in ("is_fractional_cover", "is_uniform_k_cover"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        A = PointSet(3, [(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 0)])
        triangle = CoverSpec(3, TRIANGLE_MEMBERS, ["1/2"] * 3)
        assert check_projection_theorem(A, triangle, "sets").holds
        assert check_shearer(A, triangle, 2, "sets").holds
        with pytest.raises(CoverError):
            check_shearer(A, triangle, 1, "sets")
