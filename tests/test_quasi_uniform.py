"""The quasi-uniform oracle: instances where the two sides agree term by term.

Let A be a subgroup of Z_p^n, the row span mod p of a seeded generator
matrix, and let X be uniform on A. Then X is quasi-uniform (Chan & Yeung,
IEEE Trans. IT 48, 2002): H(X_S) = log|A_S|, every slice of A over A_C has
the same T-projection, so |A_T cond A_C| = 2^H(X_T | X_C), and a mod-p linear
map f has |f(A)| = 2^H(f(X)). Every set-side term therefore equals its
entropy-side term exactly, and every checker must give one verdict on both
sides.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from entroset import (
    FiniteMap,
    IndexSet,
    InequalitySpec,
    PointSet,
    RationalDist,
    check_cardinality,
    check_entropy,
    check_projection_theorem,
    check_shearer,
    conditional_avg_size,
    conditional_entropy,
    empirical_lemma1,
)
from entroset.checkers import DEFAULT_TOLERANCE, _compare
from entroset.projections import _conditional_term, _restrictor, log_conditional_avg_size
from entroset.report import HOLDS, VIOLATED

from genutil import random_fractional_cover, random_uniform_k_cover


class Subgroup:
    """A = the row span mod p of `rank` seeded rows of length n, and X uniform on A."""

    def __init__(self, p: int, n: int, rank: int, seed: int):
        self.p, self.n, self.rng = p, n, random.Random(seed)
        self.args = f"Subgroup(p={p}, n={n}, rank={rank}, seed={seed})"
        rows = [self.vector(n) for _ in range(rank)]
        rows[0][self.rng.randrange(n)] = 1  # A is never {0}
        self.points = self.span(rows, n)
        self.A = PointSet(n, self.points)
        self.X = RationalDist.uniform(self.points)

    def __repr__(self) -> str:
        return self.args

    def vector(self, length: int) -> list[int]:
        return [self.rng.randrange(self.p) for _ in range(length)]

    def span(self, rows, length: int) -> set[tuple[int, ...]]:
        return {tuple(sum(c * row[j] for c, row in zip(cs, rows)) % self.p
                      for j in range(length))
                for cs in product(range(self.p), repeat=len(rows))}

    def linear_map(self) -> FiniteMap:
        """x -> xM mod p for a seeded n x m matrix M, as a table over A."""
        m = self.rng.randint(1, 3)
        M = [self.vector(m) for _ in range(self.n)]
        return FiniteMap({x: tuple(sum(x[i] * M[i][j] for i in range(self.n)) % self.p
                                   for j in range(m)) for x in self.points})

    def exponent(self, f: FiniteMap) -> int:
        """e with |f(A)| = p^e."""
        size, e = len(f.image(self.points)), 0
        while size > 1:
            size, e = size // self.p, e + 1
        return e


SUBGROUPS = st.builds(Subgroup, p=st.sampled_from([2, 3, 5]), n=st.integers(3, 5),
                      rank=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))


def _index_sets(indices) -> list[IndexSet]:
    return [IndexSet(c) for r in range(len(indices) + 1) for c in combinations(indices, r)]


@settings(max_examples=40, deadline=None)
@given(G=SUBGROUPS, k=st.integers(1, 3))
def test_cover_checkers_agree(G, k):
    rng = random.Random(G.rng.random())
    uniform = random_uniform_k_cover(rng, G.n, k)
    fractional = random_fractional_cover(rng, G.n)
    shearer = [check_shearer(data, uniform, k, side) for data, side in
               ((G.A, "sets"), (G.X, "entropy"))]
    projection = [check_projection_theorem(data, fractional, side) for data, side in
                  ((G.A, "sets"), (G.X, "entropy"))]
    for sets, entropy in (shearer, projection):
        assert (sets.verdict, entropy.verdict) == (HOLDS, HOLDS)
        assert math.isclose(sets.lhs, entropy.lhs, abs_tol=1e-9)
        assert math.isclose(sets.rhs, entropy.rhs, abs_tol=1e-9)


@settings(max_examples=40, deadline=None)
@given(G=SUBGROUPS, count=st.integers(1, 3), coefficients=st.data())
def test_linear_map_specs_agree(G, count, coefficients):
    """Equal verdicts on drawn specs; lowered to an exact tie both hold, below
    it both are violated."""
    lhs, *rhs = [G.linear_map() for _ in range(count + 1)]
    coeffs = coefficients.draw(st.lists(
        st.fractions(0, 3, max_denominator=4), min_size=count, max_size=count))
    reports = [check(InequalitySpec(lhs, rhs, coeffs), data)
               for check, data in ((check_cardinality, G.A), (check_entropy, G.X))]
    assert reports[0].verdict == reports[1].verdict
    # with p^e terms, scaling every coefficient by e_lhs / sum c e_i ties the sides
    weight = sum(c * G.exponent(f) for c, f in zip(coeffs, rhs))
    if weight == 0 or G.exponent(lhs) == 0:
        return
    tie = Fraction(G.exponent(lhs)) / weight
    for scale, verdict in ((tie, HOLDS), (tie * Fraction(9, 10), VIOLATED)):
        spec = InequalitySpec(lhs, rhs, [c * scale for c in coeffs])
        reports = [check_cardinality(spec, G.A), check_entropy(spec, G.X)]
        assert [r.verdict for r in reports] == [verdict, verdict]
        if verdict == HOLDS:  # a tie is inside the tolerance band: decided exactly
            assert [r.provenance for r in reports] == ["exact", "exact"]


@settings(max_examples=40, deadline=None)
@given(G=SUBGROUPS)
def test_conditional_terms_tie_exactly(G):
    """|A_T cond A_C| and 2^H(X_T | X_C) decide `holds` against each other
    both ways, exactly, for every nonempty T and every C outside it."""
    everything = range(1, G.n + 1)
    for T in _index_sets(everything)[1:]:
        for C in _index_sets([i for i in everything if i not in T]):
            sets, entropy = (_conditional_term(data, _restrictor(T), _restrictor(C), 2)
                             for data in (G.A, G.X))
            for lhs, rhs in ((sets, entropy), (entropy, sets)):
                report = _compare([(1, lhs)], [(1, rhs)], DEFAULT_TOLERANCE)
                assert (report.verdict, report.provenance) == (HOLDS, "exact"), (T, C)


@settings(max_examples=60, deadline=None)
@given(G=SUBGROUPS)
def test_conditional_map_terms_tie_exactly(G):
    """For mod-p linear maps f and g the g-slices of A are cosets of ker g in A,
    each with an f-image of |f(ker g)| points, and H(f(X) | g(X)) is the log of
    that size too: |f(A) cond g(A)| and 2^H(f(X) | g(X)) decide `holds` against
    each other both ways, exactly."""
    for _ in range(3):
        f, g = (m.table.__getitem__ for m in (G.linear_map(), G.linear_map()))
        sets, entropy = (_conditional_term(data, f, g, 2) for data in (G.A, G.X))
        for lhs, rhs in ((sets, entropy), (entropy, sets)):
            report = _compare([(1, lhs)], [(1, rhs)], DEFAULT_TOLERANCE)
            assert (report.verdict, report.provenance) == (HOLDS, "exact")


@settings(max_examples=20, deadline=None)
@given(G=SUBGROUPS, base=st.sampled_from([2, math.e]))
def test_public_functions_read_the_terms(G, base):
    """log_conditional_avg_size, conditional_avg_size and conditional_entropy
    are the logs of the checkers' terms, bit for bit, for every nonempty T and
    every C outside it (the empty C included)."""
    everything = range(1, G.n + 1)
    for T in _index_sets(everything)[1:]:
        for C in _index_sets([i for i in everything if i not in T]):
            sets, entropy = (_conditional_term(data, _restrictor(T), _restrictor(C), base)[0]
                             for data in (G.A, G.X))
            assert log_conditional_avg_size(G.A, T, C, base=base) == sets
            assert conditional_entropy(G.X, T, C, base=base) == entropy
            if base == 2:
                assert conditional_avg_size(G.A, T, C) == 2.0**sets


@settings(max_examples=40, deadline=None)
@given(G=SUBGROUPS, count=st.integers(1, 3), coefficients=st.data())
def test_lemma1_rows_count_type_classes(G, count, coefficients):
    """X is uniform on A, so k_min = |A|, and f(X) is uniform on m = |f(A)|
    points: every row count at k = |A| and 2|A| is k!/((k/m)!)^m, and the
    entropy side of the report is the set side of check_cardinality."""
    maps = [G.linear_map() for _ in range(count + 1)]
    coeffs = coefficients.draw(st.lists(
        st.fractions(0, 3, max_denominator=4), min_size=count, max_size=count))
    spec = InequalitySpec(maps[0], maps[1:], coeffs)
    size = len(G.points)
    report = empirical_lemma1(spec, G.X, k_max=2 * size)
    cardinality = check_cardinality(spec, G.A)
    assert math.isclose(report.lhs, cardinality.lhs, abs_tol=1e-9)
    assert math.isclose(report.rhs, cardinality.rhs, abs_tol=1e-9)
    assert report.details["k_values"] == [size, 2 * size]
    images = [len(f.image(G.points)) for f in maps]
    for row in report.details["rows"]:
        k = row["k"]
        counts = [int(row["lhs_count"]), *map(int, row["rhs_counts"])]
        assert counts == [math.factorial(k) // math.factorial(k // m) ** m for m in images]
