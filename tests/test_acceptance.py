"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; exact criteria use tolerance 0.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from entroset import (
    CoverSpec,
    FiniteMap,
    IndexSet,
    InequalitySpec,
    PointSet,
    RuzsaSpec,
    check_cardinality,
    check_projection_theorem,
    check_shearer,
    cli,
    entropy,
    is_fractional_cover,
    lemma2_witness,
    min_fractional_cover,
    minimal_suitable_k,
    preimage_lift,
    pushforward,
    ruzsa_enumerate,
    ruzsa_size,
    type_bound_check,
    verify_commutation,
)

from genutil import (
    chain_cover,
    random_dist,
    random_dist_on,
    random_fractional_cover,
    random_map,
    random_members,
    random_pointset,
)

SEED = 20260808
SIZE_CAP = 10**5


def report(number: int, name: str, ok: bool, extra: str = "") -> None:
    line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def commutation_suite():
    """200 seeded (X, f, k) triples under the size guard, plus their X's."""
    rng = random.Random(SEED)
    triples = []
    dists = []
    while len(triples) < 200:
        d = random_dist(rng, max_support=5, max_denominator=6)
        f = random_map(rng, d.support)
        k_min = minimal_suitable_k(d)
        took = False
        for k in (k_min, 2 * k_min):
            if len(triples) >= 200:
                break
            if ruzsa_size(RuzsaSpec(d, k)) <= SIZE_CAP:
                triples.append((d, f, k))
                took = True
        if took:
            dists.append(d)
    return triples, dists


def test_criterion_1_commutation(commutation_suite):
    triples, _ = commutation_suite
    failures = 0
    for d, f, k in triples:
        rep = verify_commutation(f, RuzsaSpec(d, k), limit=SIZE_CAP)
        if not rep.holds:
            failures += 1
    report(1, "commutation", failures == 0, f"{len(triples)} triples")


def test_criterion_2_counting(commutation_suite):
    triples, _ = commutation_suite
    checked = 0
    failures = 0
    for d, f, k in triples:
        for dist in (d, pushforward(f, d)):
            spec = RuzsaSpec(dist, k)
            if ruzsa_size(spec) > SIZE_CAP:
                continue
            checked += 1
            if sum(1 for _ in ruzsa_enumerate(spec, SIZE_CAP)) != ruzsa_size(spec):
                failures += 1
    report(2, "counting", failures == 0, f"{checked} enumerations")


def test_criterion_3_finite_k_certificate(commutation_suite):
    _, dists = commutation_suite
    checked = 0
    failures = 0
    for d in dists:
        k_min = minimal_suitable_k(d)
        h = entropy(d)
        n = len(d)
        for k in range(k_min, 61, k_min):
            checked += 1
            rep = type_bound_check(RuzsaSpec(d, k))
            if not rep.holds:
                failures += 1
                continue
            rate = math.log2(ruzsa_size(RuzsaSpec(d, k))) / k
            if not abs(h - rate) <= (n - 1) * math.log2(k + 1) / k + 1e-9:
                failures += 1
    report(3, "finite-k certificate", failures == 0, f"{checked} (dist, k) pairs")


def test_criterion_4_preimage_lift():
    rng = random.Random(SEED + 4)
    failures = 0
    for _ in range(200):
        d = random_dist(rng, max_support=5, max_denominator=6)
        f = random_map(rng, d.support)
        k = minimal_suitable_k(d) * rng.randint(1, 2)
        spec = RuzsaSpec(d, k)
        image = pushforward(f, d)
        entries = []
        for x, p in zip(image.support, image.probs):
            entries.extend([x] * int(p * k))
        rng.shuffle(entries)
        y = tuple(entries)
        x = preimage_lift(f, spec, y)
        if f.map_vector(x) != y or not spec.contains(x):
            failures += 1
    report(4, "preimage lift", failures == 0, "200 lifts")


def test_criterion_5_projection_theorem_suite():
    rng = random.Random(SEED + 5)
    failures = 0
    for _ in range(500):
        n = rng.randint(2, 4)
        cover = random_fractional_cover(rng, n, max_members=6, max_denominator=12)
        A = random_pointset(rng, n, span=3, max_size=32)
        if check_projection_theorem(A, cover, "sets").slack < -1e-9:
            failures += 1
    for _ in range(500):
        n = rng.randint(2, 4)
        cover = random_fractional_cover(rng, n, max_members=6, max_denominator=12)
        grid = random_pointset(rng, n, span=3, max_size=81)
        support = rng.sample(grid.sorted_points(), min(len(grid), rng.randint(2, 12)))
        X = random_dist_on(rng, support, max_denominator=12)
        if check_projection_theorem(X, cover, "entropy").slack < -1e-9:
            failures += 1
    chain_failures = 0
    for _ in range(200):
        n = rng.randint(2, 4)
        grid = random_pointset(rng, n, span=3, max_size=81)
        support = rng.sample(grid.sorted_points(), min(len(grid), rng.randint(2, 12)))
        X = random_dist_on(rng, support, max_denominator=12)
        rep = check_projection_theorem(X, chain_cover(n), "entropy")
        if abs(rep.slack) > 1e-9:
            chain_failures += 1
    report(
        5,
        "fractional projection bounds",
        failures == 0 and chain_failures == 0,
        "500 set + 500 entropy + 200 chain instances",
    )


def test_criterion_6_shearer_han_loomis_whitney():
    rng = random.Random(SEED + 6)
    cover = CoverSpec(3, [[1, 2], [1, 3], [2, 3]])
    grid = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    failures = 0
    for _ in range(500):
        A = PointSet(3, rng.sample(grid, rng.randint(1, 27)))
        rep = check_shearer(A, cover, 2, "sets")
        # independent exact recount
        lhs = len(A) ** 2
        rhs = 1
        for S in ((1, 2), (1, 3), (2, 3)):
            rhs *= len({tuple(p[i - 1] for i in S) for p in A})
        if not rep.holds or lhs > rhs:
            failures += 1
        if int(rep.details["lhs_count"]) != lhs or int(rep.details["rhs_count"]) != rhs:
            failures += 1
    han_failures = 0
    for _ in range(200):
        support = rng.sample(grid, rng.randint(2, 12))
        X = random_dist_on(rng, support, max_denominator=12)
        rep = check_shearer(X, cover, 2, "entropy")
        # independent Han evaluation from hand-built exact marginals
        direct_rhs = 0.0
        for S in ((1, 2), (1, 3), (2, 3)):
            masses = {}
            for x, p in zip(X.support, X.probs):
                y = tuple(x[i - 1] for i in S)
                masses[y] = masses.get(y, Fraction(0)) + p
            direct_rhs += sum(float(p) * math.log2(1 / float(p)) for p in masses.values())
        if abs(rep.rhs - direct_rhs) > 1e-12:
            han_failures += 1
        if abs(rep.lhs - 2 * entropy(X)) > 1e-12:
            han_failures += 1
    report(
        6,
        "Shearer / Han / Loomis-Whitney",
        failures == 0 and han_failures == 0,
        "500 counting + 200 entropy instances",
    )


def _exact_chain_verdict(lhs_count: int, rhs_counts, coeffs) -> bool:
    d = math.lcm(*(c.denominator for c in coeffs))
    rhs = 1
    for r, c in zip(rhs_counts, coeffs):
        rhs *= r ** int(c * d)
    return lhs_count**d <= rhs


def test_criterion_7_entropy_to_counting_bridge():
    rng = random.Random(SEED + 7)
    failures = 0
    for _ in range(200):
        n = rng.randint(2, 3)
        span = 3
        grid = [
            tuple((v // span**i) % span for i in range(n)) for v in range(span**n)
        ]
        A = random_pointset(rng, n, span=span, max_size=12)
        f = random_map(rng, grid, merge_bias=rng.uniform(0.2, 0.8))
        cover = random_fractional_cover(rng, n, max_members=5, max_denominator=12)
        members = [
            (m, w) for m, w in zip(cover.members, cover.weights) if w > 0
        ]
        spec = InequalitySpec(
            lhs_map=f,
            rhs_maps=[
                FiniteMap({x: tuple(x[i - 1] for i in m) for x in grid})
                for m, _ in members
            ],
            coefficients=[w for _, w in members],
        )
        witness = lemma2_witness(A.points, f)
        lhs_exact = len(f.image(A.points))
        h_image = entropy(pushforward(f, witness))
        if abs(h_image - math.log2(lhs_exact)) > 1e-12:
            failures += 1
            continue
        # chained comparison: H(f(X*)) against sum a_S log|f_S(A)|, decided
        # by the float slack outside a 1e-9 band and by exact integers inside
        rhs_counts = [len(m.image(A.points)) for m in spec.rhs_maps]
        rhs_log = sum(
            float(c) * math.log2(r) for c, r in zip(spec.coefficients, rhs_counts)
        )
        slack = rhs_log - h_image
        if abs(slack) >= 1e-9:
            chained_holds = slack > 0
        else:
            chained_holds = _exact_chain_verdict(
                lhs_exact, rhs_counts, spec.coefficients
            )
        direct = check_cardinality(spec, A)
        if chained_holds != direct.holds:
            failures += 1
    report(7, "entropy-to-counting bridge", failures == 0, "200 instances")


def test_criterion_8_cover_lp():
    triangle = min_fractional_cover(3, [[1, 2], [1, 3], [2, 3]])
    ok = triangle.objective == Fraction(3, 2)
    rng = random.Random(SEED + 8)
    failures = 0
    for _ in range(100):
        n = rng.randint(2, 8)
        members = random_members(rng, n, max_members=16)[:20]
        covered = set().union(*(set(m.indices) for m in members))
        members += [IndexSet([i]) for i in range(1, n + 1) if i not in covered]
        solution = min_fractional_cover(n, members)
        if not is_fractional_cover(CoverSpec(n, members, solution.weights)).holds:
            failures += 1
            continue
        for _ in range(20):
            weights = [
                Fraction(rng.randint(0, 24), rng.randint(1, 12)) for _ in members
            ]
            cover = CoverSpec(n, members, weights)
            worst = min(cover.coverage())
            if worst < 1:
                if worst == 0:
                    continue
                scale = math.ceil(1 / worst)
                weights = [w * scale for w in weights]
                cover = CoverSpec(n, members, weights)
            if solution.objective > sum(cover.weights, Fraction(0)):
                failures += 1
    report(8, "cover LP", ok and failures == 0, "triangle + 100 random instances")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    dist_path = tmp_path / "d.json"
    dist_path.write_text(
        json.dumps({"support": [[1], [2], [3]], "probs": ["1/6", "1/3", "1/2"]})
    )
    cover_path = tmp_path / "c.json"
    cover_path.write_text(
        json.dumps({"n": 3, "members": [[1, 2], [1, 3], [2, 3]], "weights": ["1/2", "1/2", "1/2"]})
    )
    invocations = [
        ["--seed", "11", "demo"],
        ["--seed", "99", "demo"],
        ["entropy", "--dist", str(dist_path)],
        ["ruzsa", "size", "--dist", str(dist_path), "--k", "6"],
        ["ruzsa", "bound", "--dist", str(dist_path), "--k", "12"],
        ["cover", "min", "--cover", str(cover_path)],
        ["cover", "check", "--cover", str(cover_path)],
    ]
    ok = True
    for argv in invocations:
        outputs = []
        for _ in range(2):
            code = cli.run(argv)
            outputs.append((code, capsys.readouterr().out.encode()))
        if outputs[0] != outputs[1]:
            ok = False
    capsys.disabled()
    report(9, "CLI determinism", ok, f"{len(invocations)} invocations x2")
