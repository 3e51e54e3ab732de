"""Seeded input generator for the entroset benchmark.

`generate(workload, seed, workdir)` writes every input file of one run
into `workdir` and returns the op schedule: a list of `Op`s, each an argv
for `entroset.cli.run` plus what the output must satisfy. Expected values
are computed here with the standard library only, never with entroset, so
the output checks in `checks.py` do not trust the code under test.

Sizes are stratified by instance index (dimension, |A|, member count and
so on step through their ranges in a fixed pattern) and only the contents
(which points, which subsets, which weights) are drawn from the seed. Two
seeds therefore give different inputs of nearly the same cost, which keeps
the run-to-run spread of the end-to-end metrics small.

The schedule interleaves op kinds and size classes round-robin, so any
whole pass over it has the workload's full mix.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

# One line each; BENCHMARK.json carries the same text.
WORKLOADS = {
    "counting": {
        "why": (
            "set-side checks, |A| ~250/500/1000 in dim 4-6: projection, shearer, "
            "deep-prefix condsize, project, cardinality; projections dominates, "
            "jsonio decodes 3-75 KB inputs"
        ),
        "kinds": ("projection", "shearer", "condsize", "project", "cardinality"),
        "instances": 6,
    },
    "entropy": {
        "why": (
            "many 3-10 ms requests on distributions with support 4-40: entropy, "
            "pushforward, condentropy, checks, lemma1, ruzsa size/bound, demo; "
            "cli and jsonio fixed costs dominate"
        ),
        "kinds": (
            "entropy", "pushforward", "condentropy", "check_entropy",
            "shearer_entropy", "projection_entropy", "lemma1", "ruzsa_size",
            "ruzsa_bound", "demo",
        ),
        "instances": 3,
    },
    "solvers": {
        "why": (
            "exact solvers on tiny inputs: cover min (n 6/9/12), rationalize "
            "(D 8/10/12), ruzsa commute (|set| 1e3/1e4/5e4), converge, lemma1 "
            "cross-validate; covers, ruzsa, dist dominate"
        ),
        "kinds": ("cover_min", "rationalize", "commute", "converge", "lemma1_cv"),
        "instances": 6,
    },
}

# size-class labels used by the per-layer breakdowns, per op kind
CLASS_LABELS = {
    "cover_min": ("n6", "n9", "n12"),
    "rationalize": ("d8", "d10", "d12"),
    "commute": ("s1e3", "s1e4", "s5e4"),
}


@dataclass
class Op:
    """One `cli.run` invocation and what its output must satisfy.

    Every op is chosen to succeed, so every op must exit 0.
    """

    op_id: int
    kind: str
    size_class: str
    argv: list[str]
    expect: dict = field(default_factory=dict)


class _Writer:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def write(self, stem: str, doc) -> str:
        self.count += 1
        path = self.workdir / f"{self.count:04d}-{stem}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)


# ---------------------------------------------------------------- helpers


def multinomial(counts) -> int:
    size = math.factorial(sum(counts))
    for c in counts:
        size //= math.factorial(c)
    return size


def entropy_bits(probs) -> float:
    return -math.fsum(float(p) * math.log2(p) for p in probs)


def restrict(point, indices):
    return tuple(point[i - 1] for i in indices)


def random_points(rng: random.Random, spans, count: int) -> list[tuple[int, ...]]:
    pts: set[tuple[int, ...]] = set()
    while len(pts) < count:
        pts.add(tuple(rng.randrange(s) for s in spans))
    return sorted(pts)


def random_fractional_cover(rng: random.Random, n: int, members: int, max_den: int):
    """Random subsets of [n] with weights of denominator <= max_den covering [n]."""
    while True:
        subsets = []
        for _ in range(members):
            size = rng.randint(1, n - 1) if n > 1 else 1
            subsets.append(sorted(rng.sample(range(1, n + 1), size)))
        if set().union(*map(set, subsets)) == set(range(1, n + 1)):
            break
    q = rng.randint(2, max_den)
    nums = [rng.randint(0, q) for _ in subsets]

    def coverage(i):
        return sum(Fraction(a, q) for a, s in zip(nums, subsets) if i in s)

    for i in range(1, n + 1):
        while coverage(i) < 1:
            j = rng.choice([j for j, s in enumerate(subsets) if i in s])
            nums[j] += 1
    weights = [Fraction(a, q) for a in nums]
    return subsets, weights


def composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Uniform random composition of `total` into `parts` positive parts."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0] + cuts + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def dist_doc(support, probs) -> dict:
    return {"support": [list(x) for x in support], "probs": [str(p) for p in probs]}


def projection_table(domain, indices) -> dict:
    return {"table": [[list(x), list(restrict(x, indices))] for x in sorted(domain)]}


def identity_table(domain) -> dict:
    return {"table": [[list(x), list(x)] for x in sorted(domain)]}


def projection_spec(domain, members, weights) -> dict:
    """Identity against the projections onto a fractional cover: a theorem.

    |A| <= prod |A_S|^w_S for every A in the domain (Shearer's lemma), and
    the matching entropy inequality holds for every distribution on it.
    """
    return {
        "lhs_map": identity_table(domain),
        "rhs_maps": [projection_table(domain, m) for m in members],
        "coefficients": [str(x) for x in weights],
    }


def pushforward_exact(table: dict, support, probs):
    """First-image-order pushforward, as the CLI documents it."""
    lookup = {tuple(k): tuple(v) for k, v in table}
    masses: dict = {}
    for x, p in zip(support, probs):
        y = lookup[tuple(x)]
        masses[y] = masses.get(y, Fraction(0)) + p
    return list(masses), list(masses.values())


def marginal_entropy(support, probs, indices) -> float:
    masses: dict = {}
    for x, p in zip(support, probs):
        y = restrict(x, indices)
        masses[y] = masses.get(y, Fraction(0)) + p
    return entropy_bits(masses.values())


def random_dist(rng: random.Random, support_size: int, dim: int, max_den: int, span: int):
    r = rng.randint(support_size, max_den)
    parts = composition(rng, r, support_size)
    support = random_points(rng, [span] * dim, support_size)
    rng.shuffle(support)
    return support, [Fraction(a, r) for a in parts]


def stratum(j: int, count: int, lo: float, hi: float) -> float:
    """The j-th of `count` evenly spaced values in [lo, hi]."""
    return lo if count == 1 else lo + (hi - lo) * j / (count - 1)


# ---------------------------------------------------------------- counting


def _counting(rng: random.Random, w: _Writer, instances: int):
    targets = {"s250": 250, "s500": 500, "s1000": 1000}
    ops = []
    for j in range(instances):
        for c, (cls, target) in enumerate(targets.items()):
            n = (4, 5, 6)[(j + c) % 3]
            size = round(target * stratum(j, instances, 0.95, 1.05))
            span = next(s for s in range(4, 9) if s**n >= 3 * size)
            points = random_points(rng, [span] * n, size)
            a_path = w.write(f"pointset-{cls}",
                             {"dimension": n, "points": [list(p) for p in points]})
            ops.append(_projection_op(rng, w, cls, n, points, a_path))
            ops.append(_shearer_op(w, cls, n, points, a_path))
            ops.append(_condsize_op(rng, cls, n, points, a_path))
            ops.append(_project_op(rng, cls, n, points, a_path))
            ops.append(_cardinality_op(rng, w, cls, j))
    return ops


def _projection_op(rng, w, cls, n, points, a_path):
    # The set side scans A once per slice of the prefix below each member,
    # so the cost is about |A| * sum of prefix-slice counts. Holding that
    # sum between |A|/7 and |A|/5 makes one check cost a fraction of one
    # deep condsize whatever the seed, so the slowest tenth of a pass is
    # condsize alone and latency_p90_ms does not hinge on random covers.
    prefix_slices = [len({restrict(x, range(1, k)) for x in points}) for k in range(1, n + 1)]
    while True:
        subsets, weights = random_fractional_cover(rng, n, rng.randint(n - 1, n + 1), 12)
        cost = sum(prefix_slices[min(s) - 1] for s, wt in zip(subsets, weights)
                   if wt > 0 and min(s) > 1)
        if len(points) / 7 <= cost <= len(points) / 5:
            break
    c_path = w.write(
        f"cover-{cls}",
        {"n": n, "members": subsets, "weights": [str(x) for x in weights]},
    )
    argv = ["check", "projection", "--cover", c_path, "--input", a_path, "--side", "sets"]
    return ("projection", cls, argv, {"verdict": "holds"})


def _shearer_op(w, cls, n, points, a_path):
    members = [list(s) for s in combinations(range(1, n + 1), n - 1)]
    c_path = w.write(f"shearer-{cls}", {"n": n, "members": members})
    sizes = [len({restrict(x, m) for x in points}) for m in members]
    expect = {
        "verdict": "holds",
        "lhs_count": str(len(points) ** (n - 1)),
        "projection_sizes": [str(s) for s in sizes],
    }
    argv = ["check", "shearer", "--cover", c_path, "--input", a_path, "--side", "sets",
            "--k", str(n - 1)]
    return ("shearer", cls, argv, expect)


def _condsize_op(rng, cls, n, points, a_path):
    # deepest prefix: nearly every point is its own slice, |A|^2 work
    s_idx = list(range(1, n))
    t_idx = sorted({n, rng.randint(1, n - 1)})
    slices: dict = {}
    for x in points:
        y = restrict(x, s_idx)
        count, targets = slices.get(y, (0, set()))
        targets.add(restrict(x, t_idx))
        slices[y] = (count + 1, targets)
    log_size = math.fsum(
        count / len(points) * math.log2(len(targets)) for count, targets in slices.values()
    )
    argv = ["condsize", "--pointset", a_path, "--t", _csv(t_idx), "--s", _csv(s_idx)]
    return ("condsize", cls, argv, {"log2_size": log_size})


def _project_op(rng, cls, n, points, a_path):
    idx = sorted(rng.sample(range(1, n + 1), rng.randint(2, n - 1)))
    proj = sorted({restrict(x, idx) for x in points})
    argv = ["project", "--pointset", a_path, "--indices", _csv(idx)]
    return ("project", cls, argv, {"dimension": len(idx), "points": [list(p) for p in proj]})


def _cardinality_op(rng, w, cls, j):
    grid_size = {"s250": 250, "s500": 480, "s1000": 700}[cls]
    d = (3, 4)[j % 2]
    side = math.floor(grid_size ** (1 / d))
    spans = [side] * (d - 1) + [grid_size // side ** (d - 1)]
    grid = list(product(*(range(s) for s in spans)))
    subset = sorted(rng.sample(grid, len(grid) // 2))
    members, weights = random_fractional_cover(rng, d, d, 12)
    spec = projection_spec(grid, members, weights)
    s_path = w.write(f"spec-{cls}", spec)
    b_path = w.write(f"subset-{cls}", {"dimension": d, "points": [list(p) for p in subset]})
    expect = {
        "verdict": "holds",
        "lhs_count": str(len(subset)),
        "rhs_counts": [str(len({restrict(x, m) for x in subset})) for m in members],
    }
    return ("cardinality", cls, ["check", "cardinality", "--spec", s_path, "--input", b_path],
            expect)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------- entropy


def _entropy(rng: random.Random, w: _Writer, instances: int):
    ranges = {"s4": (4, 13), "s16": (14, 26), "s40": (27, 40)}
    ops = []
    for j in range(instances):
        for cls, (lo, hi) in ranges.items():
            support_size = round(stratum(j, instances, lo, hi))
            dim = (3, 4, 5)[(j + list(ranges).index(cls)) % 3]
            span = 4 if dim == 3 else 3
            support, probs = random_dist(rng, support_size, dim, 60, span)
            d_path = w.write(f"dist-{cls}", dist_doc(support, probs))
            ops.extend(_entropy_ops(rng, w, cls, dim, support, probs, d_path))
    return ops


def _entropy_ops(rng, w, cls, dim, support, probs, d_path):
    ops = [("entropy", cls, ["entropy", "--dist", d_path],
            {"entropy": entropy_bits(probs)})]

    images = [(rng.randrange(3),) for _ in support]
    table = [[list(x), list(y)] for x, y in zip(support, images)]
    m_path = w.write(f"map-{cls}", {"table": table})
    out_support, out_probs = pushforward_exact(table, support, probs)
    ops.append(("pushforward", cls, ["pushforward", "--map", m_path, "--dist", d_path],
                {"support": [list(y) for y in out_support],
                 "probs": [str(p) for p in out_probs]}))

    s_idx = sorted(rng.sample(range(1, dim + 1), rng.randint(1, dim - 1)))
    rest = [i for i in range(1, dim + 1) if i not in s_idx]
    c_idx = sorted(rng.sample(rest, rng.randint(1, len(rest))))
    value = (marginal_entropy(support, probs, sorted(set(s_idx) | set(c_idx)))
             - marginal_entropy(support, probs, c_idx))
    ops.append(("condentropy", cls,
                ["condentropy", "--dist", d_path, "--s", _csv(s_idx), "--c", _csv(c_idx)],
                {"entropy": value}))

    members, weights = random_fractional_cover(rng, dim, dim, 12)
    spec = projection_spec(support, members, weights)
    spec_path = w.write(f"spec-{cls}", spec)
    ops.append(("check_entropy", cls,
                ["check", "entropy", "--spec", spec_path, "--input", d_path],
                {"verdict": "holds"}))

    shearer = [list(s) for s in combinations(range(1, dim + 1), dim - 1)]
    sh_path = w.write(f"shearer-{cls}", {"n": dim, "members": shearer})
    ops.append(("shearer_entropy", cls,
                ["check", "shearer", "--cover", sh_path, "--input", d_path,
                 "--side", "entropy", "--k", str(dim - 1)], {"verdict": "holds"}))

    members, weights = random_fractional_cover(rng, dim, rng.randint(dim - 1, dim + 1), 12)
    pc_path = w.write(f"cover-{cls}", {"n": dim, "members": members,
                                        "weights": [str(x) for x in weights]})
    ops.append(("projection_entropy", cls,
                ["check", "projection", "--cover", pc_path, "--input", d_path,
                 "--side", "entropy"], {"verdict": "holds"}))

    # lemma1 needs a suitable k <= 24: a small distribution on the same grid
    l_support, l_probs = random_dist(rng, rng.randint(3, 6), dim, 12, 3)
    r = math.lcm(*(p.denominator for p in l_probs))
    l_path = w.write(f"ldist-{cls}", dist_doc(l_support, l_probs))
    members, weights = random_fractional_cover(rng, dim, dim, 6)
    l_spec = projection_spec(l_support, members, weights)
    ls_path = w.write(f"lspec-{cls}", l_spec)
    ops.append(("lemma1", cls,
                ["check", "lemma1", "--spec", ls_path, "--input", l_path, "--kmax", "24"],
                {"verdict": "holds", "k_values": list(range(r, 25, r))}))

    r_all = math.lcm(*(p.denominator for p in probs))
    k = r_all * rng.randint(1, 2)
    counts = [int(p * k) for p in probs]
    ops.append(("ruzsa_size", cls, ["ruzsa", "size", "--dist", d_path, "--k", str(k)],
                {"size": str(multinomial(counts))}))
    ops.append(("ruzsa_bound", cls, ["ruzsa", "bound", "--dist", d_path, "--k", str(k)],
                {"verdict": "holds", "size": str(multinomial(counts))}))

    ops.append(("demo", cls, ["--seed", str(rng.randrange(10**6)), "demo"],
                {"all_hold": True}))
    return ops


# ---------------------------------------------------------------- solvers


def _solvers(rng: random.Random, w: _Writer, instances: int):
    ops = []
    for j in range(instances):
        for c in range(3):
            ops.append(_cover_min_op(rng, w, c, j, instances))
            ops.append(_rationalize_op(rng, c, j))
            ops.append(_commute_op(rng, w, c, j))
            ops.append(_converge_op(rng, w, c))
            ops.append(_lemma1_cv_op(rng, w, c))
        # two more 5e4 commutes per instance: the slowest sixth of a pass is
        # then commute alone, whose cost the seed barely moves, rather than
        # the simplex, whose pivot count it does, and the 90th percentile
        # lies inside that plateau rather than at its lower edge
        ops.append(_commute_op(rng, w, 2, j + 1))
        ops.append(_commute_op(rng, w, 2, j))
    return ops


def _cover_min_op(rng, w, c, j, instances):
    # members n..40 overall; fewer members for larger n bound the simplex
    # cost of one op below a 5e4 commute
    n, lo, hi = ((6, 20, 40), (9, 14, 28), (12, 12, 20))[c]
    m = round(stratum(j, instances, lo, hi))
    while True:
        members = [sorted(rng.sample(range(1, n + 1), rng.randint(2, max(2, n // 2))))
                   for _ in range(m)]
        if set().union(*map(set, members)) == set(range(1, n + 1)):
            break
    path = w.write(f"cover-n{n}", {"n": n, "members": members})
    return ("cover_min", CLASS_LABELS["cover_min"][c], ["cover", "min", "--cover", path],
            {"n": n, "members": members})


def _rationalize_op(rng, c, j):
    d = (8, 10, 12)[c]
    count = 3 + (j * 3 + c) % 6
    weights = [rng.uniform(0.05, 1.0) for _ in range(count)]
    argv = ["rationalize", "--weights", ",".join(repr(x) for x in weights),
            "--max-denominator", str(d)]
    return ("rationalize", CLASS_LABELS["rationalize"][c], argv,
            {"max_denominator": d, "count": count})


# Occurrence counts per (|set| class, outcomes): the multinomial is within
# 10% of 1e3, 1e4 or 5e4. Enumeration cost grows with |set| * k, so fixing
# the counts (the seed only permutes them, which changes what the pairwise
# merge map merges) keeps one commute op's cost the same from seed to seed.
COMMUTE_COUNTS = {
    (0, 3): (1, 2, 11), (0, 4): (1, 1, 1, 8),
    (1, 3): (3, 3, 5), (1, 4): (1, 1, 3, 6),
    (2, 3): (2, 4, 8), (2, 4): (1, 3, 3, 4),
}


def _commute_op(rng, w, c, j):
    counts = list(COMMUTE_COUNTS[c, (3, 4)[j % 2]])
    rng.shuffle(counts)
    k = sum(counts)
    support = [(i,) for i in range(len(counts))]
    probs = [Fraction(x, k) for x in counts]
    # f merges outcomes pairwise, so the image set is much smaller
    table = [[list(x), [x[0] // 2]] for x in support]
    d_path = w.write(f"cdist-{c}", dist_doc(support, probs))
    m_path = w.write(f"cmap-{c}", {"table": table})
    _, image_probs = pushforward_exact(table, support, probs)
    image_counts = [int(p * k) for p in image_probs]
    expect = {
        "verdict": "holds",
        "source_size": str(multinomial(counts)),
        "direct_size": str(multinomial(image_counts)),
    }
    argv = ["ruzsa", "commute", "--dist", d_path, "--map", m_path, "--k", str(k)]
    return ("commute", CLASS_LABELS["commute"][c], argv, expect)


def _converge_op(rng, w, c):
    parts = (2, 3, 5)[c]
    r = rng.randint(max(parts, 6), 20)
    counts = composition(rng, r, parts)
    probs = [Fraction(x, r) for x in counts]
    support = [(i,) for i in range(parts)]
    d_path = w.write(f"vdist-{c}", dist_doc(support, probs))
    k_min = math.lcm(*(p.denominator for p in probs))
    multiples = list(range(k_min, 2001, k_min))
    ks = sorted(rng.sample(multiples, min(len(multiples), (40, 70, 100)[c])))
    sizes = [str(multinomial([int(p * k) for p in probs])) for k in ks]
    argv = ["ruzsa", "converge", "--dist", d_path, "--ks", _csv(ks)]
    return ("converge", ("c0", "c1", "c2")[c], argv, {"ks": ks, "sizes": sizes})


def _lemma1_cv_op(rng, w, c):
    budget = (500, 2_000, 8_000)[c]
    while True:
        support, probs = random_dist(rng, rng.randint(3, 4), 2, 8, 3)
        k_min = math.lcm(*(p.denominator for p in probs))
        ks, total = [], 0
        for k in range(k_min, 25, k_min):
            size = multinomial([int(p * k) for p in probs])
            if total + size > budget:
                break
            ks.append(k)
            total += size
        if ks and total >= budget / 2:
            break
    d_path = w.write(f"xdist-{c}", dist_doc(support, probs))
    members, weights = random_fractional_cover(rng, 2, 2, 4)
    spec = projection_spec(support, members, weights)
    s_path = w.write(f"xspec-{c}", spec)
    argv = ["check", "lemma1", "--spec", s_path, "--input", d_path,
            "--kmax", str(ks[-1]), "--cross-validate"]
    return ("lemma1_cv", ("c0", "c1", "c2")[c], argv, {"verdict": "holds", "k_values": ks})


_SCHEDULES = {"counting": _counting, "entropy": _entropy, "solvers": _solvers}


def generate(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write every input file for one run and return the op schedule."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    raw = _SCHEDULES[workload](rng, _Writer(workdir), spec["instances"])
    return [
        Op(op_id=i, kind=kind, size_class=cls, argv=argv, expect=expect)
        for i, (kind, cls, argv, expect) in enumerate(raw)
    ]
