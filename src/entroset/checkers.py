"""Inequality checkers: both sides of cardinality and entropy bounds.

The two sides of the correspondence are kept honest with one another:

* every checker decides through one comparator, `_compare`, on
  (coefficient, term) pairs. A term is a float log and an exact form of a
  count |f(A)| or |f(A) cond g(A)|, or of 2^H(f(X)) or 2^H(f(X) | g(X));
  `projections` makes every term: `_term` for an image, and
  `_prefix_terms` for the (member restrictor, prefix depth) pairs that a
  cover checker lists, slicing A once for a chain of prefixes S*.
  Every comparison is decided by one exact rule. Stage 0 reads the sign of
  the float slack that `_compare` reports, when it is past a stated bound
  on its rounding error (`_slack_bound`); no exact form is built then.
  Ties, near ties and NaN or infinite sides go to `_exact_verdict`: the
  sign of sum e log2 b over the cleared exponent map {b: e}, read from
  floats with a stated rounding bound, and for a tie or near tie that the
  bound cannot separate from 0, the big-int products of both sides. Only a
  near tie whose products are past the bit limit is `inconclusive`;
* `_images` alone applies an inequality spec's maps, by one domain test and
  `dist._image` of each table, the same way to points and to a law;
* `check_shearer` and `check_projection_theorem` test a cover's own
  per-element sums (`CoverSpec.multiplicities` and `coverage`), not the
  reports of the `covers` predicates;
* `lemma2_witness` builds the uniform variable on fiber representatives
  whose image entropy equals log|f(A)| exactly, the bridge from entropy
  statements back to counting statements;
* `empirical_lemma1` runs the finite-k experiment on type-class sets,
  where the commutation identity lets every count come from the closed
  form instead of enumeration; each row is one `_compare` of its counts.

Negative coefficients are accepted on the entropy side only (nothing is
claimed for them; they are evaluated as given) and rejected on the
cardinality side, where the bridge argument needs positivity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .covers import CoverSpec
from .dist import (
    Element,
    FiniteMap,
    RationalDist,
    _as_float,
    _as_int,
    _as_list,
    _expect_type,
    _image,
    _log_function,
    _map_table,
    as_elements,
    as_fraction,
    minimal_suitable_k,
)
from .errors import (
    CoverError,
    DomainError,
    NegativeCoefficientError,
    SchemaError,
    SizeGuardError,
    SuitabilityError,
    _cut,
    _echo,
)
from .projections import (
    PointSet,
    _count,
    _prefix_terms,
    _restrictor,
    _term,
    log_conditional_avg_size,  # unused: bench/selftest.py checks that its tracer rewraps it
)
from .report import (
    HOLDS,
    INCONCLUSIVE,
    VIOLATED,
    CheckReport,
    Record,
    exact_text,
)
from .ruzsa import DEFAULT_ENUM_LIMIT, RuzsaSpec, _mapped_arrangements, _sizes

# refuse exact power comparisons beyond this many bits
_EXACT_BIT_LIMIT = 2_000_000

# refuse lemma1 experiments of more rows than this (k_max // k_min)
MAX_LEMMA1_ROWS = 10_000


class InequalitySpec(Record):
    """Maps f, f_1..f_n and exponents for |f(A)| <= prod |f_i(A)|^a_i.

    The maps share one domain, so the spec reads its raw tables itself, f
    and then each f_i (the coefficients after them), with one list of
    checked columns: a key or value column equal to one read before in the
    spec reuses its tuples instead of being checked again. A FiniteMap is
    immutable and already checked, so it is kept as given. The domain is
    `lhs_map.table.keys()`.
    """

    lhs_map: FiniteMap
    rhs_maps: tuple[FiniteMap, ...]
    coefficients: tuple[Fraction, ...]

    def __init__(self, lhs_map, rhs_maps: Sequence, coefficients: Sequence):
        seen: list = []
        lhs, *maps = (m if isinstance(m, FiniteMap) else FiniteMap._of(table=_map_table(m, seen))
                      for m in (lhs_map, *_as_list(rhs_maps, "rhs_maps")))
        coeffs = tuple(map(as_fraction, _as_list(coefficients, "coefficients")))
        if len(maps) != len(coeffs):
            raise SchemaError("rhs_maps and coefficients must have equal length")
        if not maps:
            raise SchemaError("need at least one rhs map")
        # maps decoded from one key column list the same keys in one order;
        # only a map that lists them in another is compared as a key set
        keys = list(lhs.table)
        if any(list(m.table) != keys and m.table.keys() != lhs.table.keys() for m in maps):
            raise DomainError("all maps must share one declared domain")
        self._set(lhs_map=lhs, rhs_maps=tuple(maps), coefficients=coeffs)


def _as_point_collection(A) -> frozenset[Element]:
    if isinstance(A, PointSet):
        return A.points
    pts = frozenset(as_elements(A))
    if not pts:
        raise SchemaError("point collection must be nonempty")
    return pts


def _spec_sides(spec: InequalitySpec, terms: list):
    """The (c, term) pairs of each side, from the terms of f, f_1, ..., f_n."""
    lhs, *rhs = terms
    return [(1, lhs)], list(zip(spec.coefficients, rhs))


def _images(spec: InequalitySpec, data) -> list:
    """The images by f, f_1, ..., f_n of points (sets) or of a RationalDist (laws)."""
    law = isinstance(data, RationalDist)
    if not all(map(spec.lhs_map.table.__contains__, data.support if law else data)):
        where = "distribution support" if law else "point set"
        raise DomainError(f"{where} is not contained in the maps' domain")
    # every point is a key of every map (one shared domain), and already normal
    return [_image(data, m.table.__getitem__) for m in (spec.lhs_map, *spec.rhs_maps)]


def _exact_verdict(lhs, rhs) -> str | None:
    """Is prod lhs <= prod rhs? Decided exactly; None for a near tie past the bit limit.

    The sides clear to one map {b: e} of int bases and exponents with
    prod b^e = (rhs / lhs)^L for some L > 0, so the verdict is the sign of
    T = sum e log2 b. That sign is read from floats first. Assume
    `math.log2` is within 1 ulp (the tests check it against `decimal`); an
    int e rounds to the nearest float, so each product e * log2 b is within
    a relative 2^-51 (and a hair) of its true value, and `math.fsum` rounds
    once. The total is then within 2^-50 fsum(|terms|) + 2^-52 |total| of
    T, so when |total| > 2^-49 fsum(|terms|) its sign is the true one.

    An exponent of 2^1000 or more would overflow a float, so every e is
    shifted right by the s bits that keep each term below 2^1000 (fsum
    cannot overflow on fewer than 2^23 bases). e >> s is within 1 of
    e / 2^s, so when s > 0 the bound gains sum bitlen(b) > sum log2 b, the
    most the shifts move T / 2^s.

    Only a tie or a near tie, which the bound cannot separate from 0, falls
    through to the big-int products of both sides, built within
    `_EXACT_BIT_LIMIT` bits; past it the answer is None.
    """
    forms = [
        (sign, c, (1, {f: 1}) if isinstance(f, int) else f())
        for sign, side in ((-1, lhs), (1, rhs))
        for c, (_, f) in side
    ]
    lcm = math.lcm(*(c.denominator * d for _, c, (d, _) in forms))
    # prod b^e over `exps` is (rhs / lhs)^lcm; integer exponents only
    exps: dict[int, int] = {}
    for sign, c, (d, powers) in forms:
        scale = sign * c.numerator * (lcm // (c.denominator * d))
        for b, e in powers.items():
            exps[b] = exps.get(b, 0) + scale * e
    exps.pop(1, None)
    # log2 b < 2^bitlen(bitlen(b)), so each shifted term is below 2^1000
    s = max(0, max(map(abs, exps.values()), default=0).bit_length()
            + max(exps, default=1).bit_length().bit_length() - 1000)
    terms = [(e >> s) * math.log2(b) for b, e in exps.items()]
    total = math.fsum(terms)
    if abs(total) > 2**-49 * math.fsum(map(abs, terms)) + (s and sum(map(int.bit_length, exps))):
        return HOLDS if total > 0 else VIOLATED
    # (rhs / lhs)^(lcm / g) is >= 1 just when (rhs / lhs)^lcm is
    g = math.gcd(*exps.values()) or 1
    if sum(abs(e) // g * b.bit_length() for b, e in exps.items()) > _EXACT_BIT_LIMIT:
        return None
    num = math.prod(b ** (e // g) for b, e in exps.items() if e > 0)
    den = math.prod(b ** (-e // g) for b, e in exps.items() if e < 0)
    return HOLDS if den <= num else VIOLATED


def _logs(lhs, rhs) -> tuple[float, float, list, list]:
    """The float logs of both sides, sums of c * log over the (c, term) pairs
    in order, and the float coefficients c and products c * log of both."""
    pairs = (*lhs, *rhs)
    coefficients = [_as_float(c, "coefficient") for c, _ in pairs]
    products = [c * log for c, (_, (log, _)) in zip(coefficients, pairs)]
    return sum(products[:len(lhs)]), sum(products[len(lhs):]), coefficients, products


# the unit roundoff of a float
_U = 2.0**-53


def _term_error(log: float, size: int) -> float:
    """A bound on the rounding error of a term's float log, built from data of
    `size` points or support points (1 for a bare count), in bits or nats.

    Assume that `math.log2` and `math.log` of a float, and `math.log2` of a
    positive int, are within 1 ulp (the tests check them against `decimal`);
    1 ulp of x is at most 2u|x|. Let n = size; an entropy H of a law on at
    most n points is at most log2 n, in bits or nats.

    * A count log N is within 1 ulp, 2u|log N|: in bits by the assumption on
      ints, and in nats N is a size of the data, below 2^53, so a float.
    * An entropy term, over at most n support points, is a left-to-right sum
      of q log(1/q) with q = c/d and 1/q each rounded once. The two roundings
      move log(1/q) by at most 2u / ln 2 < 3u, and q, the log and the
      product add a relative 4u; so each summand is within
      4u p log(1/p) + 3u p, and the n - 1 additions add (n - 1)u H: in all
      3u + (n + 3)u H. The
      `dist._entropy_term` fallback (p < 2^-1024, whose logs of ints past
      2^1024 err by a relative 4u at most), the subnormal q and the subnormal
      products err by less than 2^-1000 each, far inside 3u.
    * A sliced set term, at most n summands n_y/|A| log size_y, is within
      (n + 3)u log2 n the same way, with no error in the argument of a log.
    * A law's conditional term H(f, g) - H(g) is within the sum of the two
      entropy terms' bounds, plus u|log| for the subtraction.

    2u(|log| + (n + 4) log2 n + 3) covers every case.
    """
    return 2 * _U * (abs(log) + (size + 4) * math.log2(size) + 3)


def _slack_bound(coefficients: list, products: list, size: int) -> float:
    """B, 8 times a bound on the rounding error of the slack rhs - lhs by
    `_logs`, from its float coefficients c and products c * log.

    Each pair contributes |c| times its `_term_error`, 2u|c log| plus
    |c| `_term_error(0, size)`. Rounding c and each product, the
    left-to-right sums of each side and the final subtraction add at most
    (m + 3)u sum |c log| over the m pairs. A coefficient or a product in the
    subnormal range errs by at most 2^-1075 (1 + |log|) more, and every
    |log| is below 2^64 (a log of an int held in memory, or of a law's
    size), so 2^-900 covers them all. The factor 8 covers the second-order
    terms, B's own rounding and Python 3.12's compensated `sum`, which is
    within 2u|sum| plus second-order terms.
    """
    return 8 * ((len(products) + 5) * _U * sum(map(abs, products))
                + _term_error(0.0, size) * sum(map(abs, coefficients))) + 2**-900


def _compare(lhs, rhs, size: int, details: dict | None = None) -> CheckReport:
    """Is prod term^c over lhs <= the same over rhs, for (c, term) pairs?

    A term is (log, form): a float log, and an int count or a function
    giving (d, {b: e}) with term^d = prod b^e. `size` is the number of
    points or support points of the data that the terms are built from, 1
    when they are bare counts. The sides and the slack are the float sums
    of `_logs`. Stage 0 decides from the slack alone when it is finite and
    past `_slack_bound`, which bounds its rounding error, so its sign is the
    true one; no form is built. Else `_exact_verdict` decides from the
    forms: ties, near ties and a NaN or infinite side (past the float range)
    land there. Every decided verdict is exact; a near tie past the bit
    limit is `inconclusive`, with provenance "float".
    """
    lhs_log, rhs_log, coefficients, products = _logs(lhs, rhs)
    slack = rhs_log - lhs_log
    if _slack_bound(coefficients, products, size) < abs(slack) < math.inf:
        verdict = HOLDS if slack > 0 else VIOLATED
    else:
        verdict = _exact_verdict(lhs, rhs)
    return CheckReport(verdict or INCONCLUSIVE, lhs_log, rhs_log, slack,
                       provenance="float" if verdict is None else "exact", details=details)


def check_cardinality(spec: InequalitySpec, A) -> CheckReport:
    """|f(A)| <= prod |f_i(A)|^a_i by exact counting, log-space comparison."""
    _expect_type(spec, InequalitySpec, "check_cardinality")
    if any(c < 0 for c in spec.coefficients):
        raise NegativeCoefficientError(
            "cardinality-side checks require nonnegative coefficients"
        )
    points = _as_point_collection(A)
    terms = [_term(image, 2) for image in _images(spec, points)]
    lhs_count, *rhs_counts = (exact_text(n) for _, n in terms)
    details = {"lhs_count": lhs_count, "rhs_counts": rhs_counts,
               "coefficients": [exact_text(c) for c in spec.coefficients]}
    return _compare(*_spec_sides(spec, terms), len(points), details)


def check_entropy(spec: InequalitySpec, X: RationalDist, base: float = 2) -> CheckReport:
    """H(f(X)) <= sum a_i H(f_i(X)); negative a_i evaluated as given."""
    _expect_type(spec, InequalitySpec, "check_entropy")
    _expect_type(X, RationalDist, "check_entropy")
    _log_function(base)  # a bad base fails before the domain check
    lhs, rhs = _spec_sides(spec, [_term(d, base) for d in _images(spec, X)])
    details = {"rhs_entropies": [h for _, (h, _) in rhs],
               "coefficients": [exact_text(c) for c in spec.coefficients]}
    return _compare(lhs, rhs, len(X), details)


def lemma2_witness(A, f: FiniteMap) -> RationalDist:
    """Uniform variable on one representative per fiber of f over f(A).

    Representatives are the canonical minima, so the construction is
    deterministic and H(f(X)) = log|f(A)| holds exactly.
    """
    _expect_type(f, FiniteMap, "lemma2_witness")
    points = _as_point_collection(A)
    if not f.table.keys() >= points:
        raise DomainError("point set is not contained in the map domain")
    # in descending order, the last point written to a fiber is its minimum
    reps = {f.table[x]: x for x in sorted(points, reverse=True)}
    return RationalDist.uniform(reps.values())


def empirical_lemma1(
    spec: InequalitySpec,
    X: RationalDist,
    k_max: int,
    limit: int = DEFAULT_ENUM_LIMIT,
    base: float = 2,
    cross_validate: bool = False,
) -> CheckReport:
    """Finite-k counting experiment over every suitable k <= k_max.

    For each suitable k the two sides of |f^k(set)| <= prod |f_i^k(set)|^a_i
    are computed from the closed-form counts of the pushforward type-class
    sets (the commutation identity makes enumeration unnecessary), and the
    per-coordinate rates are reported next to the entropy-side values they
    approach. `cross_validate` additionally builds the mapped set itself
    (the f^k-image of the k-set of X, without walking the k-set) and
    compares counts, raising SizeGuardError when the k-set exceeds `limit`;
    a row whose enumerated count differs from the closed form is violated
    and carries the enumerated count. Each row is one `_compare` of its
    counts, so it is decided exactly, and a near tie past the bit limit is
    inconclusive; the report is exact unless it is inconclusive.
    More than MAX_LEMMA1_ROWS rows (k_max // k_min) raise SizeGuardError
    before any row is built.
    """
    _expect_type(spec, InequalitySpec, "empirical_lemma1")
    _expect_type(X, RationalDist, "empirical_lemma1")
    # rows are counted in base 2 and rescaled to the report's base
    scale = _log_function(base)(2)
    if any(c < 0 for c in spec.coefficients):
        raise NegativeCoefficientError(
            "counting-side checks require nonnegative coefficients"
        )
    images = _images(spec, X)
    # the entropy side is reported in floats only: the rows decide the verdict
    lhs_log, rhs_log, *_ = _logs(*_spec_sides(spec, [_term(d, base) for d in images]))
    k_min = minimal_suitable_k(X)
    k_max, shown = _as_int(k_max, "k_max"), _cut(exact_text(k_min))
    if k_max // k_min > MAX_LEMMA1_ROWS:
        raise SizeGuardError(
            f"k_max // k_min exceeds the row limit {MAX_LEMMA1_ROWS} (k_min = {shown})"
        )
    ks = list(range(k_min, k_max + 1, k_min))
    if not ks:
        raise SuitabilityError(f"no suitable k <= {_echo(k_max)} (minimal is {shown})")
    # every image's d divides k_min, so each k is suitable for all of them
    sizes = [_sizes(d, ks) for d in images]
    f = spec.lhs_map.table.__getitem__
    rows = []
    for k in ks:
        lhs_count, *rhs_counts = counts = [s[k] for s in sizes]
        report = _compare(*_spec_sides(spec, [_count(n) for n in counts]), 1)
        enumerated = lhs_count
        if cross_validate:
            enumerated = len(_mapped_arrangements(f, RuzsaSpec(X, k), images[0].support, limit))
        row = {
            "k": k,
            "verdict": report.verdict,
            "lhs_rate": report.lhs / k * scale,
            "rhs_rate": report.rhs / k * scale,
            "lhs_count": exact_text(lhs_count),
            "rhs_counts": [exact_text(r) for r in rhs_counts],
        }
        if enumerated != lhs_count:
            row["verdict"] = VIOLATED
            row["enumerated_count"] = exact_text(enumerated)
        rows.append(row)
    verdicts = {row["verdict"] for row in rows}
    # any violated row decides; an inconclusive one leaves it open
    verdict = next((v for v in (VIOLATED, INCONCLUSIVE) if v in verdicts), HOLDS)
    return CheckReport(
        verdict=verdict,
        lhs=lhs_log,
        rhs=rhs_log,
        slack=rhs_log - lhs_log,
        provenance="float" if verdict == INCONCLUSIVE else "exact",
        details={"rows": rows, "k_values": ks},
    )


def _cover_data(data, side: str, n: int, what: str):
    """The data of the cover checker `what`'s side: a PointSet for "sets", a
    RationalDist for "entropy", of the cover's dimension n."""
    if side == "sets":
        data = data if isinstance(data, PointSet) else PointSet.from_points(data)
    elif side == "entropy":
        _expect_type(data, RationalDist, what)
    else:
        raise SchemaError(f"side must be 'sets' or 'entropy', got {_echo(side)}")
    if n != data.dimension:
        raise SchemaError(f"cover is over [{n}] but data has dimension {data.dimension}")
    return data


def check_shearer(
    data,
    cover: CoverSpec,
    k: int,
    side: str,
    base: float = 2,
) -> CheckReport:
    """Uniform k-cover inequality: |A|^k <= prod |A_S| or kH(X) <= sum H(X_S)."""
    _log_function(base)  # a bad base fails before the cover checks
    _expect_type(cover, CoverSpec, "check_shearer")
    counts = cover.multiplicities()
    if set(counts) != {_as_int(k, "k")}:
        raise CoverError(f"not a uniform {_cut(exact_text(k))}-cover: counts {_echo(counts)}")
    data = _cover_data(data, side, cover.n, "check_shearer")
    whole = _term(data, base)
    parts = _prefix_terms(data, [(_restrictor(m), 0) for m in cover.members], base)
    report = _compare([(k, whole)], [(1, t) for t in parts], len(data))
    if isinstance(data, RationalDist):
        return report.with_details({"projection_entropies": [h for h, _ in parts]})
    sizes = [size for _, size in parts]
    details = {"projection_sizes": [exact_text(s) for s in sizes]}
    if k * whole[1].bit_length() + sum(map(int.bit_length, sizes)) <= _EXACT_BIT_LIMIT:
        details = {"lhs_count": exact_text(whole[1] ** k),
                   "rhs_count": exact_text(math.prod(sizes)), **details}
    return report.with_details(details)


def check_projection_theorem(
    data,
    cover: CoverSpec,
    side: str,
    base: float = 2,
) -> CheckReport:
    """Fractional-cover bound with prefix conditioning.

    Set side: log|A| <= sum a_S log|A_S cond A_{S*}|; entropy side:
    H(X) <= sum a_S H(X_S | X_{S*}). Zero-weight members are skipped. The
    prefixes S* are a chain, so `_prefix_terms` slices A once for them all.
    """
    _log_function(base)  # a bad base fails before the cover checks
    _expect_type(cover, CoverSpec, "check_projection_theorem")
    if cover.weights is None:
        raise CoverError("projection theorem checks need cover weights")
    sums = cover.coverage()
    if min(sums) < 1:
        raise CoverError(f"not a fractional cover: coverage {_echo([*map(exact_text, sums)])}")
    members = [(m, w) for m, w in zip(cover.members, cover.weights) if w > 0]
    data = _cover_data(data, side, cover.n, "check_projection_theorem")
    # each member's S* is the prefix {1..min S - 1}, of depth min S - 1
    terms = list(zip([w for _, w in members], _prefix_terms(
        data, [(_restrictor(m), m.indices[0] - 1) for m, _ in members], base)))
    return _compare(
        [(1, _term(data, base))],
        terms,
        len(data),
        {
            "terms": [_as_float(w, "weight") * log for w, (log, _) in terms],
            "members": [list(m.indices) for m, _ in members],
        },
    )
