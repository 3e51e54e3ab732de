"""Inequality checkers: both sides of cardinality and entropy bounds.

The two sides of the correspondence are kept honest with one another:

* cardinality checks count images exactly and compare in log-space, with
  an exact big-integer fallback inside the float-noise band, so a false
  "violated" can never come from rounding;
* entropy checks evaluate pushforward entropies as floats;
* `lemma2_witness` builds the uniform variable on fiber representatives
  whose image entropy equals log|f(A)| exactly, the bridge from entropy
  statements back to counting statements;
* `empirical_lemma1` runs the finite-k experiment on type-class sets,
  where the commutation identity lets every count come from the closed
  form instead of enumeration.

Negative coefficients are accepted on the entropy side only (nothing is
claimed for them; they are evaluated as given) and rejected on the
cardinality side, where the bridge argument needs positivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .covers import CoverSpec, is_fractional_cover, is_uniform_k_cover
from .dist import (
    Element,
    FiniteMap,
    RationalDist,
    as_elements,
    as_fraction,
    check_base,
    entropy,
    minimal_suitable_k,
    pushforward,
)
from .errors import (
    CoverError,
    DomainError,
    NegativeCoefficientError,
    SchemaError,
    SuitabilityError,
)
from .projections import (
    PointSet,
    log_conditional_avg_size,
    conditional_entropy,
    project_rv,
    project_set,
    s_star,
)
from .report import (
    HOLDS,
    INCONCLUSIVE,
    VIOLATED,
    CheckReport,
    exact_text,
    verdict_from_slack,
)
from .ruzsa import DEFAULT_ENUM_LIMIT, RuzsaSpec, _mapped_arrangements, ruzsa_size

DEFAULT_TOLERANCE = 1e-9

# refuse exact power comparisons beyond this many bits
_EXACT_FALLBACK_BIT_LIMIT = 2_000_000


@dataclass(frozen=True)
class InequalitySpec:
    """Maps f, f_1..f_n and exponents for |f(A)| <= prod |f_i(A)|^a_i."""

    lhs_map: FiniteMap
    rhs_maps: tuple[FiniteMap, ...]
    coefficients: tuple[Fraction, ...]

    def __init__(self, lhs_map, rhs_maps: Sequence, coefficients: Sequence):
        maps = tuple(FiniteMap(m) for m in rhs_maps)
        lhs = FiniteMap(lhs_map)
        coeffs = tuple(as_fraction(c) for c in coefficients)
        if len(maps) != len(coeffs):
            raise SchemaError("rhs_maps and coefficients must have equal length")
        if not maps:
            raise SchemaError("need at least one rhs map")
        domain = lhs.domain
        if any(m.domain != domain for m in maps):
            raise DomainError("all maps must share one declared domain")
        object.__setattr__(self, "lhs_map", lhs)
        object.__setattr__(self, "rhs_maps", maps)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def domain(self) -> frozenset[Element]:
        return self.lhs_map.domain


def _as_point_collection(A) -> frozenset[Element]:
    if isinstance(A, PointSet):
        return A.points
    pts = frozenset(as_elements(A))
    if not pts:
        raise SchemaError("point collection must be nonempty")
    return pts


def _exact_power_verdict(
    lhs_count: int, rhs_counts: list[int], coeffs: Sequence[Fraction]
) -> str | None:
    """Compare lhs <= prod rhs_i^a_i by integer powers; None if too large."""
    d = math.lcm(*(c.denominator for c in coeffs))
    exps = [int(c * d) for c in coeffs]
    bits = d * lhs_count.bit_length() + sum(
        e * r.bit_length() for e, r in zip(exps, rhs_counts)
    )
    if bits > _EXACT_FALLBACK_BIT_LIMIT:
        return None
    lhs_pow = lhs_count**d
    rhs_pow = 1
    for r, e in zip(rhs_counts, exps):
        rhs_pow *= r**e
    return HOLDS if lhs_pow <= rhs_pow else VIOLATED


def _cardinality_report(
    lhs_count: int,
    rhs_counts: list[int],
    coeffs: Sequence[Fraction],
    tolerance: float,
    extra: dict | None = None,
) -> CheckReport:
    lhs_log = math.log2(lhs_count)
    rhs_log = sum(float(c) * math.log2(r) for c, r in zip(coeffs, rhs_counts))
    slack = rhs_log - lhs_log
    if abs(slack) >= tolerance:
        verdict = verdict_from_slack(slack, tolerance)
        provenance = "float"
    else:
        exact = _exact_power_verdict(lhs_count, rhs_counts, coeffs)
        verdict = INCONCLUSIVE if exact is None else exact
        provenance = "exact" if exact is not None else "float"
    details = {
        "lhs_count": exact_text(lhs_count),
        "rhs_counts": [exact_text(r) for r in rhs_counts],
        "coefficients": [str(c) for c in coeffs],
    }
    if extra:
        details.update(extra)
    return CheckReport(
        verdict=verdict,
        lhs=lhs_log,
        rhs=rhs_log,
        slack=slack,
        provenance=provenance,
        details=details,
    )


def check_cardinality(
    spec: InequalitySpec, A, tolerance: float = DEFAULT_TOLERANCE
) -> CheckReport:
    """|f(A)| <= prod |f_i(A)|^a_i by exact counting, log-space comparison."""
    if any(c < 0 for c in spec.coefficients):
        raise NegativeCoefficientError(
            "cardinality-side checks require nonnegative coefficients"
        )
    points = _as_point_collection(A)
    if not points <= spec.domain:
        raise DomainError("point set is not contained in the maps' domain")
    lhs_count = len(spec.lhs_map.image(points))
    rhs_counts = [len(m.image(points)) for m in spec.rhs_maps]
    return _cardinality_report(lhs_count, rhs_counts, spec.coefficients, tolerance)


def check_entropy(
    spec: InequalitySpec,
    X: RationalDist,
    tolerance: float = DEFAULT_TOLERANCE,
    base: float = 2,
) -> CheckReport:
    """H(f(X)) <= sum a_i H(f_i(X)); negative a_i evaluated as given."""
    check_base(base)
    if not frozenset(X.support) <= spec.domain:
        raise DomainError("distribution support is not contained in the maps' domain")
    lhs = entropy(pushforward(spec.lhs_map, X), base=base)
    parts = [entropy(pushforward(m, X), base=base) for m in spec.rhs_maps]
    rhs = sum(float(c) * h for c, h in zip(spec.coefficients, parts))
    slack = rhs - lhs
    return CheckReport(
        verdict=verdict_from_slack(slack, tolerance),
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        details={
            "rhs_entropies": parts,
            "coefficients": [str(c) for c in spec.coefficients],
        },
    )


def lemma2_witness(A, f: FiniteMap) -> RationalDist:
    """Uniform variable on one representative per fiber of f over f(A).

    Representatives are the canonical minima, so the construction is
    deterministic and H(f(X)) = log|f(A)| holds exactly.
    """
    points = _as_point_collection(A)
    if not points <= f.domain:
        raise DomainError("point set is not contained in the map domain")
    reps: dict[Element, Element] = {}
    for x in sorted(points):
        y = f(x)
        if y not in reps:
            reps[y] = x
    return RationalDist.uniform(reps.values())


def empirical_lemma1(
    spec: InequalitySpec,
    X: RationalDist,
    k_max: int,
    limit: int = DEFAULT_ENUM_LIMIT,
    tolerance: float = DEFAULT_TOLERANCE,
    base: float = 2,
    cross_validate: bool = False,
) -> CheckReport:
    """Finite-k counting experiment over every suitable k <= k_max.

    For each suitable k the two sides of |f^k(set)| <= prod |f_i^k(set)|^a_i
    are computed from the closed-form counts of the pushforward type-class
    sets (the commutation identity makes enumeration unnecessary), and the
    per-coordinate rates are reported next to the entropy-side values they
    approach. `cross_validate` additionally enumerates the mapped set and
    compares counts, raising SizeGuardError when that would exceed `limit`;
    a row whose enumerated count differs from the closed form is violated
    and carries the enumerated count.
    """
    check_base(base)
    if any(c < 0 for c in spec.coefficients):
        raise NegativeCoefficientError(
            "counting-side checks require nonnegative coefficients"
        )
    if not frozenset(X.support) <= spec.domain:
        raise DomainError("distribution support is not contained in the maps' domain")
    k_min = minimal_suitable_k(X)
    ks = list(range(k_min, k_max + 1, k_min))
    if not ks:
        raise SuitabilityError(f"no suitable k <= {k_max} (minimal is {k_min})")
    image = pushforward(spec.lhs_map, X)
    image_rhs = [pushforward(m, X) for m in spec.rhs_maps]
    h_lhs = entropy(image, base=base)
    h_rhs = sum(
        float(c) * entropy(d, base=base)
        for c, d in zip(spec.coefficients, image_rhs)
    )
    log = math.log2 if base == 2 else math.log
    rows = []
    all_hold = True
    for k in ks:
        lhs_count = ruzsa_size(RuzsaSpec(image, k))
        rhs_counts = [ruzsa_size(RuzsaSpec(d, k)) for d in image_rhs]
        enumerated = lhs_count
        if cross_validate:
            src = RuzsaSpec(X, k)
            mapped = _mapped_arrangements(spec.lhs_map, src, image.support, limit)
            enumerated = len(mapped)
        report = _cardinality_report(
            lhs_count, rhs_counts, spec.coefficients, tolerance
        )
        row = {
            "k": k,
            "verdict": report.verdict,
            "lhs_rate": report.lhs / k,
            "rhs_rate": report.rhs / k,
            "lhs_count": exact_text(lhs_count),
            "rhs_counts": [exact_text(r) for r in rhs_counts],
        }
        if enumerated != lhs_count:
            row["verdict"] = VIOLATED
            row["enumerated_count"] = exact_text(enumerated)
        all_hold = all_hold and row["verdict"] == HOLDS
        rows.append(row)
    # rates are in base 2; rescale rows if natural log requested
    if base != 2:
        for row in rows:
            row["lhs_rate"] *= math.log(2)
            row["rhs_rate"] *= math.log(2)
    slack = h_rhs - h_lhs
    return CheckReport(
        verdict=HOLDS if all_hold else VIOLATED,
        lhs=h_lhs,
        rhs=h_rhs,
        slack=slack,
        provenance="exact",
        details={"rows": rows, "k_values": ks},
    )


def check_shearer(
    data,
    cover: CoverSpec,
    k: int,
    side: str,
    tolerance: float = DEFAULT_TOLERANCE,
    base: float = 2,
) -> CheckReport:
    """Uniform k-cover inequality: |A|^k <= prod |A_S| or kH(X) <= sum H(X_S)."""
    check_base(base)
    uniform = is_uniform_k_cover(cover, k)
    if uniform.verdict != "uniform":
        raise CoverError(f"not a uniform {k}-cover: counts {uniform.details['counts']}")
    if side == "sets":
        A = data if isinstance(data, PointSet) else PointSet.from_points(data)
        _require_dimension(cover.n, A.dimension)
        lhs_count = len(A) ** k
        rhs_count = 1
        sizes = []
        for member in cover.members:
            size = len(project_set(A, member))
            sizes.append(size)
            rhs_count *= size
        lhs_log = k * math.log2(len(A))
        rhs_log = sum(math.log2(s) for s in sizes)
        return CheckReport(
            verdict=HOLDS if lhs_count <= rhs_count else VIOLATED,
            lhs=lhs_log,
            rhs=rhs_log,
            slack=rhs_log - lhs_log,
            provenance="exact",
            details={
                "lhs_count": exact_text(lhs_count),
                "rhs_count": exact_text(rhs_count),
                "projection_sizes": [exact_text(s) for s in sizes],
            },
        )
    if side == "entropy":
        X = data
        _require_dimension(cover.n, X.dimension)
        lhs = k * entropy(X, base=base)
        parts = [entropy(project_rv(X, member), base=base) for member in cover.members]
        rhs = sum(parts)
        slack = rhs - lhs
        return CheckReport(
            verdict=verdict_from_slack(slack, tolerance),
            lhs=lhs,
            rhs=rhs,
            slack=slack,
            details={"projection_entropies": parts},
        )
    raise SchemaError(f"side must be 'sets' or 'entropy', got {side!r}")


def check_projection_theorem(
    data,
    cover: CoverSpec,
    side: str,
    tolerance: float = DEFAULT_TOLERANCE,
    base: float = 2,
) -> CheckReport:
    """Fractional-cover bound with prefix conditioning.

    Set side: log|A| <= sum a_S log|A_S cond A_{S*}|; entropy side:
    H(X) <= sum a_S H(X_S | X_{S*}). Zero-weight members are skipped.
    """
    check_base(base)
    if cover.weights is None:
        raise CoverError("projection theorem checks need cover weights")
    frac = is_fractional_cover(cover)
    if not frac.holds:
        raise CoverError(f"not a fractional cover: coverage {frac.details['coverage']}")
    members = [
        (m, w) for m, w in zip(cover.members, cover.weights) if w > 0
    ]
    if side == "sets":
        A = data if isinstance(data, PointSet) else PointSet.from_points(data)
        _require_dimension(cover.n, A.dimension)
        lhs = math.log2(len(A)) if base == 2 else math.log(len(A))
        terms = [
            float(w) * log_conditional_avg_size(A, m, s_star(m), base=base)
            for m, w in members
        ]
        rhs = sum(terms)
        slack = rhs - lhs
        return CheckReport(
            verdict=verdict_from_slack(slack, tolerance),
            lhs=lhs,
            rhs=rhs,
            slack=slack,
            details={"terms": terms, "members": [list(m.indices) for m, _ in members]},
        )
    if side == "entropy":
        X = data
        _require_dimension(cover.n, X.dimension)
        lhs = entropy(X, base=base)
        terms = [
            float(w) * conditional_entropy(X, m, s_star(m), base=base)
            for m, w in members
        ]
        rhs = sum(terms)
        slack = rhs - lhs
        return CheckReport(
            verdict=verdict_from_slack(slack, tolerance),
            lhs=lhs,
            rhs=rhs,
            slack=slack,
            details={"terms": terms, "members": [list(m.indices) for m, _ in members]},
        )
    raise SchemaError(f"side must be 'sets' or 'entropy', got {side!r}")


def _require_dimension(n: int, dimension: int) -> None:
    if n != dimension:
        raise SchemaError(f"cover is over [{n}] but data has dimension {dimension}")
