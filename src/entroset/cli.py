"""Command-line front end.

One invocation, one JSON document on stdout. Verdict-style subcommands
exit 0 when the inequality holds, 1 when violated, 3 when inconclusive;
malformed input and infeasibility exit 2 with a diagnostic on stderr.
Reports are deterministic for a fixed seed and inputs.

The parser is built once per process (first `run`) and safe to reuse:
its defaults are immutable, each call parses into a fresh namespace, and
usage errors and `--help` go to the call's `sys.stderr` / `sys.stdout`.
Each leaf subcommand's `run` default is its handler, which takes the parsed
args alone. Settings are checked where the library reads them; `run`
checks `--tolerance` and `--limit` up front, so a bad value exits 2 even
for a subcommand that never reads it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys

from . import jsonio
from .checkers import (
    DEFAULT_TOLERANCE,
    InequalitySpec,
    _check_tolerance,
    check_cardinality,
    check_entropy,
    check_projection_theorem,
    check_shearer,
    empirical_lemma1,
    lemma2_witness,
)
from .covers import CoverSpec, is_fractional_cover, is_uniform_k_cover, min_fractional_cover
from .dist import (
    FiniteMap,
    RationalDist,
    entropy,
    is_suitable,
    minimal_suitable_k,
    pushforward,
    rationalize,
)
from .errors import EntrosetError
from .projections import (
    IndexSet,
    PointSet,
    conditional_avg_size,
    conditional_entropy,
    project_rv,
    project_set,
)
from .ruzsa import (
    DEFAULT_ENUM_LIMIT,
    RuzsaSpec,
    convergence_profile,
    preimage_lift,
    ruzsa_enumerate,
    ruzsa_size,
    type_bound_check,
    verify_commutation,
)


def _parse_base(text: str) -> float:
    if text == "2":
        return 2
    if text == "e":
        return math.e
    raise argparse.ArgumentTypeError("base must be 2 or e")


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _command(sub, name: str, run, **kwargs) -> argparse.ArgumentParser:
    p = sub.add_parser(name, **kwargs)
    p.set_defaults(run=run)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entroset",
        description="entropy and set-projection inequality toolbox",
    )
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument("--base", type=_parse_base, default=2)
    parser.add_argument("--limit", type=int, default=DEFAULT_ENUM_LIMIT)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "table"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "entropy", _entropy, help="Shannon entropy of a distribution")
    p.add_argument("--dist", required=True)

    p = _command(sub, "pushforward", _pushforward, help="distribution of f(X)")
    p.add_argument("--map", required=True)
    p.add_argument("--dist", required=True)

    p = _command(sub, "suitable", _suitable,
                 help="minimal suitable k, optional divisibility test")
    p.add_argument("--dist", required=True)
    p.add_argument("--k", type=int)

    p = _command(sub, "rationalize", _rationalize,
                 help="best bounded-denominator approximation")
    p.add_argument("--weights", type=_float_list, required=True)
    p.add_argument("--max-denominator", type=int, required=True)

    ruzsa = sub.add_parser("ruzsa", help="type-class set operations").add_subparsers(
        dest="ruzsa_command", required=True
    )
    for name, run in (("size", _ruzsa_size), ("enum", _ruzsa_enum),
                      ("commute", _ruzsa_commute), ("lift", _ruzsa_lift),
                      ("bound", _ruzsa_bound)):
        p = _command(ruzsa, name, run)
        p.add_argument("--dist", required=True)
        p.add_argument("--k", type=int, required=True)
        if name in ("commute", "lift"):
            p.add_argument("--map", required=True)
        if name == "lift":
            p.add_argument("--y", required=True, help="JSON array of elements")
    p = _command(ruzsa, "converge", _ruzsa_converge)
    p.add_argument("--dist", required=True)
    p.add_argument("--ks", type=_int_list, required=True)

    p = _command(sub, "project", _project, help="project a point set or distribution")
    p.add_argument("--pointset")
    p.add_argument("--dist")
    p.add_argument("--indices", type=_int_list, required=True)

    p = _command(sub, "condsize", _condsize, help="conditional average projection size")
    p.add_argument("--pointset", required=True)
    p.add_argument("--t", type=_int_list, required=True)
    p.add_argument("--s", type=_int_list, default=())

    p = _command(sub, "condentropy", _condentropy, help="conditional entropy of a marginal")
    p.add_argument("--dist", required=True)
    p.add_argument("--s", type=_int_list, required=True)
    p.add_argument("--c", type=_int_list, default=())

    cover = sub.add_parser("cover", help="cover feasibility and optimization").add_subparsers(
        dest="cover_command", required=True
    )
    p = _command(cover, "check", _cover_check)
    p.add_argument("--cover", required=True)
    p.add_argument("--k", type=int)
    p = _command(cover, "min", _cover_min)
    p.add_argument("--cover", required=True)

    check = sub.add_parser("check", help="inequality checks").add_subparsers(
        dest="check_command", required=True
    )
    for name, run in (("entropy", _check_entropy), ("cardinality", _check_cardinality)):
        p = _command(check, name, run)
        p.add_argument("--spec", required=True)
        p.add_argument("--input", required=True)
    for name, run in (("shearer", _check_shearer), ("projection", _check_projection)):
        p = _command(check, name, run)
        p.add_argument("--cover", required=True)
        p.add_argument("--input", required=True)
        p.add_argument("--side", choices=("sets", "entropy"), required=True)
        if name == "shearer":
            p.add_argument("--k", type=int, required=True)
    p = _command(check, "lemma1", _check_lemma1)
    p.add_argument("--spec", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--cross-validate", action="store_true")

    witness = sub.add_parser("witness", help="witness constructions").add_subparsers(
        dest="witness_command", required=True
    )
    p = _command(witness, "lemma2", _witness_lemma2)
    p.add_argument("--map", required=True)
    p.add_argument("--points", required=True)

    _command(sub, "demo", lambda args: run_demo(args),
             help="scripted projection-inequality walkthrough")
    return parser


def _load_dist(path: str) -> RationalDist:
    return jsonio.dist_from_json(jsonio.load_json(path))


def _load_map(path: str) -> FiniteMap:
    return jsonio.map_from_json(jsonio.load_json(path))


def _load_pointset(path: str) -> PointSet:
    return jsonio.pointset_from_json(jsonio.load_json(path))


def _load_cover(path: str) -> CoverSpec:
    return jsonio.cover_from_json(jsonio.load_json(path))


def _load_spec(path: str) -> InequalitySpec:
    return jsonio.ineq_spec_from_json(jsonio.load_json(path))


def _verdict(report):
    return report.to_json(), report.exit_code()


def _entropy(args):
    return {"entropy": entropy(_load_dist(args.dist), base=args.base)}, 0


def _pushforward(args):
    return jsonio.dist_to_json(pushforward(_load_map(args.map), _load_dist(args.dist))), 0


def _suitable(args):
    dist = _load_dist(args.dist)
    doc = {"minimal_suitable_k": minimal_suitable_k(dist)}
    if args.k is not None:
        doc.update(k=args.k, is_suitable=is_suitable(dist, args.k))
    return doc, 0


def _rationalize(args):
    return jsonio.dist_to_json(rationalize(args.weights, args.max_denominator)), 0


def _project(args):
    S = IndexSet(args.indices)
    if (args.pointset is None) == (args.dist is None):
        raise EntrosetError("project needs exactly one of --pointset / --dist")
    if args.pointset is not None:
        return jsonio.pointset_to_json(project_set(_load_pointset(args.pointset), S)), 0
    return jsonio.dist_to_json(project_rv(_load_dist(args.dist), S)), 0


def _condsize(args):
    A = _load_pointset(args.pointset)
    return {"size": conditional_avg_size(A, IndexSet(args.t), IndexSet(args.s))}, 0


def _condentropy(args):
    X = _load_dist(args.dist)
    value = conditional_entropy(X, IndexSet(args.s), IndexSet(args.c), base=args.base)
    return {"entropy": value}, 0


def _witness_lemma2(args):
    witness = lemma2_witness(_load_pointset(args.points), _load_map(args.map))
    return jsonio.dist_to_json(witness), 0


def _ruzsa_spec(args) -> RuzsaSpec:
    return RuzsaSpec(_load_dist(args.dist), args.k)


def _ruzsa_size(args):
    return {"size": jsonio.format_rational(ruzsa_size(_ruzsa_spec(args)))}, 0


def _ruzsa_enum(args):
    members = ruzsa_enumerate(_ruzsa_spec(args), args.limit)
    vectors = [[list(x) for x in vec] for vec in members]
    return {"count": len(vectors), "vectors": vectors}, 0


def _ruzsa_commute(args):
    spec = _ruzsa_spec(args)
    return _verdict(verify_commutation(_load_map(args.map), spec, args.limit))


def _ruzsa_lift(args):
    spec = _ruzsa_spec(args)
    try:
        y = [tuple(v) for v in json.loads(args.y)]
    except (ValueError, TypeError) as exc:
        raise EntrosetError(f"--y must be a JSON array of elements: {exc}") from exc
    lifted = preimage_lift(_load_map(args.map), spec, y)
    return {"vector": [list(x) for x in lifted]}, 0


def _ruzsa_bound(args):
    return _verdict(type_bound_check(_ruzsa_spec(args)))


def _ruzsa_converge(args):
    dist = _load_dist(args.dist)
    return {"rows": convergence_profile(dist, args.ks, base=args.base)}, 0


def _cover_check(args):
    cover = _load_cover(args.cover)
    k = args.k
    return _verdict(is_fractional_cover(cover) if k is None else is_uniform_k_cover(cover, k))


def _cover_min(args):
    cover = _load_cover(args.cover)
    solution = min_fractional_cover(cover.n, cover.members)
    return {
        "objective": jsonio.format_rational(solution.objective),
        "weights": [jsonio.format_rational(w) for w in solution.weights],
        "coverage": [jsonio.format_rational(s) for s in solution.certificate],
    }, 0


def _check_entropy(args):
    spec, X = _load_spec(args.spec), _load_dist(args.input)
    return _verdict(check_entropy(spec, X, tolerance=args.tolerance, base=args.base))


def _check_cardinality(args):
    spec, A = _load_spec(args.spec), _load_pointset(args.input)
    return _verdict(check_cardinality(spec, A, tolerance=args.tolerance))


def _cover_and_data(args):
    cover = _load_cover(args.cover)
    return cover, (_load_pointset if args.side == "sets" else _load_dist)(args.input)


def _check_shearer(args):
    cover, data = _cover_and_data(args)
    return _verdict(check_shearer(
        data, cover, args.k, args.side, tolerance=args.tolerance, base=args.base
    ))


def _check_projection(args):
    cover, data = _cover_and_data(args)
    return _verdict(check_projection_theorem(
        data, cover, args.side, tolerance=args.tolerance, base=args.base
    ))


def _check_lemma1(args):
    spec, X = _load_spec(args.spec), _load_dist(args.input)
    return _verdict(empirical_lemma1(
        spec, X, k_max=args.kmax, limit=args.limit, tolerance=args.tolerance,
        base=args.base, cross_validate=args.cross_validate,
    ))


def run_demo(args: argparse.Namespace) -> tuple[dict, int]:
    """Projection-inequality walkthrough on a random subset of {0,1,2}^3.

    Checks the three-coordinate projection (Loomis-Whitney style) bound by
    counting, the matching entropy bound for the uniform variable, then the
    finite-k counting experiment whose rates approach the entropy values,
    and tabulates the convergence of log|set|/k. Reads `seed`, `tolerance`,
    `base` and `limit` from the parsed args.
    """
    rng = random.Random(args.seed)
    grid = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    points = sorted(rng.sample(grid, rng.randint(3, 6)))
    A = PointSet(3, points)
    pair_projections = [IndexSet((1, 2)), IndexSet((1, 3)), IndexSet((2, 3))]
    spec = InequalitySpec(
        lhs_map=FiniteMap.identity(grid),
        rhs_maps=[
            FiniteMap({x: tuple(x[i - 1] for i in S) for x in grid})
            for S in pair_projections
        ],
        coefficients=["1/2", "1/2", "1/2"],
    )
    counting = check_cardinality(spec, A, tolerance=args.tolerance)
    X = RationalDist.uniform(A)
    entropy_side = check_entropy(spec, X, tolerance=args.tolerance, base=args.base)
    finite_k = empirical_lemma1(
        spec, X, k_max=12, limit=args.limit, tolerance=args.tolerance, base=args.base
    )
    ks = finite_k.details["k_values"]
    rows = convergence_profile(X, ks, base=args.base)
    # 0 <= gap <= envelope is the exact sandwich of `type_bound_check`
    envelope_ok = all(type_bound_check(RuzsaSpec(X, k)).holds for k in ks)
    all_hold = (
        counting.holds and entropy_side.holds and finite_k.holds and envelope_ok
    )
    doc = {
        "seed": args.seed,
        "points": [list(p) for p in points],
        "loomis_whitney": counting.to_json(),
        "han": entropy_side.to_json(),
        "finite_k": finite_k.to_json(),
        "convergence": rows,
        "envelope_ok": envelope_ok,
        "all_hold": all_hold,
    }
    return doc, 0 if all_hold else 1


def _format_table(doc: dict) -> str:
    lines = []
    for key, value in doc.items():
        if isinstance(value, (dict, list)):
            value = json.dumps(value)
        elif type(value) is int:  # not a bool; exact past the str digit limit
            value = jsonio.format_rational(value)
        lines.append(f"{key}: {value}")
    return "\n".join(lines)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def run(argv=None) -> int:
    """Parse argv, execute, print one document; returns the exit code."""
    args = _parser().parse_args(argv)
    try:
        _check_tolerance(args.tolerance)
        if args.limit < 1:
            raise EntrosetError("enum limit must be >= 1")
        doc, code = args.run(args)
    except EntrosetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "table":
        print(_format_table(doc))
    else:
        print(jsonio.dump_json(doc))
    return code


def main() -> None:  # pragma: no cover
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
