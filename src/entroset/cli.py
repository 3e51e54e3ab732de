"""Command-line front end.

One invocation, one JSON document on stdout. Verdict-style subcommands
exit 0 when the inequality holds, 1 when violated, 3 when inconclusive;
malformed input and infeasibility exit 2 with a diagnostic on stderr.
Reports are deterministic for a fixed seed and inputs.

Every command and option is written once, in the command table `_ROOT`.
A plain argv (global options, the command words, then the leaf's options,
each an exact `--flag value` pair or a switch) is parsed straight from the
table. Any other argv goes to the argparse parser that `build_parser` makes
from the same table, so usage errors, `--help` and argparse's other forms
(abbreviations, `--flag=value`, negative numbers) read as they always have.
That parser is built on first need, once per process, and safe to reuse:
its defaults are immutable, each call parses into a fresh namespace, and
usage errors and `--help` go to the call's `sys.stderr` / `sys.stdout`.
Each leaf subcommand's `run` default is its handler, which takes the parsed
args alone. Settings are checked where the library reads them; `run`
checks `--tolerance` and `--limit` up front, so a bad value exits 2 even
for a subcommand that never reads it.

Every call reads each of its input files in full. The decoded values of the
last three files read are kept across calls, keyed by (decoder, path,
bytes), since consecutive commands often read the same set or distribution:
a file whose bytes changed is always decoded again, even at the same size
and mtime, and a decode that fails is not kept. The kept values are the
immutable records the handlers share, with each file's bytes as part of the
key: the process holds them between calls, about 0.36 MB for a 77 KB spec
file. The store is a `functools.lru_cache`, which is thread-safe; two
threads that miss on the same file at once both decode it.
"""

from __future__ import annotations

import argparse
import functools
import gc
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
from .report import exact_text
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


# input files whose decoded values are kept across `run` calls: a file is
# read by a few consecutive commands at most, and the benchmark workloads
# get no further hit from a larger number
_KEPT_FILES = 3


@functools.lru_cache(maxsize=_KEPT_FILES)
def _decoded(decode, path: str, raw: bytes):
    return decode(jsonio.load_json(path, raw))


def _load(decode, path: str):
    """`decode` of the JSON document in `path`: the file is read on every call,
    then parsed and decoded unless its (decoder, path, bytes) value is kept."""
    return _decoded(decode, path, jsonio._read(path))


def _load_dist(path: str) -> RationalDist:
    return _load(jsonio.dist_from_json, path)


def _load_map(path: str) -> FiniteMap:
    return _load(jsonio.map_from_json, path)


def _load_pointset(path: str) -> PointSet:
    return _load(jsonio.pointset_from_json, path)


def _load_cover(path: str) -> CoverSpec:
    return _load(jsonio.cover_from_json, path)


def _load_spec(path: str) -> InequalitySpec:
    return _load(jsonio.ineq_spec_from_json, path)


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
    return {"size": exact_text(ruzsa_size(_ruzsa_spec(args)))}, 0


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
        y = json.loads(args.y)
    except (ValueError, RecursionError) as exc:
        raise EntrosetError(f"--y must be a JSON array of elements: {exc}") from exc
    y = [tuple(jsonio._array(v, "--y element")) for v in jsonio._array(y, "--y")]
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
        "objective": exact_text(solution.objective),
        "weights": [exact_text(w) for w in solution.weights],
        "coverage": [exact_text(s) for s in solution.certificate],
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


_DEMO_GRID = tuple((a, b, c) for a in range(3) for b in range(3) for c in range(3))


@functools.cache
def _demo_spec() -> InequalitySpec:
    """The demo's spec, built once per process: the identity of {0,1,2}^3
    against its three pair projections, each with exponent 1/2. A spec is
    immutable, so every `run_demo` call shares it."""
    pair_projections = [IndexSet((1, 2)), IndexSet((1, 3)), IndexSet((2, 3))]
    return InequalitySpec(
        lhs_map=FiniteMap.identity(_DEMO_GRID),
        rhs_maps=[
            FiniteMap({x: tuple(x[i - 1] for i in S) for x in _DEMO_GRID})
            for S in pair_projections
        ],
        coefficients=["1/2", "1/2", "1/2"],
    )


def run_demo(args: argparse.Namespace) -> tuple[dict, int]:
    """Projection-inequality walkthrough on a random subset of {0,1,2}^3.

    Checks the three-coordinate projection (Loomis-Whitney style) bound by
    counting, the matching entropy bound for the uniform variable, then the
    finite-k counting experiment whose rates approach the entropy values,
    and tabulates the convergence of log|set|/k. Reads `seed`, `tolerance`,
    `base` and `limit` from the parsed args.
    """
    rng = random.Random(args.seed)
    points = sorted(rng.sample(_DEMO_GRID, rng.randint(3, 6)))
    A = PointSet(3, points)
    spec = _demo_spec()
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
        if type(value) is int or isinstance(value, (dict, list)):  # not a bool
            value = jsonio._encode(value, None)
        lines.append(f"{key}: {value}")
    return "\n".join(lines)


class _Level:
    """One parser level of the command table.

    `options` maps each flag to its `add_argument` keywords, in usage order.
    A leaf has its handler `run`; a group has the `dest` that records its
    subcommand word and its subcommands by word. `help` is the level's
    `add_parser` help, if it has one.
    """

    __slots__ = ("options", "run", "dest", "commands", "help",
                 "fields", "required", "defaults")

    def __init__(self, options=None, *, run=None, dest=None, commands=None, help=None):
        self.options = options or {}
        self.run, self.dest, self.commands, self.help = run, dest, commands, help
        # what `_plain_args` reads: flag -> (dest, type or None for a switch, choices)
        self.fields = {}
        self.defaults = {} if run is None else {"run": run}
        for flag, keywords in self.options.items():
            name = flag[2:].replace("-", "_")
            switch = keywords.get("action") == "store_true"
            self.fields[flag] = (name, None if switch else keywords.get("type", str),
                                 keywords.get("choices"))
            self.defaults[name] = keywords.get("default", False if switch else None)
        self.required = frozenset(f for f, kw in self.options.items() if kw.get("required"))


_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}
_REQUIRED_INTS = {"type": _int_list, "required": True}
_DIST = {"--dist": _REQUIRED}
_DIST_K = {"--dist": _REQUIRED, "--k": _REQUIRED_INT}
_SPEC = {"--spec": _REQUIRED, "--input": _REQUIRED}
_COVER_SIDE = {"--cover": _REQUIRED, "--input": _REQUIRED,
               "--side": {"choices": ("sets", "entropy"), "required": True}}

# every command and option, once; `build_parser` and `_plain_args` both read it
_ROOT = _Level({
    "--tolerance": {"type": float, "default": DEFAULT_TOLERANCE},
    "--base": {"type": _parse_base, "default": 2},
    "--limit": {"type": int, "default": DEFAULT_ENUM_LIMIT},
    "--seed": {"type": int, "default": 0},
    "--format": {"choices": ("json", "table"), "default": "json"},
}, dest="command", commands={
    "entropy": _Level(_DIST, run=_entropy, help="Shannon entropy of a distribution"),
    "pushforward": _Level({"--map": _REQUIRED, **_DIST}, run=_pushforward,
                          help="distribution of f(X)"),
    "suitable": _Level({**_DIST, "--k": {"type": int}}, run=_suitable,
                       help="minimal suitable k, optional divisibility test"),
    "rationalize": _Level({"--weights": {"type": _float_list, "required": True},
                           "--max-denominator": _REQUIRED_INT},
                          run=_rationalize, help="best bounded-denominator approximation"),
    "ruzsa": _Level(dest="ruzsa_command", help="type-class set operations", commands={
        "size": _Level(_DIST_K, run=_ruzsa_size),
        "enum": _Level(_DIST_K, run=_ruzsa_enum),
        "commute": _Level({**_DIST_K, "--map": _REQUIRED}, run=_ruzsa_commute),
        "lift": _Level({**_DIST_K, "--map": _REQUIRED,
                        "--y": {"required": True, "help": "JSON array of elements"}},
                       run=_ruzsa_lift),
        "bound": _Level(_DIST_K, run=_ruzsa_bound),
        "converge": _Level({**_DIST, "--ks": _REQUIRED_INTS}, run=_ruzsa_converge),
    }),
    "project": _Level({"--pointset": {}, "--dist": {}, "--indices": _REQUIRED_INTS},
                      run=_project, help="project a point set or distribution"),
    "condsize": _Level({"--pointset": _REQUIRED, "--t": _REQUIRED_INTS,
                        "--s": {"type": _int_list, "default": ()}},
                       run=_condsize, help="conditional average projection size"),
    "condentropy": _Level({**_DIST, "--s": _REQUIRED_INTS,
                           "--c": {"type": _int_list, "default": ()}},
                          run=_condentropy, help="conditional entropy of a marginal"),
    "cover": _Level(dest="cover_command", help="cover feasibility and optimization", commands={
        "check": _Level({"--cover": _REQUIRED, "--k": {"type": int}}, run=_cover_check),
        "min": _Level({"--cover": _REQUIRED}, run=_cover_min),
    }),
    "check": _Level(dest="check_command", help="inequality checks", commands={
        "entropy": _Level(_SPEC, run=_check_entropy),
        "cardinality": _Level(_SPEC, run=_check_cardinality),
        "shearer": _Level({**_COVER_SIDE, "--k": _REQUIRED_INT}, run=_check_shearer),
        "projection": _Level(_COVER_SIDE, run=_check_projection),
        "lemma1": _Level({**_SPEC, "--kmax": _REQUIRED_INT,
                          "--cross-validate": {"action": "store_true"}},
                         run=_check_lemma1),
    }),
    "witness": _Level(dest="witness_command", help="witness constructions", commands={
        "lemma2": _Level({"--map": _REQUIRED, "--points": _REQUIRED}, run=_witness_lemma2),
    }),
    # calls `run_demo` by name, so a wrapper installed on the module is the one run
    "demo": _Level(run=lambda args: run_demo(args),
                   help="scripted projection-inequality walkthrough"),
})


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the command table."""
    parser = argparse.ArgumentParser(
        prog="entroset",
        description="entropy and set-projection inequality toolbox",
    )
    _add_level(parser, _ROOT)
    return parser


def _add_level(parser: argparse.ArgumentParser, level: _Level) -> None:
    for flag, keywords in level.options.items():
        parser.add_argument(flag, **keywords)
    if level.run is not None:
        parser.set_defaults(run=level.run)
        return
    sub = parser.add_subparsers(dest=level.dest, required=True)
    for word, child in level.commands.items():
        # a help keyword, even None, would list the word in the parent's help
        keywords = {} if child.help is None else {"help": child.help}
        _add_level(sub.add_parser(word, **keywords), child)


def _plain_args(argv: list) -> argparse.Namespace | None:
    """The args of a plain argv, read from the command table; None otherwise.

    Plain: the global options, the command words, then the leaf's options.
    Each option appears at most once, as an exact `--flag value` pair or a
    bare switch; no value starts with "-", and each passes its option's type
    and choices. The namespace is the one argparse would build. For None,
    argparse parses the argv and makes every usage error and help text.
    """
    values, level, i, n = {}, _ROOT, 0, len(argv)
    while True:
        values.update(level.defaults)
        given = set()
        while i < n and type(argv[i]) is str and argv[i].startswith("-"):
            flag = argv[i]
            if flag not in level.fields or flag in given:
                return None
            given.add(flag)
            dest, convert, choices = level.fields[flag]
            if convert is None:
                values[dest] = True
                i += 1
                continue
            if i + 1 == n or type(argv[i + 1]) is not str or argv[i + 1].startswith("-"):
                return None
            try:
                value = convert(argv[i + 1])
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if choices is not None and value not in choices:
                return None
            values[dest] = value
            i += 2
        if not level.required <= given:
            return None
        if level.run is not None:
            return argparse.Namespace(**values) if i == n else None
        word = argv[i] if i < n else None
        if type(word) is not str or word not in level.commands:
            return None
        values[level.dest] = word
        level = level.commands[word]
        i += 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _parse(argv) -> argparse.Namespace:
    """`run`'s parse step: a plain argv from the table, any other by argparse."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    return _parser().parse_args(argv) if args is None else args


def run(argv=None) -> int:
    """Parse argv, execute, print one document; returns the exit code.

    The command runs with the cyclic garbage collector paused: every value
    it decodes or builds is acyclic, so reference counting frees its garbage
    and a collector pass could only re-walk live data. The collector's state
    is restored before printing.
    """
    args = _parse(argv)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _check_tolerance(args.tolerance)
        if args.limit < 1:
            raise EntrosetError("enum limit must be >= 1")
        doc, code = args.run(args)
        text = _format_table(doc) if args.format == "table" else jsonio.dump_json(doc)
        stream = sys.stdout
    except EntrosetError as exc:
        text, stream, code = f"error: {exc}", sys.stderr, 2
    finally:
        if was_enabled:
            gc.enable()
    print(text, file=stream)
    return code


def main() -> None:  # pragma: no cover
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
