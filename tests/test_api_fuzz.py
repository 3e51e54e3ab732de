"""Every public callable answers a hostile argument with a result or an EntrosetError.

The test walks `entroset.__all__` (leaving out the exception classes). For
each callable it puts one hostile value at a time into one argument slot and
gives every other slot a valid value built from a fixed seed. A generator
is advanced by up to 3 items, and every `CheckReport` returned is turned
into JSON and an exit code, so a defect that a lazy value or a report
defers still shows. No hostile value is large in memory: a too-large count
must be refused against a declared limit before anything of its size is
built.
"""

import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest

import entroset
from entroset import (
    CheckReport,
    CoverSpec,
    EntrosetError,
    FiniteMap,
    IndexSet,
    InequalitySpec,
    RuzsaSpec,
)
from genutil import random_dist, random_map, random_pointset, random_uniform_k_cover

HOSTILE = [5, None, True, "x", [], 10**400, 10**18, math.nan, math.inf, object()]

rng = random.Random(18)
X1 = random_dist(rng, max_support=3, max_denominator=4)  # one coordinate
X2 = random_dist(rng, max_support=4, max_denominator=6, dim=2, span=3)
A2 = random_pointset(rng, 2, span=3, max_size=6)
CUBE = random_pointset(rng, 3, span=2, max_size=6)
F1 = random_map(rng, X1.support)
SPEC = InequalitySpec(F1, [FiniteMap.identity(X1.support)], ["1/2"])
COVER = random_uniform_k_cover(rng, 3, 2)
PAIRS = RuzsaSpec(X1, 2 * entroset.minimal_suitable_k(X1))
FIRST, SECOND = IndexSet([1]), IndexSet([2])

# valid arguments of each callable; the slots left out take their defaults
VALID = {
    "CheckReport": {"verdict": "holds", "lhs": 1.0, "rhs": 2.0, "slack": 1.0,
                    "witnesses": ({"element": 1},), "provenance": "exact",
                    "details": {"k": 2}},
    "CoverSpec": {"n": 3, "members": [[1, 2], [3]], "weights": ["1/2", 1]},
    "FiniteMap": {"table": {0: 1, 1: 1}},
    "IndexSet": {"indices": [2, 1]},
    "InequalitySpec": {"lhs_map": F1, "rhs_maps": [F1], "coefficients": [1]},
    "LPSolution": {"weights": (1,), "objective": 1, "certificate": (1,), "dual": (1,)},
    "PointSet": {"dimension": 2, "points": sorted(A2.points)},
    "RationalDist": {"support": X1.support, "probs": X1.probs},
    "RuzsaSpec": {"dist": X1, "k": PAIRS.k},
    "check_cardinality": {"spec": SPEC, "A": list(X1.support)},
    "check_entropy": {"spec": SPEC, "X": X1},
    "check_projection_theorem": {"data": CUBE, "side": "sets", "cover": CoverSpec(
        COVER.n, COVER.members, [Fraction(1, 2)] * len(COVER.members))},
    "check_shearer": {"data": CUBE, "cover": COVER, "k": 2, "side": "sets"},
    "conditional_avg_size": {"A": A2, "T": FIRST, "S": SECOND},
    "conditional_entropy": {"X": X2, "S": FIRST, "C": SECOND},
    "convergence_profile": {"dist": X1, "k_list": [PAIRS.k, 2 * PAIRS.k]},
    "empirical_lemma1": {"spec": SPEC, "X": X1, "k_max": 2 * PAIRS.k},
    "entropy": {"dist": X2},
    "is_fractional_cover": {"cover": CoverSpec(3, [[1, 2], [2, 3]], [1, 1])},
    "is_suitable": {"dist": X1, "k": 6},
    "is_uniform_k_cover": {"cover": COVER, "k": 2},
    "lemma2_witness": {"A": list(X1.support), "f": F1},
    "min_fractional_cover": {"n": 3, "members": [[1, 2], [1, 3], [2, 3]]},
    "minimal_suitable_k": {"dist": X2},
    "preimage_lift": {"f": F1, "spec": PAIRS,
                      "y": [F1(x) for x in next(entroset.ruzsa_enumerate(PAIRS))]},
    "project_rv": {"X": X2, "S": SECOND},
    "project_set": {"A": A2, "S": SECOND},
    "pushforward": {"f": F1, "dist": X1},
    "rationalize": {"weights": [0.2, 0.3, 0.5], "max_denominator": 10},
    "ruzsa_enumerate": {"spec": PAIRS},
    "ruzsa_size": {"spec": PAIRS},
    "type_bound_check": {"spec": PAIRS},
    "verify_commutation": {"f": F1, "spec": PAIRS},
}


def public_callables():
    for name in entroset.__all__:
        value = getattr(entroset, name)
        if not (isinstance(value, type) and issubclass(value, BaseException)):
            yield name


def settle(result):
    """Advance a generator by up to 3 items; serialize every report returned."""
    if inspect.isgenerator(result):
        result = list(itertools.islice(result, 3))
    for value in result if isinstance(result, list) else [result]:
        if isinstance(value, CheckReport):
            value.to_json()
            value.exit_code()


def test_every_public_callable_has_valid_arguments():
    assert sorted(VALID) == sorted(public_callables())


@pytest.mark.parametrize("name", sorted(VALID))
def test_hostile_argument_gives_a_result_or_an_entroset_error(name):
    call = getattr(entroset, name)
    slots = inspect.signature(call).parameters
    valid = {slot: VALID[name].get(slot, p.default) for slot, p in slots.items()}
    assert inspect.Parameter.empty not in valid.values(), "a required slot has no value"
    settle(call(**valid))
    failures = []
    for slot, hostile in itertools.product(slots, HOSTILE):
        try:
            settle(call(**dict(valid, **{slot: hostile})))
        except EntrosetError:
            pass
        except Exception as exc:  # noqa: BLE001 -- any other class is the defect sought
            failures.append(f"{name}({slot}={hostile!r:.20}): {type(exc).__name__}: {exc}"[:200])
    assert not failures, "\n".join(failures)
