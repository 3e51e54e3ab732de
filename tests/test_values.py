"""Value semantics of the immutable value classes, and what a cold import loads.

Each value class compares by class and fields, hashes its fields (except
`FiniteMap.table` and `CheckReport.details`), prints as
`Name(field=value, ...)` and refuses assignment and deletion.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from entroset import (
    CheckReport,
    CoverSpec,
    FiniteMap,
    IndexSet,
    InequalitySpec,
    PointSet,
    RationalDist,
    RuzsaSpec,
    check_shearer,
    entropy,
    min_fractional_cover,
    project_rv,
)

SRC = Path(__file__).resolve().parent.parent / "src"

IDENTITY = FiniteMap.identity([0, 1])

# class name -> (a builder of a fresh instance from fixed arguments, its fields in order)
VALUES = {
    "RationalDist": (lambda: RationalDist([0, 1], ["1/4", "3/4"]),
                     ("support", "counts", "denominator")),
    "FiniteMap": (lambda: FiniteMap({0: 1, 1: 1}), ("table",)),
    "IndexSet": (lambda: IndexSet([2, 1]), ("indices",)),
    "PointSet": (lambda: PointSet(2, [(0, 1), (1, 0)]), ("dimension", "points")),
    "CoverSpec": (lambda: CoverSpec(2, [[1], [1, 2]], ["1/2", 1]),
                  ("n", "members", "weights")),
    "LPSolution": (lambda: min_fractional_cover(3, [[1, 2], [1, 3], [2, 3]]),
                   ("weights", "objective", "certificate", "dual")),
    "RuzsaSpec": (lambda: RuzsaSpec(RationalDist.uniform([0, 1]), 4), ("dist", "k")),
    "InequalitySpec": (lambda: InequalitySpec(IDENTITY, [IDENTITY], ["1/2"]),
                       ("lhs_map", "rhs_maps", "coefficients")),
    "CheckReport": (lambda: CheckReport("holds", 1.0, 2.0, 1.0, (), {"k": 2}),
                    ("verdict", "lhs", "rhs", "slack", "witnesses", "details")),
}


@pytest.mark.parametrize("name", VALUES)
def test_equal_arguments_give_equal_values(name):
    build, _ = VALUES[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert a != 5 and a.__eq__(5) is NotImplemented


@pytest.mark.parametrize("name", VALUES)
def test_fields_cannot_be_assigned_or_deleted(name):
    build, fields = VALUES[name]
    value = build()
    for field in fields:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before


@pytest.mark.parametrize("name", VALUES)
def test_repr_names_every_field_in_order(name):
    build, fields = VALUES[name]
    value = build()
    shown = ", ".join(f"{field}={getattr(value, field)!r}" for field in fields)
    assert repr(value) == f"{name}({shown})"


def test_repr_of_an_index_set():
    assert repr(IndexSet([2, 1])) == "IndexSet(indices=(1, 2))"


def test_a_different_field_gives_a_different_value():
    assert IndexSet([1]) != IndexSet([2])
    assert PointSet(1, [0]) != PointSet(1, [1])
    assert RuzsaSpec(RationalDist.uniform([0, 1]), 2) != RuzsaSpec(RationalDist.uniform([0, 1]), 4)
    assert CheckReport("holds") != CheckReport("violated")


def test_hash_leaves_out_map_tables_and_report_details():
    f, g = FiniteMap({0: 1}), FiniteMap({0: 2})
    assert f != g and hash(f) == hash(g)
    r, s = CheckReport("holds", details={"a": 1}), CheckReport("holds", details={"a": 2})
    assert r != s and hash(r) == hash(s)


def test_report_defaults():
    report = CheckReport("holds")
    assert (report.lhs, report.rhs, report.slack) == (None, None, None)
    assert report.witnesses == () and report.provenance == "exact"
    assert report.details == {} and report.details is not CheckReport("holds").details


def test_report_stores_witnesses_as_a_tuple_and_writes_a_fraction_as_text():
    report = CheckReport("holds", witnesses=[{"element": 1}], details={"w": Fraction(-2, 6)})
    assert report.witnesses == ({"element": 1},)
    assert report.to_json() == {
        "verdict": "holds", "witnesses": [{"element": 1}], "provenance": "exact", "w": "-1/3",
    }


@pytest.mark.parametrize("verdict, provenance", [
    ("holds", "exact"), ("violated", "exact"), ("inconclusive", "float"),
])
def test_report_provenance_follows_from_the_verdict(verdict, provenance):
    report = CheckReport(verdict)
    assert report.provenance == provenance
    assert report.to_json()["provenance"] == provenance


def test_report_takes_no_provenance_argument():
    with pytest.raises(TypeError):
        CheckReport("holds", provenance="float")
    with pytest.raises(TypeError):
        CheckReport("holds", 1.0, 2.0, 1.0, (), "float", {})
    with pytest.raises(AttributeError):
        CheckReport("holds").provenance = "float"


CUBE = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
TRIANGLE = CoverSpec(3, [[1, 2], [1, 3], [2, 3]])


def test_shearer_report_keeps_the_compared_fields_beside_its_details():
    """check_shearer's report holds the compared fields beside its own details."""
    assert check_shearer(CUBE, TRIANGLE, 2, "sets") == CheckReport(
        "holds", 6.0, 6.0, 0.0, (),
        {"lhs_count": "64", "rhs_count": "64", "projection_sizes": ["4", "4", "4"]},
    )
    X = RationalDist(CUBE[:3], ["1/2", "1/4", "1/4"])
    entropies = [entropy(project_rv(X, m)) for m in TRIANGLE.members]
    lhs, rhs = 2 * entropy(X), sum(entropies)
    assert check_shearer(X, TRIANGLE, 2, "entropy") == CheckReport(
        "holds", lhs, rhs, rhs - lhs, (), {"projection_entropies": entropies},
    )


def test_cold_import_loads_no_dataclasses():
    """`import entroset.cli` in a fresh interpreter leaves `dataclasses` and `inspect` out."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import entroset.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"
