"""CLI surface: schemas, outputs, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import entroset
from entroset import EntrosetError, cli, covers, jsonio
from entroset.covers import MAX_COVER_N, uniform_cover_as_fractional
from entroset.dist import as_elements
from entroset.errors import ECHO_CHARS, _cut, _echo
from entroset.projections import PointSet
from entroset.report import _decimal, exact_text

from genutil import reference_ratio

UNIFORM2 = {"support": [[0], [1]], "probs": ["1/2", "1/2"]}
SIXTHS = {"support": [[1], [2], [3]], "probs": ["1/6", "1/3", "1/2"]}
MOD2_MAP = {"table": [[[1], [1]], [[2], [0]], [[3], [1]], [[4], [0]]]}
TRIANGLE_SET = {"dimension": 2, "points": [[0, 0], [0, 1], [1, 0]]}
TRIANGLE_COVER = {"n": 3, "members": [[1, 2], [1, 3], [2, 3]], "weights": ["1/2", "1/2", "1/2"]}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def invoke(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRoundTrip:
    def test_dist(self):
        assert jsonio.dist_to_json(jsonio.dist_from_json(SIXTHS)) == SIXTHS

    def test_map(self):
        doc = jsonio.map_to_json(jsonio.map_from_json(MOD2_MAP))
        assert doc == {"table": sorted(MOD2_MAP["table"])}

    def test_pointset(self):
        assert jsonio.pointset_to_json(jsonio.pointset_from_json(TRIANGLE_SET)) == TRIANGLE_SET

    def test_cover(self):
        assert jsonio.cover_to_json(jsonio.cover_from_json(TRIANGLE_COVER)) == TRIANGLE_COVER

    @pytest.mark.parametrize("decode, doc", [
        (jsonio.dist_from_json, {"support": [[0], [1]], "probs": ["0.5", "1/2"]}),
        (jsonio.cover_from_json, {"n": 2, "members": [[1], [2]], "weights": ["1", "0.5"]}),
        (jsonio.ineq_spec_from_json, {"lhs_map": MOD2_MAP, "rhs_maps": [MOD2_MAP],
                                      "coefficients": ["0.5"]}),
    ], ids=["dist", "cover", "spec"])
    def test_decimal_strings_rejected(self, decode, doc):
        message = "rationals must be decimal-free 'p/q' strings: '0.5'"
        with pytest.raises(entroset.SchemaError) as caught:
            decode(doc)
        assert str(caught.value) == message


class TestBasicCommands:
    def test_entropy(self, tmp_path, capsys):
        path = write(tmp_path, "d.json", UNIFORM2)
        code, out, _ = invoke(capsys, ["entropy", "--dist", path])
        assert code == 0
        assert json.loads(out) == {"entropy": 1.0}

    def test_ruzsa_size(self, tmp_path, capsys):
        path = write(tmp_path, "d.json", UNIFORM2)
        code, out, _ = invoke(capsys, ["ruzsa", "size", "--dist", path, "--k", "4"])
        assert code == 0
        assert json.loads(out) == {"size": "6"}

    def test_cover_min(self, tmp_path, capsys):
        path = write(tmp_path, "c.json", {"n": 3, "members": [[1, 2], [1, 3], [2, 3]]})
        code, out, _ = invoke(capsys, ["cover", "min", "--cover", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["objective"] == "3/2"
        assert doc["weights"] == ["1/2", "1/2", "1/2"]

    def test_pushforward(self, tmp_path, capsys):
        dist = write(tmp_path, "d.json", {"support": [[1], [2], [3], [4]], "probs": ["1/4"] * 4})
        fmap = write(tmp_path, "f.json", MOD2_MAP)
        code, out, _ = invoke(capsys, ["pushforward", "--map", fmap, "--dist", dist])
        assert code == 0
        doc = json.loads(out)
        assert doc["probs"] == ["1/2", "1/2"]

    def test_suitable(self, tmp_path, capsys):
        path = write(tmp_path, "d.json", SIXTHS)
        code, out, _ = invoke(capsys, ["suitable", "--dist", path, "--k", "9"])
        assert code == 0
        assert json.loads(out) == {"minimal_suitable_k": 6, "k": 9, "is_suitable": False}

    def test_rationalize(self, capsys):
        code, out, _ = invoke(
            capsys, ["rationalize", "--weights", "0.4999,0.5001", "--max-denominator", "2"]
        )
        assert code == 0
        assert json.loads(out)["probs"] == ["1/2", "1/2"]

    def test_project(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", TRIANGLE_SET)
        code, out, _ = invoke(capsys, ["project", "--pointset", path, "--indices", "1"])
        assert code == 0
        assert json.loads(out) == {"dimension": 1, "points": [[0], [1]]}

    def test_condsize(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", TRIANGLE_SET)
        code, out, _ = invoke(capsys, ["condsize", "--pointset", path, "--t", "2", "--s", "1"])
        assert code == 0
        assert json.loads(out)["size"] == pytest.approx(2 ** (2 / 3), rel=1e-12)

    def test_condentropy(self, tmp_path, capsys):
        dist = write(
            tmp_path, "x.json",
            {"support": [[0, 0], [0, 1], [1, 0]], "probs": ["1/3", "1/3", "1/3"]},
        )
        code, out, _ = invoke(capsys, ["condentropy", "--dist", dist, "--s", "2", "--c", "1"])
        assert code == 0
        assert json.loads(out)["entropy"] == pytest.approx(2 / 3, abs=1e-12)

    def test_ruzsa_lift(self, tmp_path, capsys):
        dist = write(tmp_path, "d.json", {"support": [[1], [2], [3], [4]], "probs": ["1/4"] * 4})
        fmap = write(tmp_path, "f.json", MOD2_MAP)
        code, out, _ = invoke(
            capsys,
            ["ruzsa", "lift", "--dist", dist, "--k", "4", "--map", fmap,
             "--y", "[[0],[0],[1],[1]]"],
        )
        assert code == 0
        assert json.loads(out) == {"vector": [[2], [4], [1], [3]]}

    @pytest.mark.parametrize("y, message", [
        ("[1,", "--y must be a JSON array of elements: Expecting value: line 1 column 4 (char 3)"),
        ("5", "--y must be an array: 5"),
        ("{}", "--y must be an array: {}"),
        ('{"a": 1}', "--y must be an array: {'a': 1}"),
        ('"xy"', "--y must be an array: 'xy'"),
        ('[[0], {"1": 2}]', "--y element must be an array: {'1': 2}"),
    ], ids=["truncated", "not_an_array", "empty_object", "object", "string", "object_element"])
    def test_ruzsa_lift_bad_y(self, tmp_path, capsys, y, message):
        dist = write(tmp_path, "d.json", {"support": [[1], [2], [3], [4]], "probs": ["1/4"] * 4})
        fmap = write(tmp_path, "f.json", MOD2_MAP)
        code, out, err = invoke(
            capsys, ["ruzsa", "lift", "--dist", dist, "--k", "4", "--map", fmap, "--y", y]
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_ruzsa_enum_and_converge(self, tmp_path, capsys):
        dist = write(tmp_path, "d.json", {"support": [[0], [1]], "probs": ["1/3", "2/3"]})
        code, out, _ = invoke(capsys, ["ruzsa", "enum", "--dist", dist, "--k", "3"])
        assert code == 0
        assert json.loads(out)["count"] == 3
        code, out, _ = invoke(capsys, ["ruzsa", "converge", "--dist", dist, "--ks", "3,6,12"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["k"] for row in rows] == [3, 6, 12]

    def test_witness_lemma2(self, tmp_path, capsys):
        pts = write(tmp_path, "a.json", {"dimension": 1, "points": [[1], [2], [3]]})
        fmap = write(tmp_path, "f.json", {"table": [[[1], [0]], [[2], [0]], [[3], [1]]]})
        code, out, _ = invoke(capsys, ["witness", "lemma2", "--map", fmap, "--points", pts])
        assert code == 0
        assert json.loads(out) == {"support": [[1], [3]], "probs": ["1/2", "1/2"]}


class TestCheckCommands:
    def test_shearer_sets(self, tmp_path, capsys):
        cover = write(tmp_path, "c.json", {"n": 3, "members": [[1, 2], [1, 3], [2, 3]]})
        pts = write(
            tmp_path, "a.json",
            {"dimension": 3, "points": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]},
        )
        code, out, _ = invoke(
            capsys,
            ["check", "shearer", "--cover", cover, "--input", pts, "--k", "2", "--side", "sets"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "holds"
        assert doc["lhs_count"] == "16"

    def test_projection_entropy_chain(self, tmp_path, capsys):
        cover = write(tmp_path, "c.json", {"n": 2, "members": [[1], [2]], "weights": ["1", "1"]})
        dist = write(
            tmp_path, "x.json",
            {"support": [[0, 0], [0, 1], [1, 0]], "probs": ["1/3", "1/3", "1/3"]},
        )
        code, out, _ = invoke(
            capsys,
            ["check", "projection", "--cover", cover, "--input", dist, "--side", "entropy"],
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "holds"

    def test_violated_exit_code(self, tmp_path, capsys):
        # identity lhs against one lossy projection: strictly violated
        spec = write(
            tmp_path, "s.json",
            {
                "lhs_map": {"table": [[[a, b], [a, b]] for a in range(2) for b in range(2)]},
                "rhs_maps": [{"table": [[[a, b], [a]] for a in range(2) for b in range(2)]}],
                "coefficients": ["1"],
            },
        )
        pts = write(tmp_path, "a.json", {"dimension": 2, "points": [[0, 0], [0, 1], [1, 0], [1, 1]]})
        code, out, _ = invoke(capsys, ["check", "cardinality", "--spec", spec, "--input", pts])
        assert code == 1
        assert json.loads(out)["verdict"] == "violated"

    def test_schema_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = invoke(capsys, ["entropy", "--dist", str(bad)])
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-9"])
    def test_bad_tolerance_exit_code(self, capsys, value):
        code, out, err = invoke(capsys, [f"--tolerance={value}", "demo"])
        assert code == 2
        assert out == ""
        assert "tolerance must be positive and finite" in err

    @pytest.mark.parametrize("flag", ["--tolerance=nan", "--tolerance=0", "--limit=0"])
    def test_bad_setting_exits_2_where_it_is_not_read(self, tmp_path, capsys, flag):
        # `entropy` compares nothing and enumerates nothing, yet a bad value exits 2
        code, out, err = invoke(capsys, [flag, "entropy", "--dist", write(tmp_path, "d.json",
                                                                          UNIFORM2)])
        message = "enum limit must be >= 1" if "limit" in flag else "tolerance must be"
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

    def test_infeasible_cover_exit_code(self, tmp_path, capsys):
        cover = write(tmp_path, "c.json", {"n": 3, "members": [[1, 2]]})
        code, _, err = invoke(capsys, ["cover", "min", "--cover", cover])
        assert code == 2

    def test_cover_lp_past_the_cell_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the simplex ran")

        monkeypatch.setattr(covers, "_simplex_min_geq", refuse)
        n = MAX_COVER_N
        cover = write(tmp_path, "c.json", {"n": n, "members": [list(range(1, n + 1))]})
        code, out, err = invoke(capsys, ["cover", "min", "--cover", cover])
        assert (code, out) == (2, "")
        assert err == (f"error: cover LP tableau of {n * (n + 2)} entries exceeds "
                       f"the limit {covers.MAX_LP_CELLS}\n")

    def test_cover_check_uniform(self, tmp_path, capsys):
        cover = write(tmp_path, "c.json", {"n": 3, "members": [[1, 2], [1, 3], [2, 3]]})
        code, out, _ = invoke(capsys, ["cover", "check", "--cover", cover, "--k", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "holds"
        assert doc["uniform"] is True

    def test_cover_check_k_cover_and_violated(self, tmp_path, capsys):
        cover = write(tmp_path, "c.json", {"n": 2, "members": [[1], [1, 2]]})
        code, out, _ = invoke(capsys, ["cover", "check", "--cover", cover, "--k", "1"])
        doc = json.loads(out)
        assert (code, doc["verdict"], doc["uniform"], doc["k_cover"]) == (0, "holds", False, True)
        code, out, _ = invoke(capsys, ["cover", "check", "--cover", cover, "--k", "2"])
        doc = json.loads(out)
        assert (code, doc["verdict"], doc["uniform"], doc["k_cover"]) == (1, "violated", False, False)

    def test_in_band_entropy_violation(self, tmp_path, capsys):
        # H(X) <= (999/1000) H(X) is false by 1.5e-3, inside the 1e-2 band
        ident = {"table": [[[i], [i]] for i in (1, 2, 3)]}
        spec = write(tmp_path, "s.json",
                     {"lhs_map": ident, "rhs_maps": [ident], "coefficients": ["999/1000"]})
        dist = write(tmp_path, "d.json", SIXTHS)
        code, out, _ = invoke(capsys, ["--tolerance", "1e-2", "check", "entropy",
                                       "--spec", spec, "--input", dist])
        doc = json.loads(out)
        assert (code, doc["verdict"], doc["provenance"]) == (1, "violated", "exact")

    def test_inconclusive_exit_code(self, tmp_path, capsys):
        # a product-distribution tie whose exact powers are far past the bit limit
        p, q = 999983, 1000003
        dist = write(tmp_path, "d.json", {
            "support": [[0, 0], [0, 1], [1, 0], [1, 1]],
            "probs": [f"1/{p * q}", f"{q - 1}/{p * q}", f"{p - 1}/{p * q}",
                      f"{(p - 1) * (q - 1)}/{p * q}"],
        })
        cover = write(tmp_path, "c.json", {"n": 2, "members": [[1], [2]]})
        code, out, _ = invoke(capsys, ["check", "shearer", "--cover", cover, "--input", dist,
                                       "--k", "1", "--side", "entropy"])
        doc = json.loads(out)
        assert (code, doc["verdict"], doc["provenance"]) == (3, "inconclusive", "float")

    def test_check_lemma1(self, tmp_path, capsys):
        spec = write(
            tmp_path, "s.json",
            {
                "lhs_map": {"table": [[[a, b], [a, b]] for a in range(2) for b in range(2)]},
                "rhs_maps": [
                    {"table": [[[a, b], [a]] for a in range(2) for b in range(2)]},
                    {"table": [[[a, b], [b]] for a in range(2) for b in range(2)]},
                ],
                "coefficients": ["1", "1"],
            },
        )
        dist = write(
            tmp_path, "x.json",
            {"support": [[0, 0], [0, 1], [1, 0]], "probs": ["1/3", "1/3", "1/3"]},
        )
        code, out, _ = invoke(
            capsys, ["check", "lemma1", "--spec", spec, "--input", dist, "--kmax", "9"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "holds"
        assert [row["k"] for row in doc["rows"]] == [3, 6, 9]

    def test_lemma1_kmax_past_the_row_limit(self, tmp_path, capsys):
        # 10**20 // 2 is past sys.maxsize: no row list is ever built
        spec = write(tmp_path, "s.json", {"lhs_map": {"table": [[[0], [0]], [[1], [1]]]},
                                          "rhs_maps": [{"table": [[[0], [0]], [[1], [1]]]}],
                                          "coefficients": ["1"]})
        dist = write(tmp_path, "x.json", UNIFORM2)
        code, out, err = invoke(capsys, ["check", "lemma1", "--spec", spec, "--input", dist,
                                         "--kmax", "100000000000000000000"])
        assert (code, out) == (2, "")
        assert err == "error: k_max // k_min exceeds the row limit 10000 (k_min = 2)\n"


class TestDeterminism:
    def test_demo_holds_and_is_deterministic(self, capsys):
        code1, out1, _ = invoke(capsys, ["--seed", "7", "demo"])
        code2, out2, _ = invoke(capsys, ["--seed", "7", "demo"])
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["all_hold"] is True
        assert cli._demo_spec() is cli._demo_spec()

    def test_different_seeds_differ(self, capsys):
        _, out1, _ = invoke(capsys, ["--seed", "1", "demo"])
        _, out2, _ = invoke(capsys, ["--seed", "2", "demo"])
        assert json.loads(out1)["points"] != json.loads(out2)["points"]

    def test_table_format(self, tmp_path, capsys):
        path = write(tmp_path, "d.json", UNIFORM2)
        code, out, _ = invoke(capsys, ["--format", "table", "entropy", "--dist", path])
        assert code == 0
        assert out.strip() == "entropy: 1.0"


class TestParserReuse:
    """One process, many `cli.run` calls: the cached parser leaks no state."""

    def test_build_parser_runs_once(self, monkeypatch, tmp_path, capsys):
        calls = []
        real = cli.build_parser

        def counting():
            calls.append(1)
            return real()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting)
        path = write(tmp_path, "d.json", UNIFORM2)
        for argv in (["entropy", "--dist", path], ["--seed", "3", "demo"], ["entropy"]):
            try:
                invoke(capsys, argv)
            except SystemExit:
                pass
        invoke(capsys, ["ruzsa", "size", "--dist", path, "--k", "2"])
        assert calls == [1]

    def test_condsize_default_not_leaked(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", TRIANGLE_SET)
        cli._parser.cache_clear()
        lone = invoke(capsys, ["condsize", "--pointset", path, "--t", "2"])
        with_s = invoke(capsys, ["condsize", "--pointset", path, "--t", "2", "--s", "1"])
        again = invoke(capsys, ["condsize", "--pointset", path, "--t", "2"])
        assert with_s != lone
        assert again == lone

    def test_base_default_not_leaked(self, tmp_path, capsys):
        path = write(tmp_path, "d.json", UNIFORM2)
        _, out, _ = invoke(capsys, ["--base", "e", "entropy", "--dist", path])
        assert json.loads(out)["entropy"] == pytest.approx(math.log(2))
        _, out, _ = invoke(capsys, ["entropy", "--dist", path])
        assert json.loads(out) == {"entropy": 1.0}

    def test_usage_error_then_good_call(self, tmp_path, capsys):
        path = write(tmp_path, "d.json", UNIFORM2)
        with pytest.raises(SystemExit) as exc:
            cli.run(["entropy", "--dist"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: entroset entropy")
        good = (0, '{\n  "entropy": 1.0\n}\n', "")
        assert invoke(capsys, ["entropy", "--dist", path]) == good

    def test_plain_argv_builds_no_parser(self, monkeypatch, tmp_path, capsys):
        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser built"))
        path = write(tmp_path, "d.json", UNIFORM2)
        assert invoke(capsys, ["entropy", "--dist", path])[0] == 0
        assert invoke(capsys, ["--seed", "3", "demo"])[0] == 0

    def test_argv_none_reads_sys_argv(self, monkeypatch, tmp_path, capsys):
        path = write(tmp_path, "d.json", UNIFORM2)
        monkeypatch.setattr(sys, "argv", ["entroset", "entropy", "--dist", path])
        plain = invoke(capsys, None)
        monkeypatch.setattr(sys, "argv", ["entroset", "entropy", f"--dist={path}"])
        assert invoke(capsys, None) == plain == (0, '{\n  "entropy": 1.0\n}\n', "")

    def test_help_and_usage_go_to_streams_of_the_call(self, monkeypatch):
        cli._parser()  # the parser exists before the streams change
        out, err = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        with pytest.raises(SystemExit) as exc:
            cli.run(["ruzsa", "--help"])
        assert exc.value.code == 0
        assert out.getvalue().startswith("usage: entroset ruzsa")
        with pytest.raises(SystemExit) as exc:
            cli.run(["nosuch"])
        assert exc.value.code == 2
        assert "invalid choice: 'nosuch'" in err.getvalue()


class TestKeptInputs:
    """Decoded input files kept across `cli.run` calls, by (decoder, path, bytes)."""

    def test_rewritten_file_is_decoded_again(self, tmp_path, capsys):
        path = write(tmp_path, "d.json", UNIFORM2)
        assert invoke(capsys, ["entropy", "--dist", path]) == (0, '{\n  "entropy": 1.0\n}\n', "")
        before = os.stat(path)
        write(tmp_path, "d.json", {"support": [[0], [1]], "probs": ["1/4", "3/4"]})
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        code, out, err = invoke(capsys, ["entropy", "--dist", path])
        assert (code, err) == (0, "")
        assert json.loads(out)["entropy"] == pytest.approx(2 - 0.75 * math.log2(3))

    def test_decode_failure_is_not_kept(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        path.write_text('{"support": [[0], [1]], "probs": ["1/2", "1/2",]}')
        argv = ["entropy", "--dist", str(path)]
        failed = (2, "", f"error: {path}:1:48: Expecting value\n")
        assert invoke(capsys, argv) == failed
        assert invoke(capsys, argv) == failed
        path.write_text(json.dumps(UNIFORM2))
        assert invoke(capsys, argv) == (0, '{\n  "entropy": 1.0\n}\n', "")

    def test_no_hit_across_decoders(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", TRIANGLE_SET)
        code, out, _ = invoke(capsys, ["project", "--pointset", path, "--indices", "1"])
        assert (code, json.loads(out)) == (0, {"dimension": 1, "points": [[0], [1]]})
        assert invoke(capsys, ["entropy", "--dist", path]) == (
            2, "", "error: distribution document needs field 'support'\n")

    def test_keeps_the_last_few_files(self, tmp_path, capsys):
        cli._decoded.cache_clear()
        for i in range(cli._KEPT_FILES + 1):
            path = write(tmp_path, f"d{i}.json", UNIFORM2)
            assert invoke(capsys, ["entropy", "--dist", path])[0] == 0
        info = cli._decoded.cache_info()
        assert (info.currsize, info.misses, info.hits) == (cli._KEPT_FILES,
                                                           cli._KEPT_FILES + 1, 0)


def _levels(level=cli._ROOT, words=()):
    """(command words, level) of every level of the command table."""
    yield words, level
    for word, child in (level.commands or {}).items():
        yield from _levels(child, (*words, word))


LEAVES = [(words, level) for words, level in _levels() if level.run is not None]
PARSER = cli.build_parser()
# values that argparse reads in ways a plain table parse must not guess at
ODD_VALUES = ("", "-3", "-x", "--dist", "1,,2", "nan", " 7 ", "٣", "10**6", "e", "table")
# tokens that are no command word, an option or a value of the table
ODD_TOKENS = ("nosuch", "", "Entropy", "-", "ruzs", "extra", "-h", "--help", "--")
# one accepted value per option type; None is an untyped (string) option
SAMPLE = {int: "3", float: "0.5", cli._int_list: "1,2", cli._float_list: "0.25,0.75",
          cli._parse_base: "e", None: "x.json"}


def _is_switch(keywords) -> bool:
    return keywords.get("action") == "store_true"


def _valid_value(keywords):
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    return {
        int: st.integers(0, 30).map(str),
        float: st.sampled_from(["0.5", "1e-09", "0", "7"]),
        cli._int_list: st.lists(st.integers(1, 6), max_size=3).map(
            lambda xs: ",".join(map(str, xs))),
        cli._float_list: st.sampled_from(["0.5,0.5", "1", "0.25,0.75"]),
        cli._parse_base: st.sampled_from(["2", "e"]),
        None: st.sampled_from(["x.json", "a b", "entropy"]),
    }[keywords.get("type")]


@st.composite
def option_tokens(draw, level, flag):
    """[(token, role)] of one option: a flag and a valid value, or a switch."""
    keywords = level.options[flag]
    if _is_switch(keywords):
        return [(flag, "flag")]
    return [(flag, "flag"), (draw(_valid_value(keywords)), "value")]


@st.composite
def level_tokens(draw, level):
    """A level's options in random order, the optional ones sometimes left out."""
    flags = [f for f in draw(st.permutations(list(level.options)))
             if level.options[f].get("required") or draw(st.booleans())]
    return [pair for flag in flags for pair in draw(option_tokens(level, flag))]


@st.composite
def mutated(draw, tokens):
    """[(token, role)] with one change that may turn a plain argv into one
    that only argparse reads, or that argparse refuses."""
    tokens = list(tokens)
    where = {role: [i for i, (_, r) in enumerate(tokens) if r == role]
             for role in ("flag", "value", "word")}
    where["long"] = [i for i in where["flag"] if len(tokens[i][0]) > 2]
    kind = draw(st.integers(0, 8))
    if kind == 0 and where["value"]:  # an odd value
        tokens[draw(st.sampled_from(where["value"]))] = (draw(st.sampled_from(ODD_VALUES)),
                                                         "value")
    elif kind == 1 and where["long"]:  # an abbreviated flag
        i = draw(st.sampled_from(where["long"]))
        flag = tokens[i][0]
        tokens[i] = (flag[:draw(st.integers(2, len(flag) - 1))], "flag")
    elif kind == 2 and where["value"]:  # --flag=value
        i = draw(st.sampled_from(where["value"]))
        tokens[i - 1:i + 1] = [(f"{tokens[i - 1][0]}={tokens[i][0]}", "other")]
    elif kind == 3:  # an odd token anywhere
        tokens.insert(draw(st.integers(0, len(tokens))),
                      (draw(st.sampled_from(ODD_TOKENS)), "other"))
    elif kind == 4 and tokens:  # an item that is not a str
        tokens[draw(st.integers(0, len(tokens) - 1))] = (draw(st.sampled_from([7, None, 0])),
                                                        "other")
    elif kind == 5 and tokens:  # a token left out
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    elif kind == 6 and where["flag"]:  # an option given twice
        i = draw(st.sampled_from(where["flag"]))
        pair = tokens[i:i + 2] if i + 1 in where["value"] else tokens[i:i + 1]
        tokens[i:i] = pair
    elif kind == 7:  # a global option anywhere
        flag = draw(st.sampled_from(list(cli._ROOT.options)))
        at = draw(st.integers(0, len(tokens)))
        tokens[at:at] = draw(option_tokens(cli._ROOT, flag))
    elif kind == 8 and where["word"]:  # an unknown command word
        tokens[draw(st.sampled_from(where["word"]))] = (draw(st.sampled_from(ODD_TOKENS)),
                                                        "word")
    return tokens


@st.composite
def command_lines(draw):
    """A plain argv (global options, command words, the leaf's options) with
    up to two changes from `mutated`."""
    tokens = draw(level_tokens(cli._ROOT))
    level = cli._ROOT
    while level.commands is not None:
        word = draw(st.sampled_from(list(level.commands)))
        tokens.append((word, "word"))
        level = level.commands[word]
    tokens += draw(level_tokens(level))
    for _ in range(draw(st.integers(0, 2))):
        tokens = draw(mutated(tokens))
    return [token for token, _ in tokens]


def _fields(args) -> dict:
    # repr, so that two nan values compare equal and 1 differs from 1.0
    return {name: repr(value) for name, value in vars(args).items()}


def _argparse_args(argv):
    """What argparse makes of argv: its namespace, or None where it exits or raises."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return PARSER.parse_args(argv)
        except SystemExit:
            return None
        except (TypeError, AttributeError):  # an item that is not a str
            assert not all(isinstance(arg, str) for arg in argv)
            return None


class TestCommandTable:
    """`cli._plain_args` parses a plain argv exactly as argparse does, and
    declines every other one."""

    @settings(max_examples=600, deadline=None)
    @given(command_lines())
    def test_table_agrees_with_argparse(self, argv):
        before = list(argv)
        table = cli._plain_args(argv)
        expected = _argparse_args(argv)
        assert argv == before
        if expected is None:
            assert table is None
        elif table is not None:
            assert _fields(table) == _fields(expected)

    @pytest.mark.parametrize("argv", [
        ["entropy", "--di", "d"],                        # abbreviated
        ["entropy", "--dist", "d", "--bogus", "1"],      # unknown
        ["entropy", "--dist", "d", "--dist", "e"],       # repeated
        ["entropy", "--dist=d"],
        ["-h"], ["entropy", "--help"], ["--", "demo"], ["entropy", "--", "--dist", "d"],
        ["entropy", "--dist", "-x"],                     # a value that starts with "-"
        ["ruzsa", "size", "--dist", "d", "--k", "-3"],
        ["entropy", "--dist", "d", "--seed", "1"],       # a global option after the command
        ["entropy"], ["ruzsa", "lift", "--dist", "d", "--k", "2"],  # missing required
        ["entropy", "--dist", "d", "extra"], ["entropy", "--dist"],
        [], ["ruzsa"], ["nosuch"], ["ruzsa", "sizes", "--dist", "d", "--k", "2"],
        ["--base", "10", "demo"], ["ruzsa", "size", "--dist", "d", "--k", "two"],  # bad type
        ["--format", "xml", "demo"],                     # not a choice
        ["entropy", "--dist", None], [None], [7, "demo"], [["demo"]],  # not a str
    ], ids=repr)
    def test_declines_what_is_not_plain(self, argv):
        assert cli._plain_args(argv) is None

    @pytest.mark.parametrize("words, level", LEAVES, ids=[" ".join(w) for w, _ in LEAVES])
    def test_every_leaf_takes_the_table_path(self, words, level):
        every = ["--tolerance", "0.5", "--base", "e", "--limit", "5", "--seed", "3",
                 "--format", "table", *words]
        required = list(words)
        for flag, keywords in level.options.items():
            if _is_switch(keywords):
                tokens = [flag]
            else:
                tokens = [flag, keywords.get("choices", [SAMPLE[keywords.get("type")]])[-1]]
            every += tokens
            if keywords.get("required"):
                required += tokens
        for argv in (every, required):
            table = cli._plain_args(argv)
            assert table is not None, argv
            assert _fields(table) == _fields(PARSER.parse_args(argv))
            assert table.run is level.run


def lifted(call, *args, **kwargs):
    """`call(*args, **kwargs)` with Python's int-to-str digit limit lifted for the call."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return call(*args, **kwargs)
    finally:
        sys.set_int_max_str_digits(old)


def lifted_str(value) -> str:
    return lifted(str, value)


# JSON-like documents: nested dicts, lists and tuples (empty ones too),
# awkward strings, ints past the digit limit of both signs, edge floats
_JSON_STRINGS = st.text(st.one_of(st.sampled_from('\x00"\\/\n\x7f\u00e9\u2028\ud800'),
                                  st.characters()), max_size=6)
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), _JSON_STRINGS,
    st.builds(lambda e, sign: sign * 3**e, st.integers(8500, 11000), st.sampled_from([1, -1])),
    st.sampled_from([-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf]), st.floats(),
)
JSON_DOCUMENTS = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(_JSON_STRINGS, kids, max_size=4)),
    max_leaves=16,
)


class TestKGuard:
    """A k past the bit limit exits 2 with one error line, before any size is built."""

    @pytest.fixture(autouse=True)
    def refuse_sizes(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a multinomial was built")

        monkeypatch.setattr(entroset.ruzsa, "_multinomial", refuse)

    @pytest.mark.parametrize("k", ["65538", "1" + "0" * 20])
    @pytest.mark.parametrize("command", ["size", "bound", "enum", "commute", "lift",
                                         "converge"])
    def test_ruzsa(self, tmp_path, capsys, command, k):
        dist = write(tmp_path, "d.json", UNIFORM2)
        f = write(tmp_path, "f.json", {"table": [[[0], [0]], [[1], [0]]]})
        argv = {"converge": ["--ks", f"2,{k}"], "commute": ["--k", k, "--map", f],
                "lift": ["--k", k, "--map", f, "--y", "[[0], [0]]"]}.get(command, ["--k", k])
        code, out, err = invoke(capsys, ["ruzsa", command, "--dist", dist, *argv])
        message = f"k={k} times the 2 bits of d=2 exceeds the bit limit 131072"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_lemma1(self, tmp_path, capsys):
        support = [[i] for i in range(16)]
        identity = {"table": [[x, x] for x in support]}
        spec = write(tmp_path, "s.json", {"lhs_map": identity, "rhs_maps": [identity],
                                          "coefficients": ["1/2"]})
        dist = write(tmp_path, "x.json", {"support": support, "probs": ["1/16"] * 16})
        code, out, err = invoke(capsys, ["check", "lemma1", "--spec", spec, "--input", dist,
                                         "--kmax", "27200"])
        message = "k=27200 times the 5 bits of d=16 exceeds the bit limit 131072"
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestBigIntegers:
    """Exact values past the 4300-digit int-to-str limit never raise."""

    K = 12000
    COUNTS = (1000, 2000, 3000, 6000)  # probabilities 1/12, 2/12, 3/12, 6/12

    @pytest.fixture
    def twelfths(self, tmp_path):
        return write(
            tmp_path, "d.json",
            {"support": [[0], [1], [2], [3]], "probs": ["1/12", "2/12", "3/12", "6/12"]},
        )

    def size(self) -> int:
        size = math.factorial(self.K)
        for c in self.COUNTS:
            size //= math.factorial(c)
        assert size.bit_length() > 3.33 * 4300  # past the default limit
        return size

    def ruzsa(self, capsys, command, path):
        return invoke(capsys, ["ruzsa", command, "--dist", path, "--k", str(self.K)])

    def test_ruzsa_size(self, twelfths, capsys):
        code, out, _ = self.ruzsa(capsys, "size", twelfths)
        assert code == 0
        assert json.loads(out) == {"size": lifted_str(self.size())}

    def test_ruzsa_bound(self, twelfths, capsys):
        code, out, _ = self.ruzsa(capsys, "bound", twelfths)
        assert code == 0
        doc = json.loads(out)
        size = self.size()
        t_value = 12**1000 * 6**2000 * 4**3000 * 2**6000
        assert doc["size"] == lifted_str(size)
        assert doc["type_mass_inverse"] == lifted_str(t_value)
        assert doc["lower_ratio"] == lifted_str(Fraction(t_value, size))

    def test_ruzsa_converge(self, twelfths, capsys):
        code, out, _ = invoke(
            capsys, ["ruzsa", "converge", "--dist", twelfths, "--ks", f"12,{self.K}"]
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["size"] == "55440"
        assert rows[1]["size"] == lifted_str(self.size())

    def test_size_guard_message(self, twelfths, capsys):
        code, out, err = self.ruzsa(capsys, "enum", twelfths)
        assert code == 2
        assert out == ""
        size = _cut(lifted_str(self.size()))
        assert err == f"error: enumeration of {size} vectors exceeds limit 1000000\n"

    def test_checker_counts(self, tmp_path, capsys):
        # 4^8000 has 4817 digits: |A|^k of a uniform 8000-cover of {1}
        cover = write(tmp_path, "c.json", {"n": 1, "members": [[1]] * 8000})
        pts = write(tmp_path, "a.json", {"dimension": 1, "points": [[0], [1], [2], [3]]})
        code, out, _ = invoke(
            capsys,
            ["check", "shearer", "--cover", cover, "--input", pts, "--k", "8000",
             "--side", "sets"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lhs_count"] == doc["rhs_count"] == lifted_str(4**8000)

    def test_exact_text_matches_str(self):
        values = [0, -7, 10**4299, 10**4300, -(3**20000), 2**50000 - 1,
                  Fraction(-(7**9000), 11**6000), Fraction(1, 10**4400)]
        assert [exact_text(v) for v in values] == [lifted_str(v) for v in values]

    def test_decimal_short_path_matches_str(self):
        # under 1920 bits `_decimal` is `str` without looking up the limit
        values = [0, 1, -1, 2**1919 - 1, 2**1919, -(2**1919), 2**1920, -(2**1920)]
        assert [_decimal(v) for v in values] == [lifted_str(v) for v in values]

    def test_decimal_exact_past_lowest_limit(self):
        # 640 is the lowest limit Python accepts; 2**1920 - 1 has 578 digits
        values = [2**1920 - 1, 10**639, 10**640, -(10**641 - 1), 3**5000, -(7**9000)]
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            lowered = [_decimal(v) for v in values]
        finally:
            sys.set_int_max_str_digits(old)
        expected = [lifted_str(v) for v in values]
        assert lowered == expected
        assert [_decimal(v) for v in values] == expected

    def test_long_integer_literal_in_input(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        path.write_text('{"support": [[1]], "probs": [1' + "0" * 5000 + "]}")
        code, out, err = invoke(capsys, ["entropy", "--dist", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: Exceeds the limit")

    def test_non_utf8_input(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        path.write_bytes(b'{"support": [[1]], "probs": ["\xff"]}')
        code, out, err = invoke(capsys, ["entropy", "--dist", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode")

    def test_probability_sum_past_limit(self, tmp_path, capsys):
        p, q = 10**2200 + 1, 10**2200 + 3
        path = write(
            tmp_path, "d.json", {"support": [[0], [1]], "probs": [f"1/{p}", f"1/{q}"]}
        )
        code, _, err = invoke(capsys, ["entropy", "--dist", path])
        assert code == 2
        assert f"sum to 1 exactly, got {_cut(lifted_str(Fraction(1, p) + Fraction(1, q)))}" in err

    @staticmethod
    def huge_suitable_k_dist(tmp_path):
        """A law file whose minimal suitable k is past the str digit limit, and that k."""
        # probabilities x/(ab), y/(bc), 1/(ca) with pairwise coprime a, b, c
        # of 1501 digits: the minimal suitable k is abc, about 4500 digits
        n = 10**1500
        a, b, c = n + 1, n + 3, n + 7
        x = -b * pow(c, -1, a) % a  # x*c + y*a = abc - b with x, y > 0
        y = (a * b * c - b - x * c) // a
        probs = [Fraction(x, a * b), Fraction(y, b * c), Fraction(1, c * a)]
        assert sum(probs) == 1
        path = write(
            tmp_path, "d.json",
            {"support": [[0], [1], [2]], "probs": [str(p) for p in probs]},
        )
        k = math.lcm(*(p.denominator for p in probs))
        assert k == a * b * c and k.bit_length() > 3.33 * 4300
        return path, k

    def test_plain_int_output_past_limit(self, tmp_path, capsys):
        path, k = self.huge_suitable_k_dist(tmp_path)
        code, out, _ = invoke(capsys, ["suitable", "--dist", path])
        assert code == 0
        assert out == f'{{\n  "minimal_suitable_k": {lifted_str(k)}\n}}\n'
        code, out, _ = invoke(capsys, ["suitable", "--dist", path, "--k", "6"])
        assert code == 0
        assert out == (
            f'{{\n  "minimal_suitable_k": {lifted_str(k)},\n'
            '  "k": 6,\n  "is_suitable": false\n}\n'
        )

    def test_table_int_output_past_limit(self, tmp_path, capsys):
        path, k = self.huge_suitable_k_dist(tmp_path)
        code, table, _ = invoke(capsys, ["--format", "table", "suitable", "--dist", path])
        assert code == 0
        _, doc, _ = invoke(capsys, ["suitable", "--dist", path])
        digits = lifted_str(k)
        assert (table, doc) == (f"minimal_suitable_k: {digits}\n",
                                f'{{\n  "minimal_suitable_k": {digits}\n}}\n')

    @settings(max_examples=40, deadline=None)
    @given(drawn=JSON_DOCUMENTS)
    @pytest.mark.parametrize(
        "big", [10**4299, -(10**5000), 7**9000], ids=["at_limit", "negative", "past"]
    )
    def test_dump_json_matches_lifted_limit(self, big, drawn):
        doc = {"a": [1, -2, True, None, 0.5, "\x00", "\x00\x00"],
               "b": {"c": (3, big), "\x00": big}, "d": big, "drawn": drawn}
        assert jsonio.dump_json(doc) == lifted(json.dumps, doc, indent=2)
        assert jsonio._encode(doc, None) == lifted(json.dumps, doc)
        assert jsonio._encode(drawn, None) == lifted(json.dumps, drawn)

    def test_table_list_int_past_limit(self):
        big = -(7**9000)
        doc = {"k": big, "points": [[0, big], [1, 2]], "row": {"size": big, "k": 3}, "ok": True}
        assert cli._format_table(doc) == (
            f"k: {lifted_str(big)}\npoints: {lifted(json.dumps, doc['points'])}\n"
            f"row: {lifted(json.dumps, doc['row'])}\nok: True")

    @pytest.mark.parametrize("key", [1, 0.5, True, None, (1, 2)], ids=repr)
    def test_non_str_key_is_refused(self, key):
        for indent in (None, "\n"):
            with pytest.raises(TypeError):
                jsonio._encode({"a": [{key: 1}]}, indent)


@pytest.mark.parametrize("weights", ["nan,1", "inf,1", "1,-inf"])
def test_non_finite_weights_exit_code(capsys, weights):
    code, out, err = invoke(
        capsys, ["rationalize", f"--weights={weights}", "--max-denominator", "4"]
    )
    assert code == 2
    assert out == ""
    assert err == "error: weights must be finite\n"


def test_overflowing_weight_sum(capsys):
    code, out, err = invoke(
        capsys, ["rationalize", "--weights", "1e308,1e308", "--max-denominator", "8"]
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["probs"] == ["1/2", "1/2"]


BIG = "1" + "0" * 400
# BIG and BIG + "1" in an error message: the first ECHO_CHARS digits and the length
BIG_CUT = f"1{'0' * (ECHO_CHARS - 1)}... (401 characters)"
BIG1_CUT = f"1{'0' * (ECHO_CHARS - 1)}... (402 characters)"
IDENTITY2 = {"table": [[[0], [0]], [[1], [1]]]}


class TestFloatRange:
    """A value past the float range exits 2 with an error that names it."""

    @pytest.fixture
    def files(self, tmp_path):
        docs = {
            "spec": {"lhs_map": IDENTITY2, "rhs_maps": [IDENTITY2], "coefficients": [BIG]},
            "line": {"dimension": 1, "points": [[0], [1]]},
            "plane": {"dimension": 2, "points": [[0, 0], [0, 1], [1, 1]]},
            "dist": UNIFORM2,
            "big": {"n": 2, "members": [[1, 2]], "weights": [BIG]},
            "mixed": {"n": 2, "members": [[1, 2], [2]], "weights": ["1", BIG]},
            "one": {"n": 1, "members": [[1]]},
        }
        return {name: write(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "cardinality", "--spec", "{spec}", "--input", "{line}"],
             f"coefficient is outside the float range: {BIG_CUT}"),
            (["check", "entropy", "--spec", "{spec}", "--input", "{dist}"],
             f"coefficient is outside the float range: {BIG_CUT}"),
            (["check", "lemma1", "--spec", "{spec}", "--input", "{dist}", "--kmax", "4"],
             f"coefficient is outside the float range: {BIG_CUT}"),
            (["cover", "check", "--cover", "{big}"],
             f"least coverage is outside the float range: {BIG_CUT}"),
            (["cover", "check", "--cover", "{one}", "--k", BIG + "1"],
             f"k is outside the float range: {BIG1_CUT}"),
            (["check", "shearer", "--cover", "{one}", "--input", "{line}", "--k", BIG + "1",
              "--side", "sets"],
             f"not a uniform {BIG1_CUT}-cover: counts [1]"),
            (["check", "projection", "--cover", "{mixed}", "--input", "{plane}",
              "--side", "sets"],
             f"weight is outside the float range: {BIG_CUT}"),
            # the least coverage is past the float range too, but only the weight is read
            (["check", "projection", "--cover", "{big}", "--input", "{plane}",
              "--side", "sets"],
             f"weight is outside the float range: {BIG_CUT}"),
            (["check", "shearer", "--cover", "{one}", "--input", "{line}", "--k",
              "1" + "0" * 3999, "--side", "sets"],
             f"not a uniform 1{'0' * (ECHO_CHARS - 1)}... (4000 characters)-cover: counts [1]"),
        ],
        ids=["cardinality", "entropy", "lemma1", "cover_check", "cover_check_k", "shearer_k",
             "projection", "projection_least_coverage", "shearer_long_k"],
    )
    def test_schema_error_names_the_value(self, files, capsys, argv, message):
        code, out, err = invoke(capsys, [a.format(**files) for a in argv])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_huge_weight_beside_a_small_coverage(self, files, capsys):
        # only the least coverage is read as a float
        code, out, err = invoke(capsys, ["cover", "check", "--cover", files["mixed"]])
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "verdict": "holds", "lhs": 1.0, "rhs": 1.0, "slack": 0.0, "witnesses": [],
            "provenance": "exact", "coverage": ["1", "1" + "0" * 399 + "1"],
        }


def _no_constants(name):
    raise AssertionError(f"{name} in a JSON report")


class TestNonFiniteSides:
    """A side past the float range is decided exactly and written as null."""

    FOUR = {"support": [[0], [1], [2], [3]], "probs": ["1/4"] * 4}
    IDENTITY4 = {"table": [[[i], [i]] for i in range(4)]}
    E308 = "1" + "0" * 308

    @pytest.mark.parametrize(
        "coeffs", [[E308, "-" + E308, "1"], [E308]], ids=["nan", "infinity"]
    )
    def test_check_entropy(self, tmp_path, capsys, coeffs):
        spec = {"lhs_map": self.IDENTITY4, "rhs_maps": [self.IDENTITY4] * len(coeffs),
                "coefficients": coeffs}
        argv = ["check", "entropy", "--spec", write(tmp_path, "s.json", spec),
                "--input", write(tmp_path, "x.json", self.FOUR)]
        code, out, err = invoke(capsys, argv)
        doc = json.loads(out, parse_constant=_no_constants)
        # H(X) = 2 <= 2 holds exactly, and 2 <= 2 * 10**308 as well
        assert (code, err) == (0, "")
        assert (doc["verdict"], doc["provenance"]) == ("holds", "exact")
        assert (doc["lhs"], doc["rhs"], doc["slack"]) == (2.0, None, None)

    def test_check_lemma1_rows(self, tmp_path, capsys):
        spec = {"lhs_map": self.IDENTITY4, "rhs_maps": [self.IDENTITY4],
                "coefficients": [self.E308]}
        argv = ["check", "lemma1", "--spec", write(tmp_path, "s.json", spec),
                "--input", write(tmp_path, "x.json", self.FOUR), "--kmax", "8"]
        code, out, err = invoke(capsys, argv)
        doc = json.loads(out, parse_constant=_no_constants)
        assert (code, err) == (0, "")
        assert [row["verdict"] for row in doc["rows"]] == ["holds", "holds"]
        assert [row["rhs_rate"] for row in doc["rows"]] == [None, None]


def test_cli_does_not_import_numpy():
    src = str(Path(entroset.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "import entroset.cli\n"
        "code = entroset.cli.run(['rationalize', '--weights', '0.2,0.3,0.5',"
        " '--max-denominator', '12'])\n"
        "assert code == 0, code\n"
        "assert 'numpy' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["probs"] == ["1/5", "3/10", "1/2"]


def test_project_empty_pointset_path(capsys):
    code, _, err = invoke(capsys, ["project", "--pointset", "", "--indices", "1"])
    assert code == 2
    assert err == "error: no such file: \n"


class TestCoverDecoding:
    """Cover documents with values of the wrong JSON type exit 2, never crash."""

    CASES = {
        "n_string": ({"n": "abc", "members": [[1]]}, "cover field 'n' must be an integer: 'abc'"),
        "n_null": ({"n": None, "members": [[1]]}, "cover field 'n' must be an integer: None"),
        "n_float": ({"n": 2.7, "members": [[1, 2]]}, "cover field 'n' must be an integer: 2.7"),
        "n_bool": ({"n": True, "members": [[1]]}, "cover field 'n' must be an integer: True"),
        "index_string": ({"n": 2, "members": [["x"]]}, "index must be an integer: 'x'"),
        "index_float": ({"n": 2, "members": [[1.9, 2]]}, "index must be an integer: 1.9"),
        "index_bool": ({"n": 2, "members": [[True, 2]]}, "index must be an integer: True"),
        "members_int": ({"n": 2, "members": 5}, "cover field 'members' must be an array: 5"),
        "weights_int": (
            {"n": 2, "members": [[1, 2]], "weights": 3},
            "cover field 'weights' must be an array: 3",
        ),
        # documents with two faults: JSON's decimal check runs before any
        # value is read, and the constructor reads the members before the weights
        "bad_member_before_bad_weight": (
            {"n": 2, "members": [[0]], "weights": ["abc"]}, "indices must be >= 1: (0,)",
        ),
        "decimal_weight_before_bad_member": (
            {"n": 2, "members": [[0]], "weights": ["0.5"]},
            "rationals must be decimal-free 'p/q' strings: '0.5'",
        ),
    }

    @pytest.mark.parametrize("command", ["min", "check"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_schema_error(self, tmp_path, capsys, case, command):
        doc, message = self.CASES[case]
        cover = write(tmp_path, "c.json", doc)
        code, out, err = invoke(capsys, ["cover", command, "--cover", cover])
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_integer_fields_still_accepted(self, tmp_path, capsys):
        cover = write(tmp_path, "c.json", {"n": 2, "members": [[1, 2], [2]], "weights": ["1", 0]})
        code, out, _ = invoke(capsys, ["cover", "check", "--cover", cover])
        assert code == 0
        assert json.loads(out)["verdict"] == "holds"


@pytest.mark.parametrize(
    "argv",
    [
        ["cover", "min", "--cover", "{cover}"],
        ["cover", "check", "--cover", "{cover}"],
        ["cover", "check", "--cover", "{cover}", "--k", "1"],
        ["check", "shearer", "--cover", "{cover}", "--input", "{points}", "--side", "sets",
         "--k", "1"],
        ["check", "projection", "--cover", "{cover}", "--input", "{points}", "--side", "sets"],
    ],
    ids=["cover_min", "cover_check", "cover_check_k", "shearer", "projection"],
)
def test_cover_n_past_the_index_range(tmp_path, capsys, argv):
    n = 10**29
    files = {
        "cover": write(tmp_path, "c.json", {"n": n, "members": [[1]], "weights": ["1"]}),
        "points": write(tmp_path, "a.json", {"dimension": 1, "points": [[0]]}),
    }
    code, out, err = invoke(capsys, [a.format(**files) for a in argv])
    assert (code, out, err) == (2, "", f"error: n is outside the index range: {n}\n")


@pytest.mark.parametrize("n", [MAX_COVER_N + 1, 10**18])
@pytest.mark.parametrize("argv", [["cover", "min"], ["cover", "check"],
                                  ["cover", "check", "--k", "1"]], ids=["min", "check", "check_k"])
def test_cover_n_past_the_limit(tmp_path, capsys, argv, n):
    # refused before any list of n entries is built: at 10**18 that list
    # cannot be allocated, and at 10,001 `cover check --k 1` would list
    # 10,000 uncovered elements
    path = write(tmp_path, "c.json", {"n": n, "members": [[1]], "weights": ["1"]})
    code, out, err = invoke(capsys, [*argv, "--cover", path])
    assert (code, out, err) == (2, "", f"error: n is outside the index range: {n}\n")


class TestReadFailures:
    """A JSON document that cannot be read exits 2 with one error line."""

    DEEP = "recursion depth exceeded while decoding a JSON array"

    def test_dist_is_a_directory(self, tmp_path, capsys):
        code, out, err = invoke(capsys, ["entropy", "--dist", str(tmp_path)])
        assert (code, out, err) == (2, "", f"error: {tmp_path}: Is a directory\n")

    def test_dist_path_through_a_file(self, tmp_path, capsys):
        path = write(tmp_path, "d.json", UNIFORM2) + "/x"
        code, out, err = invoke(capsys, ["entropy", "--dist", path])
        assert (code, out, err) == (2, "", f"error: {path}: Not a directory\n")

    def test_dist_path_with_nul(self, capsys):
        code, out, err = invoke(capsys, ["entropy", "--dist", "a\x00b"])
        assert (code, out, err) == (2, "", "error: a\x00b: embedded null byte\n")

    def test_missing_long_path_is_cut(self, tmp_path, capsys):
        path = str(tmp_path / "d.json")
        path = path[:-6] + "x" * (150 - len(path)) + "d.json"
        assert len(path) == 150
        code, out, err = invoke(capsys, ["entropy", "--dist", path])
        assert (code, out) == (2, "")
        assert err == f"error: no such file: {path[:ECHO_CHARS]}... (150 characters)\n"

    def test_path_of_5000_characters_is_cut(self, capsys):
        path = "x" * 5000
        code, out, err = invoke(capsys, ["entropy", "--dist", path])
        assert (code, out) == (2, "")
        assert err == f"error: {'x' * ECHO_CHARS}... (5000 characters): File name too long\n"

    def test_load_json_reads_the_file(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps(UNIFORM2))
        assert jsonio.load_json(str(path)) == UNIFORM2
        path.write_text('{"support": [[0]],}')
        with pytest.raises(entroset.SchemaError) as caught:
            jsonio.load_json(str(path))
        assert str(caught.value) == (
            f"{path}:1:19: Expecting property name enclosed in double quotes")

    def test_dist_nested_too_deep(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = invoke(capsys, ["entropy", "--dist", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: maximum ") and self.DEEP in err
        assert err.count("\n") == 1

    LINES = ["{", '  "support": [[0], [1]],', '  "probs": ["1/2", "1/2"]', "}"]

    @pytest.mark.parametrize("data, message", [
        ("\r\n".join(LINES[:2] + ['  "probs": ["1/2", "1/2",]'] + LINES[3:]).encode(),
         ":3:26: Expecting value"),
        ("\r".join(LINES[:2] + ['  "probs": ["1/2" "1/2"]'] + LINES[3:]).encode(),
         ":3:19: Expecting ',' delimiter"),
        (b"\xef\xbb\xbf" + json.dumps(UNIFORM2).encode(),
         ":1:1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        (json.dumps(UNIFORM2).encode("utf-16"),
         ": 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b'{"support": [[0]], "probs": ["1\t"]}', ":1:32: Invalid control character at"),
        (b"", ":1:1: Expecting value"),
    ], ids=["crlf", "lone_cr", "utf8_bom", "utf16", "control_character", "empty"])
    def test_dist_bytes_refused(self, tmp_path, capsys, data, message):
        path = tmp_path / "d.json"
        path.write_bytes(data)
        code, out, err = invoke(capsys, ["entropy", "--dist", str(path)])
        assert (code, out, err) == (2, "", f"error: {path}{message}\n")

    def test_dist_with_crlf_lines(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        path.write_bytes("\r\n".join(self.LINES).encode())
        code, out, err = invoke(capsys, ["entropy", "--dist", str(path)])
        assert (code, json.loads(out), err) == (0, {"entropy": 1.0}, "")

    def test_lift_y_nested_too_deep(self, tmp_path, capsys):
        dist = write(tmp_path, "d.json", {"support": [[1], [2], [3], [4]], "probs": ["1/4"] * 4})
        fmap = write(tmp_path, "f.json", MOD2_MAP)
        y = "[" * 60_000 + "]" * 60_000
        code, out, err = invoke(
            capsys, ["ruzsa", "lift", "--dist", dist, "--k", "4", "--map", fmap, "--y", y]
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: --y must be a JSON array of elements: maximum ")
        assert self.DEEP in err and err.count("\n") == 1


def nested(depth: int) -> str:
    """A JSON array holding 0 at `depth` levels of nesting."""
    return "[" * depth + "0" + "]" * depth


class TestEchoBound:
    """Every error that repeats an offending value shows at most ECHO_CHARS
    characters of it."""

    def assert_one_short_line(self, code, out, err, message):
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}: ")
        assert err.count("\n") == 1 and len(err) < len(message) + ECHO_CHARS + 40

    def test_dist_support_entry_nested(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        path.write_text(f'{{"support": [[0], {nested(500)}], "probs": ["1/2", "1/2"]}}')
        code, out, err = invoke(capsys, ["entropy", "--dist", str(path)])
        self.assert_one_short_line(code, out, err, "element coordinates must be integers")

    def test_lift_y_nested(self, tmp_path, capsys):
        dist = write(tmp_path, "d.json", {"support": [[1], [2], [3], [4]], "probs": ["1/4"] * 4})
        fmap = write(tmp_path, "f.json", MOD2_MAP)
        code, out, err = invoke(
            capsys, ["ruzsa", "lift", "--dist", dist, "--k", "4", "--map", fmap,
                     "--y", nested(500)]
        )
        self.assert_one_short_line(code, out, err, "element coordinates must be integers")

    def test_not_an_array(self, tmp_path, capsys):
        path = write(tmp_path, "d.json", {"support": "x" * 5000, "probs": ["1"]})
        code, out, err = invoke(capsys, ["entropy", "--dist", path])
        message = "distribution field 'support' must be an array"
        self.assert_one_short_line(code, out, err, message)
        assert err == f"error: {message}: '{'x' * (ECHO_CHARS - 1)}... (5002 characters)\n"

    LONG = {
        "dimension_of_200_ints": (
            "pointset", {"dimension": list(range(200)), "points": [[0]]},
            "point set field 'dimension' must be an integer"),
        "decimal_of_300_characters": (
            "dist", {"support": [[0]], "probs": ["0." + "1" * 298]},
            "rationals must be decimal-free 'p/q' strings"),
        "rational_string_of_300_characters": (
            "dist", {"support": [[0]], "probs": ["x" * 300]}, "not a rational string"),
        "probability_of_200_ints": (
            "dist", {"support": [[0]], "probs": [list(range(200))]}, "not an exact rational"),
        "map_entry_of_200_ints": (
            "map", {"table": [list(range(200))]}, "map table entries are [key, value] pairs"),
        "member_of_300_characters": (
            "cover", {"n": 2, "members": ["x" * 300]}, "index sets are 1-based arrays"),
        "member_of_200_duplicates": (
            "cover", {"n": 2, "members": [[1] * 200]}, "duplicate indices"),
        "member_of_200_negatives": (
            "cover", {"n": 2, "members": [list(range(-199, 1))]}, "indices must be >= 1"),
        # the value sits inside the sentence
        "member_of_200_past_n": (
            "cover", {"n": 2, "members": [list(range(1, 201))]}, "member (1, 2, 3,"),
        "uncovered_2000_elements": (
            "cover_min", {"n": 2000, "members": [[1]]}, "elements [2, 3, 4,"),
        "duplicate_key_of_200_ints": (
            "map", {"table": [[list(range(200)), [0]], [list(range(200)), [1]]]},
            "duplicate key in map table: (0, 1,"),
    }

    @pytest.mark.parametrize("case", sorted(LONG))
    def test_long_value_is_cut(self, tmp_path, capsys, case):
        kind, doc, message = self.LONG[case]
        path = write(tmp_path, "doc.json", doc)
        argv = {
            "pointset": ["project", "--pointset", path, "--indices", "1"],
            "dist": ["entropy", "--dist", path],
            "map": ["pushforward", "--map", path, "--dist", path],
            "cover": ["cover", "check", "--cover", path],
            "cover_min": ["cover", "min", "--cover", path],
        }[kind]
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert re.search(r"\.\.\. \(\d+ characters\)", err)
        assert len(err) < len(message) + ECHO_CHARS + 60

    def test_short_value_is_whole(self, tmp_path, capsys):
        path = write(tmp_path, "c.json", {"n": 2, "members": [[2, 1, 2]]})
        code, out, err = invoke(capsys, ["cover", "check", "--cover", path])
        assert (code, out, err) == (2, "", "error: duplicate indices: [2, 1, 2]\n")

    # computed values: a cover's counts and coverage, an index set past the dimension
    COMPUTED = {
        "shearer_counts": (
            ["check", "shearer", "--k", "2", "--side", "sets"], {"members": [[1]]},
            "not a uniform 2-cover: counts [1, 0, 0,", "not a uniform 2-cover: counts [1, 0]"),
        "projection_coverage": (
            ["check", "projection", "--side", "sets"], {"members": [[1]], "weights": ["1"]},
            "not a fractional cover: coverage ['1', '0', '0',",
            "not a fractional cover: coverage ['1', '0']"),
        "project_indices": (
            ["project", "--indices"], None, "index set (1, 2, 3,", "index set (1, 2) exceeds"),
    }

    @pytest.mark.parametrize("case", sorted(COMPUTED))
    @pytest.mark.parametrize("n", [2, 3000], ids=["short", "long"])
    def test_computed_value(self, tmp_path, capsys, case, n):
        argv, cover, long_message, short_message = self.COMPUTED[case]
        points = write(tmp_path, "a.json", {"dimension": 1, "points": [[0]]})
        if cover is None:
            argv = [*argv, ",".join(map(str, range(1, n + 1))), "--pointset", points]
        else:
            argv = [*argv, "--cover", write(tmp_path, "c.json", {"n": n, **cover}),
                    "--input", points]
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (2, "") and err.count("\n") == 1
        if n == 2:  # a short value is shown whole, as it always was
            assert err == f"error: {short_message}{' dimension 1' if cover is None else ''}\n"
        else:
            assert err.startswith(f"error: {long_message}")
            assert re.search(r"\.\.\. \(\d+ characters\)", err)
            assert len(err) < len(long_message) + ECHO_CHARS + 60

    def test_int_past_the_digit_limit(self):
        # repr and str of an int of more than 4300 digits raise ValueError
        huge = 10**5000
        assert _echo([huge]) == "a value of type list too large to show"
        X = entroset.RationalDist([(0,), (1,)], ["1/2", "1/2"])
        ident = entroset.FiniteMap.identity(X.support)
        spec = entroset.InequalitySpec(ident, [ident], [1])
        first = entroset.IndexSet([1])
        calls = {
            "project_set needs a PointSet: ": lambda: entroset.project_set(huge, first),
            "all points must have dimension ": lambda: PointSet(huge, [(1,)]),
            "k=": lambda: entroset.RuzsaSpec(X, -huge),
            "no suitable k <= ": lambda: entroset.empirical_lemma1(spec, X, -huge),
        }
        for prefix, call in calls.items():
            shown = re.escape(prefix) + "a value of type int too large to show"
            with pytest.raises(EntrosetError, match=f"^{shown}"):
                call()

    @staticmethod
    def coprime_fifths():
        """Ten outcomes of probability 1/(5d) and (d-1)/(5d), for five pairwise coprime
        d (none a multiple of 5) just above 10**1000, and their minimal suitable k.

        Each probability is written in about 2,000 digits, but k = 5 prod d has
        about 5,000: past the int-to-str digit limit.
        """
        ds: list[int] = []
        d = 10**1000
        while len(ds) < 5:
            d += 1
            if d % 5 and all(math.gcd(d, e) == 1 for e in ds):
                ds.append(d)
        probs = [p for d in ds for p in (Fraction(1, 5 * d), Fraction(d - 1, 5 * d))]
        k = 5 * math.prod(ds)
        assert math.lcm(*(p.denominator for p in probs)) == k and k.bit_length() > 3.33 * 4300
        return [(i,) for i in range(10)], probs, k

    NUMBER_ECHOES = {
        "ruzsa size": ["ruzsa", "size", "--dist", "<d>", "--k", "0"],
        "ruzsa bound": ["ruzsa", "bound", "--dist", "<d>", "--k", "0"],
        "ruzsa enum": ["ruzsa", "enum", "--dist", "<d>", "--k", "0"],
        "ruzsa converge": ["ruzsa", "converge", "--dist", "<d>", "--ks", "0"],
        "check lemma1": ["check", "lemma1", "--spec", "<s>", "--input", "<d>", "--kmax", "1"],
        "check lemma1 at the limit": ["check", "lemma1", "--spec", "<s>", "--input", "<d>",
                                      "--kmax", "9" * 4299],
    }

    @pytest.mark.parametrize("case", sorted(NUMBER_ECHOES))
    def test_exact_number_past_the_digit_limit(self, tmp_path, capsys, case):
        """A computed number past the digit limit in a message is cut, not a traceback."""
        support, probs, k = self.coprime_fifths()
        identity = {"table": [[list(x), list(x)] for x in support]}
        files = {
            "<d>": write(tmp_path, "d.json", {"support": [list(x) for x in support],
                                              "probs": [str(p) for p in probs]}),
            "<s>": write(tmp_path, "s.json", {"lhs_map": identity, "rhs_maps": [identity],
                                              "coefficients": ["1"]}),
        }
        argv = [files.get(arg, arg) for arg in self.NUMBER_ECHOES[case]]
        code, out, err = invoke(capsys, argv)
        shown = _cut(lifted_str(k))
        assert shown.endswith(f"... ({len(lifted_str(k))} characters)")
        message = f"k=0 must be a positive multiple of the probability denominator d={shown}"
        if case.startswith("check lemma1"):
            message = f"no suitable k <= {_cut(argv[-1])} (minimal is {shown})"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_exact_number_past_the_digit_limit_api(self):
        support, probs, k = self.coprime_fifths()
        X = entroset.RationalDist(support, probs)
        ident = entroset.FiniteMap.identity(support)
        spec = entroset.InequalitySpec(ident, [ident], [1])
        shown = _cut(lifted_str(k))
        calls = {
            f"k=0 must be a positive multiple of the probability denominator d={shown}":
                lambda: entroset.RuzsaSpec(X, 0),
            f"no suitable k <= 1 (minimal is {shown})":
                lambda: entroset.empirical_lemma1(spec, X, 1),
            f"k_max // k_min exceeds the row limit 10000 (k_min = {shown})":
                lambda: entroset.empirical_lemma1(spec, X, k * 10**5),
        }
        for message, call in calls.items():
            with pytest.raises(EntrosetError) as info:
                call()
            assert str(info.value) == message

    def test_limit_past_the_digit_limit_is_cut(self):
        # C(16000, 8000) has 4,815 digits and the limit below it 4,401; both are cut
        spec = entroset.RuzsaSpec(entroset.RationalDist.uniform([0, 1]), 16000)
        limit = 10**4400
        with pytest.raises(entroset.SizeGuardError) as info:
            next(entroset.ruzsa_enumerate(spec, limit=limit))
        size = _cut(lifted_str(math.comb(16000, 8000)))
        assert str(info.value) == (
            f"enumeration of {size} vectors exceeds limit {_cut(lifted_str(limit))}")

    def test_cover_n_past_the_digit_limit_is_cut(self, tmp_path, capsys):
        with pytest.raises(entroset.SchemaError) as info:
            entroset.CoverSpec(10**5000, [[1]])
        shown = f"1{'0' * (ECHO_CHARS - 1)}... (5001 characters)"
        assert str(info.value) == f"n is outside the index range: {shown}"
        # a JSON int stays within the digit limit
        path = write(tmp_path, "c.json", {"n": 10**4000, "members": [[1]]})
        code, out, err = invoke(capsys, ["cover", "check", "--cover", path])
        shown = f"1{'0' * (ECHO_CHARS - 1)}... (4001 characters)"
        assert (code, out, err) == (2, "", f"error: n is outside the index range: {shown}\n")

    def test_k_of_300_digits_is_cut(self, tmp_path, capsys):
        # 10**300 is inside the float range, so the uniform-cover checks echo it
        k, cover = 10**300, entroset.CoverSpec(1, [[1]])
        shown = f"1{'0' * (ECHO_CHARS - 1)}... (301 characters)"
        with pytest.raises(entroset.CoverError) as info:
            entroset.check_shearer(PointSet(1, [[0], [1]]), cover, k, "sets")
        assert str(info.value) == f"not a uniform {shown}-cover: counts [1]"
        with pytest.raises(entroset.SchemaError) as info:
            uniform_cover_as_fractional(cover, k)
        assert str(info.value) == f"not a uniform {shown}-cover"
        argv = ["check", "shearer", "--k", str(k), "--side", "sets",
                "--cover", write(tmp_path, "c.json", {"n": 1, "members": [[1]]}),
                "--input", write(tmp_path, "a.json", {"dimension": 1, "points": [[0], [1]]})]
        code, out, err = invoke(capsys, argv)
        assert (code, out, err) == (2, "", f"error: not a uniform {shown}-cover: counts [1]\n")

    def test_cut_past_echo_chars(self):
        value = [0, "a" * (ECHO_CHARS - 7)]  # a repr of exactly ECHO_CHARS characters
        assert _echo(value) == repr(value) and len(repr(value)) == ECHO_CHARS
        longer = [1, *value]
        assert _echo(longer) == f"{repr(longer)[:ECHO_CHARS]}... ({ECHO_CHARS + 3} characters)"

    def test_nested_past_repr(self):
        value = 0
        for _ in range(100_000):
            value = [value]
        assert _echo(value) == "a list nested too deep to show"
        with pytest.raises(EntrosetError, match="^element coordinates must be integers: a list "):
            PointSet(1, [[value]])


class TestDocumentDecoding:
    """Point set, distribution, map and spec documents of the wrong JSON type exit 2."""

    IDENTITY2 = {"table": [[[a, b], [a, b]] for a in range(2) for b in range(2)]}
    FIRST2 = {"table": [[[a, b], [a]] for a in range(2) for b in range(2)]}
    CASES = {
        "points_int": ("pointset", {"dimension": 2, "points": 5},
                       "point set field 'points' must be an array: 5"),
        "dimension_bool": ("pointset", {"dimension": True, "points": [[0], [1]]},
                           "point set field 'dimension' must be an integer: True"),
        "dimension_float": ("pointset", {"dimension": 2.0, "points": [[0, 1]]},
                            "point set field 'dimension' must be an integer: 2.0"),
        "support_int": ("dist", {"support": 3, "probs": ["1"]},
                        "distribution field 'support' must be an array: 3"),
        "probs_string": ("dist", {"support": [[0]], "probs": "1"},
                         "distribution field 'probs' must be an array: '1'"),
        "table_int": ("map", {"table": 5}, "map field 'table' must be an array: 5"),
        "table_object": ("map", {"table": {"0": [0]}},
                         "map field 'table' must be an array: {'0': [0]}"),
        "rhs_maps_object": (
            "spec",
            {"lhs_map": IDENTITY2, "rhs_maps": FIRST2, "coefficients": ["1"]},
            f"inequality spec field 'rhs_maps' must be an array: {FIRST2!r}",
        ),
        "rhs_table_int": (
            "spec",
            {"lhs_map": IDENTITY2, "rhs_maps": [{"table": 5}], "coefficients": ["1"]},
            "map field 'table' must be an array: 5",
        ),
        "coefficients_string": (
            "spec",
            {"lhs_map": IDENTITY2, "rhs_maps": [FIRST2], "coefficients": "1"},
            "inequality spec field 'coefficients' must be an array: '1'",
        ),
        # documents with more than one fault: the first in document order wins
        "duplicate_key_before_bad_value": (
            "map", {"table": [[[0], [1]], [[0], [0]], [[1], [True]]]},
            "duplicate key in map table: (0,)",
        ),
        "bad_value_before_duplicate_key": (
            "map", {"table": [[[0], [True]], [[0], [0]], [[1], [0]]]},
            "element coordinates must be integers: [True]",
        ),
        "bad_key_after_bad_value": (
            "map", {"table": [[[0], [1.5]], [["1"], [0]]]},
            "element coordinates must be integers: [1.5]",
        ),
        "bad_pair_after_bad_value": (
            "map", {"table": [[[0], []], [[1], [0], [2]]]},
            "map table entries are [key, value] pairs: [[1], [0], [2]]",
        ),
        "rhs_duplicate_key": (
            "spec",
            {"lhs_map": IDENTITY2, "rhs_maps": [{"table": FIRST2["table"] + [[[0, 0], [9]]]}],
             "coefficients": ["1"]},
            "duplicate key in map table: (0, 0)",
        ),
        "point_500_bool": (
            "pointset",
            {"dimension": 2,
             "points": [[i, 0] for i in range(499)] + [[1, True], [0, 1.5], []]},
            "element coordinates must be integers: [1, True]",
        ),
        "point_empty_before_float": (
            "pointset", {"dimension": 2, "points": [[0, 0], [], [0, 1.5]]},
            "element coordinates must be integers: []",
        ),
        "point_scalar_in_dim_2": (
            "pointset", {"dimension": 2, "points": [[0, 0], 3]},
            "all points must have dimension 2",
        ),
        "support_bool": (
            "dist", {"support": [[0], [False]], "probs": ["1/2", "1/2"]},
            "element coordinates must be integers: [False]",
        ),
        # JSON's decimal check runs on every probability before the
        # constructor reads one; it checks the lengths, then the support,
        # then reads the probabilities in order
        "decimal_after_zero_denominator": (
            "dist", {"support": [[1], [2]], "probs": ["1/0", "0.5"]},
            "rationals must be decimal-free 'p/q' strings: '0.5'",
        ),
        "decimal_before_zero_denominator": (
            "dist", {"support": [[1], [2]], "probs": ["0.5", "1/0"]},
            "rationals must be decimal-free 'p/q' strings: '0.5'",
        ),
        "length_before_bad_prob": (
            "dist", {"support": [[1]], "probs": ["abc", "1/2"]},
            "support and probs must have equal length",
        ),
        "bad_element_before_bad_prob": (
            "dist", {"support": [[1], ["x"]], "probs": ["1/2", "abc"]},
            "element coordinates must be integers: ['x']",
        ),
        "bad_element_before_zero_denominator": (
            "dist", {"support": [[True], [1]], "probs": ["1/0", "1"]},
            "element coordinates must be integers: [True]",
        ),
        # a decimal coefficient is refused before the spec reads its tables
        "decimal_coefficient_before_bad_table_entry": (
            "spec",
            {"lhs_map": IDENTITY2, "rhs_maps": [{"table": [[[0, 0], [True]]]}],
             "coefficients": ["0.5"]},
            "rationals must be decimal-free 'p/q' strings: '0.5'",
        ),
        "bad_table_entry_before_bad_coefficient": (
            "spec",
            {"lhs_map": IDENTITY2, "rhs_maps": [{"table": [[[0, 0], [True]]]}],
             "coefficients": ["abc"]},
            "element coordinates must be integers: [True]",
        ),
        "bad_element_before_negative_prob": (
            "dist", {"support": [[1], ["x"]], "probs": ["-1/2", "3/2"]},
            "element coordinates must be integers: ['x']",
        ),
        # int() refuses a string past sys.get_int_max_str_digits() (4300)
        "numerator_of_5000_digits": (
            "dist", {"support": [[1]], "probs": ["1" * 5000]},
            f"not a rational string: '{'1' * (ECHO_CHARS - 1)}... (5002 characters)",
        ),
    }
    GOOD = {
        "pointset": TRIANGLE_SET,
        "dist": UNIFORM2,
        "map": {"table": [[[0], [1]], [[1], [0]]]},
        "spec": {"lhs_map": IDENTITY2, "rhs_maps": [FIRST2, FIRST2], "coefficients": ["1", "1"]},
    }

    def argv(self, tmp_path, kind, path):
        if kind == "pointset":
            return ["project", "--pointset", path, "--indices", "1"]
        if kind == "dist":
            return ["entropy", "--dist", path]
        if kind == "map":
            return ["pushforward", "--map", path, "--dist", write(tmp_path, "d.json", UNIFORM2)]
        square = {"support": [[0, 0], [1, 1]], "probs": ["1/2", "1/2"]}
        return ["check", "entropy", "--spec", path, "--input", write(tmp_path, "x.json", square)]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_schema_error(self, tmp_path, capsys, case):
        kind, doc, message = self.CASES[case]
        argv = self.argv(tmp_path, kind, write(tmp_path, "doc.json", doc))
        code, out, err = invoke(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("kind", sorted(GOOD))
    def test_good_document_accepted(self, tmp_path, capsys, kind):
        argv = self.argv(tmp_path, kind, write(tmp_path, "doc.json", self.GOOD[kind]))
        code, out, err = invoke(capsys, argv)
        assert (code, err) == (0, "")
        assert json.loads(out)


def decoded(decode, doc):
    """The decoded value, or the type and message of the error raised."""
    try:
        return "ok", decode(doc)
    except EntrosetError as exc:
        return type(exc).__name__, str(exc)


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.integers(), st.floats(), st.text(max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=10,
)


def mostly(strategy, other=json_values):
    """`strategy` in about four draws of five, else `other`."""
    return st.integers(0, 4).flatmap(lambda i: other if i == 0 else strategy)


# mostly well-formed, so that most documents reach the constructors
json_elements = mostly(
    st.lists(st.integers(0, 1), min_size=1, max_size=2),
    st.one_of(st.lists(st.one_of(st.integers(0, 1), json_scalars), max_size=3), json_values),
)
# strings that `Fraction` reads but a split on "/" and `int` would not, or
# the reverse: signs, spaces, underscores, non-ASCII digits, empty parts,
# zero denominators and parts past the int digit limit
AWKWARD_RATIONALS = [
    "+1/2", " 1/2", "1/2 ", "\t1\n", "-0", "01/002", "1_0/20", "1__0/20", "_1/2",
    "\u0661/\u0662", "\uff11/\uff12", "\u00b2", "1/\u00b2", "0/0", "/2", "1/", "/",
    "1/2/3", "1 / 2", "1.", "1/-2", "1" * 4301, "1/" + "2" * 4301, "0" * 5000 + "1",
]
json_rationals = st.one_of(
    st.sampled_from(["1", "0", "1/2", "1/3", "2/3", "-1/2", "1/0", "x", "1.5", "1e3", ""]),
    st.sampled_from(AWKWARD_RATIONALS),
    json_values,
)


def json_docs(fields: dict):
    """Documents with the given fields, now and then any JSON value in a field's place."""
    return mostly(st.fixed_dictionaries({k: mostly(v) for k, v in fields.items()}))


def json_probs(count: int):
    """`count` probabilities, mostly uniform so that they sum to 1."""
    return mostly(
        st.just([f"1/{count}"] * count),
        st.lists(json_rationals, min_size=count, max_size=count),
    )


@st.composite
def json_dist_docs(draw):
    count = draw(st.integers(1, 4))
    return draw(json_docs({
        "support": st.lists(json_elements, min_size=count, max_size=count),
        "probs": json_probs(count),
    }))


def has_decimal(value) -> bool:
    return isinstance(value, str) and any(c in value for c in ".eE")


@st.composite
def decimal_free_dist_docs(draw):
    """Distribution documents whose fields are arrays, now and then of unequal
    lengths, with no decimal string among the probabilities."""
    count = draw(st.integers(1, 4))
    support = draw(st.lists(json_elements, min_size=count, max_size=count))
    probs = draw(json_probs(draw(mostly(st.just(count), st.integers(1, 4)))))
    assume(isinstance(probs, list) and not any(map(has_decimal, probs)))
    return {"support": support, "probs": probs}


map_docs = json_docs({
    "table": st.lists(mostly(st.lists(json_elements, min_size=2, max_size=2)), min_size=1, max_size=5)
})


@st.composite
def json_spec_docs(draw):
    count = draw(st.integers(1, 3))
    return draw(json_docs({
        "lhs_map": map_docs,
        "rhs_maps": st.lists(map_docs, min_size=count, max_size=count),
        "coefficients": st.lists(json_rationals, min_size=count, max_size=count),
    }))


DECODER_DOCS = {
    "pointset": (jsonio.pointset_from_json, json_docs({
        "dimension": st.integers(0, 2),
        "points": st.lists(json_elements, min_size=1, max_size=6),
    })),
    "dist": (jsonio.dist_from_json, json_dist_docs()),
    "map": (jsonio.map_from_json, map_docs),
    "spec": (jsonio.ineq_spec_from_json, json_spec_docs()),
}


def usually(strategy, other):
    """`strategy` in about five draws of six, else `other`.

    Unlike `mostly`, the simplest draw (the one hypothesis favours) is `strategy`.
    """
    return st.integers(0, 5).flatmap(lambda i: other if i == 5 else strategy)


@st.composite
def cli_world(draw):
    """One well-formed document of each kind, all over the grid {0,1}^d.

    The documents fit one another (a map's domain holds the distribution's
    support, a cover is over [d]) so that many runs get past decoding; `k`
    is a suitable length for the distribution, at most 8, and `y` a vector
    of the k-set of the distribution's image under the map.
    """
    d = draw(st.integers(1, 3))
    grid = [list(x) for x in product(range(2), repeat=d)]
    subsets = st.lists(st.sampled_from(grid), min_size=1, max_size=4, unique_by=tuple)

    def table():
        e = draw(st.integers(1, 2))
        images = st.lists(st.lists(st.integers(0, 1), min_size=e, max_size=e),
                          min_size=len(grid), max_size=len(grid))
        return {"table": [[x, y] for x, y in zip(grid, draw(images))]}

    support = draw(subsets)
    weights = draw(st.lists(st.integers(1, 2), min_size=len(support), max_size=len(support)))
    total = sum(weights)
    k = total if total > 4 else 2 * total
    f = table()
    image = dict((tuple(x), y) for x, y in f["table"])
    y = [image[tuple(x)] for x, w in zip(support, weights) for _ in range(w * k // total)]
    count = draw(st.integers(1, 3))
    members = st.lists(st.integers(1, d), min_size=1, max_size=d, unique=True)
    cover = {"n": d, "members": draw(st.lists(members, min_size=1, max_size=4))}
    if draw(st.booleans()):
        cover["weights"] = draw(st.lists(st.sampled_from(["1", "1/2", "0"]),
                                         min_size=len(cover["members"]),
                                         max_size=len(cover["members"])))
    return {
        "dist": {"support": support, "probs": [f"{w}/{total}" for w in weights]},
        "pointset": {"dimension": d, "points": draw(subsets)},
        "map": f,
        "spec": {"lhs_map": table(), "rhs_maps": [table() for _ in range(count)],
                 "coefficients": draw(st.lists(st.sampled_from(["1", "1/2", "2", "0", "-1"]),
                                               min_size=count, max_size=count))},
        "cover": cover,
        "k": str(k),
        "y": json.dumps(draw(st.permutations(y))),
    }


cover_docs = json_docs({
    "n": st.integers(0, 3),
    "members": st.lists(mostly(st.lists(st.integers(0, 4), max_size=3)), min_size=1, max_size=4),
})
# documents of any shape, for the runs that do not take the well-formed one
CLI_DOCS = {
    "dist": json_dist_docs(),
    "map": map_docs,
    "pointset": DECODER_DOCS["pointset"][1],
    "spec": json_spec_docs(),
    "cover": cover_docs,
}
json_text = st.one_of(json_values.map(json.dumps), st.just("["))
# flag texts: mostly valid, now and then of the wrong type or out of range
INTS = st.sampled_from(["1", "2", "3", "0", "-1", "x"])
INDEX_LISTS = st.sampled_from(["1", "2", "1,2", "2,1", "1,3", "", "0", "4", "1,1", "x"])
GLOBAL_FLAGS = {
    "--tolerance": st.sampled_from(["1e-9", "1e-2", "1e-12", "0", "nan", "x"]),
    "--base": st.sampled_from(["2", "e", "e", "10"]),
    "--limit": st.sampled_from(["1000", "1000000", "1000000", "0"]),
    "--seed": st.sampled_from(["0", "7", "-3"]),
    "--format": st.sampled_from(["json", "table", "table", "xml"]),
}
# every leaf subcommand: its words, then each flag with a document kind
# (written to a file), "k" or "y" for the world's text, a strategy for its
# text, or None for a switch
CLI_COMMANDS = {
    "entropy": (["entropy"], {"--dist": "dist"}),
    "pushforward": (["pushforward"], {"--map": "map", "--dist": "dist"}),
    "suitable": (["suitable"], {"--dist": "dist", "--k": "k"}),
    "rationalize": (["rationalize"], {
        "--weights": st.sampled_from(["1,2", "0.4999,0.5001", "1,1,1", "0,0", "nan,1", "-1,2",
                                      "1e308,1e308", "", "x"]),
        "--max-denominator": st.sampled_from(["1", "2", "8", "16", "17", "0", "x"]),
    }),
    **{f"ruzsa {name}": (["ruzsa", name], {"--dist": "dist", "--k": "k"})
       for name in ("size", "enum", "bound")},
    "ruzsa commute": (["ruzsa", "commute"], {"--dist": "dist", "--k": "k", "--map": "map"}),
    "ruzsa lift": (["ruzsa", "lift"], {"--dist": "dist", "--k": "k", "--map": "map",
                                       "--y": "y"}),
    "ruzsa converge": (["ruzsa", "converge"], {"--dist": "dist", "--ks": "k"}),
    "project sets": (["project"], {"--pointset": "pointset", "--indices": INDEX_LISTS}),
    "project dist": (["project"], {"--dist": "dist", "--indices": INDEX_LISTS}),
    "condsize": (["condsize"], {"--pointset": "pointset", "--t": INDEX_LISTS, "--s": INDEX_LISTS}),
    "condentropy": (["condentropy"], {"--dist": "dist", "--s": INDEX_LISTS, "--c": INDEX_LISTS}),
    "cover check": (["cover", "check"], {"--cover": "cover", "--k": INTS}),
    "cover min": (["cover", "min"], {"--cover": "cover"}),
    **{f"check {name}": (["check", name], {"--spec": "spec", "--input": kind})
       for name, kind in (("entropy", "dist"), ("cardinality", "pointset"))},
    **{f"check {name} {side}": (["check", name], {
        "--cover": "cover", "--input": kind, "--side": st.sampled_from([side, side, "x"]),
        **({"--k": INTS} if name == "shearer" else {}),
    }) for name in ("shearer", "projection")
       for side, kind in (("sets", "pointset"), ("entropy", "dist"))},
    "check lemma1": (["check", "lemma1"], {
        "--spec": "spec", "--input": "dist", "--kmax": "k", "--cross-validate": None,
    }),
    "witness lemma2": (["witness", "lemma2"], {"--map": "map", "--points": "pointset"}),
    "demo": (["demo"], {}),
}


def run_cli(argv):
    """(exit code, stdout, stderr) of one `cli.run`; an argparse usage error exits 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestDecoderFuzz:
    """Decoders given any JSON value return or raise an EntrosetError, nothing else.

    `cli.run` given generated documents and flags for every subcommand exits
    0, 1, 2 or 3 (an argparse usage error exits 2), lets no exception out,
    and prints the same bytes when run again.
    """

    @pytest.mark.parametrize("kind", sorted(DECODER_DOCS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_only_entroset_errors(self, kind, data):
        decode, docs = DECODER_DOCS[kind]
        doc = json.loads(json.dumps(data.draw(docs)))
        try:
            decode(doc)
        except EntrosetError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(doc=json_dist_docs())
    def test_dist_matches_fraction_decoder(self, doc):
        """`dist_from_json` against a decoder that reads each entry as a Fraction:
        every decimal check, then the lengths, then the support, then the entries."""
        doc = json.loads(json.dumps(doc))

        def through_fractions(doc):
            support = jsonio._array(jsonio._expect(doc, "support", "distribution"),
                                    "distribution field 'support'")
            probs = jsonio._array(jsonio._expect(doc, "probs", "distribution"),
                                  "distribution field 'probs'")
            for p in probs:
                if has_decimal(p):
                    raise entroset.SchemaError(
                        f"rationals must be decimal-free 'p/q' strings: {_echo(p)}")
            if len(support) != len(probs):
                raise entroset.SchemaError("support and probs must have equal length")
            as_elements(support)
            fracs = [Fraction(*reference_ratio(p)) for p in probs]
            return entroset.RationalDist(support, fracs)

        assert decoded(jsonio.dist_from_json, doc) == decoded(through_fractions, doc)

    @settings(max_examples=200, deadline=None)
    @given(doc=decimal_free_dist_docs())
    def test_dist_decoder_is_the_constructor(self, doc):
        """Past JSON's own rules, `dist_from_json` is `RationalDist` on the fields."""
        doc = json.loads(json.dumps(doc))
        assert decoded(jsonio.dist_from_json, doc) == decoded(
            lambda doc: entroset.RationalDist(doc["support"], doc["probs"]), doc)

    @pytest.mark.parametrize("command", sorted(CLI_COMMANDS))
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_cli_run(self, command, data):
        words, flags = CLI_COMMANDS[command]
        world = data.draw(cli_world())
        with tempfile.TemporaryDirectory() as tmp:
            argv = [f"{flag}={data.draw(text)}" for flag, text in GLOBAL_FLAGS.items()
                    if data.draw(st.integers(0, 2)) == 2]
            argv += words
            for flag, value in flags.items():
                # a flag is left out now and then, a switch half the time
                if data.draw(st.integers(0, 1 if value is None else 7)) == 1:
                    continue
                if value is None:
                    argv.append(flag)
                    continue
                if value in ("k", "y"):
                    value = usually(st.just(world[value]), INTS if value == "k" else json_text)
                elif isinstance(value, str):
                    path = Path(tmp) / f"{flag[2:]}.json"
                    doc = data.draw(usually(st.just(world[value]), CLI_DOCS[value]))
                    path.write_text(json.dumps(doc))
                    value = st.just(str(path))
                argv.append(f"{flag}={data.draw(value)}")
            first = run_cli(argv)
            assert first[0] in (0, 1, 2, 3), first
            assert run_cli(argv) == first
