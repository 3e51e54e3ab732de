"""`cli.run` runs each command with the cyclic garbage collector paused.

The pause is safe because every value a command decodes or builds is
acyclic: reference counting frees all of it, so a collector pass could only
re-walk live data. These tests pin both halves of that claim: `run` leaves
the collector as it found it on every way out, and no command, on success
or on error, leaves cyclic garbage that only the collector could free.
"""

import gc
import json

import pytest

from entroset import cli

GRID2 = [[a, b] for a in range(2) for b in range(2)]
POINTS2 = [[0, 0], [0, 1], [1, 0]]
DOCS = {
    # the uniform distribution on {1, 2, 3, 4} and x -> x mod 2 on it
    "d1": {"support": [[1], [2], [3], [4]], "probs": ["1/4"] * 4},
    "mod2": {"table": [[[x], [x % 2]] for x in range(1, 5)]},
    "a1": {"dimension": 1, "points": [[1], [2], [3]]},
    # three points of {0, 1}^2, as a set and as a uniform distribution
    "a2": {"dimension": 2, "points": POINTS2},
    "d2": {"support": POINTS2, "probs": ["1/3"] * 3},
    "cover2": {"n": 2, "members": [[1], [2]], "weights": ["1", "1"]},
    # |A| <= |A_1| |A_2| and H(X) <= H(X_1) + H(X_2)
    "spec2": {
        "lhs_map": {"table": [[p, p] for p in GRID2]},
        "rhs_maps": [{"table": [[p, [p[i]]] for p in GRID2]} for i in range(2)],
        "coefficients": ["1", "1"],
    },
}

# one argv tail per leaf of the command table; "{name}" stands for a document path
COMMANDS = {
    ("entropy",): ["--dist", "{d1}"],
    ("pushforward",): ["--map", "{mod2}", "--dist", "{d1}"],
    ("suitable",): ["--dist", "{d1}", "--k", "8"],
    ("rationalize",): ["--weights", "0.25,0.75", "--max-denominator", "4"],
    ("ruzsa", "size"): ["--dist", "{d1}", "--k", "4"],
    ("ruzsa", "enum"): ["--dist", "{d1}", "--k", "4"],
    ("ruzsa", "commute"): ["--dist", "{d1}", "--k", "4", "--map", "{mod2}"],
    ("ruzsa", "lift"): ["--dist", "{d1}", "--k", "4", "--map", "{mod2}",
                        "--y", "[[0],[0],[1],[1]]"],
    ("ruzsa", "bound"): ["--dist", "{d1}", "--k", "4"],
    ("ruzsa", "converge"): ["--dist", "{d1}", "--ks", "4,8"],
    ("project",): ["--pointset", "{a2}", "--indices", "2"],
    ("condsize",): ["--pointset", "{a2}", "--t", "2", "--s", "1"],
    ("condentropy",): ["--dist", "{d2}", "--s", "2", "--c", "1"],
    ("cover", "check"): ["--cover", "{cover2}", "--k", "1"],
    ("cover", "min"): ["--cover", "{cover2}"],
    ("check", "entropy"): ["--spec", "{spec2}", "--input", "{d2}"],
    ("check", "cardinality"): ["--spec", "{spec2}", "--input", "{a2}"],
    ("check", "shearer"): ["--cover", "{cover2}", "--input", "{a2}", "--side", "sets",
                           "--k", "1"],
    ("check", "projection"): ["--cover", "{cover2}", "--input", "{d2}", "--side", "entropy"],
    ("check", "lemma1"): ["--spec", "{spec2}", "--input", "{d2}", "--kmax", "6",
                          "--cross-validate"],
    ("witness", "lemma2"): ["--map", "{mod2}", "--points", "{a1}"],
    ("demo",): [],
}


def _leaf_words(level=cli._ROOT, words=()):
    if level.run is not None:
        return [words]
    return [leaf for word, child in level.commands.items()
            for leaf in _leaf_words(child, (*words, word))]


def test_every_leaf_has_a_command_line():
    assert sorted(COMMANDS) == sorted(_leaf_words())


@pytest.fixture
def paths(tmp_path):
    for name, doc in DOCS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    return {name: str(tmp_path / f"{name}.json") for name in DOCS}


def command_line(words, paths, form: str) -> list[str]:
    """The leaf's argv: every document readable, or (form "error") every one missing.

    A leaf that reads no document fails on `--limit 0` instead.
    """
    tail = COMMANDS[words]
    if form == "success":
        return [*words, *(token.format(**paths) for token in tail)]
    if not any("{" in token for token in tail):
        return ["--limit", "0", *words, *tail]
    missing = {name: f"{path}.missing" for name, path in paths.items()}
    return [*words, *(token.format(**missing) for token in tail)]


@pytest.fixture
def collector():
    """Restores the collector's state after the test."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("form", ["success", "error"])
@pytest.mark.parametrize("words", _leaf_words(), ids=" ".join)
def test_no_cyclic_garbage(paths, collector, capsys, words, form):
    argv = command_line(words, paths, form)
    gc.collect()
    gc.disable()
    code = cli.run(argv)
    unreachable = gc.collect()
    out, err = capsys.readouterr()
    if form == "success":
        assert (code, err) == (0, "")
    else:
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
    assert unreachable == 0


@pytest.mark.parametrize("words", _leaf_words(), ids=" ".join)
def test_kept_inputs_print_what_a_fresh_decode_prints(paths, capsys, words):
    """Run twice back to back (the second reads kept values), then once after
    the kept values are dropped: so no command changes a value it shares."""
    argv = command_line(words, paths, "success")
    files = sum("{" in token for token in COMMANDS[words])
    results, hits = [], []
    for clear in (False, False, True):
        if clear:
            cli._decoded.cache_clear()
        code = cli.run(argv)
        results.append((code, *capsys.readouterr()))
        hits.append(cli._decoded.cache_info().hits)
    assert results[0][0] == 0
    assert results[0] == results[1] == results[2]
    assert hits[1] - hits[0] == files and hits[2] == 0


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
class TestCollectorState:
    """`run` pauses the collector for the command and restores it on every way out."""

    @pytest.fixture(autouse=True)
    def start(self, collector, enabled):
        if enabled:
            gc.enable()
        else:
            gc.disable()

    def test_exit_0(self, paths, capsys, enabled):
        assert cli.run(command_line(("entropy",), paths, "success")) == 0
        assert gc.isenabled() is enabled

    def test_entroset_error(self, paths, capsys, enabled):
        assert cli.run(command_line(("entropy",), paths, "error")) == 2
        assert capsys.readouterr().err.startswith("error: no such file: ")
        assert gc.isenabled() is enabled

    def test_usage_error(self, capsys, enabled):
        with pytest.raises(SystemExit) as exc:
            cli.run(["entropy"])  # argparse refuses it before the pause
        assert exc.value.code == 2
        assert gc.isenabled() is enabled

    def test_handler_raises(self, monkeypatch, enabled):
        def broken(args):
            raise RuntimeError("handler failed")

        monkeypatch.setattr(cli, "run_demo", broken)
        with pytest.raises(RuntimeError, match="handler failed"):
            cli.run(["demo"])
        assert gc.isenabled() is enabled

    def test_paused_inside_the_handler(self, monkeypatch, capsys, enabled):
        seen = []

        def handler(args):
            seen.append(gc.isenabled())
            return {"collector_enabled": seen[-1]}, 0

        monkeypatch.setattr(cli, "run_demo", handler)
        assert cli.run(["demo"]) == 0
        assert seen == [False]
        assert json.loads(capsys.readouterr().out) == {"collector_enabled": False}
        assert gc.isenabled() is enabled

    def test_paused_while_formatting(self, monkeypatch, capsys, enabled):
        seen = []

        def fake_dump(doc):
            seen.append(gc.isenabled())
            return "{}"

        monkeypatch.setattr(cli.jsonio, "dump_json", fake_dump)
        monkeypatch.setattr(cli, "run_demo", lambda args: ({}, 0))
        assert cli.run(["demo"]) == 0
        assert seen == [False]
        assert gc.isenabled() is enabled
