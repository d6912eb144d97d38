import io
import json
import os
import subprocess
import sys
import time

import contextlib
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from avoidance import cli
from avoidance.cli import main
from avoidance.constructions import game_to_json, parse_game_spec
from avoidance.core import ExplicitLines
from avoidance.solver import solve_plus


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_gen_pairs_emits_game_json(capsys):
    rc, out, _ = run_cli(capsys, "gen", "pairs", "--b", "3")
    assert rc == 0
    doc = json.loads(out)
    assert doc["n"] == 6
    assert len(doc["lines"]["explicit"]) == 10
    assert all(len(l) == 3 for l in doc["lines"]["explicit"])


def test_gen_accepts_full_spec(capsys):
    rc, out, _ = run_cli(capsys, "gen", "copies(pairs(3),3)")
    assert rc == 0
    assert json.loads(out)["n"] == 18


def test_gen_missing_param_is_usage_error(capsys):
    rc, _, err = run_cli(capsys, "gen", "pairs")
    assert rc == 2
    assert "needs --b" in err


@pytest.mark.parametrize("argv,message", [
    (["martian"], "unknown construction 'martian'"),
    (["copies", "--base", "pairs", "--c", "3"],
     "copies argument base must be a game spec, got 'pairs'"),
])
def test_gen_flags_are_checked_by_the_catalog(capsys, argv, message):
    rc, out, err = run_cli(capsys, "gen", *argv)
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"


def test_solve_plus_reports_the_in_process_solve(capsys):
    rc, out, _ = run_cli(capsys, "solve-plus", "--game", "pairs(3)")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["outcome"], doc["loss_time"], doc["states"]) == ("PIIWin", 5, 148)
    assert doc == {"game": "pairs(3)", **solve_plus(parse_game_spec("pairs(3)")).to_json()}


def test_solve_torus_draw(capsys):
    rc, out, _ = run_cli(capsys, "solve", "--game", "torus(3,1)")
    assert rc == 0
    doc = json.loads(out)
    assert doc["outcome"] == "Draw"
    assert doc["loss_time"] is None


def test_solve_unknown_game_is_refusal(capsys):
    rc, _, err = run_cli(capsys, "solve", "--game", "martian(7)")
    assert rc == 2
    assert "error" in err


def test_solve_cap_refusal_exit_code(capsys):
    rc, _, err = run_cli(capsys, "solve", "--game", "copies(pairs(3),3)")
    assert rc == 2


def test_round_trip_through_file(tmp_path, capsys):
    path = tmp_path / "game.json"
    rc, out, _ = run_cli(capsys, "gen", "pairs", "--b", "3", "--out", str(path))
    assert rc == 0 and path.exists()
    rc, out1, _ = run_cli(capsys, "solve", "--game-file", str(path))
    rc2, out2, _ = run_cli(capsys, "solve", "--game", "pairs(3)")
    assert rc == 0 and rc2 == 0
    assert json.loads(out1)["outcome"] == json.loads(out2)["outcome"]
    assert json.loads(out1)["pv"] == json.loads(out2)["pv"]


def test_game_file_without_n_is_refusal(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"name": "x", "lines": {"explicit": [[0, 1]]},
                                "generators": []}))
    rc, out, err = run_cli(capsys, "solve", "--game-file", str(path))
    assert rc == 2
    assert out == "" and err.startswith("error:")


def test_game_file_swapped_lines_is_refusal(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"n": 6, "name": "pairs(3)",
                                "lines": {"explicit": [[0, 1]]}, "generators": []}))
    rc, out, err = run_cli(capsys, "solve", "--game-file", str(path))
    assert rc == 2
    assert "differ" in err


GAME_COMMANDS = [["check-transitive"], ["solve"], ["solve-plus"], ["earliest-loss"], ["play"],
                 ["verify-strategy", "--strategy", "pairs", "--goal", "win"]]


@pytest.mark.parametrize("command", GAME_COMMANDS, ids=lambda c: c[0])
def test_game_and_game_file_together_are_a_usage_error(tmp_path, capsys, command):
    # one source of the game, never the file's game in place of the spec's
    path = tmp_path / "pairs3.json"
    path.write_text(json.dumps(game_to_json(parse_game_spec("pairs(3)"))))
    rc, out, err = run_cli(capsys, *command, "--game", "cycle(5)", "--game-file", str(path))
    assert rc == 2 and out == ""
    assert "usage:" in err and "--game-file: not allowed with argument --game" in err


@pytest.mark.parametrize("command", GAME_COMMANDS, ids=lambda c: c[0])
def test_a_game_command_without_a_game_is_a_usage_error(capsys, command):
    rc, out, err = run_cli(capsys, *command)
    assert rc == 2 and out == ""
    assert "usage:" in err and "one of the arguments --game --game-file is required" in err


def test_an_empty_game_file_name_is_a_missing_file(capsys):
    rc, out, err = run_cli(capsys, "solve", "--game-file", "")
    assert rc == 2 and out == ""
    assert err.startswith("error: [Errno 2] No such file or directory")


def implicit(construction, params):
    return {"n": 6, "name": "x", "generators": [],
            "lines": {"implicit": {"construction": construction, "params": params}}}


@pytest.mark.parametrize("doc", [
    {"n": 6}, [1, 2], implicit("pairs", {}), implicit("pairs", {"b": "3"}),
    implicit("superset", {"base": "pairs(3)", "r": "4"})])
def test_malformed_game_file_is_refused(tmp_path, capsys, doc):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "solve", "--game-file", str(path))
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "unexpected" not in err


@pytest.mark.parametrize("name,lines,message", [
    ("hand", [[0, 1], [-1, 2]], "line point off the board"),
    ("hand", [[0, 1], [2, 9]], "line point off the board"),
    ("hand", [[0, 1], []], "empty line"),
    ("hand", [[0, 1], [2, 3], [1, 0]], "duplicate line [0, 1]"),
    # a named document is compared with the rebuilt game instead
    ("pairs(3)", [[-1, 2, 3]], "the lines or generators of the document differ"),
    # rows that give a dict replace those fields of the document instead
    ("hand", {"lines": {"implicit": {"construction": "martian", "params": {}}}},
     "unknown implicit construction 'martian'"),
    ("hand", {"lines": {"implicit": {"construction": "pairs"}}},
     "implicit lines need a construction and a params object"),
    ("hand", {"generators": [[1, 0]]}, "a generator does not permute 6 points"),
    # a board of no points has no point 0 to open or orbit
    ("hand", {"n": 0, "lines": {"explicit": []}},
     "a game document is an object with a positive integer n"),
])
def test_game_file_with_a_bad_line_is_refused(tmp_path, capsys, name, lines, message):
    # the points are checked before any line mask is built: 1 << -1 raises
    # "negative shift count", and a huge point would build a huge mask
    fields = lines if isinstance(lines, dict) else {"lines": {"explicit": lines}}
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"n": 6, "name": name, "lines": {"explicit": [[0, 1]]},
                                "generators": [], **fields}))
    rc, out, err = run_cli(capsys, "solve", "--game-file", str(path))
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {message}")


_DOC_SPECS = ["pairs(3)", "cycle(5)", "matching(2)", "torus(3,1)", "superset(pairs(3),4)",
              "even_general(2,3)", "odd_composite(3,3)"]

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)

# a value the loader must refuse in each place of a document
_WRONG = {"n": lambda v: type(v) is not int, "name": lambda v: not isinstance(v, str),
          "lines": lambda v: not isinstance(v, dict),
          "generators": lambda v: not isinstance(v, list)}


@st.composite
def _malformed_game_files(draw):
    """The text of a document no loader may accept: a catalog game's
    document with one change that breaks it, or text of another shape."""
    doc = game_to_json(parse_game_spec(draw(st.sampled_from(_DOC_SPECS))))
    n, lines = doc["n"], doc["lines"]
    kind = draw(st.sampled_from(["truncate", "deep", "other", "drop", "retype", "n",
                                 "point", "implicit"]))
    if kind == "truncate":
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "deep":
        depth = draw(st.integers(1, 100_000))
        return "[" * depth + "]" * depth
    if kind == "other":
        return json.dumps(draw(_json_values.filter(lambda v: not isinstance(v, dict))))
    if kind == "drop":
        del doc[draw(st.sampled_from(["n", "lines", "generators"]))]
    elif kind == "retype":
        key = draw(st.sampled_from(sorted(_WRONG)))
        doc[key] = draw(_json_values.filter(_WRONG[key]))
    elif kind == "n":
        doc["n"] = draw(st.integers().filter(lambda v: v != n))
    elif kind == "point" or "explicit" in lines:
        # a point of a line or a generator off the board, or no integer
        lists = draw(st.sampled_from([doc["generators"], lines.get("explicit", [])]))
        lists = lists or doc["generators"]
        points = lists[draw(st.integers(0, len(lists) - 1))]
        points[draw(st.integers(0, len(points) - 1))] = draw(
            st.integers().filter(lambda v: not 0 <= v < n)
            | _json_values.filter(lambda v: type(v) is not int))
    else:
        # another value of a parameter, or another construction; every
        # other value of a parameter changes the board size
        impl = lines["implicit"]
        key = draw(st.sampled_from(["construction", *sorted(impl["params"])]))
        if key == "construction":
            impl[key] = draw(_json_values.filter(lambda v: v != impl[key]))
        else:
            impl["params"][key] = draw(_json_values.filter(
                lambda v: v != impl["params"][key]))
    return json.dumps(doc)


@settings(max_examples=200, deadline=None)
@given(_malformed_game_files())
def test_a_malformed_game_file_exits_2_with_one_error_line(text):
    # a refusal is exit 2, never 1 ("claim refuted"), with no traceback
    # and no "unexpected" crash
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "game.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["solve", "--game-file", path])
    assert rc == 2 and out.getvalue() == ""
    message = err.getvalue().splitlines()
    assert len(message) == 1 and message[0].startswith("error:")
    assert "unexpected" not in message[0], message[0]


def test_verify_strategy_exit_codes(capsys):
    rc, out, _ = run_cli(capsys, "verify-strategy", "--game", "pairs(3)",
                         "--strategy", "pairs", "--goal", "win")
    assert rc == 0
    assert json.loads(out)["verdict"] == "pass"
    rc, out, _ = run_cli(capsys, "verify-strategy", "--game", "pairs(3)",
                         "--strategy", "lowest", "--goal", "win")
    assert rc == 1
    assert "counterexample" in json.loads(out)


def test_verify_strategy_sampled_records_seed(capsys):
    rc, out, _ = run_cli(capsys, "verify-strategy", "--game", "torus(3,2)",
                         "--strategy", "torus-pairing", "--goal", "neverlose",
                         "--mode", "sampled", "--samples", "50", "--seed", "7")
    assert rc == 0
    doc = json.loads(out)
    assert doc["seed"] == 7 and doc["samples"] == 50


def test_verify_strategy_sampled_without_samples_is_refusal(capsys):
    for samples in ("0", "-5"):
        rc, out, err = run_cli(capsys, "verify-strategy", "--game", "torus(3,3)",
                               "--strategy", "torus-pairing", "--goal", "neverlose",
                               "--mode", "sampled", "--samples", samples)
        assert rc == 2 and out == ""
        assert "at least 1 sample" in err


def test_verify_lemma_oversize_m_is_refused_at_once(capsys):
    rc, out, err = run_cli(capsys, "verify-lemma", "unique-max", "--m", "32")
    assert rc == 2 and out == ""
    assert "largest suite size 16" in err


@pytest.mark.parametrize("m", [0, -4, 2, 3, 6, 12, 32])
def test_verify_lemma_m_outside_the_suite_sizes_is_refused(capsys, m):
    # refused before anything is enumerated, with the same message for all
    rc, out, err = run_cli(capsys, "verify-lemma", "all", "--m", str(m))
    assert rc == 2 and out == ""
    assert err == f"error: m must be a power of two from 4 up to the largest suite " \
                  f"size 16, got {m}\n"


def test_verify_lemma_counts(capsys):
    rc, out, _ = run_cli(capsys, "verify-lemma", "key-lemma", "--m", "8")
    assert rc == 0
    rep = json.loads(out)["reports"][0]
    assert rep["checked"] == 3 ** 4 - 1
    assert rep["failure_count"] == 0


def test_superset_above_its_board_size_is_refused_before_building(capsys, monkeypatch):
    # superset(pairs(3),7) used to build a game with no lines: transitive, a draw
    spec = "superset(pairs(3),7)"
    rc, out, err = run_cli(capsys, "check-transitive", "--game", spec)
    assert rc == 2 and out == ""
    assert err == "error: r=7 is larger than the base board of 6 points\n"

    def refuse(spec):
        raise AssertionError(f"{spec} was built")

    monkeypatch.setattr(cli, "parse_game_spec", refuse)
    rc, out, err = run_cli(capsys, "solve", "--game", spec)
    assert rc == 2 and out == ""
    assert err == "error: r=7 is larger than the base board of 6 points\n"


def test_verify_lemma_all(capsys):
    rc, out, _ = run_cli(capsys, "verify-lemma", "all", "--m", "4")
    assert rc == 0
    assert len(json.loads(out)["reports"]) == 6


def test_check_transitive(capsys):
    rc, out, _ = run_cli(capsys, "check-transitive", "--game", "pairs(3)")
    assert rc == 0
    doc = json.loads(out)
    assert doc["transitive"] is True
    assert doc["orbit_of_0"] == list(range(6))


def test_check_transitive_over_its_budget_exits_2_not_1(capsys):
    # 52.5 M allowed sets, far past the line check's budget; a cap hit is
    # no "transitive": false (exit 1)
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "check-transitive", "--game", "odd_composite(7,7)")
    assert time.perf_counter() - start < 10
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "inconclusive" in err


def test_earliest_loss(capsys):
    rc, out, _ = run_cli(capsys, "earliest-loss", "--game", "pairs(3)")
    assert rc == 0
    assert json.loads(out)["earliest_forced_loss"] == 6


def test_memory_exhaustion_exits_2_not_1(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr("avoidance.solver.verify_strategy", exhausted)
    rc, out, err = run_cli(capsys, "verify-strategy", "--game", "pairs(3)",
                           "--strategy", "pairs", "--goal", "win")
    assert (rc, out) == (2, "")
    assert "unexpected MemoryError" in err


def test_catalog_lists_everything(capsys):
    rc, out, _ = run_cli(capsys, "catalog")
    assert rc == 0
    doc = json.loads(out)
    assert "pairs" in doc["constructions"]
    assert "even-general" in doc["strategies"]
    assert "key-lemma" in doc["lemma_suites"]


def test_play_rejects_illegal_then_finishes(monkeypatch, capsys):
    # scripted stdin: an illegal repeat, then a legal game to the end
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n0\n1\n2\n"))
    rc = main(["play", "--game", "cycle(3)", "--side", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "illegal" in out
    assert "loses" in out


def test_play_quits_cleanly(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("q\n"))
    rc = main(["play", "--game", "pairs(3)", "--side", "1"])
    assert rc == 0
    assert "bye" in capsys.readouterr().out


def test_play_against_a_strategy_opponent(monkeypatch, capsys):
    # the pairs strategy opens, mirrors 4 to 5, and answers the stray 2 by
    # doubling its pair (1); the illegal and garbled inputs are not moves
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n4\nx\n2\n3\n"))
    rc = main(["play", "--game", "pairs(3)", "--strategy", "pairs", "--side", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert [l for l in out.splitlines() if l.startswith("opponent plays")] == [
        "opponent plays 0", "opponent plays 5", "opponent plays 1"]
    assert "illegal: point 0 already claimed" in out
    assert out.splitlines()[-1] == "Player II completed a line and loses on move 6"


def test_play_against_the_solver_opponent(monkeypatch, capsys):
    # the solver opens and answers with the first point of highest value;
    # the moves were recorded from the solver opponent before it shared
    # solve's search and canonical keys
    monkeypatch.setattr("sys.stdin", io.StringIO("3\n5\n7\n9\n1\n0\n2\n4\n6\n8\n"))
    rc = main(["play", "--game", "pairs(5)", "--side", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert [l for l in out.splitlines() if l.startswith("opponent plays")] == [
        f"opponent plays {x}" for x in (0, 1, 2, 6, 8)]
    assert out.splitlines()[-1] == "Player II completed a line and loses on move 10"


@pytest.mark.parametrize("argv,message", [
    (["solve", "--game", "pairs(9)"], "board size 18 exceeds solve cap 16"),
    (["solve", "--game", "superset(pairs(9),12)"], "board size 18 exceeds solve cap 16"),
    (["earliest-loss", "--game", "affine(13)", "--cap", "12"],
     "board size 13 exceeds solve cap 12"),
    (["solve-plus", "--game", "pairs(5)"], "board size 10 exceeds plus-solve cap 8"),
    (["play", "--game", "pairs(9)"], "board size 18 exceeds solve cap 16"),
    (["solve", "--game", "copies(pairs(3),3)"], "board size 18 exceeds solve cap 16"),
    (["solve", "--game", "product_torus(1)"], "board size 18 exceeds solve cap 16"),
])
def test_over_cap_specs_are_refused_before_they_are_built(monkeypatch, capsys, argv,
                                                          message):
    # the spec gives the board size; building a line store would fail loudly
    def unbuildable(self, *args):
        raise AssertionError("a line store was built")

    monkeypatch.setattr(ExplicitLines, "__init__", unbuildable)
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err == f"error: {message}; raise cap explicitly\n"


def test_play_against_a_strategy_has_no_solver_cap(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("q\n"))
    rc = main(["play", "--game", "pairs(9)", "--strategy", "pairs", "--side", "2"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[-1] == "bye"


def test_oversize_torus_is_refused(capsys):
    rc, _, err = run_cli(capsys, "solve", "--game", "torus(64,2)")
    assert rc == 2
    assert "work budget" in err


def test_over_budget_superset_scan_is_refused_at_once(capsys):
    # the r-set scan used to run uncharged, 7-9 s for this spec
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "gen", "superset(pairs(11),17)")
    assert time.perf_counter() - start < 1
    assert rc == 2 and out == ""
    assert "work budget" in err and "unexpected" not in err


def test_deeply_nested_spec_is_refused(capsys):
    spec = "copies(" * 2999 + "pairs(3)" + ",1)" * 2999
    rc, _, err = run_cli(capsys, "solve", "--game", spec)
    assert rc == 2
    assert "nests deeper than" in err and "unexpected" not in err


@pytest.mark.parametrize("spec", ["pairs()", "torus(3)", "odd_composite(3,3,3)",
                                  "superset(pairs(3))", "copies(3,3)", "pairs(3,4)",
                                  "affine(13,1)", "pairs(pairs(3))", "cycle(x)",
                                  "torus(3,,2)", "pairs(,3)", "pairs(3,)"])
def test_spec_of_wrong_arity_or_kind_is_refused(capsys, spec):
    rc, out, err = run_cli(capsys, "solve", "--game", spec)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "unexpected" not in err
    assert "argument" in err


def test_closed_output_pipes_never_exit_with_a_verdict():
    # stdout and stderr both go to a pipe nobody reads: printing the report
    # fails, and so does printing the error about it
    import avoidance
    src = os.path.dirname(os.path.dirname(avoidance.__file__))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "avoidance.cli", "verify-strategy", "--game", "pairs(3)",
             "--strategy", "pairs", "--goal", "win"],
            stdout=write, stderr=write, timeout=60,
            env={**os.environ, "PYTHONPATH": src})
    finally:
        os.close(write)
    assert proc.returncode not in (0, 1)


def test_cli_import_loads_no_search_module_and_generates_no_dataclass():
    # what every command pays before it starts: ``import avoidance.cli``
    # leaves the solver and the strategies to the commands that use them
    # (not gen, check-transitive or verify-lemma), and only ``Game`` is a
    # dataclass
    import avoidance
    src = os.path.dirname(os.path.dirname(avoidance.__file__))
    probe = ("import contextlib, dataclasses, io, sys\n"
             "import avoidance.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    for argv in (['gen', 'pairs(3)'], ['check-transitive', '--game', 'pairs(3)'],\n"
             "                 ['verify-lemma', 'all', '--m', '4']):\n"
             "        assert avoidance.cli.main(argv) == 0, argv\n"
             "print(sorted(m for m in sys.modules if m in "
             "('avoidance.solver', 'avoidance.strategies')))\n"
             "from avoidance import core, pairset, solver\n"
             "print([dataclasses.is_dataclass(c) for c in (core.Game, core.Outcome, "
             "core.Permutation, core.Position, pairset.KeyParams, pairset.SuiteReport, "
             "solver.SolveReport, solver.VerifyReport)])\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", str([True] + [False] * 7)]


# the child prints its own peak resident set on stderr after the CLI returns;
# ru_maxrss would not do: Linux carries the parent's peak into it across
# fork and exec, so it would report the test runner's peak
_PEAK_RSS = ("import sys\n"
             "from avoidance.cli import main\n"
             "rc = main(sys.argv[1:])\n"
             "peak = [l.split()[1] for l in open('/proc/self/status')\n"
             "        if l.startswith('VmHWM')]\n"
             "print('peak_kib', peak[0], file=sys.stderr)\n"
             "sys.exit(rc)\n")


@pytest.mark.parametrize("source", ["copies(pairs(3),20001)", 500_000, 10 ** 8])
def test_oversize_construction_is_refused_before_it_is_built(tmp_path, source):
    # built first, these took 15 s and 1.7 GiB (the copies) or grow linearly
    # in the declared n (a 70-byte document); the budget refuses them up front
    import avoidance
    if isinstance(source, str):
        # a cap as large as the board leaves the refusal to the budget
        where = ["--game", source, "--cap", "120006"]
    else:
        path = tmp_path / "game.json"
        path.write_text(json.dumps({"n": source, "name": "x", "lines": {"explicit": []},
                                    "generators": []}))
        where = ["--game-file", str(path)]
    src = os.path.dirname(os.path.dirname(avoidance.__file__))
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, "solve", *where],
                          capture_output=True, text=True, timeout=30,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2 and proc.stdout == ""
    error, peak = proc.stderr.splitlines()
    assert error.startswith("error:") and "work budget" in error
    assert int(peak.split()[1]) < 100 * 1024
