import io
import json

from avoidance.cli import main


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


def test_verify_lemma_counts(capsys):
    rc, out, _ = run_cli(capsys, "verify-lemma", "key-lemma", "--m", "8")
    assert rc == 0
    rep = json.loads(out)["reports"][0]
    assert rep["checked"] == 3 ** 4 - 1
    assert rep["failure_count"] == 0


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


def test_earliest_loss(capsys):
    rc, out, _ = run_cli(capsys, "earliest-loss", "--game", "pairs(3)")
    assert rc == 0
    assert json.loads(out)["earliest_forced_loss"] == 6


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


def test_oversize_torus_is_refused(capsys):
    rc, _, err = run_cli(capsys, "solve", "--game", "torus(64,2)")
    assert rc == 2
    assert "work budget" in err


def test_deeply_nested_spec_is_refused(capsys):
    spec = "copies(" * 2999 + "pairs(3)" + ",1)" * 2999
    rc, _, err = run_cli(capsys, "solve", "--game", spec)
    assert rc == 2
    assert "nests deeper than" in err and "unexpected" not in err
