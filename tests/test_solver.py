import gc
import itertools
import random

import pytest

from avoidance.core import (ExplicitLines, Game, GameError, Permutation,
                            Player, SearchCapExceeded, Winner, mask_of, set_of)
from avoidance import constructions as C
from avoidance.solver import (Goal, best_move, earliest_forced_loss, solve,
                              solve_plus, verify_strategy)
from avoidance.strategies import LowestFreeStrategy, pairs_strategy, strategy_for

from oracles import ref_earliest_loss, ref_solve, ref_solve_plus, reversed_points

VAL = {Winner.PI_WIN: 1, Winner.DRAW: 0, Winner.PII_WIN: -1}


@pytest.mark.parametrize("spec,winner", [
    ("torus(3,1)", Winner.DRAW),
    ("pairs(3)", Winner.PI_WIN),
    ("cycle(4)", Winner.PII_WIN),
    ("odd_composite(3,3)", Winner.PI_WIN),
    ("matching(2)", Winner.DRAW),
])
def test_solve_known_outcomes(spec, winner):
    g = C.parse_game_spec(spec)
    r = solve(g)
    assert r.outcome.winner is winner


@pytest.mark.parametrize("spec", ["cycle(4)", "cycle(5)", "complete(4)",
                                  "torus(3,1)", "pairs(3)", "matching(2)",
                                  "torus(2,2)"])
def test_solve_matches_plain_recursion(spec):
    g = C.parse_game_spec(spec)
    assert VAL[solve(g).outcome.winner] == ref_solve(g)


def test_solve_cap_refusal():
    with pytest.raises(SearchCapExceeded):
        solve(C.parse_game_spec("copies(pairs(3),3)"))
    solve(C.pairs_game(3), cap=6)


def test_solve_pv_replays_to_outcome():
    for spec in ["pairs(3)", "cycle(4)", "torus(3,2)", "odd_composite(3,3)"]:
        g = C.parse_game_spec(spec)
        r = solve(g)
        a, b = set(), set()
        loss = None
        for i, x in enumerate(r.principal_variation):
            (a if i % 2 == 0 else b).add(x)
            side = a if i % 2 == 0 else b
            if g.lines.contains_mask(mask_of(side)):
                loss = i + 1
                break
        assert loss == r.outcome.loss_time


def test_solve_table_on_off_and_order_invariance():
    # the plain recursion keeps no solver table and prunes nothing; the
    # solver searches the reversed board in descending point order
    for spec in ["pairs(3)", "cycle(5)", "torus(3,2)", "odd_composite(3,3)",
                 "complete(4)", "matching(2)"]:
        g = C.parse_game_spec(spec)
        base = solve(g).outcome.winner
        descending = list(range(g.n))[::-1]
        assert ref_solve(g) == ref_solve(g, order=descending) == VAL[base]
        assert solve(reversed_points(g)).outcome.winner is base


def test_solve_generator_relabelling_invariance():
    import random as _random
    rng = _random.Random(13)
    for spec in ["pairs(3)", "torus(3,2)", "cycle(6)"]:
        g = C.parse_game_spec(spec)
        base = solve(g).outcome.winner
        for _ in range(3):
            img = rng.choice(g.generators).image
            for _ in range(rng.randrange(1, 4)):
                img = tuple(img[y] for y in rng.choice(g.generators).image)
            relabelled = Game(g.n, ExplicitLines(
                g.n, [mask_of(img[x] for x in set_of(m)) for m in g.lines.masks]), (),
                "relabel")
            assert solve(relabelled).outcome.winner is base


def test_solve_root_symmetry_agrees():
    for spec in ["pairs(3)", "torus(3,2)", "cycle(6)"]:
        g = C.parse_game_spec(spec)
        assert solve(g, root_symmetry=True).outcome.winner is solve(g).outcome.winner
    nontransitive = Game(4, ExplicitLines(4, [0b11]), (), "lopsided")
    with pytest.raises(GameError):
        solve(nontransitive, root_symmetry=True)


@pytest.mark.parametrize("spec,claimed", [("pairs(3)", 0), ("cycle(5)", 0),
                                          ("odd_composite(3,3)", 3), ("pairs(5)", 4)])
def test_best_move_is_the_first_point_of_highest_value(spec, claimed):
    # reference: every move valued by plain recursion, first maximum taken
    import random as _random
    g = C.parse_game_spec(spec)
    rng = _random.Random(5)
    checked = 0
    while checked < 12:
        a, b = set(), set()
        order = rng.sample(range(g.n), g.n)
        for x in order[:claimed + rng.randrange(g.n - claimed - 1)]:
            (a if len(a) == len(b) else b).add(x)
        if g.lines.contains_mask(mask_of(a)) or g.lines.contains_mask(mask_of(b)):
            continue
        mine, theirs = (a, b) if len(a) == len(b) else (b, a)
        values = []
        for x in range(g.n):
            if x in a or x in b:
                continue
            if g.lines.contains_mask(mask_of(mine | {x})):
                values.append((-1, x))
            elif mine is a:
                values.append((-ref_solve(g, frozenset(a | {x}), frozenset(b)), x))
            else:
                values.append((-ref_solve(g, frozenset(a), frozenset(b | {x})), x))
        want = max(values, key=lambda v: (v[0], -v[1]))[1]
        got = best_move(g, sum(1 << x for x in mine), sum(1 << x for x in theirs))
        assert got == want, (sorted(a), sorted(b))
        checked += 1


def test_best_move_cap_refusal():
    with pytest.raises(SearchCapExceeded):
        best_move(C.pairs_game(9), 0, 0)


def test_earliest_forced_loss_values():
    assert earliest_forced_loss(C.pairs_game(3)) == 6
    assert earliest_forced_loss(C.odd_composite(3, 3)) == 8
    with pytest.raises(GameError):
        earliest_forced_loss(C.torus(3, 1))


@pytest.mark.parametrize("spec", ["torus(3,1)", "matching(2)", "matching(3)",
                                  "cycle(4)", "cycle(5)", "complete(4)", "torus(2,2)"])
def test_earliest_forced_loss_refuses_a_game_that_is_no_first_player_win(spec):
    g = C.parse_game_spec(spec)
    assert solve(g).outcome.winner is not Winner.PI_WIN
    with pytest.raises(GameError, match="needs a first-player-win game"):
        earliest_forced_loss(g)


def test_earliest_forced_loss_refuses_exactly_the_boards_that_are_no_first_player_win():
    # 45 seeded 3-uniform boards: 8 first-player wins, 7 second-player wins, 30 draws
    rng = random.Random(11)
    refused = 0
    for n in (6, 7, 8):
        triples = list(itertools.combinations(range(n), 3))
        for _ in range(15):
            lines = rng.sample(triples, rng.randrange(4, 12))
            game = Game(n, ExplicitLines(n, map(mask_of, lines)), (), f"rand{n}")
            if solve(game).outcome.winner is Winner.PI_WIN:
                assert earliest_forced_loss(game) == ref_earliest_loss(game)
            else:
                refused += 1
                with pytest.raises(GameError, match="needs a first-player-win game"):
                    earliest_forced_loss(game)
    assert refused == 37


def test_earliest_forced_loss_affine_11():
    # lines have size 5 and the board has 11 points, so the second player's
    # fifth move (move 10) is both the earliest possible and his last
    assert earliest_forced_loss(C.affine_game(11)) == 10


@pytest.mark.parametrize("spec", ["pairs(3)", "odd_composite(3,3)", "torus(3,2)",
                                  "copies(pairs(3),1)", "superset(odd_composite(3,3),4)"])
def test_earliest_forced_loss_matches_plain_recursion_on_catalog_boards(spec):
    # every first-player-win catalog board with n <= 9
    g = C.parse_game_spec(spec)
    assert earliest_forced_loss(g) == ref_earliest_loss(g)


def _hand_built_boards():
    # three 6-point boards on which a wrong draw value overflows, then the
    # first-player wins among seeded random 3-uniform boards on 6 and 8 points
    boards = [[[0, 1, 5], [0, 2, 3], [0, 3, 5], [1, 2, 3], [1, 2, 5]],
              [[1, 2, 4], [1, 2, 5], [1, 3, 4], [2, 3, 5], [3, 4, 5]],
              [[0, 2, 5], [0, 4, 5], [2, 3, 4], [2, 3, 5], [2, 4, 5]]]
    games = [Game(6, ExplicitLines(6, map(mask_of, lines)), (), "hand6") for lines in boards]
    rng = random.Random(8)
    for n in (6, 8):
        triples = list(itertools.combinations(range(n), 3))
        for _ in range(30):
            lines = rng.sample(triples, rng.randrange(4, 12))
            game = Game(n, ExplicitLines(n, map(mask_of, lines)), (), f"hand{n}")
            if solve(game).outcome.winner is Winner.PI_WIN:
                games.append(game)
    return games


@pytest.mark.parametrize("game", _hand_built_boards())
def test_earliest_forced_loss_matches_plain_recursion_on_hand_built_boards(game):
    assert earliest_forced_loss(game) == ref_earliest_loss(game)


def test_solver_agrees_with_bin_strategy_at_n12():
    assert solve(C.even_general(2, 3), cap=16).outcome.winner is Winner.PI_WIN


def test_solve_plus_examples():
    tri = Game(3, ExplicitLines(3, [0b111]), (Permutation.cycle(3),), "tri3")
    assert solve_plus(tri).outcome.winner is Winner.DRAW
    assert VAL[solve_plus(tri).outcome.winner] == ref_solve_plus(tri)
    r = solve_plus(C.pairs_game(3))
    assert r.outcome.winner is not Winner.PI_WIN
    assert r.outcome.winner is Winner.PII_WIN   # exact value, frozen
    for k in (4, 5):
        g = C.cycle_game(k)
        assert VAL[solve_plus(g).outcome.winner] == ref_solve_plus(g)


def test_solve_plus_pv_replays():
    g = C.cycle_game(4)
    r = solve_plus(g)
    a, b = set(), set()
    loss = None
    for i, mv in enumerate(r.principal_variation):
        side = a if i % 2 == 0 else b
        side.update(mv)
        if g.lines.contains_mask(mask_of(side)):
            loss = i + 1
            break
    assert loss == r.outcome.loss_time


def test_solve_plus_cap_refusal():
    with pytest.raises(SearchCapExceeded):
        solve_plus(C.torus(3, 2))


def test_verify_strategy_counterexample_replays():
    g = C.pairs_game(3)
    r = verify_strategy(g, LowestFreeStrategy(6), Player.ONE, Goal.WIN)
    assert not r.passed
    a, b = set(), set()
    history = r.counterexample
    broke = None
    for i, x in enumerate(history):
        side = a if i % 2 == 0 else b
        side.add(x)
        if g.lines.contains_mask(mask_of(side)):
            broke = ("loss", i % 2)
            break
    # the naive first player completed a line himself, or survived to a draw
    assert broke == ("loss", 0) or (broke is None and len(a) + len(b) <= 6)


@pytest.mark.parametrize("spec,strat,goal", [
    ("even_general(2,3)", "even-general", Goal.WIN), ("pairs(3)", "lowest", Goal.WIN),
    ("torus(3,2)", "torus-pairing", Goal.NEVER_LOSE)])
def test_exhaustive_verify_frees_its_memo_on_return(spec, strat, goal):
    # the reply search is a closure that refers to itself; left bound, it
    # keeps the memo alive until a cycle collection
    game = C.parse_game_spec(spec)
    s = strategy_for(game, strat)
    gc.collect()
    gc.disable()
    try:
        verify_strategy(game, s, s.role, goal)
        assert gc.collect() < 10
    finally:
        gc.enable()


@pytest.mark.parametrize("call", [
    lambda g: solve(g), lambda g: solve(g, root_symmetry=True),
    lambda g: best_move(g, 1, 0), lambda g: earliest_forced_loss(g)],
    ids=["solve", "solve-root-symmetry", "best-move", "earliest-forced-loss"])
def test_negamax_solvers_free_their_table_on_return(call):
    # the search is a closure that refers to itself; left bound, it keeps
    # the table alive until a cycle collection
    game = C.odd_composite(5, 3)
    gc.collect()
    gc.disable()
    try:
        call(game)
        assert gc.collect() < 10
    finally:
        gc.enable()


def test_verify_strategy_role_mismatch():
    with pytest.raises(GameError):
        verify_strategy(C.pairs_game(3), pairs_strategy(3), Player.TWO, Goal.WIN)


@pytest.mark.parametrize("strategy,mode,message", [
    (pairs_strategy(5), "exhaustive", "strategy board size differs from the game"),
    (pairs_strategy(3), "random", "unknown mode 'random'"),
])
def test_verify_strategy_refuses_a_mismatched_call(strategy, mode, message):
    with pytest.raises(GameError) as info:
        verify_strategy(C.pairs_game(3), strategy, Player.ONE, Goal.WIN, mode=mode)
    assert str(info.value) == message


def test_verify_strategy_sampled_reproducible():
    g = C.pairs_game(3)
    r1 = verify_strategy(g, pairs_strategy(3), Player.ONE, Goal.WIN,
                         mode="sampled", samples=200, seed=42)
    r2 = verify_strategy(g, pairs_strategy(3), Player.ONE, Goal.WIN,
                         mode="sampled", samples=200, seed=42)
    assert r1.passed and r2.passed
    assert r1.to_json() == r2.to_json()
    assert r1.seed == 42 and r1.samples == 200


@pytest.mark.parametrize("samples", [0, -5])
def test_verify_strategy_sampled_needs_a_sample(samples):
    with pytest.raises(GameError):
        verify_strategy(C.pairs_game(3), pairs_strategy(3), Player.ONE, Goal.WIN,
                        mode="sampled", samples=samples)


def test_win_pass_implies_solver_pi_win():
    for spec, strat in [("pairs(3)", pairs_strategy(3))]:
        g = C.parse_game_spec(spec)
        r = verify_strategy(g, strat, Player.ONE, Goal.WIN)
        assert r.passed
        assert solve(g).outcome.winner is Winner.PI_WIN
