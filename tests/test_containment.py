"""Line containment against brute force, and solve work counts pinned.

An explicit store's ``loses_after`` answers a mask of line size by one
set lookup and any other mask by a scan of the lines through the new
point; an implicit store answers both calls with its predicate. Each
route must agree with subset enumeration on every mask of the small
boards and on random masks of the larger ones. The solve counts pin the
search itself: a faster loop must visit the same states and report the
same principal variation. They are pinned twice, for the plain-key
search (the game with ``canonical=None``) and for the canonical-key
search, which share every principal variation. The benchmark's
in-process twins run here too, so a change to the library calls they
make fails a test before it fails a benchmark run.
"""

import dataclasses
import importlib.util
import itertools
import pathlib
import random
import sys
import types

import pytest

from avoidance import constructions as C
from avoidance.core import ExplicitLines, ImplicitLines, iter_bits, mask_of, set_of
from avoidance.solver import solve

from oracles import brute_contains_line, brute_loses_after, reversed_points

SMALL = ["pairs(3)", "pairs(5)", "affine(11)", "cycle(5)", "complete(4)",
         "matching(3)", "odd_composite(3,3)", "copies(cycle(3),3)",
         "superset(pairs(3),4)", "superset(odd_composite(3,3),5)"]


def _perfbench(name: str):
    """``perfbench/<name>.py``, loaded from its file (the directory is no package)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look the module up
    spec.loader.exec_module(mod)
    return mod


def _check_mask(store, mask):
    s = set_of(mask)
    has_line = brute_contains_line(store, s)
    assert store.contains_mask(mask) == has_line, sorted(s)
    for x in s:
        # implicit stores answer for the whole mask, so they are held to
        # the solver's precondition: the mask without x holds no line
        if isinstance(store, ImplicitLines) and brute_contains_line(store, s - {x}):
            continue
        assert store.loses_after(mask, x) == brute_loses_after(store, s, x), (sorted(s), x)


def _small_games():
    games = [C.parse_game_spec(spec) for spec in SMALL]
    games += [C.pairs_game(3, store="implicit"), C.pairs_game(5, store="implicit")]
    mixed = ExplicitLines(7, map(mask_of, [{0, 1}, {1, 2, 3}, {0, 2, 4, 5}, {3, 4, 5, 6},
                                           {6, 2}]))
    return games + [C.Game(7, mixed, (), "mixed")]


@pytest.mark.parametrize("game", _small_games(),
                         ids=lambda g: f"{g.name}-{type(g.lines).__name__}")
def test_containment_matches_brute_force_on_every_mask(game):
    assert game.n <= 12
    for mask in range(1 << game.n):
        _check_mask(game.lines, mask)


@pytest.mark.parametrize("spec", ["affine(13)", "pairs(7)", "odd_composite(5,3)",
                                  "even_general(2,3)"])
def test_containment_matches_brute_force_on_random_masks(spec):
    game = C.parse_game_spec(spec)
    k = game.lines.min_line_size
    rng = random.Random(20)
    for _ in range(150):
        size = rng.randint(k - 1, min(game.n, k + 3))
        _check_mask(game.lines, mask_of(rng.sample(range(game.n), size)))


@pytest.mark.parametrize("a,b", [(2, 3), (2, 5)])
def test_even_general_lines_are_complements_of_enumerated_allowed_sets(a, b):
    # the rule's enumeration builds the allowed sets without the mask predicate
    game = C.even_general(a, b)
    n, k, full = game.n, game.n // 2, game.full_mask
    allowed = set(C.even_general_rule(a, b).w_iter())
    contains = game.lines.contains_mask
    for combo in itertools.combinations(range(n), k):
        mask = mask_of(combo)
        assert contains(mask) == ((full ^ mask) in allowed), combo


def test_even_allowed_matches_enumerated_allowed_sets_at_m8():
    # at m = 4 a doubled and an empty pair never share a bin; m = 8 reaches
    # the same-bin branch of the whole-mask predicate
    b, m = 3, 8
    n, k = b * m, b * m // 2
    rule = C.bin_rule(b, m, 0)
    w_iter, is_allowed = rule.w_iter, rule.allowed
    allowed = set(w_iter())
    assert len(allowed) == 63488
    assert all(is_allowed(w) for w in allowed)
    rng = random.Random(24)
    for _ in range(3000):
        mask = mask_of(rng.sample(range(n), k))
        assert is_allowed(mask) == (mask in allowed), sorted(set_of(mask))
    for w in rng.sample(sorted(allowed), 400):
        x = rng.choice(list(iter_bits(w)))
        y = rng.choice([p for p in range(n) if not (w >> p) & 1])
        moved = w ^ (1 << x) ^ (1 << y)
        assert is_allowed(moved) == (moved in allowed), (sorted(set_of(w)), x, y)


# every explicit catalog board up to 16 points, one of 18, and a superset
LAZY_INDEX_SPECS = ["pairs(3)", "pairs(5)", "pairs(7)", "affine(11)", "affine(13)",
                    "torus(3,2)", "torus(2,3)", "cycle(7)", "complete(5)", "matching(4)",
                    "copies(pairs(3),3)", "superset(pairs(3),4)", "superset(pairs(5),6)"]


def _lazy_index_stores():
    mixed = ExplicitLines(7, map(mask_of, [{0, 1}, {1, 2, 3}, {0, 2, 4, 5}, {3, 4, 5, 6},
                                           {6, 2}]))
    return ([pytest.param(C.parse_game_spec(spec).lines, id=spec) for spec in LAZY_INDEX_SPECS]
            + [pytest.param(mixed, id="mixed")])


@pytest.mark.parametrize("store", _lazy_index_stores())
def test_lazy_index_answers_like_the_oracle(store):
    n, masks = store.n, store.masks
    rng = random.Random(22)
    queries = [(m, x) for c in range(store.min_line_size, n + 1)
               for m in sorted({mask_of(rng.sample(range(n), c)) for _ in range(8)})
               for x in iter_bits(m)]
    want = [brute_loses_after(store, set_of(m), x) for m, x in queries]
    fresh = ExplicitLines(n, masks)
    assert fresh._by_point is None
    assert [fresh.loses_after(m, x) for m, x in queries] == want
    # a popcount other than the line size (or any, for mixed sizes) built the index
    assert fresh._by_point is not None
    assert [fresh.loses_after(m, x) for m, x in queries] == want
    for x in range(n):
        assert fresh._by_point[x] == tuple(m for m in masks if m >> x & 1), x


@pytest.mark.parametrize("spec", ["pairs(7)", "pairs(9)", "affine(13)"])
def test_building_exporting_checking_and_solving_build_no_index(spec):
    game = C.parse_game_spec(spec)
    C.game_to_json(game)
    for g in game.generators:
        game.lines.check_preserved(g)
    assert game.lines._by_point is None
    if spec in ("pairs(7)", "affine(13)"):
        # no player holds more than k points: every loss check is one set
        # lookup (pairs(7) has k = 7 of 14 points; affine(13) has k = 6, and
        # two disjoint allowed 6-sets would be needed to reach move 13)
        cmd_id = "solve-pairs-7" if spec == "pairs(7)" else "solve-affine-13"
        assert list(solve(game).principal_variation) == BENCH_PV[cmd_id][1]
        assert game.lines._by_point is None


def test_affine_13_builds_its_index_on_the_first_popcount_other_than_k():
    lines = C.affine_game(13).lines
    some_line = lines.masks[0]
    x = next(iter_bits(some_line))
    assert lines.loses_after(some_line, x)
    assert lines._by_point is None
    # a popcount above k = 6 scans the lines through x, which needs the
    # index; add the line's lowest free point
    seven = some_line | (~some_line & (some_line + 1))
    assert seven.bit_count() == lines.min_line_size + 1
    assert lines.loses_after(seven, x)
    assert lines._by_point is not None


def test_iter_bits_and_set_of():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert set_of(mask_of([7, 2, 40])) == frozenset({2, 7, 40})


BENCH_PV = {
    "solve-affine-13": ("affine(13)", [0, 1, 2, 3, 7, 4, 5, 6, 8, 9, 11, 10]),
    "solve-pairs-7": ("pairs(7)", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 12]),
    "solve-odd-composite-5-3": ("odd_composite(5,3)",
                                [0, 1, 2, 3, 4, 5, 10, 6, 11, 7, 12, 8]),
}


# (states, table) of the canonical-key search
BENCH_CANONICAL_COUNTS = {
    "solve-affine-13": (1527, 1527),
    "solve-pairs-7": (8877, 8647),
    "solve-odd-composite-5-3": (145, 145),
}


@pytest.mark.parametrize("cmd_id", sorted(BENCH_PV))
def test_bench_solves_keep_reference_work_counts(cmd_id):
    # the reference counts are those of the plain-key search
    want = _perfbench("workloads").REFERENCE_COUNTS[cmd_id]
    spec, pv = BENCH_PV[cmd_id]
    game = C.parse_game_spec(spec)
    plain = solve(dataclasses.replace(game, canonical=None))
    assert plain.states_visited == want["states"]
    assert plain.table_size == want["table"]
    assert list(plain.principal_variation) == pv
    report = solve(game)
    assert (report.states_visited, report.table_size) == BENCH_CANONICAL_COUNTS[cmd_id]
    assert list(report.principal_variation) == pv


@pytest.mark.parametrize("spec,order,states,table,pv", [
    ("affine(11)", "descending", 4458, 4458, [10, 9, 8, 7, 4, 6, 3, 5, 2, 1]),
    ("pairs(5)", "ascending", 2893, 2783, [0, 1, 2, 3, 4, 5, 6, 7, 9, 8]),
    ("pairs(5)", "descending", 1640, 1543, [9, 8, 7, 6, 3, 5, 2, 4, 1, 0]),
    ("odd_composite(3,3)", "descending", 548, 548, [8, 7, 6, 5, 2, 4, 1, 3]),
])
def test_move_order_work_counts(spec, order, states, table, pv):
    # (states, table) above are the plain-key search's; these the canonical
    # one's. The descending search is the ascending one of the reversed
    # board, whose PV is mapped back to the game's points.
    canonical_counts = {
        ("affine(11)", "descending"): (184, 184),
        ("pairs(5)", "ascending"): (386, 368),
        ("pairs(5)", "descending"): (287, 270),
        ("odd_composite(3,3)", "descending"): (34, 34),
    }
    game = C.parse_game_spec(spec)
    if order == "descending":
        game = reversed_points(game)
        pv = [game.n - 1 - x for x in pv]
    plain = solve(dataclasses.replace(game, canonical=None))
    assert (plain.states_visited, plain.table_size) == (states, table)
    assert list(plain.principal_variation) == pv
    report = solve(game)
    assert (report.states_visited, report.table_size) == canonical_counts[spec, order]
    assert list(report.principal_variation) == pv


def test_bench_twins_pass_their_answer_checks():
    # the harness replays PVs through Position.initial and apply_move and
    # makes every other library call through tracing.Library
    from avoidance import core, pairset, solver, strategies

    workloads = _perfbench("workloads")
    modules = types.SimpleNamespace(core=core, constructions=C, pairset=pairset,
                                    solver=solver, strategies=strategies)
    lib = _perfbench("tracing").Library(modules)
    answers = workloads.Answers(modules)
    cmds = workloads.commands("solve-large", 0) + [
        c for c in workloads.commands("verify", 0) if c.id == "refute-pairs-3-lowest"]
    assert len(cmds) == 7
    for cmd in cmds:
        status, doc = cmd.twin(lib)
        assert status == cmd.status, cmd.id
        assert cmd.check(doc, answers) == [], cmd.id
