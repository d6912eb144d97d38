"""Line containment against brute force, and solve work counts pinned.

``loses_after`` and ``contains_mask`` pick fast paths by popcount (set
lookups, popcount predicates); every path must agree with subset
enumeration. The solve counts pin the search itself: a faster loop must
visit the same states and report the same principal variation. They are
pinned twice, for the plain-key search (the game with ``canonical=None``)
and for the canonical-key search, which share every principal variation.
"""

import dataclasses
import importlib.util
import itertools
import pathlib
import random
import sys

import pytest

from avoidance import constructions as C
from avoidance.core import ExplicitLines, ImplicitLines, iter_bits, mask_of, set_of
from avoidance.solver import solve

from oracles import brute_contains_line, brute_loses_after

SMALL = ["pairs(3)", "pairs(5)", "affine(11)", "cycle(5)", "complete(4)",
         "matching(3)", "odd_composite(3,3)", "copies(cycle(3),3)",
         "superset(pairs(3),4)", "superset(odd_composite(3,3),5)"]


def _workloads():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
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
    mixed = ExplicitLines(7, [{0, 1}, {1, 2, 3}, {0, 2, 4, 5}, {3, 4, 5, 6}, {6, 2}])
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
    # _even_w_iter builds the allowed sets without the mask predicate
    game = C.even_general(a, b)
    n, k, full = game.n, game.n // 2, game.full_mask
    allowed = {mask_of(w) for w in C._even_w_iter(b, 1 << a)}
    contains = game.lines.contains_mask
    for combo in itertools.combinations(range(n), k):
        mask = mask_of(combo)
        assert contains(mask) == ((full ^ mask) in allowed), combo


def test_even_allowed_matches_enumerated_allowed_sets_at_m8():
    # at m = 4 a doubled and an empty pair never share a bin; m = 8 reaches
    # the same-bin branch of the whole-mask predicate
    b, m = 3, 8
    n, k = b * m, b * m // 2
    allowed = {mask_of(w) for w in C._even_w_iter(b, m)}
    assert len(allowed) == 63488
    assert all(C._even_allowed(b, m, w) for w in allowed)
    rng = random.Random(24)
    for _ in range(3000):
        mask = mask_of(rng.sample(range(n), k))
        assert C._even_allowed(b, m, mask) == (mask in allowed), sorted(set_of(mask))
    for w in rng.sample(sorted(allowed), 400):
        x = rng.choice(list(iter_bits(w)))
        y = rng.choice([p for p in range(n) if not (w >> p) & 1])
        moved = w ^ (1 << x) ^ (1 << y)
        assert C._even_allowed(b, m, moved) == (moved in allowed), (sorted(set_of(w)), x, y)


def test_lookup_cutoff_keeps_sparse_families_on_the_scan():
    # torus(3,3) has 13 lines through a point: any popcount above k scans
    assert C.torus(3, 3).lines._lookup_upto == 3
    # affine(13) has 612: popcounts up to 9 use subset lookups
    assert C.affine_game(13).lines._lookup_upto == 9
    assert C.cycle_game(5).lines._lookup_upto == 2


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


# (states, table) of the canonical-key search; affine keeps plain keys
BENCH_CANONICAL_COUNTS = {
    "solve-affine-13": (62217, 62217),
    "solve-pairs-7": (8877, 8647),
    "solve-odd-composite-5-3": (145, 145),
}


@pytest.mark.parametrize("cmd_id", sorted(BENCH_PV))
def test_bench_solves_keep_reference_work_counts(cmd_id):
    # the reference counts are those of the plain-key search
    want = _workloads().REFERENCE_COUNTS[cmd_id]
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
    # (states, table) above are the plain-key search's; these the canonical one's
    canonical_counts = {
        ("affine(11)", "descending"): (4458, 4458),
        ("pairs(5)", "ascending"): (386, 368),
        ("pairs(5)", "descending"): (287, 270),
        ("odd_composite(3,3)", "descending"): (34, 34),
    }
    game = C.parse_game_spec(spec)
    plain = solve(dataclasses.replace(game, canonical=None), move_order=order)
    assert (plain.states_visited, plain.table_size) == (states, table)
    assert list(plain.principal_variation) == pv
    report = solve(game, move_order=order)
    assert (report.states_visited, report.table_size) == canonical_counts[spec, order]
    assert list(report.principal_variation) == pv
