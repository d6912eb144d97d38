import itertools
import json
import random

import pytest

from avoidance.core import (ExplicitLines, GameError, Permutation,
                            check_line_preservation, is_transitive)
from avoidance import constructions as C
from avoidance import pairset as ps

from oracles import brute_contains_line, word_string


def all_catalog_games():
    return [
        C.odd_composite(3, 3),
        C.pairs_game(3),
        C.pairs_game(5),
        C.even_general(2, 3),
        C.torus(3, 1),
        C.torus(3, 2),
        C.torus(2, 2),
        C.torus(2, 3),
        C.disjoint_copies(C.pairs_game(3), 3),
        C.product_torus(1),
        C.affine_game(11),
        C.cycle_game(5),
        C.complete_graph_game(4),
        C.matching_game(2),
    ]


@pytest.mark.parametrize("game", all_catalog_games(), ids=lambda g: g.name)
def test_every_construction_is_transitive(game):
    assert is_transitive(game)


@pytest.mark.parametrize("game", all_catalog_games(), ids=lambda g: g.name)
def test_generators_preserve_lines(game):
    check_line_preservation(game)
    # and so do products of generators
    if len(game.generators) >= 2:
        combo = game.generators[0].compose(game.generators[1])
        game.lines.check_preserved(combo)


def test_parameter_validation():
    for bad in [lambda: C.odd_composite(2, 3), lambda: C.odd_composite(3, 4),
                lambda: C.pairs_game(4), lambda: C.even_general(1, 3),
                lambda: C.even_general(2, 4), lambda: C.torus(1, 2),
                lambda: C.disjoint_copies(C.pairs_game(3), 2),
                lambda: C.superset_lines(C.pairs_game(3), 2),
                lambda: C.affine_game(9), lambda: C.cycle_game(2)]:
        with pytest.raises(GameError):
            bad()


def test_torus_over_the_work_budget_is_refused_before_enumerating():
    # torus_lines is O(n^2 q d): torus(64,2) would run for many minutes
    import time
    for q, d in [(64, 2), (17, 2), (3, 6), (2, 10 ** 9)]:
        start = time.perf_counter()
        with pytest.raises(GameError, match="work budget"):
            C.torus(q, d)
        assert time.perf_counter() - start < 0.5
    assert 16 ** 5 * 2 <= C.TORUS_WORK_BUDGET    # torus(16,2) is admitted


# --- odd composite -----------------------------------------------------------

def test_odd_composite_counts():
    g = C.odd_composite(3, 3)
    w = {s for s in g.lines._w_iter()}
    assert len(w) == 27
    lines = [frozenset(c) for c in itertools.combinations(range(9), 4)
             if g.lines.is_line(frozenset(c))]
    assert len(lines) == 99
    assert all(frozenset(c) in w or frozenset(c) in set(lines)
               for c in itertools.combinations(range(9), 4))


def test_odd_composite_allowed_family_intersecting():
    g = C.odd_composite(3, 3)
    w = list(g.lines._w_iter())
    for w1, w2 in itertools.combinations(w, 2):
        assert w1 & w2


def test_odd_composite_contains_matches_bruteforce_everywhere():
    g = C.odd_composite(3, 3)
    for bits in range(1 << 9):
        s = frozenset(i for i in range(9) if (bits >> i) & 1)
        assert g.contains_line(s) == brute_contains_line(g.lines, s)


def test_odd_composite_35_contains_random_sets():
    g = C.odd_composite(3, 5)
    rng = random.Random(5)
    for _ in range(400):
        s = frozenset(x for x in range(15) if rng.random() < rng.random())
        assert g.contains_line(s) == brute_contains_line(g.lines, s)


# --- pairs -------------------------------------------------------------------

@pytest.mark.parametrize("b,count", [(3, 10), (5, 96), (7, 736)])
def test_pairs_allowed_count(b, count):
    assert len(C._pairs_w_sets(b)) == count
    assert count == 2 ** (b - 1) + b * ((b - 1) // 2) * 2 ** (b - 2)


def test_pairs_b3_is_a_half_family():
    # every 3-subset or its complement is allowed, never both
    g = C.pairs_game(3)
    w = set(C._pairs_w_sets(3))
    board = frozenset(range(6))
    for c in itertools.combinations(range(6), 3):
        s = frozenset(c)
        assert (s in w) != (board - s in w)


def test_pairs_explicit_implicit_agree():
    ge = C.pairs_game(3)
    gi = C.pairs_game(3, store="implicit")
    for bits in range(1 << 6):
        s = frozenset(i for i in range(6) if (bits >> i) & 1)
        assert ge.contains_line(s) == gi.contains_line(s)
        if len(s) == 3:
            assert ge.lines.is_line(s) == gi.lines.is_line(s)


def test_pairs_implicit_contains_matches_bruteforce():
    gi = C.pairs_game(3, store="implicit")
    for bits in range(1 << 6):
        s = frozenset(i for i in range(6) if (bits >> i) & 1)
        assert gi.contains_line(s) == brute_contains_line(gi.lines, s)


def test_pairs_lines_size_b():
    for b in (3, 5):
        g = C.pairs_game(b)
        assert all(len(l) == b for l in g.lines.lines)


def test_pairs_allowed_family_intersecting():
    for b in (3, 5):
        w = C._pairs_w_sets(b)
        for w1, w2 in itertools.combinations(w, 2):
            assert w1 & w2, (sorted(w1), sorted(w2))


# --- even general ------------------------------------------------------------

def test_even_general_allowed_count_and_complement_free():
    g = C.even_general(2, 3)
    w = list(g.lines._w_iter())
    assert len(w) == 224
    board = frozenset(range(12))
    member = g.lines._w_member
    for s in w:
        assert member(s)
        assert not member(board - s)


def test_even_general_transversal_membership_is_three_max_calls():
    # membership of a one-per-pair set reduces to per-bin maximal points;
    # oracle recomputes those by explicit string rotation comparison
    g = C.even_general(2, 3)
    member = g.lines._w_member
    rng = random.Random(11)
    for _ in range(1000):
        total = 0
        pts = set()
        for j in range(3):
            bin_pts = {rng.choice((0, 2)), rng.choice((1, 3))}
            pts.update(4 * j + y for y in bin_pts)
            words = {v: word_string(bin_pts, 4, v, 4) for v in range(4)}
            best = max(words.values())
            starts = [v for v, wd in words.items() if wd == best]
            assert len(starts) == 1
            total += starts[0]
        assert member(frozenset(pts)) == (total % 4 < 2)


def test_even_general_contains_matches_bruteforce_random():
    g = C.even_general(2, 3)
    rng = random.Random(3)
    w = list(g.lines._w_iter())
    board = frozenset(range(12))
    lines = [board - s for s in w]
    for _ in range(1000):
        s = frozenset(x for x in range(12) if rng.random() < 0.55)
        expect = any(l <= s for l in lines)
        assert g.contains_line(s) == expect


def test_even_general_extendability_brute_cross_check():
    g = C.even_general(2, 3)
    w = list(g.lines._w_iter())
    rng = random.Random(9)
    for _ in range(300):
        t = frozenset(x for x in range(12) if rng.random() < 0.3)
        expect = any(t <= s for s in w)
        assert C._even_extendable(3, 4, t) == expect


# --- torus -------------------------------------------------------------------

def test_torus_counts_and_negation_closure():
    g = C.torus(3, 2)
    assert len(g.lines.lines) == 12
    assert all(len(l) == 3 for l in g.lines.lines)
    lines = set(g.lines.lines)
    for l in lines:
        neg = frozenset(C._torus_index(tuple((-c) % 3 for c in C._torus_coords(x, 3, 2)), 3)
                        for x in l)
        assert neg in lines


def test_torus_31_single_line():
    g = C.torus(3, 1)
    assert g.lines.lines == (frozenset({0, 1, 2}),)


def test_torus_q2_is_complete_graph():
    g = C.torus(2, 2)
    assert set(g.lines.lines) == {frozenset(e) for e in itertools.combinations(range(4), 2)}


# --- derived games -----------------------------------------------------------

def test_disjoint_copies_structure():
    base = C.pairs_game(3)
    one = C.disjoint_copies(base, 1)
    assert len(one.lines.lines) == len(base.lines.lines)
    three = C.disjoint_copies(base, 3)
    assert three.n == 18
    assert len(three.lines.lines) == 3 * len(base.lines.lines)
    assert all(len(l) == 3 for l in three.lines.lines)


def test_superset_lines_small_example():
    g = C.parse_game_spec("torus(3,1)")   # single line {0,1,2} on 3 points
    base = C.disjoint_copies(g, 1)
    from avoidance.core import Game
    host = Game(5, ExplicitLines(5, [[0, 1, 2]]), (), "host")
    sup = C.superset_lines(host, 4)
    lines = set(sup.lines.lines)
    assert lines == {frozenset({0, 1, 2, 3}), frozenset({0, 1, 2, 4})}


def test_superset_lines_containment_equivalence():
    host = C.pairs_game(3)
    sup = C.superset_lines(host, 4)
    for bits in range(1 << 6):
        s = frozenset(i for i in range(6) if (bits >> i) & 1)
        assert sup.contains_line(s) == (len(s) >= 4 and host.contains_line(s))


def test_product_torus_counts():
    g = C.product_torus(1)
    assert g.n == 18
    assert len(g.lines.lines) == 36
    assert all(len(l) == 3 for l in g.lines.lines)


def test_product_torus_antipodal_map_preserves_lines():
    g = C.product_torus(1)
    anti = Permutation(tuple((((-(i // 6)) % 3) * 6) + i % 6 for i in range(18)))
    g.lines.check_preserved(anti)


# --- affine ------------------------------------------------------------------

def test_affine_11_structure():
    g = C.affine_game(11)
    assert g.meta["allowed_count"] == 110
    assert len(g.lines.lines) == 462 - 110
    assert is_transitive(g)


def test_affine_rejects_non_intersecting_bases():
    with pytest.raises(GameError, match="disjoint"):
        C.affine_game(5, bases=[{0, 1}])


def test_affine_13_intersecting():
    g = C.affine_game(13)   # construction itself verifies the family
    assert g.meta["allowed_count"] == 390


# --- serialization & specs ---------------------------------------------------

def test_game_spec_parser_errors():
    for bad in ["nope(3)", "pairs", "pairs(3", "torus(3,2,9)"]:
        with pytest.raises((GameError, TypeError)):
            C.parse_game_spec(bad)


def _nested_copies(depth: int) -> str:
    """``pairs(3)`` inside depth - 1 one-copy wrappers: depth nested parentheses."""
    return "copies(" * (depth - 1) + "pairs(3)" + ",1)" * (depth - 1)


def test_game_spec_nesting_is_bounded_before_recursing():
    assert C.parse_game_spec(_nested_copies(C.MAX_SPEC_DEPTH)).n == 6
    for depth in (C.MAX_SPEC_DEPTH + 1, 3000):
        with pytest.raises(GameError, match=str(C.MAX_SPEC_DEPTH)):
            C.parse_game_spec(_nested_copies(depth))


@pytest.mark.parametrize("spec", ["pairs(3)", "torus(3,2)", "cycle(5)",
                                  "odd_composite(3,3)", "even_general(2,3)",
                                  "copies(pairs(3),3)"])
def test_json_round_trip(spec):
    g = C.parse_game_spec(spec)
    doc = json.loads(json.dumps(C.game_to_json(g)))
    g2 = C.game_from_json(doc)
    assert g2.n == g.n
    rng = random.Random(1)
    for _ in range(100):
        s = frozenset(x for x in range(g.n) if rng.random() < 0.5)
        assert g.contains_line(s) == g2.contains_line(s)
    assert [p.image for p in g2.generators] == [p.image for p in g.generators]


def test_json_load_refuses_a_document_that_differs_from_its_name():
    doc = C.game_to_json(C.pairs_game(3))
    swapped = dict(doc, lines={"explicit": [[0, 1]]})
    with pytest.raises(GameError, match="differ"):
        C.game_from_json(swapped)
    with pytest.raises(GameError, match="differ"):
        C.game_from_json(dict(doc, generators=doc["generators"][:1]))
    implicit = C.game_to_json(C.odd_composite(3, 3))
    with pytest.raises(GameError, match="differ"):
        C.game_from_json(dict(implicit, generators=[list(range(9))]))
    # the same family written in another order loads
    doc["lines"]["explicit"].reverse()
    assert C.game_from_json(doc).name == "pairs(3)"
    # an unnamed document is used as written
    plain = {"n": 3, "name": "tri", "lines": {"explicit": [[0, 1]]}, "generators": []}
    assert C.game_from_json(plain).lines.lines == (frozenset({0, 1}),)
