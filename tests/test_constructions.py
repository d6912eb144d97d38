import dataclasses
import hashlib
import itertools
import json
import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from avoidance.core import (ExplicitLines, Game, GameError, ImplicitLines,
                            LinePreservationError, Permutation,
                            check_line_preservation, is_transitive, iter_bits,
                            mask_of, set_of)
from avoidance import constructions as C
from avoidance import pairset as ps

from oracles import (brute_contains_line, brute_downset, ref_affine_disjoint_pair,
                     ref_bin_window, ref_pairs_w_masks, ref_unpreserved_allowed,
                     ref_unpreserved_line, word_string)


def all_catalog_games():
    return [
        C.odd_composite(3, 3),
        C.pairs_game(3),
        C.pairs_game(5),
        C.pairs_game(5, "implicit"),
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
        C.superset_lines(C.odd_composite(3, 3), 5),
        C.superset_lines(C.even_general(2, 3), 7),
    ]


def _catalog_id(game) -> str:
    """The game's name; the implicit pair store is marked apart from the explicit one."""
    if game.meta["construction"] == "pairs" and isinstance(game.lines, ImplicitLines):
        return game.name + "-implicit"
    return game.name


@pytest.mark.parametrize("game", all_catalog_games(), ids=_catalog_id)
def test_every_construction_is_transitive(game):
    assert is_transitive(game)


@pytest.mark.parametrize("game", all_catalog_games(), ids=_catalog_id)
def test_generators_preserve_lines(game):
    check_line_preservation(game)
    # and so do products of generators
    if len(game.generators) >= 2:
        g0, g1 = game.generators[:2]
        combo = Permutation(tuple(map(g0, g1.image)))
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
    assert 16 ** 5 * 2 <= C.CONSTRUCTION_WORK_BUDGET    # torus(16,2) is admitted


@pytest.mark.parametrize("spec", ["pairs(17)", "pairs(41)", "even_general(40,3)",
                                  "odd_composite(100001,100001)", "cycle(1000000)",
                                  "complete(3000)", "matching(1000000)",
                                  "copies(pairs(3),20001)", "product_torus(6)",
                                  "affine(1000000000000000003)"])
def test_oversize_catalog_game_is_refused_before_it_is_built(spec):
    import time
    start = time.perf_counter()
    with pytest.raises(GameError, match="work budget"):
        C.parse_game_spec(spec)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("family,last", [("cycle", 10943), ("matching", 7570),
                                         ("complete", 639)])
def test_graph_boards_build_up_to_the_documented_size(family, last):
    # the line masks are the real cost: cycle(50000) took 205 MiB unguarded
    assert C.parse_game_spec(f"{family}({last})").lines.masks
    with pytest.raises(GameError, match="work budget"):
        C.parse_game_spec(f"{family}({last + 1})")


@pytest.mark.parametrize("last,refused", [("odd_composite(511,511)", "odd_composite(513,513)"),
                                          ("even_general(16,3)", "even_general(17,3)"),
                                          ("even_general(2,65535)", "even_general(2,65537)")])
def test_implicit_boards_build_up_to_the_documented_size(last, refused):
    # implicit stores build no line tables, so only the two generator
    # images count: 8 words a point, at most 262144 points
    assert C.parse_game_spec(last).n in (261121, 196608, 262140)
    with pytest.raises(GameError, match="work budget"):
        C.parse_game_spec(refused)


def test_affine_user_bases_over_the_budget_are_refused():
    # the lines are every (n-1)/2-subset outside the allowed family
    with pytest.raises(GameError, match="work budget"):
        C.affine_game(29, bases=[range(14)])
    assert C.affine_game(11, bases=[[0, 1, 2, 4, 5]]).n == 11


# --- odd composite -----------------------------------------------------------

def test_odd_composite_counts():
    g = C.odd_composite(3, 3)
    w = set(map(set_of, g.lines._w_iter()))
    assert len(w) == 27
    lines = [frozenset(c) for c in itertools.combinations(range(9), 4)
             if g.lines.contains_mask(mask_of(c))]
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
        assert g.lines.contains_mask(bits) == brute_contains_line(g.lines, s)


def test_odd_composite_35_contains_random_sets():
    g = C.odd_composite(3, 5)
    rng = random.Random(5)
    for _ in range(400):
        s = frozenset(x for x in range(15) if rng.random() < rng.random())
        assert g.lines.contains_mask(mask_of(s)) == brute_contains_line(g.lines, s)


# --- pairs -------------------------------------------------------------------

@pytest.mark.parametrize("b,count", [(3, 10), (5, 96), (7, 736)])
def test_pairs_allowed_count(b, count):
    assert len(list(C.pairs_rule(b).w_iter())) == count
    assert count == 2 ** (b - 1) + b * ((b - 1) // 2) * 2 ** (b - 2)


def test_pairs_b3_is_a_half_family():
    # every 3-subset or its complement is allowed, never both
    g = C.pairs_game(3)
    w = set(map(set_of, C.pairs_rule(3).w_iter()))
    board = frozenset(range(6))
    for c in itertools.combinations(range(6), 3):
        s = frozenset(c)
        assert (s in w) != (board - s in w)


def test_pairs_explicit_implicit_agree():
    ge = C.pairs_game(3)
    gi = C.pairs_game(3, store="implicit")
    for bits in range(1 << 6):
        s = frozenset(i for i in range(6) if (bits >> i) & 1)
        assert ge.lines.contains_mask(bits) == gi.lines.contains_mask(bits)
        if len(s) == 3:
            assert (bits in ge.lines.masks) == gi.lines.contains_mask(bits)
    # the implicit store's mask predicates against the enumerated family
    allowed = set(ref_pairs_w_masks(5))
    below = brute_downset(allowed)
    rule = C.pairs_rule(5)
    is_allowed, extendable = rule.allowed, rule.extendable
    for t in range(1 << 10):
        assert is_allowed(t) == (t in allowed), sorted(set_of(t))
        assert extendable(t) == (t in below), sorted(set_of(t))


@pytest.mark.parametrize("b", [3, 5, 7, 9])
def test_pairs_lines_are_complements_of_the_reference_allowed_sets_in_order(b):
    full = (1 << 2 * b) - 1
    assert list(C.pairs_game(b).lines.masks) == [full ^ w for w in ref_pairs_w_masks(b)]


@pytest.mark.parametrize("b", [7, 9])
def test_pairs_stores_agree_on_random_masks(b):
    explicit = C.pairs_game(b).lines.contains_mask
    implicit = C.pairs_game(b, "implicit").lines.contains_mask
    rng = random.Random(b)
    for size in range(b - 1, b + 4):
        for _ in range(300):
            mask = mask_of(rng.sample(range(2 * b), size))
            assert explicit(mask) == implicit(mask), sorted(set_of(mask))


def test_pairs_implicit_contains_matches_bruteforce():
    gi = C.pairs_game(3, store="implicit")
    for bits in range(1 << 6):
        s = frozenset(i for i in range(6) if (bits >> i) & 1)
        assert gi.lines.contains_mask(mask_of(s)) == brute_contains_line(gi.lines, s)


def test_pairs_lines_size_b():
    for b in (3, 5):
        g = C.pairs_game(b)
        assert all(m.bit_count() == b for m in g.lines.masks)


def test_pairs_allowed_family_intersecting():
    for b in (3, 5):
        w = list(C.pairs_rule(b).w_iter())
        for w1, w2 in itertools.combinations(w, 2):
            assert w1 & w2, (sorted(set_of(w1)), sorted(set_of(w2)))


# --- even general ------------------------------------------------------------

def test_even_general_allowed_count_and_complement_free():
    g = C.even_general(2, 3)
    w = list(g.lines._w_iter())
    assert len(w) == 224
    member = g.lines._w_member
    for s in w:
        assert member(s)
        assert not member(g.full_mask ^ s)


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
        assert member(mask_of(pts)) == (total % 4 < 2)


@pytest.mark.parametrize("rule", [(C.pairs_rule, 3), (C.pairs_rule, 5),
                                  (C.even_general_rule, 2, 3), (C.even_general_rule, 2, 5),
                                  (C.even_general_rule, 3, 3), (C.even_general_rule, 4, 3),
                                  (C.even_general_rule, 5, 3)],
                         ids=lambda r: f"{r[0].__name__}{r[1:]}")
def test_bin_rule_transversals_follow_their_bins_maximal_points(rule):
    # transversals, against the definition: the bins' maximal points plus
    # the offset fall into [0, m/2) mod m. Up to m = 8 every transversal;
    # at m = 16 and 32, the bin sizes the sampled verifies steer, 300
    # seeded ones, one full pair set per bin
    rule = rule[0](*rule[1:])
    m = rule.m
    words = list(ps.extension_masks(m, 0))
    if m <= 8:
        combos = list(itertools.product(words, repeat=rule.b))
    else:
        rng = random.Random(m)
        combos = [[rng.choice(words) for _ in range(rule.b)] for _ in range(300)]

    def check():
        for combo in combos:
            w = sum(t << j * m for j, t in enumerate(combo))
            total = rule.offset + sum(ps.maximal_point(m, t) for t in combo)
            assert rule.allowed(w) == (total % m < m // 2), sorted(set_of(w))

    ps._fresh_full_maxima(m)
    check()
    if 4 <= m <= 16:
        ps.run_suite("not-top", m)  # refills the table the rule reads
    check()  # at m = 32, from the entries the first pass stored


def test_even_general_contains_matches_bruteforce_random():
    g = C.even_general(2, 3)
    rng = random.Random(3)
    w = list(map(set_of, g.lines._w_iter()))
    board = frozenset(range(12))
    lines = [board - s for s in w]
    for _ in range(1000):
        s = frozenset(x for x in range(12) if rng.random() < 0.55)
        expect = any(l <= s for l in lines)
        assert g.lines.contains_mask(mask_of(s)) == expect


@pytest.mark.parametrize("m", [2, 4, 8, 16])
@pytest.mark.parametrize("b", [3, 5, 7])
def test_bin_window_is_the_rules_window_of_each_pair(b, m):
    window = C.bin_rule(b, m, 0).window
    for x in range(b * m):
        assert set_of(window(x)) == ref_bin_window(b, m, x), x


def test_even_general_extendability_brute_cross_check():
    rule = C.bin_rule(3, 4, 0)
    w_iter, extendable = rule.w_iter, rule.extendable
    below = brute_downset(w_iter())
    for t in range(1 << 12):
        assert extendable(t) == (t in below), sorted(set_of(t))
    # only m = 8 reaches the same-bin window (1..m/4-1 is empty at m = 4):
    # subsets of allowed sets, half of them with one point added
    rule = C.bin_rule(3, 8, 0)
    w_iter, extendable = rule.w_iter, rule.extendable
    allowed = list(w_iter())
    rng = random.Random(9)
    for _ in range(200):
        t = mask_of(rng.sample(list(iter_bits(rng.choice(allowed))), rng.randrange(13)))
        if rng.random() < 0.5:
            t |= 1 << rng.randrange(24)
        expect = any(t & w == t for w in allowed)
        assert extendable(t) == expect, sorted(set_of(t))


# --- torus -------------------------------------------------------------------

def _torus_coords(q: int, d: int) -> list:
    """Each point's coordinates: its base-q digits, most significant first."""
    return [tuple(i // q ** (d - 1 - a) % q for a in range(d)) for i in range(q ** d)]


def test_torus_counts_and_negation_closure():
    g = C.torus(3, 2)
    assert len(g.lines.masks) == 12
    assert all(m.bit_count() == 3 for m in g.lines.masks)
    coords = _torus_coords(3, 2)
    lines = set(map(set_of, g.lines.masks))
    for l in lines:
        neg = frozenset(coords.index(tuple((-c) % 3 for c in coords[x])) for x in l)
        assert neg in lines


@pytest.mark.parametrize("q,d", [(2, 3), (4, 2), (3, 1), (5, 2)])
def test_torus_generators_and_lines_follow_the_coordinates(q, d):
    g = C.torus(q, d)
    coords = _torus_coords(q, d)
    index = {c: i for i, c in enumerate(coords)}
    # a translation per axis, the rotation of the axes when d > 1, negation
    maps = [lambda c, a=a: tuple((x + (b == a)) % q for b, x in enumerate(c))
            for a in range(d)]
    maps += [lambda c: c[1:] + c[:1]] if d > 1 else []
    maps += [lambda c: tuple((-x) % q for x in c)]
    assert [p.image for p in g.generators] == \
        [tuple(index[f(c)] for c in coords) for f in maps]
    # the sets {x + t*y : t in Z_q} for y != 0, ordered by point list
    lines = {frozenset(index[tuple((x + t * y) % q for x, y in zip(xc, yc))]
                       for t in range(q))
             for xc in coords for yc in coords if any(yc)}
    assert [set_of(m) for m in g.lines.masks] == sorted(lines, key=sorted)


def test_torus_31_single_line():
    g = C.torus(3, 1)
    assert tuple(map(set_of, g.lines.masks)) == (frozenset({0, 1, 2}),)


def test_torus_q2_is_complete_graph():
    g = C.torus(2, 2)
    assert set(map(set_of, g.lines.masks)) == \
        {frozenset(e) for e in itertools.combinations(range(4), 2)}


# --- derived games -----------------------------------------------------------

def test_disjoint_copies_structure():
    base = C.pairs_game(3)
    one = C.disjoint_copies(base, 1)
    assert len(one.lines.masks) == len(base.lines.masks)
    three = C.disjoint_copies(base, 3)
    assert three.n == 18
    assert len(three.lines.masks) == 3 * len(base.lines.masks)
    assert all(m.bit_count() == 3 for m in three.lines.masks)


def test_superset_lines_small_example():
    g = C.parse_game_spec("torus(3,1)")   # single line {0,1,2} on 3 points
    base = C.disjoint_copies(g, 1)
    from avoidance.core import Game
    host = Game(5, ExplicitLines(5, [0b111]), (), "host")
    sup = C.superset_lines(host, 4)
    lines = set(map(set_of, sup.lines.masks))
    assert lines == {frozenset({0, 1, 2, 3}), frozenset({0, 1, 2, 4})}


def test_implicit_superset_checks_generators_against_its_base():
    # swapping points 2 and 3 moves the allowed set {0, 1, 3, 4} of the
    # base to {0, 1, 2, 4}, three points in one bucket
    sup = C.superset_lines(C.odd_composite(3, 3), 5)
    assert isinstance(sup.lines, ImplicitLines)
    swap = Permutation((0, 1, 3, 2, 4, 5, 6, 7, 8))
    with pytest.raises(LinePreservationError):
        sup.lines.check_preserved(swap)
    with pytest.raises(LinePreservationError):
        is_transitive(Game(9, sup.lines, (swap,), "broken"))


def test_superset_lines_containment_equivalence():
    host = C.pairs_game(3)
    sup = C.superset_lines(host, 4)
    for bits in range(1 << 6):
        s = frozenset(i for i in range(6) if (bits >> i) & 1)
        assert sup.lines.contains_mask(bits) == (
            len(s) >= 4 and host.lines.contains_mask(bits))


def test_product_torus_counts():
    g = C.product_torus(1)
    assert g.n == 18
    assert len(g.lines.masks) == 36
    assert all(m.bit_count() == 3 for m in g.lines.masks)


def test_product_torus_antipodal_map_preserves_lines():
    g = C.product_torus(1)
    anti = Permutation(tuple((((-(i // 6)) % 3) * 6) + i % 6 for i in range(18)))
    g.lines.check_preserved(anti)


# --- affine ------------------------------------------------------------------

def test_affine_11_structure():
    g = C.affine_game(11)
    assert g.meta["allowed_count"] == 110
    assert len(g.lines.masks) == 462 - 110
    assert is_transitive(g)


def test_affine_rejects_non_intersecting_bases():
    with pytest.raises(GameError, match="disjoint"):
        C.affine_game(5, bases=[{0, 1}])


def test_affine_13_intersecting():
    g = C.affine_game(13)   # construction itself verifies the family
    assert g.meta["allowed_count"] == 390


def test_affine_refuses_a_base_with_disjoint_images():
    # the translate by 6 of {0..5} is {6..11}
    with pytest.raises(GameError, match=r"\[0, 1, 2, 3, 4, 5\] and "
                                        r"\[6, 7, 8, 9, 10, 11\] are disjoint"):
        C.affine_game(13, bases=[set(range(6))])


def test_affine_intersecting_test_agrees_with_the_pairwise_oracle():
    # 200 random bases on 7, 11 and 13 points: the builder's complement
    # lookups refuse exactly the closures in which pairwise tests find two
    # disjoint sets, and name the same first pair
    rng = random.Random(12)
    built = refused = 0
    for _ in range(200):
        n = rng.choice((7, 11, 13))
        k = (n - 1) // 2
        base = rng.sample(range(n), k)
        closure, pair = ref_affine_disjoint_pair(n, [base])
        if pair is None:
            g = C.affine_game(n, bases=[base])
            assert g.meta["allowed_count"] == len(closure)
            assert set(map(set_of, g.lines.masks)) == \
                {frozenset(c) for c in itertools.combinations(range(n), k)} - closure
            built += 1
        else:
            with pytest.raises(GameError) as exc:
                C.affine_game(n, bases=[base])
            assert str(exc.value) == \
                f"allowed family not intersecting: {pair[0]} and {pair[1]} are disjoint"
            refused += 1
    assert built == 56 and refused == 144


# --- explicit line masks -----------------------------------------------------

# sha256 of json.dumps(game_to_json(game), sort_keys=True), first 16 hex
# digits, as the frozenset builders emitted them before the mask builders
JSON_DIGESTS = {
    "pairs(3)": "3f11bf3e5aa5e5ea",
    "pairs(5)": "6decce6b5844013f",
    "pairs(7)": "dd33bd75cdce0ee0",
    "affine(11)": "577af27165a17ffd",
    "affine(13)": "49bb126a5525cc83",
    "torus(3,2)": "111cad62c53d8db2",
    "torus(3,3)": "c22caace1370cbe6",
    "cycle(5)": "4a0e9b4bbe2046ea",
    "complete(5)": "01c3ea4e9e3ea8bb",
    "matching(3)": "8101a8775349e52d",
    "copies(pairs(3),3)": "f20cb2da8841ca9d",
    "superset(pairs(5),6)": "eb30502693f44d00",
    "product_torus(1)": "55a0eeba0d18d37c",
}


@pytest.mark.parametrize("spec", sorted(JSON_DIGESTS))
def test_explicit_game_documents_are_pinned_and_round_trip(spec):
    g = C.parse_game_spec(spec)
    doc = C.game_to_json(g)
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == JSON_DIGESTS[spec]
    # rebuilt from the name, and read as written under a name that does not parse
    for name in (spec, "unnamed"):
        loaded = C.game_from_json(dict(json.loads(text), name=name))
        assert loaded.lines.masks == g.lines.masks
        assert C.game_to_json(loaded) == dict(doc, name=name)


def _mixed_board() -> Game:
    lines = [{0, 1}, {1, 2, 3}, {0, 2, 4, 5}, {3, 4, 5, 6}, {6, 2}]
    return Game(7, ExplicitLines(7, map(mask_of, lines)), (), "mixed")


@pytest.mark.parametrize("base,r", [(C.pairs_game(5), 6), (C.pairs_game(5), 8),
                                    (C.torus(3, 2), 4), (C.torus(3, 2), 6),
                                    (_mixed_board(), 4), (_mixed_board(), 5)],
                         ids=lambda v: getattr(v, "name", v))
def test_superset_lines_equal_the_enumeration_of_all_r_sets(base, r):
    assert [set_of(m) for m in C.superset_lines(base, r).lines.masks] == \
        _brute_superset(base, r)


def _brute_superset(base: Game, r: int) -> list:
    lines = [set_of(m) for m in base.lines.masks]
    return sorted({frozenset(c) for c in itertools.combinations(range(base.n), r)
                   if any(l <= set(c) for l in lines)}, key=sorted)


@pytest.mark.parametrize("base,r", [(C.pairs_game(5), 6), (C.pairs_game(5), 8),
                                    (C.pairs_game(5), 10), (C.torus(3, 2), 4),
                                    (C.torus(3, 2), 6), (_mixed_board(), 4),
                                    (_mixed_board(), 7)],
                         ids=lambda v: getattr(v, "name", v))
def test_superset_scan_equals_the_enumeration_of_all_r_sets(base, r):
    # the scan path on its own, whichever path the budget picks for the base
    got = C._superset_scan(base.lines.masks, base.n, r)
    assert [set_of(m) for m in got] == _brute_superset(base, r)


def test_superset_scan_is_charged_against_the_work_budget():
    # C(22, 17) r-sets, each an OR of 6 words of pairs(11)'s 29184 lines:
    # the scan at once, and the line-by-line scan before it took 7-9 s
    with pytest.raises(GameError, match="superset.pairs.11.,17. is over the work budget"):
        C.parse_game_spec("superset(pairs(11),17)")
    # refused, not swapped for another store: a document by that name with
    # explicit lines still loads from its own lines
    doc = {"n": 22, "name": "superset(pairs(11),17)", "lines": {"explicit": [[0, 1]]},
           "generators": []}
    assert C.game_from_json(doc).lines.masks == (0b11,)


@pytest.mark.parametrize("k,r", [(40, 38), (100, 98)])
def test_superset_of_a_dense_base_draws_each_r_set_at_most_once(monkeypatch, k, r):
    # filling each of complete(100)'s 4950 edges up to 98 points would draw
    # 23.5M sets for its C(100, 98) = 4950 lines; the r-sets are scanned
    base = C.complete_graph_game(k)
    combinations, drawn = itertools.combinations, 0

    def counted(pool, size):
        nonlocal drawn
        for c in combinations(pool, size):
            drawn += 1
            assert drawn <= comb(k, r), "superset drew more sets than there are r-sets"
            yield c

    monkeypatch.setattr(itertools, "combinations", counted)
    got = C.superset_lines(base, r).lines.masks
    monkeypatch.undo()
    assert [set_of(m) for m in got] == _brute_superset(base, r)


EXPLICIT_BOARDS = [C.parse_game_spec(spec) for spec in sorted(JSON_DIGESTS)]


def _draw_permutation(data, game) -> Permutation:
    """A word in the generators (which preserves the lines), then perhaps a
    transposition or an arbitrary permutation (which mostly does not)."""
    n = game.n
    img = tuple(range(n))
    for g in data.draw(st.lists(st.sampled_from(game.generators), max_size=4)):
        img = tuple(map(g, img))
    kind = data.draw(st.sampled_from(["word", "swap", "any"]))
    if kind == "swap":
        x, y = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        swap = {x: y, y: x}
        img = tuple(swap.get(z, z) for z in img)
    elif kind == "any":
        img = tuple(data.draw(st.permutations(range(n))))
    return Permutation(img)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mask_check_preserved_agrees_with_the_set_oracle(data):
    game = data.draw(st.sampled_from(EXPLICIT_BOARDS), label="game")
    perm = _draw_permutation(data, game)
    want = ref_unpreserved_line(game.lines, perm)
    if want is None:
        game.lines.check_preserved(perm)
        return
    with pytest.raises(LinePreservationError) as exc:
        game.lines.check_preserved(perm)
    assert exc.value.witness == want
    assert str(exc.value) == (f"generator maps line {sorted(want)} to non-line "
                              f"{sorted(map(perm, want))}")


IMPLICIT_BOARDS = [C.pairs_game(5, "implicit"), C.odd_composite(3, 3), C.even_general(2, 3)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_implicit_mask_check_preserved_agrees_with_the_set_oracle(data):
    # the allowed sets go through the permutation's mask map and the
    # membership predicate; the oracle maps each set point by point and
    # looks it up among the enumerated sets
    game = data.draw(st.sampled_from(IMPLICIT_BOARDS), label="game")
    perm = _draw_permutation(data, game)
    want = ref_unpreserved_allowed(game.lines, perm)
    if want is None:
        game.lines.check_preserved(perm)
        return
    with pytest.raises(LinePreservationError) as exc:
        game.lines.check_preserved(perm)
    assert exc.value.witness == want
    assert str(exc.value) == f"generator maps allowed set {sorted(want)} out of the family"


# --- serialization & specs ---------------------------------------------------

def test_game_spec_parser_errors():
    for bad in ["nope(3)", "pairs", "pairs(3", "torus(3,2,9)"]:
        with pytest.raises(GameError):
            C.parse_game_spec(bad)


@pytest.mark.parametrize("spec", ["odd_composite(3,5)", "pairs(7)", "even_general(2,3)",
                                  "torus(3,2)", "affine(13)", "cycle(5)", "complete(4)",
                                  "matching(3)", "superset(pairs(5),6)",
                                  "superset(odd_composite(3,3),5)", "copies(pairs(3),3)",
                                  "product_torus(1)", "superset(copies(pairs(3),3),5)"])
def test_spec_size_is_the_size_of_the_built_board(spec):
    assert C.spec_size(spec) == C.parse_game_spec(spec).n


@pytest.mark.parametrize("spec", ["nope(3)", "pairs(3", "pairs(4)", "pairs(x)", "torus(1,2)",
                                  "torus(64,2)", "even_general(1,3)", "even_general(30,3)",
                                  "affine(9)", "affine(97)", "affine(2)", "affine(3)",
                                  "affine(5)", "affine(7)", "cycle(2)", "matching(1)",
                                  "complete(3000)", "odd_composite(3,4)",
                                  "superset(pairs(4),6)", "superset(pairs(3),7)",
                                  "copies(pairs(3),3,1)", "copies(pairs(3),2)",
                                  "product_torus(0)", "product_torus(9)"])
def test_spec_size_refuses_what_the_factories_refuse_first(spec):
    # the parameter checks and work budgets of a spec come before any building
    with pytest.raises(GameError) as built:
        C.parse_game_spec(spec)
    with pytest.raises(GameError) as sized:
        C.spec_size(spec)
    assert str(sized.value) == str(built.value)


def _specs(depth: int):
    """Spec strings of catalog heads over integers <= 12, nesting <= depth;
    mostly with the head's own parameters, else with any 0..3 arguments."""
    num = (st.sampled_from([2, 3, 5]) | st.integers(-2, 12)).map(str)
    arg = num | _specs(depth - 1) if depth > 1 else num

    def args(head):
        own = [arg if p == "base" else num for p in C.CATALOG[head]["params"]]
        return st.tuples(*own) | st.lists(arg, max_size=3)

    return st.sampled_from(sorted(C.CATALOG)).flatmap(
        lambda head: args(head).map(lambda a: f"{head}({','.join(a)})"))


@st.composite
def _junk_specs(draw):
    """A spec, half the time with one to three junk characters inserted."""
    spec = draw(_specs(3))
    junk = st.tuples(st.integers(0, 40), st.sampled_from("(),x- 9_\u0663"))
    for i, ch in draw(st.just([]) | st.lists(junk, min_size=1, max_size=3)):
        spec = spec[:i] + ch + spec[i:]
    return spec


@settings(max_examples=300, deadline=None)
@given(_junk_specs())
def test_spec_parser_raises_only_game_errors_and_sizes_what_it_builds(spec):
    # sizing need not imply building: superset(pairs(3),2) sizes to 6, but
    # its base's lines are longer than 2
    try:
        n = C.spec_size(spec)
    except GameError:
        n = None
    if n is not None and n > 64:
        return  # sized; left unbuilt to keep the test fast
    try:
        game = C.parse_game_spec(spec)
    except GameError:
        return
    assert n == game.n


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
                                  "copies(pairs(3),3)", "superset(odd_composite(3,3),5)"])
def test_json_round_trip(spec):
    g = C.parse_game_spec(spec)
    doc = json.loads(json.dumps(C.game_to_json(g)))
    g2 = C.game_from_json(doc)
    assert g2.n == g.n
    rng = random.Random(1)
    for _ in range(100):
        s = frozenset(x for x in range(g.n) if rng.random() < 0.5)
        assert g.lines.contains_mask(mask_of(s)) == g2.lines.contains_mask(mask_of(s))
    assert [p.image for p in g2.generators] == [p.image for p in g.generators]


def test_an_implicit_store_is_written_by_the_construction_its_game_names():
    game = C.pairs_game(5, "implicit")
    assert C.game_to_json(game)["lines"] == {
        "implicit": {"construction": "pairs", "params": {"b": 5}}}
    with pytest.raises(GameError, match="unknown line store"):
        C.game_to_json(dataclasses.replace(game, meta={}))


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
    assert tuple(map(set_of, C.game_from_json(plain).lines.masks)) == (frozenset({0, 1}),)
