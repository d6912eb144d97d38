"""Canonical position keys: invariance, exactness, and where they are carried.

``Game.canonical`` keys the solver tables, so two positions may share a
key only if an automorphism maps one onto the other. The properties below
check that against the shipped generators (and, for ``odd_composite``,
every bucket-preserving permutation), against the orbits of the shipped
group (for ``pairs`` and ``affine``), against a loop over that group, against
the values of the plain-key tables, and against the plain-key solve itself.
"""

import dataclasses
import itertools
import json
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from avoidance import constructions as C
from avoidance.core import ExplicitLines, Game, Permutation, iter_bits, mask_of
from avoidance.solver import _negamax, earliest_forced_loss, solve

from oracles import ref_affine_key, ref_pairs_key, ref_solve, reversed_points

CANONICAL_GAMES = [C.pairs_game(3), C.pairs_game(5), C.pairs_game(7),
                   C.pairs_game(5, "implicit"), C.odd_composite(3, 3),
                   C.odd_composite(3, 5), C.odd_composite(5, 3),
                   C.affine_game(11), C.affine_game(13)]


def _ids(game):
    return f"{game.name}-{type(game.lines).__name__}"


def _image(img, mask: int) -> int:
    return mask_of(img[x] for x in iter_bits(mask))


def _position(owners) -> tuple:
    """(mine, theirs) from a per-point owner list: 0 free, 1 mine, 2 theirs."""
    mine = mask_of(x for x, o in enumerate(owners) if o == 1)
    theirs = mask_of(x for x, o in enumerate(owners) if o == 2)
    return mine, theirs


def _positions(n: int):
    return st.lists(st.integers(0, 2), min_size=n, max_size=n).map(_position)


def _group(game) -> list:
    """Every element of the generated group, as image tuples."""
    ident = tuple(range(game.n))
    seen, queue = {ident}, deque([ident])
    while queue:
        cur = queue.popleft()
        for g in game.generators:
            nxt = tuple(g.image[c] for c in cur)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return sorted(seen)


@pytest.mark.parametrize("game", CANONICAL_GAMES, ids=_ids)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_key_is_invariant_under_products_of_the_generators(game, data):
    mine, theirs = data.draw(_positions(game.n))
    word = data.draw(st.lists(st.integers(0, len(game.generators) - 1), max_size=12))
    img = tuple(range(game.n))
    for i in word:
        img = tuple(map(game.generators[i], img))
    assert game.canonical(_image(img, mine), _image(img, theirs)) == \
        game.canonical(mine, theirs)


@pytest.mark.parametrize("p,q", [(3, 3), (3, 5), (5, 3)])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_odd_composite_key_is_invariant_under_bucket_preserving_permutations(p, q, data):
    game = C.odd_composite(p, q)
    mine, theirs = data.draw(_positions(game.n))
    buckets = data.draw(st.permutations(range(q)))
    inside = [data.draw(st.permutations(range(p))) for _ in range(q)]
    perm = Permutation(tuple(buckets[i // p] * p + inside[i // p][i % p]
                             for i in range(game.n)))
    game.lines.check_preserved(perm)
    assert game.canonical(_image(perm.image, mine), _image(perm.image, theirs)) == \
        game.canonical(mine, theirs)


@pytest.mark.parametrize("b,most", [(3, 6), (5, 4)])
def test_pairs_keys_are_exactly_the_orbits_of_the_shipped_group(b, most):
    # every position with at most ``most`` claimed points: equal keys
    # exactly when some element of rotations x even flips relates them
    _assert_keys_are_the_orbits(C.pairs_game(b), b * 2 ** (b - 1), most)


def test_affine_keys_are_exactly_the_orbits_of_the_shipped_group():
    # the group is all of x -> ax + c on Z_11; about 6800 positions
    _assert_keys_are_the_orbits(C.affine_game(11), 11 * 10, 4)


def _assert_keys_are_the_orbits(game, order: int, most: int) -> None:
    group = _group(game)
    assert len(group) == order
    orbits, keys = {}, {}
    for owners in _owner_lists(game.n, most):
        mine, theirs = _position(owners)
        orbit = frozenset((_image(g, mine), _image(g, theirs)) for g in group)
        orbits[mine, theirs] = orbit
        keys.setdefault(game.canonical(mine, theirs), set()).add((mine, theirs))
    for members in keys.values():
        assert members == orbits[next(iter(members))]


def _owner_lists(n: int, most: int):
    def rec(prefix, claimed):
        if len(prefix) == n:
            yield prefix
            return
        yield from rec(prefix + [0], claimed)
        if claimed < most:
            yield from rec(prefix + [1], claimed + 1)
            yield from rec(prefix + [2], claimed + 1)
    return rec([], 0)


# the group loops that the shipped keys shortcut, by game spec
REF_KEYS = {"affine(11)": ref_affine_key(11), "affine(13)": ref_affine_key(13),
            "pairs(3)": ref_pairs_key(3), "pairs(5)": ref_pairs_key(5),
            "pairs(7)": ref_pairs_key(7)}


def _assert_keys_equal_the_group_loop(spec: str, positions: list) -> None:
    # a fresh game fed the positions in another order must give the same
    # keys: its per-``theirs`` memo then fills in another order
    ref = REF_KEYS[spec]
    want = [ref(mine, theirs) for mine, theirs in positions]
    key = C.parse_game_spec(spec).canonical
    assert [key(*pos) for pos in positions] == want
    order = random.Random(spec).sample(range(len(positions)), len(positions))
    fresh = C.parse_game_spec(spec).canonical
    assert [fresh(*positions[i]) for i in order] == [want[i] for i in order]


@pytest.mark.parametrize("spec", sorted(REF_KEYS))
def test_keys_equal_the_group_loop_on_every_small_position(spec):
    n = C.spec_size(spec)
    _assert_keys_equal_the_group_loop(spec, [_position(o) for o in _owner_lists(n, 4)])


@pytest.mark.parametrize("spec", sorted(REF_KEYS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_keys_equal_the_group_loop_on_positions_of_any_depth(spec, data):
    n = C.spec_size(spec)
    _assert_keys_equal_the_group_loop(spec, data.draw(st.lists(_positions(n), min_size=1,
                                                               max_size=8)))


def _stabilised_positions(spec: str) -> list:
    """Positions whose ``theirs`` many group elements fix, so that many of
    them tie for its least image: ``theirs`` empty or one point, with every
    ``mine``; for affine(p), the cycle through 1 of each scaling x -> ax,
    with and without 0, and each moved by x -> x + 3, with every ``mine``
    of at most |theirs| + 1 points; for pairs(b), every ``theirs`` with one
    point in each pair (all the low points are fixed by every rotation),
    with every ``mine``."""
    n = C.spec_size(spec)
    full = (1 << n) - 1

    def mines(theirs: int, most: int) -> list:
        rest = [x for x in range(n) if not theirs >> x & 1]
        return [(mask_of(c), theirs) for k in range(min(most, len(rest)) + 1)
                for c in itertools.combinations(rest, k)]

    positions = [pos for theirs in [0] + [1 << x for x in range(n)]
                 for pos in mines(theirs, n)]
    if spec.startswith("affine"):
        for a in range(2, n):
            cycle, x = [], 1
            while x not in cycle:
                cycle.append(x)
                x = a * x % n
            for fixed in (mask_of(cycle), mask_of(cycle) | 1):
                for theirs in (fixed, (fixed << 3 | fixed >> (n - 3)) & full):
                    positions += mines(theirs, theirs.bit_count() + 1)
    else:
        b = n // 2
        for flips in range(1 << b):
            theirs = mask_of(2 * i + (flips >> i & 1) for i in range(b))
            positions += mines(theirs, n)
    return positions


@pytest.mark.parametrize("spec", ["affine(11)", "pairs(3)", "pairs(5)"])
def test_keys_equal_the_group_loop_where_theirs_is_stabilised(spec):
    _assert_keys_equal_the_group_loop(spec, _stabilised_positions(spec))


@pytest.mark.parametrize("game", [C.pairs_game(5), C.pairs_game(5, "implicit"),
                                  C.odd_composite(3, 3), C.odd_composite(3, 5),
                                  C.affine_game(11)],
                         ids=_ids)
def test_plain_key_table_entries_with_one_key_share_one_value(game):
    with _negamax(dataclasses.replace(game, canonical=None)) as (search, table, _):
        search(0, 0)
    full, n = game.full_mask, game.n
    values: dict = {}
    for key, value in table.items():
        canon = game.canonical(key & full, key >> n)
        assert values.setdefault(canon, value) == value
    assert len(values) < len(table)


# with pairs(7), odd_composite(5,3) and affine(13), whose three solves
# test_bench_solves_keep_reference_work_counts pins, this is every board
# with n <= 16 that has a canonical form
@pytest.mark.parametrize("game", [C.pairs_game(3), C.pairs_game(3, "implicit"),
                                  C.pairs_game(5), C.pairs_game(5, "implicit"),
                                  C.pairs_game(7, "implicit"), C.odd_composite(3, 3),
                                  C.odd_composite(3, 5), C.affine_game(11)], ids=_ids)
def test_canonical_solve_equals_the_plain_key_solve(game):
    # on n <= 11 also in descending point order, as the reversed board, and
    # by plain recursion with a memo under either key
    for board in [game, reversed_points(game)] if game.n <= 11 else [game]:
        report = solve(board)
        plain = solve(dataclasses.replace(board, canonical=None))
        assert report.outcome == plain.outcome
        assert report.principal_variation == plain.principal_variation
        assert report.states_visited <= plain.states_visited
    if game.n <= 11:
        assert ref_solve(game, key=game.canonical) == ref_solve(game)


# full reports of the keyed solve, computed before the per-``theirs`` memo
# of the keys: the memo must leave every key, and so every count, as it was
PINNED_SOLVES = {
    "affine(11)": {"outcome": "PIWin", "loss_time": 10, "pv": [0, 1, 2, 3, 6, 4, 7, 5, 8, 9],
                   "states": 184, "table": 184},
    "affine(13)": {"outcome": "PIWin", "loss_time": 12,
                   "pv": [0, 1, 2, 3, 7, 4, 5, 6, 8, 9, 11, 10], "states": 1527, "table": 1527},
    "pairs(5)": {"outcome": "PIWin", "loss_time": 10, "pv": [0, 1, 2, 3, 4, 5, 6, 7, 9, 8],
                 "states": 386, "table": 368},
    "pairs(7)": {"outcome": "PIWin", "loss_time": 14,
                 "pv": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 12],
                 "states": 8877, "table": 8647},
}


@pytest.mark.parametrize("spec", sorted(PINNED_SOLVES))
def test_keyed_solve_reports_are_pinned(spec):
    assert solve(C.parse_game_spec(spec)).to_json() == PINNED_SOLVES[spec]


@pytest.mark.parametrize("game", [C.pairs_game(3), C.pairs_game(5),
                                  C.odd_composite(3, 3), C.affine_game(11)], ids=_ids)
def test_canonical_earliest_forced_loss_equals_the_plain_key_one(game):
    assert earliest_forced_loss(game) == \
        earliest_forced_loss(dataclasses.replace(game, canonical=None))


def test_canonical_earliest_forced_loss_past_the_plain_key_budget():
    # the plain-key searches take 10-20 s each and give the same values
    assert earliest_forced_loss(C.pairs_game(7)) == 14
    assert earliest_forced_loss(C.odd_composite(5, 3)) == 12


@pytest.mark.parametrize("game", [C.pairs_game(5), C.pairs_game(5, "implicit"),
                                  C.odd_composite(3, 5), C.affine_game(13)], ids=_ids)
def test_json_round_trip_keeps_the_canonical_form(game):
    doc = C.game_to_json(game)
    loaded = C.game_from_json(json.loads(json.dumps(doc)))
    assert loaded.canonical is not None and loaded.name == game.name
    before, after = solve(game), solve(loaded)
    assert (after.states_visited, after.table_size) == \
        (before.states_visited, before.table_size)
    plain = solve(dataclasses.replace(game, canonical=None))
    assert after.states_visited < plain.states_visited


@pytest.mark.parametrize("game", [
    C.parse_game_spec("copies(pairs(3),1)"),
    C.parse_game_spec("superset(pairs(3),4)"),
    C.parse_game_spec("superset(pairs(5),6)"),
    Game(4, ExplicitLines(4, [0b11, 0b1100]), (), "hand-built"),
], ids=lambda g: g.name)
def test_derived_and_hand_built_games_carry_no_canonical_form(game):
    assert game.canonical is None
    assert C.game_from_json(C.game_to_json(game)).canonical is None
