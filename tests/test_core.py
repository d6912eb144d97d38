import pytest
from hypothesis import given, settings, strategies as st

import avoidance
from avoidance import core
from avoidance.core import (
    ExplicitLines, Game, IllegalMoveError, LinePreservationError, Outcome,
    Permutation, Player, Position, SearchCapExceeded, Winner, apply_move,
    check_line_preservation, find_fpf_involution, is_transitive, mask_of, orbit,
)
from avoidance.constructions import odd_composite, pairs_game, torus


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_permutation_compose_inverse():
    for p in [Permutation.cycle(5), Permutation((2, 0, 4, 1, 3))]:
        inv = p.inverse()
        assert all(inv(p(x)) == x and p(inv(x)) == x for x in range(5))
    assert Permutation.cycle(5).inverse()(0) == 4


def test_package_exports_resolve():
    for name in avoidance.__all__:
        assert getattr(avoidance, name) is not None, name
    namespace = {}
    exec("from avoidance import *", namespace)
    assert set(avoidance.__all__) <= set(namespace)


def test_outcome_parity_checks():
    Outcome(Winner.PI_WIN, 6)
    Outcome(Winner.PII_WIN, 3)
    Outcome(Winner.DRAW)
    with pytest.raises(ValueError):
        Outcome(Winner.PI_WIN, 5)   # Player II loses on even moves
    with pytest.raises(ValueError):
        Outcome(Winner.DRAW, 4)
    with pytest.raises(ValueError):
        Outcome(Winner.PI_WIN)


def test_contains_line_torus_examples():
    g = torus(3, 2)
    # the main diagonal (0,0),(1,1),(2,2) -> indices 0, 4, 8
    assert g.lines.contains_mask(mask_of({0, 4, 8}))
    for pair in [{0, 1}, {3, 7}]:
        assert not g.lines.contains_mask(mask_of(pair))


def test_contains_line_odd_composite_window_profile():
    g = odd_composite(3, 3)
    # two points in each of two buckets is an allowed set, not a line
    s = {0, 1, 3, 4}
    assert not g.lines.contains_mask(mask_of(s))
    assert g.lines.contains_mask(mask_of({0, 1, 2, 3}))  # 3 in one bucket


def test_apply_move_flow():
    g = torus(3, 1)
    pos = Position.initial()
    pos, lost = apply_move(g, pos, 0)
    assert pos.a == 0b1 and pos.b == 0 and pos.to_move is Player.TWO
    assert not lost
    with pytest.raises(IllegalMoveError):
        apply_move(g, pos, 0)
    with pytest.raises(IllegalMoveError):
        apply_move(g, pos, 17)


@pytest.mark.parametrize("masks,message", [
    ([0b11, 0], "empty line"),
    ([0b11, -1], "line point off the board"),
    ([0b11, 0b1 << 6], "line point off the board"),
    ([0b11, 0b1100, 0b11], "duplicate line [0, 1]"),
    # the first mask that repeats an earlier one is named
    ([0b11, 0b1100, 0b1100, 0b11], "duplicate line [2, 3]"),
])
def test_explicit_lines_check_the_family_when_built(masks, message):
    with pytest.raises(ValueError) as info:
        ExplicitLines(6, masks)
    assert str(info.value) == message


def test_apply_move_detects_loss():
    g = Game(3, ExplicitLines(3, [0b11]), (), "tiny")
    pos = Position.initial()
    pos, _ = apply_move(g, pos, 0)
    pos, _ = apply_move(g, pos, 2)
    pos, lost = apply_move(g, pos, 1)
    assert lost and pos.a == 0b11


def test_position_invariants():
    with pytest.raises(ValueError):
        Position(0b10, 0b10)
    with pytest.raises(ValueError):
        Position(0b110, 0)
    with pytest.raises(ValueError):
        Position(0, 0b10)


def test_orbit_examples():
    ident = Permutation(tuple(range(7)))
    assert orbit([ident], 3) == {3}
    assert orbit([Permutation.cycle(6)], 0) == set(range(6))
    g = pairs_game(3)
    assert orbit(g.generators, 2) == set(range(6))


def test_is_transitive_flags_bad_generator():
    g = torus(3, 2)
    swap01 = Permutation((1, 0) + tuple(range(2, 9)))
    bad = Game(9, g.lines, (swap01,), "broken")
    with pytest.raises(LinePreservationError):
        is_transitive(bad)


def test_check_line_preservation_refuses_a_generator_of_another_size():
    cycle = Permutation.cycle(5)
    with pytest.raises(LinePreservationError) as info:
        check_line_preservation(Game(9, torus(3, 2).lines, (cycle,), "resized"))
    assert str(info.value) == "generator size 5 != board size 9"
    assert info.value.perm is cycle and info.value.witness == frozenset()


def test_is_transitive_identity_only():
    g = Game(7, ExplicitLines(7, [0b111]), (Permutation(tuple(range(7))),), "static")
    # identity preserves everything but moves nothing
    assert not is_transitive(g)


def test_find_fpf_involution_cycles():
    def cyc_game(n):
        lines = [1 << i | 1 << (i + 1) % n for i in range(n)]
        return Game(n, ExplicitLines(n, lines), (Permutation.cycle(n),), f"c{n}")

    g4 = find_fpf_involution(cyc_game(4))
    assert g4 is not None and g4.image == (2, 3, 0, 1)
    g6 = find_fpf_involution(cyc_game(6))
    assert g6 is not None and all(g6(x) == (x + 3) % 6 for x in range(6))
    # odd cyclic group: no element of order 2
    g9 = Game(9, ExplicitLines(9, [0b111]), (Permutation.cycle(9, 3),), "c9")
    assert find_fpf_involution(g9) is None


def test_find_fpf_involution_cap(monkeypatch):
    g = pairs_game(5)
    monkeypatch.setattr(core, "GROUP_WALK_BUDGET", 30)  # 3 elements of 10 points
    with pytest.raises(SearchCapExceeded):
        find_fpf_involution(g)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=8)),
       st.sets(st.integers(min_value=0, max_value=8)))
def test_contains_line_monotone(s, t):
    g = torus(3, 2)
    small, big = frozenset(s), frozenset(s | t)
    if g.lines.contains_mask(mask_of(small)):
        assert g.lines.contains_mask(mask_of(big))


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(6))))
def test_apply_move_preserves_count_invariant(order):
    g = pairs_game(3)
    pos = Position.initial()
    for x in order:
        pos, lost = apply_move(g, pos, x)
        assert pos.a.bit_count() - pos.b.bit_count() in (0, 1)
        if lost:
            break
