import copy
import inspect

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
from avoidance.pairset import KeyParams, PairSetError, SuiteReport
from avoidance.solver import SolveReport, VerifyReport


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_permutation_compose_inverse():
    def inverse(p):  # inverse[p(x)] = x
        return Permutation(tuple(sorted(range(p.n), key=p)))

    for p in [Permutation.cycle(5), Permutation((2, 0, 4, 1, 3))]:
        inv = inverse(p)
        assert all(inv(p(x)) == x and p(inv(x)) == x for x in range(5))
    assert inverse(Permutation.cycle(5))(0) == 4


# each record type: a construction (positional fields, then keywords past
# left-out defaults), its repr, whether it is a read-only hashable value, and a
# call its validation refuses with the exception and message it gave as a dataclass
RECORDS = [
    (Outcome, (Winner.DRAW,), {}, "Outcome(winner=<Winner.DRAW: 'Draw'>, loss_time=None)",
     True, (lambda: Outcome(Winner.PI_WIN, 3), ValueError,
            "loss_time 3 has the wrong parity for PIWin")),
    (Permutation, ((1, 0),), {}, "Permutation(image=(1, 0))", True,
     (lambda: Permutation((0, 0)), ValueError, "image is not a bijection on [0, n)")),
    (Position, (1, 0), {}, "Position(a=1, b=0)", True,
     (lambda: Position(1, 1), ValueError, "player point sets overlap")),
    (KeyParams, (0, 3, 3, 3), {}, "KeyParams(s=0, t=3, z1=3, z2=3)", True,
     (lambda: KeyParams(s=-1, t=3, z1=3, z2=3), PairSetError, "s must be nonnegative")),
    (SuiteReport, ("key-lemma", 8, 5, [], {}), {},
     "SuiteReport(name='key-lemma', m=8, checked=5, failures=[], notes={})", False, None),
    (SolveReport, (Outcome(Winner.PII_WIN, 3), (0, 1, 2), 4, 2), {},
     "SolveReport(outcome=Outcome(winner=<Winner.PII_WIN: 'PIIWin'>, loss_time=3), "
     "principal_variation=(0, 1, 2), states_visited=4, table_size=2)", False, None),
    (VerifyReport, ("pass", None, 7, "exhaustive"), {"memo": 3, "frontier": 2},
     "VerifyReport(verdict='pass', counterexample=None, leaves=7, mode='exhaustive', "
     "seed=None, samples=None, memo=3, frontier=2)", False, None),
]


@pytest.mark.parametrize("cls, args, kwargs, text, value, refused", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_types_keep_their_dataclass_behaviour(cls, args, kwargs, text, value, refused):
    rec = cls(*args, **kwargs)
    assert repr(rec) == text
    fields = inspect.signature(cls).bind(*args, **kwargs).arguments
    twin = cls(**fields)
    assert all(getattr(twin, name) == v for name, v in fields.items())
    assert rec == twin and rec is not twin and rec != object()
    assert copy.copy(rec) == rec and copy.deepcopy(rec) == rec
    if value:
        assert hash(rec) == hash(twin) and {rec: 1}[twin] == 1
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert repr(rec) == text
    else:
        with pytest.raises(TypeError):
            hash(rec)  # a mutable record stays unhashable
    if refused is not None:
        call, exc, message = refused
        with pytest.raises(exc) as info:
            call()
        assert str(info.value) == message


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
