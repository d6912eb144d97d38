"""Acceptance criteria, one test per criterion.

Every check is exact (the underlying claims are combinatorial); sampled
runs state their seed and sample count. Each test prints a one-line
verdict so a verbose run reads as a checklist.
"""

import itertools
import random

from avoidance.core import (Player, Winner, find_fpf_involution, is_transitive,
                            mask_of)
from avoidance import constructions as C
from avoidance import pairset as ps
from avoidance import strategies as S
from avoidance.solver import (Goal, earliest_forced_loss, solve, solve_plus,
                              verify_strategy)

from oracles import brute_contains_line

SEED = 20260809


def report(line):
    print(f"ACCEPTANCE {line}")


def test_c01_lemma_suites_exhaustive():
    for m in (4, 8, 16):
        for name in ("unique-max", "not-min", "not-top", "least-max",
                     "earliest-latest", "key-lemma"):
            r = ps.run_suite(name, m)
            assert r.passed and r.checked > 0, (name, m, r.failures[:2])
    report("C1 PASS: all six pair-set suites exhaustive at m=4,8,16 "
           "(key-lemma unrestricted)")


def test_c02_pairs_game():
    r3 = verify_strategy(C.pairs_game(3), S.pairs_strategy(3), Player.ONE, Goal.WIN)
    assert r3.passed
    sv = solve(C.pairs_game(3))
    assert sv.outcome.winner is Winner.PI_WIN
    assert earliest_forced_loss(C.pairs_game(3)) == 6
    r5 = verify_strategy(C.pairs_game(5), S.pairs_strategy(5), Player.ONE, Goal.WIN)
    assert r5.passed
    report("C2 PASS: pairs strategy exhaustive b=3,5; solve=PIWin; "
           "earliest forced loss = 6")


def test_c03_odd_composite():
    g = C.odd_composite(3, 3)
    r = verify_strategy(g, S.OddBucketStrategy(3, 3), Player.ONE, Goal.WIN)
    assert r.passed
    assert solve(g).outcome.winner is Winner.PI_WIN
    report("C3 PASS: bucket strategy exhaustive at (3,3); solve agrees (PIWin)")


def test_c04_even_general():
    r = verify_strategy(C.even_general(2, 3), S.even_general_strategy(2, 3),
                        Player.ONE, Goal.WIN)
    assert r.passed
    r20 = verify_strategy(C.even_general(2, 5), S.even_general_strategy(2, 5),
                          Player.ONE, Goal.WIN)
    assert r20.passed and r20.mode == "exhaustive"
    report("C4 PASS: bin strategy exhaustive at (2,3) n=12 and (2,5) n=20 "
           "(exhaustive, no sampling fallback needed)")


def test_c05_size_two_lines_never_first_player_wins():
    for k in range(3, 9):
        assert solve(C.cycle_game(k)).outcome.winner is not Winner.PI_WIN, k
    for k in (3, 4):
        assert solve(C.complete_graph_game(k)).outcome.winner is not Winner.PI_WIN
    report("C5 PASS: cycles C3..C8 and K3, K4 all solve to not-PIWin")


def test_c06_power_of_two_boards():
    games4 = [C.torus(2, 2), C.cycle_game(4), C.matching_game(2)]
    games8 = [C.torus(2, 3), C.cycle_game(8), C.complete_graph_game(8)]
    for g in games4 + games8:
        assert is_transitive(g), g.name
        assert solve(g).outcome.winner is not Winner.PI_WIN, g.name
        inv = find_fpf_involution(g)
        assert inv is not None, g.name
        r = verify_strategy(g, S.strategy_for(g, "involution-pairing"),
                            Player.TWO, Goal.NEVER_LOSE)
        assert r.passed, g.name
    report("C6 PASS: three transitive games each on n=4 and n=8 "
           "(incl. torus(2,2), torus(2,3)): not PIWin, pairing never loses")


def test_c07_plus_variant_never_first_player_win():
    small = [C.pairs_game(3), C.torus(3, 1), C.cycle_game(4), C.cycle_game(5),
             C.cycle_game(6), C.cycle_game(3), C.torus(2, 2),
             C.complete_graph_game(3), C.complete_graph_game(4), C.matching_game(2)]
    for g in small:
        assert g.n <= 6
        assert is_transitive(g)
        assert solve_plus(g).outcome.winner is not Winner.PI_WIN, g.name
    report("C7 PASS: plus variant not PIWin on every shipped transitive "
           "game with n <= 6")


def test_c08_torus_pairing_and_solve():
    for d in (1, 2):
        g = C.torus(3, d)
        r = verify_strategy(g, S.strategy_for(g, "torus-pairing"),
                            Player.ONE, Goal.NEVER_LOSE)
        assert r.passed, d
    g3 = C.torus(3, 3)
    r3 = verify_strategy(g3, S.strategy_for(g3, "torus-pairing"),
                         Player.ONE, Goal.NEVER_LOSE,
                         mode="sampled", samples=100_000, seed=SEED)
    assert r3.passed
    sv = solve(C.torus(3, 2))
    assert sv.outcome.winner in (Winner.DRAW, Winner.PI_WIN)
    report(f"C8 PASS: negation pairing never loses (d=1,2 exhaustive; d=3 "
           f"sampled 1e5 seed={SEED}); solve(torus(3,2)) = {sv.outcome.winner.value}")


def test_c09_products_exhaustive():
    dc = C.disjoint_copies(C.pairs_game(3), 3)
    r1 = verify_strategy(dc, S.strategy_for(dc, "copy-mirror"),
                         Player.ONE, Goal.WIN)
    assert r1.passed and r1.mode == "exhaustive"
    pt = C.product_torus(1)
    r2 = verify_strategy(pt, S.strategy_for(pt, "product"), Player.ONE, Goal.WIN)
    assert r2.passed and r2.mode == "exhaustive"
    report("C9 PASS: copy mirroring (n=18) and torus product (n=18) win "
           "exhaustively (memoized, no sampling fallback)")


def test_c10_primes_11_and_13():
    g11 = C.affine_game(11)   # the constructor rejects non-intersecting families
    assert is_transitive(g11)
    w11 = _affine_allowed(11)
    for w1, w2 in itertools.combinations(w11, 2):
        assert w1 & w2
    assert solve(g11).outcome.winner is Winner.PI_WIN

    g13 = C.affine_game(13)
    assert is_transitive(g13)
    assert solve(g13, cap=16).outcome.winner is Winner.PI_WIN
    report("C10 PASS: affine games on 11 and 13 points are transitive, "
           "intersecting, and PIWin by exact search")


def _affine_allowed(n):
    out = set()
    for b in C.AFFINE_BASES[n]:
        for a in range(1, n):
            for c in range(n):
                out.add(frozenset((a * x + c) % n for x in b))
    return out


def test_c11_cross_oracles():
    g33 = C.odd_composite(3, 3)
    for bits in range(1 << 9):
        s = frozenset(i for i in range(9) if (bits >> i) & 1)
        assert g33.lines.contains_mask(bits) == brute_contains_line(g33.lines, s)
    g35 = C.odd_composite(3, 5)
    rng = random.Random(SEED)
    for _ in range(10_000):
        s = frozenset(x for x in range(15) if rng.random() < rng.random())
        assert g35.lines.contains_mask(mask_of(s)) == brute_contains_line(g35.lines, s)
    ge = C.pairs_game(3)
    gi = C.pairs_game(3, store="implicit")
    for bits in range(1 << 6):
        s = frozenset(i for i in range(6) if (bits >> i) & 1)
        assert ge.lines.contains_mask(bits) == gi.lines.contains_mask(bits)
    report("C11 PASS: bucket-game containment matches brute force on all "
           "(3,3) sets and 1e4 random (3,5) sets; pair-game stores agree")
