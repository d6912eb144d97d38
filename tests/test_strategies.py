import random

import pytest

from avoidance.core import Player, StrategyInvariantError, find_fpf_involution
from avoidance import constructions as C
from avoidance.solver import Goal, verify_strategy
from avoidance import strategies as S


def run_history(strategy, moves):
    """Feed alternating moves; owner moves come from step and must match."""
    state, q = strategy.initial, None
    a = b = 0
    got = []
    for i, mv in enumerate(moves):
        mover = Player.ONE if bin(a).count("1") == bin(b).count("1") else Player.TWO
        if mover is strategy.role:
            x, state = strategy.step(state, a, b, q)
            got.append(x)
        else:
            x = q = mv
        if mover is Player.ONE:
            a |= 1 << x
        else:
            b |= 1 << x
    return got


def test_odd_bucket_opening_and_rule1():
    s = S.odd_bucket_strategy(3, 3)
    x, st = s.step(s.initial, 0, 0, None)
    assert x == 0                       # open bucket 0
    # adversary answers inside bucket 0 -> rule 1 keeps us there
    assert s.step(st, 0b1, 0b10, 1)[0] == 2
    # now bucket 0 is full for us; adversary plays bucket 1 -> rule 2 opens
    s2 = S.odd_bucket_strategy(3, 3)
    _, st2 = s2.step(s2.initial, 0, 0, None)
    assert s2.step(st2, 0b1, 0b1000, 3)[0] == 6  # bucket 1 not active (we have 0 there)


def test_pairs_strategy_first_move_and_mirror():
    s = S.pairs_strategy(3)
    x, st = s.step(s.initial, 0, 0, None)
    assert x == 0                       # (0, 0)
    # adversary plays (2,0): not a trigger; we mirror to (2,1)
    assert s.step(st, 0b1, 0b10000, 4)[0] == 5


def test_pairs_strategy_direct_win_branch_shapes():
    # adversary stray lands one pair after our unmatched point: we double it
    g = C.pairs_game(3)
    s = S.pairs_strategy(3)
    x, st = s.step(s.initial, 0, 0, None)
    assert x == 0
    x, st = s.step(st, 0b1, 0b100, 2)   # (1,0): pair distance 1 -> direct
    assert x == 1                       # doubles pair 0
    phase, _, forbidden = st
    assert phase == "direct" and forbidden == 3
    # finish all play-outs from here and check the final shape
    r = verify_strategy(g, S.pairs_strategy(3), Player.ONE, Goal.WIN)
    assert r.passed


def test_pairs_strategy_determinism():
    s = S.pairs_strategy(5)
    moves = [0, 9, 8, 1, 2, 7, 6, 3, 4, 5]
    first = run_history(s, moves)
    second = run_history(s, moves)
    assert first == second


def test_pairs_direct_win_final_shape():
    # drive the direct branch to the end: our final set must hold both of
    # the doubled pair and neither of the adversary's stray pair
    g = C.pairs_game(5)
    s = S.pairs_strategy(5)
    a = b = 0
    x, st = s.step(s.initial, a, b, None)   # (0,0)
    a |= 1 << x
    q = 2                       # (1,0): distance 1 -> direct
    b |= 1 << q
    while True:
        x, st = s.step(st, a, b, q)
        a |= 1 << x
        if g.contains_line([i for i in range(10) if (a >> i) & 1]):
            pytest.fail("strategy completed a line itself")
        if bin(a).count("1") == 5:
            break
        # adversary: lowest free reply
        taken = a | b
        q = next(i for i in range(10) if not (taken >> i) & 1)
        b |= 1 << q
        if g.contains_line([i for i in range(10) if (b >> i) & 1]):
            break
    ours = {i for i in range(10) if (a >> i) & 1}
    assert {0, 1} <= ours           # doubled pair 0
    assert not ({2, 3} & ours)      # stray pair 1 untouched by us


def test_even_strategy_first_move_and_guess_invariant():
    s = S.even_general_strategy(2, 3)
    assert s.step(s.initial, 0, 0, None)[0] == 0
    # a full exhaustive run exercises the guess bookkeeping and its asserts
    r = verify_strategy(C.even_general(2, 3), S.even_general_strategy(2, 3),
                        Player.ONE, Goal.WIN)
    assert r.passed


def test_even_strategy_m8_sampled():
    # m = 8 exercises nonzero direct-win windows and the interval claims;
    # the full exhaustive run (n = 24) also passes but takes ~2 minutes,
    # so the regular suite samples
    r = verify_strategy(C.even_general(3, 3), S.even_general_strategy(3, 3),
                        Player.ONE, Goal.WIN, mode="sampled",
                        samples=3000, seed=99)
    assert r.passed


def test_even_strategy_type2_trigger():
    s = S.even_general_strategy(3, 3)   # m = 8, windows are nonempty
    x, st = s.step(s.initial, 0, 0, None)
    assert x == 0                       # extra = (0,0)
    # same bin, displacement 1 in (0, m/4)
    x, st = s.step(st, 0b1, 0b10, 1)
    phase, _, forbidden = st[:3]
    assert phase == "direct"
    assert forbidden == 5               # opposite of the stray point
    assert x == 4                       # doubles our pair (0, 0+m/2)


@pytest.mark.parametrize("strat,m", [(S.pairs_strategy(5), 2), (S.even_general_strategy(3, 3), 8)],
                         ids=["pairs", "even-general"])
def test_direct_mode_matches_the_point_scan(strat, m):
    # answer q with its opposite if admissible, else take the lowest
    # admissible point: unclaimed, not forbidden, neither it nor its
    # opposite ours; random positions, most of them unreachable in play
    n = strat.n
    opp = [x - x % m + (x % m + m // 2) % m for x in range(n)]
    rng = random.Random(5)
    raised = 0
    for _ in range(3000):
        a = b = 0
        for x in rng.sample(range(n), rng.randrange(1, n)):
            if rng.random() < 0.5:
                a |= 1 << x
            else:
                b |= 1 << x
        if not b:
            continue
        q = rng.choice([x for x in range(n) if (b >> x) & 1])
        forbidden = rng.randrange(n)
        state = ("direct", None, forbidden) + strat.initial[3:]
        ok = [x for x in range(n) if not ((a | b) >> x) & 1 and x != forbidden
              and not (a >> opp[x]) & 1]
        if not ok:
            raised += 1
            with pytest.raises(StrategyInvariantError):
                strat.step(state, a, b, q)
            continue
        want = opp[q] if opp[q] in ok else ok[0]
        got = strat.step(state, a, b, q)
        assert got[0] == want and got[1] is state
    assert 0 < raised < 2500


def test_torus_pairing_negation_table():
    s = S.torus_pairing_strategy(2)
    x, st = s.step(s.initial, 0, 0, None)
    assert x == 0
    # (1,2) -> negation (2,1) = index 7
    assert s.step(st, 1, 0b100000, 5)[0] == 7


@pytest.mark.parametrize("d", [1, 2, 3])
def test_negation_table_is_the_torus_negation(d):
    neg = tuple(C.torus(3, d).generators[-1].image)  # pointwise negation
    assert S.torus_pairing_strategy(d).neg == neg
    assert S.product_strategy(d).f == neg


def test_involution_pairing_requires_fpf():
    with pytest.raises(StrategyInvariantError):
        S.involution_pairing_strategy(
            __import__("avoidance.core", fromlist=["Permutation"]).Permutation((0, 2, 1)))


def test_involution_pairing_never_loses_on_small_games():
    for game in [C.cycle_game(4), C.matching_game(2), C.torus(2, 2), C.torus(2, 3)]:
        g = find_fpf_involution(game)
        assert g is not None
        strat = S.involution_pairing_strategy(g, game)
        r = verify_strategy(game, strat, Player.TWO, Goal.NEVER_LOSE)
        assert r.passed, (game.name, r.counterexample)


def test_pairs_group_has_no_pairing_involution():
    # consistency probe: the 6-point pair game is a first-player win, so its
    # line-preserving generated group cannot contain a fixed-point-free
    # involution (that would hand the second player a no-loss pairing)
    from avoidance.solver import solve
    from avoidance.core import Winner
    g = C.pairs_game(3)
    assert find_fpf_involution(g) is None
    assert solve(g).outcome.winner is Winner.PI_WIN


def test_copy_mirror_single_copy_equals_base():
    base_game = C.pairs_game(3)
    solo = C.disjoint_copies(base_game, 1)
    r = verify_strategy(solo, S.copy_mirror_strategy(S.pairs_strategy(3), 1),
                        Player.ONE, Goal.WIN)
    assert r.passed


def test_copy_mirror_never_emits_claimed_points():
    game = C.disjoint_copies(C.pairs_game(3), 3)
    strat = S.copy_mirror_strategy(S.pairs_strategy(3), 3)
    rng = random.Random(2)
    for _ in range(200):
        st, q = strat.initial, None
        a = b = 0
        while True:
            taken = a | b
            if taken == (1 << 18) - 1:
                break
            if bin(a).count("1") == bin(b).count("1"):
                x, st = strat.step(st, a, b, q)
                assert not (taken >> x) & 1
                a |= 1 << x
                if game.contains_line([i for i in range(18) if (a >> i) & 1]):
                    break
            else:
                free = [i for i in range(18) if not (taken >> i) & 1]
                q = rng.choice(free)
                b |= 1 << q
                if game.contains_line([i for i in range(18) if (b >> i) & 1]):
                    break


def test_strategy_for_registry():
    assert S.strategy_for(C.pairs_game(3), "pairs").name == "pairs(3)"
    assert S.strategy_for(C.odd_composite(3, 3), "odd-bucket").name == "odd-bucket(3,3)"
    assert S.strategy_for(C.torus(3, 2), "torus-pairing").n == 9
    assert S.strategy_for(C.torus(2, 2), "involution-pairing").role is Player.TWO
    dc = C.disjoint_copies(C.pairs_game(3), 3)
    assert S.strategy_for(dc, "copy-mirror").n == 18
    assert S.strategy_for(C.product_torus(1), "product").n == 18
    with pytest.raises(StrategyInvariantError):
        S.strategy_for(C.pairs_game(3), "odd-bucket")
    with pytest.raises(StrategyInvariantError):
        S.strategy_for(C.pairs_game(3), "no-such")


GAME_FOR = {"odd-bucket": "odd_composite(3,5)", "pairs": "pairs(5)",
            "even-general": "even_general(2,3)", "torus-pairing": "torus(3,2)",
            "involution-pairing": "torus(2,2)", "copy-mirror": "copies(pairs(3),3)",
            "product": "product_torus(1)", "lowest": "pairs(5)"}


def _attrs(strategy):
    """The strategy's attributes, a sub-strategy's expanded in place."""
    return {k: _attrs(v) if isinstance(v, S.Strategy) else v
            for k, v in vars(strategy).items()}


@pytest.mark.parametrize("name", S.STRATEGY_NAMES)
def test_step_is_a_pure_transition(name):
    game = C.parse_game_spec(GAME_FOR[name])
    s, twin = S.strategy_for(game, name), S.strategy_for(game, name)
    before = _attrs(s)
    contains, full = game.lines.contains_mask, game.full_mask
    owner_one = s.role is Player.ONE
    rng = random.Random(11)
    seen: dict = {}
    steps = changed = 0
    for _ in range(40):
        state, q = s.initial, None
        a = b = 0
        while a | b != full:
            if (a.bit_count() == b.bit_count()) == owner_one:
                args = (state, a, b, q)
                x, after = got = s.step(*args)
                assert s.step(*args) == got == twin.step(*args)
                assert seen.setdefault(args, got) == got
                steps += 1
                hash(after)
                if after == state:
                    assert after is state  # an unchanged state is passed through
                else:
                    changed += 1
                state, mover_mask = after, 1 << x
            else:
                q = rng.choice([y for y in range(game.n) if not ((a | b) >> y) & 1])
                mover_mask = 1 << q
            if a.bit_count() == b.bit_count():
                a |= mover_mask
                if contains(a):
                    break
            else:
                b |= mover_mask
                if contains(b):
                    break
    assert _attrs(s) == before
    assert steps >= 40
    if name in ("pairs", "even-general", "copy-mirror", "product"):
        assert changed > 0


# Reports of the exhaustive verifier before it stopped copying the strategy
# per branch; the traversal order, merging and leaf counting must not move.
PINNED_REPORTS = [
    ("pairs(3)", "pairs", Goal.WIN, 11, None),
    ("pairs(5)", "pairs", Goal.WIN, 134, None),
    ("odd_composite(3,3)", "odd-bucket", Goal.WIN, 100, None),
    ("odd_composite(3,5)", "odd-bucket", Goal.WIN, 8256, None),
    ("even_general(2,3)", "even-general", Goal.WIN, 476, None),
    ("torus(3,2)", "torus-pairing", Goal.NEVER_LOSE, 72, None),
    ("torus(2,2)", "involution-pairing", Goal.NEVER_LOSE, 8, None),
    ("copies(pairs(3),3)", "copy-mirror", Goal.WIN, 16893, None),
    ("product_torus(1)", "product", Goal.WIN, 16893, None),
    ("pairs(3)", "lowest", Goal.WIN, 0, [0, 1, 2, 3, 4]),
    ("pairs(5)", "lowest", Goal.NEVER_LOSE, 0, list(range(9))),
]


@pytest.mark.parametrize("spec,name,goal,leaves,cx", PINNED_REPORTS)
def test_exhaustive_reports_are_pinned(spec, name, goal, leaves, cx):
    game = C.parse_game_spec(spec)
    strat = S.strategy_for(game, name)
    report = verify_strategy(game, strat, strat.role, goal)
    want = {"verdict": "pass" if cx is None else "counterexample",
            "leaves": leaves, "mode": "exhaustive"}
    if cx is not None:
        want["counterexample"] = cx
    assert report.to_json() == want


class _NextPointStrategy(S.Strategy):
    """Opens at 0, then answers q with q + 1, claimed or not."""

    name, initial = "next-point", ()

    def __init__(self, n: int):
        self.n = n

    def step(self, state, a, b, q):
        return (0 if q is None else (q + 1) % self.n), state


# Sampled reports of the verifier before strategies became pure transitions:
# the adversary's random draws must come in the same order.
SAMPLED_REPORTS = [
    ("pairs(5)", lambda g: S.strategy_for(g, "lowest"), Goal.WIN, 50, 3,
     1, [0, 4, 1, 7, 2, 9, 3, 5, 6, 8]),
    ("matching(3)", lambda g: S.pairs_strategy(3), Goal.WIN, 200, 1,
     4, [0, 4, 5, 2, 1, 3]),
    ("cycle(18)", lambda g: S.copy_mirror_strategy(S.pairs_strategy(3), 3), Goal.WIN, 200, 1,
     1, [0, 5, 4, 12, 6, 17, 11, 2, 1]),
    ("even_general(2,3)", lambda g: S.strategy_for(g, "even-general"), Goal.WIN, 300, 5,
     300, None),
    # rows computed before the play-out loop drew from a free-point list
    ("torus(2,2)", lambda g: S.strategy_for(g, "involution-pairing"), Goal.NEVER_LOSE, 100, 2,
     100, None),
    ("odd_composite(3,3)", lambda g: S.LowestFreeStrategy(g.n, Player.TWO), Goal.NEVER_LOSE,
     50, 2, 5, [8, 0, 3, 1, 7, 2, 5, 4]),
    ("cycle(9)", lambda g: _NextPointStrategy(g.n), Goal.NEVER_LOSE, 100, 4,
     2, [0, 2, 3, 8, 0]),
    ("torus(3,3)", lambda g: S.strategy_for(g, "torus-pairing"), Goal.NEVER_LOSE, 2000, 7,
     2000, None),
]


@pytest.mark.parametrize("spec,build,goal,samples,seed,leaves,cx", SAMPLED_REPORTS,
                         ids=[r[0] for r in SAMPLED_REPORTS])
def test_sampled_reports_are_pinned(spec, build, goal, samples, seed, leaves, cx):
    game = C.parse_game_spec(spec)
    strat = build(game)
    report = verify_strategy(game, strat, strat.role, goal, mode="sampled",
                             samples=samples, seed=seed)
    want = {"verdict": "pass" if cx is None else "counterexample",
            "leaves": leaves, "mode": "sampled", "seed": seed, "samples": samples}
    if cx is not None:
        want["counterexample"] = cx
    assert report.to_json() == want
