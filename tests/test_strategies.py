import random

import pytest

from avoidance.core import Player, StrategyInvariantError, find_fpf_involution
from avoidance import constructions as C
from avoidance.solver import Goal, verify_strategy
from avoidance import pairset
from avoidance import strategies as S

from oracles import ref_verify_sampled


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
    s = S.OddBucketStrategy(3, 3)
    x, st = s.step(s.initial, 0, 0, None)
    assert x == 0                       # open bucket 0
    # adversary answers inside bucket 0 -> rule 1 keeps us there
    assert s.step(st, 0b1, 0b10, 1)[0] == 2
    # now bucket 0 is full for us; adversary plays bucket 1 -> rule 2 opens
    s2 = S.OddBucketStrategy(3, 3)
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
    phase, _, forbidden = st[:3]
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
        if g.lines.contains_mask(a):
            pytest.fail("strategy completed a line itself")
        if bin(a).count("1") == 5:
            break
        # adversary: lowest free reply
        taken = a | b
        q = next(i for i in range(10) if not (taken >> i) & 1)
        b |= 1 << q
        if g.lines.contains_mask(b):
            break
    ours = {i for i in range(10) if (a >> i) & 1}
    assert {0, 1} <= ours           # doubled pair 0
    assert not ({2, 3} & ours)      # stray pair 1 untouched by us


@pytest.mark.parametrize("b", [5, 7])
def test_pairs_free_choices_see_only_empty_or_full_pairs(b):
    # so the lowest free point, which the bin-board mirror takes off the
    # mirror, is the low point of the lowest empty pair
    s, contains = S.pairs_strategy(b), C.pairs_game(b).lines.contains_mask
    rng = random.Random(b)
    choices = 0
    for _ in range(300):
        state, q = s.initial, None
        a = bb = 0
        while a | bb != s.full:
            if a.bit_count() == bb.bit_count():
                phase = state[0]
                x, state = s.step(state, a, bb, q)
                if phase != S.DIRECT and state[0] != S.DIRECT \
                        and (q is None or x != s.opp[q]):
                    choices += 1
                    taken = a | bb
                    assert all((taken >> 2 * j) & 3 in (0, 3) for j in range(b)), bin(taken)
                a |= 1 << x
                if contains(a):
                    break
            else:
                q = rng.choice([y for y in range(s.n) if not ((a | bb) >> y) & 1])
                bb |= 1 << q
                if contains(bb):
                    break
    assert choices >= 300


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


def _owner_final_masks(game, strat, samples, seed):
    """Player I's mask at the end of each seeded play-out against ``strat``."""
    rng = random.Random(seed)
    contains, full = game.lines.contains_mask, game.full_mask
    finals = []
    for _ in range(samples):
        state, q = strat.initial, None
        a = b = 0
        while a | b != full:
            if a.bit_count() == b.bit_count():
                x, state = strat.step(state, a, b, q)
                a |= 1 << x
                if contains(a):
                    break
            else:
                q = rng.choice([y for y in range(game.n) if not ((a | b) >> y) & 1])
                b |= 1 << q
                if contains(b):
                    break
        finals.append(a)
    return finals


def test_even_strategy_m8_owner_moves_are_pinned():
    # computed before the strategy read its bins as masks; a sampled pass
    # cannot see a changed move that still wins
    got = _owner_final_masks(C.even_general(3, 3), S.even_general_strategy(3, 3), 20, 33)
    assert got == [
        0xc30b1f, 0x3c3497, 0x3c34d3, 0x5ac22f, 0x2d1af1, 0xd2c395, 0x2d431f,
        0xe11e95, 0x87073d, 0xc30d3d, 0x87851f, 0xa51e59, 0x87941f, 0x3ca13d,
        0x1e34f1, 0x4b52d3, 0x1e5897, 0xc3d21d, 0xf05a1d, 0x69c13d]


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


def _steered_bin_masks(m: int) -> list:
    # the partial pair sets whose two key-lemma windows differ; for m <= 8
    # there are none, so only m = 16 exercises the steering
    return [v for v in pairset.partial_masks(m)
            if pairset.key_params(m, v).z1 != pairset.key_params(m, v).z2]


def _in_bin_2(v: int, m: int = 16) -> tuple:
    """Masks (ours, theirs): pair set ``v`` in bin 2, opposites to the adversary."""
    return v << 2 * m, ((v >> m // 2) | (v << m // 2)) % (1 << m) << 2 * m


def test_even_strategy_steers_a_later_bin_into_the_z1_window():
    # endgame state (phase, extra, forbidden, cur_bin, fill_z, r_bin, guess,
    # t_cur): bin 2 is current and the guess is set; the adversary holds
    # the opposite of each of our points there
    m, s = 16, S.even_general_strategy(4, 3)
    masks = _steered_bin_masks(m)
    assert len(masks) == 48
    for v in masks:
        kp = pairset.key_params(m, v)
        a, b = _in_bin_2(v)
        window = [(kp.z1 + i) % m for i in range(m // 4)]
        want = 2 * m + next(y for y in window if not ((a | b) >> (2 * m + y)) & 1)
        for guess in range(m // 2):
            if (guess - kp.s) % m >= m // 2:
                continue
            x, state = s.step((S.ENDGAME, None, None, 2, None, 1, guess, None), a, b, None)
            assert (x, state[4], state[7]) == (want, kp.z1, kp.t), (bin(v), guess)
    first = [s.step((S.ENDGAME, None, None, 2, None, 1, g, None), *_in_bin_2(v), None)[0]
             - 2 * m for g, v in zip((0, 3, 7), masks)]
    assert first == [8, 11, 12]


def test_even_strategy_places_the_r_bin_window_from_later_bins_t():
    # bin 0 closed with maximum 0, bin 1 is r_bin and empty, bin 2 holds a
    # partial pair set whose t (6) is not its z1 (8): the guess terms are
    # 0 + 6, so the window start u is the first with (6 + u) % 16 in [4, 8),
    # which is 0 (z1 in place of t would give 12)
    m, s = 16, S.even_general_strategy(4, 3)
    v = _steered_bin_masks(m)[0]
    kp = pairset.key_params(m, v)
    assert (kp.s, kp.t, kp.z1) == (0, 6, 8)
    a, b = _in_bin_2(v)
    a, b = a | 0xFF, b | 0xFF00
    x, state = s.step((S.ENDGAME, None, None, 1, None, 1, None, None), a, b, None)
    assert (x, state[4]) == (m, 0)


@pytest.mark.parametrize("a", [3, 4], ids=["m8", "m16"])
def test_bin_closed_without_our_claim_moves_the_guess_by_key_params_t(a):
    # no exhaustive or seeded verify at m >= 8 closes a bin we never
    # claimed in after the guess is set, so build that state: bin 1 is
    # current and full, holding a full pair set of ours, the guess is set
    # and no t was taken (t_cur None); bin 2 holds one point of ours, since
    # key_params of an empty bin ties
    s = S.even_general_strategy(a, 3)
    m, half = s.m, s.m // 2
    nxt = pairset.key_params(m, 1)
    for choice in range(1 << half):
        mine = choice << half | ((1 << half) - 1) & ~choice
        own, adv = mine << m | 1 << 2 * m, (mine ^ s.binmask) << m
        u, t = pairset.maximal_point(m, mine), pairset.key_params(m, mine).t
        for guess in range(half):
            x, state = s.step((S.ENDGAME, None, None, 1, 5, 0, guess, None), own, adv, None)
            assert (state[3], state[6]) == (2, (guess + u - t) % m), (bin(mine), guess)
            # the close cleared fill_z and t_cur, so bin 2 took its own
            assert state[4] in (nxt.z1, nxt.z2) and state[7] == nxt.t
            assert x // m == 2


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
    s = S.strategy_for(C.torus(3, 2), "torus-pairing")
    x, st = s.step(s.initial, 0, 0, None)
    assert x == 0
    # (1,2) -> negation (2,1) = index 7
    assert s.step(st, 1, 0b100000, 5)[0] == 7


@pytest.mark.parametrize("d", [1, 2, 3])
def test_negation_table_is_the_torus_negation(d):
    # -v digit by digit, points indexed by their base-3 digits
    neg = tuple(sum((-(i // 3 ** k)) % 3 * 3 ** k for k in range(d)) for i in range(3 ** d))
    assert S.strategy_for(C.torus(3, d), "torus-pairing").partner == neg
    # point v of torus layer t answers at point v of layer -t
    s = S.strategy_for(C.product_torus(d), "product")
    n0 = s.base.n
    assert s.partner == tuple(neg[t] * n0 + v for t in range(3 ** d) for v in range(n0))


@pytest.mark.parametrize("role,partner", [
    (Player.TWO, (1, 2, 3, 0)),     # not an involution
    (Player.ONE, (0, 2, 1, 3, 5, 4)),  # a second fixed point
    (Player.ONE, (1, 0, 3, 2)),     # no opening for the first player
    (Player.TWO, (1, 0, -2, -2)),   # holes
])
def test_pairing_strategy_refuses_what_is_no_pairing(role, partner):
    # a first player's base opens at point 0, its one fixed point
    base = S.LowestFreeStrategy(1) if role is Player.ONE else None
    with pytest.raises(StrategyInvariantError):
        S.PairingStrategy("p", partner, base)


def test_involution_pairing_requires_fpf():
    # with no base to open, the table may fix no point
    with pytest.raises(StrategyInvariantError):
        S.PairingStrategy("involution-pairing", (0, 2, 1))


def test_pairing_strategy_fixes_exactly_the_base_block():
    # a two-point base: the fixed points must be 0 and 1, not 0 and 2
    with pytest.raises(StrategyInvariantError):
        S.PairingStrategy("p", (0, 3, 2, 1), S.LowestFreeStrategy(2))
    assert S.PairingStrategy("p", (0, 1, 3, 2), S.LowestFreeStrategy(2)).n0 == 2


def test_pairing_strategy_answers_from_its_table():
    s = S.PairingStrategy("p", (0, 2, 1, 4, 3), S.LowestFreeStrategy(1))
    assert s.role is Player.ONE and s.initial == ()
    assert s.pairing(s.initial) == (-1, 2, 1, 4, 3)
    assert s.step(s.initial, 0, 0, None) == (0, s.initial)
    assert s.step(s.initial, 0b1, 0b1000, 3) == (4, s.initial)
    with pytest.raises(StrategyInvariantError):
        s.step(s.initial, 0b10001, 0b1000, 3)  # the partner is claimed
    two = S.PairingStrategy("p", (1, 0))
    assert two.role is Player.TWO and two.initial is None
    with pytest.raises(StrategyInvariantError):
        two.step(None, 0, 0, None)


@pytest.mark.parametrize("f", [(1, 0, 2), (0, 2, 1, 3), (0, 2), (0, 1), (), (0, 2, 0)])
def test_copy_map_must_fix_copy_0_only_and_pair_the_rest(f):
    with pytest.raises(StrategyInvariantError):
        S.copy_pairing("m", S.pairs_strategy(3), f)


def test_copy_map_of_an_even_copy_count_is_refused():
    with pytest.raises(StrategyInvariantError):
        S.copy_mirror_strategy(S.pairs_strategy(3), 2)


def test_involution_pairing_never_loses_on_small_games():
    for game in [C.cycle_game(4), C.matching_game(2), C.torus(2, 2), C.torus(2, 3)]:
        assert find_fpf_involution(game) is not None
        strat = S.strategy_for(game, "involution-pairing")
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
                if game.lines.contains_mask(a):
                    break
            else:
                free = [i for i in range(18) if not (taken >> i) & 1]
                q = rng.choice(free)
                b |= 1 << q
                if game.lines.contains_mask(b):
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
                own, adv = (a, b) if owner_one else (b, a)
                args = (state, own, adv, q)
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
    # m = 4 endgame over five bins; the row is added last so the ids of
    # the rows above keep their positions
    ("even_general(2,5)", "even-general", Goal.WIN, 29376, None),
    ("pairs(9)", "pairs", Goal.WIN, 8224, None),
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


# memo entries of exhaustive passes, counted when the memo was keyed by
# (owner's set, adversary's set, state) tuples: a change of key must merge
# exactly the same nodes
MEMO_COUNTS = [
    ("pairs(5)", "pairs", Goal.WIN, 289),
    ("pairs(7)", "pairs", Goal.WIN, 4106),
    ("pairs(9)", "pairs", Goal.WIN, 50881),
    ("odd_composite(3,5)", "odd-bucket", Goal.WIN, 3990),
    ("even_general(2,3)", "even-general", Goal.WIN, 1131),
    ("torus(3,2)", "torus-pairing", Goal.NEVER_LOSE, 56),
    ("copies(pairs(3),3)", "copy-mirror", Goal.WIN, 7190),
    ("even_general(2,5)", "even-general", Goal.WIN, 186243),
]


@pytest.mark.parametrize("spec,name,goal,memo", MEMO_COUNTS)
def test_exhaustive_memo_counts_are_pinned(spec, name, goal, memo):
    game = C.parse_game_spec(spec)
    strat = S.strategy_for(game, name)
    report = verify_strategy(game, strat, strat.role, goal)
    assert report.passed and report.memo == memo
    assert "memo" not in report.to_json()


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


# (spec, strategy, owner, goal, samples, seed): counterexamples and passes,
# both owner roles, both goals
SAMPLED_ORACLE_CASES = [
    ("pairs(5)", lambda g: S.strategy_for(g, "lowest"), Player.ONE, Goal.WIN, 50, 3),
    ("matching(3)", lambda g: S.pairs_strategy(3), Player.ONE, Goal.WIN, 200, 1),
    ("even_general(2,3)", lambda g: S.strategy_for(g, "even-general"), Player.ONE,
     Goal.WIN, 300, 5),
    ("odd_composite(3,3)", lambda g: S.LowestFreeStrategy(g.n, Player.TWO), Player.TWO,
     Goal.NEVER_LOSE, 50, 2),
    ("odd_composite(3,3)", lambda g: S.LowestFreeStrategy(g.n, Player.TWO), Player.TWO,
     Goal.WIN, 50, 9),
    ("torus(2,2)", lambda g: S.strategy_for(g, "involution-pairing"), Player.TWO,
     Goal.NEVER_LOSE, 100, 2),
    ("cycle(9)", lambda g: _NextPointStrategy(g.n), Player.ONE, Goal.NEVER_LOSE, 100, 4),
    ("torus(3,3)", lambda g: S.strategy_for(g, "torus-pairing"), Player.ONE,
     Goal.NEVER_LOSE, 500, 11),
    # pairing tables with holes, or whose state changes: the verifier answers
    # paired replies from the table, the oracle calls ``step`` for every reply
    ("even_general(2,5)", lambda g: S.strategy_for(g, "even-general"), Player.ONE,
     Goal.WIN, 300, 3),
    ("pairs(9)", lambda g: S.strategy_for(g, "pairs"), Player.ONE, Goal.WIN, 300, 8),
    ("copies(pairs(3),3)", lambda g: S.strategy_for(g, "copy-mirror"), Player.ONE,
     Goal.WIN, 300, 13),
    ("product_torus(1)", lambda g: S.strategy_for(g, "product"), Player.ONE,
     Goal.NEVER_LOSE, 300, 21),
    # the same strategies on a board of their size that they lose: the
    # counterexample pins every draw and every answer of its play-outs
    ("matching(10)", lambda g: _strategy_of("even_general(2,5)", "even-general"), Player.ONE,
     Goal.WIN, 300, 3),
    ("matching(9)", lambda g: _strategy_of("pairs(9)", "pairs"), Player.ONE, Goal.WIN, 300, 2),
    ("matching(9)", lambda g: _strategy_of("copies(pairs(3),3)", "copy-mirror"), Player.ONE,
     Goal.WIN, 300, 3),
]


def _strategy_of(spec: str, name: str):
    return S.strategy_for(C.parse_game_spec(spec), name)


@pytest.mark.parametrize("spec,build,owner,goal,samples,seed", SAMPLED_ORACLE_CASES,
                         ids=[f"{r[0]}-{r[2].name}-{r[3].value}" for r in SAMPLED_ORACLE_CASES])
def test_sampled_play_outs_match_the_choice_and_remove_loop(spec, build, owner, goal,
                                                            samples, seed):
    game = C.parse_game_spec(spec)
    strat = build(game)
    report = verify_strategy(game, strat, owner, goal, mode="sampled",
                             samples=samples, seed=seed)
    assert report.to_json() == ref_verify_sampled(game, strat, owner, goal, samples, seed)
