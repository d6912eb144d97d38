"""Pairing tables and the sleep-set exhaustive verifier.

The verifier answers paired replies from the strategy's table, in both
modes, and on the exhaustive level route skips those whose child it
already holds; ``oracles.ref_verify`` is the plain loop with one
``step`` call per reply. Their reports must be equal, and every table
must say what ``step`` does. Exhaustive mode searches level by level and
reruns depth first, with no sleep sets, where that fails; each route
must give the other's report.
"""

import pytest

from avoidance import constructions as C
from avoidance import strategies as S
from avoidance.core import IllegalMoveError, Player, StrategyInvariantError
from avoidance.solver import Goal, _verify_exhaustive, verify_strategy

from oracles import ref_verify, ref_verify_sampled
from test_strategies import MEMO_COUNTS, PINNED_REPORTS


class _NextPoint(S.Strategy):
    """Opens at 0, then answers q with q + 1, claimed or not; no table."""

    name, initial = "next-point", ()

    def __init__(self, n: int):
        self.n = n

    def step(self, state, a, b, q):
        return (0 if q is None else (q + 1) % self.n), state


class _XorPairing(S.Strategy):
    """Answers q with q ^ 1, claimed or not, while that is a point, else the
    lowest free point; its table pairs 2i with 2i + 1."""

    initial = ()

    def __init__(self, n: int, role: Player):
        self.name, self.n, self.role = f"xor({role.name})", n, role
        self._pairs = tuple(q ^ 1 if q ^ 1 < n else -1 for q in range(n))

    def step(self, state, a, b, q):
        if q is not None and q ^ 1 < self.n:
            return q ^ 1, state
        free = ((1 << self.n) - 1) & ~(a | b)
        return (free & -free).bit_length() - 1, state

    def pairing(self, state):
        return self._pairs


class _Counting(S.Strategy):
    """Passes ``step`` and ``pairing`` through, counting ``step`` calls and
    recording each node a ``step`` leads to: (owner's mask, adversary's
    mask, state), the adversary to move."""

    def __init__(self, inner):
        self.inner = inner
        self.name, self.role, self.n = inner.name, inner.role, inner.n
        self.initial = inner.initial
        self.calls = 0
        self.nodes = {(0, 0, inner.initial)} if inner.role is Player.TWO else set()

    def step(self, state, own, adv, q):
        self.calls += 1
        x, after = self.inner.step(state, own, adv, q)
        self.nodes.add((own | 1 << x, adv, after))
        return x, after

    def pairing(self, state):
        return self.inner.pairing(state)


DIFF_BOARDS = ["pairs(3)", "pairs(5)", "pairs(7)", "matching(3)", "matching(5)",
               "cycle(6)", "cycle(8)", "cycle(9)", "cycle(10)", "cycle(12)", "cycle(14)",
               "cycle(16)", "even_general(2,3)", "torus(3,2)", "torus(2,2)", "torus(2,3)",
               "torus(2,4)", "copies(pairs(3),3)", "odd_composite(3,3)", "affine(11)",
               "superset(pairs(3),4)", "superset(pairs(5),6)"]


def _strategies(game) -> list:
    """Every registry strategy that builds on ``game`` (``lowest``, and
    ``involution-pairing`` where the group has one, among them), plus a
    second-seat lowest-free player, a next-point player with no table and
    a q ^ 1 pairing in either seat."""
    out = []
    for name in S.STRATEGY_NAMES:
        try:
            out.append(S.strategy_for(game, name))
        except StrategyInvariantError:
            pass
    return out + [S.LowestFreeStrategy(game.n, Player.TWO), _NextPoint(game.n),
                  _XorPairing(game.n, Player.ONE), _XorPairing(game.n, Player.TWO)]


def _routes_agree(game, strat, goal) -> None:
    """The level route passes, without falling back, exactly where the
    depth-first route passes, with the same report and memo count."""
    levels = _verify_exhaustive(game, strat, strat.role, goal, route="levels")
    depth = _verify_exhaustive(game, strat, strat.role, goal, route="depth")
    assert (levels is not None) == depth.passed, (strat.name, goal)
    if levels is not None:
        assert (levels.to_json(), levels.memo) == (depth.to_json(), depth.memo), (
            strat.name, goal)
        assert levels.frontier <= levels.memo + 1


@pytest.mark.parametrize("spec", DIFF_BOARDS)
def test_sleep_set_verifier_matches_the_plain_loop(spec):
    game = C.parse_game_spec(spec)
    for strat in _strategies(game):
        for goal in Goal:
            got = verify_strategy(game, strat, strat.role, goal).to_json()
            assert got == ref_verify(game, strat, strat.role, goal), (strat.name, goal)
            _routes_agree(game, strat, goal)


# every (board, strategy, goal) of the pinned reports and memo counts
PINNED_RUNS = list(dict.fromkeys(row[:3] for row in PINNED_REPORTS + MEMO_COUNTS))


@pytest.mark.parametrize("spec,name,goal", PINNED_RUNS,
                         ids=[f"{spec}-{name}-{goal.value}" for spec, name, goal in PINNED_RUNS])
def test_the_level_route_gives_the_pinned_depth_first_report(spec, name, goal):
    game = C.parse_game_spec(spec)
    _routes_agree(game, S.strategy_for(game, name), goal)


@pytest.mark.parametrize("spec,name,memo,frontier", [
    ("even_general(2,5)", "even-general", 186243, 97376), ("pairs(11)", "pairs", 581884, 288460)])
def test_exhaustive_verify_holds_two_levels_at_once(spec, name, memo, frontier):
    game = C.parse_game_spec(spec)
    strat = S.strategy_for(game, name)
    report = verify_strategy(game, strat, strat.role, Goal.WIN)
    assert report.passed and (report.memo, report.frontier) == (memo, frontier)
    assert "frontier" not in report.to_json()


class _RaisesOnLastOpeningReply(S.LowestFreeStrategy):
    """The lowest free point, but raises on the adversary's first reply at
    the last point, a branch the depth-first search reaches only after its
    counterexample."""

    raised = False

    def step(self, state, own, adv, q):
        if adv == 1 << (self.n - 1):
            self.raised = True
            raise RuntimeError("not reached depth first")
        return super().step(state, own, adv, q)


def test_an_exception_on_the_level_route_reruns_depth_first():
    game = C.parse_game_spec("pairs(3)")
    strat = _RaisesOnLastOpeningReply(game.n)
    assert _verify_exhaustive(game, strat, Player.ONE, Goal.WIN, route="levels") is None
    assert strat.raised
    report = verify_strategy(game, strat, Player.ONE, Goal.WIN)
    assert report.to_json() == ref_verify(game, S.LowestFreeStrategy(game.n), Player.ONE,
                                          Goal.WIN)
    assert report.counterexample == (0, 1, 2, 3, 4)


# catalog boards with n <= 20 for every strategy that has pairing tables
CONTRACT_CASES = [
    ("pairs(3)", "pairs"), ("pairs(5)", "pairs"), ("pairs(7)", "pairs"), ("pairs(9)", "pairs"),
    ("even_general(2,3)", "even-general"), ("even_general(2,5)", "even-general"),
    ("torus(3,1)", "torus-pairing"), ("torus(3,2)", "torus-pairing"),
    ("torus(2,2)", "involution-pairing"), ("torus(2,4)", "involution-pairing"),
    ("cycle(8)", "involution-pairing"), ("matching(5)", "involution-pairing"),
    ("copies(pairs(3),1)", "copy-mirror"), ("copies(pairs(3),3)", "copy-mirror"),
    ("product_torus(1)", "product"),
]


@pytest.mark.parametrize("spec,name", CONTRACT_CASES)
def test_pairing_tables_say_what_step_does(spec, name):
    """At every node the plain exhaustive loop reaches, every reply q whose
    partner t[q] is free gets t[q] from ``step``, with the same state
    object; every table is a fixed-point-free partial involution."""
    game = C.parse_game_spec(spec)
    strat = S.strategy_for(game, name)
    counting = _Counting(strat)
    # a pass: no node the loop reached holds a line of the owner's
    assert ref_verify(game, counting, strat.role, Goal.NEVER_LOSE)["verdict"] == "pass"
    tables: dict = {}
    paired = 0
    for own, adv, state in counting.nodes:
        if state not in tables:
            t = tables[state] = strat.pairing(state)
            assert t is None or len(t) == game.n
            assert t is None or all(y < 0 or (y != q and t[y] == q) for q, y in enumerate(t))
        t = tables[state]
        if t is None or own | adv == game.full_mask:
            continue
        for q, y in enumerate(t):
            if ((own | adv) >> q) & 1 or y < 0 or ((own | adv) >> y) & 1:
                continue
            x, after = strat.step(state, own, adv | 1 << q, q)
            assert x == y and after is state, (own, adv, state, q)
            paired += 1
    assert paired > 0


class _FreshStates(S.Strategy):
    """Passes ``step`` and ``pairing`` through, but answers every tuple
    state with a fresh copy: equal to the state ``step`` gave, never the
    same object."""

    def __init__(self, inner):
        self.inner = inner
        self.name, self.role, self.n = inner.name, inner.role, inner.n
        self.initial = inner.initial

    def step(self, state, a, b, q):
        x, after = self.inner.step(state, a, b, q)
        return x, (tuple([*after]) if isinstance(after, tuple) else after)

    def pairing(self, state):
        return self.inner.pairing(state)


@pytest.mark.parametrize("spec,name", [
    ("pairs(7)", "pairs"), ("even_general(2,3)", "even-general"),
    ("copies(pairs(3),3)", "copy-mirror"), ("product_torus(1)", "product")])
def test_states_are_merged_by_equality_not_identity(spec, name):
    game = C.parse_game_spec(spec)
    strat = S.strategy_for(game, name)
    assert isinstance(strat.initial, tuple) and strat.initial
    for goal in Goal:
        want = verify_strategy(game, strat, strat.role, goal)
        got = verify_strategy(game, _FreshStates(strat), strat.role, goal)
        assert (got.to_json(), got.memo) == (want.to_json(), want.memo), goal
        assert got.memo > 0


@pytest.mark.parametrize("spec,name,plain_calls,calls", [
    ("pairs(7)", "pairs", 13012, 3392), ("even_general(2,3)", "even-general", 2655, 897)])
def test_paired_replies_call_no_step(spec, name, plain_calls, calls):
    game = C.parse_game_spec(spec)
    strat = S.strategy_for(game, name)
    plain, fast = _Counting(strat), _Counting(strat)
    want = ref_verify(game, plain, strat.role, Goal.WIN)
    assert verify_strategy(game, fast, strat.role, Goal.WIN).to_json() == want
    assert (plain.calls, fast.calls) == (plain_calls, calls)


class _BrokenTable(_XorPairing):
    def __init__(self, n: int, table: tuple):
        super().__init__(n, Player.TWO)
        self._pairs = table


BROKEN_TABLES = [(1, 0, 2, -1), (1, 2, 0, -1), (1, 0, 4, -1), (1, 0, -1)]


@pytest.mark.parametrize("table", BROKEN_TABLES)
def test_a_table_that_is_no_pairing_is_refused(table):
    game = C.parse_game_spec("torus(2,2)")
    with pytest.raises(StrategyInvariantError, match="pairing table"):
        verify_strategy(game, _BrokenTable(4, table), Player.TWO, Goal.NEVER_LOSE)


@pytest.mark.parametrize("table", BROKEN_TABLES)
def test_sampled_mode_refuses_a_table_that_is_no_pairing(table):
    game = C.parse_game_spec("torus(2,2)")
    with pytest.raises(StrategyInvariantError, match="pairing table"):
        verify_strategy(game, _BrokenTable(4, table), Player.TWO, Goal.NEVER_LOSE,
                        mode="sampled", samples=1)


@pytest.mark.parametrize("spec,name", [("torus(3,2)", "torus-pairing"),
                                       ("torus(3,3)", "torus-pairing")])
def test_sampled_mode_takes_the_opening_once(spec, name):
    # every reply is paired, so the opening is the only ``step`` call
    game = C.parse_game_spec(spec)
    strat = S.strategy_for(game, name)
    counting = _Counting(strat)
    got = verify_strategy(game, counting, Player.ONE, Goal.NEVER_LOSE, mode="sampled",
                          samples=300, seed=5)
    assert got.to_json() == ref_verify_sampled(game, strat, Player.ONE, Goal.NEVER_LOSE,
                                               300, 5)
    assert counting.calls == 1


class _IllegalOpening(_NextPoint):
    """Raises IllegalMoveError instead of opening."""

    def step(self, state, a, b, q):
        if q is None:
            raise IllegalMoveError("no opening")
        return super().step(state, a, b, q)


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_an_illegal_opening_is_the_counterexample(mode):
    game = C.parse_game_spec("pairs(3)")
    report = verify_strategy(game, _IllegalOpening(game.n), Player.ONE, Goal.WIN,
                             mode=mode, samples=50)
    assert (report.counterexample, report.leaves) == ((-1,), 1 if mode == "sampled" else 0)
