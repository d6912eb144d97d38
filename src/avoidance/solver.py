"""Exact solvers and strategy verification.

State is a pair of point bitmasks; the side to move is implied by the
cardinalities, so the transposition key is just (mover's set, waiter's
set). A move that completes a line in the mover's set loses for the mover
on the spot; a full board with no contained line is a draw. One negamax
kernel serves every single-point solver: by default it is three-valued
(win / draw / loss from the mover's seat) with an early exit on the first
winning move, and ``earliest_forced_loss`` gives it a table of loss values.

``verify_strategy`` plays a scripted strategy against every adversary
reply (or a seeded random sample), merging on (position, strategy state)
packed into one integer, with the state as a small id interned by
equality. Exhaustive mode goes level by level, by points claimed, and
holds two levels at once; where that fails it reruns depth first,
caching only passing subtrees, so a failure always carries a replayable
history. Both modes answer paired replies from the strategy's pairing
table; the level route also skips, by sleep sets, those whose child it
already holds.

A level's nodes depend only on the level before, so they could be
expanded concurrently into a shared next level, but the sleep sets rely
on each level being expanded in the order it was filled; the
implementation here is single-threaded and deterministic.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from enum import Enum
from typing import Optional

from .core import (
    Game,
    GameError,
    IllegalMoveError,
    Outcome,
    Player,
    Record,
    SearchCapExceeded,
    StrategyInvariantError,
    Winner,
    is_fpf_partial_involution,
    is_transitive,
    iter_bits,
    set_of,
)

WIN, DRAW, LOSS = 1, 0, -1


class SolveReport(Record):
    __slots__ = ("outcome", "principal_variation", "states_visited", "table_size")

    def __init__(self, outcome: Outcome, principal_variation: tuple,
                 states_visited: int, table_size: int):
        self.outcome, self.principal_variation = outcome, principal_variation
        self.states_visited, self.table_size = states_visited, table_size

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome.winner.value,
            "loss_time": self.outcome.loss_time,
            "pv": [sorted(m) if isinstance(m, (set, frozenset)) else m
                   for m in self.principal_variation],
            "states": self.states_visited,
            "table": self.table_size,
        }


def solve(game: Game, cap: int = 16, root_symmetry: bool = False) -> SolveReport:
    """Exact outcome of the single-point avoidance game under optimal play.

    ``root_symmetry`` restricts the first move to point 0; this is exact
    for transitive games (verified before use) since the automorphism
    group then carries any opening move to any other. When the game has a
    ``canonical`` form, states and table size count its equivalence
    classes of positions.
    """
    check_cap(game.n, cap, "solve")
    if root_symmetry and not is_transitive(game):
        raise GameError("root_symmetry requires a transitive game")
    moves = _point_moves(game)
    with _negamax(game) as (search, table, stats):
        if root_symmetry:
            stats["visited"] += 1
            ((_, lost),) = moves(0, 1)  # the opening at point 0
            root_val = LOSS if lost else -search(0, 1)
            pv = [1] + ([] if lost else _principal_variation(game, search, moves, 0, 1))
        else:
            root_val = search(0, 0)
            pv = _principal_variation(game, search, moves)
    return _report(game, root_val, pv, _point, stats, table)


def best_move(game: Game, mine: int, theirs: int, cap: int = 16) -> int:
    """The solver's move for the side holding ``mine``, to move: the
    first point, ascending, of highest value. The game must not be over."""
    check_cap(game.n, cap, "solve")
    with _negamax(game) as (search, _, _):
        return _point(_principal_variation(game, search, _point_moves(game), mine, theirs)[0])


def check_cap(n: int, cap: int, what: str) -> None:
    """Refuse a search named ``what`` on a board of n points over ``cap``."""
    if n > cap:
        raise SearchCapExceeded(
            f"board size {n} exceeds {what} cap {cap}; raise cap explicitly")


def _point(move: int) -> int:
    return move.bit_length() - 1


@contextmanager
def _negamax(game: Game, loss=None, draw=DRAW):
    """The search behind every single-point solver, as a context that
    yields ``(search, table, stats)``.

    ``search(mine, theirs)`` is the value for the side holding ``mine``,
    to move. ``loss[d]`` is what completing a line on move d is worth to
    the mover (``LOSS`` for every d by default) and ``draw`` what a full
    board is worth to the side to move; a node stops at the first move
    worth ``-min(loss)``. The table is keyed by ``game.canonical`` when
    the game has one, else by the masks themselves, so the values must
    depend on the move number only. A node probes the table for each
    child itself and calls ``expand`` only on a miss. On exit ``search``
    and ``expand``, which refer to themselves, are unbound, so the table is
    freed with the last reference to it, not at the next cycle collection.
    """
    full = game.full_mask
    n = game.n
    loses_after = game.lines.loses_after
    minline = game.lines.min_line_size
    canonical = game.canonical
    if loss is None:
        loss = (LOSS,) * (n + 1)
    worst = min(loss)
    best_possible = -worst
    table: dict = {}
    stats = {"visited": 0}

    def search(mine: int, theirs: int):
        key = mine | (theirs << n) if canonical is None else canonical(mine, theirs)
        hit = table.get(key)
        return expand(mine, theirs, key) if hit is None else hit

    def expand(mine: int, theirs: int, key):
        """The value of a position not in the table, stored under ``key``."""
        stats["visited"] += 1
        claimed = mine | theirs
        if claimed == full:
            return draw
        unclaimed = full ^ claimed
        lost = loss[claimed.bit_count() + 1]
        best = worst
        may_lose = mine.bit_count() + 1 >= minline
        while unclaimed:
            bit = unclaimed & -unclaimed
            x = bit.bit_length() - 1
            unclaimed ^= bit
            nm = mine | bit
            if may_lose and loses_after(nm, x):
                val = lost
            else:
                k = theirs | (nm << n) if canonical is None else canonical(theirs, nm)
                val = table.get(k)
                val = -(expand(theirs, nm, k) if val is None else val)
            if val > best:
                best = val
                if best == best_possible:
                    break
        table[key] = best
        return best

    try:
        yield search, table, stats
    finally:
        del search, expand


def _point_moves(game: Game):
    """Single-point moves for ``_principal_variation``, in search order."""
    loses_after = game.lines.loses_after
    minline = game.lines.min_line_size

    def moves(mine: int, unclaimed: int):
        may_lose = mine.bit_count() + 1 >= minline
        for x in iter_bits(unclaimed):
            nm = mine | 1 << x
            yield nm, may_lose and loses_after(nm, x)

    return moves


def _principal_variation(game: Game, search, moves, mine: int = 0, theirs: int = 0) -> list:
    """Move masks from (mine, theirs) that keep the solved value: at each
    step the first move, in ``moves`` order, whose value matches.

    ``moves(mine, unclaimed)`` yields ``(mine', lost)`` per move, where
    ``lost`` says the move completes a line of the mover's.
    """
    full = game.full_mask
    want = search(mine, theirs)
    pv: list = []
    while mine | theirs != full:
        for nm, lost in moves(mine, full & ~(mine | theirs)):
            if (LOSS if lost else -search(theirs, nm)) == want:
                break
        else:
            raise GameError("no move matches the solved value")
        pv.append(nm ^ mine)
        if lost:
            break
        mine, theirs, want = theirs, nm, -want
    return pv


def _report(game: Game, value: int, pv: list, move_of, stats, table) -> SolveReport:
    """Replay the PV's move masks to its outcome, which must be ``value``
    for Player I; each move is reported as ``move_of(mask)``."""
    contains = game.lines.contains_mask
    sides = [0, 0]
    outcome = Outcome(Winner.DRAW)
    for i, move in enumerate(pv):
        sides[i % 2] |= move
        if contains(sides[i % 2]):
            outcome = Outcome(Winner.PI_WIN if i % 2 else Winner.PII_WIN, i + 1)
            break
    got = {Winner.PI_WIN: WIN, Winner.DRAW: DRAW, Winner.PII_WIN: LOSS}[outcome.winner]
    if got != value:
        raise GameError("principal variation does not replay to the solved value")
    return SolveReport(outcome, tuple(move_of(m) for m in pv),
                       stats["visited"], len(table))


def earliest_forced_loss(game: Game, cap: int = 16) -> int:
    """Index of Player II's losing move when Player I hurries the loss.

    Player I minimises and Player II maximises the index of the move on
    which Player II first contains a line; positions where Player II
    escapes entirely (a draw, or Player I containing a line) count as
    infinitely late. Requires the game to be a first-player win.
    """
    check_cap(game.n, cap, "solve")
    # Player I scores -index and Player II +index, so Player II losing on
    # (even) move d is worth d to it, and an escape +inf to Player II and
    # -inf to Player I; automorphisms keep the index, so canonical keys hold
    inf = float("inf")
    loss = [-inf if d % 2 else d for d in range(game.n + 1)]
    with _negamax(game, loss=loss, draw=inf if game.n % 2 else -inf) as (search, _, _):
        value = -search(0, 0)
    if value == inf:  # Player II escapes: Player I cannot force its line
        raise GameError("earliest_forced_loss needs a first-player-win game")
    return int(value)


def solve_plus(game: Game, cap: int = 8) -> SolveReport:
    """Exact outcome of the variant where a move claims any nonempty set.

    Positions are (current player's points, other player's points); the
    same table entry serves both seats. Moves are enumerated smallest set
    first.
    """
    check_cap(game.n, cap, "plus-solve")
    full = game.full_mask
    contains = game.lines.contains_mask
    table: dict = {}
    stats = {"visited": 0}
    n = game.n

    def moves(cur: int, unclaimed: int):
        subs = []
        s = unclaimed
        while s:
            subs.append(s)
            s = (s - 1) & unclaimed
        subs.sort(key=lambda v: (v.bit_count(), v))
        for u in subs:
            yield cur | u, contains(cur | u)

    def search(cur: int, other: int) -> int:
        key = cur | (other << n)
        hit = table.get(key)
        if hit is not None:
            return hit
        stats["visited"] += 1
        if cur | other == full:
            return DRAW
        best = LOSS
        for nc, lost in moves(cur, full & ~(cur | other)):
            val = LOSS if lost else -search(other, nc)
            if val > best:
                best = val
                if best == WIN:
                    break
        table[key] = best
        return best

    root = search(0, 0)
    return _report(game, root, _principal_variation(game, search, moves),
                   set_of, stats, table)


# ---------------------------------------------------------------------------
# strategy verification

class Goal(Enum):
    WIN = "win"
    NEVER_LOSE = "neverlose"


class VerifyReport(Record):
    # verdict: "pass" or "counterexample"; counterexample: the move history
    # replaying to the violation; memo and frontier: exhaustive mode's distinct
    # nodes and the most of them held at once, not in to_json
    __slots__ = ("verdict", "counterexample", "leaves", "mode", "seed", "samples", "memo",
                 "frontier")

    def __init__(self, verdict: str, counterexample: Optional[tuple], leaves: int, mode: str,
                 seed: Optional[int] = None, samples: Optional[int] = None,
                 memo: Optional[int] = None, frontier: Optional[int] = None):
        self.verdict, self.counterexample, self.leaves, self.mode = (
            verdict, counterexample, leaves, mode)
        self.seed, self.samples, self.memo, self.frontier = seed, samples, memo, frontier

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        doc = {"verdict": self.verdict, "leaves": self.leaves, "mode": self.mode}
        if self.counterexample is not None:
            doc["counterexample"] = list(self.counterexample)
        if self.seed is not None:
            doc["seed"] = self.seed
            doc["samples"] = self.samples
        return doc


def verify_strategy(game: Game, strategy, owner: Player, goal: Goal,
                    mode: str = "exhaustive", samples: int = 100_000,
                    seed: int = 0) -> VerifyReport:
    """Check a win or never-lose guarantee against adversary play.

    Exhaustive mode forces the strategy's moves and branches over every
    adversary reply, merging on (position, strategy state). Sampled mode
    plays ``samples`` seeded random play-outs. The counterexample history,
    when present, replays to the failure: the owner contains a line first,
    the adversary survives to a draw under a win goal, or the final entry
    is an illegal move the strategy emitted.
    """
    if strategy.role is not owner:
        raise GameError(f"strategy {strategy.name} plays {strategy.role}, not {owner}")
    if strategy.n != game.n:
        raise GameError("strategy board size differs from the game")
    if mode == "exhaustive":
        return _verify_exhaustive(game, strategy, owner, goal)
    if mode == "sampled":
        if samples < 1:
            raise GameError(f"sampled mode needs at least 1 sample, got {samples}")
        return _verify_sampled(game, strategy, owner, goal, samples, seed)
    raise GameError(f"unknown mode {mode!r}")


def _verify_exhaustive(game: Game, strat, owner: Player, goal: Goal,
                       route: Optional[str] = None) -> Optional[VerifyReport]:
    """Every adversary reply, level by level, and depth first where that
    route fails.

    Masks are owner-relative, as ``step`` reads them: (owner's, adversary's).
    A reply ``q`` is *paired* when the state's pairing table gives a
    partner ``t[q]`` that is unclaimed: the answer is ``t[q]`` and the
    state stays, with no ``step`` call; every other reply calls ``step``.

    A node (owner's set, adversary's set, state), the adversary to move,
    is one int, ``nm | nt << n | sid << 2n``, where ``sid`` numbers the
    distinct states in order of first sight, interned by equality in
    ``ids``. The key is injective, since ``nm, nt < 2**n``, so the search
    merges exactly what a memo of tuples would, in about a third less
    memory. A paired reply keeps its parent's state and so its id; a
    stepped reply looks its id up only when ``step`` returned a new state
    object. A position only gains points, so each node lies on one level,
    and the level route holds two levels at once. Where it fails or
    raises, the depth-first route reruns from the root with a memo of the
    nodes whose subtree passed, so a failure carries the history, leaves
    and exception of a depth-first search. ``memo`` counts the distinct
    nodes below the root and ``frontier`` the most nodes held at once.

    The level route skips, by sleep sets (Godefroid's partial-order
    reduction), paired replies whose child is already in the next level.
    Two paired replies commute, since the state and so the table stay,
    and ``t`` is an involution: from a node N, q1 then q2 and q2 then q1
    reach the same position. So once N's child by q1 is in, its own reply
    q2 leads to that position, unless the move ended the game; ``sleep``
    carries q1 into N's child by a later paired q2 (a point claimed on the
    way stays claimed, so ``sleep`` needs no masking). Slept replies are
    skipped only at nodes where no reply can end the game: the adversary
    cannot complete a line there, and at least 3 points are unclaimed, so
    no child board is full. Elsewhere a slept reply takes the probe like
    any other. Then every skipped reply is a probe hit that one ``step``
    per reply would also make, so the nodes, leaves and containment calls
    are those of the plain loop. The depth-first route has no sleep sets.

    ``route`` "levels" runs the level route alone, None where it would
    fall back, and "depth" the depth-first route alone.
    """
    full = game.full_mask
    n = game.n
    loses_after = game.lines.loses_after
    minline = game.lines.min_line_size
    first = owner is Player.ONE
    win = goal is Goal.WIN
    step = strat.step
    n2 = 2 * n
    memo: set = set()  # the depth-first route's passing nodes
    nxt = masks = None  # the level route's next level, and its sleep masks by value
    ids: dict = {}  # state -> its id, by equality
    table_of = _pairing_tables(strat, n)  # keyed by state id
    leaves = nodes = frontier = 0

    def replies(mine: int, theirs: int, state, sid: int, t, sleep: int) -> Optional[list]:
        """Adversary to move against strategy ``state`` (id ``sid``) with
        pairing table ``t``, game not over; ``sleep`` holds paired replies
        whose child is in ``nxt``. A new child goes into the level ``nxt``,
        or, where ``nxt`` is None, is searched at once and goes into
        ``memo`` once it passes. None = every reply passes."""
        nonlocal leaves
        seen = memo if nxt is None else nxt
        claimed = mine | theirs
        unclaimed = full & ~claimed
        may_lose = theirs.bit_count() + 1 >= minline
        owner_may_lose = mine.bit_count() + 1 >= minline
        left = unclaimed.bit_count()  # 1: a reply fills the board, 2: its answer does
        if sleep and not may_lose and left >= 3:
            unclaimed &= ~sleep  # no reply here can end the game
        done = 0  # paired replies finished without ending the game
        while unclaimed:
            bit = unclaimed & -unclaimed
            unclaimed ^= bit
            q = bit.bit_length() - 1
            nt = theirs | bit
            if may_lose and loses_after(nt, q):
                leaves += 1
                continue  # adversary contained a line first: fine for both goals
            if left == 1:
                leaves += 1
                if win:
                    return [q]  # adversary escaped with a draw
                continue
            if t is not None and (x := t[q]) >= 0 and not (claimed >> x) & 1:
                paired = True
                after, asid = state, sid
            else:
                paired = False
                try:
                    x, after = step(state, mine, nt, q)
                except IllegalMoveError:
                    return [q, -1]
                if not 0 <= x < n or ((mine | nt) >> x) & 1:
                    return [q, x]
                asid = sid if after is state else ids.setdefault(after, len(ids))
            nm = mine | 1 << x
            # a known child passed or waits in a level, so its owner set holds
            # no line and its board is not full: the probe may skip both checks
            memo_key = nm | nt << n | asid << n2
            if memo_key not in seen:
                if owner_may_lose and loses_after(nm, x):
                    return [q, x]
                if left == 2:
                    leaves += 1
                    if win:
                        return [q, x]
                    continue
                if nxt is not None:  # the first insertion sets the sleep mask
                    s = sleep | done if paired else 0
                    nxt[memo_key] = masks.setdefault(s, s) if s else 0
                else:  # an unchanged state keeps its table; no sleep sets
                    sub = replies(nm, nt, after, asid,
                                  t if after is state else table_of(after, asid), 0)
                    if sub is not None:
                        return [q, x] + sub
                    memo.add(memo_key)
            if paired:
                done |= bit
        return None

    def levels(root: int) -> bool:
        """Expand level k (the nodes with k points claimed) into level
        k + 1 in insertion order, then drop it; True = every node passes.

        Sound by induction over levels and, within one, insertion order:
        when a node N sleeps q1, its child by q1 is already in the next
        level. N came from P by a paired q2, and q1 was a paired reply P
        finished before q2, or one P slept, as the guard that lets N sleep
        held at P too. Either way P's child C by q1 entered N's level before
        N and was expanded before it. C's reply q2, slept or not, reaches
        N's child by q1 with the same state, and ends the game only where
        N's reply q1 does, which the guard rules out.
        """
        nonlocal nxt, masks, nodes, frontier
        level = {root: 0}
        while level:
            states = list(ids)  # in id order
            nxt, masks = {}, {}
            sid = -1
            for key, sleep in level.items():
                if key >> n2 != sid:  # siblings by paired replies share a state
                    sid = key >> n2
                    state = states[sid]
                    t = table_of(state, sid)
                if replies(key & full, key >> n & full, state, sid, t, sleep) is not None:
                    return False
            nodes += len(nxt)
            frontier = max(frontier, len(level) + len(nxt))
            level = nxt
        return True

    state, mine, cx = strat.initial, 0, None
    try:
        if first:  # the owner opens: the same checks as an answer in ``replies``
            try:
                x, state = step(state, 0, 0, None)
            except IllegalMoveError:
                x = -1
            if not 0 <= x < n or (minline <= 1 and loses_after(1 << x, x)):
                cx = [x]
            elif (mine := 1 << x) == full:
                leaves += 1
                cx = [x] if win else None
        if cx is None and mine != full:
            ids[state] = 0
            try:
                passed = route != "depth" and levels(mine)
            except Exception:  # the rerun raises it where a depth-first search does
                passed = False
            if not passed:
                if route == "levels":
                    return None
                nxt = masks = None  # frees the level route's last level
                leaves = 0
                cx = replies(mine, 0, state, 0, table_of(state, 0), 0)
                if cx is not None and first:
                    cx = [x] + cx
                nodes, frontier = len(memo), max(frontier, len(memo))
    finally:
        # ``replies`` refers to itself; unbinding it frees the memo now, not
        # at the next cycle collection
        del replies, levels
    return VerifyReport("pass" if cx is None else "counterexample",
                        None if cx is None else tuple(cx), leaves, "exhaustive",
                        memo=nodes, frontier=frontier)


def _pairing_tables(strat, n: int):
    """``table_of(state, key)``: the pairing table of ``state``, fetched
    from ``strat`` once per ``key`` and checked to be a fixed-point-free
    partial involution on ``n`` points (negative entries are holes)."""
    tables: dict = {}

    def table_of(state, key):
        try:
            return tables[key]
        except KeyError:
            t = strat.pairing(state)
            if t is not None and (len(t) != n or not is_fpf_partial_involution(t)):
                raise StrategyInvariantError(
                    "pairing table is no fixed-point-free partial involution")
            tables[key] = t
            return t

    return table_of


def _verify_sampled(game: Game, strat, owner: Player, goal: Goal,
                    samples: int, seed: int) -> VerifyReport:
    """Seeded random play-outs on owner-relative masks.

    The owner answers a paired reply as in exhaustive mode: ``t[q]`` from
    the state's pairing table when that point is unclaimed, with the state
    kept and no ``step`` call. Tables are kept by state, equal states
    sharing one entry, and each is checked once.

    The adversary draws an index into the ascending list of k unclaimed
    points by CPython's rejection loop (``_randbelow_with_getrandbits``,
    which ``randrange(k)`` and ``choice`` call): ``getrandbits`` of k's
    bit length, repeated while the draw is k or more. A seed replays the
    same play-outs in every version whose ``getrandbits`` is unchanged.
    """
    n = game.n
    loses_after = game.lines.loses_after
    minline = game.lines.min_line_size
    first = owner is Player.ONE
    win = goal is Goal.WIN
    step = strat.step
    getrandbits = random.Random(seed).getrandbits
    table_of = _pairing_tables(strat, n)  # keyed by the state, by equality
    tstate, t = object(), None  # the last state the adversary faced, its table
    leaves = 0
    try:  # ``step`` is pure: an owner that moves first opens the same way each time
        opening = step(strat.initial, 0, 0, None) if first else None
    except IllegalMoveError:
        opening = -1, strat.initial
    for _ in range(samples):
        state, q = strat.initial, None
        mine = theirs = 0
        nmine = ntheirs = 0  # popcounts of mine and theirs
        free = list(range(n))
        nfree = n
        history: list = []
        failed = None
        owner_moves = first
        while True:
            if owner_moves:
                claimed = mine | theirs
                # the opening as taken once; t[q] answers a paired reply, state kept
                if q is None:
                    x, state = opening
                elif t is None or (x := t[q]) < 0 or (claimed >> x) & 1:
                    try:
                        x, state = step(state, mine, theirs, q)
                    except IllegalMoveError:
                        x = -1
                history.append(x)
                if not 0 <= x < n or (claimed >> x) & 1:
                    failed = history
                    break
                mine |= 1 << x
                nmine += 1
                if nmine >= minline and loses_after(mine, x):
                    failed = history
                    break
                free.remove(x)
            else:
                if state is not tstate:
                    tstate, t = state, table_of(state, state)
                k = nfree.bit_length()
                r = getrandbits(k)
                while r >= nfree:
                    r = getrandbits(k)
                q = free.pop(r)
                theirs |= 1 << q
                ntheirs += 1
                history.append(q)
                if ntheirs >= minline and loses_after(theirs, q):
                    break  # adversary lost: play-out passes
            nfree -= 1
            if not nfree:
                if win:
                    failed = history
                break
            owner_moves = not owner_moves
        leaves += 1
        if failed is not None:
            return VerifyReport("counterexample", tuple(failed), leaves,
                                "sampled", seed=seed, samples=samples)
    return VerifyReport("pass", None, leaves, "sampled", seed=seed, samples=samples)
