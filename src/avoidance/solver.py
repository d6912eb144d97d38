"""Exact solvers and strategy verification.

State is a pair of point bitmasks; the side to move is implied by the
cardinalities, so the transposition key is just (mover's set, waiter's
set). A move that completes a line in the mover's set loses for the mover
on the spot; a full board with no contained line is a draw. Search is
three-valued (win / draw / loss from the mover's seat) with an early exit
on the first winning move.

``verify_strategy`` plays a scripted strategy against every adversary
reply (or a seeded random sample), memoizing on (position, strategy
state); only passing subtrees are cached so a failure always carries a
replayable history.

Subtrees may be searched concurrently against a shared write-once table
without changing any result; the implementation here is single-threaded
and deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .core import (
    Game,
    GameError,
    IllegalMoveError,
    Outcome,
    Player,
    SearchCapExceeded,
    Winner,
    is_transitive,
    iter_bits,
    set_of,
)

WIN, DRAW, LOSS = 1, 0, -1


@dataclass
class SolveReport:
    outcome: Outcome
    principal_variation: tuple
    states_visited: int
    table_size: int

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome.winner.value,
            "loss_time": self.outcome.loss_time,
            "pv": [sorted(m) if isinstance(m, (set, frozenset)) else m
                   for m in self.principal_variation],
            "states": self.states_visited,
            "table": self.table_size,
        }


def solve(game: Game, cap: int = 16, use_table: bool = True,
          move_order: str = "ascending", root_symmetry: bool = False) -> SolveReport:
    """Exact outcome of the single-point avoidance game under optimal play.

    ``root_symmetry`` restricts the first move to point 0; this is exact
    for transitive games (verified before use) since the automorphism
    group then carries any opening move to any other. When the game has a
    ``canonical`` form, states and table size count its equivalence
    classes of positions.
    """
    _check_cap(game, cap)
    if root_symmetry and not is_transitive(game):
        raise GameError("root_symmetry requires a transitive game")
    descending = move_order == "descending"
    search, table, stats = _negamax(game, use_table, descending)

    if root_symmetry and game.n > 0:
        first = 1 << 0
        if 1 >= game.lines.min_line_size and game.loses_after(first, 0):
            root_val = LOSS
        else:
            root_val = -search(0, first)
        stats["visited"] += 1
    else:
        root_val = search(0, 0)

    pv = _principal_variation(game, search, root_val,
                              first=0 if root_symmetry else None,
                              descending=descending)
    outcome = _outcome_from_pv(game, pv)
    got = {Winner.PI_WIN: WIN, Winner.DRAW: DRAW, Winner.PII_WIN: LOSS}[outcome.winner]
    if got != root_val:
        raise GameError("principal variation does not replay to the solved value")
    return SolveReport(outcome, tuple(pv), stats["visited"], len(table))


def best_move(game: Game, mine: int, theirs: int, cap: int = 16) -> int:
    """The solver's move for the side holding ``mine``, to move: the
    first point, ascending, of highest value. The game must not be over."""
    _check_cap(game, cap)
    search, _, _ = _negamax(game)
    return _principal_variation(game, search, search(mine, theirs), mine, theirs)[0]


def _check_cap(game: Game, cap: int) -> None:
    if game.n > cap:
        raise SearchCapExceeded(
            f"board size {game.n} exceeds solve cap {cap}; raise cap explicitly")


def _negamax(game: Game, use_table: bool = True, descending: bool = False):
    """The search behind ``solve`` and ``best_move``: ``(search, table, stats)``.

    ``search(mine, theirs)`` is the value for the side holding ``mine``,
    to move. The table is keyed by ``game.canonical`` when the game has
    one, else by the masks themselves.
    """
    full = game.full_mask
    n = game.n
    loses_after = game.lines.loses_after
    minline = game.lines.min_line_size
    canonical = game.canonical
    table: dict = {}
    stats = {"visited": 0}

    def search(mine: int, theirs: int) -> int:
        key = mine | (theirs << n) if canonical is None else canonical(mine, theirs)
        if use_table:
            hit = table.get(key)
            if hit is not None:
                return hit
        stats["visited"] += 1
        unclaimed = full & ~(mine | theirs)
        if unclaimed == 0:
            return DRAW
        best = LOSS
        may_lose = mine.bit_count() + 1 >= minline
        while unclaimed:
            if descending:
                x = unclaimed.bit_length() - 1
                bit = 1 << x
            else:
                bit = unclaimed & -unclaimed
                x = bit.bit_length() - 1
            unclaimed ^= bit
            nm = mine | bit
            if may_lose and loses_after(nm, x):
                val = LOSS
            else:
                val = -search(theirs, nm)
            if val > best:
                best = val
                if best == WIN:
                    break
        if use_table:
            table[key] = best
        return best

    return search, table, stats


def _principal_variation(game, search, want, mine=0, theirs=0, first=None,
                         descending=False) -> list:
    """Moves from (mine, theirs) that keep the solved value ``want``: at
    each step the first move, in search order, whose value matches."""
    full = game.full_mask
    minline = game.lines.min_line_size
    loses_after = game.lines.loses_after
    pv: list = []
    while True:
        unclaimed = full & ~(mine | theirs)
        if unclaimed == 0:
            return pv
        options = list(iter_bits(unclaimed))
        if descending:
            options.reverse()
        if first is not None and not pv:
            options = [first]
        cnt = mine.bit_count() + 1
        for x in options:
            nm = mine | (1 << x)
            if cnt >= minline and loses_after(nm, x):
                val = LOSS
                terminal = True
            else:
                val = -search(theirs, nm)
                terminal = False
            if val == want:
                pv.append(x)
                if terminal:
                    return pv
                mine, theirs = theirs, nm
                want = -want
                break
        else:
            raise GameError("no move matches the solved value")


def _outcome_from_pv(game: Game, pv: list) -> Outcome:
    a = b = 0
    for i, x in enumerate(pv):
        if i % 2 == 0:
            a |= 1 << x
            if game.lines.contains_mask(a):
                return Outcome(Winner.PII_WIN, i + 1)
        else:
            b |= 1 << x
            if game.lines.contains_mask(b):
                return Outcome(Winner.PI_WIN, i + 1)
    return Outcome(Winner.DRAW)


def earliest_forced_loss(game: Game, cap: int = 16) -> int:
    """Index of Player II's losing move when Player I hurries the loss.

    Player I minimises and Player II maximises the index of the move on
    which Player II first contains a line; positions where Player II
    escapes entirely (a draw, or Player I containing a line) count as
    infinitely late. Requires the game to be a first-player win.
    """
    base = solve(game, cap=cap)
    if base.outcome.winner is not Winner.PI_WIN:
        raise GameError("earliest_forced_loss needs a first-player-win game")
    full = game.full_mask
    n = game.n
    minline = game.lines.min_line_size
    loses_after = game.lines.loses_after
    canonical = game.canonical
    INF = float("inf")
    table: dict = {}

    def search(a: int, b: int):
        # automorphisms keep the loss index, so a canonical key is exact
        key = a | (b << n) if canonical is None else canonical(a, b)
        hit = table.get(key)
        if hit is not None:
            return hit
        depth = (a | b).bit_count()
        unclaimed = full & ~(a | b)
        if unclaimed == 0:
            val = INF
        elif depth % 2 == 0:  # Player I to move, minimising
            val = INF
            for x in iter_bits(unclaimed):
                na = a | (1 << x)
                if na.bit_count() >= minline and loses_after(na, x):
                    continue  # suicide never hurries Player II's loss
                val = min(val, search(na, b))
        else:
            val = 0
            for x in iter_bits(unclaimed):
                nb = b | (1 << x)
                if nb.bit_count() >= minline and loses_after(nb, x):
                    cand = depth + 1
                else:
                    cand = search(a, nb)
                val = max(val, cand)
        table[key] = val
        return val

    value = search(0, 0)
    if value == INF:
        raise GameError("delay search disagrees with the solver (bug)")
    return int(value)


def solve_plus(game: Game, cap: int = 8) -> SolveReport:
    """Exact outcome of the variant where a move claims any nonempty set.

    Positions are (current player's points, other player's points); the
    same table entry serves both seats. Moves are enumerated smallest set
    first.
    """
    if game.n > cap:
        raise SearchCapExceeded(
            f"board size {game.n} exceeds plus-solve cap {cap}; raise cap explicitly")
    full = game.full_mask
    contains = game.lines.contains_mask
    table: dict = {}
    stats = {"visited": 0}
    n = game.n

    def submasks(mask: int) -> list:
        subs = []
        s = mask
        while s:
            subs.append(s)
            s = (s - 1) & mask
        subs.sort(key=lambda v: (v.bit_count(), v))
        return subs

    def search(cur: int, other: int) -> int:
        key = cur | (other << n)
        hit = table.get(key)
        if hit is not None:
            return hit
        stats["visited"] += 1
        unclaimed = full & ~(cur | other)
        if unclaimed == 0:
            return DRAW
        best = LOSS
        for u in submasks(unclaimed):
            nc = cur | u
            val = LOSS if contains(nc) else -search(other, nc)
            if val > best:
                best = val
                if best == WIN:
                    break
        table[key] = best
        return best

    root = search(0, 0)
    pv: list = []
    cur, other, want = 0, 0, root
    outcome = Outcome(Winner.DRAW)
    while True:
        unclaimed = full & ~(cur | other)
        if unclaimed == 0:
            break
        for u in submasks(unclaimed):
            nc = cur | u
            terminal = contains(nc)
            val = LOSS if terminal else -search(other, nc)
            if val == want:
                pv.append(set_of(u))
                cur, other, want = other, nc, -want
                break
        else:
            raise GameError("no plus move matches the solved value")
        if terminal:
            # the mover of an odd-numbered move is Player I
            winner = Winner.PII_WIN if len(pv) % 2 else Winner.PI_WIN
            outcome = Outcome(winner, len(pv))
            break
    return SolveReport(outcome, tuple(pv), stats["visited"], len(table))


# ---------------------------------------------------------------------------
# strategy verification

class Goal(Enum):
    WIN = "win"
    NEVER_LOSE = "neverlose"


@dataclass
class VerifyReport:
    verdict: str                       # "pass" or "counterexample"
    counterexample: Optional[tuple]    # move history replaying to the violation
    leaves: int
    mode: str
    seed: Optional[int] = None
    samples: Optional[int] = None

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


def _verify_exhaustive(game: Game, strat, owner: Player, goal: Goal) -> VerifyReport:
    """Depth-first over adversary replies, one ``step`` per reply.

    Masks are owner-relative; the strategy sees (Player I's, Player II's).
    """
    full = game.full_mask
    n = game.n
    loses_after = game.lines.loses_after
    minline = game.lines.min_line_size
    first = owner is Player.ONE
    win = goal is Goal.WIN
    step = strat.step
    memo: set = set()
    leaves = 0

    def replies(mine: int, theirs: int, state) -> Optional[list]:
        """Adversary to move against strategy ``state``, game not over.
        None = subtree passes."""
        nonlocal leaves
        unclaimed = full & ~(mine | theirs)
        may_lose = theirs.bit_count() + 1 >= minline
        owner_may_lose = mine.bit_count() + 1 >= minline
        while unclaimed:
            bit = unclaimed & -unclaimed
            unclaimed ^= bit
            q = bit.bit_length() - 1
            nt = theirs | bit
            if may_lose and loses_after(nt, q):
                leaves += 1
                continue  # adversary contained a line first: fine for both goals
            if mine | nt == full:
                leaves += 1
                if win:
                    return [q]  # adversary escaped with a draw
                continue
            try:
                x, after = step(state, mine, nt, q) if first else step(state, nt, mine, q)
            except IllegalMoveError:
                return [q, -1]
            if not 0 <= x < n or ((mine | nt) >> x) & 1:
                return [q, x]
            nm = mine | 1 << x
            # a memoized subtree passed, so its owner set holds no line and
            # its board is not full: the probe may skip both checks below
            memo_key = (nm, nt, after)
            if memo_key in memo:
                continue
            if owner_may_lose and loses_after(nm, x):
                return [q, x]
            if nm | nt == full:
                leaves += 1
                if win:
                    return [q, x]
                continue
            sub = replies(nm, nt, after)
            if sub is not None:
                return [q, x] + sub
            memo.add(memo_key)
        return None

    state = strat.initial
    if not first:
        cx = replies(0, 0, state)
    else:  # the owner opens: the same checks as an answer in ``replies``
        try:
            x, state = step(state, 0, 0, None)
        except IllegalMoveError:
            x = -1
        if not 0 <= x < n or (minline <= 1 and loses_after(1 << x, x)):
            cx = [x]
        elif 1 << x == full:
            leaves += 1
            cx = [x] if win else None
        else:
            cx = replies(1 << x, 0, state)
            if cx is not None:
                cx = [x] + cx
    if cx is not None:
        return VerifyReport("counterexample", tuple(cx), leaves, "exhaustive")
    return VerifyReport("pass", None, leaves, "exhaustive")


def _verify_sampled(game: Game, strat, owner: Player, goal: Goal,
                    samples: int, seed: int) -> VerifyReport:
    """Seeded random play-outs on owner-relative masks.

    The adversary draws ``rng.choice`` over the ascending list of unclaimed
    points, so a seed replays the same play-outs in every version.
    """
    n = game.n
    loses_after = game.lines.loses_after
    minline = game.lines.min_line_size
    first = owner is Player.ONE
    win = goal is Goal.WIN
    step = strat.step
    rng = random.Random(seed)
    leaves = 0
    for _ in range(samples):
        state, q = strat.initial, None
        mine = theirs = 0
        free = list(range(n))
        history: list = []
        failed = None
        owner_moves = first
        while True:
            if owner_moves:
                try:
                    x, state = (step(state, mine, theirs, q) if first
                                else step(state, theirs, mine, q))
                except IllegalMoveError:
                    x = -1
                history.append(x)
                if not 0 <= x < n or ((mine | theirs) >> x) & 1:
                    failed = history
                    break
                mine |= 1 << x
                if mine.bit_count() >= minline and loses_after(mine, x):
                    failed = history
                    break
                free.remove(x)
            else:
                q = rng.choice(free)
                free.remove(q)
                theirs |= 1 << q
                history.append(q)
                if theirs.bit_count() >= minline and loses_after(theirs, q):
                    break  # adversary lost: play-out passes
            if not free:
                if win:
                    failed = history
                break
            owner_moves = not owner_moves
        leaves += 1
        if failed is not None:
            return VerifyReport("counterexample", tuple(failed), leaves,
                                "sampled", seed=seed, samples=samples)
    return VerifyReport("pass", None, leaves, "sampled", seed=seed, samples=samples)
