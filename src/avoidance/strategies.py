"""Scripted strategies as pure transitions.

Interface: a strategy has an immutable, hashable ``initial`` state and a
method ``step(state, own, adv, q) -> (x, state')``. ``own`` and ``adv``
are the point masks of the owner and of the adversary, whichever seat
the owner has, on the owner's turn after the adversary's move ``q``
(``None`` when the owner opens); ``x`` is the owner's answer. ``step``
never mutates the strategy object, and when the move changes nothing it
returns the input state object itself. The state is the whole memory of
the strategy, so the verifier merges transpositions on (position, state)
and branches by passing states around, with no copies.

A strategy may also expose a pairing table per state,
``pairing(state) -> t``: ``t[q] >= 0`` promises that whenever point
``t[q]`` is unclaimed after adversary move ``q``, ``step(state, own, adv, q)``
returns ``(t[q], state)`` with the same state object, and ``-1`` means
"ask ``step``". ``t`` is a fixed-point-free partial involution
(``t[q] != q`` and ``t[t[q]] == q``), so two paired answers commute. The
verifier answers paired replies from the table in both modes. On the
exhaustive level route it also skips a paired reply whose child is
already in the next level; the depth-first rerun skips none.

All free choices are resolved lowest index first, so identical histories
reproduce identical moves. The one exception is the r-bin window rule of
``BinMirrorStrategy``: a bin claims the lowest free point of a window of
max(m/4, 1) points that its guess places.
"""

from __future__ import annotations

from typing import Optional

from .constructions import even_general_rule, pairs_rule
from .core import (Game, Player, StrategyInvariantError, find_fpf_involution,
                   is_fpf_partial_involution, iter_bits)
from . import pairset as _ps


class Strategy:
    name: str = "strategy"
    role: Player = Player.ONE
    n: int = 0
    initial = None

    def step(self, state, own: int, adv: int, q: Optional[int]):
        """(owner's move answering adversary move ``q``, next state), given
        the owner's points ``own`` and the adversary's ``adv``."""
        raise NotImplementedError

    def pairing(self, state) -> Optional[tuple]:
        """The pairing table of ``state`` (see the module docstring), or
        None when no reply is answered by a fixed partner."""
        return None


class LowestFreeStrategy(Strategy):
    """Plays the lowest unclaimed point; a deliberately naive baseline."""

    initial = ()

    def __init__(self, n: int, role: Player = Player.ONE):
        self.name = "lowest"
        self.role = role
        self.n = n

    def step(self, state, own, adv, q):
        free = ((1 << self.n) - 1) & ~(own | adv)
        return (free & -free).bit_length() - 1, state


# ---------------------------------------------------------------------------
# bucket strategy for odd composite boards

class OddBucketStrategy(Strategy):
    """Answer in the adversary's active bucket, else open, else extend.

    A bucket is active once we hold between 1 and p'-1 of its points and
    full at p'; we never play a p'+1st point in a bucket. Rule order:
    answer the adversary's last move if it landed in an active bucket;
    open a wholly empty bucket while fewer than q' buckets are active or
    full; otherwise play in the lowest active bucket. The move depends on
    the position and ``q`` alone, so the state never changes.
    """

    def __init__(self, p: int, q: int):
        self.name = f"odd-bucket({p},{q})"
        self.role = Player.ONE
        self.p, self.q = p, q
        self.pp, self.qq = (p + 1) // 2, (q + 1) // 2
        self.n = p * q
        self.buckets = tuple(((1 << p) - 1) << (j * p) for j in range(q))

    def step(self, state, own, adv, q):
        taken = own | adv
        counts = [(own & bucket).bit_count() for bucket in self.buckets]
        if q is not None and 1 <= counts[q // self.p] < self.pp:
            free = self.buckets[q // self.p] & ~taken
            if free:
                return (free & -free).bit_length() - 1, state
            raise StrategyInvariantError("active bucket with no unclaimed point")
        committed = sum(1 for c in counts if c >= 1)
        if committed < self.qq:
            for bucket in self.buckets:
                if not taken & bucket:
                    return (bucket & -bucket).bit_length() - 1, state
            raise StrategyInvariantError("no empty bucket for the opening rule")
        for bucket, c in zip(self.buckets, counts):
            free = bucket & ~taken
            if 1 <= c < self.pp and free:
                return (free & -free).bit_length() - 1, state
        raise StrategyInvariantError("no rule applies (all buckets full?)")


# ---------------------------------------------------------------------------
# the bin-board mirror strategy; the pair board is its m = 2 case

NORMAL, ENDGAME, DIRECT = "normal", "endgame", "direct"


class BinMirrorStrategy(Strategy):
    """First-player strategy for the bin board of ``rule``
    (``constructions.bin_rule``): b bins of m = 2^a points whose
    transversals are allowed when their per-bin maxima sum, plus
    ``offset``, into [0, m/2) mod m.

    The opposite of point y in a bin is y + m/2 (mod m) in the same bin.
    Normal play mirrors opposite points and opens bins below b'. The
    endgame fills bins b'..b-1 in order: bins before the last empty bin r
    take lowest free points, bin r claims a window of max(m/4, 1) points
    placed so the running guess at the final sum of per-bin maxima enters
    [0, m/2), and every later bin claims the quarter interval (of the two
    produced by ``key_params``) that keeps the guess there. An adversary
    move into the rule's window of our unmatched point's pair wins
    outright: we double that pair, and the window holds an empty pair.
    From then on (direct mode) a point is admissible when it is free, not
    ``forbidden`` and not opposite one of ours; we answer q with its
    opposite when that is admissible, else with the lowest admissible
    point.

    State: (phase, extra, forbidden, cur_bin, fill_z, r_bin, guess, t_cur);
    ``extra`` is our one unmatched point, ``forbidden`` the point we must
    never take in direct mode.
    """

    initial = (NORMAL, None, None, None, None, None, None, None)

    def __init__(self, name: str, rule):
        self.name = name
        self.role = Player.ONE
        b, m = self.b, self.m = rule.b, rule.m
        self.offset, self.low, self.window = rule.offset, rule.low, rule.window
        self.half, self.bp = m // 2, (b - 1) // 2
        # claimed windows are m/4 points wide; at m = 2, the one point of
        # the last empty bin that sets the transversal's parity
        self.fill_mask = (1 << max(m // 4, 1)) - 1
        self.n = b * m
        self.full = (1 << self.n) - 1
        self.binmask = (1 << m) - 1
        self.opp = tuple(x - x % m + (x % m + self.half) % m for x in range(self.n))

    def step(self, state, own, adv, q):
        phase, extra, forbidden = state[0], state[1], state[2]
        if phase == DIRECT:
            # the admissible points: free, not forbidden, not opposite one
            # we hold (swapping each bin's low and high halves maps a mask
            # to the mask of opposite points)
            low, half = self.low, self.half
            ok = self.full & ~(own | adv | ((own & low) << half) | ((own >> half) & low)
                               | (1 << forbidden))
            if q is not None and ok >> self.opp[q] & 1:
                return self.opp[q], state
            if not ok:
                raise StrategyInvariantError("direct mode found no admissible point")
            return (ok & -ok).bit_length() - 1, state
        if q is not None and extra is not None:
            if self.window(extra) >> q & 1:
                # double our unmatched point's pair; q's opposite is off limits.
                # Direct mode never reads the endgame fields; at m = 2 a stale
                # r_bin would split memo nodes, at m >= 4 pinned counts keep them
                rest = state[3:] if self.m > 2 else self.initial[3:]
                return self.opp[extra], (DIRECT, None, self.opp[q]) + rest
            if q != self.opp[extra]:
                return self.opp[q], state  # mirror; extra unchanged
        return self._claim(state, own, adv)

    def pairing(self, state):
        """Opposite points, except where ``step`` may leave the mirror: the
        forbidden pair in direct mode; our unmatched point's pair and its
        window (a set closed under ``opp``) otherwise."""
        phase, extra, forbidden = state[0], state[1], state[2]
        if phase == DIRECT:
            holes = 1 << forbidden | 1 << self.opp[forbidden]
        elif extra is None:
            return None
        else:
            holes = 1 << extra | 1 << self.opp[extra] | self.window(extra)
        t = list(self.opp)
        for q in iter_bits(holes):
            t[q] = -1
        return tuple(t)

    def _guess_terms(self, own: int, upto: int) -> int:
        """``offset`` plus the final maxima of bins < upto plus the window
        centres beyond, mod m."""
        total = self.offset
        for j in range(self.b):
            mine = (own >> (j * self.m)) & self.binmask
            if j < upto:
                total += _ps.maximal_point(self.m, mine)
            elif j > upto:
                total += _ps.key_params(self.m, mine).t
        return total % self.m

    def _claim(self, state, own, adv):
        """The move off the mirror: open bins below b', then the endgame fill."""
        phase, _, forbidden, cur_bin, fill_z, r_bin, guess, t_cur = state
        taken, m, binmask = own | adv, self.m, self.binmask
        if phase == NORMAL:
            free = self.full & ~taken
            if not free:
                raise StrategyInvariantError("free choice on a full board")
            point = (free & -free).bit_length() - 1
            if point // m < self.bp:
                return point, (phase, point) + state[2:]
            phase = ENDGAME
            cur_bin = self.bp
            empty_bins = [j for j in range(self.b) if not (taken >> (j * m)) & binmask]
            if not empty_bins:
                raise StrategyInvariantError("endgame entered with no empty bin")
            r_bin = max(empty_bins)
        # close every full bin (past the last bin the shifted board is empty):
        # closing r_bin sets the guess, and each later close moves it by u - t,
        # where a bin closed without our claim holds a full pair set, whose t is u
        while not (free := ~(taken >> (cur_bin * m)) & binmask):
            u = _ps.maximal_point(m, (own >> (cur_bin * m)) & binmask)
            if guess is not None:
                guess = (guess + u - (u if t_cur is None else t_cur)) % m
            elif cur_bin == r_bin:
                guess = (self._guess_terms(own, r_bin) + u) % m
            if guess is not None and guess >= self.half:
                raise StrategyInvariantError(
                    f"guess {guess} left [0, {self.half}) at the close of bin {cur_bin}")
            cur_bin, fill_z, t_cur = cur_bin + 1, None, None
        if cur_bin >= self.b:
            raise StrategyInvariantError("free choice after all bins closed")
        if fill_z is None and cur_bin == r_bin:
            # the least u with c + u in [m/4, m/2) mod m: a bin maximum in
            # the window [u-m/4, u] then lands the guess inside [0, m/2)
            c, quarter = self._guess_terms(own, r_bin), self.half // 2
            fill_z = 0 if quarter <= c < self.half else (quarter - c) % m
        elif fill_z is None and guess is not None:
            kp = _ps.key_params(m, (own >> (cur_bin * m)) & binmask)
            t_cur = kp.t
            fill_z = kp.z1 if (guess - kp.s) % m < self.half else kp.z2
        y = (free & -free).bit_length() - 1
        if fill_z is not None:
            # free points of the window at fill_z, rotated down to bit 0
            window = ((free >> fill_z) | (free << (m - fill_z))) & self.fill_mask
            if window:
                y = (fill_z + (window & -window).bit_length() - 1) % m
        point = cur_bin * m + y
        return point, (phase, point, forbidden, cur_bin, fill_z, r_bin, guess, t_cur)


# ---------------------------------------------------------------------------
# pairing strategies: answer every move with its partner

class PairingStrategy(Strategy):
    """Answer each adversary move q with ``partner[q]``, except in a block
    where a base strategy plays.

    ``partner`` is an involution of the board whose fixed points are
    exactly the block 0..n0-1, where n0 is ``base.n`` (0 without a base).
    An opening or a move in the block goes to ``base.step``, masked to the
    block. ``role``, ``initial`` and the state are the base's; without a
    base the strategy is a second player's and never opens.
    """

    def __init__(self, name: str, partner, base: Optional[Strategy] = None):
        n0 = 0 if base is None else base.n
        self.name, self.base, self.n0, self.n = name, base, n0, len(partner)
        self.partner = tuple(partner)
        self.table = tuple(-1 if y == x else y for x, y in enumerate(self.partner))
        if min(self.partner, default=0) < 0 or not is_fpf_partial_involution(self.table) \
                or [x for x, y in enumerate(self.partner) if x == y] != list(range(n0)):
            raise StrategyInvariantError(
                f"partner table is no involution fixing exactly the first {n0} point(s)")
        if base is None:
            self.role = Player.TWO
        else:
            self.role, self.initial = base.role, base.initial

    def step(self, state, own, adv, q):
        if q is None or q < self.n0:
            if self.base is None:
                raise StrategyInvariantError("no adversary move to answer")
            block = (1 << self.n0) - 1
            return self.base.step(state, own & block, adv & block, q)
        x = self.table[q]
        if ((own | adv) >> x) & 1:
            raise StrategyInvariantError(f"the partner of {q} is not free")
        return x, state

    def pairing(self, state):
        """The base's table on the block (all holes when it has none), then
        the partner table."""
        t = None if self.base is None else self.base.pairing(state)
        return self.table if t is None else t + self.table[self.n0:]


# ---------------------------------------------------------------------------
# registry: build a strategy matching a constructed game

def pairs_strategy(b: int) -> BinMirrorStrategy:
    return BinMirrorStrategy(f"pairs({b})", pairs_rule(b))


def even_general_strategy(a: int, b: int) -> BinMirrorStrategy:
    return BinMirrorStrategy(f"even-general({a},{b})", even_general_rule(a, b))


def copy_pairing(name: str, base: Strategy, f) -> PairingStrategy:
    """``base`` in copy 0 of len(f) copies of its board, and a move in copy
    i answered at the same place in copy f[i]; copy i is the points
    i*n0 .. i*n0 + n0 - 1, where n0 is ``base.n``."""
    n0 = base.n
    return PairingStrategy(name, [f[x // n0] * n0 + x % n0 for x in range(len(f) * n0)], base)


def copy_mirror_strategy(base: Strategy, c: int) -> PairingStrategy:
    """``base`` in copy 0 of c copies; copies 2i-1 and 2i mirror each other."""
    f = (0,) + tuple(i + 1 if i % 2 else i - 1 for i in range(1, c))
    return copy_pairing(f"copy-mirror({base.name},{c})", base, f)


def _torus_pairing_for(game: Game, params: dict) -> Strategy:
    if params.get("q") != 3:
        raise StrategyInvariantError("torus-pairing needs a torus(3, d) game")
    # torus()'s last generator is the negation; its one fixed point, the
    # origin, is point 0, where the first player opens
    return PairingStrategy(f"torus-pairing({params['d']})", game.generators[-1].image,
                           LowestFreeStrategy(1))


def _involution_pairing_for(game: Game, params: dict) -> Strategy:
    g = find_fpf_involution(game)
    if g is None:
        raise StrategyInvariantError("no fixed-point-free involution in the group")
    game.lines.check_preserved(g)
    return PairingStrategy("involution-pairing", g.image)


# name -> (construction the game must come from, or None; builder(game, params))
_REGISTRY = {
    "odd-bucket": ("odd_composite", lambda g, p: OddBucketStrategy(p["p"], p["q"])),
    "pairs": ("pairs", lambda g, p: pairs_strategy(p["b"])),
    "even-general": ("even_general", lambda g, p: even_general_strategy(p["a"], p["b"])),
    "torus-pairing": ("torus", _torus_pairing_for),
    "involution-pairing": (None, _involution_pairing_for),
    "copy-mirror": ("copies", lambda g, p: copy_mirror_strategy(
        strategy_for(g.meta["base"], "pairs"), p["c"])),
    # torus layer t is copy t; the copy map is the torus negation
    "product": ("product_torus", lambda g, p: copy_pairing(
        f"product({p['d']})", strategy_for(g.meta["base"], "pairs"),
        g.meta["torus"].generators[-1].image)),
    "lowest": (None, lambda g, p: LowestFreeStrategy(g.n)),
}

STRATEGY_NAMES = tuple(_REGISTRY)


def strategy_for(game: Game, name: str) -> Strategy:
    if name not in _REGISTRY:
        raise StrategyInvariantError(f"unknown strategy {name!r}")
    construction, build = _REGISTRY[name]
    meta = dict(game.meta)
    if construction is not None and meta.get("construction") != construction:
        raise StrategyInvariantError(f"{name} strategy needs a {construction} game")
    return build(game, dict(meta.get("params", {})))
