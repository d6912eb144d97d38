"""Scripted strategies as deterministic state machines.

Interface: ``observe(a, b, point)`` is called with the position bitmasks
*before* every adversary move; ``choose(a, b)`` is called on the owner's
turn with the current masks, returns the move and updates internal state
for it. ``key`` returns the strategy's whole mutable state as a hashable
tuple of immutable values; the verifier merges transpositions on it and
takes it after ``choose``, when no adversary move is pending.
``restore(state)`` is its inverse: the verifier rewinds one strategy
object before each adversary reply instead of copying it per branch, and
``clone`` (a shallow copy, plus any sub-strategy) is taken once per run.

All free choices are resolved lowest index first, so identical histories
reproduce identical moves. The one exception is documented per strategy
(a parity or window constraint replacing the plain minimum).
"""

from __future__ import annotations

import copy
from typing import Optional

from .core import Game, Permutation, Player, StrategyInvariantError, iter_bits
from . import pairset as _ps
from .pairset import PairSet, key_params


class Strategy:
    name: str = "strategy"
    role: Player = Player.ONE
    n: int = 0

    def reset(self) -> None:
        raise NotImplementedError

    def clone(self) -> "Strategy":
        return copy.copy(self)

    def key(self):
        raise NotImplementedError

    def restore(self, state) -> None:
        raise NotImplementedError

    def observe(self, a: int, b: int, point: int) -> None:
        """Record an adversary move (masks are the position before it)."""
        raise NotImplementedError

    def choose(self, a: int, b: int) -> int:
        """Owner's move for the current position; updates internal state."""
        raise NotImplementedError


class _ReplyStrategy(Strategy):
    """Base for strategies whose only state is the adversary move to answer."""

    def reset(self):
        self.pending: Optional[int] = None

    def key(self):
        return self.pending

    def restore(self, state):
        self.pending = state

    def observe(self, a, b, point):
        self.pending = point


class LowestFreeStrategy(Strategy):
    """Plays the lowest unclaimed point; a deliberately naive baseline."""

    def __init__(self, n: int, role: Player = Player.ONE):
        self.name = "lowest"
        self.role = role
        self.n = n
        self.reset()

    def reset(self):
        pass

    def key(self):
        return ()

    def restore(self, state):
        pass

    def observe(self, a, b, point):
        pass

    def choose(self, a, b):
        free = ((1 << self.n) - 1) & ~(a | b)
        return (free & -free).bit_length() - 1


# ---------------------------------------------------------------------------
# bucket strategy for odd composite boards

class OddBucketStrategy(_ReplyStrategy):
    """Answer in the adversary's active bucket, else open, else extend.

    A bucket is active once we hold between 1 and p'-1 of its points and
    full at p'; we never play a p'+1st point in a bucket. Rule order:
    answer the adversary's last move if it landed in an active bucket;
    open a wholly empty bucket while fewer than q' buckets are active or
    full; otherwise play in the lowest active bucket.
    """

    def __init__(self, p: int, q: int):
        self.name = f"odd-bucket({p},{q})"
        self.role = Player.ONE
        self.p, self.q = p, q
        self.pp, self.qq = (p + 1) // 2, (q + 1) // 2
        self.n = p * q
        self.reset()

    def _lowest_in_bucket(self, bucket: int, taken: int) -> Optional[int]:
        for x in range(bucket * self.p, (bucket + 1) * self.p):
            if not (taken >> x) & 1:
                return x
        return None

    def choose(self, a, b):
        taken = a | b
        counts = [0] * self.q
        for x in iter_bits(a):
            counts[x // self.p] += 1
        pending, self.pending = self.pending, None
        if pending is not None and 1 <= counts[pending // self.p] < self.pp:
            x = self._lowest_in_bucket(pending // self.p, taken)
            if x is not None:
                return x
            raise StrategyInvariantError("active bucket with no unclaimed point")
        committed = sum(1 for c in counts if c >= 1)
        if committed < self.qq:
            for bucket in range(self.q):
                lo = bucket * self.p
                if not (taken >> lo) & ((1 << self.p) - 1):
                    return lo
            raise StrategyInvariantError("no empty bucket for the opening rule")
        for bucket in range(self.q):
            if 1 <= counts[bucket] < self.pp:
                x = self._lowest_in_bucket(bucket, taken)
                if x is not None:
                    return x
        raise StrategyInvariantError("no rule applies (all buckets full?)")


def odd_bucket_strategy(p: int, q: int) -> OddBucketStrategy:
    return OddBucketStrategy(p, q)


# ---------------------------------------------------------------------------
# shared skeleton for the pair-board and bin-board strategies

NORMAL, ENDGAME, DIRECT = "normal", "endgame", "direct"


class _MirrorCore(Strategy):
    """Common machinery: opposite-point mirroring, direct-win execution.

    Subclasses define the pairing geometry (``opp``), the direct-win
    triggers and the free-choice policy. State is the tuple
    (phase, extra, forbidden, opening, pending) plus subclass extras;
    ``extra`` is our one unmatched point, ``forbidden`` the point we must
    never take in direct mode, ``opening`` the pending first direct move.
    """

    def reset(self):
        self.phase = NORMAL
        self.extra: Optional[int] = None
        self.forbidden: Optional[int] = None
        self.opening: Optional[int] = None
        self.pending: Optional[int] = None

    def opp(self, x: int) -> int:
        raise NotImplementedError

    def pair_index(self, x: int) -> int:
        """Canonical id of x's opposite pair."""
        raise NotImplementedError

    def _triggers_direct(self, q: int) -> bool:
        raise NotImplementedError

    def observe(self, a, b, point):
        if self.phase != DIRECT and self._triggers_direct(point):
            self.phase = DIRECT
            self.forbidden = self.opp(point)
            self.opening = self.extra
            self.extra = None
        self.pending = point

    def _choose_direct(self, a, b, pending):
        taken = a | b
        if self.opening is not None:
            x, self.opening = self.opp(self.opening), None
            return x
        if pending is not None:
            back = self.opp(pending)
            if (not (taken >> back) & 1 and back != self.forbidden
                    and not self._own_in_pair(a, pending)):
                return back
        for x in range(self.n):
            if (taken >> x) & 1 or x == self.forbidden:
                continue
            if not self._own_in_pair(a, x):
                return x
        raise StrategyInvariantError("direct mode found no admissible point")

    def _own_in_pair(self, a: int, x: int) -> bool:
        return bool((a >> x) & 1 or (a >> self.opp(x)) & 1)

    def choose(self, a, b):
        pending, self.pending = self.pending, None
        if self.phase == DIRECT:
            return self._choose_direct(a, b, pending)
        if pending is not None and self.extra is not None \
                and pending != self.opp(self.extra):
            return self.opp(pending)  # mirror; extra unchanged
        return self._free_choice(a, b)

    def _free_choice(self, a, b):
        raise NotImplementedError


class PairsStrategy(_MirrorCore):
    """First-player strategy for the pair game on 2b points.

    Mirror inside pairs; win outright when the adversary's stray point
    lands 1..b' pairs after our unmatched one; otherwise open pairs below
    b' and, once only pairs at b' and beyond remain, fill them in order,
    choosing the final point's half to land an odd count of second
    coordinates.
    """

    def __init__(self, b: int):
        self.name = f"pairs({b})"
        self.role = Player.ONE
        self.b = b
        self.bp = (b - 1) // 2
        self.n = 2 * b
        self.reset()

    def key(self):
        return (self.phase, self.extra, self.forbidden, self.opening, self.pending)

    def restore(self, state):
        self.phase, self.extra, self.forbidden, self.opening, self.pending = state

    def opp(self, x):
        return x ^ 1

    def pair_index(self, x):
        return x >> 1

    def _triggers_direct(self, q):
        if self.extra is None:
            return False
        return 1 <= (self.pair_index(q) - self.pair_index(self.extra)) % self.b <= self.bp

    def _free_choice(self, a, b):
        taken = a | b
        empty = [i for i in range(self.b)
                 if not (taken >> (2 * i)) & 1 and not (taken >> (2 * i + 1)) & 1]
        if not empty:
            raise StrategyInvariantError("free choice with no empty pair")
        c = empty[0]
        if self.phase == NORMAL and c >= self.bp:
            self.phase = ENDGAME
        if self.phase == ENDGAME and len(empty) == 1:
            ones = sum(1 for x in iter_bits(a) if x & 1)
            point = 2 * c + (1 - ones % 2)
        else:
            point = 2 * c
        self.extra = point
        return point


def pairs_strategy(b: int) -> PairsStrategy:
    return PairsStrategy(b)


class EvenGeneralStrategy(_MirrorCore):
    """First-player strategy for the bin game on b * 2^a points.

    Normal play mirrors opposite points and opens bins below b'. The
    endgame fills bins b'..b-1 in order: bins before the last empty bin r
    take lowest free points, bin r claims a quarter interval placed so the
    running guess at the final sum of per-bin maxima enters [0, m/2), and
    every later bin claims the quarter interval (of the two produced by
    ``key_params``) that keeps the guess there. Adversary intrusions next
    to our unmatched point win outright through a doubled pair.
    """

    def __init__(self, a: int, b: int):
        self.name = f"even-general({a},{b})"
        self.role = Player.ONE
        self.b = b
        self.m = 1 << a
        self.mp = self.m // 4
        self.half = self.m // 2
        self.bp = (b - 1) // 2
        self.n = b * self.m
        self.reset()

    def reset(self):
        super().reset()
        self.cur_bin: Optional[int] = None
        self.fill_z: Optional[int] = None
        self.r_bin: Optional[int] = None
        self.guess: Optional[int] = None
        self.t_cur: Optional[int] = None

    def key(self):
        return (self.phase, self.extra, self.forbidden, self.opening, self.pending,
                self.cur_bin, self.fill_z, self.r_bin, self.guess, self.t_cur)

    def restore(self, state):
        (self.phase, self.extra, self.forbidden, self.opening, self.pending,
         self.cur_bin, self.fill_z, self.r_bin, self.guess, self.t_cur) = state

    def opp(self, x):
        return (x // self.m) * self.m + (x % self.m + self.half) % self.m

    def pair_index(self, x):
        return (x // self.m) * self.half + (x % self.m) % self.half

    def _triggers_direct(self, q):
        if self.extra is None:
            return False
        dbin = (q // self.m - self.extra // self.m) % self.b
        if 1 <= dbin <= self.bp:
            return True
        if dbin == 0:
            dy = (q % self.m - self.extra % self.m) % self.m
            return 0 < dy < self.mp or self.half < dy < self.half + self.mp
        return False

    def _bin_members(self, mask: int, j: int) -> set:
        base = j * self.m
        return {y for y in range(self.m) if (mask >> (base + y)) & 1}

    def _bin_complete(self, taken: int, j: int) -> bool:
        seg = (taken >> (j * self.m)) & ((1 << self.m) - 1)
        return seg == (1 << self.m) - 1

    def _lowest_unclaimed_in_bin(self, taken: int, j: int) -> Optional[int]:
        for y in range(self.m):
            if not (taken >> (j * self.m + y)) & 1:
                return j * self.m + y
        return None

    def _guess_terms(self, a: int, upto: int) -> int:
        """Sum of final maxima for bins < upto plus window centres beyond."""
        total = 0
        for j in range(self.b):
            mine = self._bin_members(a, j)
            if j < upto:
                total += _ps.maximal_point(mine, m=self.m)
            elif j > upto:
                total += key_params(PairSet.of(self.m, mine)).t
        return total % self.m

    def _close_finished_bins(self, a: int, taken: int):
        while self.cur_bin is not None and self.cur_bin < self.b \
                and self._bin_complete(taken, self.cur_bin):
            u = _ps.maximal_point(self._bin_members(a, self.cur_bin), m=self.m)
            if self.guess is not None:
                t = self.t_cur
                if t is None:
                    t = key_params(PairSet.of(self.m, self._bin_members(a, self.cur_bin))).t
                self.guess = (self.guess + u - t) % self.m
                if self.guess >= self.half:
                    raise StrategyInvariantError(
                        f"guess {self.guess} left [0, {self.half}) at bin close")
            elif self.cur_bin == self.r_bin:
                self.guess = (self._guess_terms(a, self.r_bin) + u) % self.m
                if self.guess >= self.half:
                    raise StrategyInvariantError(
                        f"initial guess {self.guess} outside [0, {self.half})")
            self.cur_bin += 1
            self.fill_z = None
            self.t_cur = None

    def _free_choice(self, a, b):
        taken = a | b
        if self.phase == NORMAL:
            point = None
            for x in range(self.n):
                if not (taken >> x) & 1:
                    point = x
                    break
            if point is None:
                raise StrategyInvariantError("free choice on a full board")
            if point // self.m < self.bp:
                self.extra = point
                return point
            self.phase = ENDGAME
            self.cur_bin = self.bp
            empty_bins = [j for j in range(self.b)
                          if not (taken >> (j * self.m)) & ((1 << self.m) - 1)]
            if not empty_bins:
                raise StrategyInvariantError("endgame entered with no empty bin")
            self.r_bin = max(empty_bins)
        self._close_finished_bins(a, taken)
        if self.cur_bin is None or self.cur_bin >= self.b:
            raise StrategyInvariantError("free choice after all bins closed")
        j = self.cur_bin
        if self.fill_z is None and j == self.r_bin:
            c = self._guess_terms(a, self.r_bin)
            for u in range(self.m):
                if self.half // 2 <= (c + u) % self.m < self.half:
                    # window [u-m/4, u] of the bin maximum lands the guess
                    # inside [0, m/2)
                    self.fill_z = u
                    break
            else:
                raise StrategyInvariantError("no interval start fits the guess window")
        elif self.fill_z is None and self.guess is not None:
            kp = key_params(PairSet.of(self.m, self._bin_members(a, j)))
            self.t_cur = kp.t
            self.fill_z = kp.z1 if (self.guess - kp.s) % self.m < self.half else kp.z2
        if self.fill_z is not None:
            for i in range(self.mp):
                y = (self.fill_z + i) % self.m
                point = j * self.m + y
                if not (taken >> point) & 1:
                    self.extra = point
                    return point
        point = self._lowest_unclaimed_in_bin(taken, j)
        if point is None:
            raise StrategyInvariantError("current bin closed unexpectedly")
        self.extra = point
        return point


def even_general_strategy(a: int, b: int) -> EvenGeneralStrategy:
    return EvenGeneralStrategy(a, b)


# ---------------------------------------------------------------------------
# pairing strategies

class TorusPairingStrategy(_ReplyStrategy):
    """Open at the origin, then answer every move with its negation."""

    def __init__(self, d: int):
        self.name = f"torus-pairing({d})"
        self.role = Player.ONE
        self.d = d
        self.n = 3 ** d
        neg = []
        for i in range(self.n):
            digits, v = [], i
            for _ in range(d):
                digits.append(v % 3)
                v //= 3
            w = 0
            for dig in reversed(digits):
                w = w * 3 + (-dig) % 3
            neg.append(w)
        self.neg = tuple(neg)
        self.reset()

    def choose(self, a, b):
        if a | b == 0:
            return 0
        pending, self.pending = self.pending, None
        if pending is None:
            raise StrategyInvariantError("no adversary move to answer")
        x = self.neg[pending]
        if ((a | b) >> x) & 1:
            raise StrategyInvariantError(f"negation {x} already claimed")
        return x


def torus_pairing_strategy(d: int) -> TorusPairingStrategy:
    return TorusPairingStrategy(d)


class InvolutionPairingStrategy(_ReplyStrategy):
    """Second player answers g(x) for a fixed-point-free involution g."""

    def __init__(self, g: Permutation):
        if not g.is_fpf_involution():
            raise StrategyInvariantError("pairing needs a fixed-point-free involution")
        self.name = "involution-pairing"
        self.role = Player.TWO
        self.n = g.n
        self.g = g
        self.reset()

    def choose(self, a, b):
        pending, self.pending = self.pending, None
        if pending is None:
            raise StrategyInvariantError("no adversary move to answer")
        x = self.g(pending)
        if ((a | b) >> x) & 1:
            raise StrategyInvariantError(f"paired point {x} already claimed")
        return x


def involution_pairing_strategy(g: Permutation, game: Optional[Game] = None
                                ) -> InvolutionPairingStrategy:
    if game is not None:
        game.lines.check_preserved(g)
    return InvolutionPairingStrategy(g)


# ---------------------------------------------------------------------------
# mirroring across copies

class CopyMirrorStrategy(Strategy):
    """Run the base strategy in copy 0, mirror everything else across f.

    f fixes copy 0 and swaps copies 2i-1 and 2i; an adversary move (i, v)
    with i != 0 is answered by (f(i), v).
    """

    def __init__(self, base: Strategy, c: int):
        if c < 1 or c % 2 == 0:
            raise StrategyInvariantError("copy count must be odd")
        self.name = f"copy-mirror({base.name},{c})"
        self.role = Player.ONE
        self.base = base
        self.c = c
        self.n0 = base.n
        self.n = c * base.n
        f = list(range(c))
        for i in range(1, c, 2):
            f[i], f[i + 1] = i + 1, i
        self.f = tuple(f)
        self.reset()

    def reset(self):
        self.base.reset()
        self.pending: Optional[int] = None

    def clone(self):
        dup = copy.copy(self)
        dup.base = self.base.clone()
        return dup

    def key(self):
        return (self.pending, self.base.key())

    def restore(self, state):
        self.pending, base_state = state
        self.base.restore(base_state)

    def _base_masks(self, a, b):
        lo = (1 << self.n0) - 1
        return a & lo, b & lo

    def observe(self, a, b, point):
        if point < self.n0:
            a0, b0 = self._base_masks(a, b)
            self.base.observe(a0, b0, point)
        self.pending = point

    def choose(self, a, b):
        pending, self.pending = self.pending, None
        if pending is None or pending < self.n0:
            a0, b0 = self._base_masks(a, b)
            return self.base.choose(a0, b0)
        copy_i, v = divmod(pending, self.n0)
        return self.f[copy_i] * self.n0 + v


def copy_mirror_strategy(base: Strategy, c: int) -> CopyMirrorStrategy:
    return CopyMirrorStrategy(base, c)


class ProductStrategy(CopyMirrorStrategy):
    """Pair-game strategy in the zero torus layer, antipodal mirror elsewhere.

    Copy t is torus layer t; the layer map f is the torus negation.
    """

    def __init__(self, d: int):
        super().__init__(PairsStrategy(3), 3 ** d)
        self.name = f"product({d})"
        self.d = d
        neg = []
        for i in range(self.c):
            digits, v = [], i
            for _ in range(d):
                digits.append(v % 3)
                v //= 3
            w = 0
            for dig in reversed(digits):
                w = w * 3 + (-dig) % 3
            neg.append(w)
        self.f = tuple(neg)


def product_strategy(d: int) -> ProductStrategy:
    return ProductStrategy(d)


# ---------------------------------------------------------------------------
# registry: build a strategy matching a constructed game

def strategy_for(game: Game, name: str) -> Strategy:
    meta = dict(game.meta)
    construction = meta.get("construction")
    params = dict(meta.get("params", {}))
    if name == "odd-bucket":
        if construction != "odd_composite":
            raise StrategyInvariantError("odd-bucket needs an odd_composite game")
        return odd_bucket_strategy(params["p"], params["q"])
    if name == "pairs":
        if construction != "pairs":
            raise StrategyInvariantError("pairs strategy needs a pairs game")
        return pairs_strategy(params["b"])
    if name == "even-general":
        if construction != "even_general":
            raise StrategyInvariantError("even-general needs an even_general game")
        return even_general_strategy(params["a"], params["b"])
    if name == "torus-pairing":
        if construction != "torus" or params.get("q") != 3:
            raise StrategyInvariantError("torus-pairing needs a torus(3, d) game")
        return torus_pairing_strategy(params["d"])
    if name == "involution-pairing":
        from .core import find_fpf_involution
        g = find_fpf_involution(game)
        if g is None:
            raise StrategyInvariantError("no fixed-point-free involution in the group")
        return involution_pairing_strategy(g, game)
    if name == "copy-mirror":
        if construction != "copies":
            raise StrategyInvariantError("copy-mirror needs a copies(...) game")
        base_game = meta["base"]
        base = strategy_for(base_game, "pairs")
        return copy_mirror_strategy(base, params["c"])
    if name == "product":
        if construction != "product_torus":
            raise StrategyInvariantError("product strategy needs a product_torus game")
        return product_strategy(params["d"])
    if name == "lowest":
        return LowestFreeStrategy(game.n)
    raise StrategyInvariantError(f"unknown strategy {name!r}")


STRATEGY_NAMES = ("odd-bucket", "pairs", "even-general", "torus-pairing",
                  "involution-pairing", "copy-mirror", "product", "lowest")
