"""Game model for avoidance positional games.

The board is the integer range 0..n-1. Positions, line stores, the
search and the strategy code hold point sets as masks, bit i for point i;
documents and reports list them as points. A game designates
certain point sets as *lines*; two players alternate claiming unclaimed
points and the first player whose claimed set contains a line loses
immediately. A full board with no contained line is a draw.

Line families are held either explicitly (a tuple of line masks) or implicitly
(an analytic membership predicate, used where the family is too large to
enumerate). Automorphisms are permutations of the board that map lines to
lines; a game is transitive when the group generated by its shipped
generators has a single point orbit.

Positions, games and permutations are immutable values; every operation
here is a pure function, so concurrent use needs no coordination.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Optional


class GameError(Exception):
    """Base class for errors raised by this package."""


class IllegalMoveError(GameError):
    """A move on a claimed point, or a point off the board."""


class LinePreservationError(GameError):
    """A supplied generator maps some line to a non-line."""

    def __init__(self, message: str, perm: "Permutation", witness: frozenset):
        super().__init__(message)
        self.perm = perm
        self.witness = witness


class SearchCapExceeded(GameError):
    """A bounded search hit its cap; the result is inconclusive, not negative."""


class StrategyInvariantError(GameError):
    """A scripted strategy reached a state its contract rules out (a bug)."""


class Player(Enum):
    ONE = 1
    TWO = 2


class Winner(Enum):
    PI_WIN = "PIWin"
    PII_WIN = "PIIWin"
    DRAW = "Draw"


class Record:
    """A record whose fields are its ``__slots__``, with the field-wise
    ``repr`` and equality a dataclass generates but no code generated at
    import. Each subclass writes its own ``__init__``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._fields() == other._fields() if same else NotImplemented

    def __reduce__(self):
        return type(self), self._fields()


class FrozenRecord(Record):
    """A read-only, hashable ``Record``; its ``__init__`` sets fields by ``_set``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


_set = object.__setattr__


class Outcome(FrozenRecord):
    """Result of a completed or solved game.

    ``loss_time`` is the 1-based index of the move on which the loser first
    contained a line; it is present exactly when the game is not a draw and
    its parity identifies the loser (odd = Player I, even = Player II).
    """

    __slots__ = ("winner", "loss_time")

    def __init__(self, winner: Winner, loss_time: Optional[int] = None):
        _set(self, "winner", winner)
        _set(self, "loss_time", loss_time)
        if winner is Winner.DRAW:
            if loss_time is not None:
                raise ValueError("a drawn game has no loss_time")
            return
        if loss_time is None:
            raise ValueError("a decided game needs a loss_time")
        loser_is_one = winner is Winner.PII_WIN
        if loser_is_one != (loss_time % 2 == 1):
            raise ValueError(
                f"loss_time {loss_time} has the wrong parity for {winner.value}"
            )


def is_fpf_partial_involution(t) -> bool:
    """Whether the table ``t`` pairs points with no point paired to itself:
    each entry is a hole (negative) or a partner ``y`` of ``q`` on the
    ``len(t)`` points with ``y != q`` and ``t[y] == q``."""
    n = len(t)
    return all(y < 0 or (y < n and y != q and t[y] == q) for q, y in enumerate(t))


class Permutation(FrozenRecord):
    """A bijection on 0..n-1, stored as its image tuple."""

    __slots__ = ("image",)

    def __init__(self, image: tuple[int, ...]):
        _set(self, "image", image)
        if sorted(image) != list(range(len(image))):
            raise ValueError("image is not a bijection on [0, n)")

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, x: int) -> int:
        return self.image[x]

    def mask_map(self) -> Callable[[int], int]:
        """The image of a point mask under this permutation, as a function
        that looks up 8-bit chunks of the mask in precomputed tables."""
        # tables[j][v] is the image of the points 8j + i for the bits i of v
        tables = []
        for lo in range(0, len(self.image), 8):
            table = [0]
            for y in self.image[lo:lo + 8]:
                table += [v | 1 << y for v in table]
            tables.append(table)

        def image(mask: int) -> int:
            out = 0
            for table in tables:
                out |= table[mask & 255]
                mask >>= 8
            return out

        return image

    @staticmethod
    def cycle(n: int, shift: int = 1) -> "Permutation":
        return Permutation(tuple((i + shift) % n for i in range(n)))


def mask_of(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_of(mask: int) -> frozenset:
    return frozenset(iter_bits(mask))


class ExplicitLines:
    """Lines held as a tuple of point masks, in the order given.

    Construction checks the family and builds only the mask set. In a
    family of uniform line size k, ``loses_after`` answers popcount k by
    one lookup in that set; any other popcount, and every popcount of a
    mixed-size family, scans the lines through the point, which are built
    when first needed. ``check_preserved`` looks up each line's image
    under the permutation's ``mask_map``.
    """

    def __init__(self, n: int, masks: Iterable[int]):
        self.n = n
        self.masks = masks = tuple(masks)
        self._mask_set = lines = frozenset(masks)
        if lines and (min(lines) <= 0 or max(lines) >> n):
            raise ValueError("empty line" if 0 in lines else "line point off the board")
        if len(lines) < len(masks):
            seen: set = set()  # name the first mask that repeats an earlier one
            dup = next(lm for lm in masks if lm in seen or seen.add(lm))
            raise ValueError(f"duplicate line {list(iter_bits(dup))}")
        sizes = set(map(int.bit_count, lines))
        self.min_line_size = min(sizes, default=n + 1)
        self._k = sizes.pop() if len(sizes) == 1 else 0
        # built on first use; a plain attribute, since the instance
        # ``__dict__`` a cached_property needs slows ``loses_after`` (CPython 3.11)
        self._by_point: Optional[list] = None

    def contains_mask(self, mask: int) -> bool:
        for lm in self.masks:  # a plain loop: cheaper than any() over a generator
            if mask & lm == lm:
                return True
        return False

    def loses_after(self, mask: int, point: int) -> bool:
        if mask.bit_count() == self._k:
            return mask in self._mask_set
        if self._by_point is None:
            # the lines through each point, in ``masks`` order, in one pass over
            # each line's points (filtering every line per point is quadratic)
            per_point: list[list[int]] = [[] for _ in range(self.n)]
            for lm in self.masks:
                for x in iter_bits(lm):
                    per_point[x].append(lm)
            self._by_point = [tuple(v) for v in per_point]
        for lm in self._by_point[point]:
            if mask & lm == lm:
                return True
        return False

    def check_preserved(self, perm: Permutation) -> None:
        image, lines = perm.mask_map(), self._mask_set
        for m in self.masks:
            if image(m) not in lines:
                raise LinePreservationError(
                    f"generator maps line {list(iter_bits(m))} to non-line "
                    f"{list(iter_bits(image(m)))}", perm, set_of(m))


# allowed sets one ``ImplicitLines.check_preserved`` call maps through a
# generator before it refuses, about 1.5 s at 1.5 us a set in CPython;
# even_general(2,7), the largest board checked in full, has 352256
PRESERVE_CHECK_BUDGET = 1 << 20


class ImplicitLines:
    """Line family given by predicates instead of an enumeration.

    ``contains_fn`` is the store's ``contains_mask``, which ``loses_after``
    calls too: it must answer containment for arbitrary
    point masks, and is cross-checked against k-subset enumeration at desk
    sizes by the test suite before being trusted. Every line has
    ``min_line_size`` = k points; there is no line test by set, as a set
    is a line exactly when it has k points and ``contains_mask`` holds for
    it. Generators are validated by ``check`` when given (a derived family
    delegates to its base's check), else through ``w_iter``/``w_member``,
    the complementary family of allowed sets as point masks, each mapped by
    the generator's ``mask_map``; past ``PRESERVE_CHECK_BUDGET`` sets that
    check raises SearchCapExceeded.
    """

    def __init__(self, n: int, k: int,
                 contains_fn: Callable[[int], bool],
                 w_iter: Optional[Callable[[], Iterable[int]]] = None,
                 w_member: Optional[Callable[[int], bool]] = None,
                 check: Optional[Callable[[Permutation], None]] = None):
        self.n = n
        self.min_line_size = k
        self.contains_mask = contains_fn
        self._w_iter = w_iter
        self._w_member = w_member
        self._check = check

    def loses_after(self, mask: int, point: int) -> bool:
        """Did adding ``point`` (already set in ``mask``) complete a line?"""
        return self.contains_mask(mask)

    def check_preserved(self, perm: Permutation) -> None:
        if self._check is not None:
            self._check(perm)
            return
        if self._w_iter is None or self._w_member is None:
            raise GameError("implicit store lacks an allowed-set enumeration")
        # The line family is determined by the allowed family inside the
        # size-k level, and perm permutes that level; preserving one is
        # preserving the other.
        image, member = perm.mask_map(), self._w_member
        sets = iter(self._w_iter())
        for w in islice(sets, PRESERVE_CHECK_BUDGET):
            if not member(image(w)):
                raise LinePreservationError(
                    f"generator maps allowed set {list(iter_bits(w))} out of the family",
                    perm, set_of(w))
        for _ in sets:
            raise SearchCapExceeded(
                f"the line check would map more than {PRESERVE_CHECK_BUDGET} allowed "
                f"sets; result inconclusive")


@dataclass(frozen=True)
class Game:
    """A board, its lines and shipped automorphism generators.

    ``canonical``, when set, maps a position ``(mine, theirs)`` of point
    masks to a hashable key that two positions share only if an
    automorphism of the game carries one onto the other; the solvers key
    their tables by it. It is not serialized: the factories that define
    one set it again when a document is loaded.
    """

    n: int
    lines: ExplicitLines | ImplicitLines
    generators: tuple[Permutation, ...]
    name: str
    meta: Mapping[str, object] = field(default_factory=dict)
    canonical: Optional[Callable[[int, int], Hashable]] = field(
        default=None, compare=False, repr=False)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1


class Position(FrozenRecord):
    """Claimed point masks of Player I (``a``) and Player II (``b``).

    Player I moves first, so the side to move follows from the counts.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        _set(self, "a", a)
        _set(self, "b", b)
        if a & b:
            raise ValueError("player point sets overlap")
        diff = a.bit_count() - b.bit_count()
        if diff not in (0, 1):
            raise ValueError(f"|a|-|b|={diff}: Player I moves first and players alternate")

    @property
    def to_move(self) -> Player:
        return Player.ONE if self.a.bit_count() == self.b.bit_count() else Player.TWO

    @staticmethod
    def initial() -> "Position":
        return Position(0, 0)


def apply_move(game: Game, pos: Position, x: int) -> tuple[Position, bool]:
    """Claim ``x`` for the side to move.

    Returns the new position and whether the mover's new set contains a
    line (the mover has just lost). Losing moves are legal; only claimed or
    out-of-range points are rejected.
    """
    if not 0 <= x < game.n:
        raise IllegalMoveError(f"point {x} off the board [0, {game.n})")
    bit = 1 << x
    if (pos.a | pos.b) & bit:
        raise IllegalMoveError(f"point {x} already claimed")
    if pos.to_move is Player.ONE:
        new = Position(pos.a | bit, pos.b)
        lost = game.lines.contains_mask(new.a)
    else:
        new = Position(pos.a, pos.b | bit)
        lost = game.lines.contains_mask(new.b)
    return new, lost


def orbit(generators: Iterable[Permutation], x: int) -> frozenset:
    """Closure of {x} under the generators (a permutation's inverse is one
    of its powers, so the inverses add nothing)."""
    gens = list(generators)
    if gens:
        sizes = {g.n for g in gens}
        if len(sizes) != 1:
            raise ValueError("generators act on different board sizes")
    maps = [g.image for g in gens]
    seen = {x}
    queue = deque([x])
    while queue:
        y = queue.popleft()
        for img in maps:
            z = img[y]
            if z not in seen:
                seen.add(z)
                queue.append(z)
    return frozenset(seen)


def check_line_preservation(game: Game) -> None:
    """Validate every shipped generator; raises LinePreservationError."""
    for g in game.generators:
        if g.n != game.n:
            raise LinePreservationError(
                f"generator size {g.n} != board size {game.n}", g, frozenset())
        game.lines.check_preserved(g)


def is_transitive(game: Game) -> bool:
    """Single point orbit under the (validated) shipped generators."""
    check_line_preservation(game)
    return len(orbit(game.generators, 0)) == game.n


# points one ``find_fpf_involution`` walk holds, group elements times board
# size: 32 MiB of tuple slots; odd_composite(7,7) refuses at 67 MiB peak
GROUP_WALK_BUDGET = 1 << 22


def find_fpf_involution(game: Game) -> Optional[Permutation]:
    """Search the generated group for a fixed-point-free involution.

    Breadth-first enumeration from the identity, multiplying by the shipped
    generators; holds at most ``GROUP_WALK_BUDGET`` points (elements visited
    times board size). Returns the first such element found, None if the
    whole group was enumerated without one, and raises SearchCapExceeded
    when the budget was hit (inconclusive, as opposed to a definite no).
    """
    n = game.n
    ident = tuple(range(n))
    seen = {ident}
    queue = deque([ident])
    gen_images = [g.image for g in game.generators]
    while queue:
        cur = queue.popleft()
        for img in gen_images:
            nxt = tuple(img[c] for c in cur)
            if nxt in seen:
                continue
            if len(seen) * n >= GROUP_WALK_BUDGET:
                raise SearchCapExceeded(
                    f"group enumeration exceeded {GROUP_WALK_BUDGET} points; "
                    f"result inconclusive")
            seen.add(nxt)
            if is_fpf_partial_involution(nxt):
                return Permutation(nxt)
            queue.append(nxt)
    return None
