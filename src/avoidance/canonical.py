"""Canonical forms: keys of a position's orbit under a family's group.

A key is a function of the two point masks ``(mine, theirs)`` that two
positions share only when an automorphism of the game maps one onto the
other; the solver keys its table by it. ``constructions`` attaches these
to the families that have one.

The ``pairs`` and ``affine`` keys are the least packed ``mine | theirs << k``
over a group. ``theirs`` fills the high half, so that is the least image of
``theirs``, then the least image of ``mine`` over the group elements that
give it. Those elements (usually one) and that image depend on ``theirs``
alone, which takes few values in a search, so each key finds them once per
value, on first use, and keeps them in a dict of its own as one int:
``ties << 2k | least << k``, ``ties`` a bitmask of the tied elements.
"""

from __future__ import annotations

from .core import Permutation, mask_of


def odd_composite_canonical(buckets: list):
    """Key of a position's orbit under every bucket-preserving permutation
    of ``odd_composite(p, q)`` (S_p wr S_q), which are automorphisms since
    its lines depend only on per-bucket counts: the sorted profile of
    (mine, theirs) counts per bucket, ``buckets`` the q bucket masks."""

    def canonical(mine: int, theirs: int) -> tuple:
        return tuple(sorted([((mine & bk).bit_count(), (theirs & bk).bit_count())
                             for bk in buckets]))

    return canonical


def pairs_canonical(b: int):
    """Key of a position's orbit under the shipped group of ``pairs_game(b)``.

    The group is the pair rotations times the flips of an even number of
    pairs. Flipping each pair that holds one claimed point on its high
    side, or mine on the high point and theirs on the low one, brings every
    pair to one orientation. The parity of those flips is kept, unless an
    empty pair or one held whole by a player (a pair the flip fixes) can
    absorb an odd flip. The key is the least of the b rotations of
    ``mine | theirs << n``, with the parity as bit 2n.

    The ``least`` entry of a flipped ``theirs`` has bit 2s of ``ties`` set
    for each tied shift of s pairs, and bit 0 set when ``theirs`` holds a
    whole pair.
    """
    n = 2 * b
    lo = mask_of(range(0, n, 2))
    full = (1 << n) - 1
    high = full << n
    shifts = range(n, 0, -2)   # twice >> (n - 2s) is theirs rotated by s pairs
    least: dict = {}

    def tied(theirs: int) -> int:
        twice = theirs | theirs << n
        rots = [(twice >> k) & full for k in shifts]
        best = min(rots)
        return _tie_bits(rots, best, 2) << 2 * n | best << n \
            | (theirs & (theirs >> 1) & lo != 0)

    def canonical(mine: int, theirs: int) -> int:
        claimed = mine | theirs
        c_lo, c_hi = claimed & lo, (claimed >> 1) & lo
        flip = (c_hi & ~c_lo) | ((mine >> 1) & theirs & lo)
        d = (mine ^ mine >> 1) & flip      # swap the two points of each flipped pair
        mine ^= d | d << 1
        d = (theirs ^ theirs >> 1) & flip
        theirs ^= d | d << 1
        entry = least.get(theirs)
        if entry is None:
            entry = least[theirs] = tied(theirs)
        ties = entry >> 2 * n
        # mine * t rotates mine left by the shift whose bit t is
        if ties & (ties - 1):
            best = full
            while ties:
                t = ties & -ties
                ties ^= t
                v = mine * t
                v = (v | v >> n) & full
                if v < best:
                    best = v
        else:
            v = mine * ties
            best = (v | v >> n) & full
        best |= entry & high
        if entry & 1 or lo & ~(c_lo | c_hi) or mine & (mine >> 1) & lo:
            return best
        return best | (flip.bit_count() & 1) << 2 * n

    return canonical


def affine_canonical(p: int):
    """Key of a position's orbit under x -> ax + c of Z_p, the group that
    ``affine_game(p)``'s generators make: the least ``mine | theirs << p``
    over the p - 1 scalings, each followed by the p rotations.

    The ``least`` entry of ``theirs`` has bit ip + c of ``ties`` set when
    scaling i, then rotation c, ties (a coset of the stabiliser of
    ``theirs``). The scaling maps are built on the first call.
    """
    full = (1 << p) - 1
    high = full << p
    spread = (1 << p) + 1      # t * spread >> (p - c) & full is t rotated by c
    shifts = range(p, 0, -1)
    scalings: list = []
    least: dict = {}

    def tied(theirs: int) -> int:
        if not scalings:
            scalings.extend(Permutation(tuple(a * x % p for x in range(p))).mask_map()
                            for a in range(1, p))
        rots = [(twice >> k) & full for twice in [scale(theirs) * spread for scale in scalings]
                for k in shifts]
        best = min(rots)
        return _tie_bits(rots, best, 1) << 2 * p | best << p

    def canonical(mine: int, theirs: int) -> int:
        entry = least.get(theirs)
        if entry is None:
            entry = least[theirs] = tied(theirs)
        ties = entry >> 2 * p
        # m * t rotates m left by the shift whose bit t is
        if ties & (ties - 1):
            best = full
            for scale in scalings:
                if not ties:
                    break
                rots = ties & full
                ties >>= p
                if rots:
                    m = scale(mine)
                    while rots:
                        t = rots & -rots
                        rots ^= t
                        v = m * t
                        v = (v | v >> p) & full
                        if v < best:
                            best = v
        else:
            i, c = divmod(ties.bit_length() - 1, p)
            v = scalings[i](mine) << c
            best = (v | v >> p) & full
        return entry & high | best

    return canonical


def _tie_bits(values: list, least, step: int) -> int:
    """A mask with bit ``step * i`` set for each ``values[i] == least``."""
    bits, i = 0, -1
    for _ in range(values.count(least)):
        i = values.index(least, i + 1)
        bits |= 1 << step * i
    return bits
