"""Census of ``pairset.key_params``' exits over every partial pair set of Z_m.

``key_params`` first rotates a pair set A by u*, the maximal point of A
with its free points added, so its exit depends on the rotation class
alone, and the sets with u* = 0 (one per class) stand for all of them.
Such a set is read off its frees-added set S, which holds one or both
points of every pair and is its own greatest rotation; the script walks
those S as the least necklaces of their complements (the recursive
Fredricksen-Kessler-Maiorana generator), keeping a pair's second point
absent only when its first is present.

Each set is booked to the exit that fires: ``pinned`` (x3 = m), the
exits at ``x2``, ``x1`` and ``x0`` (told apart by z1 - u* and z2 - u*,
which are (k+1)m/4 and (k+2)m/4 at x_k), or the ``fallback``. The window
guarantees (``key_params_hold``) are checked on every set that leaves at
an x_k exit. At m = 32 there are 1,345,210 sets, (3^16 - 1)/32; the
run takes about 20 s on two workers of a 2-vCPU VM.

Run from the repository root:

    python tests/key_params_census.py

It prints the count of each exit and its first masks, then its wall time
on the last line, and exits 1 when a guarantee fails or a count differs
from the pinned census.
"""

from __future__ import annotations

import sys
import multiprocessing
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from avoidance.pairset import (_free_mask, key_params, key_params_hold,  # noqa: E402
                               maximal_point)

M, WORKERS = 32, 2
EXPECTED = {"pinned": 1342165, "x2": 3006, "x1": 39, "x0": 0, "fallback": 0}
CHUNK = 4096


def anchored_pair_sets(m: int):
    """Every nonempty pair set of Z_m whose u* is 0, as a mask."""
    half, full = m // 2, (1 << m) - 1
    a = [0] * (m + 1)  # a[t] = 1: point t - 1 is absent from S

    def gen(t: int, p: int):
        if t > m:
            if p == m:  # aperiodic: S is not the whole ring
                s = sum(1 << x for x in range(m) if not a[x + 1])
                yield s & ~(s >> half | s << half) & full
            return
        for v in range(a[t - p], 2):
            if v and t > half and a[t - half]:
                continue  # both points of a pair absent
            a[t] = v
            yield from gen(t + 1, p if v == a[t - p] else t)

    yield from gen(1, 1)


def classify(args: tuple) -> tuple:
    """(exit, mask, guarantees hold) for each mask of a chunk."""
    m, masks = args
    mp = m // 4
    exits = {(3 * mp, 0): "x2", (2 * mp, 3 * mp): "x1", (mp, 2 * mp): "x0"}
    out = []
    for mask in masks:
        if maximal_point(m, mask | _free_mask(m, mask)) != 0:
            raise ValueError(f"{mask:#x} has u* != 0")
        kp = key_params(m, mask)
        name = exits.get((kp.z1, kp.z2))
        if name is None:
            # pinned when the fill of [3m/4, m/4) has its maximum at 0
            fill = mask | _free_mask(m, mask) & ~(((1 << 2 * mp) - 1) << mp)
            name = "pinned" if maximal_point(m, fill) == 0 else "fallback"
        out.append((name, mask, name == "pinned" or key_params_hold(m, mask, kp)))
    return out


def chunks(m: int):
    batch = []
    for mask in anchored_pair_sets(m):
        batch.append(mask)
        if len(batch) == CHUNK:
            yield m, batch
            batch = []
    if batch:
        yield m, batch


def main() -> int:
    start = time.perf_counter()
    counts = dict.fromkeys(EXPECTED, 0)
    examples: dict = {}
    broken = []
    with multiprocessing.get_context("spawn").Pool(WORKERS) as pool:
        for result in pool.imap(classify, chunks(M)):
            for name, mask, holds in result:
                counts[name] += 1
                if len(examples.setdefault(name, [])) < 4:
                    examples[name].append(mask)
                if not holds:
                    broken.append(mask)
    total = sum(counts.values())
    print(f"m = {M}: {total} pair sets with u* = 0")
    for name, count in counts.items():
        shown = " ".join(hex(x) for x in examples.get(name, []))
        print(f"  {name:8} {count:8}  {shown}")
    if broken:
        print(f"key_params_hold fails on {len(broken)}: "
              + " ".join(hex(x) for x in broken[:10]))
    if counts != EXPECTED:
        print(f"counts differ from the census: {EXPECTED}")
    print(f"wall time {time.perf_counter() - start:.1f} s")
    return 1 if broken or counts != EXPECTED else 0


if __name__ == "__main__":
    sys.exit(main())
