"""Seeded random naturally labeled posets and their counting oracle.

Pure Python with no qtab import: the runner draws the inputs here, in its own
process, so neither the drawing nor the oracle warms any cache of the process
that is timed.  The oracle is a DP over the order ideals, with its own code,
on polynomials packed into one integer; it gives the full generating
functions, not only their values at q = 1.
"""

from __future__ import annotations

import random

EXTENSION_BUDGET = 60_000  # total linear extensions over all drawn posets
EXTENSION_CAP = 3_000  # one poset may overshoot the budget by at most this
FILLING_BOUND = 2  # m of rpp_size_gf(P, m) on the drawn posets
SIZES = (8, 12)  # element counts are drawn uniformly from this range
EDGE_PROBABILITY = (0.2, 0.5)  # relation density is drawn from this range
SLOT = 64  # bits per coefficient of a packed polynomial; counts stay far below 2^64


def random_covers(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    """Cover relations of a random order on 0..n-1 with i < j along every relation."""
    above = [0] * n  # mask of the elements strictly above each element
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if rng.random() < density:
                above[i] |= (1 << j) | above[j]
    covers = []
    for i in range(n):
        implied = 0
        for j in range(n):
            if above[i] >> j & 1:
                implied |= above[j]
        for j in range(n):
            if above[i] >> j & 1 and not implied >> j & 1:
                covers.append((i, j))
    return covers


def ideals(n: int, covers: list[tuple[int, int]]) -> list[int]:
    """All order ideals as bit masks, in ascending mask order."""
    low = [0] * n
    for lo, hi in covers:
        low[hi] |= 1 << lo
    found = {0}
    frontier = [0]
    while frontier:
        ideal = frontier.pop()
        for p in range(n):
            bigger = ideal | 1 << p
            if bigger != ideal and ideal & low[p] == low[p] and bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found)


def count_extensions(n: int, covers: list[tuple[int, int]], masks: list[int]) -> int:
    """Linear extensions: paths from the empty ideal to the full one in J(P)."""
    up = [0] * n
    for lo, hi in covers:
        up[lo] |= 1 << hi
    paths = {0: 1}
    for ideal in masks[1:]:  # ascending masks put every I - p before I
        paths[ideal] = sum(
            paths[ideal ^ 1 << p]
            for p in range(n)
            if ideal >> p & 1 and not up[p] & ideal
        )
    return paths[masks[-1]]


def _unpack(packed: int) -> list[int]:
    """Coefficients of a polynomial packed SLOT bits per coefficient."""
    coeffs = []
    while packed:
        coeffs.append(packed & (1 << SLOT) - 1)
        packed >>= SLOT
    return coeffs


def comaj_gf(n: int, covers: list[tuple[int, int]], masks: list[int]) -> list[int]:
    """Coefficients of the sum of q^comaj over all linear extensions.

    A linear extension is a path from the empty ideal to the full one in
    J(P).  The DP runs over (ideal, last element added): adding p after a
    larger element makes a descent at k = |ideal|, which weighs q^(n - k).
    """
    low = [0] * n
    for lo, hi in covers:
        low[hi] |= 1 << lo
    paths: dict[int, dict[int, int]] = {ideal: {} for ideal in masks}
    for p in range(n):
        if not low[p]:
            paths[1 << p][p] = 1
    for ideal in masks:  # ascending masks put every I before I + p
        k = ideal.bit_count()
        for last, packed in paths[ideal].items():
            for p in range(n):
                if not ideal >> p & 1 and ideal & low[p] == low[p]:
                    step = packed << SLOT * (n - k) if last > p else packed
                    ends = paths[ideal | 1 << p]
                    ends[p] = ends.get(p, 0) + step
    return _unpack(sum(paths[masks[-1]].values()))


def filling_gf(n: int, masks: list[int], m: int) -> list[int]:
    """Coefficients of the size series of fillings with entries in 0..m.

    A filling is a multichain I_0 <= ... <= I_(m-1) of order ideals, with
    I_k the elements of entry at most k, and its size is the sum of
    n - |I_k|.
    """
    chains = {ideal: 1 << SLOT * (n - ideal.bit_count()) for ideal in masks}
    for _ in range(m - 1):
        chains = {
            top: sum(chains[ideal] for ideal in masks if ideal & ~top == 0)
            << SLOT * (n - top.bit_count())
            for top in masks
        }
    return _unpack(sum(chains.values()))


def draw_posets(seed: int) -> list[dict]:
    """Random posets until their extensions reach the budget, with their oracle GFs."""
    rng = random.Random(seed)
    drawn: list[dict] = []
    total = 0
    while total < EXTENSION_BUDGET:
        n = rng.randint(*SIZES)
        covers = random_covers(rng, n, rng.uniform(*EDGE_PROBABILITY))
        masks = ideals(n, covers)
        extensions = count_extensions(n, covers, masks)
        if extensions > EXTENSION_CAP:
            continue
        drawn.append(
            {
                "n": n,
                "covers": covers,
                "comaj": comaj_gf(n, covers, masks),
                "fillings": filling_gf(n, masks, FILLING_BOUND),
            }
        )
        total += extensions
    return drawn
