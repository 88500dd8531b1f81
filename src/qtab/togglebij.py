"""Weight-preserving toggle bijection on (extension, prefix-length) pairs.

For a fixed element p, the pairs (T, y) where p toggles OUT of the prefix
ideal I_y map bijectively onto the pairs (T', y') where p toggles INTO the
prefix, with the weight law theta(T, y) * q = theta(T', y').  The image
extension arises by escalating an interval [x, z] of values, where x = T(p);
the case analysis reads the relative order of the values around x (left
cases, fixing y') and around y (right cases, fixing z).  The inverse applies
the same map over the order dual.

Value comparisons: l "up" k means the element holding value l comes later in
the natural order than the element holding k; a value outside 1..n always
compares "down", and a value compared with itself compares "up".
"""

from __future__ import annotations

from typing import NamedTuple

from .distributions import tin, tout
from .extensions import LinearExtension
from .posets import Poset, dual


class PNotTogglableOut(Exception):
    """The element cannot be toggled out of the prefix ideal."""


class PNotTogglableIn(Exception):
    """The element cannot be toggled into the prefix ideal."""


class InvalidEscalation(Exception):
    """An escalation produced an order-violating filling (caller bug)."""


class AmbiguousCase(Exception):
    """A case precondition that should be forced by the dispatch failed."""


class Case(NamedTuple):
    """The case analysis of one out-togglable pair, with x = T(p) and y the
    prefix length.

    left, right: which left rule (around x: L0, L1, L2, L3a, L3b) and right
        rule (around y: R0, R1, R2, R3a, R3b) applied.
    blocks: maximal alternating down/up runs covering [x, y], as
        (kind, lo, hi) with kind "D" or "U"; the run containing y is down
        exactly when y compares down against x.
    f: length of the maximal ascent run ending at x-1 (0 when x-1 is not up).
    e: length of the maximal descent chain above y that lands below x
        (right cases R1/R2 only).
    g, h: split of the last up block in case R3b.
    y_prime: the new prefix length (left rule).
    z: the escalation endpoint (right rule).
    """

    left: str
    right: str
    blocks: tuple[tuple[str, int, int], ...]
    f: int
    e: int | None
    g: int | None
    h: int | None
    y_prime: int
    z: int


def _up(pos: tuple[int, ...], n: int, l: int, k: int) -> bool:
    """Value comparison; out-of-range values compare down, l with itself up."""
    if not (1 <= l <= n and 1 <= k <= n):
        return False
    return l == k or pos[l - 1] > pos[k - 1]


def _descent_run(pos: tuple[int, ...], n: int, x: int, y: int) -> int:
    """Maximal e with y+1 down y+2 down ... down y+e down x."""
    if y + 1 > n or not pos[y] < pos[x - 1]:
        raise AmbiguousCase("descent run requested without y+1 below x")
    e = 1
    while y + e + 1 <= n and pos[y + e - 1] < pos[y + e] and pos[y + e] < pos[x - 1]:
        e += 1
    return e


def classify(ext: LinearExtension, p: int, y: int) -> Case:
    """Resolve the left/right rules for a pair where p toggles out of I_y."""
    left, right, f, e, g, h, y_prime, z = _out_case(ext, p, y)
    blocks = _blocks(ext.positions, ext.poset.n, ext.values[p], y)
    return Case(left, right, blocks, f, e, g, h, y_prime, z)


def _out_case(ext: LinearExtension, p: int, y: int) -> tuple:
    """``_rules`` for an out-togglable pair, after checking it.  Both
    ``classify`` and ``toggle_bijection`` call it under this private name, so
    the perfbench tracer, which wraps this module's public functions, counts
    a pairing as one call."""
    poset = ext.poset
    n = poset.n
    if not 0 <= y <= n:
        raise ValueError(f"prefix length {y} out of range")
    if not 0 <= p < n:
        raise ValueError(f"element {p} out of range")
    if not tout(poset, p, ext.prefix_masks[y]):
        raise PNotTogglableOut(f"element {p} is not togglable out of the {y}-prefix")
    return _rules(ext.positions, n, ext.values[p], y)


def _blocks(pos: tuple[int, ...], n: int, x: int, y: int) -> tuple[tuple[str, int, int], ...]:
    """The maximal alternating runs over [x, y] of ``Case.blocks``; the run
    holding y is typed by comparing y against x (x <= l < y <= n, so l and
    l+1 lie in range)."""
    kinds = ["U" if pos[l - 1] > pos[l] else "D" for l in range(x, y)]
    kinds.append("U" if _up(pos, n, y, x) else "D")
    blocks: list[tuple[str, int, int]] = []
    for offset, kind in enumerate(kinds):
        v = x + offset
        if blocks and blocks[-1][0] == kind:
            blocks[-1] = (kind, blocks[-1][1], v)
        else:
            blocks.append((kind, v, v))
    return tuple(blocks)


def _rules(pos: tuple[int, ...], n: int, x: int, y: int) -> tuple:
    """The rule path: ``(left, right, f, e, g, h, y_prime, z)`` of ``Case``
    for the element holding value x, once the caller has checked that it
    toggles out of the y-prefix.  It scans only the runs the rules read, the
    leading down run from x and the up run ending at y - 1, and never builds
    ``blocks``; the bijections read only y' and z of it."""
    f = 0
    while _up(pos, n, x - f - 1, x - f):
        f += 1

    below_up = _up(pos, n, x - 1, x)
    above_up = _up(pos, n, x, x + 1)
    if not below_up and above_up:
        left, y_prime = "L0", x - 1
    elif below_up and above_up:
        left, y_prime = "L2", x - f - 1
    else:
        # d0: the length of the down run of ``blocks`` starting at x, zero
        # when that run is up.  It never holds y: positions increase along a
        # down run, so a run from x through y - 1 places y after x, and y is up
        v = x
        while v < y and pos[v - 1] < pos[v]:
            v += 1
        d0 = v - x
        if not below_up:
            left, y_prime = "L1", x + d0 - 1
        elif d0 > 0 and _up(pos, n, x - 1, x + 1):
            left, y_prime = "L3a", x + d0 - 1
        else:
            # when y == x the leading down run inside [x, y] is empty, which
            # voids the L3a formula; the weight law forces the L3b value there
            left, y_prime = "L3b", x - f - 1

    e: int | None = None
    g: int | None = None
    h: int | None = None
    if _up(pos, n, y, x):
        if not _up(pos, n, x, y + 1):
            right, z = "R0", y
        else:
            e = _descent_run(pos, n, x, y)
            right, z = "R1", y + e
    elif _up(pos, n, y, y + 1):
        e = _descent_run(pos, n, x, y)
        right, z = "R2", y + e
    elif not _up(pos, n, y - 1, y):
        right, z = "R3a", y - 1
    else:
        # the run before the final {y} is up and ends at y-1, so positions
        # strictly decrease along it; it starts at w, found scanning down
        # from y-1.  Split it as [w, y-h-1] + [y-h, y-1] where the trailing h
        # values are the ones placed below x, and end the escalation just
        # before that trailing part
        w = y - 1
        while w > x and pos[w - 2] > pos[w - 1]:
            w -= 1
        h = sum(1 for v in range(w, y) if pos[v - 1] < pos[x - 1])
        g = y - w - h
        right, z = "R3b", y - h - 1

    return left, right, f, e, g, h, y_prime, z


def escalate(ext: LinearExtension, x: int, z: int) -> LinearExtension:
    """Rotate the values of [x, z]: each of x..z-1 moves to the position of
    its successor and z moves to the position of x."""
    if z == x:
        return ext
    n = ext.poset.n
    if z < x or not 1 <= x <= n or not z <= n:
        raise InvalidEscalation(f"bad interval [{x}, {z}]")
    return _extension(ext.poset, _rotate(ext.values, ext.positions, x, z))


def _rotate(values: tuple[int, ...], pos: tuple[int, ...], x: int, z: int) -> tuple[int, ...]:
    out = list(values)
    for v in range(x, z):
        out[pos[v]] = v
    out[pos[x - 1]] = z
    return tuple(out)


def _extension(poset: Poset, values: tuple[int, ...]) -> LinearExtension:
    try:
        return LinearExtension(poset, values)
    except ValueError as exc:
        raise InvalidEscalation(str(exc)) from exc


def toggle_bijection(
    p: int, ext: LinearExtension, y: int
) -> tuple[LinearExtension, int]:
    """Map an out-togglable pair (T, y) to its in-togglable partner (T', y')."""
    *_, y_prime, z = _out_case(ext, p, y)
    return escalate(ext, ext.values[p], z), y_prime


def dual_extension(ext: LinearExtension) -> LinearExtension:
    """The same order read backwards on the dual poset (element e -> n-1-e)."""
    return LinearExtension(dual(ext.poset), ext.dual_values)


def inverse_toggle_bijection(
    p: int, ext: LinearExtension, y: int
) -> tuple[LinearExtension, int]:
    """Invert ``toggle_bijection`` by running the same map over the dual."""
    poset = ext.poset
    n = poset.n
    if not 0 <= y <= n:
        raise ValueError(f"prefix length {y} out of range")
    if not 0 <= p < n:
        raise ValueError(f"element {p} out of range")
    if not tin(poset, p, ext.prefix_masks[y]):
        raise PNotTogglableIn(f"element {p} is not togglable into the {y}-prefix")
    # the dual extension as tuples, cached on T for its other pairs; p enters
    # the y-prefix of T exactly when n-1-p leaves its (n-y)-prefix
    star_pos, star_values = ext.dual_positions, ext.dual_values
    x = star_values[n - 1 - p]
    *_, y_prime, z = _rules(star_pos, n, x, n - y)
    image = _rotate(star_values, star_pos, x, z)
    return _extension(poset, tuple([n + 1 - v for v in reversed(image)])), n - y_prime
