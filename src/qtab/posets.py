"""Finite posets with a fixed natural labeling, and their order ideals.

Elements are integers ``0..n-1`` listed in the order of a natural labeling:
the label of element ``e`` is ``e + 1``, and every cover ``(lo, hi)`` has
``lo < hi``.  Subsets of elements -- in particular order ideals -- are n-bit
masks with bit ``e`` for element ``e``.

Builders create the posets of Young-diagram shapes (box (row, col) covered by
its right and lower neighbors, row-major element order), shifted shapes, and
the standard minuscule families.  ``coords`` holds the 1-based (row, col) of
each element, no two alike, for shape-like posets and is ``None`` otherwise;
``box_coords`` reads it and raises ``UnsupportedPoset`` when it is ``None``.

JSON exchange format::

    {"n": 4, "covers": [[0, 1], [0, 2], [1, 3], [2, 3]],
     "labeling": [1, 2, 3, 4], "origin": "rect:2x2",
     "coords": [[1, 1], [1, 2], [2, 1], [2, 2]]}

``labeling`` may be any natural labeling on input; elements are renumbered so
the stored labeling is always the identity.

Each poset builds its lattice J(P) once, on first use: ``order_ideals`` (built
element by element) and its cover edges ``Poset.ideal_edges``, which the J(P)
engine, the doubled-cell sum and the toggle system all read.  Its order dual
is likewise built once, on the first call of ``dual``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


class NotGraded(Exception):
    """The poset has maximal chains of different lengths."""


class PosetSpecError(ValueError):
    """A poset specification string or JSON document is malformed."""


class UnsupportedPoset(Exception):
    """The poset lacks the box structure a computation needs."""


class Poset:
    """Immutable poset on ``0..n-1`` given by its cover relations."""

    def __init__(
        self,
        n: int,
        covers: Iterable[tuple[int, int]],
        coords: Sequence[tuple[int, int]] | None = None,
        origin: str | None = None,
    ) -> None:
        if n < 0:
            raise ValueError(f"element count must be nonnegative, got {n}")
        self.n = n
        self.covers = tuple(sorted(set((lo, hi) for lo, hi in covers)))
        self.coords = tuple(coords) if coords is not None else None
        self.origin = origin
        for lo, hi in self.covers:
            if not (0 <= lo < hi < n):
                raise ValueError(f"cover ({lo}, {hi}) violates the natural labeling")
        if self.coords is not None:
            if len(self.coords) != n:
                raise ValueError("coords must give one (row, col) per element")
            for rc in self.coords:
                if len(rc) != 2 or any(not isinstance(x, int) or x < 1 for x in rc):
                    raise ValueError(f"coords entry {rc!r} is not a 1-based (row, col)")
            if len(set(self.coords)) != n:
                raise ValueError("two elements share a box")
        self._check_covers_irredundant()

    def _check_covers_irredundant(self) -> None:
        above = self.above_masks
        for lo, hi in self.covers:
            for mid in self.upper_covers[lo]:
                if mid != hi and above[mid] >> hi & 1:
                    raise ValueError(f"({lo}, {hi}) is implied by other covers")

    @cached_property
    def lower_covers(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for lo, hi in self.covers:
            out[hi].append(lo)
        return tuple(tuple(x) for x in out)

    @cached_property
    def upper_covers(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for lo, hi in self.covers:
            out[lo].append(hi)
        return tuple(tuple(x) for x in out)

    @cached_property
    def low_masks(self) -> tuple[int, ...]:
        """Mask of the lower covers of each element."""
        out = [0] * self.n
        for lo, hi in self.covers:
            out[hi] |= 1 << lo
        return tuple(out)

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        """Mask of the upper covers of each element."""
        out = [0] * self.n
        for lo, hi in self.covers:
            out[lo] |= 1 << hi
        return tuple(out)

    @cached_property
    def above_masks(self) -> tuple[int, ...]:
        """Mask of all elements strictly above each element."""
        out = [0] * self.n
        for lo, hi in sorted(self.covers, reverse=True):
            out[lo] |= (1 << hi) | out[hi]
        return tuple(out)

    @cached_property
    def below_masks(self) -> tuple[int, ...]:
        """Mask of all elements strictly below each element."""
        out = [0] * self.n
        for lo, hi in self.covers:
            out[hi] |= (1 << lo) | out[lo]
        return tuple(out)

    @cached_property
    def _ideals(self) -> tuple[int, ...]:
        # The lower covers of k lie in 0..k-1, so the ideals on 0..k are those
        # on 0..k-1 plus k added to each of them that holds its lower covers;
        # the added masks are the larger ones, so the list stays ascending.
        ideals = [0]
        for k, low in enumerate(self.low_masks):
            ideals += [mask | 1 << k for mask in ideals if mask & low == low]
        return tuple(ideals)

    @cached_property
    def ideal_edges(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per element e, the cover edges ``I -> I + e`` of J(P) as
        ``(lower, upper)`` index pairs into ``order_ideals``, lower ascending."""
        ideals = self._ideals
        index = {m: j for j, m in enumerate(ideals)}
        out = []
        for e, low in enumerate(self.low_masks):
            bit, test = 1 << e, low | 1 << e  # e absent, its lower covers present
            pairs = [(j, index[m | bit]) for j, m in enumerate(ideals) if m & test == low]
            out.append(tuple(pairs))
        return tuple(out)

    @cached_property
    def _dual(self) -> Poset:
        n = self.n
        coords = self.coords[::-1] if self.coords is not None else None
        return Poset(n, ((n - 1 - hi, n - 1 - lo) for lo, hi in self.covers), coords=coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return (self.n, self.covers, self.coords) == (other.n, other.covers, other.coords)

    def __hash__(self) -> int:
        return hash((self.n, self.covers, self.coords))

    def __repr__(self) -> str:
        label = self.origin or f"{self.n} elements, {len(self.covers)} covers"
        return f"Poset({label})"


@dataclass(frozen=True)
class RankData:
    """Ranks of all elements plus the common rank of the maximal elements."""

    ranks: tuple[int, ...]
    rank: int


def order_ideals(poset: Poset) -> tuple[int, ...]:
    """All order ideals as masks, in ascending mask order."""
    return poset._ideals


def box_coords(poset: Poset) -> tuple[tuple[int, int], ...]:
    """The (row, col) of each element; raises UnsupportedPoset without them."""
    if poset.coords is None:
        raise UnsupportedPoset("poset has no box coordinates")
    return poset.coords


def ideal_members(ideal: int) -> tuple[int, ...]:
    """Elements of an ideal mask, ascending."""
    out = []
    e = 0
    while ideal:
        if ideal & 1:
            out.append(e)
        ideal >>= 1
        e += 1
    return tuple(out)


def dual(poset: Poset) -> Poset:
    """The order-dual poset, with element e renamed to n-1-e; it keeps e's box.
    Built once per poset."""
    return poset._dual


def rank_data(poset: Poset) -> RankData:
    """Element ranks for a graded poset; raises NotGraded otherwise."""
    ranks = [0] * poset.n
    for p in range(poset.n):
        lows = poset.lower_covers[p]
        if lows:
            wanted = {ranks[lo] + 1 for lo in lows}
            if len(wanted) > 1:
                raise NotGraded(f"element {p} has lower covers of unequal rank")
            ranks[p] = wanted.pop()
    top = {ranks[p] for p in range(poset.n) if not poset.upper_covers[p]}
    if len(top) > 1:
        raise NotGraded("maximal elements have unequal rank")
    return RankData(tuple(ranks), top.pop() if top else 0)


def relabel(poset: Poset, new_order: Sequence[int]) -> Poset:
    """Renumber elements so ``new_order[k]`` becomes element ``k``.

    ``new_order`` must itself be a linear extension of the poset, so the
    result carries another natural labeling of the same abstract poset.
    """
    if sorted(new_order) != list(range(poset.n)):
        raise ValueError("new_order must be a permutation of the elements")
    position = [0] * poset.n
    for k, e in enumerate(new_order):
        position[e] = k
    covers = [(position[lo], position[hi]) for lo, hi in poset.covers]
    if any(lo >= hi for lo, hi in covers):
        raise ValueError("new_order is not a linear extension")
    coords = None
    if poset.coords is not None:
        coords = tuple(poset.coords[e] for e in new_order)
    return Poset(poset.n, covers, coords=coords)


# ---------------------------------------------------------------------------
# isomorphism and self-duality


def _signatures(poset: Poset) -> list[tuple[int, int, int, int]]:
    """Per element: its lower-cover and upper-cover counts, and the sizes of
    its down-set and up-set; an isomorphism keeps all four."""
    return [
        (len(lows), len(ups), below.bit_count(), above.bit_count())
        for lows, ups, below, above in zip(
            poset.lower_covers, poset.upper_covers, poset.below_masks, poset.above_masks
        )
    ]


def find_isomorphism(a: Poset, b: Poset) -> tuple[int, ...] | None:
    """An element map a -> b preserving covers both ways, or None."""
    if a.n != b.n or len(a.covers) != len(b.covers):
        return None
    sig_a, sig_b = _signatures(a), _signatures(b)
    if sorted(sig_a) != sorted(sig_b):
        return None
    candidates = [
        tuple(q for q in range(b.n) if sig_b[q] == sig_a[p]) for p in range(a.n)
    ]
    cover_set = set(b.covers)
    image: list[int | None] = [None] * a.n
    used = [False] * b.n

    def place(p: int) -> bool:
        if p == a.n:
            return True
        for q in candidates[p]:
            if used[q]:
                continue
            ok = True
            for lo in a.lower_covers[p]:
                lo_img = image[lo]
                if lo_img is not None and (lo_img, q) not in cover_set:
                    ok = False
                    break
            if ok:
                # every already-placed cover partner of p must stay a cover
                for hi in a.upper_covers[p]:
                    hi_img = image[hi]
                    if hi_img is not None and (q, hi_img) not in cover_set:
                        ok = False
                        break
            if ok:
                image[p] = q
                used[q] = True
                if place(p + 1):
                    return True
                image[p] = None
                used[q] = False
        return False

    if not place(0):
        return None
    result = tuple(x for x in image if x is not None)
    # cover counts agree, so preserving all covers of `a` forces a bijection
    return result


def is_self_dual(poset: Poset) -> bool:
    """Whether the poset is isomorphic to its order-dual."""
    return find_isomorphism(poset, dual(poset)) is not None


# ---------------------------------------------------------------------------
# builders


def _check_partition(parts: Sequence[int], strict: bool) -> tuple[int, ...]:
    lam = tuple(parts)
    if not lam or any(x < 1 for x in lam):
        raise ValueError(f"partition parts must be positive: {lam}")
    for a, b in zip(lam, lam[1:]):
        if strict and a <= b:
            raise ValueError(f"strict partition required: {lam}")
        if not strict and a < b:
            raise ValueError(f"weakly decreasing partition required: {lam}")
    return lam


def _diagram(boxes: list[tuple[int, int]], origin: str) -> Poset:
    """Poset of a diagram's boxes, each covered by its right and lower neighbors."""
    index = {box: e for e, box in enumerate(boxes)}
    covers = []
    for (r, c), e in index.items():
        if (r, c + 1) in index:
            covers.append((e, index[(r, c + 1)]))
        if (r + 1, c) in index:
            covers.append((e, index[(r + 1, c)]))
    return Poset(len(boxes), covers, coords=boxes, origin=origin)


def build_shape(partition: Sequence[int]) -> Poset:
    """Poset of the Young diagram of a partition, row-major element order."""
    lam = _check_partition(partition, strict=False)
    boxes = [(r, c) for r in range(1, len(lam) + 1) for c in range(1, lam[r - 1] + 1)]
    return _diagram(boxes, "shape:" + ",".join(str(x) for x in lam))


def build_rectangle(a: int, b: int) -> Poset:
    """The a x b rectangle (a rows, b columns)."""
    if a < 1 or b < 1:
        raise ValueError("rectangle sides must be positive")
    boxes = [(r, c) for r in range(1, a + 1) for c in range(1, b + 1)]
    return _diagram(boxes, f"rect:{a}x{b}")


def build_shifted(partition: Sequence[int]) -> Poset:
    """Poset of the shifted Young diagram of a strict partition."""
    lam = _check_partition(partition, strict=True)
    boxes = [
        (r, c) for r in range(1, len(lam) + 1) for c in range(r, lam[r - 1] + r)
    ]
    return _diagram(boxes, "shifted:" + ",".join(str(x) for x in lam))


def build_propeller(k: int) -> Poset:
    """Chain of k-1, then two incomparable elements, then a chain of k-1."""
    if k < 2:
        raise ValueError("propeller parameter must be at least 2")
    n = 2 * k
    covers = [(i, i + 1) for i in range(k - 2)]
    covers += [(k - 2, k - 1), (k - 2, k), (k - 1, k + 1), (k, k + 1)]
    covers += [(j, j + 1) for j in range(k + 1, n - 1)]
    return Poset(n, covers, origin=f"minuscule:propeller:{k}")


_E6_COVERS = (
    (0, 1), (1, 2), (2, 3), (2, 4), (3, 6), (4, 5), (4, 6), (5, 7), (6, 7),
    (6, 8), (7, 9), (8, 9), (8, 10), (9, 11), (9, 12), (10, 12), (11, 13),
    (12, 13), (13, 14), (14, 15),
)

_E7_COVERS = (
    (0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (4, 6), (4, 7), (5, 7), (6, 8),
    (7, 8), (7, 9), (8, 10), (9, 10), (9, 11), (10, 13), (10, 14), (11, 12),
    (11, 13), (12, 15), (13, 15), (13, 16), (14, 16), (15, 17), (16, 17),
    (16, 18), (17, 19), (18, 19), (18, 20), (19, 21), (19, 22), (20, 22),
    (21, 23), (22, 23), (23, 24), (24, 25), (25, 26),
)


def build_minuscule(family: str, *params: int) -> Poset:
    """One of the minuscule posets.

    ``family`` is ``"rectangle"`` (a, b), ``"shifted_staircase"`` (k),
    ``"propeller"`` (k), ``"E6"``, or ``"E7"``.
    """
    if family == "rectangle":
        a, b = params
        return build_rectangle(a, b)
    if family == "shifted_staircase":
        (k,) = params
        return build_shifted(tuple(range(k, 0, -1)))
    if family == "propeller":
        (k,) = params
        return build_propeller(k)
    if family == "E6":
        return Poset(16, _E6_COVERS, origin="minuscule:E6")
    if family == "E7":
        return Poset(27, _E7_COVERS, origin="minuscule:E7")
    raise ValueError(f"unknown minuscule family {family!r}")


# ---------------------------------------------------------------------------
# hook lengths


def hook_lengths(partition: Sequence[int]) -> dict[tuple[int, int], int]:
    """Hook length of every box of a straight shape, keyed by (row, col)."""
    lam = _check_partition(partition, strict=False)
    out = {}
    for r in range(1, len(lam) + 1):
        for c in range(1, lam[r - 1] + 1):
            arm = lam[r - 1] - c
            leg = sum(1 for k in range(r + 1, len(lam) + 1) if lam[k - 1] >= c)
            out[(r, c)] = arm + leg + 1
    return out


def shifted_hook_lengths(partition: Sequence[int]) -> dict[tuple[int, int], int]:
    """Hook length of every box of a shifted shape, keyed by (row, col).

    The hook of box (r, c) consists of the boxes to its right in row r, the
    boxes below it in column c, the box itself, and -- when column c ends on
    the main diagonal -- all of row c+1.
    """
    lam = _check_partition(partition, strict=True)
    rows = len(lam)
    in_diagram = lambda r, c: 1 <= r <= rows and r <= c <= lam[r - 1] + r - 1  # noqa: E731
    out = {}
    for r in range(1, rows + 1):
        for c in range(r, lam[r - 1] + r):
            arm = lam[r - 1] + r - 1 - c
            leg = sum(1 for k in range(r + 1, rows + 1) if in_diagram(k, c))
            wrap = lam[c] if c + 1 <= rows else 0
            out[(r, c)] = arm + leg + 1 + wrap
    return out


# ---------------------------------------------------------------------------
# serialization and the poset-spec grammar


def to_json(poset: Poset) -> str:
    doc = {
        "n": poset.n,
        "covers": [list(c) for c in poset.covers],
        "labeling": list(range(1, poset.n + 1)),
        "origin": poset.origin,
        "coords": [list(c) for c in poset.coords] if poset.coords else None,
    }
    return json.dumps(doc)


def from_json(text: str) -> Poset:
    try:
        doc = json.loads(text)
        n = int(doc["n"])
        covers = [(int(lo), int(hi)) for lo, hi in doc["covers"]]
        labeling = [int(x) for x in doc.get("labeling") or range(1, n + 1)]
        coords = doc.get("coords")
        origin = doc.get("origin")
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise PosetSpecError(f"malformed poset JSON: {exc}") from exc
    if n < 0:
        raise PosetSpecError(f"n must be nonnegative, got {n}")
    if sorted(labeling) != list(range(1, n + 1)):
        raise PosetSpecError("labeling must be a bijection onto 1..n")
    position = [labeling[e] - 1 for e in range(n)]
    try:
        renumbered = [(position[lo], position[hi]) for lo, hi in covers]
    except IndexError as exc:
        raise PosetSpecError("cover endpoints out of range") from exc
    if any(lo >= hi for lo, hi in renumbered):
        raise PosetSpecError("labeling is not a natural labeling of the covers")
    new_coords = None
    if coords is not None:
        if not isinstance(coords, list) or len(coords) != n:
            raise PosetSpecError("coords must be a list of one [row, col] per element")
        new_coords = [None] * n
        for e, rc in enumerate(coords):
            if not (isinstance(rc, list) and len(rc) == 2 and all(type(x) is int for x in rc)):
                raise PosetSpecError(f"coords entry {rc!r} is not a [row, col] pair of integers")
            new_coords[position[e]] = tuple(rc)
    try:
        return Poset(n, renumbered, coords=new_coords, origin=origin)
    except ValueError as exc:
        raise PosetSpecError(str(exc)) from exc


def parse_poset_spec(spec: str) -> Poset:
    """Build a poset from a spec string or a JSON file path.

    Grammar: ``rect:AxB``, ``shape:L1,L2,...``, ``shifted:L1,L2,...``,
    ``minuscule:E6``, ``minuscule:E7``, ``minuscule:propeller:K``,
    ``minuscule:rect:AxB``, ``minuscule:staircase:K``; anything else is
    read as the path of a JSON poset file.
    """
    try:
        if spec.startswith("rect:"):
            a, b = spec[5:].split("x")
            return build_rectangle(int(a), int(b))
        if spec.startswith("shape:"):
            return build_shape([int(x) for x in spec[6:].split(",")])
        if spec.startswith("shifted:"):
            return build_shifted([int(x) for x in spec[8:].split(",")])
        if spec.startswith("minuscule:"):
            rest = spec[10:]
            if rest in ("E6", "E7"):
                return build_minuscule(rest)
            if rest.startswith("propeller:"):
                return build_minuscule("propeller", int(rest[10:]))
            if rest.startswith("staircase:"):
                return build_minuscule("shifted_staircase", int(rest[10:]))
            if rest.startswith("rect:"):
                a, b = rest[5:].split("x")
                return build_minuscule("rectangle", int(a), int(b))
            raise PosetSpecError(f"unknown minuscule spec {spec!r}")
    except PosetSpecError:
        raise
    except (ValueError, TypeError) as exc:
        raise PosetSpecError(f"malformed poset spec {spec!r}: {exc}") from exc
    try:
        with open(spec, encoding="utf-8") as handle:
            return from_json(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise PosetSpecError(f"cannot read poset file {spec!r}: {exc}") from exc
