"""Tests for poset construction, order ideals, duality, ranks, hooks."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, strategies as st

from conftest import naturally_labeled_posets
from qtab.posets import (
    NotGraded,
    Poset,
    PosetSpecError,
    _signatures,
    build_minuscule,
    build_propeller,
    build_rectangle,
    build_shape,
    build_shifted,
    dual,
    find_isomorphism,
    from_json,
    hook_lengths,
    ideal_members,
    is_self_dual,
    order_ideals,
    parse_poset_spec,
    rank_data,
    relabel,
    shifted_hook_lengths,
    to_json,
)


@st.composite
def partitions(draw, max_rows=4, max_cols=4):
    rows = draw(st.integers(1, max_rows))
    parts = draw(st.lists(st.integers(1, max_cols), min_size=rows, max_size=rows))
    return tuple(sorted(parts, reverse=True))


@st.composite
def strict_partitions(draw, max_first=5):
    first = draw(st.integers(1, max_first))
    parts = [first]
    while parts[-1] > 1 and draw(st.booleans()):
        parts.append(draw(st.integers(1, parts[-1] - 1)))
    return tuple(parts)


def brute_force_ideals(poset: Poset) -> list[int]:
    out = []
    for mask in range(1 << poset.n):
        if all(
            mask & poset.low_masks[p] == poset.low_masks[p]
            for p in range(poset.n)
            if mask >> p & 1
        ):
            out.append(mask)
    return out


# ---------------------------------------------------------------------------
# builders


def test_rectangle_2x2():
    p = build_rectangle(2, 2)
    assert p.n == 4
    assert p.covers == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert p.coords == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert p.origin == "rect:2x2"


def test_shape_hook():
    p = build_shape((3, 1))
    assert p.n == 4
    assert p.covers == ((0, 1), (0, 3), (1, 2))
    assert p.coords == ((1, 1), (1, 2), (1, 3), (2, 1))


def test_shifted_staircase_3():
    p = build_shifted((3, 2, 1))
    assert p.n == 6
    assert p.coords == ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
    assert p.covers == ((0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5))


def test_bad_partitions_rejected():
    with pytest.raises(ValueError):
        build_shape((1, 2))
    with pytest.raises(ValueError):
        build_shape(())
    with pytest.raises(ValueError):
        build_shifted((2, 2))
    with pytest.raises(ValueError):
        build_rectangle(0, 3)


def test_cover_validation():
    with pytest.raises(ValueError):
        Poset(-1, [])
    with pytest.raises(ValueError):
        Poset(3, [(1, 0)])
    with pytest.raises(ValueError):
        Poset(3, [(0, 1), (1, 2), (0, 2)])  # (0, 2) is transitive, not a cover
    with pytest.raises(ValueError, match="two elements share a box"):
        Poset(2, [(0, 1)], coords=[(1, 1), (1, 1)])


# ---------------------------------------------------------------------------
# order ideals


def test_ideals_2x2_golden():
    assert order_ideals(build_rectangle(2, 2)) == (0, 1, 3, 5, 7, 15)


def test_ideal_counts():
    assert len(order_ideals(build_rectangle(3, 3))) == 20
    assert len(order_ideals(build_shape((2, 1)))) == 5
    assert len(order_ideals(build_shifted((3, 2, 1)))) == 8


def test_rectangle_ideal_count_is_binomial():
    # ideals of the a x b grid are lattice paths: binomial(a+b, a) of them
    for a in range(1, 6):
        for b in range(1, 6):
            assert len(order_ideals(build_rectangle(a, b))) == math.comb(a + b, a)


@given(st.one_of(partitions().map(build_shape), naturally_labeled_posets()))
@example(Poset(0, []))
@example(Poset(10, []))
def test_ideals_match_brute_force(poset):
    if poset.n <= 10:
        assert list(order_ideals(poset)) == brute_force_ideals(poset)


@given(st.one_of(partitions().map(build_shape), naturally_labeled_posets()))
@example(Poset(0, []))
@example(Poset(6, []))
def test_ideal_edges_match_brute_force(poset):
    ideals = order_ideals(poset)
    position = {mask: j for j, mask in enumerate(ideals)}
    expected = [
        [
            (j, position[mask | 1 << e])
            for j, mask in enumerate(ideals)
            if not mask >> e & 1 and mask | 1 << e in position
        ]
        for e in range(poset.n)
    ]
    assert [list(edges) for edges in poset.ideal_edges] == expected


@given(strict_partitions())
def test_shifted_ideals_match_brute_force(lam):
    poset = build_shifted(lam)
    if poset.n <= 10:
        assert list(order_ideals(poset)) == brute_force_ideals(poset)


def test_ideal_members():
    assert ideal_members(0) == ()
    assert ideal_members(0b1011) == (0, 1, 3)


# ---------------------------------------------------------------------------
# dual and self-duality


DUAL_POSETS = st.one_of(
    partitions().map(build_shape),
    strict_partitions().map(build_shifted),
    naturally_labeled_posets(),
)


@given(DUAL_POSETS)
@example(Poset(0, []))
def test_dual_involution(poset):
    assert dual(dual(poset)) == poset


@given(DUAL_POSETS)
@example(Poset(0, []))
def test_dual_is_built_once_per_poset(poset):
    n = poset.n
    star = dual(poset)
    assert dual(poset) is star
    coords = poset.coords[::-1] if poset.coords is not None else None
    fresh = Poset(n, [(n - 1 - hi, n - 1 - lo) for lo, hi in poset.covers], coords=coords)
    assert star == fresh
    # e < f in P exactly when n-1-f < n-1-e in the dual
    for e in range(n):
        mirrored = sum(1 << (n - 1 - f) for f in range(n) if poset.above_masks[e] >> f & 1)
        assert star.below_masks[n - 1 - e] == mirrored


def test_self_duality_facts():
    assert is_self_dual(build_rectangle(2, 3))
    assert is_self_dual(build_shifted((3, 2, 1)))
    assert not is_self_dual(build_shape((2, 1)))
    assert not is_self_dual(build_shape((2, 2, 1, 1)))
    # the element signatures agree with the dual's, so only the search rejects it
    p = Poset(7, [(0, 1), (0, 4), (1, 6), (2, 5), (3, 5), (3, 6)])
    assert sorted(_signatures(p)) == sorted(_signatures(dual(p)))
    assert is_self_dual(p) is False


@given(partitions(max_rows=3, max_cols=3))
def test_self_dual_agrees_with_bruteforce(lam):
    poset = build_shape(lam)

    def brute(a: Poset, b: Poset) -> bool:
        import itertools

        if a.n != b.n:
            return False
        bc = set(b.covers)
        for perm in itertools.permutations(range(a.n)):
            mapped = {(perm[lo], perm[hi]) for lo, hi in a.covers}
            if mapped == bc:
                return True
        return False

    if poset.n <= 7:
        assert is_self_dual(poset) == brute(poset, dual(poset))


# ---------------------------------------------------------------------------
# rank data


def test_rank_data_golden():
    rd = rank_data(build_rectangle(2, 2))
    assert rd.ranks == (0, 1, 1, 2)
    assert rd.rank == 2


def test_rank_data_not_graded():
    with pytest.raises(NotGraded):
        rank_data(build_shape((3, 1)))


def test_minuscule_guards_e6():
    p = build_minuscule("E6")
    assert p.n == 16
    assert len(p.covers) == 20
    assert len(order_ideals(p)) == 27
    assert is_self_dual(p)
    rd = rank_data(p)
    assert rd.rank == 10
    sizes = [rd.ranks.count(r) for r in range(rd.rank + 1)]
    assert sizes == [1, 1, 1, 2, 2, 2, 2, 2, 1, 1, 1]
    assert sizes == sizes[::-1]


def test_minuscule_guards_e7():
    p = build_minuscule("E7")
    assert p.n == 27
    assert len(p.covers) == 36
    assert len(order_ideals(p)) == 56
    assert is_self_dual(p)
    rd = rank_data(p)
    assert rd.rank == 16
    sizes = [rd.ranks.count(r) for r in range(rd.rank + 1)]
    assert sizes == [1, 1, 1, 1, 2, 2, 2, 2, 3, 2, 2, 2, 2, 1, 1, 1, 1]
    assert sizes == sizes[::-1]


def test_minuscule_ideal_counts_match_rank_product():
    # For a minuscule poset, the number of order ideals equals
    # prod_p (rank(p) + 2) / (rank(p) + 1).
    for poset in (build_minuscule("E6"), build_minuscule("E7"), build_propeller(3)):
        rd = rank_data(poset)
        num = math.prod(r + 2 for r in rd.ranks)
        den = math.prod(r + 1 for r in rd.ranks)
        assert num % den == 0
        assert num // den == len(order_ideals(poset))


def test_propeller():
    assert find_isomorphism(build_propeller(2), build_rectangle(2, 2)) is not None
    p3 = build_propeller(3)
    assert p3.n == 6
    assert len(order_ideals(p3)) == 8
    assert is_self_dual(p3)
    with pytest.raises(ValueError):
        build_propeller(1)
    with pytest.raises(ValueError):
        build_minuscule("sporadic")


# ---------------------------------------------------------------------------
# relabeling


def test_relabel_keeps_structure():
    p = build_shape((3, 2))
    # place the second-row boxes as early as allowed: 0,1,(2,1)=3,2,(2,2)=4
    q = relabel(p, [0, 1, 3, 2, 4])
    assert q.n == p.n
    assert len(q.covers) == len(p.covers)
    assert find_isomorphism(p, q) is not None
    with pytest.raises(ValueError):
        relabel(p, [1, 0, 2, 3, 4])  # not a linear extension
    with pytest.raises(ValueError):
        relabel(p, [0, 0, 1, 2, 3])


# ---------------------------------------------------------------------------
# hooks


def test_hook_lengths_golden():
    hooks = hook_lengths((2, 2))
    assert hooks == {(1, 1): 3, (1, 2): 2, (2, 1): 2, (2, 2): 1}
    counts = hook_lengths((5, 4, 1))
    n = 10
    assert math.factorial(n) // math.prod(counts.values()) == 288


def test_shifted_hook_lengths_golden():
    hooks = shifted_hook_lengths((3, 2, 1))
    assert hooks == {
        (1, 1): 5, (1, 2): 4, (1, 3): 3, (2, 2): 3, (2, 3): 2, (3, 3): 1,
    }
    hooks431 = shifted_hook_lengths((4, 3, 1))
    assert sorted(hooks431.values()) == [1, 1, 2, 3, 4, 4, 5, 7]
    assert math.factorial(8) // math.prod(hooks431.values()) == 12


# ---------------------------------------------------------------------------
# serialization


def test_json_roundtrip():
    p = build_shifted((3, 1))
    q = from_json(to_json(p))
    assert q == p
    assert q.coords == p.coords
    assert q.origin == p.origin


def test_json_normalizes_labeling():
    doc = {
        "n": 3,
        "covers": [[0, 1], [0, 2]],
        "labeling": [1, 3, 2],
        "origin": None,
        "coords": None,
    }
    p = from_json(json.dumps(doc))
    assert p.covers == ((0, 1), (0, 2))


def test_json_rejects_bad_documents():
    with pytest.raises(PosetSpecError):
        from_json("{not json")
    with pytest.raises(PosetSpecError):
        from_json(json.dumps({"n": 2, "covers": [[0, 1]], "labeling": [1, 1]}))
    with pytest.raises(PosetSpecError):
        from_json(json.dumps({"n": 2, "covers": [[1, 0]], "labeling": [1, 2]}))
    with pytest.raises(PosetSpecError):
        from_json(json.dumps({"n": 2, "covers": [[0, 5]], "labeling": [1, 2]}))
    for n, covers in ((-1, []), (-1, [[0, 1]])):
        with pytest.raises(PosetSpecError):
            from_json(json.dumps({"n": n, "covers": covers}))


@pytest.mark.parametrize(
    "coords",
    [
        [[1, 1], [1, 2]],  # short
        [[1, 1], [1, 2], [2, 1], [2, 2], [3, 1]],  # long
        [[1, 1], [1, 2], [2, 1], [2]],
        [[1, 1], [1, 2], [2, 1], "2,2"],
        [[1, 1], [1, 2], [2, 1], [2, "x"]],
        [[1, 1], [1, 2], [2, 1], [2, 0]],
        {"0": [1, 1]},
    ],
)
def test_json_rejects_bad_coords(coords):
    doc = json.loads(to_json(build_rectangle(2, 2)))
    doc["coords"] = coords
    with pytest.raises(PosetSpecError):
        from_json(json.dumps(doc))


def test_parse_poset_spec():
    assert parse_poset_spec("rect:2x3") == build_rectangle(2, 3)
    assert parse_poset_spec("shape:2,1") == build_shape((2, 1))
    assert parse_poset_spec("shifted:3,2,1") == build_shifted((3, 2, 1))
    assert parse_poset_spec("minuscule:E6") == build_minuscule("E6")
    assert parse_poset_spec("minuscule:propeller:2") == build_propeller(2)
    assert parse_poset_spec("minuscule:staircase:3") == build_shifted((3, 2, 1))
    assert parse_poset_spec("minuscule:rect:2x2") == build_rectangle(2, 2)


def test_parse_poset_spec_file(tmp_path):
    path = tmp_path / "poset.json"
    path.write_text(to_json(build_shape((2, 2, 1))))
    assert parse_poset_spec(str(path)) == build_shape((2, 2, 1))


def test_parse_poset_spec_errors():
    for bad in ("rect:2y3", "shape:", "minuscule:E8", "shape:0", "no/such/file.json"):
        with pytest.raises(PosetSpecError):
            parse_poset_spec(bad)
