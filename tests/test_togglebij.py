"""Toggle bijection: golden cases plus the exhaustive pairing properties."""

import pytest
from hypothesis import given, settings

from conftest import all_partitions, naturally_labeled_posets
from qtab.distributions import theta, tin, tout
from qtab.extensions import (
    LinearExtension,
    descents,
    enumerate_linear_extensions,
    format_tableau,
    parse_tableau,
)
from qtab.posets import build_propeller, build_rectangle, build_shape, build_shifted, dual
from qtab.qpoly import QPoly
from qtab.togglebij import (
    AmbiguousCase,
    InvalidEscalation,
    PNotTogglableIn,
    PNotTogglableOut,
    classify,
    dual_extension,
    escalate,
    inverse_toggle_bijection,
    toggle_bijection,
)

Q = QPoly.monomial(1, 1)


# ---------------------------------------------------------------------------
# golden cases


def test_case_l0_r0_golden():
    poset = build_rectangle(4, 5)
    before = parse_tableau(
        "1,2,3,4,9\n5,6,7,8,18\n10,11,13,15,19\n12,14,16,17,20", poset
    )
    p = before.positions[7]  # the element holding value 8
    case = classify(before, p, 13)
    assert (case.left, case.right) == ("L0", "R0")
    assert case.blocks == (("U", 8, 8), ("D", 9, 11), ("U", 12, 13))
    assert case.f == 0
    assert case.y_prime == 7
    assert case.z == 13
    after, y2 = toggle_bijection(p, before, 13)
    assert y2 == 7
    assert (
        format_tableau(after)
        == "1,2,3,4,8\n5,6,7,13,18\n9,10,12,15,19\n11,14,16,17,20"
    )
    assert inverse_toggle_bijection(p, after, 7) == (before, 13)


def test_case_l2_r1_golden():
    poset = build_shape((6, 4, 3, 3))
    before = parse_tableau("1,2,3,4,12,15\n5,6,8,11\n7,10,14\n9,13,16", poset)
    p = before.positions[10]  # the element holding value 11
    case = classify(before, p, 14)
    assert (case.left, case.right) == ("L2", "R1")
    assert case.f == 2  # ascent run {9, 10} below x = 11
    assert case.blocks == (("U", 11, 11), ("D", 12, 12), ("U", 13, 14))
    assert case.e == 1
    assert case.y_prime == 8
    assert case.z == 15
    after, y2 = toggle_bijection(p, before, 14)
    assert y2 == 8
    assert format_tableau(after) == "1,2,3,4,11,14\n5,6,8,15\n7,10,13\n9,12,16"
    assert inverse_toggle_bijection(p, after, 8) == (before, 14)


def test_case_l3b_r3a_golden():
    poset = build_shape((6, 4, 3, 3, 1))
    before = parse_tableau("1,2,3,4,15,16\n5,6,8,11\n7,10,14\n9,12,17\n13", poset)
    p = before.positions[10]  # the element holding value 11
    case = classify(before, p, 16)
    assert (case.left, case.right) == ("L3b", "R3a")
    assert case.f == 2
    assert case.blocks == (("D", 11, 12), ("U", 13, 14), ("D", 15, 16))
    assert case.y_prime == 8
    assert case.z == 15
    after, y2 = toggle_bijection(p, before, 16)
    assert y2 == 8
    assert format_tableau(after) == "1,2,3,4,14,16\n5,6,8,15\n7,10,13\n9,11,17\n12"
    assert inverse_toggle_bijection(p, after, 8) == (before, 16)


def test_singleton_golden():
    poset = build_shape((1,))
    ext = LinearExtension(poset, (1,))
    after, y2 = toggle_bijection(0, ext, 1)
    assert after == ext and y2 == 0
    assert theta(ext, 1) == QPoly.of([1])
    assert theta(ext, 0) == Q
    assert inverse_toggle_bijection(0, ext, 0) == (ext, 1)


def test_r3b_split_tiebreak():
    # the last up block is the single value x itself, which never counts
    # toward the trailing split part, so h = 0 and the escalation collapses
    poset = build_shape((3, 2, 1))
    ext = LinearExtension(poset, (1, 2, 6, 3, 5, 4))
    p = 4  # the (2,2) cell, holding value 5
    case = classify(ext, p, 6)
    assert (case.left, case.right) == ("L2", "R3b")
    assert (case.g, case.h) == (1, 0)
    assert case.z == 5  # escalation collapses to the identity
    assert case.y_prime == 3
    after, y2 = toggle_bijection(p, ext, 6)
    assert after == ext and y2 == 3
    assert theta(ext, 6) * Q == theta(ext, 3)


def test_escalate_unit():
    poset = build_rectangle(2, 2)
    ext = LinearExtension(poset, (1, 2, 3, 4))
    assert escalate(ext, 2, 2) is ext
    assert escalate(ext, 2, 3).values == (1, 3, 2, 4)
    with pytest.raises(InvalidEscalation):
        escalate(ext, 3, 2)
    chain = build_shape((1, 1, 1))
    with pytest.raises(InvalidEscalation):
        escalate(LinearExtension(chain, (1, 2, 3)), 1, 3)


def test_error_cases():
    poset = build_rectangle(2, 2)
    ext = LinearExtension(poset, (1, 2, 3, 4))
    with pytest.raises(PNotTogglableOut):
        classify(ext, 0, 4)  # covered above inside the ideal
    with pytest.raises(PNotTogglableOut):
        toggle_bijection(3, ext, 2)  # not yet in the ideal
    with pytest.raises(PNotTogglableIn):
        inverse_toggle_bijection(0, ext, 1)  # already in the ideal
    with pytest.raises(ValueError):
        classify(ext, 0, 5)


def test_case_invariants_on_small_shapes():
    """Every out-togglable (T, y, p) of the shapes up to 6 boxes gets one
    left and one right rule, and blocks that alternate and tile [x, y]."""
    for part in all_partitions(6):
        poset = build_shape(part)
        for ext in enumerate_linear_extensions(poset):
            for p in range(poset.n):
                x = ext.values[p]
                for y in range(poset.n + 1):
                    if not tout(poset, p, ext.prefix_masks[y]):
                        continue
                    case = classify(ext, p, y)
                    assert case.left in ("L0", "L1", "L2", "L3a", "L3b")
                    assert case.right in ("R0", "R1", "R2", "R3a", "R3b")
                    cursor, previous = x, ""
                    for kind, lo, hi in case.blocks:
                        assert kind in ("D", "U") and kind != previous
                        assert lo == cursor <= hi
                        cursor, previous = hi + 1, kind
                    assert cursor == y + 1


def test_dual_extension_involution():
    poset = build_shape((3, 2))
    for ext in enumerate_linear_extensions(poset):
        star = dual_extension(ext)
        assert dual_extension(star).values == ext.values


@settings(max_examples=40, deadline=None)
@given(naturally_labeled_posets(max_n=6))
def test_inverse_roundtrips_on_random_posets(poset):
    n = poset.n
    star = dual(poset)
    for ext in enumerate_linear_extensions(poset):
        assert dual_extension(ext).poset is star
        for p in range(n):
            for y in range(n + 1):
                if tout(poset, p, ext.prefix_ideal(y)):
                    image, y2 = toggle_bijection(p, ext, y)
                    assert inverse_toggle_bijection(p, image, y2) == (ext, y)


# ---------------------------------------------------------------------------
# exhaustive pairing properties


def _corpus():
    posets = []
    for boxes in range(1, 8):
        for part in all_partitions(boxes, min_boxes=boxes):
            posets.append((f"shape{part}", build_shape(part)))
    posets.append(("shifted(2,1)", build_shifted((2, 1))))
    posets.append(("shifted(3,2,1)", build_shifted((3, 2, 1))))
    posets.append(("propeller(2)", build_propeller(2)))
    return posets


@pytest.mark.parametrize(
    "poset", [p for _, p in _corpus()], ids=[name for name, _ in _corpus()]
)
def test_exhaustive_pairing(poset):
    n = poset.n
    extensions = list(enumerate_linear_extensions(poset))
    ambiguous = 0
    for p in range(n):
        out_pairs = []
        in_pairs = []
        for ext in extensions:
            for y in range(n + 1):
                mask = ext.prefix_ideal(y)
                if tout(poset, p, mask):
                    out_pairs.append((ext, y))
                if tin(poset, p, mask):
                    in_pairs.append((ext, y))
        images = []
        for ext, y in out_pairs:
            try:
                image, y2 = toggle_bijection(p, ext, y)
            except AmbiguousCase:
                ambiguous += 1
                continue
            assert tin(poset, p, image.prefix_ideal(y2))
            assert theta(ext, y) * Q == theta(image, y2)
            assert len(descents(ext) - {y}) == len(descents(image) - {y2})
            assert inverse_toggle_bijection(p, image, y2) == (ext, y)
            images.append((image, y2))
        assert ambiguous == 0
        assert len(set(images)) == len(out_pairs)
        assert set(images) == set(in_pairs)
        lhs = sum((theta(ext, y) * Q for ext, y in out_pairs), QPoly.of([]))
        rhs = sum((theta(ext, y) for ext, y in in_pairs), QPoly.of([]))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the inverse on tuples against the route through validated dual extensions


def _reference_inverse(p, ext, y):
    """The inverse through validated extensions: over the dual, classify,
    escalate, and map back."""
    n = ext.poset.n
    star = dual_extension(ext)
    case = classify(star, n - 1 - p, n - y)
    image = escalate(star, star.values[n - 1 - p], case.z)
    return dual_extension(image).values, n - case.y_prime


def _assert_inverse_matches_reference(poset):
    n = poset.n
    for ext in enumerate_linear_extensions(poset):
        for p in range(n):
            for y in range(n + 1):
                if tin(poset, p, ext.prefix_ideal(y)):
                    image, y2 = inverse_toggle_bijection(p, ext, y)
                    assert image.poset is poset
                    assert (image.values, y2) == _reference_inverse(p, ext, y)
                else:
                    with pytest.raises(PNotTogglableIn):
                        inverse_toggle_bijection(p, ext, y)


@pytest.mark.parametrize(
    "poset", [p for _, p in _corpus()], ids=[name for name, _ in _corpus()]
)
def test_inverse_matches_the_dual_route(poset):
    _assert_inverse_matches_reference(poset)


@settings(max_examples=40, deadline=None)
@given(naturally_labeled_posets(max_n=6))
def test_inverse_matches_the_dual_route_on_random_posets(poset):
    _assert_inverse_matches_reference(poset)


def test_inverse_rejects_out_of_range_arguments():
    ext = LinearExtension(build_rectangle(2, 2), (1, 2, 3, 4))
    for p, y in ((-1, 1), (4, 1), (1, -1), (1, 5)):
        with pytest.raises(ValueError, match="out of range"):
            inverse_toggle_bijection(p, ext, y)
