"""Tests for ideal distributions, toggle statistics, and weight functions."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    all_partitions,
    naturally_labeled_posets,
    partition_strategy,
    small_poset_corpus,
    small_shape_corpus,
    strict_partition_strategy,
)
from qtab import distributions
from qtab.distributions import (
    PosetMismatch,
    Statistic,
    WeightedEnsemble,
    check_toggle_symmetry,
    ddeg,
    ensemble_lin,
    ensemble_rank,
    ensemble_rpp,
    ensemble_uniform,
    expectation,
    involution_rpp,
    statistic_ddeg,
    statistic_toggle,
    theta,
    theta_m,
    theta_star_exponent,
    tin,
    toggle_statistic_value,
    tout,
)
from qtab.extensions import (
    comaj,
    comaj_at,
    descents,
    enumerate_linear_extensions,
    gf_bsv,
    parse_tableau,
)
from qtab.posets import (
    NotGraded,
    Poset,
    build_minuscule,
    build_rectangle,
    build_shape,
    build_shifted,
    dual,
    ideal_members,
    order_ideals,
    rank_data,
)
from qtab.ppartitions import enumerate_rpp, gf_bsv_rpp, ideal_at_level, rpp_size_gf
from qtab.qpoly import (
    QPoly,
    RatFunc,
    parse_poly,
    qbinom,
    qnum,
)

RECT22 = build_rectangle(2, 2)
CHAIN2 = build_shape((1, 1))


def bit_reverse_complement(mask: int, n: int) -> int:
    """The ideal of the dual poset complementary to the given ideal."""
    return sum(1 << (n - 1 - e) for e in range(n) if not mask >> e & 1)


# ---------------------------------------------------------------------------
# toggles


def test_toggle_golden_2x2():
    assert tin(RECT22, 0, 0b0000) == 1
    assert tin(RECT22, 3, 0b0111) == 1
    assert tin(RECT22, 3, 0b0011) == 0
    assert tin(RECT22, 0, 0b0001) == 0
    assert tout(RECT22, 0, 0b0001) == 1
    assert tout(RECT22, 0, 0b0011) == 0
    assert tout(RECT22, 3, 0b1111) == 1
    assert toggle_statistic_value(RECT22, 0, 0b0000) == parse_poly("1")
    assert toggle_statistic_value(RECT22, 0, 0b0001) == QPoly.of([0, -1])
    assert toggle_statistic_value(RECT22, 1, 0b0101) == QPoly.of([1])
    assert [ddeg(RECT22, m) for m in order_ideals(RECT22)] == [0, 1, 1, 1, 2, 1]


def test_toggles_against_set_definitions():
    for poset in small_poset_corpus(6):
        for mask in order_ideals(poset):
            members = set(ideal_members(mask))
            for p in range(poset.n):
                below = set(poset.lower_covers[p])
                expected_in = p not in members and below <= members
                assert tin(poset, p, mask) == int(expected_in)
                above = set(poset.upper_covers[p])
                expected_out = p in members and not above & members
                assert tout(poset, p, mask) == int(expected_out)
            assert ddeg(poset, mask) == sum(
                tout(poset, p, mask) for p in range(poset.n)
            )


# ---------------------------------------------------------------------------
# ensemble plumbing


def test_ensemble_validation():
    ideals = order_ideals(RECT22)
    good = {mask: QPoly.of([1]) for mask in ideals}
    WeightedEnsemble.from_weights(RECT22, good, QPoly.of([6]))
    with pytest.raises(ValueError, match="^weights do not sum to the normalizer$"):
        WeightedEnsemble.from_weights(RECT22, good, QPoly.of([5]))
    with pytest.raises(ValueError, match="^negative weight at ideal 0x3$"):
        bad = dict(good)
        bad[3] = QPoly.of([2, -1])
        WeightedEnsemble.from_weights(RECT22, bad, QPoly.of([7, -1]))
    with pytest.raises(ValueError, match="^weights must cover exactly the order ideals$"):
        WeightedEnsemble(RECT22, (QPoly.of([1]),), QPoly.of([1]))
    with pytest.raises(ValueError, match="^values must cover exactly the order ideals$"):
        Statistic(RECT22, (QPoly.of([1]),) * 5)
    # a key that is no order ideal is named, whatever its weight
    with pytest.raises(ValueError, match="^not order ideals: 0x2$"):
        WeightedEnsemble.from_weights(RECT22, {**good, 0b0010: QPoly.of([])}, QPoly.of([6]))
    with pytest.raises(ValueError, match="^not order ideals: 0x2, 0x10$"):
        strays = {0b0010: QPoly.of([1]), 0b10000: QPoly.of([1])}
        WeightedEnsemble.from_weights(RECT22, {**good, **strays}, QPoly.of([8]))
    with pytest.raises(ValueError, match="^normalizer must be nonzero$"):
        WeightedEnsemble.from_weights(RECT22, {}, QPoly.of([]))
    # zero weights add nothing; the sum is a list sum, not a QPoly sum
    sparse = {0: QPoly.of([0, 0, 1]), 0b1111: QPoly.of([3])}
    ensemble = WeightedEnsemble.from_weights(RECT22, sparse, QPoly.of([3, 0, 1]))
    assert ensemble.weight(0b0011) == QPoly.of([])


def test_probability_and_mismatch():
    ensemble = ensemble_uniform(RECT22)
    assert ensemble.probability(0) == RatFunc(
        QPoly.monomial(1, 4), parse_poly("1 + q + 2*q^2 + q^3 + q^4")
    )
    other = statistic_ddeg(build_shape((2, 1)))
    with pytest.raises(PosetMismatch):
        expectation(ensemble, other)


def test_statistic_from_function_coerces_ints():
    stat = statistic_ddeg(RECT22)
    assert stat.values[order_ideals(RECT22).index(0b0111)] == QPoly.of([2])
    assert stat.label == "ddeg"
    coerced = Statistic.from_function(RECT22, lambda mask: ddeg(RECT22, mask))
    assert coerced.values == stat.values


# ---------------------------------------------------------------------------
# the four families


def test_uniform_weights_golden():
    ensemble = ensemble_uniform(RECT22)
    expected = {0b0000: 4, 0b0001: 3, 0b0011: 2, 0b0101: 2, 0b0111: 1, 0b1111: 0}
    for mask, exponent in expected.items():
        assert ensemble.weight(mask) == QPoly.monomial(1, exponent)
    assert ensemble.normalizer == parse_poly("1 + q + 2*q^2 + q^3 + q^4")


def test_uniform_is_level_weighting_at_one():
    for poset in small_poset_corpus(6):
        uniform = ensemble_uniform(poset)
        level = ensemble_rpp(poset, 1)
        assert uniform.weights == level.weights
        assert uniform.normalizer == level.normalizer


def test_rpp_weights_golden_2x2():
    ensemble = ensemble_rpp(RECT22, 1)
    expected = {0b0000: 4, 0b0001: 3, 0b0011: 2, 0b0101: 2, 0b0111: 1, 0b1111: 0}
    for mask, exponent in expected.items():
        assert ensemble.weight(mask) == QPoly.monomial(1, exponent)


def test_rpp_modes_agree():
    for poset in small_shape_corpus(6) + [build_shape((2, 2, 1))]:
        for m in (1, 2, 3):
            direct = ensemble_rpp(poset, m, mode="direct")
            via = ensemble_rpp(poset, m, mode="via_theta_m")
            assert direct.weights == via.weights
            assert direct.normalizer == via.normalizer
    with pytest.raises(ValueError):
        ensemble_rpp(RECT22, 1, mode="other")
    with pytest.raises(ValueError):
        ensemble_rpp(RECT22, 0)


def _theta_m_pair_sum(poset, m: int) -> tuple[QPoly, ...]:
    """The via_theta_m weights as one ``theta_m`` term per (extension, i), in
    ``order_ideals`` order."""
    acc = {mask: QPoly.of([]) for mask in order_ideals(poset)}
    for ext in enumerate_linear_extensions(poset):
        for i in range(poset.n + 1):
            mask = ext.prefix_ideal(i)
            acc[mask] = acc[mask] + theta_m(ext, i, m)
    return tuple(acc.values())


@given(naturally_labeled_posets(max_n=7), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_theta_m_tally_matches_the_pair_sum(poset, m):
    """The class tally of ``mode="via_theta_m"`` against the per-pair sum."""
    via = ensemble_rpp(poset, m, mode="via_theta_m")
    assert via.weights == _theta_m_pair_sum(poset, m)


@given(naturally_labeled_posets(max_n=7))
@settings(max_examples=40, deadline=None)
def test_theta_classes_are_tallied_once_per_poset(poset):
    """m = 5, 1, 3 in turn read one tally of the poset, which none of them
    consumes; an equal poset built anew enumerates again into its own."""
    poset = Poset(poset.n, poset.covers)
    enumerated: list[Poset] = []

    def spy(poset):
        enumerated.append(poset)
        return enumerate_linear_extensions(poset)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distributions, "enumerate_linear_extensions", spy)
        for m in (5, 1, 3):
            assert ensemble_rpp(poset, m, "via_theta_m") == ensemble_rpp(poset, m, "direct")
        assert len(enumerated) == 1 and enumerated[0] is poset
        anew = Poset(poset.n, poset.covers)
        assert ensemble_rpp(anew, 2, "via_theta_m") == ensemble_rpp(poset, 2, "direct")
        assert len(enumerated) == 2 and enumerated[1] is anew


def test_lin_weights_golden_2x2():
    ensemble = ensemble_lin(RECT22)
    expected = {
        0b0000: parse_poly("q^4 + q^6"),
        0b0001: parse_poly("q^3 + q^5"),
        0b0011: parse_poly("q^2"),
        0b0101: parse_poly("q^2"),
        0b0111: parse_poly("q + q^4"),
        0b1111: parse_poly("1 + q^3"),
    }
    for mask, weight in expected.items():
        assert ensemble.weight(mask) == weight
    assert ensemble.normalizer == qnum(5) * parse_poly("1 + q^2")


def test_rank_chain_weights():
    ensemble = ensemble_rank(build_rectangle(2, 3))
    assert ensemble.normalizer == qnum(5)
    assert ensemble.weight(0) == QPoly.monomial(1, 4)
    assert ensemble.weight(0b000001) == QPoly.monomial(1, 3)
    assert ensemble.weight(0b001011) == QPoly.monomial(1, 2)
    assert ensemble.weight(0b011111) == QPoly.monomial(1, 1)
    assert ensemble.weight(0b111111) == QPoly.of([1])
    assert ensemble.weight(0b000011) == QPoly.of([])
    with pytest.raises(NotGraded):
        ensemble_rank(build_shape((3, 1)))


def test_rank_chain_on_the_empty_poset():
    ensemble = ensemble_rank(Poset(0, []))
    assert ensemble.weights == (QPoly.of([1]),)
    assert ensemble.normalizer == QPoly.of([1])
    assert check_toggle_symmetry(ensemble)


# ---------------------------------------------------------------------------
# theta weights


def test_theta_golden():
    exts = list(enumerate_linear_extensions(RECT22))
    assert theta(exts[0], 0) == QPoly.monomial(1, 4)
    assert theta(exts[1], 3) == QPoly.monomial(1, 4)
    assert theta(exts[1], 4) == QPoly.monomial(1, 3)


def test_theta_sum_identity():
    for poset in small_poset_corpus(6):
        n = poset.n
        for ext in enumerate_linear_extensions(poset):
            total = sum((theta(ext, i) for i in range(n + 1)), QPoly.of([]))
            assert total == qnum(n + 1) * QPoly.monomial(1, comaj(ext))


def test_theta_m_golden():
    ext = parse_tableau("1,3,6\n2,5,8\n4,7,9", build_rectangle(3, 3))
    assert descents(ext) == frozenset({2, 4, 5, 7})
    for m in (2, 3, 4, 6):
        assert theta_m(ext, 3, m) == QPoly.monomial(1, 25) * qbinom(m + 5, 10)


def test_theta_m_total_is_the_normalizer():
    for poset in small_shape_corpus(5):
        n = poset.n
        for m in (1, 2, 3):
            total = QPoly.of([])
            for ext in enumerate_linear_extensions(poset):
                for i in range(n + 1):
                    total = total + theta_m(ext, i, m)
            assert total == qnum(m) * rpp_size_gf(poset, m)


def _check_cached_theta_data(poset) -> None:
    n = poset.n
    for ext in enumerate_linear_extensions(poset):
        des = descents(ext)
        assert len(ext.theta_exponents) == n + 1
        for i in range(n + 1):
            exponent = comaj_at(ext, i) + sum(1 for j in des if j < i)
            assert ext.theta_exponents[i] == exponent
            assert theta(ext, i) == QPoly.monomial(1, exponent)
            for m in (1, 2, 3):
                expected = theta(ext, i) * qbinom(m + n - len(des - {i}), n + 1)
                assert theta_m(ext, i, m) == expected
        for i in (-1, n + 1):
            with pytest.raises(ValueError):
                theta(ext, i)
            with pytest.raises(ValueError):
                theta_m(ext, i, 2)


@settings(max_examples=40, deadline=None)
@given(naturally_labeled_posets(max_n=6))
def test_cached_theta_data_matches_comaj_at(poset):
    _check_cached_theta_data(poset)


def test_cached_theta_data_matches_comaj_at_on_e6():
    _check_cached_theta_data(build_minuscule("E6"))


def test_theta_star_is_theta_of_the_dual():
    for poset in small_shape_corpus(5):
        n = poset.n
        dual_poset = dual(poset)
        for ext in enumerate_linear_extensions(poset):
            dual_values = [0] * n
            for e, v in enumerate(ext.values):
                dual_values[n - 1 - e] = n + 1 - v
            dual_ext = type(ext)(dual_poset, tuple(dual_values))
            for i in range(n + 1):
                mirrored = theta(dual_ext, n - i)
                assert theta_star_exponent(ext, i) == -mirrored.degree


def test_theta_star_sum_identity():
    """The exponents over i = 0..n are the multiset {-n - maj(T) + j : j = 0..n}."""
    for poset in small_shape_corpus(5):
        n = poset.n
        for ext in enumerate_linear_extensions(poset):
            exponents = sorted(theta_star_exponent(ext, i) for i in range(n + 1))
            assert exponents == [-n - sum(descents(ext)) + j for j in range(n + 1)]


def test_theta_star_rejects_positions_outside_0_to_n():
    """The dual weight checks i as theta and theta_m do."""
    ext = next(enumerate_linear_extensions(RECT22))
    for i in (-1, 5, 99):
        for weight in (theta, lambda e, i: theta_m(e, i, 1), theta_star_exponent):
            with pytest.raises(ValueError, match="out of range"):
                weight(ext, i)


def test_lin_weights_assemble_from_the_dual():
    """The dual weight function rebuilds the prefix ensemble of the dual poset."""
    for poset in small_shape_corpus(5):
        n = poset.n
        expected = ensemble_lin(dual(poset))
        acc: dict[int, QPoly] = {}
        for ext in enumerate_linear_extensions(poset):
            mask = 0
            for i in range(n + 1):
                if i:
                    mask |= 1 << ext.positions[i - 1]
                target = bit_reverse_complement(mask, n)
                term = QPoly.monomial(1, -theta_star_exponent(ext, i))
                acc[target] = acc.get(target, QPoly.of([])) + term
        for mask in order_ideals(expected.poset):
            assert acc.get(mask, QPoly.of([])) == expected.weight(mask)


def test_chain_probabilities_at_two():
    ensemble = ensemble_lin(CHAIN2)
    probs = [ensemble.probability(mask).evaluate(Fraction(2)) for mask in (0, 1, 3)]
    assert probs == [Fraction(4, 7), Fraction(2, 7), Fraction(1, 7)]


# ---------------------------------------------------------------------------
# toggle symmetry and expectations


def test_all_four_families_are_toggle_symmetric():
    for poset in small_poset_corpus(6):
        assert check_toggle_symmetry(ensemble_uniform(poset))
        assert check_toggle_symmetry(ensemble_lin(poset))
        for m in (2, 3):
            assert check_toggle_symmetry(ensemble_rpp(poset, m))
        try:
            rank_ensemble = ensemble_rank(poset)
        except NotGraded:
            continue
        assert check_toggle_symmetry(rank_ensemble)


def test_toggle_symmetry_fails_for_a_skewed_weighting():
    weights = {
        mask: QPoly.monomial(1, mask.bit_count()) for mask in order_ideals(RECT22)
    }
    normalizer = sum((w for w in weights.values()), QPoly.of([]))
    skewed = WeightedEnsemble.from_weights(RECT22, weights, normalizer)
    assert not check_toggle_symmetry(skewed)
    stat = statistic_toggle(RECT22, 0)
    assert expectation(skewed, stat) == RatFunc(
        parse_poly("1 - q^2"), normalizer
    )


def _reference_statistic_toggle(poset, p: int) -> Statistic:
    """tin - q * tout at p, evaluated at every ideal."""
    return Statistic.from_function(poset, lambda mask: toggle_statistic_value(poset, p, mask))


def _reference_expectation(ensemble: WeightedEnsemble, statistic: Statistic) -> RatFunc:
    """The definition: the sum of weight times value over every ideal, in
    ``QPoly`` arithmetic, over the normalizer."""
    numerator = QPoly.of([])
    for weight, value in zip(ensemble.weights, statistic.values, strict=True):
        numerator = numerator + weight * value
    return RatFunc(numerator, ensemble.normalizer)


def _reference_toggle_symmetry(ensemble: WeightedEnsemble) -> bool:
    """The definition: every toggle statistic has expectation zero."""
    poset = ensemble.poset
    return all(
        _reference_expectation(ensemble, _reference_statistic_toggle(poset, p)) == 0
        for p in range(poset.n)
    )


def _assert_toggle_statistics_match_their_values(poset):
    for p in range(poset.n):
        statistic = statistic_toggle(poset, p)
        assert statistic.values == _reference_statistic_toggle(poset, p).values
        assert statistic.label == f"toggle:{p}"


@pytest.mark.parametrize("part", all_partitions(7), ids=str)
def test_statistic_toggle_matches_the_toggle_values_on_shapes(part):
    _assert_toggle_statistics_match_their_values(build_shape(part))


@settings(max_examples=60, deadline=None)
@given(naturally_labeled_posets(max_n=8))
def test_statistic_toggle_matches_the_toggle_values_on_random_posets(poset):
    _assert_toggle_statistics_match_their_values(poset)


@settings(max_examples=60, deadline=None)
@given(naturally_labeled_posets(max_n=6), st.data())
def test_expectation_matches_its_definition(poset, data):
    # random weights and a random statistic, zero at some ideals
    coeffs = st.lists(st.integers(-3, 3), max_size=4)
    ideals = order_ideals(poset)
    weights = {mask: QPoly.of([abs(c) for c in data.draw(coeffs)]) for mask in ideals}
    weights[0] = weights[0] + QPoly.of([1])  # a nonzero normalizer
    ensemble = WeightedEnsemble.from_weights(poset, weights, sum(weights.values(), QPoly.of([])))
    statistic = Statistic(poset, tuple(QPoly.of(data.draw(coeffs)) for _ in ideals))
    assert expectation(ensemble, statistic) == _reference_expectation(ensemble, statistic)
    for p in range(poset.n):
        toggle = statistic_toggle(poset, p)
        assert expectation(ensemble, toggle) == _reference_expectation(ensemble, toggle)


@settings(max_examples=40, deadline=None)
@given(naturally_labeled_posets(max_n=7).filter(lambda poset: poset.n > 0), st.data())
def test_asymmetric_ensemble_has_nonzero_toggle_expectation(poset, data):
    # uniform weights, made heavier by c q^k at the lower end I of an edge
    # I -> I + p: each element's expectation moves by c q^k times its toggle
    # value at I, which is 1 at p
    p = data.draw(st.integers(0, poset.n - 1))
    lower, _ = data.draw(st.sampled_from(poset.ideal_edges[p]))
    mask = order_ideals(poset)[lower]
    uniform = ensemble_uniform(poset)
    extra = QPoly.monomial(data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3)))
    weights = list(uniform.weights)
    weights[lower] = weights[lower] + extra
    skewed = WeightedEnsemble(poset, tuple(weights), uniform.normalizer + extra)
    assert not check_toggle_symmetry(skewed)
    for element in range(poset.n):
        value = expectation(skewed, statistic_toggle(poset, element))
        assert value == _reference_expectation(skewed, _reference_statistic_toggle(poset, element))
        assert value == RatFunc(extra * toggle_statistic_value(poset, element, mask), skewed.normalizer)
    assert expectation(skewed, statistic_toggle(poset, p)) == RatFunc(extra, skewed.normalizer) != 0


SYMMETRY_POSETS = st.one_of(
    partition_strategy(6).map(build_shape),
    strict_partition_strategy(6).map(build_shifted),
    naturally_labeled_posets(max_n=6),
)
FAMILIES = ("uniform", "lin", "rpp:direct", "rpp:via_theta_m", "rank")


def _family(poset, family: str, m: int) -> WeightedEnsemble | None:
    """One of the four toggle-symmetric families; None for the rank chain of
    a poset that is not graded."""
    if family == "uniform":
        return ensemble_uniform(poset)
    if family == "lin":
        return ensemble_lin(poset)
    if family.startswith("rpp:"):
        return ensemble_rpp(poset, m, mode=family[4:])
    try:
        rank_data(poset)
    except NotGraded:
        return None
    return ensemble_rank(poset)


@settings(max_examples=80, deadline=None)
@given(SYMMETRY_POSETS, st.sampled_from(FAMILIES), st.integers(1, 3))
def test_toggle_symmetry_matches_its_definition_on_the_families(poset, family, m):
    ensemble = _family(poset, family, m)
    if ensemble is not None:
        assert _reference_toggle_symmetry(ensemble)
        assert check_toggle_symmetry(ensemble)


@settings(max_examples=80, deadline=None)
@given(SYMMETRY_POSETS, st.data())
def test_toggle_symmetry_matches_its_definition_on_random_weights(poset, data):
    coeffs = st.lists(st.integers(0, 3), max_size=4)
    weights = {mask: QPoly.of(data.draw(coeffs)) for mask in order_ideals(poset)}
    weights[0] = weights[0] + QPoly.of([1])  # a nonzero normalizer
    normalizer = sum(weights.values(), QPoly.of([]))
    ensemble = WeightedEnsemble.from_weights(poset, weights, normalizer)
    assert check_toggle_symmetry(ensemble) == _reference_toggle_symmetry(ensemble)


@settings(max_examples=80, deadline=None)
@given(SYMMETRY_POSETS.filter(lambda poset: poset.n > 0), st.sampled_from(FAMILIES), st.data())
def test_toggle_symmetry_fails_once_a_family_is_perturbed(poset, family, data):
    # Every ideal of a nonempty poset has an element to toggle in or out, so
    # adding c q^k to one weight moves that element's expectation off zero.
    ensemble = _family(poset, family, data.draw(st.integers(1, 3)))
    if ensemble is None:
        ensemble = ensemble_uniform(poset)
    j = data.draw(st.integers(0, len(order_ideals(poset)) - 1))
    bump = QPoly.monomial(data.draw(st.integers(1, 3)), data.draw(st.integers(0, 4)))
    weights = list(ensemble.weights)
    weights[j] = weights[j] + bump
    perturbed = WeightedEnsemble(poset, tuple(weights), ensemble.normalizer + bump)
    assert not _reference_toggle_symmetry(perturbed)
    assert not check_toggle_symmetry(perturbed)


@pytest.mark.parametrize("family", FAMILIES)
def test_toggle_symmetry_fails_when_only_the_last_element_is_asymmetric(family):
    # The full ideal of a rectangle can only lose its top corner, the last
    # element, so a bump there breaks the symmetry at that element alone.
    poset = build_rectangle(2, 3)
    ensemble = _family(poset, family, 2)
    full = order_ideals(poset).index((1 << poset.n) - 1)
    weights = list(ensemble.weights)
    weights[full] = weights[full] + QPoly.monomial(1, 1)
    perturbed = WeightedEnsemble(poset, tuple(weights), ensemble.normalizer + QPoly.monomial(1, 1))
    asymmetric = [
        p for p in range(poset.n)
        if expectation(perturbed, statistic_toggle(poset, p)) != 0
    ]
    assert asymmetric == [poset.n - 1]
    assert not check_toggle_symmetry(perturbed)


@settings(max_examples=40, deadline=None)
@given(SYMMETRY_POSETS.filter(lambda poset: poset.n > 0))
def test_toggle_symmetry_fails_for_the_size_weighting(poset):
    # q^|I| pairs I with I + p as (1 - q^2) q^|I| at every element p
    weights = {mask: QPoly.monomial(1, mask.bit_count()) for mask in order_ideals(poset)}
    normalizer = sum(weights.values(), QPoly.of([]))
    skewed = WeightedEnsemble.from_weights(poset, weights, normalizer)
    assert not _reference_toggle_symmetry(skewed)
    assert not check_toggle_symmetry(skewed)


def test_ddeg_expectation_golden_2x2():
    level = expectation(ensemble_rpp(RECT22, 1), statistic_ddeg(RECT22))
    assert level == RatFunc(
        parse_poly("1 + 2*q + 2*q^2 + q^3"),
        parse_poly("1 + q + 2*q^2 + q^3 + q^4"),
    )
    prefix = expectation(ensemble_lin(RECT22), statistic_ddeg(RECT22))
    assert prefix == RatFunc(
        parse_poly("1 + 2*q + 2*q^2 + 2*q^3 + 2*q^4 + q^5"),
        qnum(5) * parse_poly("1 + q^2"),
    )


def test_ddeg_expectation_under_rank_chain():
    """E(ddeg) = sum over p of q^(rank(P) - rank(p)) / [rank(P) + 2]."""
    for poset in small_poset_corpus(6):
        try:
            data = rank_data(poset)
        except NotGraded:
            continue
        numerator = QPoly.of([])
        for r in data.ranks:
            numerator = numerator + QPoly.monomial(1, data.rank - r)
        expected = RatFunc(numerator, qnum(data.rank + 2))
        actual = expectation(ensemble_rank(poset), statistic_ddeg(poset))
        assert actual == expected
        # self-duality of the numerator: ranks reverse to coranks
        mirrored = QPoly.of([])
        for r in data.ranks:
            mirrored = mirrored + QPoly.monomial(1, r)
        assert actual == RatFunc(mirrored.reverse(data.rank), qnum(data.rank + 2))


def test_ddeg_expectations_match_doubled_cell_counts():
    """Numerators of E(ddeg) are the doubled-cell generating functions."""
    for poset in small_shape_corpus(5):
        lin = ensemble_lin(poset)
        lhs = expectation(lin, statistic_ddeg(poset)) * RatFunc(lin.normalizer)
        assert lhs == RatFunc(gf_bsv(poset).at_t1())
        for m in (1, 2):
            level = ensemble_rpp(poset, m)
            lhs = expectation(level, statistic_ddeg(poset)) * RatFunc(
                level.normalizer
            )
            assert lhs == RatFunc(gf_bsv_rpp(poset, m).at_t1())


def test_rpp_weights_are_self_dual():
    """Weight of I equals the degree-reversed dual weight of the complement."""
    for poset in small_shape_corpus(5):
        n = poset.n
        for m in (1, 2, 3):
            ensemble = ensemble_rpp(poset, m)
            mirror = ensemble_rpp(dual(poset), m)
            top = n * m + m - 1
            for mask in order_ideals(poset):
                other = bit_reverse_complement(mask, n)
                assert ensemble.weight(mask) == mirror.weight(other).reverse(top)


# ---------------------------------------------------------------------------
# the pairing involution on bounded fillings


def test_involution_golden():
    rpp = next(
        f for f in enumerate_rpp(RECT22, 2) if f.entries == (0, 1, 1, 2)
    )
    # element 3 has entries 1, 1 below and nothing above; entry 2
    assert involution_rpp(rpp, 0, 3) == (rpp, 0)  # k below both lower covers
    moved, k = involution_rpp(rpp, 1, 3)
    assert moved.entries == (0, 1, 1, 1) and k == 1
    back, k_back = involution_rpp(moved, k, 3)
    assert back == rpp and k_back == 1
    with pytest.raises(ValueError):
        involution_rpp(rpp, 2, 3)
    with pytest.raises(ValueError):
        involution_rpp(rpp, 0, 4)


def test_involution_pairs_toggles():
    for poset in small_poset_corpus(5):
        for m in (1, 2, 3):
            for rpp in enumerate_rpp(poset, m):
                for k in range(m):
                    mask = ideal_at_level(rpp, k)
                    for p in range(poset.n):
                        image, k2 = involution_rpp(rpp, k, p)
                        fixed = (image, k2) == (rpp, k)
                        if tin(poset, p, mask):
                            assert not fixed
                            assert image.size + k2 == rpp.size + k - 1
                            assert tout(poset, p, ideal_at_level(image, k2))
                        elif tout(poset, p, mask):
                            assert not fixed
                            assert image.size + k2 == rpp.size + k + 1
                            assert tin(poset, p, ideal_at_level(image, k2))
                        else:
                            assert fixed
                        again, k3 = involution_rpp(image, k2, p)
                        assert (again, k3) == (rpp, k)
