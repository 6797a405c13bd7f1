import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrokit.errors import DomainError, NegativeAmount
from entrokit.matter_models import IdealGasMixture, Parameters, Species
from entrokit.stoichiometry import (
    Composition,
    ReactionCoordinates,
    ReactionNetwork,
    apply_reactions,
    balance_rate,
    compatibility,
    validate_elemental_set,
)

WATER = ReactionNetwork([[-2.0], [-1.0], [2.0]])  # 2 H2 + O2 -> 2 H2O


def test_apply_reactions_full_extent():
    out = apply_reactions(Composition([2, 1, 0]), WATER, ReactionCoordinates([1.0]))
    assert np.allclose(out.amounts, [0, 0, 2])


def test_apply_reactions_zero_extent_is_identity():
    n0 = Composition([2, 1, 0])
    out = apply_reactions(n0, WATER, ReactionCoordinates([0.0]))
    assert np.array_equal(out.amounts, n0.amounts)


def test_apply_reactions_half_extent():
    out = apply_reactions(Composition([2, 1, 0]), WATER, ReactionCoordinates([0.5]))
    assert np.allclose(out.amounts, [1, 0.5, 1])


def test_apply_reactions_rejects_negative_result():
    with pytest.raises(NegativeAmount) as err:
        apply_reactions(Composition([2, 1, 0]), WATER, ReactionCoordinates([2.0]))
    assert err.value.index in (0, 1)


def test_compatibility_inverts_apply():
    eps = compatibility(Composition([2, 1, 0]), Composition([0, 0, 2]), WATER)
    assert eps is not None
    assert np.allclose(eps.epsilon, [1.0])


def test_compatibility_identical_compositions():
    n = Composition([2, 1, 0])
    eps = compatibility(n, n, WATER)
    assert eps is not None
    assert np.allclose(eps.epsilon, [0.0])


def test_compatibility_absent_when_off_column_space():
    # oracle: scan extents on a fine grid; the residual never approaches zero
    n1, n2 = Composition([2, 1, 0]), Composition([1, 1, 1])
    delta = n2.amounts - n1.amounts
    grid = np.linspace(-3.0, 3.0, 6001)
    residuals = np.abs(grid[:, None] * WATER.stoich[:, 0][None, :] - delta).max(axis=1)
    assert residuals.min() > 0.1
    assert compatibility(n1, n2, WATER) is None


def test_compatibility_minimum_norm_on_redundant_network():
    # two identical columns: any split of the extent works; lstsq returns
    # the minimum-norm split (equal halves)
    net = ReactionNetwork([[-2, -2], [-1, -1], [2, 2]])
    eps = compatibility(Composition([2, 1, 0]), Composition([0, 0, 2]), net)
    assert eps is not None
    assert np.allclose(eps.epsilon, [0.5, 0.5])


def test_balance_rate_reaction_only():
    out = balance_rate(WATER, [1.0], [0.0, 0.0, 0.0])
    assert np.allclose(out, [-2, -1, 2])


def test_balance_rate_pure_exchange():
    out = balance_rate(WATER, [0.0], [5.0, 0.0, 0.0])
    assert np.allclose(out, [5, 0, 0])


def test_balance_rate_superposition():
    out = balance_rate(WATER, [1.0], [2.0, 1.0, 0.0])
    assert np.allclose(out, [0, 0, 2])


def test_elemental_set_complete_and_independent():
    report = validate_elemental_set({0, 1}, WATER)
    assert report.complete and report.independent and report.valid
    assert 2 in report.producible


def test_elemental_set_water_alone_incomplete():
    report = validate_elemental_set({2}, WATER)
    assert not report.complete
    assert set(report.unreachable) == {0, 1}


def test_elemental_set_everything_not_independent():
    report = validate_elemental_set({0, 1, 2}, WATER)
    assert report.complete
    assert not report.independent
    assert report.violating_reactions == (0,)


def test_network_rejects_zero_column():
    with pytest.raises(ValueError):
        ReactionNetwork([[0.0], [0.0]])


def test_composition_clamps_rounding_noise():
    c = Composition([1.0, -1e-14])
    assert c.amounts[1] == 0.0


amounts_strategy = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=3, max_size=3
)
eps_strategy = st.floats(min_value=-0.4, max_value=0.4, allow_nan=False)


@given(amounts_strategy, eps_strategy, eps_strategy)
@settings(max_examples=200)
def test_apply_reactions_composes_linearly(amounts, e1, e2):
    n0 = Composition(np.array(amounts) + 2.0)  # keep results positive
    one = apply_reactions(n0, WATER, ReactionCoordinates([e1 + e2]))
    two = apply_reactions(
        apply_reactions(n0, WATER, ReactionCoordinates([e1])),
        WATER,
        ReactionCoordinates([e2]),
    )
    assert np.allclose(one.amounts, two.amounts, atol=1e-12)


@given(amounts_strategy, eps_strategy)
@settings(max_examples=200)
def test_compatibility_round_trip(amounts, eps):
    n0 = Composition(np.array(amounts) + 2.0)
    n1 = apply_reactions(n0, WATER, ReactionCoordinates([eps]))
    back = compatibility(n0, n1, WATER)
    assert back is not None
    assert np.max(np.abs(WATER.stoich @ back.epsilon - WATER.stoich @ [eps])) <= 1e-9


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=100)
def test_balance_rate_is_linear(a, b, c, d):
    inflow1, inflow2 = np.array([a, b, 0.0]), np.array([c, d, 1.0])
    r1, r2 = np.array([a]), np.array([d])
    lhs = balance_rate(WATER, r1 + r2, inflow1 + inflow2)
    rhs = balance_rate(WATER, r1, inflow1) + balance_rate(WATER, r2, inflow2)
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_independence_failure_always_has_witness():
    nets = [
        ReactionNetwork([[-1.0], [1.0]]),
        ReactionNetwork([[-2, 0], [-1, -1], [2, 0], [0, 1]]),
    ]
    for net in nets:
        full = set(range(net.n_constituents))
        report = validate_elemental_set(full, net)
        assert not report.independent
        assert len(report.violating_reactions) >= 1


def test_composition_reports_first_negative_index():
    with pytest.raises(NegativeAmount) as info:
        Composition([1.0, -1e-14, -0.5, -2.0])
    assert info.value.index == 2
    assert info.value.value == -0.5


@given(st.lists(st.floats(min_value=-1e-13, max_value=10.0), min_size=1, max_size=12))
@settings(max_examples=100)
def test_composition_total_is_the_sum_of_amounts(amounts):
    c = Composition(amounts)
    assert c.total == float(c.amounts.sum())
    assert (c.total > 0.0) == bool(np.any(c.amounts > 0.0))


def test_all_zero_composition_is_outside_the_mixture_domain():
    mix = IdealGasMixture([Species("a", 3.0), Species("b", 5.0)])
    with pytest.raises(DomainError):
        mix.entropy(1.0, Parameters([1.0]), Composition([0.0, -1e-14]))
