import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrokit.equilibrium import EquilibriumProblem, solution_at
from entrokit.errors import DomainError, NegativeAmount
from entrokit.matter_models import IdealGasMixture, Parameters, Species
from entrokit.open_systems import ReferenceEnvironment
from entrokit.stoichiometry import (
    Composition,
    ReactionNetwork,
    validate_elemental_set,
)

WATER = ReactionNetwork([[-2.0], [-1.0], [2.0]])  # 2 H2 + O2 -> 2 H2O
MIX = IdealGasMixture([Species("H2", 5.0), Species("O2", 5.0), Species("H2O", 6.0)])


def advanced(n0, eps):
    """The amounts ``solution_at`` reaches from ``n0`` at the extents ``eps``."""
    prob = EquilibriumProblem((MIX,), (Parameters([1.0]),), (Composition(n0),), 50.0,
                              network=WATER)
    return solution_at(prob, eps).states[0].comp.amounts


def water_env(network=WATER):
    return ReferenceEnvironment.natural_convention(
        ("H2", "O2", "H2O"), (0, 1), network,
        (IdealGasMixture([Species("H2", 5.0)]), IdealGasMixture([Species("O2", 5.0)])),
        1.0, 1.0)


@pytest.mark.parametrize("eps, want", [(1.0, (0.0, 0.0, 2.0)), (0.0, (2.0, 1.0, 0.0)),
                                       (0.5, (1.0, 0.5, 1.0))], ids=["full", "zero", "half"])
def test_solution_at_advances_the_amounts_by_the_extents(eps, want):
    assert advanced([2, 1, 0], [eps]) == want


def test_solution_at_rejects_a_negative_amount():
    with pytest.raises(NegativeAmount) as err:
        advanced([2, 1, 0], [2.0])
    assert err.value.index in (0, 1)


def test_decompose_difference_recovers_the_extent():
    env = water_env()
    (w1, eps1), (w2, eps2) = (env.decompose(Composition(n)) for n in ([2, 1, 0], [0, 0, 2]))
    assert w1 == pytest.approx(w2, abs=1e-12)
    assert eps2[0] - eps1[0] == pytest.approx(1.0, abs=1e-12)


def test_decompose_of_identical_compositions_is_identical():
    env = water_env()
    n = Composition([2, 1, 0])
    assert env.decompose(n) == env.decompose(Composition([2.0, 1.0, 0.0]))


def test_conserved_rows_detect_an_unreachable_change():
    # oracle: scan extents on a fine grid; the residual never approaches zero
    delta = np.array([1, 1, 1]) - np.array([2, 1, 0])
    grid = np.linspace(-3.0, 3.0, 6001)
    residuals = np.abs(grid[:, None] * WATER.stoich[:, 0][None, :] - delta).max(axis=1)
    assert residuals.min() > 0.1
    assert np.abs(WATER.conserved @ delta).max() > 0.1
    w1, _ = water_env().decompose(Composition([2, 1, 0]))
    w2, _ = water_env().decompose(Composition([1, 1, 1]))
    assert max(abs(a - b) for a, b in zip(w1, w2)) > 0.1


def test_decompose_minimum_norm_on_redundant_network():
    # two identical columns: any split of the extent works; the content maps
    # take the minimum-norm split (equal halves)
    net = ReactionNetwork([[-2, -2], [-1, -1], [2, 2]])
    _, eps = water_env(net).decompose(Composition([0, 0, 2]))
    assert eps == pytest.approx((0.5, 0.5), abs=1e-12)


@pytest.mark.parametrize("inflow, extent", [((0.0, 0.0), 1.0), ((5.0, 0.0), 0.0),
                                            ((2.0, 1.0), 1.0)],
                         ids=["reaction-only", "pure-exchange", "superposition"])
def test_decompose_splits_a_balance_into_exchange_and_reaction(inflow, extent):
    # from (2, 1, 0): an elemental inflow plus the reaction change nu eps,
    # which decompose takes apart again
    n = [2.0 + inflow[0] - 2.0 * extent, 1.0 + inflow[1] - extent, 2.0 * extent]
    w, eps = water_env().decompose(Composition(n))
    w0, eps0 = water_env().decompose(Composition([2.0, 1.0, 0.0]))
    assert [a - b for a, b in zip(w, w0)] == pytest.approx(list(inflow), abs=1e-12)
    assert eps[0] - eps0[0] == pytest.approx(extent, abs=1e-12)


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
def test_solution_at_composes_linearly(amounts, e1, e2):
    n0 = [x + 2.0 for x in amounts]  # keep results positive
    one = advanced(n0, [e1 + e2])
    two = advanced(advanced(n0, [e1]), [e2])
    assert max(abs(a - b) for a, b in zip(one, two)) <= 1e-12


@given(amounts_strategy, eps_strategy)
@settings(max_examples=200)
def test_conserved_rows_and_decompose_round_trip(amounts, eps):
    n0 = [x + 2.0 for x in amounts]
    n1 = advanced(n0, [eps])
    assert np.max(np.abs(WATER.conserved @ (np.array(n1) - np.array(n0)))) <= 1e-9
    env = water_env()
    back = env.decompose(Composition(n1))[1][0] - env.decompose(Composition(n0))[1][0]
    assert abs(back - eps) <= 1e-9


@given(st.floats(0, 5), st.floats(0, 5), st.floats(0, 5), st.floats(0, 5))
@settings(max_examples=100)
def test_decompose_is_linear(a, b, c, d):
    env = water_env()
    n1, n2 = [a, b, 0.0], [c, d, 1.0]
    w, eps = env.decompose(Composition([x + y for x, y in zip(n1, n2)]))
    w1, eps1 = env.decompose(Composition(n1))
    w2, eps2 = env.decompose(Composition(n2))
    assert [x + y for x, y in zip(w1, w2)] == pytest.approx(list(w), abs=1e-9)
    assert eps1[0] + eps2[0] == pytest.approx(eps[0], abs=1e-9)


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
    assert c.total == sum(c.amounts)
    assert (c.total > 0.0) == any(x > 0.0 for x in c.amounts)


def test_all_zero_composition_is_outside_the_mixture_domain():
    mix = IdealGasMixture([Species("a", 3.0), Species("b", 5.0)])
    with pytest.raises(DomainError):
        mix.entropy(1.0, Parameters([1.0]), Composition([0.0, -1e-14]))


def test_compositions_compare_and_hash_as_values():
    a, b = Composition([1.0, 2.0]), Composition(np.array([1.0, 2.0]))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Composition([1.0, 2.5]) and a != Composition([1.0, 2.0, 0.0])


@pytest.mark.parametrize("amounts, want", [
    ([1.0, -1e-11], NegativeAmount),
    ([1.0, -1e-13], (1.0, 0.0)),
    ([[1.0, 2.0]], ValueError),
    ([[1.0], [2.0]], ValueError),
    (np.ones((2, 2)), ValueError),
    (np.array([2.0, 0.5]), (2.0, 0.5)),
    ((np.float64(1.0), 2), (1.0, 2.0)),
    (3.0, (3.0,)),
], ids=["below-tolerance", "rounding-noise", "row", "column", "matrix", "array",
        "numpy-scalars", "scalar"])
def test_composition_clamps_and_refuses(amounts, want):
    if isinstance(want, type):
        with pytest.raises(want):
            Composition(amounts)
        return
    comp = Composition(amounts)
    assert type(comp.amounts) is tuple and comp.amounts == want
    assert all(type(x) is float and math.copysign(1.0, x) == 1.0 for x in comp.amounts)
