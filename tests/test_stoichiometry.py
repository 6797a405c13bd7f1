import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from entrokit.correlations import JointState
from entrokit.equilibrium import EquilibriumProblem, solution_at
from entrokit.errors import DomainError, NegativeAmount
from entrokit.matter_models import IdealGasMixture, Parameters, Species
from entrokit.open_systems import OpenGrid, ReferenceEnvironment
from entrokit.stoichiometry import (
    RCOND,
    Composition,
    ReactionCoordinates,
    ReactionNetwork,
    _lstsq,
    _pinv,
    _svd,
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
    residuals = np.abs(grid[:, None] * np.array(WATER.rows)[:, 0][None, :] - delta).max(axis=1)
    assert residuals.min() > 0.1
    assert np.abs(np.array(WATER.conserved, ndmin=2) @ delta).max() > 0.1
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
    # one (constituent, coordinates) pair: half a reaction forms one H2O
    ((k, eps),) = report.producible
    assert k == 2 and eps.epsilon == pytest.approx((0.5,), abs=1e-12)


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


@pytest.mark.parametrize("rows", [
    [[-2, 0], [-1, -1], [2, 0], [0, 1]],
    ((-2.0, 0.0), (-1.0, -1.0), (2.0, 0.0), (0.0, 1.0)),
    np.array([[-2, 0], [-1, -1], [2, 0], [0, 1]]),
], ids=["lists", "tuples", "array"])
def test_network_holds_float_rows_compared_and_hashed_by_value(rows):
    net = ReactionNetwork(rows)
    want = ReactionNetwork([[-2.0, 0.0], [-1.0, -1.0], [2.0, 0.0], [0.0, 1.0]])
    assert net == want and hash(net) == hash(want) and len({net, want}) == 1
    assert net.rows == ((-2.0, 0.0), (-1.0, -1.0), (2.0, 0.0), (0.0, 1.0))
    assert all(type(x) is float for row in net.rows for x in row)
    assert (net.n_constituents, net.n_reactions) == (4, 2)
    assert net != ReactionNetwork([[-2.0, 0.0], [-1.0, -1.0], [2.0, 0.0], [0.0, 2.0]])


def test_network_without_reactions():
    net = ReactionNetwork(np.zeros((2, 0)))
    assert net.rows == ((), ()) and (net.n_constituents, net.n_reactions) == (2, 0)
    assert np.array(net.rows).shape == (2, 0) and net.rank == 0 and net.independent_columns == ()
    assert net == ReactionNetwork([[], []])


@pytest.mark.parametrize("scale", [1e-300, 1e-12, 1.0, 1e300])
def test_network_rank_is_relative_to_its_largest_coefficient(scale):
    # the second reaction is the first one doubled, the third independent
    net = ReactionNetwork([[-scale, -2.0 * scale, 0.0], [scale, 2.0 * scale, -scale],
                           [0.0, 0.0, scale]])
    assert net.columns == ((-scale, scale, 0.0), (-2.0 * scale, 2.0 * scale, 0.0),
                           (0.0, -scale, scale))
    assert net.rank == 2 and net.independent_columns == (0, 2)


@pytest.mark.parametrize("rows", [[1.0, -1.0], [[1.0, -1.0], [2.0]], np.ones((2, 2, 2)),
                                  [[float("nan")], [1.0]], [], 3.0],
                         ids=["vector", "ragged", "three-dimensional", "nan", "empty", "scalar"])
def test_network_refuses_what_is_not_a_finite_matrix(rows):
    with pytest.raises(ValueError):
        ReactionNetwork(rows)


def test_saved_network_round_trips():
    from entrokit.scenario import parse_scenario, serialize_scenario

    text = (Path(__file__).resolve().parent.parent / "scenarios" / "demo_equilibrium.scn"
            ).read_text(encoding="utf-8")
    scn = parse_scenario(text)
    again = parse_scenario(serialize_scenario(scn))
    assert again.network == scn.network and again.network.rows == scn.network.rows
    assert serialize_scenario(again) == serialize_scenario(scn)


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
    conserved = np.array(WATER.conserved, ndmin=2)
    assert np.max(np.abs(conserved @ (np.array(n1) - np.array(n0)))) <= 1e-9
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


ELEMENTS = (IdealGasMixture([Species("H2", 5.0)]), IdealGasMixture([Species("O2", 5.0)]))


def _water_net(scale):
    return ReactionNetwork([[-2.0], [-1.0], [2.0 * scale]])


#: Builders, from plain numbers, of each type that compares and hashes by
#: value and holds an array, a network or a table; ``scale`` 1 and 2 give
#: unequal instances.
ARRAY_HOLDERS = {
    "ReactionNetwork": _water_net,
    "ReactionCoordinates": lambda scale: ReactionCoordinates([0.25 * scale, 0.5]),
    "JointState": lambda scale: JointState([[0.5, 0.0], [0.0, 0.5]], [0.0, scale], [0.0, 1.0]),
    "OpenGrid": lambda scale: OpenGrid((9.0,), (1.5,), ([1.0, 0.5, 1.0],), reactive=True,
                                       network=_water_net(scale)),
    "EquilibriumProblem": lambda scale: EquilibriumProblem(
        (MIX,), (Parameters([1.0]),), (Composition([2.0, 1.0, 0.0]),), 8.0,
        network=_water_net(scale)),
    "ReferenceEnvironment": lambda scale: ReferenceEnvironment.natural_convention(
        ("H2", "O2", "H2O"), (0, 1), _water_net(scale), ELEMENTS, 1.0, 1.0),
}


@pytest.mark.parametrize("kind", sorted(ARRAY_HOLDERS))
def test_array_holding_types_compare_and_hash_as_values(kind):
    build = ARRAY_HOLDERS[kind]
    a, b = build(1.0), build(1.0)
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != build(2.0)


@pytest.mark.parametrize("amounts, want", [
    ([1.0, -1e-11], NegativeAmount),
    ([1.0, -1e-13], (1.0, 0.0)),
    ([[1.0, 2.0]], ValueError),
    ([[1.0], [2.0]], ValueError),
    (np.ones((2, 2)), ValueError),
    (np.array([2.0, 0.5]), (2.0, 0.5)),
    ((np.float64(1.0), 2), (1.0, 2.0)),
    (3.0, (3.0,)),
    ("12", (12.0,)),
    ("ab", ValueError),
    (range(3), (0.0, 1.0, 2.0)),
    ({1.0, 2.0}, ValueError),
    ({1.0: 2.0}, ValueError),
    (iter([1.0, 2.0]), ValueError),
], ids=["below-tolerance", "rounding-noise", "row", "column", "matrix", "array",
        "numpy-scalars", "scalar", "numeric-string", "text", "range", "set", "mapping",
        "iterator"])
def test_composition_clamps_and_refuses(amounts, want):
    if isinstance(want, type):
        with pytest.raises(want):
            Composition(amounts)
        return
    comp = Composition(amounts)
    assert type(comp.amounts) is tuple and comp.amounts == want
    assert all(type(x) is float and math.copysign(1.0, x) == 1.0 for x in comp.amounts)


# the Jacobi SVD against numpy.linalg as the oracle

SCALES = st.sampled_from([1e-100, 1.0, 1e100])
#: Reals in [-10, 10], those below 1e-100 in size as zero: scaled, they stay
#: clear of subnormal numbers, whose rounding no solver can undo.
REALS = st.floats(-10.0, 10.0).map(lambda x: x if abs(x) >= 1e-100 else 0.0)


def _grid(rows, cols, entries):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def matrices(draw):
    """m x n matrices up to 6 x 4, wide ones included: integer entries, real
    ones, or the integer product of two factors of a lower inner size, which
    has that rank at most; scaled by 1e-100, 1 or 1e100."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    ints = st.integers(-3, 3)
    kind = draw(st.sampled_from(["integer", "real", "deficient"]))
    if kind == "integer":
        a = draw(_grid(m, n, ints))
    elif kind == "real":
        a = draw(_grid(m, n, REALS))
    else:
        r = draw(st.integers(0, min(m, n) - 1))
        b, c = draw(_grid(m, r, ints)), draw(_grid(r, n, ints))
        a = [[sum(x * c[k][j] for k, x in enumerate(row)) for j in range(n)] for row in b]
    scale = draw(SCALES)
    return [[float(x) * scale for x in row] for row in a]


@pytest.mark.parametrize("rows", [
    [[1e300, 0.0, math.inf], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    [[math.nan, 1.0], [1.0, 2.0]],
    [[1e308, 0.0, math.nan], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
], ids=["inf-beside-an-overflowing-column", "nan-first", "nan-last"])
def test_jacobi_svd_of_non_finite_entries_raises_nothing(rows):
    # the element-potential dual's Newton systems can hold overflowed
    # entries; they end as non-finite values, never as an exception
    s, u, v = _svd(rows)
    assert len(s) == len(u) == len(v) == len(rows[0])
    assert len(_pinv(rows)) == len(rows[0])


@given(matrices())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_jacobi_rank_matches_numpy(a):
    tol = 1e-10 * max(abs(x) for row in a for x in row)  # ReactionNetwork's cutoff
    s = np.linalg.svd(np.array(a), compute_uv=False)
    assume(np.all(np.abs(s - tol) > 1e-12 * s.max()))  # no value that rounding could move across
    assert sum(x > tol for x in _svd(a)[0]) == np.linalg.matrix_rank(np.array(a), tol=tol)


@given(matrices())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_conserved_rows_complement_the_jacobi_rank(a):
    assume(all(any(col) for col in zip(*a)))  # a network has no all-zero reaction
    net = ReactionNetwork(a)
    s = np.linalg.svd(np.array(a), compute_uv=False)
    assume(np.all(np.abs(s - net._rank_tol) > 1e-12 * s.max()))
    assert len(net.conserved) == net.n_constituents - net.rank
    assert all(len(row) == net.n_constituents for row in net.conserved)
    conserved = np.reshape(net.conserved, (-1, net.n_constituents))
    scaled = np.array(net.rows) / max(abs(x) for row in a for x in row)
    assert np.max(np.abs(conserved @ scaled), initial=0.0) <= 1e-9


def _kept(a) -> np.ndarray:
    """The singular values of ``a`` that the RCOND cutoff keeps, when every
    one is either kept with a condition number at most 1e3 or at rounding
    level (else the example is skipped)."""
    s = np.linalg.svd(np.array(a), compute_uv=False)
    top = s.max()
    assume(np.all((s >= 1e-3 * top) | (s <= 1e-12 * top)))
    return s[s > RCOND * top]


@given(matrices())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_jacobi_pinv_matches_numpy(a):
    _kept(a)
    want = np.linalg.pinv(np.array(a), rcond=RCOND)
    assume(np.all(np.isfinite(want)))  # an inverse that overflows has no digits to compare
    got = np.array(_pinv(a)).reshape(want.shape)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-9 * np.max(np.abs(want), initial=0.0)


@given(matrices().flatmap(lambda a: st.tuples(
    st.just(a), st.lists(REALS, min_size=len(a), max_size=len(a)), SCALES)))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_jacobi_lstsq_is_numpys_minimum_norm_solution(case):
    a, b, scale = case
    b = [x * scale for x in b]
    kept = _kept(a)
    want = np.linalg.lstsq(np.array(a), np.array(b), rcond=RCOND)[0]
    assume(np.all(np.isfinite(want)))  # an answer that overflows has no digits to compare
    got = _lstsq(a, b)
    assert len(got) == len(want) and all(type(x) is float for x in got)
    size = np.max(np.abs(want), initial=0.0) + np.max(np.abs(b)) / kept.min(initial=np.inf)
    assert np.max(np.abs(np.array(got) - want), initial=0.0) <= 1e-9 * size


def test_jacobi_svd_handles_empty_and_zero_matrices():
    assert _svd([]) == ([], [], [])
    assert _pinv([[], []]) == [] and _lstsq([[], []], [1.0, 2.0]) == []
    assert _pinv([[0.0, 0.0]]) == [[0.0], [0.0]]
    # entries near either float limit keep finite norms and an exact scale
    for x in (1e300, 1e-300):
        s, u, v = _svd([[x, 0.0], [0.0, 2.0 * x], [0.0, 0.0]])
        assert sorted(s) == [x, 2.0 * x]
        assert _pinv([[x], [x]]) == [[pytest.approx(0.5 / x, rel=1e-15)] * 2]
