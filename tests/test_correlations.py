import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrokit import checks
from entrokit.correlations import (
    JointState,
    decorrelation_entropy,
    joint_energy,
    joint_entropies,
    load_joint_csv,
    marginals,
    product_state,
)
from entrokit.errors import ParseError


def make_joint(table, ea=None, eb=None):
    table = np.asarray(table, dtype=float)
    m, k = table.shape
    ea = np.arange(m, dtype=float) if ea is None else np.asarray(ea, dtype=float)
    eb = np.arange(k, dtype=float) if eb is None else np.asarray(eb, dtype=float)
    return JointState(table, ea, eb)


def random_joint(rng, m=None, k=None):
    m = m or int(rng.integers(2, 5))
    k = k or int(rng.integers(2, 5))
    table = rng.random((m, k))
    table /= table.sum()
    return make_joint(table, rng.normal(size=m), rng.normal(size=k))


def test_marginals_of_product_table():
    pa, pb = np.array([0.3, 0.7]), np.array([0.2, 0.5, 0.3])
    joint = make_joint(np.outer(pa, pb))
    m = marginals(joint)
    assert np.allclose(m.p_a, pa, atol=1e-15)
    assert np.allclose(m.p_b, pb, atol=1e-15)


def test_marginals_of_diagonal_table():
    m = marginals(make_joint([[0.5, 0.0], [0.0, 0.5]]))
    assert np.allclose(m.p_a, [0.5, 0.5])
    assert np.allclose(m.p_b, [0.5, 0.5])


def test_sigma_zero_for_product():
    pa, pb = np.array([0.25, 0.75]), np.array([0.6, 0.1, 0.3])
    joint = make_joint(np.outer(pa, pb))
    assert decorrelation_entropy(joint) == pytest.approx(0.0, abs=1e-12)


def test_sigma_of_perfectly_correlated_pair():
    joint = make_joint([[0.5, 0.0], [0.0, 0.5]])
    assert decorrelation_entropy(joint) == pytest.approx(math.log(2.0), abs=1e-12)


def test_sigma_matches_mutual_information_oracle():
    rng = np.random.default_rng(21)
    for _ in range(50):
        joint = random_joint(rng, 4, 4)
        p = joint.table
        m = marginals(joint)
        # independent oracle: sum p_ij ln(p_ij / (pa_i pb_j))
        mi = 0.0
        for i in range(4):
            for j in range(4):
                if p[i, j] > 0:
                    mi += p[i, j] * math.log(p[i, j] / (m.p_a[i] * m.p_b[j]))
        assert decorrelation_entropy(joint) == pytest.approx(mi, abs=1e-12)


def test_joint_energy_uniform_two_by_two():
    joint = make_joint(np.full((2, 2), 0.25), [0.0, 1.0], [0.0, 1.0])
    assert joint_energy(joint) == pytest.approx(1.0, abs=1e-15)


def test_joint_energy_depends_only_on_marginals():
    # product versus perfectly correlated with the same marginals: equal
    # energy, different decorrelation entropy
    diag = make_joint([[0.5, 0.0], [0.0, 0.5]], [0.0, 2.0], [1.0, 3.0])
    prod = product_state(diag)
    assert joint_energy(diag) == pytest.approx(joint_energy(prod), abs=1e-15)
    assert decorrelation_entropy(diag) > decorrelation_entropy(prod)


def test_joint_energy_double_sum_oracle():
    rng = np.random.default_rng(22)
    for _ in range(20):
        joint = random_joint(rng)
        expected = float(np.einsum(
            "ij,ij->", joint.table,
            joint.energies_a[:, None] + joint.energies_b[None, :],
        ))
        assert joint_energy(joint) == pytest.approx(expected, abs=1e-12)


def _difference_through_marginals(j1, j2):
    """S2 - S1 of two correlated composites from the subsystem entropy changes
    and the change of decorrelation entropy, as ``joint_entropies`` gives them."""
    _, a1, b1, sigma1 = joint_entropies(j1)
    _, a2, b2, sigma2 = joint_entropies(j2)
    return (a2 - a1) + (b2 - b1) - (sigma2 - sigma1)


def test_joint_entropies_difference_of_identical_joints_vanishes():
    joint = make_joint([[0.5, 0.0], [0.0, 0.5]])
    assert _difference_through_marginals(joint, joint) == 0.0


def test_joint_entropies_decorrelation_step_gains_sigma():
    joint = make_joint([[0.4, 0.1], [0.1, 0.4]])
    prod = product_state(joint)
    diff = _difference_through_marginals(joint, prod)
    assert diff == pytest.approx(decorrelation_entropy(joint), abs=1e-12)
    assert joint_entropies(prod)[0] - joint_entropies(joint)[0] == pytest.approx(diff, abs=1e-12)
    assert diff >= 0.0


def test_joint_entropies_difference_equals_joint_shannon_difference():
    rng = np.random.default_rng(23)
    for _ in range(50):
        j1 = random_joint(rng, 3, 3)
        j2 = random_joint(rng, 3, 3)
        p1, p2 = j1.table.ravel(), j2.table.ravel()
        h1 = -sum(x * math.log(x) for x in p1 if x > 0)
        h2 = -sum(x * math.log(x) for x in p2 if x > 0)
        assert _difference_through_marginals(j1, j2) == pytest.approx(h2 - h1, abs=1e-12)
        assert joint_entropies(j2)[0] - joint_entropies(j1)[0] == pytest.approx(h2 - h1,
                                                                                abs=1e-12)


def test_invalid_tables_rejected():
    with pytest.raises(ValueError):
        make_joint([[0.5, 0.6]])
    with pytest.raises(ValueError):
        make_joint([[0.7, -0.1], [0.2, 0.2]])
    with pytest.raises(ValueError):
        JointState(np.full((2, 2), 0.25), [0.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        make_joint([[0.5, math.nan], [0.0, 0.5]])
    with pytest.raises(ValueError):
        make_joint([[0.5, 0.0], [0.0, 0.5]], ea=[0.0, math.inf])


prob_rows = st.lists(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=3, max_size=3),
    min_size=3, max_size=3,
)


@given(prob_rows)
@settings(max_examples=300)
def test_sigma_nonnegative_property(rows):
    table = np.array(rows)
    table /= table.sum()
    joint = make_joint(table)
    sigma = decorrelation_entropy(joint)
    assert sigma >= -1e-15
    # decorrelating can only raise the table's spread
    prod = product_state(joint)
    h_joint = -float(np.sum(table * np.log(table)))
    h_prod = -float(np.sum(prod.table * np.log(prod.table)))
    assert h_prod >= h_joint - 1e-12


@given(prob_rows)
@settings(max_examples=200)
def test_energy_invariant_under_marginal_preserving_mix(rows):
    table = np.array(rows)
    table /= table.sum()
    joint = make_joint(table)
    # mixing toward the product preserves both marginals exactly
    lam = 0.37
    mixed = make_joint(lam * table + (1 - lam) * product_state(joint).table,
                       joint.energies_a, joint.energies_b)
    assert joint_energy(mixed) == pytest.approx(joint_energy(joint), abs=1e-12)


def test_sigma_zero_iff_product():
    rng = np.random.default_rng(24)
    for _ in range(200):
        joint = random_joint(rng)
        sigma = decorrelation_entropy(joint)
        prod_gap = float(np.max(np.abs(
            joint.table - np.outer(marginals(joint).p_a, marginals(joint).p_b)
        )))
        if sigma <= 1e-12:
            assert prod_gap <= 1e-5
        if prod_gap <= 1e-15:
            assert sigma <= 1e-12


@pytest.mark.parametrize("text, line", [
    ("0,1\n0,1\na,b\n0,0.5\n", 3),               # a cell that is not a number
    ("# energies\n0,1\n\n0,1\n", 4),              # no table rows
    ("0,1\n0,1\n0.5,0\n0,0.25\n", 3),             # JointState: sums to 0.75
    ("0,1\n0,1\n0.5,0\n0.5\n", 3),                # ragged table
    ("0,1\n0,1\n0.5,nan\n0,0.5\n", 3),            # non-finite probability
], ids=["non-numeric", "too-few-rows", "not-normalized", "ragged", "nan"])
def test_load_joint_csv_reports_parse_errors_with_line(tmp_path, text, line):
    path = tmp_path / "joint.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_joint_csv(path)
    assert err.value.line == line


def test_load_joint_csv_round_trip(tmp_path):
    path = tmp_path / "joint.csv"
    path.write_text("# comment\n0,1\n0,1\n0.5,0\n0,0.5\n", encoding="utf-8")
    joint = load_joint_csv(path)
    assert decorrelation_entropy(joint) == pytest.approx(math.log(2.0), abs=1e-12)
    assert joint_energy(joint) == pytest.approx(1.0, abs=1e-15)


def _decorrelation_oracle(rng, n, max_dim):
    """decorrelation_check as a per-sample loop over validated JointStates."""
    worst, ok = math.inf, True
    for _ in range(n):
        m = int(rng.integers(2, max_dim + 1))
        k = int(rng.integers(2, max_dim + 1))
        table = rng.random((m, k))
        table /= table.sum()
        joint = JointState(table, rng.normal(size=m), rng.normal(size=k))
        sigma = decorrelation_entropy(joint)
        worst = min(worst, sigma)
        prod = product_state(joint)
        gap = abs(joint_energy(joint) - joint_energy(prod))
        ok = ok and sigma >= 0.0 and decorrelation_entropy(prod) <= 1e-12 \
            and gap <= 1e-12 * max(1.0, abs(joint_energy(joint)))
    return ok, n, worst


@pytest.mark.parametrize("max_dim", [2, 4])
@pytest.mark.parametrize("seed", [0, 5])
def test_batched_decorrelation_check_matches_the_per_sample_loop(seed, max_dim):
    rng_batch, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
    result = checks.decorrelation_check(rng_batch, n=300, max_dim=max_dim)
    ok, n_trials, worst = _decorrelation_oracle(rng_loop, 300, max_dim)
    assert (result.passed, result.n_trials) == (ok, n_trials)
    assert result.worst == pytest.approx(worst, abs=1e-15)
    assert rng_batch.random() == rng_loop.random()  # same draws, in the same order


def test_decorrelation_check_builds_no_joint_state(monkeypatch):
    built = []
    post_init = JointState.__post_init__
    monkeypatch.setattr(JointState, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    assert checks.decorrelation_check(np.random.default_rng(0), 2000).passed
    assert built == []
    make_joint(np.full((2, 2), 0.25))  # the patch counts a JointState when one is built
    assert built == [1]
