import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrdefault._num import (
    exp_alpha_value,
    exp_beta_pair,
    expm1_over,
    geometric_grid,
    inv_softplus,
    mobius_from_log,
    phi_minus,
    phi_minus_diff,
    popcounts,
    softplus,
    zeta_over_subsets,
    zeta_over_supersets,
)

from oracles import subset_bit_matrix


def test_softplus_round_trip(rng):
    x = rng.uniform(-5.0, 5.0, 50)
    np.testing.assert_allclose(inv_softplus(softplus(x)), x, atol=1e-10)


def test_expm1_over_limits():
    assert expm1_over(np.array([0.0]))[0] == 1.0
    x = np.array([1e-12, 1e-3, 1.0, -2.0])
    np.testing.assert_allclose(expm1_over(x), np.expm1(x) / x, rtol=1e-13)


def test_phi_minus_limits():
    assert phi_minus(np.array([0.0]))[0] == 1.0
    x = np.array([1e-12, 0.01, 3.0, -1.5])
    np.testing.assert_allclose(phi_minus(x), -np.expm1(-x) / x, rtol=1e-13)


def test_phi_minus_diff_matches_direct_quotient():
    t = np.geomspace(1e-3, 1.0, 7)
    direct = (phi_minus(0.4 * t) - phi_minus(1.1 * t)) / (0.7 * t)
    np.testing.assert_allclose(phi_minus_diff(0.4, 1.1, t), direct, rtol=1e-12)


def test_phi_minus_diff_degenerate_gap():
    t = np.geomspace(1e-3, 1.0, 7)
    a = 0.9
    tight = phi_minus_diff(a, a + 1e-9, t)
    wide = phi_minus_diff(a, a + 1e-4, t)
    np.testing.assert_allclose(tight, wide, atol=1e-4)
    # two-sided approach agrees with the analytic derivative at the midpoint
    exact = -(np.exp(-a * t) * (a * t + 1.0) - 1.0) / (a * t) ** 2
    np.testing.assert_allclose(tight, exact, atol=1e-8)


def test_exp_alpha_value_degenerate_delta():
    t = np.array([0.25, 1.0])
    np.testing.assert_allclose(exp_alpha_value(1.5, 0.0, t), 1.5 * t, rtol=1e-14)


def test_exp_beta_pair_small_time_limit(rng):
    q_u, q_v, q_uv, q_vu = rng.uniform(0.2, 2.0, 4)
    w = exp_beta_pair(q_u, 0.3, q_v, -0.2, q_uv, q_vu, 0.9, np.array([1e-9]))
    expected = (q_vu / q_u + q_uv / q_v) / 2.0
    assert w[0] == pytest.approx(expected, rel=1e-7)


def test_geometric_grid_endpoints():
    grid = geometric_grid(2.0, 16, 1e-3)
    assert grid[0] == pytest.approx(2e-3)
    assert grid[-1] == pytest.approx(2.0)
    assert len(grid) == 16
    with pytest.raises(ValueError):
        geometric_grid(0.0)


def test_mobius_zeta_round_trip(rng):
    values = rng.normal(size=32)
    np.testing.assert_allclose(zeta_over_subsets(mobius_from_log(values)), values, atol=1e-12)
    np.testing.assert_allclose(mobius_from_log(zeta_over_subsets(values)), values, atol=1e-12)


@st.composite
def integer_lattice_vectors(draw):
    """Integer-valued 2^n vectors, n <= 8: the transforms are exact on them."""
    n = draw(st.integers(0, 8))
    return np.array(draw(st.lists(st.integers(-1000, 1000), min_size=1 << n, max_size=1 << n)), dtype=float)


@settings(max_examples=40)
@given(integer_lattice_vectors())
def test_transforms_invert_exactly(values):
    np.testing.assert_array_equal(zeta_over_subsets(mobius_from_log(values)), values)
    np.testing.assert_array_equal(mobius_from_log(zeta_over_subsets(values)), values)
    masks = np.arange(len(values))
    up = zeta_over_supersets(values)
    np.testing.assert_array_equal(up, [values[masks & a == a].sum() for a in masks])
    # complementing every bitmask reverses the vector and swaps subsets for supersets
    np.testing.assert_array_equal(mobius_from_log(up[::-1])[::-1], values)


def test_mobius_rejects_bad_length():
    for transform in (mobius_from_log, zeta_over_subsets, zeta_over_supersets):
        with pytest.raises(ValueError, match="power of two"):
            transform(np.zeros(6))


def test_subset_bit_matrix_popcounts():
    bits = subset_bit_matrix(4)
    assert bits.shape == (16, 4)
    assert bits[0b1011].tolist() == [1, 1, 0, 1]
    for n in range(8):
        counts = popcounts(n)
        assert counts.dtype.itemsize == 1  # no (2^n, n) int64 intermediate at n = 20
        assert counts.tolist() == subset_bit_matrix(n).sum(axis=1).tolist()
