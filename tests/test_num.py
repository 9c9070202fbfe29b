import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from corrdefault._num import (
    _pair_profile,
    _shared_profile,
    alpha_values,
    exp_beta_pair,
    expm1_over,
    geometric_grid,
    inv_softplus,
    log_factorial,
    logsumexp,
    mobius_from_log,
    phi_minus,
    popcounts,
    softplus,
    zeta_over_subsets,
    zeta_over_supersets,
)
from corrdefault import consistency
from corrdefault.consistency import curves_from_rates, master_residual
from corrdefault.ctmc import MonotoneGenerator, random_generator
from corrdefault.reduced import LumpedRatesI, reduced_curves

from conftest import fast_exit_generator
from oracles import beta_pair_mp, phi_minus_diff, subset_bit_matrix
from oracles import exp_beta_pair as exp_beta_pair_oracle


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
    np.testing.assert_allclose(alpha_values(1.5, 0.0, t)[2], 1.5 * t, rtol=1e-14)


def test_exp_beta_pair_small_time_limit(rng):
    q_u, q_v, q_uv, q_vu = rng.uniform(0.2, 2.0, 4)
    w = exp_beta_pair(q_u, 0.3, q_v, -0.2, q_uv, q_vu, 0.9, np.array([1e-9]))
    expected = (q_vu / q_u + q_uv / q_v) / 2.0
    assert w[0] == pytest.approx(expected, rel=1e-7)


def test_pair_kernels_match_50_digit_closed_form():
    # Rate gaps up to 1e4 in size, so e^{c0 t} and phi_minus(a t) leave the
    # float range on much of the grid.  Sizes stay above 1e-2 (or exactly 0):
    # gaps (b - a) t just above the 1e-6 midpoint switch lose accuracy to
    # cancellation, which test_pair_kernel_small_gap_cancellation records.
    rng = np.random.default_rng(11)
    grid = geometric_grid(1.0, 32)
    n = 40
    q_u, q_v, drive_u, drive_v = rng.uniform(0.2, 2.0, (4, n))
    d_u, d_v, c = rng.choice([-1.0, 1.0], (3, n)) * 10.0 ** rng.uniform(-2.0, 4.0, (3, n))
    d_u[::5], d_v[1::6], c[2::9] = 0.0, d_u[1::6], 0.0
    drive_v[::7] = 0.0
    # e^{c0 t} subnormal at t = 1 while the product form stays finite: that form is off by 1.5e-9 to 0.25
    d_u[-4:] = d_v[-4:] = 40.0
    c[-4:] = 80.0 - np.array([725.0, 735.0, 740.0, 744.0])
    col = lambda x: x[:, None]  # noqa: E731
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        product_form = np.log(exp_beta_pair_oracle(*map(col, (q_u, d_u, q_v, d_v, drive_v, drive_u, c)), grid))
        assert np.mean(~np.isfinite(product_form)) > 0.05
        pair = _pair_profile(grid, *map(col, (q_u, d_u, q_v, d_v, drive_u, drive_v, c)))
        shared = _shared_profile(grid, col(q_u), col(d_u), col(2.0 * drive_u), col(c))
    for p in range(n):
        exact = beta_pair_mp(q_u[p], d_u[p], q_v[p], d_v[p], drive_v[p], drive_u[p], c[p], grid)
        np.testing.assert_allclose(pair[-1][p], exact, rtol=0.0, atol=1e-9)
        exact = beta_pair_mp(q_u[p], d_u[p], q_u[p], d_u[p], drive_u[p], drive_u[p], c[p], grid)
        np.testing.assert_allclose(shared[-1][p], exact, rtol=0.0, atol=1e-9)


@pytest.mark.xfail(strict=True, reason="phi_minus_quotient cancels for gaps just above its 1e-6 switch")
def test_pair_kernel_small_gap_cancellation():
    grid = geometric_grid(1.0, 32)
    beta = _pair_profile(grid, 1.0, 0.0, 1.0, 2e-6, 1.0, 1.0, 396.0)[-1][0]
    exact = beta_pair_mp(1.0, 0.0, 1.0, 2e-6, 1.0, 1.0, 396.0, grid)
    np.testing.assert_allclose(beta, exact, rtol=0.0, atol=1e-9)


def test_shared_beta_prime_past_alpha_underflow():
    # the shared form of the pair (0, 1) of random_generator(3, 1) with q(empty, 0) = 800: its
    # e^{-alpha} is subnormal at t = 0.885 and 0 from t = 0.9 on, and at t = 1 beta' was 0/0 = NaN
    q, d, _, _, drive, _, c = curves_from_rates(fast_exit_generator()).pair_constants[:, 0]
    grid = np.array([0.5, 0.88, 0.885, 0.9, 1.0])
    with np.errstate(over="ignore", divide="ignore"):  # e^alpha overflows, w underflows; a 0/0 still fails
        ena, beta_prime = _shared_profile(grid, q, d, 2.0 * drive, c)[1::2]
    assert ena[0, 0, -1] == 0.0 and 0.0 < ena[0, 0, 2] < np.finfo(float).tiny <= ena[0, 0, 1]
    exact = beta_pair_mp(q, d, q, d, drive, drive, c, grid, order=1)
    np.testing.assert_allclose(beta_prime[0], exact, rtol=1e-13, atol=0.0)


def test_overflowing_curves_are_finite():
    # products of a factor beyond e^709 and one below e^-745 used to give inf or NaN
    prof = reduced_curves("I", LumpedRatesI(4, [3.14, 2.14, 720.0, 1.0, 0.0])).profile(1.0)
    assert np.isfinite(prof.beta).all() and np.isfinite(prof.beta_prime).all()
    grid = geometric_grid(1.0)
    for r_uv in (709.0, 720.0, 1000.0):
        beta, beta_prime = consistency._pair_values(grid, (1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 2.0 - r_uv))
        assert np.isfinite(beta).all() and np.isfinite(beta_prime).all()
        np.testing.assert_allclose(beta, beta_pair_mp(1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 2.0 - r_uv, grid), atol=1e-9)
    gen = random_generator(3, seed=1)
    rates = gen.rates.copy()
    rates[0b011, 2] = 900.0
    gen = MonotoneGenerator(3, rates)
    curves = curves_from_rates(gen, t_grid=grid)
    for values in (*curves.beta_matrices(grid), master_residual(gen, curves, grid)):
        assert np.isfinite(values).all()


def same_bits(x, y):
    """Equal as bit patterns, or both NaN."""
    x, y = np.float64(x), np.float64(y)
    return (np.isnan(x) and np.isnan(y)) or x.view(np.int64) == y.view(np.int64)


@st.composite
def logsumexp_inputs(draw):
    """Vectors of 1 to 64 cells, narrow or over the whole float range, with ties at the max, infinities and NaN."""
    cells = st.one_of(
        st.floats(-50.0, 50.0),
        st.floats(-1e308, 1e308),
        st.sampled_from([np.inf, -np.inf, np.nan, 0.0, -0.0, 709.8, 710.0, -745.2, 1e308, -1e308]),
    )
    values = draw(st.lists(cells, min_size=1, max_size=64))
    top = max(values, key=lambda x: (not np.isnan(x), x))
    values += [top] * draw(st.integers(0, 3))
    return np.array(draw(st.permutations(values)))


@settings(max_examples=400)
@given(logsumexp_inputs())
@example(np.array([1.0]))
@example(np.array([np.nan]))
@example(np.array([-np.inf, -np.inf]))
@example(np.array([np.inf, -np.inf, 3.0]))
@example(np.array([np.inf, np.nan]))
@example(np.array([1e308, 1e308, 1e308]))
@example(np.array([-1e308, 1e308]))
@example(np.array([0.5, 0.5, -2.0]))
def test_logsumexp_matches_scipy_bit_for_bit(a):
    with np.errstate(over="ignore"):  # scipy shifts -1e308 by 1e308 unguarded
        reference = scipy_logsumexp(a)
    assert same_bits(logsumexp(a), reference)


@pytest.mark.parametrize("n", [1, 10, 17])
def test_logsumexp_matches_scipy_on_lattice_energies(n):
    # the model's use: a Hamiltonian vector over all 2^n subsets, whose top cells may tie
    h = np.random.default_rng(n).normal(0.0, 3.0, 1 << n).round(1)
    assert same_bits(logsumexp(h), scipy_logsumexp(h))


def test_log_factorial_is_within_4_ulp_of_40_digits():
    values = log_factorial(2000)
    with mpmath.workdps(40):
        for k, value in enumerate(values.tolist()):
            exact = mpmath.loggamma(k + 1)
            assert abs(mpmath.mpf(value) - exact) <= 4 * np.spacing(float(exact)), k


def test_geometric_grid_endpoints():
    grid = geometric_grid(2.0, 16)
    assert grid[0] == pytest.approx(2e-3)
    assert grid[-1] == pytest.approx(2.0)
    assert len(grid) == 16
    with pytest.raises(ValueError):
        geometric_grid(0.0)


def test_mobius_zeta_round_trip(rng):
    values = rng.normal(size=32)
    np.testing.assert_allclose(zeta_over_subsets(mobius_from_log(values)), values, atol=1e-12)
    np.testing.assert_allclose(mobius_from_log(zeta_over_subsets(values)), values, atol=1e-12)
    # trailing axes: a (2^n, k) block, C- or F-ordered, transforms column by column with the same bits
    block = rng.normal(size=(32, 5))
    for transform in (mobius_from_log, zeta_over_subsets):
        columns = np.column_stack([transform(column) for column in block.T])
        np.testing.assert_array_equal(transform(block), columns)
        np.testing.assert_array_equal(transform(np.asfortranarray(block)), columns)


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
