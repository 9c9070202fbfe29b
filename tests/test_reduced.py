import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import minimize, rosen

from corrdefault import _pool
from corrdefault._num import geometric_grid, popcounts, softplus
from corrdefault.consistency import alpha_curve
from corrdefault.ctmc import MonotoneGenerator, forward_solve, independent_generator, random_generator
from corrdefault.model import SubsetDist, extract_interactions
from corrdefault.reduced import (
    LumpedRatesBi,
    LumpedRatesI,
    ReducedCurvesIII,
    SearchConfig,
    SearchFailedError,
    _PENALTY_WEIGHT,
    _block,
    _nelder_mead,
    _normalize_targets,
    _SearchProblem,
    coeff_check_I,
    coeff_check_II,
    coeff_check_III,
    feasibility_search,
    independent_lumped_I,
    independent_lumped_bi,
    lump_generator,
    reduced_curves_I,
    reduced_curves_II,
    reduced_curves_III,
    residual_I,
    residual_II,
    residual_III,
    residual_bipartite,
)

import oracles
from conftest import n_cpus, reject_restart_1
from oracles import integrate_scalar_ode


def symmetric_generator(level_exit_rates):
    """Fully exchangeable generator on K_N with prescribed lumped exit rates."""
    lam = np.asarray(level_exit_rates, dtype=float)
    n = len(lam) - 1
    per_vertex = lam[:n] / (n - np.arange(n))
    return MonotoneGenerator.from_function(n, lambda mask, v: per_vertex[bin(mask).count("1")])


def bipartite_generator(lumped: LumpedRatesBi):
    """Occupancy-symmetric generator on K_{M,N} with the given lumped tables."""
    m_hat, n_check = lumped.n_hat, lumped.n_check

    def rate(mask, v):
        m = bin(mask & ((1 << m_hat) - 1)).count("1")
        n = bin(mask >> m_hat).count("1")
        if v < m_hat:
            return lumped.hat_rates[m, n] / (m_hat - m)
        return lumped.check_rates[m, n] / (n_check - n)

    return MonotoneGenerator.from_function(m_hat + n_check, rate)


def compatible_bipartite_rates(rng, m_hat, n_check):
    """Random lumped tables satisfying the two low-order compatibility identities.

    Any lumping of actual admissible dynamics satisfies them, and they make
    the (0,1) occupancy equation hold alongside (1,0) and (1,1).
    """
    s = rng.uniform(0.4, 1.2)
    hat = rng.uniform(0.3, 1.5, (m_hat + 1, n_check + 1))
    check = rng.uniform(0.3, 1.5, (m_hat + 1, n_check + 1))
    hat[0, 0], check[0, 0] = m_hat * s, n_check * s
    drift = hat[1, 0] + check[1, 0]
    hat[0, 1] = rng.uniform(0.25, 0.75) * drift
    check[0, 1] = drift - hat[0, 1]
    hat[-1, :] = 0.0
    check[:, -1] = 0.0
    return LumpedRatesBi(m_hat, n_check, hat, check)


class TestLumpedTypes:
    def test_model_I_requires_absorbing_top_level(self):
        with pytest.raises(ValueError, match="absorbing"):
            LumpedRatesI(3, [1.0, 0.7, 0.4, 0.1])

    def test_model_I_requires_positive_interior(self):
        with pytest.raises(ValueError, match="positive"):
            LumpedRatesI(3, [1.0, 0.0, 0.4, 0.0])

    def test_bipartite_boundary_rows(self):
        hat = np.ones((3, 3))
        check = np.ones((3, 3))
        check[:, -1] = 0.0
        with pytest.raises(ValueError, match="hat_rates"):
            LumpedRatesBi(2, 2, hat, check)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_model_I_rejects_non_finite_rates(self, bad):
        with pytest.raises(ValueError, match="finite"):
            LumpedRatesI(3, [bad, 1.0, 1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("table", [0, 1])
    def test_bipartite_rejects_non_finite_rates(self, bad, table):
        lumped = independent_lumped_bi(2, 3, 0.2, -0.1)
        tables = [lumped.hat_rates.copy(), lumped.check_rates.copy()]
        tables[table][1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            LumpedRatesBi(2, 3, *tables)

    def test_r_is_empty_exit_rate(self):
        lumped = independent_lumped_bi(2, 3, 0.2, -0.1)
        assert lumped.r == pytest.approx(lumped.hat_rates[0, 0] + lumped.check_rates[0, 0])


class TestLumping:
    def test_independent_symmetric_levels(self):
        c, n = 0.4, 5
        gen = independent_generator([c] * n, horizon=1.0)
        lumped = lump_generator(gen, "complete")
        expected = (n - np.arange(n + 1.0)) * softplus(c)
        np.testing.assert_allclose(lumped.lam, expected, atol=1e-12)
        assert lumped.lam[-1] == 0.0

    def test_matches_brute_force_orbit_average(self):
        gen = symmetric_generator([1.3, 0.9, 0.7, 0.45, 0.0])
        lumped = lump_generator(gen, "complete")
        for level in range(5):
            values = [
                gen.exit_rates[sum(1 << v for v in subset)]
                for subset in combinations(range(4), level)
            ]
            assert lumped.lam[level] == pytest.approx(np.mean(values), abs=1e-12)

    def test_bipartite_orbit_average(self, rng):
        lumped_in = compatible_bipartite_rates(rng, 2, 3)
        gen = bipartite_generator(lumped_in)
        lumped_out = lump_generator(gen, ("bipartite", 2, 3))
        np.testing.assert_allclose(lumped_out.hat_rates, lumped_in.hat_rates, atol=1e-12)
        np.testing.assert_allclose(lumped_out.check_rates, lumped_in.check_rates, atol=1e-12)

    @settings(max_examples=15)
    @given(m=st.integers(1, 3), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_bipartite_lumping_commutes_with_relabelling(self, m, n, seed):
        # permuting vertices within each class maps every orbit onto itself
        rng = np.random.default_rng(seed)
        gen = random_generator(m + n, seed)
        perm = np.concatenate([rng.permutation(m), m + rng.permutation(n)])
        lumped = lump_generator(gen, ("bipartite", m, n))
        relabelled = lump_generator(gen.relabel(perm), ("bipartite", m, n))
        np.testing.assert_allclose(relabelled.hat_rates, lumped.hat_rates, rtol=0, atol=1e-12)
        np.testing.assert_allclose(relabelled.check_rates, lumped.check_rates, rtol=0, atol=1e-12)

    @settings(max_examples=15)
    @given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_exchangeable_levels_follow_the_birth_chain(self, n, seed):
        per_vertex = np.random.default_rng(seed).uniform(0.2, 2.0, n)
        gen = MonotoneGenerator.from_function(n, lambda mask, v: per_vertex[bin(mask).count("1")])
        lam = lump_generator(gen, "complete").lam
        birth = np.diag(-lam) + np.diag(lam[:-1], 1)  # level k leaves for k + 1 at rate lam_k
        grid = geometric_grid(2.0, 6)
        for t, probs in zip(grid, forward_solve(gen, grid).probs):
            levels = np.bincount(popcounts(n), weights=probs, minlength=n + 1)
            np.testing.assert_allclose(levels, expm(birth * t)[0], rtol=1e-10, atol=1e-15)

    def test_size_mismatch_rejected(self):
        gen = independent_generator([0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="match"):
            lump_generator(gen, ("bipartite", 2, 2))


def alpha_mp(q, delta, t):
    """alpha = log((q / delta) expm1(delta t)) in 50-digit mpmath."""
    with mpmath.workdps(50):
        return float(mpmath.log(mpmath.mpf(q) / delta * mpmath.expm1(mpmath.mpf(delta) * t)))


class TestReducedCurvesI:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_alpha_is_finite_past_the_overflow_of_e_alpha(self):
        # e^alpha overflows once delta t passes about 709.78; alpha at t = 1 was inf
        t = np.array([0.5, 1.0])
        alpha, _ = reduced_curves_I(1000.0, 1.0, 2.0, 4).alpha(t)
        np.testing.assert_array_equal(alpha, alpha_curve(250.0, 999.0, 0.0, t)[0])
        np.testing.assert_allclose(alpha, [alpha_mp(250.0, 999.0, s) for s in t], rtol=1e-14)

    def test_independent_case_is_uncoupled(self):
        c, n = 0.4, 5
        lumped = independent_lumped_I(n, c)
        curves = reduced_curves_I(lumped.lam[0], lumped.lam[1], lumped.lam[2], n)
        grid = geometric_grid(1.0, 16)
        beta, _ = curves.beta(grid)
        np.testing.assert_allclose(beta, 0.0, atol=1e-8)
        alpha, _ = curves.alpha(np.array([1.0]))
        assert alpha[0] == pytest.approx(c, abs=1e-9)

    def test_generic_rates_match_full_lattice_extraction(self):
        lam = np.array([1.3, 0.9, 0.7, 0.45, 0.0])
        gen = symmetric_generator(lam)
        curves = reduced_curves_I(lam[0], lam[1], lam[2], 4)
        t = 0.5
        sol = forward_solve(gen, np.array([t]))
        coeffs = extract_interactions(SubsetDist(4, sol.probs[0]))
        singles = [coeffs.single(u) for u in range(4)]
        pairs = [coeffs.pair(u, v) for u, v in combinations(range(4), 2)]
        alpha, _ = curves.alpha(np.array([t]))
        beta, _ = curves.beta(np.array([t]))
        assert alpha[0] == pytest.approx(np.mean(singles), abs=1e-5)
        assert beta[0] == pytest.approx(np.mean(pairs), abs=1e-5)


class TestResidualI:
    def test_constructing_levels_vanish(self):
        lumped = LumpedRatesI(4, np.array([1.3, 0.9, 0.7, 0.45, 0.0]))
        curves = reduced_curves_I(1.3, 0.9, 0.7, 4)
        res = residual_I(lumped, curves, geometric_grid(1.0, 16))
        assert np.max(np.abs(res[:2])) < 1e-10

    def test_independent_rates_solve_every_level(self):
        lumped = independent_lumped_I(5, 0.4)
        curves = reduced_curves_I(lumped.lam[0], lumped.lam[1], lumped.lam[2], 5)
        res = residual_I(lumped, curves, geometric_grid(1.0, 16))
        assert np.max(np.abs(res)) < 1e-10

    def test_generic_rates_fail_above_pairs(self):
        lumped = LumpedRatesI(4, np.array([1.3, 0.9, 0.7, 0.45, 0.0]))
        curves = reduced_curves_I(1.3, 0.9, 0.7, 4)
        res = residual_I(lumped, curves, np.array([0.5]))
        assert abs(res[2, 0]) > 1e-3


class TestCoeffCheckI:
    def test_independent_table_consistent_at_zero(self):
        n, lam0 = 4, 1.6
        lam = lam0 * (n - np.arange(n + 1.0)) / n
        lumped = LumpedRatesI(n, lam)
        report = coeff_check_I(lumped, 0.0)
        np.testing.assert_allclose(report.mismatch, 0.0, atol=1e-12)
        assert report.consistent

    def test_nonzero_beta_star_mismatch(self):
        lumped = LumpedRatesI(4, np.array([1.3, 0.9, 0.7, 0.45, 0.0]))
        report = coeff_check_I(lumped, 0.5)
        assert np.max(np.abs(report.mismatch)) > 0.1
        assert not report.consistent

    def test_level_zero_always_agrees(self):
        lumped = LumpedRatesI(4, np.array([1.3, 0.9, 0.7, 0.45, 0.0]))
        report = coeff_check_I(lumped, 0.7)
        assert report.mismatch[0] == pytest.approx(0.0, abs=1e-14)


class TestReducedCurvesII:
    def test_independent_case(self):
        lumped = independent_lumped_bi(3, 3, 0.4, 0.4)
        curves = reduced_curves_II(lumped)
        assert curves.identity_violation == pytest.approx(0.0, abs=1e-14)
        beta, _ = curves.beta(geometric_grid(1.0, 16))
        np.testing.assert_allclose(beta, 0.0, atol=1e-8)

    def test_identity_violation_reported(self):
        hat = np.ones((3, 3))
        check = np.ones((3, 3))
        hat[0, 0], check[0, 0] = 2.0, 1.0  # 2/2 != 1/2
        hat[-1, :] = 0.0
        check[:, -1] = 0.0
        curves = reduced_curves_II(LumpedRatesBi(2, 2, hat, check))
        assert curves.identity_violation == pytest.approx(0.5, abs=1e-14)

    def test_generic_compatible_rates_match_full_lattice(self, rng):
        lumped = compatible_bipartite_rates(rng, 3, 3)
        gen = bipartite_generator(lumped)
        curves = reduced_curves_II(lumped)
        t = 0.5
        sol = forward_solve(gen, np.array([t]))
        coeffs = extract_interactions(SubsetDist(6, sol.probs[0]))
        alpha, _ = curves.alpha(np.array([t]))
        beta, _ = curves.beta(np.array([t]))
        assert alpha[0] == pytest.approx(coeffs.single(0), abs=1e-5)
        assert alpha[0] == pytest.approx(coeffs.single(3), abs=1e-5)
        assert beta[0] == pytest.approx(coeffs.pair(0, 3), abs=1e-5)


class TestResidualII:
    def test_constructing_cells_vanish_for_compatible_rates(self, rng):
        lumped = compatible_bipartite_rates(rng, 3, 3)
        curves = reduced_curves_II(lumped)
        res = residual_II(lumped, curves, geometric_grid(1.0, 16))
        for cell in ((1, 0), (0, 1), (1, 1)):
            assert np.max(np.abs(res[cell])) < 1e-9

    def test_independent_rates_solve_every_cell(self):
        lumped = independent_lumped_bi(3, 3, 0.4, 0.4)
        curves = reduced_curves_II(lumped)
        res = residual_II(lumped, curves, geometric_grid(1.0, 16))
        assert np.max(np.abs(res)) < 1e-9

    def test_generic_cell_2_1_fails(self, rng):
        lumped = compatible_bipartite_rates(rng, 3, 3)
        curves = reduced_curves_II(lumped)
        res = residual_II(lumped, curves, np.array([0.5]))
        assert abs(res[2, 1, 0]) > 1e-3


class TestCoeffCheckII:
    def test_zero_iff_beta_star_zero(self):
        assert coeff_check_II(3, 3, 0.0) == pytest.approx(0.0, abs=1e-14)
        assert coeff_check_II(3, 3, 0.5) == pytest.approx(2.0 * np.exp(0.5) - 2.0, abs=1e-12)
        assert coeff_check_II(3, 3, -0.4) == pytest.approx(2.0 * np.exp(-0.4) - 2.0, abs=1e-12)

    def test_value_independent_of_sizes(self):
        for m, n in ((2, 5), (4, 4), (1, 3)):
            assert coeff_check_II(m, n, 0.3) == pytest.approx(2.0 * np.exp(0.3) - 2.0, abs=1e-12)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            coeff_check_II(1, 1, 0.3)

    def test_full_linear_solve_satisfies_combined_system(self):
        # assemble the constant-beta rate system at beta* = 0 for M = N = 3,
        # solve it in least squares, and verify the combined equations hold
        m_hat = n_check = 3
        shape = (m_hat + 1, n_check + 1)
        n_vars = 2 * shape[0] * shape[1]

        def hat_col(m, n):
            return m * shape[1] + n

        def check_col(m, n):
            return shape[0] * shape[1] + m * shape[1] + n

        rows, rhs = [], []

        def add_row(coeffs, value=0.0):
            row = np.zeros(n_vars)
            for col, c in coeffs:
                row[col] += c
            rows.append(row)
            rhs.append(value)

        # normalization pins the overall scale
        add_row([(hat_col(0, 0), 1.0)], value=float(m_hat))
        for m in range(m_hat + 1):
            for n in range(n_check + 1):
                # balance of the two inflow terms against (m+n)/M * hat00
                coeffs = [(hat_col(0, 0), (m + n) / m_hat)]
                if m >= 1:
                    coeffs.append((hat_col(m - 1, n), -m / (m_hat - m + 1.0)))
                if n >= 1:
                    coeffs.append((check_col(m, n - 1), -n / (n_check - n + 1.0)))
                add_row(coeffs)
                # exit-rate drift is linear in the occupancy
                coeffs = [
                    (hat_col(0, 0), 1.0 - (m + n)),
                    (check_col(0, 0), 1.0 - (m + n)),
                    (hat_col(1, 0), m + n),
                    (check_col(1, 0), m + n),
                    (hat_col(m, n), -1.0),
                    (check_col(m, n), -1.0),
                ]
                add_row(coeffs)
        for n in range(n_check + 1):
            add_row([(hat_col(m_hat, n), 1.0)])
        for m in range(m_hat + 1):
            add_row([(check_col(m, n_check), 1.0)])

        solution, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
        hat = solution[: shape[0] * shape[1]].reshape(shape)
        check = solution[shape[0] * shape[1] :].reshape(shape)
        residual = np.array(rows) @ solution - np.array(rhs)
        assert np.max(np.abs(residual)) < 1e-12

        # combined-system equations eliminating the hat table
        scale = hat[0, 0] / m_hat
        assert check[0, 0] / n_check == pytest.approx(scale, abs=1e-12)
        for m in range(1, m_hat + 1):
            for n in range(n_check + 1):
                lhs = 0.0
                if n >= 1:
                    lhs += n * check[m, n - 1] / (n_check - n + 1.0)
                lhs -= m * check[m - 1, n] / (m_hat - m + 1.0)
                expected = scale * (
                    (m + n) - m * (m_hat + n_check - m - n + 1.0) / (m_hat - m + 1.0)
                )
                assert lhs == pytest.approx(expected, abs=1e-12)


class TestReducedCurvesIII:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_alpha_is_finite_past_the_overflow_of_e_alpha(self):
        # alpha_hat(1.0) was inf
        curves = ReducedCurvesIII((2, 2), 500, 900, 1, 0.5, 1, 1, 0.3)
        for (alpha, _), q, delta in ((curves.alpha_hat(1.0), 500.0, 900.0), (curves.alpha_check(1.0), 1.0, 0.5)):
            np.testing.assert_array_equal(alpha, alpha_curve(q, delta, 0.0, 1.0)[0])
            assert alpha[0] == pytest.approx(alpha_mp(q, delta, 1.0), rel=1e-14)

    def test_alpha_hat_matches_ode_oracle(self, rng):
        lumped = compatible_bipartite_rates(rng, 4, 3)
        curves = reduced_curves_III(lumped)
        grid = np.geomspace(1e-3, 1.0, 16)
        alpha_hat, _ = curves.alpha_hat(grid)
        r = lumped.r
        drift = r - lumped.hat_rates[1, 0] - lumped.check_rates[1, 0]
        q = lumped.hat_rates[0, 0] / 4.0
        oracle = integrate_scalar_ode(
            lambda t, a: q * np.exp(-a) + drift, grid[0], alpha_hat[0], grid
        )
        np.testing.assert_allclose(alpha_hat, oracle, atol=1e-8)

    def test_symmetric_rates_give_equal_alphas(self):
        lumped = independent_lumped_bi(3, 3, 0.4, 0.4)
        curves = reduced_curves_III(lumped)
        grid = geometric_grid(1.0, 16)
        a_hat, _ = curves.alpha_hat(grid)
        a_check, _ = curves.alpha_check(grid)
        np.testing.assert_allclose(a_hat, a_check, atol=1e-12)

    def test_independent_case_is_uncoupled(self):
        lumped = independent_lumped_bi(4, 3, 0.5, -0.5)
        curves = reduced_curves_III(lumped)
        beta, _ = curves.beta(geometric_grid(1.0, 16))
        np.testing.assert_allclose(beta, 0.0, atol=1e-8)

    def test_class_coefficients_match_full_lattice(self, rng):
        lumped = compatible_bipartite_rates(rng, 4, 3)
        gen = bipartite_generator(lumped)
        curves = reduced_curves_III(lumped)
        t = 0.5
        sol = forward_solve(gen, np.array([t]))
        coeffs = extract_interactions(SubsetDist(7, sol.probs[0]))
        a_hat, _ = curves.alpha_hat(np.array([t]))
        a_check, _ = curves.alpha_check(np.array([t]))
        beta, _ = curves.beta(np.array([t]))
        assert a_hat[0] == pytest.approx(coeffs.single(0), abs=1e-5)
        assert a_check[0] == pytest.approx(coeffs.single(5), abs=1e-5)
        assert beta[0] == pytest.approx(coeffs.pair(0, 5), abs=1e-5)


class TestResidualIII:
    def test_constructing_cells_vanish(self, rng):
        lumped = compatible_bipartite_rates(rng, 4, 3)
        curves = reduced_curves_III(lumped)
        res = residual_III(lumped, curves, geometric_grid(1.0, 16))
        for cell in ((1, 0), (0, 1), (1, 1)):
            assert np.max(np.abs(res[cell])) < 1e-9

    def test_independent_rates_solve_every_cell(self):
        lumped = independent_lumped_bi(4, 3, 0.5, -0.5)
        curves = reduced_curves_III(lumped)
        res = residual_III(lumped, curves, geometric_grid(1.0, 16))
        assert np.max(np.abs(res)) < 1e-9

    def test_generic_cell_2_2_fails(self, rng):
        lumped = compatible_bipartite_rates(rng, 4, 3)
        curves = reduced_curves_III(lumped)
        res = residual_III(lumped, curves, np.array([0.5]))
        assert abs(res[2, 2, 0]) > 1e-3


class TestBipartiteKernel:
    @settings(max_examples=40)
    @given(m=st.integers(2, 4), n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_model_II_is_model_III_with_equal_classes(self, m, n, seed):
        lumped = compatible_bipartite_rates(np.random.default_rng(seed), m, n)
        shared = reduced_curves_II(lumped)
        drive_hat, drive_check = lumped.hat_rates[0, 1] / m, lumped.check_rates[1, 0] / n
        equal = ReducedCurvesIII(
            (m, n), shared.q, shared.delta, shared.q, shared.delta, drive_hat, drive_check, shared.c
        )
        grid = geometric_grid(1.0, 16)
        expected = residual_bipartite(lumped, shared, grid)
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(residual_bipartite(lumped, equal, grid), expected, rtol=0, atol=1e-12 * scale)
        # the shared-alpha e^beta is the pair e^beta with equal classes
        np.testing.assert_allclose(np.exp(shared.beta(grid)[0]), np.exp(equal.beta(grid)[0]), rtol=1e-10)

    def test_sizes_must_match(self):
        lumped = independent_lumped_bi(3, 3, 0.4, 0.4)
        with pytest.raises(ValueError, match="disagree"):
            residual_bipartite(independent_lumped_bi(3, 2, 0.4, 0.4), reduced_curves_II(lumped), [0.5])


class TestCoeffCheckIII:
    def test_independent_tables_at_zero_beta_star(self):
        lumped = independent_lumped_bi(4, 3, 0.5, -0.5)
        report = coeff_check_III(lumped, 0.0)
        np.testing.assert_allclose(report.cond_hat, 0.0, atol=1e-12)
        np.testing.assert_allclose(report.cond_check, 0.0, atol=1e-12)
        np.testing.assert_allclose(report.cond_drift, 0.0, atol=1e-12)
        np.testing.assert_allclose(report.diagonal_mismatch, 0.0, atol=1e-12)
        assert not report.bound_violated

    def test_small_positive_beta_star_flagged(self):
        lumped = independent_lumped_bi(4, 3, 0.5, -0.5)
        report = coeff_check_III(lumped, 0.3)
        assert report.n_equations == 4
        assert report.intersection_bound == 2
        assert report.bound_violated

    def test_curve_coefficients_positive(self, rng):
        lumped = compatible_bipartite_rates(rng, 4, 3)
        report = coeff_check_III(lumped, 0.3)
        assert report.coeff_a > 0.0
        assert report.coeff_b > 0.0


class TestFeasibilitySearch:
    def test_model_I_zero_target_recovers_independent(self):
        config = SearchConfig(restarts=4, seed=0)
        result = feasibility_search(("I", 4), (0.3, 0.0), config)
        assert result.residual_floor < 1e-6
        expected = independent_lumped_I(4, 0.3)
        np.testing.assert_allclose(result.best_rates.lam, expected.lam, atol=1e-4)
        assert result.terminal_mismatch < 1e-6

    def test_model_I_nonzero_target_has_positive_floor(self):
        config = SearchConfig(restarts=4, seed=0)
        result = feasibility_search(("I", 4), (0.3, 0.5), config)
        assert result.residual_floor > 1e-2

    def test_floor_non_increasing_in_restarts(self):
        # restarts run in lockstep, and restart k's record must not depend on how many run beside it
        for model, targets, max_iter in ((("I", 4), (0.3, 0.5), None), (("II", 3, 3), (0.3, 0.25), 300),
                                         (("III", 4, 3), (0.5, -0.5, 0.1), 300)):
            runs = [
                feasibility_search(model, targets, SearchConfig(restarts=r, seed=7, max_iter=max_iter))
                for r in range(1, 6)
            ]
            for fewer, more in zip(runs, runs[1:]):
                assert more.residual_floor <= fewer.residual_floor
                assert more.trace[: len(fewer.trace)] == fewer.trace  # every compare=True field

    def test_deterministic(self):
        config = SearchConfig(restarts=3, seed=5)
        a = feasibility_search(("II", 3, 3), (0.3, 0.25), config)
        b = feasibility_search(("II", 3, 3), (0.3, 0.25), config)
        assert a.residual_floor == b.residual_floor
        assert a.trace == b.trace
        np.testing.assert_array_equal(a.best_rates.hat_rates, b.best_rates.hat_rates)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="N >= 2"):
            feasibility_search(("I", 1), (0.3, 0.0))
        with pytest.raises(ValueError, match="size N must be an integer, got 4.5"):
            feasibility_search(("I", 4.5), (0.3, 0.0))
        with pytest.raises(ValueError, match="size M must be an integer, got '3'"):
            feasibility_search(("II", "3", 3), (0.3, 0.0))
        with pytest.raises(ValueError, match="distinct"):
            feasibility_search(("III", 4, 3), (0.5, 0.5, 0.1))
        with pytest.raises(ValueError, match="unknown model"):
            feasibility_search(("IV", 3, 3), (0.3, 0.0))
        with pytest.raises(ValueError, match="keys"):
            feasibility_search(("II", 3, 3), {"alpha": 0.1})

    @pytest.mark.parametrize(
        "knobs",
        [{"restarts": 0}, {"restarts": -1}]
        + [{"max_iter": m} for m in (0, -3, 2.5, True)]
        + [{"horizon": h} for h in (np.nan, np.inf, 0.0)]
        + [{"t_min_fraction": f} for f in (2.0, 1.0, 0.0, np.nan)]
        + [{"restarts": r} for r in (2.5, True)]
        + [{"seed": s} for s in (-1, 1.9, True)]
        + [{"grid_points": g} for g in (1, 8.7, True)],
    )
    def test_config_rejects_bad_knobs(self, knobs):
        # restarts=0 used to fail with KeyError('x'); max_iter 0 or 2.5 ran no polish and True (JSON true)
        # a one-evaluation one, a NaN horizon reported a NaN floor, and t_min_fraction 2.0 scored times
        # past the horizon; the CLI truncated restarts 2.5 to 2, True to 1, seed 1.9 to 1 and grid_points
        # 8.7 to 8
        with pytest.raises(ValueError, match=next(iter(knobs))):
            SearchConfig(**knobs)

    def test_rejected_warm_table_is_reported(self, monkeypatch):
        # a warm table with a rate of 0 raised "interior lumped rates must be positive and finite".  Such a
        # table scores all 1e6 in ls_residual, so no trust-region step from a valid start accepts it, and
        # assemble is made to reject restart 1's table instead
        reject_restart_1(monkeypatch)
        targets = {"alpha": 0.3, "beta": 0.25}
        alone = feasibility_search(("II", 3, 3), targets, SearchConfig(restarts=1, seed=975633704))
        for cpus in (1, 2):
            with n_cpus(cpus):
                result = feasibility_search(("II", 3, 3), targets, SearchConfig(restarts=4, seed=975633704))
            rejected = result.trace[1]
            assert (rejected.objective, rejected.residual_max, rejected.terminal_mismatch) == (np.inf, np.inf, np.inf)
            assert (rejected.n_polish_evaluations, rejected.rounds) == (0, 0)
            assert result.best_index != 1 and np.isfinite(result.residual_floor)
            # the other restarts keep their records
            assert alone.trace[0] == result.trace[0]

    def test_no_warm_table_raises(self, monkeypatch):
        def reject(problem, outer_x):
            raise ValueError("interior lumped rates must be positive and finite")

        monkeypatch.setattr(_SearchProblem, "assemble", reject)
        with pytest.raises(SearchFailedError, match="no warm start of the 2 restart"):
            feasibility_search(("II", 3, 3), (0.3, 0.25), SearchConfig(restarts=2))

    def test_model_I_rejects_two_vertices(self):
        # the pair curve needs lam2 > 0, and at N = 2 it is the absorbing rate lam[N] = 0
        with pytest.raises(ValueError, match="N >= 3"):
            feasibility_search(("I", 2), (0.3, 0.0), SearchConfig(restarts=1))


SIZES = {"I": ("I", 4), "II": ("II", 3, 3), "III": ("III", 4, 3)}


def _on_cpus(cpus, model, targets, restarts, seed=3):
    with n_cpus(cpus):
        return feasibility_search(SIZES[model], targets, SearchConfig(restarts=restarts, seed=seed, max_iter=200))


def _assert_same_result(a, b):
    """Every field of two search results but wall_s, the records' included; the best rates bit for bit."""
    fields = ("model", "sizes", "targets", "best_index", "residual_floor", "terminal_mismatch", "restarts_used")
    assert [getattr(a, name) for name in fields] == [getattr(b, name) for name in fields]
    assert a.trace == b.trace  # every compare=True field of every record
    for name in ("lam",) if a.model == "I" else ("hat_rates", "check_rates"):
        assert np.array_equal(getattr(a.best_rates, name), getattr(b.best_rates, name))


class TestSearchPool:
    """Restarts dealt to one forked worker per CPU give the records of one process, and leave no process behind."""

    @pytest.mark.parametrize("restarts", [2, 3, 5])
    @pytest.mark.parametrize(
        "model, targets",
        [("I", (0.3, 0.0)), ("I", (0.3, 0.5)), ("II", (0.3, 0.0)), ("II", (0.3, 0.25)),
         ("III", (0.5, -0.5, 0.0)), ("III", (0.5, -0.5, 0.1))],
    )
    def test_one_cpu_equals_two(self, model, targets, restarts):
        _assert_same_result(_on_cpus(1, model, targets, restarts), _on_cpus(2, model, targets, restarts))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("restarts", [2, 5])
    @pytest.mark.parametrize("model, targets", [("II", (0.3, 0.25)), ("III", (0.5, -0.5, 0.1))])
    def test_one_cpu_equals_two_with_restart_1_rejected(self, monkeypatch, model, targets, restarts):
        reject_restart_1(monkeypatch)
        one, two = (_on_cpus(cpus, model, targets, restarts) for cpus in (1, 2))
        _assert_same_result(one, two)
        assert two.trace[1].objective == np.inf and two.best_index != 1
        assert multiprocessing.active_children() == []

    def test_no_process_for_one_restart_or_one_cpu(self):
        refuse = mock.patch("multiprocessing.get_context", side_effect=AssertionError("a process was started"))
        with refuse:
            _on_cpus(2, "I", (0.3, 0.0), restarts=1)
            _on_cpus(1, "I", (0.3, 0.0), restarts=3)

    def test_no_more_workers_than_cpus(self):
        with mock.patch.object(_pool, "ProcessPoolExecutor", wraps=ProcessPoolExecutor) as pool:
            _on_cpus(2, "I", (0.3, 0.0), restarts=5)
        assert [call.args[0] for call in pool.call_args_list] == [2]
        assert multiprocessing.active_children() == []

    def test_worker_exception_propagates(self):
        parent, objective = os.getpid(), _SearchProblem.objective

        def fails_in_worker(problem, x):
            if os.getpid() != parent:
                raise FloatingPointError(f"objective failed in worker {os.getpid()}")
            return objective(problem, x)

        with mock.patch.object(_SearchProblem, "objective", fails_in_worker):
            with pytest.raises(FloatingPointError, match="objective failed in worker"):
                _on_cpus(2, "I", (0.3, 0.5), restarts=2)
        assert multiprocessing.active_children() == []


TARGETS = {"I": (0.3, 0.5), "II": (0.3, 0.25), "III": (0.5, -0.5, 0.1)}


def _coords(data, size):
    """Ordinary softplus coordinates, up to two of them replaced by large ones.

    -800 gives a rate of exactly 0, which must be rejected; 700 gives rates
    whose curves overflow.
    """
    x = np.array(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=size, max_size=size)))
    extremes = st.tuples(st.integers(0, size - 1), st.sampled_from([-800.0, -60.0, 60.0, 700.0]))
    for index, value in data.draw(st.lists(extremes, max_size=2)):
        x[index] = value
    return x


def _problem(kind, sizes):
    return _SearchProblem(kind, sizes, _normalize_targets(kind, TARGETS[kind]), SearchConfig())


def _scored(problem, lumped, curves):
    """Kept residual block and terminal deltas from the oracle copies of the public curves and residuals.

    Also whether a curve cell on the grid took its 50-digit value (oracles.beta_in_range).
    """
    grid, targets = problem.grid, problem.targets
    prof = oracles.lumped_profile(curves, grid)
    repaired = bool(prof.repaired.any())
    if problem.kind == "I":
        res = oracles.residual_I(lumped, curves, grid)[2:]
        return res, [prof.alpha[-1] - targets[0], prof.beta[-1] - targets[1]], repaired
    keep = np.ones((lumped.n_hat + 1, lumped.n_check + 1), dtype=bool)
    keep[0, 0] = keep[1, 0] = keep[1, 1] = False
    if problem.kind == "II":
        res = oracles.residual_bipartite(lumped, curves, grid)[keep]
        return res, [prof.alpha[-1] - targets[0], prof.beta[-1] - targets[1]], repaired
    keep[0, 1] = False
    deltas = [prof.alpha_hat[-1] - targets[0], prof.alpha_check[-1] - targets[1], prof.beta[-1] - targets[2]]
    return oracles.residual_bipartite(lumped, curves, grid)[keep], deltas, repaired


def _public_curves(problem, lumped):
    """The curves the public constructor builds from a rate table (ValueError if it rejects the rates)."""
    if problem.kind == "I":
        return reduced_curves_I(*lumped.lam[:3], lumped.n_vertices)
    return (reduced_curves_II if problem.kind == "II" else reduced_curves_III)(lumped)


def reference_objective(problem, x):
    """The objective from the oracle copies, and whether a curve cell took its 50-digit value."""
    with np.errstate(all="ignore"):
        try:
            lumped = problem.unpack(x)
            curves = _public_curves(problem, lumped)
        except ValueError:
            return 1e12, False
        res, d, repaired = _scored(problem, lumped, curves)
        mismatch = float(np.hypot.reduce(d))
        value = float(np.max(np.abs(res))) + _PENALTY_WEIGHT * mismatch * mismatch
    return (value if np.isfinite(value) else 1e12), repaired


def reference_ls_residual(problem, outer_x):
    """ls_residual from the oracle copies, on the table the warm start assembles.

    Also whether a curve cell took its 50-digit value.
    """
    with np.errstate(all="ignore"):
        try:
            lumped = problem.assemble(outer_x)
            curves = _public_curves(problem, lumped)
        except ValueError:  # LumpedRates* reject a warm table with a rate of 0 or a non-finite one
            return np.full(problem.ls_length, 1e6), False
        res, deltas, repaired = _scored(problem, lumped, curves)
        scaled = np.sqrt(_PENALTY_WEIGHT) * np.array(deltas)
        vec = np.concatenate([(res * problem.grid).reshape(-1), scaled])
    return np.where(np.isfinite(vec), vec, 1e6), repaired


def _assert_matches(actual, expected, repaired):
    """Bit for bit; where a curve cell took its 50-digit value, within 1e-9 of the largest entry."""
    if repaired:
        scale = np.max(np.abs(expected), initial=1.0)
        np.testing.assert_allclose(actual, expected, rtol=1e-9, atol=1e-9 * scale)
    else:
        np.testing.assert_array_equal(actual, expected)


def _check_public_path(problem, x, data):
    """The public profile and residuals equal their oracle copies bit for bit, on every cell and time.

    The times are the grid in a drawn order plus 1e-9, where the gap
    quotient of e^beta switches to its midpoint derivative.
    """
    with np.errstate(all="ignore"):
        try:
            lumped = problem.unpack(x)
            curves = _public_curves(problem, lumped)
        except ValueError:
            return
        t = np.array(data.draw(st.permutations(np.append(problem.grid, 1e-9).tolist())))
        prof, ref = curves.profile(t), oracles.lumped_profile(curves, t)
        if problem.kind == "III":
            alphas = [ref.alpha_hat, ref.alpha_check], [ref.alpha_hat_prime, ref.alpha_check_prime]
            res, expected = residual_III(lumped, curves, t), oracles.residual_bipartite(lumped, curves, t)
        else:
            alphas = [ref.alpha], [ref.alpha_prime]
            if problem.kind == "I":
                res, expected = residual_I(lumped, curves, t), oracles.residual_I(lumped, curves, t)
            else:
                res, expected = residual_II(lumped, curves, t), oracles.residual_bipartite(lumped, curves, t)
        empty = (residual_I if problem.kind == "I" else residual_bipartite)(lumped, curves, [])
    assert empty.shape == expected.shape[:-1] + (0,)
    np.testing.assert_array_equal(prof.alpha, alphas[0])
    np.testing.assert_array_equal(prof.alpha_prime, alphas[1])
    kept = ~ref.repaired  # the times where the product form of e^beta stays in the normal floats
    np.testing.assert_array_equal(prof.beta[kept], ref.beta[kept])
    np.testing.assert_array_equal(prof.beta_prime[kept], ref.beta_prime[kept])
    np.testing.assert_array_equal(res[..., kept], expected[..., kept])
    np.testing.assert_allclose(prof.beta[~kept], ref.beta[~kept], rtol=0.0, atol=1e-9)
    for at in np.flatnonzero(~kept):
        _assert_matches(prof.beta_prime[at], ref.beta_prime[at], True)
        _assert_matches(res[..., at], expected[..., at], True)


def _check_evaluation_path(problem, data):
    x = _coords(data, problem.dim)
    _assert_matches(problem.objective(x), *reference_objective(problem, x))
    _check_public_path(problem, x, data)
    outer = _coords(data, problem.outer_dim)
    _assert_matches(problem.ls_residual(outer), *reference_ls_residual(problem, outer))


class TestSearchEvaluationPath:
    """The search and the public curves and residuals equal the oracle copies bit for bit."""

    @settings(max_examples=40)
    @given(n=st.integers(2, 5), data=st.data())
    def test_model_I(self, n, data):
        _check_evaluation_path(_problem("I", (n,)), data)

    @settings(max_examples=40)
    @given(m=st.integers(2, 4), n=st.integers(2, 4), data=st.data())
    def test_model_II(self, m, n, data):
        _check_evaluation_path(_problem("II", (m, n)), data)

    @settings(max_examples=40)
    @given(m=st.integers(2, 4), n=st.integers(2, 4), data=st.data())
    def test_model_III(self, m, n, data):
        _check_evaluation_path(_problem("III", (m, n)), data)

    def test_non_finite_warm_table_is_rejected(self):
        # s = softplus(60) overflows e^{-j beta}, and the inner solve then fills NaN rates
        problem = _problem("II", (3, 4))
        outer = np.zeros(problem.outer_dim)
        outer[0] = 60.0
        with pytest.raises(ValueError, match="finite"):
            problem.assemble(outer)
        np.testing.assert_array_equal(problem.ls_residual(outer), np.full(problem.ls_length, 1e6))

    @pytest.mark.parametrize(
        "kind, sizes, index", [("I", (4,), 0), ("III", (4, 3), 0), ("III", (4, 3), 16), ("II", (3, 3), 0)]
    )
    def test_subnormal_rates_are_rejected(self, kind, sizes, index):
        # softplus(-745) is the subnormal 5e-324: positive, but rate / size underflows to 0 (Model I's q,
        # Model III's q_hat and q_check), or the curves divide by a subnormal q (Model II's s).  The warm
        # start guards its outer rates before building curves, whose float constants would divide by 0
        problem = _problem(kind, sizes)
        x = np.zeros(problem.dim)
        x[index] = -745.0
        assert problem.objective(x) == 1e12
        # index 0 is lam0, s or hat00 in the full and the outer coordinates; Model III's check00 is 16 and 4
        outer = np.zeros(problem.outer_dim)
        outer[{16: 4}.get(index, index)] = -745.0
        np.testing.assert_array_equal(problem.ls_residual(outer), np.full(problem.ls_length, 1e6))

    @settings(max_examples=30)
    @given(case=st.sampled_from([("II", (3, 3)), ("II", (2, 4)), ("III", (4, 3)), ("III", (2, 3))]), data=st.data())
    def test_inner_system_is_exact(self, case, data):
        # the inner rates enter the t-weighted residual block affinely, with the coefficients read off the layout
        problem = _problem(*case)

        def floats(low, high, size):
            return np.array(data.draw(st.lists(st.floats(low, high), min_size=size, max_size=size)))

        tab = problem._fill(softplus(floats(-3.0, 3.0, problem.outer_dim)), problem.outer_pos)[:, None]
        *prof, _ = problem._profile(tab)
        a, b = problem._inner_system(tab, prof)
        x = floats(1e-3, 5.0, len(problem.inner))
        tab[problem.inner, 0] = x
        weighted = (_block(problem.layout, tab, *prof)[:, 0] * problem.grid).ravel()
        scale = max(np.abs(a * x).max(), np.abs(b).max())
        np.testing.assert_allclose(weighted, a @ x - b, rtol=0.0, atol=1e-12 * scale)


BATCH_CASES = [("I", (3,)), ("I", (5,)), ("II", (3, 3)), ("II", (2, 4)), ("III", (4, 3)), ("III", (2, 3))]


class TestBatchedObjective:
    @settings(max_examples=40)
    @given(case=st.sampled_from(BATCH_CASES), data=st.data())
    def test_rows_equal_single_calls(self, case, data):
        # -745 gives the subnormal rate 5e-324, whose q underflows to 0; 700 overflows the curves
        problem = _problem(*case)
        rows = data.draw(st.integers(1, 8))
        x = np.array([_coords(data, problem.dim) for _ in range(rows)])
        cells = st.tuples(st.integers(0, rows - 1), st.integers(0, problem.dim - 1))
        for row, col in data.draw(st.lists(cells, max_size=3)):
            x[row, col] = -745.0
        values = problem.objective(x)
        assert values.shape == (rows,)
        for row, value in zip(x, values):
            assert value == problem.objective(row)


def _drive(generator, func):
    """Run an ask/tell generator on a plain objective and return its result."""
    try:
        x = next(generator)
        while True:
            x = generator.send(func(np.copy(x)))
    except StopIteration as stop:
        return stop.value


def _scipy_nelder_mead(func, x0, maxfev, adaptive, tol):
    """scipy's result, and the evaluations each of its iterations made."""
    calls = [0]

    def counted(x):
        calls[0] += 1
        return func(x)

    ends = []
    options = {"maxfev": maxfev, "maxiter": maxfev, "xatol": tol[0], "fatol": tol[1], "adaptive": adaptive}
    out = minimize(counted, x0, method="Nelder-Mead", options=options, callback=lambda _: ends.append(calls[0]))
    return out, np.diff([len(x0) + 1] + ends)


def _nm_case(name):
    """(objective, x0, adaptive, (xatol, fatol)) of a named comparison case; each run shrinks."""
    if name == "rosen_plain":
        return rosen, np.linspace(-1.2, 1.0, 8), False, (1e-10, 1e-14)
    if name == "rosen_adaptive":
        return rosen, 30.0 * np.linspace(-1.2, 1.0, 6), True, (1e-10, 1e-14)
    kind, sizes = {"model_I": ("I", (4,)), "model_II": ("II", (2, 2)), "model_III": ("III", (2, 2))}[name]
    problem = _problem(kind, sizes)
    x0 = np.random.default_rng(3).normal(0.5, 1.0, problem.dim)
    if kind != "I":
        # a rate of 1e-313, deep in the region that scores 1e12, where contractions fail
        x0[1] = -720.0
    return problem.objective, x0, problem.dim > 6, (1e-6, 1e-10) if kind == "I" else (1e-3, 1e-3)


class TestNelderMead:
    """The ask/tell port reproduces scipy.optimize.minimize(method="Nelder-Mead") bit for bit."""

    @pytest.mark.parametrize("name", ["rosen_plain", "rosen_adaptive", "model_I", "model_II", "model_III"])
    def test_matches_scipy(self, name):
        func, x0, adaptive, tol = _nm_case(name)
        dim = len(x0)
        full, per_iteration = _scipy_nelder_mead(func, x0, 50_000, adaptive, tol)
        assert full.nfev < 50_000  # this run ends on the tolerance test
        before = dim + 1 + np.concatenate([[0], np.cumsum(per_iteration)])  # evaluations before each iteration
        two_step = np.flatnonzero(per_iteration == 2)
        shrinks = np.flatnonzero(per_iteration == dim + 2)  # reflection, contraction and dim shrink points
        assert len(two_step) and len(shrinks)
        budgets = {50_000, dim // 2 + 1}  # the tolerance run, and one cut inside the first simplex
        budgets |= {before[k] + 1 for k in two_step[:3]}  # cut after a reflection
        budgets |= {before[shrinks[0]] + 2 + j for j in (1, dim // 2, dim - 1)}  # cut part-way through a shrink
        for maxfev in sorted(budgets):
            ref = full if maxfev == 50_000 else _scipy_nelder_mead(func, x0, maxfev, adaptive, tol)[0]
            sim, fsim, nfev, nit = _drive(_nelder_mead(x0, maxfev, *tol, adaptive), func)
            np.testing.assert_array_equal(sim[0], ref.x)
            assert (np.min(fsim), nfev, nit) == (ref.fun, ref.nfev, ref.nit)
            np.testing.assert_array_equal(sim, ref.final_simplex[0])  # shows a shrink cut part-way
            np.testing.assert_array_equal(fsim, ref.final_simplex[1])
