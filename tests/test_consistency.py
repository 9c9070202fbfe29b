import warnings
from dataclasses import replace
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrdefault import consistency, model
from corrdefault._num import alpha_values, geometric_grid, popcounts
from corrdefault.consistency import (
    ParamCurves,
    alpha_curve,
    curves_from_rates,
    master_residual,
    membership_over_time,
)
from corrdefault.ctmc import (
    MonotoneGenerator,
    forward_solve,
    independent_alpha_curve,
    independent_generator,
    random_generator,
)
from corrdefault.model import Graph, ZeroProbabilityError

from conftest import fast_exit_generator, permutations
from oracles import (
    beta_pair_mp,
    exp_beta_pair,
    integrate_scalar_ode,
    log_partition_curve,
    master_residual_bits,
    membership_per_law,
    two_vertex_exact,
    uniformization_solve,
)

PAIRS = ((0, 1), (0, 2), (1, 2))
PAIRS_OF = [[(u, v) for u in range(n) for v in range(u + 1, n)] for n in range(7)]


def permute_mask(mask, perm):
    out = 0
    for v, p in enumerate(perm):
        out |= ((mask >> v) & 1) << p
    return out


class TestAlphaCurve:
    def test_unit_rates_at_log2(self):
        alpha, _, _ = alpha_curve(1.0, 2.0, 1.0, np.array([np.log(2.0)]))
        assert alpha[0] == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_branch(self):
        alpha, alpha_prime, _ = alpha_curve(2.0, 1.3, 1.3, np.array([0.5]))
        assert alpha[0] == pytest.approx(0.0, abs=1e-14)
        assert alpha_prime[0] == pytest.approx(2.0, abs=1e-12)

    def test_requires_positive_inputs(self):
        with pytest.raises(ValueError):
            alpha_curve(0.0, 1.0, 1.0, np.array([0.5]))
        with pytest.raises(ValueError):
            alpha_curve(1.0, 1.0, 1.0, np.array([-0.1]))

    def test_matches_ode_oracle(self, rng):
        grid = np.geomspace(1e-4, 1.0, 24)
        for trial in range(10):
            q = rng.uniform(0.2, 2.0)
            r_empty = rng.uniform(0.2, 2.0)
            if trial % 3 == 0:
                r_u = r_empty + 1e-7  # near-degenerate gap
            else:
                r_u = rng.uniform(0.2, 2.0)
            alpha, _, _ = alpha_curve(q, r_empty, r_u, grid)
            oracle = integrate_scalar_ode(
                lambda t, a: q * np.exp(-a) + (r_empty - r_u), grid[0], alpha[0], grid
            )
            np.testing.assert_allclose(alpha, oracle, atol=1e-8)

    def test_branch_continuity(self):
        t = np.geomspace(1e-3, 1.0, 16)
        near, near_prime, _ = alpha_curve(1.4, 1.0, 1.0 - 1e-7, t)
        exact, exact_prime, _ = alpha_curve(1.4, 1.0, 1.0, t)
        np.testing.assert_allclose(near, exact, atol=1e-6)
        np.testing.assert_allclose(near_prime, exact_prime, atol=1e-6)

    def test_overflowing_exp_alpha_keeps_alpha_finite(self):
        # with delta t past about 709.78, e^alpha is inf, and alpha used to be inf too
        curves = curves_from_rates(fast_exit_generator())
        grid = geometric_grid(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            alpha, _, exp_alpha = curves.alpha(grid)
            single, _, single_exp = alpha_curve(1.0, 800.0, 0.0, 1.0)
        assert np.isinf(exp_alpha[-1]).all() and single_exp == np.inf
        finite = np.isfinite(exp_alpha)
        np.testing.assert_array_equal(alpha[finite], np.log(exp_alpha[finite]))  # the same bits as before
        with mpmath.workdps(50):
            for value, q, delta in [*zip(alpha[-1], curves.q, curves.delta), (single, 1.0, 800.0)]:
                exact = mpmath.log(mpmath.mpf(float(q)) / float(delta) * mpmath.expm1(float(delta)))
                assert abs(value - exact) <= 1e-15 * abs(exact)

    def test_beta_prime_past_alpha_underflow(self):
        # at t = 1, e^{-alpha} and w = e^beta are both 0, and beta' was 0/0 = NaN for every pair;
        # at t = 0.9 only e^{-alpha} is 0, and beta' lost its drive term: off by 0.86 in 798
        curves = curves_from_rates(fast_exit_generator())
        t = np.array([0.5, 0.9, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            beta, beta_prime = curves.beta_matrices(t)
        for (u, v), (q_u, d_u, q_v, d_v, drive_u, drive_v, c) in curves.pair_curves.items():
            exact = beta_pair_mp(q_u, d_u, q_v, d_v, drive_v, drive_u, c, t, order=1)
            np.testing.assert_allclose(beta_prime[:, u, v], exact, rtol=1e-13, atol=0.0)
            exact = beta_pair_mp(q_u, d_u, q_v, d_v, drive_v, drive_u, c, t)
            np.testing.assert_allclose(beta[:, u, v], exact, rtol=0.0, atol=1e-12)


def two_vertex_generator(q_u, q_v, q_uv, q_vu):
    """The 2-vertex chain with q(empty, 0) = q_u, q(empty, 1) = q_v, q({0}, 1) = q_uv and q({1}, 0) = q_vu."""
    rates = np.zeros((4, 2))
    rates[0] = q_u, q_v
    rates[0b01, 1], rates[0b10, 0] = q_uv, q_vu
    return MonotoneGenerator(2, rates)


class TestPairCurve:
    def test_symmetric_unit_rates_start_at_zero(self):
        grid = np.array([1e-6, 1e-3, 1.0])
        beta, _ = curves_from_rates(two_vertex_generator(1.0, 1.0, 1.0, 1.0), t_grid=grid).beta(0, 1, grid)
        assert beta[0] == pytest.approx(0.0, abs=1e-5)

    def test_two_vertex_extraction_oracle(self, rng):
        grid = geometric_grid(1.0, 24)
        for _ in range(5):
            q_u, q_v, q_uv, q_vu = rng.uniform(0.2, 2.0, 4)
            curves = curves_from_rates(two_vertex_generator(q_u, q_v, q_uv, q_vu), t_grid=grid)
            p0, pu, pv, puv = two_vertex_exact(q_u, q_v, q_uv, q_vu, grid)
            beta_hat = np.log(puv * p0 / (pu * pv))
            np.testing.assert_allclose(curves.beta(0, 1, grid)[0], beta_hat, atol=1e-6)

    @settings(max_examples=30)
    @given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), t=st.floats(0.01, 1.0), on_grid=st.booleans())
    def test_pair_and_matrix_evaluators_agree(self, n, seed, t, on_grid):
        curves = curves_from_rates(random_generator(n, seed=seed))
        t = geometric_grid(1.0, 8) * t if on_grid else t
        b, bp = curves.beta_matrices(t)
        diagonal = np.arange(n)
        assert not b[..., diagonal, diagonal].any() and not bp[..., diagonal, diagonal].any()
        for u, v in PAIRS_OF[n]:
            for pair in (curves.beta(u, v, t), curves.beta(v, u, t)):
                np.testing.assert_array_equal(pair[0], b[..., u, v])
                np.testing.assert_array_equal(pair[1], bp[..., u, v])

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 1.0))
    def test_matches_uniformized_cells(self, seed, t):
        gen = random_generator(3, seed=seed)
        curves = curves_from_rates(gen, t_grid=[t])
        p = uniformization_solve(gen, t)
        for u, v in PAIRS:
            beta, _ = curves.beta(u, v, t)
            exact = np.log(p[(1 << u) | (1 << v)] * p[0] / (p[1 << u] * p[1 << v]))
            assert abs(float(beta) - exact) < 1e-10

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 1.0))
    def test_derivative_matches_central_difference(self, seed, t):
        gen = random_generator(3, seed=seed)
        curves = curves_from_rates(gen, t_grid=[t])
        # rounding in beta (~1e-11 near t = 0.01) over 2h, plus the O(h^2) term:
        # both stay below 1e-6 at this step
        h = 1e-3 * t
        for u, v in PAIRS:
            _, slope = curves.beta(u, v, t)
            up, _ = curves.beta(u, v, t + h)
            down, _ = curves.beta(u, v, t - h)
            assert float(slope) == pytest.approx((up - down) / (2.0 * h), rel=1e-5, abs=1e-5)

    def test_unreachable_pair_is_named(self):
        # the pair was formatted from a numpy array, as (np.int64(0), np.int64(1))
        with pytest.raises(ValueError) as exc:
            curves_from_rates(two_vertex_generator(1.0, 1.0, 0.0, 0.0))
        assert str(exc.value) == "the pair state (0, 1) is unreachable; beta diverges to -inf"


class TestCurvesFromRates:
    def test_independent_generator_curves(self):
        alpha_target = np.array([0.3, -0.7, 1.1])
        gen = independent_generator(alpha_target, horizon=1.0)
        curves = curves_from_rates(gen)
        grid = geometric_grid(1.0, 16)
        for t in grid:
            alpha, _, exp_alpha = curves.alpha(t)
            ref_alpha, ref_exp = independent_alpha_curve(alpha_target, 1.0, np.array([t]))
            np.testing.assert_allclose(exp_alpha, ref_exp.ravel(), rtol=1e-10)
            for u, v in curves.pair_curves:
                beta, _ = curves.beta(u, v, t)
                assert abs(float(beta)) < 1e-8

    def test_terminal_boundary_identity(self):
        alpha_target = np.array([0.4, -0.2])
        gen = independent_generator(alpha_target, horizon=1.0)
        curves = curves_from_rates(gen)
        alpha, _, _ = curves.alpha(1.0)
        np.testing.assert_allclose(alpha, alpha_target, atol=1e-12)

    def test_zero_first_jump_rate_rejected(self):
        rates = np.zeros((4, 2))
        rates[0, 0] = 1.0  # vertex 1 can never default first
        rates[1, 1] = 1.0
        rates[2, 0] = 1.0
        gen = MonotoneGenerator(2, rates)
        with pytest.raises(ValueError, match="alpha_1"):
            curves_from_rates(gen)

    def test_beta_rejects_invalid_vertex_pairs(self):
        curves = curves_from_rates(random_generator(3, seed=1))
        for u, v in ((0, 7), (7, 0), (1, 1), (-1, 0), (0, -3), (3, 2)):
            with pytest.raises(ValueError, match="distinct vertices"):
                curves.beta(u, v, 0.5)
        beta, beta_prime = curves.beta(2, 0, np.array([0.25, 0.5]))
        assert beta.shape == beta_prime.shape == (2,) and np.all(beta != 0.0)
        scalar, _ = curves.beta(0, 2, 0.5)
        assert scalar.shape == () and scalar == beta[1]
        # a valid pair with no stored curve is the zero curve
        lam = np.logaddexp(0.0, [0.1, 0.6, -0.2])
        empty = ParamCurves(3, lam, lam, np.zeros((0, 2), int), np.zeros((7, 0)), horizon=1.0)
        assert empty.beta(0, 2, 0.5) == (0.0, 0.0)
        with pytest.raises(ValueError, match="distinct vertices"):
            empty.beta(0, 3, 0.5)

    def test_pair_coefficients_match_extraction_oracle(self):
        from corrdefault.model import SubsetDist, extract_interactions

        gen = random_generator(3, seed=21)
        curves = curves_from_rates(gen)
        t = 0.5
        sol = forward_solve(gen, np.array([t]))
        coeffs = extract_interactions(SubsetDist(3, sol.probs[0]))
        alpha, _, _ = curves.alpha(t)
        for u in range(3):
            assert alpha[u] == pytest.approx(coeffs.single(u), abs=1e-6)
        for u in range(3):
            for v in range(u + 1, 3):
                beta, _ = curves.beta(u, v, t)
                assert float(beta) == pytest.approx(coeffs.pair(u, v), abs=1e-6)


class TestMasterResidual:
    def test_independent_construction_satisfies_all_subsets(self):
        gen = independent_generator([0.3, -0.7, 1.1], horizon=1.0)
        curves = curves_from_rates(gen)
        for t in (0.1, 0.5, 0.9):
            res = master_residual(gen, curves, t)
            assert np.max(np.abs(res)) < 1e-7

    def test_low_order_subsets_vanish_by_construction(self):
        gen = random_generator(3, seed=13)
        curves = curves_from_rates(gen)
        pc = popcounts(3)
        for t in (0.05, 0.5, 1.0):
            res = master_residual(gen, curves, t)
            assert np.max(np.abs(res[pc <= 2])) < 1e-7

    def test_generic_triple_subset_residual_is_positive(self):
        gen = random_generator(3, seed=13)
        curves = curves_from_rates(gen)
        res = master_residual(gen, curves, 0.5)
        assert abs(res[0b111]) > 1e-2

    def test_curves_without_pair_entries(self):
        gen = independent_generator([0.1, 0.6], horizon=1.0)
        lam = np.logaddexp(0.0, [0.1, 0.6])
        curves = ParamCurves(2, lam, lam, np.zeros((0, 2), int), np.zeros((7, 0)), horizon=1.0)
        res = master_residual(gen, curves, 0.5)
        assert np.max(np.abs(res)) < 1e-10

    @settings(max_examples=30)
    @given(perm=permutations(5), seed=st.integers(0, 2**32 - 1))
    @example(perm=(2, 0, 1), seed=17)
    def test_relabeling_commutes(self, perm, seed):
        gen = random_generator(len(perm), seed=seed)
        curves = curves_from_rates(gen)
        curves_p = curves_from_rates(gen.relabel(perm))
        res = master_residual(gen, curves, 0.5)
        res_p = master_residual(gen.relabel(perm), curves_p, 0.5)
        for mask in range(1 << len(perm)):
            assert res_p[permute_mask(mask, perm)] == pytest.approx(res[mask], abs=1e-8)

    @settings(max_examples=20)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), n_times=st.integers(1, 5))
    def test_grid_evaluation_equals_scalar_calls(self, n, seed, n_times):
        gen = random_generator(n, seed=seed)
        grid = geometric_grid(1.0, n_times + 1)[1:]
        curves = curves_from_rates(gen, t_grid=grid)
        res = master_residual(gen, curves, grid)
        assert res.shape == (n_times, 1 << n)
        np.testing.assert_array_equal(res, np.stack([master_residual(gen, curves, float(t)) for t in grid]))
        # blocks of two times, the last one short when n_times is odd
        with mock.patch.object(consistency, "_RESIDUAL_CELLS", 2 * (1 << n) * (n + 1)):
            np.testing.assert_array_equal(master_residual(gen, curves, grid), res)
        b, bp = curves.beta_matrices(grid)
        for k, t in enumerate(grid):
            b_t, bp_t = curves.beta_matrices(float(t))
            np.testing.assert_array_equal(b[k], b_t)
            np.testing.assert_array_equal(bp[k], bp_t)
            for u, v in PAIRS_OF[n]:
                beta, beta_prime = curves.beta(v, u, float(t))
                assert (b[k, u, v], b[k, v, u], bp[k, u, v], bp[k, v, u]) == (beta, beta, beta_prime, beta_prime)
        # every pair column of the batched kernel against the former closed form, pair by pair
        r_empty = gen.r_empty
        for u, v in PAIRS_OF[n]:
            d_u, d_v, c = r_empty - gen.r_u(u), r_empty - gen.r_u(v), r_empty - gen.r_uv(u, v)
            beta = np.log(exp_beta_pair(gen.q_u(u), d_u, gen.q_u(v), d_v, gen.q_uv(u, v), gen.q_uv(v, u), c, grid))
            np.testing.assert_array_equal(b[:, u, v], beta)
            _, ap_u, ea_u = alpha_values(gen.q_u(u), d_u, grid)
            _, ap_v, ea_v = alpha_values(gen.q_u(v), d_v, grid)
            drive = (gen.q_uv(v, u) / ea_u + gen.q_uv(u, v) / ea_v) * np.exp(-beta)
            # relative to the terms of beta' = c - alpha_u' - alpha_v' + drive, which cancel
            gap = np.abs(bp[:, u, v] - (c - (ap_u + ap_v) + drive))
            np.testing.assert_array_less(gap, 1e-12 * (abs(c) + ap_u + ap_v + drive))

    def test_term_past_the_float_range_rounds_to_minus_inf(self):
        # at t = 0.9, q e^{-alpha_u - sum beta} for the full set exceeds 1.8e308; numpy used to warn on overflow
        gen = fast_exit_generator()
        res = master_residual(gen, curves_from_rates(gen, horizon=0.9), geometric_grid(0.9))
        assert res[-1, 0b111] == -np.inf
        assert np.isfinite(res).sum() == res.size - 1

    def test_zero_rate_adds_nothing_past_the_float_range(self):
        # both overflowing terms into the full set have rate 0, where 0 * inf would be nan
        rates = fast_exit_generator().rates.copy()
        rates[0b101, 1] = rates[0b011, 2] = 0.0
        gen = MonotoneGenerator(3, rates)
        res = master_residual(gen, curves_from_rates(gen, horizon=0.9), 0.9)
        assert np.isfinite(res).all()
        assert res[0b111] < -1e305

    def test_rejects_times_outside_the_horizon(self):
        gen = random_generator(3, seed=1)
        curves = curves_from_rates(gen)
        for t in (0.0, np.array([0.5, 1.5]), np.array([-0.1, 0.5])):
            with pytest.raises(ValueError, match="horizon"):
                master_residual(gen, curves, t)

    @settings(max_examples=30)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), t=st.floats(1e-3, 1.0))
    def test_matches_bit_matrix_reference(self, n, seed, t):
        gen = random_generator(n, seed=seed)
        curves = curves_from_rates(gen)
        ref = master_residual_bits(gen, curves, t)
        np.testing.assert_array_less(
            np.abs(master_residual(gen, curves, t) - ref), 1e-11 * np.maximum(1.0, np.abs(ref))
        )


class TestPartitionCurveIdentity:
    def test_two_vertex_log_partition_slope(self, rng):
        # with N = 2 the consistency system is fully satisfied, so the
        # partition function must grow at exactly the empty-set exit rate
        for seed in (31, 32, 33):
            gen = random_generator(2, seed=seed)
            curves = curves_from_rates(gen)
            for t in (0.05, 0.3, 1.0):
                _, slope = log_partition_curve(curves, t)
                assert slope == pytest.approx(gen.r_empty, abs=1e-6)


@st.composite
def generators_and_graphs(draw):
    """A random generator at n = 2..8 with the empty, the complete or a random graph."""
    n = draw(st.integers(2, 8))
    gen = random_generator(n, seed=draw(st.integers(0, 2**32 - 1)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.one_of(st.just(()), st.just(pairs), st.lists(st.sampled_from(pairs), unique=True)))
    return gen, Graph(n, tuple(edges))


class TestMembershipOverTime:
    @settings(max_examples=40)
    @given(generators_and_graphs())
    def test_matches_per_law_reference_bit_for_bit(self, case):
        gen, graph = case
        grid = geometric_grid(1.0, 8)
        peak, per_t = membership_over_time(gen, grid, graph)
        reference = membership_per_law(forward_solve(gen, grid).probs, graph)
        np.testing.assert_array_equal(per_t, reference)
        assert peak == reference.max()

    def test_one_transform_per_call(self):
        gen = random_generator(5, seed=4)
        with mock.patch.object(model, "mobius_from_log", wraps=model.mobius_from_log) as transform:
            _, per_t = membership_over_time(gen, geometric_grid(1.0, 16))
        assert transform.call_count == 1 and per_t.shape == (16,)

    def test_rejects_bad_laws_and_graphs(self):
        gen = random_generator(3, seed=1)
        grid = geometric_grid(1.0, 4)
        solution = forward_solve(gen, grid)
        zero = solution.probs.copy()
        zero[2, 0] += zero[2, 7]
        zero[2, 7] = 0.0
        with pytest.raises(ZeroProbabilityError, match="empty cells"):
            membership_over_time(gen, grid, solution=replace(solution, probs=zero))
        nan = solution.probs.copy()
        nan[1, 3] = np.nan
        with pytest.raises(ValueError, match="finite") as exc:
            membership_over_time(gen, grid, solution=replace(solution, probs=nan))
        assert not isinstance(exc.value, ZeroProbabilityError)
        with pytest.raises(ValueError, match="sizes differ"):
            membership_over_time(gen, grid, Graph.empty(4), solution)

    def test_independent_generator_stays_in_family(self):
        gen = independent_generator([0.3, -0.7, 1.1], horizon=1.0)
        peak, per_t = membership_over_time(gen, geometric_grid(1.0, 16))
        assert peak <= 1e-9
        assert per_t.shape == (16,)

    @pytest.mark.parametrize("n", [8, 10])
    def test_independent_generator_stays_in_family_at_larger_n(self, n):
        alpha = [0.3, -0.7, 1.1, -0.2, 0.6, -1.2, 0.1, -0.4, 0.9, -0.5][:n]
        gen = independent_generator(alpha, horizon=1.0)
        peak, per_t = membership_over_time(gen, geometric_grid(1.0, 16))
        assert peak <= 1e-9
        assert per_t.shape == (16,)

    def test_shared_forward_solution(self):
        gen = random_generator(4, seed=2)
        grid = geometric_grid(1.0, 8)
        solution = forward_solve(gen, grid)
        with mock.patch.object(consistency, "forward_solve", side_effect=AssertionError("solved again")):
            peak, per_t = membership_over_time(gen, grid, solution=solution)
        ref_peak, ref_per_t = membership_over_time(gen, grid)
        assert peak == ref_peak
        np.testing.assert_array_equal(per_t, ref_per_t)
        with pytest.raises(ValueError, match="grid"):
            membership_over_time(gen, grid[:-1], solution=solution)
        with pytest.raises(ValueError, match="grid"):
            membership_over_time(random_generator(3, seed=2), grid, solution=solution)

    def test_state_dependent_rate_on_missing_edge_detected(self):
        rates = np.zeros((4, 2))
        rates[0, 0] = rates[0, 1] = 1.0
        rates[1, 1] = 2.5  # v jumps faster once u is down
        rates[2, 0] = 1.0
        gen = MonotoneGenerator(2, rates)
        graph = Graph.empty(2)  # no edge between the two vertices
        peak, _ = membership_over_time(gen, geometric_grid(1.0, 8), graph)
        assert peak > 1e-2

    def test_single_vertex_chain_trivially_in_family(self):
        gen = MonotoneGenerator(1, np.array([[0.7], [0.0]]))
        peak, _ = membership_over_time(gen, geometric_grid(1.0, 8))
        assert peak == 0.0
