from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrdefault import ctmc
from corrdefault._num import geometric_grid
from corrdefault.ctmc import (
    MonotoneGenerator,
    _inverse_cdf,
    _uniformised_step,
    forward_solve,
    independent_alpha_curve,
    independent_generator,
    independent_terminal_law,
    random_generator,
    sample_paths,
)
from corrdefault.model import SubsetDist

from conftest import inverse, permutations, unreachable_triple_generator
from oracles import forward_step_gather, taylor_law_mp, uniformization_solve

seeds = st.integers(0, 2**32 - 1)


@st.composite
def sparse_generators(draw, max_n=5):
    """Generators with uniform rates on a random share of the allowed jumps and zero on the rest."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(seeds))
    rates = random_generator(n, seed=draw(seeds)).rates
    keep = rng.random(rates.shape) < draw(st.sampled_from([1.0, 0.6, 0.3]))
    return MonotoneGenerator(n, np.where(keep, rates, 0.0))


class TestGeneratorValidation:
    def test_negative_rate_rejected(self):
        rates = np.zeros((4, 2))
        rates[0, 0] = -1.0
        with pytest.raises(ValueError, match="nonnegative"):
            MonotoneGenerator(2, rates)

    def test_rate_for_member_vertex_rejected(self):
        rates = np.zeros((4, 2))
        rates[1, 0] = 1.0  # vertex 0 already in subset {0}
        with pytest.raises(ValueError, match="already in"):
            MonotoneGenerator(2, rates)

    @settings(max_examples=30)
    @given(n=st.integers(1, 6), others=st.integers(0, 63), rate=st.sampled_from([5e-324, 1e-300, 1.0]))
    @example(n=3, others=0, rate=5e-324)
    def test_any_member_rate_rejected(self, n, others, rate):
        # every vertex v, up to n - 1, in a subset A that holds it; a subnormal rate is nonzero too
        for v in range(n):
            mask = (1 << v) | (others & ((1 << n) - 1))
            rates = random_generator(n, seed=v).rates.copy()
            rates[mask, v] = rate
            with pytest.raises(ValueError, match="already in"):
                MonotoneGenerator(n, rates)

    @settings(max_examples=30)
    @given(permutations(6), seeds)
    def test_relabel_round_trip(self, perm, seed):
        gen = random_generator(len(perm), seed=seed)
        np.testing.assert_array_equal(gen.relabel(perm).relabel(inverse(perm)).rates, gen.rates)

    @pytest.mark.parametrize("perm", [(0, 0), (1, 2), (0,), (0, 1, 2)])
    def test_relabel_rejects_non_permutations(self, perm):
        with pytest.raises(ValueError, match="not a permutation"):
            random_generator(2, seed=1).relabel(perm)

    def test_full_set_is_absorbing(self, rng):
        gen = random_generator(3, seed=1)
        assert gen.exit_rates[7] == 0.0

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: MonotoneGenerator(n, np.zeros((1 << 15, 15))),
            lambda n: MonotoneGenerator.from_entries(n, []),
            lambda n: MonotoneGenerator.from_function(n, lambda mask, v: 1.0),
            lambda n: independent_generator(np.full(n, 0.1)),
            lambda n: random_generator(n, seed=1),
        ],
        ids=["constructor", "from_entries", "from_function", "independent_generator", "random_generator"],
    )
    def test_cap(self, build):
        # the four builders allocated their (2^n, n) table before the check: 320 TiB at n = 40, a MemoryError
        with pytest.raises(ValueError, match="40 vertices exceeds the generator cap of 14"):
            build(40)

    def test_low_order_accessors(self):
        gen = random_generator(3, seed=2)
        assert gen.q_u(1) == gen.rates[0, 1]
        assert gen.q_uv(0, 2) == gen.rates[1, 2]
        assert gen.r_u(2) == pytest.approx(gen.rates[4, 0] + gen.rates[4, 1])
        assert gen.r_empty == pytest.approx(gen.rates[0].sum())


class TestForwardSolve:
    def test_two_state_chain(self):
        lam = 0.8
        gen = MonotoneGenerator(1, np.array([[lam], [0.0]]))
        grid = np.linspace(0.1, 2.0, 12)
        sol = forward_solve(gen, grid)
        np.testing.assert_allclose(sol.probs[:, 1], 1.0 - np.exp(-lam * grid), atol=1e-10)

    def test_empty_cell_decays_at_total_rate(self):
        for seed in range(6):
            gen = random_generator(4, seed=seed)
            grid = geometric_grid(1.0, 16)
            sol = forward_solve(gen, grid)
            np.testing.assert_allclose(
                sol.probs[:, 0], np.exp(-gen.r_empty * grid), atol=1e-9
            )

    def test_matches_uniformization_oracle(self):
        gen = random_generator(3, seed=9)
        sol = forward_solve(gen, np.array([0.7]))
        oracle = uniformization_solve(gen, 0.7)
        np.testing.assert_allclose(sol.probs[0], oracle, atol=1e-8)

    def test_probability_conservation(self):
        gen = random_generator(4, seed=3)
        sol = forward_solve(gen, geometric_grid(1.0, 16))
        assert not sol.renormalized.any()
        np.testing.assert_allclose(sol.probs.sum(axis=1), 1.0, atol=1e-10)

    def test_monotone_support_growth(self):
        gen = random_generator(3, seed=4)
        sol = forward_solve(gen, geometric_grid(1.0, 16))
        support = sol.probs > 1e-13
        assert np.all(support[:-1] <= support[1:])

    @settings(max_examples=30)
    @given(sparse_generators(max_n=7), seeds)
    def test_rhs_matches_gather_reference_bit_for_bit(self, gen, seed):
        # the step of the uniformised series, the one kernel forward_solve calls
        rate_bound = max(float(gen.exit_rates.max()), 0.5)
        p = np.random.default_rng(seed).random(1 << gen.n_vertices)
        np.testing.assert_array_equal(
            _uniformised_step(gen, rate_bound)(p), forward_step_gather(gen, rate_bound)(p)
        )

    @pytest.mark.parametrize("n,seed", [(1, 0), (2, 3), (3, 5), (4, 1), (5, 2)])
    def test_relative_precision_against_mpmath(self, n, seed):
        # every cell, down to order t^|A| at t = 1e-6, against a 40-digit Taylor series
        gen = random_generator(n, seed=seed)
        times = np.array([1e-6, 1e-3, 0.5, 3.0, 40.0])
        sol = forward_solve(gen, times)
        for row, t in zip(sol.probs, times):
            exact = taylor_law_mp(gen, t)
            assert np.all(exact > 0.0)
            np.testing.assert_array_less(np.abs(row - exact), 1e-12 * exact)

    @pytest.mark.parametrize("t", [1e-3, 1e-2, 1.0])
    def test_uniformization_oracle_keeps_small_cells(self, t):
        # the oracle itself: no cell of order t^|A| is cut off at n = 8
        gen = random_generator(8, seed=1)
        oracle = uniformization_solve(gen, t)
        assert np.all(oracle > 0.0)
        row = forward_solve(gen, np.array([t])).probs[0]
        np.testing.assert_array_less(np.abs(row - oracle), 1e-11 * oracle)

    def test_unreachable_cells_are_exactly_zero(self):
        gen = unreachable_triple_generator()
        sol = forward_solve(gen, geometric_grid(1.0, 8))
        assert np.all(sol.probs[:, 0b0111] == 0.0)
        exact = taylor_law_mp(gen, 0.5)
        assert exact[0b0111] == 0.0
        reachable = exact > 0.0
        assert reachable.sum() == 15
        row = forward_solve(gen, np.array([0.5])).probs[0]
        np.testing.assert_array_less(np.abs(row - exact)[reachable], 1e-12 * exact[reachable])

    def test_series_length_is_counted(self):
        gen = random_generator(3, seed=0)
        sol = forward_solve(gen, np.array([0.0, 1.0]))
        mean = gen.exit_rates.max()
        assert sol.n_terms == int(np.ceil(3 + mean + 10.0 * np.sqrt(mean) + 30)) + 1
        np.testing.assert_array_equal(sol.probs[0], np.eye(8)[0])
        assert forward_solve(MonotoneGenerator(2, np.zeros((4, 2))), np.array([1.0])).probs[0, 0] == 1.0

    @settings(max_examples=15)
    @given(sparse_generators(max_n=6), seeds)
    def test_mass_is_conserved(self, gen, seed):
        times = np.sort(np.random.default_rng(seed).uniform(0.0, 5.0, 6))
        sol = forward_solve(gen, times)
        assert not sol.renormalized.any()
        assert np.all(sol.probs >= 0.0)
        np.testing.assert_allclose(sol.probs.sum(axis=1), 1.0, rtol=0, atol=1e-13)

    @settings(max_examples=15)
    @given(permutations(6), seeds)
    def test_relabeling_commutes(self, perm, seed):
        gen = random_generator(len(perm), seed=seed)
        grid = geometric_grid(1.0, 6)
        relabeled = forward_solve(gen.relabel(perm), grid).probs
        for row, row_p in zip(forward_solve(gen, grid).probs, relabeled):
            moved = SubsetDist(len(perm), row).relabel(perm).probs
            np.testing.assert_allclose(moved, row_p, rtol=1e-12, atol=0)

    def test_grid_must_increase(self):
        gen = random_generator(2, seed=0)
        with pytest.raises(ValueError, match="increasing"):
            forward_solve(gen, np.array([0.5, 0.2]))


class TestIndependentConstruction:
    def test_rate_values(self):
        gen = independent_generator([0.0, 0.0], horizon=1.0)
        assert gen.q_u(0) == pytest.approx(np.log(2.0), abs=1e-14)
        gen2 = independent_generator([np.log(np.e - 1.0)], horizon=1.0)
        assert gen2.q_u(0) == pytest.approx(1.0, abs=1e-14)

    def test_rates_do_not_depend_on_state(self):
        gen = independent_generator([0.3, -0.7, 1.1])
        for v in range(3):
            rates = [gen.rates[a, v] for a in range(8) if not (a >> v) & 1]
            assert np.ptp(rates) == 0.0

    def test_terminal_law_is_product(self):
        alpha = np.array([0.3, -0.7])
        horizon = 2.0
        gen = independent_generator(alpha, horizon)
        sol = forward_solve(gen, np.array([horizon]))
        target = independent_terminal_law(alpha)
        np.testing.assert_allclose(sol.probs[0], target.probs, atol=1e-9)


class TestIndependentAlphaCurve:
    def test_horizon_boundary(self):
        alpha, exp_alpha = independent_alpha_curve(0.8, 1.0, np.array([1.0]))
        assert alpha[0] == pytest.approx(0.8, abs=1e-12)
        assert exp_alpha[0] == pytest.approx(np.exp(0.8), abs=1e-12)

    def test_log3_midpoint(self):
        alpha, _ = independent_alpha_curve(np.log(3.0), 1.0, np.array([0.5]))
        assert alpha[0] == pytest.approx(0.0, abs=1e-14)

    def test_exp_alpha_vanishes_monotonically_at_zero(self):
        t = np.geomspace(1e-9, 1.0, 40)
        _, exp_alpha = independent_alpha_curve(0.4, 1.0, t)
        assert np.all(np.diff(exp_alpha) > 0.0)
        assert exp_alpha[0] < 1e-8

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            independent_alpha_curve(0.4, 1.0, np.array([0.0]))


class TestPathSampling:
    def test_paths_are_monotone_with_distinct_vertices(self):
        gen = random_generator(4, seed=5)
        paths, _ = sample_paths(gen, 1.0, 200, seed=3)
        for path in paths:
            assert len(set(path.vertices)) == len(path.vertices)
            assert all(t1 < t2 for t1, t2 in zip(path.times, path.times[1:]))
            mask = 0
            for v in path.vertices:
                assert not (mask >> v) & 1
                mask |= 1 << v
            assert mask == path.terminal

    def test_deterministic_given_seed(self):
        gen = random_generator(3, seed=6)
        paths_a, emp_a = sample_paths(gen, 1.0, 50, seed=10)
        paths_b, emp_b = sample_paths(gen, 1.0, 50, seed=10)
        assert paths_a == paths_b
        np.testing.assert_array_equal(emp_a.probs, emp_b.probs)

    def test_prefix_stability_under_path_count(self):
        # path k reads a fixed slice of the seed's stream: the first paths do not
        # depend on how many follow, so any partition of the path range agrees
        gen = random_generator(3, seed=6)
        paths_5, _ = sample_paths(gen, 1.0, 5, seed=10)
        paths_20, _ = sample_paths(gen, 1.0, 20, seed=10)
        assert paths_5 == paths_20[:5]

    @settings(max_examples=20)
    @given(sparse_generators(), st.integers(1, 12), seeds)
    def test_output_does_not_depend_on_block_size(self, gen, n_paths, seed):
        paths, emp = sample_paths(gen, 1.0, n_paths, seed)
        for block in (1, 3):
            with mock.patch.object(ctmc, "_PATH_BLOCK", block):
                blocked, blocked_emp = sample_paths(gen, 1.0, n_paths, seed)
            assert blocked == paths
            np.testing.assert_array_equal(blocked_emp.probs, emp.probs)

    @settings(max_examples=20)
    @given(sparse_generators(), st.integers(1, 5), st.integers(1, 12), st.integers(0, 12), seeds)
    def test_prefix_stability_across_block_boundaries(self, gen, block, n_short, n_more, seed):
        with mock.patch.object(ctmc, "_PATH_BLOCK", block):
            short, _ = sample_paths(gen, 1.0, n_short, seed)
            longer, _ = sample_paths(gen, 1.0, n_short + n_more, seed)
        assert longer[:n_short] == short

    def test_prefix_stability_across_the_default_block(self):
        gen = random_generator(3, seed=6)
        block = ctmc._PATH_BLOCK
        short, _ = sample_paths(gen, 1.0, block + 2, seed=10)
        longer, _ = sample_paths(gen, 1.0, 2 * block + 1, seed=10)
        assert longer[: block + 2] == short

    @settings(max_examples=30)
    @given(sparse_generators(), seeds)
    def test_no_jump_has_zero_rate(self, gen, seed):
        paths, _ = sample_paths(gen, 5.0, 200, seed)
        for path in paths:
            mask = 0
            for v in path.vertices:
                assert gen.rates[mask, v] > 0.0
                mask |= 1 << v

    def test_vertex_choice_skips_zero_rates_at_both_ends(self):
        cum = np.cumsum([[0.0, 0.3, 0.0, 0.7, 0.0]] * 2, axis=1)
        assert _inverse_cdf(cum, np.array([0.0, np.nextafter(1.0, 0.0)])).tolist() == [1, 3]
        # with a subnormal total, u * total rounds up to the total itself
        cum = np.cumsum([[0.0, 5e-324, 0.0]], axis=1)
        assert 0.9 * cum[0, -1] == cum[0, -1]
        assert _inverse_cdf(cum, np.array([0.9])).tolist() == [1]

    def test_absorbing_start_stays_empty(self):
        rates = np.zeros((4, 2))
        rates[1, 1] = 1.0
        rates[2, 0] = 1.0
        gen = MonotoneGenerator(2, rates)  # no exits from the empty set
        paths, emp = sample_paths(gen, 1.0, 30, seed=1)
        assert all(p.terminal == 0 for p in paths)
        assert emp.probs[0] == 1.0

    def test_independent_terminal_frequencies(self):
        gen = independent_generator([0.0, 0.0], horizon=1.0)
        _, emp = sample_paths(gen, 1.0, 100_000, seed=4)
        for cell in range(4):
            p = 0.25
            assert abs(emp.probs[cell] - p) < 3.0 * np.sqrt(p * (1 - p) / 100_000)

    def test_empirical_total_variation_against_forward_solve(self):
        gen = random_generator(4, seed=8)
        n_paths = 100_000
        _, emp = sample_paths(gen, 1.0, n_paths, seed=5)
        sol = forward_solve(gen, np.array([1.0]))
        tv = 0.5 * np.abs(emp.probs - sol.probs[0]).sum()
        assert tv < 4.0 * np.sqrt((1 << 4) / n_paths)
