"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `python -m pytest tests/test_acceptance.py -v -s`.  The search
criteria (7-9) re-run the multi-start optimization at full restart counts;
their infeasible-case floors are compared against regression baselines
recorded from the first full run of this suite (same seeds and budgets).
"""

import time

import numpy as np

from corrdefault._num import geometric_grid, popcounts
from corrdefault.consistency import alpha_curve, curves_from_rates, membership_over_time
from corrdefault.ctmc import (
    MonotoneGenerator,
    forward_solve,
    independent_generator,
    independent_terminal_law,
    random_generator,
)
from corrdefault.model import (
    extract_interactions,
    full_distribution,
    spin_distribution,
    to_ising,
)
from corrdefault.reduced import (
    LumpedRatesI,
    SearchConfig,
    coeff_check_I,
    coeff_check_II,
    coeff_check_III,
    feasibility_search,
    independent_lumped_I,
    independent_lumped_bi,
    lump_generator,
)

from conftest import random_model
from oracles import integrate_scalar_ode, two_vertex_exact

# Residual floors recorded on the first full run (seed 0, restart counts and
# budgets as below); the infeasible-case criteria assert the floor stays
# positive and within a margin of these values.
BASELINE_FLOORS = {
    ("I", 0.25): 3.523756e-01,
    ("I", 0.5): 1.765639e00,
    ("II", 0.25): 9.592952e-02,
    ("II", 0.5): 4.415006e-01,
    ("III", 0.05): 7.376566e-03,
    ("III", 0.1): 3.208305e-02,
}
BASELINE_MARGIN = 0.5  # floor must stay above this fraction of the baseline


def report(number, description, elapsed, budget):
    print(f"[PASS] criterion {number}: {description} ({elapsed:.1f}s < {budget:.0f}s)")


class Stopwatch:
    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.time() - self.start


def test_criterion_1_exact_model_suite():
    rng = np.random.default_rng(1)
    with Stopwatch() as watch:
        for _ in range(200):
            n = int(rng.integers(2, 11))
            params = random_model(rng, n)
            dist = full_distribution(params)
            assert abs(dist.probs.sum() - 1.0) <= 1e-12
            coeffs = extract_interactions(dist)
            for u in range(n):
                assert abs(coeffs.single(u) - params.alpha[u]) <= 1e-10
            for (u, v), b in zip(params.graph.edges, params.beta):
                assert abs(coeffs.pair(u, v) - b) <= 1e-10
            assert coeffs.max_above_order(2) <= 1e-10
            spin = spin_distribution(to_ising(params))
            assert np.max(np.abs(spin.probs - dist.probs)) <= 1e-12
    assert watch.elapsed < 10.0
    report(1, "200 random exact models: normalization, Mobius round trip, spin form", watch.elapsed, 10)


def test_criterion_2_independent_construction():
    with Stopwatch() as watch:
        alpha = np.array([0.3, -0.7, 1.1])
        horizon = 1.0
        gen = independent_generator(alpha, horizon)
        grid = geometric_grid(horizon, 32)
        sol = forward_solve(gen, np.array([horizon]))
        target = independent_terminal_law(alpha)
        assert np.max(np.abs(sol.probs[0] - target.probs)) <= 1e-9
        curves = curves_from_rates(gen, horizon=horizon, t_grid=grid)
        for t in grid:
            curve_alpha, _, _ = curves.alpha(float(t))
            formula = np.log(np.expm1((t / horizon) * np.log1p(np.exp(alpha))))
            assert np.max(np.abs(curve_alpha - formula)) <= 1e-12
        peak, _ = membership_over_time(gen, grid)
        assert peak <= 1e-9
    assert watch.elapsed < 5.0
    report(2, "independent construction reproduces the product law and its curves", watch.elapsed, 5)


def test_criterion_3_empty_cell_invariant():
    with Stopwatch() as watch:
        rng = np.random.default_rng(3)
        grid = geometric_grid(1.0, 32)
        for trial in range(50):
            n = int(rng.integers(2, 7))
            gen = random_generator(n, seed=int(rng.integers(0, 2**31)))
            sol = forward_solve(gen, grid)
            assert np.max(np.abs(sol.probs[:, 0] - np.exp(-gen.r_empty * grid))) <= 1e-9
    assert watch.elapsed < 30.0
    report(3, "empty-cell probability decays at the total exit rate (50 generators)", watch.elapsed, 30)


def test_criterion_4_alpha_closed_form_vs_ode():
    with Stopwatch() as watch:
        rng = np.random.default_rng(4)
        grid = np.geomspace(1e-3, 1.0, 32)
        for trial in range(100):
            q = float(rng.uniform(0.1, 3.0))
            r_empty = float(rng.uniform(0.1, 3.0))
            if trial % 5 == 0:
                r_u = r_empty + 1e-7  # near-degenerate rate gap
            else:
                r_u = float(rng.uniform(0.1, 3.0))
            alpha, _, _ = alpha_curve(q, r_empty, r_u, grid)
            oracle = integrate_scalar_ode(
                lambda t, a: q * np.exp(-a) + (r_empty - r_u), grid[0], alpha[0], grid
            )
            assert np.max(np.abs(alpha - oracle)) <= 1e-8
    assert watch.elapsed < 10.0
    report(4, "single-vertex closed form matches the ODE oracle (100 rate triples)", watch.elapsed, 10)


def test_criterion_5_two_vertex_completeness():
    with Stopwatch() as watch:
        rng = np.random.default_rng(5)
        grid = geometric_grid(1.0, 32)
        for _ in range(20):
            q_u, q_v, q_uv, q_vu = rng.uniform(0.15, 2.5, 4)
            gen = MonotoneGenerator.from_entries(
                2, [(0, 0, q_u), (0, 1, q_v), (1, 1, q_uv), (2, 0, q_vu)]
            )
            curves = curves_from_rates(gen, t_grid=grid)
            p0, pu, pv, puv = two_vertex_exact(q_u, q_v, q_uv, q_vu, grid)
            alpha_hat = np.stack([np.log(pu / p0), np.log(pv / p0)])
            beta_hat = np.log(puv * p0 / (pu * pv))
            for i, t in enumerate(grid):
                curve_alpha, _, _ = curves.alpha(float(t))
                assert np.max(np.abs(curve_alpha - alpha_hat[:, i])) <= 1e-6
                beta, _ = curves.beta(0, 1, float(t))
                assert abs(float(beta) - beta_hat[i]) <= 1e-6
    assert watch.elapsed < 20.0
    report(5, "2-vertex curves equal extraction of the exact law (20 generators)", watch.elapsed, 20)


def test_criterion_6_lumpability():
    with Stopwatch() as watch:
        lam = np.array([2.1, 1.6, 1.05, 0.75, 0.3, 0.0])
        per_vertex = lam[:5] / (5 - np.arange(5))
        gen = MonotoneGenerator.from_function(
            5, lambda mask, v: per_vertex[bin(mask).count("1")]
        )
        assert np.max(np.abs(lump_generator(gen, "complete").lam - lam)) < 1e-12
        grid = geometric_grid(1.0, 16)
        sol = forward_solve(gen, grid)
        pc = popcounts(5)
        full_levels = np.stack([sol.probs[:, pc == k].sum(axis=1) for k in range(6)], axis=1)

        from scipy.integrate import solve_ivp

        def birth_rhs(_t, p):
            dp = -lam * p
            dp[1:] += lam[:-1] * p[:-1]
            return dp

        p0 = np.zeros(6)
        p0[0] = 1.0
        birth = solve_ivp(
            birth_rhs, (0.0, 1.0), p0, method="DOP853", t_eval=grid, rtol=1e-11, atol=1e-13
        )
        assert birth.success
        assert np.max(np.abs(full_levels - birth.y.T)) <= 1e-8
    assert watch.elapsed < 5.0
    report(6, "full-lattice level marginals equal the lumped birth chain", watch.elapsed, 5)


def _assert_infeasible_floor(model_key, beta_target, result):
    baseline = BASELINE_FLOORS[(model_key, beta_target)]
    assert result.residual_floor > 0.0
    assert result.residual_floor >= BASELINE_MARGIN * baseline, (
        f"floor {result.residual_floor:.3e} fell below the recorded baseline "
        f"{baseline:.3e} for model {model_key}, beta {beta_target}"
    )


def test_criterion_7_model_I_search():
    with Stopwatch() as watch:
        config = SearchConfig(restarts=64, seed=0)
        feasible = feasibility_search(("I", 4), (0.3, 0.0), config)
        assert feasible.residual_floor < 1e-6
        expected = independent_lumped_I(4, 0.3)
        assert np.max(np.abs(feasible.best_rates.lam - expected.lam)) <= 1e-4
        for beta_target in (0.25, 0.5):
            result = feasibility_search(("I", 4), (0.3, beta_target), config)
            _assert_infeasible_floor("I", beta_target, result)
    assert watch.elapsed < 180.0
    report(7, "complete-graph search: independence recovered, nonzero targets blocked", watch.elapsed, 180)


def test_criterion_8_model_II_search():
    with Stopwatch() as watch:
        config = SearchConfig(restarts=64, seed=0)
        feasible = feasibility_search(("II", 3, 3), (0.3, 0.0), config)
        assert feasible.residual_floor < 1e-6
        expected = independent_lumped_bi(3, 3, 0.3, 0.3)
        assert np.max(np.abs(feasible.best_rates.hat_rates - expected.hat_rates)) <= 1e-4
        assert np.max(np.abs(feasible.best_rates.check_rates - expected.check_rates)) <= 1e-4
        for beta_target in (0.25, 0.5):
            result = feasibility_search(("II", 3, 3), (0.3, beta_target), config)
            _assert_infeasible_floor("II", beta_target, result)
        for beta_star in (0.0, 0.3, -0.2, 0.5):
            assert coeff_check_II(3, 3, beta_star) == 2.0 * np.exp(beta_star) - 2.0
        assert coeff_check_II(3, 3, 0.0) == 0.0
    assert watch.elapsed < 180.0
    report(8, "common-propensity bipartite search and its scalar coefficient check", watch.elapsed, 180)


def test_criterion_9_model_III_search():
    with Stopwatch() as watch:
        config = SearchConfig(restarts=48, seed=0)
        targets = {"alpha_hat": 0.5, "alpha_check": -0.5, "beta": 0.0}
        feasible = feasibility_search(("III", 4, 3), targets, config)
        assert feasible.residual_floor < 1e-6
        for beta_target in (0.05, 0.1):
            targets = {"alpha_hat": 0.5, "alpha_check": -0.5, "beta": beta_target}
            result = feasibility_search(("III", 4, 3), targets, config)
            _assert_infeasible_floor("III", beta_target, result)
    assert watch.elapsed < 240.0
    report(9, "class-dependent bipartite search: small nonzero couplings blocked", watch.elapsed, 240)


def test_criterion_10_coefficient_checks():
    with Stopwatch() as watch:
        lumped = LumpedRatesI(4, np.array([1.3, 0.9, 0.7, 0.45, 0.0]))
        assert np.max(np.abs(coeff_check_I(lumped, 0.5).mismatch)) > 0.1
        independent = independent_lumped_I(4, 0.3)
        assert np.max(np.abs(coeff_check_I(independent, 0.0).mismatch)) <= 1e-12
        report_iii = coeff_check_III(independent_lumped_bi(4, 3, 0.5, -0.5), 0.3)
        assert report_iii.bound_violated
        assert report_iii.n_equations == 4
        assert report_iii.intersection_bound == 2
    assert watch.elapsed < 1.0
    report(10, "coefficient ladders and the diagonal intersection bound", watch.elapsed, 1)
