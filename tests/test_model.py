import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import chisquare

from corrdefault.model import (
    EnumerationCapError,
    Graph,
    InfeasibleTargetsError,
    IsingParams,
    ModelParams,
    SubsetDist,
    ZeroProbabilityError,
    bernoulli_product_distribution,
    exact_sample,
    extract_interactions,
    family_membership_residual,
    fit_moments,
    from_ising,
    full_distribution,
    hamiltonian,
    hamiltonian_vector,
    log_partition,
    moments,
    reconstruct_log_ratios,
    spin_distribution,
    subset_probability,
    to_ising,
)

from conftest import inverse, permutations, random_model

seeds = st.integers(0, 2**32 - 1)
from oracles import bit_matrix_moments, brute_force_interactions, spin_energies


class TestGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, ((0, 0),))

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, ((0, 2),))

    def test_bipartition_must_cover_and_cross(self):
        with pytest.raises(ValueError, match="cover"):
            Graph(3, ((0, 1),), bipartition=((0,), (1,)))
        with pytest.raises(ValueError, match="join"):
            Graph(3, ((0, 1),), bipartition=((0, 1), (2,)))

    def test_complete_counts(self):
        assert Graph.complete(5).is_complete()
        assert Graph.complete(5).n_edges == 10
        kb = Graph.complete_bipartite(2, 3)
        assert kb.is_complete_bipartite()
        assert kb.n_edges == 6
        assert not Graph(3, ((0, 1),)).is_complete()


class TestHamiltonian:
    def test_k2_direct_sum(self):
        params = ModelParams(Graph.complete(2), [1.0, 2.0], [0.5])
        assert hamiltonian(params, {0, 1}) == pytest.approx(3.5)

    def test_empty_set_is_zero(self, rng):
        params = random_model(rng, 5)
        assert hamiltonian(params, 0) == 0.0

    def test_k3_all_edges_inside(self):
        params = ModelParams(Graph.complete(3), [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert hamiltonian(params, {0, 1, 2}) == pytest.approx(3.0)

    def test_vertex_out_of_range(self):
        params = ModelParams(Graph.complete(2), [0.0, 0.0], [0.0])
        with pytest.raises(ValueError, match="out of range"):
            hamiltonian(params, {0, 5})


class TestLogPartition:
    def test_single_vertex(self):
        params = ModelParams(Graph.empty(1), [0.0], [])
        assert log_partition(params) == pytest.approx(np.log(2.0), abs=1e-14)

    def test_k2_with_log2_coupling(self):
        params = ModelParams(Graph.complete(2), [0.0, 0.0], [np.log(2.0)])
        assert log_partition(params) == pytest.approx(np.log(5.0), abs=1e-14)

    def test_product_form_without_edges(self):
        c = 0.7
        params = ModelParams(Graph.empty(6), [c] * 6, [])
        assert log_partition(params) == pytest.approx(6 * np.log1p(np.exp(c)), abs=1e-12)

    def test_cap_enforced(self):
        params = ModelParams(Graph.empty(21), np.zeros(21), [])
        with pytest.raises(EnumerationCapError):
            log_partition(params)


class TestSubsetProbability:
    def test_k2_cells(self):
        params = ModelParams(Graph.complete(2), [0.0, 0.0], [np.log(2.0)])
        assert subset_probability(params, {0, 1}) == pytest.approx(0.4, abs=1e-14)
        assert subset_probability(params, 0) == pytest.approx(0.2, abs=1e-14)

    def test_edge_free_factorization(self, rng):
        alpha = rng.uniform(-1.0, 1.0, 4)
        params = ModelParams(Graph.empty(4), alpha, [])
        marginals = 1.0 / (1.0 + np.exp(-alpha))
        expected = bernoulli_product_distribution(4, marginals)
        dist = full_distribution(params)
        np.testing.assert_allclose(dist.probs, expected.probs, atol=1e-14)


class TestIsingConversion:
    def test_k2_known_values(self):
        ising = to_ising(ModelParams(Graph.complete(2), [1.0, 1.0], [2.0]))
        np.testing.assert_allclose(ising.gamma, [1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(ising.delta, [0.5], atol=1e-14)

    def test_edge_free_halves_alpha(self, rng):
        alpha = rng.uniform(-2.0, 2.0, 3)
        ising = to_ising(ModelParams(Graph.empty(3), alpha, []))
        np.testing.assert_allclose(ising.gamma, alpha / 2.0, atol=1e-14)
        assert ising.delta.size == 0

    def test_round_trip(self, rng):
        for _ in range(10):
            params = random_model(rng, 5)
            back = from_ising(to_ising(params))
            np.testing.assert_allclose(back.alpha, params.alpha, atol=1e-12)
            np.testing.assert_allclose(back.beta, params.beta, atol=1e-12)

    def test_spin_pmf_matches_subset_pmf(self, rng):
        for _ in range(10):
            params = random_model(rng, 5)
            subset_pmf = full_distribution(params).probs
            spin_pmf = spin_distribution(to_ising(params)).probs
            np.testing.assert_allclose(spin_pmf, subset_pmf, atol=1e-12)


class TestSubsetDist:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probabilities_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SubsetDist(1, [bad, bad])
        with pytest.raises(ValueError, match="finite"):
            SubsetDist(2, [0.5, 0.5, 0.0, bad])

    @settings(max_examples=30)
    @given(perm=permutations(6), seed=seeds)
    def test_relabel_round_trip(self, perm, seed):
        n = len(perm)
        dist = bernoulli_product_distribution(n, np.random.default_rng(seed).uniform(0.1, 0.9, n))
        np.testing.assert_array_equal(dist.relabel(perm).relabel(inverse(perm)).probs, dist.probs)

    @pytest.mark.parametrize("perm", [(0, 0), (1, 2), (0,), (0, 1, 2)])
    def test_relabel_rejects_non_permutations(self, perm):
        dist = bernoulli_product_distribution(2, [0.5, 0.5])
        with pytest.raises(ValueError, match="not a permutation"):
            dist.relabel(perm)

    def test_product_law_needs_one_marginal_per_vertex(self):
        with pytest.raises(ValueError, match="need 3 marginals"):
            bernoulli_product_distribution(3, [0.5, 0.5])
        with pytest.raises(ValueError, match="need 2 marginals"):
            bernoulli_product_distribution(2, 0.5)


class TestInteractionExtraction:
    def test_round_trip_recovers_parameters(self, rng):
        for _ in range(10):
            params = random_model(rng, 5)
            coeffs = extract_interactions(full_distribution(params))
            for u in range(5):
                assert coeffs.single(u) == pytest.approx(params.alpha[u], abs=1e-10)
            for (u, v), b in zip(params.graph.edges, params.beta):
                assert coeffs.pair(u, v) == pytest.approx(b, abs=1e-10)
            assert coeffs.max_above_order(2) < 1e-10

    def test_uniform_distribution_has_no_interactions(self):
        dist = SubsetDist(3, np.full(8, 1.0 / 8.0))
        coeffs = extract_interactions(dist)
        np.testing.assert_allclose(coeffs.coeffs, 0.0, atol=1e-12)

    def test_parity_distribution_third_order(self):
        weights = np.where(np.array([bin(a).count("1") % 2 for a in range(8)]) == 0, 2.0, 1.0)
        dist = SubsetDist(3, weights / weights.sum())
        coeffs = extract_interactions(dist)
        expected = brute_force_interactions(dist.probs)
        np.testing.assert_allclose(coeffs.coeffs[1:], expected[1:], atol=1e-12)
        assert coeffs.coeffs[0b111] == pytest.approx(-4.0 * np.log(2.0), abs=1e-12)

    def test_reconstruction_identity(self, rng):
        params = random_model(rng, 4)
        dist = full_distribution(params)
        coeffs = extract_interactions(dist)
        log_ratios = np.log(dist.probs) - np.log(dist.probs[0])
        np.testing.assert_allclose(reconstruct_log_ratios(coeffs), log_ratios, atol=1e-10)

    def test_zero_cells_rejected(self):
        probs = np.zeros(4)
        probs[0] = probs[3] = 0.5
        with pytest.raises(ZeroProbabilityError):
            extract_interactions(SubsetDist(2, probs))


class TestFamilyMembership:
    def test_in_family_distribution(self, rng):
        params = random_model(rng, 5)
        assert family_membership_residual(full_distribution(params), params.graph) < 1e-10

    def test_product_measure_in_complete_graph_family(self, rng):
        dist = bernoulli_product_distribution(4, rng.uniform(0.2, 0.8, 4))
        assert family_membership_residual(dist, Graph.complete(4)) < 1e-10

    def test_non_edge_pair_detected(self):
        params = ModelParams(Graph.complete(3), [0.0] * 3, [0.8, 0.0, 0.0])
        dist = full_distribution(params)
        sparse = Graph(3, ((1, 2),))
        assert family_membership_residual(dist, sparse) == pytest.approx(0.8, abs=1e-10)

    @settings(max_examples=30)
    @given(perm=permutations(6), seed=seeds)
    @example(perm=(2, 0, 4, 1, 3), seed=20260808)
    def test_relabeling_invariance(self, perm, seed):
        params = random_model(np.random.default_rng(seed), len(perm))
        dist = full_distribution(params)
        r1 = family_membership_residual(dist, params.graph)
        r2 = family_membership_residual(dist.relabel(perm), params.graph.relabel(perm))
        assert r1 == pytest.approx(r2, abs=1e-12)


class TestSampling:
    def test_determinism(self):
        params = ModelParams(Graph.complete(2), [0.0, 0.0], [np.log(2.0)])
        a = exact_sample(params, 1000, seed=42)
        b = exact_sample(params, 1000, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_single_vertex_frequency(self):
        params = ModelParams(Graph.empty(1), [0.0], [])
        draws = exact_sample(params, 100_000, seed=7)
        freq = np.mean(draws == 1)
        assert abs(freq - 0.5) < 3.0 * np.sqrt(0.25 / 100_000)

    def test_k2_chi_square(self):
        params = ModelParams(Graph.complete(2), [0.0, 0.0], [np.log(2.0)])
        draws = exact_sample(params, 100_000, seed=11)
        counts = np.bincount(draws, minlength=4)
        expected = np.array([0.2, 0.2, 0.2, 0.4]) * 100_000
        assert chisquare(counts, expected).pvalue > 0.01


class TestMomentFit:
    def test_generate_and_refit(self, rng):
        for _ in range(5):
            params = random_model(rng, 4, alpha_scale=1.0, beta_scale=0.8)
            v_target, p_target = moments(params)
            fitted = fit_moments(params.graph, v_target, p_target)
            v_fit, p_fit = moments(fitted)
            np.testing.assert_allclose(v_fit, v_target, atol=1e-8)
            np.testing.assert_allclose(p_fit, p_target, atol=1e-8)

    def test_product_targets_give_zero_coupling(self):
        graph = Graph.complete(3)
        v = np.array([0.3, 0.5, 0.6])
        p = np.array([v[u] * v[w] for (u, w) in graph.edges])
        fitted = fit_moments(graph, v, p)
        np.testing.assert_allclose(fitted.beta, 0.0, atol=1e-6)

    def test_frechet_violation_rejected(self):
        graph = Graph.complete(2)
        with pytest.raises(InfeasibleTargetsError):
            fit_moments(graph, [0.3, 0.5], [0.4])

    def test_lower_frechet_violation_rejected(self):
        graph = Graph.complete(2)
        with pytest.raises(InfeasibleTargetsError):
            fit_moments(graph, [0.8, 0.8], [0.55])

    def test_targets_on_boundary_rejected(self):
        with pytest.raises(InfeasibleTargetsError):
            fit_moments(Graph.complete(2), [0.3, 0.5], [0.3])


class TestDistributionInvariants:
    def test_probabilities_sum_to_one(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 13))
            params = random_model(rng, n)
            dist = full_distribution(params)
            assert abs(dist.probs.sum() - 1.0) <= 1e-12

    def test_hamiltonian_equals_log_probability_ratio(self, rng):
        for _ in range(5):
            params = random_model(rng, 6)
            dist = full_distribution(params)
            for mask in (1, 7, 35, 63):
                log_ratio = np.log(dist.probs[mask] / dist.probs[0])
                assert hamiltonian(params, mask) == pytest.approx(log_ratio, abs=1e-12)

    @settings(max_examples=30)
    @given(permutations(7), seeds)
    def test_relabelling_commutes(self, perm, seed):
        # rtol, not equality: the relabelled Hamiltonian sums its terms in another order
        n = len(perm)
        params = random_model(np.random.default_rng(seed), n)
        graph = params.graph.relabel(perm)
        alpha = np.empty(n)
        alpha[list(perm)] = params.alpha
        beta = np.zeros(graph.n_edges)
        for (u, v), b in zip(params.graph.edges, params.beta):
            beta[graph.edge_position(perm[u], perm[v])] = b
        relabelled = full_distribution(ModelParams(graph, alpha, beta))
        moved = full_distribution(params).relabel(perm)
        np.testing.assert_allclose(relabelled.probs, moved.probs, rtol=1e-12, atol=0)


@st.composite
def lattice_weights(draw):
    """A graph on at most 8 vertices with a weight per vertex and per edge."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = tuple(pair for pair in pairs if draw(st.booleans()))
    weight = st.floats(-3.0, 3.0)
    vertex = draw(st.lists(weight, min_size=n, max_size=n))
    edge = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    return Graph(n, edges), vertex, edge


class TestLatticeTransforms:
    """The subset-transform kernels against direct per-subset computations."""

    @settings(max_examples=30)
    @given(lattice_weights())
    def test_hamiltonian_vector_matches_scalar(self, weights):
        params = ModelParams(*weights)
        h = hamiltonian_vector(params)
        assert h[0] == 0.0
        scalar = [hamiltonian(params, mask) for mask in range(1 << params.graph.n_vertices)]
        # both sum the same terms in different orders
        scale = np.abs(params.alpha).sum() + np.abs(params.beta).sum()
        np.testing.assert_allclose(h, scalar, rtol=0.0, atol=64 * np.finfo(float).eps * scale)

    @settings(max_examples=30)
    @given(lattice_weights())
    def test_moments_match_bit_matrix(self, weights):
        params = ModelParams(*weights)
        vertex, pair = moments(params)
        ref_vertex, ref_pair = bit_matrix_moments(full_distribution(params).probs, params.graph.edges)
        np.testing.assert_allclose(vertex, ref_vertex, rtol=1e-13, atol=1e-16)
        np.testing.assert_allclose(pair, ref_pair, rtol=1e-13, atol=1e-16)

    @settings(max_examples=30)
    @given(lattice_weights())
    def test_spin_distribution_is_shifted_subset_law(self, weights):
        graph, gamma, delta = weights
        ising = IsingParams(graph, gamma, delta, 0.0)
        dist = spin_distribution(ising)
        np.testing.assert_array_equal(dist.probs, full_distribution(from_ising(ising)).probs)
        energy = spin_energies(gamma, delta, graph.edges, graph.n_vertices)
        assert dist.log_partition == pytest.approx(float(logsumexp(energy)), abs=1e-12)
        np.testing.assert_allclose(dist.probs, np.exp(energy - logsumexp(energy)), rtol=1e-12)
