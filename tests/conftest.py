from unittest import mock

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from corrdefault.ctmc import MonotoneGenerator, random_generator
from corrdefault.model import Graph, ModelParams
from corrdefault import reduced

# Every run replays the same examples, and no example is failed for its
# wall-clock time, which varies run to run on a loaded machine.
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")


def permutations(max_n):
    """Permutations of range(n) for n = 1..max_n."""
    return st.integers(1, max_n).flatmap(lambda n: st.permutations(range(n)))


def inverse(perm):
    return tuple(int(v) for v in np.argsort(perm))


def unreachable_triple_generator():
    """random_generator(4, 1) with every rate into {0, 1, 2} set to 0, so that cell has probability 0."""
    rates = random_generator(4, seed=1).rates.copy()
    rates[0b011, 2] = rates[0b101, 1] = rates[0b110, 0] = 0.0
    return MonotoneGenerator(4, rates)


def fast_exit_generator():
    """random_generator(3, 1) with q(empty, 0) = 800; past t of about 0.89 every e^{-alpha} is subnormal or 0."""
    rates = random_generator(3, seed=1).rates.copy()
    rates[0, 0] = 800.0
    return MonotoneGenerator(3, rates)


def n_cpus(count):
    """Make the process see `count` usable CPUs; with 2, a multi-chunk lattice file or a search of 2+ restarts forks."""
    return mock.patch("os.sched_getaffinity", return_value=set(range(count)), create=True)


def reject_restart_1(patcher):
    """Make _SearchProblem.assemble reject restart 1's warm table, in whichever process warm-starts restart 1."""
    warm_start = reduced._warm_start

    def patched(problem, config, full_budget, index):
        if index != 1:
            return warm_start(problem, config, full_budget, index)
        rejected = ValueError("interior lumped rates must be positive and finite")
        with mock.patch.object(problem, "assemble", side_effect=rejected):
            return warm_start(problem, config, full_budget, index)

    patcher.setattr(reduced, "_warm_start", patched)


def random_graph(rng, n_vertices, edge_prob=0.6):
    edges = [
        (u, v)
        for u in range(n_vertices)
        for v in range(u + 1, n_vertices)
        if rng.random() < edge_prob
    ]
    return Graph(n_vertices, tuple(edges))


def random_model(rng, n_vertices, edge_prob=0.6, alpha_scale=1.5, beta_scale=1.0):
    graph = random_graph(rng, n_vertices, edge_prob)
    alpha = rng.uniform(-alpha_scale, alpha_scale, n_vertices)
    beta = rng.uniform(-beta_scale, beta_scale, graph.n_edges)
    return ModelParams(graph, alpha, beta)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
