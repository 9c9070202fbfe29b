import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from corrdefault.model import Graph, ModelParams

# Every run replays the same examples, and no example is failed for its
# wall-clock time, which varies run to run on a loaded machine.
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")


def permutations(max_n):
    """Permutations of range(n) for n = 1..max_n."""
    return st.integers(1, max_n).flatmap(lambda n: st.permutations(range(n)))


def inverse(perm):
    return tuple(int(v) for v in np.argsort(perm))


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
