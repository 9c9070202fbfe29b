"""Exact representation of the graphical correlated-default distribution.

A model is a finite simple graph plus a real weight per vertex (individual
default propensity, log-odds scale) and per edge (joint propensity).  The
probability of a default pattern, identified with the subset of defaulted
vertices, is exp(H(A))/Z with H the pairwise Hamiltonian.  Everything here
enumerates the 2^n subset lattice exactly, so vertex counts are capped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Tuple, Union

import numpy as np

from ._num import (
    EXACT_ENUM_CAP,
    logsumexp,
    mobius_from_log,
    permuted_masks,
    popcounts,
    zeta_over_subsets,
    zeta_over_supersets,
)

SubsetLike = Union[int, Iterable[int]]

# Sum-to-one tolerance for constructing a distribution.  Looser than the
# 1e-12 achieved by parameter-derived distributions because forward-equation
# solutions may carry up to 1e-10 of un-renormalized drift.
_DIST_SUM_TOL = 1e-9


class EnumerationCapError(ValueError):
    """Raised when an exact operation would enumerate more than 2^cap states."""


class ZeroProbabilityError(ValueError):
    """Raised when log-probability coordinates are requested for a distribution with empty cells."""


class InfeasibleTargetsError(ValueError):
    """Raised when requested moments violate Frechet bounds or strict positivity."""


class FitConvergenceError(RuntimeError):
    """Raised when moment fitting exhausts its iteration budget.

    Carries the final residual in the ``residual`` attribute.
    """

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


def _check_cap(n_vertices):
    if n_vertices > EXACT_ENUM_CAP:
        raise EnumerationCapError(
            f"exact enumeration over {n_vertices} vertices exceeds the cap of {EXACT_ENUM_CAP}"
        )


def subset_mask(subset: SubsetLike, n_vertices: int) -> int:
    """Normalize a subset (bitmask or vertex iterable) to a bitmask."""
    if isinstance(subset, (int, np.integer)):
        mask = int(subset)
        if mask < 0 or mask >= (1 << n_vertices):
            raise ValueError(f"bitmask {mask} out of range for {n_vertices} vertices")
        return mask
    mask = 0
    for v in subset:
        v = int(v)
        if v < 0 or v >= n_vertices:
            raise ValueError(f"vertex {v} out of range for {n_vertices} vertices")
        if mask & (1 << v):
            raise ValueError(f"vertex {v} listed twice")
        mask |= 1 << v
    return mask


def _canonical_edge(u, v):
    u, v = int(u), int(v)
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Finite simple graph; vertices are 0..n_vertices-1.

    ``bipartition`` optionally names two disjoint vertex classes covering all
    vertices; when present every edge must join the classes.
    """

    n_vertices: int
    edges: Tuple[Tuple[int, int], ...]
    bipartition: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ValueError("need at least one vertex")
        canon = sorted({_canonical_edge(u, v) for (u, v) in self.edges})
        if len(canon) != len(tuple(self.edges)):
            raise ValueError("duplicate edges")
        for u, v in canon:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u},{v}) out of range")
        object.__setattr__(self, "edges", tuple(canon))
        if self.bipartition is not None:
            hat, check = (tuple(int(v) for v in c) for c in self.bipartition)
            if set(hat) & set(check):
                raise ValueError("bipartition classes overlap")
            if set(hat) | set(check) != set(range(self.n_vertices)):
                raise ValueError("bipartition must cover all vertices")
            for u, v in self.edges:
                if (u in hat) == (v in hat):
                    raise ValueError(f"edge ({u},{v}) does not join the bipartition classes")
            object.__setattr__(self, "bipartition", (hat, check))

    @classmethod
    def complete(cls, n_vertices: int) -> "Graph":
        edges = tuple((u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices))
        return cls(n_vertices, edges)

    @classmethod
    def complete_bipartite(cls, n_hat: int, n_check: int) -> "Graph":
        hat = tuple(range(n_hat))
        check = tuple(range(n_hat, n_hat + n_check))
        edges = tuple((u, v) for u in hat for v in check)
        return cls(n_hat + n_check, edges, bipartition=(hat, check))

    @classmethod
    def empty(cls, n_vertices: int) -> "Graph":
        return cls(n_vertices, ())

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_position(self, u: int, v: int) -> int:
        edge = _canonical_edge(u, v)
        if edge not in self._edge_index:
            raise ValueError(f"{edge} is not an edge of the graph")
        return self._edge_index[edge]

    @cached_property
    def _edge_index(self) -> Mapping[Tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """Graph with vertex v renamed to perm[v]."""
        perm = tuple(int(p) for p in perm)
        edges = tuple(_canonical_edge(perm[u], perm[v]) for (u, v) in self.edges)
        bip = None
        if self.bipartition is not None:
            hat, check = self.bipartition
            bip = (tuple(sorted(perm[v] for v in hat)), tuple(sorted(perm[v] for v in check)))
        return Graph(self.n_vertices, edges, bip)


def _frozen_array(values, length, name):
    arr = np.array(values, dtype=float)
    if arr.shape != (length,):
        raise ValueError(f"{name} must have length {length}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ModelParams:
    """Default-model parameters: alpha per vertex, beta per edge (aligned with graph.edges)."""

    graph: Graph
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", _frozen_array(self.alpha, self.graph.n_vertices, "alpha"))
        object.__setattr__(self, "beta", _frozen_array(self.beta, self.graph.n_edges, "beta"))


@dataclass(frozen=True)
class IsingParams:
    """Spin-form parameters over {-1,+1}^V equivalent to a ModelParams."""

    graph: Graph
    gamma: np.ndarray
    delta: np.ndarray
    log_norm: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", _frozen_array(self.gamma, self.graph.n_vertices, "gamma"))
        object.__setattr__(self, "delta", _frozen_array(self.delta, self.graph.n_edges, "delta"))


@dataclass(frozen=True)
class SubsetDist:
    """Exact probability vector over subsets of the vertex set, indexed by bitmask."""

    n_vertices: int
    probs: np.ndarray
    log_partition: Optional[float] = None

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        if probs.shape != (1 << self.n_vertices,):
            raise ValueError("probability vector length must be 2^n_vertices")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite")
        if np.any(probs < -1e-15):
            raise ValueError("negative probability")
        probs = np.maximum(probs, 0.0)
        total = probs.sum()
        if abs(total - 1.0) > _DIST_SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def probability(self, subset: SubsetLike) -> float:
        return float(self.probs[subset_mask(subset, self.n_vertices)])

    def relabel(self, perm: Iterable[int]) -> "SubsetDist":
        """Distribution after renaming vertex v to perm[v]."""
        out = np.empty_like(self.probs)
        out[permuted_masks(tuple(int(p) for p in perm), self.n_vertices)] = self.probs
        return SubsetDist(self.n_vertices, out, self.log_partition)


@dataclass(frozen=True)
class InteractionCoeffs:
    """Canonical log-linear coordinates c_A per nonempty subset A.

    Defined by the Mobius inversion of log p; the reconstruction identity is
    log(p(A)/p(empty)) = sum over nonempty B subseteq A of c_B.  For a
    distribution generated by a ModelParams, c_{u} = alpha_u, c_{uv} = beta_uv
    on edges and every other coefficient vanishes.
    """

    n_vertices: int
    coeffs: np.ndarray
    log_p_empty: float

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float)
        if coeffs.shape != (1 << self.n_vertices,):
            raise ValueError("coefficient vector length must be 2^n_vertices")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    def single(self, u: int) -> float:
        return float(self.coeffs[1 << u])

    def pair(self, u: int, v: int) -> float:
        u, v = _canonical_edge(u, v)
        return float(self.coeffs[(1 << u) | (1 << v)])

    def max_above_order(self, order: int) -> float:
        pc = popcounts(self.n_vertices)
        sel = pc > order
        return float(np.max(np.abs(self.coeffs[sel]))) if np.any(sel) else 0.0


def _edge_masks(graph: Graph) -> np.ndarray:
    """Bitmask (1 << u) | (1 << v) of every edge, in graph.edges order."""
    edges = np.array(graph.edges, dtype=np.int64).reshape(-1, 2)
    return (1 << edges[:, 0]) | (1 << edges[:, 1])


def hamiltonian_vector(params: ModelParams) -> np.ndarray:
    """H(A) for every bitmask A; H(empty) = 0 exactly.

    One zeta transform of alpha on the singletons and beta on the edge pairs.
    """
    graph = params.graph
    _check_cap(graph.n_vertices)
    coeffs = np.zeros(1 << graph.n_vertices)
    coeffs[1 << np.arange(graph.n_vertices)] = params.alpha
    coeffs[_edge_masks(graph)] = params.beta
    return zeta_over_subsets(coeffs)


def hamiltonian(params: ModelParams, subset: SubsetLike) -> float:
    """Sum of alpha over the subset plus beta over edges inside it."""
    mask = subset_mask(subset, params.graph.n_vertices)
    total = 0.0
    for u in range(params.graph.n_vertices):
        if mask & (1 << u):
            total += params.alpha[u]
    for (u, v), b in zip(params.graph.edges, params.beta):
        if (mask >> u) & 1 and (mask >> v) & 1:
            total += b
    return float(total)


def log_partition(params: ModelParams) -> float:
    """log of the normalizer sum_B exp(H(B)), computed with max-shift."""
    return logsumexp(hamiltonian_vector(params))


def full_distribution(params: ModelParams) -> SubsetDist:
    """The exact distribution exp(H(A) - log Z) over all subsets."""
    h = hamiltonian_vector(params)
    log_z = logsumexp(h)
    return SubsetDist(params.graph.n_vertices, np.exp(h - log_z), log_partition=log_z)


def subset_probability(params: ModelParams, subset: SubsetLike) -> float:
    mask = subset_mask(subset, params.graph.n_vertices)
    h = hamiltonian_vector(params)
    return float(np.exp(h[mask] - logsumexp(h)))


def to_ising(params: ModelParams) -> IsingParams:
    """Equivalent spin-model parameters under sigma_v = 2*1[v in A] - 1.

    gamma_u = alpha_u/2 + (1/4) sum of beta over edges at u; delta = beta/4;
    log_norm absorbs the constant so both pmfs coincide.
    """
    graph = params.graph
    gamma = params.alpha / 2.0
    for (u, v), b in zip(graph.edges, params.beta):
        gamma[u] += b / 4.0
        gamma[v] += b / 4.0
    delta = params.beta / 4.0
    log_norm = log_partition(params) - 0.5 * params.alpha.sum() - 0.25 * params.beta.sum()
    return IsingParams(graph, gamma, delta, log_norm)


def from_ising(ising: IsingParams) -> ModelParams:
    """Inverse of to_ising."""
    graph = ising.graph
    alpha = 2.0 * np.array(ising.gamma)
    for (u, v), d in zip(graph.edges, ising.delta):
        alpha[u] -= 2.0 * d
        alpha[v] -= 2.0 * d
    return ModelParams(graph, alpha, 4.0 * ising.delta)


def spin_distribution(ising: IsingParams) -> SubsetDist:
    """Spin-model pmf indexed by the subset where the spin is +1.

    The spin energy is from_ising's H plus energy(empty) = sum(delta) - sum(gamma).
    """
    dist = full_distribution(from_ising(ising))
    shift = float(ising.delta.sum() - ising.gamma.sum())
    return SubsetDist(dist.n_vertices, dist.probs, log_partition=dist.log_partition + shift)


def _log_probs(probs) -> np.ndarray:
    """log p of every cell; zero cells are rejected rather than smoothed, so downstream residuals stay honest."""
    if np.any(probs <= 0.0):
        raise ZeroProbabilityError(
            "distribution has empty cells; interactions are undefined (smooth first if that is acceptable)"
        )
    return np.log(probs)


def extract_interactions(dist: SubsetDist) -> InteractionCoeffs:
    """Mobius inversion of log p into canonical interaction coordinates; every cell must be positive."""
    logp = _log_probs(dist.probs)
    coeffs = mobius_from_log(logp)
    coeffs[0] = 0.0
    return InteractionCoeffs(dist.n_vertices, coeffs, float(logp[0]))


def reconstruct_log_ratios(coeffs: InteractionCoeffs) -> np.ndarray:
    """log(p(A)/p(empty)) for every A from the interaction coordinates."""
    return zeta_over_subsets(coeffs.coeffs)


def family_membership_residual(dist: SubsetDist, graph: Graph) -> float:
    """Max out-of-family interaction magnitude for the graph's model family.

    Out-of-family coordinates are every c_A with |A| >= 3 and every pair
    coefficient on a non-edge.  Zero (within tolerance) iff dist is
    exp(H)/Z for some parameters on this graph.
    """
    return float(_out_of_family_residuals(dist.probs[:, None], graph)[0])


def _out_of_family_residuals(laws, graph: Graph) -> np.ndarray:
    """family_membership_residual of every column of a (2^n, T) array of laws, by one Mobius transform.

    Every cell must be positive.  The in-family rows (the empty set, the
    singletons and the edges) are zeroed in place before the column maxima.
    """
    if len(laws) != 1 << graph.n_vertices:
        raise ValueError("distribution and graph sizes differ")
    coeffs = mobius_from_log(_log_probs(laws))
    np.abs(coeffs, out=coeffs)
    coeffs[np.concatenate(([0], 1 << np.arange(graph.n_vertices), _edge_masks(graph)))] = 0.0
    return coeffs.max(axis=0)


def exact_sample(params: ModelParams, n_draws: int, seed: int) -> np.ndarray:
    """i.i.d. subset bitmask draws by inverse CDF on the enumerated pmf."""
    if n_draws < 0:
        raise ValueError("n_draws must be nonnegative")
    dist = full_distribution(params)
    cdf = np.cumsum(dist.probs)
    cdf[-1] = 1.0
    rng = np.random.default_rng(seed)
    u = rng.random(n_draws)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def moments(params: ModelParams) -> Tuple[np.ndarray, np.ndarray]:
    """Exact vertex marginals and edge pair probabilities, from one superset-sum transform."""
    graph = params.graph
    covered = zeta_over_supersets(full_distribution(params).probs)
    return covered[1 << np.arange(graph.n_vertices)], covered[_edge_masks(graph)]


def _logit(p):
    return np.log(p) - np.log1p(-p)


def _check_target_feasibility(graph, vertex_targets, pair_targets):
    if np.any(vertex_targets <= 0.0) or np.any(vertex_targets >= 1.0):
        raise InfeasibleTargetsError("vertex targets must lie strictly inside (0, 1)")
    for (u, v), p_uv in zip(graph.edges, pair_targets):
        lo = max(0.0, vertex_targets[u] + vertex_targets[v] - 1.0)
        hi = min(vertex_targets[u], vertex_targets[v])
        if not (lo < p_uv < hi):
            raise InfeasibleTargetsError(
                f"pair target {p_uv} for edge ({u},{v}) violates the Frechet bounds ({lo}, {hi})"
            )


# fit_moments stops once every moment is within _FIT_TOL of its target, and
# gives up after _FIT_SWEEPS sweeps; each sweep moves _FIT_DAMPING of the gap.
_FIT_TOL = 1e-8
_FIT_DAMPING = 0.5
_FIT_SWEEPS = 10_000


def fit_moments(graph: Graph, vertex_targets, pair_targets) -> ModelParams:
    """Parameters matching prescribed vertex marginals and edge pair probabilities.

    Damped coordinate updates in the style of iterative proportional fitting:
    each sweep recomputes the exact moments, then moves alpha_u by the logit
    gap and beta_uv by the log odds-ratio gap of the target vs current 2x2
    table.  The targets' 2x2 tables must be strictly positive (Frechet).
    """
    _check_cap(graph.n_vertices)
    vertex_targets = np.asarray(vertex_targets, dtype=float)
    pair_targets = np.asarray(pair_targets, dtype=float)
    if vertex_targets.shape != (graph.n_vertices,):
        raise ValueError("need one vertex target per vertex")
    if pair_targets.shape != (graph.n_edges,):
        raise ValueError("need one pair target per edge")
    _check_target_feasibility(graph, vertex_targets, pair_targets)

    def log_odds_ratio(p_u, p_v, p_uv):
        c11 = p_uv
        c10 = p_u - p_uv
        c01 = p_v - p_uv
        c00 = 1.0 - p_u - p_v + p_uv
        return np.log(c11) + np.log(c00) - np.log(c10) - np.log(c01)

    target_logit = _logit(vertex_targets)
    target_lor = np.array(
        [
            log_odds_ratio(vertex_targets[u], vertex_targets[v], p_uv)
            for (u, v), p_uv in zip(graph.edges, pair_targets)
        ]
    )

    alpha = np.array(target_logit)
    beta = np.zeros(graph.n_edges)
    residual = np.inf
    for _ in range(_FIT_SWEEPS):
        cur_vertex, cur_pair = moments(ModelParams(graph, alpha, beta))
        residual = max(
            float(np.max(np.abs(cur_vertex - vertex_targets), initial=0.0)),
            float(np.max(np.abs(cur_pair - pair_targets), initial=0.0)),
        )
        if residual <= _FIT_TOL:
            return ModelParams(graph, alpha, beta)
        alpha = alpha + _FIT_DAMPING * (target_logit - _logit(cur_vertex))
        cur_lor = np.array(
            [
                log_odds_ratio(cur_vertex[u], cur_vertex[v], p_uv)
                for (u, v), p_uv in zip(graph.edges, cur_pair)
            ]
        )
        beta = beta + _FIT_DAMPING * (target_lor - cur_lor)
    raise FitConvergenceError(
        f"moment fit did not reach tol={_FIT_TOL} in {_FIT_SWEEPS} sweeps (residual {residual:.3e})",
        residual,
    )


def bernoulli_product_distribution(n_vertices: int, marginals) -> SubsetDist:
    """Product law with the given per-vertex success probabilities, by lattice doubling."""
    marginals = np.asarray(marginals, dtype=float)
    if marginals.shape != (n_vertices,):
        raise ValueError(f"need {n_vertices} marginals, got shape {marginals.shape}")
    probs = np.ones(1)
    for p in marginals:
        probs = np.concatenate((probs * (1.0 - p), probs * p))
    return SubsetDist(n_vertices, probs)
