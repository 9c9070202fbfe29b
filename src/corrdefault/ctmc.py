"""Monotone continuous-time Markov chains on the subset lattice.

States are subsets of the vertex set (bitmasks); the only allowed jumps add
a single vertex, so defaults are absorbing and never simultaneous.  The
generator is stored densely as a (2^n, n) rate table q(A, v) for v not in A.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from ._num import FORWARD_CAP, softplus, subset_bit_matrix
from .model import SubsetDist, bernoulli_product_distribution, subset_mask


class ForwardSolveError(RuntimeError):
    """Raised when the forward-equation integration fails."""


@dataclass(frozen=True)
class MonotoneGenerator:
    """Jump rates q(A, v) for single-vertex additions A -> A + {v}.

    rates[A, v] must vanish whenever v is already in A; the exit rate of A is
    the row sum, so the full set is automatically absorbing.
    """

    n_vertices: int
    rates: np.ndarray

    def __post_init__(self):
        if self.n_vertices < 1:
            raise ValueError("need at least one vertex")
        if self.n_vertices > FORWARD_CAP:
            raise ValueError(
                f"{self.n_vertices} vertices exceeds the generator cap of {FORWARD_CAP}"
            )
        rates = np.array(self.rates, dtype=float)
        if rates.shape != (1 << self.n_vertices, self.n_vertices):
            raise ValueError("rate table must have shape (2^n, n)")
        if not np.all(np.isfinite(rates)):
            raise ValueError("rates must be finite")
        if np.any(rates < 0.0):
            raise ValueError("rates must be nonnegative")
        member = subset_bit_matrix(self.n_vertices).astype(bool)
        if np.any(rates[member] != 0.0):
            raise ValueError("rate q(A, v) must be zero for v already in A")
        rates.setflags(write=False)
        object.__setattr__(self, "rates", rates)

    @cached_property
    def exit_rates(self) -> np.ndarray:
        """R_A = total jump rate out of each subset."""
        r = self.rates.sum(axis=1)
        r.setflags(write=False)
        return r

    def rate(self, subset, vertex: int) -> float:
        return float(self.rates[subset_mask(subset, self.n_vertices), vertex])

    @property
    def r_empty(self) -> float:
        return float(self.exit_rates[0])

    def q_u(self, u: int) -> float:
        """Rate of the first default being vertex u."""
        return float(self.rates[0, u])

    def q_uv(self, u: int, v: int) -> float:
        """Rate of v defaulting when exactly u has defaulted."""
        return float(self.rates[1 << u, v])

    def r_u(self, u: int) -> float:
        return float(self.exit_rates[1 << u])

    def r_uv(self, u: int, v: int) -> float:
        return float(self.exit_rates[(1 << u) | (1 << v)])

    @classmethod
    def from_function(cls, n_vertices: int, rate_fn) -> "MonotoneGenerator":
        """Build the dense table from rate_fn(subset_mask, vertex) for v not in A."""
        rates = np.zeros((1 << n_vertices, n_vertices))
        for mask in range(1 << n_vertices):
            for v in range(n_vertices):
                if not (mask >> v) & 1:
                    rates[mask, v] = rate_fn(mask, v)
        return cls(n_vertices, rates)

    @classmethod
    def from_entries(cls, n_vertices: int, entries: Iterable[Tuple[int, int, float]]) -> "MonotoneGenerator":
        """Build from sparse (subset_bitmask, vertex, rate) triples; missing rates are zero."""
        rates = np.zeros((1 << n_vertices, n_vertices))
        for mask, vertex, rate in entries:
            mask, vertex = int(mask), int(vertex)
            if (mask >> vertex) & 1:
                raise ValueError(f"vertex {vertex} already in subset {mask}")
            rates[mask, vertex] = rate
        return cls(n_vertices, rates)

    def relabel(self, perm: Sequence[int]) -> "MonotoneGenerator":
        """Generator after renaming vertex v to perm[v]."""
        perm = tuple(int(p) for p in perm)
        masks = np.arange(1 << self.n_vertices)
        new_masks = np.zeros_like(masks)
        for v in range(self.n_vertices):
            new_masks |= ((masks >> v) & 1) << perm[v]
        rates = np.zeros_like(self.rates)
        rates[new_masks[:, None], np.array(perm)[None, :]] = self.rates
        return MonotoneGenerator(self.n_vertices, rates)


def independent_generator(alpha, horizon: float = 1.0) -> MonotoneGenerator:
    """Constant-rate generator reproducing the edge-free model at the horizon.

    Each vertex defaults at rate log(1 + e^{alpha_v}) / horizon regardless of
    the current subset, so the law at the horizon is the product of
    Bernoullis with success probability 1 - e^{-rate * horizon}.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    alpha = np.asarray(alpha, dtype=float)
    n = alpha.shape[0]
    lam = softplus(alpha) / horizon
    member = subset_bit_matrix(n).astype(bool)
    rates = np.where(member, 0.0, np.broadcast_to(lam, (1 << n, n)))
    return MonotoneGenerator(n, rates)


def independent_alpha_curve(alpha_horizon: float, horizon: float, t):
    """(alpha(t), e^{alpha(t)}) along the independent construction.

    alpha(t) = log((1 + e^{alpha_T})^{t/T} - 1); the exponential form
    e^{alpha(t)} = expm1((t/T) log(1 + e^{alpha_T})) stays finite as t -> 0
    where alpha(t) itself diverges to -inf.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0) or np.any(t > horizon):
        raise ValueError("t must lie in (0, horizon]")
    exp_alpha = np.expm1((t / horizon) * softplus(alpha_horizon))
    with np.errstate(divide="ignore"):
        return np.log(exp_alpha), exp_alpha


@dataclass(frozen=True)
class ForwardSolution:
    """Transient distributions on a time grid, plus renormalization flags."""

    n_vertices: int
    t_grid: np.ndarray
    probs: np.ndarray
    renormalized: np.ndarray

    def dist(self, index: int) -> SubsetDist:
        return SubsetDist(self.n_vertices, self.probs[index])


def _forward_rhs(gen: MonotoneGenerator):
    n = gen.n_vertices
    exit_rates = gen.exit_rates
    masks = np.arange(1 << n)
    sources = []
    targets = []
    flows = []
    for v in range(n):
        src = masks[(masks >> v) & 1 == 0]
        sources.append(src)
        targets.append(src | (1 << v))
        flows.append(gen.rates[src, v])

    def rhs(_t, p):
        dp = -exit_rates * p
        for src, dst, q in zip(sources, targets, flows):
            dp[dst] += q * p[src]
        return dp

    return rhs


def forward_solve(
    gen: MonotoneGenerator,
    t_grid,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    drift_tol: float = 1e-10,
) -> ForwardSolution:
    """Transient law from the empty set by integrating the forward equations.

    Adaptive explicit Runge-Kutta (DOP853) with the monotone sparsity
    exploited in the right-hand side (n * 2^n flow terms per evaluation).
    Each output vector is renormalized only when its mass drifts beyond
    drift_tol, and the event is flagged.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")
    if np.any(t_grid < 0.0):
        raise ValueError("t_grid must be nonnegative")
    t_max = float(t_grid[-1])
    p0 = np.zeros(1 << gen.n_vertices)
    p0[0] = 1.0
    if t_max == 0.0:
        probs = np.tile(p0, (len(t_grid), 1))
        return ForwardSolution(gen.n_vertices, t_grid, probs, np.zeros(len(t_grid), bool))
    sol = solve_ivp(
        _forward_rhs(gen),
        (0.0, t_max),
        p0,
        method="DOP853",
        t_eval=t_grid,
        rtol=rtol,
        atol=atol,
        max_step=t_max / 100.0,
    )
    if not sol.success:
        raise ForwardSolveError(f"forward integration failed: {sol.message}")
    probs = sol.y.T.copy()
    totals = probs.sum(axis=1)
    flags = np.abs(totals - 1.0) > drift_tol
    probs[flags] /= totals[flags, None]
    probs = np.maximum(probs, 0.0)
    return ForwardSolution(gen.n_vertices, t_grid, probs, flags)


@dataclass(frozen=True)
class PathSample:
    """One monotone trajectory: jump times, defaulting vertices, terminal subset."""

    times: Tuple[float, ...]
    vertices: Tuple[int, ...]
    terminal: int

    def __post_init__(self):
        if len(self.times) != len(self.vertices):
            raise ValueError("one jump time per jump vertex")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("jump times must be strictly increasing")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("a vertex can default only once")
        mask = 0
        for v in self.vertices:
            mask |= 1 << v
        if mask != self.terminal:
            raise ValueError("terminal subset must collect the jump vertices")


def sample_paths(
    gen: MonotoneGenerator,
    horizon: float,
    n_paths: int,
    seed: int,
) -> Tuple[List[PathSample], SubsetDist]:
    """Jump-chain simulation of n_paths trajectories over [0, horizon].

    Randomness is keyed per path (child seeds spawned from the root seed in
    path order), so any partition of the paths across workers reproduces the
    same output.  Returns the paths and the empirical terminal distribution.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if n_paths <= 0:
        raise ValueError("need at least one path")
    children = np.random.SeedSequence(seed).spawn(n_paths)
    paths: List[PathSample] = []
    counts = np.zeros(1 << gen.n_vertices)
    full = (1 << gen.n_vertices) - 1
    for child in children:
        rng = np.random.default_rng(child)
        mask = 0
        t = 0.0
        times: List[float] = []
        verts: List[int] = []
        while mask != full:
            total = float(gen.exit_rates[mask])
            if total <= 0.0:
                break
            t += rng.exponential(1.0 / total)
            if t >= horizon:
                break
            row = gen.rates[mask]
            v = int(rng.choice(gen.n_vertices, p=row / total))
            mask |= 1 << v
            times.append(t)
            verts.append(v)
        paths.append(PathSample(tuple(times), tuple(verts), mask))
        counts[mask] += 1.0
    return paths, SubsetDist(gen.n_vertices, counts / n_paths)


def random_generator(
    n_vertices: int,
    seed: int,
    low: float = 0.2,
    high: float = 2.0,
) -> MonotoneGenerator:
    """Generator with i.i.d. uniform rates on every allowed transition."""
    rng = np.random.default_rng(seed)
    member = subset_bit_matrix(n_vertices).astype(bool)
    rates = rng.uniform(low, high, size=(1 << n_vertices, n_vertices))
    return MonotoneGenerator(n_vertices, np.where(member, 0.0, rates))


def independent_terminal_law(alpha, n_vertices: Optional[int] = None) -> SubsetDist:
    """Product Bernoulli law of the edge-free model with the given alphas."""
    alpha = np.asarray(alpha, dtype=float)
    n = alpha.shape[0] if n_vertices is None else n_vertices
    marginals = 1.0 / (1.0 + np.exp(-alpha))
    return bernoulli_product_distribution(n, marginals)
