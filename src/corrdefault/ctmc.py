"""Monotone continuous-time Markov chains on the subset lattice.

States are subsets of the vertex set (bitmasks); the only allowed jumps add
a single vertex, so defaults are absorbing and never simultaneous.  The
generator is stored densely as a (2^n, n) rate table q(A, v) for v not in A.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ._num import FORWARD_CAP, halves, log_factorial, permuted_masks, softplus
from .model import SubsetDist, bernoulli_product_distribution


# Paths advance together in blocks of this many; the output does not depend on it.
_PATH_BLOCK = 4096


def __getattr__(name):
    # forward_solve does not call solve_ivp; benchmark/tracing.py still wraps
    # ctmc.solve_ivp as its right-hand-side counter hook, so the name resolves,
    # and scipy loads only when something reads it.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        if any(np.any(halves(rates, v)[1][..., v]) for v in range(self.n_vertices)):
            raise ValueError("rate q(A, v) must be zero for v already in A")
        rates.setflags(write=False)
        object.__setattr__(self, "rates", rates)

    @cached_property
    def exit_rates(self) -> np.ndarray:
        """R_A = total jump rate out of each subset."""
        r = self.rates.sum(axis=1)
        r.setflags(write=False)
        return r

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
        rates = np.zeros_like(self.rates)
        rates[permuted_masks(perm, self.n_vertices)[:, None], np.array(perm)[None, :]] = self.rates
        return MonotoneGenerator(self.n_vertices, rates)


def _monotone(rates) -> MonotoneGenerator:
    """Generator from a full (2^n, n) table after zeroing q(A, v) for every v in A, in place."""
    n = rates.shape[1]
    for v in range(n):
        halves(rates, v)[1][..., v] = 0.0
    return MonotoneGenerator(n, rates)


def independent_generator(alpha, horizon: float = 1.0) -> MonotoneGenerator:
    """Constant-rate generator reproducing the edge-free model at the horizon.

    Each vertex defaults at rate log(1 + e^{alpha_v}) / horizon regardless of
    the current subset, so the law at the horizon is the product of
    Bernoullis with success probability 1 - e^{-rate * horizon}.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    lam = softplus(np.asarray(alpha, dtype=float)) / horizon
    return _monotone(np.tile(lam, (1 << lam.shape[0], 1)))


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
    """Transient distributions on a time grid, renormalization flags and the series length."""

    n_vertices: int
    t_grid: np.ndarray
    probs: np.ndarray
    renormalized: np.ndarray
    n_terms: int = 0


def _uniformised_step(gen: MonotoneGenerator, rate_bound: float):
    """p -> P p for P = I + Q / L, in the form with non-negative terms only.

    (P p)_A = (1 - R_A / L) p_A + sum_{v in A} q(A - v, v) / L p_{A - v}; with
    L >= max R_A no coefficient is negative, so no step cancels.
    """
    n = gen.n_vertices
    stay = 1.0 - gen.exit_rates / rate_bound
    flows = [halves(gen.rates[:, v], v)[0] / rate_bound for v in range(n)]

    def step(p):
        out = stay * p
        for v, q in enumerate(flows):
            added = halves(out, v)[1]
            added += q * halves(p, v)[0]
        return out

    return step


def forward_solve(gen: MonotoneGenerator, t_grid) -> ForwardSolution:
    """Transient law from the empty set by one uniformised series for the whole grid.

    With L = max_A R_A, p(t) = sum_k Poisson(L t)[k] P^k e_empty and
    P = I + Q / L (Jensen's uniformisation).  Every term is non-negative, so
    cells of order t^|A| keep their relative precision.  Each time t_j takes
    the terms k <= n + L t_j + 10 sqrt(L t_j) + 30: level n is reached after
    n steps, and the Poisson tail beyond is below e^-50.  The weights are
    formed in log space, so none underflows before its term is reached.  Terms are added
    into the output as they are produced and not stored.  An output vector is
    renormalized only when its mass drifts beyond 1e-10, and the event is
    flagged; n_terms counts the terms of the longest series.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")
    if np.any(t_grid < 0.0):
        raise ValueError("t_grid must be nonnegative")
    n = gen.n_vertices
    rate_bound = float(gen.exit_rates.max())
    probs = np.zeros((len(t_grid), 1 << n))
    if rate_bound == 0.0:
        probs[:, 0] = 1.0
        return ForwardSolution(n, t_grid, probs, np.zeros(len(t_grid), bool), 1)
    mean = rate_bound * t_grid
    last = np.ceil(n + mean + 10.0 * np.sqrt(mean) + 30.0).astype(int)
    n_terms = int(last[-1]) + 1
    k = np.arange(n_terms)
    with np.errstate(divide="ignore"):  # a zero time's log mean; its k log(mean) is 0 at k = 0
        k_log_mean = np.multiply(k, np.log(mean)[:, None], out=np.zeros((len(mean), n_terms)), where=k > 0)
    weights = np.exp(k_log_mean - mean[:, None] - log_factorial(n_terms))
    # the grid increases, so the times still summing term k are a suffix of it
    first = np.searchsorted(last, k)
    step = _uniformised_step(gen, rate_bound)
    term = np.zeros(1 << n)
    term[0] = 1.0
    for j in range(n_terms):
        probs[first[j] :] += weights[first[j] :, j, None] * term
        if j + 1 < n_terms:
            term = step(term)
    totals = probs.sum(axis=1)
    flags = np.abs(totals - 1.0) > 1e-10
    probs[flags] /= totals[flags, None]
    return ForwardSolution(n, t_grid, probs, flags, n_terms)


@dataclass(frozen=True)
class PathSample:
    """One monotone trajectory: jump times, defaulting vertices, terminal subset."""

    times: Tuple[float, ...]
    vertices: Tuple[int, ...]
    terminal: int

    def __post_init__(self):
        if len(self.times) != len(self.vertices):
            raise ValueError("one jump time per jump vertex")
        # plain Python: numpy calls on a few-element tuple cost more than the sampling
        if any(map(operator.le, self.times[1:], self.times)):
            raise ValueError("jump times must be strictly increasing")
        mask = 0
        for v in self.vertices:
            if (mask >> v) & 1:
                raise ValueError("a vertex can default only once")
            mask |= 1 << v
        if mask != self.terminal:
            raise ValueError("terminal subset must collect the jump vertices")


def _inverse_cdf(cum_rates, u):
    """Vertex with cum_rates[v-1] <= u * total < cum_rates[v] for each row.

    total is the row's last entry.  A zero-rate vertex repeats its left
    neighbour's entry, so it is never picked; u * total is kept below total so
    that rounding cannot pick past the last vertex with a positive rate.
    """
    total = cum_rates[:, -1]
    target = np.minimum(u * total, np.nextafter(total, 0.0))
    return (cum_rates <= target[:, None]).sum(axis=1)


def sample_paths(
    gen: MonotoneGenerator,
    horizon: float,
    n_paths: int,
    seed: int,
) -> Tuple[List[PathSample], SubsetDist]:
    """Jump-chain simulation of n_paths trajectories over [0, horizon].

    One stream, default_rng(seed), supplies 2n uniforms per path in path
    order: path k reads draws 2n*k ... 2n*(k+1)-1, a pair per jump, one for
    the exponential clock and one for the vertex.  Path k therefore depends
    only on (seed, k), so any partition of the paths reproduces the same
    output.  Paths advance in blocks of _PATH_BLOCK, each in at most n jump
    rounds.  Returns the paths and the empirical terminal distribution.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if n_paths <= 0:
        raise ValueError("need at least one path")
    n = gen.n_vertices
    rng = np.random.default_rng(seed)
    cum_rates = np.cumsum(gen.rates, axis=1)
    paths: List[PathSample] = []
    terminals = []
    for start in range(0, n_paths, _PATH_BLOCK):
        size = min(_PATH_BLOCK, n_paths - start)
        draws = rng.random((size, n, 2))
        mask = np.zeros(size, dtype=np.int64)
        t = np.zeros(size)
        times = np.zeros((size, n))
        verts = np.zeros((size, n), dtype=np.int64)
        live = np.arange(size)
        for j in range(n):
            rate = gen.exit_rates[mask[live]]
            # rate 0 (absorbed) gives inf or nan, which ends the path like t >= horizon
            with np.errstate(divide="ignore", invalid="ignore"):
                t_next = t[live] - np.log1p(-draws[live, j, 0]) / rate
            jumped = t_next < horizon
            live, t_next = live[jumped], t_next[jumped]
            if live.size == 0:
                break
            v = _inverse_cdf(cum_rates[mask[live]], draws[live, j, 1])
            mask[live] |= 1 << v
            t[live] = times[live, j] = t_next
            verts[live, j] = v
        # each jump adds one vertex, so a path's jump count is its terminal's size
        for row_t, row_v, terminal in zip(times.tolist(), verts.tolist(), mask.tolist()):
            m = terminal.bit_count()
            paths.append(PathSample(tuple(row_t[:m]), tuple(row_v[:m]), terminal))
        terminals.append(mask)
    counts = np.bincount(np.concatenate(terminals), minlength=1 << n)
    return paths, SubsetDist(n, counts / n_paths)


def random_generator(n_vertices: int, seed: int) -> MonotoneGenerator:
    """Generator with i.i.d. uniform rates on [0.2, 2) on every allowed transition."""
    rng = np.random.default_rng(seed)
    return _monotone(rng.uniform(0.2, 2.0, size=(1 << n_vertices, n_vertices)))


def independent_terminal_law(alpha) -> SubsetDist:
    """Product Bernoulli law of the edge-free model with the given alphas."""
    alpha = np.asarray(alpha, dtype=float)
    return bernoulli_product_distribution(alpha.shape[0], 1.0 / (1.0 + np.exp(-alpha)))
