"""Candidate parameter curves and the master consistency equation.

For any monotone generator, the transient probabilities of subsets of size
at most two form a closed subsystem, so the single-vertex curve alpha_u(t)
has a closed form and the pair curve beta_uv(t) solves a scalar ODE driven
only by low-order rates, whose bounded solution is closed-form too.
Admissible dynamics additionally require the master equation to hold for
every larger subset; its residuals are the certificates this module computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ._num import _pair_profile, alpha_values, geometric_grid, halves, zeta_over_subsets
from .ctmc import ForwardSolution, MonotoneGenerator, forward_solve
from .model import Graph, SubsetDist, _out_of_family_residuals


def alpha_curve(q_u: float, r_empty: float, r_u: float, t):
    """Closed-form single-vertex curve: (alpha, alpha', e^alpha) at times t.

    Solves alpha' = q_u e^{-alpha} + (r_empty - r_u) with the boundary
    behavior e^{alpha} -> 0 as t -> 0.  The expm1-based forms are continuous
    through the degenerate case r_empty = r_u, where they reduce to
    alpha = log(q_u t), alpha' = 1/t.
    """
    if q_u <= 0.0:
        raise ValueError("q_u must be positive")
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("t must be positive")
    return alpha_values(q_u, r_empty - r_u, t)


def _pair_values(t, constants):
    """(beta, beta') at t of one pair, or of P as columns of one kernel call, from (7,) or (7, P) constants."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("t must be positive")
    constants = np.asarray(constants, dtype=float)
    shape = t.shape + constants.shape[1:]
    if not constants.size:
        return np.zeros(shape), np.zeros(shape)
    with np.errstate(all="ignore"):  # the kernel redoes in log space what leaves the float range
        *_, beta_prime, beta = _pair_profile(t.ravel(), *constants.reshape(7, -1, 1))
    return beta.T.reshape(shape), beta_prime.T.reshape(shape)


@dataclass(frozen=True)
class ParamCurves:
    """Time-dependent parameters (alpha_u, beta_uv) with derivative evaluators.

    Vertex curves are closed-form.  Row p of pairs, (u, v) with u < v, has column p of pair_constants as
    its (q_u, d_u, q_v, d_v, q({v}, u), q({u}, v), c), with d_w = R_empty - R_w and c = R_empty - R_uv.
    All pairs are evaluated in one kernel call.  Other pairs are the constant zero curve.
    """

    n_vertices: int
    q: np.ndarray
    delta: np.ndarray
    pairs: np.ndarray
    pair_constants: np.ndarray
    horizon: float

    @property
    def pair_curves(self) -> Dict[Tuple[int, int], np.ndarray]:
        """The constants of every stored pair curve, by pair."""
        return dict(zip(map(tuple, self.pairs.tolist()), self.pair_constants.T))

    def alpha(self, t) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(alpha_u, alpha_u', e^{alpha_u}) for all vertices, shape t.shape + (n,)."""
        t = np.asarray(t, dtype=float)
        return alpha_values(self.q, self.delta, t[..., None])

    def beta_matrices(self, t) -> Tuple[np.ndarray, np.ndarray]:
        """Symmetric (beta, beta') matrices, shape t.shape + (n, n); zeros off the stored pairs."""
        t = np.asarray(t, dtype=float)
        n = self.n_vertices
        b = np.zeros(t.shape + (n, n))
        bp = np.zeros(t.shape + (n, n))
        u, v = self.pairs.T
        b[..., u, v], bp[..., u, v] = _pair_values(t, self.pair_constants)
        b[..., v, u], bp[..., v, u] = b[..., u, v], bp[..., u, v]
        return b, bp

    def beta(self, u: int, v: int, t) -> Tuple[np.ndarray, np.ndarray]:
        """(beta_uv, beta_uv') at times t; zeros for a pair with no stored curve."""
        n = self.n_vertices
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"({u}, {v}) is not a pair of distinct vertices in range({n})")
        at = np.flatnonzero((self.pairs == (min(u, v), max(u, v))).all(axis=1))
        if not at.size:
            t = np.asarray(t, dtype=float)
            return np.zeros_like(t), np.zeros_like(t)
        return _pair_values(t, self.pair_constants[:, at[0]])


def curves_from_rates(gen: MonotoneGenerator, horizon: float = 1.0, t_grid=None) -> ParamCurves:
    """Assemble every vertex and pair curve from the generator's low-order rates.

    These curves are forced by the consistency requirements on subsets of
    size one and two, so they are the only candidate parameter trajectories
    the generator could realize.
    """
    n, q = gen.n_vertices, gen.rates[0].copy()
    if (q <= 0.0).any():
        u = int((q <= 0.0).argmax())
        raise ValueError(f"q(empty, {u}) must be positive; alpha_{u} is undefined otherwise")
    if t_grid is None:
        t_grid = geometric_grid(horizon)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(t_grid <= 0.0) or np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t_grid must be positive and strictly increasing")
    r_empty, single = gen.r_empty, 1 << np.arange(n)
    delta = r_empty - gen.exit_rates[single]
    pairs = np.transpose(np.triu_indices(n, 1))
    u, v = pairs.T
    drive_u, drive_v = gen.rates[single[v], u], gen.rates[single[u], v]  # q({v}, u) and q({u}, v)
    unreachable = (drive_u == 0.0) & (drive_v == 0.0)  # q > 0, so q[u] drive_v + q[v] drive_u vanishes only here
    if unreachable.any():
        k = unreachable.argmax()
        raise ValueError(f"the pair state ({u[k]}, {v[k]}) is unreachable; beta diverges to -inf")
    c = r_empty - gen.exit_rates[single[u] | single[v]]
    constants = np.array([q[u], delta[u], q[v], delta[v], drive_u, drive_v, c])
    return ParamCurves(n, q, delta, pairs, constants, horizon=float(t_grid[-1]))


# master_residual transforms at most this many cells at once (8 MB of floats).
_RESIDUAL_CELLS = 1 << 20


def master_residual(gen: MonotoneGenerator, curves: ParamCurves, t) -> np.ndarray:
    """Residual of the master consistency equation for every nonempty subset.

    Entry B holds  sum_{u in B} alpha_u' + sum_{pairs in B} beta_uv'
    - sum_{u in B} q(B-u, u) exp(-alpha_u - sum_{v in B-u} beta_uv)
    - R_empty + R_B, evaluated at time t; entry 0 (the empty set) is zero.
    Admissible dynamics require every entry to vanish on (0, horizon].
    A scalar t gives shape (2^n,), an array of T times (T, 2^n).  The
    times go through _residual_block in blocks of at most _RESIDUAL_CELLS
    transform cells.
    """
    if gen.n_vertices != curves.n_vertices:
        raise ValueError("generator and curves have different vertex counts")
    t = np.asarray(t, dtype=float)
    times = np.atleast_1d(t)
    if times.ndim != 1 or not (np.all(times > 0.0) and np.all(times <= curves.horizon)):
        raise ValueError("t must lie in (0, horizon]")
    n = gen.n_vertices
    block = max(1, _RESIDUAL_CELLS // ((1 << n) * (n + 1)))
    res = np.concatenate(
        [_residual_block(gen, curves, times[i : i + block]) for i in range(0, len(times), block)],
        axis=1,
    )
    return res[:, 0] if t.ndim == 0 else res.T


def _residual_block(gen: MonotoneGenerator, curves: ParamCurves, times) -> np.ndarray:
    """master_residual at T times as a (2^n, T) array, evaluating each pair curve once.

    One zeta transform acts on a (2^n, T, n+1) array: column u < n holds
    sum_{v in A} beta_uv at every A and time, column n the left-hand side.
    """
    n, n_times = gen.n_vertices, len(times)
    alpha, alpha_prime, _ = curves.alpha(times)
    b, bp = curves.beta_matrices(times)
    singletons = 1 << np.arange(n)
    coeffs = np.zeros((1 << n, n_times, n + 1))
    coeffs[singletons, :, :n] = b.transpose(2, 0, 1)  # row u of beta onto the singletons of column u
    coeffs[singletons, :, n] = alpha_prime.T
    upper = np.triu_indices(n, 1)
    coeffs[singletons[upper[0]] | singletons[upper[1]], :, n] = bp[:, upper[0], upper[1]].T
    sums = zeta_over_subsets(coeffs)
    res = sums[:, :, n] - gen.r_empty + gen.exit_rates[:, None]
    for u in range(n):
        q = halves(gen.rates, u)[0][..., u, None]  # q(B - u, u) for the subsets B that hold u
        beta_sum = halves(sums[:, :, u], u)[0]
        # a term beyond the float range is inf, so its residual rounds to -inf; a zero rate adds 0, not 0 * inf
        with np.errstate(over="ignore"):
            drain = np.multiply(q, np.exp(-alpha[:, u] - beta_sum), where=q != 0.0, out=np.zeros_like(beta_sum))
        holding_u = halves(res, u)[1]
        holding_u -= drain
    return res


def membership_over_time(
    gen: MonotoneGenerator,
    t_grid,
    graph: Optional[Graph] = None,
    solution: Optional[ForwardSolution] = None,
) -> Tuple[float, np.ndarray]:
    """Max out-of-family interaction residual of the transient law over a grid.

    Uses the given forward solution on t_grid, or solves the forward equations
    once, and scores the laws at every grid time against the graph's family
    (complete graph by default, so only coefficients of order three and
    higher count) with one Mobius transform of the whole grid.
    Returns (max over the grid, per-time residuals).
    """
    if graph is None:
        graph = Graph.complete(gen.n_vertices)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if solution is None:
        solution = forward_solve(gen, t_grid)
    elif solution.n_vertices != gen.n_vertices or not np.array_equal(solution.t_grid, t_grid):
        raise ValueError("the forward solution is not on this generator's vertices and grid")
    for row in solution.probs:
        SubsetDist(gen.n_vertices, row)  # every law is a distribution: finite, non-negative, summing to 1
    per_t = _out_of_family_residuals(solution.probs.T, graph)
    return float(per_t.max()), per_t
