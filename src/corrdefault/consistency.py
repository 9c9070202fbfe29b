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

from ._num import (
    alpha_prime_value,
    alpha_values,
    exp_alpha_value,
    exp_beta_pair,
    geometric_grid,
    zeta_over_subsets,
)
from .ctmc import MonotoneGenerator, forward_solve
from .model import Graph, SubsetDist, family_membership_residual


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


@dataclass(frozen=True)
class BetaCurve:
    """Pair interaction curve beta_uv: values on a grid, and (beta, beta') at any t > 0."""

    t_grid: np.ndarray
    beta: np.ndarray
    beta_prime: np.ndarray
    _value: object
    _rhs: object

    def __call__(self, t):
        """(beta, beta') at arbitrary positive times."""
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0):
            raise ValueError("t must be positive")
        beta = self._value(t)
        return beta, self._rhs(t, beta)


def _pair_functions(q_u, q_v, q_uv, q_vu, r_empty, r_u, r_v, r_uv):
    """The closed-form curve t -> beta and the ODE right-hand side (t, beta) -> beta'."""
    d_u, d_v, c = r_empty - r_u, r_empty - r_v, r_empty - r_uv

    def value(t):
        return np.log(exp_beta_pair(q_u, d_u, q_v, d_v, q_uv, q_vu, c, t))

    def rhs(t, beta):
        ap = alpha_prime_value(d_u, t) + alpha_prime_value(d_v, t)
        drive = q_vu / exp_alpha_value(q_u, d_u, t) + q_uv / exp_alpha_value(q_v, d_v, t)
        return c - ap + drive * np.exp(-beta)

    return value, rhs


def beta_curve(
    q_u: float,
    q_v: float,
    q_uv: float,
    q_vu: float,
    r_empty: float,
    r_u: float,
    r_v: float,
    r_uv: float,
    t_grid,
) -> BetaCurve:
    """Pair curve: the bounded solution of the consistency ODE for the two-vertex subset.

    beta' = (R_empty - R_uv - alpha_u' - alpha_v')
            + (q_vu e^{-alpha_u} + q_uv e^{-alpha_v}) e^{-beta}
    is linear in e^beta; its unique solution bounded as t -> 0, with
    beta(0+) = log((q_u q_uv + q_v q_vu) / (2 q_u q_v)), is evaluated in closed
    form by _num.exp_beta_pair, and beta' from the equation itself.
    """
    if q_u <= 0.0 or q_v <= 0.0:
        raise ValueError("q_u and q_v must be positive")
    if q_uv < 0.0 or q_vu < 0.0:
        raise ValueError("pair rates must be nonnegative")
    if q_u * q_uv + q_v * q_vu <= 0.0:
        raise ValueError("the pair state is unreachable; beta diverges to -inf")
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(t_grid <= 0.0) or np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t_grid must be positive and strictly increasing")
    value, rhs = _pair_functions(q_u, q_v, q_uv, q_vu, r_empty, r_u, r_v, r_uv)
    beta = value(t_grid)
    return BetaCurve(t_grid, beta, rhs(t_grid, beta), value, rhs)


@dataclass(frozen=True)
class ParamCurves:
    """Time-dependent parameters (alpha_u, beta_uv) with derivative evaluators.

    Vertex and pair curves are closed-form.  Pairs absent from the mapping
    evaluate to the constant zero curve.
    """

    n_vertices: int
    q: np.ndarray
    delta: np.ndarray
    pair_curves: Dict[Tuple[int, int], BetaCurve]
    horizon: float

    def alpha(self, t: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(alpha_u, alpha_u', e^{alpha_u}) for all vertices at scalar t."""
        return alpha_values(self.q, self.delta, t)

    def beta_matrices(self, t: float) -> Tuple[np.ndarray, np.ndarray]:
        """Symmetric (beta, beta') matrices at scalar t; zeros off the stored pairs."""
        n = self.n_vertices
        b = np.zeros((n, n))
        bp = np.zeros((n, n))
        for (u, v), curve in self.pair_curves.items():
            beta, beta_prime = curve(t)
            b[u, v] = b[v, u] = float(beta)
            bp[u, v] = bp[v, u] = float(beta_prime)
        return b, bp

    def beta(self, u: int, v: int, t) -> Tuple[np.ndarray, np.ndarray]:
        key = (u, v) if u < v else (v, u)
        curve = self.pair_curves.get(key)
        if curve is None:
            t = np.asarray(t, dtype=float)
            return np.zeros_like(t), np.zeros_like(t)
        return curve(t)


def curves_from_rates(
    gen: MonotoneGenerator,
    horizon: float = 1.0,
    t_grid=None,
) -> ParamCurves:
    """Assemble every vertex and pair curve from the generator's low-order rates.

    These curves are forced by the consistency requirements on subsets of
    size one and two, so they are the only candidate parameter trajectories
    the generator could realize.
    """
    n = gen.n_vertices
    q = np.array([gen.q_u(u) for u in range(n)])
    for u in range(n):
        if q[u] <= 0.0:
            raise ValueError(f"q(empty, {u}) must be positive; alpha_{u} is undefined otherwise")
    if t_grid is None:
        t_grid = geometric_grid(horizon)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    r_empty = gen.r_empty
    delta = r_empty - np.array([gen.r_u(u) for u in range(n)])
    pair_curves = {}
    for u in range(n):
        for v in range(u + 1, n):
            pair_curves[(u, v)] = beta_curve(
                q[u],
                q[v],
                gen.q_uv(u, v),
                gen.q_uv(v, u),
                r_empty,
                gen.r_u(u),
                gen.r_u(v),
                gen.r_uv(u, v),
                t_grid,
            )
    return ParamCurves(n, q, delta, pair_curves, horizon=float(t_grid[-1]))


def independent_curves(alpha, horizon: float = 1.0, t_grid=None) -> ParamCurves:
    """Curves of the independent construction: closed-form alphas, no pair terms."""
    alpha = np.asarray(alpha, dtype=float)
    lam = np.logaddexp(0.0, alpha) / horizon
    if t_grid is None:
        t_grid = geometric_grid(horizon)
    return ParamCurves(
        alpha.shape[0], lam, lam, {}, horizon=float(np.max(t_grid))
    )


def master_residual(gen: MonotoneGenerator, curves: ParamCurves, t: float) -> np.ndarray:
    """Residual of the master consistency equation for every nonempty subset.

    Entry B holds  sum_{u in B} alpha_u' + sum_{pairs in B} beta_uv'
    - sum_{u in B} q(B-u, u) exp(-alpha_u - sum_{v in B-u} beta_uv)
    - R_empty + R_B, evaluated at time t; entry 0 (the empty set) is zero.
    Admissible dynamics require every entry to vanish on (0, horizon].

    Column u < n of one zeta transform holds sum_{v in A} beta_uv at every A,
    column n the left-hand side; in the (-1, 2, 2^u) split view of a lattice
    vector, [:, 0] holds the subsets B - u and [:, 1] the subsets B.
    """
    if gen.n_vertices != curves.n_vertices:
        raise ValueError("generator and curves have different vertex counts")
    t = float(t)
    if not (0.0 < t <= curves.horizon):
        raise ValueError("t must lie in (0, horizon]")
    n = gen.n_vertices
    alpha, alpha_prime, _ = curves.alpha(t)
    b, bp = curves.beta_matrices(t)
    singletons = 1 << np.arange(n)
    coeffs = np.zeros((1 << n, n + 1))
    coeffs[singletons, :n] = b.T  # row u of beta onto the singletons of column u
    coeffs[singletons, n] = alpha_prime
    upper = np.triu_indices(n, 1)
    coeffs[singletons[upper[0]] | singletons[upper[1]], n] = bp[upper]
    sums = zeta_over_subsets(coeffs)
    res = sums[:, n] - gen.r_empty + gen.exit_rates
    for u in range(n):
        q = gen.rates[:, u].reshape(-1, 2, 1 << u)[:, 0]
        beta_sum = sums[:, u].reshape(-1, 2, 1 << u)[:, 0]
        res.reshape(-1, 2, 1 << u)[:, 1] -= q * np.exp(-alpha[u] - beta_sum)
    return res


def membership_over_time(
    gen: MonotoneGenerator, t_grid, graph: Optional[Graph] = None
) -> Tuple[float, np.ndarray]:
    """Max out-of-family interaction residual of the transient law over a grid.

    Solves the forward equations once, Mobius-extracts interactions at every
    grid time, and scores them against the graph's family (complete graph by
    default, so only coefficients of order three and higher count).
    Returns (max over the grid, per-time residuals).
    """
    if graph is None:
        graph = Graph.complete(gen.n_vertices)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    solution = forward_solve(gen, t_grid, rtol=1e-11, atol=1e-14)
    per_t = np.array(
        [
            family_membership_residual(SubsetDist(gen.n_vertices, row), graph)
            for row in solution.probs
        ]
    )
    return float(per_t.max()), per_t
