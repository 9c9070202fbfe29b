"""Shared numeric kernels: stable exponential helpers and subset-lattice utilities.

Everything here is elementwise over numpy arrays and safe through the
degenerate parameter limits (vanishing rate gaps, t -> 0) that the curve
formulas hit routinely.
"""

from __future__ import annotations

import numpy as np

# Exact enumeration over 2^n states is capped here; forward-equation work
# uses the tighter cap because the generator table is 2^n x n.
EXACT_ENUM_CAP = 20
FORWARD_CAP = 14


def softplus(x):
    """log(1 + e^x), overflow-safe."""
    return np.logaddexp(0.0, x)


def inv_softplus(y):
    """Inverse of softplus on y > 0."""
    y = np.asarray(y, dtype=float)
    return y + np.log(-np.expm1(-y))


def expm1_over(x):
    """(e^x - 1)/x with the limit value 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    num = np.expm1(x)
    if np.all(x != 0.0):
        return num / x
    return np.divide(num, x, out=np.ones_like(num), where=x != 0.0)


def phi_minus(x):
    """(1 - e^{-x})/x with the limit value 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    num = -np.expm1(-x)
    if np.all(x != 0.0):
        return num / x
    return np.divide(num, x, out=np.ones_like(num), where=x != 0.0)


def _phi_minus_prime(x):
    """d/dx of phi_minus; series below 1e-3 to dodge cancellation."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-3
    if not np.any(small):
        return (np.exp(-x) * (x + 1.0) - 1.0) / (x * x)
    xs = np.where(small, 1.0, x)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        direct = (np.exp(-xs) * (xs + 1.0) - 1.0) / (xs * xs)
    series = -0.5 + x / 3.0 - x * x / 8.0 + x**3 / 30.0 - x**4 / 144.0
    return np.where(small, series, direct)


def phi_minus_quotient(phi_a, phi_b, gap, a, b, t, least=None):
    """[phi_minus(a t) - phi_minus(b t)] / gap from its parts, with gap = (b - a) t.

    Where |gap| < 1e-6 the midpoint derivative -phi_minus'((a + b) t / 2) is
    used (relative error O(gap^2)).  least, if given, indexes the last axis
    at the least |t|, where every row of |gap| is smallest; only that column
    is checked for a small gap.
    """
    if min(map(abs, np.ravel(gap if least is None else gap[..., least]).tolist()), default=np.inf) >= 1e-6:
        return (phi_a - phi_b) / gap
    small = np.abs(gap) < 1e-6
    with np.errstate(invalid="ignore", over="ignore"):
        direct = (phi_a - phi_b) / np.where(small, 1.0, gap)
    return np.where(small, -_phi_minus_prime(0.5 * (a + b) * t), direct)


def phi_minus_diff(a, b, t):
    """[phi_minus(a t) - phi_minus(b t)] / ((b - a) t), smooth in all arguments."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    t = np.asarray(t, dtype=float)
    return phi_minus_quotient(phi_minus(a * t), phi_minus(b * t), (b - a) * t, a, b, t)


def exp_alpha_value(q, delta, t):
    """e^{alpha(t)} = (q/delta)(e^{delta t} - 1), continuous through delta = 0."""
    t = np.asarray(t, dtype=float)
    return q * t * expm1_over(delta * t)


def alpha_prime_value(delta, t):
    """alpha'(t) = delta/(1 - e^{-delta t}), continuous through delta = 0 (-> 1/t)."""
    t = np.asarray(t, dtype=float)
    return 1.0 / (t * phi_minus(delta * t))


def alpha_values(q, delta, t):
    """(alpha, alpha', e^alpha) solving alpha' = delta + q e^{-alpha} with e^alpha -> 0 as t -> 0."""
    exp_alpha = exp_alpha_value(q, delta, t)
    with np.errstate(divide="ignore"):
        alpha = np.log(exp_alpha)
    return alpha, alpha_prime_value(delta, t), exp_alpha


def exp_beta_pair(q_u, d_u, q_v, d_v, q_uv, q_vu, c, t):
    """e^{beta(t)} for the pair consistency ODE, as the bounded-at-0 solution.

    The ODE is beta' = (c - alpha_u' - alpha_v') + (q_vu e^{-alpha_u}
    + q_uv e^{-alpha_v}) e^{-beta} with alpha_w the closed-form curve for
    (q_w, d_w) and c the exit-rate gap R_empty - R_uv.  Substituting
    w = e^beta makes the equation linear in w; the integrating factor
    diverges at 0, which pins the unique solution with the finite limit
    w(0+) = (q_vu/q_u + q_uv/q_v)/2.
    """
    c0 = c - d_u - d_v
    t = np.asarray(t, dtype=float)
    num = (q_vu / q_u) * phi_minus_diff(c0 + d_u, c0 + d_u + d_v, t) + (
        q_uv / q_v
    ) * phi_minus_diff(c0 + d_v, c0 + d_u + d_v, t)
    return np.exp(c0 * t) * num / (phi_minus(d_u * t) * phi_minus(d_v * t))


def geometric_grid(horizon, n_points=32, t_min_fraction=1e-3):
    """Geometric time grid on [t_min_fraction * horizon, horizon]."""
    if not (np.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    if not 0.0 < t_min_fraction < 1.0:
        raise ValueError(f"t_min_fraction must lie in (0, 1), got {t_min_fraction}")
    if n_points < 2:
        raise ValueError("need at least two grid points")
    return np.geomspace(t_min_fraction * horizon, horizon, n_points)


def popcounts(n_vertices):
    """Cardinality of every bitmask below 2^n, as int8 (n <= 127).

    Built by lattice doubling: the masks with bit v set are the masks below
    2^v plus one element each.
    """
    counts = np.zeros(1, dtype=np.int8)
    for _ in range(n_vertices):
        counts = np.concatenate((counts, counts + 1))
    return counts


def permuted_masks(perm, n_vertices):
    """Bitmask of every subset A after renaming vertex v to perm[v], indexed by A."""
    if sorted(perm) != list(range(n_vertices)):
        raise ValueError(f"{tuple(perm)} is not a permutation of range({n_vertices})")
    masks = np.arange(1 << len(perm))
    new_masks = np.zeros_like(masks)
    for v, p in enumerate(perm):
        new_masks |= ((masks >> v) & 1) << p
    return new_masks


def mobius_from_log(log_values):
    """Subset Mobius inversion: c[A] = sum_{B subseteq A} (-1)^{|A \\ B|} f[B]."""
    c = np.array(log_values, dtype=float)
    size = c.shape[0]
    n = size.bit_length() - 1
    if (1 << n) != size:
        raise ValueError("length must be a power of two")
    for v in range(n):
        c = c.reshape(-1, 2, 1 << v)
        c[:, 1, :] -= c[:, 0, :]
    return c.reshape(size)


def zeta_over_subsets(values):
    """Inverse of mobius_from_log: g[A] = sum_{B subseteq A} c[B], along the first axis."""
    g = np.array(values, dtype=float)
    shape = g.shape
    n = shape[0].bit_length() - 1
    if (1 << n) != shape[0]:
        raise ValueError("length must be a power of two")
    for v in range(n):
        g = g.reshape(-1, 2, 1 << v, *shape[1:])
        g[:, 1] += g[:, 0]
    return g.reshape(shape)


def zeta_over_supersets(values):
    """Superset sums g[A] = sum_{B supseteq A} f[B], as subset sums over complemented bitmasks."""
    return zeta_over_subsets(np.asarray(values)[::-1])[::-1]
