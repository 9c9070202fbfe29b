"""Shared numeric kernels: stable exponential helpers and subset-lattice utilities.

Everything here is elementwise over numpy arrays and safe through the
degenerate parameter limits (vanishing rate gaps, t -> 0) that the curve
formulas hit routinely.
"""

from __future__ import annotations

import math

import numpy as np

# Exact enumeration over 2^n states is capped here; forward-equation work
# uses the tighter cap because the generator table is 2^n x n.
EXACT_ENUM_CAP = 20
FORWARD_CAP = 14

# The least positive normal float (_drive_over_w), and its log, below which e^x is subnormal or 0 (_log_w).
_TINY = float(np.finfo(float).tiny)
_LOG_TINY = float(np.log(_TINY))


def softplus(x):
    """log(1 + e^x), overflow-safe."""
    return np.logaddexp(0.0, x)


def logsumexp(a) -> float:
    """log(sum(exp(a))) of a non-empty array, bit for bit as scipy 1.17's special.logsumexp on real input.

    The m maxima are taken out of the shifted sum s: the result is
    log1p(s / m) + log(m) + max.  Where that is not finite (an infinite
    or NaN entry), it is the plain log(sum(exp(a))).
    """
    a = np.ravel(np.asarray(a, dtype=float))
    a_max = a.max()
    top = a == a_max
    m = float(np.count_nonzero(top))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shifted = a - a_max
        shifted[top] = -np.inf
        s = np.exp(shifted, out=shifted).sum()
        out = np.log1p(s if s == 0.0 else s / m) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return float(out)


def log_factorial(n_terms):
    """log k! for k < n_terms (libm's lgamma, within a few ulp)."""
    return np.array([math.lgamma(k + 1.0) for k in range(n_terms)])


def inv_softplus(y):
    """Inverse of softplus on y > 0."""
    y = np.asarray(y, dtype=float)
    return y + np.log(-np.expm1(-y))


def expm1_over(x):
    """(e^x - 1)/x with the limit value 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    num = np.expm1(x)
    if x.all():
        return num / x
    return np.divide(num, x, out=np.ones_like(num), where=x != 0.0)


def phi_minus(x):
    """(1 - e^{-x})/x with the limit value 1 at x = 0; it rounds as expm1_over(-x) does."""
    return expm1_over(-np.asarray(x, dtype=float))


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


def alpha_values(q, delta, t):
    """(alpha, alpha', e^alpha) solving alpha' = delta + q e^{-alpha} with e^alpha -> 0 as t -> 0.

    e^alpha = (q/delta)(e^{delta t} - 1) and alpha' = delta/(1 - e^{-delta t}),
    continuous through delta = 0 (alpha' -> 1/t).  Where e^alpha overflows,
    alpha = log(q t) + log phi_minus(-delta t) stays in range.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        exp_alpha = q * t * expm1_over(delta * t)
        alpha = np.log(exp_alpha)
    if np.isposinf(alpha).any():
        alpha = np.where(np.isposinf(alpha), np.log(q * t) + _log_phi_minus(-delta * t), alpha)
    return alpha, 1.0 / (t * phi_minus(delta * t)), exp_alpha


# Curve kernels.  The full lattice's pair curves (consistency) and the lumped
# curves (reduced) evaluate through these on a time grid t.  Curve constants
# are floats, or (B, 1) columns that put B curves on the batch axis.


def _products(t, coefs, n_expm1):
    """Rows coef * t (len(coefs), B, T), and expm1(y)/y (limit 1 at y = 0) of the first n_expm1.

    Every product of a curve constant with the times is formed once here.
    A row with coef d gives expm1_over(d t); one with coef -x gives
    phi_minus(x t), because expm1(-y)/(-y) and (1 - e^{-y})/y round alike.
    """
    y = np.array(coefs).reshape(len(coefs), -1, 1) * t
    return y, expm1_over(y[:n_expm1])


def _log_phi_minus(x):
    """log phi_minus(x), in range for any x: -x + log(expm1(x)/x) below 0."""
    return np.maximum(-x, 0.0) + np.log(expm1_over(-np.abs(x)))


def _log_quotient(a, b, gap):
    """log([phi_minus(a) - phi_minus(b)] / gap), gap = b - a, in range for any a and b.

    For low = min(a, b) < 0 it is -low plus the log of the same quotient at
    -low and |gap|, two arguments >= 0.
    """
    low, high = np.minimum(a, b), np.maximum(a, b)
    p, q, gap = np.abs(low), np.where(low < 0.0, np.abs(gap), high), np.where(low < 0.0, high, np.abs(gap))
    return np.maximum(-low, 0.0) + np.log(phi_minus_quotient(expm1_over(-p), expm1_over(-q), gap, p, q, 1.0))


def _log_w(w, y, c0, d_u, d_v, terms):
    """(beta, w): beta = log w for w = e^{c0 t} num / (phi_minus(d_u t) phi_minus(d_v t)) in product form.

    num sums k [phi_minus(a t) - phi_minus(b t)] / ((b - a) t) over terms
    (k, i, j, g); c0, d_u, d_v, i, j and g index the _products rows c0 t,
    d_u t, d_v t, -a t, -b t and (b - a) t.  Where w or e^{c0 t} is not a
    finite normal float, a factor left the float range; there beta sums the
    logs of the factors, and w = e^beta.
    """
    beta = np.log(w)
    low = np.minimum(beta, y[c0])
    # ufunc reductions cost about half of ndarray.min and max on a search's small arrays
    lowest, highest = np.minimum.reduce(low, None, initial=np.inf), np.maximum.reduce(beta, None, initial=0.0)
    if lowest >= _LOG_TINY and highest < np.inf:
        return beta, w
    bad = ~(low >= _LOG_TINY) | (beta == np.inf)
    pick = lambda x: np.broadcast_to(x, w.shape)[bad]  # noqa: E731
    with np.errstate(divide="ignore"):  # a zero k adds nothing to num
        logs = [np.log(pick(k)) + _log_quotient(-pick(y[i]), -pick(y[j]), pick(y[g])) for k, i, j, g in terms]
    beta[bad] = pick(y[c0]) + np.logaddexp.reduce(logs) - _log_phi_minus(pick(y[d_u])) - _log_phi_minus(pick(y[d_v]))
    return beta, np.where(bad, np.exp(beta), w)


def _drive_over_w(drive, w, beta, ena, log_drive):
    """drive / w, for drive a sum of terms k e^{-alpha} with the e^{-alpha} in the rows of ena, and w = e^beta.

    Where a row of ena or w is not a positive normal float, the quotient is
    0/0 or has lost digits; there it is exp(log_drive() - beta) instead,
    with log_drive() = log drive formed from alpha, not e^{-alpha}.  Every
    other cell keeps the quotient's bits.
    """
    lowest = min(np.minimum.reduce(ena, None, initial=np.inf), np.minimum.reduce(w, None, initial=np.inf))
    highest = max(np.maximum.reduce(ena, None, initial=0.0), np.maximum.reduce(w, None, initial=0.0))
    if lowest >= _TINY and highest < np.inf:
        return drive / w
    normal = lambda x: (x >= _TINY) & (x < np.inf)  # noqa: E731
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero drive's log is -inf; bad cells' quotients go unused
        return np.where(normal(ena).all(0) & normal(w), drive / w, np.exp(log_drive() - beta))


def _shared_profile(t, q, d, b1, c):
    """Models I and II: e^alpha, e^{-alpha} and alpha' (one row each), then beta' and beta, on t.

    alpha solves alpha' = d + q e^{-alpha} in closed form; w = e^beta is the
    bounded-at-0 solution of the linear equation that beta' = c - 2 alpha'
    + b1 e^{-alpha - beta} becomes, with limit w(0+) = b1 / (2 q).
    """
    c0 = c - 2.0 * d
    a, b = c0 + d, c0 + 2.0 * d
    # rows: expm1_over(d t), phi_minus at d t, a t, b t; then q t, c0 t, (b - a) t
    y, ratio = _products(t, [d, -d, -a, -b, q, c0, b - a], 4)
    least = np.abs(t).argmin() if t.size else None
    pm = ratio[1]
    w = np.exp(y[5]) * (b1 / q * phi_minus_quotient(ratio[2], ratio[3], y[6], a, b, t, least)) / (pm * pm)
    beta, w = _log_w(w, y, 5, 0, 0, [(b1 / q, 2, 3, 6)])
    ea = y[4:5] * ratio[:1]
    ena = 1.0 / ea
    ap = 1.0 / (t * ratio[1:2])
    log_drive = lambda: np.log(b1) - alpha_values(q, d, t)[0]  # noqa: E731
    return ea, ena, ap, c - 2.0 * ap[0] + _drive_over_w(b1 * ena[0], w, beta, ena, log_drive), beta


def _pair_profile(t, q_hat, d_hat, q_check, d_check, drive_hat, drive_check, c):
    """Model III and the full lattice's pairs: e^alpha, e^{-alpha} and alpha' rows (hat, then check), beta', beta.

    As _shared_profile, with beta' = c - alpha_hat' - alpha_check'
    + (drive_hat e^{-alpha_hat} + drive_check e^{-alpha_check}) e^{-beta}.
    A lattice pair (u, v) has hat u, check v, drive_hat q({v}, u) and
    drive_check q({u}, v).
    """
    c0 = c - d_hat - d_check
    a_hat, a_check = c0 + d_hat, c0 + d_check
    b = c0 + d_hat + d_check
    # rows: expm1_over for both deltas, phi_minus at both deltas, a_hat, a_check
    # and b (times t); then q_hat t, q_check t, c0 t and the two gaps (b - a) t
    y, ratio = _products(
        t, [d_hat, d_check, -d_hat, -d_check, -a_hat, -a_check, -b, q_hat, q_check, c0, b - a_hat, b - a_check], 7
    )
    least = np.abs(t).argmin() if t.size else None
    pm = ratio[2:4]
    num = drive_hat / q_hat * phi_minus_quotient(ratio[4], ratio[6], y[10], a_hat, b, t, least)
    num = num + drive_check / q_check * phi_minus_quotient(ratio[5], ratio[6], y[11], a_check, b, t, least)
    w = np.exp(y[9]) * num / (pm[0] * pm[1])
    beta, w = _log_w(w, y, 9, 0, 1, [(drive_hat / q_hat, 4, 6, 10), (drive_check / q_check, 5, 6, 11)])
    ea = y[7:9] * ratio[:2]
    ena = 1.0 / ea
    ap = 1.0 / (t * pm)
    drive = drive_hat * ena[0] + drive_check * ena[1]
    log_drive = lambda: np.logaddexp(  # noqa: E731
        np.log(drive_hat) - alpha_values(q_hat, d_hat, t)[0], np.log(drive_check) - alpha_values(q_check, d_check, t)[0]
    )
    return ea, ena, ap, c - ap[0] - ap[1] + _drive_over_w(drive, w, beta, ena, log_drive), beta


def exp_beta_pair(q_u, d_u, q_v, d_v, q_uv, q_vu, c, t):
    """e^{beta(t)} of the pair consistency ODE (_pair_profile with drives q_vu, q_uv), shaped like t."""
    beta = _pair_profile(np.ravel(t).astype(float), q_u, d_u, q_v, d_v, q_vu, q_uv, c)[-1]
    return np.exp(beta).reshape(np.shape(t))


def is_integer(value):
    """Whether value is an int or a numpy integer, and not a bool (JSON true)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# The one time grid of dynamics and search: GRID_POINTS geometric times on
# [T_MIN_FRACTION * horizon, horizon].  benchmark/workloads.py restates both.
GRID_POINTS = 32
T_MIN_FRACTION = 1e-3


def geometric_grid(horizon, grid_points=GRID_POINTS):
    """Geometric time grid on [T_MIN_FRACTION * horizon, horizon]."""
    if not (np.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    return np.geomspace(T_MIN_FRACTION * horizon, horizon, grid_points)


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


def halves(x, v):
    """Views of x with axis 0 split as (-1, 2, 2^v): the subsets without vertex v, then the same ones with v added."""
    split = x.reshape(-1, 2, 1 << v, *x.shape[1:])
    return split[:, 0], split[:, 1]


def _subset_sweep(values, op):
    """For each vertex v in turn, f[A + v] = op(f[A + v], f[A]) along the first axis, on a fresh C-ordered copy."""
    x = np.array(values, dtype=float, order="C")
    n = x.shape[0].bit_length() - 1
    if (1 << n) != x.shape[0]:
        raise ValueError("length must be a power of two")
    for v in range(n):
        without, added = halves(x, v)
        op(added, without, out=added)
    return x


def mobius_from_log(log_values):
    """Subset Mobius inversion: c[A] = sum_{B subseteq A} (-1)^{|A \\ B|} f[B], along the first axis."""
    return _subset_sweep(log_values, np.subtract)


def zeta_over_subsets(values):
    """Inverse of mobius_from_log: g[A] = sum_{B subseteq A} c[B], along the first axis."""
    return _subset_sweep(values, np.add)


def zeta_over_supersets(values):
    """Superset sums g[A] = sum_{B supseteq A} f[B], as subset sums over complemented bitmasks."""
    return zeta_over_subsets(np.asarray(values)[::-1])[::-1]
