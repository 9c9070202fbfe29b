"""Independent computations the benchmark checks the program's outputs against.

Nothing here calls corrdefault.  The algorithms deliberately differ from the
package's: Hamiltonians and spin energies are built by doubling the subset
lattice one vertex at a time, transient laws come from the uniformised
Poisson series (as in tests/oracles.py), and the search's independent
constructions are written out from their closed forms.
"""

from __future__ import annotations

import math

import numpy as np


def softplus(x):
    return math.log1p(math.exp(x)) if x < 30.0 else x + math.log1p(math.exp(-x))


def pair_matrix(n, edges, values):
    """Symmetric (n, n) matrix holding one value per edge, zero elsewhere."""
    mat = np.zeros((n, n))
    for (u, v), value in zip(edges, values):
        mat[u, v] = mat[v, u] = value
    return mat


def _doubled_sums(weights):
    """sum_{v in A} weights[v] for every subset A of range(len(weights)), bitmask order."""
    out = np.zeros(1)
    for w in weights:
        out = np.concatenate([out, out + w])
    return out


def hamiltonian(alpha, beta_matrix):
    """H(A) = sum alpha over A + sum beta over pairs inside A, by lattice doubling."""
    h = np.zeros(1)
    for k, a in enumerate(alpha):
        h = np.concatenate([h, h + a + _doubled_sums(beta_matrix[k, :k])])
    return h


def pmf_from_energy(energy):
    """exp(energy) normalised, with the max shifted out; also returns log Z."""
    top = float(energy.max())
    weights = np.exp(energy - top)
    total = float(weights.sum())
    return weights / total, top + math.log(total)


def spin_energy(gamma, delta_matrix):
    """sum gamma_v s_v + sum delta_uv s_u s_v with s_v = 2*1[v in A] - 1, by doubling."""
    energy = np.zeros(1)
    for k, g in enumerate(gamma):
        # field on vertex k from the spins of vertices below it, for every subset of them
        field = np.zeros(1)
        for d in delta_matrix[k, :k]:
            field = np.concatenate([field - d, field + d])
        energy = np.concatenate([energy - g - field, energy + g + field])
    return energy


def subset_sizes(n):
    """|A| for every bitmask A below 2^n."""
    return _doubled_sums(np.ones(n)).astype(int)


def vertex_marginals(pmf, n):
    return np.array([pmf.reshape(-1, 2, 1 << v)[:, 1, :].sum() for v in range(n)])


def pair_marginals(pmf, edges):
    """P(u and v both in A) for each edge (u < v)."""
    out = []
    for u, v in edges:
        cube = pmf.reshape(-1, 2, 1 << (v - u - 1), 2, 1 << u)
        out.append(cube[:, 1, :, 1, :].sum())
    return np.array(out)


def uniformised_law(rates, times, tail=1e-15):
    """Transient law from the empty set at each time, by the uniformised series.

    p_t = sum_k Poisson(L t)[k] P^k e_empty with P = I + Q/L.  Every entry of
    P is nonnegative, so the truncated sum keeps small cells accurate in
    relative terms.
    """
    rates = np.asarray(rates, dtype=float)
    size, n = rates.shape
    exit_rates = rates.sum(axis=1)
    bound = float(exit_rates.max())
    times = np.asarray(times, dtype=float)
    start = np.zeros(size)
    start[0] = 1.0
    if bound == 0.0:
        return np.tile(start, (len(times), 1))
    mean = bound * float(times.max())
    n_terms = int(mean + 12.0 * math.sqrt(mean) + 40)
    views = [rates[:, v].reshape(-1, 2, 1 << v)[:, 0, :] for v in range(n)]
    terms = np.empty((n_terms, size))
    term = start
    for k in range(n_terms):
        terms[k] = term
        pushed = np.zeros(size)
        for v, rate_v in enumerate(views):
            pushed.reshape(-1, 2, 1 << v)[:, 1, :] += term.reshape(-1, 2, 1 << v)[:, 0, :] * rate_v
        term = term + (pushed - exit_rates * term) / bound
    k = np.arange(n_terms)
    lt = bound * times[:, None]
    log_weights = -lt + k * np.log(lt) - np.array([math.lgamma(i + 1.0) for i in k])
    weights = np.exp(log_weights)
    if np.any(weights.sum(axis=1) < 1.0 - tail * 10):
        raise ArithmeticError("uniformised series truncated too early")
    return weights @ terms


def low_order_alpha(law, n):
    """alpha_u = log(p_u / p_empty) per time row.

    The laws of subsets of size at most two form a closed subsystem of the
    forward equations, so this is the curve a generator forces on vertex u.
    """
    return np.stack([np.log(law[:, 1 << u] / law[:, 0]) for u in range(n)], axis=1)


def low_order_beta(law, u, v):
    """beta_uv = log(p_uv p_empty / (p_u p_v)) per time row, the forced pair curve."""
    return np.log(law[:, (1 << u) | (1 << v)] * law[:, 0] / (law[:, 1 << u] * law[:, 1 << v]))


def bernstein_halfwidth(p, n_samples, n_cells, false_alarm=1e-6):
    """Two-sided Bernstein bound on |p_hat - p| per cell, union-bounded over cells.

    P(|p_hat - p| >= eps) <= 2 exp(-N eps^2 / (2 p (1-p) + 2 eps / 3)); with
    L = log(2 n_cells / false_alarm) the returned eps makes each cell's
    right-hand side at most false_alarm / n_cells.
    """
    level = math.log(2.0 * n_cells / false_alarm)
    p = np.asarray(p, dtype=float)
    return np.sqrt(2.0 * p * (1.0 - p) * level / n_samples) + 2.0 * level / (3.0 * n_samples)


def independent_lumped_I(n, alpha, horizon):
    """lam_k = (N - k) log(1 + e^alpha) / T for k = 0..N."""
    return (n - np.arange(n + 1)) * softplus(alpha) / horizon


def independent_lumped_bi(m, n, alpha_hat, alpha_check, horizon):
    """Bipartite form: hat[m', n'] = (M - m') s_hat, check[m', n'] = (N - n') s_check."""
    hat = np.repeat(((m - np.arange(m + 1)) * softplus(alpha_hat) / horizon)[:, None], n + 1, axis=1)
    check = np.repeat(((n - np.arange(n + 1)) * softplus(alpha_check) / horizon)[None, :], m + 1, axis=0)
    return hat, check
