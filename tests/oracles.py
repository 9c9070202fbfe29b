"""Independent reference implementations used only to cross-check the library.

Everything here is deliberately written with different algorithms than the
package: uniformization instead of ODE integration, explicit alternating
sums instead of in-place transforms, closed forms for the two-vertex chain,
index gathers instead of reshaped views, dense 0/1 bit matrices instead of
subset transforms.
"""

import numpy as np
from scipy.special import logsumexp

from corrdefault._num import phi_minus, phi_minus_diff


def subset_bit_matrix(n_vertices):
    """(2^n, n) 0/1 matrix; row A, column v is 1 iff v in A."""
    masks = np.arange(1 << n_vertices, dtype=np.int64)
    return (masks[:, None] >> np.arange(n_vertices)) & 1


def log_partition_curve(curves, t):
    """(log Z_t, d/dt log Z_t) of the model with parameters curves(t), by enumeration over bit rows."""
    alpha, alpha_prime, _ = curves.alpha(t)
    b, bp = curves.beta_matrices(t)
    bits = subset_bit_matrix(curves.n_vertices).astype(float)
    h = bits @ alpha + 0.5 * np.einsum("au,av,uv->a", bits, bits, b)
    h_prime = bits @ alpha_prime + 0.5 * np.einsum("au,av,uv->a", bits, bits, bp)
    log_z = float(logsumexp(h))
    weights = np.exp(h - log_z)
    return log_z, float(np.dot(weights, h_prime))


def master_residual_bits(gen, curves, t):
    """consistency.master_residual by bit-matrix products and index gathers, one vertex at a time."""
    n = gen.n_vertices
    alpha, alpha_prime, _ = curves.alpha(t)
    b, bp = curves.beta_matrices(t)
    bits = subset_bit_matrix(n).astype(float)
    lhs = bits @ alpha_prime + 0.5 * np.einsum("au,av,uv->a", bits, bits, bp)
    masks = np.arange(1 << n)
    inflow = np.zeros(1 << n)
    for u in range(n):
        b_masks = masks[(masks >> u) & 1 == 1]
        beta_sum = bits[b_masks] @ b[u] - b[u, u]
        inflow[b_masks] += gen.rates[b_masks ^ (1 << u), u] * np.exp(-alpha[u] - beta_sum)
    res = lhs - inflow - gen.r_empty + gen.exit_rates
    res[0] = 0.0
    return res


def uniformization_solve(gen, t, tail=1e-14, max_terms=100_000):
    """Transient law at time t by the uniformized Poisson series.

    p_t = sum_k Poisson(L t)[k] * P^k delta_empty with P = I + Q/L; the
    series is truncated once the accumulated Poisson mass exceeds 1 - tail.
    """
    n = gen.n_vertices
    size = 1 << n
    rate_bound = float(np.max(gen.exit_rates))
    p = np.zeros(size)
    p[0] = 1.0
    if rate_bound == 0.0 or t == 0.0:
        return p
    acc = np.zeros(size)
    weight = np.exp(-rate_bound * t)
    covered = weight
    acc += weight * p
    term = p
    for k in range(1, max_terms):
        pushed = np.zeros(size)
        for v in range(n):
            bit = 1 << v
            masks = np.arange(size)
            src = masks[(masks & bit) == 0]
            pushed[src | bit] += term[src] * gen.rates[src, v]
        term = term - (gen.exit_rates * term) / rate_bound + pushed / rate_bound
        weight *= rate_bound * t / k
        acc += weight * term
        covered += weight
        if covered >= 1.0 - tail:
            break
    return acc


def forward_rhs_gather(gen):
    """Forward-equation right-hand side by index gather and scatter, one flow per vertex.

    The same operations in the same order as ctmc._forward_rhs, on index
    arrays instead of reshaped views, so the two agree bit for bit.
    """
    n = gen.n_vertices
    masks = np.arange(1 << n)
    flows = []
    for v in range(n):
        src = masks[(masks >> v) & 1 == 0]
        flows.append((src, src | (1 << v), gen.rates[src, v]))

    def rhs(_t, p):
        dp = -gen.exit_rates * p
        for src, dst, q in flows:
            dp[dst] += q * p[src]
        return dp

    return rhs


def brute_force_interactions(probs):
    """c_A by the explicit alternating sum over sub-subsets (slow, O(4^n))."""
    size = len(probs)
    n = size.bit_length() - 1
    logp = np.log(probs)
    coeffs = np.zeros(size)
    for mask in range(size):
        total = 0.0
        sub = mask
        while True:
            sign = (-1) ** (bin(mask ^ sub).count("1"))
            total += sign * logp[sub]
            if sub == 0:
                break
            sub = (sub - 1) & mask
        coeffs[mask] = total
    return coeffs


def bit_matrix_moments(probs, edges):
    """Vertex marginals and edge pair probabilities as dot products with 0/1 membership columns."""
    size = len(probs)
    n = size.bit_length() - 1
    bits = ((np.arange(size)[:, None] >> np.arange(n)) & 1).astype(float)
    vertex = bits.T @ probs
    pair = np.array([(bits[:, u] * bits[:, v]) @ probs for (u, v) in edges])
    return vertex, pair


def spin_energies(gamma, delta, edges, n_vertices):
    """Spin energy sum gamma_v s_v + sum delta_uv s_u s_v of every bitmask, s = +1 on the subset."""
    masks = np.arange(1 << n_vertices)
    signs = 2.0 * ((masks[:, None] >> np.arange(n_vertices)) & 1) - 1.0
    energy = signs @ np.asarray(gamma, dtype=float)
    for (u, v), d in zip(edges, delta):
        energy += d * signs[:, u] * signs[:, v]
    return energy


def two_vertex_exact(q_u, q_v, q_uv, q_vu, t):
    """Closed-form occupation probabilities of the 2-vertex monotone chain.

    Returns (p_empty, p_u, p_v, p_both) at times t for rates q(0,u)=q_u,
    q(0,v)=q_v, q({u},v)=q_uv, q({v},u)=q_vu.
    """
    t = np.asarray(t, dtype=float)
    r_empty = q_u + q_v
    p0 = np.exp(-r_empty * t)
    pu = q_u * t * np.exp(-q_uv * t) * phi_minus((r_empty - q_uv) * t)
    pv = q_v * t * np.exp(-q_vu * t) * phi_minus((r_empty - q_vu) * t)
    puv = q_u * q_uv * t**2 * phi_minus_diff(q_uv, r_empty, t)
    puv = puv + q_v * q_vu * t**2 * phi_minus_diff(q_vu, r_empty, t)
    return p0, pu, pv, puv


def integrate_scalar_ode(rhs, t0, y0, t_grid, rtol=1e-11, atol=1e-13):
    """Plain adaptive RK oracle for scalar ODEs (wraps solve_ivp)."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda t, y: np.array([rhs(t, y[0])]),
        (t0, float(t_grid[-1])),
        np.array([float(y0)]),
        method="DOP853",
        t_eval=t_grid,
        rtol=rtol,
        atol=atol,
    )
    assert sol.success, sol.message
    return sol.y[0]
