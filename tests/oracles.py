"""Independent reference implementations used only to cross-check the library.

Everything here is deliberately written with different algorithms than the
package: mpmath Taylor series and stepwise uniformization, explicit alternating
sums instead of in-place transforms, closed forms for the two-vertex chain,
index gathers instead of reshaped views, dense 0/1 bit matrices instead of
subset transforms, and the lumped curves and residuals of reduced.py as
separate closed forms per curve, occupancy grids and shifted rate tables.
The pair curves keep their former product form for e^beta; where a factor
of it leaves the normal floats, the curves take beta from the same closed
form in 50-digit mpmath (beta_in_range).
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from corrdefault._num import alpha_values, phi_minus, phi_minus_quotient, popcounts
from corrdefault.model import SubsetDist, extract_interactions


def phi_minus_diff(a, b, t):
    """[phi_minus(a t) - phi_minus(b t)] / ((b - a) t), smooth in all arguments."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    t = np.asarray(t, dtype=float)
    return phi_minus_quotient(phi_minus(a * t), phi_minus(b * t), (b - a) * t, a, b, t)


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

    p_t = sum_k Poisson(L t)[k] * P^k delta_empty with P = I + Q/L.  Every
    term is non-negative, and the weights are updated in log space.  The
    series runs past level n and past its Poisson mode, and stops once the
    bound w_k / (1 - L t / (k + 1)) on the rest falls below tail times the
    smallest positive cell, so small cells keep their relative precision.
    """
    n = gen.n_vertices
    size = 1 << n
    rate_bound = float(np.max(gen.exit_rates))
    p = np.zeros(size)
    p[0] = 1.0
    if rate_bound == 0.0 or t == 0.0:
        return p
    mean = rate_bound * t
    log_weight = -mean
    acc = np.exp(log_weight) * p
    term = p
    masks = np.arange(size)
    for k in range(1, max_terms):
        pushed = np.zeros(size)
        for v in range(n):
            bit = 1 << v
            src = masks[(masks & bit) == 0]
            pushed[src | bit] += term[src] * gen.rates[src, v]
        term = term - (gen.exit_rates * term) / rate_bound + pushed / rate_bound
        log_weight += np.log(mean / k)
        acc += np.exp(log_weight) * term
        if k >= n and k + 1 > mean:
            rest = log_weight - np.log1p(-mean / (k + 1))
            if rest < np.log(tail) + np.log(acc[acc > 0.0].min()):
                return acc
    raise ArithmeticError("uniformized series did not converge")


def taylor_law_mp(gen, t, digits=40):
    """Transient law at time t by the Taylor series of exp(Q t) delta_empty in mpmath.

    The terms alternate in sign and peak near e^{L t}, while a cell can be
    as small as e^{-L t}, so the working precision is `digits` plus
    2 L t / ln 10 plus a guard.  The series stops
    past level n and past 2 L t, where the terms shrink geometrically, once
    the largest term falls below 10^-digits times the smallest nonzero cell.
    Cells no path reaches stay exactly 0.  Meant for n <= 5.
    """
    import mpmath

    n = gen.n_vertices
    size = 1 << n
    rate_bound = float(np.max(gen.exit_rates))
    guard = int(2.0 * rate_bound * t / np.log(10.0)) + 20
    with mpmath.workdps(digits + guard):
        rates = [[mpmath.mpf(float(x)) for x in row] for row in gen.rates]
        exits = [mpmath.fsum(row) for row in rates]
        t_mp = mpmath.mpf(float(t))
        term = [mpmath.mpf(0)] * size
        term[0] = mpmath.mpf(1)
        acc = list(term)
        eps = mpmath.mpf(10) ** (-digits)
        k = 0
        while True:
            k += 1
            nxt = [-exits[a] * term[a] for a in range(size)]
            for a in range(size):
                for v in range(n):
                    if not (a >> v) & 1:
                        nxt[a | (1 << v)] += rates[a][v] * term[a]
            term = [x * t_mp / k for x in nxt]
            acc = [x + y for x, y in zip(acc, term)]
            if k >= n and k > 2.0 * rate_bound * t:
                smallest = min(abs(x) for x in acc if x != 0)
                if max(abs(x) for x in term) < eps * smallest:
                    return np.array([float(x) for x in acc])


def forward_step_gather(gen, rate_bound):
    """One uniformised step p -> (I + Q/L) p by index gather and scatter, one flow per vertex.

    The same operations in the same order as ctmc._uniformised_step, on index
    arrays instead of reshaped views, so the two agree bit for bit.
    """
    n = gen.n_vertices
    masks = np.arange(1 << n)
    stay = 1.0 - gen.exit_rates / rate_bound
    flows = []
    for v in range(n):
        src = masks[(masks >> v) & 1 == 0]
        flows.append((src, src | (1 << v), gen.rates[src, v] / rate_bound))

    def step(p):
        out = stay * p
        for src, dst, q in flows:
            out[dst] += q * p[src]
        return out

    return step


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


def membership_per_law(probs, graph):
    """Out-of-family residual of each row of probs: extract_interactions per law, non-edges by a Python loop."""
    n = graph.n_vertices
    edges = set(graph.edges)
    out = popcounts(n) >= 3
    non_edges = [(1 << u) | (1 << v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    out[np.array(non_edges, dtype=np.int64)] = True
    per_law = []
    for row in probs:
        coeffs = extract_interactions(SubsetDist(n, row)).coeffs
        per_law.append(float(np.max(np.abs(coeffs[out]))) if np.any(out) else 0.0)
    return np.array(per_law)


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


def beta_pair_mp(q_u, d_u, q_v, d_v, q_uv, q_vu, c, t, digits=50, order=0):
    """beta(t) of exp_beta_pair's closed form, or its derivative of this order, in mpmath at `digits` digits, as floats.

    mpmath's exponent range holds every factor, so the product form is
    taken as written; an exactly zero gap takes the limit -phi_minus'.
    """
    import mpmath

    def phi(x):
        return -mpmath.expm1(-x) / x if x else mpmath.mpf(1)

    def quotient(a, b, s):
        if a == b:
            x = a * s
            return (1 - mpmath.exp(-x) * (1 + x)) / x**2 if x else mpmath.mpf(1) / 2
        return (phi(a * s) - phi(b * s)) / ((b - a) * s)

    with mpmath.workdps(digits):
        q_u, d_u, q_v, d_v, q_uv, q_vu, c = (mpmath.mpf(float(x)) for x in (q_u, d_u, q_v, d_v, q_uv, q_vu, c))
        c0 = c - d_u - d_v
        b = c0 + d_u + d_v

        def beta(s):
            num = q_vu / q_u * quotient(c0 + d_u, b, s) + q_uv / q_v * quotient(c0 + d_v, b, s)
            return c0 * s + mpmath.log(num) - mpmath.log(phi(d_u * s)) - mpmath.log(phi(d_v * s))

        out = [float(mpmath.diff(beta, s, order)) for s in map(mpmath.mpf, np.ravel(t).tolist())]
    return np.array(out).reshape(np.shape(t))


def exp_beta_single(q, d, b1, c, t):
    """e^{beta(t)} for the shared-alpha lumped ODE beta' = (c - 2 alpha') + b1 e^{-alpha - beta}.

    Same integrating-factor construction as exp_beta_pair with both vertices
    carrying the curve (q, d); bounded limit w(0+) = b1/(2q).
    """
    c0 = c - 2.0 * d
    t = np.asarray(t, dtype=float)
    num = (b1 / q) * phi_minus_diff(c0 + d, c0 + 2.0 * d, t)
    pm = phi_minus(d * t)
    return np.exp(c0 * t) * num / (pm * pm)


def beta_in_range(w, c0t, exact):
    """(beta, w, repaired): log w of a product form, but exact(repaired) where a factor left the normal floats.

    repaired marks the cells where w or e^{c0 t} is not a finite normal
    float; there beta is exact(repaired), the 50-digit value, and w = e^beta.
    """
    tiny = np.finfo(float).tiny
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.log(w)
    repaired = ~((w >= tiny) & (w <= np.finfo(float).max)) | (c0t < np.log(tiny))
    if repaired.any():
        beta, w = beta.copy(), w.copy()
        beta[repaired] = exact(repaired)
        w[repaired] = np.exp(beta[repaired])
    return beta, w, repaired


@dataclass(frozen=True)
class SharedAlphaProfile:
    """One-pass evaluation of a shared-alpha curve pair on a time grid; repaired as in beta_in_range."""

    t: np.ndarray
    alpha: np.ndarray
    alpha_prime: np.ndarray
    exp_neg_alpha: np.ndarray
    beta: np.ndarray
    beta_prime: np.ndarray
    repaired: np.ndarray

    def occupancy_terms(self, m, n):
        """(m+n) alpha' + m n beta', and the e^{-alpha} rows of the hat and check inflows."""
        lhs = (m + n) * self.alpha_prime + m * n * self.beta_prime
        return lhs, self.exp_neg_alpha, self.exp_neg_alpha


def shared_alpha_profile(curves, t) -> SharedAlphaProfile:
    """reduced.LumpedCurves.profile of Models I and II by the separate closed forms of alpha and e^beta."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    q, d, b1, c = curves.constants
    alpha, alpha_prime, exp_alpha = alpha_values(q, d, t)
    ena = 1.0 / exp_alpha
    beta, w, repaired = beta_in_range(
        exp_beta_single(q, d, b1, c, t), (c - 2.0 * d) * t, lambda at: beta_pair_mp(q, d, q, d, b1 / 2, b1 / 2, c, t[at])
    )
    beta_prime = c - 2.0 * alpha_prime + b1 * ena / w
    return SharedAlphaProfile(t, alpha, alpha_prime, ena, beta, beta_prime, repaired)


@dataclass(frozen=True)
class TwoAlphaProfile:
    """One-pass evaluation of the class-dependent curves on a time grid; repaired as in beta_in_range."""

    t: np.ndarray
    alpha_hat: np.ndarray
    alpha_hat_prime: np.ndarray
    exp_neg_alpha_hat: np.ndarray
    alpha_check: np.ndarray
    alpha_check_prime: np.ndarray
    exp_neg_alpha_check: np.ndarray
    beta: np.ndarray
    beta_prime: np.ndarray
    repaired: np.ndarray

    def occupancy_terms(self, m, n):
        """m alpha_hat' + n alpha_check' + m n beta', and the e^{-alpha_hat}, e^{-alpha_check} rows."""
        lhs = m * self.alpha_hat_prime + n * self.alpha_check_prime + m * n * self.beta_prime
        return lhs, self.exp_neg_alpha_hat, self.exp_neg_alpha_check


def two_alpha_profile(curves, t) -> TwoAlphaProfile:
    """reduced.LumpedCurves.profile of Model III by the separate closed forms of both alphas and e^beta."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    q_hat, d_hat, q_check, d_check, drive_hat, drive_check, c = curves.constants
    a_hat, ap_hat, ea_hat = alpha_values(q_hat, d_hat, t)
    a_check, ap_check, ea_check = alpha_values(q_check, d_check, t)
    ena_hat, ena_check = 1.0 / ea_hat, 1.0 / ea_check
    constants = q_hat, d_hat, q_check, d_check, drive_check, drive_hat
    beta, w, repaired = beta_in_range(
        exp_beta_pair(*constants, c, t), (c - d_hat - d_check) * t, lambda at: beta_pair_mp(*constants, c, t[at])
    )
    drive = drive_hat * ena_hat + drive_check * ena_check
    beta_prime = c - ap_hat - ap_check + drive / w
    return TwoAlphaProfile(t, a_hat, ap_hat, ena_hat, a_check, ap_check, ena_check, beta, beta_prime, repaired)


def lumped_profile(curves, t):
    """The oracle profile of either curve type."""
    return two_alpha_profile(curves, t) if curves.kind == "III" else shared_alpha_profile(curves, t)


def residual_I(lumped, curves, t):
    """reduced.lumped_residual on Model I, an occupancy column k = 1..N."""
    if curves.sizes != (lumped.n_vertices,):
        raise ValueError("lumped rates and curves disagree on N")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t <= 0.0):
        raise ValueError("t must be positive")
    lam, n, prof = lumped.lam, lumped.n_vertices, shared_alpha_profile(curves, t)
    k = np.arange(1, n + 1, dtype=float)[:, None]
    inflow = lam[:-1, None] * (k / (n - k + 1.0)) * prof.exp_neg_alpha[None, :] * np.exp(
        -(k - 1.0) * prof.beta[None, :]
    )
    lhs = k * prof.alpha_prime[None, :] + 0.5 * k * (k - 1.0) * prof.beta_prime[None, :]
    return lhs - (lam[0] - lam[1:, None]) - inflow


def _shift_hat(table):
    """table[m-1, n] with a zero row at m = 0."""
    out = np.zeros_like(table)
    out[1:, :] = table[:-1, :]
    return out


def _shift_check(table):
    """table[m, n-1] with a zero column at n = 0."""
    out = np.zeros_like(table)
    out[:, 1:] = table[:, :-1]
    return out


def residual_bipartite(lumped, curves, t):
    """reduced.lumped_residual on Models II and III, (M+1, N+1) occupancy grids with shifted rate tables."""
    m_hat, n_check = lumped.n_hat, lumped.n_check
    if curves.sizes != (m_hat, n_check):
        raise ValueError("lumped rates and curves disagree on (M, N)")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t <= 0.0):
        raise ValueError("t must be positive")
    hat, check, prof = lumped.hat_rates, lumped.check_rates, lumped_profile(curves, t)
    r = hat[0, 0] + check[0, 0]
    m = np.arange(m_hat + 1, dtype=float)[:, None, None]
    n = np.arange(n_check + 1, dtype=float)[None, :, None]
    lhs, ena_hat, ena_check = prof.occupancy_terms(m, n)
    inflow = (m / (m_hat - m + 1.0)) * _shift_hat(hat)[:, :, None] * ena_hat * np.exp(-n * prof.beta)
    inflow += (n / (n_check - n + 1.0)) * _shift_check(check)[:, :, None] * ena_check * np.exp(-m * prof.beta)
    res = lhs - (r - hat[:, :, None] - check[:, :, None]) - inflow
    res[0, 0, :] = 0.0
    return res
