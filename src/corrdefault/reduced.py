"""Symmetry-lumped consistency systems and the multi-start feasibility search.

Three symmetric model families are covered: the complete graph with
exchangeable vertices (I), the complete bipartite graph with a common
individual propensity (II), and the complete bipartite graph with
class-dependent propensities (III).  Lumping the master equation over
symmetry orbits turns the 2^n-subset system into a small family of scalar
equations indexed by occupancy counts; the curves constructed from the
lowest-order equations are then scored against all the others.  A positive
residual floor over many search restarts is numerical evidence that no
admissible rate choice exists for the requested terminal parameters.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from ._num import _pair_profile, _shared_profile, alpha_values
from ._num import geometric_grid, inv_softplus, is_integer, popcounts, softplus
from ._pool import cpu_map, usable_cpus
from .ctmc import MonotoneGenerator


@dataclass(frozen=True)
class LumpedRatesI:
    """Orbit-averaged exit rates on the complete graph: lam[k] for 0 <= k <= N."""

    n_vertices: int
    lam: np.ndarray

    def __post_init__(self):
        if self.n_vertices < 2:
            raise ValueError("need at least two vertices")
        lam = np.array(self.lam, dtype=float)
        if lam.shape != (self.n_vertices + 1,):
            raise ValueError("need one rate per occupancy level 0..N")
        if lam[-1] != 0.0:
            raise ValueError("the full set is absorbing; lam[N] must be 0")
        if not np.all((lam[:-1] > 0.0) & (lam[:-1] < np.inf)):
            raise ValueError("lam[0..N-1] must be positive and finite")
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class LumpedRatesBi:
    """Orbit-averaged exit rates on the complete bipartite graph.

    hat_rates[m, n] is the total rate of hat-class additions from a state
    with m hat and n check defaults; check_rates likewise for the check
    class.  Boundary rows (m = M for hat, n = N for check) are zero.
    """

    n_hat: int
    n_check: int
    hat_rates: np.ndarray
    check_rates: np.ndarray

    def __post_init__(self):
        m1, n1 = self.n_hat + 1, self.n_check + 1
        hat = np.array(self.hat_rates, dtype=float)
        check = np.array(self.check_rates, dtype=float)
        if hat.shape != (m1, n1) or check.shape != (m1, n1):
            raise ValueError("rate tables must have shape (M+1, N+1)")
        if np.any(hat[-1, :] != 0.0):
            raise ValueError("hat_rates[M, :] must be zero (no hat vertices left)")
        if np.any(check[:, -1] != 0.0):
            raise ValueError("check_rates[:, N] must be zero (no check vertices left)")
        interior = np.concatenate([hat[:-1, :].ravel(), check[:, :-1].ravel()])
        if not np.all((interior > 0.0) & (interior < np.inf)):
            raise ValueError("interior lumped rates must be positive and finite")
        hat.setflags(write=False)
        check.setflags(write=False)
        object.__setattr__(self, "hat_rates", hat)
        object.__setattr__(self, "check_rates", check)

    @property
    def r(self) -> float:
        """Exit rate of the empty state."""
        return float(self.hat_rates[0, 0] + self.check_rates[0, 0])


def lump_generator(
    gen: MonotoneGenerator, symmetry: Union[str, Tuple[str, int, int]]
) -> Union[LumpedRatesI, LumpedRatesBi]:
    """Average exit rates over symmetry orbits of the subset lattice.

    symmetry is "complete" (orbits are cardinality levels) or
    ("bipartite", M, N) with hat vertices 0..M-1 and check vertices M..M+N-1
    (orbits are occupancy pairs).
    """
    n = gen.n_vertices
    if symmetry == "complete":
        pc = popcounts(n)
        lam = np.array([gen.exit_rates[pc == k].mean() for k in range(n + 1)])
        lam[-1] = 0.0
        return LumpedRatesI(n, lam)
    if isinstance(symmetry, tuple) and len(symmetry) == 3 and symmetry[0] == "bipartite":
        _, m_hat, n_check = symmetry
        if m_hat + n_check != n:
            raise ValueError(f"bipartite sizes {m_hat}+{n_check} do not match {n} vertices")
        # hat vertices are the low bits: mask = hat part + (check part << M)
        occ_hat = np.tile(popcounts(m_hat), 1 << n_check)
        occ_check = np.repeat(popcounts(n_check), 1 << m_hat)
        hat_exit = gen.rates[:, :m_hat].sum(axis=1)
        check_exit = gen.rates[:, m_hat:].sum(axis=1)
        hat = np.zeros((m_hat + 1, n_check + 1))
        check = np.zeros((m_hat + 1, n_check + 1))
        for m in range(m_hat + 1):
            for k in range(n_check + 1):
                orbit = (occ_hat == m) & (occ_check == k)
                hat[m, k] = hat_exit[orbit].mean()
                check[m, k] = check_exit[orbit].mean()
        hat[-1, :] = 0.0
        check[:, -1] = 0.0
        return LumpedRatesBi(m_hat, n_check, hat, check)
    raise ValueError(f"unknown symmetry {symmetry!r}")


def independent_lumped_I(n_vertices: int, alpha_horizon: float, horizon: float = 1.0) -> LumpedRatesI:
    """Lumped rates of the independent construction with common alpha at the horizon."""
    lam_v = float(softplus(alpha_horizon)) / horizon
    lam = lam_v * np.arange(n_vertices, -1, -1, dtype=float)
    return LumpedRatesI(n_vertices, lam)


def independent_lumped_bi(
    n_hat: int,
    n_check: int,
    alpha_hat_horizon: float,
    alpha_check_horizon: float,
    horizon: float = 1.0,
) -> LumpedRatesBi:
    """Lumped rates of the independent bipartite construction."""
    s_hat = float(softplus(alpha_hat_horizon)) / horizon
    s_check = float(softplus(alpha_check_horizon)) / horizon
    hat = s_hat * np.tile(np.arange(n_hat, -1, -1, dtype=float)[:, None], (1, n_check + 1))
    check = s_check * np.tile(np.arange(n_check, -1, -1, dtype=float)[None, :], (n_hat + 1, 1))
    return LumpedRatesBi(n_hat, n_check, hat, check)


# Evaluation path: the curve kernels of _num and _block run on one table and any
# positive times (public functions), or on B tables, one per column (the search).


class _Layout(NamedTuple):
    """Where each residual cell reads its rates in a raw table, and the coefficients it applies.

    gather: per cell, the positions of its upstream rates (one per inflow),
    then of its own rates; inflow_coef: each inflow's occupancy factor;
    exp_row: the j of each inflow's e^{-j beta}; lhs_coef: the weights of
    each alpha' row, then of beta'; neg_j: -j for every e^{-j beta} row;
    check00: the position of check_{0,0} in a bipartite table.
    """

    gather: np.ndarray
    inflow_coef: np.ndarray
    exp_row: np.ndarray
    lhs_coef: np.ndarray
    neg_j: np.ndarray
    check00: Optional[int]


def _layout_I(n, k):
    """Model I rows at the levels k (an int array) of the table lam: upstream lam_{k-1}, own lam_k."""
    lhs, neg_j = np.array([k, 0.5 * k * (k - 1.0)])[:, :, None, None], -np.arange(n, dtype=float)[:, None, None]
    return _Layout(np.array([k - 1, k]), (k / (n - k + 1.0))[None, :, None], (k - 1)[None], lhs, neg_j, None)


def _layout_bi(m, n, cells, shared):
    """Bipartite cells (i, j) of a table of hat, then check rates, row-major, then a zero.

    The zero stands in for absent upstream rates hat_{i-1,j} and
    check_{i,j-1}; shared-alpha curves weigh their one alpha' row by i + j.
    """
    p = (m + 1) * (n + 1)
    hat = np.arange(p).reshape(m + 1, n + 1)
    check, zero = p + hat, 2 * p
    i, j = np.array(cells).T
    up_hat, up_check = np.where(i > 0, hat[i - 1, j], zero), np.where(j > 0, check[i, j - 1], zero)
    return _Layout(
        np.array([up_hat, up_check, hat[i, j], check[i, j]]),
        np.array([i / (m - i + 1.0), j / (n - j + 1.0)])[:, :, None],
        np.array([j, i]),
        np.array([i + j, i * j] if shared else [i, j, i * j], dtype=float)[:, :, None, None],
        -np.arange(max(m, n) + 1, dtype=float)[:, None, None],
        p,
    )


def _block(layout, tab, ena, ap, bp, exp_nb):
    """Residuals (cells, B, T) of raw tables, one per column of tab, under their curves.

    Weighted alpha' and beta' rows, minus the drift r - (own rates), minus
    each inflow; a shared-alpha profile's one e^{-alpha} row serves both.
    """
    v = tab[layout.gather]
    terms = (layout.inflow_coef * v[: len(layout.inflow_coef)])[..., None] * ena[:, None] * exp_nb[layout.exp_row]
    lhs = layout.lhs_coef[0] * ap[0]
    if len(ap) == 2:
        lhs = lhs + layout.lhs_coef[1] * ap[1]
    if layout.check00 is None:  # Model I: r = lam_0
        own, inflow = tab[0] - v[1], terms[0]
    else:  # r = hat_{0,0} + check_{0,0}
        own, inflow = tab[0] + tab[layout.check00] - v[2] - v[3], terms[0] + terms[1]
    return lhs + layout.lhs_coef[-1] * bp - own[..., None] - inflow


def _constants_I(lam0, lam1, lam2, n):
    """(q, delta, b1, c) of the Model I curves from the first three level rates."""
    return lam0 / n, lam0 - lam1, 2.0 * lam1 / (n - 1), lam0 - lam2


# the cells whose rates the bipartite curves are built from
_CTOR_CELLS = ((0, 0), (1, 0), (0, 1), (1, 1))


def _constants_bi(kind, m, n, h00, h10, h01, h11, c00, c10, c01, c11):
    """Curve constants from the hat and check rates of _CTOR_CELLS: SharedAlphaCurves' (II) or ReducedCurvesIII's."""
    r = h00 + c00
    if kind == "II":
        return h00 / m, r - (h10 + c10), h01 / m + c10 / n, r - (h11 + c11)
    return h00 / m, r - (h10 + c10), c00 / n, r - (h01 + c01), h01 / m, c10 / n, r - (h11 + c11)


def _ctor_rates(lumped):
    """The hat, then the check rates of _CTOR_CELLS, as floats."""
    return [float(table[cell]) for table in (lumped.hat_rates, lumped.check_rates) for cell in _CTOR_CELLS]


def _raw_bi(lumped):
    """The raw table _layout_bi indexes: hat and check rates row-major, then a zero."""
    return np.concatenate([lumped.hat_rates.ravel(), lumped.check_rates.ravel(), [0.0]])


@dataclass(frozen=True)
class CurveProfile:
    """Lumped curves on a time grid: alpha and alpha' rows (one; or hat, then check), beta and beta'."""

    t: np.ndarray
    alpha: np.ndarray
    alpha_prime: np.ndarray
    beta: np.ndarray
    beta_prime: np.ndarray


class _Curves:
    """Evaluation through a curve type's kernel: _kernel(t) gives its rows, _alpha_rates() the alpha rows' q, delta."""

    def profile(self, t) -> CurveProfile:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # the kernel redoes beta in log space
            _, _, ap, bp, beta = self._kernel(t)
            # alpha_values' e^alpha has the kernel row's bits, and its log stays finite where e^alpha overflows
            alpha = alpha_values(*self._alpha_rates(), t)[0]
        return CurveProfile(t, alpha, ap[:, 0], beta[0], bp[0])

    def _alpha(self, t, row):
        prof = self.profile(t)
        return prof.alpha[row], prof.alpha_prime[row]

    def beta(self, t):
        prof = self.profile(t)
        return prof.beta, prof.beta_prime


@dataclass(frozen=True)
class SharedAlphaCurves(_Curves):
    """Curves with one alpha for every vertex: Model I (sizes (N,)) and II (sizes (M, N)).

    alpha solves alpha' = delta + q e^{-alpha} in closed form; beta is the
    bounded solution of beta' = c - 2 alpha' + b1 e^{-alpha - beta}.
    identity_violation records Model II's |hat00/M - check00/N|; admissible
    dynamics force it to zero (the (0,1) equation then pins the same alpha
    curve).
    """

    sizes: Tuple[int, ...]
    q: float
    delta: float
    b1: float
    c: float
    identity_violation: float = 0.0

    def _kernel(self, t):
        return _shared_profile(t, self.q, self.delta, self.b1, self.c)

    def _alpha_rates(self):
        return np.array([[self.q]]), np.array([[self.delta]])

    def alpha(self, t):
        return self._alpha(t, 0)


def reduced_curves_I(lam0: float, lam1: float, lam2: float, n_vertices: int) -> SharedAlphaCurves:
    """Curves forced by the k = 1, 2 lumped equations on the complete graph.

    alpha solves alpha' = (lam0 - lam1) + (lam0/N) e^{-alpha} in closed form;
    beta is the bounded solution of the k = 2 equation, whose small-t limit
    is log(lam1 N / ((N-1) lam0)).
    """
    if n_vertices < 2:
        raise ValueError("need at least two vertices")
    if min(lam0, lam1, lam2) <= 0.0:
        raise ValueError("lumped rates entering the curves must be positive")
    return SharedAlphaCurves((n_vertices,), *_constants_I(float(lam0), float(lam1), float(lam2), n_vertices))


def _positive_times(t):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t <= 0.0):
        raise ValueError("t must be positive")
    return t


def _residual_rows(layout, tab, curves, t):
    """Residual (cells, T) of every layout cell, for the raw table tab under curves."""
    with np.errstate(over="ignore", invalid="ignore"):
        _, ena, ap, bp, beta = curves._kernel(t)
    return _block(layout, tab[:, None], ena, ap, bp, np.exp(layout.neg_j * beta))[:, 0]


def residual_I(lumped: LumpedRatesI, curves: SharedAlphaCurves, t) -> np.ndarray:
    """Lumped master-equation residuals, one row per occupancy k = 1..N.

    Row k-1 holds  k alpha' + C(k,2) beta' - (lam0 - lam_k)
    - lam_{k-1} (k/(N-k+1)) e^{-alpha - (k-1) beta}  at each time.
    Rows 0 and 1 (k = 1, 2) vanish by construction.
    """
    if curves.sizes != (lumped.n_vertices,):
        raise ValueError("lumped rates and curves disagree on N")
    n = lumped.n_vertices
    return _residual_rows(_layout_I(n, np.arange(1, n + 1)), lumped.lam, curves, _positive_times(t))


@dataclass(frozen=True)
class CoeffCheckI:
    """Both closed-form rate ladders implied by constant beta, and their gap."""

    beta_star: float
    lam_linear: np.ndarray
    lam_exponential: np.ndarray

    @property
    def mismatch(self) -> np.ndarray:
        return self.lam_linear - self.lam_exponential

    @property
    def consistent(self) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.lam_linear))))
        return bool(np.max(np.abs(self.mismatch)) <= 1e-12 * scale)


def coeff_check_I(lumped: LumpedRatesI, beta_star: float) -> CoeffCheckI:
    """Pointwise comparison of the two rate ladders forced by constant beta.

    Matching polynomial coefficients in e^{-alpha(t)} forces both
    lam_k = k (lam1 - lam0) + lam0 and lam_k = ((N-k)/N) lam0 e^{k beta*};
    a linear ladder and a scaled exponential can agree at N+1 >= 5 points
    only when beta* = 0.
    """
    n = lumped.n_vertices
    k = np.arange(n + 1, dtype=float)
    lam0, lam1 = float(lumped.lam[0]), float(lumped.lam[1])
    linear = k * (lam1 - lam0) + lam0
    exponential = (n - k) / n * lam0 * np.exp(k * beta_star)
    return CoeffCheckI(float(beta_star), linear, exponential)


def reduced_curves_II(lumped: LumpedRatesBi) -> SharedAlphaCurves:
    """Curves forced by the (1,0) and (1,1) occupancy equations."""
    m, n = lumped.n_hat, lumped.n_check
    rates = _ctor_rates(lumped)
    identity_violation = abs(rates[0] / m - rates[4] / n)
    return SharedAlphaCurves((m, n), *_constants_bi("II", m, n, *rates), identity_violation)


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


def coeff_check_II(n_hat: int, n_check: int, beta_star: float) -> float:
    """Scalar inconsistency of the constant-beta bipartite rate system.

    The forced boundary entries pin check_{1,0} two ways: through the (1,1)
    equation and through the (2,0) equation.  Their normalized gap is
    exactly 2 e^{beta*} - 2, which vanishes iff beta* = 0; the two routes
    are re-derived here and checked against that closed form before it is
    returned.
    """
    m, n = int(n_hat), int(n_check)
    if m < 1 or n < 1:
        raise ValueError("class sizes must be at least 1")
    if m < 2:
        if n < 2:
            raise ValueError("need M >= 2 or N >= 2 to form the (2,0) equation")
        m, n = n, m
    scale = 1.0  # hat00 / M; the gap is scale-free
    check01 = (n - 1) * scale
    from_11 = n * (scale * (2.0 * np.exp(beta_star) - (m + n - 1) / m) + check01 / m)
    from_20 = -(m - 1) / 2.0 * scale * (2.0 - 2.0 * (m + n - 1) / (m - 1))
    gap = float((from_11 - from_20) / (n * scale))
    closed_form = float(2.0 * np.exp(beta_star) - 2.0)
    if abs(gap - closed_form) > 1e-12 * max(1.0, abs(closed_form)):
        raise ArithmeticError(
            f"rate-system gap {gap} disagrees with its closed form {closed_form}"
        )
    return closed_form


@dataclass(frozen=True)
class ReducedCurvesIII(_Curves):
    """Class-dependent bipartite curves from the (1,0), (0,1), (1,1) equations."""

    sizes: Tuple[int, int]
    q_hat: float
    delta_hat: float
    q_check: float
    delta_check: float
    drive_hat: float
    drive_check: float
    c: float

    def _kernel(self, t):
        return _pair_profile(
            t, self.q_hat, self.delta_hat, self.q_check, self.delta_check, self.drive_hat, self.drive_check, self.c
        )

    def _alpha_rates(self):
        return np.array([[self.q_hat], [self.q_check]]), np.array([[self.delta_hat], [self.delta_check]])

    def alpha_hat(self, t):
        return self._alpha(t, 0)

    def alpha_check(self, t):
        return self._alpha(t, 1)


def reduced_curves_III(lumped: LumpedRatesBi) -> ReducedCurvesIII:
    """Curves forced by the three lowest bipartite occupancy equations.

    alpha_hat and alpha_check have separate closed forms; beta is the
    bounded solution of the (1,1) equation with small-t limit
    log((hat00 check10 + check00 hat01) / (2 hat00 check00)).
    """
    m, n = lumped.n_hat, lumped.n_check
    return ReducedCurvesIII((m, n), *_constants_bi("III", m, n, *_ctor_rates(lumped)))


def residual_bipartite(
    lumped: LumpedRatesBi, curves: Union[SharedAlphaCurves, ReducedCurvesIII], t
) -> np.ndarray:
    """Occupancy-equation residuals, shape (M+1, N+1, len(t)); entry (0,0) is zero.

    Entry (m, n) holds m alpha_hat' + n alpha_check' + m n beta' - r
    + hat_mn + check_mn - (m/(M-m+1)) hat_{m-1,n} e^{-alpha_hat - n beta}
    - (n/(N-n+1)) check_{m,n-1} e^{-alpha_check - m beta}.  Under Model II's
    shared-alpha curves both alphas are alpha, and the first two terms are
    evaluated as (m+n) alpha'.
    """
    m_hat, n_check = lumped.n_hat, lumped.n_check
    if curves.sizes != (m_hat, n_check):
        raise ValueError("lumped rates and curves disagree on (M, N)")
    cells = [(m, n) for m in range(m_hat + 1) for n in range(n_check + 1)]
    layout = _layout_bi(m_hat, n_check, cells, isinstance(curves, SharedAlphaCurves))
    res = _residual_rows(layout, _raw_bi(lumped), curves, _positive_times(t))
    res[0] = 0.0
    return res.reshape(m_hat + 1, n_check + 1, -1)


residual_II = residual_III = residual_bipartite


@dataclass(frozen=True)
class CoeffCheckIII:
    """Report on the constant-beta coefficient system for Model III.

    The three per-(m,n) condition residuals score the supplied rate tables.
    The diagonal system compares the curve (B - A k) e^{k beta*} (A, B > 0
    assembled from the forced entries) with the line C k + D at
    k = 0..min(M,N); with beta* != 0 a line can meet that curve at most
    twice (beta* > 0) or three times (beta* < 0), so needing more points is
    a certificate of inconsistency.
    """

    beta_star: float
    cond_hat: np.ndarray
    cond_check: np.ndarray
    cond_drift: np.ndarray
    coeff_a: float
    coeff_b: float
    coeff_c: float
    coeff_d: float
    diagonal_mismatch: np.ndarray
    n_equations: int
    n_satisfied: int
    intersection_bound: int

    @property
    def bound_violated(self) -> bool:
        return self.n_equations > self.intersection_bound and self.n_satisfied < self.n_equations


def coeff_check_III(lumped: LumpedRatesBi, beta_star: float) -> CoeffCheckIII:
    """Evaluate the constant-beta coefficient conditions and the diagonal system.

    The per-(m,n) conditions are the coefficients (drift, e^{-alpha_hat},
    e^{-alpha_check}) that must all vanish for the occupancy equations to
    hold with beta identically beta*.  The diagonal system is assembled from
    the forced rate tables those conditions imply.
    """
    m_hat, n_chk = lumped.n_hat, lumped.n_check
    hat, check = lumped.hat_rates, lumped.check_rates
    r = lumped.r
    m = np.arange(m_hat + 1, dtype=float)[:, None]
    n = np.arange(n_chk + 1, dtype=float)[None, :]
    hat00, check00 = float(hat[0, 0]), float(check[0, 0])
    cond_hat = m * (hat00 / m_hat - _shift_hat(hat) * np.exp(-n * beta_star) / (m_hat - m + 1.0))
    cond_check = n * (
        check00 / n_chk - _shift_check(check) * np.exp(-m * beta_star) / (n_chk - n + 1.0)
    )
    cond_drift = (
        m * (r - hat[1, 0] - check[1, 0])
        + n * (r - hat[0, 1] - check[0, 1])
        + (hat + check)
        - r
    )

    # Forced tables: hat_{m,n} = ((M-m)/M) hat00 e^{n b*}, check_{m,n} = ((N-n)/N) check00 e^{m b*}
    b = float(beta_star)
    f_hat10 = (m_hat - 1) / m_hat * hat00
    f_check10 = check00 * np.exp(b)
    f_hat01 = hat00 * np.exp(b)
    f_check01 = (n_chk - 1) / n_chk * check00
    coeff_a = hat00 / m_hat + check00 / n_chk
    coeff_b = r
    coeff_c = -((r - f_hat10 - f_check10) + (r - f_hat01 - f_check01))
    coeff_d = r
    k = np.arange(min(m_hat, n_chk) + 1, dtype=float)
    mismatch = (coeff_b - coeff_a * k) * np.exp(k * b) - (coeff_d + coeff_c * k)
    tol = 1e-9 * max(1.0, abs(coeff_b), abs(coeff_d))
    n_satisfied = int(np.sum(np.abs(mismatch) <= tol))
    if b > 0.0:
        bound = 2
    elif b < 0.0:
        bound = 3
    else:
        bound = len(k)
    return CoeffCheckIII(
        beta_star=b,
        cond_hat=cond_hat,
        cond_check=cond_check,
        cond_drift=cond_drift,
        coeff_a=float(coeff_a),
        coeff_b=float(coeff_b),
        coeff_c=float(coeff_c),
        coeff_d=float(coeff_d),
        diagonal_mismatch=mismatch,
        n_equations=len(k),
        n_satisfied=n_satisfied,
        intersection_bound=bound,
    )


class SearchFailedError(RuntimeError):
    """No restart of a feasibility search produced a rate table."""


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the multi-start feasibility search."""

    restarts: int = 16
    max_iter: Optional[int] = None
    seed: int = 0
    grid_points: int = 32
    t_min_fraction: float = 1e-3
    horizon: float = 1.0

    def __post_init__(self):
        for name, least in (("restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        if self.max_iter is not None and not (is_integer(self.max_iter) and self.max_iter > 0):
            raise ValueError(f"max_iter must be a positive integer or None, got {self.max_iter!r}")
        geometric_grid(self.horizon, self.grid_points, self.t_min_fraction)  # checks the grid knobs, grid_points too


# A restart whose warm start did not solve the system re-seeds Nelder-Mead up
# to _POLISH_ROUNDS more times, while each round ends below _POLISH_GAIN times
# the value the previous round ended at.
_POLISH_ROUNDS = 5
_POLISH_GAIN = 0.5

# The objective adds _PENALTY_WEIGHT times the squared terminal mismatch to the residual max.
_PENALTY_WEIGHT = 1e4


@dataclass(frozen=True)
class RestartRecord:
    """Outcome of one restart: objective and its residual/mismatch parts.

    wall_s is its own warm start plus an equal share of each lockstep step it took part in, timed in
    the worker that ran it; the restarts of other workers run meanwhile.
    """

    index: int
    objective: float
    residual_max: float
    terminal_mismatch: float
    n_warm_evaluations: int
    n_polish_evaluations: int
    rounds: int
    wall_s: float = field(compare=False)

    @property
    def n_evaluations(self) -> int:
        """Objective-equivalent evaluations: warm start (with Jacobian columns) plus Nelder-Mead."""
        return self.n_warm_evaluations + self.n_polish_evaluations


@dataclass(frozen=True)
class SearchResult:
    """Best rates found, the residual floor, and the per-restart trace.

    residual_floor is the minimum over restarts of each restart's maximum
    lumped-equation residual over the scored occupancy indices and the time
    grid.  Terminal mismatch is reported separately (from the best-objective
    restart) so a small residual obtained by missing the terminal targets
    cannot pass as feasibility.
    """

    model: str
    sizes: Tuple[int, ...]
    targets: Dict[str, float]
    best_rates: Union[LumpedRatesI, LumpedRatesBi]
    best_index: int
    residual_floor: float
    terminal_mismatch: float
    restarts_used: int
    trace: Tuple[RestartRecord, ...]
    wall_s: float = field(compare=False)


def _parse_model(model):
    if isinstance(model, str):
        raise ValueError("model must carry sizes, e.g. ('I', 4) or ('II', 3, 3)")
    kind = model[0]
    for name, size in zip(("M", "N") if len(model) == 3 else ("N",), model[1:]):
        if not is_integer(size):
            raise ValueError(f"Model {kind} size {name} must be an integer, got {size!r}")
    if kind == "I":
        if len(model) != 2 or model[1] < 2:
            raise ValueError("Model I needs ('I', N) with N >= 2")
        if model[1] == 2:
            raise ValueError("Model I needs N >= 3: at N = 2 the pair rate lam2 is the absorbing lam[N] = 0")
        return "I", (int(model[1]),)
    if kind in ("II", "III"):
        if len(model) != 3 or model[1] < 2 or model[2] < 2:
            # the (1,0)/(0,1)/(1,1) constructor cells must not sit on the
            # absorbing boundary, which they do when a class has one vertex
            raise ValueError(f"Model {kind} needs ('{kind}', M, N) with M, N >= 2")
        return kind, (int(model[1]), int(model[2]))
    raise ValueError(f"unknown model kind {kind!r}")


def _normalize_targets(kind, targets):
    if isinstance(targets, dict):
        t = dict(targets)
    elif kind == "III":
        t = {"alpha_hat": targets[0], "alpha_check": targets[1], "beta": targets[2]}
    else:
        t = {"alpha": targets[0], "beta": targets[1]}
    if kind == "III":
        needed = {"alpha_hat", "alpha_check", "beta"}
        if set(t) != needed:
            raise ValueError(f"Model III targets need keys {sorted(needed)}")
        if t["alpha_hat"] == t["alpha_check"]:
            raise ValueError("Model III requires distinct alpha_hat and alpha_check targets")
    else:
        if set(t) != {"alpha", "beta"}:
            raise ValueError("targets need keys {'alpha', 'beta'}")
    for key, value in t.items():
        if not np.isfinite(value):
            raise ValueError(f"target {key} must be finite")
        t[key] = float(value)
    return t


class _SearchProblem:
    """Objective machinery for one model family.

    Full-space parameterization maps R^dim through softplus to positive rate
    tables.  For the bipartite models the warm start additionally exploits
    that every rate outside the small constructor set (the entries the
    curves are built from) enters the scored residuals linearly: for fixed
    constructor rates those entries are solved by weighted least squares,
    leaving a well-conditioned outer problem of 6-8 variables.  The reported
    objective is always evaluated on the full space, so floors are
    max-residuals of explicit positive rate tables.

    The index maps are built here, once; a call scores B raw tables, one per
    column, through the module's kernels.  LumpedRates* tables are built,
    and validated, only for rates that are reported.
    """

    def __init__(self, kind, sizes, targets, config):
        self.kind = kind
        self.sizes = sizes
        self.grid = geometric_grid(config.horizon, config.grid_points, config.t_min_fraction)
        names = ("alpha_hat", "alpha_check", "beta") if kind == "III" else ("alpha", "beta")
        self.targets = np.array([targets[name] for name in names])
        self.sqrt_penalty = np.sqrt(_PENALTY_WEIGHT)
        if kind == "I":
            (n,) = sizes
            self.dim = self.outer_dim = n
            self.table_size = n + 1
            self.scatter = self.outer_pos = np.arange(n)
            self.inner = np.zeros(0, dtype=int)  # no rate is solved for
            # lam2 enters the curves, and is lam[N] = 0 when N = 2; q = lam0 / N
            positive, q_at, q_div = np.arange(max(n, 3)), [0], [n]
            self.layout = _layout_I(n, np.arange(3, n + 1))  # rows k = 1, 2 hold by construction
        else:
            positive, q_at, q_div = self._init_bipartite(*sizes)
        # the rates the curves need positive, and those whose q = rate / size must not underflow to 0
        self.guard_at = np.concatenate([positive, q_at])
        self.guard_div = np.concatenate([np.ones(len(positive)), q_div])[:, None]
        self.warm_guard = ~np.isin(self.guard_at, self.inner)  # those the warm start has before its solve
        self.ls_length = self.layout.gather.shape[1] * len(self.grid) + len(self.targets)

    def _init_bipartite(self, m, n):
        kind = self.kind
        p = (m + 1) * (n + 1)
        hat = np.arange(p).reshape(m + 1, n + 1)  # table positions of hat[i, j] and check[i, j]
        check = p + hat
        self.table_size = 2 * p + 1
        cells = [(i, j) for i in range(m + 1) for j in range(n + 1)]
        ctor = _CTOR_CELLS
        skip = [(0, 0), (1, 0), (1, 1)] + ([(0, 1)] if kind == "III" else [])  # hold by construction
        scored = [cell for cell in cells if cell not in skip]
        # Model II pins check00 = (N/M) hat00 through one shared coordinate s
        hat_free = [(i, j) for i, j in cells if i < m and (kind == "III" or (i, j) != (0, 0))]
        check_free = [(i, j) for i, j in cells if j < n and (kind == "III" or (i, j) != (0, 0))]
        check_ctor = ctor if kind == "III" else skip
        hat_inner = [cell for cell in hat_free if cell not in ctor]
        check_inner = [cell for cell in check_free if cell not in check_ctor]
        self.dim = (kind == "II") + len(hat_free) + len(check_free)
        self.scatter = np.array([hat[c] for c in hat_free] + [check[c] for c in check_free])
        self.ctor = [hat[c] for c in ctor] + [check[c] for c in ctor]
        # outer coordinates: Model II s, hat10, hat01, hat11, check10, check11; Model III all of ctor
        self.outer_pos = np.array(self.ctor)[[1, 2, 3, 5, 7] if kind == "II" else slice(None)]
        self.outer_dim = (kind == "II") + len(self.outer_pos)
        self.layout = _layout_bi(m, n, scored, kind == "II")

        # _solve_inner's unknowns, and where _block reads them: (cell, unknown) of each own
        # rate, and (inflow, cell, unknown) of each upstream one
        self.inner = np.array([hat[c] for c in hat_inner] + [check[c] for c in check_inner])
        n_inflow = len(self.layout.inflow_coef)
        self.own_at = np.nonzero(self.layout.gather[n_inflow:, :, None] == self.inner)[1:]
        self.inflow_at = np.nonzero(self.layout.gather[:n_inflow, :, None] == self.inner)
        # scipy.linalg.lstsq's gelsy driver, with the workspace size it would query on every call;
        # scipy loads here, and in feasibility_search, so that model and dynamics runs never import it
        from scipy.linalg import get_lapack_funcs

        self.gelsy, gelsy_lwork = get_lapack_funcs(("gelsy", "gelsy_lwork"))
        shape = (len(scored) * len(self.grid), len(self.inner))
        self.gelsy_lwork = int(gelsy_lwork(*shape, 1, np.finfo(float).eps)[0])
        # interior rates; q_hat = hat00 / M, and Model III's q_check = check00 / N
        q_at, q_div = ([self.ctor[0], self.ctor[4]], [m, n]) if kind == "III" else ([self.ctor[0]], [m])
        return np.concatenate([hat[:-1].ravel(), check[:, :-1].ravel()]), q_at, q_div

    def _fill(self, rates, positions):
        """Raw tables, one per column of rates (or one); Model II's leading s sets hat00 = M s, check00 = N s."""
        tab = np.zeros((self.table_size,) + rates.shape[1:])
        if self.kind == "II":
            s, rates = rates[0], rates[1:]
            tab[self.ctor[0]], tab[self.ctor[4]] = self.sizes[0] * s, self.sizes[1] * s
        tab[positions] = rates
        return tab

    def _admissible(self, tab, rows=slice(None)):
        """Columns whose curve rates are positive and whose q = rate / size (0 for a subnormal rate) are not 0.

        rows selects the guarded rates, all by default.
        """
        return (tab[self.guard_at[rows]] / self.guard_div[rows]).min(0) > 0.0

    @staticmethod
    def _columns(rows):
        """Rows of raw tables as (B, 1) columns, or as floats for a batch of one."""
        return rows.ravel().tolist() if rows.shape[1] == 1 else rows[:, :, None]

    def _validated(self, tab):
        if self.kind == "I":
            return LumpedRatesI(self.sizes[0], tab)
        m, n = self.sizes
        return LumpedRatesBi(m, n, *tab[:-1].reshape(2, m + 1, n + 1))

    def unpack(self, x):
        return self._validated(self._fill(softplus(np.asarray(x, dtype=float)), self.scatter))

    def pack(self, rates) -> np.ndarray:
        """Inverse of unpack on a bipartite table, for seeding full-space polish from it."""
        tab = _raw_bi(rates)
        values = tab[self.scatter]
        if self.kind == "II":
            values = np.concatenate([[tab[self.ctor[0]] / self.sizes[0]], values])
        return np.asarray(inv_softplus(values), dtype=float)

    def _profile(self, tab):
        """Profile of raw tables, one per column, under the curves reduced_curves_X builds.

        The e^{-alpha} and alpha' rows, beta', the e^{-j beta} table, then the
        terminal deltas: the grid ends exactly at the horizon, so terminal
        values are the last profile entries.
        """
        if self.kind == "I":
            kernel, constants = _shared_profile, _constants_I(*self._columns(tab[:3]), self.sizes[0])
        else:
            kernel = _shared_profile if self.kind == "II" else _pair_profile
            constants = _constants_bi(self.kind, *self.sizes, *self._columns(tab[self.ctor]))
        ea, ena, ap, bp, beta = kernel(self.grid, *constants)
        deltas = np.concatenate([np.log(ea[:, :, -1]), beta[None, :, -1]]) - self.targets[:, None]
        return ena, ap, bp, np.exp(self.layout.neg_j * beta), deltas

    def _scores(self, tab):
        """(residual_max, terminal_mismatch) per column of tab."""
        *prof, deltas = self._profile(tab)
        res = _block(self.layout, tab, *prof)
        return np.abs(res).max(axis=(0, 2), initial=0.0), np.hypot.reduce(deltas, axis=0)  # 0 when no cell is scored

    def evaluate(self, x):
        """(residual_max, terminal_mismatch) at full-space x; both inf for no x or a rejected table."""
        if x is None:
            return np.inf, np.inf
        tab = self._fill(softplus(np.asarray(x, dtype=float)), self.scatter)[:, None]
        if not self._admissible(tab)[0]:
            return np.inf, np.inf
        return tuple(float(score[0]) for score in self._scores(tab))

    def objective(self, x):
        """Objective per row of the (B, dim) array x (a float for 1-D x); 1e12 where the curves reject the rates."""
        x = np.asarray(x, dtype=float)
        tab = self._fill(softplus(x.reshape(-1, self.dim).T), self.scatter)
        admissible = self._admissible(tab)
        if not admissible.all():  # a rejected table scores NaN, hence 1e12, and no float constant divides by q = 0
            tab[:, ~admissible] = np.nan
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            residual_max, mismatch = self._scores(tab)
            total = residual_max + _PENALTY_WEIGHT * mismatch * mismatch
        value = np.where(np.isfinite(total), total, 1e12)
        return value if x.ndim == 2 else float(value[0])

    def ls_residual(self, outer_x):
        """Smooth companion residual vector for the trust-region warm start.

        Kept residuals (t-weighted to tame their 1/t growth near the grid's
        lower edge) stacked with sqrt(penalty)-scaled terminal deltas; its
        zeros are exactly the zeros of the search objective.
        """
        tab, res, deltas = self._warm(outer_x)
        if not np.isfinite(tab).all():  # a table that assemble's LumpedRates* rejects
            return np.full(self.ls_length, 1e6)
        vec = np.concatenate([(res[:, 0] * self.grid).reshape(-1), self.sqrt_penalty * deltas[:, 0]])
        return np.where(np.isfinite(vec), vec, 1e6)

    def _warm(self, outer_x):
        """Full raw table from outer softplus coordinates (inner rates solved), its residual block and deltas.

        Outer rates the guard rejects give a table of NaN rates, and no curves:
        they would divide by a q of 0.
        """
        tab = self._fill(softplus(np.asarray(outer_x, dtype=float)), self.outer_pos)[:, None]
        if not self._admissible(tab, self.warm_guard)[0]:
            tab[self.guard_at] = np.nan
            return tab, None, None
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            *prof, deltas = self._profile(tab)
            tab = self._solve_inner(tab, prof)
            return tab, _block(self.layout, tab, *prof), deltas

    def _inner_system(self, tab, prof):
        """(A, b) of the one table tab: with its inner rates set to x, the t-weighted residual block is A x - b.

        The inner (non-constructor) rates enter the scored residuals
        linearly, with weight 1 in their own cell and their inflow factor in
        the downstream one; A reads both off the layout.
        """
        ena, _, _, exp_nb = prof
        layout, t = self.layout, self.grid
        a = np.zeros((layout.gather.shape[1], len(t), len(self.inner)))
        a[self.own_at[0], :, self.own_at[1]] = t
        k, cell, u = self.inflow_at
        coef = layout.inflow_coef[..., None] * ena[:, None] * exp_nb[layout.exp_row]  # _block's, in its order
        a[cell, :, u] = -coef[k, cell, 0] * t
        return a.reshape(-1, len(self.inner)), (-_block(layout, tab, *prof)[:, 0] * t).ravel()

    def _solve_inner(self, tab, prof):
        """Fill the inner rates of the one table tab by weighted least squares, floored at a tiny positive rate.

        Rows are weighted by t to tame the 1/t growth of the residuals near
        the grid's lower edge.
        """
        if not len(self.inner):  # Model I
            return tab
        n_inner = len(self.inner)
        a, b = self._inner_system(tab, prof)
        solution = self.gelsy(a, b, np.zeros(n_inner, np.int32), np.finfo(float).eps, self.gelsy_lwork)[1]
        tab[self.inner, 0] = np.maximum(solution[:n_inner], 1e-10)
        return tab

    def assemble(self, outer_x):
        """Full rate table from outer softplus coordinates (inner solved)."""
        return self._validated(self._warm(outer_x)[0][:, 0])


class _OutOfEvaluations(Exception):
    """Nelder-Mead has used its evaluation budget."""


def _nelder_mead(x0, maxfev, xatol, fatol, adaptive):
    """scipy 1.17's Nelder-Mead (default simplex, no bounds, maxiter = maxfev) as an ask/tell generator.

    Yields each point to evaluate and takes its value by send(); returns the
    final simplex, its values, nfev and nit of scipy.optimize.minimize bit for
    bit.  Running out of evaluations abandons the iteration in progress, a
    shrink included; maxiter never binds, as each iteration costs an evaluation.
    """
    nfev = 0

    def func(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _OutOfEvaluations
        nfev += 1
        return (yield x)

    x0 = np.asarray(x0, dtype=float).flatten()
    dim = len(x0)
    rho, chi, psi, sigma = (1, 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim) if adaptive else (1, 2, 0.5, 0.5)
    sim = np.tile(x0, (dim + 1, 1))
    sim[1 + np.arange(dim), np.arange(dim)] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    fsim = np.full(dim + 1, np.inf)
    try:
        for k in range(dim + 1):
            fsim[k] = yield from func(sim[k])
    except _OutOfEvaluations:
        pass
    iterations, sorts = 1, 2  # scipy sorts the first simplex twice, and argsort may move ties
    while True:
        for _ in range(sorts):
            ind = np.argsort(fsim)
            sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
        if not nfev < maxfev:
            break
        sorts = 1
        try:
            if np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
                break
            xbar = np.add.reduce(sim[:-1], 0) / dim
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = yield from func(xr)
            if fxr < fsim[0]:  # expansion
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = yield from func(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:  # contraction, inside when the reflection is no better than the worst vertex
                inside = not fxr < fsim[-1]
                xc = (1 - psi) * xbar + psi * sim[-1] if inside else (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = yield from func(xc)
                if (fxc < fsim[-1]) if inside else (fxc <= fxr):
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink
                    for j in range(1, dim + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = yield from func(sim[j])
            iterations += 1
        except _OutOfEvaluations:
            pass
    return sim, fsim, nfev, iterations


def _polish(x0, budget, max_rounds, adaptive):
    """Ask/tell Nelder-Mead re-seeding its simplex while the value keeps dropping; returns (x, value, nfev, rounds).

    Without a starting point it asks for none and returns (None, inf, 0, 0).
    """
    if x0 is None:
        return None, np.inf, 0, 0
    x, value, n_evals, rounds = np.asarray(x0, dtype=float), np.inf, 0, 0
    for _ in range(max_rounds):
        sim, fsim, nfev, _ = yield from _nelder_mead(x, budget, 1e-10, 1e-14, adaptive)
        x, fun = sim[0], np.min(fsim)
        n_evals += nfev
        rounds += 1
        improved_enough = fun < _POLISH_GAIN * value
        value = float(fun)
        if value < 1e-14 or not improved_enough:
            break
    return x, value, n_evals, rounds


def _lockstep(objective, polishers, wall):
    """Run ask/tell generators together and return their results: each step scores every pending point at once.

    A search runs one lockstep per worker, over the restarts dealt to it.  Each generator sees exactly the
    values it would see alone.  The list wall gains, for each generator, an equal share of every step it
    took part in: its send, and the batched call that scores its point.
    """
    results, points = [None] * len(polishers), {}
    active, values = list(range(len(polishers))), [None] * len(polishers)  # the first send starts each one
    clock = time.perf_counter()
    while active:
        for i, value in zip(active, values):
            try:
                points[i] = polishers[i].send(value)
            except StopIteration as stop:
                results[i] = stop.value
                points.pop(i, None)
        stepped, active = active, list(points)
        if active:
            values = objective(np.array([points[i] for i in active])).tolist()
        now = time.perf_counter()
        for i in stepped:
            wall[i] += (now - clock) / len(stepped)
        clock = now
    return results


def _warm_start(problem, config, full_budget, index):
    """Restart index's warm start: its Nelder-Mead polisher (not yet started) and its evaluation count."""
    from scipy.optimize import least_squares

    rng = np.random.default_rng(np.random.SeedSequence((config.seed, index)))
    x_outer = rng.normal(0.5, 1.0, problem.outer_dim)
    tol = 1e-13
    warm = least_squares(problem.ls_residual, x_outer, method="trf", xtol=tol, ftol=tol, gtol=tol, max_nfev=150)
    n_warm = int(warm.nfev) * (problem.outer_dim + 1)  # include jacobian columns
    if problem.kind == "I":
        x_full = warm.x
    else:
        try:
            x_full = problem.pack(problem.assemble(warm.x))
        except ValueError:  # a warm table with a rate of 0 or a non-finite one is reported, not polished
            x_full = None
    # a warm start that already solved the system only needs a short
    # confirmation round; otherwise Nelder-Mead does the minimax shaping
    if x_full is not None and problem.objective(x_full) < 1e-7:
        budget, max_rounds = min(600, full_budget), 1
    else:
        budget, max_rounds = full_budget, 1 + _POLISH_ROUNDS
    return _polish(x_full, budget, max_rounds, adaptive=problem.dim > 6), n_warm


def _restarts(problem, config, full_budget, indices):
    """Warm starts of the restarts indices, one after the other, then their lockstep polish.

    Returns (x, objective, n_warm, n_polish, rounds, wall_s) per restart;
    wall_s is measured in the process that runs this group.
    """
    starts, wall = [], []
    for index in indices:
        clock = time.perf_counter()
        starts.append(_warm_start(problem, config, full_budget, index))
        wall.append(time.perf_counter() - clock)
    polishers, n_warm = zip(*starts)
    finals = _lockstep(problem.objective, polishers, wall)  # (x, objective, n_polish, rounds) per restart
    return [(x, value, count, *rest, w) for (x, value, *rest), count, w in zip(finals, n_warm, wall)]


def feasibility_search(model, targets, config: SearchConfig = SearchConfig()) -> SearchResult:
    """Multi-start Nelder-Mead search for admissible lumped rates.

    Minimizes (max lumped-equation residual over the scored occupancy
    indices and the time grid) + _PENALTY_WEIGHT * (terminal mismatch)^2 over
    positive softplus-parameterized rates; boundary rates are pinned to zero
    and Model II carries the forced identity check00 = (N/M) hat00.

    The objective valley is extremely ill-conditioned (residuals grow like
    1/t toward the grid's lower edge), so each restart is warm-started with
    a deterministic trust-region least-squares solve of the smooth companion
    system (same zeros as the objective); for the bipartite models the warm
    start runs over the constructor rates only, with the linearly-entering
    remainder of the table solved by least squares.  Nelder-Mead over the
    full rate space then minimizes the stated max-norm objective, re-seeding
    its simplex at the optimum while the value keeps dropping.

    The restarts are dealt round-robin (index w::workers) to one forked
    worker per usable CPU, at most one per restart (_pool.cpu_map; none for
    one restart or one CPU).  A worker warm-starts its restarts one after
    the other, then runs their Nelder-Mead in lockstep, one batched
    objective call per step.  A restart's result depends only on (seed,
    index), not on how many restarts run beside it or on which worker runs
    it.  Reported floors are always max-residuals of explicit positive full
    rate tables, evaluated here.
    Non-convergence is reported, never raised: a restart whose warm start
    gives no valid table (a rate of 0, or a non-finite one) is recorded with
    objective, residual and mismatch inf, and SearchFailedError is raised
    only when that happens to every restart.
    """
    import scipy.optimize  # noqa: F401 -- loaded here, so that no worker imports it again

    kind, sizes = _parse_model(model)
    targets = _normalize_targets(kind, targets)
    problem = _SearchProblem(kind, sizes, targets, config)
    search_start = time.perf_counter()
    full_budget = config.max_iter if config.max_iter is not None else max(800, 80 * problem.dim)
    workers = min(usable_cpus(), config.restarts)
    groups = [range(w, config.restarts, workers) for w in range(workers)]
    finals = [None] * config.restarts
    with cpu_map(functools.partial(_restarts, problem, config, full_budget), groups) as parts:
        for w, part in enumerate(parts):
            finals[w::workers] = part
    trace = tuple(
        RestartRecord(index, value, *problem.evaluate(x), n_warm, n_polish, rounds, wall)
        for index, (x, value, n_warm, n_polish, rounds, wall) in enumerate(finals)
    )
    best_index = min(range(config.restarts), key=lambda index: trace[index].objective)  # the first, on ties
    if finals[best_index][0] is None:
        raise SearchFailedError(f"no warm start of the {config.restarts} restart(s) gave a valid rate table")
    return SearchResult(
        model=kind,
        sizes=sizes,
        targets=targets,
        best_rates=problem.unpack(finals[best_index][0]),
        best_index=best_index,
        residual_floor=float(min(record.residual_max for record in trace)),
        terminal_mismatch=trace[best_index].terminal_mismatch,
        restarts_used=config.restarts,
        trace=trace,
        wall_s=time.perf_counter() - search_start,
    )
