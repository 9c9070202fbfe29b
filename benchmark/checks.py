"""Output checks, run after the clock stops.

Each check compares one output of the program with a computation from
reference.py, or with a property the paper's construction guarantees.  A
failing check raises CheckFailed carrying the check's name, so the self-test
can show that every named check rejects a corrupted output.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference

# Tolerances, stated once.  Measured margins are in README.md.
PMF_RTOL = 1e-9  # relative, per cell, exact distributions and spin form
SUM_TOL = 1e-11  # |sum p - 1| of a 2^n-row distribution file
INTERACTION_TOL = 1e-9  # Mobius coordinates against alpha, beta and zero
FIT_TOL = 1e-8  # fit_moments' own stopping tolerance on the moments
FIT_SLACK = 1e-12  # rounding between the program's moments and ours
PARAM_TOL = 1e-5  # recovered parameters against the generating ones
LAW_ATOL = 1e-9  # forward law against the uniformised series
CURVE_ALPHA_TOL = 1e-8  # alpha curves against log(p_u / p_empty)
INDEPENDENT_ALPHA_TOL = 1e-12  # closed-form independent curves
RESIDUAL_TOL = 1e-6  # master residuals that must vanish, relative to 1 + |alpha'|
MEMBERSHIP_TOL = 1e-9  # independent generator's membership residual
ZERO_FLOOR = 1e-6  # beta = 0 search floors
RATE_TOL = 1e-4  # beta = 0 best rates against the independent construction
# Model III's beta = 0 best rates miss the independent construction by more
# than RATE_TOL on some seeds (FOUND line in CHANGES.md), so only I and II
# have their rates checked
RATES_CHECKED = ("I", "II")
FLOOR_RATIO = 1e3  # beta != 0 floor over the same model's beta = 0 floor
COEFF_TOL = 1e-12  # Model II's scalar inconsistency against 2 e^beta - 2
PATH_FALSE_ALARM = 1e-6  # chance the sampled-law bound rejects a correct sampler
PATH_MEAN_Z = 6.0  # standard errors allowed on the mean number of defaults (two-sided 2e-9)


class CheckFailed(AssertionError):
    def __init__(self, check, message):
        super().__init__(f"{check}: {message}")
        self.check = check


def require(condition, check, message):
    if not condition:
        raise CheckFailed(check, message)


def _header_length(path):
    """Number of '#' lines plus the column-name line at the top of a CSV."""
    count = 0
    with open(path) as handle:
        for line in handle:
            count += 1
            if not line.startswith("#"):
                return count
    raise CheckFailed("file.format", f"{path} has no column header")


def numeric_csv(path, columns):
    """Numeric CSV body as a 2-D array, after checking its column names."""
    skip = _header_length(path)
    with open(path) as handle:
        header = [line for _, line in zip(range(skip), handle)][-1].strip().split(",")
    require(header == list(columns), "file.format", f"{Path(path).name} columns {header}")
    return np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)


def text_csv(path, columns):
    skip = _header_length(path)
    with open(path) as handle:
        lines = handle.read().splitlines()
    header = lines[skip - 1].split(",")
    require(header == list(columns), "file.format", f"{Path(path).name} columns {header}")
    return [line.split(",") for line in lines[skip:]]


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def max_rel_gap(values, reference_values):
    return float(np.max(np.abs(values - reference_values) / reference_values))


# ----------------------------------------------------------------- model ---


def check_distribution(out, truth):
    table = numeric_csv(out / "distribution.csv", ("subset_bitmask", "probability"))
    require(
        np.array_equal(table[:, 0], np.arange(len(truth.pmf))),
        "distribution.pmf",
        "rows are not the subsets 0..2^n-1 in order",
    )
    probs = table[:, 1]
    require(abs(probs.sum() - 1.0) <= SUM_TOL, "distribution.sum", f"sums to {probs.sum()!r}")
    gap = max_rel_gap(probs, truth.pmf)
    require(gap <= PMF_RTOL, "distribution.pmf", f"relative gap {gap:.3e} to exp(H)/Z")


def check_interactions(out, truth):
    table = numeric_csv(out / "interactions.csv", ("subset_bitmask", "coefficient"))
    size = len(truth.pmf)
    require(
        np.array_equal(table[:, 0], np.arange(1, size)),
        "interactions.values",
        "rows are not the nonempty subsets in order",
    )
    coeffs = np.concatenate([[0.0], table[:, 1]])
    expected = np.zeros(size)
    for u, a in enumerate(truth.alpha):
        expected[1 << u] = a
    for (u, v), b in zip(truth.edges, truth.beta):
        expected[(1 << u) | (1 << v)] = b
    gap = float(np.max(np.abs(coeffs - expected)))
    require(
        gap <= INTERACTION_TOL,
        "interactions.values",
        f"max gap {gap:.3e} to alpha on singletons, beta on edges, 0 elsewhere",
    )


def check_ising(out, truth):
    doc = read_json(out / "ising.json")
    n = truth.n
    require(
        [tuple(e) for e in doc["edges"]] == [tuple(e) for e in truth.edges],
        "ising.pmf",
        "edge list differs from the model's",
    )
    delta = reference.pair_matrix(
        n, [tuple(d["edge"]) for d in doc["delta"]], [d["value"] for d in doc["delta"]]
    )
    energy = reference.spin_energy(np.asarray(doc["gamma"], dtype=float), delta)
    pmf = np.exp(energy - doc["log_norm"])
    gap = max_rel_gap(pmf, truth.pmf)
    require(gap <= PMF_RTOL, "ising.pmf", f"relative gap {gap:.3e} to the subset-form pmf")


def check_fit(out, truth, targets):
    doc = read_json(out / "fitted_model.json")
    edges = [tuple(e) for e in doc["edges"]]
    require(edges == [tuple(e) for e in truth.edges], "fit.parameters", "fitted graph differs")
    alpha = np.asarray(doc["alpha"], dtype=float)
    beta_by_edge = {tuple(b["edge"]): b["value"] for b in doc["beta"]}
    beta = np.array([beta_by_edge[e] for e in edges])
    gap = max(np.max(np.abs(alpha - truth.alpha)), np.max(np.abs(beta - truth.beta), initial=0.0))
    require(gap <= PARAM_TOL, "fit.parameters", f"recovered parameters off by {gap:.3e}")

    pmf, _ = reference.pmf_from_energy(
        reference.hamiltonian(alpha, reference.pair_matrix(truth.n, edges, beta))
    )
    vertex = reference.vertex_marginals(pmf, truth.n)
    pair = reference.pair_marginals(pmf, edges)
    miss = max(
        np.max(np.abs(vertex - targets.vertex)), np.max(np.abs(pair - targets.pair), initial=0.0)
    )
    require(miss <= FIT_TOL + FIT_SLACK, "fit.targets", f"fitted moments miss targets by {miss:.3e}")

    rows = text_csv(out / "fitted_moments.csv", ("vertex_or_edge", "value"))
    names = [f"v{u}" for u in range(truth.n)] + [f"e{u}-{v}" for u, v in edges]
    require([r[0] for r in rows] == names, "fit.moments_file", "row names differ")
    reported = np.array([float(r[1]) for r in rows])
    gap = float(np.max(np.abs(reported - np.concatenate([vertex, pair]))))
    require(gap <= FIT_SLACK, "fit.moments_file", f"reported moments off by {gap:.3e}")


# -------------------------------------------------------------- dynamics ---


def check_trajectory(out, truth):
    table = numeric_csv(out / "trajectory.csv", ("t", "subset_bitmask", "probability"))
    size = truth.law.shape[1]
    times = table[::size, 0]
    require(
        len(table) == len(truth.grid) * size and np.allclose(times, truth.grid, rtol=1e-14, atol=0),
        "trajectory.law",
        "rows are not the 32-point grid times every subset",
    )
    law = table[:, 2].reshape(len(truth.grid), size)
    # the empty cell first: the law check below covers it too
    empty = np.exp(-truth.exit_empty * truth.grid)
    gap = float(np.max(np.abs(law[:, 0] - empty)))
    require(gap <= LAW_ATOL, "trajectory.empty_cell", f"empty cell off exp(-R t) by {gap:.3e}")
    gap = float(np.max(np.abs(law - truth.law)))
    require(gap <= LAW_ATOL, "trajectory.law", f"max gap {gap:.3e} to the uniformised law")


def check_curves(out, truth):
    rows = text_csv(out / "curves.csv", ("t", "vertex_or_edge", "alpha_or_beta", "value", "derivative"))
    n = truth.n
    per_t = n + n * (n - 1) // 2
    require(len(rows) == per_t * len(truth.grid), "curves.alpha", f"{len(rows)} rows")
    values = np.array([float(r[3]) for r in rows]).reshape(len(truth.grid), per_t)
    # beta rows are not compared with the exact law: the pair-curve ODE misses it
    # by up to 1e-4 near the grid's lower edge on some seeds (FOUND line in CHANGES.md)
    gap = float(np.max(np.abs(values[:, :n] - reference.low_order_alpha(truth.law, n))))
    require(gap <= CURVE_ALPHA_TOL, "curves.alpha", f"alpha off log(p_u/p_0) by {gap:.3e}")
    if truth.alpha_T is not None:
        lam = np.log1p(np.exp(truth.alpha_T))
        formula = np.log(np.expm1(np.outer(truth.grid / truth.horizon, lam)))
        gap = float(np.max(np.abs(values[:, :n] - formula)))
        require(
            gap <= INDEPENDENT_ALPHA_TOL,
            "curves.independent",
            f"alpha off log(expm1((t/T) log(1+e^a))) by {gap:.3e}",
        )


def check_master_residual(out, truth):
    table = numeric_csv(out / "master_residual.csv", ("t", "subset_bitmask", "residual"))
    size = 1 << truth.n
    require(len(table) == size * len(truth.grid), "master_residual.low_order", "row count")
    res = table[:, 2].reshape(len(truth.grid), size)
    sizes = reference.subset_sizes(truth.n)
    # alpha' ~ 1/t sets the scale of every term in the equation
    scale = 1.0 + 1.0 / truth.grid[:, None]
    low = np.abs(res[:, (sizes == 1) | (sizes == 2)]) / scale
    require(
        float(low.max()) <= RESIDUAL_TOL,
        "master_residual.low_order",
        f"size-1/2 residual {float(low.max()):.3e}",
    )
    if truth.alpha_T is not None:
        worst = float(np.max(np.abs(res) / scale))
        require(worst <= RESIDUAL_TOL, "master_residual.independent", f"residual {worst:.3e}")


def check_membership(out, truth):
    rows = numeric_csv(out / "membership.csv", ("t", "residual"))
    require(len(rows) == len(truth.grid), "membership.independent", "row count")
    if truth.alpha_T is not None:
        worst = float(np.max(np.abs(rows[:, 1])))
        require(worst <= MEMBERSHIP_TOL, "membership.independent", f"residual {worst:.3e}")


def check_forward_solution(solution, truth):
    empty = np.exp(-truth.exit_empty * truth.grid)
    gap = float(np.max(np.abs(solution.probs[:, 0] - empty)))
    require(gap <= LAW_ATOL, "forward_solve.empty_cell", f"empty cell off exp(-R t) by {gap:.3e}")
    gap = float(np.max(np.abs(solution.probs - truth.law)))
    require(gap <= LAW_ATOL, "forward_solve.law", f"max gap {gap:.3e} to the uniformised law")


def check_sampled_paths(result, truth, n_paths):
    paths, empirical = result
    require(len(paths) == n_paths, "sample_paths.paths", f"{len(paths)} paths")
    counts = np.zeros(len(truth.law_T))
    for path in paths:
        counts[path.terminal] += 1
        require(
            not path.times or path.times[-1] < truth.horizon, "sample_paths.paths", "jump after horizon"
        )
    require(
        np.array_equal(counts / n_paths, empirical.probs),
        "sample_paths.paths",
        "empirical law is not the histogram of terminal subsets",
    )
    # the mean number of defaults at the horizon, against its exact mean and spread
    sizes = reference.subset_sizes(truth.n)
    mean = float(sizes @ truth.law_T)
    sd = math.sqrt(float((sizes - mean) ** 2 @ truth.law_T))
    gap = abs(float(sizes @ empirical.probs) - mean)
    require(
        gap <= PATH_MEAN_Z * sd / math.sqrt(n_paths),
        "sample_paths.mean_size",
        f"mean number of defaults off by {gap / (sd / math.sqrt(n_paths)):.1f} standard errors",
    )
    width = reference.bernstein_halfwidth(truth.law_T, n_paths, len(counts), PATH_FALSE_ALARM)
    excess = float(np.max(np.abs(empirical.probs - truth.law_T) - width))
    require(excess <= 0.0, "sample_paths.law", f"a cell exceeds its Bernstein bound by {excess:.3e}")


# ---------------------------------------------------------------- search ---


def check_search(out, case, zero_floor):
    """zero_floor: this model's beta = 0 floor from the same pass (None for beta = 0 itself)."""
    result, coeff = read_json(out / "result.json"), read_json(out / "coeff_check.json")
    require(result["targets"] == case.targets, "search.targets", f"targets {result['targets']}")
    floor = result["residual_floor"]
    beta = case.targets["beta"]
    if beta == 0.0:
        require(floor < ZERO_FLOOR, "search.zero_floor", f"floor {floor:.3e}")
    if beta == 0.0 and case.model in RATES_CHECKED:
        expected = case.independent_rates()
        rates = result["best_rates"]
        if case.model == "I":
            got = [np.asarray(rates["lam"])]
        else:
            got = [np.asarray(rates["hat_rates"]), np.asarray(rates["check_rates"])]
        gap = max(float(np.max(np.abs(g - e))) for g, e in zip(got, expected))
        require(gap <= RATE_TOL, "search.independent_rates", f"best rates off by {gap:.3e}")
    if beta != 0.0:
        require(
            floor > 0.0 and floor >= FLOOR_RATIO * max(zero_floor, 1e-15),
            "search.positive_floor",
            f"floor {floor:.3e} against the beta = 0 floor {zero_floor:.3e}",
        )
    if case.model == "II":
        gap = abs(coeff["inconsistency"] - (2.0 * math.exp(beta) - 2.0))
        require(gap <= COEFF_TOL, "search.coeff_II", f"inconsistency off 2e^b-2 by {gap:.3e}")
    if case.model == "III":
        require(
            coeff["bound_violated"] == (beta != 0.0),
            "search.bound_violated",
            f"bound_violated={coeff['bound_violated']} at beta={beta}",
        )
    return floor
