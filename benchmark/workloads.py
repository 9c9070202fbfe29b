"""The three workloads: inputs made from a seed, the timed operations, their checks.

A workload object holds only data drawn from its own numpy generator.  Its
inputs are written as files in the program's formats; `operations` turns
them into a list of Op, each one CLI invocation or one library call.  The
program's modules are reached through their attributes at call time, so a
traced run sees every call.  Reference results are computed lazily, after
the clock stops, and reused across passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

import checks
import reference

FULL = "full"
TOY = "toy"

SIZES = {
    FULL: dict(
        fit_n=17,
        cap_n=20,
        dyn_n=6,
        dyn_generators=4,
        forward_n=14,
        paths_n=8,
        n_paths=20_000,
        search_sizes={"I": (4,), "II": (3, 3), "III": (4, 3)},
        search_restarts=4,
        search_max_iter=None,
    ),
    TOY: dict(
        fit_n=6,
        cap_n=7,
        dyn_n=3,
        dyn_generators=1,
        forward_n=5,
        paths_n=3,
        n_paths=2_000,
        search_sizes={"I": (3,), "II": (2, 2), "III": (3, 2)},
        search_restarts=1,
        search_max_iter=200,
    ),
}

HORIZON = 1.0  # of every generator and search; the CLI's default
GRID_POINTS = 32
T_MIN_FRACTION = 1e-3
# terminal alphas of the independent construction (criterion 2's three, extended)
INDEPENDENT_ALPHA = np.array([0.3, -0.7, 1.1, -0.2, 0.6, -1.2])


@dataclass
class Op:
    """One timed operation.  `execute` returns what `check` inspects.

    A CLI operation returns its exit code; anything but 0 is a failure.
    `check(out_dir, value, earlier)` also sees what the pass's earlier checks
    returned, by operation name.
    """

    name: str
    execute: Callable[[Path], object]
    check: Callable[[Path, object, dict], object]
    is_cli: bool = True
    known_fault: Optional[str] = None  # name of a check that fails because of a FOUND fault


def _write_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle)


def _cli(argv):
    from corrdefault import cli

    return cli.main(argv)


def _members(n):
    """(2^n, n) booleans: row A, column v is True iff v is in A."""
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)


def _random_rates(rng, n):
    """(2^n, n) table with i.i.d. U(0.2, 2) rates on every allowed addition, as random_generator."""
    return np.where(_members(n), 0.0, rng.uniform(0.2, 2.0, size=(1 << n, n)))


def _generator_json(rates):
    n = rates.shape[1]
    entries = [
        {"subset_bitmask": int(m), "vertex": int(v), "rate": float(rates[m, v])}
        for m in range(1 << n)
        for v in range(n)
        if rates[m, v] != 0.0
    ]
    return {"n_vertices": n, "entries": entries}


# ---------------------------------------------------------- exact_lattice ---


class ModelTruth:
    """Generating parameters of one model file and its pmf by our own enumeration."""

    def __init__(self, n, edges, alpha, beta):
        self.n, self.edges, self.alpha, self.beta = n, edges, alpha, beta

    @cached_property
    def pmf(self):
        h = reference.hamiltonian(self.alpha, reference.pair_matrix(self.n, self.edges, self.beta))
        return reference.pmf_from_energy(h)[0]

    def to_json(self):
        return {
            "n_vertices": self.n,
            "edges": [list(e) for e in self.edges],
            "alpha": [float(a) for a in self.alpha],
            "beta": [{"edge": list(e), "value": float(b)} for e, b in zip(self.edges, self.beta)],
        }


def _random_model(rng, n, n_edges, alpha_range, beta_range):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = np.sort(rng.choice(len(pairs), size=min(n_edges, len(pairs)), replace=False))
    edges = [pairs[i] for i in chosen]
    alpha = rng.uniform(*alpha_range, size=n)
    beta = rng.uniform(*beta_range, size=len(edges))
    return ModelTruth(n, edges, alpha, beta)


class ExactLattice:
    """`model --fit` on a random sparse graph, and `model` on the complete graph at the cap."""

    name = "exact_lattice"

    def __init__(self, seed, size=FULL):
        s = SIZES[size]
        rng = np.random.default_rng(seed)
        n = s["fit_n"]
        self.fit_model = _random_model(rng, n, 2 * n, (-2.0, 0.0), (-0.5, 1.0))
        pmf = self.fit_model.pmf
        self.targets = SimpleNamespace(
            vertex=reference.vertex_marginals(pmf, n),
            pair=reference.pair_marginals(pmf, self.fit_model.edges),
        )
        n_cap = s["cap_n"]
        self.cap_model = _random_model(rng, n_cap, n_cap * n_cap, (-1.0, 0.5), (-0.15, 0.15))

    def write_inputs(self, folder: Path):
        _write_json(folder / "fit_model.json", self.fit_model.to_json())
        _write_json(
            folder / "fit_targets.json",
            {
                "vertex_targets": [float(x) for x in self.targets.vertex],
                "pair_targets": [
                    {"edge": list(e), "value": float(p)}
                    for e, p in zip(self.fit_model.edges, self.targets.pair)
                ],
            },
        )
        _write_json(
            folder / "fit_config.json",
            {
                "io": {
                    "model_file": str(folder / "fit_model.json"),
                    "targets_file": str(folder / "fit_targets.json"),
                }
            },
        )
        _write_json(folder / "cap_model.json", self.cap_model.to_json())
        _write_json(folder / "cap_config.json", {"io": {"model_file": str(folder / "cap_model.json")}})

    def operations(self, folder: Path):
        def model_check(truth, fit):
            def check(out, _value, _earlier):
                checks.check_distribution(out, truth)
                checks.check_interactions(out, truth)
                checks.check_ising(out, truth)
                if fit:
                    checks.check_fit(out, truth, self.targets)

            return check

        return [
            Op(
                "model_fit",
                lambda out: _cli(
                    ["model", "--config", str(folder / "fit_config.json"), "--out", str(out), "--fit"]
                ),
                model_check(self.fit_model, True),
            ),
            Op(
                "model_cap",
                lambda out: _cli(["model", "--config", str(folder / "cap_config.json"), "--out", str(out)]),
                model_check(self.cap_model, False),
            ),
        ]


# ---------------------------------------------------------------- dynamics ---


class ChainTruth:
    """A rate table and its law on the output grid, by uniformisation."""

    horizon = HORIZON
    grid = np.geomspace(T_MIN_FRACTION * HORIZON, HORIZON, GRID_POINTS)

    def __init__(self, rates, alpha_T=None):
        self.rates, self.alpha_T = rates, alpha_T
        self.n = rates.shape[1]
        self.exit_empty = float(rates[0].sum())

    @cached_property
    def law(self):
        return reference.uniformised_law(self.rates, self.grid)

    @cached_property
    def law_T(self):
        return reference.uniformised_law(self.rates, [self.horizon])[0]


class Dynamics:
    """`dynamics` on random and independent generators, plus forward solves and path sampling."""

    name = "dynamics"

    def __init__(self, seed, size=FULL):
        s = SIZES[size]
        rng = np.random.default_rng(seed)
        n = s["dyn_n"]
        self.chains = [ChainTruth(_random_rates(rng, n)) for _ in range(s["dyn_generators"])]
        # fixed, not drawn: at n = 6 this operation fails its membership check on
        # every run (see the FOUND line on membership_over_time in CHANGES.md)
        alpha_T = INDEPENDENT_ALPHA[:n]
        lam = np.log1p(np.exp(alpha_T)) / HORIZON
        self.independent = ChainTruth(np.where(_members(n), 0.0, lam), alpha_T=alpha_T)
        self.forward = ChainTruth(_random_rates(rng, s["forward_n"]))
        self.sampled = ChainTruth(_random_rates(rng, s["paths_n"]))
        self.n_paths = s["n_paths"]
        self.path_seed = int(rng.integers(0, 2**31))
        self._generators = None

    def write_inputs(self, folder: Path):
        for k, chain in enumerate(self.chains):
            _write_json(folder / f"gen{k}.json", _generator_json(chain.rates))
            _write_json(
                folder / f"gen{k}_config.json",
                {"io": {"generator_file": str(folder / f"gen{k}.json")}, "horizon": HORIZON},
            )
        _write_json(folder / "independent_alpha.json", {"alpha": [float(a) for a in self.independent.alpha_T]})
        _write_json(folder / "independent_config.json", {})
        # library calls take program objects; build them here, outside the passes
        from corrdefault import ctmc

        self._generators = {
            "forward": ctmc.MonotoneGenerator(self.forward.n, self.forward.rates),
            "sampled": ctmc.MonotoneGenerator(self.sampled.n, self.sampled.rates),
        }

    def operations(self, folder: Path):
        from corrdefault import ctmc

        def cli_check(truth):
            def check(out, _value, _earlier):
                checks.check_trajectory(out, truth)
                checks.check_curves(out, truth)
                checks.check_master_residual(out, truth)
                checks.check_membership(out, truth)  # last: the known fault must not hide the others

            return check

        ops = []
        for k, chain in enumerate(self.chains):
            config = str(folder / f"gen{k}_config.json")
            ops.append(
                Op(
                    f"dynamics_gen{k}",
                    lambda out, config=config: _cli(["dynamics", "--config", config, "--out", str(out)]),
                    cli_check(chain),
                )
            )
        ops.append(
            Op(
                "dynamics_independent",
                lambda out: _cli(
                    [
                        "dynamics",
                        "--config",
                        str(folder / "independent_config.json"),
                        "--out",
                        str(out),
                        "--independent",
                        str(folder / "independent_alpha.json"),
                        repr(HORIZON),
                    ]
                ),
                cli_check(self.independent),
                # the reported residual passes 1e-9 up to n = 4 (the toy size is 3)
                known_fault="membership.independent" if self.independent.n > 4 else None,
            )
        )
        gens = self._generators
        ops.append(
            Op(
                "forward_solve",
                lambda out: ctmc.forward_solve(gens["forward"], self.forward.grid),
                lambda out, value, earlier: checks.check_forward_solution(value, self.forward),
                is_cli=False,
            )
        )
        ops.append(
            Op(
                "sample_paths",
                lambda out: ctmc.sample_paths(gens["sampled"], HORIZON, self.n_paths, self.path_seed),
                lambda out, value, earlier: checks.check_sampled_paths(value, self.sampled, self.n_paths),
                is_cli=False,
            )
        )
        return ops


# ------------------------------------------------------------------ search ---


@dataclass
class SearchCase:
    model: str
    sizes: tuple
    targets: dict

    @property
    def key(self):
        return f"search_{self.model}_{'zero' if self.targets['beta'] == 0.0 else 'beta'}"

    def independent_rates(self):
        if self.model == "I":
            return [reference.independent_lumped_I(self.sizes[0], self.targets["alpha"], HORIZON)]
        if self.model == "II":
            a_hat = a_check = self.targets["alpha"]
        else:
            a_hat, a_check = self.targets["alpha_hat"], self.targets["alpha_check"]
        return list(reference.independent_lumped_bi(*self.sizes, a_hat, a_check, HORIZON))


# beta != 0 targets of the acceptance suite's Model I, II and III criteria
_TARGETS = {
    "I": ({"alpha": 0.3, "beta": 0.0}, {"alpha": 0.3, "beta": 0.5}),
    "II": ({"alpha": 0.3, "beta": 0.0}, {"alpha": 0.3, "beta": 0.25}),
    "III": (
        {"alpha_hat": 0.5, "alpha_check": -0.5, "beta": 0.0},
        {"alpha_hat": 0.5, "alpha_check": -0.5, "beta": 0.1},
    ),
}


class Search:
    """`search` for Models I, II and III, each at beta = 0 and at a beta != 0 target."""

    name = "search"

    def __init__(self, seed, size=FULL):
        s = SIZES[size]
        rng = np.random.default_rng(seed)
        self.cases = [
            SearchCase(model, s["search_sizes"][model], dict(targets))
            for model in ("I", "II", "III")
            for targets in _TARGETS[model]
        ]
        self.restarts = s["search_restarts"]
        self.max_iter = s["search_max_iter"]
        # A beta = 0 restart either ends after its warm start or, when the warm
        # start misses, runs a full Nelder-Mead budget (3 s more for Model III),
        # so drawn restart seeds would move a pass's work by up to 15%.  Those
        # cases keep the acceptance suite's seed 0; beta != 0 restarts all run
        # the full polish and take their seeds from the run's seed.
        self.search_seeds = [
            0 if case.targets["beta"] == 0.0 else int(rng.integers(0, 2**31)) for case in self.cases
        ]

    def write_inputs(self, folder: Path):
        for case, seed in zip(self.cases, self.search_seeds):
            config = {"model": case.model, "targets": case.targets, "horizon": HORIZON}
            if case.model == "I":
                config["N"] = case.sizes[0]
            else:
                config["M"], config["N"] = case.sizes
            config["search"] = {"restarts": self.restarts, "seed": seed, "max_iter": self.max_iter}
            _write_json(folder / f"{case.key}.json", config)

    def operations(self, folder: Path):
        def check(case):
            def run_check(out, _value, earlier):
                zero = None
                if case.targets["beta"] != 0.0:
                    zero = earlier.get(f"search_{case.model}_zero")
                    if not isinstance(zero, float):
                        raise checks.CheckFailed("search.positive_floor", "no beta = 0 floor")
                return checks.check_search(out, case, zero)

            return run_check

        return [
            Op(
                case.key,
                lambda out, case=case: _cli(
                    ["search", "--config", str(folder / f"{case.key}.json"), "--out", str(out)]
                ),
                check(case),
            )
            for case in self.cases
        ]


WORKLOADS = {cls.name: cls for cls in (ExactLattice, Dynamics, Search)}
