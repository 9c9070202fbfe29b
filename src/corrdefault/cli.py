"""Batch experiment runner.

Three subcommands, each driven by a single JSON config for reproducibility:

  model     exact distribution, spin-form parameters, extracted interactions,
            and optional moment fitting (--fit) for a model file
  dynamics  forward-equation trajectory, candidate parameter curves,
            family-membership report, and master-equation residuals for a
            generator (or the built-in independent construction)
  search    lumped-rate feasibility search and coefficient-system checks for
            the symmetric model families

Exit codes: 0 success, 2 config error, 3 infeasible input, 4 numeric failure,
5 I/O error or a worker process that died (a lattice writer's or a search's).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import io as cdio
from ._num import geometric_grid
from .consistency import curves_from_rates, master_residual, membership_over_time
from .ctmc import forward_solve, independent_generator
from .model import (
    InfeasibleTargetsError,
    FitConvergenceError,
    ZeroProbabilityError,
    extract_interactions,
    fit_moments,
    full_distribution,
    moments,
    to_ising,
)
from .reduced import (
    SearchConfig,
    SearchFailedError,
    _normalize_targets,
    _parse_model,
    coeff_check_I,
    coeff_check_II,
    coeff_check_III,
    feasibility_search,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERIC = 4
EXIT_IO = 5


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


# The keys each config block may hold; one schema for every subcommand.
_KEYS = {
    "config": {"io", "horizon", "independent", "model", "N", "M", "targets", "search"},
    "io": {"model_file", "generator_file", "targets_file"},
    "independent": {"alpha"},
    "search": {"restarts", "max_iter", "seed"},
}


def _load_config(path) -> dict:
    try:
        config = cdio.read_json(path)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cdio.check_keys(config, _KEYS["config"], "config")
    for name in sorted(_KEYS.keys() & config.keys()):
        cdio.check_keys(config[name], _KEYS[name], name)
    return config


def _horizon(config) -> float:
    """The configured horizon; a bad one raises ValueError, which exits 2 before any output directory is made."""
    horizon = cdio.float_field(config.get("horizon", 1.0), "horizon")
    geometric_grid(horizon)
    return horizon


def _out_path(args) -> Path:
    if not args.out:  # None, or an empty --out ""
        raise ConfigError("no output directory (pass --out)")
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


@contextmanager
def _staged(out: Path):
    """A temporary directory beside out; its files move into out only if the block succeeds."""
    with tempfile.TemporaryDirectory(prefix=f".{out.name}.", dir=out.parent) as stage:
        yield Path(stage)
        for path in sorted(Path(stage).iterdir()):
            os.replace(path, out / path.name)


def cmd_model(config, args) -> int:
    io_block = config.get("io", {})
    model_file, targets_file = io_block.get("model_file"), io_block.get("targets_file")
    if model_file is None:
        raise ConfigError("model command needs io.model_file")
    params = cdio.read_model_json(model_file)
    if args.fit:
        if targets_file is None:
            raise ConfigError("--fit needs io.targets_file")
        targets = cdio.read_json(targets_file)
        cdio.check_keys(targets, {"vertex_targets", "pair_targets"}, "targets file")
        vertex_targets = np.array(cdio.float_fields(targets["vertex_targets"], "vertex_targets"))
        pair_targets = cdio.edge_values(targets.get("pair_targets", []), params.graph, "pair target")
    with _staged(_out_path(args)) as out:
        dist = full_distribution(params)
        cdio.write_distribution_csv(out / "distribution.csv", dist, config)
        cdio.write_json(out / "ising.json", cdio.ising_to_dict(to_ising(params)), config)
        cdio.write_interactions_csv(out / "interactions.csv", extract_interactions(dist), config)
        if args.fit:
            fitted = fit_moments(params.graph, vertex_targets, pair_targets)
            cdio.write_model_json(out / "fitted_model.json", fitted, config)
            v_fit, p_fit = moments(fitted)
            rows = [(f"v{u}", float(x)) for u, x in enumerate(v_fit)]
            rows += [(f"e{u}-{v}", float(x)) for (u, v), x in zip(fitted.graph.edges, p_fit)]
            cdio.write_csv(out / "fitted_moments.csv", ("vertex_or_edge", "value"), rows, config)
    return EXIT_OK


def _dynamics_generator(config, horizon):
    if "independent" in config:
        return independent_generator(np.array(cdio.float_fields(config["independent"]["alpha"], "alpha")), horizon)
    generator_file = config.get("io", {}).get("generator_file")
    if generator_file is None:
        raise ConfigError("dynamics needs io.generator_file, an independent block, or --independent")
    return cdio.read_generator_json(generator_file)


def cmd_dynamics(config, args) -> int:
    if args.independent is not None:
        alpha_file, horizon_text = args.independent
        try:
            horizon = float(horizon_text)
        except ValueError:
            raise ConfigError(f"--independent HORIZON must be a number, got {horizon_text!r}") from None
        alpha = cdio.read_json(alpha_file)
        if isinstance(alpha, dict):
            cdio.check_keys(alpha, {"alpha"}, "alpha file")
            alpha = alpha["alpha"]
        # every writer hashes the config actually run
        config = {**config, "independent": {"alpha": cdio.float_fields(alpha, "alpha")}, "horizon": horizon}
    horizon = _horizon(config)
    gen = _dynamics_generator(config, horizon)
    with _staged(_out_path(args)) as out:
        grid = geometric_grid(horizon)
        solution = forward_solve(gen, grid)
        cdio.write_trajectory_csv(out / "trajectory.csv", solution, config)
        curves = curves_from_rates(gen, horizon=horizon)
        cdio.write_curves_csv(out / "curves.csv", curves, grid, config)
        _, per_t = membership_over_time(gen, grid, solution=solution)
        cdio.write_membership_csv(out / "membership.csv", grid, per_t, config)
        residuals = master_residual(gen, curves, grid)
        cdio.write_master_residual_csv(out / "master_residual.csv", grid, residuals, config)
    return EXIT_OK


def _search_inputs(config):
    kind = config.get("model")
    if kind not in ("I", "II", "III"):
        raise ConfigError(f"unknown search model {kind!r}")
    if kind == "I" and "M" in config:
        raise ConfigError("Model I has no size M; its one size is N")
    model = (kind, config["N"]) if kind == "I" else (kind, config["M"], config["N"])
    _parse_model(model)  # a bad size or target exits 2 before any output directory is made
    targets = config.get("targets")
    if not isinstance(targets, dict):
        raise ConfigError("search needs a targets object")
    return model, _normalize_targets(kind, targets)


def cmd_search(config, args) -> int:
    model, targets = _search_inputs(config)
    horizon = _horizon(config)
    search_block = dict(config.get("search", {}))
    if args.seed is not None:
        search_block["seed"] = args.seed
        config = {**config, "search": search_block}  # every writer hashes the config actually run
    search_config = SearchConfig(horizon=horizon, **search_block)
    out = _out_path(args)
    result = feasibility_search(model, targets, search_config)  # a ValueError is a config error
    beta_star = targets["beta"]
    if model[0] == "I":
        report = coeff_check_I(result.best_rates, beta_star)
        payload = {
            "model": "I",
            "beta_star": beta_star,
            "lam_linear": [float(x) for x in report.lam_linear],
            "lam_exponential": [float(x) for x in report.lam_exponential],
            "mismatch": [float(x) for x in report.mismatch],
            "consistent": report.consistent,
        }
    elif model[0] == "II":
        value = coeff_check_II(model[1], model[2], beta_star)
        payload = {"model": "II", "beta_star": beta_star, "inconsistency": float(value)}
    else:
        report = coeff_check_III(result.best_rates, beta_star)
        payload = {
            "model": "III",
            "beta_star": beta_star,
            "coefficients": {
                "A": report.coeff_a,
                "B": report.coeff_b,
                "C": report.coeff_c,
                "D": report.coeff_d,
            },
            "diagonal_mismatch": [float(x) for x in report.diagonal_mismatch],
            "n_equations": report.n_equations,
            "n_satisfied": report.n_satisfied,
            "intersection_bound": report.intersection_bound,
            "bound_violated": report.bound_violated,
        }
    with _staged(out) as stage:
        cdio.write_search_json(stage / "result.json", result, config)
        cdio.write_restarts_csv(stage / "restarts.csv", result, config)
        cdio.write_json(stage / "coeff_check.json", payload, config)
    return EXIT_OK


@functools.cache  # built once per process; parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrdefault",
        description="Correlated-default models on subset lattices: exact inference, "
        "monotone Markov dynamics, and admissibility diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("model", "evaluate, convert, and optionally fit a default model"),
        ("dynamics", "forward-solve a monotone chain and score its admissibility"),
        ("search", "feasibility search over lumped rates for the symmetric models"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON run configuration")
        cmd.add_argument("--out", default=None, help="output directory")
        if name == "search":
            cmd.add_argument("--seed", type=int, default=None, help="override the configured search seed")
        if name == "model":
            cmd.add_argument("--fit", action="store_true", help="fit moments from io.targets_file")
        if name == "dynamics":
            cmd.add_argument(
                "--independent",
                nargs=2,
                metavar=("ALPHA_FILE", "HORIZON"),
                default=None,
                help="use the independent construction for these terminal alphas",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"model": cmd_model, "dynamics": cmd_dynamics, "search": cmd_search}
    try:
        config = _load_config(args.config)
        return handlers[args.command](config, args)
    except InfeasibleTargetsError as exc:
        print(f"infeasible input: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (FitConvergenceError, SearchFailedError, ZeroProbabilityError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (KeyError, TypeError, ValueError, FileNotFoundError, FileExistsError, NotADirectoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # a full disk, a path that is a directory
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BrokenProcessPool as exc:  # a lattice writer's or a search's worker process was lost
        print(f"worker process died: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
