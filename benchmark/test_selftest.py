"""Self-test of the benchmark: every check passes on the program's toy-size
outputs and rejects a deliberately corrupted copy of them.

    python3 -m pytest -q benchmark/test_selftest.py

Each workload runs once at toy size (a few seconds in all).  Every
corruption names the check that must reject it, so a check that has gone
dead, or that is shadowed by an earlier one, fails this test.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import TOY, WORKLOADS  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def toy_passes(tmp_path_factory):
    """name -> (pass directory, outcomes, workload) of one toy pass per workload."""
    passes = {}
    for name, cls in WORKLOADS.items():
        root = tmp_path_factory.mktemp(name)
        workload = cls(SEED, TOY)
        (root / "inputs").mkdir()
        workload.write_inputs(root / "inputs")
        _, outcomes = run.run_pass(workload.operations(root / "inputs"), root / "pass")
        passes[name] = (root / "pass", outcomes, workload)
    return passes


def check_pass(out_root, outcomes, replace=None):
    """Run every check of a pass; `replace` maps an op name to (out dir, value)."""
    earlier = {}
    for op, value, error in outcomes:
        assert error is None, error
        assert not op.is_cli or value == 0, f"{op.name} exited {value}"
        out = out_root / op.name
        if replace and op.name in replace:
            out, value = replace[op.name]
        earlier[op.name] = op.check(out, value, earlier)


def edit_column(path, column, change):
    """Rewrite one numeric CSV column through change(values) -> values."""
    skip = checks._header_length(path)
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[skip:]]
    values = change(np.array([float(r[column]) for r in rows]))
    for row, value in zip(rows, values):
        row[column] = repr(float(value))
    path.write_text("\n".join(lines[:skip] + [",".join(r) for r in rows]) + "\n")


def edit_json(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def bump(index, amount):
    def change(values):
        values = values.copy()
        values[index] += amount
        return values

    return change


def swap_first_two(values):
    values = values.copy()
    values[[0, 1]] = values[[1, 0]]
    return values


def resample_faster(value, workload):
    from corrdefault import ctmc

    chain = workload.sampled
    gen = ctmc.MonotoneGenerator(chain.n, 2.0 * chain.rates)
    return ctmc.sample_paths(gen, chain.horizon, workload.n_paths, workload.path_seed)


def relabel_paths(value, workload):
    """Paths with vertex v renamed to n-1-v: sizes keep their law, subsets do not."""
    from corrdefault.ctmc import PathSample
    from corrdefault.model import SubsetDist

    n = workload.sampled.n
    paths = []
    counts = np.zeros(1 << n)
    for path in value[0]:
        vertices = tuple(n - 1 - v for v in path.vertices)
        terminal = sum(1 << v for v in vertices)
        paths.append(PathSample(path.times, vertices, terminal))
        counts[terminal] += 1
    return paths, SubsetDist(n, counts / len(paths))


def _set(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


def _scale_fitted_alpha(amount):
    def change(doc):
        doc["alpha"][0] += amount

    return change


# (workload, op, check that must fire, file to corrupt or None, corruption): a CSV
# corruption is (column, change) or a text edit, a JSON one edits the document,
# and one without a file maps the library call's value to a corrupted value
CORRUPTIONS = [
    ("exact_lattice", "model_cap", "distribution.sum", "distribution.csv", (1, lambda v: v * (1 + 1e-8))),
    ("exact_lattice", "model_cap", "distribution.pmf", "distribution.csv", (1, swap_first_two)),
    ("exact_lattice", "model_cap", "interactions.values", "interactions.csv", (1, bump(6, 1e-6))),
    ("exact_lattice", "model_fit", "interactions.values", "interactions.csv", (1, bump(0, 1e-6))),
    ("exact_lattice", "model_cap", "ising.pmf", "ising.json", lambda d: _set(d, ["gamma", 0], d["gamma"][0] + 1e-6)),
    ("exact_lattice", "model_fit", "fit.parameters", "fitted_model.json", _scale_fitted_alpha(1e-3)),
    ("exact_lattice", "model_fit", "fit.targets", "fitted_model.json", _scale_fitted_alpha(5e-6)),
    ("exact_lattice", "model_fit", "fit.moments_file", "fitted_moments.csv", (1, bump(2, 1e-9))),
    ("dynamics", "dynamics_gen0", "trajectory.empty_cell", "trajectory.csv", (2, bump(8 * 5, 2e-9))),
    ("dynamics", "dynamics_gen0", "trajectory.law", "trajectory.csv", (2, bump(8 * 5 + 3, 2e-9))),
    ("dynamics", "dynamics_gen0", "curves.alpha", "curves.csv", (3, bump(6 * 4, 1e-7))),
    ("dynamics", "dynamics_independent", "curves.independent", "curves.csv", (3, bump(6 * 4, 1e-10))),
    ("dynamics", "dynamics_gen0", "master_residual.low_order", "master_residual.csv", (2, bump(8 * 3 + 3, 1e-2))),
    ("dynamics", "dynamics_independent", "master_residual.independent", "master_residual.csv", (2, bump(8 * 3 + 7, 1e-2))),
    ("dynamics", "dynamics_independent", "membership.independent", "membership.csv", (1, bump(0, 1e-6))),
    ("dynamics", "dynamics_gen0", "file.format", "membership.csv", lambda text: text.replace("t,residual", "t,resid")),
    ("dynamics", "forward_solve", "forward_solve.empty_cell", None, lambda v, w: _probs(v, 3, 0, 2e-9)),
    ("dynamics", "forward_solve", "forward_solve.law", None, lambda v, w: _probs(v, 3, 5, 2e-9)),
    ("dynamics", "sample_paths", "sample_paths.paths", None, lambda v, w: (v[0][1:], v[1])),
    ("dynamics", "sample_paths", "sample_paths.mean_size", None, resample_faster),
    ("dynamics", "sample_paths", "sample_paths.law", None, relabel_paths),
    ("search", "search_I_zero", "search.targets", "result.json", lambda d: _set(d, ["targets", "alpha"], 0.31)),
    ("search", "search_I_zero", "search.zero_floor", "result.json", lambda d: _set(d, ["residual_floor"], 1e-3)),
    ("search", "search_I_zero", "search.independent_rates", "result.json", lambda d: _set(d, ["best_rates", "lam", 0], d["best_rates"]["lam"][0] + 1e-3)),
    ("search", "search_II_zero", "search.independent_rates", "result.json", lambda d: _set(d, ["best_rates", "check_rates", 0, 1], d["best_rates"]["check_rates"][0][1] + 1e-3)),
    ("search", "search_II_beta", "search.positive_floor", "result.json", lambda d: _set(d, ["residual_floor"], 1e-12)),
    ("search", "search_II_beta", "search.coeff_II", "coeff_check.json", lambda d: _set(d, ["inconsistency"], d["inconsistency"] + 1e-9)),
    ("search", "search_III_beta", "search.bound_violated", "coeff_check.json", lambda d: _set(d, ["bound_violated"], False)),
    ("search", "search_III_zero", "search.bound_violated", "coeff_check.json", lambda d: _set(d, ["bound_violated"], True)),
]


def _probs(solution, row, cell, amount):
    from corrdefault.ctmc import ForwardSolution

    probs = np.array(solution.probs)
    probs[row, cell] += amount
    return ForwardSolution(solution.n_vertices, solution.t_grid, probs, solution.renormalized)


def test_toy_outputs_pass_every_check(toy_passes):
    for out_root, outcomes, _ in toy_passes.values():
        check_pass(out_root, outcomes)


def test_every_check_has_a_corruption():
    quoted = set(re.findall(r'"([A-Za-z_]+\.[A-Za-z_]+)"', (HERE / "checks.py").read_text()))
    declared = {name for name in quoted if not name.endswith(("csv", "json"))}
    assert declared == {c[2] for c in CORRUPTIONS}


@pytest.mark.parametrize("workload,op_name,expected,filename,corrupt", CORRUPTIONS,
                         ids=[f"{c[1]}-{c[2]}" for c in CORRUPTIONS])
def test_check_rejects_corruption(toy_passes, tmp_path, workload, op_name, expected, filename, corrupt):
    out_root, outcomes, wl = toy_passes[workload]
    value = next(v for op, v, _ in outcomes if op.name == op_name)
    target = tmp_path / op_name
    if (out_root / op_name).exists():  # library calls write no files
        shutil.copytree(out_root / op_name, target)
    if filename is None:
        value = corrupt(value, wl)
    elif filename.endswith(".json"):
        edit_json(target / filename, corrupt)
    elif callable(corrupt):
        (target / filename).write_text(corrupt((target / filename).read_text()))
    else:
        column, change = corrupt
        edit_column(target / filename, column, change)
    with pytest.raises(checks.CheckFailed) as caught:
        check_pass(out_root, outcomes, replace={op_name: (target, value)})
    assert caught.value.check == expected, str(caught.value)


def test_known_fault_counts_as_failed_not_wrong(tmp_path):
    def fails(_out, _value, _earlier):
        raise checks.CheckFailed("x.known", "fails on every run")

    from workloads import Op

    known = Op("known", lambda out: 0, fails, known_fault="x.known")
    other = Op("other", lambda out: 0, fails)
    _, outcomes = run.run_pass([known, other], tmp_path / "pass")
    assert run.check_passes([(tmp_path / "pass", outcomes)]) == (2, 2, 1)


def test_traced_pass_accounts_for_wall_time(tmp_path):
    cls = WORKLOADS["dynamics"]
    workload = cls(SEED, TOY)
    (tmp_path / "inputs").mkdir()
    workload.write_inputs(tmp_path / "inputs")
    tracer = tracing.Tracer()
    with tracer.installed():
        wall, _ = run.run_pass(workload.operations(tmp_path / "inputs"), tmp_path / "pass")
    from corrdefault import cli, model

    assert not hasattr(cli.main, "__wrapped__") and not hasattr(model.moments, "__wrapped__")
    metrics = tracing.layer_metrics(tracer.spans, wall)
    metrics["trace.overhead_s"] = 0.0
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    assert 0.0 <= metrics["trace.unaccounted_s"] < 0.05 * wall
    assert metrics["ctmc.forward_rhs_evals"] > 0 and metrics["consistency.pair_curves_per_s"] > 0
