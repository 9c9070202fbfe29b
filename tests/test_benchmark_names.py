"""The package names that benchmark/ reads still resolve.

benchmark/ changes only with the benchmark itself, so a name deleted from the
package would break a traced run (run.py --trace 1) or reproduce_found.py
without failing any package test.  These tests make it fail tier-1 instead.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from corrdefault import _num, ctmc
from corrdefault.consistency import ParamCurves, curves_from_rates
from corrdefault.ctmc import MonotoneGenerator, random_generator

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"
TRACING = BENCHMARK / "tracing.py"


def load_tracing():
    """benchmark/tracing.py by path; it imports only the standard library at top level."""
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    for layer, names in load_tracing().LAYERS.items():
        module = importlib.import_module(f"corrdefault.{layer}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"corrdefault.{layer} has no {missing}"


def test_tracer_count_of_pair_curves():
    # the span count of consistency.curves_from_rates is len(result.pair_curves)
    assert len(curves_from_rates(random_generator(3, seed=1)).pair_curves) == 3


def test_names_kept_for_the_benchmark():
    # tracing.py wraps ctmc.solve_ivp; reproduce_found.py pair_curve calls exp_beta_pair and passes t_grid
    assert callable(ctmc.solve_ivp)
    assert callable(_num.exp_beta_pair)
    assert "t_grid" in inspect.signature(curves_from_rates).parameters


def benchmark_names(tree):
    """(module, name) for every name a benchmark file imports from corrdefault or reads off a corrdefault module.

    A local name stands for a corrdefault module after `import corrdefault.x`
    (the name corrdefault), `from corrdefault import x [as y]` with x a
    submodule, and `y = corrdefault.x`.
    """
    bound, names = {}, set()

    def module_of(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute) and module_of(node.value) == "corrdefault":
            return f"corrdefault.{node.attr}"
        return None

    nodes = list(ast.walk(tree))
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("corrdefault."):
                    names.add(tuple(alias.name.rsplit(".", 1)))
                    bound["corrdefault"] = "corrdefault"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "corrdefault":
            for alias in node.names:
                names.add((node.module, alias.name))
                if node.module == "corrdefault" and importlib.util.find_spec(f"corrdefault.{alias.name}"):
                    bound[alias.asname or alias.name] = f"corrdefault.{alias.name}"
    for node in nodes:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name) and module_of(node.value):
            bound[node.targets[0].id] = module_of(node.value)
    for node in nodes:
        if isinstance(node, ast.Attribute) and module_of(node.value):
            names.add((module_of(node.value), node.attr))
    return names


def resolves(module, name):
    """Whether the module has the attribute, or is a package with that submodule."""
    parent = importlib.import_module(module)
    if hasattr(parent, name):
        return True
    return hasattr(parent, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None


def test_every_benchmark_import_resolves():
    names = set().union(*(benchmark_names(ast.parse(path.read_text())) for path in BENCHMARK.glob("*.py")))
    assert len(names) >= 20, sorted(names)
    missing = [f"{module}.{name}" for module, name in sorted(names) if not resolves(module, name)]
    assert not missing, f"benchmark/ reads names the package lacks: {missing}"
    # instance methods the benchmark calls, which the scan cannot see
    methods = {MonotoneGenerator: ("q_u", "q_uv", "r_u", "r_uv", "r_empty"), ParamCurves: ("beta", "pair_curves")}
    for cls, attrs in methods.items():
        missing = [attr for attr in attrs if not hasattr(cls, attr)]
        assert not missing, f"{cls.__name__} has no {missing}"


def test_benchmark_toy_inputs_run(tmp_path, monkeypatch):
    # benchmark/test_selftest.py is not in this suite, so a config key the package drops would fail
    # benchmark/run.py while every package test passed
    monkeypatch.syspath_prepend(str(BENCHMARK))
    names = ("workloads", "checks", "reference")  # benchmark/ modules, imported by these bare names
    try:
        workloads = importlib.import_module("workloads")
        for name, workload in workloads.WORKLOADS.items():
            folder = tmp_path / name
            folder.mkdir()
            inputs = workload(1, workloads.TOY)
            inputs.write_inputs(folder)
            for op in inputs.operations(folder):
                if op.is_cli:
                    assert op.execute(folder / op.name) == 0, f"{name}: {op.name}"
    finally:
        for name in names:
            sys.modules.pop(name, None)
