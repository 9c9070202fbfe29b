"""The package names that benchmark/ reads still resolve.

benchmark/ changes only with the benchmark itself, so a name deleted from the
package would break a traced run (run.py --trace 1) or reproduce_found.py
without failing any package test.  These tests make it fail tier-1 instead.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from corrdefault import _num, ctmc
from corrdefault.consistency import curves_from_rates
from corrdefault.ctmc import random_generator

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


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
