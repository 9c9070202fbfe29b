"""scipy stays off the import path and the run path of `model` and `dynamics`.

Each test starts a fresh interpreter, because the test session itself has
scipy loaded (the search tests and the oracles import it).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corrdefault
from corrdefault import ctmc
from corrdefault import io as cdio
from corrdefault.ctmc import random_generator
from corrdefault.model import moments

from conftest import random_model

SRC = str(Path(corrdefault.__file__).resolve().parents[1])


def run_fresh(code, *args):
    """Run code in a new interpreter that imports corrdefault from this checkout; returns its last stdout line as JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


CLI_RUNS = """
import json, sys
from corrdefault.cli import main

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

model, dynamics, search = sys.argv[1:]
codes = [main(["model", "--config", model, "--fit"]), main(["dynamics", "--config", dynamics])]
after_model_and_dynamics = scipy_modules()
codes.append(main(["search", "--config", search]))
print(json.dumps({"codes": codes, "before_search": after_model_and_dynamics, "after_search": scipy_modules()}))
"""


def test_model_and_dynamics_runs_load_no_scipy(tmp_path):
    params = random_model(np.random.default_rng(5), 4)
    vertex, pair = moments(params)
    cdio.write_model_json(tmp_path / "model.json", params)
    targets = {
        "vertex_targets": [float(x) for x in vertex],
        "pair_targets": [{"edge": list(edge), "value": float(x)} for edge, x in zip(params.graph.edges, pair)],
    }
    (tmp_path / "targets.json").write_text(json.dumps(targets))
    cdio.write_generator_json(tmp_path / "gen.json", random_generator(3, seed=2))
    configs = {
        "model": {"io": {"model_file": str(tmp_path / "model.json"), "targets_file": str(tmp_path / "targets.json")}},
        "dynamics": {"io": {"generator_file": str(tmp_path / "gen.json")}},
        "search": {"model": "I", "N": 3, "targets": {"alpha": 0.3, "beta": 0.0}, "search": {"restarts": 1, "max_iter": 50}},
    }
    paths = [tmp_path / f"{name}_run.json" for name in configs]
    for path, (name, config) in zip(paths, configs.items()):
        path.write_text(json.dumps({**config, "io": {**config.get("io", {}), "out_dir": str(tmp_path / f"out_{name}")}}))
    report = run_fresh(CLI_RUNS, *map(str, paths))
    assert report["codes"] == [0, 0, 0]
    assert report["before_search"] == []
    assert "scipy.optimize" in report["after_search"]
    assert (tmp_path / "out_model" / "fitted_model.json").is_file()
    assert (tmp_path / "out_dynamics" / "master_residual.csv").is_file()


def test_ctmc_resolves_solve_ivp_on_first_read():
    report = run_fresh(
        """
import json, sys
from corrdefault import ctmc
loaded = "scipy.integrate" in sys.modules
import scipy.integrate
print(json.dumps({"loaded_on_import": loaded, "same": ctmc.solve_ivp is scipy.integrate.solve_ivp}))
"""
    )
    assert report == {"loaded_on_import": False, "same": True}


def test_ctmc_has_no_other_lazy_names():
    with pytest.raises(AttributeError, match="no attribute 'gammaln'"):
        ctmc.gammaln  # noqa: B018
