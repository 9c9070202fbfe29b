"""A `dynamics` run writes the same bytes under one BLAS thread and under two.

forward_solve adds its series into the output by matrix products, so the
BLAS thread count must not change how those products sum.  Each run starts a
fresh interpreter, because OpenBLAS reads its thread count when it loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import corrdefault
from corrdefault import io as cdio
from corrdefault.ctmc import random_generator

SRC = str(Path(corrdefault.__file__).resolve().parents[1])


def run_dynamics(config, out, blas_threads):
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
        "OPENBLAS_NUM_THREADS": str(blas_threads),
    }
    argv = [sys.executable, "-m", "corrdefault.cli", "dynamics", "--config", str(config), "--out", str(out)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_dynamics_bytes_do_not_depend_on_blas_threads(tmp_path):
    cdio.write_generator_json(tmp_path / "gen.json", random_generator(6, seed=7))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"io": {"generator_file": str(tmp_path / "gen.json")}, "horizon": 1.5}))
    one, two = (run_dynamics(config, tmp_path / f"out_{k}", k) for k in (1, 2))
    assert sorted(one) == ["curves.csv", "master_residual.csv", "membership.csv", "trajectory.csv"]
    assert one == two
