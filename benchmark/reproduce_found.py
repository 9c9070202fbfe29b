"""Reproduce the program faults the benchmark ran into (FOUND lines in CHANGES.md).

    python3 benchmark/reproduce_found.py [case ...]

Cases: dynamics_exit, seed_hash, restart_columns, membership, pair_curve,
model_III_rates.

Run from the root of a source checkout.  With no argument every case runs.
Each case prints what it observed and whether the fault is still there;
scratch files go to .benchwork/found and are removed afterwards.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from corrdefault import cli, consistency, ctmc  # noqa: E402
from corrdefault import io as cdio  # noqa: E402
from corrdefault._num import geometric_grid  # noqa: E402

WORK = ROOT / ".benchwork" / "found"


def _run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


def dynamics_exit():
    """`dynamics` on a valid 10-vertex generator exits 2 and leaves partial outputs."""
    cdio.write_generator_json(WORK / "gen10.json", ctmc.random_generator(10, seed=1))
    (WORK / "dyn.json").write_text(json.dumps({"io": {"generator_file": str(WORK / "gen10.json")}}))
    code, err = _run_cli(["dynamics", "--config", str(WORK / "dyn.json"), "--out", str(WORK / "dyn")])
    left = sorted(p.name for p in (WORK / "dyn").iterdir())
    print(f"exit code {code} ({err}); files left behind: {left}")
    return code == 2


def seed_hash():
    """`search --seed` changes the rows but not the config_hash in the headers."""
    config = {"model": "I", "N": 3, "targets": {"alpha": 0.3, "beta": 0.5}, "search": {"restarts": 1, "max_iter": 200}}
    (WORK / "search.json").write_text(json.dumps(config))
    heads, bodies = [], []
    for seed in ("0", "7"):
        out = WORK / f"search{seed}"
        _run_cli(["search", "--config", str(WORK / "search.json"), "--out", str(out), "--seed", seed])
        lines = (out / "restarts.csv").read_text().splitlines()
        heads.append([line for line in lines if line.startswith("# config_hash")])
        bodies.append([line for line in lines if not line.startswith("#")])
    print(f"config_hash with --seed 0 and 7: {heads[0]} {heads[1]}; rows differ: {bodies[0] != bodies[1]}")
    return heads[0] == heads[1] and bodies[0] != bodies[1]


def restart_columns():
    """restarts.csv calls an evaluation count `iteration` and a residual max `residual_floor`."""
    config = {"model": "I", "N": 3, "targets": {"alpha": 0.3, "beta": 0.5}, "search": {"restarts": 2, "max_iter": 200}}
    (WORK / "cols.json").write_text(json.dumps(config))
    _run_cli(["search", "--config", str(WORK / "cols.json"), "--out", str(WORK / "cols")])
    lines = [line for line in (WORK / "cols" / "restarts.csv").read_text().splitlines() if not line.startswith("#")]
    result = json.loads((WORK / "cols" / "result.json").read_text())
    floors = [float(line.split(",")[4]) for line in lines[1:]]
    print(f"header {lines[0]!r}; evaluation counts in 'iteration': {[line.split(',')[1] for line in lines[1:]]}")
    print(f"per-restart 'residual_floor' {floors} vs the run's residual_floor {result['residual_floor']}")
    return lines[0].split(",")[1] == "iteration" and len(set(floors)) > 1


def membership():
    """The independent construction lies in the model family at every time, yet
    membership_over_time reports a residual that grows with n, then raises."""
    alpha = [0.3, -0.7, 1.1, -0.2, 0.6, -1.2, 0.1, -0.4]
    found = False
    for n in range(4, 9):
        gen = ctmc.independent_generator(alpha[:n], 1.0)
        try:
            peak, _ = consistency.membership_over_time(gen, geometric_grid(1.0, 32))
            print(f"n={n}: max membership residual {peak:.3e} (exact value 0)")
            found |= peak > 1e-9
        except ValueError as exc:
            print(f"n={n}: {type(exc).__name__}: {exc}")
            found = True
    return found


def pair_curve():
    """The pair-curve ODE misses the exact law by 1e-4 at t = 1e-3 on a 6-vertex generator."""
    import reference
    from workloads import Dynamics

    from corrdefault._num import exp_beta_pair

    chain = Dynamics(233).chains[0]  # benchmark dynamics seed 233, first generator
    gen = ctmc.MonotoneGenerator(chain.n, chain.rates)
    u, v = 0, 5
    curves = consistency.curves_from_rates(gen, horizon=chain.horizon, t_grid=chain.grid)
    ode, _ = curves.beta(u, v, chain.grid)
    exact = reference.low_order_beta(chain.law, u, v)
    closed = np.log(
        exp_beta_pair(
            gen.q_u(u), gen.r_empty - gen.r_u(u), gen.q_u(v), gen.r_empty - gen.r_u(v),
            gen.q_uv(u, v), gen.q_uv(v, u), gen.r_empty - gen.r_uv(u, v), chain.grid,
        )
    )
    gap = np.abs(ode - exact)
    print(f"beta_{u}{v}: ODE off the uniformised law by {gap.max():.2e} at t={chain.grid[gap.argmax()]:.1e}; "
          f"closed form _num.exp_beta_pair off by {np.abs(closed - exact).max():.1e}")
    return gap.max() > 1e-6


def model_III_rates():
    """Model III's beta = 0 search ends at a tiny floor with rates 1e-4 off the independent construction."""
    import reference

    from corrdefault.reduced import SearchConfig, feasibility_search

    targets = {"alpha_hat": 0.5, "alpha_check": -0.5, "beta": 0.0}
    # the search seed benchmark seed 21 gives this case
    result = feasibility_search(("III", 4, 3), targets, SearchConfig(restarts=4, seed=1000846326))
    hat, check = reference.independent_lumped_bi(4, 3, 0.5, -0.5, 1.0)
    gap = max(np.abs(result.best_rates.hat_rates - hat).max(), np.abs(result.best_rates.check_rates - check).max())
    print(f"residual floor {result.residual_floor:.1e}; best rates off the independent construction by {gap:.1e}")
    return gap > 1e-4


CASES = {
    f.__name__: f
    for f in (dynamics_exit, seed_hash, restart_columns, membership, pair_curve, model_III_rates)
}


def main(names):
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        for name in names or CASES:
            print(f"== {name}: {CASES[name].__doc__.split(chr(10))[0]}")
            print("fault present" if CASES[name]() else "fault NOT reproduced")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
