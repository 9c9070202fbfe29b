"""Run one benchmark workload from a seed and print its metrics as JSON.

    python3 benchmark/run.py --workload exact_lattice --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`.  One process, one thread of BLAS.  Set-up is the import, plus the
median of three rounds of making and writing the inputs and a toy-size
warm-up pass.  Then whole passes over the workload's operations run until
the next pass would end past `--seconds` (at least one pass); `wall_s` is
the median pass.  With `--trace 1`, untraced and traced passes alternate and
the per-layer metrics of BENCHMARK.json are printed instead of the
end-to-end ones.  Outputs are checked after the last pass.  The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
WARMUP_SEED = 0  # the toy warm-up is the same for every run, so set-up varies less


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric_units():
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        [w["name"] for w in spec["workloads"]],
    )


def run_pass(ops, out_root):
    """Run every operation once; returns (wall seconds, [(op, value, error text)])."""
    out_root.mkdir(parents=True)
    outcomes = []
    start = perf_counter()
    for op in ops:
        try:
            outcomes.append((op, op.execute(out_root / op.name), None))
        except Exception:  # a failed operation is counted, not fatal
            outcomes.append((op, None, traceback.format_exc()))
    return perf_counter() - start, outcomes


def check_passes(passes):
    """Check every pass's outputs; returns (attempted, failed, wrong).

    An operation fails if it raises, exits non-zero or fails a check.  A
    failed check makes the output wrong, unless it is the operation's known
    fault, which fails on every run and is counted in `failed` only.
    """
    from checks import CheckFailed

    attempted = failed = wrong = 0
    for out_root, outcomes in passes:
        earlier = {}
        for op, value, error in outcomes:
            attempted += 1
            if error is not None or (op.is_cli and value != 0):
                failed += 1
                print(f"FAILED {op.name}: {error or f'exit code {value}'}", file=sys.stderr)
                continue
            try:
                earlier[op.name] = op.check(out_root / op.name, value, earlier)
            except CheckFailed as exc:
                failed += 1
                if exc.check == op.known_fault:
                    print(f"KNOWN FAULT {op.name}: {exc}", file=sys.stderr)
                else:
                    wrong += 1
                    print(f"WRONG {op.name}: {exc}", file=sys.stderr)
            except Exception:  # any other failure to verify an output is a wrong output
                failed += 1
                wrong += 1
                print(f"WRONG {op.name}: {traceback.format_exc()}", file=sys.stderr)
    return attempted, failed, wrong


def main(argv=None):
    args = _parse_args(argv)
    if not (ROOT / "src" / "corrdefault" / "__init__.py").is_file():
        print(f"no corrdefault sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_units, layer_units, workload_names = _metric_units()
    if args.workload not in workload_names:
        print(f"unknown workload {args.workload!r}; choose from {workload_names}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    # timed as set-up; numpy and scipy load here too, since the benchmark's own
    # modules, which import numpy, are imported only after this
    start = perf_counter()
    import corrdefault.cli  # noqa: F401

    import_s = perf_counter() - start
    import tracing
    from workloads import TOY, WORKLOADS

    work = ROOT / ".benchwork" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        cls = WORKLOADS[args.workload]
        setup_times = []
        for rep in range(SETUP_REPEATS):
            start = perf_counter()
            workload = cls(args.seed)
            inputs = work / f"inputs{rep}"
            inputs.mkdir(parents=True)
            workload.write_inputs(inputs)
            toy = cls(WARMUP_SEED, TOY)
            (work / f"toy{rep}").mkdir()
            toy.write_inputs(work / f"toy{rep}")
            run_pass(toy.operations(work / f"toy{rep}"), work / f"toy{rep}" / "out")
            setup_times.append(perf_counter() - start)
        ops = workload.operations(inputs)

        passes, untraced, traced = [], [], []
        tracers = []
        start = perf_counter()
        while True:
            wall, outcomes = run_pass(ops, work / f"pass{len(passes)}")
            passes.append((work / f"pass{len(passes)}", outcomes))
            untraced.append(wall)
            if len(untraced) == 1:
                # before later passes' results pile up in memory
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if args.trace:
                tracer = tracing.Tracer()
                with tracer.installed():
                    wall, outcomes = run_pass(ops, work / f"pass{len(passes)}")
                passes.append((work / f"pass{len(passes)}", outcomes))
                traced.append(wall)
                tracers.append(tracer)
            elapsed = perf_counter() - start
            if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
                break

        attempted, failed, wrong = check_passes(passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = tracing.median_metrics(
            [tracing.layer_metrics(t.spans, w) for t, w in zip(tracers, traced)]
        )
        metrics["trace.overhead_s"] = median(traced) - median(untraced)
        trace_dir = ROOT / ".benchtrace"
        trace_dir.mkdir(exist_ok=True)
        tracers[-1].dump(trace_dir / f"{args.workload}-seed{args.seed}.json")
        units = layer_units
    else:
        metrics = {
            "wall_s": median(untraced),
            "setup_s": import_s + median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = end_units
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    print(
        f"{args.workload} seed {args.seed}: passes {[round(w, 3) for w in untraced]}"
        + (f", traced {[round(w, 3) for w in traced]}" if traced else ""),
        file=sys.stderr,
    )
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
