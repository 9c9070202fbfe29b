"""Spans around the program's public functions, and the per-layer metrics they give.

`Tracer.installed()` wraps each function listed in LAYERS in every
corrdefault namespace that holds it: `cli` imports names directly, and
`model.moments` reaches `full_distribution` through `model`'s globals.  A
span records name, start, end, parent and one count; spans stay in memory
until the run ends.  Where the program returns no count, the count is read
at its boundary with scipy (the `nfev` of the forward solve's `solve_ivp`).
A span's self time is its duration minus its children's durations (calls
are single-threaded and nested, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import os
import sys
from contextlib import contextmanager
from statistics import median
from time import perf_counter

LAYERS = {
    "model": (
        "hamiltonian_vector",
        "log_partition",
        "full_distribution",
        "to_ising",
        "extract_interactions",
        "family_membership_residual",
        "moments",
        "fit_moments",
    ),
    "ctmc": ("forward_solve", "sample_paths", "independent_generator"),
    "consistency": ("curves_from_rates", "master_residual", "membership_over_time"),
    "reduced": ("feasibility_search", "coeff_check_I", "coeff_check_II", "coeff_check_III"),
    "io": (
        "read_model_json",
        "read_generator_json",
        "ising_to_dict",
        "write_csv",
        "write_json",
        "write_model_json",
        "write_distribution_csv",
        "write_interactions_csv",
        "write_trajectory_csv",
        "write_curves_csv",
        "write_membership_csv",
        "write_master_residual_csv",
        "write_search_json",
        "write_restarts_csv",
    ),
    "cli": ("main", "cmd_model", "cmd_dynamics", "cmd_search"),
}
REPORTED_LAYERS = ("model", "ctmc", "consistency", "reduced", "io", "cli")


def _count(name, args, result):
    """The work count a span records, read from the call's arguments or result."""
    if name == "model.hamiltonian_vector":
        return 1 << args[0].graph.n_vertices
    if name == "ctmc.solve_ivp":
        return int(result.nfev)
    if name == "ctmc.sample_paths":
        return len(result[0])
    if name == "consistency.curves_from_rates":
        return len(result.pair_curves)
    if name == "reduced.feasibility_search":
        return sum(record.n_evaluations for record in result.trace)
    if name.startswith("io.write_"):
        return os.path.getsize(args[0])
    return 0


def _tag(name, args):
    return args[0][0] if name == "reduced.feasibility_search" else None


class Tracer:
    """Collects spans as [name, start, end, parent index, count, tag] lists."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, _tag(name, args)]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[4] = _count(name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every listed function in every corrdefault namespace; restore on exit."""
        import corrdefault.ctmc

        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "corrdefault"]
        wrappers = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"corrdefault.{layer}"]
            for attr in names:
                original = getattr(module, attr)
                wrappers[id(original)] = self._wrap(f"{layer}.{attr}", original)
        replaced = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and callable(value):
                    replaced.append((module, attr, value))
                    setattr(module, attr, wrapper)
        # the forward solve's boundary with scipy, for its right-hand-side count
        ctmc = corrdefault.ctmc
        replaced.append((ctmc, "solve_ivp", ctmc.solve_ivp))
        ctmc.solve_ivp = self._wrap("ctmc.solve_ivp", ctmc.solve_ivp)
        try:
            yield self
        finally:
            for module, attr, value in reversed(replaced):
                setattr(module, attr, value)

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump(
                [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "count": s[4]} for s in self.spans],
                handle,
            )


def _ratio(numerator, denominator):
    return numerator / denominator if denominator > 0.0 else 0.0


def layer_metrics(spans, wall):
    """Per-layer metrics of one traced pass whose spans are `spans` and wall time `wall`."""
    children = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            children[span[3]] += span[2] - span[1]
    names = [s[0] for s in spans]

    def outermost(i, test):
        parent = spans[i][3]
        while parent >= 0:
            if test(names[parent]):
                return False
            parent = spans[parent][3]
        return True

    def selected(test):
        return [i for i, name in enumerate(names) if test(name) and outermost(i, test)]

    def duration(indices):
        return sum(spans[i][2] - spans[i][1] for i in indices)

    def inclusive(name):
        return duration(selected(lambda n: n == name))

    def counted(name):
        return sum(spans[i][4] for i in selected(lambda n: n == name))

    def self_time(test):
        return sum(s[2] - s[1] - children[i] for i, s in enumerate(spans) if test(s[0]))

    m = {}
    m["model.hamiltonian_vector_s"] = inclusive("model.hamiltonian_vector")
    m["model.subsets_per_s"] = _ratio(counted("model.hamiltonian_vector"), m["model.hamiltonian_vector_s"])
    m["model.moments_s"] = inclusive("model.moments")
    m["model.fit_moments_s"] = inclusive("model.fit_moments")
    m["model.fit_sweeps"] = sum(
        1 for s in spans if s[0] == "model.moments" and s[3] >= 0 and names[s[3]] == "model.fit_moments"
    )
    m["model.to_ising_s"] = inclusive("model.to_ising")
    m["model.extract_interactions_s"] = inclusive("model.extract_interactions")
    m["ctmc.forward_solve_s"] = inclusive("ctmc.forward_solve")
    m["ctmc.forward_rhs_evals"] = counted("ctmc.solve_ivp")
    m["ctmc.sample_paths_s"] = inclusive("ctmc.sample_paths")
    m["ctmc.paths_per_s"] = _ratio(counted("ctmc.sample_paths"), m["ctmc.sample_paths_s"])
    m["consistency.curves_from_rates_s"] = inclusive("consistency.curves_from_rates")
    m["consistency.pair_curves_per_s"] = _ratio(
        counted("consistency.curves_from_rates"), m["consistency.curves_from_rates_s"]
    )
    m["consistency.master_residual_s"] = inclusive("consistency.master_residual")
    m["consistency.membership_over_time_self_s"] = self_time(lambda n: n == "consistency.membership_over_time")
    search = selected(lambda n: n == "reduced.feasibility_search")
    m["reduced.feasibility_search_s"] = duration(search)
    for kind in ("I", "II", "III"):
        m[f"reduced.search_{kind}_s"] = duration(i for i in search if spans[i][5] == kind)
    m["reduced.evaluations"] = counted("reduced.feasibility_search")
    m["reduced.us_per_evaluation"] = 1e6 * _ratio(m["reduced.feasibility_search_s"], m["reduced.evaluations"])
    # outermost io spans that are writes: write_csv inside write_distribution_csv counts once
    writes = [i for i in selected(lambda n: n.startswith("io.")) if names[i].startswith("io.write_")]
    m["io.write_s"] = duration(writes)
    m["io.bytes_written"] = sum(spans[i][4] for i in writes)
    m["io.write_mb_per_s"] = _ratio(m["io.bytes_written"] / 1e6, m["io.write_s"])
    accounted = 0.0
    for layer in REPORTED_LAYERS:
        value = self_time(lambda n, p=layer + ".": n.startswith(p))
        m[f"{layer}.self_s"] = value
        accounted += value
    m["trace.wall_s"] = wall
    m["trace.unaccounted_s"] = wall - accounted
    m["trace.spans"] = len(spans)
    return m


def median_metrics(per_pass):
    """Metric-wise median over passes; counts repeat exactly, so their median is the count."""
    return {key: median(p[key] for p in per_pass) for key in per_pass[0]}
