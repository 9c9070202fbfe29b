"""File formats: model/generator JSON schemas and CSV emitters.

Every emitted file carries a header block with the effective config hash and
the tool version so runs are diffable; numeric values use the shortest
round-trip representation.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ._pool import cpu_map
from .ctmc import ForwardSolution, MonotoneGenerator
from .model import Graph, ModelParams, IsingParams, InteractionCoeffs, SubsetDist

TOOL_VERSION = "0.1.0"

# Lattice writers format this many rows per job; 2^16 rows of text is a few MB.
_LATTICE_CHUNK = 1 << 16


def config_hash(config: Mapping) -> str:
    """Stable hash of a JSON-serializable config."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _fmt(value) -> str:
    return repr(float(value))


def _header_lines(meta: Mapping[str, str]) -> str:
    return "".join(f"# {key}={value}\n" for key, value in meta.items())


def _meta(config: Optional[Mapping]) -> dict:
    meta = {"tool_version": TOOL_VERSION}
    if config is not None:
        meta["config_hash"] = config_hash(config)
    return meta


def _csv_head(columns: Sequence[str], config, extra_meta=None) -> str:
    meta = _meta(config)
    if extra_meta:
        meta.update(extra_meta)
    return _header_lines(meta) + ",".join(columns) + "\n"


def write_csv(path, columns: Sequence[str], rows: Iterable[Sequence], config=None, extra_meta=None):
    with open(path, "w") as handle:
        handle.write(_csv_head(columns, config, extra_meta))
        for row in rows:
            handle.write(
                ",".join(
                    str(c) if isinstance(c, (str, int, np.integer)) else _fmt(c) for c in row
                )
            )
            handle.write("\n")


def write_json(path, payload: Mapping, config=None):
    document = {"meta": _meta(config)}
    document.update(payload)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_json(path):
    """Load a JSON file whose objects raise a ValueError naming the file and the key when read at a key they lack."""

    class JsonObject(dict):
        def __missing__(self, key):
            raise ValueError(f"{path} has no key {key!r}")

    with open(path) as handle:
        return json.load(handle, object_pairs_hook=JsonObject)


def model_to_dict(params: ModelParams) -> dict:
    graph = params.graph
    payload = {
        "n_vertices": graph.n_vertices,
        "edges": [list(edge) for edge in graph.edges],
        "alpha": [float(a) for a in params.alpha],
        "beta": [
            {"edge": list(edge), "value": float(b)} for edge, b in zip(graph.edges, params.beta)
        ],
    }
    if graph.bipartition is not None:
        hat, check = graph.bipartition
        payload["bipartition"] = {"hat": list(hat), "check": list(check)}
    return payload


def model_from_dict(payload: Mapping) -> ModelParams:
    n_vertices = int(payload["n_vertices"])
    edges = tuple(tuple(int(v) for v in edge) for edge in payload.get("edges", []))
    bipartition = None
    if payload.get("bipartition") is not None:
        bip = payload["bipartition"]
        bipartition = (tuple(int(v) for v in bip["hat"]), tuple(int(v) for v in bip["check"]))
    graph = Graph(n_vertices, edges, bipartition)
    alpha = np.asarray(payload["alpha"], dtype=float)
    beta = np.zeros(graph.n_edges)
    for entry in payload.get("beta", []):
        u, v = (int(x) for x in entry["edge"])
        beta[graph.edge_position(u, v)] = float(entry["value"])
    return ModelParams(graph, alpha, beta)


def write_model_json(path, params: ModelParams, config=None):
    write_json(path, model_to_dict(params), config)


def read_model_json(path) -> ModelParams:
    return model_from_dict(read_json(path))


def ising_to_dict(ising: IsingParams) -> dict:
    return {
        "n_vertices": ising.graph.n_vertices,
        "edges": [list(edge) for edge in ising.graph.edges],
        "gamma": [float(g) for g in ising.gamma],
        "delta": [
            {"edge": list(edge), "value": float(d)}
            for edge, d in zip(ising.graph.edges, ising.delta)
        ],
        "log_norm": float(ising.log_norm),
    }


def generator_to_dict(gen: MonotoneGenerator) -> dict:
    entries = []
    for mask in range(1 << gen.n_vertices):
        for v in range(gen.n_vertices):
            rate = float(gen.rates[mask, v])
            if rate != 0.0:
                entries.append({"subset_bitmask": mask, "vertex": v, "rate": rate})
    return {"n_vertices": gen.n_vertices, "entries": entries}


def generator_from_dict(payload: Mapping) -> MonotoneGenerator:
    n_vertices = int(payload["n_vertices"])
    entries = [
        (int(e["subset_bitmask"]), int(e["vertex"]), float(e["rate"]))
        for e in payload.get("entries", [])
    ]
    return MonotoneGenerator.from_entries(n_vertices, entries)


def write_generator_json(path, gen: MonotoneGenerator, config=None):
    write_json(path, generator_to_dict(gen), config)


def read_generator_json(path) -> MonotoneGenerator:
    return generator_from_dict(read_json(path))


def _lattice_text(job) -> str:
    """Rows lead + "mask,value" of one chunk (lead, values, first mask), each distinct value formatted once."""
    lead, values, start = job
    # unlike float values, the int64 view keeps -0.0 apart from 0.0
    bits, which = np.unique(np.ascontiguousarray(values, dtype=float).view(np.int64), return_inverse=True)
    text = [_fmt(value) for value in bits.view(float).tolist()]
    return lead + lead.join([f"{mask},{text[k]}\n" for mask, k in enumerate(which.tolist(), start)])


def _write_lattice_csv(path, columns, slices, config, first_mask: int = 0):
    """write_csv's bytes, formatted in bulk: rows lead + "mask,value" for mask >= first_mask, per (lead, values).

    Each slice is cut into jobs of at most _LATTICE_CHUNK rows.  A file of
    more than _LATTICE_CHUNK rows is formatted on every CPU the process may
    use (_pool.cpu_map), because repr holds the GIL.  The workers fork
    before the file opens, so none holds a copy of its buffer.  The texts
    are written in job order as they arrive.  A worker's exception, or its
    death, raises here.
    """
    jobs = [
        (lead, values[start : start + _LATTICE_CHUNK], start)
        for lead, values in slices
        for start in range(first_mask, len(values), _LATTICE_CHUNK)
    ]
    rows = sum(len(values) for _, values, _ in jobs)
    with cpu_map(_lattice_text, jobs, fork=rows > _LATTICE_CHUNK) as texts, open(path, "w") as handle:
        handle.write(_csv_head(columns, config))
        handle.writelines(texts)


def write_distribution_csv(path, dist: SubsetDist, config=None):
    _write_lattice_csv(path, ("subset_bitmask", "probability"), [("", dist.probs)], config)


def read_distribution_csv(path) -> SubsetDist:
    masks, probs = [], []
    with open(path) as handle:
        for line in handle:
            if line.startswith("#") or line.startswith("subset_bitmask"):
                continue
            mask, prob = line.strip().split(",")
            masks.append(int(mask))
            probs.append(float(prob))
    size = max(masks) + 1
    vec = np.zeros(size)
    vec[np.array(masks)] = probs
    n = size.bit_length() - 1
    return SubsetDist(n, vec)


def write_trajectory_csv(path, solution: ForwardSolution, config=None):
    slices = [(f"{_fmt(t)},", probs) for t, probs in zip(solution.t_grid, solution.probs)]
    _write_lattice_csv(path, ("t", "subset_bitmask", "probability"), slices, config)


def write_membership_csv(path, t_grid, per_t, config=None):
    peak = float(np.max(per_t)) if len(per_t) else 0.0
    rows = ((_fmt(t), float(r)) for t, r in zip(t_grid, per_t))
    write_csv(path, ("t", "residual"), rows, config, extra_meta={"max_residual": _fmt(peak)})


def write_master_residual_csv(path, t_grid, residuals_by_t, config=None):
    slices = [(f"{_fmt(t)},", res) for t, res in zip(t_grid, residuals_by_t)]
    _write_lattice_csv(path, ("t", "subset_bitmask", "residual"), slices, config)


def write_curves_csv(path, curves, t_grid, config=None):
    """Curve dump: one row per time per vertex (alpha) and per pair (beta); each curve is evaluated once."""
    t_grid = np.asarray(t_grid, dtype=float)
    alpha, alpha_prime, _ = curves.alpha(t_grid)
    b, bp = curves.beta_matrices(t_grid)
    pairs = [(f"e{u}-{v}", b[:, u, v], bp[:, u, v]) for u, v in curves.pairs.tolist()]

    def rows():
        for i, t in enumerate(t_grid):
            for u in range(curves.n_vertices):
                yield (_fmt(t), f"v{u}", "alpha", float(alpha[i, u]), float(alpha_prime[i, u]))
            for name, beta, beta_prime in pairs:
                yield (_fmt(t), name, "beta", float(beta[i]), float(beta_prime[i]))

    write_csv(path, ("t", "vertex_or_edge", "alpha_or_beta", "value", "derivative"), rows(), config)


def lumped_to_dict(rates) -> dict:
    from .reduced import LumpedRatesBi, LumpedRatesI

    if isinstance(rates, LumpedRatesI):
        return {"kind": "complete", "n_vertices": rates.n_vertices, "lam": [float(x) for x in rates.lam]}
    if isinstance(rates, LumpedRatesBi):
        return {
            "kind": "bipartite",
            "n_hat": rates.n_hat,
            "n_check": rates.n_check,
            "hat_rates": [[float(x) for x in row] for row in rates.hat_rates],
            "check_rates": [[float(x) for x in row] for row in rates.check_rates],
        }
    raise TypeError(f"not a lumped rate table: {type(rates)!r}")


def write_search_json(path, result, config=None):
    payload = {
        "model": result.model,
        "sizes": list(result.sizes),
        "targets": result.targets,
        "residual_floor": float(result.residual_floor),
        "terminal_mismatch": float(result.terminal_mismatch),
        "restarts_used": result.restarts_used,
        "best_index": result.best_index,
        "best_rates": lumped_to_dict(result.best_rates),
    }
    write_json(path, payload, config)


def write_restarts_csv(path, result, config=None):
    rows = (
        (
            record.index,
            record.n_evaluations,
            float(record.objective),
            float(record.terminal_mismatch),
            float(record.residual_max),
        )
        for record in result.trace
    )
    write_csv(
        path,
        ("restart", "n_evaluations", "objective", "terminal_mismatch", "residual_max"),
        rows,
        config,
    )


def write_interactions_csv(path, coeffs: InteractionCoeffs, config=None):
    """Every coefficient but the empty set's, which is 0 by definition."""
    _write_lattice_csv(path, ("subset_bitmask", "coefficient"), [("", coeffs.coeffs)], config, first_mask=1)
