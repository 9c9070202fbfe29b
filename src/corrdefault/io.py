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

from ._num import is_integer
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


def check_keys(block, allowed, name: str):
    """Require block to be a JSON object holding only the keys in allowed; a ValueError names the others."""
    if not isinstance(block, dict):
        raise ValueError(f"{name} must be a JSON object")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {name} key(s): {', '.join(map(repr, unknown))}")


def integer_field(value, name: str) -> int:
    """A JSON field that must be an integer; a float, a bool (JSON true) or a string raises a ValueError naming it."""
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def float_field(value, name: str) -> float:
    """A JSON field that must be a number; a bool (JSON true) or a string raises a ValueError naming it."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def list_field(value, name: str) -> list:
    """A JSON field that must be a list; a number, a string or an object raises a ValueError naming it."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def float_fields(values, name: str) -> list:
    """float_field of every entry of a JSON list, named name[i]."""
    return [float_field(value, f"{name}[{i}]") for i, value in enumerate(list_field(values, name))]


def edge_field(value, name: str) -> tuple:
    """A JSON field that must be a list of two integers, its ends named "name end"; anything else raises a ValueError."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"{name} must be a list of two integers, got {value!r}")
    return tuple(integer_field(end, f"{name} end") for end in value)


def edge_values(entries, graph: Graph, name: str) -> np.ndarray:
    """The values of a JSON list of {edge, value} entries by edge position, 0 where unlisted; a repeated edge raises."""
    values = np.zeros(graph.n_edges)
    listed = set()
    for entry in list_field(entries, name):
        check_keys(entry, {"edge", "value"}, f"{name} entry")
        position = graph.edge_position(*edge_field(entry["edge"], f"{name} edge"))
        if position in listed:
            raise ValueError(f"{name} lists edge {graph.edges[position]} twice")
        listed.add(position)
        values[position] = float_field(entry["value"], f"{name} value")
    return values


def model_to_dict(params: ModelParams) -> dict:
    graph = params.graph
    return {
        "n_vertices": graph.n_vertices,
        "edges": [list(edge) for edge in graph.edges],
        "alpha": [float(a) for a in params.alpha],
        "beta": [
            {"edge": list(edge), "value": float(b)} for edge, b in zip(graph.edges, params.beta)
        ],
    }


# write_json adds "meta", so a written model or generator file reads back
def model_from_dict(payload: Mapping) -> ModelParams:
    check_keys(payload, {"meta", "n_vertices", "edges", "alpha", "beta"}, "model file")
    n_vertices = integer_field(payload["n_vertices"], "n_vertices")
    graph = Graph(n_vertices, tuple(edge_field(edge, "edge") for edge in list_field(payload.get("edges", []), "edges")))
    alpha = np.array(float_fields(payload["alpha"], "alpha"))
    return ModelParams(graph, alpha, edge_values(payload.get("beta", []), graph, "beta"))


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
    check_keys(payload, {"meta", "n_vertices", "entries"}, "generator file")
    n_vertices = integer_field(payload["n_vertices"], "n_vertices")
    entries = []
    for e in list_field(payload.get("entries", []), "entries"):
        check_keys(e, {"subset_bitmask", "vertex", "rate"}, "generator entry")
        entries.append((integer_field(e["subset_bitmask"], "subset_bitmask"), integer_field(e["vertex"], "vertex"),
                        float_field(e["rate"], "rate")))
    return MonotoneGenerator.from_entries(n_vertices, entries)


def write_generator_json(path, gen: MonotoneGenerator, config=None):
    write_json(path, generator_to_dict(gen), config)


def read_generator_json(path) -> MonotoneGenerator:
    return generator_from_dict(read_json(path))


def _lattice_text(job) -> str:
    """Rows lead + "mask,value" of a job's (lead, values, first mask) pieces; each distinct value formatted once."""
    values = np.concatenate([piece for _, piece, _ in job], dtype=float)
    # unlike float values, the int64 view keeps -0.0 apart from 0.0
    bits, which = np.unique(values.view(np.int64), return_inverse=True)
    text = [_fmt(value) for value in bits.view(float).tolist()]
    which = iter(which.tolist())  # each piece takes its own rows: zip ends at the piece's last mask first
    return "".join(
        lead + lead.join([f"{mask},{text[k]}\n" for mask, k in zip(range(start, start + len(piece)), which)])
        for lead, piece, start in job
    )


def _write_lattice_csv(path, columns, slices, config, first_mask: int = 0):
    """write_csv's bytes, formatted in bulk: rows lead + "mask,value" for mask >= first_mask, per (lead, values).

    The rows are cut into jobs of at most _LATTICE_CHUNK rows, which may
    span several slices: a grid of small slices is one job, while a slice of
    2^20 rows is 16.  A file of more than _LATTICE_CHUNK rows is formatted
    on every CPU the process may use (_pool.cpu_map), because repr holds the
    GIL.  The workers fork before the file opens, so none holds a copy of
    its buffer.  The texts are written in job order as they arrive.  A
    worker's exception, or its death, raises here.
    """
    jobs, rows = [], _LATTICE_CHUNK
    for lead, values in slices:
        for start in range(first_mask, len(values), _LATTICE_CHUNK):
            piece = values[start : start + _LATTICE_CHUNK]
            if rows + len(piece) > _LATTICE_CHUNK:
                jobs.append([])
                rows = 0
            jobs[-1].append((lead, piece, start))
            rows += len(piece)
    with cpu_map(_lattice_text, jobs) as texts, open(path, "w") as handle:
        handle.write(_csv_head(columns, config))
        handle.writelines(texts)


def write_distribution_csv(path, dist: SubsetDist, config=None):
    _write_lattice_csv(path, ("subset_bitmask", "probability"), [("", dist.probs)], config)


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
    """Curve dump: one row per time per vertex (alpha) and per pair (beta); each curve and each time done once."""
    t_grid = np.asarray(t_grid, dtype=float)
    alpha, alpha_prime, _ = curves.alpha(t_grid)
    b, bp = curves.beta_matrices(t_grid)
    names = [f"v{u},alpha" for u in range(curves.n_vertices)] + [f"e{u}-{v},beta" for u, v in curves.pairs.tolist()]
    u, v = curves.pairs.T
    values = np.concatenate([alpha, b[:, u, v]], axis=1).tolist()
    derivatives = np.concatenate([alpha_prime, bp[:, u, v]], axis=1).tolist()
    fmt = float.__repr__
    with open(path, "w") as handle:
        handle.write(_csv_head(("t", "vertex_or_edge", "alpha_or_beta", "value", "derivative"), config))
        for t, row, row_prime in zip(t_grid.tolist(), values, derivatives):
            lead = fmt(t)
            handle.writelines([f"{lead},{name},{fmt(x)},{fmt(d)}\n" for name, x, d in zip(names, row, row_prime)])


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
