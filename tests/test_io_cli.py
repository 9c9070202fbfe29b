import errno
import json
import multiprocessing
import os
import tempfile
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corrdefault import io as cdio
from corrdefault import model as cdmodel
from corrdefault.cli import main
from corrdefault.consistency import curves_from_rates
from corrdefault.ctmc import ForwardSolution, MonotoneGenerator, random_generator
from corrdefault.reduced import _SearchProblem
from corrdefault.model import (
    Graph,
    InteractionCoeffs,
    ModelParams,
    SubsetDist,
    extract_interactions,
    full_distribution,
)

from conftest import fast_exit_generator, n_cpus, random_model, reject_restart_1, unreachable_triple_generator
from oracles import beta_pair_mp


def write_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle)


@pytest.fixture
def k2_model_file(tmp_path):
    params = ModelParams(Graph.complete(2), [0.0, 0.0], [float(np.log(2.0))])
    path = tmp_path / "model.json"
    cdio.write_model_json(path, params)
    return path


class TestFileFormats:
    def test_model_round_trip(self, tmp_path, rng):
        params = random_model(rng, 4)
        path = tmp_path / "model.json"
        cdio.write_model_json(path, params)
        back = cdio.read_model_json(path)
        assert back.graph == params.graph
        np.testing.assert_allclose(back.alpha, params.alpha)
        np.testing.assert_allclose(back.beta, params.beta)

    def test_bipartite_model_round_trip(self, tmp_path):
        graph = Graph.complete_bipartite(2, 2)
        params = ModelParams(graph, [0.1, -0.2, 0.3, 0.4], [0.5, 0.1, -0.2, 0.0])
        path = tmp_path / "model.json"
        cdio.write_model_json(path, params)
        assert cdio.read_model_json(path).graph.bipartition == graph.bipartition

    def test_generator_round_trip(self, tmp_path):
        gen = random_generator(3, seed=2)
        path = tmp_path / "gen.json"
        cdio.write_generator_json(path, gen)
        back = cdio.read_generator_json(path)
        np.testing.assert_allclose(back.rates, gen.rates)

    def test_distribution_csv_round_trip(self, tmp_path, rng):
        dist = full_distribution(random_model(rng, 3))
        path = tmp_path / "dist.csv"
        cdio.write_distribution_csv(path, dist, config={"x": 1})
        back = cdio.read_distribution_csv(path)
        np.testing.assert_allclose(back.probs, dist.probs, rtol=0.0, atol=0.0)

    def test_header_block(self, tmp_path, rng):
        dist = full_distribution(random_model(rng, 2))
        path = tmp_path / "dist.csv"
        config = {"seed": 3}
        cdio.write_distribution_csv(path, dist, config=config)
        text = path.read_text().splitlines()
        assert text[0] == f"# tool_version={cdio.TOOL_VERSION}"
        assert text[1] == f"# config_hash={cdio.config_hash(config)}"

    def test_distribution_csv_with_nan_rejected(self, tmp_path):
        path = tmp_path / "dist.csv"
        path.write_text("subset_bitmask,probability\n0,0.5\n1,nan\n")
        with pytest.raises(ValueError, match="finite"):
            cdio.read_distribution_csv(path)

    def test_csv_floats_round_trip_exactly(self, tmp_path, rng):
        dist = full_distribution(random_model(rng, 4))
        path = tmp_path / "dist.csv"
        cdio.write_distribution_csv(path, dist)
        back = cdio.read_distribution_csv(path)
        assert np.array_equal(back.probs, dist.probs)


# Cells that repeat within a chunk: both signed zeros, nan, the infinities, the least subnormal and the
# +-2^-49 round-off that fills interactions.csv, beside a few normal floats
POOL = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 2.0**-49, -(2.0**-49), 0.25, -1.5, 1e-300]


def pooled(elements, pool=POOL):
    """elements, or a pool cell; the signed zeros get a branch of their own, so both often share a chunk."""
    return st.one_of(st.sampled_from([0.0, -0.0]), st.sampled_from(pool), elements)


@st.composite
def lattice_floats(draw, elements):
    n = draw(st.integers(0, 6))
    return np.array(draw(st.lists(elements, min_size=1 << n, max_size=1 << n)))


def _lattice_bytes(write, payload, reference_rows, columns, chunk):
    """Bytes of a bulk lattice writer (chunked every `chunk` rows) on one CPU and on two, and of write_csv's rows."""
    config = {"seed": 1}
    with tempfile.TemporaryDirectory() as folder:
        paths = [Path(folder) / name for name in ("one_cpu.csv", "two_cpus.csv", "rows.csv")]
        for path, cpus in zip(paths, (1, 2)):
            with mock.patch.object(cdio, "_LATTICE_CHUNK", chunk), n_cpus(cpus):
                write(path, payload, config)
        cdio.write_csv(paths[2], columns, reference_rows, config)
        return [path.read_bytes() for path in paths]


class TestLatticeWriters:
    """The bulk lattice writers emit the bytes write_csv emits for the same rows, in process and from a pool."""

    @settings(max_examples=40)
    @given(lattice_floats(pooled(st.floats(0.0, 1e300), [w for w in POOL if 0.0 <= w < np.inf])), st.integers(1, 5))
    def test_distribution(self, weights, chunk):
        total = weights.sum()
        assume(0.0 < total < np.inf)
        dist = SubsetDist(len(weights).bit_length() - 1, weights / total)
        rows = [(mask, float(p)) for mask, p in enumerate(dist.probs)]
        one_cpu, two_cpus, reference = _lattice_bytes(
            cdio.write_distribution_csv, dist, rows, ("subset_bitmask", "probability"), chunk
        )
        assert one_cpu == two_cpus == reference

    @settings(max_examples=40)
    @given(lattice_floats(pooled(st.floats(allow_nan=True, allow_infinity=True))), st.integers(1, 5))
    def test_interactions(self, values, chunk):
        coeffs = InteractionCoeffs(len(values).bit_length() - 1, values, 0.0)
        rows = [(mask, float(coeffs.coeffs[mask])) for mask in range(1, len(values))]
        one_cpu, two_cpus, reference = _lattice_bytes(
            cdio.write_interactions_csv, coeffs, rows, ("subset_bitmask", "coefficient"), chunk
        )
        assert one_cpu == two_cpus == reference

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_each_distinct_value_is_formatted_once_per_chunk(self, tmp_path, cpus):
        # a writer that formats every row calls _fmt 4095 times here, or bypasses it and leaves no mark;
        # each call appends a line to a file, so calls made in pool workers count too
        values = ([0.0, -0.0, 2.0**-49] * (1 << 12))[: 1 << 12]
        calls = tmp_path / "calls"

        def marked(value):
            with open(calls, "a") as handle:
                handle.write(f"{float(value)!r}\n")
            return f"<{float(value)!r}>"

        with mock.patch.object(cdio, "_LATTICE_CHUNK", 1 << 10), mock.patch.object(cdio, "_fmt", marked), n_cpus(cpus):
            cdio.write_interactions_csv(tmp_path / "c.csv", InteractionCoeffs(12, values, 0.0))
        rows = (tmp_path / "c.csv").read_text().splitlines()[2:]
        assert rows == [f"{mask},<{values[mask]!r}>" for mask in range(1, 1 << 12)]
        assert len(calls.read_text().splitlines()) == 3 * 4

    def test_one_chunk_file_starts_no_process(self, tmp_path, k2_model_file):
        gen_path, config = tmp_path / "gen.json", tmp_path / "run.json"
        cdio.write_generator_json(gen_path, random_generator(6, seed=2))
        write_json(config, {"io": {"model_file": str(k2_model_file), "generator_file": str(gen_path)}})
        refuse = mock.patch("multiprocessing.get_context", side_effect=AssertionError("a process was started"))
        with refuse, n_cpus(2):
            # a 2048-row trajectory and master residual (32 times of 64 subsets) are one chunk each
            assert main(["dynamics", "--config", str(config), "--out", str(tmp_path / "dynamics")]) == 0
            assert main(["model", "--config", str(config), "--out", str(tmp_path / "model")]) == 0
            cdio.write_distribution_csv(tmp_path / "d.csv", SubsetDist(16, np.full(1 << 16, 2.0**-16)))

    def test_pool_is_joined_after_a_multi_chunk_write(self, tmp_path):
        dist = SubsetDist(8, np.full(1 << 8, 2.0**-8))
        with mock.patch.object(cdio, "_LATTICE_CHUNK", 1 << 4), n_cpus(2):
            cdio.write_distribution_csv(tmp_path / "d.csv", dist)
        assert len((tmp_path / "d.csv").read_text().splitlines()) == 1 + 1 + (1 << 8)
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises(self, tmp_path):
        # a pool that loses a worker must raise, not wait for its job forever
        parent = os.getpid()

        def dies_in_worker(value):
            if os.getpid() != parent:
                os._exit(1)
            return repr(value)

        dist = SubsetDist(8, np.full(1 << 8, 2.0**-8))
        with mock.patch.object(cdio, "_LATTICE_CHUNK", 1 << 4), mock.patch.object(cdio, "_fmt", dies_in_worker):
            with n_cpus(2), pytest.raises(BrokenProcessPool):
                cdio.write_distribution_csv(tmp_path / "d.csv", dist)
        assert multiprocessing.active_children() == []

    def test_worker_failure_leaves_no_files(self, tmp_path, k2_model_file, capsys):
        parent, fmt = os.getpid(), cdio._fmt

        def fails_in_worker(value):
            if os.getpid() != parent:
                raise ValueError(f"formatting failed in worker {os.getpid()}")
            return fmt(value)

        out = tmp_path / "out"
        config = tmp_path / "run.json"
        write_json(config, {"io": {"model_file": str(k2_model_file), "out_dir": str(out)}})
        with mock.patch.object(cdio, "_LATTICE_CHUNK", 1), mock.patch.object(cdio, "_fmt", fails_in_worker), n_cpus(2):
            assert main(["model", "--config", str(config)]) == 2
        assert "formatting failed in worker" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        assert multiprocessing.active_children() == []


class TestIOErrors:
    """Write failures that are not config errors, and lost worker processes, exit 5 and leave no output files."""

    def test_dead_worker_during_model_exits_5(self, tmp_path, capsys):
        # n = 17 is two lattice chunks, so with two CPUs the writers use a pool; its worker dies on its first job
        parent = os.getpid()

        def dies_in_worker(value):
            if os.getpid() != parent:
                os._exit(1)
            return repr(float(value))

        cdio.write_model_json(tmp_path / "model.json", ModelParams(Graph(17, ()), np.linspace(-1.0, 1.0, 17), []))
        write_json(tmp_path / "run.json", {"io": {"model_file": str(tmp_path / "model.json")}})
        out = tmp_path / "out"
        with mock.patch.object(cdio, "_fmt", dies_in_worker), n_cpus(2):
            assert main(["model", "--config", str(tmp_path / "run.json"), "--out", str(out)]) == 5
        assert capsys.readouterr().err.startswith("worker process died: ")
        assert list(out.iterdir()) == []
        assert sorted(path.name for path in tmp_path.iterdir()) == ["model.json", "out", "run.json"]  # no stage left
        assert multiprocessing.active_children() == []

    def test_dead_search_worker_exits_5(self, tmp_path, capsys):
        # two restarts on two CPUs run in two forked workers; each dies on its first objective call
        parent, objective = os.getpid(), _SearchProblem.objective

        def dies_in_worker(problem, x):
            if os.getpid() != parent:
                os._exit(1)
            return objective(problem, x)

        config = {"model": "I", "N": 3, "targets": {"alpha": 0.3, "beta": 0.5}, "search": {"restarts": 2}}
        write_json(tmp_path / "run.json", config)
        out = tmp_path / "out"
        with mock.patch.object(_SearchProblem, "objective", dies_in_worker), n_cpus(2):
            assert main(["search", "--config", str(tmp_path / "run.json"), "--out", str(out)]) == 5
        assert capsys.readouterr().err.startswith("worker process died: ")
        assert list(out.iterdir()) == []
        assert sorted(path.name for path in tmp_path.iterdir()) == ["out", "run.json"]  # no stage left
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "command, writer",
        [(["model"], "write_distribution_csv"), (["model", "--fit"], "write_model_json"), (["dynamics"], "write_trajectory_csv")],
    )
    def test_full_disk_exits_5(self, tmp_path, capsys, k2_model_file, command, writer):
        write_json(tmp_path / "targets.json", {"vertex_targets": [0.4, 0.6], "pair_targets": [{"edge": [0, 1], "value": 0.24}]})
        cdio.write_generator_json(tmp_path / "gen.json", random_generator(2, seed=1))
        io_block = {"model_file": str(k2_model_file), "targets_file": str(tmp_path / "targets.json")}
        write_json(tmp_path / "run.json", {"io": {**io_block, "generator_file": str(tmp_path / "gen.json")}})
        out = tmp_path / "out"
        full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        with mock.patch.object(cdio, writer, side_effect=full):
            assert main([command[0], "--config", str(tmp_path / "run.json"), "--out", str(out), *command[1:]]) == 5
        assert capsys.readouterr().err == f"I/O error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert list(out.iterdir()) == []

    def test_config_that_is_a_directory_exits_5(self, tmp_path, capsys):
        assert main(["model", "--config", str(tmp_path)]) == 5
        assert capsys.readouterr().err.startswith("I/O error: [Errno 21]")


def time_slices(draw_floats):
    """(t_grid, one lattice vector per time) with the POOL cells among the draws."""
    cells = pooled(draw_floats)

    @st.composite
    def build(draw):
        n = draw(st.integers(0, 4))
        t_grid = draw(st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=3))
        row = st.lists(cells, min_size=1 << n, max_size=1 << n)
        values = draw(st.lists(row, min_size=len(t_grid), max_size=len(t_grid)))
        return np.array(t_grid), np.array(values).reshape(len(t_grid), 1 << n)

    return build()


def _time_rows(t_grid, values):
    return [(cdio._fmt(t), mask, float(v)) for t, row in zip(t_grid, values) for mask, v in enumerate(row)]


class TestTimeSliceWriters:
    """The trajectory and master-residual writers emit write_csv's bytes for the same rows, in process or pooled."""

    @settings(max_examples=40)
    @given(time_slices(st.floats(0.0, 1.0)), st.integers(1, 5))
    def test_trajectory(self, slices, chunk):
        t_grid, probs = slices
        solution = ForwardSolution(probs.shape[1].bit_length() - 1, t_grid, probs, np.zeros(len(t_grid), bool))
        rows = _time_rows(t_grid, probs)
        one_cpu, two_cpus, reference = _lattice_bytes(
            cdio.write_trajectory_csv, solution, rows, ("t", "subset_bitmask", "probability"), chunk
        )
        assert one_cpu == two_cpus == reference

    @settings(max_examples=40)
    @given(time_slices(st.floats(allow_nan=True, allow_infinity=True)), st.integers(1, 5))
    def test_master_residual(self, slices, chunk):
        t_grid, residuals = slices
        rows = _time_rows(t_grid, residuals)
        one_cpu, two_cpus, reference = _lattice_bytes(
            lambda path, payload, config: cdio.write_master_residual_csv(path, t_grid, payload, config),
            residuals,
            rows,
            ("t", "subset_bitmask", "residual"),
            chunk,
        )
        assert one_cpu == two_cpus == reference


class TestCmdModel:
    def test_distribution_output(self, tmp_path, k2_model_file):
        out = tmp_path / "out"
        config = {"io": {"model_file": str(k2_model_file), "out_dir": str(out)}}
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, config)
        assert main(["model", "--config", str(cfg_path)]) == 0
        dist = cdio.read_distribution_csv(out / "distribution.csv")
        assert dist.probs[3] == pytest.approx(0.4, abs=1e-14)
        assert (out / "ising.json").exists()
        assert (out / "interactions.csv").exists()

    def test_pipeline_round_trip(self, tmp_path, rng):
        params = random_model(rng, 4)
        model_path = tmp_path / "model.json"
        cdio.write_model_json(model_path, params)
        out = tmp_path / "out"
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, {"io": {"model_file": str(model_path), "out_dir": str(out)}})
        assert main(["model", "--config", str(cfg_path)]) == 0
        dist = cdio.read_distribution_csv(out / "distribution.csv")
        coeffs = extract_interactions(dist)
        for u in range(4):
            assert coeffs.single(u) == pytest.approx(params.alpha[u], abs=1e-10)
        for (u, v), b in zip(params.graph.edges, params.beta):
            assert coeffs.pair(u, v) == pytest.approx(b, abs=1e-10)

    def test_fit_with_product_targets(self, tmp_path, k2_model_file):
        targets = {
            "vertex_targets": [0.4, 0.6],
            "pair_targets": [{"edge": [0, 1], "value": 0.24}],
        }
        targets_path = tmp_path / "targets.json"
        write_json(targets_path, targets)
        out = tmp_path / "out"
        cfg_path = tmp_path / "run.json"
        write_json(
            cfg_path,
            {
                "io": {
                    "model_file": str(k2_model_file),
                    "targets_file": str(targets_path),
                    "out_dir": str(out),
                }
            },
        )
        assert main(["model", "--config", str(cfg_path), "--fit"]) == 0
        fitted = cdio.read_model_json(out / "fitted_model.json")
        np.testing.assert_allclose(fitted.beta, 0.0, atol=1e-6)

    def test_infeasible_fit_exits_3(self, tmp_path, k2_model_file):
        targets_path = tmp_path / "targets.json"
        write_json(
            targets_path,
            {"vertex_targets": [0.3, 0.5], "pair_targets": [{"edge": [0, 1], "value": 0.4}]},
        )
        cfg_path = tmp_path / "run.json"
        write_json(
            cfg_path,
            {
                "io": {
                    "model_file": str(k2_model_file),
                    "targets_file": str(targets_path),
                    "out_dir": str(tmp_path / "out"),
                }
            },
        )
        assert main(["model", "--config", str(cfg_path), "--fit"]) == 3

    def test_fit_that_does_not_converge_exits_4(self, tmp_path, capsys, monkeypatch, k2_model_file):
        # one sweep from the product start cannot reach a pair target of 0.3
        monkeypatch.setattr(cdmodel, "_FIT_SWEEPS", 1)
        targets_path = tmp_path / "targets.json"
        write_json(targets_path, {"vertex_targets": [0.4, 0.6], "pair_targets": [{"edge": [0, 1], "value": 0.3}]})
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, {"io": {"model_file": str(k2_model_file), "targets_file": str(targets_path)}})
        out = tmp_path / "out"
        assert main(["model", "--config", str(cfg_path), "--out", str(out), "--fit"]) == 4
        assert "numeric failure: moment fit did not reach tol=1e-08 in 1 sweeps" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_lattice_files_equal_row_writer(self, tmp_path, rng):
        # interactions.csv at n=10 is mostly round-off that repeats (0.0, -0.0, +-2^-k), as at the n=20 cap
        params = ModelParams(Graph.complete(10), rng.uniform(-1.5, 1.5, 10), rng.uniform(-1.0, 1.0, 45))
        cdio.write_model_json(tmp_path / "model.json", params)
        config = {"io": {"model_file": str(tmp_path / "model.json")}}
        write_json(tmp_path / "run.json", config)
        assert main(["model", "--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "out")]) == 0
        dist = full_distribution(params)
        coeffs = extract_interactions(dist).coeffs
        assert len(np.unique(coeffs.view(np.int64))) < len(coeffs) // 2
        for name, columns, values, first in (
            ("distribution.csv", ("subset_bitmask", "probability"), dist.probs, 0),
            ("interactions.csv", ("subset_bitmask", "coefficient"), coeffs, 1),
        ):
            cdio.write_csv(tmp_path / name, columns, [(m, float(values[m])) for m in range(first, 1 << 10)], config)
            assert (tmp_path / "out" / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["model", "--config", str(tmp_path / "nope.json")]) == 2

    def test_missing_model_file_key_exits_2(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, {"io": {"out_dir": str(tmp_path / "out")}})
        assert main(["model", "--config", str(cfg_path)]) == 2


class TestCmdDynamics:
    def test_independent_reports(self, tmp_path):
        alpha_path = tmp_path / "alpha.json"
        write_json(alpha_path, {"alpha": [0.0, 0.0]})
        out = tmp_path / "out"
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, {"io": {"out_dir": str(out)}, "numerics": {"grid_points": 8}})
        code = main(
            ["dynamics", "--config", str(cfg_path), "--independent", str(alpha_path), "1.0"]
        )
        assert code == 0
        header = (out / "membership.csv").read_text().splitlines()
        peak = [float(l.split("=")[1]) for l in header if l.startswith("# max_residual")][0]
        assert peak <= 1e-9

    def test_independent_flag_is_the_hashed_block(self, tmp_path):
        # the flag's runs used to write one config_hash for every alpha file and horizon
        numerics = {"grid_points": 8}
        flag_path, alpha_path, block_path = tmp_path / "flag.json", tmp_path / "alpha.json", tmp_path / "block.json"
        write_json(flag_path, {"numerics": numerics})
        heads = set()
        for alpha, horizon in (([0.3, -0.7], 1.0), ([1.5, 0.2], 1.0), ([0.3, -0.7], 2.0)):
            write_json(alpha_path, {"alpha": alpha})
            block = {"numerics": numerics, "independent": {"alpha": alpha}, "horizon": horizon}
            write_json(block_path, block)
            outputs = []
            for name, argv in (
                ("flag", ["--config", str(flag_path), "--independent", str(alpha_path), repr(horizon)]),
                ("block", ["--config", str(block_path)]),
            ):
                out = tmp_path / f"{name}{len(heads)}"
                assert main(["dynamics", *argv, "--out", str(out)]) == 0
                outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
            assert outputs[0] == outputs[1]
            head = f"# config_hash={cdio.config_hash(block)}"
            assert {data.decode().splitlines()[1] for data in outputs[0].values()} == {head}
            heads.add(head)
        assert len(heads) == 3

    def test_empty_cell_matches_exit_rate(self, tmp_path):
        gen = random_generator(3, seed=4)
        gen_path = tmp_path / "gen.json"
        cdio.write_generator_json(gen_path, gen)
        out = tmp_path / "out"
        cfg_path = tmp_path / "run.json"
        write_json(
            cfg_path,
            {
                "io": {"generator_file": str(gen_path), "out_dir": str(out)},
                "numerics": {"grid_points": 8},
            },
        )
        assert main(["dynamics", "--config", str(cfg_path)]) == 0
        empty_rows = [
            line.split(",")
            for line in (out / "trajectory.csv").read_text().splitlines()
            if not line.startswith(("#", "t,")) and line.split(",")[1] == "0"
        ]
        for t_text, _, p_text in empty_rows:
            assert float(p_text) == pytest.approx(
                np.exp(-gen.r_empty * float(t_text)), abs=1e-9
            )

    def test_generic_triple_residual_recorded(self, tmp_path):
        gen = random_generator(3, seed=4)
        gen_path = tmp_path / "gen.json"
        cdio.write_generator_json(gen_path, gen)
        out = tmp_path / "out"
        cfg_path = tmp_path / "run.json"
        write_json(
            cfg_path,
            {
                "io": {"generator_file": str(gen_path), "out_dir": str(out)},
                "numerics": {"grid_points": 8},
            },
        )
        assert main(["dynamics", "--config", str(cfg_path)]) == 0
        rows = [
            line.split(",")
            for line in (out / "master_residual.csv").read_text().splitlines()
            if not line.startswith(("#", "t,")) and line.split(",")[1] == "7"
        ]
        assert max(abs(float(r[2])) for r in rows) > 1e-3

    def test_overflowing_pair_curve_writes_finite_files(self, tmp_path):
        # c = R_empty - R_{01} is about -900: e^{c0 t} underflows and phi_minus(a t) overflows on the grid
        gen = random_generator(3, seed=1)
        rates = gen.rates.copy()
        rates[0b011, 2] = 900.0
        gen_path = tmp_path / "gen.json"
        cdio.write_generator_json(gen_path, MonotoneGenerator(3, rates))
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, {"io": {"generator_file": str(gen_path)}})
        out = tmp_path / "out"
        assert main(["dynamics", "--config", str(cfg_path), "--out", str(out)]) == 0
        files = sorted(out.iterdir())
        assert [f.name for f in files] == ["curves.csv", "master_residual.csv", "membership.csv", "trajectory.csv"]
        for f in files:
            text = f.read_text().lower()
            assert "nan" not in text and "inf" not in text, f.name

    def test_overflowing_residual_is_written_as_minus_inf(self, tmp_path):
        # q e^{-alpha_u - sum beta} for the full set exceeds the float range at t = 0.9; its residual rounds to -inf
        gen_path = tmp_path / "gen.json"
        cdio.write_generator_json(gen_path, fast_exit_generator())
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, {"io": {"generator_file": str(gen_path)}, "horizon": 0.9})
        out = tmp_path / "out"
        assert main(["dynamics", "--config", str(cfg_path), "--out", str(out)]) == 0
        for f in sorted(out.iterdir()):
            assert "nan" not in f.read_text().lower(), f.name
        rows = (out / "master_residual.csv").read_text().splitlines()
        assert [row for row in rows if "inf" in row] == ["0.9,7,-inf"]

    def test_underflowing_alpha_writes_exact_beta_prime(self, tmp_path):
        # at the horizon 0.895 every e^{-alpha} is subnormal or 0; beta' in curves.csv was off by up to 1.1e-3 of itself
        gen = fast_exit_generator()
        gen_path = tmp_path / "gen.json"
        cdio.write_generator_json(gen_path, gen)
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, {"io": {"generator_file": str(gen_path)}, "horizon": 0.895})
        out = tmp_path / "out"
        assert main(["dynamics", "--config", str(cfg_path), "--out", str(out)]) == 0
        for f in sorted(out.iterdir()):
            text = f.read_text().lower()
            assert "nan" not in text and "inf" not in text, f.name
        rows = [line.split(",") for line in (out / "curves.csv").read_text().splitlines()[3:]]
        last = {row[1]: float(row[4]) for row in rows if row[0] == "0.895" and row[2] == "beta"}
        pairs = curves_from_rates(gen, horizon=0.895).pair_curves
        assert sorted(last) == sorted(f"e{u}-{v}" for u, v in pairs)
        for (u, v), (q_u, d_u, q_v, d_v, drive_u, drive_v, c) in pairs.items():
            exact = beta_pair_mp(q_u, d_u, q_v, d_v, drive_v, drive_u, c, 0.895, order=1)
            assert last[f"e{u}-{v}"] == pytest.approx(float(exact), rel=1e-13)

    def test_forward_law_is_solved_once(self, tmp_path):
        # membership.csv reads the law written to trajectory.csv instead of solving again
        gen_path = tmp_path / "gen.json"
        cdio.write_generator_json(gen_path, random_generator(3, seed=2))
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, {"io": {"generator_file": str(gen_path)}, "numerics": {"grid_points": 6}})
        with mock.patch("corrdefault.consistency.forward_solve", side_effect=AssertionError("solved again")):
            assert main(["dynamics", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0

    def test_curves_rows_equal_scalar_evaluation(self, tmp_path):
        from corrdefault._num import geometric_grid
        from corrdefault.consistency import curves_from_rates

        gen = random_generator(4, seed=3)
        grid = geometric_grid(1.0, 5)
        curves = curves_from_rates(gen, t_grid=grid)
        cdio.write_curves_csv(tmp_path / "curves.csv", curves, grid)
        expected = []
        for t in grid:
            alpha, alpha_prime, _ = curves.alpha(float(t))
            expected += [(t, f"v{u}", alpha[u], alpha_prime[u]) for u in range(4)]
            for u, v in sorted(curves.pair_curves):
                expected.append((t, f"e{u}-{v}", *curves.beta(u, v, float(t))))
        rows = [
            line.split(",")
            for line in (tmp_path / "curves.csv").read_text().splitlines()
            if not line.startswith(("#", "t,"))
        ]
        assert [(float(r[0]), r[1], float(r[3]), float(r[4])) for r in rows] == [
            (float(t), name, float(a), float(b)) for t, name, a, b in expected
        ]

    def test_byte_identical_reruns(self, tmp_path):
        gen_path = tmp_path / "gen.json"
        cdio.write_generator_json(gen_path, random_generator(3, seed=7))
        cfg_path = tmp_path / "run.json"
        write_json(
            cfg_path,
            {
                "io": {"generator_file": str(gen_path), "out_dir": str(tmp_path / "a")},
                "numerics": {"grid_points": 6},
            },
        )
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["dynamics", "--config", str(cfg_path), "--out", str(out)]) == 0
            outputs.append(
                {name.name: name.read_bytes() for name in sorted(out.iterdir())}
            )
        assert outputs[0] == outputs[1]

    def test_zero_probability_cells_exit_4(self, tmp_path):
        # no path enters {0, 1, 2}; membership then has an empty cell, a numeric failure
        gen_path = tmp_path / "gen.json"
        cdio.write_generator_json(gen_path, unreachable_triple_generator())
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, {"io": {"generator_file": str(gen_path), "out_dir": str(tmp_path / "out")}})
        assert main(["dynamics", "--config", str(cfg_path)]) == 4

    def test_failed_run_leaves_nothing_behind(self, tmp_path):
        # this run fails (exit 4) after trajectory.csv and curves.csv have been written
        gen_path = tmp_path / "gen.json"
        cdio.write_generator_json(gen_path, unreachable_triple_generator())
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, {"io": {"generator_file": str(gen_path)}})
        fresh, existing = tmp_path / "fresh", tmp_path / "existing"
        existing.mkdir()
        (existing / "trajectory.csv").write_text("earlier run\n")
        (existing / "notes.txt").write_text("kept\n")
        for out in (fresh, existing):
            assert main(["dynamics", "--config", str(cfg_path), "--out", str(out)]) == 4
        assert list(fresh.iterdir()) == []
        assert {p.name: p.read_text() for p in existing.iterdir()} == {
            "trajectory.csv": "earlier run\n",
            "notes.txt": "kept\n",
        }
        assert sorted(p.name for p in tmp_path.iterdir()) == ["existing", "fresh", "gen.json", "run.json"]

    @pytest.mark.parametrize("n,seed", [(10, seed) for seed in range(10)] + [(12, 1)])
    def test_valid_generators_exit_0(self, tmp_path, n, seed):
        # small cells of order t^|A| stay positive, so membership has no empty cell
        gen_path = tmp_path / "gen.json"
        cdio.write_generator_json(gen_path, random_generator(n, seed=seed))
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, {"io": {"generator_file": str(gen_path)}})
        assert main(["dynamics", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == ["curves.csv", "master_residual.csv", "membership.csv", "trajectory.csv"]

    @pytest.mark.parametrize("numerics", [{"rtol": 1e-9}, {"atol": 1e-12, "grid_points": 8}, {"grid_point": 8}])
    def test_unknown_numerics_key_exits_2(self, tmp_path, capsys, numerics):
        gen_path = tmp_path / "gen.json"
        cdio.write_generator_json(gen_path, random_generator(3, seed=1))
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, {"io": {"generator_file": str(gen_path)}, "numerics": numerics})
        assert main(["dynamics", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "unknown numerics key" in err
        for key in set(numerics) - {"grid_points"}:
            assert repr(key) in err
        assert not (tmp_path / "out").exists()

    def test_missing_generator_exits_2(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, {"io": {"out_dir": str(tmp_path / "out")}})
        assert main(["dynamics", "--config", str(cfg_path)]) == 2


class TestCmdSearch:
    def _run(self, tmp_path, config):
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, config)
        return main(["search", "--config", str(cfg_path)])

    def test_model_I_zero_target(self, tmp_path):
        out = tmp_path / "out"
        code = self._run(
            tmp_path,
            {
                "model": "I",
                "N": 4,
                "targets": {"alpha": 0.3, "beta": 0.0},
                "search": {"restarts": 2, "seed": 0},
                "io": {"out_dir": str(out)},
            },
        )
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["residual_floor"] < 1e-6
        assert (out / "restarts.csv").exists()

    def test_model_I_infeasible_target_still_exits_0(self, tmp_path):
        out = tmp_path / "out"
        code = self._run(
            tmp_path,
            {
                "model": "I",
                "N": 4,
                "targets": {"alpha": 0.3, "beta": 0.5},
                "search": {"restarts": 2, "seed": 0},
                "io": {"out_dir": str(out)},
            },
        )
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["residual_floor"] > 1e-2

    def test_model_II_coeff_report(self, tmp_path):
        out = tmp_path / "out"
        code = self._run(
            tmp_path,
            {
                "model": "II",
                "M": 3,
                "N": 3,
                "targets": {"alpha": 0.3, "beta": 0.5},
                "search": {"restarts": 1, "seed": 0},
                "io": {"out_dir": str(out)},
            },
        )
        assert code == 0
        report = json.loads((out / "coeff_check.json").read_text())
        assert report["inconsistency"] == pytest.approx(2.0 * np.exp(0.5) - 2.0, abs=1e-12)

    def test_seed_override_is_hashed(self, tmp_path):
        config = {
            "model": "I",
            "N": 3,
            "targets": {"alpha": 0.3, "beta": 0.5},
            "search": {"restarts": 1, "max_iter": 200},
        }
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, config)
        headers = {}
        for seed in (None, "0", "7"):
            out = tmp_path / f"out{seed}"
            argv = ["search", "--config", str(cfg_path), "--out", str(out)]
            assert main(argv + (["--seed", seed] if seed else [])) == 0
            lines = (out / "restarts.csv").read_text().splitlines()
            headers[seed] = lines[1]
            assert lines[2] == "restart,n_evaluations,objective,terminal_mismatch,residual_max"
            meta = json.loads((out / "result.json").read_text())["meta"]
            assert lines[1] == f"# config_hash={meta['config_hash']}"
        assert headers[None] == f"# config_hash={cdio.config_hash(config)}"
        assert len(set(headers.values())) == 3

    def test_invalid_size_exits_2(self, tmp_path):
        code = self._run(
            tmp_path,
            {
                "model": "I",
                "N": 1,
                "targets": {"alpha": 0.3, "beta": 0.0},
                "io": {"out_dir": str(tmp_path / "out")},
            },
        )
        assert code == 2

    def test_model_I_with_two_vertices_exits_2(self, tmp_path, capsys):
        config = {"model": "I", "N": 2, "targets": {"alpha": 0.3, "beta": 0.0}, "io": {"out_dir": str(tmp_path / "out")}}
        assert self._run(tmp_path, config) == 2
        assert "N >= 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, patch, message",
        [
            ("search", {"search": {"max_iter": 0}}, "max_iter must be a positive integer or None, got 0"),
            ("search", {"search": {"max_iter": 2.5}}, "max_iter must be a positive integer or None, got 2.5"),
            ("search", {"horizon": float("nan")}, "horizon must be finite and positive, got nan"),
            ("search", {"numerics": {"t_min_fraction": 2.0}}, "t_min_fraction must lie in (0, 1), got 2.0"),
            ("dynamics", {"horizon": float("inf")}, "horizon must be finite and positive, got inf"),
            ("dynamics", {"numerics": {"t_min_fraction": 2.0}}, "t_min_fraction must lie in (0, 1), got 2.0"),
            ("search", {"numerics": {"grid_points": 8.7}}, "grid_points must be an integer of at least 2, got 8.7"),
            ("search", {"numerics": {"grid_points": True}}, "grid_points must be an integer of at least 2, got True"),
            ("dynamics", {"numerics": {"grid_points": 8.7}}, "grid_points must be an integer of at least 2, got 8.7"),
            # the first two ran as N = 4 and M = 3, and true was read as N = 1
            ("search", {"N": 4.5}, "Model I size N must be an integer, got 4.5"),
            ("search", {"model": "II", "M": "3", "N": 3}, "Model II size M must be an integer, got '3'"),
            ("search", {"N": True}, "Model I size N must be an integer, got True"),
        ],
    )
    def test_bad_numerics_exit_2(self, tmp_path, capsys, command, patch, message):
        # the search cases used to exit 0, with a warm-start floor, a NaN floor or times past the horizon;
        # dynamics exited 2 without naming the bad knob; both ran grid_points 8.7 as 8
        gen_path = tmp_path / "gen.json"
        cdio.write_generator_json(gen_path, random_generator(3, seed=1))
        config = {"model": "I", "N": 3, "targets": {"alpha": 0.3, "beta": 0.0}, "io": {"generator_file": str(gen_path)}}
        config.update(patch)
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, config)
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "search, message",
        [
            ({"restarts": 0}, "restarts must be at least 1, got 0"),
            (5, "search must be a JSON object"),
            ([["seed", 1]], "search must be a JSON object"),
            ({"restarts": 2.5}, "restarts must be an integer, got 2.5"),
            ({"restarts": True}, "restarts must be an integer, got True"),
            ({"seed": 1.9}, "seed must be an integer, got 1.9"),
            ({"seed": -1}, "seed must be at least 0, got -1"),
        ],
    )
    def test_bad_search_knobs_exit_2(self, tmp_path, capsys, search, message):
        # restarts 2.5 ran 2 restarts and True 1, and seed 1.9 ran seed 1; a search block that is not an
        # object exited 2 naming only a TypeError, and [["seed", 1]] ran seed 1
        config = {"model": "I", "N": 3, "targets": {"alpha": 0.3, "beta": 0.0}, "search": search}
        config["io"] = {"out_dir": str(tmp_path / "out")}
        assert self._run(tmp_path, config) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "search", [{"restart": 1}, {"restarts": 1, "seeds": 3, "maxiter": 5}, {"penalty_weight": 1e4}]
    )
    def test_unknown_search_key_exits_2(self, tmp_path, capsys, search):
        # {"restart": 1} used to run the default 16 restarts and exit 0; penalty_weight is a constant now
        config = {"model": "I", "N": 3, "targets": {"alpha": 0.3, "beta": 0.0}, "search": search}
        config["io"] = {"out_dir": str(tmp_path / "out")}
        assert self._run(tmp_path, config) == 2
        err = capsys.readouterr().err
        assert "unknown search key" in err
        for key in set(search) - {"restarts"}:
            assert repr(key) in err
        assert not (tmp_path / "out").exists()

    def test_rejected_warm_table_exits_0(self, tmp_path, monkeypatch):
        # a warm table with a zero rate exited 2 with "interior lumped rates must be positive"
        reject_restart_1(monkeypatch)
        for cpus in (1, 2):
            out = tmp_path / f"out{cpus}"
            config = {"model": "II", "M": 3, "N": 3, "targets": {"alpha": 0.3, "beta": 0.25}}
            config.update(search={"restarts": 4, "seed": 975633704}, io={"out_dir": str(out)})
            with n_cpus(cpus):
                assert self._run(tmp_path, config) == 0
            rows = (out / "restarts.csv").read_text().splitlines()[3:]
            assert rows[1] == "1,420,inf,inf,inf"
            assert json.loads((out / "result.json").read_text())["best_index"] != 1

    @pytest.mark.parametrize(
        "model",
        [
            {"model": "I", "N": 4, "targets": {"alpha": 0.3, "beta": 0.5}},
            {"model": "II", "M": 3, "N": 3, "targets": {"alpha": 0.3, "beta": 0.0}},
            {"model": "III", "M": 4, "N": 3, "targets": {"alpha_hat": 0.5, "alpha_check": -0.5, "beta": 0.1}},
        ],
    )
    def test_outputs_are_the_same_on_one_and_two_cpus(self, tmp_path, model):
        write_json(tmp_path / "run.json", {**model, "search": {"restarts": 3, "seed": 11, "max_iter": 200}})
        outputs = []
        for cpus in (1, 2):
            out = tmp_path / f"out{cpus}"
            with n_cpus(cpus):
                assert main(["search", "--config", str(tmp_path / "run.json"), "--out", str(out)]) == 0
            outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        assert sorted(outputs[0]) == ["coeff_check.json", "restarts.csv", "result.json"]
        assert outputs[0] == outputs[1]
        assert multiprocessing.active_children() == []

    def test_no_warm_table_exits_4(self, tmp_path, capsys):
        def reject(problem, outer_x):
            raise ValueError("interior lumped rates must be positive and finite")

        config = {"model": "III", "M": 3, "N": 2, "targets": {"alpha_hat": 0.3, "alpha_check": 0.1, "beta": 0.0}}
        config.update(search={"restarts": 2}, io={"out_dir": str(tmp_path / "out")})
        with mock.patch.object(_SearchProblem, "assemble", reject):
            assert self._run(tmp_path, config) == 4
        assert "numeric failure: no warm start of the 2 restart(s) gave a valid rate table" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []


class TestConfigChecks:
    @pytest.mark.parametrize("command", ["model", "dynamics", "search"])
    @pytest.mark.parametrize(
        "config, message",
        [
            ([1, 2], "config must be a JSON object"),
            ({"horizn": 2.0}, "unknown config key(s): 'horizn'"),
            ({"io": 5}, "io must be a JSON object"),
            ({"io": {"model_fle": "m.json", "gen_file": "g.json"}}, "unknown io key(s): 'gen_file', 'model_fle'"),
            ({"numerics": [32]}, "numerics must be a JSON object"),
            ({"search": {"seed": 1, "penalty_weight": 1e4}}, "unknown search key(s): 'penalty_weight'"),
            ({"independent": [0.3, -0.7]}, "independent must be a JSON object"),
            ({"independent": {"alpha": [0.3, -0.7], "horizon": 2.0}}, "unknown independent key(s): 'horizon'"),
        ],
    )
    def test_every_block_is_checked(self, tmp_path, capsys, command, config, message):
        # {"io": 5} exited 1 with an AttributeError, {"horizn": 2.0} ran at horizon 1.0, and a block
        # horizon overrode the top-level one without its check
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, config)
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["model", "dynamics"])
    def test_seed_is_a_search_flag(self, tmp_path, capsys, command):
        # model and dynamics parsed --seed and never read it
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, {})
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg_path), "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["independent_alpha", "model_alpha", "vertex_targets", "search_M"])
    def test_missing_keys_are_named(self, tmp_path, capsys, k2_model_file, case):
        # the first three printed only the key's repr, as config error: 'alpha'
        targets, out = tmp_path / "targets.json", tmp_path / "out"
        write_json(targets, {"pair_targets": []})
        model = tmp_path / "no_alpha.json"
        write_json(model, {"n_vertices": 2, "edges": [[0, 1]]})
        cfg_path = tmp_path / "run.json"
        argv, config, named = {
            "independent_alpha": (["dynamics"], {"independent": {}}, f"{cfg_path} has no key 'alpha'"),
            "model_alpha": (["model"], {"io": {"model_file": str(model)}}, f"{model} has no key 'alpha'"),
            "vertex_targets": (
                ["model", "--fit"],
                {"io": {"model_file": str(k2_model_file), "targets_file": str(targets)}},
                f"{targets} has no key 'vertex_targets'",
            ),
            "search_M": (
                ["search"],
                {"model": "II", "N": 3, "targets": {"alpha": 0.3, "beta": 0.0}},
                f"{cfg_path} has no key 'M'",
            ),
        }[case]
        write_json(cfg_path, config)
        assert main([*argv, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {named}\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", ["pair_target", "model_beta"])
    def test_pair_on_a_non_edge_is_named(self, tmp_path, capsys, case):
        # both printed only the pair's repr, as config error: (0, 2)
        model, targets, out = tmp_path / "model.json", tmp_path / "targets.json", tmp_path / "out"
        beta = [{"edge": [1, 2], "value": 0.5}] if case == "model_beta" else []
        write_json(model, {"n_vertices": 3, "edges": [[0, 1]], "alpha": [0.1, 0.2, 0.3], "beta": beta})
        write_json(targets, {"vertex_targets": [0.3, 0.3, 0.3], "pair_targets": [{"edge": [0, 2], "value": 0.1}]})
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, {"io": {"model_file": str(model), "targets_file": str(targets)}})
        assert main(["model", "--fit", "--config", str(cfg_path), "--out", str(out)]) == 2
        pair = {"pair_target": "(0, 2)", "model_beta": "(1, 2)"}[case]
        assert capsys.readouterr().err == f"config error: {pair} is not an edge of the graph\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", ["model_file", "generator_file", "targets_file", "alpha_file", "out_is_a_file"])
    def test_bad_paths_exit_2(self, tmp_path, capsys, k2_model_file, case):
        # each exited 1 with a FileNotFoundError or FileExistsError traceback
        missing, out = str(tmp_path / "missing.json"), tmp_path / "out"
        model = str(k2_model_file)
        argv, io_block, named = {
            "model_file": (["model"], {"model_file": missing}, missing),
            "generator_file": (["dynamics"], {"generator_file": missing}, missing),
            "targets_file": (["model", "--fit"], {"model_file": model, "targets_file": missing}, missing),
            "alpha_file": (["dynamics", "--independent", missing, "1.0"], {}, missing),
            "out_is_a_file": (["model"], {"model_file": model}, str(out)),
        }[case]
        if case == "out_is_a_file":
            out.write_text("kept\n")
        cfg_path = tmp_path / "run.json"
        write_json(cfg_path, {"io": io_block})
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        assert main([*argv, "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before
