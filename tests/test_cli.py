"""Pipeline configuration and the command line driver."""

import dataclasses
import json
import os
import shutil
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.io as sio

import sgmor as sg
from sgmor import cli, descriptor
from sgmor.cli import main
from sgmor.descriptor import DescriptorSystem
from sgmor.mor import ReducedSystem, arnoldi_reduce
from sgmor.solver import RESIDUAL_RTOL, PoleProximityError
from sgmor.config import PipelineConfig, load_config

FAST_CONFIG = """\
netlist: "builtin:lowpass"
basis:
  degree: 1
frequency_grid:
  decade_min: 3.0
  decade_max: 7.0
  points_per_decade: 8
sparsify:
  norm: h2
  mode: threshold
  delta: 1.0e-2
  downsize_sweep: [2, 22, 10]
mor:
  s0: 5.0e+5
  r: 20
  r_sweep: [5, 20, 5]
transient:
  enabled: true
  horizon: 2.0e-4
  step: 1.0e-6
seed: 7
"""


def write_config(tmp_path: Path, text: str = FAST_CONFIG) -> Path:
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return path


ARTIFACTS = [
    "galerkin_E.mtx",
    "galerkin_A.mtx",
    "galerkin_B.mtx",
    "galerkin_C.mtx",
    "basis_map.json",
    "resolved_config.json",
    "samples.npz",
    "norms.csv",
    "norms.json",
    "theta_h2.csv",
    "theta_hinf.csv",
    "table1.csv",
    "selection.json",
    "theorem1.json",
    "downsize_bounds.csv",
    "downsize_solver.json",
    "reduce_bounds.csv",
    "reduced_E.mtx",
    "reduced_A.mtx",
    "reduced_B.mtx",
    "reduced_C.mtx",
    "projection_T.npy",
    "theorem2_mor.json",
    "reduce_solver.json",
    "singular_values.csv",
    "kappa.csv",
    "deflation.csv",
    "trajectory.csv",
    "trajectory_meta.json",
    "report.json",
]


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.netlist == "builtin:lowpass"
        assert cfg.mor.s0 == 5.0e5
        assert cfg.mor.deflation_thresholds == (1e-4, 1e-8, 1e-12)

    def test_load_and_hash_stability(self, tmp_path):
        path = write_config(tmp_path)
        a, b = load_config(path), load_config(path)
        assert a.hash() == b.hash()
        assert len(a.hash()) == 16

    def test_hash_changes_with_content(self, tmp_path):
        a = load_config(write_config(tmp_path))
        b = load_config(write_config(tmp_path, FAST_CONFIG.replace("seed: 7", "seed: 8")))
        assert a.hash() != b.hash()

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("nonsense: 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(path)
        path.write_text("mor:\n  wrong: 2\n")
        with pytest.raises(ValueError, match="unknown MorConfig keys"):
            load_config(path)

    def test_quadrature_section_rejected(self, tmp_path):
        # no stage reads a quadrature setting, so the section does not exist
        path = tmp_path / "bad.yaml"
        path.write_text("quadrature:\n  mode: auto\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(path)

    def test_invalid_enums_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("sparsify:\n  norm: h3\n")
        with pytest.raises(ValueError, match="h2 or hinf"):
            load_config(path)


    @pytest.mark.parametrize(
        "text, message",
        [
            ("sparsify:\n  downsize_sweep: [10, 250]\n", "sparsify.downsize_sweep must be [start, stop, step]"),
            ("mor:\n  r_sweep: [40, 20, 10]\n", "mor.r_sweep must be [start, stop, step]"),
            ("sparsify:\n  mode: top_n\n", "sparsify.mode must be threshold or top_k, got 'top_n'"),
            ("sparsify:\n  mode: top_k\n", "sparsify.k must be an integer >= 1 in mode top_k, got None"),
            ("sparsify:\n  delta: 0.0\n", "sparsify.delta must be > 0 in mode threshold, got 0.0"),
            ("transient:\n  input: square\n", "transient.input must be one of"),
            ("basis:\n  degree: -1\n", "basis.degree must be an integer >= 0, got -1"),
            ("frequency_grid:\n  points_per_decade: 0\n", "frequency_grid.points_per_decade must be >= 1"),
            ("frequency_grid:\n  decade_min: 10.0\n", "frequency_grid.decade_min must be below decade_max"),
            ("mor:\n  r: 0\n", "mor.r must be an integer >= 1, got 0"),
            ("transient:\n  step: -1.0e-6\n", "transient.step must be > 0"),
            ("transient:\n  horizon: 0.0\n", "transient.horizon must be > 0"),
            ('transient:\n  enabled: "false"\n', "transient.enabled must be true or false, got 'false'"),
            ("frequency_grid:\n  include_zero: 1\n", "frequency_grid.include_zero must be true or false, got 1"),
            ("mor:\n  s0: .nan\n", "mor.s0 must be a finite real number, got nan"),
            ("mor:\n  deflation_thresholds: [-1.0]\n", "mor.deflation_thresholds must be a list of numbers > 0"),
            ("sparsify:\n  table_deltas: [-0.1]\n", "sparsify.table_deltas must be a list of numbers >= 0"),
            ("output_dir: null\n", "output_dir must be a string, got None"),
            ("netlist: null\n", "netlist must be a string, got None"),
            ("seed: 1.5\n", "seed must be an integer, got 1.5"),
            ("seed: true\n", "seed must be an integer, got True"),
            ("basis: 5\n", "basis must be a mapping of its settings, got 5"),
            ("basis: [1\n", "not valid YAML at line 2, column 1: expected ',' or ']', but got '<stream end>'"),
            ("transient:\n  horizon: .inf\n", "transient.horizon must be > 0 and finite, got inf"),
            ("transient:\n  step: .inf\n", "transient.step must be > 0 and finite, got inf"),
            ("frequency_grid:\n  decade_max: .inf\n", "frequency_grid.decade_max must be a finite real number, got inf"),
            ("frequency_grid:\n  decade_min: -.inf\n", "frequency_grid.decade_min must be below decade_max = 10.0 and finite"),
            ("frequency_grid:\n  points_per_decade: .inf\n", "frequency_grid.points_per_decade must be >= 1 and finite"),
            ("transient:\n  horizon: 1.0e-6\n  step: 3.0e-6\n",
             "transient.step must be at most transient.horizon = 1e-06, got 3e-06"),
        ],
        ids=[
            "downsize-sweep", "r-sweep", "mode", "top-k-without-k", "threshold-delta", "transient-input",
            "degree", "points-per-decade", "decades", "mor-r", "transient-step", "transient-horizon",
            "transient-enabled", "include-zero", "s0", "deflation-thresholds", "table-deltas",
            "output-dir-null", "netlist-null", "seed-float", "seed-bool", "section-scalar", "yaml-syntax",
            "transient-horizon-inf", "transient-step-inf", "decade-max-inf", "decade-min-inf",
            "points-per-decade-inf", "step-above-horizon",
        ],
    )
    def test_invalid_value_rejected_before_any_stage(self, tmp_path, capsys, text, message):
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"sgmor: error: config: {message}") and err.count("\n") == 1
        assert not out.exists()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_run")
    cfg = write_config(tmp)
    out = tmp / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return out, cfg


@pytest.fixture(scope="module")
def rerun_dir(run_dir, tmp_path_factory):
    _, cfg = run_dir
    out = tmp_path_factory.mktemp("cli_rerun") / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return out


REDUCED = ["reduced_E.mtx", "reduced_A.mtx", "reduced_B.mtx", "reduced_C.mtx"]
REDUCE_ARTIFACTS = [
    "reduce_solver.json",
    *REDUCED,
    "projection_T.npy",
    "reduce_bounds.csv",
    "theorem2_mor.json",
    "singular_values.csv",
    "kappa.csv",
    "deflation.csv",
]


class TestPipeline:
    def test_all_artifacts_written(self, run_dir):
        out, _ = run_dir
        missing = [a for a in ARTIFACTS if not (out / a).exists()]
        assert not missing

    def test_config_hash_embedded(self, run_dir):
        out, cfg = run_dir
        h = load_config(cfg).hash()
        first = (out / "norms.csv").read_text().splitlines()[0]
        assert first == f"# config={h}"
        report = json.loads((out / "report.json").read_text())
        assert report["config_hash"] == h

    def test_csv_determinism(self, run_dir, rerun_dir):
        out, _ = run_dir
        for name in ["norms.csv", "theta_h2.csv", "table1.csv", "downsize_bounds.csv",
                     "reduce_bounds.csv", "singular_values.csv", "kappa.csv",
                     "deflation.csv", "trajectory.csv"]:
            assert (out / name).read_bytes() == (rerun_dir / name).read_bytes(), name

    def test_dense_artifact_determinism(self, run_dir, rerun_dir):
        out, _ = run_dir
        for name in ["projection_T.npy", *REDUCED]:
            assert (out / name).read_bytes() == (rerun_dir / name).read_bytes(), name

    def test_projection_orthonormal(self, run_dir):
        out, _ = run_dir
        T = np.load(out / "projection_T.npy")
        assert T.shape == (440, 20)  # N = 20 states x m = 22, r = 20
        assert np.abs(T.T @ T - np.eye(20)).max() <= 1e-12

    def test_reduced_E_is_projection(self, run_dir):
        out, _ = run_dir
        T = np.load(out / "projection_T.npy")
        E = sio.mmread(out / "galerkin_E.mtx").tocsr()
        Er = sio.mmread(out / "reduced_E.mtx")
        assert np.abs(T.T @ (E @ T) - Er).max() <= 1e-12 * np.abs(Er).max()

    def test_reduced_matrices_read_back_bitwise(self, run_dir):
        out, cfg_path = run_dir
        cfg = load_config(cfg_path)
        gsys = cli._load_galerkin(cfg, out, "reduce")
        S = arnoldi_reduce(gsys, cfg.mor.s0, cfg.mor.r).system  # r_sweep ends at r
        for name, M in zip(REDUCED, (S.E, S.A, S.B, S.C)):
            read = sio.mmread(out / name)
            assert type(read) is np.ndarray, name
            assert np.array_equal(read, M), name

    def test_table_shape(self, run_dir):
        out, _ = run_dir
        lines = (out / "table1.csv").read_text().splitlines()
        assert lines[1] == "norm,delta,r,r_over_m_percent"
        body = [l.split(",") for l in lines[2:]]
        assert len(body) == 8  # two norms, four deltas
        for row in body:
            r = int(row[2])
            assert 1 <= r <= 22
            assert abs(float(row[3]) - 100.0 * r / 22) < 1e-9

    def test_norms_json_tail_warning(self, run_dir):
        out, _ = run_dir
        warn = json.loads((out / "norms.json").read_text())["tail_fraction_warning"]
        assert len(warn) == 22  # one flag per output, m = 22
        assert all(isinstance(w, bool) for w in warn)

    def test_norms_json_solver_block(self, run_dir):
        out, _ = run_dir
        solver = json.loads((out / "norms.json").read_text())["solver"]
        assert solver["method"] == "gmres-schur"
        assert 1 <= solver["median_iterations"] <= solver["max_iterations"] <= 200
        assert 0.0 <= solver["max_residual"] <= 1e-12
        # the first series term at s = 0 serves omega = 0; the second,
        # spent on trust, gives the reach, and the next point, 1e3, lies
        # beyond what further term solves could pay for
        assert solver["series_points"] == 1 and solver["series_terms"] == 2
        # the grid ends at 1e7: 5 of its points lie within the reach of 24
        # terms of the expansion at s = infinity, fewer than the 24 the band
        # needs to start, so there is no top band
        assert solver["top_points"] == 0 and solver["top_terms"] == 0

    def test_downsize_solver_block(self, run_dir):
        # downsize_sweep [2, 22, 10]; every kept set of the d = 1 ladder has
        # one constant block, so the Schur class is one block of 20 states
        out, _ = run_dir
        sweeps = json.loads((out / "downsize_solver.json").read_text())["sweeps"]
        assert [s["r"] for s in sweeps] == [2, 12, 22]
        for s in sweeps:
            assert s["method"] == "gmres-schur"
            assert s["schur_unknowns"] == 20
            assert 0.0 <= s["max_residual"] <= 1e-12
            assert s["series_points"] == 1 and s["series_terms"] == 2
            assert s["top_points"] == 0 and s["top_terms"] == 0
        report = json.loads((out / "report.json").read_text())
        assert report["sparsify_solver"] == sweeps

    def test_report_bundles_certificates(self, run_dir):
        out, _ = run_dir
        report = json.loads((out / "report.json").read_text())
        assert "theorem1" in report and "theorem2_mor" in report
        assert report["theorem2_mor"]["r"] == 20
        assert report["selection"]["kept"][0] == 0
        assert report["norms_solver"]["method"] == "gmres-schur"
        # one Arnoldi solve per Krylov vector, by GMRES on the Schur complement
        reduce_solver = report["reduce_solver"]
        assert reduce_solver == {**json.loads((out / "reduce_solver.json").read_text())}
        assert reduce_solver["method"] == "gmres-schur"
        assert reduce_solver["max_residual"] <= RESIDUAL_RTOL

    def test_trajectory_header_and_values(self, run_dir):
        out, _ = run_dir
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("t,y1")
        data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert data.shape[1] == 23  # time column plus m = 22 outputs
        assert np.all(np.isfinite(data))


class TestStaging:
    def test_reduce_builds_one_basis(self, run_dir, tmp_path, monkeypatch):
        out, cfg = run_dir
        work = tmp_path / "reduce"
        shutil.copytree(out, work)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return arnoldi_reduce(*args, **kwargs)

        monkeypatch.setattr(cli, "arnoldi_reduce", counting)
        assert main(["reduce", "--config", str(cfg), "--out", str(work)]) == 0
        assert calls == [20]  # r = 20 and r_sweep [5, 20, 5]
        rows = (work / "reduce_bounds.csv").read_text().splitlines()[2:]
        assert [int(row.split(",")[0]) for row in rows] == [5, 10, 15, 20]
        t2 = json.loads((work / "theorem2_mor.json").read_text())
        assert t2["r"] == 20 and t2["breakdown"] is False and t2["stable"] is True

    def test_reduce_decomposes_each_dense_system_once(self, run_dir, tmp_path, monkeypatch):
        # each swept system is sampled and judged from one Schur form, and
        # the written system at mor.r is sampled from one more; each gges
        # call is preceded by its workspace query
        out, cfg = run_dir
        work = tmp_path / "reduce"
        shutil.copytree(out, work)
        calls = []
        real_gges = descriptor.lapack.dgges

        def spy(*args, **kwargs):
            calls.append((len(args[1]), kwargs.get("lwork") == -1))
            return real_gges(*args, **kwargs)

        monkeypatch.setattr(descriptor.lapack, "dgges", spy)
        assert main(["reduce", "--config", str(cfg), "--out", str(work)]) == 0
        rows = (work / "reduce_bounds.csv").read_text().splitlines()[2:]
        swept = [int(row.split(",")[0]) for row in rows]
        assert swept == [5, 10, 15, 20]
        assert calls == [(r, query) for r in [*swept, 20] for query in (True, False)]

    def test_deflation_written_last(self, run_dir, tmp_path):
        # perfbench takes the mtime of deflation.csv as the end of the reduce stage
        out, cfg = run_dir
        work = tmp_path / "reduce"
        shutil.copytree(out, work)
        for path in work.iterdir():
            os.utime(path, ns=(0, 0))
        assert main(["reduce", "--config", str(cfg), "--out", str(work)]) == 0
        written = {path.name: path.stat().st_mtime_ns for path in work.iterdir() if path.stat().st_mtime_ns}
        assert set(written) == set(REDUCE_ARTIFACTS)
        assert written["deflation.csv"] == max(written.values())

    @pytest.mark.parametrize("command", ["norms", "run"])
    def test_pole_proximity_reported(self, run_dir, tmp_path, monkeypatch, capsys, command):
        out, cfg = run_dir
        work = tmp_path / "pole"
        shutil.copytree(out, work)

        def pole(*_args, **_kwargs):
            raise PoleProximityError("pole proximity at omega=2.5: ill-conditioned", condition=3e16)

        monkeypatch.setattr(cli, "sample_transfer", pole)
        assert main([command, "--config", str(cfg), "--out", str(work)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sgmor: error: stage 'norms': pole proximity at omega=2.5")
        assert "condition=3.000e+16" in err

    def test_no_fallback_at_scale_reported(self, run_dir, tmp_path, lying_gmres, capsys):
        # a GMRES miss ends the stage at any N, here the FAST config's 440
        out, cfg = run_dir
        work = tmp_path / "miss"
        shutil.copytree(out, work)
        assert main(["norms", "--config", str(cfg), "--out", str(work)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sgmor: error: stage 'norms': true relative residual")
        assert "GMRES iterations at s=0j, N=440\n" in err

    def test_transient_above_state_limit_reported(self, run_dir, monkeypatch, capsys):
        out, cfg = run_dir
        monkeypatch.setattr(descriptor, "TRANSIENT_MAX_STATES", 0)
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sgmor: error: stage 'simulate': no transient for N=440 > 0 states")

    def test_missing_upstream_artifact(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["norms", "--config", str(cfg), "--out", str(tmp_path / "empty")])
        assert code == 1
        err = capsys.readouterr().err
        assert "missing upstream artifact" in err

    def test_samples_of_another_grid_rejected(self, tmp_path, capsys):
        # the top frequency moves by 23 rad/s, well inside np.allclose's tolerance
        out = tmp_path / "out"
        for stage in ("assemble", "norms"):
            assert main([stage, "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        moved = write_config(tmp_path, FAST_CONFIG.replace("decade_max: 7.0", "decade_max: 7.000001"))
        assert main(["sparsify", "--config", str(moved), "--out", str(out)]) == 1
        assert "cached samples were produced with a different grid" in capsys.readouterr().err
        assert not (out / "table1.csv").exists()

    def test_samples_of_another_system_rejected(self, run_dir, tmp_path, capsys):
        # degree-1 samples (m = 22) beside a degree-2 system (m = 253)
        out, _ = run_dir
        work = tmp_path / "stale"
        shutil.copytree(out, work)
        degree2 = write_config(tmp_path, FAST_CONFIG.replace("degree: 1", "degree: 2"))
        assert main(["assemble", "--config", str(degree2), "--out", str(work)]) == 0
        before = {path.name: path.read_bytes() for path in work.iterdir()}
        for stage in ("sparsify", "reduce"):
            assert main([stage, "--config", str(degree2), "--out", str(work)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"sgmor: error: stage {stage!r}: cached samples have 22 outputs")
            assert "the Galerkin system has 253" in err
        assert {path.name: path.read_bytes() for path in work.iterdir()} == before

    def test_samples_read_after_krylov_basis_freed(self, run_dir, tmp_path, monkeypatch):
        # the samples take the Krylov basis' place in memory: stage_reduce
        # reads them only once the basis array is released
        out, cfg = run_dir
        work = tmp_path / "order"
        shutil.copytree(out, work)
        bases, arnoldi, load = [], cli.arnoldi_reduce, cli._load_samples

        def tracked(*args):
            red = arnoldi(*args)
            base = red.T
            while base.base is not None:
                base = base.base
            bases.append(weakref.ref(base))
            return red

        def checked(*args):
            assert bases and bases[-1]() is None, "the samples are read while the Krylov basis is alive"
            return load(*args)

        monkeypatch.setattr(cli, "arnoldi_reduce", tracked)
        monkeypatch.setattr(cli, "_load_samples", checked)
        assert main(["reduce", "--config", str(cfg), "--out", str(work)]) == 0
        assert len(bases) == 1

    def test_sine_burst_transient(self, run_dir, tmp_path):
        out, _ = run_dir
        work = tmp_path / "burst"
        shutil.copytree(out, work)
        cfg = write_config(tmp_path, FAST_CONFIG.replace("  enabled: true", "  enabled: true\n  input: sine_burst"))
        assert main(["simulate", "--config", str(cfg), "--out", str(work)]) == 0
        meta = json.loads((work / "trajectory_meta.json").read_text())
        assert meta["input"] == "sine_burst" and meta["input_l2"] > 0.0
        data = np.loadtxt(work / "trajectory.csv", delimiter=",", skiprows=1)
        assert data.shape == (201, 23) and np.all(np.isfinite(data))
        u = cli._input_signal("sine_burst")(data[:, 0])
        assert u[0] == 0.0 and np.abs(u).max() > 0.1
        # the trajectory differs from the smooth step's of run_dir
        assert not np.array_equal(data, np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1))

    def test_stagewise_equals_run(self, run_dir, tmp_path):
        # the stages one by one read the Galerkin system back from its files,
        # `run` hands on the one it assembled: every file is the same
        run_out, _ = run_dir
        cfg = write_config(tmp_path)
        out = tmp_path / "stage"
        for stage in ("assemble", "norms", "sparsify", "reduce", "simulate", "report"):
            assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
        written = sorted(path.name for path in out.iterdir())
        assert written == sorted(path.name for path in run_out.iterdir())
        assert [name for name in written if (out / name).read_bytes() != (run_out / name).read_bytes()] == []

    def test_run_hands_on_the_system_read_back(self, tmp_path, monkeypatch):
        # run loads no Galerkin system: each later stage gets the assembled
        # one, bitwise the system a single stage reads from the .mtx files
        handed, loads, load = {}, [], cli._load_galerkin
        for name in ("norms", "sparsify", "reduce", "simulate"):

            def spy(cfg, out, *gsys, stage=cli.STAGES[name], name=name):
                handed[name] = gsys
                return stage(cfg, out, *gsys)

            monkeypatch.setitem(cli.STAGES, name, spy)
        monkeypatch.setattr(cli, "_load_galerkin", lambda *args: loads.append(args) or load(*args))
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert loads == [] and set(handed) == {"norms", "sparsify", "reduce", "simulate"}
        (gsys,) = handed["norms"]
        assert all(len(systems) == 1 and systems[0] is gsys for systems in handed.values())
        back = load(load_config(cfg), out, "norms")
        for name in "EAC":
            M, R = getattr(gsys.system, name), getattr(back.system, name)
            for part in ("data", "indices", "indptr"):
                a, b = getattr(M, part), getattr(R, part)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, part)
        B, R = gsys.system.B, back.system.B
        assert B.dtype == R.dtype and B.shape == R.shape and B.tobytes() == R.tobytes()
        spec, read = gsys.spec, back.spec
        assert read.distributions == spec.distributions and read.index_set == spec.index_set
        meta = json.loads((out / "basis_map.json").read_text())
        assert meta["output_rows"] == sg.build_index_set(meta["q"], meta["degree"]).array.tolist()
        assert meta["output_rows"] == read.index_set.array.tolist()
        assert read.recurrence_offdiag.tobytes() == spec.recurrence_offdiag.tobytes()
        assert back.block_dim == gsys.block_dim and back.selection is None

    def test_unstable_reduced_system_rejected(self, run_dir, tmp_path, monkeypatch, capsys):
        # a certificate for an unstable model certifies nothing: the final-r
        # system's spectrum is checked before theorem2_mor.json is written.
        # A + c E moves every finite eigenvalue right by c
        out, cfg = run_dir
        work = tmp_path / "unstable"
        shutil.copytree(out, work)
        (work / "theorem2_mor.json").unlink()

        def unstable(*args):
            red = arnoldi_reduce(*args)
            S = red.system
            shifted = DescriptorSystem(S.E, S.A + 1e7 * S.E, S.B, S.C)
            return ReducedSystem(system=shifted, T=red.T)

        monkeypatch.setattr(cli, "arnoldi_reduce", unstable)
        assert main(["reduce", "--config", str(cfg), "--out", str(work)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "sgmor: error: stage 'reduce': the reduced system at r=20, s0=500000.0 is unstable: max Re lambda = "
        )
        assert float(err.rsplit("= ", 1)[1]) > 0.0
        assert not (work / "theorem2_mor.json").exists()

    def test_indefinite_galerkin_E_rejected(self, tmp_path, monkeypatch, capsys):
        # every capacitor of the ladder at tolerance 1.5 ranges over [-5e-9, 2.5e-8]
        # F; parse_netlist rejects that, so the netlist is edited after parsing
        # and goes to mna_assemble and assemble as it stands. At d = 2 the
        # Galerkin E is indefinite and the Krylov model at r = 10 is unstable
        ladder = sg.lowpass_benchmark()
        wide = tuple(dataclasses.replace(el, tolerance=1.5) if el.kind == "C" else el for el in ladder.elements)
        monkeypatch.setattr(cli, "_load_netlist", lambda cfg: dataclasses.replace(ladder, elements=wide))
        text = (
            'netlist: "builtin:lowpass"\nbasis:\n  degree: 2\n'
            "frequency_grid:\n  decade_min: 3.0\n  decade_max: 7.0\n  points_per_decade: 2\n"
            "mor:\n  s0: 5.0e+5\n  r: 10\n  r_sweep: [5, 10, 5]\n"
        )
        cfg, out = str(write_config(tmp_path, text)), str(tmp_path / "out")
        for stage in ("assemble", "norms"):
            assert main([stage, "--config", cfg, "--out", out]) == 0
        E = sio.mmread(tmp_path / "out" / "galerkin_E.mtx").tocsr()
        n = 20  # states per basis block; state j of every block is a principal submatrix
        assert min(np.linalg.eigvalsh(E[j::n, j::n].toarray()).min() for j in range(n)) < 0.0
        capsys.readouterr()
        assert main(["reduce", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "sgmor: error: stage 'reduce': the reduced system at r=10, s0=500000.0 is unstable: max Re lambda = "
        )
        assert float(err.rsplit("= ", 1)[1]) > 0.0
        assert not (tmp_path / "out" / "theorem2_mor.json").exists()
        # the swept orders were unstable too: no bound, and the file says why
        lines = (tmp_path / "out" / "reduce_bounds.csv").read_text().splitlines()
        assert lines[1] == "# bound_sup and bound_l2 are nan where stable = 0: an unstable model's output error has no bound"
        assert lines[2:] == ["r,bound_sup,bound_l2,stable", "5,nan,nan,0", "10,nan,nan,0"]

    @pytest.mark.parametrize("r, breakdown", [(1, False), (2, True)])
    def test_breakdown_flag_follows_mor_r(self, tmp_path, r, breakdown):
        # two identical RC branches off the source: K b is proportional to b,
        # so the Krylov space has dimension 1 while N = 2 and the sweep asks for 2
        net = tmp_path / "twin.net"
        net.write_text(
            "VIN 1 0\nG1 1 2 1.0e-3 0.1\nG2 1 3 1.0e-3 0.1\n"
            "C1 2 0 1.0e-9 0.1\nC2 3 0 1.0e-9 0.1\nOUT 2\n"
        )
        text = (
            f'netlist: "{net}"\nbasis:\n  degree: 0\n'
            "frequency_grid:\n  decade_min: 3.0\n  decade_max: 9.0\n  points_per_decade: 4\n"
            "sparsify:\n  downsize_sweep: null\n"
            f"mor:\n  s0: 1.0e+6\n  r: {r}\n  r_sweep: [1, 2, 1]\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_config(tmp_path, text)), "--out", str(out)]) == 0
        t2 = json.loads((out / "theorem2_mor.json").read_text())
        assert t2["r"] == 1
        assert t2["breakdown"] is breakdown

    def test_degree_zero_pipeline(self, tmp_path):
        text = FAST_CONFIG.replace("degree: 1", "degree: 0").replace(
            "downsize_sweep: [2, 22, 10]", "downsize_sweep: null"
        ).replace("r: 20", "r: 12").replace("r_sweep: [5, 20, 5]", "r_sweep: null")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "d0"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        theta = (out / "theta_h2.csv").read_text().splitlines()
        assert len(theta) == 3  # hash line, header, single output
        assert theta[2].split(",")[2].startswith("1.0")

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "nonsense: 1\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == "sgmor: error: config: unknown config key 'nonsense'\n"

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.yaml"
        assert main(["run", "--config", str(missing), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("sgmor: error: config: ") and "absent.yaml" in err

    def test_unknown_builtin(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG.replace("builtin:lowpass", "builtin:nope"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "unknown builtin" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("sgmor ")
