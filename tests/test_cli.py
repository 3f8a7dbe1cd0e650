"""Pipeline configuration and the command line driver."""

import json
from pathlib import Path

import numpy as np
import pytest

from sgmor.cli import main
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
    "reduce_bounds.csv",
    "reduced_E.mtx",
    "reduced_A.mtx",
    "reduced_B.mtx",
    "reduced_C.mtx",
    "projection_T.mtx",
    "theorem2_mor.json",
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


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_run")
    cfg = write_config(tmp)
    out = tmp / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return out, cfg


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

    def test_csv_determinism(self, run_dir, tmp_path):
        out, cfg = run_dir
        out2 = tmp_path / "again"
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ["norms.csv", "theta_h2.csv", "table1.csv", "downsize_bounds.csv",
                     "reduce_bounds.csv", "singular_values.csv", "kappa.csv",
                     "deflation.csv", "trajectory.csv"]:
            assert (out / name).read_bytes() == (out2 / name).read_bytes(), name

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

    def test_report_bundles_certificates(self, run_dir):
        out, _ = run_dir
        report = json.loads((out / "report.json").read_text())
        assert "theorem1" in report and "theorem2_mor" in report
        assert report["theorem2_mor"]["r"] == 20
        assert report["selection"]["kept"][0] == 0

    def test_trajectory_header_and_values(self, run_dir):
        out, _ = run_dir
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("t,y1")
        data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert data.shape[1] == 23  # time column plus m = 22 outputs
        assert np.all(np.isfinite(data))


class TestStaging:
    def test_missing_upstream_artifact(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["norms", "--config", str(cfg), "--out", str(tmp_path / "empty")])
        assert code == 1
        err = capsys.readouterr().err
        assert "missing upstream artifact" in err

    def test_stagewise_equals_run(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "stage"
        for stage in ("assemble", "norms", "sparsify", "reduce", "simulate", "report"):
            assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
        assert (tmp_path / "stage" / "report.json").exists()

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

    def test_unknown_builtin(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST_CONFIG.replace("builtin:lowpass", "builtin:nope"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "unknown builtin" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("sgmor ")
