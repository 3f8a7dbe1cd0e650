"""Batch pipeline: netlist/config in, reports and certificates out.

Subcommands (assemble | norms | sparsify | reduce | simulate | report)
each run one stage from the cached artifacts of earlier stages; `run`
executes all of them in order and hands the Galerkin system that assemble
built to the later stages instead of reading it back from its .mtx files,
which hold it bitwise, so both routes write the same files.  All numeric
CSV output uses fixed formatting and ordering, so identical config + seed
gives byte-identical files at a fixed BLAS thread count: at d = 3 the
Krylov basis from one and from two OpenBLAS threads parts beyond about 40
vectors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import numpy.lib.format as npformat
import scipy.io as sio
import scipy.sparse as sp

from . import __version__
from .basis import BasisSpec, build_index_set
from .circuits import lowpass_benchmark, mna_assemble, parse_netlist
from .config import PipelineConfig, load_config
from .descriptor import DescriptorSystem, pencil_spectrum, simulate_transient
from .galerkin import GalerkinSystem, assemble, downsize
from .hardy import FrequencyGrid, HardyNormReport, difference_norms, hardy_norms, sample_transfer
from .mor import arnoldi_reduce, deflate, svd_basis
from .solver import PoleProximityError, SolverStats
from .sparsify import (
    rank_and_theta,
    select_indices,
    theorem1_certificate,
    theorem2_certificate,
)

FMT = "%.17e"


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r}: {message}")
        self.stage = stage


class MissingArtifactError(StageError):
    def __init__(self, stage: str, artifact: str):
        super().__init__(stage, f"missing upstream artifact {artifact!r}; run earlier stages first")


def _out_dir(cfg: PipelineConfig, override: str | None) -> Path:
    out = Path(override or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header: str, rows, cfg_hash: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"# config={cfg_hash}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(c) for c in row) + "\n")


def _fmt_cell(c) -> str:
    if isinstance(c, (int, np.integer)):
        return str(int(c))
    if isinstance(c, float):
        return FMT % c
    return str(c)


def _write_json(path: Path, payload: dict, cfg_hash: str) -> None:
    payload = dict(payload)
    payload["config_hash"] = cfg_hash
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _load_netlist(cfg: PipelineConfig):
    if cfg.netlist.startswith("builtin:"):
        name = cfg.netlist.split(":", 1)[1]
        if name != "lowpass":
            raise StageError("assemble", f"unknown builtin netlist {name!r}")
        return lowpass_benchmark()
    return parse_netlist(Path(cfg.netlist).read_text())


def _grid(cfg: PipelineConfig) -> FrequencyGrid:
    fg = cfg.frequency_grid
    return FrequencyGrid.logspaced(
        fg.decade_min, fg.decade_max, fg.points_per_decade, fg.include_zero
    )


# ---------------------------------------------------------------- assemble

def stage_assemble(cfg: PipelineConfig, out: Path) -> GalerkinSystem:
    netlist = _load_netlist(cfg)
    psys = mna_assemble(netlist)
    iset = build_index_set(psys.q, cfg.basis.degree)
    spec = BasisSpec.uniform(psys.parameter_bounds, iset)
    gsys = assemble(psys, spec)
    h = cfg.hash()
    S = gsys.system
    sio.mmwrite(out / "galerkin_E.mtx", S.E)
    sio.mmwrite(out / "galerkin_A.mtx", S.A)
    sio.mmwrite(out / "galerkin_B.mtx", sp.coo_matrix(S.B))  # a coordinate file, like E, A and C
    sio.mmwrite(out / "galerkin_C.mtx", S.C)
    _write_json(
        out / "basis_map.json",
        {
            "q": spec.q,
            "degree": cfg.basis.degree,
            "block_dim": gsys.block_dim,
            "bounds": [[d.lower, d.upper] for d in spec.distributions],
            "output_rows": [list(idx) for idx in spec.index_set.indices],
        },
        h,
    )
    _write_json(out / "resolved_config.json", cfg.resolved(), h)
    return gsys


def _load_galerkin(cfg: PipelineConfig, out: Path, stage: str) -> GalerkinSystem:
    path = out / "basis_map.json"
    if not path.exists():
        raise MissingArtifactError(stage, str(path))
    meta = json.loads(path.read_text())
    E, A, B, C = (sio.mmread(out / f"galerkin_{name}.mtx") for name in "EABC")
    iset = build_index_set(meta["q"], meta["degree"])
    spec = BasisSpec.uniform([tuple(b) for b in meta["bounds"]], iset)
    return GalerkinSystem(system=DescriptorSystem(E, A, B, C), spec=spec, block_dim=meta["block_dim"])


# ------------------------------------------------------------------- norms

def stage_norms(cfg: PipelineConfig, out: Path, gsys: GalerkinSystem | None = None) -> HardyNormReport:
    gsys = gsys or _load_galerkin(cfg, out, "norms")
    grid = _grid(cfg)
    stats = SolverStats()
    samples = sample_transfer(gsys, grid, stats)
    np.savez(out / "samples.npz", samples=samples, omegas=grid.omegas)
    report = hardy_norms(samples, grid)
    h = cfg.hash()
    degrees = gsys.spec.index_set.total_degrees()
    rows = [
        (
            i + 1,
            f"deg{degrees[i]}",
            float(report.h2[i]),
            float(report.hinf[i]),
            float(report.argmax_omega[i]),
            float(report.tail_estimate[i]),
        )
        for i in range(report.n_out)
    ]
    _write_csv(out / "norms.csv", "output,degree,h2,hinf,argmax_omega,tail", rows, h)
    report.to_json(out / "norms.json", solver=stats.summary())
    return report


def _cached_grid(cfg: PipelineConfig, out: Path, stage: str, n_out: int) -> FrequencyGrid:
    """The config's grid, once samples.npz is checked to hold n_out outputs
    sampled on it; the samples array itself is not read."""
    path = out / "samples.npz"
    if not path.exists():
        raise MissingArtifactError(stage, str(path))
    grid = _grid(cfg)
    with np.load(path) as data:
        if not np.array_equal(data["omegas"], grid.omegas):
            raise StageError(stage, "cached samples were produced with a different grid")
        with data.zip.open("samples.npy") as fh:
            version = npformat.read_magic(fh)
            read_header = npformat.read_array_header_1_0 if version == (1, 0) else npformat.read_array_header_2_0
            shape = read_header(fh)[0]
    if shape[0] != n_out:
        raise StageError(
            stage, f"cached samples have {shape[0]} outputs, the Galerkin system has {n_out}; rerun norms"
        )
    return grid


def _load_samples(cfg: PipelineConfig, out: Path, stage: str, n_out: int):
    grid = _cached_grid(cfg, out, stage, n_out)
    with np.load(out / "samples.npz") as data:
        return data["samples"], grid


# ---------------------------------------------------------------- sparsify

def stage_sparsify(cfg: PipelineConfig, out: Path, gsys: GalerkinSystem | None = None) -> None:
    gsys = gsys or _load_galerkin(cfg, out, "sparsify")
    samples, grid = _load_samples(cfg, out, "sparsify", gsys.m)
    report = hardy_norms(samples, grid)
    h = cfg.hash()
    m = gsys.m

    rankings = {kind: rank_and_theta(report, kind) for kind in ("h2", "hinf")}
    for kind, ranking in rankings.items():
        rows = [
            (r + 1, int(ranking.order[r]) + 1, float(ranking.theta[r]))
            for r in range(ranking.m)
        ]
        _write_csv(out / f"theta_{kind}.csv", "r,output,theta", rows, h)

    table_rows = []
    for kind, ranking in rankings.items():
        for delta in cfg.sparsify.table_deltas:
            r = ranking.minimal_r(delta)
            table_rows.append((kind, float(delta), r, float(100.0 * r / m)))
    _write_csv(out / "table1.csv", "norm,delta,r,r_over_m_percent", table_rows, h)

    ranking = rankings[cfg.sparsify.norm]
    sel = select_indices(
        ranking, cfg.sparsify.mode, k=cfg.sparsify.k, delta=cfg.sparsify.delta
    )
    _write_json(
        out / "selection.json",
        {
            "norm": cfg.sparsify.norm,
            "mode": cfg.sparsify.mode,
            "kept": list(sel.kept),
            "sparsity_ratio": len(sel.kept) / m,
        },
        h,
    )
    cert1 = theorem1_certificate(report, sel)
    _write_json(out / "theorem1.json", cert1.to_dict(), h)

    sweep = cfg.sparsify.downsize_sweep
    if sweep is not None:
        rows, solvers = [], []
        start, stop, step = sweep
        for r in range(start, min(stop, m) + 1, step):
            sel_r = select_indices(ranking, "top_k", k=r)
            small = downsize(gsys, sel_r)
            stats = SolverStats()
            diff = difference_norms(samples, small, grid, stats)
            solvers.append({"r": r, **stats.summary()})
            cert = theorem2_certificate(diff, full_report=report, sel=sel_r)
            rows.append(
                (
                    r,
                    float(cert.bound_sup),
                    float(cert.bound_l2),
                    float(cert.lower_floor_sup),
                    float(cert.lower_floor_l2),
                )
            )
        _write_csv(
            out / "downsize_bounds.csv",
            "r,bound_sup,bound_l2,floor_sup,floor_l2",
            rows,
            h,
        )
        _write_json(out / "downsize_solver.json", {"sweeps": solvers}, h)


# ------------------------------------------------------------------ reduce

def stage_reduce(cfg: PipelineConfig, out: Path, gsys: GalerkinSystem | None = None) -> None:
    gsys = gsys or _load_galerkin(cfg, out, "reduce")
    m, n = gsys.m, gsys.dimension
    _cached_grid(cfg, out, "reduce", m)  # before Arnoldi; the samples are read after it
    h = cfg.hash()
    s0 = cfg.mor.s0

    # one Krylov basis; every reduced system is a leading block of it
    sweep = cfg.mor.r_sweep
    r_final = min(cfg.mor.r, n)
    basis_r = r_final if sweep is None else min(max(r_final, sweep[1]), n)
    stats = SolverStats()
    krylov = arnoldi_reduce(gsys, s0, basis_r, stats)
    _write_json(out / "reduce_solver.json", stats.summary(), h)

    red = krylov.truncate(min(r_final, krylov.r))
    S, r_red, breakdown = red.system, red.r, krylov.r < r_final
    # dense arrays as dense files: no row and column index per entry
    sio.mmwrite(out / "reduced_E.mtx", S.E)
    sio.mmwrite(out / "reduced_A.mtx", S.A)
    sio.mmwrite(out / "reduced_B.mtx", S.B)
    sio.mmwrite(out / "reduced_C.mtx", S.C)
    np.save(out / "projection_T.npy", red.T)
    basis = svd_basis(red)
    # T and the Galerkin system are the stage's largest arrays, and nothing
    # below needs them: the samples take their place
    full = krylov.system
    del krylov, red, gsys
    samples, grid = _load_samples(cfg, out, "reduce", m)

    if sweep is not None:
        rows = []
        start, stop, step = sweep
        for r in range(start, min(stop, full.n) + 1, step):
            sub = full.leading(r)
            if pencil_spectrum(sub).stable:
                cert = theorem2_certificate(difference_norms(samples, sub, grid))
                rows.append((r, float(cert.bound_sup), float(cert.bound_l2), 1))
            else:
                rows.append((r, np.nan, np.nan, 0))
        header = "r,bound_sup,bound_l2,stable"
        if any(row[3] == 0 for row in rows):
            header = f"# bound_sup and bound_l2 are nan where stable = 0: an unstable model's output error has no bound\n{header}"
        _write_csv(out / "reduce_bounds.csv", header, rows, h)

    cert = theorem2_certificate(difference_norms(samples, S, grid))
    # a bound for an unstable model certifies nothing; the Schur form the
    # samples came from gives the spectrum without a second decomposition
    spectrum = pencil_spectrum(S)
    if not spectrum.stable:
        raise StageError(
            "reduce",
            f"the reduced system at r={r_red}, s0={s0} is unstable: "
            f"max Re lambda = {spectrum.finite_eigenvalues.real.max():.6e}",
        )
    payload = cert.to_dict()
    payload.update({"r": r_red, "s0": s0, "breakdown": breakdown, "stable": spectrum.stable})
    _write_json(out / "theorem2_mor.json", payload, h)

    _write_csv(
        out / "singular_values.csv",
        "l,sigma",
        [(l + 1, float(s)) for l, s in enumerate(basis.singular_values)],
        h,
    )
    _write_csv(
        out / "kappa.csv",
        "output,kappa",
        [(i + 1, float(k)) for i, k in enumerate(basis.kappa)],
        h,
    )
    defl_rows = []
    vbar_stub = np.zeros((1, r_red))  # r' depends on singular values only
    for thr in cfg.mor.deflation_thresholds:
        if thr >= basis.singular_values[0]:
            continue
        r_prime, _cert = deflate(basis, thr, vbar_stub)
        defl_rows.append((r_red, float(thr), r_prime, float(r_prime / r_red)))
    _write_csv(out / "deflation.csv", "r,threshold,r_prime,ratio", defl_rows, h)


# ---------------------------------------------------------------- simulate

def _input_signal(kind: str):
    if kind == "smooth_step":
        return lambda t: 1.0 - np.exp(-t / (t[-1] / 20.0 + 1e-300))
    if kind == "sine_burst":
        return lambda t: np.sin(2 * np.pi * 5 * t / t[-1]) * np.exp(-3 * t / t[-1]) * (t > 0)
    raise ValueError(f"unknown input kind {kind!r}")


def stage_simulate(cfg: PipelineConfig, out: Path, gsys: GalerkinSystem | None = None) -> None:
    gsys = gsys or _load_galerkin(cfg, out, "simulate")
    tc = cfg.transient
    fn = _input_signal(tc.input)
    traj = simulate_transient(gsys.system, fn, tc.horizon, tc.step)
    traj.to_csv(out / "trajectory.csv")
    _write_json(
        out / "trajectory_meta.json",
        {"input": tc.input, "horizon": tc.horizon, "step": tc.step, "input_l2": traj.input_l2},
        cfg.hash(),
    )


# ------------------------------------------------------------------ report

def stage_report(cfg: PipelineConfig, out: Path) -> dict:
    h = cfg.hash()
    bundle: dict = {"version": __version__, "seed": cfg.seed}
    for name in (
        "resolved_config", "basis_map", "theorem1", "theorem2_mor", "reduce_solver", "selection", "trajectory_meta"
    ):
        path = out / f"{name}.json"
        if path.exists():
            bundle[name] = json.loads(path.read_text())
    norms = out / "norms.json"
    if norms.exists():
        bundle["norms_solver"] = json.loads(norms.read_text())["solver"]
    downsize_solver = out / "downsize_solver.json"
    if downsize_solver.exists():
        bundle["sparsify_solver"] = json.loads(downsize_solver.read_text())["sweeps"]
    if "resolved_config" not in bundle:
        raise MissingArtifactError("report", str(out / "resolved_config.json"))
    _write_json(out / "report.json", bundle, h)
    return bundle


STAGES = {
    "assemble": stage_assemble,
    "norms": stage_norms,
    "sparsify": stage_sparsify,
    "reduce": stage_reduce,
    "simulate": stage_simulate,
    "report": stage_report,
}


def _run_stage(name: str, cfg: PipelineConfig, out: Path, *gsys: GalerkinSystem):
    """Run one stage, on the Galerkin system given or else the one it loads,
    and return its result; any failure leaves it as a StageError naming the stage."""
    try:
        return STAGES[name](cfg, out, *gsys)
    except StageError:
        raise
    except PoleProximityError as exc:
        message = str(exc) if exc.condition is None else f"{exc} condition={exc.condition:.3e}"
        raise StageError(name, message) from exc
    except Exception as exc:
        raise StageError(name, str(exc)) from exc


def run(cfg: PipelineConfig, out: Path) -> None:
    later = ["norms", "sparsify", "reduce"]
    if cfg.transient.enabled:
        later.append("simulate")
    gsys = _run_stage("assemble", cfg, out)
    for name in later:
        _run_stage(name, cfg, out, gsys)
    _run_stage("report", cfg, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgmor",
        description="Stochastic Galerkin assembly, Hardy-norm sparsification and MOR pipeline",
    )
    parser.add_argument("--version", action="version", version=f"sgmor {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ["run", *STAGES]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=False, help="YAML config file (defaults used if absent)")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help="seed override, recorded in report.json and the config hash; no stage draws random numbers",
        )
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else PipelineConfig()
    except (OSError, ValueError) as exc:
        print(f"sgmor: error: config: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        cfg.seed = args.seed
    out = _out_dir(cfg, args.out)
    try:
        if args.command == "run":
            run(cfg, out)
        else:
            _run_stage(args.command, cfg, out)
    except StageError as exc:
        print(f"sgmor: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
