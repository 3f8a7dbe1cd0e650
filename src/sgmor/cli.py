"""Batch pipeline: netlist/config in, reports and certificates out.

Subcommands (assemble | norms | sparsify | reduce | simulate | report)
each run one stage from the cached artifacts of earlier stages; `run`
executes all of them in order.  All numeric CSV output uses fixed
formatting and ordering, so identical config + seed gives byte-identical
files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
import scipy.io as sio
import scipy.sparse as sp

from . import __version__
from .basis import BasisSpec, build_index_set
from .circuits import lowpass_benchmark, mna_assemble, parse_netlist
from .config import PipelineConfig, load_config
from .descriptor import DescriptorSystem, pencil_spectrum, simulate_transient
from .galerkin import GalerkinSystem, assemble, downsize
from .hardy import FrequencyGrid, HardyNormReport, hardy_norms, sample_transfer
from .mor import arnoldi_reduce, deflate, svd_basis
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
    sio.mmwrite(out / "galerkin_E.mtx", sp.coo_matrix(S.E))
    sio.mmwrite(out / "galerkin_A.mtx", sp.coo_matrix(S.A))
    sio.mmwrite(out / "galerkin_B.mtx", sp.coo_matrix(S.B))
    sio.mmwrite(out / "galerkin_C.mtx", sp.coo_matrix(S.C))
    _write_json(
        out / "basis_map.json",
        {
            "q": spec.q,
            "degree": cfg.basis.degree,
            "block_dim": gsys.block_dim,
            "bounds": [[d.lower, d.upper] for d in spec.distributions],
            "output_rows": [list(idx) for idx in gsys.output_multi_indices()],
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
    E = sp.csr_matrix(sio.mmread(out / "galerkin_E.mtx"))
    A = sp.csr_matrix(sio.mmread(out / "galerkin_A.mtx"))
    B = sio.mmread(out / "galerkin_B.mtx")
    C = sp.csr_matrix(sio.mmread(out / "galerkin_C.mtx"))
    iset = build_index_set(meta["q"], meta["degree"])
    spec = BasisSpec.uniform([tuple(b) for b in meta["bounds"]], iset)
    system = DescriptorSystem(E, A, B, C)
    return GalerkinSystem(
        system=system,
        spec=spec,
        block_dim=meta["block_dim"],
        basis_positions=tuple(range(len(iset))),
    )


# ------------------------------------------------------------------- norms

def stage_norms(cfg: PipelineConfig, out: Path) -> HardyNormReport:
    gsys = _load_galerkin(cfg, out, "norms")
    grid = _grid(cfg)
    samples = sample_transfer(gsys.system, grid)
    np.savez_compressed(out / "samples.npz", samples=samples, omegas=grid.omegas)
    report = hardy_norms(samples, grid)
    h = cfg.hash()
    mi = gsys.output_multi_indices()
    rows = [
        (
            i + 1,
            "deg" + str(sum(mi[i])),
            float(report.h2[i]),
            float(report.hinf[i]),
            float(report.argmax_omega[i]),
            float(report.tail_estimate[i]),
        )
        for i in range(report.n_out)
    ]
    _write_csv(out / "norms.csv", "output,degree,h2,hinf,argmax_omega,tail", rows, h)
    report.to_json(out / "norms.json")
    return report


def _load_samples(cfg: PipelineConfig, out: Path, stage: str):
    path = out / "samples.npz"
    if not path.exists():
        raise MissingArtifactError(stage, str(path))
    data = np.load(path)
    grid = _grid(cfg)
    if len(data["omegas"]) != len(grid.omegas) or not np.allclose(data["omegas"], grid.omegas):
        raise StageError(stage, "cached samples were produced with a different grid")
    return data["samples"], grid


# ---------------------------------------------------------------- sparsify

def stage_sparsify(cfg: PipelineConfig, out: Path) -> None:
    gsys = _load_galerkin(cfg, out, "sparsify")
    samples, grid = _load_samples(cfg, out, "sparsify")
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
        rows = []
        start, stop, step = sweep
        for r in range(start, min(stop, m) + 1, step):
            sel_r = select_indices(ranking, "top_k", k=r)
            small = downsize(gsys, sel_r)
            diff_samples = samples - sample_transfer(small.system, grid)
            diff = hardy_norms(diff_samples, grid)
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


# ------------------------------------------------------------------ reduce

def stage_reduce(cfg: PipelineConfig, out: Path) -> None:
    gsys = _load_galerkin(cfg, out, "reduce")
    samples, grid = _load_samples(cfg, out, "reduce")
    h = cfg.hash()
    s0 = cfg.mor.s0

    sweep = cfg.mor.r_sweep
    if sweep is not None:
        rows = []
        start, stop, step = sweep
        red = arnoldi_reduce(gsys, s0, min(stop, gsys.dimension))
        for r in range(start, red.r + 1, step):
            sub = _truncate_reduced(red, r)
            diff = hardy_norms(samples - sample_transfer(sub, grid), grid)
            cert = theorem2_certificate(diff)
            stable = pencil_spectrum(sub).stable
            rows.append((r, float(cert.bound_sup), float(cert.bound_l2), int(stable)))
        _write_csv(out / "reduce_bounds.csv", "r,bound_sup,bound_l2,stable", rows, h)

    red = arnoldi_reduce(gsys, s0, min(cfg.mor.r, gsys.dimension))
    S = red.system
    sio.mmwrite(out / "reduced_E.mtx", sp.coo_matrix(S.E))
    sio.mmwrite(out / "reduced_A.mtx", sp.coo_matrix(S.A))
    sio.mmwrite(out / "reduced_B.mtx", sp.coo_matrix(S.B))
    sio.mmwrite(out / "reduced_C.mtx", sp.coo_matrix(S.C))
    sio.mmwrite(out / "projection_T.mtx", sp.coo_matrix(red.T))
    diff = hardy_norms(samples - sample_transfer(S, grid), grid)
    cert = theorem2_certificate(diff)
    payload = cert.to_dict()
    payload.update({"r": red.r, "s0": s0, "breakdown": red.breakdown})
    _write_json(out / "theorem2_mor.json", payload, h)

    basis = svd_basis(red)
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
    vbar_stub = np.zeros((1, red.r))  # r' depends on singular values only
    for thr in cfg.mor.deflation_thresholds:
        if thr >= basis.singular_values[0]:
            continue
        r_prime, _cert = deflate(basis, thr, vbar_stub)
        defl_rows.append((red.r, float(thr), r_prime, float(r_prime / red.r)))
    _write_csv(out / "deflation.csv", "r,threshold,r_prime,ratio", defl_rows, h)


def _truncate_reduced(red, r: int):
    """Leading r x r part of a reduced system (first r Arnoldi vectors)."""
    S = red.system
    return DescriptorSystem(
        np.asarray(S.E)[:r, :r],
        np.asarray(S.A)[:r, :r],
        np.asarray(S.B)[:r],
        np.asarray(S.C)[:, :r],
    )


# ---------------------------------------------------------------- simulate

def _input_signal(kind: str):
    if kind == "smooth_step":
        return lambda t: 1.0 - np.exp(-t / (t[-1] / 20.0 + 1e-300))
    if kind == "sine_burst":
        return lambda t: np.sin(2 * np.pi * 5 * t / t[-1]) * np.exp(-3 * t / t[-1]) * (t > 0)
    raise ValueError(f"unknown input kind {kind!r}")


def stage_simulate(cfg: PipelineConfig, out: Path) -> None:
    gsys = _load_galerkin(cfg, out, "simulate")
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
    for name in ("resolved_config", "basis_map", "theorem1", "theorem2_mor", "selection", "trajectory_meta"):
        path = out / f"{name}.json"
        if path.exists():
            bundle[name] = json.loads(path.read_text())
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


def run(cfg: PipelineConfig, out: Path) -> None:
    order = ["assemble", "norms", "sparsify", "reduce"]
    if cfg.transient.enabled:
        order.append("simulate")
    order.append("report")
    for name in order:
        try:
            STAGES[name](cfg, out)
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, str(exc)) from exc


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
        p.add_argument("--seed", type=int, default=None, help="seed override for randomized checks")
    args = parser.parse_args(argv)
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    out = _out_dir(cfg, args.out)
    try:
        if args.command == "run":
            run(cfg, out)
        else:
            STAGES[args.command](cfg, out)
    except (StageError, ValueError, FileNotFoundError) as exc:
        print(f"sgmor: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
