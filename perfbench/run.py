"""Pipeline benchmark for `sgmor run` on seeded ladder workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ladder-d2-fine --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each run writes a seeded netlist and config, then runs rounds of the real
entry point (`python3 -m sgmor.cli run`) in child processes, started
through `launch.py`, until `--seconds` have passed.  A round is one pipeline child plus the checks
in `checks.py` on its artifacts.  Stage times come from the modification
times of the last artifact each stage writes, so the untraced child runs
unmodified.  With `--trace 1` rounds alternate between an untraced child
and one started through `traced.py`; the per-layer metrics are medians
over the traced rounds and the tracing overhead is the difference of the
median pipeline times.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it, starting with
`# meta`, records the commit, CPU count, BLAS threads and versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import checks  # noqa: E402
import inputs  # noqa: E402

DEADLINE_S = 170.0  # the whole run, set-up and checks included
SETUP_CHILDREN = 3  # `sgmor assemble` children per run, for setup_s samples
STAGES = ("assemble", "norms", "sparsify", "reduce", "simulate", "report")

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "norms_s": "s",
    "reduce_s": "s",
    "peak_rss_mb": "MB",
    "artifacts_mb": "MB",
}

PER_LAYER = {
    "circuits.mna_assemble_s": "s",
    "basis.build_index_set_s": "s",
    "galerkin.assemble_s": "s",
    "galerkin.nnz": "count",
    "galerkin.downsize_s": "s",
    "galerkin.downsize_calls": "count",
    "hardy.full_sample_s": "s",
    "hardy.full_points": "count",
    "hardy.full_ms_per_point": "ms",
    "hardy.reduced_sample_s": "s",
    "hardy.reduced_points": "count",
    "hardy.reduced_ms_per_point": "ms",
    "hardy.hardy_norms_s": "s",
    "descriptor.factorizations": "count",
    "descriptor.pencil_spectrum_s": "s",
    "descriptor.pencil_spectrum_calls": "count",
    "descriptor.simulate_transient_s": "s",
    "descriptor.transient_steps": "count",
    "descriptor.us_per_step": "us",
    "mor.arnoldi_reduce_s": "s",
    "mor.arnoldi_vectors": "count",
    "mor.ms_per_arnoldi_vector": "ms",
    "mor.svd_basis_s": "s",
    "mor.deflate_s": "s",
    "sparsify.rank_select_s": "s",
    "sparsify.certificate_s": "s",
    "cli.import_s": "s",
    "cli.load_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    **{f"cli.{stage}_self_s": "s" for stage in STAGES},
    "trace.pipeline_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}


def stage_ends(sweeps: bool) -> dict[str, str]:
    """The artifact each stage writes last; its mtime marks the stage's end."""
    return {
        "assemble": "resolved_config.json",
        "norms": "norms.json",
        "sparsify": "downsize_bounds.csv" if sweeps else "theorem1.json",
        "reduce": "deflation.csv",
    }


class Child:
    """One child process started through `launch.py`, which reports its
    start, end, exit code and peak RSS.  The child runs in its own session;
    at the deadline the whole session is killed, so the run always ends.
    """

    def __init__(self, argv: list[str], env: dict, log: Path, timeout: float):
        launcher = [sys.executable, "-S", str(HERE / "launch.py"), str(log)]
        proc = subprocess.Popen(
            launcher + argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True
        )
        try:
            report, _ = proc.communicate(timeout=max(timeout, 1.0))
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        self.log = log.read_text(errors="replace") if log.exists() else ""
        if proc.returncode != 0:
            raise RuntimeError(f"launcher exited with {proc.returncode}: {self.log[-2000:]}")
        info = json.loads(report)
        self.start, self.end, self.returncode = info["start"], info["end"], info["returncode"]
        self.peak_rss_mb = info["peak_rss_kib"] * 1024 / 1e6

    def failed_stages(self, stages: tuple[str, ...]) -> int:
        """Stages that did not complete: the one named in the error and all after it."""
        if self.returncode == 0:
            return 0
        for k, stage in enumerate(stages):
            if f"stage {stage!r}" in self.log:
                return len(stages) - k
        return len(stages)


def mtime(path: Path) -> float:
    return path.stat().st_mtime_ns / 1e9


def end_to_end(child: Child, out: Path, sweeps: bool) -> dict[str, float]:
    ends = {stage: mtime(out / name) for stage, name in stage_ends(sweeps).items()}
    return {
        "setup_s": ends["assemble"] - child.start,
        "pipeline_s": child.end - child.start,
        "norms_s": ends["norms"] - ends["assemble"],
        "reduce_s": ends["reduce"] - ends["sparsify"],
        "peak_rss_mb": child.peak_rss_mb,
        "artifacts_mb": sum(p.stat().st_size for p in out.iterdir()) / 1e6,
    }


def layer_metrics(trace: dict, pipeline_s: float) -> dict[str, float]:
    spans, counts = trace["spans"], trace["counts"]
    dur = [s["end"] - s["start"] for s in spans]
    covered = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            covered[s["parent"]] += d  # one thread: sibling spans never overlap

    def total(*names, key=None, full=None):
        """Summed duration (or attribute `key`) of the spans with these names."""
        return sum(
            (s.get(key, 0) if key else d)
            for s, d in zip(spans, dur)
            if s["name"] in names and full in (None, s.get("full"))
        )

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def per(value, count, scale):
        return value / count * scale if count else 0.0

    full_s = total("hardy.sample_transfer", full=True)
    full_pts = total("hardy.sample_transfer", key="points", full=True)
    red_s = total("hardy.sample_transfer", full=False)
    red_pts = total("hardy.sample_transfer", key="points", full=False)
    sim_s = total("descriptor.simulate_transient")
    steps = total("descriptor.simulate_transient", key="steps")
    arn_s = total("mor.arnoldi_reduce")
    vectors = total("mor.arnoldi_reduce", key="vectors")
    stage_total = total(*(f"cli.{stage}" for stage in STAGES))
    metrics = {
        "circuits.mna_assemble_s": total("circuits.mna_assemble"),
        "basis.build_index_set_s": total("basis.build_index_set"),
        "galerkin.assemble_s": total("galerkin.assemble"),
        "galerkin.nnz": total("galerkin.assemble", key="nnz"),
        "galerkin.downsize_s": total("galerkin.downsize"),
        "galerkin.downsize_calls": calls("galerkin.downsize"),
        "hardy.full_sample_s": full_s,
        "hardy.full_points": full_pts,
        "hardy.full_ms_per_point": per(full_s, full_pts, 1e3),
        "hardy.reduced_sample_s": red_s,
        "hardy.reduced_points": red_pts,
        "hardy.reduced_ms_per_point": per(red_s, red_pts, 1e3),
        "hardy.hardy_norms_s": total("hardy.hardy_norms"),
        "descriptor.factorizations": counts.get("splu", 0) + counts.get("lu_factor", 0),
        "descriptor.pencil_spectrum_s": total("descriptor.pencil_spectrum"),
        "descriptor.pencil_spectrum_calls": calls("descriptor.pencil_spectrum"),
        "descriptor.simulate_transient_s": sim_s,
        "descriptor.transient_steps": steps,
        "descriptor.us_per_step": per(sim_s, steps, 1e6),
        "mor.arnoldi_reduce_s": arn_s,
        "mor.arnoldi_vectors": vectors,
        "mor.ms_per_arnoldi_vector": per(arn_s, vectors, 1e3),
        "mor.svd_basis_s": total("mor.svd_basis"),
        "mor.deflate_s": total("mor.deflate"),
        "sparsify.rank_select_s": total("sparsify.rank_and_theta", "sparsify.select_indices"),
        "sparsify.certificate_s": total(
            "sparsify.theorem1_certificate", "sparsify.theorem2_certificate"
        ),
        "cli.import_s": total("startup.import"),
        "cli.load_s": total("cli.load"),
        "cli.write_s": total("cli.write"),
        "cli.bytes_written": total("cli.write", key="bytes"),
        "trace.pipeline_s": pipeline_s,
        "trace.unaccounted_s": pipeline_s - total("startup.import") - stage_total,
    }
    for stage in STAGES:
        metrics[f"cli.{stage}_self_s"] = sum(
            d - c for s, d, c in zip(spans, dur, covered) if s["name"] == f"cli.{stage}"
        )
    return metrics


class Run:
    def __init__(self, workload: str, seed: int, threads: int, work: Path, deadline: float):
        self.workload, self.work, self.deadline = workload, work, deadline
        self.sweeps = inputs.WORKLOADS[workload].get("sweeps", False)
        # the sweeps workload is the one with the transient stage on
        self.stages = tuple(s for s in STAGES if s != "simulate" or self.sweeps)
        self.config = inputs.write_inputs(workload, seed, work / "inputs")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(threads)
        mc = checks.MonteCarlo(seed, inputs.netlist_text(seed))
        degree = inputs.WORKLOADS[workload]["degree"]
        self.checks = checks.checks_for(degree, self.sweeps, mc)
        self.attempted = self.failed = 0
        self.correct = True
        self.samples: dict[str, list[float]] = {}
        self.rounds = 0

    def remaining(self) -> float:
        return self.deadline - time.time()

    def child(self, argv: list[str], name: str) -> Child:
        return Child(argv, self.env, self.work / f"{name}.log", self.remaining())

    def add(self, metrics: dict[str, float]) -> None:
        for key, value in metrics.items():
            self.samples.setdefault(key, []).append(value)

    def setup(self) -> None:
        """Compile the package's bytecode once, then sample set-up time alone."""
        self.child([sys.executable, "-c", "import sgmor.cli"], "warmup")
        for k in range(SETUP_CHILDREN):
            out = self.work / f"setup{k}"
            child = self.child(
                [sys.executable, "-m", "sgmor.cli", "assemble", "--config", str(self.config),
                 "--out", str(out)],
                f"setup{k}",
            )
            self.attempted += 1
            if child.returncode == 0:
                self.add({"setup_s": mtime(out / "resolved_config.json") - child.start})
            else:
                self.failed += 1
                print(child.log, file=sys.stderr)
            shutil.rmtree(out, ignore_errors=True)

    def round(self, traced: bool) -> float:
        """One pipeline child and the checks on its artifacts; returns its wall time."""
        self.rounds += 1
        tag = f"round{self.rounds}"
        out = self.work / tag
        argv = ["run", "--config", str(self.config), "--out", str(out)]
        spans = self.work / f"{tag}.spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced.py"), str(spans)] + argv
        else:
            argv = [sys.executable, "-m", "sgmor.cli"] + argv
        child = self.child(argv, tag)
        bad = child.failed_stages(self.stages)
        self.attempted += len(self.stages) + len(self.checks)
        self.failed += bad
        if bad:
            print(f"{self.workload} {tag}: sgmor run failed\n{child.log}", file=sys.stderr)
        else:
            if traced:
                trace = json.loads(spans.read_text())
                self.add(layer_metrics(trace, child.end - child.start))
            else:
                self.add(end_to_end(child, out, self.sweeps))
        for name, check in self.checks.items():
            try:
                check(out)
            except checks.CheckFailed as exc:
                self.correct = False
                self.failed += 1
                print(f"{self.workload} {tag}: check {name} FAILED: {exc}", file=sys.stderr)
            except Exception as exc:  # missing or unreadable artifact: operation failed
                self.failed += 1
                print(f"{self.workload} {tag}: check {name} could not run: {exc!r}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return child.end - child.start

    def measure(self, seconds: float, trace: bool) -> None:
        start = time.time()
        longest = 0.0
        while True:
            for traced in ((False, True) if trace else (False,)):
                longest = max(longest, self.round(traced))
            elapsed = time.time() - start
            if elapsed >= seconds or self.remaining() < 1.5 * longest * (1 + trace):
                break

    def metrics(self, trace: bool) -> dict[str, dict]:
        names = PER_LAYER if trace else END_TO_END
        med = {k: statistics.median(v) for k, v in self.samples.items()}
        if trace and "pipeline_s" in med and "trace.pipeline_s" in med:
            med["trace.overhead_s"] = med["trace.pipeline_s"] - med["pipeline_s"]
        return {k: {"value": med[k], "unit": u} for k, u in names.items() if k in med}


def blas_version() -> str:
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return "unknown"


def git_sha() -> str:
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def meta(threads: dict[str, int]) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version(),
    }


def blas_threads(workload: str, override: int | None) -> int:
    """`--threads` if given, else the workload's own count, else nproc."""
    if override is not None:
        return override
    return inputs.WORKLOADS[workload].get("blas_threads", len(os.sched_getaffinity(0)))


def run_workload(workload: str, args, deadline: float) -> Run:
    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        run = Run(workload, args.seed, blas_threads(workload, args.threads), work, deadline)
        if not args.trace:
            run.setup()
        run.measure(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--threads", type=int, default=None,
        help="BLAS/OpenMP threads in the child environment "
        "(default: 1 on ladder-d2-fine, nproc elsewhere; see README)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "sgmor" / "cli.py").is_file():
        print(f"perfbench: no sgmor sources under {SRC}", file=sys.stderr)
        return 2

    workloads = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        run = run_workload(workload, args, time.time() + DEADLINE_S)
        metrics = run.metrics(bool(args.trace))
        result["correct"] &= run.correct
        result["attempted"] += run.attempted
        result["failed"] += run.failed
        prefix = f"{workload}." if args.workload == "all" else ""
        result["metrics"].update({prefix + k: v for k, v in metrics.items()})
        for name, m in metrics.items():
            values = " ".join(f"{v:.4g}" for v in run.samples.get(name, ()))
            print(
                f"{workload:18s} {name:34s} {m['value']:14.6g} {m['unit']:6s} [{values}]",
                file=sys.stderr,
            )
        print(
            f"{workload:18s} rounds={run.rounds} attempted={run.attempted} "
            f"failed={run.failed} correct={run.correct}",
            file=sys.stderr,
        )
    threads = {w: blas_threads(w, args.threads) for w in workloads}
    print("# meta " + json.dumps(meta(threads), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
