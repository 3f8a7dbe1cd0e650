"""Seeded inputs for the pipeline benchmark: a ladder netlist and a YAML config.

Every workload runs the 21-element low-pass ladder that `sgmor` ships as
`builtin:lowpass` (14 nodes, 7 C / 6 L / 8 G, 10 % tolerances, n = 20).
The seed redraws each nominal value log-uniformly within a factor of 1.2
of the built-in one; topology, element order and tolerances stay fixed, so
the Galerkin sizes m = C(21 + d, d) and N = 20 m do not depend on the seed.

Usage: python3 perfbench/inputs.py --seed 1 --out DIR   (writes all workloads)
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path

import numpy as np

TOLERANCE = 0.1
NOMINAL_SPREAD = 1.2  # nominal values drawn in [v / 1.2, v * 1.2], log-uniform

# (name, node+, node-, built-in nominal), in the order of the built-in netlist
LADDER = (
    ("G1", "in", "1", 3.1623e-3),
    ("C1", "2", "0", 1.0e-8),
    ("L1", "1", "2", 1.0e-3),
    ("G2", "2", "3", 3.1623e-3),
    ("C2", "4", "0", 1.0e-8),
    ("L2", "3", "4", 1.0e-3),
    ("G3", "4", "5", 3.1623e-3),
    ("C3", "6", "0", 1.0e-8),
    ("L3", "5", "6", 1.0e-3),
    ("G4", "6", "7", 3.1623e-3),
    ("C4", "8", "0", 1.0e-8),
    ("L4", "7", "8", 1.0e-3),
    ("G5", "8", "9", 3.1623e-3),
    ("C5", "10", "0", 1.0e-8),
    ("L5", "9", "10", 1.0e-3),
    ("G6", "10", "11", 3.1623e-3),
    ("C6", "12", "0", 1.0e-8),
    ("L6", "11", "12", 1.0e-3),
    ("G7", "12", "13", 3.1623e-3),
    ("G8", "13", "14", 3.1623e-3),
    ("C7", "14", "0", 1.0e-8),
)
Q = len(LADDER)
N_STATES = 20

# Config sections beyond `netlist` and `seed`; everything else is the
# program default (degree 2, 60 points per decade on [1e-2, 1e10], r = 50).
# `blas_threads` is the children's BLAS/OpenMP thread count (default nproc).
WORKLOADS = {
    # the run users launch: `sgmor run` with the default config.  Its reduce
    # stage is 0.3 s; with two BLAS threads on a shared 2-vCPU host, a worker
    # thread that loses its CPU adds up to 1 s to it, so it runs single-threaded.
    "ladder-d2-fine": {"degree": 2, "blas_threads": 1},
    # m = 2024, N = 40480: sparse LU fill, Arnoldi Gram-Schmidt, artifact size
    "ladder-d3-coarse": {
        "degree": 3,
        "yaml": "basis:\n  degree: 3\n"
        "frequency_grid:\n  points_per_decade: 2\n"
        "mor:\n  r: 120\n",
    },
    # many small dense reduced systems, downsized sparse systems, transient
    "ladder-d2-sweeps": {
        "degree": 2,
        "sweeps": True,
        "yaml": "frequency_grid:\n  points_per_decade: 20\n"
        "sparsify:\n  downsize_sweep: [10, 250, 80]\n"
        "mor:\n  r_sweep: [40, 120, 40]\n"
        "transient:\n  enabled: true\n",
    },
}


def nominal_values(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    base = np.array([v for *_, v in LADDER])
    return base * np.exp(rng.uniform(-math.log(NOMINAL_SPREAD), math.log(NOMINAL_SPREAD), Q))


def parameter_bounds(seed: int) -> np.ndarray:
    """(Q, 2) uniform parameter bounds in netlist order, as the netlist states them."""
    nom = nominal_values(seed)
    return np.column_stack([nom * (1 - TOLERANCE), nom * (1 + TOLERANCE)])


def netlist_text(seed: int) -> str:
    lines = [f"# low-pass ladder, nominal values drawn with seed {seed}"]
    for (name, a, b, _), value in zip(LADDER, nominal_values(seed)):
        lines.append(f"{name} {a} {b} {value:.17g} {TOLERANCE}")
    lines += ["VIN in 0", "OUT 14"]
    return "\n".join(lines) + "\n"


def write_inputs(workload: str, seed: int, directory: Path) -> Path:
    """Write `ladder.net` and `<workload>.yaml` into directory; return the config path."""
    directory.mkdir(parents=True, exist_ok=True)
    net = directory / "ladder.net"
    net.write_text(netlist_text(seed))
    cfg = directory / f"{workload}.yaml"
    cfg.write_text(f"netlist: {net.resolve()}\nseed: {seed}\n" + WORKLOADS[workload].get("yaml", ""))
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the netlist and configs")
    args = parser.parse_args(argv)
    for name in WORKLOADS:
        print(write_inputs(name, args.seed, Path(args.out)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
