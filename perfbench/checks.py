"""Correctness checks on the artifacts of one `sgmor run`.

Each check recomputes what the artifacts claim from other data: a Monte
Carlo estimate over the random parameters, scipy/numpy factorizations of
the written matrices, or properties the method must have.  None compares
against a stored copy of earlier output.  A check raises `CheckFailed`
with the figures when the artifacts disagree.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import scipy.io as sio
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import inputs

MC_SAMPLES = 2000
MC_STD_ERRORS = 5.0
# The degree-2 Galerkin truncation error on this ladder stays below two
# Monte Carlo standard errors at these frequencies (seeds 1-3 and 33); the
# floor covers round-off where the output has no variance (omega = 0,
# where H = 1 for every p).
MC_RTOL = 1e-4
MC_OMEGAS = (1e4, 1e5, 10**5.5, 1e6)  # pass band, corner, LC resonance, stop band
MOMENT_RTOL = 1e-8
EXACT_RTOL = 1e-12


class CheckFailed(AssertionError):
    pass


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_csv(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _dense(path: Path) -> np.ndarray:
    M = sio.mmread(path)
    return M.toarray() if sp.issparse(M) else np.asarray(M)


class MonteCarlo:
    """E[H] and E|H|^2 of the scalar ladder transfer function by sampling.

    Parameters are drawn uniformly from the bounds the generated netlist
    states; each sample is evaluated with `ParametricSystem.evaluate(p)`
    and solved with numpy at the requested frequencies.
    """

    def __init__(self, seed: int, netlist_text: str):
        from sgmor.circuits import mna_assemble, parse_netlist

        psys = mna_assemble(parse_netlist(netlist_text))
        bounds = inputs.parameter_bounds(seed)
        rng = np.random.default_rng([seed, 1])
        P = bounds[:, 0] + (bounds[:, 1] - bounds[:, 0]) * rng.random((MC_SAMPLES, inputs.Q))
        E, A, B, C = (np.stack(m) for m in zip(*(psys.evaluate(p) for p in P)))
        self.E, self.A, self.B, self.C = E, A, B.astype(complex), C

    def transfer(self, omega: float) -> np.ndarray:
        X = np.linalg.solve(1j * omega * self.E - self.A, self.B)
        return (self.C @ X)[:, 0, 0]


def check_sizes(out: Path, degree: int) -> None:
    m = math.comb(inputs.Q + degree, degree)
    N = inputs.N_STATES * m
    rows, cols = sio.mminfo(out / "galerkin_E.mtx")[:2]
    _expect((rows, cols) == (N, N), f"galerkin_E is {rows}x{cols}, expected N={N}")
    rows, cols = sio.mminfo(out / "galerkin_C.mtx")[:2]
    _expect((rows, cols) == (m, N), f"galerkin_C is {rows}x{cols}, expected {m}x{N}")
    n_norms = len(read_csv(out / "norms.csv"))
    _expect(n_norms == m, f"norms.csv has {n_norms} outputs, expected m={m}")


def check_monte_carlo(out: Path, mc: MonteCarlo) -> None:
    data = np.load(out / "samples.npz")
    samples, omegas = data["samples"], data["omegas"]
    picks = {int(np.argmax(np.abs(samples[0])))}  # peak of |H_0|
    picks |= {int(np.argmin(np.abs(omegas - w))) for w in MC_OMEGAS}
    for j in sorted(picks):
        H = mc.transfer(omegas[j])
        mean = H.mean()
        se_mean = np.sqrt(np.mean(np.abs(H - mean) ** 2) / len(H))
        err = abs(samples[0, j] - mean)
        _expect(
            err <= MC_STD_ERRORS * se_mean + MC_RTOL * abs(mean),
            f"omega={omegas[j]:.4g}: output 0 = {samples[0, j]:.6g}, Monte Carlo mean "
            f"{mean:.6g} +- {se_mean:.2g}",
        )
        # Parseval: sum_i |H_i|^2 = E|H|^2, and without i = 0 the variance,
        # which is first order in the Galerkin coupling terms
        scale = np.mean(np.abs(H) ** 2)
        for name, i0, x in (("E|H|^2", 0, np.abs(H)), ("Var H", 1, np.abs(H - mean))):
            power = x**2
            se_power = power.std() / np.sqrt(len(H))
            parseval = float(np.sum(np.abs(samples[i0:, j]) ** 2))
            _expect(
                abs(parseval - power.mean()) <= MC_STD_ERRORS * se_power + MC_RTOL * scale,
                f"omega={omegas[j]:.4g}: sum_(i>={i0}) |H_i|^2 = {parseval:.6g}, Monte Carlo "
                f"{name} {power.mean():.6g} +- {se_power:.2g}",
            )


def _moments(solve, E, C, B) -> list[np.ndarray]:
    x0 = solve(B)
    return [np.ravel(C @ x0), -np.ravel(C @ solve(E @ x0))]


def check_moments(out: Path) -> None:
    s0 = read_json(out / "resolved_config.json")["mor"]["s0"]
    E = sp.csc_matrix(sio.mmread(out / "galerkin_E.mtx"))
    A = sp.csc_matrix(sio.mmread(out / "galerkin_A.mtx"))
    B = _dense(out / "galerkin_B.mtx").ravel()
    C = sp.csr_matrix(sio.mmread(out / "galerkin_C.mtx"))
    full = _moments(spla.splu((s0 * E - A).tocsc()).solve, E, C, B)
    Er, Ar = _dense(out / "reduced_E.mtx"), _dense(out / "reduced_A.mtx")
    Br, Cr = _dense(out / "reduced_B.mtx").ravel(), _dense(out / "reduced_C.mtx")
    Mr = s0 * Er - Ar
    reduced = _moments(lambda rhs: np.linalg.solve(Mr, rhs), Er, Cr, Br)
    for k, (f, r) in enumerate(zip(full, reduced)):
        rel = np.linalg.norm(f - r) / np.linalg.norm(f)
        _expect(rel <= MOMENT_RTOL, f"moment {k} at s0={s0:g}: relative mismatch {rel:.3g}")


def check_theorem1(out: Path) -> None:
    h2 = np.array([float(row["h2"]) for row in read_csv(out / "norms.csv")])
    kept = read_json(out / "selection.json")["kept"]
    dropped = np.setdiff1d(np.arange(len(h2)), kept)
    expected = float(np.sqrt(np.sum(h2[dropped] ** 2)))
    bound = read_json(out / "theorem1.json")["bound_sup"]
    delta = read_json(out / "resolved_config.json")["sparsify"]["delta"]
    _expect(
        abs(bound - expected) <= EXACT_RTOL * max(expected, 1e-300),
        f"theorem1 bound_sup {bound:.17g} != sqrt(sum dropped h2^2) {expected:.17g}",
    )
    _expect(bound < delta, f"theorem1 bound_sup {bound:.6g} not below delta {delta:g}")


def check_theta_table(out: Path) -> None:
    for kind in ("h2", "hinf"):
        # theta is not checked for monotonicity: `rank_and_theta` overwrites
        # its last entry with 1.0 while the one before can round to 1 + 2e-16
        theta = np.array([float(row["theta"]) for row in read_csv(out / f"theta_{kind}.csv")])
        _expect(abs(theta[-1] - 1.0) <= 1e-15, f"theta_{kind} ends at {theta[-1]!r}, not 1")
    table = read_csv(out / "table1.csv")
    for kind in ("h2", "hinf"):
        rows = sorted((r for r in table if r["norm"] == kind), key=lambda r: -float(r["delta"]))
        rs = [int(r["r"]) for r in rows]
        _expect(rs == sorted(rs), f"table1 {kind}: r {rs} not nondecreasing as delta falls")


def check_svd_deflation(out: Path) -> None:
    s = np.linalg.svd(_dense(out / "reduced_C.mtx"), compute_uv=False)
    sigma = np.array([float(row["sigma"]) for row in read_csv(out / "singular_values.csv")])
    k = len(sigma)
    _expect(0 < k <= len(s), f"singular_values.csv has {k} values for {len(s)}")
    err = float(np.max(np.abs(s[:k] - sigma)))
    _expect(err <= 1e-10 * s[0], f"singular values differ from numpy SVD by {err:.3g}")
    for row in read_csv(out / "deflation.csv"):
        thr, r_prime = float(row["threshold"]), int(row["r_prime"])
        count = int(np.sum(s >= thr))
        _expect(r_prime == count, f"deflation at {thr:g}: r'={r_prime}, {count} sigma >= threshold")


def check_downsize_floor(out: Path) -> None:
    rows = read_csv(out / "downsize_bounds.csv")
    _expect(len(rows) > 0, "downsize_bounds.csv is empty")
    for row in rows:
        for kind in ("sup", "l2"):
            bound, floor = float(row[f"bound_{kind}"]), float(row[f"floor_{kind}"])
            _expect(
                bound >= floor * (1 - EXACT_RTOL),
                f"downsize r={row['r']}: bound_{kind} {bound:.6g} below floor {floor:.6g}",
            )


def check_trajectory(out: Path) -> None:
    data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    t, w = data[:, 0], data[:, 1:]
    kept = read_json(out / "selection.json")["kept"]
    dropped = np.setdiff1d(np.arange(w.shape[1]), kept)
    pointwise = np.sqrt(np.sum(w[:, dropped] ** 2, axis=1))
    space_time = float(np.sqrt(np.trapezoid(pointwise**2, t)))
    cert = read_json(out / "theorem1.json")
    u_l2 = read_json(out / "trajectory_meta.json")["input_l2"]
    sup = float(pointwise.max())
    _expect(
        sup <= cert["bound_sup"] * u_l2,
        f"pruning error sup {sup:.6g} above theorem1 bound {cert['bound_sup'] * u_l2:.6g}",
    )
    _expect(
        space_time <= cert["bound_l2"] * u_l2,
        f"pruning error L2 {space_time:.6g} above theorem1 bound {cert['bound_l2'] * u_l2:.6g}",
    )


def checks_for(degree: int, sweeps: bool, mc: MonteCarlo) -> dict:
    """Name -> callable(out) for the checks a workload's artifacts must pass."""
    checks = {
        "sizes": lambda out: check_sizes(out, degree),
        "monte_carlo": lambda out: check_monte_carlo(out, mc),
        "moments": check_moments,
        "theorem1": check_theorem1,
        "theta_table": check_theta_table,
        "svd_deflation": check_svd_deflation,
    }
    if sweeps:
        checks["downsize_floor"] = check_downsize_floor
        checks["trajectory"] = check_trajectory
    return checks
