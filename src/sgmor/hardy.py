"""Frequency-grid estimation of per-output H2 and H-infinity norms.

The transfer function is sampled on a logarithmic grid along the positive
imaginary axis (conjugate symmetry folds the negative axis).  A sparse
system is sampled with one SuperLU factorization per frequency; a dense
(reduced) system with one complex QZ decomposition for the whole grid and
a triangular back-substitution vectorised over the frequencies.  The
H-infinity norm is the discrete maximum; the H2 norm is a trapezoidal
approximation of the frequency integral plus a c/omega tail model fitted
at the last grid point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .descriptor import DescriptorSystem, PoleProximityError, factor_pencil

__all__ = [
    "FrequencyGrid",
    "HardyNormReport",
    "sample_transfer",
    "hardy_norms",
    "difference_norms",
]


@dataclass(frozen=True)
class FrequencyGrid:
    """Logarithmically spaced angular frequencies, optionally with omega=0."""

    omegas: np.ndarray
    decade_min: float | None = None
    decade_max: float | None = None
    points_per_decade: int | None = None

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        if om.size < 2 or np.any(np.diff(om) <= 0) or om[0] < 0:
            raise ValueError("omegas must be >= 0, strictly increasing, length >= 2")
        object.__setattr__(self, "omegas", om)

    def __len__(self) -> int:
        return len(self.omegas)

    @classmethod
    def logspaced(
        cls,
        decade_min: float = -2.0,
        decade_max: float = 10.0,
        points_per_decade: int = 60,
        include_zero: bool = True,
    ) -> "FrequencyGrid":
        n = int(round((decade_max - decade_min) * points_per_decade)) + 1
        om = np.logspace(decade_min, decade_max, n)
        if include_zero:
            om = np.concatenate([[0.0], om])
        return cls(om, decade_min, decade_max, points_per_decade)

    @classmethod
    def default(cls) -> "FrequencyGrid":
        return cls.logspaced()

    def refine(self, factor: int = 2) -> "FrequencyGrid":
        if self.points_per_decade is None:
            raise ValueError("cannot refine a custom grid")
        return FrequencyGrid.logspaced(
            self.decade_min,
            self.decade_max,
            self.points_per_decade * factor,
            include_zero=self.omegas[0] == 0.0,
        )


@dataclass(frozen=True)
class HardyNormReport:
    """Per-output Hardy norm estimates (fields are arrays of length n_out)."""

    h2: np.ndarray
    hinf: np.ndarray
    argmax_omega: np.ndarray
    tail_estimate: np.ndarray
    strictly_proper_ok: np.ndarray  # bool per output; H2 invalid where False
    grid: FrequencyGrid
    tail_fraction_warning: np.ndarray = None  # tail > 1% of H2

    @property
    def n_out(self) -> int:
        return len(self.h2)

    def total(self, kind: str = "h2") -> float:
        vals = self.h2 if kind == "h2" else self.hinf
        return float(np.sqrt(np.sum(vals**2)))

    def to_csv(self, path, multi_indices=None) -> None:
        with open(path, "w") as fh:
            fh.write("output,multi_index,h2,hinf,argmax_omega,tail\n")
            for i in range(self.n_out):
                mi = "" if multi_indices is None else " ".join(map(str, multi_indices[i]))
                fh.write(
                    f"{i + 1},{mi},{self.h2[i]:.17e},{self.hinf[i]:.17e},"
                    f"{self.argmax_omega[i]:.17e},{self.tail_estimate[i]:.17e}\n"
                )

    def to_json(self, path) -> None:
        payload = {
            "h2": self.h2.tolist(),
            "hinf": self.hinf.tolist(),
            "argmax_omega": self.argmax_omega.tolist(),
            "tail_estimate": self.tail_estimate.tolist(),
            "strictly_proper_ok": self.strictly_proper_ok.tolist(),
            "tail_fraction_warning": (
                None if self.tail_fraction_warning is None else self.tail_fraction_warning.tolist()
            ),
            "grid": {
                "decade_min": self.grid.decade_min,
                "decade_max": self.grid.decade_max,
                "points_per_decade": self.grid.points_per_decade,
                "n_points": len(self.grid),
            },
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)


def sample_transfer(sys: DescriptorSystem, grid: FrequencyGrid) -> np.ndarray:
    """H(i*omega_j) for all outputs of a single-input system; shape (n_out, k).

    Sparse system: one SuperLU factorization of i*omega*E - A and one solve
    per frequency.  Dense system: one complex QZ, A = Q AA Z^H and
    E = Q BB Z^H, for the whole grid; the triangular system
    (i*omega*BB - AA) y = Q^H b is back-substituted for all frequencies at
    once and H = (C Z) y.

    Raises PoleProximityError naming the omega, with `condition` set, where
    i*omega*E - A is singular or ill-conditioned.  Sparse: SuperLU fails or
    meets an exactly zero pivot.  Dense: a pivot d_i = i*omega*BB_ii - AA_ii
    is zero or non-finite, or max|d_i| / min|d_i| exceeds 1e15.
    """
    if sys.n_in != 1:
        raise ValueError(f"sample_transfer needs a single-input system (n_in=1), got n_in={sys.n_in}")
    if not sys.is_sparse:
        return _sample_dense(sys, grid.omegas)
    out = np.empty((sys.n_out, len(grid)), dtype=complex)
    for j, omega in enumerate(grid.omegas):
        # `solve` keeps the previous factorization alive while the next one
        # is built, so the allocator reuses its memory instead of returning
        # it to the OS and faulting it back in at every frequency
        try:
            solve = factor_pencil(sys.E, sys.A, 1j * omega)
        except PoleProximityError as exc:
            raise PoleProximityError(f"pole proximity at omega={omega}: {exc}", exc.condition) from exc
        out[:, j] = np.asarray(sys.C @ solve(sys.B)).ravel()
    return out


def _sample_dense(sys: DescriptorSystem, omegas: np.ndarray) -> np.ndarray:
    """Dense branch of sample_transfer: one QZ, one vectorised back-substitution."""
    try:
        AA, BB, Q, Z = sla.qz(sys.A, sys.E, output="complex")
    except (ValueError, sla.LinAlgError) as exc:
        raise PoleProximityError(f"QZ decomposition of the pencil failed: {exc}", condition=np.inf) from exc
    s = 1j * omegas
    d = s * np.diag(BB)[:, None] - np.diag(AA)[:, None]  # pivots, (n, k)
    pivots = np.abs(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        condition = pivots.max(axis=0) / pivots.min(axis=0)
    condition[np.isnan(condition)] = np.inf  # zero or non-finite pivots
    bad = np.flatnonzero(condition > 1e15)
    if bad.size:
        j = bad[0]
        raise PoleProximityError(
            f"pole proximity at omega={omegas[j]}: singular or ill-conditioned shifted pencil",
            condition=float(condition[j]),
        )
    g = Q.conj().T @ sys.B[:, 0]
    Y = np.empty_like(d)
    for i in range(sys.n - 1, -1, -1):
        tail = Y[i + 1 :]
        Y[i] = (g[i] - s * (BB[i, i + 1 :] @ tail) + AA[i, i + 1 :] @ tail) / d[i]
    return np.asarray(sys.C @ Z) @ Y


def _top_decade_slope(mag: np.ndarray, omegas: np.ndarray) -> float:
    """Log-log slope of |H| over the top frequency decade."""
    w_hi = omegas[-1]
    j = int(np.searchsorted(omegas, w_hi / 10.0))
    j = min(j, len(omegas) - 2)
    h_lo, h_hi = mag[j], mag[-1]
    if h_hi == 0.0:
        return -np.inf
    if h_lo == 0.0:
        return 0.0
    return float(np.log10(h_hi / h_lo) / np.log10(w_hi / omegas[j]))


def hardy_norms(
    samples: np.ndarray,
    grid: FrequencyGrid,
    refine_hinf: bool = False,
) -> HardyNormReport:
    """Hardy norms of already-sampled transfer functions.

    samples has shape (n_out, k) on grid.omegas.  H-infinity is the
    discrete maximum (optionally sharpened by a parabolic 3-point fit
    around the argmax); H2 is sqrt((1/pi) * trapezoid(|H|^2) + tail^2)
    with tail^2 = c^2 / (pi * omega_k) from the c/omega decay model.
    """
    samples = np.atleast_2d(samples)
    mag = np.abs(samples)
    om = grid.omegas
    n_out = samples.shape[0]

    jmax = np.argmax(mag, axis=1)
    hinf = mag[np.arange(n_out), jmax]
    argmax_omega = om[jmax]
    if refine_hinf:
        for i in range(n_out):
            j = jmax[i]
            if 0 < j < len(om) - 1:
                x = np.log10(np.maximum(om[j - 1 : j + 2], 1e-300))
                y = mag[i, j - 1 : j + 2]
                coeffs = np.polyfit(x, y, 2)
                if coeffs[0] < 0:
                    xv = -coeffs[1] / (2 * coeffs[0])
                    if x[0] <= xv <= x[2]:
                        hv = np.polyval(coeffs, xv)
                        if hv > hinf[i]:
                            hinf[i] = hv
                            argmax_omega[i] = 10.0**xv

    integral = np.trapezoid(mag**2, om, axis=1)
    c = mag[:, -1] * om[-1]
    tail_sq = c**2 / (np.pi * om[-1])
    h2 = np.sqrt(integral / np.pi + tail_sq)
    tail = np.sqrt(tail_sq)

    proper_ok = np.ones(n_out, dtype=bool)
    for i in range(n_out):
        if hinf[i] == 0.0:
            continue
        proper_ok[i] = _top_decade_slope(mag[i], om) <= -0.5
    with np.errstate(invalid="ignore", divide="ignore"):
        tail_warn = tail > 0.01 * np.where(h2 > 0, h2, np.inf)
    return HardyNormReport(
        h2=h2,
        hinf=hinf,
        argmax_omega=argmax_omega,
        tail_estimate=tail,
        strictly_proper_ok=proper_ok,
        grid=grid,
        tail_fraction_warning=tail_warn,
    )


def transfer_norms(sys: DescriptorSystem, grid: FrequencyGrid | None = None) -> HardyNormReport:
    """Convenience: sample a system and compute its Hardy norms."""
    if grid is None:
        grid = FrequencyGrid.default()
    return hardy_norms(sample_transfer(sys, grid), grid)


def difference_norms(
    sys_a: DescriptorSystem,
    sys_b: DescriptorSystem,
    grid: FrequencyGrid | None = None,
    samples_a: np.ndarray | None = None,
    samples_b: np.ndarray | None = None,
) -> HardyNormReport:
    """Hardy norms of H_a - H_b per output, sampled on the identical grid.

    Precomputed samples may be passed to amortize repeated comparisons
    against the same full-order system.
    """
    if grid is None:
        grid = FrequencyGrid.default()
    if sys_a.n_out != sys_b.n_out:
        raise ValueError(
            f"output count mismatch: {sys_a.n_out} vs {sys_b.n_out}"
        )
    if samples_a is None:
        samples_a = sample_transfer(sys_a, grid)
    if samples_b is None:
        samples_b = sample_transfer(sys_b, grid)
    return hardy_norms(samples_a - samples_b, grid)
