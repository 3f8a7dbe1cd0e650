"""Frequency-grid estimation of per-output H2 and H-infinity norms.

The transfer function is sampled on a logarithmic grid along the positive
imaginary axis (conjugate symmetry folds the negative axis).

Sparse systems, Galerkin or not, are sampled through one
solver.ShiftedSolver; its docstring states the solve policy, which
mor.arnoldi_reduce shares at its real shift.  The low band comes first,
from the Taylor series x(s) = sum_k s^k x_k at s = 0 (the moments of
asymptotic waveform evaluation): its terms are real solves at s = 0, added
only as far as the next grid point needs them and only while they serve as
many points as they cost.  The series serves a prefix of the grid: each
point whose series sample has a true residual in the system's own E and A
of at most GMRES_RTOL, the target of a solved point, up to the first point
that misses it or lies beyond the series' reach.  From there on the solver
is moved from frequency to frequency.  On the d = 2 ladder (slowest
pole at |lambda| = 1.4e4) 24 terms serve the 329 of 722 default grid
points up to omega of about 2.9e3, each term a real GMRES solve of 2 to 3
iterations.

Dense (reduced) systems: one real generalized Schur form, A = Q AA Z^T and
E = Q BB Z^T with AA quasi-triangular and BB triangular, for the whole grid
(DescriptorSystem.schur_form, kept on the system, where pencil_spectrum
reads its eigenvalues too).  The systems (i*omega*BB - AA) y = Q^T b are
back-substituted for all frequencies at once, over AA's 1 x 1 and 2 x 2
diagonal blocks, each 2 x 2 block solved in closed form, and one
refinement step goes through the residual in the original pencil.  Real
matrices meet the complex right-hand sides as one real product with their
real and imaginary parts.

The H-infinity norm is the discrete maximum; the H2 norm is a trapezoidal
approximation of the frequency integral plus a c/omega tail model fitted
at the last grid point.  Every operation on the samples is row-wise, so
the norms are taken NORMS_BLOCK_BYTES of outputs at a time, and the
norms of a difference H - H_red (difference_norms, Theorem 2) never hold
H_red's samples or the difference as whole arrays: for a dense H_red the
Schur solution Y (r x k) is formed once and each block is
samples[rows] - (C Z)[rows] Y; for a sparse one the difference is taken
in place in the sweep's own output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .descriptor import DescriptorSystem, pencil_spectrum
from .galerkin import GalerkinSystem
from .solver import GMRES_RTOL, PoleProximityError, ResidualMissError, ShiftedSolver, SolverStats

__all__ = ["FrequencyGrid", "HardyNormReport", "sample_transfer", "hardy_norms", "difference_norms"]

# the complex block of outputs the norms take at a time: about 90 outputs of
# the default 722-point grid, all 253 of d = 2 at 243 points
NORMS_BLOCK_BYTES = 1 << 20
# terms of the Taylor series at s = 0 that may serve the low band of a sweep
# (N x 24 floats: 7.8 MB at d = 3); on the ladder, whose slowest pole sits at
# |lambda| = 1.4e4, 24 terms reach omega of about 2.9e3
SERIES_MAX_TERMS = 24
SERIES_BLOCK_BYTES = 1 << 20  # the N x c complex block of series samples
UNIT_ROUNDOFF = np.finfo(float).eps / 2
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])  # i^k by k mod 4, exactly


@dataclass(frozen=True)
class FrequencyGrid:
    """Logarithmically spaced angular frequencies, optionally with omega=0."""

    omegas: np.ndarray
    decade_min: float | None = None
    decade_max: float | None = None
    points_per_decade: int | None = None

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        if om.size < 2 or not np.all(np.isfinite(om)) or np.any(np.diff(om) <= 0) or om[0] < 0:
            raise ValueError("omegas must be finite, >= 0, strictly increasing, length >= 2")
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


@dataclass(frozen=True)
class HardyNormReport:
    """Per-output Hardy norm estimates (fields are arrays of length n_out)."""

    h2: np.ndarray
    hinf: np.ndarray
    argmax_omega: np.ndarray
    tail_estimate: np.ndarray
    strictly_proper_ok: np.ndarray  # bool per output; H2 invalid where False
    grid: FrequencyGrid
    tail_fraction_warning: np.ndarray  # tail > 1% of H2

    @property
    def n_out(self) -> int:
        return len(self.h2)

    def to_json(self, path, solver: dict | None = None) -> None:
        """Write the norms; `solver` is a SolverStats.summary() of the sampling.

        argmax_at_top_edge flags outputs whose grid maximum sits at the top
        grid frequency, where the true peak may lie beyond the grid (omega = 0
        is a true boundary of the axis and is not flagged).
        """
        payload = {
            "h2": self.h2.tolist(),
            "hinf": self.hinf.tolist(),
            "argmax_omega": self.argmax_omega.tolist(),
            "argmax_at_top_edge": (self.argmax_omega == self.grid.omegas[-1]).tolist(),
            "tail_estimate": self.tail_estimate.tolist(),
            "strictly_proper_ok": self.strictly_proper_ok.tolist(),
            "tail_fraction_warning": self.tail_fraction_warning.tolist(),
            "grid": {
                "decade_min": self.grid.decade_min,
                "decade_max": self.grid.decade_max,
                "points_per_decade": self.grid.points_per_decade,
                "n_points": len(self.grid),
            },
            "solver": solver,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)


def sample_transfer(
    sys: DescriptorSystem | GalerkinSystem,
    grid: FrequencyGrid,
    stats: SolverStats | None = None,
) -> np.ndarray:
    """H(i*omega_j) for all outputs of a single-input system; shape (n_out, k).

    A sparse system is solved through one ShiftedSolver, a dense one by its
    real generalized Schur form ("qz", see the module docstring); `stats`
    records the method and, per frequency, what ShiftedSolver records.  On
    a sparse system the Taylor series at s = 0 serves a prefix of the grid
    first (_series_band), each of its points with a true relative residual
    of at most GMRES_RTOL, and every later point is solved as if there were
    no series.

    Raises PoleProximityError naming the omega, with `condition` set, where
    i*omega*E - A is singular or ill-conditioned.  Sparse: where
    ShiftedSolver raises it; a Galerkin system's GMRES miss raises
    ResidualMissError naming s = i*omega, an exact pole on the grid
    included.  Dense: the decomposition fails or E or A has a non-finite
    entry (condition inf), or, with (alpha_i, beta_i) the eigenvalue pairs
    of the Schur form, a pivot d_i = |i*omega*beta_i - alpha_i| is zero
    (inf) or max d_i / min d_i exceeds 1e15.
    """
    S = _single_input(sys)
    stats = SolverStats() if stats is None else stats
    if not S.is_sparse:
        stats.method = "qz"
        return _real_times(*_sample_dense(S, grid.omegas))
    split = sys.even_odd_split() if isinstance(sys, GalerkinSystem) else None
    solver = ShiftedSolver(S.E, S.A, stats, split)
    out = np.empty((S.n_out, len(grid)), dtype=complex)
    n = _series_band(solver, S, grid.omegas, out)
    b = S.B[:, 0].astype(complex)
    for j, omega in enumerate(grid.omegas[n:], n):
        try:
            solver.set_shift(1j * omega)
            x = solver.solve(b)
        except PoleProximityError as exc:
            raise PoleProximityError(f"pole proximity at omega={omega}: {exc}", exc.condition) from exc
        out[:, j] = S.C @ x
    return out


def _single_input(sys: DescriptorSystem | GalerkinSystem) -> DescriptorSystem:
    S = sys.system if isinstance(sys, GalerkinSystem) else sys
    if S.n_in != 1:
        raise ValueError(f"sampling needs a single-input system (n_in=1), got n_in={S.n_in}")
    return S


def _series_band(solver: ShiftedSolver, S: DescriptorSystem, omegas: np.ndarray, out: np.ndarray) -> int:
    """The low band of a sweep from the Taylor series x(s) = sum_k s^k x_k at s = 0.

    The terms solve -A x_0 = b and -A x_k = -E x_{k-1} through `solver` at
    the real shift 0, so that (sE - A) sum_k s^k x_k = b holds term by term.
    They are added only as the next grid point needs them: with rho the
    ratio ||x_k|| / ||x_{k-1}|| of the last two terms, a point at omega
    needs K terms with (omega rho)^K <= UNIT_ROUNDOFF.  Growing to K terms
    must not spend more term solves than the points served so far plus the
    points that K terms reach, and K is at most SERIES_MAX_TERMS.  The
    first term is spent on trust, and so is the second, which gives rho,
    except on a Galerkin system: there rho is first estimated without a
    solve (_mean_pencil_rate), and the series stops where even that
    estimate says the second term cannot pay.  Points are
    evaluated in increasing omega, SERIES_BLOCK_BYTES of samples at a time,
    each with its true relative residual ||b - (i omega E - A) x|| / ||b||
    in S's own E and A.  x is held as x_0 + D, D the terms from x_1 on, and
    its residual and outputs are those of the two parts: rounding x_0 + D
    to one vector would add about u ||A|| ||x|| to the residual, 4e-14 to
    9e-14 of ||b|| on the d = 2 ladder, where x_0's own is what its solve
    refined (0 there).

    The series serves a prefix of omegas: it stops at the first point above
    GMRES_RTOL or beyond its reach, and where set_shift or a solve at s = 0
    raises (then the sweep meets that shift as if there were no series).
    Each served sample is written to `out` and, on the "gmres-schur" route,
    recorded in the stats with 0 iterations and its residual; term solves
    are recorded only in the stats' series_terms.  Returns the number of
    leading points served.
    """
    stats = solver.stats
    b = S.B[:, 0]
    b_norm = np.linalg.norm(b) or 1.0
    terms = np.empty((SERIES_MAX_TERMS, S.n))
    n_terms = j = 0
    norms = []
    rho = None  # ||x_k|| / ||x_{k-1}|| of the last two terms, None while unknown
    block = max(1, SERIES_BLOCK_BYTES // (16 * S.n))

    def reach(k: int) -> float:
        """The largest omega k terms serve, by the current value of rho."""
        if rho is None:
            return 0.0 if k else -1.0  # x_0 alone serves omega = 0
        return UNIT_ROUNDOFF ** (1.0 / k) / rho if rho else np.inf

    solver.stats = term_stats = SolverStats()
    try:
        solver.set_shift(0.0)
        while j < len(omegas):
            if omegas[j] > reach(n_terms):
                if n_terms == 1 and solver.split is not None:
                    rho = _mean_pencil_rate(solver.split)  # until the second term replaces it
                # the terms omega_j needs; one more while rho is unknown
                k, n_reach = n_terms + 1, len(omegas) - j
                if rho is not None:
                    while k <= SERIES_MAX_TERMS and omegas[j] > reach(k):
                        k += 1
                    n_reach = np.searchsorted(omegas, reach(k), "right") - j
                if k > SERIES_MAX_TERMS or k > j + n_reach:
                    break
                rhs = b if n_terms == 0 else -(S.E @ terms[n_terms - 1])
                terms[n_terms] = solver.solve(rhs)
                norms.append(np.linalg.norm(terms[n_terms]))
                n_terms += 1
                if n_terms >= 2:
                    rho = norms[-1] / norms[-2] if norms[-2] else 0.0
                continue
            stop = min(int(np.searchsorted(omegas, reach(n_terms), "right")), j + block)
            om = omegas[j:stop]
            # x = x_0 + D, D's real and imaginary parts in adjacent columns
            x0, D = terms[0], _series_at(terms[1:n_terms], om).view(float)
            R = (S.A @ D).view(complex)
            R -= ((S.E @ D).view(complex) + (S.E @ x0)[:, None]) * (1j * om)
            R += (b + S.A @ x0)[:, None]
            res = np.linalg.norm(R, axis=0) / b_norm
            ok = res <= GMRES_RTOL  # False where NaN
            n_ok = len(om) if ok.all() else int(np.argmin(ok))
            out[:, j : j + n_ok] = (S.C @ D).view(complex)[:, :n_ok] + (S.C @ x0)[:, None]
            if solver.split is not None:
                stats.iterations += [0] * n_ok
                stats.residuals += res[:n_ok].tolist()
            j += n_ok
            if n_ok < len(om):
                break
    except (PoleProximityError, ResidualMissError):
        pass
    finally:
        solver.stats = stats
    stats.series_points = j
    stats.series_terms = term_stats.iterations if solver.split is not None else [0] * n_terms
    return j


def _mean_pencil_rate(split) -> float:
    """rho estimated from a Galerkin system's even_odd_split: 1 / |lambda| for
    the slowest finite eigenvalue of its mean pencil s E00 - A00, the limit of
    ||x_k|| / ||x_{k-1}|| were the couplings zero (0 where it has none)."""
    n = len(split.A00)
    mean = DescriptorSystem(split.E00, split.A00, np.zeros((n, 1)), np.zeros((1, n)))
    return 1.0 / np.abs(pencil_spectrum(mean).finite_eigenvalues).min(initial=np.inf)


def _series_at(terms: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """sum_k (i omega)^(k + 1) terms[k] for each omega, the series from its
    term x_1 on (terms = [x_1, x_2, ...]), as the columns of one N x c
    complex array, by one real product with the powers' real and imaginary
    parts."""
    k = 1 + np.arange(len(terms))
    powers = omegas[None, :] ** k[:, None] * _I_POWERS[k % 4, None]
    return (terms.T @ powers.view(float)).view(complex)


def _sample_dense(sys: DescriptorSystem, omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense branch of sample_transfer: the system's real generalized Schur
    form, two vectorised back-substitutions.  Returns (C Z, Y), the samples
    being C Z Y (n_out x k) with Y (n x k) the solutions in Schur
    coordinates, so that a caller may form them a block of rows at a time."""
    try:
        AA, BB, Q, Z, alpha, beta = sys.schur_form
    except np.linalg.LinAlgError as exc:
        raise PoleProximityError(f"QZ decomposition of the pencil failed: {exc}", condition=np.inf) from exc
    s = 1j * omegas
    pivots = np.abs(s * beta[:, None] - alpha[:, None])  # |s_j beta_i - alpha_i|, (n, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        condition = pivots.max(axis=0) / pivots.min(axis=0)
    condition[np.isnan(condition)] = np.inf  # all pivots zero
    bad = np.flatnonzero(condition > 1e15)
    if bad.size:
        j = bad[0]
        raise PoleProximityError(
            f"pole proximity at omega={omegas[j]}: singular or ill-conditioned shifted pencil",
            condition=float(condition[j]),
        )
    b = sys.B[:, 0]
    Y = _back_substitute(AA, BB, s, (Q.T @ b)[:, None])
    # one step of iterative refinement, on the residual in the original
    # pencil, takes the QZ round-off down to the level of an LU solve
    X = _real_times(Z, Y)
    R = b[:, None] - s * _real_times(sys.E, X) + _real_times(sys.A, X)
    Y += _back_substitute(AA, BB, s, _real_times(Q.T, R))
    return sys.C @ Z, Y


def _real_times(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ X for a real M and a C-ordered complex X, as one real product
    with X's real and imaginary parts."""
    return (M @ X.view(float)).view(complex)


def _back_substitute(AA, BB, s, g) -> np.ndarray:
    """Y[:, j] solving (s_j BB - AA) Y[:, j] = g[:, j] for all j at once (g
    may have one column for all); AA upper quasi-triangular, BB upper
    triangular.  A 1 x 1 diagonal block is a division, a 2 x 2 one (AA has
    a subdiagonal entry there) is solved by Cramer's rule."""
    Y = np.empty((len(AA), len(s)), dtype=complex)
    i = len(AA)
    while i:
        lo = i - 2 if i > 1 and AA[i - 1, i - 2] != 0 else i - 1
        rows, tail = slice(lo, i), Y[i:]
        r = g[rows] - s * _real_times(BB[rows, i:], tail) + _real_times(AA[rows, i:], tail)
        M = s * BB[rows, rows, None] - AA[rows, rows, None]  # the block at each s_j, (b, b, k)
        if i - lo == 1:
            Y[lo] = r[0] / M[0, 0]
        else:
            det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            Y[lo] = (M[1, 1] * r[0] - M[0, 1] * r[1]) / det
            Y[lo + 1] = (M[0, 0] * r[1] - M[1, 0] * r[0]) / det
        i = lo
    return Y


def hardy_norms(samples: np.ndarray, grid: FrequencyGrid) -> HardyNormReport:
    """Hardy norms of already-sampled transfer functions.

    samples has shape (n_out, k) on grid.omegas.  H-infinity is the
    discrete maximum; H2 is sqrt((1/pi) * trapezoid(|H|^2) + tail^2)
    with tail^2 = c^2 / (pi * omega_k) from the c/omega decay model.
    |H| and its temporaries exist for NORMS_BLOCK_BYTES of samples at a
    time.  difference_norms gives the norms of H - H_red for a system
    H_red without its samples as a whole array.
    """
    samples = np.atleast_2d(samples)
    return _norms(len(samples), grid, lambda rows: samples[rows])


def difference_norms(
    samples: np.ndarray,
    sys: DescriptorSystem | GalerkinSystem,
    grid: FrequencyGrid,
    stats: SolverStats | None = None,
) -> HardyNormReport:
    """hardy_norms(samples - sample_transfer(sys, grid, stats), grid) without
    sys's samples or the difference as (n_out, k) arrays of their own.

    A dense system's samples C Z Y are formed a block of outputs at a time,
    samples[rows] - (C Z)[rows] Y, from one Schur solution Y; a sparse
    system's sweep is subtracted from `samples` in its own output.  The
    norms of the difference are bitwise those of hardy_norms on it; a dense
    system's products by row block may round differently from one product.
    """
    S = _single_input(sys)
    if samples.shape != (S.n_out, len(grid)):
        raise ValueError(f"samples of shape {samples.shape}, the system and grid give {(S.n_out, len(grid))}")
    if S.is_sparse:
        diff = sample_transfer(sys, grid, stats)
        np.subtract(samples, diff, out=diff)
        return hardy_norms(diff, grid)
    if stats is not None:
        stats.method = "qz"
    CZ, Y = _sample_dense(S, grid.omegas)
    return _norms(len(samples), grid, lambda rows: samples[rows] - _real_times(CZ[rows], Y))


def _norms(n_out: int, grid: FrequencyGrid, block) -> HardyNormReport:
    """hardy_norms of the n_out samples that block(rows) gives by row slices."""
    om = grid.omegas
    # the log-log slope of |H| is taken over the top frequency decade
    j = min(int(np.searchsorted(om, om[-1] / 10.0)), len(om) - 2)

    jmax = np.empty(n_out, dtype=np.intp)
    hinf, integral, mag_j, mag_top = (np.empty(n_out) for _ in range(4))
    step = max(1, NORMS_BLOCK_BYTES // (16 * len(om)))
    for i0 in range(0, n_out, step):
        rows = slice(i0, i0 + step)
        mag = np.abs(block(rows))
        jmax[rows] = np.argmax(mag, axis=1)
        hinf[rows] = mag[np.arange(len(mag)), jmax[rows]]
        integral[rows] = np.trapezoid(mag**2, om, axis=1)
        mag_j[rows], mag_top[rows] = mag[:, j], mag[:, -1]
    argmax_omega = om[jmax]

    c = mag_top * om[-1]
    tail_sq = c**2 / (np.pi * om[-1])
    h2 = np.sqrt(integral / np.pi + tail_sq)
    tail = np.sqrt(tail_sq)

    with np.errstate(invalid="ignore", divide="ignore"):
        # slope -inf where |H| vanishes at the top, 0 where only at om[j]
        slope = np.log10(mag_top / mag_j) / np.log10(om[-1] / om[j])
        tail_warn = tail > 0.01 * np.where(h2 > 0, h2, np.inf)
    slope = np.where(mag_top == 0.0, -np.inf, np.where(mag_j == 0.0, 0.0, slope))
    proper_ok = (hinf == 0.0) | (slope <= -0.5)
    return HardyNormReport(
        h2=h2,
        hinf=hinf,
        argmax_omega=argmax_omega,
        tail_estimate=tail,
        strictly_proper_ok=proper_ok,
        grid=grid,
        tail_fraction_warning=tail_warn,
    )
