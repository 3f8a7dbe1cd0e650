"""Frequency-grid estimation of per-output H2 and H-infinity norms, and the
shifted solver of sE - A that the sweep and the Krylov reduction share.

The transfer function is sampled on a logarithmic grid along the positive
imaginary axis (conjugate symmetry folds the negative axis).

Galerkin systems (full or downsized).  The three-term recurrence of the
orthonormal basis couples total degree k only to k +- 1, and every diagonal
block of sum_k G_k (x) (sE_k - A_k) is the mean pencil M = sE_00 - A_00.
GalerkinSystem.even_odd_split checks this once and orders the states into
an eliminated class e and a Schur class o, so that
K = sE - A = [[I (x) M, L], [U, I (x) M]] at any shift s, real or complex.
ShiftedSolver solves K x = b without forming K: per shift it writes only
M and the couplings L = K[e, o] and U = K[o, e] and inverts M once.  With
P = I (x) M^-1, eliminating x_e = P (b_e - L x_o) leaves
(I - U P L P) y = b_o - U P b_e for x_o = P y, which restarted GMRES
solves, in real arithmetic for a real s and in complex for s = i*omega.
Each of at most GMRES_MAXITER outer cycles computes the true residual
r = b - (I (x) M) x - [L x_o; U x_e] and stops once
||r|| <= GMRES_RTOL ||b||; otherwise it runs up to GMRES_RESTART GMRES
steps on f = r_o - U P r_e and adds d_o = P y and d_e = P (r_e - L d_o)
to x (with no Schur unknowns a cycle is x += P r), so the later cycles
refine x to about sparse-LU accuracy.  One Krylov workspace, iterate and
residual serve all the solver's shifts of one dtype; the Arnoldi step is
classical Gram-Schmidt run twice, and Givens rotations end a cycle at a
tenth of the outer target.

Sparse systems, Galerkin or not, are sampled through one ShiftedSolver;
its docstring states the solve policy, which mor.arnoldi_reduce shares at
its real shift.  The low band comes first, from the Taylor series
x(s) = sum_k s^k x_k at s = 0 (the moments of asymptotic waveform
evaluation): its terms are real solves at s = 0, added only as far as the
next grid point needs them and only while they serve as many points as they
cost, and each point it serves is kept only where its true residual in the
system's own E and A is at most GMRES_RTOL, the target of a solved point.
From the first point beyond the series' reach the solver is moved from
frequency to frequency.  On the d = 2 ladder (slowest pole at |lambda| =
1.4e4) 24 terms serve the 329 of 722 default grid points up to omega of
about 2.9e3, each term a real GMRES solve of 2 to 3 iterations.

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
at the last grid point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .descriptor import (
    LU_FALLBACK_MAX_STATES,
    DescriptorSystem,
    PoleProximityError,
    factor_pencil,
    pencil_residual,
)
from .galerkin import GalerkinSystem

__all__ = [
    "ShiftedSolver",
    "FrequencyGrid",
    "HardyNormReport",
    "ResidualMissError",
    "SolverStats",
    "sample_transfer",
    "hardy_norms",
]

RESIDUAL_RTOL = 1e-12  # largest true relative residual a GMRES sample may have
# GMRES's own target sits below RESIDUAL_RTOL, near the round-off floor of
# the true residual: on the d = 2 ladder, stopping at 1e-12 left errors of up
# to 1.3e-12 * max|H| in the samples, against 3.6e-14 at this target
GMRES_RTOL = 5e-14
GMRES_RESTART = 40
GMRES_MAXITER = 5  # restart cycles: at most 200 iterations per frequency
NORMS_BLOCK_ROWS = 256  # outputs per block of hardy_norms' m x k temporaries
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


@dataclass
class SolverStats:
    """How sample_transfer solved each frequency, or arnoldi_reduce each
    Krylov vector; pass one in to have it filled.

    method is "gmres-schur" or "superlu" (see ShiftedSolver), or "qz"
    (dense system).  On the GMRES path `iterations` and `residuals` hold
    one entry per solve, or per frequency of a sweep: the GMRES iterations
    spent and the true relative residual of the returned solution, where a
    sample the Taylor series served records 0 iterations and the series'
    own residual; `fallbacks` counts the solves made by sparse LU, and
    `schur_unknowns` is the size of the system GMRES ran on.

    A frequency sweep of a sparse system also sets `series_points`, the
    frequencies the series served, and `series_terms`, the GMRES iterations
    of each term solve at s = 0 (0 on the sparse-LU route); term solves
    appear nowhere else.  Elsewhere both stay None and summary() leaves
    them out.
    """

    method: str = ""
    iterations: list[int] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    fallbacks: int = 0
    schur_unknowns: int | None = None
    series_points: int | None = None
    series_terms: list[int] | None = None

    def summary(self) -> dict:
        its = self.iterations
        summary = {
            "method": self.method,
            "max_iterations": max(its) if its else None,
            "median_iterations": float(np.median(its)) if its else None,
            "total_iterations": sum(its) if its else None,
            "max_residual": max(self.residuals) if self.residuals else None,
            "fallbacks": self.fallbacks,
            "schur_unknowns": self.schur_unknowns,
        }
        if self.series_terms is not None:
            summary["series_points"] = self.series_points
            summary["series_terms"] = len(self.series_terms)
            summary["series_iterations"] = sum(self.series_terms)
        return summary


def sample_transfer(
    sys: DescriptorSystem | GalerkinSystem,
    grid: FrequencyGrid,
    stats: SolverStats | None = None,
) -> np.ndarray:
    """H(i*omega_j) for all outputs of a single-input system; shape (n_out, k).

    A sparse system is solved through one ShiftedSolver, a dense one by its
    real generalized Schur form ("qz", see the module docstring); `stats`
    records the method and, per frequency, what ShiftedSolver records.  On
    a sparse system the low band is served by the Taylor series at s = 0
    first (_series_band): a point whose series sample has a true relative
    residual of at most GMRES_RTOL keeps it, a point above that but within
    RESIDUAL_RTOL is solved by ShiftedSolver started from its series
    sample, and every point from the first one beyond the series' reach is
    solved as if there were no series.

    Raises PoleProximityError naming the omega, with `condition` set, where
    i*omega*E - A is singular or ill-conditioned.  Sparse: where
    ShiftedSolver raises it.  Dense: the decomposition fails or E or A has
    a non-finite entry (condition inf), or, with (alpha_i, beta_i) the
    eigenvalue pairs of the Schur form, a pivot d_i = |i*omega*beta_i -
    alpha_i| is zero (inf) or max d_i / min d_i exceeds 1e15.
    """
    S = sys.system if isinstance(sys, GalerkinSystem) else sys
    if S.n_in != 1:
        raise ValueError(f"sample_transfer needs a single-input system (n_in=1), got n_in={S.n_in}")
    stats = SolverStats() if stats is None else stats
    if not S.is_sparse:
        stats.method = "qz"
        return _sample_dense(S, grid.omegas)
    solver = ShiftedSolver(sys, stats)
    out = np.empty((S.n_out, len(grid)), dtype=complex)
    end, kept, residuals, terms = _series_band(solver, S, grid.omegas, out)
    b = S.B[:, 0].astype(complex)
    for j, omega in enumerate(grid.omegas):
        if kept[j]:
            if solver.split is not None:
                stats.iterations.append(0)
                stats.residuals.append(float(residuals[j]))
            continue
        x0 = _series_at(terms, grid.omegas[j : j + 1])[:, 0] if j < end else None
        try:
            solver.set_shift(1j * omega)
            x = solver.solve(b, x0)
        except PoleProximityError as exc:
            raise PoleProximityError(f"pole proximity at omega={omega}: {exc}", exc.condition) from exc
        out[:, j] = S.C @ x
    return out


def _series_band(
    solver: ShiftedSolver, S: DescriptorSystem, omegas: np.ndarray, out: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The low band of a sweep from the Taylor series x(s) = sum_k s^k x_k at s = 0.

    The terms solve -A x_0 = b and -A x_k = -E x_{k-1} through `solver` at
    the real shift 0, so that (sE - A) sum_k s^k x_k = b holds term by term.
    They are added only as the next grid point needs them: with rho the
    ratio ||x_k|| / ||x_{k-1}|| of the last two terms, a point at omega
    needs K terms with (omega rho)^K <= UNIT_ROUNDOFF.  Growing to K terms
    must not spend more term solves than the points kept so far plus the
    points that K terms reach, and K is at most SERIES_MAX_TERMS (so the
    first two terms, which give rho, are spent on trust).  Points are
    evaluated in increasing omega, SERIES_BLOCK_BYTES of samples at a time,
    each with its true relative residual ||b - (i omega E - A) x|| / ||b||
    in S's own E and A, and a point within GMRES_RTOL is written to `out`.
    x is held as x_0 + D, D the terms from x_1 on, and its residual and
    outputs are those of the two parts: rounding x_0 + D to one vector would
    add about u ||A|| ||x|| to the residual, 4e-14 to 9e-14 of ||b|| on the
    d = 2 ladder, where x_0's own is what its solve refined (0 there).

    The series stops at the first point beyond its reach or above
    RESIDUAL_RTOL, and where a solve at s = 0 raises or falls back to sparse
    LU (then the sweep meets that shift as if there were no series).  Term
    solves are recorded only in the stats' series_terms.  Returns (end,
    kept, residuals, terms): the points before `end` were evaluated, with
    those residuals, from the terms, shape (K, N), and where `kept` their
    samples are in `out`.
    """
    stats = solver.stats
    b = S.B[:, 0]
    b_norm = np.linalg.norm(b) or 1.0
    residuals = np.empty(len(omegas))
    kept = np.zeros(len(omegas), dtype=bool)
    terms = np.empty((SERIES_MAX_TERMS, S.n))
    n_terms = j = 0
    norms = []
    block = max(1, SERIES_BLOCK_BYTES // (16 * S.n))

    def reach(k: int) -> float:
        """The largest omega k terms serve, by the current estimate of rho."""
        if n_terms < 2:
            return 0.0 if k else -1.0  # x_0 alone serves omega = 0
        rho = norms[-1] / norms[-2] if norms[-2] else 0.0
        return UNIT_ROUNDOFF ** (1.0 / k) / rho if rho else np.inf

    solver.stats = term_stats = SolverStats()
    try:
        solver.set_shift(0.0)
        while j < len(omegas):
            if omegas[j] > reach(n_terms):
                # the terms omega_j needs; one more while rho is unknown
                k, n_reach = n_terms + 1, len(omegas) - j
                if n_terms >= 2:
                    while k <= SERIES_MAX_TERMS and omegas[j] > reach(k):
                        k += 1
                    n_reach = np.searchsorted(omegas, reach(k), "right") - j
                if k > SERIES_MAX_TERMS or k > np.count_nonzero(kept) + n_reach or solver.falls_back:
                    break
                rhs = b if n_terms == 0 else -(S.E @ terms[n_terms - 1])
                terms[n_terms] = solver.solve(rhs)
                if solver.falls_back:  # that solve missed: LU takes over at s = 0
                    break
                norms.append(np.linalg.norm(terms[n_terms]))
                n_terms += 1
                continue
            stop = min(int(np.searchsorted(omegas, reach(n_terms), "right")), j + block)
            om = omegas[j:stop]
            # x = x_0 + D, D's real and imaginary parts in adjacent columns
            x0, D = terms[0], _series_at(terms[1:n_terms], om, 1).view(float)
            R = (S.A @ D).view(complex)
            R -= ((S.E @ D).view(complex) + (S.E @ x0)[:, None]) * (1j * om)
            R += (b + S.A @ x0)[:, None]
            res = np.linalg.norm(R, axis=0) / b_norm
            ok = res <= RESIDUAL_RTOL  # False where NaN
            n_ok = len(om) if ok.all() else int(np.argmin(ok))
            keep = np.flatnonzero(res[:n_ok] <= GMRES_RTOL)
            out[:, j + keep] = (S.C @ D).view(complex)[:, keep] + (S.C @ x0)[:, None]
            residuals[j : j + n_ok] = res[:n_ok]
            kept[j + keep] = True
            j += n_ok
            if n_ok < len(om):
                break
    except (PoleProximityError, ResidualMissError):
        pass
    finally:
        solver.stats = stats
    stats.series_points = int(np.count_nonzero(kept))
    stats.series_terms = term_stats.iterations if solver.split is not None else [0] * n_terms
    return j, kept, residuals, terms[:n_terms]


def _series_at(terms: np.ndarray, omegas: np.ndarray, first: int = 0) -> np.ndarray:
    """sum_k (i omega)^(first + k) terms[k] for each omega, the columns of one
    N x c complex array, by one real product with the powers' real and
    imaginary parts."""
    k = first + np.arange(len(terms))
    powers = omegas[None, :] ** k[:, None] * _I_POWERS[k % 4, None]
    return (terms.T @ powers.view(float)).view(complex)


class ResidualMissError(ArithmeticError):
    """A structured solve missed RESIDUAL_RTOL after `iterations` GMRES steps
    on a system too large for the sparse-LU fallback."""

    def __init__(self, message: str, iterations: int):
        super().__init__(message)
        self.iterations = iterations


class ShiftedSolver:
    """(sE - A) x = b at the shift s of the last set_shift, for a Galerkin
    or any sparse descriptor system, filling `stats` (a SolverStats).  This
    is the one solve policy of the package:

    - A Galerkin system with GalerkinSystem.even_odd_split() ("gmres-schur")
      is solved by GMRES on the Schur complement, as the module docstring
      describes.  A GMRES solution is returned only if its true relative
      residual is at most RESIDUAL_RTOL.  After a miss, or where the mean
      block is singular at s, the remaining solves at s go to sparse LU,
      each counted as a fallback and recorded with the iterations GMRES
      spent and its pencil_residual; the next set_shift tries GMRES
      again.  Above LU_FALLBACK_MAX_STATES states there is no fallback:
      the miss raises ResidualMissError, the singular mean block
      PoleProximityError, each naming s and N.
    - Any other sparse (or dense) system ("superlu") is solved by sparse LU
      alone.

    The LU route factors sE - A at the first solve at s that needs it; the
    new factorization replaces the previous one only once it is built, so
    that the allocator reuses its memory.  Vectors are in the system's own
    state order; b is cast to the dtype of s (complex for s = i*omega, float
    for a real s).  Factoring raises PoleProximityError where sE - A is
    singular or ill-conditioned.
    """

    def __init__(self, system: GalerkinSystem | DescriptorSystem, stats: SolverStats):
        self.S = system.system if isinstance(system, GalerkinSystem) else system
        self.stats = stats
        self.split = split = system.even_odd_split() if isinstance(system, GalerkinSystem) else None
        if split is None:
            stats.method = "superlu"
            return
        stats.method, stats.schur_unknowns = "gmres-schur", len(split.order) - split.n_e
        self.order, self.inverse_order = split.order, np.argsort(split.order)
        # a shift rewrites only their values; a sparse array's product costs
        # less call overhead than a sparse matrix's on small systems
        self.L, self.U = (E.copy() for E, _ in (split.L, split.U))
        self.b_split = self.V = self.H = None

    def set_shift(self, s: float | complex) -> None:
        """Move to shift s.  Raises PoleProximityError naming s and N where
        the mean block is singular and the system too large to factor."""
        self.s, self.dtype = s, complex if np.iscomplexobj(s) else float
        # the factorization is marked stale here, not by comparing shifts:
        # 1.0 == 1+0j, but a real factorization cannot solve at a complex shift
        self.lu_stale, self.gmres = True, False
        split = self.split
        if split is None:
            return
        self.mean_block = s * split.E00 - split.A00
        try:
            self.mean_inverse = np.linalg.inv(self.mean_block)
        except np.linalg.LinAlgError as exc:
            if refusal := self._lu_refusal():
                raise PoleProximityError(f"singular mean block at s={s}{refusal}", condition=np.inf) from exc
            return
        for M, (E, A) in zip((self.L, self.U), (split.L, split.U)):
            M.data = s * E.data - A.data
        if self.V is None or self.V.dtype != self.dtype:
            self.V = np.empty((GMRES_RESTART + 1, self.L.shape[1]), dtype=self.dtype)
            self.H = np.empty((GMRES_RESTART, GMRES_RESTART), dtype=self.dtype)
            # right-hand side, iterate and residual, in the split order
            self.b_split, self.x, self.r = np.empty((3, len(self.order)), dtype=self.dtype)
        self.gmres = True

    @property
    def falls_back(self) -> bool:
        """Whether the next solve at this shift is a sparse-LU fallback."""
        return self.split is not None and not self.gmres

    def solve(self, b: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
        """x solving (sE - A) x = b at the current shift, by the policy above;
        GMRES starts from x0 where given (the LU route ignores it)."""
        b = np.asarray(b, dtype=self.dtype)
        iterations = 0
        if self.gmres:
            # the N-vectors of a solve are reused, so that it allocates none
            # for its right-hand side, iterate or residual: fresh pages fault
            # at every frequency.  "raise" would make np.take buffer `out`
            b_split = np.take(b, self.order, out=self.b_split, mode="clip")
            if x0 is not None:
                np.take(np.asarray(x0, dtype=self.dtype), self.order, out=self.x, mode="clip")
            x, iterations, r_norm = _gmres_schur(
                self.L, self.U, self.mean_block, self.mean_inverse, b_split, self.V, self.H,
                self.x, self.r, x0 is not None,
            )
            residual = float(r_norm / (np.linalg.norm(b_split) or 1.0))
            if residual <= RESIDUAL_RTOL:
                self.stats.iterations.append(iterations)
                self.stats.residuals.append(residual)
                return x[self.inverse_order]
            if refusal := self._lu_refusal():  # a miss, or a NaN residual
                raise ResidualMissError(f"true relative residual {residual:.3g} at s={self.s}{refusal}", iterations)
            self.gmres = False  # the remaining solves at s go to sparse LU
        if self.split is not None:
            self.stats.fallbacks += 1  # also where the factorization below fails
        if self.lu_stale:
            self.lu, self.lu_stale = factor_pencil(self.S.E, self.S.A, self.s), False
        x = self.lu(b)
        if self.split is not None:
            self.stats.iterations.append(iterations)
            self.stats.residuals.append(pencil_residual(self.S, self.s, b, x))
        return x

    def _lu_refusal(self) -> str:
        """Why sparse LU may not take over a missed solve, or "" where it may."""
        if self.S.n <= LU_FALLBACK_MAX_STATES:
            return ""
        return f"; no sparse-LU fallback for N={self.S.n} > {LU_FALLBACK_MAX_STATES} states"


def _residual(L, U, mean_block: np.ndarray, b: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
    """b - K x for K = [[I (x) M, L], [U, I (x) M]], M = mean_block, whose
    eliminated class is the first L.shape[0] states; written to `out` where given."""
    n_e = L.shape[0]
    r = np.empty_like(b) if out is None else out
    np.matmul(x.reshape(-1, len(mean_block)), mean_block.T, out=r.reshape(-1, len(mean_block)))
    np.subtract(b, r, out=r)
    r[:n_e] -= L @ x[n_e:]
    r[n_e:] -= U @ x[:n_e]
    return r


def _gmres_schur(
    L: sp.csr_array,
    U: sp.csr_array,
    mean_block: np.ndarray,
    mean_inverse: np.ndarray,
    b: np.ndarray,
    V: np.ndarray,
    H: np.ndarray,
    x: np.ndarray,
    r: np.ndarray,
    warm: bool = False,
) -> tuple[np.ndarray, int, float]:
    """Restarted GMRES on K x = b through its Schur complement, K as in _residual.

    V, (restart + 1) x |o|, and H, restart x restart, are the caller's
    workspace and are overwritten; the restart length is len(V) - 1.  So are
    x and r, vectors like b: x holds the iterate, started from zero, or from
    x's own values where `warm`, and r the residual.  The arithmetic is that of V: real Givens rotations for a real
    workspace, complex ones for a complex one.  Returns (x, iterations,
    ||b - K x||), the norm being that of the true residual each cycle starts
    from, so the last allowed cycle is followed by one more residual.  Where
    H is singular (a pole on the grid) x is the iterate reached before that
    cycle.
    """
    P = mean_inverse.T
    n = len(P)

    def precondition(v):
        return (v.reshape(-1, n) @ P).ravel()

    scalar = complex if np.iscomplexobj(V) else float
    n_e = L.shape[0]
    restart = len(V) - 1
    tol = GMRES_RTOL * np.linalg.norm(b)
    # a GMRES cycle aims a decade lower: on the d = 1 ladder, cycles stopped
    # at `tol` left samples up to 1.3e-13 * max|H| off SuperLU, against
    # 3.3e-14 at this target
    cycle_tol = 0.1 * tol
    if not warm:
        x.fill(0)
    r_work, r = r, b
    iterations = 0
    for cycle in range(GMRES_MAXITER + 1):
        if cycle or warm:
            r = _residual(L, U, mean_block, b, x, r_work)
        r_norm = float(np.linalg.norm(r))
        if r_norm <= tol or cycle == GMRES_MAXITER:
            break
        p_e = precondition(r[:n_e])
        f = r[n_e:] - U @ p_e
        beta = np.linalg.norm(f)
        if beta > cycle_tol:
            V[0] = f / beta
            g = [scalar(beta)]  # rotated right-hand side beta * e_1
            rotations = []
            for k in range(restart):
                w = V[k] - U @ precondition(L @ precondition(V[k]))
                Vk = V[: k + 1]
                h = 0.0
                for _ in range(2):
                    dh = (Vk @ w.conj()).conj()  # conj() returns a real array itself
                    w -= dh @ Vk
                    h = h + dh
                col = h.tolist()
                w_norm = float(np.linalg.norm(w))
                iterations += 1
                # the earlier rotations, then a new one zeroing the subdiagonal w_norm
                for i, (c, s) in enumerate(rotations):
                    col[i], col[i + 1] = c.conjugate() * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
                rho = math.hypot(abs(col[k]), w_norm)
                c, s = (col[k] / rho, w_norm / rho) if rho else (scalar(1.0), 0.0)
                rotations.append((c, s))
                col[k] = scalar(rho)
                g.append(-s * g[k])
                g[k] = c.conjugate() * g[k]
                H[: k + 1, k] = col
                if abs(g[k + 1]) <= cycle_tol or k == restart - 1:  # a breakdown, w = 0, ends here too
                    break
                V[k + 1] = w / w_norm
            m = k + 1
            try:
                y = sla.solve_triangular(H[:m, :m], np.array(g[:m]), check_finite=False)
            except sla.LinAlgError:
                break
            d_o = precondition(y @ V[:m])
            x[n_e:] += d_o
            p_e -= precondition(L @ d_o)
        x[:n_e] += p_e
    return x, iterations, r_norm


def _sample_dense(sys: DescriptorSystem, omegas: np.ndarray) -> np.ndarray:
    """Dense branch of sample_transfer: the system's real generalized Schur
    form, two vectorised back-substitutions."""
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
    return _real_times(sys.C @ Z, Y)


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


def loglog_slope(w_lo: float, h_lo: float, w_hi: float, h_hi: float) -> float:
    """Slope of log|H| against log omega between two samples of |H|.

    -inf when |H| vanishes at w_hi; 0 when it vanishes only at w_lo.
    """
    if h_hi == 0.0:
        return -np.inf
    if h_lo == 0.0:
        return 0.0
    return float(np.log10(h_hi / h_lo) / np.log10(w_hi / w_lo))


def hardy_norms(samples: np.ndarray, grid: FrequencyGrid) -> HardyNormReport:
    """Hardy norms of already-sampled transfer functions.

    samples has shape (n_out, k) on grid.omegas.  H-infinity is the
    discrete maximum; H2 is sqrt((1/pi) * trapezoid(|H|^2) + tail^2)
    with tail^2 = c^2 / (pi * omega_k) from the c/omega decay model.
    The norms of a difference H_a - H_b are those of its samples,
    hardy_norms(samples_a - samples_b, grid).  |H| and its temporaries
    exist for NORMS_BLOCK_ROWS outputs at a time.
    """
    samples = np.atleast_2d(samples)
    om = grid.omegas
    n_out = samples.shape[0]
    # the log-log slope of |H| is taken over the top frequency decade
    j = min(int(np.searchsorted(om, om[-1] / 10.0)), len(om) - 2)

    jmax = np.empty(n_out, dtype=np.intp)
    hinf, integral, mag_j, mag_top = (np.empty(n_out) for _ in range(4))
    for i0 in range(0, n_out, NORMS_BLOCK_ROWS):
        rows = slice(i0, i0 + NORMS_BLOCK_ROWS)
        mag = np.abs(samples[rows])
        jmax[rows] = np.argmax(mag, axis=1)
        hinf[rows] = mag[np.arange(len(mag)), jmax[rows]]
        integral[rows] = np.trapezoid(mag**2, om, axis=1)
        mag_j[rows], mag_top[rows] = mag[:, j], mag[:, -1]
    argmax_omega = om[jmax]

    c = mag_top * om[-1]
    tail_sq = c**2 / (np.pi * om[-1])
    h2 = np.sqrt(integral / np.pi + tail_sq)
    tail = np.sqrt(tail_sq)

    proper_ok = np.ones(n_out, dtype=bool)
    for i in range(n_out):
        if hinf[i] == 0.0:
            continue
        proper_ok[i] = loglog_slope(om[j], mag_j[i], om[-1], mag_top[i]) <= -0.5
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
