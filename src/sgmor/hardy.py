"""Frequency-grid estimation of per-output H2 and H-infinity norms.

The transfer function is sampled on a logarithmic grid along the positive
imaginary axis (conjugate symmetry folds the negative axis).

Sparse systems, Galerkin or not, are sampled through one
solver.ShiftedSolver; its docstring states the solve policy, which
mor.arnoldi_reduce shares at its real shift.  Before it is moved from
frequency to frequency, series bands serve the two ends of the grid.  The
low band comes from the Taylor series x(s) = sum_k s^k x_k at s = 0 (the
moments of asymptotic waveform evaluation), whose terms are real solves at
s = 0.  A Galerkin system's top band comes from the expansion about s =
infinity, x(s) = x_inf + sum_k s^(-k-1) y_k, whose terms are the Markov
parameters (solver.MarkovSeries; two sparse solves each, through SuperLU
factors of the blocks E_dd and A_aa, never of sE - A).

Both bands are one _Series, a truncated series in a variable t = r i^(+-1)
(r = omega for the low band, scale / omega for the top band), walked in
increasing r by one _walk: the low band from the bottom of the grid up,
the top band from the top down, never into the low band.  A series keeps
the coefficients of its residual and of its outputs, never a summed x, and
a point keeps its series sample only if the true residual of that sample
in the system's own E and A is at most GMRES_RTOL, the target of a solved
point.  Each band serves up to the first point that misses it or lies
beyond its reach, where a term may be added: K terms reach r where
(r g)^K <= UNIT_ROUNDOFF, g the geometric mean growth of the term norms.
The first two terms are spent on trust; after them the low band spends a
term only where the points it serves pay for it, and the top band, which
paid for its factorizations, up to SERIES_MAX_TERMS.  The top band starts
only where the same series of the n x n mean block puts at least
SERIES_MAX_TERMS points within the reach of that many terms, before
anything is factored.  On the d = 2 ladder (poles from |lambda| = 1.4e4
to 6.1e5) 24 terms at each end serve the 330 default grid points up to
omega of about 2.9e3 and the 215 from about 2.7e6 up, and GMRES solves
the 177 between the bands; at 2 points per decade only 8 points lie in the
top band's reach, and it declines.

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

from .descriptor import DescriptorSystem
from .galerkin import GalerkinSystem
from .solver import GMRES_RTOL, PoleProximityError, ResidualMissError, ShiftedSolver, SolverStats, markov_series

__all__ = ["FrequencyGrid", "HardyNormReport", "sample_transfer", "hardy_norms", "difference_norms"]

# the complex block of outputs the norms take at a time: about 90 outputs of
# the default 722-point grid, all 253 of d = 2 at 243 points
NORMS_BLOCK_BYTES = 1 << 20
# terms a series band of a sweep may spend; a band holds (K + 1) x (N + n_out)
# coefficients for K terms (8.5 MB at d = 3).  On the ladder, whose poles lie
# from |lambda| = 1.4e4 to 6.1e5, 24 terms reach omega of about 2.9e3 from
# s = 0 and down to about 2.7e6 from s = infinity
SERIES_MAX_TERMS = 24
SERIES_BLOCK_BYTES = 1 << 20  # the N x c complex block of series residuals
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
            fh.write(json.dumps(payload))  # dumps, not dump: only dumps runs the C encoder


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
    first (_low_band); on a Galerkin system the expansion at s = infinity
    then serves a suffix (_top_band).  Each of their points has a true
    relative residual of at most GMRES_RTOL, and every point between them
    is solved as if there were no bands.

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
    n = _low_band(solver, S, grid.omegas, out)
    top, top_residuals = len(grid), np.empty(0)
    stats.top_points = stats.top_terms = 0
    if split is not None:
        top, top_residuals = _top_band(split, S, grid.omegas, n, out, stats)
    b = S.B[:, 0].astype(complex)
    for j, omega in enumerate(grid.omegas[n:top], n):
        try:
            solver.set_shift(1j * omega)
            x = solver.solve(b)
        except PoleProximityError as exc:
            raise PoleProximityError(f"pole proximity at omega={omega}: {exc}", exc.condition) from exc
        out[:, j] = S.C @ x
    _record(stats, top_residuals)
    return out


def _single_input(sys: DescriptorSystem | GalerkinSystem) -> DescriptorSystem:
    S = sys.system if isinstance(sys, GalerkinSystem) else sys
    if S.n_in != 1:
        raise ValueError(f"sampling needs a single-input system (n_in=1), got n_in={S.n_in}")
    return S


def _low_band(solver: ShiftedSolver, S: DescriptorSystem, omegas: np.ndarray, out: np.ndarray) -> int:
    """The low band of a sweep from the Taylor series x(s) = sum_k s^k x_k at s = 0.

    The terms solve -A x_0 = b and -A x_k = -E x_{k-1} through `solver` at
    the real shift 0, so that (sE - A) sum_k s^k x_k = b holds term by term
    (_taylor_terms).  They are a _Series in t = s, r = omega, walked up from
    the bottom of the grid (_walk); a term is spent only where it pays
    (_pays).  The band serves a prefix of omegas, and ends where set_shift
    or a term solve at s = 0 raises, keeping the points it has served; the
    sweep then meets the next shift as if there were no band.  Served
    samples are written to `out` and, on the "gmres-schur" route, recorded
    in the stats with 0 iterations and their residuals; term solves are
    recorded only in the stats' series_terms.  Returns the number of
    leading points served.
    """
    stats = solver.stats
    series = _Series(S, sign=1)
    solver.stats = term_stats = SolverStats()
    try:
        n, residuals = _walk(series, _taylor_terms(solver, S), omegas, out, _pays)
    finally:
        solver.stats = stats
    if solver.split is not None:
        _record(stats, residuals)
    stats.series_points = n
    stats.series_terms = term_stats.iterations if solver.split is not None else [0] * len(series.norms)
    return n


def _taylor_terms(solver: ShiftedSolver, S: DescriptorSystem):
    """The terms x_0, x_1, ... of the Taylor series at s = 0, solved as they
    are asked for; they end where set_shift or a solve at s = 0 raises."""
    rhs = S.B[:, 0]
    try:
        solver.set_shift(0.0)
        while True:
            x = solver.solve(rhs)
            yield x
            rhs = -(S.E @ x)
    except (PoleProximityError, ResidualMissError):
        return


def _pays(series: _Series, r: np.ndarray, j: int) -> bool:
    """The low band's rule for another term: the k terms r[j] needs, at most
    SERIES_MAX_TERMS, may not be more than the points served so far plus
    the points k terms reach, so that a grid the series cannot serve costs
    no more than the two terms spent on trust."""
    k = len(series.norms) + 1
    while k <= SERIES_MAX_TERMS and r[j] > series.reach(k):
        k += 1
    return k <= SERIES_MAX_TERMS and k <= np.searchsorted(r, series.reach(k), "right")


def _top_band(split, S: DescriptorSystem, omegas: np.ndarray, lo: int, out: np.ndarray, stats: SolverStats):
    """The top band of a Galerkin sweep from the expansion at s = infinity,
    x(s) = x_inf + sum_k s^(-k-1) y_k (solver.markov_series).  Returns (j,
    residuals): the band serves omegas[j:], never omega = 0 or one of
    omegas[:lo], and residuals holds their true relative residuals in
    increasing omega.

    Nothing is factored unless the band can pay.  SERIES_MAX_TERMS terms of
    the series of the n x n mean block (split.E00 and split.A00, dense)
    give their growth g_hat (_growth), and the band starts only where at
    least SERIES_MAX_TERMS points lie above scale g_hat
    UNIT_ROUNDOFF^(-1 / SERIES_MAX_TERMS), the reach of that many terms; it
    also declines where either series does not exist.

    The terms come in the variable t = scale / s (MarkovSeries.scale) as
    ty_k = y_k / scale^k, so x = x_inf + sum_k t^(k+1) ty_k / scale is a
    _Series in t with x_inf its constant, r = scale / omega, walked down
    from the top of the grid (_walk).  Once the band starts, only the cap
    SERIES_MAX_TERMS limits its terms: it has paid for its factorizations
    of E_dd and A_aa, not for its terms.  Each E_dd and A_aa solve is
    refined once (MarkovSeries): at 90 % tolerances the unrefined z_0 alone
    left q_0 at 5.7e-14 ||b||, and no point was served.  Served samples are
    written to `out`; the stats get top_points and top_terms.
    """
    declined = len(omegas), np.empty(0)
    n = len(split.E00)
    mean = markov_series(DescriptorSystem(split.E00, split.A00, S.B[:n], S.C[:1, :n]))
    if mean is None or SERIES_MAX_TERMS < 2:
        return declined
    g_hat = _growth([np.linalg.norm(mean.next_term()) for _ in range(SERIES_MAX_TERMS)])
    if np.count_nonzero(omegas[lo:] >= mean.scale * g_hat * UNIT_ROUNDOFF ** (-1.0 / SERIES_MAX_TERMS)) < SERIES_MAX_TERMS:
        return declined
    markov = markov_series(S)
    if markov is None:
        return declined
    lo = max(lo, int(np.searchsorted(omegas, 0.0, "right")))
    series = _Series(S, sign=-1, scale=markov.scale, x_inf=markov.x_inf)
    terms = (markov.next_term() / markov.scale for _ in range(SERIES_MAX_TERMS))
    # column j of the reversed view of `out` takes the point at r[j]
    r = markov.scale / omegas[lo:][::-1]
    served, residuals = _walk(series, terms, r, out[:, lo:][:, ::-1], afford=lambda *_: True)  # the cap alone
    stats.top_points, stats.top_terms = served, len(series.norms)
    return len(omegas) - served, residuals[::-1]


class _Series:
    """A truncated series x(t) = sum_k t^k z_k of the solution of (sE - A) x
    = b of S, b its first input column, in a variable t with s = scale
    t^sign: t = s for the low band (sign 1, scale 1), t = scale / s for the
    top band (sign -1).  At s = i omega, t = r i^sign with r = omega or
    scale / omega.

    It holds the residual R(t) = b - (sE - A) x(t) = sum_k t^k q_k and the
    outputs C x(t) = sum_k t^k C z_k as one row [q_k; C z_k] per power,
    (K + 1) x (N + n_out) for K terms, never the terms or a summed x: a
    term z at power p adds A z into q_p and -scale E z into q_(p + sign),
    so R is the true residual of the represented x in S's own E and A, up
    to the round-off of forming the q_k.  The residual of a summed x would
    carry about u ||A|| ||x|| more, up to 6.3e-14 of ||b|| at the bottom of
    the top band on the d = 2 ladder, above GMRES_RTOL.  q_0 starts at b;
    x_inf, where given, is x's constant (its value at s = infinity, where
    E x_inf = 0), so that the terms start at power 1.
    """

    def __init__(self, S: DescriptorSystem, sign: int, scale: float = 1.0, x_inf: np.ndarray | None = None):
        self.S, self.sign, self.scale, self.norms = S, sign, scale, []
        self.coef = np.zeros((SERIES_MAX_TERMS + 1, S.n + S.n_out))
        self.coef[0, : S.n] = S.B[:, 0]
        self.first = 0 if x_inf is None else 1
        if x_inf is not None:
            self.coef[0, : S.n] += S.A @ x_inf
            self.coef[0, S.n :] = S.C @ x_inf

    def add(self, z: np.ndarray) -> None:
        """Add the next term z, at power first + (terms so far)."""
        S, p = self.S, self.first + len(self.norms)
        self.coef[p, : S.n] += S.A @ z
        self.coef[p, S.n :] = S.C @ z
        self.coef[p + self.sign, : S.n] -= self.scale * (S.E @ z)
        self.norms.append(np.linalg.norm(z))

    def reach(self, k: int | None = None) -> float:
        """The largest r that k terms serve (all terms so far by default):
        (r g)^k <= UNIT_ROUNDOFF, g the growth of the terms so far."""
        g = _growth(self.norms)
        return UNIT_ROUNDOFF ** (1.0 / (k or len(self.norms))) / g if g else np.inf

    def at(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The residuals R (N x c) and outputs C x (n_out x c) at t = r i^sign
        for each r of a block, by one real product with the powers' real and
        imaginary parts."""
        k = np.arange(len(self.norms) + 1)
        powers = r[None, :] ** k[:, None] * _I_POWERS[self.sign * k % 4, None]  # t^k
        X = (self.coef[: len(k)].T @ powers.view(float)).view(complex)
        return X[: self.S.n], X[self.S.n :]


def _walk(series: _Series, terms, r: np.ndarray, out: np.ndarray, afford) -> tuple[int, np.ndarray]:
    """Serve a band's points from `series` in increasing r, column j of
    `out` taking the sample at r[j].  Returns (j, residuals): the band
    serves r[:j], and residuals are their true relative residuals.

    The first two terms, which give the growth, are spent on trust.  Then
    the points within reach are evaluated SERIES_BLOCK_BYTES of residuals
    at a time, and a point keeps its sample only if its residual is at most
    GMRES_RTOL (_gate).  A point beyond reach, or one that misses, asks the
    iterator `terms` for another term only while fewer than
    SERIES_MAX_TERMS exist and afford(series, r, j) allows it; where it may
    not, or `terms` has ended, the band ends there.
    """
    S = series.S
    b_norm = np.linalg.norm(S.B[:, 0]) or 1.0
    block = max(1, SERIES_BLOCK_BYTES // (16 * S.n))
    j, served = 0, []
    while j < len(r):
        reach = series.reach() if len(series.norms) >= 2 else -np.inf
        if r[j] <= reach:
            stop = min(int(np.searchsorted(r, reach, "right")), j + block)
            R, H = series.at(r[j:stop])
            res = _gate(R, b_norm)
            out[:, j : j + len(res)] = H[:, : len(res)]
            served.append(res)
            j += len(res)
            if j == stop:
                continue
        n = len(series.norms)
        z = next(terms, None) if n < SERIES_MAX_TERMS and (n < 2 or afford(series, r, j)) else None
        if z is None:
            break
        series.add(z)
    return j, np.concatenate(served) if served else np.empty(0)


def _growth(norms: list) -> float:
    """The geometric mean ratio of neighbouring term norms, 0 where the first
    is 0.  Not the last ratio: at s = infinity on the ladder, whose fastest
    poles are a complex pair, it swings between about 3e5 and 1.1e6."""
    return (norms[-1] / norms[0]) ** (1.0 / (len(norms) - 1)) if norms[0] else 0.0


def _gate(R: np.ndarray, b_norm: float) -> np.ndarray:
    """The true relative residuals ||R[:, j]|| / ||b|| of a block of series
    samples, cut before the first above GMRES_RTOL: the points served."""
    res = np.linalg.norm(R, axis=0) / b_norm
    ok = res <= GMRES_RTOL  # False where NaN
    return res if ok.all() else res[: int(np.argmin(ok))]


def _record(stats: SolverStats, residuals: np.ndarray) -> None:
    """Record served series samples as GMRES-route solves of 0 iterations."""
    stats.iterations += [0] * len(residuals)
    stats.residuals += residuals.tolist()


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
