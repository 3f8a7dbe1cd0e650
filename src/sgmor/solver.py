"""Solves with the shifted pencil sE - A, to which the frequency sweep
(hardy.sample_transfer), the Krylov reduction (mor.arnoldi_reduce) and the
transient (descriptor.simulate_transient) all reduce.  factor_pencil
factors one pencil by sparse LU; ShiftedSolver is the one solve policy of
the sweep and the reduction, with one route per pencil: GMRES for a
Galerkin system, SuperLU for any other.  The module knows no system type:
a solver takes the pencil's E and A and, for a Galerkin system, its
even-odd split.

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
The couplings touch few e-states (600 of 4640 on the d = 2 ladder, 6720
of 35 840 at d = 3), so they are kept restricted (_Coupling): L_R, the
rows R of L that are not empty, and U_C, the columns C of U that are not.
U P L is then U_C B L_R, where B = P[C, R] holds M^-1[c mod n, r mod n]
for c and r in one block, filled per shift by one gather from M^-1, and a
GMRES step applies v - U_C B L_R P v.  A shift that serves a second solve
forms G = U_C B L_R once, and its later steps apply v - G P v.  B and its
gather indices take memory: 320 660 entries at d = 4 (N = 253 000), about 8 MB
at a complex shift.
Each of at most GMRES_MAXITER outer cycles computes the true residual
r = b - (I (x) M) x - [L x_o; U x_e] and stops once
||r|| <= GMRES_RTOL ||b||; otherwise it runs up to GMRES_RESTART GMRES
steps on f = r_o - U P r_e and adds d_o = P y and d_e = P (r_e - L d_o)
to x (with no Schur unknowns a cycle is x += P r), so the later cycles
refine x to about sparse-LU accuracy.  One Krylov workspace, iterate and
residual serve all the solver's shifts of one dtype; the Arnoldi step is
classical Gram-Schmidt run twice, and Givens rotations end a cycle at a
tenth of the outer target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["PoleProximityError", "ResidualMissError", "SolverStats", "ShiftedSolver", "factor_pencil"]

RESIDUAL_RTOL = 1e-12  # largest true relative residual a GMRES sample may have
# GMRES's own target sits below RESIDUAL_RTOL, near the round-off floor of
# the true residual: on the d = 2 ladder, stopping at 1e-12 left errors of up
# to 1.3e-12 * max|H| in the samples, against 3.6e-14 at this target
GMRES_RTOL = 5e-14
GMRES_RESTART = 40
GMRES_MAXITER = 5  # restart cycles: at most 200 iterations per frequency


class PoleProximityError(ArithmeticError):
    """Shifted pencil s*E - A, or the mean block of a Galerkin pencil, is
    singular or too ill-conditioned to factor."""

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


class ResidualMissError(ArithmeticError):
    """A GMRES solve missed RESIDUAL_RTOL after `iterations` GMRES steps."""

    def __init__(self, message: str, iterations: int):
        super().__init__(message)
        self.iterations = iterations


def factor_pencil(E, A, shift, *, symmetric_mode: bool = False) -> Callable[[np.ndarray], np.ndarray]:
    """Factor shift*E - A once and return a solve closure.

    One route for every pencil: SuperLU on a CSC copy, dense E and A
    included; a complex shift gives a complex factorization, a real one a
    real factorization.  Columns are ordered by COLAMD.  symmetric_mode=True runs
    SuperLU's symmetric mode instead: minimum-degree ordering on A^T + A,
    with the default pivot threshold, so partial pivoting stays.  Only
    simulate_transient passes it.  At its real shift 2/h the ladder's
    Galerkin pencils solve faster this way and as accurately (see there);
    at the complex shifts of a frequency sweep the mode loses digits
    (1.1e-12 against 3.3e-14 of max|H| at d = 1), and at d = 3 it fills a
    third more and factors 2.6 to 9 times slower (omega = 1e-2 to 1e8).
    A failed factorization (an exactly singular pencil) raises
    PoleProximityError, and so does an ill-conditioned one: an estimated
    1-norm condition number above 1e15, or not a number (non-finite
    entries).  SuperLU's pivots are readable only through CSC copies of
    both factors, which would roughly double the memory of every
    factorization, so no pivot ratio is taken.
    """
    dtype = complex if np.iscomplexobj(shift) else float
    M = shift * sp.csc_matrix(E, dtype=dtype) - sp.csc_matrix(A, dtype=dtype)
    try:
        if symmetric_mode:
            factors = spla.splu(M, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
        else:
            factors = spla.splu(M)
    except (RuntimeError, ValueError) as exc:
        raise PoleProximityError(f"singular shifted pencil at s={shift}: {exc}", condition=np.inf) from exc
    # cond_1 = ||M||_1 ||M^-1||_1, the inverse's norm estimated from
    # solves; t=1 keeps the estimate deterministic (t >= 2 draws from
    # numpy's global RNG)
    inv = spla.LinearOperator(
        M.shape, matvec=factors.solve, rmatvec=lambda v: factors.solve(v, trans="H"), dtype=dtype
    )
    condition = spla.norm(M, 1) * spla.onenormest(inv, t=1)
    if not condition <= 1e15:
        raise PoleProximityError(f"ill-conditioned shifted pencil at s={shift}", condition=condition)
    return factors.solve


@dataclass
class SolverStats:
    """How sample_transfer solved each frequency, or arnoldi_reduce each
    Krylov vector; pass one in to have it filled.

    method is "gmres-schur" or "superlu" (see ShiftedSolver), or "qz"
    (dense system).  On the GMRES route `iterations` and `residuals` hold
    one entry per solve, or per frequency of a sweep: the GMRES iterations
    spent and the true relative residual of the returned solution, where a
    sample the Taylor series served records 0 iterations and the series'
    own residual; `schur_unknowns` is the size of the system GMRES ran on.
    A solve that raises records nothing.

    A frequency sweep of a sparse system also sets `series_points`, the
    frequencies the series served, and `series_terms`, the GMRES iterations
    of each term solve at s = 0 (0 on the SuperLU route); term solves
    appear nowhere else.  Elsewhere both stay None and summary() leaves
    them out.
    """

    method: str = ""
    iterations: list[int] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
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
            "schur_unknowns": self.schur_unknowns,
        }
        if self.series_terms is not None:
            summary["series_points"] = self.series_points
            summary["series_terms"] = len(self.series_terms)
            summary["series_iterations"] = sum(self.series_terms)
        return summary


class ShiftedSolver:
    """(sE - A) x = b at the shift s of the last set_shift, for the pencil
    (E, A) of a descriptor system, filling `stats` (a SolverStats).  This
    is the one solve policy of the package, one route per pencil:

    - A pencil given its `split`, a Galerkin system's even_odd_split()
      ("gmres-schur"), is solved by GMRES on the Schur complement alone, as
      the module docstring describes.  set_shift inverts the mean block and
      raises PoleProximityError (condition inf) where it is singular.  A
      GMRES solution is returned only if its true relative residual is at
      most RESIDUAL_RTOL; a miss, a NaN residual included, raises
      ResidualMissError.  Both errors name s and N.
    - Any other pencil, sparse or dense ("superlu"), is solved by sparse
      LU alone: set_shift factors sE - A (factor_pencil, which raises
      PoleProximityError where it is singular or ill-conditioned), and
      every solve at s reuses the factors.  The new factorization replaces
      the previous one only once it is built, so that the allocator reuses
      its memory.

    The GMRES route forms G (see the module docstring) at the second solve
    at one shift, and G serves every later solve there: the Krylov solves
    at s0 and the Taylor terms at s = 0 use it, and a sweep's one-solve
    frequencies never pay for it.  Vectors are in the system's own state
    order; b is cast to the dtype of s (complex for s = i*omega, float for
    a real s).
    """

    def __init__(self, E, A, stats: SolverStats, split=None):
        self.E, self.A, self.stats, self.split = E, A, stats, split
        if split is None:
            stats.method = "superlu"
            return
        stats.method, stats.schur_unknowns = "gmres-schur", len(split.order) - split.n_e
        self.order, self.inverse_order = split.order, np.argsort(split.order)
        self.coupling = _Coupling(split.L[0], split.U[0], len(split.E00))
        self.b_split = self.V = self.H = None

    def set_shift(self, s: float | complex) -> None:
        """Move to shift s: factor sE - A, or invert the mean block."""
        self.s, self.dtype = s, complex if np.iscomplexobj(s) else float
        split = self.split
        if split is None:
            self.lu = factor_pencil(self.E, self.A, s)
            return
        self.mean_block = s * split.E00 - split.A00
        try:
            self.mean_inverse = np.linalg.inv(self.mean_block)
        except np.linalg.LinAlgError as exc:
            raise PoleProximityError(f"singular mean block at s={s}, N={self.A.shape[0]}", condition=np.inf) from exc
        (L_E, L_A), (U_E, U_A) = split.L, split.U
        self.coupling.set_values(s * L_E.data - L_A.data, s * U_E.data - U_A.data, self.mean_inverse)
        self.repeat = False  # whether a solve has run at s
        if self.V is None or self.V.dtype != self.dtype:
            self.V = np.empty((GMRES_RESTART + 1, self.coupling.L.shape[1]), dtype=self.dtype)
            self.H = np.empty((GMRES_RESTART, GMRES_RESTART), dtype=self.dtype)
            # right-hand side, iterate and residual, in the split order
            self.b_split, self.x, self.r = np.empty((3, len(self.order)), dtype=self.dtype)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x solving (sE - A) x = b at the current shift, by the policy above."""
        b = np.asarray(b, dtype=self.dtype)
        if self.split is None:
            return self.lu(b)
        # the N-vectors of a solve are reused, so that it allocates none
        # for its right-hand side, iterate or residual: fresh pages fault
        # at every frequency.  "raise" would make np.take buffer `out`
        b_split = np.take(b, self.order, out=self.b_split, mode="clip")
        if self.repeat and self.coupling.G is None:
            self.coupling.form_product()  # a second solve at s: G serves it and every later one
        self.repeat = True
        x, iterations, r_norm = _gmres_schur(
            self.coupling, self.mean_block, self.mean_inverse, b_split, self.V, self.H, self.x, self.r
        )
        residual = float(r_norm / (np.linalg.norm(b_split) or 1.0))
        if not residual <= RESIDUAL_RTOL:  # a miss, or a NaN residual
            raise ResidualMissError(
                f"true relative residual {residual:.3g} after {iterations} GMRES iterations"
                f" at s={self.s}, N={self.A.shape[0]}",
                iterations,
            )
        self.stats.iterations.append(iterations)
        self.stats.residuals.append(residual)
        return x[self.inverse_order]


class _Coupling:
    """The couplings L = K[e, o] and U = K[o, e] of a split pencil at one
    shift, kept only on the e-states they touch, and the product through
    P = I (x) M^-1 between them (see the module docstring).

    L_R holds the rows R of L that are not empty, U_C the columns C of U
    that are not, and B = P[C, R] the entries M^-1[c mod n, r mod n] for c
    and r in one block, so that U P L = U_C B L_R.  R and C are e-state
    indices, e-states counted from 0.  The patterns are fixed here: L_R
    shares L's column indices, U_C renumbers U's columns into C, and
    set_values writes only values, in the order of L's and U's data.  G,
    the product U_C B L_R as one sparse matrix, exists only after
    form_product and until the next set_values.
    """

    def __init__(self, L: sp.csr_array, U: sp.csr_array, n: int):
        """L (e x o) and U (o x e) as CSR arrays with canonical patterns, n
        the block size; their values are those of the first shift."""
        # every index array in L's index dtype (int32 on any system the
        # package assembles), so that L_R shares L's column indices
        index = L.indices.dtype
        self.n_e = L.shape[0]
        self.rows = np.flatnonzero(np.diff(L.indptr)).astype(index)
        self.cols = np.unique(U.indices).astype(index)
        L_indptr = np.concatenate([L.indptr[:1], L.indptr[self.rows + 1]])
        self.L = sp.csr_array((L.data, L.indices, L_indptr), shape=(len(self.rows), L.shape[1]))
        U_indices = np.searchsorted(self.cols, U.indices).astype(index)
        self.U = sp.csr_array((U.data, U_indices, U.indptr), shape=(U.shape[0], len(self.cols)))
        # row i of B holds the R-states in block cols[i] // n, a run of R
        block_r = self.rows // n
        start = np.searchsorted(block_r, self.cols // n)
        counts = np.searchsorted(block_r, self.cols // n, "right") - start
        indptr = np.append(0, np.cumsum(counts)).astype(index)
        indices = (np.arange(indptr[-1]) + np.repeat(start - indptr[:-1], counts)).astype(index)
        self.gather = np.repeat(self.cols % n * n, counts) + self.rows[indices] % n  # into M^-1, row-major
        self.B = sp.csr_array((np.empty(len(indices)), indices, indptr), shape=(len(self.cols), len(self.rows)))
        self.G = None

    def set_values(self, L_data: np.ndarray, U_data: np.ndarray, mean_inverse: np.ndarray) -> None:
        """Move to the shift whose L and U data and M^-1 these are."""
        self.L.data, self.U.data = L_data, U_data
        self.B.data = np.take(mean_inverse, self.gather)
        self.G = None

    def form_product(self) -> None:
        self.G = self.U @ (self.B @ self.L)

    def schur_product(self, v: np.ndarray) -> np.ndarray:
        """U P L v for an o-vector v, through G where it is formed."""
        if self.G is not None:
            return self.G @ v
        return self.U @ (self.B @ (self.L @ v))


def _residual(coupling: _Coupling, mean_block: np.ndarray, b: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
    """b - K x for K = [[I (x) M, L], [U, I (x) M]], M = mean_block, whose
    eliminated class is the first coupling.n_e states; written to `out` where given."""
    n_e = coupling.n_e
    r = np.empty_like(b) if out is None else out
    np.matmul(x.reshape(-1, len(mean_block)), mean_block.T, out=r.reshape(-1, len(mean_block)))
    np.subtract(b, r, out=r)
    r[coupling.rows] -= coupling.L @ x[n_e:]
    r[n_e:] -= coupling.U @ x[coupling.cols]
    return r


def _gmres_schur(
    coupling: _Coupling,
    mean_block: np.ndarray,
    mean_inverse: np.ndarray,
    b: np.ndarray,
    V: np.ndarray,
    H: np.ndarray,
    x: np.ndarray,
    r: np.ndarray,
) -> tuple[np.ndarray, int, float]:
    """Restarted GMRES on K x = b through its Schur complement, K as in
    _residual, its couplings at the shift of mean_block and mean_inverse.

    V, (restart + 1) x |o|, and H, restart x restart, are the caller's
    workspace and are overwritten; the restart length is len(V) - 1.  So are
    x and r, vectors like b: x holds the iterate, started from zero, and r
    the residual.  The arithmetic is that of V: real Givens rotations for a
    real workspace, complex ones for a complex one.  Each GMRES step applies
    v - coupling.schur_product(P v).  Returns (x, iterations, ||b - K x||),
    the norm being that of the true residual each cycle starts from, so the
    last allowed cycle is followed by one more residual.  Where H is
    singular (a pole on the grid) x is the iterate reached before that
    cycle.
    """
    P = mean_inverse.T
    n = len(P)

    def precondition(v):
        return (v.reshape(-1, n) @ P).ravel()

    scalar = complex if np.iscomplexobj(V) else float
    n_e = coupling.n_e
    L_d_o = np.zeros(n_e, dtype=V.dtype)  # L d_o, nonzero on the rows R alone
    restart = len(V) - 1
    tol = GMRES_RTOL * np.linalg.norm(b)
    # a GMRES cycle aims a decade lower: on the d = 1 ladder, cycles stopped
    # at `tol` left samples up to 1.3e-13 * max|H| off SuperLU, against
    # 3.3e-14 at this target
    cycle_tol = 0.1 * tol
    x.fill(0)
    r_work, r = r, b
    iterations = 0
    for cycle in range(GMRES_MAXITER + 1):
        if cycle:
            r = _residual(coupling, mean_block, b, x, r_work)
        r_norm = float(np.linalg.norm(r))
        if r_norm <= tol or cycle == GMRES_MAXITER:
            break
        p_e = precondition(r[:n_e])
        f = r[n_e:] - coupling.U @ p_e[coupling.cols]
        beta = np.linalg.norm(f)
        if beta > cycle_tol:
            V[0] = f / beta
            g = [scalar(beta)]  # rotated right-hand side beta * e_1
            rotations = []
            for k in range(restart):
                w = V[k] - coupling.schur_product(precondition(V[k]))
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
            L_d_o[coupling.rows] = coupling.L @ d_o
            p_e -= precondition(L_d_o)
        x[:n_e] += p_e
    return x, iterations, r_norm
