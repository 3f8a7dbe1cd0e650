"""Projection-based model order reduction of the Galerkin system.

One-point Arnoldi moment matching (one-sided, T_l = T_r), the induced
non-orthogonal basis on the parameter space, its SVD re-orthonormalization,
deflation of the numerically rank-deficient part with error certificates,
and the per-basis-function influence measures derived from the SVD.

The Krylov solves at the real shift s0 go through one solver.ShiftedSolver,
the solve policy the frequency sweep uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, eval_basis_matrix, eval_expansion
from .descriptor import DescriptorSystem
from .galerkin import GalerkinSystem
from .solver import ShiftedSolver, SolverStats

__all__ = [
    "ReducedSystem",
    "OrthonormalizedBasis",
    "DeflationCertificate",
    "arnoldi_reduce",
    "reduced_output_surrogate",
    "svd_basis",
    "transform_coefficients",
    "deflate",
]

BREAKDOWN_RTOL = 1e-14
PROJECTION_BLOCK = 16  # basis vectors per GEMM when projecting onto the Krylov basis


@dataclass(frozen=True)
class ReducedSystem:
    """Reduced descriptor system with its projection matrix.

    system holds the dense (r x r) matrices and the full output matrix
    C_bar = C_hat T, with one row per basis function as in its Galerkin
    source; T has orthonormal columns (T_l = T_r).  From arnoldi_reduce,
    T is a Fortran-ordered view of the Arnoldi basis, whose vectors are
    stored as rows.
    """

    system: DescriptorSystem
    T: np.ndarray  # (mn, r)

    @property
    def r(self) -> int:
        return self.T.shape[1]

    def truncate(self, r: int) -> ReducedSystem:
        """Projection onto the first r basis vectors.

        Krylov bases are nested, so this is the order-r reduction at the
        same shift.
        """
        if not 1 <= r <= self.r:
            raise ValueError(f"need 1 <= r <= {self.r}")
        return ReducedSystem(system=self.system.leading(r), T=self.T[:, :r])


def arnoldi_reduce(
    gsys: GalerkinSystem | DescriptorSystem, s0: float, r: int, stats: SolverStats | None = None
) -> ReducedSystem:
    """One-point Krylov projection of the Galerkin system at real s0.

    Builds an orthonormal basis of span{b, Kb, ..., K^(r-1) b} with
    K = (s0 E - A)^(-1) E and b = (s0 E - A)^(-1) B, solved by one
    ShiftedSolver at s0 that fills `stats`.  Inexact solves keep T
    orthonormal and the Theorem 2 certificate valid; only the moment
    matching becomes approximate.
    Each new vector is orthogonalized by classical Gram-Schmidt run twice,
    which keeps the basis orthonormal to machine precision.  On breakdown
    fewer than r vectors are returned.  A system with more than one input
    raises ValueError before any solve.
    """
    S = gsys.system if isinstance(gsys, GalerkinSystem) else gsys
    E, A = S.E, S.A
    n = S.n
    if S.n_in != 1:
        raise ValueError(f"arnoldi_reduce needs a single-input system (n_in=1), got n_in={S.n_in}")
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= {n}")
    split = gsys.even_odd_split() if isinstance(gsys, GalerkinSystem) else None
    solver = ShiftedSolver(E, A, SolverStats() if stats is None else stats, split)
    solver.set_shift(float(s0))
    Bd = S.B.ravel()
    b = solver.solve(Bd)
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        raise ValueError("zero input vector: Krylov space is empty")
    V = np.empty((r, n))  # basis vectors as rows
    V[0] = b / b_norm
    for k in range(1, r):
        w = solver.solve(E @ V[k - 1])
        raw = np.linalg.norm(w)
        for _ in range(2):
            w -= V[:k].T @ (V[:k] @ w)
        h = np.linalg.norm(w)
        if h <= BREAKDOWN_RTOL * max(raw, b_norm):
            V = V[:k]
            break
        V[k] = w / h
    del solver  # free its factors, or its coupling and Krylov workspace, before _project allocates
    Er, Ar, Cr = _project(V, E, A, S.C)
    return ReducedSystem(system=DescriptorSystem(Er, Ar, (V @ Bd).reshape(-1, 1), Cr), T=V.T)


def _project(V: np.ndarray, E, A, C) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T^T E T, T^T A T and C T for T = V.T, PROJECTION_BLOCK basis vectors
    at a time: one sparse product per vector into a reused block, then one
    GEMM per block, so that no N x r product is formed."""
    r, n = V.shape
    Er, Ar, Cr = np.empty((r, r)), np.empty((r, r)), np.empty((C.shape[0], r))
    W = np.empty((min(PROJECTION_BLOCK, r), n))
    for i0 in range(0, r, PROJECTION_BLOCK):
        block = V[i0 : i0 + PROJECTION_BLOCK]
        cols = slice(i0, i0 + len(block))
        for M, Mr in ((E, Er), (A, Ar)):
            for j, v in enumerate(block):
                W[j] = M @ v
            Mr[:, cols] = V @ W[: len(block)].T
        for j, v in enumerate(block, i0):
            Cr[:, j] = C @ v
    return Er, Ar, Cr


def reduced_output_surrogate(
    rsys: ReducedSystem,
    vbar: np.ndarray,
    spec: BasisSpec,
    p: np.ndarray,
) -> np.ndarray:
    """Evaluate the MOR surrogate at parameter points.

    Computes (Phi(p)^T C_bar) vbar without materializing the induced basis
    functions.  vbar has shape (r,) or (T, r); p is (q,) or (N, q).
    """
    vbar = np.asarray(vbar, dtype=float)
    if vbar.shape[-1] != rsys.r:
        raise ValueError(f"coefficient rows must have length r={rsys.r}")
    return eval_expansion(spec, vbar @ rsys.system.C.T, p)


@dataclass(frozen=True)
class OrthonormalizedBasis:
    """Thin SVD factors of the reduced output matrix C_bar = U S Q.

    The columns of U define an orthonormal basis on the parameter space;
    kappa measures the influence of each original basis function in it.
    """

    U: np.ndarray  # (m, rank)
    singular_values: np.ndarray  # (rank,) descending, positive
    Q: np.ndarray  # (rank, r)
    r: int
    kappa: np.ndarray  # (m,)

    @property
    def rank(self) -> int:
        return len(self.singular_values)

    def eval_orthonormal(self, spec: BasisSpec, p: np.ndarray) -> np.ndarray:
        """Values of the orthonormalized basis functions at p; (N, rank)."""
        phi = eval_basis_matrix(spec, np.atleast_2d(np.asarray(p, dtype=float)))
        return phi @ self.U


def svd_basis(rsys: ReducedSystem) -> OrthonormalizedBasis:
    """SVD re-orthonormalization of the reduced output matrix.

    Exactly zero (or below machine-noise) singular values are truncated,
    so `rank` may fall below min(m, r); numerical rank deficiency above
    that level is deliberately kept for the deflation step.
    """
    Cbar = rsys.system.C
    U, s, Q = np.linalg.svd(Cbar, full_matrices=False)
    r = rsys.r
    tol = max(Cbar.shape) * np.finfo(float).eps * (s[0] if len(s) else 0.0)
    rank = int(np.sum(s > tol))
    U, s, Q = U[:, :rank], s[:rank], Q[:rank]
    kappa = np.sqrt(np.sum(U**2, axis=1))
    return OrthonormalizedBasis(U=U, singular_values=s, Q=Q, r=r, kappa=kappa)


def transform_coefficients(basis: OrthonormalizedBasis, vbar: np.ndarray) -> np.ndarray:
    """Coefficients in the orthonormalized basis: v*_l = s_l (Q v)_l.

    Accepts (r,) or (T, r); returns matching shape with rank columns.
    """
    vbar = np.asarray(vbar, dtype=float)
    single = vbar.ndim == 1
    Vt = np.atleast_2d(vbar)
    if Vt.shape[1] != basis.Q.shape[1]:
        raise ValueError("coefficient length does not match the basis")
    out = (Vt @ basis.Q.T) * basis.singular_values
    return out[0] if single else out


@dataclass(frozen=True)
class DeflationCertificate:
    """Error certificate for truncating the orthonormalized basis at r'
    (deflate returns r' beside it)."""

    pointwise: np.ndarray  # bound on the L2(Omega) error at each time sample
    aggregate: float  # bound on the space-time L2 error


def deflate(
    basis: OrthonormalizedBasis,
    threshold: float,
    vbar_traj: np.ndarray,
    times: np.ndarray | None = None,
) -> tuple[int, DeflationCertificate]:
    """Truncate the orthonormalized representation at singular value level.

    r' counts singular values >= threshold; the certificate bounds the
    truncation error pointwise in time by sqrt(rank - r') * s_{r'+1} *
    ||vbar(t)|| and in aggregate with the trajectory L2 norms.
    """
    s = basis.singular_values
    if not 0 < threshold:
        raise ValueError("threshold must be positive")
    if threshold >= s[0]:
        raise ValueError("threshold at or above the largest singular value leaves no basis")
    r_prime = int(np.sum(s >= threshold))
    Vt = np.atleast_2d(np.asarray(vbar_traj, dtype=float))
    vnorm_t = np.linalg.norm(Vt, axis=1)
    rank = basis.rank
    if r_prime >= rank:
        pointwise = np.zeros(len(vnorm_t))
        aggregate = 0.0
    else:
        s_cut = float(s[r_prime])
        factor = np.sqrt(rank - r_prime) * s_cut
        pointwise = factor * vnorm_t
        if times is not None:
            comp_l2_sq = np.trapezoid(Vt**2, np.asarray(times, dtype=float), axis=0)
        else:
            comp_l2_sq = np.sum(Vt**2, axis=0)
        aggregate = float(factor * np.sqrt(np.sum(comp_l2_sq)))
    return r_prime, DeflationCertificate(pointwise=pointwise, aggregate=aggregate)
