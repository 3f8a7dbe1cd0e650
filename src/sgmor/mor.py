"""Projection-based model order reduction of the Galerkin system.

One-point Arnoldi moment matching (one-sided, T_l = T_r), the induced
non-orthogonal basis on the parameter space, its SVD re-orthonormalization,
deflation of the numerically rank-deficient part with error certificates,
and the per-basis-function influence measures derived from the SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, eval_basis_matrix, eval_expansion
from .descriptor import DescriptorSystem, factor_pencil
from .galerkin import GalerkinSystem

__all__ = [
    "ReducedSystem",
    "OrthonormalizedBasis",
    "DeflationCertificate",
    "arnoldi_reduce",
    "moment_oracle",
    "reduced_output_surrogate",
    "svd_basis",
    "transform_coefficients",
    "deflate",
]

BREAKDOWN_RTOL = 1e-14


@dataclass(frozen=True)
class ReducedSystem:
    """Reduced descriptor system with its projection matrix.

    system holds the dense (r x r) matrices and the full m-output matrix
    C_bar = C_hat T; T has orthonormal columns (T_l = T_r).
    """

    system: DescriptorSystem
    T: np.ndarray  # (mn, r)
    s0: float
    breakdown: bool = False
    source_dimension: int = 0

    @property
    def r(self) -> int:
        return self.T.shape[1]

    @property
    def m(self) -> int:
        return self.system.n_out


def arnoldi_reduce(gsys: GalerkinSystem | DescriptorSystem, s0: float, r: int) -> ReducedSystem:
    """One-point Krylov projection of the Galerkin system at real s0.

    Builds an orthonormal basis (modified Gram-Schmidt with one full
    reorthogonalization pass) of span{b, Kb, ..., K^(r-1) b} with
    K = (s0 E - A)^(-1) E and b = (s0 E - A)^(-1) B, reusing a single
    factorization of the shifted matrix.  On Krylov breakdown the achieved
    dimension is returned with the breakdown flag set.
    """
    S = gsys.system if isinstance(gsys, GalerkinSystem) else gsys
    E, A = S.E, S.A
    n = S.n
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= {n}")
    solve = factor_pencil(E, A, float(s0))
    Bd = S.B.ravel()
    b = np.asarray(solve(Bd)).ravel()
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        raise ValueError("zero input vector: Krylov space is empty")
    V = np.empty((n, r))
    V[:, 0] = b / b_norm
    achieved = 1
    breakdown = False
    for k in range(1, r):
        w = np.asarray(solve(np.asarray(E @ V[:, k - 1]).ravel())).ravel()
        raw = np.linalg.norm(w)
        for _ in range(2):  # MGS + one reorthogonalization pass
            for j in range(achieved):
                w -= (V[:, j] @ w) * V[:, j]
        h = np.linalg.norm(w)
        if h <= BREAKDOWN_RTOL * max(raw, b_norm):
            breakdown = True
            break
        V[:, k] = w / h
        achieved += 1
    V = V[:, :achieved]
    Er = V.T @ np.asarray(E @ V)
    Ar = V.T @ np.asarray(A @ V)
    Br = V.T @ Bd
    Cr = np.asarray(S.C @ V)
    reduced = DescriptorSystem(Er, Ar, Br.reshape(-1, 1), Cr)
    return ReducedSystem(system=reduced, T=V, s0=float(s0), breakdown=breakdown, source_dimension=n)


def moment_oracle(gsys: GalerkinSystem | DescriptorSystem, s0: float, k: int) -> np.ndarray:
    """First k Taylor coefficients of H at s0, per output; shape (k, n_out).

    Coefficient j is (-1)^j C K^j b with K, b as in `arnoldi_reduce`,
    computed by repeated linear solves on the full system.
    """
    S = gsys.system if isinstance(gsys, GalerkinSystem) else gsys
    solve = factor_pencil(S.E, S.A, float(s0))
    v = np.asarray(solve(S.B.ravel())).ravel()
    out = np.empty((k, S.n_out))
    sign = 1.0
    for j in range(k):
        out[j] = sign * np.asarray(S.C @ v).ravel()
        if j + 1 < k:
            v = np.asarray(solve(np.asarray(S.E @ v).ravel())).ravel()
            sign = -sign
    return out


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
    return eval_expansion(spec, vbar @ np.asarray(rsys.system.C).T, p)


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
    rank_truncated: bool = False

    @property
    def rank(self) -> int:
        return len(self.singular_values)

    def eval_orthonormal(self, spec: BasisSpec, p: np.ndarray) -> np.ndarray:
        """Values of the orthonormalized basis functions at p; (N, rank)."""
        phi = eval_basis_matrix(spec, np.atleast_2d(np.asarray(p, dtype=float)))
        return phi @ self.U


def svd_basis(rsys: ReducedSystem) -> OrthonormalizedBasis:
    """SVD re-orthonormalization of the reduced output matrix.

    Exactly zero (or below machine-noise) singular values are truncated
    with the `rank_truncated` flag set; numerical rank deficiency above
    that level is deliberately kept for the deflation step.
    """
    Cbar = np.asarray(rsys.system.C)
    U, s, Q = np.linalg.svd(Cbar, full_matrices=False)
    r = rsys.r
    tol = max(Cbar.shape) * np.finfo(float).eps * (s[0] if len(s) else 0.0)
    rank = int(np.sum(s > tol))
    truncated = rank < len(s)
    U, s, Q = U[:, :rank], s[:rank], Q[:rank]
    kappa = np.sqrt(np.sum(U**2, axis=1))
    return OrthonormalizedBasis(
        U=U, singular_values=s, Q=Q, r=r, kappa=kappa, rank_truncated=truncated
    )


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
    """Error certificate for truncating the orthonormalized basis at r'."""

    r_prime: int
    threshold: float
    pointwise: np.ndarray  # bound on the L2(Omega) error at each time sample
    aggregate: float  # bound on the space-time L2 error
    truncated_singular_value: float

    def to_dict(self) -> dict:
        return {
            "r_prime": self.r_prime,
            "threshold": self.threshold,
            "aggregate": self.aggregate,
            "truncated_singular_value": self.truncated_singular_value,
            "pointwise_max": float(np.max(self.pointwise)) if len(self.pointwise) else 0.0,
        }


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
        s_cut = 0.0
    else:
        s_cut = float(s[r_prime])
        factor = np.sqrt(rank - r_prime) * s_cut
        pointwise = factor * vnorm_t
        if times is not None:
            comp_l2_sq = np.trapezoid(Vt**2, np.asarray(times, dtype=float), axis=0)
        else:
            comp_l2_sq = np.sum(Vt**2, axis=0)
        aggregate = float(factor * np.sqrt(np.sum(comp_l2_sq)))
    cert = DeflationCertificate(
        r_prime=r_prime,
        threshold=threshold,
        pointwise=pointwise,
        aggregate=aggregate,
        truncated_singular_value=s_cut,
    )
    return r_prime, cert
