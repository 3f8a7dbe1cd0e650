"""Linear time-invariant descriptor systems E x' = A x + B u, y = C x.

Transfer-function evaluation, pencil spectrum / stability / properness
checks, and implicit trapezoidal transient simulation (index-1 safe) for
verifying input-output bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "DescriptorSystem",
    "PencilReport",
    "Trajectory",
    "PoleProximityError",
    "PencilRegularityError",
    "factor_pencil",
    "transfer_eval",
    "pencil_spectrum",
    "simulate_transient",
]


class PoleProximityError(ArithmeticError):
    """Shifted pencil s*E - A is singular or too ill-conditioned to factor."""

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


class PencilRegularityError(ValueError):
    """The pencil lambda*E - A is (numerically) singular for all lambda."""


@dataclass(frozen=True)
class DescriptorSystem:
    """Quadruple (E, A, B, C); E may be singular (DAE case).

    B is stored as a dense float (n, n_in) array, whatever it is given as.
    C has shape (n_out, n); E, A and C may each be dense ndarrays or scipy
    sparse and keep their type.
    """

    E: object
    A: object
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        n = self.A.shape[0]
        if self.A.shape != (n, n) or self.E.shape != (n, n):
            raise ValueError("E and A must be square of equal size")
        B = np.asarray(self.B.toarray() if sp.issparse(self.B) else self.B, dtype=float)
        object.__setattr__(self, "B", B.reshape(-1, 1) if B.ndim == 1 else B)
        if self.B.shape[0] != n:
            raise ValueError("B row count must equal n")
        C = self.C
        if not sp.issparse(C):
            C = np.atleast_2d(np.asarray(C))
            object.__setattr__(self, "C", C)
        if C.shape[1] != n:
            raise ValueError("C column count must equal n")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def n_in(self) -> int:
        return self.B.shape[1]

    @property
    def n_out(self) -> int:
        return self.C.shape[0]

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self.A) or sp.issparse(self.E)

    def dense(self) -> "DescriptorSystem":
        def d(M):
            return M.toarray() if sp.issparse(M) else np.asarray(M)

        return DescriptorSystem(d(self.E), d(self.A), self.B, d(self.C))


def factor_pencil(E, A, shift) -> Callable[[np.ndarray], np.ndarray]:
    """Factor shift*E - A once and return a solve closure.

    SuperLU on CSC when E or A is sparse, dense LU otherwise; a complex
    shift gives a complex factorization, a real one a real factorization.
    A failed factorization or an exactly zero pivot raises
    PoleProximityError, and so do non-finite factors or a pivot ratio above
    1e15 on the dense path.  SuperLU's pivots are readable only through
    CSC copies of both factors that the solver then keeps, which roughly
    doubles the memory of every sparse factorization.
    """
    dtype = complex if np.iscomplexobj(shift) else float
    sparse = sp.issparse(E) or sp.issparse(A)
    if sparse:
        M = shift * sp.csc_matrix(E, dtype=dtype) - sp.csc_matrix(A, dtype=dtype)
    else:
        M = shift * np.asarray(E, dtype=dtype) - np.asarray(A, dtype=dtype)
    try:
        factors = spla.splu(M) if sparse else sla.lu_factor(M)
    except (RuntimeError, ValueError, sla.LinAlgError) as exc:
        raise PoleProximityError(f"singular shifted pencil at s={shift}: {exc}", condition=np.inf) from exc
    if sparse:
        return factors.solve
    lu, piv = factors
    if not np.all(np.isfinite(lu)):
        raise PoleProximityError(f"non-finite factorization at s={shift}", condition=np.inf)
    pivots = np.abs(np.diag(lu))
    if pivots.min() == 0.0:
        raise PoleProximityError(f"exactly singular shifted pencil at s={shift}", condition=np.inf)
    condition = pivots.max() / pivots.min()
    if condition > 1e15:
        raise PoleProximityError(f"ill-conditioned shifted pencil at s={shift}", condition=condition)
    return lambda rhs: sla.lu_solve((lu, piv), rhs)


def transfer_eval(sys: DescriptorSystem, s: complex) -> np.ndarray:
    """H(s) = C (sE - A)^{-1} B via one linear solve; shape (n_out, n_in).

    Never forms an explicit inverse.
    """
    X = factor_pencil(sys.E, sys.A, complex(s))(sys.B)
    return np.asarray(sys.C @ X)


@dataclass(frozen=True)
class PencilReport:
    finite_eigenvalues: np.ndarray
    infinite_count: int
    stable: bool
    strictly_proper: bool
    properness_confidence: str  # "ratio-test" | "assumed"
    method: str  # "dense-eig" | "sampled"


def _properness_slope(sys: DescriptorSystem, omega_scale: float) -> float:
    w1, w2 = 1e8 * omega_scale, 1e10 * omega_scale
    h1 = np.max(np.abs(transfer_eval(sys, 1j * w1)))
    h2 = np.max(np.abs(transfer_eval(sys, 1j * w2)))
    if h2 == 0.0:
        return -np.inf
    if h1 == 0.0:
        return 0.0
    return float(np.log10(h2 / h1) / np.log10(w2 / w1))


def pencil_spectrum(sys: DescriptorSystem, dim_cap: int = 2000) -> PencilReport:
    """Finite spectrum, stability and a properness verdict for the pencil.

    Dense generalized eigendecomposition up to `dim_cap`; above it, a
    sampled shift-inverse check near the imaginary axis is used and the
    report is flagged with method="sampled".
    """
    n = sys.n
    if n <= dim_cap:
        D = sys.dense()
        alpha, beta = sla.eig(D.A, D.E, right=False, homogeneous_eigvals=True)
        if np.any(np.isnan(alpha)) or np.any(np.isnan(beta)):
            raise PencilRegularityError("pencil is numerically singular")
        mag = np.abs(alpha) + np.abs(beta)
        if np.any(mag == 0.0):
            raise PencilRegularityError("pencil is identically singular")
        finite_mask = np.abs(beta) > 1e-12 * mag
        finite = alpha[finite_mask] / beta[finite_mask]
        if np.any(~np.isfinite(finite)):
            raise PencilRegularityError("pencil is numerically singular")
        infinite_count = int(n - finite_mask.sum())
        stable = bool(np.all(finite.real < 0))
        method = "dense-eig"
        omega_scale = max(1.0, float(np.abs(finite).max())) if len(finite) else 1.0
    else:
        # sampled heuristic: explicit shift-invert at several real shifts;
        # eigenvalues mu of (sigma E - A)^{-1} E map to lambda = sigma - 1/mu
        # and the infinite pencil eigenvalues land harmlessly at mu = 0
        found = []
        k = min(20, n - 2)
        for sigma in (1.0, 1e2, 1e4, 1e6, 1e8):
            try:
                solve = factor_pencil(sys.E, sys.A, sigma)
                op = spla.LinearOperator((n, n), matvec=lambda x: solve(sys.E @ x))
                mu = spla.eigs(op, k=k, which="LM", return_eigenvectors=False)
                mu = mu[np.abs(mu) > 1e-12 * np.abs(mu).max()]
                found.append(sigma - 1.0 / mu)
            except (PoleProximityError, spla.ArpackNoConvergence):
                continue
        finite = np.concatenate(found) if found else np.array([], dtype=complex)
        finite = finite[np.isfinite(finite)]
        infinite_count = -1  # unknown for the sampled method
        stable = bool(np.all(finite.real < 0)) if len(finite) else False
        method = "sampled"
        omega_scale = max(1.0, float(np.abs(finite).max())) if len(finite) else 1.0
    try:
        slope = _properness_slope(sys, omega_scale)
        strictly_proper = slope <= -0.5
        confidence = "ratio-test"
    except PoleProximityError:
        strictly_proper = False
        confidence = "assumed"
    return PencilReport(
        finite_eigenvalues=np.sort_complex(np.asarray(finite)),
        infinite_count=infinite_count,
        stable=stable,
        strictly_proper=strictly_proper,
        properness_confidence=confidence,
        method=method,
    )


@dataclass(frozen=True)
class Trajectory:
    """Sampled input/output trajectories on a uniform time grid."""

    times: np.ndarray  # (N+1,)
    outputs: np.ndarray  # (N+1, n_out)
    inputs: np.ndarray  # (N+1,)
    input_l2: float
    scheme: str = "trapezoidal"

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.outputs)):
            raise ValueError("non-finite trajectory values")

    def output_l2(self) -> np.ndarray:
        """Discrete L2[0, horizon) norm per output (composite trapezoid)."""
        return np.sqrt(np.trapezoid(self.outputs**2, self.times, axis=0))

    def output_sup(self) -> np.ndarray:
        return np.max(np.abs(self.outputs), axis=0)

    def to_csv(self, path) -> None:
        header = ",".join(["t"] + [f"y{i+1}" for i in range(self.outputs.shape[1])])
        np.savetxt(
            path,
            np.column_stack([self.times, self.outputs]),
            delimiter=",",
            header=header,
            comments="",
            fmt="%.17e",
        )


def simulate_transient(
    sys: DescriptorSystem,
    input_fn: Callable[[np.ndarray], np.ndarray],
    horizon: float,
    step: float,
) -> Trajectory:
    """Implicit trapezoidal integration of E x' = A x + B u from x(0) = 0.

    One-step A-stable scheme, valid for index-1 DAEs with the consistent
    zero start enforced by u(0) = 0.  With sigma = 2/h each step solves
    (sigma E - A) x_{k+1} = (sigma E + A) x_k + (u_k + u_{k+1}) B, reusing
    one factorization of sigma E - A across all steps.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    n_steps = int(round(horizon / step))
    times = step * np.arange(n_steps + 1)
    u = np.asarray(input_fn(times), dtype=float)
    if abs(u[0]) > 1e-14 * max(1.0, np.abs(u).max()):
        raise ValueError("input must satisfy u(0) = 0 for consistent initialization")
    sigma = 2.0 / step
    solve = factor_pencil(sys.E, sys.A, sigma)
    B = sys.B.ravel()
    x = np.zeros(sys.n)
    outputs = np.empty((n_steps + 1, sys.n_out))
    outputs[0] = np.asarray(sys.C @ x).ravel()
    for k in range(n_steps):
        x = solve(sigma * (sys.E @ x) + sys.A @ x + (u[k] + u[k + 1]) * B)
        outputs[k + 1] = np.asarray(sys.C @ x).ravel()
    input_l2 = float(np.sqrt(np.trapezoid(u**2, times)))
    return Trajectory(times=times, outputs=outputs, inputs=u, input_l2=input_l2)
