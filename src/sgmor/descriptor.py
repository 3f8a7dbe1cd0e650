"""Linear time-invariant descriptor systems E x' = A x + B u, y = C x.

Transfer-function evaluation, the real generalized Schur form of a dense
pencil, pencil spectrum and stability checks, and implicit trapezoidal
transient simulation (index-1 safe) for verifying input-output bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .solver import factor_pencil

__all__ = [
    "DescriptorSystem",
    "PencilReport",
    "Trajectory",
    "PencilRegularityError",
    "transfer_eval",
    "pencil_spectrum",
    "simulate_transient",
]

# largest system simulate_transient integrates: it factors sigma*E - A, and
# at d = 4 on the ladder (N = 253 000) one sparse LU takes 390 s and 2.7 GB
TRANSIENT_MAX_STATES = 100_000


class PencilRegularityError(ValueError):
    """The pencil lambda*E - A is (numerically) singular for all lambda."""


@dataclass(frozen=True)
class DescriptorSystem:
    """Quadruple (E, A, B, C); E may be singular (DAE case).

    The format is fixed here: a system given a sparse E or A is sparse and
    holds E, A and C as float CSR matrices, any other system holds them as
    2-D float ndarrays.  B is a dense float (n, n_in) array in both cases
    and C has shape (n_out, n).  A matrix already in its format is not copied.
    """

    E: np.ndarray | sp.csr_matrix
    A: np.ndarray | sp.csr_matrix
    B: np.ndarray
    C: np.ndarray | sp.csr_matrix

    def __post_init__(self):
        def dense(M):
            return np.asarray(M.toarray() if sp.issparse(M) else M, dtype=float)

        sparse = sp.issparse(self.E) or sp.issparse(self.A)
        E, A, C = (sp.csr_matrix(M, dtype=float) if sparse else dense(M) for M in (self.E, self.A, self.C))
        B = dense(self.B)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B.reshape(-1, 1) if B.ndim == 1 else B)
        object.__setattr__(self, "C", C.reshape(1, -1) if C.ndim == 1 else C)
        n = A.shape[0]
        if A.shape != (n, n) or E.shape != (n, n):
            raise ValueError("E and A must be square of equal size")
        if self.B.shape[0] != n:
            raise ValueError("B row count must equal n")
        if self.C.shape[1] != n:
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
        return sp.issparse(self.A)

    def leading(self, r: int) -> "DescriptorSystem":
        """The system restricted to its first r states."""
        return DescriptorSystem(self.E[:r, :r], self.A[:r, :r], self.B[:r], self.C[:, :r])

    def dense(self) -> "DescriptorSystem":
        if not self.is_sparse:
            return self
        return DescriptorSystem(self.E.toarray(), self.A.toarray(), self.B, self.C.toarray())

    @cached_property
    def schur_form(self) -> tuple[np.ndarray, ...]:
        """(AA, BB, Q, Z, alpha, beta), the real generalized Schur form of a
        dense pencil, computed at the first read and kept on the system.

        A = Q AA Z^T and E = Q BB Z^T with Q and Z orthogonal, BB upper
        triangular and AA upper quasi-triangular: a 1 x 1 diagonal block per
        real eigenvalue, a 2 x 2 block (a nonzero subdiagonal entry of AA) per
        complex-conjugate pair.  The eigenvalues are alpha_i / beta_i, alpha
        complex and beta real and >= 0, beta_i = 0 for an infinite one.
        LAPACK's gges, with the optimal workspace from a query first, as
        scipy.linalg.qz calls it; its alpha and beta are ggev's, the
        eigenvalues scipy.linalg.eig returns.  Both hardy.sample_transfer and
        pencil_spectrum read it, so a reduced system sampled and then judged
        is decomposed once; every reader gets the same arrays and writes to
        none of them.  Raises LinAlgError where E or A has a non-finite
        entry, which LAPACK does not check, or gges fails.
        """
        A, E = self.A, self.E
        if not (np.isfinite(A).all() and np.isfinite(E).all()):
            raise np.linalg.LinAlgError("the pencil has non-finite entries")

        def unsorted(*_):  # gges' eigenvalue selector, unused without sorting
            return 0

        lwork = int(lapack.dgges(unsorted, A, E, lwork=-1)[-2][0])
        AA, BB, _, alphar, alphai, beta, Q, Z, _, info = lapack.dgges(unsorted, A, E, lwork=lwork)
        if info:
            raise np.linalg.LinAlgError(f"gges failed with info = {info}")
        return AA, BB, Q, Z, alphar + 1j * alphai, beta


def transfer_eval(sys: DescriptorSystem, s: complex) -> np.ndarray:
    """H(s) = C (sE - A)^{-1} B via one linear solve; shape (n_out, n_in).

    Never forms an explicit inverse.
    """
    X = factor_pencil(sys.E, sys.A, complex(s))(sys.B)
    return sys.C @ X


@dataclass(frozen=True)
class PencilReport:
    """Spectrum verdicts from a dense generalized Schur form.

    finite_eigenvalues are sorted, infinite_count is exact, and `stable`
    says every finite eigenvalue lies in the open left half-plane.
    Properness is judged from the sampled transfer function, by
    hardy.hardy_norms (`strictly_proper_ok`).
    """

    finite_eigenvalues: np.ndarray
    infinite_count: int
    stable: bool


def pencil_spectrum(sys: DescriptorSystem) -> PencilReport:
    """Finite eigenvalues, infinite-eigenvalue count and stability of the pencil.

    Read from the eigenvalue pairs (alpha, beta) of the system's real
    generalized Schur form (DescriptorSystem.schur_form), the one its dense
    samples come from: a system sampled first is not decomposed again.  An
    eigenvalue is infinite where |beta| <= 1e-12 (|alpha| + |beta|).  The
    system must be dense, as reduced systems are: a sparse one raises
    ValueError naming N before anything is decomposed (densify a small one
    with DescriptorSystem.dense first).  Raises PencilRegularityError where
    the decomposition fails, E or A has a non-finite entry, or some pair is
    (numerically) 0 / 0.
    """
    n = sys.n
    if sys.is_sparse:
        raise ValueError(f"pencil_spectrum needs a dense system, got a sparse one of N={n} states")
    try:
        *_, alpha, beta = sys.schur_form
    except np.linalg.LinAlgError as exc:
        raise PencilRegularityError(f"no generalized Schur form of the pencil: {exc}") from exc
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
        raise PencilRegularityError("pencil is numerically singular")
    mag = np.abs(alpha) + np.abs(beta)
    if np.any(mag == 0.0):
        raise PencilRegularityError("pencil is identically singular")
    finite_mask = np.abs(beta) > 1e-12 * mag
    finite = alpha[finite_mask] / beta[finite_mask]
    return PencilReport(
        finite_eigenvalues=np.sort_complex(finite),
        infinite_count=int(n - finite_mask.sum()),
        stable=bool(np.all(finite.real < 0)),
    )


@dataclass(frozen=True)
class Trajectory:
    """Sampled input/output trajectories on a uniform time grid."""

    times: np.ndarray  # (N+1,)
    outputs: np.ndarray  # (N+1, n_out)
    input_l2: float

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
        """One row per time, t then the outputs, each "%.17e", written row by
        row so that no copy of the trajectory is made."""
        n_out = self.outputs.shape[1]
        row = ",".join(["%.17e"] * (1 + n_out)) + "\n"
        with open(path, "w") as fh:
            fh.write(",".join(["t"] + [f"y{i+1}" for i in range(n_out)]) + "\n")
            for t, y in zip(self.times, self.outputs):
                fh.write(row % (t, *y))


def simulate_transient(
    sys: DescriptorSystem,
    input_fn: Callable[[np.ndarray], np.ndarray],
    horizon: float,
    step: float,
) -> Trajectory:
    """Implicit trapezoidal integration of E x' = A x + B u from x(0) = 0.

    One-step A-stable scheme, valid for index-1 DAEs with the consistent
    zero start enforced by u(0) = 0.  With sigma = 2/h each step solves
    (sigma E - A) x_{k+1} = F x_k + (u_k + u_{k+1}) B with F = sigma E + A
    built once, reusing one factorization of sigma E - A across all steps.
    The pencil is factored in SuperLU's symmetric mode (see
    factor_pencil).  On the ladder at one BLAS thread a step then costs
    about 0.2 ms at d = 2 (N = 5060; 31 737 nonzeros in L + U) and 4.1 ms
    at d = 3 (N = 40 480; 2.22 M), against 0.4-0.5 ms (39 177) and
    6.0-6.7 ms (1.77 M) with COLAMD.  A multi-input system, one above
    TRANSIENT_MAX_STATES states, a horizon that is not finite or is
    shorter than half a step (round(horizon / step) < 1) and an input that
    is not finite at every time raise ValueError before anything is
    factored.
    """
    if sys.n_in != 1:
        raise ValueError(f"simulate_transient needs a single-input system (n_in=1), got n_in={sys.n_in}")
    if step <= 0:
        raise ValueError("step must be positive")
    if not np.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got {horizon}")
    n_steps = int(round(horizon / step))
    if n_steps < 1:
        raise ValueError(f"horizon {horizon} spans no step of {step}: round(horizon / step) = {n_steps}")
    if sys.n > TRANSIENT_MAX_STATES:
        raise ValueError(
            f"no transient for N={sys.n} > {TRANSIENT_MAX_STATES} states: "
            "factoring sigma*E - A would take minutes and gigabytes"
        )
    times = step * np.arange(n_steps + 1)
    u = np.asarray(input_fn(times), dtype=float)
    if not np.isfinite(u).all():
        raise ValueError("input must be finite at every time step")
    if abs(u[0]) > 1e-14 * max(1.0, np.abs(u).max()):
        raise ValueError("input must satisfy u(0) = 0 for consistent initialization")
    sigma = 2.0 / step
    solve = factor_pencil(sys.E, sys.A, sigma, symmetric_mode=True)
    F = sigma * sys.E + sys.A
    B = sys.B.ravel()
    x = np.zeros(sys.n)
    outputs = np.empty((n_steps + 1, sys.n_out))
    outputs[0] = sys.C @ x
    for k in range(n_steps):
        x = solve(F @ x + (u[k] + u[k + 1]) * B)
        outputs[k + 1] = sys.C @ x
    input_l2 = float(np.sqrt(np.trapezoid(u**2, times)))
    return Trajectory(times=times, outputs=outputs, input_l2=input_l2)
