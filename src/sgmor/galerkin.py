"""Stochastic Galerkin assembly for parametric descriptor systems.

Projects a parameter-dependent system (E(p), A(p), B(p), C(p)) onto an
orthonormal polynomial basis, producing one coupled deterministic
single-input descriptor system of dimension m*n with one output row per
basis function (basis-major block ordering: block i holds the n states of
basis function i, and output i is its coefficient function).  Also builds
downsized systems obtained by discarding basis blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from .basis import BasisSpec, SizingError
from .descriptor import DescriptorSystem

__all__ = [
    "ParametricSystem",
    "GalerkinSystem",
    "Selection",
    "assemble",
    "downsize",
    "linear_moment_matrix",
]

DEFAULT_DIMENSION_LIMIT = 1_000_000


@dataclass
class ParametricSystem:
    """Descriptor system with affine parameter dependence.

    Each matrix is M(p) = M0 + sum_ell p_ell * M_terms[ell]; a term may be
    None when the matrix does not depend on that parameter, and E0, B0 and
    C0 default to zero.  E0, A0 and the E and A terms are held as float CSR
    matrices, B0, C0 and the B and C terms as dense float (n, n_in) and
    (n_out, n) arrays.  Optional `parameter_bounds` and `nominal_parameters`
    give each parameter's [lower, upper] range and nominal value.
    """

    n: int
    q: int
    A0: object
    E0: object = None
    B0: np.ndarray = None
    C0: np.ndarray = None
    E_terms: Sequence[object] = None
    A_terms: Sequence[object] = None
    B_terms: Sequence[object] = None
    C_terms: Sequence[object] = None
    parameter_bounds: list[tuple[float, float]] | None = None
    nominal_parameters: np.ndarray | None = None

    def __post_init__(self):
        n = self.n

        def csr(M):
            return sp.csr_matrix(M, dtype=float)

        def column(M):
            return np.asarray(M.toarray() if sp.issparse(M) else M, dtype=float).reshape(n, -1)

        def row(M):
            return np.asarray(M.toarray() if sp.issparse(M) else M, dtype=float).reshape(-1, n)

        self.E0 = csr((n, n) if self.E0 is None else self.E0)
        self.A0 = csr(self.A0)
        self.B0 = column(np.zeros(n) if self.B0 is None else self.B0)
        self.C0 = row(np.zeros(n) if self.C0 is None else self.C0)
        for name, fmt in (("E_terms", csr), ("A_terms", csr), ("B_terms", column), ("C_terms", row)):
            terms = getattr(self, name)
            if terms is None:
                terms = [None] * self.q
            if len(terms) != self.q:
                raise ValueError(f"{name} must have length q={self.q}")
            setattr(self, name, [None if t is None else fmt(t) for t in terms])

    def evaluate(self, p) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Dense (E(p), A(p), B(p), C(p)) at a single parameter point."""
        p = np.asarray(p, dtype=float).ravel()

        def combine(out, terms):
            for val, term in zip(p, terms):
                if term is not None:
                    out = out + val * term
            return out

        E = combine(self.E0.toarray(), [t if t is None else t.toarray() for t in self.E_terms])
        A = combine(self.A0.toarray(), [t if t is None else t.toarray() for t in self.A_terms])
        return E, A, combine(self.B0.copy(), self.B_terms), combine(self.C0.copy(), self.C_terms)

    def system_at(self, p) -> DescriptorSystem:
        E, A, B, C = self.evaluate(p)
        return DescriptorSystem(E, A, B, C)


@dataclass(frozen=True)
class Selection:
    """Subset of basis positions kept in a downsized Galerkin system.

    Positions are 0-based into the ordered index set; position 0 (the
    constant basis function) is always kept.
    """

    kept: tuple[int, ...]
    m: int

    def __post_init__(self):
        if len(self.kept) == 0:
            raise ValueError("kept set must be nonempty")
        if min(self.kept) < 0 or max(self.kept) >= self.m:
            raise ValueError("kept positions out of range")
        object.__setattr__(self, "kept", tuple(sorted(set(self.kept) | {0})))

    @property
    def dropped(self) -> tuple[int, ...]:
        kept = set(self.kept)
        return tuple(i for i in range(self.m) if i not in kept)

    def mask(self) -> np.ndarray:
        out = np.zeros(self.m, dtype=bool)
        out[list(self.kept)] = True
        return out


class EvenOddSplit(NamedTuple):
    """K = sE - A in the state order `order`, eliminated class e first:
    [[I (x) (s E00 - A00), L], [U, I (x) (s E00 - A00)]].  L and U hold
    the (E, A) parts of the couplings K[e, o] and K[o, e], each pair on
    one sparsity pattern, so a shift rewrites only values; e is the first
    n_e states."""

    E00: np.ndarray
    A00: np.ndarray
    order: np.ndarray
    n_e: int
    L: tuple[sp.csr_array, sp.csr_array]
    U: tuple[sp.csr_array, sp.csr_array]


@dataclass(frozen=True)
class GalerkinSystem:
    """Block-structured Galerkin descriptor system with basis metadata.

    The system is single-input, and output row i is the coefficient of
    basis function i: n_in = 1 and n_out = m.
    """

    system: DescriptorSystem
    spec: BasisSpec
    block_dim: int
    selection: Selection | None = None

    def __post_init__(self):
        S = self.system
        if S.n_in != 1 or S.n_out != self.m:
            raise ValueError(
                f"a Galerkin system has one input and one output per basis function (m={self.m}), "
                f"got n_in={S.n_in}, n_out={S.n_out}"
            )

    @property
    def m(self) -> int:
        """Number of basis functions, and of output rows."""
        return self.spec.m

    @property
    def dimension(self) -> int:
        return self.system.n

    @property
    def is_sparse(self) -> bool:
        return self.system.is_sparse

    def even_odd_split(self) -> EvenOddSplit | None:
        """The blocks split by the degree parity of their basis function,
        or None where that split does not decouple the diagonal.

        Subtracting I (x) E_00 from E and I (x) A_00 from A must leave only
        nonzeros that couple two blocks of opposite degree parity; affine
        assembly gives that bitwise.  The class with fewer blocks, the odd
        one on a tie, is the Schur class o; the other is eliminated (e).
        The split is computed at the first call and kept on the system, so
        that a frequency sweep and a Krylov reduction of one system share it.
        """
        return self._even_odd_split

    @cached_property
    def _even_odd_split(self) -> EvenOddSplit | None:
        n = self.block_dim
        degrees = self.spec.index_set.total_degrees()
        if self.selection is not None:
            degrees = degrees[list(self.selection.kept)]
        odd = degrees % 2 == 1
        eye = sp.identity(len(odd), format="csr")
        means, rests = [], []
        for M in (self.system.E, self.system.A):
            mean = M[:n, :n].toarray()
            rest = (M - sp.kron(eye, mean, format="csr")).tocoo()
            nonzero = rest.data != 0
            if np.any(odd[rest.row[nonzero] // n] == odd[rest.col[nonzero] // n]):
                return None
            means.append(mean)
            rests.append(rest.tocsr())
        schur = odd if np.count_nonzero(odd) <= np.count_nonzero(~odd) else ~odd
        states = np.repeat(schur, n)
        e, o = np.flatnonzero(~states), np.flatnonzero(states)
        # A + iE holds both parts exactly, on the union of their patterns
        K = rests[1] + 1j * rests[0]
        L, U = (_parts(K[e][:, o]), _parts(K[o][:, e]))
        return EvenOddSplit(*means, np.concatenate([e, o]), len(e), L, U)


def _parts(K: sp.csr_matrix) -> tuple[sp.csr_array, sp.csr_array]:
    """The E (imaginary) and A (real) parts of K = A + iE on K's pattern."""
    return tuple(
        sp.csr_array((d.copy(), K.indices, K.indptr), shape=K.shape) for d in (K.data.imag, K.data.real)
    )


def linear_moment_matrix(spec: BasisSpec, dim: int) -> sp.csr_matrix:
    """Sparse m x m matrix of E[Phi_i Phi_j p_dim] computed analytically.

    Uses the three-term recurrence of the univariate orthonormal
    polynomials under the affine map of the uniform distribution:
    entries couple indices equal in all dimensions and differing by at
    most one in `dim`.
    """
    iset = spec.index_set
    dist = spec.distributions[dim]
    b = spec.recurrence_offdiag
    pos = {idx: i for i, idx in enumerate(iset.indices)}
    rows, cols, vals = [], [], []
    for i, idx in enumerate(iset.indices):
        j = idx[dim]
        rows.append(i)
        cols.append(i)
        vals.append(dist.midpoint)
        up = idx[:dim] + (j + 1,) + idx[dim + 1 :]
        k = pos.get(up)
        if k is not None:
            coupling = dist.halfwidth * b[j + 1]
            rows.extend([i, k])
            cols.extend([k, i])
            vals.extend([coupling, coupling])
    m = len(iset)
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, m))


def _assemble_affine(psys: ParametricSystem, spec: BasisSpec) -> tuple:
    m = spec.m
    eye = sp.identity(m, format="csr")
    Ehat = sp.kron(eye, psys.E0, format="csr")
    Ahat = sp.kron(eye, psys.A0, format="csr")
    Chat = sp.kron(eye, psys.C0, format="csr")
    e0 = sp.csr_matrix(([1.0], ([0], [0])), shape=(m, 1))
    Bhat = sp.kron(e0, psys.B0, format="csr")
    for ell in range(psys.q):
        terms = (psys.E_terms[ell], psys.A_terms[ell], psys.B_terms[ell], psys.C_terms[ell])
        if all(t is None for t in terms):
            continue
        G = linear_moment_matrix(spec, ell)
        if terms[0] is not None:
            Ehat = Ehat + sp.kron(G, terms[0], format="csr")
        if terms[1] is not None:
            Ahat = Ahat + sp.kron(G, terms[1], format="csr")
        if terms[2] is not None:
            Bhat = Bhat + sp.kron(G[:, [0]], terms[2], format="csr")
        if terms[3] is not None:
            Chat = Chat + sp.kron(G, terms[3], format="csr")
    return Ehat, Ahat, Bhat, Chat


def assemble(psys: ParametricSystem, spec: BasisSpec) -> GalerkinSystem:
    """Assemble the coupled Galerkin system of dimension m*n from the exact
    moment matrices of the basis; a SizingError names m*n when it exceeds
    DEFAULT_DIMENSION_LIMIT."""
    if psys.q != spec.q:
        raise ValueError("parametric system and basis disagree on q")
    m, n = spec.m, psys.n
    if m * n > DEFAULT_DIMENSION_LIMIT:
        raise SizingError(f"Galerkin dimension m*n = {m * n} exceeds limit {DEFAULT_DIMENSION_LIMIT}")
    Ehat, Ahat, Bhat, Chat = _assemble_affine(psys, spec)
    return GalerkinSystem(system=DescriptorSystem(Ehat, Ahat, Bhat, Chat), spec=spec, block_dim=n)


def downsize(gsys: GalerkinSystem, sel: Selection) -> GalerkinSystem:
    """Galerkin system restricted to the kept basis blocks.

    The inner dimension shrinks to |kept| * n (identity-column projection
    applied from both sides) while the output matrix keeps all m rows,
    the row of each dropped basis function zeroed, so the output count is
    unchanged.
    """
    if sel.m != gsys.m:
        raise ValueError(f"selection size {sel.m} does not match the basis size {gsys.m}")
    block_ids = list(sel.kept)
    if gsys.selection is not None:
        # blocks of a downsized system are its kept positions, in order
        have = gsys.selection.kept
        if not set(block_ids) <= set(have):
            raise ValueError("selection not contained in existing downsized basis")
        block_ids = [have.index(i) for i in block_ids]
    n = gsys.block_dim
    cols = np.concatenate([np.arange(b * n, (b + 1) * n) for b in block_ids])
    S = gsys.system
    keep_rows = sp.diags(sel.mask().astype(float))
    system = DescriptorSystem(S.E[cols][:, cols], S.A[cols][:, cols], S.B[cols], keep_rows @ S.C[:, cols])
    return GalerkinSystem(system=system, spec=gsys.spec, block_dim=n, selection=sel)
