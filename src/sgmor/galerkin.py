"""Stochastic Galerkin assembly for parametric descriptor systems.

Projects a parameter-dependent system (E(p), A(p), B(p), C(p)) onto an
orthonormal polynomial basis, producing one coupled deterministic
single-input descriptor system of dimension m*n with one output row per
basis function (basis-major block ordering: block i holds the n states of
basis function i, and output i is its coefficient function).  Each coupled
matrix is built in one COO -> CSR pass from the moment matrices, which
come from the index set's neighbour table, with no loop over indices.
Also builds downsized systems obtained by discarding basis blocks.
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
    polynomials under the affine map of the uniform distribution: the
    diagonal holds the midpoint, and each pair alpha_k = alpha_i + e_dim
    (MultiIndexSet.partners) couples with halfwidth * b[alpha_i[dim] + 1].
    """
    m, dist = spec.m, spec.distributions[dim]
    k = spec.index_set.partners[:, dim]
    i = np.flatnonzero(k >= 0)
    c = dist.halfwidth * spec.recurrence_offdiag[spec.index_set.array[i, dim] + 1]
    rows, cols = np.concatenate([np.arange(m), i, k[i]]), np.concatenate([np.arange(m), k[i], i])
    return sp.csr_matrix((np.concatenate([np.full(m, dist.midpoint), c, c]), (rows, cols)), shape=(m, m))


def _coupled(X0, terms: Sequence, spec: BasisSpec, moments: Sequence[sp.csr_matrix]) -> sp.csr_matrix:
    """kron(I, X0) + sum over ell of kron(moments[ell], X_ell), None terms
    skipped, in one COO -> CSR pass and bitwise the sum of CSR matrices taken
    term by term: each diagonal block, X0 + mid_0 X_0 + mid_1 X_1 + ..., is
    summed once in that order, every other block has a single term, so no
    two entries share a position, and zero products are dropped as that sum
    drops them."""
    m, (r0, n) = spec.m, X0.shape
    D, parts = sp.csr_matrix(X0), []
    for ell, (G, X) in enumerate(zip(moments, terms)):
        if X is not None:
            D = D + spec.distributions[ell].midpoint * sp.csr_matrix(X)
            K = sp.kron(G, X, format="coo")
            off = (K.data != 0) & (K.row // r0 != K.col // n)
            parts.append((K.data[off], K.row[off], K.col[off]))
    K = sp.kron(sp.identity(m), D, format="coo")
    data, rows, cols = (np.concatenate(arrays) for arrays in zip(*parts, (K.data, K.row, K.col)))
    return sp.coo_matrix((data, (rows, cols)), shape=K.shape).tocsr()


def assemble(psys: ParametricSystem, spec: BasisSpec) -> GalerkinSystem:
    """Assemble the coupled Galerkin system of dimension m*n from the exact
    moment matrices of the basis; a SizingError names m*n when it exceeds
    DEFAULT_DIMENSION_LIMIT.  The input u(t) is deterministic, the
    coefficient of the constant basis function alone, so the input matrix
    is the first block column of the coupled B."""
    if psys.q != spec.q:
        raise ValueError("parametric system and basis disagree on q")
    m, n = spec.m, psys.n
    if m * n > DEFAULT_DIMENSION_LIMIT:
        raise SizingError(f"Galerkin dimension m*n = {m * n} exceeds limit {DEFAULT_DIMENSION_LIMIT}")
    moments = [linear_moment_matrix(spec, ell) for ell in range(spec.q)]
    parts = ((psys.E0, psys.E_terms), (psys.A0, psys.A_terms), (psys.B0, psys.B_terms), (psys.C0, psys.C_terms))
    Ehat, Ahat, Bhat, Chat = (_coupled(X0, terms, spec, moments) for X0, terms in parts)
    system = DescriptorSystem(Ehat, Ahat, Bhat[:, : psys.B0.shape[1]], Chat)
    return GalerkinSystem(system=system, spec=spec, block_dim=n)


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
