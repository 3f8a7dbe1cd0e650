"""Stochastic Galerkin assembly for parametric descriptor systems.

Projects a parameter-dependent system (E(p), A(p), B(p), C(p)) onto an
orthonormal polynomial basis, producing one coupled deterministic
descriptor system of dimension m*n with m outputs (basis-major block
ordering: block i holds the n states of basis function i).  Also builds
downsized systems obtained by discarding basis blocks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .basis import BasisSpec, QuadratureGrid, SizingError, eval_basis_matrix
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


def _as_sparse(M, shape=None):
    if M is None:
        return None
    return sp.csr_matrix(M) if not sp.issparse(M) else M.tocsr()


@dataclass
class ParametricSystem:
    """Descriptor system with affine parameter dependence.

    Each matrix is M(p) = M0 + sum_ell p_ell * M_terms[ell]; a term may be
    None when the matrix does not depend on that parameter.  Systems
    without an affine structure can supply `evaluator` only, in which case
    assembly falls back to the generic quadrature path.  Optional
    `parameter_bounds` and `nominal_parameters` give each parameter's
    [lower, upper] range and nominal value.
    """

    n: int
    q: int
    E0: object = None
    A0: object = None
    B0: np.ndarray = None
    C0: np.ndarray = None
    E_terms: Sequence[object] = None
    A_terms: Sequence[object] = None
    B_terms: Sequence[object] = None
    C_terms: Sequence[object] = None
    evaluator: Callable[[np.ndarray], tuple] = None
    parameter_bounds: list[tuple[float, float]] | None = None
    nominal_parameters: np.ndarray | None = None

    def __post_init__(self):
        if self.is_affine:
            for name in ("E_terms", "A_terms", "B_terms", "C_terms"):
                terms = getattr(self, name)
                if terms is None:
                    terms = [None] * self.q
                if len(terms) != self.q:
                    raise ValueError(f"{name} must have length q={self.q}")
                setattr(self, name, list(terms))
            if self.B0 is None:
                self.B0 = np.zeros((self.n, 1))
            self.B0 = np.asarray(self.B0, dtype=float).reshape(self.n, -1)
            if self.C0 is None:
                self.C0 = np.zeros((1, self.n))
            self.C0 = np.atleast_2d(np.asarray(self.C0, dtype=float))

    @property
    def is_affine(self) -> bool:
        return self.A0 is not None

    def evaluate(self, p) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Dense (E(p), A(p), B(p), C(p)) at a single parameter point."""
        p = np.asarray(p, dtype=float).ravel()
        if not self.is_affine:
            return self.evaluator(p)

        def combine(M0, terms):
            out = M0.toarray().astype(float) if sp.issparse(M0) else np.array(M0, dtype=float)
            for val, term in zip(p, terms):
                if term is not None:
                    out = out + val * (term.toarray() if sp.issparse(term) else np.asarray(term))
            return out

        E = combine(self.E0 if self.E0 is not None else np.zeros((self.n, self.n)), self.E_terms)
        A = combine(self.A0, self.A_terms)
        B = combine(self.B0, self.B_terms)
        C = combine(self.C0, self.C_terms)
        return E, A, B, C

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
        kept = tuple(sorted(set(self.kept)))
        if 0 not in kept:
            kept = (0,) + kept
        if kept[0] < 0 or kept[-1] >= self.m:
            raise ValueError("kept positions out of range")
        object.__setattr__(self, "kept", kept)

    @property
    def dropped(self) -> tuple[int, ...]:
        kept = set(self.kept)
        return tuple(i for i in range(self.m) if i not in kept)

    def mask(self) -> np.ndarray:
        out = np.zeros(self.m, dtype=bool)
        out[list(self.kept)] = True
        return out


@dataclass(frozen=True)
class GalerkinSystem:
    """Block-structured Galerkin descriptor system with basis metadata."""

    system: DescriptorSystem
    spec: BasisSpec
    block_dim: int
    basis_positions: tuple[int, ...]  # output row -> position in spec.index_set
    selection: Selection | None = None
    assembly_info: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.system.n_out

    @property
    def dimension(self) -> int:
        return self.system.n

    def output_multi_indices(self) -> list[tuple[int, ...]]:
        return [self.spec.index_set.indices[i] for i in self.basis_positions]


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
    m, n = spec.m, psys.n
    eye = sp.identity(m, format="csr")
    Ehat = sp.kron(eye, _as_sparse(psys.E0) if psys.E0 is not None else sp.csr_matrix((n, n)), format="csr")
    Ahat = sp.kron(eye, _as_sparse(psys.A0), format="csr")
    Chat = sp.kron(eye, _as_sparse(psys.C0), format="csr")
    e0 = sp.csr_matrix(([1.0], ([0], [0])), shape=(m, 1))
    Bhat = sp.kron(e0, _as_sparse(psys.B0), format="csr")
    for ell in range(psys.q):
        terms = (psys.E_terms[ell], psys.A_terms[ell], psys.B_terms[ell], psys.C_terms[ell])
        if all(t is None for t in terms):
            continue
        G = linear_moment_matrix(spec, ell)
        if terms[0] is not None:
            Ehat = Ehat + sp.kron(G, _as_sparse(terms[0]), format="csr")
        if terms[1] is not None:
            Ahat = Ahat + sp.kron(G, _as_sparse(terms[1]), format="csr")
        if terms[2] is not None:
            Bhat = Bhat + sp.kron(G[:, [0]], _as_sparse(terms[2]), format="csr")
        if terms[3] is not None:
            Chat = Chat + sp.kron(G, _as_sparse(terms[3]), format="csr")
    return Ehat, Ahat, Bhat, Chat


def _assemble_quadrature(psys: ParametricSystem, spec: BasisSpec, quad: QuadratureGrid) -> tuple:
    m, n = spec.m, psys.n
    phi = eval_basis_matrix(spec, quad.nodes)
    n_in = 1
    Ehat = np.zeros((m * n, m * n))
    Ahat = np.zeros((m * n, m * n))
    Bhat = np.zeros((m * n, n_in))
    Chat = np.zeros((m, m * n))
    for k in range(len(quad)):
        E, A, B, C = psys.evaluate(quad.nodes[k])
        outer = quad.weights[k] * np.outer(phi[k], phi[k])
        Ehat += np.kron(outer, E)
        Ahat += np.kron(outer, A)
        Bhat += np.kron((quad.weights[k] * phi[k])[:, None], B.reshape(n, -1))
        Chat += np.kron(outer, C.reshape(-1, n))
    return sp.csr_matrix(Ehat), sp.csr_matrix(Ahat), Bhat, sp.csr_matrix(Chat)


def assemble(
    psys: ParametricSystem,
    spec: BasisSpec,
    quad: QuadratureGrid | None = None,
    dimension_limit: int = DEFAULT_DIMENSION_LIMIT,
) -> GalerkinSystem:
    """Assemble the coupled Galerkin system of dimension m*n.

    Affine systems use exact moment matrices of the basis; generic
    evaluator-only systems require a quadrature grid (a warning is
    recorded when its declared exactness cannot be checked against the
    parameter dependence).
    """
    if psys.q != spec.q:
        raise ValueError("parametric system and basis disagree on q")
    m, n = spec.m, psys.n
    if m * n > dimension_limit:
        raise SizingError(f"Galerkin dimension m*n = {m * n} exceeds limit {dimension_limit}")
    info: dict = {"mode": "affine" if psys.is_affine else "quadrature"}
    if psys.is_affine:
        Ehat, Ahat, Bhat, Chat = _assemble_affine(psys, spec)
    else:
        if quad is None:
            raise ValueError("generic (non-affine) assembly requires a quadrature grid")
        needed = 2 * spec.index_set.max_degree + 1
        if quad.exactness < needed:
            warnings.warn(
                f"quadrature exactness {quad.exactness} below {needed}; "
                "assembly may be inexact for non-polynomial dependence",
                stacklevel=2,
            )
            info["exactness_warning"] = True
        info["quadrature_nodes"] = len(quad)
        Ehat, Ahat, Bhat, Chat = _assemble_quadrature(psys, spec, quad)
    system = DescriptorSystem(Ehat, Ahat, Bhat, Chat)
    return GalerkinSystem(
        system=system,
        spec=spec,
        block_dim=n,
        basis_positions=tuple(range(m)),
        assembly_info=info,
    )


def downsize(gsys: GalerkinSystem, sel: Selection) -> GalerkinSystem:
    """Galerkin system restricted to the kept basis blocks.

    The inner dimension shrinks to |kept| * n (identity-column projection
    applied from both sides) while the output matrix keeps all m rows with
    the dropped rows zeroed, so the output count stays m.
    """
    if sel.m != gsys.m:
        raise ValueError("selection size does not match system outputs")
    if gsys.selection is not None:
        # downsizing an already-downsized system with the same selection is
        # the identity on structure
        sel_positions = [gsys.basis_positions.index(i) for i in sel.kept if i in gsys.basis_positions]
        if tuple(gsys.basis_positions[i] for i in sel_positions) != sel.kept:
            raise ValueError("selection not contained in existing downsized basis")
        block_ids = sel_positions
    else:
        block_ids = list(sel.kept)
    n = gsys.block_dim
    cols = np.concatenate([np.arange(b * n, (b + 1) * n) for b in block_ids])
    S = gsys.system
    E = sp.csr_matrix(S.E)[cols][:, cols]
    A = sp.csr_matrix(S.A)[cols][:, cols]
    C = sp.csr_matrix(S.C)[:, cols].tolil()
    for i in sel.dropped:
        C[i, :] = 0.0
    system = DescriptorSystem(E, A, S.B[cols], C.tocsr())
    return GalerkinSystem(
        system=system,
        spec=gsys.spec,
        block_dim=n,
        basis_positions=sel.kept,
        selection=sel,
        assembly_info=dict(gsys.assembly_info),
    )
