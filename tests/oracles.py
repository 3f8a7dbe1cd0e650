"""Independent reference computations the tests compare the package against."""

import scipy.sparse as sp

from sgmor.basis import BasisSpec, QuadratureGrid, eval_basis_matrix
from sgmor.galerkin import ParametricSystem, _as_sparse


def _assemble_quadrature(psys: ParametricSystem, spec: BasisSpec, quad: QuadratureGrid) -> tuple:
    """Quadrature sums M_hat = sum_k w_k kron(phi_k phi_k^T, M(p_k)) for E, A
    and C, and B_hat = sum_k w_k kron(phi_k, B(p_k)); any input and output
    count, in the block layout of `_assemble_affine`."""
    phi = eval_basis_matrix(spec, quad.nodes)
    Ehat = Ahat = Bhat = Chat = 0
    for k in range(len(quad)):
        E, A, B, C = psys.evaluate(quad.nodes[k])
        col = sp.csr_matrix(quad.weights[k] * phi[k][:, None])
        outer = col @ sp.csr_matrix(phi[k][None, :])
        Ehat = Ehat + sp.kron(outer, _as_sparse(E), format="csr")
        Ahat = Ahat + sp.kron(outer, _as_sparse(A), format="csr")
        Bhat = Bhat + sp.kron(col, _as_sparse(B).reshape((psys.n, -1)), format="csr")
        Chat = Chat + sp.kron(outer, _as_sparse(C).reshape((-1, psys.n)), format="csr")
    return Ehat, Ahat, Bhat, Chat
