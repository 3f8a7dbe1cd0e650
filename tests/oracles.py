"""Independent reference computations the tests compare the package against:
Gauss and Smolyak quadrature over the parameter domain, expectation
tensors by quadrature, Galerkin assembly by quadrature sums and by the
per-index loops and Kronecker sums the package's array assembly must
match bitwise, the transfer-function moments that Krylov reduction must
match, a circuit's transfer function by plain nodal analysis, and a dense
system's transfer function by one LU solve per frequency."""

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from sgmor.circuits import CircuitNetlist
from sgmor.basis import DEFAULT_SIZE_LIMIT, BasisSpec, Distribution1D, MultiIndexSet, SizingError, eval_basis_matrix
from sgmor.descriptor import DescriptorSystem
from sgmor.galerkin import GalerkinSystem, ParametricSystem
from sgmor.solver import factor_pencil


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Tuples of `parts` non-negative ints summing to `total`, lexicographically
    descending: stars and bars, the bars at `parts - 1` of `total + parts - 1` slots."""
    slots = total + parts - 1
    out = []
    for bars in itertools.combinations(range(slots), parts - 1):
        edges = (-1, *bars, slots)
        out.append(tuple(b - a - 1 for a, b in zip(edges, edges[1:])))
    return out[::-1]


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes/weights discretising the expectation over the parameter domain."""

    nodes: np.ndarray  # (n_nodes, q)
    weights: np.ndarray  # (n_nodes,)
    exactness: int
    construction: str  # "tensor" | "smolyak"

    def __post_init__(self):
        if self.nodes.ndim != 2 or len(self.weights) != self.nodes.shape[0]:
            raise ValueError("inconsistent node/weight shapes")

    def __len__(self) -> int:
        return len(self.weights)


def univariate_rule(dist: Distribution1D, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule with `order` nodes, exact to degree 2*order-1 against the density.

    Weights sum to one (probability measure).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    x, w = np.polynomial.legendre.leggauss(order)
    if not np.all(np.isfinite(x)):
        raise ArithmeticError("Gauss-Legendre recurrence did not converge")
    nodes = dist.midpoint + dist.halfwidth * x
    weights = 0.5 * w  # Legendre weights sum to 2; density is uniform
    return nodes, weights


def _tensor_grid(spec: BasisSpec, orders: Sequence[int], limit: int) -> tuple[np.ndarray, np.ndarray]:
    count = int(np.prod([float(o) for o in orders]))
    if count > limit:
        raise SizingError(f"tensor grid would have {count} nodes (limit {limit})")
    rules = [univariate_rule(d, o) for d, o in zip(spec.distributions, orders)]
    mesh = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    nodes = np.column_stack([m.ravel() for m in mesh])
    wmesh = np.meshgrid(*[r[1] for r in rules], indexing="ij")
    weights = np.ones(nodes.shape[0])
    for wm in wmesh:
        weights *= wm.ravel()
    return nodes, weights


def _smolyak_grid(spec: BasisSpec, level: int, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Classic Smolyak combination of the univariate Gauss rules.

    Level L combines tensor rules over multi-levels l (l_i >= 1) with
    L <= |l| <= L+q-1, coefficient (-1)^(L+q-1-|l|) * binom(q-1, |l|-L).
    Duplicate nodes across terms are merged.
    """
    q = spec.q
    acc: dict[tuple[int, ...], float] = {}
    coords: dict[tuple[int, ...], np.ndarray] = {}
    lo = max(level, q)
    hi = level + q - 1
    for total in range(lo, hi + 1):
        coeff = (-1.0) ** (hi - total) * math.comb(q - 1, total - level)
        for lvl in _compositions(total - q, q):  # shift so entries are >= 0
            orders = tuple(l + 1 for l in lvl)
            nodes, weights = _tensor_grid(spec, orders, limit)
            keys = np.round(nodes, 12)
            for row, key_row, w in zip(nodes, keys, weights):
                key = tuple(key_row)
                acc[key] = acc.get(key, 0.0) + coeff * w
                coords.setdefault(key, row)
            if len(acc) > limit:
                raise SizingError(f"Smolyak grid exceeds node limit {limit}")
    keys = list(acc)
    nodes = np.array([coords[k] for k in keys])
    weights = np.array([acc[k] for k in keys])
    keep = np.abs(weights) > 1e-300
    return nodes[keep], weights[keep]


def build_quadrature(
    spec: BasisSpec,
    mode: str = "auto",
    level: int | None = None,
    limit: int = DEFAULT_SIZE_LIMIT,
) -> QuadratureGrid:
    """Quadrature grid exact for polynomials of total degree <= 2*level-1.

    mode "auto" picks tensor for q <= 4 and Smolyak otherwise; the default
    level d+1 covers the affine-parameter Galerkin integrals (degree 2d+1).
    """
    if level is None:
        level = spec.index_set.max_degree + 1
    if level < 1:
        raise ValueError("level must be >= 1")
    if mode == "auto":
        mode = "tensor" if spec.q <= 4 else "smolyak"
    if mode == "tensor":
        nodes, weights = _tensor_grid(spec, [level] * spec.q, limit)
    elif mode == "smolyak":
        nodes, weights = _smolyak_grid(spec, level, limit)
    else:
        raise ValueError(f"unknown quadrature mode {mode!r}")
    return QuadratureGrid(nodes=nodes, weights=weights, exactness=2 * level - 1, construction=mode)


def expectation_tensors(
    spec: BasisSpec,
    quad: QuadratureGrid,
    weight: Callable[[np.ndarray], np.ndarray] | None = None,
    weight_degree: int | None = None,
) -> np.ndarray:
    """Matrix of E[Phi_i Phi_j * weight(p)] under the quadrature grid.

    `weight` maps an (n_nodes, q) array to (n_nodes,); identity weight gives
    the Gram matrix.  When `weight_degree` is supplied and the declared grid
    exactness does not cover 2*d + weight_degree, a warning is emitted.
    """
    if weight_degree is not None:
        needed = 2 * spec.index_set.max_degree + weight_degree
        if quad.exactness < needed:
            warnings.warn(
                f"quadrature exactness {quad.exactness} below required degree {needed}",
                stacklevel=2,
            )
    phi = eval_basis_matrix(spec, quad.nodes)
    w = quad.weights if weight is None else quad.weights * np.asarray(weight(quad.nodes))
    mat = (phi * w[:, None]).T @ phi
    return 0.5 * (mat + mat.T)


def _assemble_quadrature(psys: ParametricSystem, spec: BasisSpec, quad: QuadratureGrid) -> tuple:
    """Quadrature sums M_hat = sum_k w_k kron(phi_k phi_k^T, M(p_k)) for E, A
    and C, and B_hat = sum_k w_k kron(phi_k, B(p_k)); any input and output
    count, in the block layout of the affine assembly."""
    phi = eval_basis_matrix(spec, quad.nodes)
    Ehat = Ahat = Bhat = Chat = 0
    for k in range(len(quad)):
        E, A, B, C = (sp.csr_matrix(M) for M in psys.evaluate(quad.nodes[k]))
        col = sp.csr_matrix(quad.weights[k] * phi[k][:, None])
        outer = col @ sp.csr_matrix(phi[k][None, :])
        Ehat = Ehat + sp.kron(outer, E, format="csr")
        Ahat = Ahat + sp.kron(outer, A, format="csr")
        Bhat = Bhat + sp.kron(col, B, format="csr")
        Chat = Chat + sp.kron(outer, C, format="csr")
    return Ehat, Ahat, Bhat, Chat


def partners_by_dict(iset: MultiIndexSet) -> np.ndarray:
    """Position of alpha + e_ell for each multi-index alpha (row) and
    dimension ell (column), found one tuple at a time in a dict; -1 where
    the set does not hold it."""
    pos = {idx: i for i, idx in enumerate(iset.indices)}
    return np.array(
        [[pos.get(idx[:ell] + (idx[ell] + 1,) + idx[ell + 1 :], -1) for ell in range(iset.q)] for idx in iset.indices]
    )


def moment_matrix_loop(spec: BasisSpec, dim: int) -> sp.csr_matrix:
    """E[Phi_i Phi_j p_dim] by a walk over the index set: a dict from each
    multi-index to its position finds alpha + e_dim, one index at a time."""
    dist = spec.distributions[dim]
    b = spec.recurrence_offdiag
    pos = {idx: i for i, idx in enumerate(spec.index_set.indices)}
    rows, cols, vals = [], [], []
    for i, idx in enumerate(spec.index_set.indices):
        j = idx[dim]
        rows.append(i)
        cols.append(i)
        vals.append(dist.midpoint)
        k = pos.get(idx[:dim] + (j + 1,) + idx[dim + 1 :])
        if k is not None:
            coupling = dist.halfwidth * b[j + 1]
            rows.extend([i, k])
            cols.extend([k, i])
            vals.extend([coupling, coupling])
    m = spec.m
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, m))


def assemble_kron(psys: ParametricSystem, spec: BasisSpec) -> tuple:
    """Affine Galerkin (E, A, B, C) as a running sum of CSR Kronecker
    products, one moment matrix (moment_matrix_loop) per parameter; B is
    sparse here."""
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
        G = moment_matrix_loop(spec, ell)
        if terms[0] is not None:
            Ehat = Ehat + sp.kron(G, terms[0], format="csr")
        if terms[1] is not None:
            Ahat = Ahat + sp.kron(G, terms[1], format="csr")
        if terms[2] is not None:
            Bhat = Bhat + sp.kron(G[:, [0]], terms[2], format="csr")
        if terms[3] is not None:
            Chat = Chat + sp.kron(G, terms[3], format="csr")
    return Ehat, Ahat, Bhat, Chat


def moment_oracle(gsys: GalerkinSystem | DescriptorSystem, s0: float, k: int) -> np.ndarray:
    """First k Taylor coefficients of H at s0, per output; shape (k, n_out).

    Coefficient j is (-1)^j C K^j b with K = (s0 E - A)^(-1) E and
    b = (s0 E - A)^(-1) B, computed by repeated solves with one sparse LU of
    the full system, independent of the GMRES solves the reduction makes.
    """
    S = gsys.system if isinstance(gsys, GalerkinSystem) else gsys
    solve = factor_pencil(S.E, S.A, float(s0))
    v = solve(S.B.ravel())
    out = np.empty((k, S.n_out))
    sign = 1.0
    for j in range(k):
        out[j] = sign * (S.C @ v)
        if j + 1 < k:
            v = solve(S.E @ v)
            sign = -sign
    return out


def nodal_transfer(netlist: CircuitNetlist, values: Sequence[float], s: complex) -> complex:
    """Output voltage at complex frequency s with the driven node held at 1 V.

    Plain nodal analysis: one unknown per node other than ground and the
    driven node, and each element, valued by `values` in netlist order,
    enters as its admittance g, s*c or 1/(s*l).  No inductor currents are
    unknowns and no source is eliminated, unlike modified nodal analysis.
    """
    source = netlist.input_nodes[0]
    ends = [nd for el in netlist.elements for nd in (el.node_a, el.node_b)]
    pos = {nd: i for i, nd in enumerate(dict.fromkeys(nd for nd in ends if nd not in ("0", source)))}
    Y = np.zeros((len(pos), len(pos)), dtype=complex)
    current = np.zeros(len(pos), dtype=complex)
    for el, v in zip(netlist.elements, values, strict=True):
        y = {"G": v, "C": s * v, "L": 1.0 / (s * v)}[el.kind]
        for here, there in ((el.node_a, el.node_b), (el.node_b, el.node_a)):
            if here in pos:
                Y[pos[here], pos[here]] += y
                if there in pos:
                    Y[pos[here], pos[there]] -= y
                elif there == source:
                    current[pos[here]] += y  # y * (1 V at the driven node)
    return complex(np.linalg.solve(Y, current)[pos[netlist.output_node]])


def dense_transfer(sys: DescriptorSystem, omegas: np.ndarray) -> np.ndarray:
    """H(i*omega) of a dense single-input system, one frequency at a time;
    shape (n_out, k).

    LAPACK's LU of i*omega*E - A per frequency, then one refinement step
    through the residual, as the package's dense sampler takes one, but
    without its Schur form.
    """
    b = sys.B[:, 0]
    out = np.empty((sys.n_out, len(omegas)), dtype=complex)
    for j, omega in enumerate(omegas):
        K = 1j * omega * sys.E - sys.A
        lu = sla.lu_factor(K)
        x = sla.lu_solve(lu, b)
        x += sla.lu_solve(lu, b - K @ x)
        out[:, j] = sys.C @ x
    return out
