"""Multivariate orthonormal polynomial bases for independent uniform parameters.

Provides total-degree multi-index sets, orthonormal (shifted Legendre)
polynomial evaluation, and Gauss / Smolyak quadrature for probabilistic
integrals against the product density of the parameters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "Distribution1D",
    "MultiIndexSet",
    "BasisSpec",
    "QuadratureGrid",
    "SizingError",
    "DomainError",
    "build_index_set",
    "univariate_rule",
    "build_quadrature",
    "eval_basis",
    "eval_basis_matrix",
    "eval_expansion",
    "expectation_tensors",
]

#: hard cap on |index set| and on quadrature node counts before a SizingError
DEFAULT_SIZE_LIMIT = 5_000_000


class SizingError(ValueError):
    """Requested basis or grid would exceed the configured size limit."""


class DomainError(ValueError):
    """Evaluation point lies outside the parameter domain."""


@dataclass(frozen=True)
class Distribution1D:
    """Uniform distribution on [lower, upper] with density 1/(upper-lower)."""

    lower: float
    upper: float
    kind: str = "uniform"

    def __post_init__(self):
        if self.kind != "uniform":
            raise ValueError(f"unsupported distribution kind {self.kind!r}")
        if not self.lower < self.upper:
            raise ValueError(f"need lower < upper, got [{self.lower}, {self.upper}]")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.upper - self.lower)

    def to_reference(self, p):
        """Affine map [lower, upper] -> [-1, 1]."""
        return (np.asarray(p) - self.midpoint) / self.halfwidth

    def contains(self, p, rtol: float = 1e-12) -> bool:
        pad = rtol * (self.upper - self.lower)
        return bool(np.all(p >= self.lower - pad) and np.all(p <= self.upper + pad))


@dataclass(frozen=True)
class MultiIndexSet:
    """Ordered set of multivariate polynomial degree tuples.

    The first element is always the zero multi-index (the constant basis
    function); total-degree sets are stored in graded lexicographic order.
    """

    q: int
    indices: tuple[tuple[int, ...], ...]
    degree_bound: int | None = None

    def __post_init__(self):
        if len(self.indices) == 0:
            raise ValueError("index set must be nonempty")
        if any(self.indices[0]):
            raise ValueError("first multi-index must be the zero index")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("duplicate multi-indices")
        for idx in self.indices:
            if len(idx) != self.q or any(j < 0 for j in idx):
                raise ValueError(f"bad multi-index {idx} for q={self.q}")

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.indices)

    @property
    def max_degree(self) -> int:
        return max(sum(idx) for idx in self.indices)

    def total_degrees(self) -> np.ndarray:
        return np.array([sum(idx) for idx in self.indices], dtype=int)

    def position(self, idx: Sequence[int]) -> int:
        return self.indices.index(tuple(idx))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Degree tuples summing to `total`, lexicographically descending."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def build_index_set(q: int, d: int, limit: int = DEFAULT_SIZE_LIMIT) -> MultiIndexSet:
    """All multi-indices of total degree <= d in graded lexicographic order.

    The cardinality is binomial(q+d, d); a SizingError names the would-be
    size when it exceeds `limit`.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if d < 0:
        raise ValueError("d must be >= 0")
    m = math.comb(q + d, d)
    if m > limit:
        raise SizingError(f"index set would have m={m} elements (limit {limit})")
    indices = []
    for deg in range(d + 1):
        indices.extend(_compositions(deg, q))
    return MultiIndexSet(q=q, indices=tuple(indices), degree_bound=d)


def _recurrence_offdiag(max_degree: int) -> np.ndarray:
    """Three-term recurrence coefficients b_j of orthonormal Legendre.

    On [-1, 1] with density 1/2:  x phi_j = b_{j+1} phi_{j+1} + b_j phi_{j-1}
    with b_j = j / sqrt(4 j^2 - 1).  Entry j of the returned array is b_j.
    """
    j = np.arange(max_degree + 2, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        b = j / np.sqrt(4.0 * j * j - 1.0)
    b[0] = 0.0
    return b


@dataclass(frozen=True)
class BasisSpec:
    """Orthonormal multivariate polynomial basis over independent parameters."""

    distributions: tuple[Distribution1D, ...]
    index_set: MultiIndexSet
    recurrence_offdiag: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if len(self.distributions) != self.index_set.q:
            raise ValueError("number of distributions must equal q")
        if self.recurrence_offdiag is None:
            b = _recurrence_offdiag(self.index_set.max_degree)
            object.__setattr__(self, "recurrence_offdiag", b)

    @classmethod
    def uniform(cls, bounds: Sequence[tuple[float, float]], index_set: MultiIndexSet) -> "BasisSpec":
        dists = tuple(Distribution1D(lo, hi) for lo, hi in bounds)
        return cls(distributions=dists, index_set=index_set)

    @property
    def q(self) -> int:
        return self.index_set.q

    @property
    def m(self) -> int:
        return len(self.index_set)

    def domain_contains(self, points) -> bool:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return all(d.contains(pts[:, ell]) for ell, d in enumerate(self.distributions))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n joint samples of the parameters, shape (n, q)."""
        cols = [rng.uniform(d.lower, d.upper, size=n) for d in self.distributions]
        return np.column_stack(cols)


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

    def to_csv(self, path) -> None:
        header = ",".join([f"p{ell+1}" for ell in range(self.nodes.shape[1])] + ["weight"])
        data = np.column_stack([self.nodes, self.weights])
        np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17e")


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
        level = (spec.index_set.degree_bound or spec.index_set.max_degree) + 1
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


def _univariate_table(spec: BasisSpec, points: np.ndarray) -> list[np.ndarray]:
    """Per-dimension tables phi_j(p_ell) for j = 0..max_degree.

    Returns a list of (n_points, max_degree+1) arrays.
    """
    dmax = spec.index_set.max_degree
    b = spec.recurrence_offdiag
    tables = []
    for ell, dist in enumerate(spec.distributions):
        x = dist.to_reference(points[:, ell])
        tab = np.empty((len(x), dmax + 1))
        tab[:, 0] = 1.0
        if dmax >= 1:
            tab[:, 1] = x / b[1]
        for j in range(1, dmax):
            tab[:, j + 1] = (x * tab[:, j] - b[j] * tab[:, j - 1]) / b[j + 1]
        tables.append(tab)
    return tables


def eval_basis_matrix(spec: BasisSpec, points, on_outside: str = "error") -> np.ndarray:
    """Evaluate all basis functions at many points; shape (n_points, m).

    on_outside: "error" rejects points outside the domain, "warn"
    extrapolates with a warning.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != spec.q:
        raise ValueError(f"points must have {spec.q} columns")
    if not spec.domain_contains(pts):
        if on_outside == "error":
            raise DomainError("evaluation point outside the parameter domain")
        warnings.warn("evaluating basis outside the parameter domain", stacklevel=2)
    tables = _univariate_table(spec, pts)
    out = np.ones((pts.shape[0], spec.m))
    for i, idx in enumerate(spec.index_set):
        for ell, j in enumerate(idx):
            if j:
                out[:, i] *= tables[ell][:, j]
    return out


def eval_basis(spec: BasisSpec, p, on_outside: str = "error") -> np.ndarray:
    """Vector (m,) of basis function values at a single point."""
    return eval_basis_matrix(spec, np.asarray(p, dtype=float)[None, :], on_outside)[0]


def eval_expansion(spec: BasisSpec, coeffs, p) -> np.ndarray | float:
    """Evaluate the expansion sum_i c_i Phi_i(p).

    coeffs has shape (m,) or (T, m); p is a single point (q,) or a batch
    (N, q).  The result broadcasts to scalar, (N,), (T,) or (T, N).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[-1] != spec.m:
        raise ValueError(f"coefficient rows must have length m={spec.m}")
    pts = np.asarray(p, dtype=float)
    vals = np.atleast_2d(coeffs) @ eval_basis_matrix(spec, np.atleast_2d(pts)).T  # (T, N)
    if coeffs.ndim == 1:
        vals = vals[0]
    if pts.ndim == 1:
        vals = vals[..., 0]
    return float(vals) if vals.ndim == 0 else vals


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
