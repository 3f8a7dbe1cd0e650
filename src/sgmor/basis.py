"""Multivariate orthonormal polynomial bases for independent uniform parameters.

Provides total-degree multi-index sets, each one read-only (m, q) integer
array, each index's neighbours alpha + e_ell found by an exact key, and
orthonormal (shifted Legendre) polynomial and expansion evaluation.
Expectations over the parameters are exact moment matrices
(galerkin.linear_moment_matrix); the tests check them against quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "Distribution1D",
    "MultiIndexSet",
    "BasisSpec",
    "SizingError",
    "DomainError",
    "build_index_set",
    "eval_basis_matrix",
    "eval_expansion",
]

#: hard cap on |index set| before a SizingError
DEFAULT_SIZE_LIMIT = 5_000_000

#: points this far outside [lower, upper], relative to its width, still count as inside
DOMAIN_RTOL = 1e-12


class SizingError(ValueError):
    """Requested basis or grid would exceed the configured size limit."""


class DomainError(ValueError):
    """Evaluation point lies outside the parameter domain."""


@dataclass(frozen=True)
class Distribution1D:
    """Uniform distribution on [lower, upper] with density 1/(upper-lower)."""

    lower: float
    upper: float

    def __post_init__(self):
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

    def contains(self, p) -> bool:
        pad = DOMAIN_RTOL * (self.upper - self.lower)
        return bool(np.all(p >= self.lower - pad) and np.all(p <= self.upper + pad))


@dataclass(frozen=True, eq=False)
class MultiIndexSet:
    """Ordered set of multivariate polynomial degrees (multi-indices).

    `array` holds one multi-index per row, as a read-only (m, q) int64 copy
    of what the constructor is given.  The first row is always the zero
    multi-index (the constant basis function); total-degree sets are stored
    in graded lexicographic order.  Two sets are equal when their arrays are.
    """

    array: np.ndarray

    def __post_init__(self):
        arr = np.array(self.array, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"index set must be a 2-D (m, q) array, got {arr.ndim}-D")
        if arr.size == 0:
            raise ValueError("index set must be nonempty")
        if (arr < 0).any():
            raise ValueError("multi-index entries must be non-negative")
        if arr[0].any():
            raise ValueError("first multi-index must be the zero index")
        keys = np.sort(_row_keys(arr, np.min_scalar_type(int(arr.max()))))
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("duplicate multi-indices")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiIndexSet):
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __len__(self) -> int:
        return len(self.array)

    @property
    def q(self) -> int:
        return self.array.shape[1]

    @property
    def max_degree(self) -> int:
        return int(self.array.sum(axis=1).max())

    def total_degrees(self) -> np.ndarray:
        return self.array.sum(axis=1)

    @cached_property
    def partners(self) -> np.ndarray:
        """(m, q) positions: entry (i, ell) is the position of row i + e_ell,
        or -1 where the set does not hold it.  Each is found by one binary
        search on an exact key (_row_keys)."""
        width = np.min_scalar_type(int(self.array.max()) + 1)
        keys = _row_keys(self.array, width)
        order = np.argsort(keys)
        out = np.empty(self.array.shape, dtype=np.int32)  # positions stay below DEFAULT_SIZE_LIMIT
        for ell, step in enumerate(np.eye(self.q, dtype=np.int64)):
            wanted = _row_keys(self.array + step, width)
            at = order[np.minimum(np.searchsorted(keys, wanted, sorter=order), len(keys) - 1)]
            out[:, ell] = np.where(keys[at] == wanted, at, -1)
        return out


def _row_keys(rows: np.ndarray, width: np.dtype) -> np.ndarray:
    """One exact key per row: the row's bytes at an integer `width` that
    holds every entry, compared as a whole."""
    rows = np.ascontiguousarray(rows, dtype=width)
    return rows.view(np.dtype((np.void, rows.strides[0]))).ravel()


def build_index_set(q: int, d: int) -> MultiIndexSet:
    """All multi-indices of total degree <= d in graded lexicographic order.

    The cardinality is binomial(q+d, d); a SizingError names the would-be
    size when it exceeds DEFAULT_SIZE_LIMIT.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if d < 0:
        raise ValueError("d must be >= 0")
    m = math.comb(q + d, d)
    if m > DEFAULT_SIZE_LIMIT:
        raise SizingError(f"index set would have m={m} elements (limit {DEFAULT_SIZE_LIMIT})")
    # degree k + 1 holds each degree-k index raised in every dimension from
    # its last nonzero one on (from 0 for the zero index), parent by parent:
    # lexicographically descending, and no index is reached twice
    rows, last = np.zeros((1, q), dtype=np.int64), np.zeros(1, dtype=np.int64)
    blocks = [rows]
    for _ in range(d):
        reps = q - last
        parent = np.repeat(np.arange(len(rows)), reps)
        last = np.arange(len(parent)) - np.repeat(np.cumsum(reps) - reps, reps) + last[parent]
        rows = rows[parent]
        rows[np.arange(len(rows)), last] += 1
        blocks.append(rows)
    return MultiIndexSet(np.concatenate(blocks))


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


def eval_basis_matrix(spec: BasisSpec, points) -> np.ndarray:
    """Evaluate all basis functions at many points; shape (n_points, m).

    A point outside the parameter domain raises DomainError.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != spec.q:
        raise ValueError(f"points must have {spec.q} columns")
    if not spec.domain_contains(pts):
        raise DomainError("evaluation point outside the parameter domain")
    out = np.ones((pts.shape[0], spec.m))
    for table, degrees in zip(_univariate_table(spec, pts), spec.index_set.array.T):
        out *= table[:, degrees]  # phi_0 = 1 exactly, so a zero degree leaves a column as it is
    return out


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
