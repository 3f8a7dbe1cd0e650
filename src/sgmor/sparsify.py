"""Hardy-norm-driven pruning of the Galerkin basis.

Rankings and cumulative capture ratios (theta curves), index selection by
count or threshold, the sparsification / reduction error certificates, and
evaluation of the sparse output surrogate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, eval_expansion
from .galerkin import Selection
from .hardy import HardyNormReport

__all__ = [
    "NormRanking",
    "BoundCertificate",
    "DegenerateRankingError",
    "rank_and_theta",
    "select_indices",
    "theorem1_certificate",
    "theorem2_certificate",
    "sparse_output_eval",
]


# norms this close (relative) rank as equal.  Sampling round-off is far
# below it: two H2 norms of the d = 1 ladder that are equal in exact
# arithmetic came out 1.7e-16 apart at 0.356
TIE_RTOL = 1e-12


class DegenerateRankingError(ValueError):
    """All Hardy norms are zero; no meaningful ranking exists."""


@dataclass(frozen=True)
class NormRanking:
    """Outputs ordered by descending Hardy norm with capture ratios.

    theta[r-1] is the fraction of the total root-sum-square norm captured
    by the r largest outputs; theta is nondecreasing with theta[-1] = 1.
    """

    order: np.ndarray  # output positions, descending norm
    theta: np.ndarray
    norms: np.ndarray  # in original output order

    @property
    def m(self) -> int:
        return len(self.order)

    def minimal_r(self, delta: float) -> int:
        """Smallest r with theta_r >= 1 - delta; delta must be >= 0, as
        theta never exceeds 1."""
        if not delta >= 0:
            raise ValueError(f"delta must be >= 0, got {delta!r}")
        return int(np.searchsorted(self.theta, 1.0 - delta) + 1)


def rank_and_theta(report: HardyNormReport, kind: str = "h2") -> NormRanking:
    """Outputs by descending norm, with norms that tie to TIE_RTOL in output order.

    A tie is a maximal run of consecutive sorted norms each within
    TIE_RTOL (relative) of the one before it; it is ordered by lower output
    position, so outputs whose norms are equal in exact arithmetic do not
    swap with the round-off of the sampling.
    """
    if kind not in ("h2", "hinf"):
        raise ValueError(f"unknown norm kind {kind!r}")
    norms = np.asarray(report.h2 if kind == "h2" else report.hinf, dtype=float)
    total_sq = float(np.sum(norms**2))
    if total_sq == 0.0:
        raise DegenerateRankingError("all Hardy norms are zero")
    order = np.argsort(-norms, kind="stable")
    sorted_norms = norms[order]
    new_run = sorted_norms[:-1] - sorted_norms[1:] > TIE_RTOL * sorted_norms[:-1]
    tie_run = np.concatenate([[0], np.cumsum(new_run)])
    order = order[np.lexsort((order, tie_run))]
    theta = np.minimum(np.sqrt(np.cumsum(norms[order] ** 2) / total_sq), 1.0)
    theta[-1] = 1.0
    return NormRanking(order=order, theta=theta, norms=norms)


def select_indices(
    ranking: NormRanking,
    mode: str,
    k: int | None = None,
    delta: float | None = None,
) -> Selection:
    """Pick a kept index set: `top_k` keeps the k largest-norm outputs,
    `threshold` keeps the smallest set whose dropped norms satisfy
    sum-of-squares < delta^2.  The constant basis function is always kept.
    """
    m = ranking.m
    if mode == "top_k":
        if k is None or not 1 <= k <= m:
            raise ValueError(f"top_k requires 1 <= k <= {m}")
        kept = tuple(int(i) for i in ranking.order[:k])
    elif mode == "threshold":
        if delta is None or delta <= 0:
            raise ValueError("threshold mode requires delta > 0")
        # tail[r] = what keeping the r largest drops, summed from the
        # smallest up, so that tails many decades below the largest norms
        # keep their digits
        sq = ranking.norms[ranking.order] ** 2
        tail = np.append(np.cumsum(sq[::-1])[::-1], 0.0)
        r = int(np.argmax(tail < delta**2))
        kept = tuple(int(i) for i in ranking.order[:r]) or (0,)
    else:
        raise ValueError(f"unknown selection mode {mode!r}")
    return Selection(kept=kept, m=m)


@dataclass(frozen=True)
class BoundCertificate:
    """Computable right-hand sides of the sparsification error estimates.

    bound_sup bounds the supremum over time of the pointwise L2(Omega)
    error (H2-based); bound_l2 bounds the space-time L2 error
    (H-infinity-based).  For downsized systems the certificate also
    carries the unavoidable floor contributed by the dropped outputs.
    """

    bound_sup: float
    bound_l2: float
    input_l2: float
    provenance: str  # "theorem1" | "theorem2"
    conditional: bool = False  # properness assumptions unverified
    lower_floor_sup: float = 0.0
    lower_floor_l2: float = 0.0

    def to_dict(self) -> dict:
        return {
            "bound_sup": self.bound_sup,
            "bound_l2": self.bound_l2,
            "input_l2": self.input_l2,
            "provenance": self.provenance,
            "conditional": self.conditional,
            "lower_floor_sup": self.lower_floor_sup,
            "lower_floor_l2": self.lower_floor_l2,
        }


def theorem1_certificate(
    report: HardyNormReport,
    sel: Selection,
    input_l2: float = 1.0,
) -> BoundCertificate:
    """Bounds on the error of dropping basis functions outright.

    bound_sup = sqrt(sum over dropped ||H_i||_H2^2) * ||u||_L2 and
    bound_l2 with H-infinity norms; marked conditional when the properness
    flags of the dropped outputs are unverified.
    """
    dropped = list(sel.dropped)
    h2_sq = float(np.sum(report.h2[dropped] ** 2)) if dropped else 0.0
    hinf_sq = float(np.sum(report.hinf[dropped] ** 2)) if dropped else 0.0
    conditional = bool(dropped) and not bool(np.all(report.strictly_proper_ok[dropped]))
    return BoundCertificate(
        bound_sup=np.sqrt(h2_sq) * input_l2,
        bound_l2=np.sqrt(hinf_sq) * input_l2,
        input_l2=input_l2,
        provenance="theorem1",
        conditional=conditional,
    )


def theorem2_certificate(
    diff_report: HardyNormReport,
    input_l2: float = 1.0,
    full_report: HardyNormReport | None = None,
    sel: Selection | None = None,
) -> BoundCertificate:
    """Bounds on the output error of any projection-reduced Galerkin system.

    Sums the Hardy norms of the transfer-function differences over all m
    outputs.  When the reduced system came from downsizing, pass the full
    report and the selection to attach the lower floor contributed by the
    dropped outputs.  Precondition: the reduced system is stable, every
    finite eigenvalue in the open left half-plane (descriptor.pencil_spectrum).
    The sampled norms of an unstable model's difference are finite, but its
    output error grows without bound, so they bound nothing.
    """
    h2_sq = float(np.sum(diff_report.h2**2))
    hinf_sq = float(np.sum(diff_report.hinf**2))
    floor_sup = floor_l2 = 0.0
    if full_report is not None and sel is not None:
        floor = theorem1_certificate(full_report, sel, input_l2)
        floor_sup, floor_l2 = float(floor.bound_sup), float(floor.bound_l2)
    conditional = not bool(np.all(diff_report.strictly_proper_ok))
    return BoundCertificate(
        bound_sup=np.sqrt(h2_sq) * input_l2,
        bound_l2=np.sqrt(hinf_sq) * input_l2,
        input_l2=input_l2,
        provenance="theorem2",
        conditional=conditional,
        lower_floor_sup=floor_sup,
        lower_floor_l2=floor_l2,
    )


def sparse_output_eval(
    coeffs: np.ndarray,
    spec: BasisSpec,
    sel: Selection,
    p: np.ndarray,
) -> np.ndarray:
    """Evaluate the pruned surrogate sum over kept i of w_i(t) Phi_i(p).

    coeffs has shape (m,) or (T, m) holding the Galerkin output
    coefficients; p is a single point (q,) or a batch (N, q).  The result
    broadcasts to scalar, (N,), (T,) or (T, N).
    """
    return eval_expansion(spec, np.asarray(coeffs, dtype=float) * sel.mask(), p)
