"""Stochastic Galerkin systems for random linear descriptor systems.

Builds the coupled Galerkin system of a parameter-dependent descriptor
system, estimates per-output Hardy norms of its transfer function, and
produces sparse orthogonal representations of the random output via
Hardy-norm basis pruning and Krylov projection model order reduction,
with computable error certificates for both routes.
"""

from .basis import (
    BasisSpec,
    Distribution1D,
    MultiIndexSet,
    build_index_set,
    eval_basis_matrix,
)
from .circuits import (
    CircuitNetlist,
    NetlistError,
    lowpass_benchmark,
    mna_assemble,
    parse_netlist,
    serialize_netlist,
)
from .descriptor import (
    DescriptorSystem,
    PencilReport,
    Trajectory,
    pencil_spectrum,
    simulate_transient,
    transfer_eval,
)
from .galerkin import GalerkinSystem, ParametricSystem, Selection, assemble, downsize
from .hardy import FrequencyGrid, HardyNormReport, difference_norms, hardy_norms, sample_transfer
from .mor import (
    OrthonormalizedBasis,
    ReducedSystem,
    arnoldi_reduce,
    deflate,
    reduced_output_surrogate,
    svd_basis,
    transform_coefficients,
)
from .solver import SolverStats
from .sparsify import (
    BoundCertificate,
    NormRanking,
    rank_and_theta,
    select_indices,
    sparse_output_eval,
    theorem1_certificate,
    theorem2_certificate,
)

__version__ = "0.1.0"
