"""Entanglement detection length and state determination length toolkit.

How many particles must a marginal cover before it reveals genuine
multipartite entanglement, or pins the global state down completely?  This
package computes both lengths: exactly for symmetric states through moment
matrix positivity and weight-pattern analysis, numerically for small
general states through semidefinite programs over decomposable witnesses
and marginal-compatible state sets, plus the hypergraph combinatorics of
which marginal collections can work at all and spectral bounds for graph
states.
"""

from .errors import EdlkitError, SOLVER_CODES
from .qcore import (
    DenseState,
    PureVector,
    Subset,
    basis_ket,
    ghz_vector,
    is_density,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    pauli_string,
)
from .symmetric import (
    DickeMixture,
    SymmetricCoeffs,
    check_compatibility,
    diagonal_marginal,
    dicke_vector,
    edl_diagonal,
    edl_symmetric,
    gap_mixed_family,
    gap_pure_family,
    hankel_pair,
    has_alternative_nonneg,
    is_ppt_diagonal,
    rank_criterion_sdl1,
    sdl_diagonal,
    sdl_full_level,
    solution_family,
    symmetric_marginal,
    to_dense,
)
from .hypergraph import (
    SubsetCollection,
    TransitivityQuery,
    all_k_subsets,
    collection_decides,
    is_connected,
    min_marginal_count,
    transitivity_certificate,
)
from .graphstate import (
    SimpleGraph,
    graph_bounds,
    graph_state,
    lc_orbit_min_max_degree,
    local_complement,
    uniformity_level,
)
from .witness import (
    Witness,
    determination_levels,
    edl_upper_bound,
    fully_decomposable_alpha,
    noise_threshold,
    pure_determination_alpha,
    refit_certificates,
    sdl_pure,
    symmetric_sdl_probe,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "DenseState",
    "DickeMixture",
    "EdlkitError",
    "PureVector",
    "SOLVER_CODES",
    "SimpleGraph",
    "Subset",
    "SubsetCollection",
    "SymmetricCoeffs",
    "TransitivityQuery",
    "Witness",
    "all_k_subsets",
    "basis_ket",
    "check_compatibility",
    "collection_decides",
    "determination_levels",
    "diagonal_marginal",
    "dicke_vector",
    "edl_diagonal",
    "edl_symmetric",
    "edl_upper_bound",
    "fully_decomposable_alpha",
    "gap_mixed_family",
    "gap_pure_family",
    "ghz_vector",
    "graph_bounds",
    "graph_state",
    "hankel_pair",
    "has_alternative_nonneg",
    "is_connected",
    "is_density",
    "is_ppt_diagonal",
    "lc_orbit_min_max_degree",
    "local_complement",
    "min_eigenvalue",
    "min_marginal_count",
    "noise_threshold",
    "partial_trace",
    "partial_transpose",
    "pauli_string",
    "pure_determination_alpha",
    "rank_criterion_sdl1",
    "refit_certificates",
    "sdl_diagonal",
    "sdl_full_level",
    "sdl_pure",
    "solution_family",
    "symmetric_marginal",
    "symmetric_sdl_probe",
    "to_dense",
    "transitivity_certificate",
    "uniformity_level",
    "verify_witness",
    "__version__",
]
