"""Schreier graphs of finite group actions, their spectra, and the
closed-form expansion bounds that constrain them."""

from .bounds import (
    BoundReport,
    abelian_gap_bound,
    build_bound_report,
    derived_index_check,
    interval_data,
    nilpotent_exponents,
    nilpotent_gap_bound,
    subgroup_gap_bound,
    theta,
    theta_min_set_size,
)
from .catalog import catalog_group, resolve_action, resolve_group
from .errors import (
    DisconnectedGraphError,
    GroupTooLargeError,
    MatrixTooLargeError,
    NotASubgroupError,
    SchreierLabError,
    SearchSpaceError,
    SubgroupLimitError,
)
from .montecarlo import (
    TrialStats,
    aw_tail_bound,
    required_sample_size,
    run_expansion_trials,
    sample_multiset,
    sample_symmetric_multiset,
)
from .permutations import (
    CosetAction,
    FiniteGroup,
    Permutation,
    Transversal,
    derived_subgroup,
    group_from_generators,
    index2_overgroups,
    intermediate_subgroups,
    lower_central_series,
)
from .schreier import (
    SchreierGraph,
    SymmetricMultiset,
    bipartite_criterion,
    connectivity_and_bipartiteness,
    dedup_counterexample_search,
    rs_induce,
    schreier_graph,
    symmetrize,
)
from .spectral import (
    SpectralSummary,
    dump_matrix,
    rayleigh_quotient,
    spectral_summary,
    sym_eigenvalues,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
