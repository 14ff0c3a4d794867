"""walklab: numerics for random-walk mixing, spectra, and hitting times
on regular graphs, with exact regular-tree and integer-lattice oracles."""

from .graphs import (
    Graph,
    BallStats,
    Assumption1Report,
    GraphError,
    GraphFileError,
    build_named,
    build_random_regular,
    build_high_girth_regular,
    girth,
    ball_stats,
    assumption1_scan,
    inflate,
    make_graph,
    vertex_transitive,
    read_edge_list,
    write_edge_list,
    INFINITE_GIRTH,
)
from .lps import build_lps
from .chains import (
    ReversibleChain,
    ChainError,
    MixingProfile,
    srw_chain,
    chain_from_kernel,
    evolve,
    distances,
    mixing_profile,
    power_chain,
)
from .spectral import (
    SpectrumSummary,
    SpectralError,
    spectrum,
    classify_ramanujan,
    poincare_bound,
    restricted_top_eig,
    compare_restricted,
    rho,
)
from .hitting import (
    HitReport,
    HittingError,
    SphereHit,
    SphereHits,
    WvsKReport,
    hit_quantile,
    verify_spectral_hit,
    w_vs_k_report,
)
from .tree import (
    TreeError,
    level_distribution,
    tree_kernel,
    td1_bound_check,
    count_z_paths,
    diameter_lower_bound,
    inv_normal_cdf,
    kernel_domination_check,
    tree_distance_concentration,
)
from .walks import (
    WalkTrace,
    WalkError,
    simulate_walk,
    block_statistics,
    empirical_y_kernel,
    tau,
    escape_transfer_experiment,
)
from .suites import ExperimentConfig, run_suite, build_graph
from .reports import emit_summary

__version__ = "0.1.0"
