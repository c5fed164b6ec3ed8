"""Simulation and optimization laboratory for stationary markings of point
processes: score models on periodic windows, best-swap local search,
certified exact solvers, and reproducible Monte Carlo estimation."""

from .core import (
    GEOM_TOL,
    NEG_INF,
    AccessProb,
    ColorMark,
    Configuration,
    GrainRadius,
    ItemSet,
    MarkSpaceError,
    MarkedPoint,
    PartnerIndex,
    RadiusMark,
    Retain,
    SignMark,
    UnsupportedModelError,
    ValidationError,
    WeightPair,
    Window,
    WorkCapError,
    dump_configuration,
    integer_line,
    load_configuration,
    periodic_cube,
    rng,
    sample_poisson_configuration,
    sample_weighted_line,
    sample_weighted_tree,
    tree_ball,
)
from .models import (
    AlohaModel,
    CachingModel,
    HardcoreModel,
    LilypondModel,
    MODEL_KINDS,
    MatchingModel,
    ScoreModel,
    WidomRowlinsonModel,
    build_model,
)
from .optimize import (
    SearchParams,
    SearchTrace,
    SwapProposal,
    apply_swap,
    find_valid_swap,
    initialize_marks,
    local_search,
    score_difference,
    total_window_score,
)
from .exact import (
    BlockingInterval,
    brute_force_optimum,
    lilypond_fixed_point,
    lilypond_solve,
    matching_optimum,
    mtp_argmax,
    tree_local_optimality_check,
    wr_blocking_intervals,
    wr_chain_dp,
    wr_unique_marking,
    aloha_optimal_marking,
)
from .estimate import (
    IntensityEstimate,
    Policy,
    campbell_identity_check,
    coverage_hit_probability,
    intensity_estimate,
    run_replicates,
    stabilization_sample,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
