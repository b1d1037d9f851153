"""Coding rates of mixed memoryless channels: capacities to second order,
well-orderedness checks, and finite-blocklength cross-validation."""

from .channel import (
    CostSpec,
    Dmc,
    DominationError,
    InfeasibleCostError,
    InfoStats,
    InputDist,
    MixedChannel,
    SlackParams,
    UNCONSTRAINED,
    channel_dispersion,
    divergence,
    gaussian_cdf,
    gaussian_inv,
    info_stats,
    mutual_information,
    output_distribution,
    psi,
    psi_from_variance,
)
from .optimizer import (
    CapacityAchievingSet,
    CapacityResult,
    ConvergenceError,
    capacity_achieving_set,
    constrained_capacity,
    kt_verify,
)
from .first_order import (
    EpsCapacityResult,
    QuantileCurve,
    eps_capacity,
    eps_capacity_well_ordered,
    rate_quantile,
)
from .second_order import (
    CanonicalSandwichError,
    SecondOrderResult,
    SolveResult,
    canonical_solution,
    gw,
    second_order_lb,
    second_order_well_ordered,
    solve_s,
)
from .well_ordered import (
    NotWellOrderedError,
    WellOrderReport,
    check_well_ordered,
    more_capable,
)
from .spectrum import (
    AtomDist,
    BoundEstimate,
    CodeParams,
    SpectrumCdf,
    aggregate_spectrum,
    convolve_n,
    feinstein_bound,
    hayashi_nagaoka_bound,
    mc_tail,
    mixed_converse_bound,
    normal_approx,
    per_letter_spectrum,
)
from .types_toolkit import (
    DecompositionReport,
    EnumerationCapError,
    ExpurgationReport,
    TypeClass,
    decomposition_check,
    enumerate_types,
    expurgated_space,
    mixture_converse_enumeration,
    quantized_type,
)

__version__ = "0.1.0"
