"""Coding rates of mixed memoryless channels: capacities to second order,
well-orderedness checks, and finite-blocklength cross-validation."""

import os
# Every matrix here is small, so OpenBLAS's worker threads only burn CPU: start
# one unless the user set a count. A caller that imported numpy first keeps its default.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .channel import (
    CostSpec,
    Dmc,
    DominationError,
    InfeasibleCostError,
    InputDist,
    MixedChannel,
    SlackParams,
    UNCONSTRAINED,
    channel_dispersion,
    divergence,
    gaussian_cdf,
    gaussian_inv,
    mutual_information,
    output_distribution,
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
    eps_capacity,
    eps_capacity_well_ordered,
    rate_quantile,
)
from .second_order import (
    SecondOrderResult,
    SolveResult,
    gw,
    second_order_lb,
    second_order_well_ordered,
    solve_s,
)
from .well_ordered import (
    NotWellOrderedError,
    WellOrderReport,
    check_well_ordered,
)
from .spectrum import (
    AtomDist,
    BoundEstimate,
    CodeParams,
    aggregate_spectrum,
    convolve_n,
    feinstein_bound,
    hayashi_nagaoka_bound,
    letter_parts,
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
