"""Correlated-default graphical models and their monotone Markov dynamics."""

from .model import (
    EnumerationCapError,
    FitConvergenceError,
    Graph,
    InfeasibleTargetsError,
    InteractionCoeffs,
    IsingParams,
    ModelParams,
    SubsetDist,
    ZeroProbabilityError,
    extract_interactions,
    family_membership_residual,
    fit_moments,
    from_ising,
    full_distribution,
    hamiltonian,
    log_partition,
    moments,
    spin_distribution,
    to_ising,
)
from .ctmc import (
    ForwardSolution,
    MonotoneGenerator,
    PathSample,
    forward_solve,
    independent_alpha_curve,
    independent_generator,
    sample_paths,
)
from .consistency import (
    ParamCurves,
    alpha_curve,
    curves_from_rates,
    master_residual,
    membership_over_time,
)
from .reduced import (
    CoeffCheckI,
    CoeffCheckIII,
    LumpedCurves,
    LumpedRatesBi,
    LumpedRatesI,
    SearchConfig,
    SearchFailedError,
    SearchResult,
    coeff_check_I,
    coeff_check_II,
    coeff_check_III,
    feasibility_search,
    lump_generator,
    lumped_residual,
    reduced_curves,
)

__version__ = "0.1.0"
