"""Spatial Moran processes on weighted digraphs.

A mutant type of fitness ``r`` spreads over a strongly connected,
row-stochastic weighted digraph by repeated select-and-copy updates.  This
package computes fixation probabilities exactly (absorbing-chain solves),
estimates them by reproducible Monte Carlo, and checks the structural
identities that govern when the graph process reproduces the classic
well-mixed fixation probabilities: stationary selection, doubly stochastic
(isothermal) weights, drift/martingale identities, and the small-population
closed forms for two and three vertices.
"""

from .analysis import (
    GALANIS_WEIGHTS,
    GalanisParams,
    MacroMarkovResult,
    MartingaleReport,
    N2Params,
    classic_moran_check,
    classic_p_minus,
    classic_p_plus,
    galanis_case3_initial_weight,
    galanis_case3_residual,
    galanis_model,
    galanis_moran_condition,
    galanis_neutral_fixation,
    macro_markov_check,
    martingale_report,
    n2_F,
    n2_fixation_closed_form,
    n2_moran_selection,
    ratio_constancy,
    single_mutant_ratio_witness,
    sweep_n2,
)
from .dynamics import (
    MicSMPModel,
    StepDistribution,
    TransitionKernel,
    build_model,
    flip_masses,
    p_minus,
    p_plus,
    step_distribution,
    transition_kernel,
)
from .errors import (
    AbsorbingStart,
    AtomOnAbsorbing,
    DegenerateCase,
    DegenerateDenominator,
    InputError,
    LevelOutOfRange,
    NotStochastic,
    NotStronglyConnected,
    NumericalFailure,
    OutOfRange,
    SpatialMoranError,
    TooLarge,
    ZeroDenominator,
)
from .exact import (
    FixationReport,
    InitialDistribution,
    SolverInfo,
    fixation_for_initial,
    fixation_probabilities,
    moran_rho,
)
from .generators import random_doubly_stochastic, random_strongly_connected_weights
from .graph import (
    Configuration,
    SelectionPolicy,
    StationaryDistribution,
    WeightMatrix,
    complete_graph_weights,
    enumerate_level,
    is_isothermal,
    mask_vector,
    stationary_distribution,
    two_vertex_weights,
    validate_weight_matrix,
)
from .modelio import (
    builtin_model,
    load_model,
    parse_init_spec,
    parse_model,
    parse_number,
)
from .montecarlo import (
    Outcome,
    SimulationResult,
    TrajectoryConfig,
    estimate_fixation,
    simulate_trajectory,
)

__version__ = "0.1.0"
