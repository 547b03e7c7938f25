"""measureflow: stochastic explicit-Euler schemes on discrete probability measures.

Propagates finitely supported measures under probability vector fields, lifts
the scheme exactly to measures on piecewise-affine paths, computes the
sticky-particle limit flow, and numerically certifies dissipativity,
stability, and convergence properties at desk scale.
"""

__version__ = "0.1.0"

from .measure import (
    Coupling,
    DiscreteMeasure,
    TangentCoupling,
    TangentMeasure,
    TuplePlan,
    barycentric_projection,
    coalesce,
    dirac,
    exp_push,
    mixture,
    second_moment,
    tangent_atoms,
    velocity_moment,
)
from .paths import PathEnsemble, PiecewisePath, Provenance, constant_path
from .transport import (
    TransportResult,
    bram_pairing,
    brute_force_w2,
    optimal_coupling,
    path_sup_distance,
    w2_distance,
    wasserstein2_sup,
)
from .fields import (
    DissipativityReport,
    GradientSumField,
    InteractionField,
    NoiseSpace,
    NonlocalSampledField,
    SampledField,
    StochasticInteractionField,
    barycenter_field,
    check_growth,
    check_one_sided_lipschitz,
    check_pair_dissipativity,
    check_total_dissipativity,
    evaluate_pvf,
    uniform_noise,
)
from .euler import (
    EulerRun,
    build_path_ensemble,
    interpolate_measure,
    multi_step_plan,
    run_explicit_euler,
    sample_paths_monte_carlo,
    single_step_plan,
    verify_joint_law,
    verify_marginals,
)
from .limit import (
    LimitFlow,
    StickyFlowConfig,
    contraction_check,
    evi_residual,
    sticky_flow,
    sticky_property_check,
)
from .analysis import (
    BoundsReport,
    SweepResult,
    convergence_sweep,
    ensemble_action,
    gronwall_envelope,
    rate_fit,
    solvability_bounds,
)
from .scenarios import Scenario, scenario, scenario_names
