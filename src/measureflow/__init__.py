"""measureflow: stochastic explicit-Euler schemes on discrete probability measures.

Propagates finitely supported measures under probability vector fields, lifts
the scheme exactly to measures on piecewise-affine paths, computes the
sticky-particle limit flow, and numerically certifies dissipativity,
stability, and convergence properties at desk scale.
"""

__version__ = "0.1.0"

import os
import sys

# OpenBLAS reads this once, when numpy loads it, so it is set before the first
# submodule imports numpy.  The only BLAS calls are `limit._combine`'s
# `coefs @ ks` over at most 7 Dormand-Prince stages and `analysis.rate_fit`'s
# `np.polyfit` on one row per tau: far too small for threads to pay, while
# OpenBLAS's idle workers spin-wait and burn CPU through every command.  A
# value the user set wins, and a process that loaded numpy first is left alone.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .measure import (
    Coupling,
    DiscreteMeasure,
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
    optimal_coupling,
    path_sup_distance,
    w2_distance,
    wasserstein2_sup,
)
from .fields import (
    Check,
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
