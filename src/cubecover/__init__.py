"""cubecover: weak covering of [0,1]^d by balls around random, beta, Sobol
and vertex point sets -- coverage estimators, Jensen bounds, ball-cube
intersection approximations, and sample-size/radius solvers."""

from .coverage import (
    CoverageQuery,
    coverage_design_averaged,
    coverage_design_conditional,
    coverage_product_form,
    jensen_bound_center,
    jensen_bound_refined,
    nearest_distance_sample,
    product_form_approximation,
)
from .estimates import CoverageEstimate
from .geometry import (
    log_unit_ball_volume,
    min_squared_distances,
    unit_ball_volume,
)
from .intersect import (
    ball_probability,
    clt_probability,
    coordinate_cumulants,
    coordinate_moments,
    edgeworth_probability,
    kappa_density_sample,
    mc_intersection_oracle,
)
from .sampling import (
    Design,
    SamplingScheme,
    SchemeKind,
    TargetPrior,
    hamming_threshold,
    min_hamming_vertex_design,
    sample_design,
    sample_targets,
)
from .sobol import MAX_DIMENSION, sobol_points
from .solvers import (
    DeltaSweepResult,
    LargeCount,
    NGammaResult,
    RadiusCell,
    asymptotic_coverage,
    asymptotic_radius,
    default_delta_grid,
    delta_sweep,
    empirical_n_gamma,
    empirical_n_gamma_best_delta,
    empirical_radius_quantile,
    n_gamma_asymptotic,
    n_gamma_classical,
    radius_best_delta,
    radius_table_cell,
    worst_case_n_mixture,
)
from .streams import SeededStream

__version__ = "0.1.0"
