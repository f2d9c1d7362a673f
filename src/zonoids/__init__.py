"""Zonoids of random vectors: support functions, invariance tests, stable series."""

from .errors import (
    BoundedSupportError,
    DiagnosticError,
    InternalConsistencyError,
    NoOracleError,
    SchemaError,
    ZonoidsError,
)
from .laws import (
    DacunhaCastelleModel,
    DiscreteLaw,
    EllipticalLaw,
    ExpGaussianProcess,
    GaussianLaw,
    GaussianProcess,
    IidExchangeableModel,
    LocationScaleLaw,
    LognormalLaw,
    LognormalSwapModel,
    SamplerLaw,
    SamplerProcess,
    ScalarBase,
    SupportFlags,
    dacunha_prefix_law,
    gbm_process,
    law_from_json,
    lognormal_swap_law,
    permute_law,
    rademacher_law,
    sample,
    sequence_prefix,
)
from .zonoid import (
    DirectionGrid,
    SupportEstimate,
    Zonotope2D,
    mean_width_check,
    support_centred,
    support_lift,
    support_max,
    support_noncentred,
    zonotope_2d,
)
from .invariance import (
    EquivalenceReport,
    check_positivity_necessity,
    measure_change,
    test_even_homogeneous,
    test_lift_swap_invariance,
    test_max_zonoid_equiv,
    test_relations_theorem,
    test_swap_invariance,
    test_zonoid_equiv,
    test_zonoid_stationarity,
)
from .levy import (
    LevyTriplet,
    brown_resnick_condition,
    cf_criterion,
    check_elliptical_equiv,
    check_log_id_equiv,
    check_lognormal_equiv,
    expectation_condition,
    recover_location_scale,
    tilted_pushforward,
    variogram,
)
from .lepage import LePageConfig, cf_check, simulate_lepage, stationarity_cross_check
from .ergodic import l1_diagnostic, limit_formula_check, run_averages

__version__ = "0.1.0"
