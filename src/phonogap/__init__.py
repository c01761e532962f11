"""Band gaps of 1D layered phononic crystals.

Transfer-matrix dispersion and first-gap extraction, Monte Carlo Sobol'
sensitivity analysis over a five-ratio design space, and reduced-order
design equations with their error diagnostics.
"""
from .sampling import (
    GENERATOR_NAME,
    ParameterDef,
    ParameterSpace,
    SampleSet,
    canonical_space,
    lhs_sample,
    map_to_space,
)
from .sobol import (
    ModelEvaluationError,
    ModelFunction,
    SobolFunctionEstimate,
    SobolResult,
    analytic_poly_model,
    analytic_poly_reference,
    estimate_sobol_function_1d,
    estimate_sobol_function_2d,
    sobol_indices,
)
from .crystal import (
    NU_CAP,
    BandGap,
    DispersionCurve,
    GapNotClosedError,
    Layer,
    ObjectiveKind,
    Polarization,
    UnitCell,
    bilayer_first_gaps,
    cell_transfer_matrix,
    dispersion_curve,
    first_band_gap,
    half_trace,
    layer_transfer_matrix,
    objective,
    objective_model,
    transit_time,
    two_layer_cell,
    two_layer_half_trace,
    wave_speed,
)
from .design import (
    DesignEquation,
    design_model,
    fit_polynomial_surrogate,
    load_design_equations,
    scaled_l2_error,
    truncation_curve,
)

__version__ = "0.1.0"
