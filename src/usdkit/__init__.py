"""Unambiguous discrimination of symmetric qudit states.

Builds the (d+1)-outcome measurement basis that identifies any of d equally
overlapping states without error, evaluates the closed-form success /
inconclusive probabilities and the minimum-error (MESD) bound, simulates the
heralded photon-counting experiment with configurable noise, and analyzes
counts back into probabilities and error verdicts.
"""

from .analysis import (
    ErrorSummary,
    OutcomeTable,
    classify,
    gaussian_propagation,
    normalize_probabilities,
    outcome_table,
    quantum_contrast,
    summarize_probabilities,
)
from .errors import (
    ConfigurationError,
    DegenerateFamilyError,
    DegenerateRowError,
    DomainError,
    InsufficientDataError,
    InvalidDimensionError,
    UsdError,
)
from .experiment import (
    CountsRecord,
    ExperimentConfig,
    apply_noise,
    epsilon_for_percell_error,
    expected_record,
    run_experiment,
    run_repetitions,
    spiral_weights,
)
from .states import (
    DiscriminationBasis,
    OamMap,
    StateFamily,
    build_basis,
    ideal_detection_matrix,
    oam_map,
    residuals,
)
from .theory import (
    TheoryPoint,
    mesd_bound,
    mesd_bound_from_overlap,
    overlap,
    theory_point,
    theta_for_overlap,
    theta_max,
    usd_probabilities,
)

__version__ = "0.1.0"
