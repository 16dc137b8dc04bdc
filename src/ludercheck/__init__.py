"""Projective measurements with reduction rules, and a black-box test for them.

The package models an apparatus that measures a degenerate observable and
reduces states by the Lüders rule, the von Neumann rule, or something in
between, then decides from measurement statistics alone which family an
unknown apparatus belongs to.
"""

from .linalg import (
    DEFAULT_TOL,
    MAX_DIM,
    apply_spectral_function,
    hermitian_eig,
    is_hermitian,
    projector_from_vectors,
)
from .quantum import (
    DensityMatrix,
    PureState,
    Refinement,
    SpectralDecomposition,
    TOTAL_SPIN_SQ,
    build_sigma,
    build_sigma_prime,
    build_spin_operator,
    luders_channel,
    measure_pure,
    spectral_decompose,
)
from .apparatus import (
    MeasurementApparatus,
    make_full_von_neumann,
    make_luders,
    make_partial,
)
from .protocol import (
    Classification,
    EmptySelectionError,
    Ensemble,
    Mode,
    ProtocolConfig,
    RepeatabilityError,
    StageKind,
    StageResult,
    Transcript,
    Verdict,
    classify_refinement_oracle,
    discriminate,
    prepare_ensemble,
    required_ensemble_size,
    run_stage,
)
from .scenarios import (
    ConsecutiveSpec,
    FullVonNeumannSpec,
    LudersSpec,
    PartialSpec,
    Scenario,
    build_consecutive,
    builtin_scenarios,
    default_initial_state,
    get_builtin,
    instantiate,
    resolve_expression,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "MAX_DIM",
    "apply_spectral_function",
    "hermitian_eig",
    "is_hermitian",
    "projector_from_vectors",
    "DensityMatrix",
    "PureState",
    "Refinement",
    "SpectralDecomposition",
    "TOTAL_SPIN_SQ",
    "build_sigma",
    "build_sigma_prime",
    "build_spin_operator",
    "luders_channel",
    "measure_pure",
    "spectral_decompose",
    "MeasurementApparatus",
    "make_full_von_neumann",
    "make_luders",
    "make_partial",
    "Classification",
    "EmptySelectionError",
    "Ensemble",
    "Mode",
    "ProtocolConfig",
    "RepeatabilityError",
    "StageKind",
    "StageResult",
    "Transcript",
    "Verdict",
    "classify_refinement_oracle",
    "discriminate",
    "prepare_ensemble",
    "required_ensemble_size",
    "run_stage",
    "ConsecutiveSpec",
    "FullVonNeumannSpec",
    "LudersSpec",
    "PartialSpec",
    "Scenario",
    "build_consecutive",
    "builtin_scenarios",
    "default_initial_state",
    "get_builtin",
    "instantiate",
    "resolve_expression",
    "__version__",
]
