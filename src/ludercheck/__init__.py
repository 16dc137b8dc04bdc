"""Projective measurements with reduction rules, and a black-box test for them.

The package models an apparatus that measures a degenerate observable and
reduces states by the Lüders rule, the von Neumann rule, or something in
between, then decides from measurement statistics alone which family an
unknown apparatus belongs to.  The package root exports what the README
documents; everything else is reached through its submodule.
"""

from .quantum import (
    DensityMatrix,
    PureState,
    build_spin_operator,
    spectral_decompose,
)
from .apparatus import MeasurementApparatus, make_full_von_neumann
from .protocol import (
    Classification,
    EmptySelectionError,
    Mode,
    ProtocolConfig,
    RepeatabilityError,
    StageKind,
    Verdict,
    discriminate,
    required_ensemble_size,
)
from .scenarios import Scenario

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix",
    "PureState",
    "build_spin_operator",
    "spectral_decompose",
    "MeasurementApparatus",
    "make_full_von_neumann",
    "Classification",
    "EmptySelectionError",
    "Mode",
    "ProtocolConfig",
    "RepeatabilityError",
    "StageKind",
    "Verdict",
    "discriminate",
    "required_ensemble_size",
    "Scenario",
    "__version__",
]
