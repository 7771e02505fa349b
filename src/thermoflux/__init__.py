"""thermoflux: desk-scale simulator for state-agnostic work extraction under thermal operations."""

from thermoflux.core import (
    DensityMatrix,
    ThermalContext,
    string_energies,
    thermal_state,
    relative_entropy,
    tensor_power,
)

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix",
    "ThermalContext",
    "string_energies",
    "thermal_state",
    "relative_entropy",
    "tensor_power",
]
