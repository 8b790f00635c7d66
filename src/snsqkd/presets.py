"""Named device-parameter presets used throughout the tests and the CLI.

Rows A-F are the standard simulation settings (fiber loss 0.2 dB/km); rows
C-F target asymptotic rates, where the pulse count only normalizes the rate,
so they carry a nominal 1e12.  The ``table2`` preset is the 502 km
finite-size comparison setting.
"""

from __future__ import annotations

from .channel import ExperimentParams

__all__ = ["PRESETS", "preset"]

# one row per preset, the columns in ExperimentParams' field order:
# dark count, detector efficiency, error-correction inefficiency,
# misalignment, fiber loss (dB/km), pulses, failure probability
PRESETS: dict[str, ExperimentParams] = {name: ExperimentParams(*row) for name, row in {
    "rowA": (1e-8, 0.30, 1.10, 0.03, 0.2, 1e11, 1e-10),
    "rowB": (1e-8, 0.30, 1.10, 0.03, 0.2, 1e12, 1e-10),
    "rowC": (1e-8, 0.50, 1.15, 0.05, 0.2, 1e12, 1e-10),
    "rowD": (8e-8, 0.30, 1.15, 0.05, 0.2, 1e12, 1e-10),
    "rowE": (8e-8, 0.30, 1.15, 0.10, 0.2, 1e12, 1e-10),
    "rowF": (8e-8, 0.30, 1.15, 0.15, 0.2, 1e12, 1e-10),
    "table2": (1.26e-8, 0.29, 1.10, 0.098, 0.162, 2.0e13, 1.71e-10),
}.items()}


def preset(name: str, distance_km: float = 0.0) -> ExperimentParams:
    """Look up a preset, optionally placing it at a distance."""
    try:
        base = PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
    return base.at_distance(distance_km)
