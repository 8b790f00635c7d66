"""Key-rate maximization over protocol parameters.

Coarse grid over (mu_z, p) in log space crossed with a linear grid over p_z
when it is free, followed by Nelder-Mead refinement from the best grid
cells.  The phase-slice width is scanned over a discrete set of fractions of
the circle.  The objective is the unclamped key length, so the search keeps
a gradient direction even where the rate floors at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from .channel import CONVENTIONS, ExperimentParams, ProtocolParams
from .decoy import BoundViolationError
from .pipeline import VARIANTS, evaluate, mode_for_variant

__all__ = ["OptimizationSpec", "RestartRecord", "OptimizationResult", "optimize", "DELTA_CHOICES"]

DELTA_CHOICES = tuple(2.0 * math.pi / k for k in range(4, 33))

_INVALID = -1e30


@dataclass(frozen=True)
class OptimizationSpec:
    """What to optimize and how hard to try."""

    variant: str
    bounds: dict[str, tuple[float, float]] = field(default_factory=dict)
    delta_values: tuple[float, ...] | None = None
    grid_mu: int = 12
    grid_p: int = 12
    grid_pz: int = 3
    restarts: int = 5
    budget: int = 20000
    seed: int = 0
    vacuum_credit: bool = False
    convention: str = "visibility"
    objective_override: Callable[[ProtocolParams], float] | None = None

    def __post_init__(self) -> None:
        # refused here: inside the search a ValueError only scores a point invalid
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}; choose from {CONVENTIONS}")

    def resolved_bounds(self) -> dict[str, tuple[float, float]]:
        """Default free variables per mode, overridden by explicit bounds."""
        if mode_for_variant(self.variant) == "finite":
            defaults = {
                "mu_z": (0.05, 1.2),
                "p_send": (0.005, 0.5),
                "p_z": (0.2, 0.99),
                "mu1": (0.005, 0.2),
                "mu2": (0.02, 0.45),
            }
        else:
            defaults = {"mu_z": (0.05, 1.5), "p_send": (0.005, 0.6)}
        defaults.update(self.bounds)
        return defaults

    def resolved_deltas(self) -> tuple[float, ...]:
        if self.delta_values is not None:
            return self.delta_values
        if mode_for_variant(self.variant) == "finite":
            return DELTA_CHOICES
        # asymptotic variants never touch the phase slice
        return (2.0 * math.pi / 16.0,)


@dataclass(frozen=True)
class RestartRecord:
    start: dict[str, float]
    start_value: float
    final: dict[str, float]
    final_value: float
    evaluations: int


@dataclass(frozen=True)
class OptimizationResult:
    params: ProtocolParams
    key_length: float
    rate: float
    restarts: tuple[RestartRecord, ...]
    evaluations: int

    @property
    def positive(self) -> bool:
        return self.key_length > 0.0


def _make_proto(values: dict[str, float], delta: float) -> ProtocolParams:
    mu1 = values.get("mu1", 0.02)
    mu2 = values.get("mu2", 0.06)
    return ProtocolParams(
        p_z=values.get("p_z", 1.0),
        p_send=values["p_send"],
        mu_z=values["mu_z"],
        decoy_intensities=(0.0, mu1, mu2),
        delta=delta,
    )


def optimize(spec: OptimizationSpec, exp: ExperimentParams) -> OptimizationResult:
    """Maximize the spec's variant over the free protocol parameters.

    Deterministic for a given spec (the seed is recorded for provenance; the
    search itself needs no randomness).  Returns a zero-length result, not an
    error, when no candidate produces a positive key.
    """
    bounds = spec.resolved_bounds()
    names = list(bounds)
    evaluations = 0

    def objective(values: dict[str, float], delta: float) -> float:
        nonlocal evaluations
        evaluations += 1
        if spec.objective_override is not None:
            return spec.objective_override(_make_proto(values, delta))
        mu1 = values.get("mu1")
        mu2 = values.get("mu2")
        if mu1 is not None and mu2 is not None:
            # graded penalty steers the simplex back into the valid ordering
            violation = max(0.0, mu1 - mu2 + 1e-6) + max(0.0, mu1 + mu2 - 0.999 * values["mu_z"])
            if violation > 0.0:
                return _INVALID * (1.0 + violation)
        try:
            point = evaluate(
                exp,
                _make_proto(values, delta),
                spec.variant,
                vacuum_credit=spec.vacuum_credit,
                convention=spec.convention,
            )
        except (BoundViolationError, ValueError):
            return _INVALID
        return point.key.key_length

    def to_vector(values: dict[str, float]) -> np.ndarray:
        return np.array([_encode(name, values[name]) for name in names])

    def from_vector(vec: np.ndarray) -> dict[str, float]:
        return {name: _decode(name, x) for name, x in zip(names, vec)}

    nm_bounds = [(_encode(n, bounds[n][0]), _encode(n, bounds[n][1])) for n in names]

    def refine(start: dict[str, float], start_value: float, delta: float) -> RestartRecord:
        maxfev = max(100, (spec.budget - evaluations) // max(1, spec.restarts))
        result = minimize(
            lambda vec: -objective(from_vector(vec), delta),
            to_vector(start),
            method="Nelder-Mead",
            bounds=nm_bounds,
            options={"maxfev": maxfev, "xatol": 1e-4, "fatol": 1e-12},
        )
        final = from_vector(result.x)
        final_value = -float(result.fun)
        if final_value < start_value:  # refinement never loses its starting cell
            final, final_value = dict(start), start_value
        return RestartRecord(
            start=dict(start),
            start_value=start_value,
            final=final,
            final_value=final_value,
            evaluations=int(result.nfev),
        )

    best_value = -math.inf
    best_values: dict[str, float] | None = None
    deltas = spec.resolved_deltas()
    # pivot on the middle slice width, then rescan the discrete set from the
    # incumbent optimum rather than re-gridding per slice
    pivot = deltas[len(deltas) // 2]
    best_delta = pivot
    restarts: list[RestartRecord] = []

    scored = []
    for cell in _grid_cells(spec, bounds):
        scored.append((objective(cell, pivot), cell))
        if evaluations >= spec.budget:
            break
    scored.sort(key=lambda item: item[0], reverse=True)

    for start_value, start in scored[: spec.restarts]:
        if start_value <= _INVALID or evaluations >= spec.budget:
            break
        record = refine(start, start_value, pivot)
        restarts.append(record)
        if record.final_value > best_value:
            best_value = record.final_value
            best_values = record.final

    if best_values is not None:
        for delta in deltas:
            if delta == pivot or evaluations >= spec.budget:
                continue
            record = refine(best_values, objective(best_values, delta), delta)
            restarts.append(record)
            if record.final_value > best_value:
                best_value = record.final_value
                best_values = record.final
                best_delta = delta

    if best_values is None or best_value <= 0.0:
        fallback = best_values or _grid_cells(spec, bounds)[0]
        proto = _make_proto(fallback, best_delta)
        length = best_value if best_values is not None else _INVALID
        return OptimizationResult(proto, min(length, 0.0), 0.0, tuple(restarts), evaluations)

    proto = _make_proto(best_values, best_delta)
    point = evaluate(
        exp, proto, spec.variant, vacuum_credit=spec.vacuum_credit, convention=spec.convention
    )
    return OptimizationResult(
        proto, point.key.key_length, point.key.rate, tuple(restarts), evaluations
    )


_LOG_VARS = {"mu_z", "p_send", "mu1", "mu2"}


def _encode(name: str, value: float) -> float:
    return math.log(value) if name in _LOG_VARS else value


def _decode(name: str, x: float) -> float:
    # float() keeps numpy scalars from the simplex out of ProtocolParams and output
    return math.exp(x) if name in _LOG_VARS else float(x)


def _grid_cells(
    spec: OptimizationSpec, bounds: dict[str, tuple[float, float]]
) -> list[dict[str, float]]:
    """Log-spaced (mu_z, p) grid crossed with a linear p_z grid; decoy
    intensities start from fixed heuristics and move only in refinement."""
    mus = np.geomspace(bounds["mu_z"][0], bounds["mu_z"][1], spec.grid_mu)
    ps = np.geomspace(bounds["p_send"][0], bounds["p_send"][1], spec.grid_p)
    if "p_z" in bounds:
        pzs = np.linspace(bounds["p_z"][0], bounds["p_z"][1], spec.grid_pz)
    else:
        pzs = np.array([1.0])
    cells = []
    for mu in mus:
        for p in ps:
            for pz in pzs:
                cell = {"mu_z": float(mu), "p_send": float(p)}
                if "p_z" in bounds:
                    cell["p_z"] = float(pz)
                if "mu1" in bounds:
                    lo1, hi1 = bounds["mu1"]
                    cell["mu1"] = float(np.clip(0.05 * mu, lo1, hi1))
                if "mu2" in bounds:
                    lo2, hi2 = bounds["mu2"]
                    cell["mu2"] = float(np.clip(0.2 * mu, max(lo2, 2.0 * cell.get("mu1", lo2)), hi2))
                cells.append(cell)
    return cells
