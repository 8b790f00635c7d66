"""Channel and detector model.

Maps hardware parameters to the expected probabilities of effective events
(exactly one of Charlie's detectors clicking) for every window category:
signal windows with zero, one or two senders, and phase-post-selected decoy
windows.  Double clicks are discarded, never reassigned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal, get_args

import numpy as np

from .mathcore import bessel_i0, simpson

__all__ = [
    "CONVENTIONS",
    "ExperimentParams",
    "ProtocolParams",
    "WindowRates",
    "arm_transmittance",
    "effective_rate_phase_averaged",
    "x_window_rates",
    "single_photon_quantities",
    "window_rates",
]

# Misalignment conventions: "visibility" folds the misalignment into the
# interference visibility V = 1 - 2*e_mis; "mixing" keeps ideal interference
# and mixes right/wrong detector outcomes with weight e_mis.
Convention = Literal["visibility", "mixing"]
CONVENTIONS: tuple[str, ...] = get_args(Convention)

X_QUAD_INTERVALS = 64
# sign of the interference term for the wrong and the right detector
_WRONG_RIGHT = np.array([[1.0], [-1.0]])


@dataclass(frozen=True)
class ExperimentParams:
    """Hardware/channel constants for one link configuration."""

    dark_count: float            # per detector per time window
    detector_eff: float
    error_correction_f: float    # error-correction inefficiency, >= 1
    misalignment: float
    fiber_loss_db_km: float
    total_pulses: float
    failure_prob: float
    distance_km: float = 0.0     # total Alice-Bob separation

    def __post_init__(self) -> None:
        if not 0.0 <= self.dark_count <= 1.0:
            raise ValueError(f"dark_count must be in [0, 1], got {self.dark_count!r}")
        if not 0.0 <= self.detector_eff <= 1.0:
            raise ValueError(f"detector_eff must be in [0, 1], got {self.detector_eff!r}")
        if not 1.0 <= self.error_correction_f < math.inf:
            raise ValueError(
                f"error_correction_f must be in [1, inf), got {self.error_correction_f!r}"
            )
        if not 0.0 <= self.misalignment <= 1.0:
            raise ValueError(f"misalignment must be in [0, 1], got {self.misalignment!r}")
        if not 0.0 < self.fiber_loss_db_km < math.inf:
            raise ValueError(f"fiber_loss_db_km must be in (0, inf), got {self.fiber_loss_db_km!r}")
        if not 1 <= self.total_pulses < math.inf:
            raise ValueError(f"total_pulses must be in [1, inf), got {self.total_pulses!r}")
        if not 0.0 < self.failure_prob < 1.0:
            raise ValueError(f"failure_prob must be in (0, 1), got {self.failure_prob!r}")
        if not 0.0 <= self.distance_km < math.inf:
            raise ValueError(f"distance_km must be in [0, inf), got {self.distance_km!r}")

    def at_distance(self, distance_km: float) -> "ExperimentParams":
        return replace(self, distance_km=distance_km)


@dataclass(frozen=True)
class ProtocolParams:
    """Tunable source and protocol choices."""

    p_z: float                 # probability of committing to a signal window
    p_send: float              # sending probability inside a signal window
    mu_z: float                # signal intensity
    decoy_intensities: tuple[float, float, float] = (0.0, 0.05, 0.1)
    decoy_probs: tuple[float, float, float] | None = None
    delta: float = 2.0 * math.pi / 16.0   # phase-slice width, radians

    def __post_init__(self) -> None:
        if not 0.0 < self.p_z <= 1.0:
            raise ValueError(f"p_z must be in (0, 1], got {self.p_z!r}")
        if not 0.0 <= self.p_send <= 1.0:
            raise ValueError(f"p_send must be in [0, 1], got {self.p_send!r}")
        if not 0.0 < self.mu_z < math.inf:
            raise ValueError(f"mu_z must be in (0, inf), got {self.mu_z!r}")
        nu0, nu1, nu2 = self.decoy_intensities
        if nu0 != 0.0:
            raise ValueError("decoy_intensities must start with the vacuum intensity 0")
        if not 0.0 < nu1 < nu2 < math.inf:
            raise ValueError(
                f"decoy intensities must satisfy 0 < mu1 < mu2 < inf, got {nu1!r}, {nu2!r}"
            )
        if not 0.0 < self.delta <= 2.0 * math.pi:
            raise ValueError(f"delta must be in (0, 2*pi], got {self.delta!r}")
        if self.decoy_probs is None:
            # split the decoy-window probability evenly across the three sources
            share = (1.0 - self.p_z) / 3.0
            object.__setattr__(self, "decoy_probs", (share, share, share))
        total = self.p_z + sum(self.decoy_probs)
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"p_z plus decoy probabilities must sum to 1, got {total!r}")
        if not all(q >= 0.0 for q in self.decoy_probs):
            raise ValueError(f"decoy_probs must be non-negative, got {self.decoy_probs!r}")

    @property
    def mu1(self) -> float:
        return self.decoy_intensities[1]

    @property
    def mu2(self) -> float:
        return self.decoy_intensities[2]


@dataclass(slots=True)
class WindowRates:
    """Expected per-window effective-event probabilities at the signal intensity."""

    q_nn: float        # neither side sends
    q_c: float         # exactly one side sends mu_z
    q_dd: float        # both sides send mu_z, phase averaged
    y1: float          # single-photon yield (one-sided single photon)
    e1_raw: float      # single-photon phase error, asymptotic exact value


def arm_transmittance(exp: ExperimentParams) -> float:
    """Source-to-detection transmittance of one (symmetric) arm.

    Charlie sits at the midpoint, so each arm spans half the distance;
    detector efficiency is folded in.
    """
    return exp.detector_eff * 10.0 ** (-exp.fiber_loss_db_km * (exp.distance_km / 2.0) / 10.0)


def _visibility(exp: ExperimentParams, convention: Convention) -> tuple[float, float]:
    """Interference visibility and right/wrong detector mixing weight."""
    if convention == "visibility":
        return 1.0 - 2.0 * exp.misalignment, 0.0
    if convention == "mixing":
        return 1.0, exp.misalignment
    raise ValueError(f"unknown convention {convention!r}; choose from {CONVENTIONS}")


def effective_rate_phase_averaged(
    mu_a: float,
    mu_b: float,
    exp: ExperimentParams,
    eta_arm: float,
    convention: Convention = "visibility",
) -> float:
    """Probability of exactly one click, averaged over a uniform phase difference.

    Closed form 2(1-d) e^{-S/2} I0(kappa) - 2(1-d)^2 e^{-S} with
    S = eta*(mu_a+mu_b) and kappa = eta*sqrt(mu_a*mu_b)*V.
    """
    if mu_a < 0.0 or mu_b < 0.0:
        raise ValueError("intensities must be non-negative")
    s = eta_arm * (mu_a + mu_b)
    vis, _ = _visibility(exp, convention)
    kappa = eta_arm * math.sqrt(mu_a * mu_b) * abs(vis)
    quiet = 1.0 - exp.dark_count
    return 2.0 * quiet * math.exp(-0.5 * s) * bessel_i0(kappa) - 2.0 * quiet * quiet * math.exp(-s)


def x_window_rates(
    mu_k: float,
    delta: float,
    exp: ExperimentParams,
    eta_arm: float,
    convention: Convention = "visibility",
    n_intervals: int = X_QUAD_INTERVALS,
) -> tuple[float, float]:
    """Effective and wrong-click rates of phase-post-selected decoy windows.

    Both sides send mu_k; the announced phase difference is post-selected into
    |d| <= delta/2 (the slice around pi is symmetric and identical, so the
    integral runs over the zero slice only).  Returns (q_x, t_x): probability
    of an effective event per post-selected window, and probability that only
    the wrong detector clicked.

    The integrand is even in d, so Simpson's rule with ``n_intervals``
    intervals runs over the half slice [0, delta/2].  Each detector's click
    probability is formed with expm1, so a rate far below one keeps its
    relative precision instead of being a difference of numbers near one.
    """
    if not 0.0 <= mu_k < math.inf:  # an infinite intensity makes the integrand NaN
        raise ValueError(f"mu_k must be in [0, inf), got {mu_k!r}")
    if not 0.0 < delta <= 2.0 * math.pi:
        raise ValueError(f"delta must be in (0, 2*pi], got {delta!r}")
    vis, mix = _visibility(exp, convention)
    log_quiet = math.log1p(-exp.dark_count)
    mean = eta_arm * mu_k
    half = 0.5 * delta

    def integrand(phase: np.ndarray) -> np.ndarray:
        """Per-phase probabilities, negated, that only the wrong detector
        (row 0) or only the right one (row 1) clicks; the right detector is
        the one the interference favours."""
        # log-probabilities that the wrong (row 0) and the right (row 1) detector stay dark
        log_silent = (log_quiet - mean) + (mean * vis) * np.cos(phase) * _WRONG_RIGHT
        return np.expm1(log_silent) * np.exp(log_silent[::-1])

    wrong, right = simpson(integrand, 0.0, half, n_intervals) / -half
    return float(wrong + right), float((1.0 - mix) * wrong + mix * right)


def single_photon_quantities(exp: ExperimentParams, eta_arm: float) -> tuple[float, float]:
    """Yield and phase error of a one-sided single photon.

    A detected photon (probability eta_arm) clicks one detector and the other
    must stay dark; a lost photon leaves dark counts only, which carry no
    phase information.
    """
    d = exp.dark_count
    y1 = eta_arm * (1.0 - d) + (1.0 - eta_arm) * 2.0 * d * (1.0 - d)
    if y1 == 0.0:
        return 0.0, 0.5
    e1 = (eta_arm * exp.misalignment * (1.0 - d) + (1.0 - eta_arm) * d * (1.0 - d)) / y1
    return y1, e1


def window_rates(
    exp: ExperimentParams,
    proto: ProtocolParams,
    convention: Convention = "visibility",
) -> WindowRates:
    """Assemble the signal-window rates the counting formulas consume."""
    eta = arm_transmittance(exp)
    y1, e1 = single_photon_quantities(exp, eta)
    return WindowRates(
        q_nn=effective_rate_phase_averaged(0.0, 0.0, exp, eta, convention),
        q_c=effective_rate_phase_averaged(proto.mu_z, 0.0, exp, eta, convention),
        q_dd=effective_rate_phase_averaged(proto.mu_z, proto.mu_z, exp, eta, convention),
        y1=y1,
        e1_raw=e1,
    )
