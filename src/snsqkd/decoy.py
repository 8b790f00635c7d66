"""Untagged-bit statistics.

Asymptotic mode takes the exact single-photon yield and phase error from the
channel model; decoy mode bounds them from the vacuum + two weak decoy
intensities (the textbook substitute for a full four-intensity analysis) and
feeds expected values into the finite-size pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import (
    Convention,
    ExperimentParams,
    ProtocolParams,
    WindowRates,
    effective_rate_phase_averaged,
    x_window_rates,
)

__all__ = [
    "UntaggedStats",
    "DecoyObservations",
    "BoundViolationError",
    "untagged_asymptotic",
    "decoy_observations",
    "check_decoy_order",
    "untagged_decoy",
]


class BoundViolationError(RuntimeError):
    """Observed statistics are inconsistent with the decoy model (a bound
    numerator went negative); signals parameter misconfiguration."""


@dataclass(slots=True)
class UntaggedStats:
    """Untagged-bit count and phase-flip error bound before post-processing."""

    n1: float          # lower bound on untagged bits among effective signal windows
    n1_0: float        # untagged bits carrying bit value 0
    n1_1: float        # untagged bits carrying bit value 1
    e1ph: float        # upper bound on the untagged phase-flip error rate
    n0: float          # effective one-sender windows that emitted vacuum


@dataclass(slots=True)
class DecoyObservations:
    """Counting rates used by the decoy bounds (expected values in simulation)."""

    s_0: float         # effective rate, both sides vacuum
    s_mu1: float       # effective rate, exactly one side sends mu1
    s_mu2: float       # effective rate, exactly one side sends mu2
    t_delta: float     # wrong-click rate of phase-post-selected mu1 decoy windows


def _untagged(
    exp: ExperimentParams, proto: ProtocolParams, y1: float, e1ph: float, vacuum_rate: float
) -> UntaggedStats:
    """Untagged statistics of the one-sender signal windows from a
    single-photon yield, its phase error and the vacuum counting rate."""
    # expected signal windows in which exactly one side sends and emits vacuum
    vacuum_senders = (
        exp.total_pulses * proto.p_z**2 * 2.0 * proto.p_send * (1.0 - proto.p_send)
        * math.exp(-proto.mu_z)
    )
    n1 = vacuum_senders * proto.mu_z * y1
    return UntaggedStats(n1=n1, n1_0=0.5 * n1, n1_1=0.5 * n1, e1ph=e1ph,
                         n0=vacuum_senders * vacuum_rate)


def untagged_asymptotic(
    exp: ExperimentParams, proto: ProtocolParams, rates: WindowRates
) -> UntaggedStats:
    """Exact untagged statistics in the infinite-decoy limit."""
    return _untagged(exp, proto, rates.y1, rates.e1_raw, rates.q_nn)


def decoy_observations(
    exp: ExperimentParams,
    proto: ProtocolParams,
    rates: WindowRates,
    convention: Convention = "visibility",
) -> DecoyObservations:
    """Expected counting rates standing in for observed decoy statistics.

    ``rates`` are the signal-window rates of the same point: their vacuum
    rate is ``s_0`` (no intensity, so the same in either convention) and
    their arm transmittance is reused.
    """
    eta = rates.eta_arm
    return DecoyObservations(
        s_0=rates.q_nn,
        s_mu1=effective_rate_phase_averaged(proto.mu1, 0.0, exp, eta, convention),
        s_mu2=effective_rate_phase_averaged(proto.mu2, 0.0, exp, eta, convention),
        t_delta=x_window_rates(proto.mu1, proto.delta, exp, eta, convention),
    )


def check_decoy_order(proto: ProtocolParams) -> None:
    """Refuse decoy intensities the vacuum + two weak decoy bounds cannot use."""
    mu1, mu2 = proto.mu1, proto.mu2
    if not mu1 + mu2 < proto.mu_z:
        raise ValueError(
            f"decoy bounds require mu1 + mu2 < mu_z, got {mu1!r} + {mu2!r} vs {proto.mu_z!r}"
        )


def untagged_decoy(
    exp: ExperimentParams, proto: ProtocolParams, obs: DecoyObservations
) -> UntaggedStats:
    """Vacuum + two weak decoy bounds on the untagged statistics.

    The single-photon yield is lower-bounded from the one-sender counting
    rates; the phase error is upper-bounded from the post-selected decoy
    error rate after subtracting the vacuum (dark-count) contribution.
    """
    check_decoy_order(proto)
    mu1, mu2 = proto.mu1, proto.mu2
    yield_num = mu2**2 * (math.exp(mu1) * obs.s_mu1 - obs.s_0) - mu1**2 * (
        math.exp(mu2) * obs.s_mu2 - obs.s_0
    )
    if yield_num <= 0.0:
        raise BoundViolationError(
            f"single-photon yield bound numerator is not positive ({yield_num!r})"
        )
    y1_lower = min(yield_num / (mu1 * mu2 * (mu2 - mu1)), 1.0)

    error_num = obs.t_delta - math.exp(-2.0 * mu1) * obs.s_0 / 2.0
    if error_num < 0.0:
        raise BoundViolationError(
            f"phase-error bound numerator is negative ({error_num!r})"
        )
    e1_upper = min(error_num / (2.0 * mu1 * math.exp(-2.0 * mu1) * y1_lower), 0.5)
    return _untagged(exp, proto, y1_lower, e1_upper, obs.s_0)
