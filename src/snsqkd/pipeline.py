"""End-to-end evaluation: channel model -> counting -> post-processing -> key."""

from __future__ import annotations

from dataclasses import dataclass

from .channel import Convention, ExperimentParams, ProtocolParams, WindowRates, window_rates
from .chernoff import EpsilonBudget
from .decoy import (
    UntaggedStats,
    check_decoy_order,
    decoy_observations,
    untagged_asymptotic,
    untagged_decoy,
)
from .postproc import (
    AoppOutcome,
    BferOutcome,
    KeyResult,
    OddSiftOutcome,
    ZWindowCounts,
    aopp,
    bfer_expectations,
    key_length_aopp,
    key_length_bfer,
    key_length_finite,
    key_length_oddsift,
    key_length_original,
    key_length_refined,
    odd_parity_sift,
    z_window_counts,
)

__all__ = ["VARIANTS", "ASYMPTOTIC_VARIANTS", "PointResult", "evaluate", "mode_for_variant"]

ASYMPTOTIC_VARIANTS = ("original", "refined", "bfer", "oddsift", "aopp")
VARIANTS = ASYMPTOTIC_VARIANTS + ("finite",)


def mode_for_variant(variant: str) -> str:
    return "finite" if variant == "finite" else "asymptotic"


@dataclass(slots=True)
class PointResult:
    """Full breakdown of one (parameters, distance, variant) evaluation."""

    variant: str
    mode: str
    rates: WindowRates
    counts: ZWindowCounts
    untagged: UntaggedStats
    key: KeyResult
    bfer: BferOutcome | None = None
    sift: OddSiftOutcome | None = None
    aopp_outcome: AoppOutcome | None = None
    budget: EpsilonBudget | None = None


def evaluate(
    exp: ExperimentParams,
    proto: ProtocolParams,
    variant: str,
    vacuum_credit: bool = False,
    convention: Convention = "visibility",
) -> PointResult:
    """Evaluate one key-length variant at fixed protocol parameters.

    The finite variant draws its untagged statistics from the decoy bounds
    and applies the concentration and epsilon penalties; all other variants
    use the asymptotic (exact) untagged statistics.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    mode = mode_for_variant(variant)
    if mode == "finite":
        check_decoy_order(proto)  # before any channel work
    rates = window_rates(exp, proto, convention)
    counts = z_window_counts(exp, proto, rates)
    f_ec = exp.error_correction_f
    n = exp.total_pulses

    if mode == "finite":
        untagged = untagged_decoy(exp, proto, decoy_observations(exp, proto, convention))
        budget = EpsilonBudget.from_failure_prob(exp.failure_prob)
        bfer = bfer_expectations(counts, untagged)
        key = key_length_finite(bfer, untagged, budget, f_ec, n)
        return PointResult(variant, mode, rates, counts, untagged, key, bfer=bfer, budget=budget)

    untagged = untagged_asymptotic(exp, proto, rates)
    if variant == "original":
        key = key_length_original(counts, untagged, f_ec, n, vacuum_credit)
        return PointResult(variant, mode, rates, counts, untagged, key)
    if variant == "refined":
        key = key_length_refined(counts, untagged, f_ec, n, vacuum_credit)
        return PointResult(variant, mode, rates, counts, untagged, key)
    if variant == "bfer":
        bfer = bfer_expectations(counts, untagged)
        key = key_length_bfer(bfer, f_ec, n)
        return PointResult(variant, mode, rates, counts, untagged, key, bfer=bfer)
    if variant == "oddsift":
        sift = odd_parity_sift(counts, untagged)
        key = key_length_oddsift(sift, f_ec, n)
        return PointResult(variant, mode, rates, counts, untagged, key, sift=sift)
    outcome = aopp(counts, untagged)
    key = key_length_aopp(outcome, f_ec, n)
    return PointResult(variant, mode, rates, counts, untagged, key, aopp_outcome=outcome)
