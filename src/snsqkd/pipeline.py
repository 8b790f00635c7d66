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

__all__ = ["VARIANTS", "MODES", "PointResult", "evaluate", "mode_for_variant"]

VARIANTS = ("original", "refined", "bfer", "oddsift", "aopp", "finite")
MODES = ("asymptotic", "finite")


def mode_for_variant(variant: str) -> str:
    return "finite" if variant == "finite" else "asymptotic"


@dataclass(slots=True)
class PointResult:
    """Full breakdown of one (parameters, distance, variant) evaluation; ``outcome``
    is the two-way round's record, None for ``original`` and ``refined``."""

    variant: str
    mode: str
    rates: WindowRates
    counts: ZWindowCounts
    untagged: UntaggedStats
    key: KeyResult
    outcome: BferOutcome | OddSiftOutcome | AoppOutcome | None = None
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
    outcome = budget = None

    if mode == "finite":
        untagged = untagged_decoy(exp, proto, decoy_observations(exp, proto, rates, convention))
        budget = EpsilonBudget.from_failure_prob(exp.failure_prob)
        outcome = bfer_expectations(counts, untagged)
        key = key_length_finite(outcome, untagged, budget, f_ec, n)
    else:
        untagged = untagged_asymptotic(exp, proto, rates)
        if variant == "original":
            key = key_length_original(counts, untagged, f_ec, n, vacuum_credit)
        elif variant == "refined":
            key = key_length_refined(counts, untagged, f_ec, n, vacuum_credit)
        elif variant == "bfer":
            outcome = bfer_expectations(counts, untagged)
            key = key_length_bfer(outcome, f_ec, n)
        elif variant == "oddsift":
            outcome = odd_parity_sift(counts, untagged)
            key = key_length_oddsift(outcome, f_ec, n)
        else:
            outcome = aopp(counts, untagged)
            key = key_length_aopp(outcome, f_ec, n)
    return PointResult(variant, mode, rates, counts, untagged, key, outcome, budget)
