"""Counting formulas and key lengths.

Covers the refined event bookkeeping of effective signal windows, bit-flip
error rejection through random pairing and parity comparison, odd-parity
sifting, actively odd-parity pairing, and every key-length variant built on
them.  All expectation formulas use the multinomial product approximation
for pair counts: n_ab = (n_t/2) * (n_a/n_t) * (n_b/n_t) for ordered labels,
ignoring without-replacement corrections of order 1/n_t (the Monte Carlo
oracle quantifies the residual).  Intermediate algebra is real-valued;
floors are applied only when literally pairing sampled strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import ExperimentParams, ProtocolParams, WindowRates
from .chernoff import EpsilonBudget, post_rejection_bounds
from .decoy import UntaggedStats
from .mathcore import binary_entropy

__all__ = [
    "ZWindowCounts",
    "BferOutcome",
    "OddSiftOutcome",
    "AoppOutcome",
    "KeyResult",
    "iterate_phase_error",
    "z_window_counts",
    "key_length_original",
    "key_length_refined",
    "bfer_expectations",
    "key_length_bfer",
    "key_length_finite",
    "odd_parity_sift",
    "key_length_oddsift",
    "aopp",
    "key_length_aopp",
]


@dataclass(slots=True)
class ZWindowCounts:
    """Effective signal-window events split by who decided to send.

    C events have exactly one sender (no bit-flip error; c1 means Alice sent,
    c0 means Bob sent), D events have two senders and V events none (both are
    bit-flip errors).  Bob's bit-0 group collects D and C0, his bit-1 group
    V and C1.
    """

    n_c0: float
    n_c1: float
    n_d: float
    n_v: float

    def __post_init__(self) -> None:
        if min(self.n_c0, self.n_c1, self.n_d, self.n_v) < 0.0:
            raise ValueError("event counts must be non-negative")

    @property
    def n_t(self) -> float:
        return self.n_c0 + self.n_c1 + self.n_d + self.n_v

    @property
    def n_group0(self) -> float:
        return self.n_d + self.n_c0

    @property
    def n_group1(self) -> float:
        return self.n_v + self.n_c1

    @property
    def e_group0(self) -> float:
        return self.n_d / self.n_group0 if self.n_group0 > 0.0 else 0.0

    @property
    def e_group1(self) -> float:
        return self.n_v / self.n_group1 if self.n_group1 > 0.0 else 0.0

    @property
    def e_z(self) -> float:
        return (self.n_d + self.n_v) / self.n_t if self.n_t > 0.0 else 0.0


@dataclass(slots=True)
class BferOutcome:
    """Expected pair bookkeeping of one error-rejection round.

    Pairs keep their first bit when both sides see equal parities and are
    discarded otherwise.  Class 1 holds survivors of odd-parity pairs,
    class 2 survivors of even pairs of zeros, class 3 the rest; e1/e2/e3 are
    the class bit-flip error rates (distinct from the bit-group error rates
    on ZWindowCounts).
    """

    n_t: float
    n_cc: float
    n_vv: float
    n_dd: float
    n_cv: float
    n_vc: float
    n_cd: float
    n_dc: float
    n_vd: float
    n_dv: float
    n_c1c1: float
    n_c1c0: float
    n_c0c1: float
    n_c0c0: float
    n_survived: float
    n_t1: float
    n_t2: float
    n_t3: float
    e1: float
    e2: float
    e3: float
    n1_survived: float
    e1ph_iter: float


@dataclass(slots=True)
class OddSiftOutcome:
    """Error rejection keeping only the odd-parity survivors."""

    n_r: float          # odd-parity pairs under random pairing
    n_t1: float         # surviving class-1 bits
    e1: float
    n1_kept: float      # untagged survivors
    e_ph_iter: float    # iterated phase-flip error of the survivors


@dataclass(slots=True)
class AoppOutcome:
    """Actively odd-parity pairing: every pair holds one 0 and one 1 of Bob's."""

    n_r: float          # random-pairing odd-parity yield, for the counting identity
    n_a: float          # pairs formed, min(N1, N0)
    n_both_c: float     # surviving pairs with two one-sender bits
    n_vd_dv: float      # surviving pairs made of one V and one D bit (errors)
    n_kept: float
    error_z: float
    n1_kept: float
    e_ph_iter: float


@dataclass(slots=True)
class KeyResult:
    """Final key length with its term breakdown; the length is left unclamped
    (the optimizer needs the sign), only the per-pulse rate is floored at 0."""

    key_length: float
    total_pulses: float
    untagged_term: float
    phase_term: float
    ec_term: float
    finite_penalty: float

    @property
    def rate(self) -> float:
        return max(self.key_length, 0.0) / self.total_pulses


def _key_result(
    total_pulses: float,
    untagged_term: float,
    phase_term: float,
    ec_term: float,
    finite_penalty: float = 0.0,
) -> KeyResult:
    key_length = untagged_term + phase_term + ec_term + finite_penalty
    if not math.isfinite(key_length):
        # an overflowed term (inf - inf, or inf times a zero entropy) has no key length
        raise ValueError(
            f"key length {key_length!r} is not finite: untagged term {untagged_term!r}, "
            f"phase term {phase_term!r}, error-correction term {ec_term!r}, "
            f"finite-size penalty {finite_penalty!r}"
        )
    return KeyResult(
        key_length=key_length,
        total_pulses=total_pulses,
        untagged_term=untagged_term,
        phase_term=phase_term,
        ec_term=ec_term,
        finite_penalty=finite_penalty,
    )


def iterate_phase_error(e: float) -> float:
    """Phase-flip error after one parity-check round: e -> 2e(1-e)."""
    return 2.0 * e * (1.0 - e)


def z_window_counts(
    exp: ExperimentParams, proto: ProtocolParams, rates: WindowRates
) -> ZWindowCounts:
    """Expected effective-event counts over all signal windows."""
    base = exp.total_pulses * proto.p_z**2
    p = proto.p_send
    return ZWindowCounts(
        n_c0=base * p * (1.0 - p) * rates.q_c,
        n_c1=base * p * (1.0 - p) * rates.q_c,
        n_d=base * p * p * rates.q_dd,
        n_v=base * (1.0 - p) * (1.0 - p) * rates.q_nn,
    )


def _one_way_terms(
    counts: ZWindowCounts, untagged: UntaggedStats, vacuum_credit: bool
) -> tuple[float, float]:
    """Untagged and phase terms of the key lengths without error rejection."""
    if untagged.n1 > counts.n_t:
        raise ValueError("untagged bits cannot exceed the effective window count")
    untagged_term = untagged.n1 + (untagged.n0 if vacuum_credit else 0.0)
    return untagged_term, -untagged.n1 * binary_entropy(untagged.e1ph)


def key_length_original(
    counts: ZWindowCounts,
    untagged: UntaggedStats,
    f_ec: float,
    total_pulses: float,
    vacuum_credit: bool = False,
) -> KeyResult:
    """Key length without error rejection, using the averaged error rate.

    With ``vacuum_credit`` the effective one-sender vacuum windows are added
    to the untagged term (they leak nothing about who decided to send).
    """
    untagged_term, phase_term = _one_way_terms(counts, untagged, vacuum_credit)
    ec_term = -f_ec * counts.n_t * binary_entropy(counts.e_z)
    return _key_result(total_pulses, untagged_term, phase_term, ec_term)


def key_length_refined(
    counts: ZWindowCounts,
    untagged: UntaggedStats,
    f_ec: float,
    total_pulses: float,
    vacuum_credit: bool = False,
) -> KeyResult:
    """Key length with the error-correction cost split by bit group."""
    untagged_term, phase_term = _one_way_terms(counts, untagged, vacuum_credit)
    ec = counts.n_group0 * binary_entropy(counts.e_group0) + counts.n_group1 * binary_entropy(
        counts.e_group1
    )
    return _key_result(total_pulses, untagged_term, phase_term, -f_ec * ec)


def bfer_expectations(counts: ZWindowCounts, untagged: UntaggedStats) -> BferOutcome:
    """Expected outcome of random pairing plus parity-check error rejection."""
    n_t = counts.n_t
    if n_t < 2.0:
        raise ValueError("error rejection needs at least two effective windows")
    pairs = 0.5 * n_t
    q_c0 = counts.n_c0 / n_t
    q_c1 = counts.n_c1 / n_t
    q_c = q_c0 + q_c1
    q_d = counts.n_d / n_t
    q_v = counts.n_v / n_t

    n_cc = pairs * q_c * q_c
    n_vv = pairs * q_v * q_v
    n_dd = pairs * q_d * q_d
    n_cv = pairs * q_c * q_v
    n_vc = pairs * q_v * q_c
    n_cd = pairs * q_c * q_d
    n_dc = pairs * q_d * q_c
    n_vd = pairs * q_v * q_d
    n_dv = pairs * q_d * q_v
    n_c1c1 = pairs * q_c1 * q_c1
    n_c1c0 = pairs * q_c1 * q_c0
    n_c0c1 = pairs * q_c0 * q_c1
    n_c0c0 = pairs * q_c0 * q_c0

    n_t1 = n_vd + n_dv + n_c1c0 + n_c0c1
    n_t2 = n_dd + n_c0c0
    n_t3 = n_vv + n_c1c1
    return BferOutcome(
        n_t=n_t,
        n_cc=n_cc,
        n_vv=n_vv,
        n_dd=n_dd,
        n_cv=n_cv,
        n_vc=n_vc,
        n_cd=n_cd,
        n_dc=n_dc,
        n_vd=n_vd,
        n_dv=n_dv,
        n_c1c1=n_c1c1,
        n_c1c0=n_c1c0,
        n_c0c1=n_c0c1,
        n_c0c0=n_c0c0,
        n_survived=n_cc + n_vd + n_dv + n_vv + n_dd,
        n_t1=n_t1,
        n_t2=n_t2,
        n_t3=n_t3,
        e1=(n_vd + n_dv) / n_t1 if n_t1 > 0.0 else 0.0,
        e2=n_dd / n_t2 if n_t2 > 0.0 else 0.0,
        e3=n_vv / n_t3 if n_t3 > 0.0 else 0.0,
        n1_survived=pairs * (untagged.n1 / n_t) ** 2,
        e1ph_iter=iterate_phase_error(untagged.e1ph),
    )


def _class_ec(bfer: BferOutcome) -> float:
    """Error-correction cost of the three survivor classes, before f_ec."""
    return (
        bfer.n_t1 * binary_entropy(bfer.e1)
        + bfer.n_t2 * binary_entropy(bfer.e2)
        + bfer.n_t3 * binary_entropy(bfer.e3)
    )


def key_length_bfer(bfer: BferOutcome, f_ec: float, total_pulses: float) -> KeyResult:
    """Key length after error rejection, keeping all survivor classes."""
    return _key_result(
        total_pulses,
        bfer.n1_survived,
        -bfer.n1_survived * binary_entropy(bfer.e1ph_iter),
        -f_ec * _class_ec(bfer),
    )


def key_length_finite(
    bfer: BferOutcome,
    untagged: UntaggedStats,
    budget: EpsilonBudget,
    f_ec: float,
    total_pulses: float,
) -> KeyResult:
    """Finite-size key length after error rejection.

    The expected untagged survivor count and phase error are converted to
    high-confidence bounds; the directly observable class counts enter raw.
    ``bfer`` must come from ``bfer_expectations`` on the same ``untagged``.
    """
    n1_lower, e1_upper = post_rejection_bounds(bfer.n1_survived, untagged.e1ph, budget.xi)
    # log2(eps_cor/2) + 2*log2(sqrt(2)*eps_pa*eps_hat) as sums of logarithms:
    # the products underflow for a failure probability below about 1e-155
    penalty = (math.log2(budget.eps_cor) - 1.0) + 2.0 * (
        0.5 + math.log2(budget.eps_pa) + math.log2(budget.eps_hat)
    )
    return _key_result(
        total_pulses,
        n1_lower,
        -n1_lower * binary_entropy(e1_upper),
        -f_ec * _class_ec(bfer),
        penalty,
    )


def _odd_pairs(counts: ZWindowCounts) -> float:
    """Odd-parity pairs formed by random pairing, N1*N0/(N1+N0)."""
    return counts.n_group1 * counts.n_group0 / (counts.n_group1 + counts.n_group0)


def odd_parity_sift(counts: ZWindowCounts, untagged: UntaggedStats) -> OddSiftOutcome:
    """Error rejection keeping only the survivors of odd-parity pairs."""
    if counts.n_group0 <= 0.0 or counts.n_group1 <= 0.0:
        raise ValueError("odd-parity sifting needs both bit values present")
    n_t = counts.n_t
    pairs = 0.5 * n_t
    n_vd_dv = 2.0 * pairs * (counts.n_v / n_t) * (counts.n_d / n_t)
    n_cross_c = 2.0 * pairs * (counts.n_c1 / n_t) * (counts.n_c0 / n_t)
    n_t1 = n_vd_dv + n_cross_c
    return OddSiftOutcome(
        n_r=_odd_pairs(counts),
        n_t1=n_t1,
        e1=n_vd_dv / n_t1 if n_t1 > 0.0 else 0.0,
        n1_kept=2.0 * pairs * (untagged.n1_1 / n_t) * (untagged.n1_0 / n_t),
        e_ph_iter=iterate_phase_error(untagged.e1ph),
    )


def key_length_oddsift(sift: OddSiftOutcome, f_ec: float, total_pulses: float) -> KeyResult:
    return _key_result(
        total_pulses,
        sift.n1_kept,
        -sift.n1_kept * binary_entropy(sift.e_ph_iter),
        -f_ec * sift.n_t1 * binary_entropy(sift.e1),
    )


def aopp(counts: ZWindowCounts, untagged: UntaggedStats) -> AoppOutcome:
    """Actively odd-parity pairing followed by the two-sided parity check.

    Each pair holds one of Bob's zeros and one of his ones, so the pair count
    is min(N1, N0); pairs mixing a one-sender bit with a V or D bit fail the
    parity check and are discarded.
    """
    n_group0 = counts.n_group0
    n_group1 = counts.n_group1
    if n_group0 <= 0.0 or n_group1 <= 0.0:
        raise ValueError("actively odd-parity pairing needs both bit values present")
    n_a = min(n_group1, n_group0)
    n_both_c = (counts.n_c1 / n_group1) * (counts.n_c0 / n_group0) * n_a
    n_vd_dv = (counts.n_v / n_group1) * (counts.n_d / n_group0) * n_a
    n_kept = n_both_c + n_vd_dv
    return AoppOutcome(
        n_r=_odd_pairs(counts),
        n_a=n_a,
        n_both_c=n_both_c,
        n_vd_dv=n_vd_dv,
        n_kept=n_kept,
        error_z=n_vd_dv / n_kept if n_kept > 0.0 else 0.0,
        n1_kept=(untagged.n1_0 / n_group0) * (untagged.n1_1 / n_group1) * n_a,
        e_ph_iter=iterate_phase_error(untagged.e1ph),
    )


def key_length_aopp(outcome: AoppOutcome, f_ec: float, total_pulses: float) -> KeyResult:
    return _key_result(
        total_pulses,
        outcome.n1_kept,
        -outcome.n1_kept * binary_entropy(outcome.e_ph_iter),
        -f_ec * outcome.n_kept * binary_entropy(outcome.error_z),
    )
