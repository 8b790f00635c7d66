"""Monte Carlo oracle for the pairing formulas.

Samples labeled bit strings with the same composition as an expected-count
instance, runs the literal post-processing procedures (random pairing with
parity comparison, odd-parity sifting, actively odd-parity pairing), and
compares every tallied statistic against its analytic expectation.  Each
statistic is a binomial count, reported with its z-score and flagged by its
exact binomial tail.  The actively odd-parity pairing is sampled exactly in
distribution by vectorized draws (``_aopp_pairs``).

All randomness comes from a single seeded PCG64 stream per run so results
are reproducible; the algorithm identifier is recorded in emitted reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.special import betainc, gammainc, gammaincc, ndtr

from .decoy import UntaggedStats
from .postproc import ZWindowCounts

__all__ = [
    "RNG_ALGORITHM",
    "LabeledString",
    "BferEmpirical",
    "AoppEmpirical",
    "StatCheck",
    "sample_string",
    "run_bfer",
    "run_aopp",
    "expected_statistics",
    "empirical_statistics",
    "compare",
]

RNG_ALGORITHM = "numpy-pcg64"

# compare() flags a count whose binomial tail is below the one-sided normal
# tail at Z_LIMIT sigmas: the significance of |z| > Z_LIMIT, exact also for
# classes that expect less than one event.
Z_LIMIT = 5.0
TAIL_LIMIT = float(ndtr(-Z_LIMIT))

# Label codes and the bit a label implies on each side.  One-sender events
# agree on the bit; both-send (D) and neither-send (V) events are the
# bit-flip errors.
C0, C1, D, V = 0, 1, 2, 3
_LABEL_NAMES = ("c0", "c1", "d", "v")
ALICE_BITS = np.array([0, 1, 1, 0], dtype=np.uint8)
BOB_BITS = np.array([0, 1, 0, 1], dtype=np.uint8)


@dataclass(frozen=True)
class LabeledString:
    """Sampled effective-window string: per-position label and untagged flag."""

    labels: np.ndarray
    untagged: np.ndarray

    @property
    def n_t(self) -> int:
        return self.labels.size

    @property
    def alice_bits(self) -> np.ndarray:
        return ALICE_BITS[self.labels]

    @property
    def bob_bits(self) -> np.ndarray:
        return BOB_BITS[self.labels]


@dataclass(frozen=True)
class BferEmpirical:
    """Tally of one random-pairing error-rejection run."""

    n_pairs: int
    leftover: int
    pair_counts: dict[str, int]        # the nine ordered label pairs
    cc_counts: dict[str, int]          # c1c1, c1c0, c0c1, c0c0
    n_survived: int
    n_t1: int
    n_t2: int
    n_t3: int
    err1: int
    err2: int
    err3: int
    n1_survived: int
    n_r: int                           # odd-parity pairs, before the parity comparison


@dataclass(frozen=True)
class AoppEmpirical:
    """Tally of one actively-odd-parity-pairing run."""

    n_a: int
    n_both_c: int
    n_vd_dv: int
    n_kept: int
    n_discarded: int
    errors_kept: int
    n1_kept: int


def sample_string(counts: ZWindowCounts, untagged: UntaggedStats, seed: int) -> LabeledString:
    """Multinomial sample of labels with the instance's proportions.

    Untagged flags are assigned uniformly within the one-sender labels at
    rates n1_0/n_c0 and n1_1/n_c1.
    """
    if untagged.n1_0 > counts.n_c0 or untagged.n1_1 > counts.n_c1:
        raise ValueError("untagged counts exceed the one-sender event counts")
    n = int(round(counts.n_t))
    if n < 2:
        raise ValueError("need at least two positions to sample")
    probs = np.array([counts.n_c0, counts.n_c1, counts.n_d, counts.n_v]) / counts.n_t
    rng = np.random.default_rng(seed)
    edges = np.cumsum(probs)
    edges[-1] = 1.0  # guard against cumulative rounding below 1
    labels = np.searchsorted(edges, rng.random(n), side="right").astype(np.int8)
    u = rng.random(n)
    rate_c0 = untagged.n1_0 / counts.n_c0 if counts.n_c0 > 0.0 else 0.0
    rate_c1 = untagged.n1_1 / counts.n_c1 if counts.n_c1 > 0.0 else 0.0
    flags = ((labels == C0) & (u < rate_c0)) | ((labels == C1) & (u < rate_c1))
    return LabeledString(labels=labels, untagged=flags)


def run_bfer(s: LabeledString, seed: int) -> BferEmpirical:
    """Literal random pairing, parity comparison, keep-first-on-match."""
    n = s.n_t
    if n < 2:
        raise ValueError("need at least two bits to pair")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_pairs = n // 2
    first = order[: 2 * n_pairs : 2]
    second = order[1 : 2 * n_pairs : 2]

    lab1 = s.labels[first]
    lab2 = s.labels[second]
    alice = s.alice_bits
    bob = s.bob_bits
    keep = (alice[first] ^ alice[second]) == (bob[first] ^ bob[second])

    merged1 = np.where(lab1 <= C1, 0, lab1 - 1)  # c -> 0, d -> 1, v -> 2
    merged2 = np.where(lab2 <= C1, 0, lab2 - 1)
    pair_hist = np.bincount(merged1 * 3 + merged2, minlength=9)
    order3 = ("c", "d", "v")
    pair_counts = {
        f"{order3[i]}{order3[j]}": int(pair_hist[3 * i + j]) for i in range(3) for j in range(3)
    }
    cc_mask = (lab1 <= C1) & (lab2 <= C1)
    cc_hist = np.bincount(lab1[cc_mask] * 2 + lab2[cc_mask], minlength=4)
    cc_counts = {
        "c0c0": int(cc_hist[0]),
        "c0c1": int(cc_hist[1]),
        "c1c0": int(cc_hist[2]),
        "c1c1": int(cc_hist[3]),
    }

    bob1 = bob[first]
    bob2 = bob[second]
    odd = bob1 != bob2
    class1 = keep & odd
    class2 = keep & ~odd & (bob1 == 0)
    class3 = keep & ~odd & (bob1 == 1)
    kept_error = alice[first] != bob[first]

    untagged_pair = s.untagged[first] & s.untagged[second]
    if not bool(keep[untagged_pair].all()):
        raise AssertionError("untagged pairs must always pass the parity comparison")
    if int(kept_error[untagged_pair].sum()) != 0:
        raise AssertionError("untagged survivors must be error-free")

    return BferEmpirical(
        n_pairs=n_pairs,
        leftover=n - 2 * n_pairs,
        pair_counts=pair_counts,
        cc_counts=cc_counts,
        n_survived=int(keep.sum()),
        n_t1=int(class1.sum()),
        n_t2=int(class2.sum()),
        n_t3=int(class3.sum()),
        err1=int((class1 & kept_error).sum()),
        err2=int((class2 & kept_error).sum()),
        err3=int((class3 & kept_error).sum()),
        n1_survived=int(untagged_pair.sum()),
        n_r=int(odd.sum()),
    )


def _aopp_pairs(bob: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Exact sampler of the literal pairing: draw the first bit uniformly over
    both pools, the second uniformly over the opposite pool, until one empties.

    Every pair takes one bit from each pool, so both pools are consumed in
    uniformly random order, and at step k the zero pool supplies the first
    bit with probability (M0-k)/(M0+M1-2k), independently of the draws.
    """
    zeros = np.flatnonzero(bob == 0)
    ones = np.flatnonzero(bob == 1)
    n_pairs = min(zeros.size, ones.size)
    k = np.arange(n_pairs)
    zero_first = rng.random(n_pairs) * (bob.size - 2 * k) < zeros.size - k
    zeros = rng.permutation(zeros)[:n_pairs]
    ones = rng.permutation(ones)[:n_pairs]
    return np.where(zero_first, zeros, ones), np.where(zero_first, ones, zeros)


def run_aopp(s: LabeledString, seed: int) -> AoppEmpirical:
    """Literal actively odd-parity pairing on Bob's bits plus the parity check.

    A string in which Bob holds only one bit value forms no pairs.
    """
    first, second = _aopp_pairs(s.bob_bits, np.random.default_rng(seed))

    alice = s.alice_bits
    keep = (alice[first] ^ alice[second]) == 1  # Bob's parity is odd by construction
    lab1 = s.labels[first]
    lab2 = s.labels[second]
    both_c = keep & (lab1 <= C1) & (lab2 <= C1)
    vd_dv = keep & ~((lab1 <= C1) & (lab2 <= C1))
    kept_error = alice[first] != BOB_BITS[lab1]
    if int((both_c & kept_error).sum()) != 0:
        raise AssertionError("kept one-sender pairs cannot carry bit-flip errors")
    if not bool(kept_error[vd_dv].all()):
        raise AssertionError("kept V/D pairs are always bit-flip errors")
    untagged_pair = s.untagged[first] & s.untagged[second]
    if not bool(keep[untagged_pair].all()):
        raise AssertionError("untagged pairs must always pass the parity check")

    return AoppEmpirical(
        n_a=int(first.size),
        n_both_c=int(both_c.sum()),
        n_vd_dv=int(vd_dv.sum()),
        n_kept=int(keep.sum()),
        n_discarded=int(first.size - keep.sum()),
        errors_kept=int(kept_error[keep].sum()),
        n1_kept=int(untagged_pair.sum()),
    )


def _binomial(trials: float, prob: float) -> tuple[float, float]:
    prob = min(max(prob, 0.0), 1.0)
    return trials * prob, math.sqrt(trials * prob * (1.0 - prob))


def expected_statistics(
    counts: ZWindowCounts, untagged: UntaggedStats, n_bits: int
) -> dict[str, tuple[float, float]]:
    """Analytic expectation and binomial sigma for every compared statistic.

    Every statistic is a binomial count.  The actively paired ones treat
    min(N0, N1) as the count of the rarer bit group, which assumes the two
    groups are not balanced (choose fixtures accordingly).
    """
    n_t = counts.n_t
    q = {
        "c0": counts.n_c0 / n_t,
        "c1": counts.n_c1 / n_t,
        "d": counts.n_d / n_t,
        "v": counts.n_v / n_t,
    }
    q["c"] = q["c0"] + q["c1"]
    pairs = n_bits // 2
    out: dict[str, tuple[float, float]] = {}
    for a in ("c", "d", "v"):
        for b in ("c", "d", "v"):
            out[f"pairs_{a}{b}"] = _binomial(pairs, q[a] * q[b])
    for a in ("c0", "c1"):
        for b in ("c0", "c1"):
            out[f"pairs_{a}{b}"] = _binomial(pairs, q[a] * q[b])

    q_survive = q["c"] ** 2 + q["v"] ** 2 + q["d"] ** 2 + 2.0 * q["v"] * q["d"]
    out["bfer_survivors"] = _binomial(pairs, q_survive)
    q_class1 = 2.0 * (q["v"] * q["d"] + q["c1"] * q["c0"])
    q_class2 = q["d"] ** 2 + q["c0"] ** 2
    q_class3 = q["v"] ** 2 + q["c1"] ** 2
    out["class1_count"] = _binomial(pairs, q_class1)
    out["class2_count"] = _binomial(pairs, q_class2)
    out["class3_count"] = _binomial(pairs, q_class3)
    out["class1_errors"] = _binomial(pairs, 2.0 * q["v"] * q["d"])
    out["class2_errors"] = _binomial(pairs, q["d"] ** 2)
    out["class3_errors"] = _binomial(pairs, q["v"] ** 2)
    out["bfer_untagged"] = _binomial(pairs, (untagged.n1 / n_t) ** 2)

    q0 = counts.n_group0 / n_t
    q1 = counts.n_group1 / n_t
    out["odd_pairs_random"] = _binomial(pairs, 2.0 * q0 * q1)

    # the pair total of the active pairing is min(N0, N1), modelled as
    # Binomial(n_bits, q_min); each kept class is a thinning of it, so it is
    # binomial too, with the class probability times q_min
    q_min = min(q0, q1)
    p_both_c = (counts.n_c1 / counts.n_group1) * (counts.n_c0 / counts.n_group0)
    p_vd = (counts.n_v / counts.n_group1) * (counts.n_d / counts.n_group0)
    p_untagged = (untagged.n1_0 / counts.n_group0) * (untagged.n1_1 / counts.n_group1)
    out["aopp_pairs"] = _binomial(n_bits, q_min)
    out["aopp_both_c"] = _binomial(n_bits, q_min * p_both_c)
    out["aopp_vd"] = _binomial(n_bits, q_min * p_vd)
    out["aopp_kept"] = _binomial(n_bits, q_min * (p_both_c + p_vd))
    out["aopp_untagged"] = _binomial(n_bits, q_min * p_untagged)
    return out


def empirical_statistics(bfer: BferEmpirical, aopp_run: AoppEmpirical) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, value in bfer.pair_counts.items():
        out[f"pairs_{name}"] = float(value)
    for name, value in bfer.cc_counts.items():
        out[f"pairs_{name}"] = float(value)
    out["bfer_survivors"] = float(bfer.n_survived)
    out["class1_count"] = float(bfer.n_t1)
    out["class2_count"] = float(bfer.n_t2)
    out["class3_count"] = float(bfer.n_t3)
    out["class1_errors"] = float(bfer.err1)
    out["class2_errors"] = float(bfer.err2)
    out["class3_errors"] = float(bfer.err3)
    out["bfer_untagged"] = float(bfer.n1_survived)
    out["odd_pairs_random"] = float(bfer.n_r)
    out["aopp_pairs"] = float(aopp_run.n_a)
    out["aopp_both_c"] = float(aopp_run.n_both_c)
    out["aopp_vd"] = float(aopp_run.n_vd_dv)
    out["aopp_kept"] = float(aopp_run.n_kept)
    out["aopp_untagged"] = float(aopp_run.n1_kept)
    return out


@dataclass(frozen=True)
class StatCheck:
    name: str
    analytic: float
    empirical: float
    sigma: float
    z: float
    flagged: bool


def _tail(value: float, mean: float, sigma: float) -> float:
    """Probability of a binomial count at least as far from the mean as
    ``value``, on the side where ``value`` lies.

    The binomial is recovered from its moments, 1 - p = sigma^2/mean and
    n = mean/p.  When p is lost to rounding in that difference (p <= 0), the
    Poisson limit with the same mean is exact to the same precision.
    """
    p = 1.0 - sigma * sigma / mean
    if value > mean:  # P(X >= value)
        if p <= 0.0:
            return float(gammainc(value, mean))
        n = mean / p
        return float(betainc(value, n - value + 1.0, p)) if value < n + 1.0 else 0.0
    if p <= 0.0:  # P(X <= value)
        return float(gammaincc(value + 1.0, mean))
    return float(betainc(mean / p - value, value + 1.0, 1.0 - p))


def compare(
    empirical: Mapping[str, float], analytic: Mapping[str, tuple[float, float]]
) -> list[StatCheck]:
    """Per-statistic z-scores; a statistic is flagged when its binomial tail
    on the side it deviates is below TAIL_LIMIT (with zero sigma, on any
    deviation)."""
    rows = []
    for name, (mean, sigma) in analytic.items():
        value = empirical[name]
        if sigma == 0.0:
            z = 0.0 if value == mean else math.inf
            flagged = value != mean
        else:
            z = (value - mean) / sigma
            flagged = value != mean and _tail(value, mean, sigma) < TAIL_LIMIT
        rows.append(
            StatCheck(name=name, analytic=mean, empirical=value, sigma=sigma, z=z, flagged=flagged)
        )
    return rows
