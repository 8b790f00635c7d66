"""Monte Carlo oracle for the pairing formulas.

Samples a labeled bit string, as its count of each state, with the
proportions of an expected-count instance, runs the literal post-processing
procedures (random pairing with parity comparison, odd-parity sifting,
actively odd-parity pairing), and tallies each run as ``{statistic: count}``,
read from one histogram of the pairs' classes (the label and untagged flag of
both bits).
``expected_statistics`` gives every statistic's binomial law, read from the
formula layer (``postproc.bfer_expectations`` and ``postproc.aopp``) on the
instance as given: each probability is a class's share of the instance's own
effective windows, so no instance is rescaled to the string length.
``compare`` reports each statistic with its z-score and flags it by its exact
binomial tail, an incomplete beta function computed with ``math`` alone
(``_betainc``), which it skips where the binomial term at the count alone
clears the limit.

A pairing's tallies read the string only through the histogram, whose law
depends only on the string's count of each of the 8 states (label and flag).
The string's positions are independent, so those counts are one multinomial
draw (``sample_string``), and each pairing draws its histogram exactly from
them (``_bfer_table``, ``_aopp_table``): multivariate hypergeometric draws of
which states are paired and of a uniformly random matching between them.
No draw is made per bit, so a run takes the same time and memory at any
string length up to ``MAX_BITS``.

All randomness comes from a single seeded PCG64 stream per run so results
are reproducible; the algorithm identifier is recorded in emitted reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .decoy import UntaggedStats
from .postproc import ZWindowCounts, aopp, bfer_expectations

__all__ = [
    "RNG_ALGORITHM",
    "StateCounts",
    "StatCheck",
    "sample_string",
    "run_bfer",
    "run_aopp",
    "expected_statistics",
    "compare",
]

RNG_ALGORITHM = "numpy-pcg64"

# compare() flags a count whose binomial tail is below the one-sided normal
# tail at Z_LIMIT sigmas: the significance of |z| > Z_LIMIT, exact also for
# classes that expect less than one event.  TAIL_LIMIT is
# scipy.special.ndtr(-Z_LIMIT), written out as the package has no scipy;
# 0.5*erfc(Z_LIMIT/sqrt(2)) is a different float (...946e-07).  The tail is
# within about 1e-7 relative of the exact one up to 1e7 trials (the prefactor
# loses digits to lgamma's cancellation as trials grow), far too little to
# move a flag.
Z_LIMIT = 5.0
TAIL_LIMIT = 2.866515718791933e-07
# A count's tail holds the binomial term at the count, so a count whose term
# reaches twice TAIL_LIMIT is not flagged and compare() skips its tail; the
# factor 2 is far more than lgamma's rounding costs the term up to MAX_BITS.
_LOG_CLEAR = math.log(2.0 * TAIL_LIMIT)
# The continued fraction of _betainc takes about 900 terms at 1e7 trials and
# 8,000 at 1e10 (its count grows about as trials**0.3); past the cap it raises.
_MAX_TERMS = 10_000
# The longest string the oracle takes: the "marginals" method of numpy's
# multivariate_hypergeometric, which draws the pairings' class tables, needs
# fewer than 1e9 items.
MAX_BITS = 10**9 - 1

# Label codes and the bit a label implies on each side.  One-sender events
# agree on the bit; both-send (D) and neither-send (V) events are the
# bit-flip errors.
C0, C1, D, V = 0, 1, 2, 3
_LABEL_NAMES = ("c0", "c1", "d", "v")
ALICE_BITS = np.array([0, 1, 1, 0], dtype=np.uint8)
BOB_BITS = np.array([0, 1, 0, 1], dtype=np.uint8)

# A position's state is its label and untagged flag, label * 2 + flag (0..7),
# and a pair's class is first_state * 8 + second_state (0..63).  Each tally is
# the pair-class histogram summed over a mask of classes; the masks are built
# at each call from the label columns below and ALICE_BITS/BOB_BITS.
_CLASS = np.arange(64)
_LAB1 = _CLASS >> 4
_LAB2 = (_CLASS >> 1) & 3
_UNTAGGED_PAIR = ((_CLASS >> 3) & _CLASS & 1).astype(bool)
_ONE_SENDER = (_LAB1 <= C1) & (_LAB2 <= C1)


@dataclass(frozen=True)
class StateCounts:
    """Sampled effective-window string, as its count of each state code,
    label * 2 + untagged flag (0..7): all that the pairings read of it."""

    counts: tuple[int, ...]

    @property
    def n_t(self) -> int:
        return sum(self.counts)


def _check_length(n: int) -> None:
    if n > MAX_BITS:
        raise ValueError(
            f"the oracle takes at most {MAX_BITS} positions (numpy's hypergeometric "
            f"draws need fewer than 1e9), got {n}"
        )


def sample_string(
    counts: ZWindowCounts, untagged: UntaggedStats, n_bits: int, seed: int
) -> StateCounts:
    """State counts of ``n_bits`` independent positions, each a label drawn
    with the instance's proportions and, on a one-sender label, an untagged
    flag at the rate n1_0/n_c0 or n1_1/n_c1: one multinomial draw.
    """
    if untagged.n1_0 > counts.n_c0 or untagged.n1_1 > counts.n_c1:
        raise ValueError("untagged counts exceed the one-sender event counts")
    if n_bits < 2:
        raise ValueError("need at least two positions to sample")
    _check_length(n_bits)
    rng = np.random.default_rng(seed)
    return StateCounts(_multinomial(rng, _state_probs(counts, untagged), n_bits))


def _state_probs(counts: ZWindowCounts, untagged: UntaggedStats) -> list[float]:
    """Probability of each state code of a position, zero on flagged d and v."""
    rates = (untagged.n1_0 / counts.n_c0 if counts.n_c0 > 0.0 else 0.0,
             untagged.n1_1 / counts.n_c1 if counts.n_c1 > 0.0 else 0.0, 0.0, 0.0)
    probs = []
    for n_label, rate in zip((counts.n_c0, counts.n_c1, counts.n_d, counts.n_v), rates):
        share = n_label / counts.n_t
        probs += (share * (1.0 - rate), share * rate)
    return probs


def _multinomial(rng: np.random.Generator, probs: list[float], n: int) -> tuple[int, ...]:
    """Count of each category among ``n`` independent draws with these
    probabilities.  numpy's multinomial gives its last category what the
    others leave, so the likeliest one goes last: rounding then never lands
    on a category of probability zero, and each binomial share stays well
    below one."""
    order = sorted(range(len(probs)), key=probs.__getitem__)
    drawn = rng.multinomial(n, [probs[i] for i in order]).tolist()
    out = [0] * len(probs)
    for i, count in zip(order, drawn):
        out[i] = count
    return tuple(out)


def _draw(rng: np.random.Generator, colors: np.ndarray, n: int) -> np.ndarray:
    """Counts of each color among ``n`` items drawn without replacement."""
    return rng.multivariate_hypergeometric(colors, n, method="marginals")


def _matching(rng: np.random.Generator, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """State table (8 x 8) of a uniformly random one-to-one matching of items
    with state counts ``rows`` to as many items with state counts ``cols``:
    the items of each row state take a uniform draw of the columns left."""
    table = np.zeros((8, 8), dtype=np.int64)
    left = cols.copy()
    for state in np.flatnonzero(rows):
        table[state] = _draw(rng, left, rows[state])
        left -= table[state]
    return table


def _bfer_table(counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Pair-class histogram of the random pairing of a string with these
    state counts: permute the string, pair positions 2k and 2k + 1, and leave
    the last position unpaired when the length is odd.

    The unpaired position is a uniform draw, the firsts a uniform draw of
    half of the rest, and the seconds a uniform matching of what remains.
    """
    n = int(counts.sum())
    paired = counts - _draw(rng, counts, 1) if n % 2 else counts
    firsts = _draw(rng, paired, n // 2)
    return _matching(rng, firsts, paired - firsts).ravel()


def _aopp_table(counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Pair-class histogram of the literal actively odd-parity pairing (draw
    the first bit uniformly over both of Bob's pools, the second uniformly
    over the opposite pool, until one pool empties), each pair oriented as
    [zero-pool state, one-pool state].

    Every pair takes one bit from each pool, so the pairs are a uniform
    draw of min(M0, M1) bits from the larger pool matched uniformly to the
    smaller one.  Which pool supplied a pair's first bit is not drawn: every
    mask that ``run_aopp`` reads is symmetric on the classes a pair can form
    (``_aopp_masks``), so the order changes no tally.
    """
    is_one = BOB_BITS[np.arange(8) >> 1] == 1
    zeros = np.where(is_one, 0, counts)
    ones = np.where(is_one, counts, 0)
    n0, n1 = int(zeros.sum()), int(ones.sum())
    n_pairs = min(n0, n1)
    if n0 > n_pairs:
        zeros = _draw(rng, zeros, n_pairs)
    if n1 > n_pairs:
        ones = _draw(rng, ones, n_pairs)
    return _matching(rng, zeros, ones).ravel()


def _tally(hist: np.ndarray, masks: Mapping[str, np.ndarray]) -> dict[str, int]:
    return {name: int(hist[mask].sum()) for name, mask in masks.items()}


def run_bfer(s: StateCounts, seed: int) -> dict[str, int]:
    """Literal random pairing, parity comparison, keep-first-on-match.

    Returns the count of every random-pairing statistic by name.
    """
    if s.n_t < 2:
        raise ValueError("need at least two bits to pair")
    _check_length(s.n_t)
    hist = _bfer_table(np.array(s.counts), np.random.default_rng(seed))

    alice1, alice2 = ALICE_BITS[_LAB1], ALICE_BITS[_LAB2]
    bob1, bob2 = BOB_BITS[_LAB1], BOB_BITS[_LAB2]
    keep = (alice1 ^ alice2) == (bob1 ^ bob2)
    odd = bob1 != bob2
    class1 = keep & odd
    class2 = keep & ~odd & (bob1 == 0)
    class3 = keep & ~odd & (bob1 == 1)
    kept_error = alice1 != bob1
    if hist[_UNTAGGED_PAIR & ~keep].any():
        raise AssertionError("untagged pairs must always pass the parity comparison")
    if hist[_UNTAGGED_PAIR & kept_error].any():
        raise AssertionError("untagged survivors must be error-free")

    merged1 = np.maximum(_LAB1 - 1, 0)  # c -> 0, d -> 1, v -> 2
    merged2 = np.maximum(_LAB2 - 1, 0)
    masks = {f"pairs_{a}{b}": (merged1 == i) & (merged2 == j)
             for i, a in enumerate("cdv") for j, b in enumerate("cdv")}
    masks.update((f"pairs_{_LABEL_NAMES[i]}{_LABEL_NAMES[j]}", (_LAB1 == i) & (_LAB2 == j))
                 for i in (C0, C1) for j in (C0, C1))
    masks.update(
        bfer_survivors=keep,
        class1_count=class1,
        class2_count=class2,
        class3_count=class3,
        class1_errors=class1 & kept_error,
        class2_errors=class2 & kept_error,
        class3_errors=class3 & kept_error,
        bfer_untagged=_UNTAGGED_PAIR,
        odd_pairs_random=odd,
    )
    return _tally(hist, masks)


def _aopp_masks() -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """The active pairing's tally masks by statistic, and the masks of the
    classes that ``run_aopp`` refuses, by the message it raises."""
    alice1 = ALICE_BITS[_LAB1]
    keep = (alice1 ^ ALICE_BITS[_LAB2]) == 1  # Bob's parity is odd by construction
    both_c = keep & _ONE_SENDER
    vd_dv = keep & ~_ONE_SENDER
    # read from the first state only: on a kept pair of a zero and a one,
    # both states agree on it
    kept_error = alice1 != BOB_BITS[_LAB1]
    tallies = {
        "aopp_both_c": both_c,
        "aopp_vd": vd_dv,
        "aopp_kept": keep,
        "aopp_untagged": _UNTAGGED_PAIR,
    }
    refused = {
        "kept one-sender pairs cannot carry bit-flip errors": both_c & kept_error,
        "kept V/D pairs are always bit-flip errors": vd_dv & ~kept_error,
        "untagged pairs must always pass the parity check": _UNTAGGED_PAIR & ~keep,
    }
    return tallies, refused


def run_aopp(s: StateCounts, seed: int) -> dict[str, int]:
    """Literal actively odd-parity pairing on Bob's bits plus the parity check.

    Returns the count of every actively paired statistic by name.  A string
    in which Bob holds only one bit value forms no pairs.
    """
    _check_length(s.n_t)
    hist = _aopp_table(np.array(s.counts), np.random.default_rng(seed))
    tallies, refused = _aopp_masks()
    for message, mask in refused.items():
        if hist[mask].any():
            raise AssertionError(message)
    return {"aopp_pairs": int(hist.sum()), **_tally(hist, tallies)}


def expected_statistics(
    counts: ZWindowCounts, untagged: UntaggedStats, n_bits: int
) -> dict[str, tuple[int, float]]:
    """Binomial law (trials, prob) of every statistic tallied on an
    ``n_bits`` string, read from the formula layer on the instance as given.

    Random-pairing statistics count over n_bits // 2 pairs, each with the
    probability mean / (n_t / 2); actively paired ones count over n_bits
    bits, each with the probability mean / n_t, where n_t is the instance's
    own effective-window count.  The active pairing treats min(N0, N1) as
    the count of the rarer bit group, Binomial(n_bits, q_min), which assumes
    the two groups are not balanced (choose fixtures accordingly); each kept
    class is a thinning of it, so it is binomial too.
    """
    b = bfer_expectations(counts, untagged)
    a = aopp(counts, untagged)
    pair_means = {
        "pairs_cc": b.n_cc, "pairs_cd": b.n_cd, "pairs_cv": b.n_cv,
        "pairs_dc": b.n_dc, "pairs_dd": b.n_dd, "pairs_dv": b.n_dv,
        "pairs_vc": b.n_vc, "pairs_vd": b.n_vd, "pairs_vv": b.n_vv,
        "pairs_c0c0": b.n_c0c0, "pairs_c0c1": b.n_c0c1,
        "pairs_c1c0": b.n_c1c0, "pairs_c1c1": b.n_c1c1,
        "bfer_survivors": b.n_survived,
        "class1_count": b.n_t1, "class2_count": b.n_t2, "class3_count": b.n_t3,
        "class1_errors": b.n_vd + b.n_dv, "class2_errors": b.n_dd, "class3_errors": b.n_vv,
        "bfer_untagged": b.n1_survived,
        "odd_pairs_random": a.n_r,
    }
    bit_means = {
        "aopp_pairs": a.n_a,
        "aopp_both_c": a.n_both_c,
        "aopp_vd": a.n_vd_dv,
        "aopp_kept": a.n_kept,
        "aopp_untagged": a.n1_kept,
    }
    # a class of probability one can round above it
    n_t = counts.n_t
    pairs = n_bits // 2
    out = {name: (pairs, min(mean / (0.5 * n_t), 1.0)) for name, mean in pair_means.items()}
    out.update((name, (n_bits, min(mean / n_t, 1.0))) for name, mean in bit_means.items())
    return out


@dataclass(frozen=True)
class StatCheck:
    name: str
    analytic: float
    empirical: float
    sigma: float
    z: float
    flagged: bool


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method
    (Numerical Recipes, section 6.4); it converges fast for
    x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300  # stands in for a zero denominator
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    fraction = d
    # two steps per term, written out: a loop over them costs a third more
    for m in range(1, _MAX_TERMS + 1):
        a2m = a + 2.0 * m
        coef = m * (b - m) * x / ((a2m - 1.0) * a2m)  # even step
        d = 1.0 + coef * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + coef / c
        c = c if abs(c) > tiny else tiny
        fraction *= d * c
        coef = -(a + m) * (a + b + m) * x / (a2m * (a2m + 1.0))  # odd step
        d = 1.0 + coef * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + coef / c
        c = c if abs(c) > tiny else tiny
        step = d * c
        fraction *= step
        if abs(step - 1.0) < 1e-15:
            return fraction
    raise ArithmeticError(
        f"incomplete beta fraction did not converge in {_MAX_TERMS} terms "
        f"for a={a!r}, b={b!r}, x={x!r}"
    )


def _betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b), for a, b > 0."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    # log of x**a (1 - x)**b / B(a, b)
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    # I_x(a, b) = 1 - I_{1-x}(b, a), whose fraction converges here
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, 1.0 - x) / b


def _tail(value: float, trials: int, prob: float) -> float:
    """Probability of a Binomial(trials, prob) count at least as far from the
    mean as ``value``, on the side where ``value`` lies."""
    if value > trials * prob:  # P(X >= value)
        return _betainc(value, trials - value + 1.0, prob) if value <= trials else 0.0
    return _betainc(trials - value, value + 1.0, 1.0 - prob)  # P(X <= value)


def _log_term(value: float, trials: int, prob: float) -> float:
    """Log of the Binomial(trials, prob) probability of ``value``, or -inf
    where it is not computed: at a certain or impossible class, or at a count
    outside 0..trials."""
    if not (0.0 < prob < 1.0 and 0.0 <= value <= trials):
        return -math.inf
    return (math.lgamma(trials + 1.0) - math.lgamma(value + 1.0)
            - math.lgamma(trials - value + 1.0)
            + value * math.log(prob) + (trials - value) * math.log1p(-prob))


def compare(
    empirical: Mapping[str, float], analytic: Mapping[str, tuple[int, float]]
) -> list[StatCheck]:
    """Per-statistic z-scores against the binomial laws of
    ``expected_statistics``; a statistic is flagged when its binomial tail on
    the side it deviates is below TAIL_LIMIT.  The tail is computed only when
    the term at the count, which it holds, does not already clear the limit."""
    rows = []
    for name, (trials, prob) in analytic.items():
        value = empirical[name]
        mean = trials * prob
        sigma = math.sqrt(trials * prob * (1.0 - prob))
        if sigma == 0.0:
            z = 0.0 if value == mean else math.copysign(math.inf, value - mean)
        else:
            z = (value - mean) / sigma
        flagged = (value != mean and _log_term(value, trials, prob) < _LOG_CLEAR
                   and _tail(value, trials, prob) < TAIL_LIMIT)
        rows.append(
            StatCheck(name=name, analytic=mean, empirical=value, sigma=sigma, z=z, flagged=flagged)
        )
    return rows
