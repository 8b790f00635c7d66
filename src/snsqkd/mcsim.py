"""Monte Carlo oracle for the pairing formulas.

Samples a labeled bit string, as its count of each state, with the
proportions of an expected-count instance, runs the literal post-processing
procedures (random pairing with parity comparison, odd-parity sifting,
actively odd-parity pairing), and tallies each run as ``{statistic: count}``.

One table, built at import (``_build_table``), states each statistic once:
its name, its pairing, its mask over the 64 pair classes (the label and
untagged flag of both bits) and its mean in the formula layer
(``postproc.bfer_expectations`` and ``postproc.aopp``).  A pairing tallies
its rows from its pair-class histogram with one integer matrix product, and
``expected_statistics`` reads each binomial law from them, on the instance
as given: a probability is a class's share of its own effective windows.
``compare`` reports each statistic with its z-score and flags it by its exact
binomial tail, an incomplete beta function computed with ``math`` alone
(``_betainc``), which it skips where the binomial term at the count alone
clears the limit.

The histogram's law depends only on the string's count of each of the 8
states, and the positions are independent, so those counts are one
multinomial draw (``sample_string``) and each pairing draws its histogram
exactly from them (``_bfer_table``, ``_aopp_table``) by multivariate
hypergeometric draws.  No draw is made per bit, so a run takes the same time
and memory at any string length up to ``MAX_BITS``.

All randomness comes from a single seeded PCG64 stream per run so results
are reproducible; the algorithm identifier is recorded in emitted reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .decoy import UntaggedStats
from .postproc import AoppOutcome, BferOutcome, ZWindowCounts, aopp, bfer_expectations

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
ALICE_BITS = np.array([0, 1, 1, 0], dtype=np.uint8)
BOB_BITS = np.array([0, 1, 0, 1], dtype=np.uint8)

# A position's state is its label and untagged flag, label * 2 + flag (0..7),
# and a pair's class is first_state * 8 + second_state (0..63).  Bob holds a
# one in these states:
_BOB_ONE = BOB_BITS[np.arange(8) >> 1] == 1


class _Row(NamedTuple):
    """A statistic: its name, the pair classes it counts (a mask over the 64)
    and its mean, read from the formula layer's two expected outcomes.  A row
    without a mean names, by its message, classes the pairing refuses."""

    name: str
    mask: np.ndarray
    mean: Callable[[BferOutcome, AoppOutcome], float] | None


def _build_table(
    alice_bits: np.ndarray, bob_bits: np.ndarray
) -> dict[str, tuple[tuple[_Row, ...], np.ndarray]]:
    """The oracle's table for these bits per label: the random pairing's rows
    ("bfer") and the active pairing's ("aopp"), each the classes it refuses
    and then its statistics in report order, with the rows' masks stacked as
    one 0/1 integer matrix."""
    classes = np.arange(64)
    lab1, lab2 = classes >> 4, (classes >> 1) & 3
    untagged = ((classes >> 3) & classes & 1).astype(bool)
    alice1, alice2 = alice_bits[lab1], alice_bits[lab2]
    bob1, bob2 = bob_bits[lab1], bob_bits[lab2]
    # a survivor keeps its first bit; on a kept active pair of a zero and a
    # one both states agree on the error
    kept_error = alice1 != bob1

    # random pairing: keep a pair whose parities agree
    keep = (alice1 ^ alice2) == (bob1 ^ bob2)
    odd = bob1 != bob2
    class1, class2, class3 = keep & odd, keep & ~odd & (bob1 == 0), keep & ~odd & (bob1 == 1)
    merged1, merged2 = np.maximum(lab1 - 1, 0), np.maximum(lab2 - 1, 0)  # c -> 0, d -> 1, v -> 2
    bfer = [
        _Row("untagged pairs must always pass the parity comparison", untagged & ~keep, None),
        _Row("untagged survivors must be error-free", untagged & kept_error, None),
        *(_Row(f"pairs_{x}{y}", (first == i) & (second == j),
               lambda b, a, field=f"n_{x}{y}": getattr(b, field))
          for first, second, labels in ((merged1, merged2, "cdv"), (lab1, lab2, ("c0", "c1")))
          for i, x in enumerate(labels) for j, y in enumerate(labels)),
        _Row("bfer_survivors", keep, lambda b, a: b.n_survived),
        _Row("class1_count", class1, lambda b, a: b.n_t1),
        _Row("class2_count", class2, lambda b, a: b.n_t2),
        _Row("class3_count", class3, lambda b, a: b.n_t3),
        _Row("class1_errors", class1 & kept_error, lambda b, a: b.n_vd + b.n_dv),
        _Row("class2_errors", class2 & kept_error, lambda b, a: b.n_dd),
        _Row("class3_errors", class3 & kept_error, lambda b, a: b.n_vv),
        _Row("bfer_untagged", untagged, lambda b, a: b.n1_survived),
        _Row("odd_pairs_random", odd, lambda b, a: a.n_r),
    ]

    # active pairing: Bob's parity is odd by construction
    kept = (alice1 ^ alice2) == 1
    one_sender = (lab1 <= C1) & (lab2 <= C1)
    both_c, vd_dv = kept & one_sender, kept & ~one_sender
    active = [
        _Row("kept one-sender pairs cannot carry bit-flip errors", both_c & kept_error, None),
        _Row("kept V/D pairs are always bit-flip errors", vd_dv & ~kept_error, None),
        _Row("untagged pairs must always pass the parity check", untagged & ~kept, None),
        _Row("aopp_pairs", np.ones(64, dtype=bool), lambda b, a: a.n_a),
        _Row("aopp_both_c", both_c, lambda b, a: a.n_both_c),
        _Row("aopp_vd", vd_dv, lambda b, a: a.n_vd_dv),
        _Row("aopp_kept", kept, lambda b, a: a.n_kept),
        _Row("aopp_untagged", untagged, lambda b, a: a.n1_kept),
    ]
    return {pairing: (tuple(rows), np.array([row.mask for row in rows], dtype=np.int64))
            for pairing, rows in (("bfer", bfer), ("aopp", active))}


_TABLE = _build_table(ALICE_BITS, BOB_BITS)


@dataclass(frozen=True)
class StateCounts:
    """Sampled effective-window string, as its count of each state code,
    label * 2 + untagged flag (0..7): all that the pairings read of it."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != 8:
            raise ValueError(f"need one count for each of the 8 states, got {len(self.counts)}")
        if not all(type(count) is int and count >= 0 for count in self.counts):
            raise ValueError(f"state counts must be non-negative ints, got {self.counts!r}")
        _check_length(self.n_t)

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
    mask of the active pairing's rows in ``_TABLE`` is symmetric on the
    classes a pair can form, so the order changes no tally.
    """
    zeros, ones = np.where(_BOB_ONE, 0, counts), np.where(_BOB_ONE, counts, 0)
    n0, n1 = int(zeros.sum()), int(ones.sum())
    n_pairs = min(n0, n1)
    if n0 > n_pairs:
        zeros = _draw(rng, zeros, n_pairs)
    if n1 > n_pairs:
        ones = _draw(rng, ones, n_pairs)
    return _matching(rng, zeros, ones).ravel()


def _tally(pairing: str, hist: np.ndarray) -> dict[str, int]:
    """Every statistic of the pairing from its pair-class histogram; a pair
    in a refused class raises the row's message."""
    rows, masks = _TABLE[pairing]
    tally = {}
    for row, count in zip(rows, (masks @ hist).tolist()):
        if row.mean is not None:
            tally[row.name] = count
        elif count:
            raise AssertionError(row.name)
    return tally


def run_bfer(s: StateCounts, seed: int) -> dict[str, int]:
    """Literal random pairing, parity comparison, keep-first-on-match.

    Returns the count of every random-pairing statistic by name.
    """
    if s.n_t < 2:
        raise ValueError("need at least two bits to pair")
    return _tally("bfer", _bfer_table(np.array(s.counts), np.random.default_rng(seed)))


def run_aopp(s: StateCounts, seed: int) -> dict[str, int]:
    """Literal actively odd-parity pairing on Bob's bits plus the parity check.

    Returns the count of every actively paired statistic by name.  A string
    in which Bob holds only one bit value forms no pairs.
    """
    return _tally("aopp", _aopp_table(np.array(s.counts), np.random.default_rng(seed)))


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
    b, a = bfer_expectations(counts, untagged), aopp(counts, untagged)
    laws = {"bfer": (n_bits // 2, 0.5 * counts.n_t), "aopp": (n_bits, counts.n_t)}
    out = {}
    for pairing, (rows, _) in _TABLE.items():
        trials, windows = laws[pairing]
        for row in rows:
            if row.mean is not None:
                # a class of probability one can round above it
                out[row.name] = (trials, min(row.mean(b, a) / windows, 1.0))
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
    for m in range(1, _MAX_TERMS + 1):
        a2m = a + 2.0 * m
        # the even step of the term, then the odd one
        for coef in (m * (b - m) * x / ((a2m - 1.0) * a2m),
                     -(a + m) * (a + b + m) * x / (a2m * (a2m + 1.0))):
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
