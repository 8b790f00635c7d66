import dataclasses
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from snsqkd import mcsim
from snsqkd.channel import ProtocolParams
from snsqkd.decoy import UntaggedStats
from snsqkd.pipeline import evaluate
from snsqkd.postproc import ZWindowCounts, aopp, bfer_expectations
from snsqkd.presets import preset

N_BITS = 200_000


def _aopp_pairs_sequential(bob: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Literal sequential draws: first bit uniform over the remaining pool,
    second uniform over the remaining bits of the opposite value."""
    pool0 = list(np.flatnonzero(bob == 0))
    pool1 = list(np.flatnonzero(bob == 1))
    n_pairs = min(len(pool0), len(pool1))
    u = rng.random(2 * n_pairs)
    firsts = np.empty(n_pairs, dtype=np.int64)
    seconds = np.empty(n_pairs, dtype=np.int64)
    for k in range(n_pairs):
        m0 = len(pool0)
        m1 = len(pool1)
        j = int(u[2 * k] * (m0 + m1))
        if j < m0:
            pool0[j], pool0[-1] = pool0[-1], pool0[j]
            firsts[k] = pool0.pop()
            other = pool1
        else:
            j -= m0
            pool1[j], pool1[-1] = pool1[-1], pool1[j]
            firsts[k] = pool1.pop()
            other = pool0
        i = int(u[2 * k + 1] * len(other))
        other[i], other[-1] = other[-1], other[i]
        seconds[k] = other.pop()
    return firsts, seconds


def literal_pairing_law(bob) -> dict[tuple, Fraction]:
    """Exact probability of every ordered outcome ((first, second), ...) of
    the literal pairing, enumerated step by step."""
    law: dict[tuple, Fraction] = {}

    def walk(pool0, pool1, pairs, prob):
        if not pool0 or not pool1:
            law[tuple(pairs)] = prob  # each ordered outcome has one path
            return
        total = len(pool0) + len(pool1)
        for first, other in [(b, pool1) for b in pool0] + [(b, pool0) for b in pool1]:
            for second in other:
                rest0 = [b for b in pool0 if b not in (first, second)]
                rest1 = [b for b in pool1 if b not in (first, second)]
                walk(rest0, rest1, pairs + [(first, second)],
                     prob * Fraction(1, total) * Fraction(1, len(other)))

    pools = [[i for i, b in enumerate(bob) if b == value] for value in (0, 1)]
    walk(*pools, [], Fraction(1))
    return law


def class_table(states, pairs) -> tuple[int, ...]:
    """The pair classes, first state * 8 + second state, of ordered pairs of
    positions, sorted: the histogram that a run's tallies read."""
    return tuple(sorted(states[first] * 8 + states[second] for first, second in pairs))


def histogram_table(hist: np.ndarray) -> tuple[int, ...]:
    return tuple(np.repeat(np.arange(64), hist).tolist())


def assert_follows_law(law: dict[tuple, Fraction], draw, trials=20_000):
    # every class table within 5 sigma of its exact probability; a table
    # outside the law fails at once
    assert sum(law.values()) == 1
    seen = dict.fromkeys(law, 0)
    for _ in range(trials):
        seen[draw()] += 1
    for table, prob in law.items():
        p = float(prob)
        sigma = math.sqrt(trials * p * (1.0 - p))
        assert abs(seen[table] - trials * p) < 5.0 * sigma, (table, seen[table], p)


def make_fixture(balanced=True):
    # the oracle reads proportions, so the instance needs no rescaling to N_BITS
    if balanced:
        counts = ZWindowCounts(400.0, 400.0, 100.0, 100.0)
        n1_0 = n1_1 = 200.0
    else:
        counts = ZWindowCounts(450.0, 300.0, 100.0, 150.0)
        n1_0, n1_1 = 300.0, 200.0
    untagged = UntaggedStats(n1=n1_0 + n1_1, n1_0=n1_0, n1_1=n1_1, e1ph=0.05, n0=0.0)
    return counts, untagged


def reference_string(counts, untagged, n_bits, rng) -> tuple[np.ndarray, np.ndarray]:
    """The per-position sampler that ``mcsim.sample_string`` replaces: each
    position's label by inverse transform of one uniform over the instance's
    cumulative proportions, then, for every position in turn, its untagged
    flag from a second uniform at its label's rate (zero off one-sender
    labels).  Returns the labels and the flags."""
    edges = np.cumsum([counts.n_c0, counts.n_c1, counts.n_d, counts.n_v])[:-1] / counts.n_t
    rate_c0 = untagged.n1_0 / counts.n_c0 if counts.n_c0 > 0.0 else 0.0
    rate_c1 = untagged.n1_1 / counts.n_c1 if counts.n_c1 > 0.0 else 0.0
    labels = np.searchsorted(edges, rng.random(n_bits), side="right")  # edges at or below
    flags = rng.random(n_bits) < np.array([rate_c0, rate_c1, 0.0, 0.0])[labels]
    return labels, flags


def reference_counts(counts, untagged, n_bits, rng) -> tuple[int, ...]:
    labels, flags = reference_string(counts, untagged, n_bits, rng)
    return tuple(np.bincount(2 * labels + flags, minlength=8).tolist())


class TestSampleString:
    def test_deterministic(self):
        counts, untagged = make_fixture()
        a = mcsim.sample_string(counts, untagged, N_BITS, seed=42)
        assert a == mcsim.sample_string(counts, untagged, N_BITS, seed=42)
        assert a != mcsim.sample_string(counts, untagged, N_BITS, seed=43)
        assert len(a.counts) == 8 and all(type(count) is int for count in a.counts)

    def test_proportions_within_five_sigma(self):
        counts, untagged = make_fixture()
        s = mcsim.sample_string(counts, untagged, N_BITS, seed=7)
        n = s.n_t
        assert n == N_BITS
        for label, expected in enumerate((0.4, 0.4, 0.1, 0.1)):
            observed = s.counts[2 * label] + s.counts[2 * label + 1]
            sigma = np.sqrt(n * expected * (1.0 - expected))
            assert abs(observed - n * expected) < 5.0 * sigma

    def test_bit_conventions(self):
        counts, untagged = make_fixture()
        labels, _ = reference_string(counts, untagged, N_BITS, np.random.default_rng(1))
        disagree = mcsim.ALICE_BITS[labels] != mcsim.BOB_BITS[labels]
        errors = (labels == mcsim.D) | (labels == mcsim.V)
        assert np.array_equal(disagree, errors)

    def test_untagged_only_on_one_sender_events(self):
        counts, untagged = make_fixture()
        labels, flags = reference_string(counts, untagged, N_BITS, np.random.default_rng(2))
        assert not flags[(labels == mcsim.D) | (labels == mcsim.V)].any()
        s = mcsim.sample_string(counts, untagged, N_BITS, seed=2)
        assert s.counts[2 * mcsim.D + 1] == s.counts[2 * mcsim.V + 1] == 0
        assert s.counts[2 * mcsim.C0 + 1] > 0 and s.counts[2 * mcsim.C1 + 1] > 0

    def test_all_c_untagged(self):
        counts = ZWindowCounts(500.0, 500.0, 10.0, 10.0)
        untagged = UntaggedStats(n1=1000.0, n1_0=500.0, n1_1=500.0, e1ph=0.0, n0=0.0)
        labels, flags = reference_string(counts, untagged, 102_000, np.random.default_rng(3))
        assert flags[labels <= mcsim.C1].all()
        s = mcsim.sample_string(counts, untagged, 102_000, seed=3)
        assert s.counts[2 * mcsim.C0] == s.counts[2 * mcsim.C1] == 0
        assert s.counts[2 * mcsim.C0 + 1] > 0 and s.counts[2 * mcsim.C1 + 1] > 0

    def test_inconsistent_untagged_counts(self):
        counts, _ = make_fixture()
        bad = UntaggedStats(n1=counts.n_c0 * 3, n1_0=counts.n_c0 * 1.5, n1_1=counts.n_c0 * 1.5,
                            e1ph=0.0, n0=0.0)
        with pytest.raises(ValueError):
            mcsim.sample_string(counts, bad, N_BITS, seed=0)

    @pytest.mark.parametrize("sampler", ["vectorized", "reference"])
    def test_sampler_follows_multinomial_law(self, sampler):
        # four positions, each in state 0..7 with these exact probabilities:
        # labels 5:3:1:1, untagged at 1/5 of c0 and 2/3 of c1, never on d or v;
        # every count vector against its multinomial probability
        counts = ZWindowCounts(5.0, 3.0, 1.0, 1.0)
        untagged = UntaggedStats(n1=3.0, n1_0=1.0, n1_1=2.0, e1ph=0.0, n0=0.0)
        probs = [Fraction(4, 10), Fraction(1, 10), Fraction(1, 10), Fraction(2, 10),
                 Fraction(1, 10), Fraction(0), Fraction(1, 10), Fraction(0)]
        assert mcsim._state_probs(counts, untagged) == pytest.approx(probs, rel=1e-15, abs=0.0)
        n_bits = 4
        law: dict[tuple, Fraction] = {}
        for states in itertools.combinations_with_replacement(range(8), n_bits):
            table = tuple(states.count(state) for state in range(8))
            prob = Fraction(math.factorial(n_bits))
            for state, count in enumerate(table):
                prob *= probs[state] ** count / math.factorial(count)
            if prob:
                law[table] = prob
        rng = np.random.default_rng(2026)
        if sampler == "vectorized":
            state_probs = mcsim._state_probs(counts, untagged)
            assert_follows_law(law, lambda: mcsim._multinomial(rng, state_probs, n_bits))
        else:
            assert_follows_law(law, lambda: reference_counts(counts, untagged, n_bits, rng))


def test_rounding_never_lands_on_an_impossible_state():
    # numpy's multinomial gives its last category whatever the others leave;
    # in the given order this zero would take about 1,000 of these draws
    probs = [0.5, 0.499, 0.0]
    assert mcsim._multinomial(np.random.default_rng(4), probs, 10**6)[2] == 0
    assert np.random.default_rng(4).multinomial(10**6, probs)[2] > 0


def test_longest_string_is_numpy_hypergeometric_limit():
    rng = np.random.default_rng(0)
    rng.multivariate_hypergeometric([mcsim.MAX_BITS], 1, method="marginals")
    with pytest.raises(ValueError, match="less than 1000000000"):
        rng.multivariate_hypergeometric([mcsim.MAX_BITS + 1], 1, method="marginals")


def test_strings_past_the_limit_are_refused():
    counts, untagged = make_fixture()
    message = "the oracle takes at most 999999999 positions .* got 1000000000$"
    with pytest.raises(ValueError, match=message):
        mcsim.sample_string(counts, untagged, 10**9, seed=0)
    # no pairing ever sees such a string: its state counts are refused
    with pytest.raises(ValueError, match=message):
        mcsim.StateCounts((10**9,) + (0,) * 7)


@pytest.mark.parametrize("counts, message", [
    ((1,) * 7, "need one count for each of the 8 states, got 7"),
    ((2, -1, 0, 0, 0, 0, 0, 0), "state counts must be non-negative ints"),
    ((1.5, 1, 0, 0, 0, 0, 0, 0), "state counts must be non-negative ints"),
    ((mcsim.MAX_BITS - 1, 2, 0, 0, 0, 0, 0, 0), "the oracle takes at most 999999999 positions"),
], ids=["seven-counts", "negative", "fraction", "past-the-limit"])
def test_malformed_state_counts_are_refused(counts, message):
    # unchecked, each would fail inside numpy's samplers with a message that
    # names no state count
    with pytest.raises(ValueError, match=message):
        mcsim.StateCounts(counts)


class TestRunBfer:
    def test_error_free_string_discards_nothing(self):
        counts = ZWindowCounts(500.0, 500.0, 0.0, 0.0)
        untagged = UntaggedStats(n1=0.0, n1_0=0.0, n1_1=0.0, e1ph=0.0, n0=0.0)
        s = mcsim.sample_string(counts, untagged, 100_000, seed=5)
        emp = mcsim.run_bfer(s, seed=6)
        assert emp["bfer_survivors"] == s.n_t // 2

    def test_pair_conservation(self):
        counts, untagged = make_fixture()
        s = mcsim.sample_string(counts, untagged, N_BITS + 1, seed=8)
        emp = mcsim.run_bfer(s, seed=9)
        # an odd string leaves one bit unpaired
        merged = [f"pairs_{a}{b}" for a in "cdv" for b in "cdv"]
        assert sum(emp[name] for name in merged) == s.n_t // 2
        assert emp["pairs_cc"] == sum(emp[f"pairs_{a}{b}"] for a in ("c0", "c1") for b in ("c0", "c1"))
        assert emp["class1_count"] + emp["class2_count"] + emp["class3_count"] == emp["bfer_survivors"]

    def test_matches_expectations(self):
        counts, untagged = make_fixture()
        s = mcsim.sample_string(counts, untagged, N_BITS, seed=10)
        emp = mcsim.run_bfer(s, seed=11)
        aopp_emp = mcsim.run_aopp(s, seed=12)
        rows = mcsim.compare({**emp, **aopp_emp}, mcsim.expected_statistics(counts, untagged, N_BITS))
        flagged = [r for r in rows if r.flagged and not r.name.startswith("aopp")]
        assert flagged == []

    def test_deterministic(self):
        counts, untagged = make_fixture()
        s = mcsim.sample_string(counts, untagged, N_BITS, seed=13)
        assert mcsim.run_bfer(s, seed=14) == mcsim.run_bfer(s, seed=14)

    @pytest.mark.parametrize("sampler", ["vectorized", "reference"])
    def test_sampler_follows_literal_law(self, sampler):
        # five positions in four states: all 120 orderings, paired 0-1 and
        # 2-3 with position 4 left over, are equally likely
        states = (0, 1, 1, 4, 6)
        law: dict[tuple, Fraction] = Counter()
        for order in itertools.permutations(range(5)):
            law[class_table(states, [order[0:2], order[2:4]])] += Fraction(1, 120)
        rng = np.random.default_rng(2025)
        if sampler == "vectorized":
            counts = np.bincount(states, minlength=8)
            assert_follows_law(law, lambda: histogram_table(mcsim._bfer_table(counts, rng)))
        else:
            def permuted():
                order = rng.permutation(5)
                return class_table(states, [order[0:2], order[2:4]])

            assert_follows_law(law, permuted)


def bob_counts(s: mcsim.StateCounts) -> tuple[int, int]:
    """How many of the string's bits Bob holds as 0 and as 1."""
    bob = mcsim.BOB_BITS[np.arange(8) >> 1]
    return (sum(c for c, b in zip(s.counts, bob) if b == 0),
            sum(c for c, b in zip(s.counts, bob) if b == 1))


class TestRunAopp:
    def test_pair_total_is_exactly_min(self):
        counts, untagged = make_fixture(balanced=False)
        s = mcsim.sample_string(counts, untagged, N_BITS, seed=15)
        n0, n1 = bob_counts(s)
        assert mcsim.run_aopp(s, seed=16)["aopp_pairs"] == min(n0, n1) > 0

    def test_matches_expectations(self):
        counts, untagged = make_fixture(balanced=False)
        s = mcsim.sample_string(counts, untagged, N_BITS, seed=17)
        emp_b = mcsim.run_bfer(s, seed=18)
        emp_a = mcsim.run_aopp(s, seed=19)
        rows = mcsim.compare({**emp_b, **emp_a}, mcsim.expected_statistics(counts, untagged, N_BITS))
        assert [r for r in rows if r.flagged] == []

    # the states of each position (label * 2 + untagged flag): Bob holds
    # 0, 0, 0, 1, 1 and 1, 0, 1, 1; repeated states test the counts, distinct
    # ones the matching
    @pytest.mark.parametrize("sampler", ["vectorized", "reference"])
    @pytest.mark.parametrize("states", [(1, 1, 4, 3, 6), (2, 0, 2, 6)],
                             ids=["3zeros2ones", "1zero3ones"])
    def test_sampler_follows_literal_law(self, sampler, states):
        # run_aopp's class table against the literal pairing's exact law,
        # mapped from positions to states with each pair written as its
        # [zero-pool, one-pool] positions; the sequential reference pairs
        # positions literally
        bob = mcsim.BOB_BITS[np.array(states) >> 1]

        def oriented(pairs):
            return [(a, b) if bob[a] == 0 else (b, a) for a, b in pairs]

        law: dict[tuple, Fraction] = Counter()
        for outcome, prob in literal_pairing_law(bob.tolist()).items():
            law[class_table(states, oriented(outcome))] += prob
        rng = np.random.default_rng(2024)
        if sampler == "vectorized":
            counts = np.bincount(states, minlength=8)
            assert_follows_law(law, lambda: histogram_table(mcsim._aopp_table(counts, rng)))
        else:
            assert_follows_law(
                law, lambda: class_table(states, oriented(zip(*_aopp_pairs_sequential(bob, rng)))))

    def test_masks_ignore_which_pool_comes_first(self):
        # _aopp_table does not draw which pool gives a pair's first bit; that
        # decides nothing, since every tally and every refused-class mask is
        # its own transpose on the classes a pair of a zero and a one can form
        is_one = mcsim.BOB_BITS[np.arange(8) >> 1] == 1
        formable = is_one[:, None] != is_one[None, :]
        rows, _ = mcsim._build_table(mcsim.ALICE_BITS, mcsim.BOB_BITS)["aopp"]
        masks = {row.name: row.mask for row in rows}
        assert sum(row.mean is not None for row in rows) == 5 and len(rows) == 8
        for name, mask in masks.items():
            table = mask.reshape(8, 8)
            assert np.array_equal(table[formable], table.T[formable]), name
        # not on every class: a kept d-c0 pair, which no active pairing forms,
        # is refused in one order only
        table = masks["kept V/D pairs are always bit-flip errors"].reshape(8, 8)
        assert not np.array_equal(table, table.T)

    def test_counting_identity_on_same_string(self):
        counts, untagged = make_fixture(balanced=False)
        s = mcsim.sample_string(counts, untagged, N_BITS, seed=20)
        n_r = mcsim.run_bfer(s, seed=21)["odd_pairs_random"]
        n_a = mcsim.run_aopp(s, seed=22)["aopp_pairs"]
        assert 2 * n_r >= n_a >= n_r

    def test_errors_equal_vd_pairs(self, monkeypatch):
        counts, untagged = make_fixture()
        s = mcsim.sample_string(counts, untagged, N_BITS, seed=23)
        emp = mcsim.run_aopp(s, seed=24)
        assert emp["aopp_kept"] == emp["aopp_both_c"] + emp["aopp_vd"] <= emp["aopp_pairs"]
        # run_aopp checks that every kept V/D pair, and no kept one-sender
        # pair, is a bit-flip error; a D event on which Alice and Bob agree
        # breaks that
        alice_bits = np.array([0, 1, 0, 0], dtype=np.uint8)
        monkeypatch.setattr(mcsim, "_TABLE", mcsim._build_table(alice_bits, mcsim.BOB_BITS))
        with pytest.raises(AssertionError, match="bit-flip errors"):
            mcsim.run_aopp(s, seed=24)

    def test_single_valued_string_forms_no_pairs(self):
        counts = ZWindowCounts(1000.0, 0.0, 10.0, 0.0)
        untagged = UntaggedStats(0.0, 0.0, 0.0, 0.0, 0.0)
        s = mcsim.sample_string(counts, untagged, 1010, seed=25)
        assert bob_counts(s) == (1010, 0)
        assert mcsim.run_aopp(s, seed=26) == dict.fromkeys(
            ("aopp_pairs", "aopp_both_c", "aopp_vd", "aopp_kept", "aopp_untagged"), 0)


def exact_tail(value, trials, prob):
    """The binomial tail that ``mcsim._tail`` computes, summed term by term:
    the term at ``value`` in mpmath at 40 digits, times the sum of the later
    terms' ratios to it, each a float product of term-to-term ratios (the
    longest sum here has 12,000 terms and is within 4e-14 of an mpmath sum)."""
    up = value > trials * prob
    k = int(value)
    with mpmath.workdps(40):
        p = mpmath.mpf(prob)
        q = 1 - p
        lead = mpmath.binomial(trials, k) * p**k * q**(trials - k)
        ratio_q = float(q)
    ratios, term, j = 1.0, 1.0, k
    while term > 1e-20 * ratios and (j < trials if up else j > 0):
        if up:
            term *= (trials - j) * prob / ((j + 1) * ratio_q)
            j += 1
        else:
            term *= j * ratio_q / ((trials - j + 1) * prob)
            j -= 1
        ratios += term
    return float(lead * ratios)


# (trials, prob): from 2 to 1e7 trials, p near 0 and near 1, and expected
# counts below one like the verify fixture's rare classes (0.23 pairs_vd and
# 1e-5 pairs_vv in 500,000 pairs, 0.83 aopp_vd in 1M bits)
TAIL_LAWS = [
    (2, 0.5), (2, 1e-7), (10, 0.3), (1000, 1e-4), (1000, 1.0 - 1e-4), (100_000, 0.5),
    (500_000, 0.23 / 500_000), (500_000, 1e-5 / 500_000), (1_000_000, 0.83 / 1_000_000),
    (10**7, 0.3), (10**7, 1e-7), (10**7, 1.0 - 1e-7), (10**7, 3e-3),
]
# the z-scores sampled on each law, three of them around each of +-Z_LIMIT
TAIL_Z = (-7.0, -5.2, -5.0, -4.8, -1.0, 0.5, 4.8, 5.0, 5.2, 7.0)
# the limit on _tail's error relative to the exact tail: lgamma's cancellation
# in the prefactor costs about 1e-7 at 1e7 trials
TAIL_RTOL = 1e-6


def tail_cases():
    for trials, prob in TAIL_LAWS:
        mean, sigma = trials * prob, math.sqrt(trials * prob * (1.0 - prob))
        values = {min(max(round(mean + z * sigma), 0), trials) for z in TAIL_Z}
        # every count of a rare class, or of a rare failure
        few = range(min(trials, 8) + 1)
        if mean < 10.0:
            values.update(few)
        if trials - mean < 10.0:
            values.update(trials - v for v in few)
        yield from ((float(v), trials, prob) for v in sorted(values) if v != mean)


def test_tail_matches_the_exact_binomial_tail():
    cases = list(tail_cases())
    flagged = []
    for value, trials, prob in cases:
        got, want = mcsim._tail(value, trials, prob), exact_tail(value, trials, prob)
        assert got == pytest.approx(want, rel=TAIL_RTOL, abs=0.0), (value, trials, prob)
        assert (got < mcsim.TAIL_LIMIT) == (want < mcsim.TAIL_LIMIT), (value, trials, prob)
        flagged.append(want < mcsim.TAIL_LIMIT)
    # the grid tests decisions on both sides of the limit
    assert 20 < sum(flagged) < len(cases) - 20


def test_tail_fraction_stops_at_its_term_cap(monkeypatch):
    monkeypatch.setattr(mcsim, "_MAX_TERMS", 3)
    with pytest.raises(ArithmeticError, match=r"a=3001000\.0, b=6999001\.0, x=0\.3$"):
        mcsim._tail(3_001_000.0, 10**7, 0.3)


class TestCompare:
    def test_tail_limit_is_the_normal_tail_at_z_limit(self):
        # written as a literal, as the package does not depend on scipy
        from scipy.special import ndtr

        assert mcsim.TAIL_LIMIT == float(ndtr(-mcsim.Z_LIMIT))

    def test_identical_inputs_give_zero(self):
        analytic = {"a": (20, 0.5), "b": (10, 0.5)}
        rows = mcsim.compare({"a": 10.0, "b": 5.0}, analytic)
        assert all(r.z == 0.0 and not r.flagged for r in rows)

    def test_injected_fault_flagged(self):
        counts, untagged = make_fixture()
        s = mcsim.sample_string(counts, untagged, N_BITS, seed=30)
        emp = {**mcsim.run_bfer(s, 31), **mcsim.run_aopp(s, 32)}
        analytic = mcsim.expected_statistics(counts, untagged, N_BITS)
        shifted = {k: (n, min(p + 10.0 * math.sqrt(p * (1.0 - p) / n), 1.0))
                   for k, (n, p) in analytic.items()}
        rows = mcsim.compare(emp, shifted)
        assert any(r.flagged for r in rows)

    def test_single_pair_in_a_rare_class_is_not_flagged(self):
        # 0.027 pairs expected, one seen: a 2.7 % event, though z is about +5.9
        analytic = {"aopp_vd": (40_000, 0.027 / 40_000)}
        (row,) = mcsim.compare({"aopp_vd": 1.0}, analytic)
        assert row.z > 5.0
        assert not row.flagged

    @pytest.mark.parametrize("observed", [6.0, 7.0, 20.0])
    def test_gross_rare_class_fault_is_flagged(self, observed):
        analytic = {"pairs_vd": (500_000, 0.03 / 500_000)}
        (row,) = mcsim.compare({"pairs_vd": observed}, analytic)
        assert row.flagged

    @pytest.mark.parametrize("z, flagged", [(6.0, True), (-6.0, True), (4.0, False), (-4.0, False)])
    def test_large_counts_follow_five_sigma(self, z, flagged):
        trials, prob = 1_000_000, 0.3
        mean, sigma = trials * prob, math.sqrt(trials * prob * (1.0 - prob))
        (row,) = mcsim.compare({"a": round(mean + z * sigma)}, {"a": (trials, prob)})
        assert row.z == pytest.approx(z, abs=0.01)
        assert row.flagged is flagged

    @pytest.mark.parametrize("observed, flagged", [(0.0, False), (1.0, True)])
    def test_probability_below_rounding_uses_poisson_limit(self, observed, flagged):
        # 1 - p rounds to 1 here (a tiny dark count in a config file); the
        # exact tail is then the Poisson limit
        analytic = {"pairs_vv": (50_000, 1e-23)}
        (row,) = mcsim.compare({"pairs_vv": observed}, analytic)
        assert row.flagged is flagged

    def test_zero_sigma(self):
        rows = mcsim.compare({"a": 1.0}, {"a": (1, 1.0)})
        assert rows[0].z == 0.0
        # the infinite z keeps the side of the deviation
        for observed, prob, z in ((2.0, 1.0, math.inf), (0.0, 1.0, -math.inf), (1.0, 0.0, math.inf)):
            (row,) = mcsim.compare({"a": observed}, {"a": (1, prob)})
            assert row.z == z and row.flagged, (observed, prob)


def random_tail_cases(n_cases, seed):
    """(value, trials, prob) with trials log-uniform up to 1e7, prob
    log-uniform on either side of 1/2 and value within 8 sigmas of the mean."""
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        trials = int(10.0 ** rng.uniform(0.0, 7.0))
        prob = 10.0 ** rng.uniform(-8.0, math.log10(0.5))
        prob = 1.0 - prob if rng.random() < 0.5 else prob
        mean, sigma = trials * prob, math.sqrt(trials * prob * (1.0 - prob))
        yield float(min(max(round(mean + rng.uniform(-8.0, 8.0) * sigma), 0), trials)), trials, prob


@pytest.mark.parametrize("cases", [
    lambda: tail_cases(), lambda: random_tail_cases(5_000, 31),
], ids=["grid", "random"])
def test_term_shortcut_keeps_every_flag(cases):
    # compare() skips the tail where the binomial term at the count clears
    # the limit; every flag stays the one the tail gives, and the skip fires
    cases = list(cases())
    skipped = 0
    for value, trials, prob in cases:
        (row,) = mcsim.compare({"a": value}, {"a": (trials, prob)})
        flagged = value != trials * prob and mcsim._tail(value, trials, prob) < mcsim.TAIL_LIMIT
        assert row.flagged is flagged, (value, trials, prob)
        skipped += mcsim._log_term(value, trials, prob) >= mcsim._LOG_CLEAR
    assert skipped > len(cases) / 2


def test_term_shortcut_skips_most_tails_at_the_verify_fixture(monkeypatch):
    # the benchmark's mc-verify instance (rowC at 100 km, its recorded bfer
    # protocol), one 1M-bit seed: a clean run computes few tails
    exp = preset("rowC", 100.0)
    proto = ProtocolParams(p_z=1.0, p_send=0.1038105905101263, mu_z=0.35455900466111784,
                           decoy_intensities=(0.0, 0.02, 0.06), delta=2.0 * math.pi / 16.0)
    point = evaluate(exp, proto, "bfer")
    analytic = mcsim.expected_statistics(point.counts, point.untagged, 1_000_000)
    s = mcsim.sample_string(point.counts, point.untagged, 1_000_000, 0)
    empirical = {**mcsim.run_bfer(s, 1_000_003), **mcsim.run_aopp(s, 2_000_003)}
    tail, tails = mcsim._tail, []

    def counted_tail(value, trials, prob):
        tails.append(value)
        return tail(value, trials, prob)

    monkeypatch.setattr(mcsim, "_tail", counted_tail)
    rows = mcsim.compare(empirical, analytic)
    assert not any(row.flagged for row in rows)
    assert len(rows) == 27 and len(tails) < 5, len(tails)


# the formula-layer field behind each statistic; random-pairing statistics
# count n_bits // 2 pairs, actively paired ones n_bits bits
BFER_FIELDS = {
    "pairs_cc": "n_cc", "pairs_cd": "n_cd", "pairs_cv": "n_cv",
    "pairs_dc": "n_dc", "pairs_dd": "n_dd", "pairs_dv": "n_dv",
    "pairs_vc": "n_vc", "pairs_vd": "n_vd", "pairs_vv": "n_vv",
    "pairs_c0c0": "n_c0c0", "pairs_c0c1": "n_c0c1", "pairs_c1c0": "n_c1c0", "pairs_c1c1": "n_c1c1",
    "bfer_survivors": "n_survived", "class1_count": "n_t1", "class2_count": "n_t2",
    "class3_count": "n_t3", "class2_errors": "n_dd", "class3_errors": "n_vv",
    "bfer_untagged": "n1_survived",
}
AOPP_FIELDS = {
    "aopp_pairs": "n_a", "aopp_both_c": "n_both_c", "aopp_vd": "n_vd_dv",
    "aopp_kept": "n_kept", "aopp_untagged": "n1_kept",
}


def test_analytic_expectations_match_formula_layer():
    # every statistic's probability is the formula layer's expectation on the
    # instance as given, as a share of its n_t / 2 pairs or n_t bits
    counts, untagged = make_fixture(balanced=False)
    outcome = bfer_expectations(counts, untagged)
    aopp_out = aopp(counts, untagged)
    shares = {name: getattr(outcome, f) / (0.5 * counts.n_t) for name, f in BFER_FIELDS.items()}
    shares["class1_errors"] = (outcome.n_vd + outcome.n_dv) / (0.5 * counts.n_t)
    shares["odd_pairs_random"] = aopp_out.n_r / (0.5 * counts.n_t)
    shares.update((name, getattr(aopp_out, f) / counts.n_t) for name, f in AOPP_FIELDS.items())
    for n_bits in (N_BITS, N_BITS // 2 + 1):
        stats = mcsim.expected_statistics(counts, untagged, n_bits)
        assert set(stats) == set(shares) and len(stats) == 27
        for name, (trials, prob) in stats.items():
            assert trials == (n_bits if name.startswith("aopp") else n_bits // 2), name
            assert prob == shares[name], name


def test_laws_do_not_depend_on_the_instance_scale():
    # a two-bit string of a large instance; two windows' worth of this
    # instance would round n_t below the two that error rejection needs
    counts = ZWindowCounts(3.1e8, 2.7e8, 4.3e7, 1.9e7)
    untagged = UntaggedStats(n1=4.0e8, n1_0=2.1e8, n1_1=1.9e8, e1ph=0.05, n0=0.0)
    large = mcsim.expected_statistics(counts, untagged, 2)
    small = mcsim.expected_statistics(
        ZWindowCounts(3.1, 2.7, 0.43, 0.19), UntaggedStats(4.0, 2.1, 1.9, 0.05, 0.0), 2)
    assert set(large) == set(small)
    for name, (trials, prob) in large.items():
        assert trials == small[name][0]
        assert prob == pytest.approx(small[name][1], rel=1e-12), name
    s = mcsim.sample_string(counts, untagged, 2, seed=1)
    assert s.n_t == 2
    mcsim.compare({**mcsim.run_bfer(s, 2), **mcsim.run_aopp(s, 3)}, large)


def test_certain_classes_stay_probabilities():
    # without errors every pair survives; that probability rounds to
    # 1 + 3 * 2**-52 here
    counts = ZWindowCounts(100.3, 0.1, 0.0, 0.0)
    untagged = UntaggedStats(0.0, 0.0, 0.0, 0.0, 0.0)
    assert bfer_expectations(counts, untagged).n_survived > 0.5 * counts.n_t
    s = mcsim.sample_string(counts, untagged, 100, seed=35)
    stats = mcsim.expected_statistics(counts, untagged, s.n_t)
    assert stats["bfer_survivors"] == (s.n_t // 2, 1.0)
    emp = {**mcsim.run_bfer(s, 36), **mcsim.run_aopp(s, 37)}
    assert [r for r in mcsim.compare(emp, stats) if r.flagged] == []


def test_oracle_flags_a_fault_in_the_formula_layer(monkeypatch):
    # the oracle reads the expectations that key rates use, so a wrong
    # class-2 count in postproc must show in the report
    def doubled_class2(counts, untagged):
        outcome = bfer_expectations(counts, untagged)
        return dataclasses.replace(outcome, n_t2=2.0 * outcome.n_t2)

    monkeypatch.setattr(mcsim, "bfer_expectations", doubled_class2)
    counts, untagged = make_fixture()
    s = mcsim.sample_string(counts, untagged, N_BITS, seed=40)
    emp = {**mcsim.run_bfer(s, 41), **mcsim.run_aopp(s, 42)}
    rows = mcsim.compare(emp, mcsim.expected_statistics(counts, untagged, N_BITS))
    assert [r.name for r in rows if r.flagged] == ["class2_count"]


# Bit-for-bit pins of the oracle's tallies: (instance, bits, seed) ->
# (the sampled string's 8 state counts, every statistic of run_bfer at
# seed + 1 and run_aopp at seed + 2).  Recorded when the string became one
# multinomial draw of its state counts, so they depend on numpy's multinomial
# and multivariate hypergeometric samplers; the active pairing's tallies were
# re-recorded when it stopped drawing which pool gives a pair's first bit,
# which moved no other count.  The empty-class instance has no
# c1 and no v events, so Bob holds only zeros and the active pairing forms no
# pair.
PIN_INSTANCES = {
    "balanced": make_fixture(),
    "unbalanced": make_fixture(balanced=False),
    "empty_classes": (ZWindowCounts(500.0, 0.0, 30.0, 0.0), UntaggedStats(250.0, 250.0, 0.0, 0.05, 0.0)),
}
PINS = {
    ("balanced", 100_000, 60): ((19762, 20168, 20283, 19900, 10083, 0, 9804, 0), {
        "pairs_cc": 32167, "pairs_cd": 4028, "pairs_cv": 3927, "pairs_dc": 3965, "pairs_dd": 511,
        "pairs_dv": 516, "pairs_vc": 3859, "pairs_vd": 552, "pairs_vv": 475, "pairs_c0c0": 8073,
        "pairs_c0c1": 8003, "pairs_c1c0": 7957, "pairs_c1c1": 8134, "bfer_survivors": 34221,
        "class1_count": 17028, "class2_count": 8584, "class3_count": 8609, "class1_errors": 1068,
        "class2_errors": 511, "class3_errors": 475, "bfer_untagged": 8069,
        "odd_pairs_random": 24885, "aopp_pairs": 49987, "aopp_both_c": 32116, "aopp_vd": 2012,
        "aopp_kept": 34128, "aopp_untagged": 7997}),
    ("unbalanced", 100_000, 61): ((14925, 30045, 9944, 20141, 10043, 0, 14902, 0), {
        "pairs_cc": 28180, "pairs_cd": 3720, "pairs_cv": 5531, "pairs_dc": 3817, "pairs_dd": 503,
        "pairs_dv": 762, "pairs_vc": 5627, "pairs_vd": 738, "pairs_vv": 1122, "pairs_c0c0": 10070,
        "pairs_c0c1": 6812, "pairs_c1c0": 6741, "pairs_c1c1": 4557, "bfer_survivors": 31305,
        "class1_count": 15053, "class2_count": 10573, "class3_count": 5679, "class1_errors": 1500,
        "class2_errors": 503, "class3_errors": 1122, "bfer_untagged": 12686,
        "odd_pairs_random": 24761, "aopp_pairs": 44987, "aopp_both_c": 24580, "aopp_vd": 2742,
        "aopp_kept": 27322, "aopp_untagged": 10984}),
    ("unbalanced", 1_001, 62): ((156, 287, 106, 193, 100, 0, 159, 0), {
        "pairs_cc": 276, "pairs_cd": 41, "pairs_cv": 55, "pairs_dc": 32, "pairs_dd": 2,
        "pairs_dv": 10, "pairs_vc": 61, "pairs_vd": 13, "pairs_vv": 10, "pairs_c0c0": 96,
        "pairs_c0c1": 71, "pairs_c1c0": 63, "pairs_c1c1": 46, "bfer_survivors": 311,
        "class1_count": 157, "class2_count": 98, "class3_count": 56, "class1_errors": 23,
        "class2_errors": 2, "class3_errors": 10, "bfer_untagged": 111, "odd_pairs_random": 246,
        "aopp_pairs": 458, "aopp_both_c": 241, "aopp_vd": 26, "aopp_kept": 267,
        "aopp_untagged": 105}),
    ("balanced", 2, 63): ((0, 0, 0, 0, 0, 0, 2, 0), {
        **dict.fromkeys(mcsim.expected_statistics(*make_fixture(), 2), 0),
        "pairs_vv": 1, "bfer_survivors": 1, "class3_count": 1, "class3_errors": 1}),
    ("empty_classes", 10_000, 64): ((4720, 4768, 0, 0, 512, 0, 0, 0), {
        **dict.fromkeys(mcsim.expected_statistics(*make_fixture(), 2), 0),
        "pairs_cc": 4504, "pairs_cd": 256, "pairs_dc": 224, "pairs_dd": 16, "pairs_c0c0": 4504,
        "bfer_survivors": 4520, "class2_count": 4520, "class2_errors": 16, "bfer_untagged": 1150}),
}
PIN_IDS = ["{}-{}bits".format(*key) for key in PINS]


def _pinned_run(key):
    name, n_bits, seed = key
    s = mcsim.sample_string(*PIN_INSTANCES[name], n_bits, seed)
    return s, {**mcsim.run_bfer(s, seed + 1), **mcsim.run_aopp(s, seed + 2)}


@pytest.mark.parametrize("key", PINS, ids=PIN_IDS)
def test_tallies_are_pinned_bit_for_bit(key):
    s, tally = _pinned_run(key)
    state_counts, pinned = PINS[key]
    assert s.n_t == key[1] and s.counts == state_counts
    assert tally == pinned
    assert all(type(count) is int for count in tally.values())


@pytest.mark.parametrize("key", PINS, ids=PIN_IDS)
def test_tally_invariants(key):
    s, t = _pinned_run(key)
    merged = sum(t[f"pairs_{a}{b}"] for a in "cdv" for b in "cdv")
    assert merged == s.n_t // 2
    assert sum(t[f"pairs_{a}{b}"] for a in ("c0", "c1") for b in ("c0", "c1")) == t["pairs_cc"]
    assert t["bfer_survivors"] == t["class1_count"] + t["class2_count"] + t["class3_count"]
    for k in (1, 2, 3):
        assert t[f"class{k}_errors"] <= t[f"class{k}_count"]
    assert t["bfer_untagged"] <= t["pairs_c0c0"] + t["pairs_c0c1"] + t["pairs_c1c0"] + t["pairs_c1c1"]
    assert t["aopp_kept"] == t["aopp_both_c"] + t["aopp_vd"]


def test_oracle_memory_stays_a_few_bytes_per_bit():
    # numpy reports its array data to tracemalloc, so these peaks repeat
    # exactly; they are a few kB each, as no pass runs per bit
    counts, untagged = PIN_INSTANCES["unbalanced"]

    def traced_peak(func, *args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = func(*args)
        return out, tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        s, sample_peak = traced_peak(mcsim.sample_string, counts, untagged, 1_000_000, 70)
        _, bfer_peak = traced_peak(mcsim.run_bfer, s, 71)
        _, aopp_peak = traced_peak(mcsim.run_aopp, s, 72)
    finally:
        tracemalloc.stop()
    assert sample_peak < 1e4, sample_peak
    assert bfer_peak < 1e5 and aopp_peak < 1e5, (bfer_peak, aopp_peak)


@pytest.mark.parametrize("alice_bits, message", [
    # c1 events on which Alice holds 0: an untagged c0-c1 pair fails the
    # parity comparison
    ((0, 0, 1, 0), "untagged pairs must always pass the parity comparison"),
    # Alice holds the opposite bit on every one-sender event: untagged pairs
    # still pass the comparison, but each survivor is an error
    ((1, 0, 1, 0), "untagged survivors must be error-free"),
], ids=["parity", "errors"])
def test_run_bfer_checks_fire_under_wrong_bits(monkeypatch, alice_bits, message):
    counts, untagged = make_fixture()
    s = mcsim.sample_string(counts, untagged, 10_000, seed=65)
    mcsim.run_bfer(s, seed=66)
    table = mcsim._build_table(np.array(alice_bits, dtype=np.uint8), mcsim.BOB_BITS)
    monkeypatch.setattr(mcsim, "_TABLE", table)
    with pytest.raises(AssertionError, match=message):
        mcsim.run_bfer(s, seed=66)
