import math
from fractions import Fraction

import numpy as np
import pytest

from snsqkd import mcsim
from snsqkd.decoy import UntaggedStats
from snsqkd.postproc import ZWindowCounts, aopp, bfer_expectations

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


def make_fixture(scale=N_BITS / 1000.0, balanced=True):
    if balanced:
        counts = ZWindowCounts(400.0, 400.0, 100.0, 100.0).scaled(scale)
        n1_0 = n1_1 = 200.0 * scale
    else:
        counts = ZWindowCounts(450.0, 300.0, 100.0, 150.0).scaled(scale)
        n1_0, n1_1 = 300.0 * scale, 200.0 * scale
    untagged = UntaggedStats(n1=n1_0 + n1_1, n1_0=n1_0, n1_1=n1_1, e1ph=0.05, n0=0.0)
    return counts, untagged


class TestSampleString:
    def test_deterministic(self):
        counts, untagged = make_fixture()
        a = mcsim.sample_string(counts, untagged, seed=42)
        b = mcsim.sample_string(counts, untagged, seed=42)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.untagged, b.untagged)
        c = mcsim.sample_string(counts, untagged, seed=43)
        assert not np.array_equal(a.labels, c.labels)

    def test_proportions_within_five_sigma(self):
        counts, untagged = make_fixture()
        s = mcsim.sample_string(counts, untagged, seed=7)
        n = s.n_t
        for code, expected in ((mcsim.C0, 0.4), (mcsim.C1, 0.4), (mcsim.D, 0.1), (mcsim.V, 0.1)):
            observed = int((s.labels == code).sum())
            sigma = np.sqrt(n * expected * (1.0 - expected))
            assert abs(observed - n * expected) < 5.0 * sigma

    def test_bit_conventions(self):
        counts, untagged = make_fixture()
        s = mcsim.sample_string(counts, untagged, seed=1)
        disagree = s.alice_bits != s.bob_bits
        errors = (s.labels == mcsim.D) | (s.labels == mcsim.V)
        assert np.array_equal(disagree, errors)

    def test_untagged_only_on_one_sender_events(self):
        counts, untagged = make_fixture()
        s = mcsim.sample_string(counts, untagged, seed=2)
        assert not s.untagged[(s.labels == mcsim.D) | (s.labels == mcsim.V)].any()

    def test_all_c_untagged(self):
        counts = ZWindowCounts(500.0, 500.0, 10.0, 10.0).scaled(100.0)
        untagged = UntaggedStats(n1=100_000.0, n1_0=50_000.0, n1_1=50_000.0, e1ph=0.0, n0=0.0)
        s = mcsim.sample_string(counts, untagged, seed=3)
        c_mask = s.labels <= mcsim.C1
        assert s.untagged[c_mask].all()

    def test_inconsistent_untagged_counts(self):
        counts, _ = make_fixture()
        bad = UntaggedStats(n1=counts.n_c0 * 3, n1_0=counts.n_c0 * 1.5, n1_1=counts.n_c0 * 1.5,
                            e1ph=0.0, n0=0.0)
        with pytest.raises(ValueError):
            mcsim.sample_string(counts, bad, seed=0)


class TestRunBfer:
    def test_error_free_string_discards_nothing(self):
        counts = ZWindowCounts(500.0, 500.0, 0.0, 0.0).scaled(100.0)
        untagged = UntaggedStats(n1=0.0, n1_0=0.0, n1_1=0.0, e1ph=0.0, n0=0.0)
        s = mcsim.sample_string(counts, untagged, seed=5)
        emp = mcsim.run_bfer(s, seed=6)
        assert emp.n_survived == emp.n_pairs

    def test_pair_conservation(self):
        counts, untagged = make_fixture()
        s = mcsim.sample_string(counts, untagged, seed=8)
        emp = mcsim.run_bfer(s, seed=9)
        assert sum(emp.pair_counts.values()) == emp.n_pairs
        assert emp.pair_counts["cc"] == sum(emp.cc_counts.values())
        assert emp.n_t1 + emp.n_t2 + emp.n_t3 == emp.n_survived
        assert 2 * emp.n_pairs + emp.leftover == s.n_t

    def test_matches_expectations(self):
        counts, untagged = make_fixture()
        s = mcsim.sample_string(counts, untagged, seed=10)
        emp = mcsim.run_bfer(s, seed=11)
        aopp_emp = mcsim.run_aopp(s, seed=12)
        rows = mcsim.compare(
            mcsim.empirical_statistics(emp, aopp_emp),
            mcsim.expected_statistics(counts, untagged, s.n_t),
        )
        flagged = [r for r in rows if r.flagged and not r.name.startswith("aopp")]
        assert flagged == []

    def test_deterministic(self):
        counts, untagged = make_fixture()
        s = mcsim.sample_string(counts, untagged, seed=13)
        assert mcsim.run_bfer(s, seed=14) == mcsim.run_bfer(s, seed=14)


class TestRunAopp:
    def test_pair_total_is_exactly_min(self):
        counts, untagged = make_fixture(balanced=False)
        s = mcsim.sample_string(counts, untagged, seed=15)
        n0 = int((s.bob_bits == 0).sum())
        n1 = int((s.bob_bits == 1).sum())
        assert mcsim.run_aopp(s, seed=16).n_a == min(n0, n1)

    def test_matches_expectations(self):
        counts, untagged = make_fixture(balanced=False)
        s = mcsim.sample_string(counts, untagged, seed=17)
        emp_b = mcsim.run_bfer(s, seed=18)
        emp_a = mcsim.run_aopp(s, seed=19)
        rows = mcsim.compare(
            mcsim.empirical_statistics(emp_b, emp_a),
            mcsim.expected_statistics(counts, untagged, s.n_t),
        )
        assert [r for r in rows if r.flagged] == []

    @pytest.mark.parametrize("sampler", [mcsim._aopp_pairs, _aopp_pairs_sequential],
                             ids=["vectorized", "reference"])
    @pytest.mark.parametrize("bob", [(0, 0, 0, 1, 1), (1, 0, 1, 1)], ids=["3zeros2ones", "1zero3ones"])
    def test_sampler_follows_literal_law(self, sampler, bob):
        # every ordered outcome within 5 sigma of its exact probability
        law = literal_pairing_law(bob)
        assert sum(law.values()) == 1
        bob = np.array(bob, dtype=np.uint8)
        rng = np.random.default_rng(2024)
        trials = 20_000
        seen = {outcome: 0 for outcome in law}
        for _ in range(trials):
            first, second = sampler(bob, rng)
            seen[tuple(zip(first.tolist(), second.tolist()))] += 1
        for outcome, prob in law.items():
            p = float(prob)
            sigma = math.sqrt(trials * p * (1.0 - p))
            assert abs(seen[outcome] - trials * p) < 5.0 * sigma, (outcome, seen[outcome], p)

    def test_counting_identity_on_same_string(self):
        counts, untagged = make_fixture(balanced=False)
        s = mcsim.sample_string(counts, untagged, seed=20)
        n_r = mcsim.run_bfer(s, seed=21).n_r
        n_a = mcsim.run_aopp(s, seed=22).n_a
        assert 2 * n_r >= n_a >= n_r

    def test_errors_equal_vd_pairs(self):
        counts, untagged = make_fixture()
        s = mcsim.sample_string(counts, untagged, seed=23)
        emp = mcsim.run_aopp(s, seed=24)
        assert emp.errors_kept == emp.n_vd_dv
        assert emp.n_kept + emp.n_discarded == emp.n_a

    def test_single_valued_string_forms_no_pairs(self):
        counts = ZWindowCounts(1000.0, 0.0, 10.0, 0.0)
        untagged = UntaggedStats(0.0, 0.0, 0.0, 0.0, 0.0)
        s = mcsim.sample_string(counts, untagged, seed=25)
        assert len(set(s.bob_bits.tolist())) == 1
        assert mcsim.run_aopp(s, seed=26) == mcsim.AoppEmpirical(0, 0, 0, 0, 0, 0, 0)


class TestCompare:
    def test_identical_inputs_give_zero(self):
        analytic = {"a": (10.0, 2.0), "b": (5.0, 1.0)}
        rows = mcsim.compare({"a": 10.0, "b": 5.0}, analytic)
        assert all(r.z == 0.0 and not r.flagged for r in rows)

    def test_injected_fault_flagged(self):
        counts, untagged = make_fixture()
        s = mcsim.sample_string(counts, untagged, seed=30)
        emp = mcsim.empirical_statistics(mcsim.run_bfer(s, 31), mcsim.run_aopp(s, 32))
        analytic = mcsim.expected_statistics(counts, untagged, s.n_t)
        shifted = {k: (m + 10.0 * sig, sig) for k, (m, sig) in analytic.items()}
        rows = mcsim.compare(emp, shifted)
        assert any(r.flagged for r in rows)

    def test_single_pair_in_a_rare_class_is_not_flagged(self):
        # 0.027 pairs expected, one seen: a 2.7 % event, though z is about +5.9
        analytic = {"aopp_vd": mcsim._binomial(40_000, 0.027 / 40_000)}
        (row,) = mcsim.compare({"aopp_vd": 1.0}, analytic)
        assert row.z > 5.0
        assert not row.flagged

    @pytest.mark.parametrize("observed", [6.0, 7.0, 20.0])
    def test_gross_rare_class_fault_is_flagged(self, observed):
        analytic = {"pairs_vd": mcsim._binomial(500_000, 0.03 / 500_000)}
        (row,) = mcsim.compare({"pairs_vd": observed}, analytic)
        assert row.flagged

    @pytest.mark.parametrize("z, flagged", [(6.0, True), (-6.0, True), (4.0, False), (-4.0, False)])
    def test_large_counts_follow_five_sigma(self, z, flagged):
        mean, sigma = mcsim._binomial(1_000_000, 0.3)
        (row,) = mcsim.compare({"a": round(mean + z * sigma)}, {"a": (mean, sigma)})
        assert row.z == pytest.approx(z, abs=0.01)
        assert row.flagged is flagged

    @pytest.mark.parametrize("observed, flagged", [(0.0, False), (1.0, True)])
    def test_probability_below_rounding_uses_poisson_limit(self, observed, flagged):
        # 1 - sigma^2/mean rounds to 0 here (a tiny dark count in a config file)
        analytic = {"pairs_vv": mcsim._binomial(50_000, 1e-23)}
        (row,) = mcsim.compare({"pairs_vv": observed}, analytic)
        assert row.flagged is flagged

    def test_zero_sigma(self):
        rows = mcsim.compare({"a": 1.0}, {"a": (1.0, 0.0)})
        assert rows[0].z == 0.0
        rows = mcsim.compare({"a": 2.0}, {"a": (1.0, 0.0)})
        assert rows[0].flagged


def test_analytic_expectations_match_formula_layer():
    # the sigma table's means must agree with the expectation formulas
    counts, untagged = make_fixture(balanced=False)
    stats = mcsim.expected_statistics(counts, untagged, int(counts.n_t))
    outcome = bfer_expectations(counts, untagged)
    pairs_ratio = (int(counts.n_t) // 2) / (counts.n_t / 2.0)
    assert stats["bfer_survivors"][0] == pytest.approx(outcome.n_survived * pairs_ratio, rel=1e-9)
    assert stats["class1_count"][0] == pytest.approx(outcome.n_t1 * pairs_ratio, rel=1e-9)
    assert stats["bfer_untagged"][0] == pytest.approx(outcome.n1_survived * pairs_ratio, rel=1e-9)
    aopp_out = aopp(counts, untagged)
    assert stats["aopp_pairs"][0] == pytest.approx(aopp_out.n_a, rel=1e-9)
    assert stats["aopp_kept"][0] == pytest.approx(aopp_out.n_kept, rel=1e-9)
    assert stats["aopp_untagged"][0] == pytest.approx(aopp_out.n1_kept, rel=1e-9)
