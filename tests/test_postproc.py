import dataclasses
import math

import numpy as np
import pytest

from snsqkd.channel import ExperimentParams, ProtocolParams, window_rates
from snsqkd.chernoff import EpsilonBudget
from snsqkd.decoy import UntaggedStats, untagged_asymptotic
from snsqkd.mathcore import binary_entropy
from snsqkd.pipeline import evaluate
from snsqkd.postproc import (
    ZWindowCounts,
    aopp,
    bfer_expectations,
    iterate_phase_error,
    key_length_aopp,
    key_length_bfer,
    key_length_finite,
    key_length_oddsift,
    key_length_original,
    key_length_refined,
    odd_parity_sift,
    z_window_counts,
)
from snsqkd.presets import preset

F_EC = 1.1
N_PULSES = 1e12
FINITE_PROTO = ProtocolParams(p_z=0.9, p_send=0.1, mu_z=0.4,
                              decoy_intensities=(0.0, 0.02, 0.1))


def make_untagged(n1, e1ph, n1_0=None, n0=0.0):
    n1_0 = 0.5 * n1 if n1_0 is None else n1_0
    return UntaggedStats(n1=n1, n1_0=n1_0, n1_1=n1 - n1_0, e1ph=e1ph, n0=n0)


def random_counts(rng, scale=1e6):
    parts = rng.uniform(0.01, 1.0, 4)
    c0, c1, d, v = parts / parts.sum() * scale
    return ZWindowCounts(n_c0=float(c0), n_c1=float(c1), n_d=float(d), n_v=float(v))


class TestZWindowCounts:
    def test_always_send_is_all_errors(self):
        exp = ExperimentParams(1e-8, 0.3, 1.1, 0.05, 0.2, 1e12, 1e-10, 100.0)
        proto = ProtocolParams(p_z=1.0, p_send=1.0, mu_z=0.4)
        counts = z_window_counts(exp, proto, window_rates(exp, proto))
        assert counts.n_c0 == counts.n_c1 == counts.n_v == 0.0
        assert counts.e_z == 1.0

    def test_error_rate_grows_with_sending_probability(self):
        exp = ExperimentParams(1e-8, 0.3, 1.1, 0.05, 0.2, 1e12, 1e-10, 100.0)
        rates = [
            z_window_counts(exp, ProtocolParams(p_z=1.0, p_send=p, mu_z=0.4),
                            window_rates(exp, ProtocolParams(p_z=1.0, p_send=p, mu_z=0.4))).e_z
            for p in (0.05, 0.1, 0.2, 0.4)
        ]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_refined_error_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            counts = random_counts(rng)
            total = counts.e_group0 * counts.n_group0 + counts.e_group1 * counts.n_group1
            assert counts.e_z * counts.n_t == pytest.approx(total, rel=1e-12)
            assert counts.n_group0 + counts.n_group1 == pytest.approx(counts.n_t, rel=1e-12)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ZWindowCounts(-1.0, 1.0, 1.0, 1.0)


class TestPlainKeyLengths:
    def test_noiseless(self):
        counts = ZWindowCounts(5e5, 5e5, 0.0, 0.0)
        result = key_length_original(counts, make_untagged(1e5, 0.0), F_EC, N_PULSES)
        assert result.key_length == 1e5
        assert result.rate == 1e5 / N_PULSES

    def test_half_phase_error_cancels_untagged(self):
        counts = ZWindowCounts(4.5e5, 4.5e5, 5e4, 5e4)
        result = key_length_original(counts, make_untagged(1e5, 0.5), F_EC, N_PULSES)
        expected = -F_EC * counts.n_t * binary_entropy(counts.e_z)
        assert result.key_length == pytest.approx(expected, rel=1e-12)

    def test_frozen_value(self):
        # n_t = 2e6 with averaged error 1%, 1e6 untagged bits at 3% phase error
        counts = ZWindowCounts(n_c0=9.9e5, n_c1=9.9e5, n_d=1.0e4, n_v=1.0e4)
        result = key_length_original(counts, make_untagged(1e6, 0.03), F_EC, N_PULSES)
        assert counts.e_z == pytest.approx(0.01, rel=1e-12)
        assert result.key_length == pytest.approx(627863.2431974193, rel=1e-12)

    def test_breakdown_sums(self):
        counts = ZWindowCounts(4e5, 4e5, 1e5, 1e5)
        result = key_length_refined(counts, make_untagged(3e5, 0.04), F_EC, N_PULSES)
        total = result.untagged_term + result.phase_term + result.ec_term + result.finite_penalty
        assert result.key_length == total

    def test_equal_group_errors_collapse_to_original(self):
        # equal group error rates make the refined correction cost identical
        counts = ZWindowCounts(n_c0=4e5, n_c1=4e5, n_d=1e5, n_v=1e5)
        untagged = make_untagged(2e5, 0.03)
        refined = key_length_refined(counts, untagged, F_EC, N_PULSES)
        original = key_length_original(counts, untagged, F_EC, N_PULSES)
        assert counts.e_group0 == counts.e_group1
        assert refined.key_length == pytest.approx(original.key_length, rel=1e-12)

    def test_refined_beats_original_on_skewed_groups(self):
        counts = ZWindowCounts(n_c0=1e3, n_c1=8e5, n_d=1e3, n_v=1e3)
        untagged = make_untagged(1e5, 0.03)
        assert counts.e_group0 == 0.5
        refined = key_length_refined(counts, untagged, F_EC, N_PULSES)
        original = key_length_original(counts, untagged, F_EC, N_PULSES)
        assert refined.key_length > original.key_length

    def test_refined_never_below_original(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            counts = random_counts(rng)
            untagged = make_untagged(rng.uniform(0.0, 0.5) * counts.n_t, rng.uniform(0.0, 0.5))
            refined = key_length_refined(counts, untagged, F_EC, N_PULSES)
            original = key_length_original(counts, untagged, F_EC, N_PULSES)
            assert refined.key_length >= original.key_length - 1e-6

    def test_vacuum_credit(self):
        counts = ZWindowCounts(4e5, 4e5, 1e5, 1e5)
        untagged = make_untagged(2e5, 0.03, n0=5e4)
        for fn in (key_length_original, key_length_refined):
            plain = fn(counts, untagged, F_EC, N_PULSES)
            credited = fn(counts, untagged, F_EC, N_PULSES, vacuum_credit=True)
            assert credited.key_length == pytest.approx(plain.key_length + 5e4, rel=1e-12)

    def test_untagged_exceeding_total_rejected(self):
        counts = ZWindowCounts(1e3, 1e3, 1e2, 1e2)
        with pytest.raises(ValueError):
            key_length_original(counts, make_untagged(1e6, 0.03), F_EC, N_PULSES)


class TestBfer:
    def test_reference_fixture(self):
        # 1000 bits: 400/400 one-sender, 100 both-send, 100 neither-send
        counts = ZWindowCounts(n_c0=400.0, n_c1=400.0, n_d=100.0, n_v=100.0)
        outcome = bfer_expectations(counts, make_untagged(800.0, 0.05))
        assert outcome.n_t1 == pytest.approx(170.0, rel=1e-12)
        assert outcome.e1 == pytest.approx(10.0 / 170.0, rel=1e-12)
        assert outcome.n_t2 == pytest.approx(0.5 * 1000 * (0.1**2 + 0.4**2), rel=1e-12)
        assert outcome.n_survived == pytest.approx(
            outcome.n_cc + outcome.n_vd + outcome.n_dv + outcome.n_vv + outcome.n_dd, rel=1e-12
        )

    def test_pair_conservation(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            counts = random_counts(rng)
            outcome = bfer_expectations(counts, make_untagged(0.3 * counts.n_t, 0.1))
            nine = (
                outcome.n_cc + outcome.n_vv + outcome.n_dd + outcome.n_cv + outcome.n_vc
                + outcome.n_cd + outcome.n_dc + outcome.n_vd + outcome.n_dv
            )
            assert nine == pytest.approx(counts.n_t / 2.0, rel=1e-12)
            assert outcome.n_cc == pytest.approx(
                outcome.n_c1c1 + outcome.n_c1c0 + outcome.n_c0c1 + outcome.n_c0c0, rel=1e-12
            )
            assert outcome.n_t1 + outcome.n_t2 + outcome.n_t3 == pytest.approx(
                outcome.n_survived, rel=1e-12
            )

    def test_iteration_fixed_points(self):
        assert iterate_phase_error(0.0) == 0.0
        assert iterate_phase_error(0.5) == 0.5
        for e in np.linspace(0.01, 0.49, 25):
            assert iterate_phase_error(float(e)) >= e

    def test_untagged_survivors(self):
        counts = ZWindowCounts(400.0, 400.0, 100.0, 100.0)
        outcome = bfer_expectations(counts, make_untagged(800.0, 0.05))
        assert outcome.n1_survived == pytest.approx(500.0 * 0.8**2, rel=1e-12)
        assert outcome.e1ph_iter == pytest.approx(0.095, rel=1e-12)

    def test_needs_two_windows(self):
        with pytest.raises(ValueError):
            bfer_expectations(ZWindowCounts(1.0, 0.0, 0.0, 0.0), make_untagged(0.0, 0.0))


class TestBferKey:
    def test_error_free(self):
        counts = ZWindowCounts(500.0, 500.0, 0.0, 0.0)
        outcome = bfer_expectations(counts, make_untagged(800.0, 0.0))
        result = key_length_bfer(outcome, F_EC, N_PULSES)
        assert result.key_length == pytest.approx(outcome.n1_survived, rel=1e-12)

    def test_breakdown_sum(self):
        counts = ZWindowCounts(4e5, 4e5, 1e5, 1e5)
        outcome = bfer_expectations(counts, make_untagged(3e5, 0.05))
        result = key_length_bfer(outcome, F_EC, N_PULSES)
        total = result.untagged_term + result.phase_term + result.ec_term
        assert result.key_length == total


class TestFiniteKey:
    def test_penalty_constant(self):
        counts = ZWindowCounts(4e8, 4e8, 1e8, 1e8)
        untagged = make_untagged(3e8, 0.05)
        outcome = bfer_expectations(counts, untagged)
        budget = EpsilonBudget.from_failure_prob(1e-10)
        result = key_length_finite(outcome, untagged, budget, F_EC, N_PULSES)
        assert result.finite_penalty == pytest.approx(-166.09640474436813, rel=1e-12)

    def test_asymptotic_consistency(self):
        # at huge counts the finite rate converges to the plain rejection rate
        counts = ZWindowCounts(4e18, 4e18, 1e17, 1e16)
        untagged = make_untagged(3e18, 0.05)
        outcome = bfer_expectations(counts, untagged)
        budget = EpsilonBudget.from_failure_prob(1e-10)
        finite = key_length_finite(outcome, untagged, budget, F_EC, 1e20)
        plain = key_length_bfer(outcome, F_EC, 1e20)
        assert finite.key_length == pytest.approx(plain.key_length, rel=1e-3)
        assert finite.key_length < plain.key_length


    @pytest.mark.parametrize("failure_prob", [1e-200, 1e-323, 0.5])
    def test_finite_at_any_failure_prob(self, failure_prob):
        # eps_pa*eps_hat underflows below about 1e-155: the key length was
        # -inf, and below about 2e-162 a ZeroDivisionError
        exp = dataclasses.replace(preset("table2", 300.0), failure_prob=failure_prob)
        key = evaluate(exp, FINITE_PROTO, "finite").key
        xi = math.log2(failure_prob)
        assert key.finite_penalty == (xi - 1.0) + 2.0 * (0.5 + xi + xi)
        assert math.isfinite(key.key_length) and key.key_length > 0.0

    def test_refuses_the_smallest_failure_prob(self):
        # the experiment record refuses a failure probability whose half
        # underflows; the finite key length's budget keeps its own check for
        # a record that got past it
        with pytest.raises(ValueError, match=r"failure_prob must be in \[1e-323, 1\)"):
            dataclasses.replace(preset("table2", 300.0), failure_prob=5e-324)
        exp = preset("table2", 300.0)  # a copy: at_distance builds a new record
        object.__setattr__(exp, "failure_prob", 5e-324)
        with pytest.raises(ValueError, match="failure_prob"):
            evaluate(exp, FINITE_PROTO, "finite")


class TestOddSift:
    def test_balanced_pairing_yield(self):
        counts = ZWindowCounts(400.0, 400.0, 100.0, 100.0)
        sift = odd_parity_sift(counts, make_untagged(800.0, 0.05))
        assert sift.n_r == pytest.approx(counts.n_t / 4.0, rel=1e-12)

    def test_even_split_halves_survivors(self):
        counts = ZWindowCounts(400.0, 400.0, 100.0, 100.0)
        untagged = make_untagged(800.0, 0.05)
        sift = odd_parity_sift(counts, untagged)
        bfer = bfer_expectations(counts, untagged)
        assert sift.n1_kept == pytest.approx(bfer.n1_survived / 2.0, rel=1e-12)

    def test_iterated_error(self):
        counts = ZWindowCounts(400.0, 400.0, 100.0, 100.0)
        sift = odd_parity_sift(counts, make_untagged(800.0, 0.05))
        assert sift.e_ph_iter == pytest.approx(0.095, rel=1e-12)

    def test_key_breakdown(self):
        counts = ZWindowCounts(4e5, 3e5, 1e5, 2e5)
        sift = odd_parity_sift(counts, make_untagged(3e5, 0.05, n1_0=2e5))
        result = key_length_oddsift(sift, F_EC, N_PULSES)
        expected = sift.n1_kept * (1.0 - binary_entropy(sift.e_ph_iter)) - F_EC * sift.n_t1 * binary_entropy(sift.e1)
        assert result.key_length == pytest.approx(expected, rel=1e-12)


class TestAopp:
    def test_error_free_strings(self):
        counts = ZWindowCounts(400.0, 600.0, 0.0, 0.0)
        outcome = aopp(counts, make_untagged(800.0, 0.05))
        assert outcome.error_z == 0.0
        assert outcome.n_kept == pytest.approx(outcome.n_both_c, rel=1e-12)

    def test_balance_doubles_random_yield(self):
        counts = ZWindowCounts(400.0, 400.0, 100.0, 100.0)
        outcome = aopp(counts, make_untagged(800.0, 0.05))
        assert outcome.n_a == pytest.approx(2.0 * outcome.n_r, rel=1e-12)

    def test_counting_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            counts = random_counts(rng)
            outcome = aopp(counts, make_untagged(0.2 * counts.n_t, 0.05, n1_0=0.08 * counts.n_t))
            assert 2.0 * outcome.n_r >= outcome.n_a * (1.0 - 1e-12)
            assert outcome.n_a >= outcome.n_r * (1.0 - 1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            aopp(ZWindowCounts(0.0, 400.0, 0.0, 100.0), make_untagged(100.0, 0.05, n1_0=0.0))

    def test_scaled_down_to_random_matches_odd_sift(self):
        # per-pair composition is identical; replacing the pair totals
        # min(N1,N0) -> N1*N0/n_t maps one outcome onto the other exactly
        counts = ZWindowCounts(4.5e5, 3.0e5, 1.0e5, 1.5e5)
        untagged = make_untagged(3.5e5, 0.07, n1_0=2.0e5)
        sift = odd_parity_sift(counts, untagged)
        outcome = aopp(counts, untagged)
        scale = sift.n_r / outcome.n_a
        assert sift.n_t1 == pytest.approx(outcome.n_kept * scale, rel=1e-12)
        assert sift.n1_kept == pytest.approx(outcome.n1_kept * scale, rel=1e-12)
        assert sift.e1 == pytest.approx(outcome.error_z, rel=1e-12)
        assert sift.e_ph_iter == outcome.e_ph_iter
        key_sift = key_length_oddsift(sift, F_EC, N_PULSES)
        key_aopp = key_length_aopp(outcome, F_EC, N_PULSES)
        assert key_sift.key_length == pytest.approx(key_aopp.key_length * scale, rel=1e-12)


def test_pipeline_counts_from_channel():
    exp = ExperimentParams(1e-8, 0.5, 1.15, 0.05, 0.2, 1e12, 1e-10, 100.0)
    proto = ProtocolParams(p_z=1.0, p_send=0.103, mu_z=0.43)
    rates = window_rates(exp, proto)
    counts = z_window_counts(exp, proto, rates)
    untagged = untagged_asymptotic(exp, proto, rates)
    assert untagged.n1 < counts.n_c0 + counts.n_c1
    assert 0.0 < counts.e_z < 1.0


# inputs each in its admitted domain whose key length overflows: inf - inf,
# a term of -inf, or an infinite error-correction cost times h(1) = 0
OVERFLOWED_PULSES = {"total_pulses": 1.7e308}
HUGE_EC_FACTOR = {"error_correction_f": 1e300}


@pytest.mark.parametrize("variant", ["original", "refined", "bfer", "oddsift", "aopp", "finite"])
def test_an_overflowed_pulse_count_is_refused(variant):
    # bfer, oddsift and aopp gave key_length nan and exited 0 from the command line
    exp = dataclasses.replace(preset("rowA", 100.0), **OVERFLOWED_PULSES)
    with pytest.raises(ValueError):
        evaluate(exp, ProtocolParams(p_z=1.0, p_send=0.1, mu_z=0.4), variant)


@pytest.mark.parametrize("total_pulses, p_send, key_length", [
    (1e11, 0.1, "-inf"),
    (1e10, 1.0, "nan"),
])
def test_an_infinite_error_correction_cost_is_refused(total_pulses, p_send, key_length):
    exp = dataclasses.replace(preset("rowA", 100.0), total_pulses=total_pulses, **HUGE_EC_FACTOR)
    proto = ProtocolParams(p_z=1.0, p_send=p_send, mu_z=0.4)
    with pytest.raises(ValueError, match=f"key length {key_length} is not finite: .*"
                                         "error-correction term"):
        evaluate(exp, proto, "original")
