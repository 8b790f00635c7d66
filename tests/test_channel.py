import math

import numpy as np
import pytest

from snsqkd.channel import (
    ExperimentParams,
    ProtocolParams,
    arm_transmittance,
    effective_rate_phase_averaged,
    single_photon_quantities,
    window_rates,
    x_window_rates,
)


def make_exp(**overrides):
    base = dict(
        dark_count=1e-8,
        detector_eff=0.3,
        error_correction_f=1.1,
        misalignment=0.05,
        fiber_loss_db_km=0.2,
        total_pulses=1e11,
        failure_prob=1e-10,
        distance_km=100.0,
    )
    base.update(overrides)
    return ExperimentParams(**base)


def unaveraged_rate(mu_a, mu_b, exp, eta, phase):
    """Two-detector exactly-one-click probability at a fixed phase difference."""
    vis = 1.0 - 2.0 * exp.misalignment
    s = eta * (mu_a + mu_b)
    interference = eta * math.sqrt(mu_a * mu_b) * vis * np.cos(phase)
    lam_plus = s / 2.0 + interference
    lam_minus = s / 2.0 - interference
    quiet = 1.0 - exp.dark_count
    silent_p = quiet * np.exp(-lam_plus)
    silent_m = quiet * np.exp(-lam_minus)
    return silent_p + silent_m - 2.0 * silent_p * silent_m


EXPERIMENT_FIELDS = (
    "dark_count", "detector_eff", "error_correction_f", "misalignment",
    "fiber_loss_db_km", "total_pulses", "failure_prob", "distance_km",
)
PROTOCOL_BASE = dict(p_z=0.7, p_send=0.1, mu_z=0.5, decoy_intensities=(0.0, 0.05, 0.1),
                     decoy_probs=(0.1, 0.1, 0.1), delta=0.4)
# (field, tuple index or None)
PROTOCOL_SLOTS = [(name, None) for name in ("p_z", "p_send", "mu_z", "delta")] + [
    (name, i) for name in ("decoy_intensities", "decoy_probs") for i in range(3)
]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_exp(dark_count=-1e-9)
        with pytest.raises(ValueError):
            make_exp(error_correction_f=0.9)
        with pytest.raises(ValueError):
            make_exp(failure_prob=0.0)
        with pytest.raises(ValueError):
            make_exp(distance_km=-1.0)

    def test_protocol_validation(self):
        with pytest.raises(ValueError):
            ProtocolParams(p_z=1.0, p_send=0.1, mu_z=0.5, decoy_intensities=(0.0, 0.2, 0.1))
        with pytest.raises(ValueError):
            ProtocolParams(p_z=1.0, p_send=0.1, mu_z=-0.5)
        with pytest.raises(ValueError):
            ProtocolParams(p_z=0.5, p_send=0.1, mu_z=0.5, decoy_probs=(0.1, 0.1, 0.1))
        proto = ProtocolParams(p_z=0.7, p_send=0.1, mu_z=0.5)
        assert sum(proto.decoy_probs) == pytest.approx(0.3)
        assert proto.mu1 == 0.05 and proto.mu2 == 0.1

    def test_at_distance(self):
        assert make_exp().at_distance(10.0).distance_km == 10.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", EXPERIMENT_FIELDS)
    def test_experiment_refuses_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            make_exp(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", PROTOCOL_SLOTS, ids=str)
    def test_protocol_refuses_non_finite(self, slot, value):
        name, index = slot
        kwargs = dict(PROTOCOL_BASE)
        ProtocolParams(**kwargs)
        if index is None:
            kwargs[name] = value
        else:
            items = list(kwargs[name])
            items[index] = value
            kwargs[name] = tuple(items)
        with pytest.raises(ValueError):
            ProtocolParams(**kwargs)


class TestArmTransmittance:
    def test_zero_fiber(self):
        assert arm_transmittance(make_exp(distance_km=0.0)) == 0.3

    def test_ten_db_per_arm(self):
        exp = make_exp(distance_km=100.0, fiber_loss_db_km=0.2)
        assert arm_transmittance(exp) == pytest.approx(0.03, rel=1e-12)

    def test_long_link(self):
        exp = make_exp(distance_km=502.0, fiber_loss_db_km=0.162, detector_eff=0.29)
        assert arm_transmittance(exp) == pytest.approx(2.4899922644774354e-05, rel=1e-12)


class TestPhaseAveragedRate:
    def test_dark_counts_only(self):
        exp = make_exp()
        d = exp.dark_count
        rate = effective_rate_phase_averaged(0.0, 0.0, exp, 0.03)
        assert rate == pytest.approx(2.0 * d * (1.0 - d), rel=1e-12)

    def test_single_sender_collapses_interference(self):
        exp = make_exp()
        eta, mu = 0.03, 0.4
        d = exp.dark_count
        expected = 2.0 * (1.0 - d) * math.exp(-eta * mu / 2.0) - 2.0 * (1.0 - d) ** 2 * math.exp(
            -eta * mu
        )
        assert effective_rate_phase_averaged(mu, 0.0, exp, eta) == pytest.approx(
            expected, rel=1e-13
        )

    @pytest.mark.parametrize(
        "mu_a,mu_b",
        [(0.1, 0.1), (0.5, 0.5), (0.3, 0.05), (1.0, 1.0), (0.0, 0.7)],
    )
    def test_matches_quadrature(self, mu_a, mu_b):
        # rectangle rule over the full period converges spectrally
        exp = make_exp()
        eta = 0.03
        phases = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)
        oracle = float(np.mean(unaveraged_rate(mu_a, mu_b, exp, eta, phases)))
        assert effective_rate_phase_averaged(mu_a, mu_b, exp, eta) == pytest.approx(
            oracle, abs=1e-10
        )

    def test_rates_in_unit_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            exp = make_exp(dark_count=float(rng.uniform(0, 1e-5)),
                           misalignment=float(rng.uniform(0, 0.5)))
            eta = float(rng.uniform(0, 1))
            mu_a, mu_b = rng.uniform(0, 1.5, 2)
            rate = effective_rate_phase_averaged(float(mu_a), float(mu_b), exp, eta)
            assert 0.0 <= rate <= 1.0

    def test_more_light_more_clicks(self):
        exp = make_exp()
        eta = 0.05
        q_nn = effective_rate_phase_averaged(0.0, 0.0, exp, eta)
        for mu in (0.01, 0.1, 0.5, 1.0):
            assert effective_rate_phase_averaged(mu, 0.0, exp, eta) > q_nn


class TestXWindowRates:
    def test_vacuum(self):
        exp = make_exp()
        d = exp.dark_count
        q, t = x_window_rates(0.0, 2.0 * math.pi / 16.0, exp, 0.03)
        assert q == pytest.approx(2.0 * d * (1.0 - d), rel=1e-9)
        assert t == pytest.approx(d * (1.0 - d), rel=1e-9)

    def test_perfect_interference_narrow_slice(self):
        exp = make_exp(dark_count=0.0, misalignment=0.0)
        _, t_wide = x_window_rates(0.05, 0.3, exp, 0.03)
        _, t_narrow = x_window_rates(0.05, 0.003, exp, 0.03)
        assert t_narrow < t_wide
        assert t_narrow < 1e-8

    def test_matches_monte_carlo(self):
        # independent event-level oracle: sample in-slice phases and clicks
        exp = make_exp(dark_count=1e-8, misalignment=0.05)
        eta, mu, delta = 0.03, 0.05, 2.0 * math.pi / 16.0
        q_x, t_x = x_window_rates(mu, delta, exp, eta)
        rng = np.random.default_rng(20240)
        n = 10_000_000
        eff = 0
        wrong = 0
        vis = 1.0 - 2.0 * exp.misalignment
        for _ in range(10):
            phases = rng.uniform(-delta / 2.0, delta / 2.0, n // 10)
            lam_hi = eta * mu * (1.0 + vis * np.cos(phases))
            lam_lo = eta * mu * (1.0 - vis * np.cos(phases))
            p_click_hi = 1.0 - (1.0 - exp.dark_count) * np.exp(-lam_hi)
            p_click_lo = 1.0 - (1.0 - exp.dark_count) * np.exp(-lam_lo)
            hi = rng.random(n // 10) < p_click_hi
            lo = rng.random(n // 10) < p_click_lo
            eff += int((hi ^ lo).sum())
            wrong += int((lo & ~hi).sum())
        for estimate, expected in ((eff / n, q_x), (wrong / n, t_x)):
            sigma = math.sqrt(expected * (1.0 - expected) / n)
            assert abs(estimate - expected) < 3.0 * sigma

    def test_monotone_in_intensity(self):
        exp = make_exp()
        rates = [x_window_rates(mu, 0.4, exp, 0.05)[0] for mu in np.linspace(0.0, 1.0, 21)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_zero_visibility_splits_evenly(self):
        exp = make_exp(misalignment=0.5, dark_count=1e-12)
        q, t = x_window_rates(0.05, 0.4, exp, 0.03)
        assert t / q == pytest.approx(0.5, abs=1e-12)

    def test_conventions_agree_without_misalignment(self):
        exp = make_exp(misalignment=0.0)
        q_v, t_v = x_window_rates(0.05, 0.4, exp, 0.03, convention="visibility")
        q_m, t_m = x_window_rates(0.05, 0.4, exp, 0.03, convention="mixing")
        assert q_v == pytest.approx(q_m, rel=1e-12)
        assert t_v == pytest.approx(t_m, rel=1e-12)

    def test_mixing_error_scales_with_misalignment(self):
        exp = make_exp(misalignment=0.1, dark_count=0.0)
        q, t = x_window_rates(0.05, 0.1, exp, 0.03, convention="mixing")
        assert t / q == pytest.approx(0.1, rel=0.05)


class TestSinglePhoton:
    def test_lossless_noiseless(self):
        exp = make_exp(dark_count=0.0, misalignment=0.0)
        assert single_photon_quantities(exp, 1.0) == (1.0, 0.0)

    def test_dark_counts_only(self):
        exp = make_exp(dark_count=1e-8)
        y1, e1 = single_photon_quantities(exp, 0.0)
        assert y1 == pytest.approx(2e-8, rel=1e-6)
        assert e1 == 0.5

    def test_moderate_loss(self):
        exp = make_exp(dark_count=1e-8, misalignment=0.05)
        y1, e1 = single_photon_quantities(exp, 0.03)
        assert y1 == pytest.approx(0.03, rel=1e-6)
        assert e1 == pytest.approx(0.05, rel=1e-5)


def test_window_rates_assembly():
    exp = make_exp()
    proto = ProtocolParams(p_z=1.0, p_send=0.1, mu_z=0.4)
    rates = window_rates(exp, proto)
    eta = arm_transmittance(exp)
    assert rates.q_nn == pytest.approx(2.0 * exp.dark_count * (1.0 - exp.dark_count), rel=1e-9)
    assert rates.q_c == effective_rate_phase_averaged(0.4, 0.0, exp, eta)
    assert rates.q_dd == effective_rate_phase_averaged(0.4, 0.4, exp, eta)
    assert 0.0 <= rates.e1_raw <= 1.0


@pytest.mark.parametrize("convention", ["Mixing", "bogus", ""])
def test_unknown_convention_is_refused(convention):
    # "Mixing" used to run the visibility rule silently
    exp = make_exp()
    eta = arm_transmittance(exp)
    with pytest.raises(ValueError, match="convention"):
        effective_rate_phase_averaged(0.4, 0.4, exp, eta, convention)
    with pytest.raises(ValueError, match="convention"):
        x_window_rates(0.05, 0.4, exp, eta, convention)
    with pytest.raises(ValueError, match="convention"):
        window_rates(exp, ProtocolParams(p_z=1.0, p_send=0.1, mu_z=0.4), convention)
