import math

import mpmath as mp
import numpy as np
import pytest

import snsqkd.channel
from snsqkd import PRESETS, evaluate, preset
from snsqkd.channel import (
    ExperimentParams,
    ProtocolParams,
    arm_transmittance,
    effective_rate_phase_averaged,
    single_photon_quantities,
    window_rates,
    x_window_rates,
)
from snsqkd.mathcore import simpson


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


def x_window_oracle(mu, delta, exp, eta, convention):
    """t_x by mpmath quadrature over the whole slice, at the working
    precision, from the per-detector dark probabilities."""
    e_mis = mp.mpf(exp.misalignment)
    vis, mix = (1 - 2 * e_mis, 0) if convention == "visibility" else (1, e_mis)
    mean = mp.mpf(eta) * mp.mpf(mu)
    quiet = 1 - mp.mpf(exp.dark_count)

    def alone(sign):
        # only the detector on the `sign` side of the interference clicks
        def rate(phase):
            swing = mean * vis * mp.cos(phase)
            return (1 - quiet * mp.exp(-mean - sign * swing)) * quiet * mp.exp(-mean + sign * swing)
        return mp.quad(rate, [-delta / 2, delta / 2]) / delta

    return float((1 - mix) * alone(-1) + mix * alone(1))


class TestXWindowRates:
    def test_vacuum(self):
        exp = make_exp()
        d = exp.dark_count
        t = x_window_rates(0.0, 2.0 * math.pi / 16.0, exp, 0.03)
        assert t == pytest.approx(d * (1.0 - d), rel=1e-9)

    def test_perfect_interference_narrow_slice(self):
        exp = make_exp(dark_count=0.0, misalignment=0.0)
        t_wide = x_window_rates(0.05, 0.3, exp, 0.03)
        t_narrow = x_window_rates(0.05, 0.003, exp, 0.03)
        assert t_narrow < t_wide
        assert t_narrow < 1e-8

    def test_matches_monte_carlo(self):
        # independent event-level oracle: sample in-slice phases and clicks
        exp = make_exp(dark_count=1e-8, misalignment=0.05)
        eta, mu, delta = 0.03, 0.05, 2.0 * math.pi / 16.0
        t_x = x_window_rates(mu, delta, exp, eta)
        rng = np.random.default_rng(20240)
        n = 10_000_000
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
            wrong += int((lo & ~hi).sum())
        sigma = math.sqrt(t_x * (1.0 - t_x) / n)
        assert abs(wrong / n - t_x) < 3.0 * sigma

    def test_monotone_in_intensity(self):
        exp = make_exp()
        rates = [x_window_rates(mu, 0.4, exp, 0.05) for mu in np.linspace(0.0, 1.0, 21)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_zero_visibility_splits_evenly(self):
        exp = make_exp(misalignment=0.5, dark_count=1e-12)
        # without interference each detector is the lone click in half the effective events
        eta = 0.03
        t = x_window_rates(0.05, 0.4, exp, eta)
        effective = effective_rate_phase_averaged(0.05, 0.05, exp, eta)
        assert t == pytest.approx(effective / 2.0, rel=1e-12)

    def test_conventions_agree_without_misalignment(self):
        exp = make_exp(misalignment=0.0)
        t_v = x_window_rates(0.05, 0.4, exp, 0.03, convention="visibility")
        t_m = x_window_rates(0.05, 0.4, exp, 0.03, convention="mixing")
        assert t_v == t_m

    @pytest.mark.parametrize("mu", [-0.1, math.inf, math.nan])
    def test_refuses_negative_or_non_finite_intensity(self, mu):
        with pytest.raises(ValueError, match="mu_k"):
            x_window_rates(mu, 0.4, make_exp(), 0.03)

    def test_against_arbitrary_precision_quadrature(self):
        # Taking each click probability as one minus a number near one would
        # put a floor of 7.0e-9 under any rule here; the quadrature error of
        # the 64-interval half slice stays below it.
        worst_t = 0.0
        with mp.workdps(20):
            for name in sorted(PRESETS):
                for distance in (0.0, 300.0, 600.0):
                    exp = preset(name, distance)
                    eta = arm_transmittance(exp)
                    for mu in (1e-3, 0.05, 0.5):
                        for delta in (2.0 * math.pi / k for k in (4, 16, 32)):
                            for convention in ("visibility", "mixing"):
                                t_ref = x_window_oracle(mu, delta, exp, eta, convention)
                                t_x = x_window_rates(mu, delta, exp, eta, convention)
                                worst_t = max(worst_t, abs(t_x / t_ref - 1.0))
        assert worst_t <= 1e-9


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


# each public function that takes an arm transmittance, called with it
ETA_TAKERS = {
    "effective_rate_phase_averaged":
        lambda exp, eta: effective_rate_phase_averaged(0.4, 0.4, exp, eta),
    "x_window_rates": lambda exp, eta: x_window_rates(0.05, 0.4, exp, eta),
    "single_photon_quantities": single_photon_quantities,
}


@pytest.mark.parametrize("eta", [-0.5, 2.0, math.nan, -math.inf])
@pytest.mark.parametrize("name", sorted(ETA_TAKERS))
def test_transmittance_outside_unit_interval_is_refused(name, eta):
    # NaN gave NaN rates, -0.5 negative probabilities and 2.0 finite but
    # unphysical ones
    with pytest.raises(ValueError, match="eta_arm"):
        ETA_TAKERS[name](make_exp(), eta)


@pytest.mark.parametrize("name", sorted(ETA_TAKERS))
def test_transmittance_bounds_are_admitted(name):
    for eta in (0.0, 1.0):
        assert all(math.isfinite(v) for v in np.atleast_1d(ETA_TAKERS[name](make_exp(), eta)))


@pytest.mark.parametrize("convention, calls", [("visibility", 1), ("mixing", 2)])
def test_finite_evaluation_integrates_one_row_per_detector(convention, calls, monkeypatch):
    # the decoy bound reads only t_x: the visibility convention integrates the
    # wrong detector's row alone, the mixing one adds the right detector's;
    # a stacked (2, 65) integrand formed a row nothing read
    shapes = []

    def recording(fn, a, b, n):
        def integrand(nodes):
            vals = fn(nodes)
            shapes.append(np.shape(vals))
            return vals
        return simpson(integrand, a, b, n)

    monkeypatch.setattr(snsqkd.channel, "simpson", recording)
    proto = ProtocolParams(p_z=0.9, p_send=0.1, mu_z=0.4, decoy_intensities=(0.0, 0.05, 0.15))
    evaluate(preset("rowC", 100.0), proto, "finite", convention=convention)
    assert shapes == [(65,)] * calls
