import math

import numpy as np
import pytest

from snsqkd.channel import ExperimentParams, ProtocolParams, arm_transmittance, window_rates
from snsqkd.decoy import (
    BoundViolationError,
    DecoyObservations,
    decoy_observations,
    untagged_asymptotic,
    untagged_decoy,
)


def make_exp(**overrides):
    base = dict(
        dark_count=1e-8,
        detector_eff=0.3,
        error_correction_f=1.1,
        misalignment=0.05,
        fiber_loss_db_km=0.2,
        total_pulses=1e12,
        failure_prob=1e-10,
        distance_km=100.0,
    )
    base.update(overrides)
    return ExperimentParams(**base)


def make_proto(**overrides):
    base = dict(p_z=1.0, p_send=0.1, mu_z=0.45, decoy_intensities=(0.0, 0.05, 0.1))
    base.update(overrides)
    return ProtocolParams(**base)


class TestAsymptotic:
    def test_nobody_sends(self):
        exp, proto = make_exp(), make_proto(p_send=0.0)
        stats = untagged_asymptotic(exp, proto, window_rates(exp, proto))
        assert stats.n1 == 0.0

    def test_noiseless(self):
        exp = make_exp(dark_count=0.0, misalignment=0.0)
        proto = make_proto()
        stats = untagged_asymptotic(exp, proto, window_rates(exp, proto))
        assert stats.e1ph == 0.0

    def test_count_formula(self):
        exp, proto = make_exp(), make_proto()
        rates = window_rates(exp, proto)
        stats = untagged_asymptotic(exp, proto, rates)
        expected = (
            exp.total_pulses
            * proto.p_z**2
            * 2.0
            * proto.p_send
            * (1.0 - proto.p_send)
            * math.exp(-proto.mu_z)
            * proto.mu_z
            * rates.y1
        )
        assert stats.n1 == pytest.approx(expected, rel=1e-14)
        assert stats.n1_0 + stats.n1_1 == stats.n1
        assert stats.n1_0 == stats.n1_1

    def test_vacuum_window_count(self):
        exp, proto = make_exp(), make_proto()
        rates = window_rates(exp, proto)
        stats = untagged_asymptotic(exp, proto, rates)
        expected = (
            exp.total_pulses * proto.p_z**2 * 2.0 * proto.p_send * (1.0 - proto.p_send)
            * math.exp(-proto.mu_z) * rates.q_nn
        )
        assert stats.n0 == pytest.approx(expected, rel=1e-14)


class TestDecoyBounds:
    def test_noiseless_lossless_limit(self):
        exp = make_exp(dark_count=0.0, misalignment=0.0, distance_km=0.0, detector_eff=1.0)
        proto = make_proto(
            decoy_intensities=(0.0, 0.001, 0.002), delta=2.0 * math.pi / 64.0
        )
        stats = untagged_decoy(exp, proto, decoy_observations(exp, proto, window_rates(exp, proto)))
        assert stats.n1 > 0.0
        assert stats.e1ph < 1e-3
        rates = window_rates(exp, proto)
        exact = untagged_asymptotic(exp, proto, rates)
        assert stats.n1 / exact.n1 > 0.99

    def test_asymptotic_consistency_small_decoys(self):
        exp, proto = make_exp(), make_proto(decoy_intensities=(0.0, 1e-3, 2e-3))
        rates = window_rates(exp, proto)
        stats = untagged_decoy(exp, proto, decoy_observations(exp, proto, window_rates(exp, proto)))
        assert stats.n1 == pytest.approx(untagged_asymptotic(exp, proto, rates).n1, rel=0.01)

    def test_bounds_are_conservative(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            exp = make_exp(
                dark_count=float(rng.uniform(1e-9, 1e-7)),
                misalignment=float(rng.uniform(0.01, 0.15)),
                distance_km=float(rng.uniform(0.0, 400.0)),
            )
            mu1 = float(rng.uniform(0.005, 0.08))
            proto = make_proto(decoy_intensities=(0.0, mu1, mu1 * float(rng.uniform(2.0, 4.0))))
            rates = window_rates(exp, proto)
            exact = untagged_asymptotic(exp, proto, rates)
            stats = untagged_decoy(exp, proto, decoy_observations(exp, proto, window_rates(exp, proto)))
            assert stats.n1 <= exact.n1 * (1.0 + 1e-12)
            assert stats.e1ph >= exact.e1ph - 1e-12

    def test_monotone_in_error_rate(self):
        exp, proto = make_exp(), make_proto()
        obs = decoy_observations(exp, proto, window_rates(exp, proto))
        base = untagged_decoy(exp, proto, obs)
        bumped = untagged_decoy(
            exp,
            proto,
            DecoyObservations(obs.s_0, obs.s_mu1, obs.s_mu2, obs.t_delta * 1.5),
        )
        assert bumped.e1ph >= base.e1ph

    def test_bound_violation_detected(self):
        exp, proto = make_exp(), make_proto()
        obs = decoy_observations(exp, proto, window_rates(exp, proto))
        broken = DecoyObservations(s_0=obs.s_0, s_mu1=obs.s_0 * 0.1, s_mu2=obs.s_mu2,
                                   t_delta=obs.t_delta)
        with pytest.raises(BoundViolationError):
            untagged_decoy(exp, proto, broken)

    def test_decoy_ordering_enforced(self):
        exp = make_exp()
        proto = make_proto(mu_z=0.1, decoy_intensities=(0.0, 0.05, 0.1))
        with pytest.raises(ValueError):
            untagged_decoy(exp, proto, decoy_observations(exp, proto, window_rates(exp, proto)))

    def test_phase_error_capped_at_half(self):
        exp = make_exp(misalignment=0.45, dark_count=1e-6, distance_km=500.0)
        proto = make_proto()
        stats = untagged_decoy(exp, proto, decoy_observations(exp, proto, window_rates(exp, proto)))
        assert stats.e1ph <= 0.5


def test_observations_from_channel():
    exp, proto = make_exp(), make_proto()
    obs = decoy_observations(exp, proto, window_rates(exp, proto))
    eta = arm_transmittance(exp)
    assert obs.s_0 == pytest.approx(2.0 * exp.dark_count, rel=1e-6)
    assert obs.s_mu2 > obs.s_mu1 > obs.s_0
    assert 0.0 < obs.t_delta < 1.0


def test_finite_evaluate_refuses_misordered_decoys_before_channel_work(monkeypatch):
    import snsqkd.decoy
    import snsqkd.pipeline
    from snsqkd.pipeline import evaluate

    def forbidden(*args, **kwargs):
        raise AssertionError("channel work ran for a protocol the decoy bounds refuse")

    monkeypatch.setattr(snsqkd.decoy, "x_window_rates", forbidden)
    monkeypatch.setattr(snsqkd.pipeline, "window_rates", forbidden)
    proto = make_proto(mu_z=0.15, decoy_intensities=(0.0, 0.05, 0.1))
    with pytest.raises(ValueError, match=r"mu1 \+ mu2 < mu_z"):
        evaluate(make_exp(), proto, "finite")
