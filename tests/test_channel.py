import dataclasses
import itertools
import math
import re
import sys
import threading
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snsqkd.channel
from snsqkd import PRESETS, VARIANTS, OptimizationSpec, evaluate, optimize, preset
from snsqkd.channel import (
    CONVENTIONS,
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
                     delta=0.4)
# (field, tuple index or None)
PROTOCOL_SLOTS = [(name, None) for name in ("p_z", "p_send", "mu_z", "delta")] + [
    ("decoy_intensities", i) for i in range(3)
]


class FloatSubclass(float):
    pass


# (field, tuple index or None) -> an int, a Fraction and a float that it
# admits; every one is also given as a numpy.float64 and a float subclass, and
# each is stored as the built-in float it equals
TYPED_SLOTS = {
    ("p_z", None): (1, Fraction(7, 10), 0.7),
    ("p_send", None): (0, Fraction(1, 10), 0.1),
    ("mu_z", None): (1, Fraction(1, 2), 0.5),
    ("delta", None): (1, Fraction(2, 5), 0.4),
    ("decoy_intensities", 0): (0, Fraction(0), 0.0),
    ("decoy_intensities", 1): (1, Fraction(1, 20), 0.05),
    ("decoy_intensities", 2): (1, Fraction(1, 10), 0.1),
}

# two faulty fields at once: the one first in field order is reported, word
# for word
PROTOCOL_TWO_FAULTS = [
    (dict(p_z=0.0, p_send=2.0), "p_z must be in (0, 1], got 0.0"),
    (dict(p_z=Fraction(3, 2), mu_z=-1.0), "p_z must be in (0, 1], got Fraction(3, 2)"),
    (dict(p_z=True, delta=0.0), "p_z must be a real number, got True"),
    (dict(p_send=-1.0, mu_z=0.0), "p_send must be in [0, 1], got -1.0"),
    (dict(p_send=math.nan, decoy_intensities=(0.0, 0.05)), "p_send must be in [0, 1], got nan"),
    (dict(p_send=Fraction(-1, 2), delta=True), "p_send must be in [0, 1], got Fraction(-1, 2)"),
    (dict(mu_z=-0.5, decoy_intensities=(0.0, 0.2, 0.1)), "mu_z must be in (0, inf), got -0.5"),
    (dict(mu_z=10**400, delta=-1.0), "mu_z is a real number beyond the float range"),
    (dict(decoy_intensities=(0.1, 0.05, 0.1), delta=7.0),
     "decoy_intensities must start with the vacuum intensity 0"),
    (dict(decoy_intensities=(0.0, 0.2, 0.1), delta=-1.0),
     "decoy intensities must satisfy 0 < mu1 < mu2 < inf, got 0.2, 0.1"),
    (dict(decoy_intensities=(0.0, "x", 0.1), delta=9.0),
     "decoy_intensities[1] must be a real number, got 'x'"),
    (dict(decoy_intensities=(0.0, 0.05, True), delta=0.0),
     "decoy_intensities[2] must be a real number, got True"),
]


def protocol_kwargs(slot, value, base=PROTOCOL_BASE):
    """``base`` with one field, or one decoy slot, set to ``value``."""
    name, index = slot
    kwargs = dict(base)
    if index is None:
        kwargs[name] = value
    else:
        items = list(kwargs[name])
        items[index] = value
        kwargs[name] = tuple(items)
    return kwargs


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
        proto = ProtocolParams(p_z=0.7, p_send=0.1, mu_z=0.5)
        assert proto.mu1 == 0.02 and proto.mu2 == 0.06
        for kwargs, message in PROTOCOL_TWO_FAULTS:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ProtocolParams(**dict(PROTOCOL_BASE, **kwargs))
        # each field and decoy slot given as an int, a Fraction, a
        # numpy.float64 and a float subclass holds the float it equals; mu2 is
        # 2 so that mu1 can be an int
        base = dict(PROTOCOL_BASE, decoy_intensities=(0.0, 0.05, 2.0))
        for slot, (whole, fraction, value) in TYPED_SLOTS.items():
            for given, stored in [(whole, float(whole)), (fraction, value),
                                  (np.float64(value), value), (FloatSubclass(value), value)]:
                proto = ProtocolParams(**protocol_kwargs(slot, given, base))
                name, index = slot
                got = getattr(proto, name) if index is None else getattr(proto, name)[index]
                assert type(got) is float and got.hex() == stored.hex(), (slot, given)
                assert float_fields(proto), (slot, given)

    @pytest.mark.parametrize("field, p_z, values", [
        # these failed with a bare unpacking error
        ("decoy_intensities", 0.7, (0.0, 0.05)),
        ("decoy_intensities", 0.7, (0.0, 0.05, 0.1, 0.2)),
        ("decoy_intensities", 0.7, ()),
    ])
    def test_protocol_refuses_a_decoy_tuple_without_three_values(self, field, p_z, values):
        with pytest.raises(ValueError, match=f"{field} must hold three values"):
            ProtocolParams(p_z=p_z, p_send=0.1, mu_z=0.5, **{field: values})

    def test_at_distance(self):
        assert make_exp().at_distance(10.0).distance_km == 10.0

    def test_at_distance_carries_every_other_field(self):
        # at_distance copies the checked fields and checks only the distance:
        # a new field, even one with a default, must be listed here
        fields = dataclasses.fields(ExperimentParams)
        assert [f.name for f in fields] == list(EXPERIMENT_FIELDS)
        exp = make_exp()
        moved = exp.at_distance(250.0)
        assert type(moved) is ExperimentParams and moved.distance_km == 250.0
        for f in fields:
            if f.name != "distance_km":
                assert getattr(moved, f.name) == getattr(exp, f.name), f.name
        with pytest.raises(ValueError, match="distance_km"):
            exp.at_distance(-1.0)

    # True to None are not real numbers: bool passed every range as 0 or 1,
    # and the others failed a comparison with a TypeError that named no field;
    # 10**400 failed its conversion to float with a bare OverflowError
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "0.5", 1j, None,
                                       pytest.param(10**400, id="10**400")])
    @pytest.mark.parametrize("name", EXPERIMENT_FIELDS)
    def test_experiment_refuses_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            make_exp(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, False, "0.5", 1j,
                                       None, pytest.param(10**400, id="10**400")])
    @pytest.mark.parametrize("slot", PROTOCOL_SLOTS, ids=str)
    def test_protocol_refuses_non_finite(self, slot, value):
        name, index = slot
        ProtocolParams(**PROTOCOL_BASE)
        kwargs = protocol_kwargs(slot, value)
        # a non-finite decoy value fails the intensity order or the vacuum
        # check, whose messages name no field
        match = None if isinstance(value, float) else name
        if isinstance(value, bool):
            label = name if index is None else f"{name}[{index}]"
            match = f"^{re.escape(f'{label} must be a real number, got {value!r}')}$"
        with pytest.raises(ValueError, match=match):
            ProtocolParams(**kwargs)


# Each field's values, the ints among them admitted as they are; every value
# is also given as a float, an np.float64, an np.float32, a Fraction and a
# float subclass.
TYPED_EXPERIMENT = dict(
    dark_count=(1e-8, 0), detector_eff=(0.3, 1), error_correction_f=(1.1, 1),
    misalignment=(0.05, 0), fiber_loss_db_km=(0.2, 0.16), total_pulses=(1e11, 10**11),
    failure_prob=(1e-10,), distance_km=(100.0, 50),
)
TYPED_PROTOCOL = dict(p_z=(0.9, 0.95), p_send=(0.1, 0.25), mu_z=(0.4, 1), nu0=(0,),
                      mu1=(0.02, 0.05), mu2=(0.1,), delta=(0.4, 1))


def typed_values(pool):
    """One value of each field, each in one of the six number types."""
    return st.fixed_dictionaries({
        name: st.sampled_from(values).flatmap(lambda v: st.sampled_from(
            (v, float(v), np.float64(v), np.float32(v), Fraction(v), FloatSubclass(v))))
        for name, values in pool.items()
    })


def float_fields(record):
    """True when every field of the record is a float or a tuple of floats."""
    values = [getattr(record, f.name) for f in dataclasses.fields(record)]
    flat = [x for v in values for x in (v if isinstance(v, tuple) else (v,))]
    return all(type(x) is float for x in flat)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(typed_values(TYPED_EXPERIMENT), typed_values(TYPED_PROTOCOL))
def test_results_are_built_in_floats_whatever_number_types_the_fields_are(exp_values, values):
    # a numpy p_send made evaluate return numpy.float64 key lengths
    exp = ExperimentParams(**exp_values)
    proto = ProtocolParams(p_z=values["p_z"], p_send=values["p_send"], mu_z=values["mu_z"],
                           decoy_intensities=(values["nu0"], values["mu1"], values["mu2"]),
                           delta=values["delta"])
    assert float_fields(exp) and float_fields(proto)
    for variant in VARIANTS:
        key = evaluate(exp, proto, variant).key
        assert type(key.key_length) is float and type(key.rate) is float, variant
    # a start replaces the search grid, so its fields reach the search itself
    result = optimize(OptimizationSpec("aopp", budget=200), exp, start=proto)
    assert type(result.key_length) is float and type(result.rate) is float
    assert float_fields(result.params)


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

    @pytest.mark.parametrize("mu_a, mu_b", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
                                            (0.4, math.inf), (-0.1, 0.4)])
    def test_refuses_negative_or_non_finite_intensity(self, mu_a, mu_b):
        # NaN and inf used to reach bessel_i0, which refused "x >= 0, got nan"
        with pytest.raises(ValueError, match=r"intensities must be in \[0, inf\)"):
            effective_rate_phase_averaged(mu_a, mu_b, make_exp(), 0.03)


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
    proto = ProtocolParams(p_z=1.0, p_send=0.1, mu_z=0.4)
    with pytest.raises(ValueError, match="convention"):
        window_rates(exp, proto, convention)
    # also when the link memo holds this exp, and the decoy memo this t_x
    window_rates(exp, proto)
    x_window_rates(0.05, 0.4, exp, eta)
    with pytest.raises(ValueError, match="convention"):
        window_rates(exp, proto, convention)
    with pytest.raises(ValueError, match="convention"):
        x_window_rates(0.05, 0.4, exp, eta, convention)


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


def clear_memos():
    """Empty the decoy-quadrature memo and the link memo of ``window_rates``,
    so the next evaluation computes everything afresh."""
    snsqkd.channel._x_window_integral.cache_clear()
    snsqkd.channel._last_link = (None,)


def record_quadratures(monkeypatch):
    """The shape of every integrand ``x_window_rates`` hands to ``simpson``."""
    shapes = []

    def recording(fn, a, b, n):
        def integrand(nodes):
            vals = fn(nodes)
            shapes.append(np.shape(vals))
            return vals
        return simpson(integrand, a, b, n)

    monkeypatch.setattr(snsqkd.channel, "simpson", recording)
    return shapes


FINITE_PROTO = ProtocolParams(p_z=0.9, p_send=0.1, mu_z=0.4, decoy_intensities=(0.0, 0.05, 0.15))


@pytest.mark.parametrize("convention, calls", [("visibility", 1), ("mixing", 2)])
def test_finite_evaluation_integrates_one_row_per_detector(convention, calls, monkeypatch):
    # the decoy bound reads only t_x: the visibility convention integrates the
    # wrong detector's row alone, the mixing one adds the right detector's;
    # a stacked (2, 65) integrand formed a row nothing read
    shapes = record_quadratures(monkeypatch)
    clear_memos()
    evaluate(preset("rowC", 100.0), FINITE_PROTO, "finite", convention=convention)
    assert shapes == [(65,)] * calls


def test_repeated_point_integrates_once(monkeypatch):
    shapes = record_quadratures(monkeypatch)
    clear_memos()
    exp = preset("rowC", 100.0)
    first = evaluate(exp, FINITE_PROTO, "finite").key.key_length
    again = evaluate(exp, FINITE_PROTO, "finite").key.key_length
    assert len(shapes) == 1 and again.hex() == first.hex()
    # one ulp more of mu1 is another t_x
    mu1 = math.nextafter(FINITE_PROTO.mu1, 1.0)
    nudged = dataclasses.replace(FINITE_PROTO, decoy_intensities=(0.0, mu1, FINITE_PROTO.mu2))
    evaluate(exp, nudged, "finite")
    assert len(shapes) == 2


def test_memos_shared_between_threads_return_each_threads_bits():
    # each thread evaluates its own link and protocol; a memo read torn
    # between two threads' entries would pair one link with another's constants
    jobs = []
    for k, name in enumerate(("rowA", "rowC", "rowF", "table2")):
        mu1 = 0.005 * (k + 1)
        proto = dataclasses.replace(FINITE_PROTO, decoy_intensities=(0.0, mu1, 0.15))
        jobs.append((preset(name, 100.0 + 50.0 * k), proto))
    clear_memos()
    expected = [evaluate(exp, proto, "finite").key.key_length.hex() for exp, proto in jobs]
    results = [[] for _ in jobs]

    def work(k):
        exp, proto = jobs[k]
        for _ in range(200):
            results[k].append(evaluate(exp, proto, "finite").key.key_length.hex())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[bits] * 200 for bits in expected]


def test_evaluation_caches_nothing_on_the_link():
    # a per-instance cache would cost memory for every ExperimentParams a
    # distance scan or a point grid builds
    exp = preset("rowC", 100.0)
    for variant in ("finite", "aopp"):
        evaluate(exp, FINITE_PROTO, variant)
    assert set(vars(exp)) == {f.name for f in dataclasses.fields(exp)}


# The memos must be invisible: each step of an interleaved sequence of calls,
# made while the memos hold whatever the steps before left, gives the bits of
# the same call made cold.  A step may set one of mu1, delta, the detector
# efficiency (and so eta_arm), the dark count and the misalignment (and so the
# visibility or mixing weight) to its base value, one ulp either side of it or
# a signed zero, switch the convention, or pass an equal
# new ExperimentParams in place of the last one; the rest stay as the step
# before left them, so many steps find the memos holding their answer.  A
# zero intensity or transmittance is reachable only by a direct
# x_window_rates call, and a zero slice width not at all.
MEMO_BASE_EXP = preset("table2", 502.0)
MEMO_BASE_PROTO = ProtocolParams(p_z=0.99, p_send=0.25, mu_z=0.5,
                                 decoy_intensities=(0.0, 0.005, 0.1), delta=2.0 * math.pi / 23.0)
MEMO_STEP = st.tuples(
    st.sampled_from(("finite", "finite", "aopp", "bfer", "x_window_rates", "x_window_rates")),
    st.sampled_from((None, None, "mu", "delta", "eff", "dark", "mis", "new exp", "convention")),
    st.sampled_from((-1, 0, 1, "+0", "-0")),  # ulps from the base value, or a zero
)


def nudge(x, how, zeros=True):
    """x moved by ``how`` ulps, or a signed zero."""
    if how in ("+0", "-0"):
        return (0.0 if how == "+0" else -0.0) if zeros else x
    return x if how == 0 else math.nextafter(x, math.copysign(math.inf, how))


def memo_outcome(call):
    """The call's result as its exact bits, or the name of what it raised."""
    try:
        value = call()
    except (ValueError, RuntimeError) as err:
        return type(err).__name__
    assert type(value) is float and math.isfinite(value)
    return value.hex()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.lists(MEMO_STEP, min_size=1, max_size=12))
def test_memos_return_the_bits_of_a_cold_call(steps):
    calls = []
    setting = dict(mu=0, delta=0, eff=0, dark=0, mis=0)
    exp, convention = MEMO_BASE_EXP, CONVENTIONS[0]
    for kind, change, how in steps:
        if change in setting:
            setting[change] = how
        if change == "convention":
            convention = CONVENTIONS[1 - CONVENTIONS.index(convention)]
        if change in ("eff", "dark", "mis", "new exp"):
            exp = dataclasses.replace(
                MEMO_BASE_EXP, dark_count=nudge(MEMO_BASE_EXP.dark_count, setting["dark"]),
                detector_eff=nudge(MEMO_BASE_EXP.detector_eff, setting["eff"], zeros=False),
                misalignment=nudge(MEMO_BASE_EXP.misalignment, setting["mis"]))
        delta = nudge(MEMO_BASE_PROTO.delta, setting["delta"], zeros=False)
        if kind == "x_window_rates":
            mu_k = nudge(MEMO_BASE_PROTO.mu1, setting["mu"])
            eta = nudge(arm_transmittance(exp), setting["eff"])
            calls.append(lambda e=exp, m=mu_k, d=delta, t=eta, c=convention:
                         x_window_rates(m, d, e, t, c))
        else:
            mu1 = nudge(MEMO_BASE_PROTO.mu1, setting["mu"], zeros=False)
            proto = dataclasses.replace(MEMO_BASE_PROTO, delta=delta,
                                        decoy_intensities=(0.0, mu1, MEMO_BASE_PROTO.mu2))
            calls.append(lambda e=exp, p=proto, v=kind, c=convention:
                         evaluate(e, p, v, convention=c).key.key_length)
    clear_memos()
    warm = [memo_outcome(call) for call in calls]
    cold = []
    for call in calls:
        clear_memos()
        cold.append(memo_outcome(call))
    assert warm == cold


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("name", ["mu_k", "delta", "dark_count", "misalignment", "eta_arm"])
def test_decoy_memo_misses_when_one_input_changes(name, convention):
    # each input reaches t_x in both conventions (the misalignment through
    # the visibility or the mixing weight), so each must be in the memo's key
    base = dict(mu_k=0.05, delta=0.4, dark_count=1e-8, misalignment=0.05, eta_arm=0.03)

    def t_x(values):
        exp = make_exp(dark_count=values["dark_count"], misalignment=values["misalignment"])
        return x_window_rates(values["mu_k"], values["delta"], exp, values["eta_arm"],
                              convention).hex()

    clear_memos()
    first = t_x(base)
    changed = dict(base, **{name: 0.5 * base[name]})
    warm = t_x(changed)
    clear_memos()
    assert warm == t_x(changed) != first


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_signed_zeros_share_a_decoy_memo_entry(convention):
    # the memo is keyed on floats, so 0.0 and -0.0 find each other's entry:
    # arguments equal under == must give one bit pattern, computed cold
    bits = {}
    for mu_k, eta, dark, mis in itertools.product(
        (0.0, -0.0, 0.05), (0.0, -0.0, 0.03), (0.0, -0.0, 1e-8), (0.0, -0.0, 0.05)
    ):
        clear_memos()
        t_x = x_window_rates(mu_k, 0.4, make_exp(dark_count=dark, misalignment=mis), eta,
                             convention)
        bits.setdefault((mu_k + 0.0, eta + 0.0, dark + 0.0, mis + 0.0), set()).add(t_x.hex())
    assert all(len(patterns) == 1 for patterns in bits.values()), bits


def test_decoy_memo_keeps_argument_types_apart():
    # x_window_rates converts np.float32(0.5) to the float 0.5 before the memo
    # sees it, so the float call that follows gets the bits of a cold call
    exp = preset("rowC", 100.0)
    eta = arm_transmittance(exp)
    clear_memos()
    x_window_rates(np.float32(0.5), 0.4, exp, eta)
    warm = x_window_rates(0.5, 0.4, exp, eta)
    clear_memos()
    assert warm.hex() == x_window_rates(0.5, 0.4, exp, eta).hex()
