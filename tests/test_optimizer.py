import dataclasses
import math

import pytest

from snsqkd.optimizer import DELTA_CHOICES, OptimizationSpec, optimize
from snsqkd.pipeline import evaluate
from snsqkd.presets import preset


def test_synthetic_unimodal_recovery():
    # negative quadratic in log intensity with a known maximizer
    target = math.log(0.3)

    def objective(proto):
        return 100.0 - (math.log(proto.mu_z) - target) ** 2 - (proto.p_send - 0.1) ** 2

    spec = OptimizationSpec(variant="aopp", objective_override=objective,
                            grid_mu=8, grid_p=8, restarts=3)
    result = optimize(spec, preset("rowF", 200.0))
    assert result.params.mu_z == pytest.approx(0.3, rel=0.01)
    assert result.params.p_send == pytest.approx(0.1, rel=0.05)


def test_monotone_improvement():
    spec = OptimizationSpec(variant="aopp", grid_mu=6, grid_p=6, restarts=3)
    result = optimize(spec, preset("rowF", 240.0))
    assert result.restarts
    for record in result.restarts:
        assert record.final_value >= record.start_value


def test_zero_rate_beyond_cutoff():
    spec = OptimizationSpec(variant="finite", grid_mu=6, grid_p=6, grid_pz=2,
                            restarts=2, delta_values=(2.0 * math.pi / 16.0,))
    result = optimize(spec, preset("rowA", 600.0))
    assert result.rate == 0.0
    assert not result.positive


def test_reported_rate_matches_reevaluation():
    spec = OptimizationSpec(variant="aopp", grid_mu=8, grid_p=8, restarts=2)
    exp = preset("rowF", 240.0)
    result = optimize(spec, exp)
    point = evaluate(exp, result.params, "aopp")
    assert result.rate == pytest.approx(point.key.rate, rel=1e-12)


def test_rate_non_increasing_with_distance():
    spec = OptimizationSpec(variant="aopp", grid_mu=8, grid_p=8, restarts=2)
    rates = [optimize(spec, preset("rowF", L)).rate for L in (150.0, 200.0, 250.0, 300.0)]
    for near, far in zip(rates, rates[1:]):
        assert far <= near * (1.0 + 1e-3)


def test_delta_choices_cover_spec_set():
    assert DELTA_CHOICES[0] == pytest.approx(2.0 * math.pi / 4.0)
    assert DELTA_CHOICES[-1] == pytest.approx(2.0 * math.pi / 32.0)
    assert len(DELTA_CHOICES) == 29


def test_budget_limits_evaluations():
    spec = OptimizationSpec(variant="aopp", grid_mu=6, grid_p=6, restarts=2, budget=500)
    result = optimize(spec, preset("rowF", 240.0))
    # grid plus refinement overhead stays near the requested budget
    assert result.evaluations <= 1200


def test_result_carries_python_floats_only():
    spec = OptimizationSpec(variant="finite", grid_mu=4, grid_p=4, grid_pz=2, restarts=2,
                            budget=300, delta_values=(2.0 * math.pi / 16.0,))
    result = optimize(spec, preset("table2", 300.0))
    assert any(r.final != r.start for r in result.restarts)
    for field in dataclasses.fields(result.params):
        value = getattr(result.params, field.name)
        for item in value if isinstance(value, tuple) else (value,):
            assert type(item) is float, (field.name, value)
    assert type(result.key_length) is float and type(result.rate) is float
    assert all(type(r.final_value) is float for r in result.restarts)


@pytest.mark.parametrize("kwargs", [{"variant": "bogus"},
                                    {"variant": "aopp", "convention": "Mixing"}])
def test_spec_refuses_unknown_variant_or_convention(kwargs):
    # inside the search a ValueError only scores a point invalid, so the spec
    # used to return rate 0 with key length -1e30
    with pytest.raises(ValueError, match="unknown"):
        OptimizationSpec(**kwargs)
