import dataclasses
import functools
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

import snsqkd.optimizer
from snsqkd.optimizer import (
    _BOUNDS,
    DELTA_CHOICES,
    OptimizationSpec,
    _by_value,
    _geomspace,
    _grid_cells,
    _linspace,
    _search_size,
    minimize,
    optimize,
)
from snsqkd.channel import ProtocolParams, protocol_from_keys
from snsqkd.pipeline import evaluate
from snsqkd.postproc import KeyResult
from snsqkd.presets import PRESETS, preset


def test_synthetic_unimodal_recovery(monkeypatch):
    # negative quadratic in log intensity with a known maximizer
    target = math.log(0.3)

    def objective(exp, proto, *args, **kwargs):
        length = 100.0 - (math.log(proto.mu_z) - target) ** 2 - (proto.p_send - 0.1) ** 2
        return SimpleNamespace(key=KeyResult(length, 1.0, length, 0.0, 0.0, 0.0))

    monkeypatch.setattr(snsqkd.optimizer, "evaluate", objective)
    spec = OptimizationSpec(variant="aopp", grid_mu=8, grid_p=8, restarts=3)
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


def test_a_start_replaces_the_grid():
    spec = OptimizationSpec(variant="aopp")
    exp = preset("rowD", 200.0)
    cold = optimize(spec, exp)
    warm = optimize(spec, exp, start=cold.params)
    # one restart from the start's cell, which it never loses
    assert [r.start for r in warm.restarts] == [{"mu_z": cold.params.mu_z,
                                                  "p_send": cold.params.p_send}]
    assert warm.key_length >= cold.key_length
    assert warm.evaluations < cold.evaluations


@pytest.mark.parametrize("width, pivot", [(2, 2), (5, 1)], ids=["one-of-the-widths", "other"])
def test_a_start_is_scored_at_its_width_when_it_is_one_of_the_searchs(width, pivot):
    # a budget of one evaluation scores the start alone, at the pivot width
    spec = OptimizationSpec(variant="finite", delta_values=DELTA_CHOICES[:3], budget=1)
    start = ProtocolParams(p_z=0.9, p_send=0.1, mu_z=0.4, decoy_intensities=(0.0, 0.02, 0.1),
                           delta=DELTA_CHOICES[width])
    result = optimize(spec, preset("table2", 300.0), start=start)
    assert result.evaluations == 1
    assert result.params == dataclasses.replace(start, delta=DELTA_CHOICES[pivot])


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


def test_finite_search_at_a_tiny_failure_prob():
    # the finite penalty used to raise ZeroDivisionError here, past the
    # objective's ValueError handler
    spec = OptimizationSpec(variant="finite", grid_mu=4, grid_p=4, grid_pz=2, restarts=2,
                            budget=300, delta_values=(2.0 * math.pi / 16.0,))
    exp = dataclasses.replace(preset("table2", 300.0), failure_prob=1e-200)
    result = optimize(spec, exp)
    assert result.positive and math.isfinite(result.key_length)


@pytest.mark.parametrize("kwargs", [{"variant": "bogus"},
                                    {"variant": "aopp", "convention": "Mixing"}])
def test_spec_refuses_unknown_variant_or_convention(kwargs):
    # inside the search a ValueError only scores a point invalid, so the spec
    # used to return rate 0 with key length -1e30
    with pytest.raises(ValueError, match="unknown"):
        OptimizationSpec(**kwargs)


@pytest.mark.parametrize("kwargs, scored", [({"budget": 100}, 100), ({"budget": 144}, 144),
                                            ({"restarts": 0}, 144), ({"budget": 1}, 1)])
def test_grid_without_restarts_keeps_the_best_scored_cell(kwargs, scored):
    # the budget ends inside (or exactly at the end of) a 144-cell grid, or
    # no restart is asked for; the result used to be the first cell with rate 0
    spec = OptimizationSpec(variant="aopp", grid_mu=12, grid_p=12, **kwargs)
    exp = preset("rowF", 240.0)
    result = optimize(spec, exp)
    assert not result.restarts and result.evaluations == scored
    point = evaluate(exp, result.params, "aopp").key
    assert result.rate > 0.0
    assert (result.rate, result.key_length) == (point.rate, point.key_length)
    cells = snsqkd.optimizer._grid_cells(spec, snsqkd.optimizer._BOUNDS["asymptotic"])
    lengths = [evaluate(exp, protocol_from_keys(cell, result.params.delta), "aopp")
               .key.key_length for cell in cells[:scored]]
    assert result.key_length == max(lengths)


@pytest.mark.parametrize("kwargs", [{"grid_mu": 0}, {"grid_p": 0}, {"grid_pz": 0},
                                    {"restarts": -1}, {"budget": 0}, {"budget": -5}],
                         ids=lambda kwargs: "{}={}".format(*next(iter(kwargs.items()))))
def test_spec_refuses_search_sizes_that_break_the_search(kwargs):
    # an empty grid ended in an IndexError, restarts=-1 sliced the scored
    # cells from the end (143 restarts at rowC/100 km), and a budget below 1
    # still scored one cell
    (name,) = kwargs
    with pytest.raises(ValueError, match=name):
        OptimizationSpec(variant="finite", **kwargs)


@pytest.mark.parametrize("kwargs", [{"grid_mu": 2.5}, {"grid_p": 12.0}, {"grid_pz": True},
                                    {"restarts": 2.5}, {"budget": 1.5}, {"budget": "300"},
                                    {"grid_pz": None}, {"budget": None}],
                         ids=lambda kwargs: "{}={!r}".format(*next(iter(kwargs.items()))))
def test_spec_refuses_search_sizes_that_are_not_integers(kwargs):
    # grid_mu=2.5 ended in a TypeError inside np.geomspace, and a fractional
    # budget or restart count in "slice indices must be integers"
    (name,) = kwargs
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        OptimizationSpec(variant="aopp", **kwargs)


def test_spec_takes_numpy_integer_search_sizes():
    spec = OptimizationSpec(variant="aopp", grid_mu=np.int64(3), grid_p=np.int32(3), grid_pz=np.int8(1),
                            restarts=np.int64(0), budget=np.uint16(5))
    assert optimize(spec, preset("rowC", 100.0)).evaluations == 5


_SIZES = ("grid_mu", "grid_p", "restarts")


def test_finite_spec_keeps_its_search_size():
    spec = OptimizationSpec(variant="finite")
    assert [_search_size(spec, name) for name in _SIZES] == [12, 12, 5]
    assert len(_grid_cells(spec, _BOUNDS["finite"])) == 12 * 12 * 3


@pytest.mark.parametrize("variant, other, sizes", [("aopp", "finite", [12, 12, 5]),
                                                   ("finite", "aopp", [6, 6, 5])])
def test_replacing_the_variant_takes_the_new_modes_size(variant, other, sizes):
    # the sizes are resolved at the search, so a spec built for one mode
    # carries none of that mode's sizes into the other; given sizes are kept
    moved = dataclasses.replace(OptimizationSpec(variant=variant), variant=other)
    assert [_search_size(moved, name) for name in _SIZES] == sizes
    given = dataclasses.replace(OptimizationSpec(variant=variant, grid_mu=3, restarts=2),
                                variant=other)
    assert [_search_size(given, name) for name in _SIZES] == [3, sizes[1], 2]
    if other == "aopp":
        exp = preset("rowF", 240.0)
        assert optimize(moved, exp) == optimize(OptimizationSpec(variant="aopp"), exp)


def test_default_asymptotic_search_restarts_past_a_zero_corner():
    # 1 km before rowE's bfer cutoff the 6x6 grid ranks the (mu_z, p) corner
    # first, and a restart from it cannot leave the bounds; with one restart
    # the search returned rate 0 at 375-379 km
    result = optimize(OptimizationSpec(variant="bfer"), preset("rowE", 379.0))
    first = result.restarts[0]
    assert first.start == {"mu_z": 0.05, "p_send": 0.005} and first.final_value < 0.0
    assert result.positive and result.restarts[-1].final_value > 0.0
    assert all(record.final_value <= 0.0 for record in result.restarts[:-1])
    # an explicit count is kept: one restart means one
    single = optimize(OptimizationSpec(variant="bfer", restarts=1), preset("rowE", 379.0))
    assert len(single.restarts) == 1 and not single.positive


# the last positive whole kilometre of each preset's one-way (original,
# refined) and two-way (bfer, oddsift, aopp) variants under a 12x12 grid with
# five restarts
_LAST_POSITIVE_KM = {"rowA": (449, 512), "rowB": (449, 512), "rowC": (451, 520),
                     "rowD": (339, 408), "rowE": (304, 379), "rowF": (269, 349),
                     "table2": (481, 570)}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_default_asymptotic_search_keeps_the_larger_searchs_rates(name):
    # one restart from a 6x6 grid, against the 12x12 grid with five restarts
    # it replaced: within 1e-6 relative, and positive on the same side of
    # every cutoff
    for variant in ("original", "refined", "bfer", "oddsift", "aopp"):
        last = _LAST_POSITIVE_KM[name][variant not in ("original", "refined")]
        for distance in (50.0, last, last + 1.0):
            exp = preset(name, distance)
            small = optimize(OptimizationSpec(variant=variant), exp).rate
            large = optimize(OptimizationSpec(variant=variant, grid_mu=12, grid_p=12, restarts=5),
                             exp).rate
            assert (small > 0.0, large > 0.0) == (distance <= last, distance <= last)
            assert small == pytest.approx(large, rel=1e-6, abs=0.0), (variant, distance)


@pytest.mark.parametrize("deltas", [(), (0.0,), (-0.1,), (2.0 * math.pi + 1e-9,), (math.nan,),
                                    (0.4, 7.0), (True,), ("0.3",)])
def test_spec_refuses_empty_or_out_of_range_slice_widths(deltas):
    # an empty set used to end in an IndexError at the pivot slice width; True
    # was taken as a 1-radian slice and a string raised a bare TypeError
    with pytest.raises(ValueError, match=r"delta_values must be a non-empty set of widths in \(0, 2\*pi\]"):
        OptimizationSpec(variant="aopp", delta_values=deltas)


def test_spec_stores_slice_widths_as_floats():
    spec = OptimizationSpec(variant="finite", delta_values=[np.float32(0.5), 1, 2.0 * math.pi])
    assert spec.delta_values == (float(np.float32(0.5)), 1.0, 2.0 * math.pi)
    assert all(type(d) is float for d in spec.delta_values)


# rowD points whose refinements ran to their evaluation cap while an absolute
# function-value tolerance of 1e-12 asked vertices with key lengths near
# 1e5-1e9 to agree to the bit: the searches took 7,982, 7,781, 4,971 and 5,064
# evaluations and found these rates
STALLED_SEARCHES = {
    "refined@50": ("refined", 50.0, "0x1.823fdc3d4b9b0p-11"),
    "bfer@50": ("bfer", 50.0, "0x1.1bde1816015f8p-11"),
    "refined@200": ("refined", 200.0, "0x1.54e1e16b7bed0p-16"),
    "bfer@350": ("bfer", 350.0, "0x1.8209fade02e77p-22"),
}


@pytest.mark.parametrize("search", sorted(STALLED_SEARCHES))
def test_asymptotic_refinements_stop_when_the_simplex_converges(search):
    variant, distance, rate_hex = STALLED_SEARCHES[search]
    result = optimize(OptimizationSpec(variant=variant), preset("rowD", distance))
    assert result.evaluations <= 2000
    assert result.restarts and all(record.converged for record in result.restarts)
    assert result.rate == pytest.approx(float.fromhex(rate_hex), rel=1e-8)


# a small finite search whose two restarts both end at their evaluation cap,
# and its result recorded before optimize scored each repeated point once
CAPPED_FINITE = (
    OptimizationSpec(variant="finite", grid_mu=4, grid_p=4, grid_pz=2, restarts=2, budget=1500,
                     delta_values=(2.0 * math.pi / 16.0,)),
    preset("table2", 480.0),
)
CAPPED_FINITE_HEX = ("0x1.26294ecfb2adcp-24", "0x1.4e6c391fa061cp+20", 1133,
                     ("0x1.fae147ae147aep-1", "0x1.28ee36ba34cbbp-4", "0x1.67687615b74cfp-2",
                      "0x1.47ae147ae148cp-8", "0x1.47ae147ae147ep-6"))


def test_repeated_points_are_scored_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(snsqkd.optimizer, "evaluate", counted)
    result = optimize(*CAPPED_FINITE)
    assert result.restarts and not any(record.converged for record in result.restarts)
    params = tuple(getattr(result.params, name).hex()
                   for name in ("p_z", "p_send", "mu_z", "mu1", "mu2"))
    assert (result.rate.hex(), result.key_length.hex(), result.evaluations, params) \
        == CAPPED_FINITE_HEX
    assert result.repeated > 0
    # every distinct point once, and the optimum once more for its rate
    assert len(calls) == result.evaluations - result.repeated + 1 < result.evaluations


def test_interleaved_searches_share_no_scores(monkeypatch):
    # both searches score the same grid cells, so a score that outlived its
    # call, or was shared between calls, would land on the other's cells;
    # the rates are those each search gives alone, recorded before the memo
    spec = OptimizationSpec(variant="aopp", grid_mu=6, grid_p=6, restarts=2)
    outer_search = (spec, preset("rowC", 100.0))
    inner_search = (dataclasses.replace(spec, variant="bfer"), preset("rowF", 240.0))
    alone = {"outer": "0x1.32a6a25935ad8p-11", "inner": "0x1.2c4c197a00bd1p-20"}
    inner = []

    def evaluate_after_inner_search(*args, **kwargs):
        if not inner:
            inner.append(None)
            inner[0] = optimize(*inner_search)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(snsqkd.optimizer, "evaluate", evaluate_after_inner_search)
    outer = optimize(*outer_search)
    assert {"outer": outer.rate.hex(), "inner": inner[0].rate.hex()} == alone
    assert (outer.evaluations, inner[0].evaluations) == (168, 157)
    assert optimize(*outer_search) == outer and optimize(*inner_search) == inner[0]


def rosenbrock(x):
    x = [float(v) for v in x]
    return math.fsum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2 for a, b in zip(x, x[1:]))


def plateau(x):
    # the squared distance from (0.5, ..., 0.5) in steps of 1/8: most trial
    # points tie with a vertex, and most moves past the first few are shrinks
    return math.floor(8.0 * math.fsum((float(v) - 0.5) ** 2 for v in x)) / 8.0


def cliffs(x):
    # plateau() about (0.5, -0.45) between a NaN cliff past x0 = 0.75 and an
    # infinite one below x1 = -0.6; past x0 = 0.745 its zero scores -0.0,
    # which ties with 0.0
    x = [float(v) for v in x]
    if x[0] > 0.75:
        return math.nan
    if x[1] < -0.6:
        return math.inf
    value = plateau([x[0], x[1] + 0.95])
    return -0.0 if value == 0.0 and x[0] > 0.745 else value


# objective, start, bounds, maxfev
NELDER_MEAD_CASES = {
    "rosenbrock-2d": (rosenbrock, [-1.2, 1.0], [(-2.0, 2.0), (-1.0, 3.0)], 1000),
    # the optimum (1, ..., 1) lies outside the box, past the second upper bound
    "rosenbrock-5d": (rosenbrock, [0.5, -0.4, 0.9, 1.3, 0.2],
                      [(-1.5, 1.5), (-1.5, 0.8), (-1.5, 1.5), (-1.5, 1.5), (-1.5, 1.5)], 4000),
    # the first two start steps land above their upper bounds and are
    # reflected inside; the zero coordinate takes the fixed step
    "above-upper-bound": (rosenbrock, [0.99, 1.95, 0.0],
                          [(-1.0, 1.0), (-2.0, 2.0), (-0.5, 0.5)], 2000),
    # five tied vertices: where numpy's default sort is not stable (numpy 2.4
    # on AVX-512), scipy's own order of ties ends this search elsewhere
    "plateau-4d": (plateau, [0.6, 0.0, 0.2, -0.8], [(-1.0, 1.0)] * 4, 2000),
    # the first shrink scores its four vertices at evaluations 34-37, so the
    # cap leaves it with two vertices scored and a third moved but unscored
    "cap-inside-shrink": (plateau, [0.6, 0.0, 0.2, -0.8], [(-1.0, 1.0)] * 4, 35),
    # the start simplex holds a NaN vertex (x0 past 0.75) and an infinite one
    # (x1 below -0.6); the search scores 3 NaNs, 13 infinities, 21 zeros and
    # 4 negative zeros, so where a replaced vertex lands among equal values
    # decides its steps
    "nan-inf-signed-zero": (cliffs, [0.74, -0.6], [(-1.0, 1.0)] * 2, 2000),
}


@pytest.mark.parametrize("fatol", [math.inf, 1e-12])
@pytest.mark.parametrize("case", sorted(NELDER_MEAD_CASES))
def test_minimize_takes_scipys_steps(case, fatol, monkeypatch):
    func, x0, bounds, maxfev = NELDER_MEAD_CASES[case]
    options = {"maxfev": maxfev, "xatol": 1e-4, "fatol": fatol}
    x, fun, nfev, converged = minimize(func, x0, bounds, **options)
    # scipy with minimize's tie rule: tied vertices keep their order
    monkeypatch.setattr(np, "argsort", functools.partial(np.argsort, kind="stable"))
    ref = scipy_minimize(func, x0, method="Nelder-Mead", bounds=bounds, options=options)
    assert [v.hex() for v in x] == [float(v).hex() for v in ref.x]
    assert (fun.hex(), nfev, converged) == (float(ref.fun).hex(), ref.nfev, bool(ref.success))
    assert all(type(v) is float for v in x)
    assert converged == (case != "cap-inside-shrink")


TIE_VALUES = (0.0, 1.0, 2.0, -0.0, math.inf, -math.inf, math.nan)


def ordered_like_argsort(size, **kwargs):
    """Arrays of ``size`` values from TIE_VALUES that ``_by_value`` orders
    differently from ``np.argsort(values, **kwargs)``."""
    mismatches = []
    for values in itertools.product(TIE_VALUES, repeat=size):
        order, ordered = _by_value(list(range(size)), list(values))
        expected = np.argsort(values, **kwargs).tolist()
        same_values = all(a is b for a, b in zip(ordered, (values[i] for i in order)))
        if order != expected or not same_values:
            mismatches.append(values)
    return mismatches


@pytest.mark.parametrize("size", range(1, 6))
def test_vertex_order_is_a_stable_sort_with_nan_last(size):
    # ties, 0.0 against -0.0 and NaNs keep their order; NaNs go after +inf
    assert ordered_like_argsort(size, kind="stable") == []


@pytest.mark.parametrize("size", range(1, 4))
def test_vertex_order_is_scipys_for_up_to_three_vertices(size):
    # an asymptotic simplex has three vertices, so its searches take the
    # steps they took under np.argsort's default kind, which scipy uses; that
    # kind is not stable for four or more entries on every platform
    assert ordered_like_argsort(size) == []


@pytest.mark.parametrize("mode, name", [(m, n) for m in _BOUNDS for n in _BOUNDS[m]])
def test_grid_axes_follow_numpy(mode, name):
    lo, hi = _BOUNDS[mode][name]
    for size in range(1, 41):
        assert _linspace(lo, hi, size) == np.linspace(lo, hi, size).tolist()
        geometric, reference = _geomspace(lo, hi, size), np.geomspace(lo, hi, size).tolist()
        assert (geometric[0], geometric[-1]) == (lo, lo if size == 1 else hi)
        assert (reference[0], reference[-1]) == (geometric[0], geometric[-1])
        assert all(abs(g - r) <= 4 * math.ulp(r) for g, r in zip(geometric, reference))
        assert all(type(v) is float for v in geometric)


@pytest.mark.parametrize("mode", sorted(_BOUNDS))
def test_grid_cells_cross_the_axes(mode):
    bounds = _BOUNDS[mode]
    spec = OptimizationSpec(variant="finite" if mode == "finite" else "aopp",
                            grid_mu=5, grid_p=4, grid_pz=3)
    cells = _grid_cells(spec, bounds)
    mus = _geomspace(*bounds["mu_z"], 5)
    ps = _geomspace(*bounds["p_send"], 4)
    pzs = _linspace(*bounds["p_z"], 3) if mode == "finite" else [None]
    assert [(c["mu_z"], c["p_send"], c.get("p_z")) for c in cells] \
        == list(itertools.product(mus, ps, pzs))
    if mode == "finite":
        # the start decoys: 0.05 and 0.2 times mu_z, within their bounds, mu2 >= 2 mu1
        (lo1, hi1), (lo2, hi2) = bounds["mu1"], bounds["mu2"]
        for c in cells:
            assert c["mu1"] == float(np.clip(0.05 * c["mu_z"], lo1, hi1))
            assert c["mu2"] == float(np.clip(0.2 * c["mu_z"], max(lo2, 2.0 * c["mu1"]), hi2))
