"""A scan starts each variant's search from its optimum at the previous
distance; these tests hold the chained rates to a cold search at every
distance."""

import contextlib
import dataclasses
import functools
import io

import pytest

from snsqkd import cli
from snsqkd.cli import main
from snsqkd.optimizer import OptimizationSpec, optimize
from snsqkd.presets import preset

VARIANTS = ("original", "bfer", "aopp")
DISTANCES = tuple(float(d) for d in range(0, 701, 50))


def scan_rates(argv):
    """Each variant's rates, by distance, from a scan written to stdout."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(argv) == 0
    lines = [line for line in text.getvalue().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    variants = [name[: -len("_rate_hex")] for name in header if name.endswith("_rate_hex")]
    return {v: [float.fromhex(row[f"{v}_rate_hex"]) for row in rows] for v in variants}


@functools.lru_cache(maxsize=None)
def warm_and_cold(row):
    warm = scan_rates(["scan", "--preset", row, "--variant", ",".join(VARIANTS),
                       "--range", "0:700:50"])
    cold = {v: [optimize(OptimizationSpec(variant=v), preset(row, d)).rate for d in DISTANCES]
            for v in VARIANTS}
    return warm, cold


@pytest.mark.parametrize("row", ["rowA", "rowD", "rowF"])
def test_chained_rates_match_a_cold_search(row):
    warm, cold = warm_and_cold(row)
    for variant in VARIANTS:
        for distance, w, c in zip(DISTANCES, warm[variant], cold[variant]):
            where = f"{row} {variant} at {distance:g} km: {w!r} vs {c!r}"
            assert (w > 0.0) == (c > 0.0), where
            if c > 0.0:
                assert abs(w / c - 1.0) <= 1e-6, where


def test_chained_cutoff_is_the_cold_cutoff():
    warm, cold = warm_and_cold("rowD")
    last = {side: max(d for d, r in zip(DISTANCES, rates["aopp"]) if r > 0.0)
            for side, rates in (("warm", warm), ("cold", cold))}
    assert last["warm"] == last["cold"] < DISTANCES[-1]


def test_a_zero_from_a_warm_start_is_confirmed_cold(monkeypatch):
    # every warm search is made to report zero: each distance then runs cold
    # and keeps the cold optimum
    starts = []

    def failing_warm(spec, exp, start=None):
        starts.append(start is not None)
        result = optimize(spec, exp, start=start)
        return result if start is None else dataclasses.replace(result, key_length=0.0, rate=0.0)

    monkeypatch.setattr(cli, "optimize", failing_warm)
    rates = scan_rates(["scan", "--preset", "rowC", "--variant", "aopp", "--range", "100:200:50"])
    assert starts == [False, True, False, True, False]
    assert rates["aopp"] == [optimize(OptimizationSpec(variant="aopp"), preset("rowC", d)).rate
                             for d in (100.0, 150.0, 200.0)]


def test_two_runs_of_a_chained_scan_write_the_same_bytes(tmp_path):
    # the chain's optima live in one run: the second run starts cold again
    base = ["scan", "--preset", "rowC", "--variant", "aopp,bfer", "--range", "100:250:50",
            "--seed", "5"]
    for name in ("a.csv", "b.csv"):
        assert main(base + ["--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
