"""A scan starts each variant's search from its optimum at the previous
distance, and stops searching a variant after a zero found or confirmed by
a cold search; these tests hold the chained rates to a cold search at every
distance."""

import contextlib
import dataclasses
import functools
import io

import pytest

from snsqkd import cli
from snsqkd.channel import PROTOCOL_KEYS
from snsqkd.cli import main
from snsqkd.optimizer import OptimizationSpec, optimize
from snsqkd.pipeline import VARIANTS, mode_for_variant
from snsqkd.presets import PRESETS, preset

ASYMPTOTIC = tuple(v for v in VARIANTS if mode_for_variant(v) == "asymptotic")
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
    warm = scan_rates(["scan", "--preset", row, "--variant", ",".join(ASYMPTOTIC),
                       "--range", "0:700:50"])
    cold = {v: [optimize(OptimizationSpec(variant=v), preset(row, d)).rate for d in DISTANCES]
            for v in ASYMPTOTIC}
    return warm, cold


# the oracle that a stopped variant hides no positive rate: the cold search
# runs at every distance, past each cutoff too
@pytest.mark.parametrize("row", sorted(PRESETS))
def test_chained_rates_match_a_cold_search(row):
    warm, cold = warm_and_cold(row)
    for variant in ASYMPTOTIC:
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


def test_a_variant_is_not_searched_past_its_cold_confirmed_zero(monkeypatch, capsys):
    searches, results = [], []

    def counted(spec, exp, start=None):
        searches.append((exp.distance_km, "warm" if start is not None else "cold"))
        results.append(optimize(spec, exp, start=start))
        return results[-1]

    monkeypatch.setattr(cli, "optimize", counted)
    assert main(["scan", "--preset", "rowD", "--variant", "aopp", "--range", "400:600:50"]) == 0
    # 400 km is positive; the warm zero at 450 km is confirmed cold; 500-600 km are not searched
    assert searches == [(400.0, "cold"), (450.0, "warm"), (450.0, "cold")]
    lines = capsys.readouterr().out.splitlines()
    header = [line for line in lines if line.startswith("#")]
    assert "# aopp: zero from 450 km, not searched beyond" in header
    assert header[-1].startswith("# columns: ")  # the header block ends before the column names
    names, *data = [line.split(",") for line in lines if not line.startswith("#")]
    rows = [dict(zip(names, cells)) for cells in data]
    assert [row["distance_km"] for row in rows] == ["400", "450", "500", "550", "600"]
    assert float.fromhex(rows[0]["aopp_rate_hex"]) > 0.0
    confirming = results[-1].params  # the cold search at 450 km
    for row in rows[1:]:
        assert row["aopp_rate"] == "0.000000e+00" and row["aopp_rate_hex"] == "0x0.0p+0"
        for name in PROTOCOL_KEYS:
            assert row[f"aopp_{name}"] == f"{getattr(confirming, name):.6e}", name


def test_two_runs_of_a_chained_scan_write_the_same_bytes(tmp_path):
    # the chain's optima live in one run: the second run starts cold again;
    # the range crosses both cutoffs, so the header's stop lines are compared too
    base = ["scan", "--preset", "rowC", "--variant", "aopp,bfer", "--range", "400:650:50",
            "--seed", "5"]
    for name in ("a.csv", "b.csv"):
        assert main(base + ["--out", str(tmp_path / name)]) == 0
    text = (tmp_path / "a.csv").read_text()
    assert "# aopp: zero from 550 km, not searched beyond\n" in text
    assert "# bfer: zero from 550 km, not searched beyond\n" in text
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
