"""The benchmark's own tests, at the tiny smoke sizes.

    python3 -m pytest perfbench

They are kept out of the repository's tier-1 suite (pytest collects only
tests/ there), so timing noise cannot gate it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "0.1",
                         "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    stamp = json.loads(done.stdout.splitlines()[-2])["stamp"]
    assert {"python", "numpy", "scipy", "git", "nproc", "loadavg_start",
            "loadavg_end"} <= set(stamp)


def _corrupt(name: str, refs: dict) -> None:
    if name == "asym-curve":
        entry = refs["asym_curve"]["100"]
        entry["aopp"] = (2.0 * float.fromhex(entry["aopp"])).hex()
    elif name == "finite-502":
        entry = refs["finite_502"]["smoke"]
        entry["evaluations"] *= 2
    elif name == "point-grid":
        refs["point_grid"] = ["!ValueError"] * len(refs["point_grid"])
    else:
        refs["verify"]["exit"]["smoke"]["qubit"] = 1


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_outputs_are_checked_against_the_references(name):
    workload = workloads.WORKLOADS[name]
    refs = workloads.load_references()
    refs["point_grid"] = workloads.load_grid_references()
    inputs = workload.build(3, "smoke")
    result = workload.run(inputs)

    clean = workloads.Tally()
    workload.check(result, inputs, refs, clean)
    assert clean.attempted > 0 and clean.failed == 0, clean.reasons

    _corrupt(name, refs)
    corrupted = workloads.Tally()
    workload.check(result, inputs, refs, corrupted)
    assert corrupted.attempted == clean.attempted
    assert corrupted.failed > 0


def test_a_missing_traced_function_is_reported(monkeypatch):
    monkeypatch.setitem(tracing.SPANS, "mathcore.renamed", ("snsqkd.mathcore", "renamed"))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["snsqkd.mathcore.renamed"]


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_benchmark("--workload", "point-grid", "--seed", "1", "--seconds", "1",
                         cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
