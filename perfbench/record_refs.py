"""Record the correctness references the benchmark compares against.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_refs.py

It overwrites perfbench/references.json and perfbench/point_grid_refs.json.gz.
The references in the repository were recorded on the commit that added the
benchmark.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import snsqkd  # noqa: E402
from snsqkd.pipeline import evaluate  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    workloads.OUT.mkdir(exist_ok=True)
    asym = workloads.WORKLOADS["asym-curve"]
    code, rows = asym.run(asym.build(0, "full"))
    if code != 0:
        raise SystemExit(f"scan exited with {code}")
    curve = {d: {v: rate.hex() for v, rate in row.items()} for d, row in rows.items()}

    finite = {}
    for size in ("full", "smoke"):
        result = workloads.WORKLOADS["finite-502"].run(
            workloads.WORKLOADS["finite-502"].build(0, size))
        finite[size] = {"rate": result.rate.hex(), "evaluations": result.evaluations}

    # the verify workload fixes the protocol to this optimum, so it runs no optimizer
    proto = snsqkd.optimize(snsqkd.OptimizationSpec(variant="bfer"),
                            snsqkd.preset("rowC", 100.0)).params
    refs = {
        "asym_curve": curve,
        "finite_502": finite,
        "verify": {
            "protocol": {name: float(getattr(proto, name)).hex()
                         for name in ("p_z", "p_send", "mu_z", "mu1", "mu2", "delta")},
        },
    }
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    verify = workloads.WORKLOADS["verify"]
    refs["verify"]["exit"] = {}
    for size in ("full", "probe", "smoke"):
        result = verify.run(verify.build(0, size))
        refs["verify"]["exit"][size] = {"mc": result["mc_code"], "qubit": result["qc_code"]}
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")

    grid = []
    for _, exp, proto, variant in workloads.PointGrid.canonical_calls(1):
        try:
            grid.append(evaluate(exp, proto, variant).key.rate.hex())
        except Exception as err:  # the exception class is the recorded outcome
            grid.append("!" + type(err).__name__)
    with gzip.GzipFile(workloads.GRID_REFERENCES, "wb", mtime=0) as fh:
        fh.write(json.dumps(grid, separators=(",", ":")).encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
