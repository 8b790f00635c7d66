"""Key-rate benchmark for snsqkd.

    python3 perfbench/run.py --workload asym-curve --seed 1 --seconds 22 --trace 0

Runs one workload (asym-curve, finite-502, point-grid, verify) from the
source tree next to this directory, checks every output against the recorded
references, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
stamps the run (interpreter and library versions, git revision, cores, load
average) and carries the details behind the metrics.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` re-runs the
workload with every traced function wrapped and reports the per-layer
metrics.  ``--smoke`` shrinks every size for the benchmark's own tests.
README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import probes
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "opt_points_per_s": "1/s",
    "key_rate": "bit/pulse",
    "asym_eval_us_p50": "us",
    "asym_eval_us_p99": "us",
    "finite_eval_us_p50": "us",
    "finite_eval_us_p99": "us",
    "mc_mbit_per_s": "Mbit/s",
    "qubit_check_s": "s",
}
SETUP_REPEATS = 5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for self-tests")
    return parser.parse_args(argv)


def git_revision() -> str:
    """HEAD of the checkout, with '+dirty' for uncommitted changes, or 'unknown'."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                              capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, env=env, timeout=30, capture_output=True, text=True,
                               check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head + ("+dirty" if dirty else "")


def stamp() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def measure_setup(name: str, seed: int, size: str, repeats: int) -> float:
    """Median time, in fresh interpreters, to import snsqkd and snsqkd.cli and
    build the workload's inputs, normalized for machine speed."""
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
        "import calibration\n"
        "with calibration.SpeedSampler() as sampler:\n"
        "    t0 = time.perf_counter()\n"
        "    import snsqkd, snsqkd.cli, workloads\n"
        f"    workloads.WORKLOADS[{name!r}].build({seed}, {size!r})\n"
        "    t1 = time.perf_counter()\n"
        "print(sampler.normalized(t0, t1))\n"
    )
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def timed_loop(workload, inputs, seconds: float, refs, tally, sampler, between=None,
               iterations: int | None = None):
    """Run iterations until the next one would end past ``seconds`` (at least
    one), or exactly ``iterations`` of them; check each iteration's outputs
    outside the timed region.

    ``between`` runs before the first iteration, after each one and then
    until ``seconds`` are used up, outside the timed region, with the speed
    sampler stopped; it returns its own duration.  Returns the normalized and
    the raw iteration times and the per-iteration summaries.
    """
    walls, raw, summaries, gaps = [], [], [], []

    def pause():
        if between is not None:
            sampler.stop()
            gaps.append(between())
            sampler.start()

    begin = time.perf_counter()
    pause()
    while True:
        t0 = time.perf_counter()
        result = workload.run(inputs)
        t1 = time.perf_counter()
        raw.append(t1 - t0)
        walls.append(sampler.normalized(t0, t1))
        summaries.append(workload.check(result, inputs, refs, tally))
        del result
        pause()
        if iterations is not None:
            if len(walls) == iterations:
                return walls, raw, summaries
            continue
        predicted = statistics.median(raw) + (statistics.median(gaps) if gaps else 0.0)
        if time.perf_counter() - begin + predicted > seconds:
            break
    # rounds of ``between`` fill the rest of the stretch, so that a workload
    # with few long iterations still gets several rounds spread over it
    while gaps and 0.0 < statistics.median(gaps) <= seconds - (time.perf_counter() - begin):
        pause()
    return walls, raw, summaries


def probe_plan(workload) -> tuple[list[str], list[str]]:
    """The owners to probe and the metrics they supply to ``workload``."""
    covered = set(workload.owns)
    owners, wanted = [], []
    for owner in workloads.WORKLOADS.values():
        need = [m for m in owner.owns if m not in covered]
        if need:
            owners.append(owner.name)
            wanted += need
            covered.update(need)
    return owners, wanted


def end_to_end(workload, args, size, refs, tally, detail) -> dict[str, float]:
    setup_s = measure_setup(workload.name, args.seed, size, 1 if args.smoke else SETUP_REPEATS)
    inputs = workload.build(args.seed, size)
    owners, wanted = probe_plan(workload)
    client = probes.ProbeClient(args.seed, "smoke" if args.smoke else "probe", owners, wanted)
    try:
        with calibration.SpeedSampler() as sampler:
            walls, raw, summaries = timed_loop(workload, inputs, args.seconds, refs, tally,
                                               sampler, between=client.slice)
            metrics = workload.metrics(walls, summaries, inputs, refs, sampler)
        report = client.finish()
    finally:
        client.close()
    metrics.update(report["metrics"])
    metrics.update(
        setup_s=setup_s,
        wall_s=statistics.median(walls),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    tally.attempted += report["attempted"]
    tally.failed += report["failed"]
    tally.reasons += report["reasons"]
    metrics["ok_share"] = 1.0 - tally.failed / tally.attempted
    detail.update(walls_s=walls, raw_walls_s=raw, speed=sampler.speed())
    if workload.name == "point-grid":
        detail["latency_samples"] = workloads.PointGrid.sample_counts(summaries)
    detail["probes"] = {key: report[key] for key in ("walls_s", "raw_walls_s", "latency_samples")}
    return {name: metrics[name] for name in END_TO_END_UNITS}


def per_layer(workload, args, size, refs, tally, detail) -> tuple[dict, list[str]]:
    inputs = workload.build(args.seed, size)
    tracer = tracing.Tracer()

    def next_iteration() -> float:
        tracer.current_op += 1
        return 0.0

    with calibration.SpeedSampler() as sampler:
        untraced, untraced_raw, _ = timed_loop(workload, inputs, args.seconds / 2.0, refs,
                                               tally, sampler)
        tracer.current_op = -1
        tracer.install()
        try:
            traced, traced_raw, _ = timed_loop(workload, inputs, 0.0, refs, tally, sampler,
                                               between=next_iteration,
                                               iterations=len(untraced))
        finally:
            tracer.uninstall()
    spans = workloads.OUT / f"spans-{workload.name}-{size}-{args.seed}.npz"
    tracer.write(spans)
    calls = tracer.calls()
    uncovered = tracer.missing + [name for name in workload.traced if calls[name] == 0]
    detail.update(untraced_walls_s=untraced, traced_walls_s=traced,
                  untraced_raw_walls_s=untraced_raw, traced_raw_walls_s=traced_raw,
                  spans_file=str(spans), span_count=sum(calls.values()), uncovered=uncovered)
    mbit = workloads.SIZES[size]["bits"] / 1e6
    return tracing.reduce(tracer, traced, untraced, traced_raw, mbit), uncovered


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "snsqkd" / "__init__.py").is_file():
        print(f"error: no snsqkd source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import snsqkd

    if Path(snsqkd.__file__).resolve().parent != SRC / "snsqkd":
        print(f"error: imported snsqkd from {snsqkd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import snsqkd.cli  # noqa: F401  (imported here so that no timed region pays for it)

    run_stamp = stamp()
    workloads.OUT.mkdir(exist_ok=True)
    size = "smoke" if args.smoke else "full"
    workload = workloads.WORKLOADS[args.workload]
    refs = workloads.load_references()
    refs["point_grid"] = workloads.load_grid_references()
    tally = workloads.Tally()
    detail: dict = {"workload": workload.name, "seed": args.seed, "size": size}

    if args.trace:
        values, uncovered = per_layer(workload, args, size, refs, tally, detail)
        units = tracing.PER_LAYER_UNITS
    else:
        values, uncovered = end_to_end(workload, args, size, refs, tally, detail), []
        units = END_TO_END_UNITS

    run_stamp["loadavg_end"] = os.getloadavg()
    detail["failures"] = tally.reasons
    for name in uncovered:
        print(f"error: traced function {name} never ran", file=sys.stderr)
    for reason in tally.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps({"stamp": run_stamp, "detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0 and not uncovered,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
