"""The four benchmark workloads: how each builds its inputs, runs one
iteration through the public API or the CLI, checks its outputs against the
recorded references, and turns its timings into the metrics it owns.

A measured workload runs in the benchmark's process, on one thread, as a
closed loop: each call starts after the previous one returns.  README.md
says why each workload was chosen.
"""

from __future__ import annotations

import gzip
import json
import math
import random
import statistics
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
REFERENCES = Path(__file__).resolve().parent / "references.json"
GRID_REFERENCES = Path(__file__).resolve().parent / "point_grid_refs.json.gz"

# "full" is the measured size, "probe" the size of one short slice of a
# workload that supplies the metrics it owns to another workload's run (see
# probes.py), and "smoke" the tiny size the benchmark's own tests use.
SIZES = {
    "full": {"range": "50:500:50", "variants": "refined,bfer,aopp", "budget": None,
             "grid_stride": 1, "bits": 1_000_000, "n_seeds": 4, "grid_points": 100},
    "probe": {"range": "100:100:50", "variants": "bfer,aopp", "budget": None,
              "grid_stride": 3, "bits": 100_000, "n_seeds": 1, "grid_points": 30},
    "smoke": {"range": "100:300:200", "variants": "refined,bfer,aopp", "budget": 500,
              "grid_stride": 100, "bits": 100_000, "n_seeds": 1, "grid_points": 10},
}

# Optimized rates may beat the recorded optimum (a more thorough search is
# not an error) but not by more than OPT_ABOVE; falling below it by more
# than OPT_BELOW means the optimum was lost.  A fixed-parameter rate is a
# difference of key terms, so its tolerance scales with the largest term.
OPT_BELOW = 0.02
OPT_ABOVE = 0.05
EVALUATIONS_TOL = 0.10
GRID_RTOL = 1e-6
# mc-verify always samples from this base seed, the one its references were
# recorded with: its 5-sigma z-test flags about 0.5 % of 1M-bit seeds at the
# verify fixture (rare pair classes with expected counts below 1; see
# README.md), so a reference exit code holds only for the seeds it was
# recorded on.
MC_SEED = 0


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def _optimized_ok(rate: float, ref: float) -> bool:
    if not math.isfinite(rate):
        return False
    if ref == 0.0:
        return rate == 0.0
    return -OPT_BELOW <= rate / ref - 1.0 <= OPT_ABOVE


class AsymCurve:
    """Asymptotic rate-versus-distance curve through the CLI scan."""

    name = "asym-curve"
    owns = ("opt_points_per_s", "key_rate")
    traced = (
        "cli.cmd_scan", "optimizer.optimize", "optimizer.minimize", "pipeline.evaluate",
        "channel.window_rates", "mathcore.bessel_i0", "postproc.z_window_counts",
        "postproc.bfer_expectations", "postproc.aopp", "postproc.key_length_refined",
        "postproc.key_length_bfer", "postproc.key_length_aopp",
    )

    def build(self, seed: int, size: str):
        out = OUT / f"{self.name}-{size}-{seed}.csv"
        variants = SIZES[size]["variants"]
        return [
            "scan", "--preset", "rowD", "--variant", variants,
            "--range", SIZES[size]["range"], "--seed", str(seed), "--out", str(out),
        ], out, variants.split(",")

    def run(self, inputs):
        import snsqkd.cli

        argv, out, variants = inputs
        code = snsqkd.cli.main(argv)
        header = None
        rows = {}
        for line in out.read_text().splitlines():
            if line.startswith("#"):
                continue
            cells = line.split(",")
            if header is None:
                header = cells
                continue
            row = dict(zip(header, cells))
            rows[row["distance_km"]] = {
                v: float.fromhex(row[f"{v}_rate_hex"]) for v in variants
            }
        return code, rows

    @staticmethod
    def distances(argv) -> list[str]:
        """Distance labels as the scan writes them."""
        lo, hi, step = (int(x) for x in argv[argv.index("--range") + 1].split(":"))
        return [f"{d:g}" for d in range(lo, hi + 1, step)]

    def check(self, result, inputs, refs, tally: Tally):
        code, rows = result
        tally.check(code == 0, f"scan exit code {code}")
        for distance in self.distances(inputs[0]):
            for variant in inputs[2]:
                ref = float.fromhex(refs["asym_curve"][distance][variant])
                got = rows.get(distance, {}).get(variant, math.nan)
                tally.check(_optimized_ok(got, ref), f"{variant}@{distance}km: {got!r} vs {ref!r}")
        return rows

    def metrics(self, walls, summaries, inputs, refs, sampler) -> dict[str, float]:
        rows = summaries[-1]
        curve = refs["asym_curve"]
        logs = [
            math.log(max(rows[d][v], 1e-300))
            for d in rows
            for v in inputs[2]
            if float.fromhex(curve[d][v]) > 0.0
        ]
        points = len(rows) * len(inputs[2])
        return {
            "opt_points_per_s": points / statistics.median(walls),
            "key_rate": math.exp(sum(logs) / len(logs)),
        }


class Finite502:
    """The paper's finite-size point: table2 preset at 502 km."""

    name = "finite-502"
    owns = ("key_rate",)
    traced = (
        "optimizer.optimize", "optimizer.minimize", "pipeline.evaluate",
        "channel.window_rates", "channel.x_window_rates", "mathcore.bessel_i0",
        "mathcore.simpson", "mathcore.find_root", "decoy.decoy_observations",
        "decoy.untagged_decoy", "chernoff.post_rejection_bounds",
        "postproc.z_window_counts", "postproc.bfer_expectations", "postproc.key_length_finite",
    )

    def build(self, seed: int, size: str):
        import snsqkd

        budget = SIZES[size]["budget"]
        extra = {} if budget is None else {"budget": budget}
        spec = snsqkd.OptimizationSpec(variant="finite", seed=seed, **extra)
        return spec, snsqkd.preset("table2", 502.0), size

    def run(self, inputs):
        import snsqkd.optimizer

        spec, exp, _ = inputs
        return snsqkd.optimizer.optimize(spec, exp)

    def check(self, result, inputs, refs, tally: Tally):
        ref = refs["finite_502"][inputs[2]]
        ref_rate = float.fromhex(ref["rate"])
        evals_ok = abs(result.evaluations / ref["evaluations"] - 1.0) <= EVALUATIONS_TOL
        tally.check(
            _optimized_ok(result.rate, ref_rate) and evals_ok,
            f"rate {result.rate!r} vs {ref_rate!r}, evaluations {result.evaluations} "
            f"vs {ref['evaluations']}",
        )
        return result.rate

    def metrics(self, walls, summaries, inputs, refs, sampler) -> dict[str, float]:
        return {"key_rate": statistics.median(summaries)}


class PointGrid:
    """One pipeline.evaluate call per point, no optimizer, shuffled order."""

    name = "point-grid"
    owns = ("asym_eval_us_p50", "asym_eval_us_p99", "finite_eval_us_p50", "finite_eval_us_p99")
    traced = (
        "pipeline.evaluate", "channel.window_rates", "channel.x_window_rates",
        "mathcore.bessel_i0", "mathcore.simpson", "mathcore.find_root",
        "decoy.decoy_observations", "decoy.untagged_decoy", "chernoff.post_rejection_bounds",
        "postproc.z_window_counts", "postproc.bfer_expectations", "postproc.odd_parity_sift",
        "postproc.aopp", "postproc.key_length_original", "postproc.key_length_refined",
        "postproc.key_length_bfer", "postproc.key_length_oddsift", "postproc.key_length_aopp",
        "postproc.key_length_finite",
    )

    @staticmethod
    def protocol_sets():
        """Set A is valid in every mode.  Set B puts mu1 + mu2 at mu_z, so every
        finite call is a decoy-bound violation (an expected ValueError)."""
        from snsqkd import ProtocolParams

        return (
            ProtocolParams(p_z=0.9, p_send=0.1, mu_z=0.4, decoy_intensities=(0.0, 0.05, 0.15)),
            ProtocolParams(p_z=0.95, p_send=0.3, mu_z=0.15, decoy_intensities=(0.0, 0.05, 0.1),
                           delta=2.0 * math.pi / 24.0),
        )

    @staticmethod
    def canonical_calls(stride: int):
        """(index in the full grid, exp, proto, variant) in reference order."""
        from snsqkd import PRESETS, VARIANTS

        calls = []
        index = 0
        for preset_name in sorted(PRESETS):
            for proto in PointGrid.protocol_sets():
                for variant in VARIANTS:
                    for distance in range(0, 601):
                        if distance % stride == 0:
                            exp = PRESETS[preset_name].at_distance(float(distance))
                            calls.append((index, exp, proto, variant))
                        index += 1
        return calls

    def build(self, seed: int, size: str):
        calls = self.canonical_calls(SIZES[size]["grid_stride"])
        random.Random(seed).shuffle(calls)
        return calls

    def run(self, inputs):
        import snsqkd.pipeline

        evaluate = snsqkd.pipeline.evaluate
        clock = time.perf_counter
        outcomes = []
        # per mode: start and end of every call that returned a result
        calls = {"asymptotic": (array("d"), array("d")), "finite": (array("d"), array("d"))}
        for index, exp, proto, variant in inputs:
            t0 = clock()
            try:
                point = evaluate(exp, proto, variant)
            except Exception as err:  # checked against the reference's exception class
                outcomes.append((index, type(err).__name__, None))
                continue
            t1 = clock()
            starts, ends = calls[point.mode]
            starts.append(t0)
            ends.append(t1)
            outcomes.append((index, point.key.rate, point.key))
        return outcomes, calls

    def check(self, result, inputs, refs, tally: Tally):
        grid_refs = refs["point_grid"]
        outcomes, calls = result
        for index, value, key in outcomes:
            ref = grid_refs[index]
            if ref.startswith("!"):
                tally.check(value == ref[1:], f"call {index}: {value!r} vs {ref}")
                continue
            if key is None:
                tally.check(False, f"call {index}: raised {value} vs {ref}")
                continue
            terms = (key.untagged_term, key.phase_term, key.ec_term, key.finite_penalty)
            scale = sum(abs(t) for t in terms) / key.total_pulses
            ok = math.isfinite(value) and abs(value - float.fromhex(ref)) <= GRID_RTOL * scale
            tally.check(ok, f"call {index}: {value!r} vs {ref}")
        return calls

    def metrics(self, walls, summaries, inputs, refs, sampler) -> dict[str, float]:
        """Percentiles per pass over the grid, then the median over passes, so
        that a burst of noise inside one pass does not carry the 99th."""
        import numpy as np

        out = {}
        for mode, prefix in (("asymptotic", "asym"), ("finite", "finite")):
            per_pass = [np.percentile(sampler.normalized_many(*calls[mode]) * 1e6, [50.0, 99.0])
                        for calls in summaries]
            out[f"{prefix}_eval_us_p50"] = statistics.median(float(p[0]) for p in per_pass)
            out[f"{prefix}_eval_us_p99"] = statistics.median(float(p[1]) for p in per_pass)
        return out

    @staticmethod
    def sample_counts(summaries) -> dict[str, int]:
        return {mode: sum(len(calls[mode][0]) for calls in summaries)
                for mode in ("asymptotic", "finite")}


class Verify:
    """Both verifiers: the Monte Carlo oracle and the pair-state checker."""

    name = "verify"
    owns = ("mc_mbit_per_s", "qubit_check_s")
    traced = (
        "cli.cmd_mc_verify", "cli.cmd_qubit_check", "pipeline.evaluate",
        "channel.window_rates", "mathcore.bessel_i0", "postproc.z_window_counts",
        "postproc.bfer_expectations", "mcsim.sample_string", "mcsim.run_bfer",
        "mcsim.run_aopp", "mcsim.compare", "qubitmodel.verify_iteration_inequality",
        "qubitmodel.odd_parity_survivor",
    )

    def build(self, seed: int, size: str):
        refs = load_references()["verify"]
        OUT.mkdir(exist_ok=True)
        config = OUT / f"{self.name}-{size}-{seed}.conf"
        proto = {k: float.fromhex(v) for k, v in refs["protocol"].items()}
        config.write_text("".join(f"{k} = {v!r}\n" for k, v in proto.items()))
        sz = SIZES[size]
        mc_out = OUT / f"{self.name}-{size}-{seed}.mc.csv"
        qc_out = OUT / f"{self.name}-{size}-{seed}.qc.txt"
        mc_argv = [
            "mc-verify", "--config", str(config), "--preset", "rowC", "--distance", "100",
            "--variant", "bfer", "--bits", str(sz["bits"]), "--n-seeds", str(sz["n_seeds"]),
            "--seed", str(MC_SEED), "--out", str(mc_out),
        ]
        qc_argv = ["qubit-check", "--grid-points", str(sz["grid_points"]), "--out", str(qc_out)]
        return mc_argv, mc_out, qc_argv, sz["bits"] * sz["n_seeds"], size

    def run(self, inputs):
        import snsqkd.cli

        mc_argv, mc_out, qc_argv, _, _ = inputs
        t0 = time.perf_counter()
        mc_code = snsqkd.cli.main(mc_argv)
        t1 = time.perf_counter()
        qc_code = snsqkd.cli.main(qc_argv)
        t2 = time.perf_counter()
        rows = [line.split(",") for line in mc_out.read_text().splitlines()
                if not line.startswith("#")]
        return {"mc_code": mc_code, "qc_code": qc_code, "rows": rows, "times": (t0, t1, t2)}

    def check(self, result, inputs, refs, tally: Tally):
        ref = refs["verify"]["exit"][inputs[4]]
        tally.check(result["mc_code"] == ref["mc"], f"mc-verify exit {result['mc_code']}")
        tally.check(result["qc_code"] == ref["qubit"], f"qubit-check exit {result['qc_code']}")
        for row in result["rows"]:
            tally.check(len(row) == 5 and math.isfinite(float(row[4])),
                        f"statistic {row[0]} flagged: {','.join(row)}")
        return result["times"]

    def metrics(self, walls, summaries, inputs, refs, sampler) -> dict[str, float]:
        mc = [sampler.normalized(t0, t1) for t0, t1, _ in summaries]
        qc = [sampler.normalized(t1, t2) for _, t1, t2 in summaries]
        return {"mc_mbit_per_s": inputs[3] / 1e6 / statistics.median(mc),
                "qubit_check_s": statistics.median(qc)}


WORKLOADS = {w.name: w for w in (AsymCurve(), Finite502(), PointGrid(), Verify())}


def load_grid_references() -> list[str]:
    with gzip.open(GRID_REFERENCES, "rt") as fh:
        return json.load(fh)
