"""Span tracing from outside the program.

The traced run rebinds the public functions of each snsqkd module to timing
wrappers.  A function is rebound at every snsqkd module attribute that holds
it, so a name imported with ``from .x import f`` is traced where it is looked
up.  Each wrapper records one span (name, start, end, parent span, operation
id, outcome) into in-memory arrays; the spans are written out once the run
ends and reduced to the per-layer metrics.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
import warnings
from array import array
from pathlib import Path

import numpy as np

# span name -> (module that defines or imports the function, attribute)
SPANS = {
    "mathcore.bessel_i0": ("snsqkd.mathcore", "bessel_i0"),
    "mathcore.simpson": ("snsqkd.mathcore", "simpson"),
    "mathcore.find_root": ("snsqkd.mathcore", "find_root"),
    "channel.window_rates": ("snsqkd.channel", "window_rates"),
    "channel.x_window_rates": ("snsqkd.channel", "x_window_rates"),
    "decoy.decoy_observations": ("snsqkd.decoy", "decoy_observations"),
    "decoy.untagged_decoy": ("snsqkd.decoy", "untagged_decoy"),
    "chernoff.post_rejection_bounds": ("snsqkd.chernoff", "post_rejection_bounds"),
    "postproc.z_window_counts": ("snsqkd.postproc", "z_window_counts"),
    "postproc.bfer_expectations": ("snsqkd.postproc", "bfer_expectations"),
    "postproc.odd_parity_sift": ("snsqkd.postproc", "odd_parity_sift"),
    "postproc.aopp": ("snsqkd.postproc", "aopp"),
    "postproc.key_length_original": ("snsqkd.postproc", "key_length_original"),
    "postproc.key_length_refined": ("snsqkd.postproc", "key_length_refined"),
    "postproc.key_length_bfer": ("snsqkd.postproc", "key_length_bfer"),
    "postproc.key_length_finite": ("snsqkd.postproc", "key_length_finite"),
    "postproc.key_length_oddsift": ("snsqkd.postproc", "key_length_oddsift"),
    "postproc.key_length_aopp": ("snsqkd.postproc", "key_length_aopp"),
    "pipeline.evaluate": ("snsqkd.pipeline", "evaluate"),
    "optimizer.optimize": ("snsqkd.optimizer", "optimize"),
    "optimizer.minimize": ("snsqkd.optimizer", "minimize"),
    "cli.cmd_scan": ("snsqkd.cli", "cmd_scan"),
    "cli.cmd_mc_verify": ("snsqkd.cli", "cmd_mc_verify"),
    "cli.cmd_qubit_check": ("snsqkd.cli", "cmd_qubit_check"),
    "mcsim.sample_string": ("snsqkd.mcsim", "sample_string"),
    "mcsim.run_bfer": ("snsqkd.mcsim", "run_bfer"),
    "mcsim.run_aopp": ("snsqkd.mcsim", "run_aopp"),
    "mcsim.compare": ("snsqkd.mcsim", "compare"),
    "qubitmodel.verify_iteration_inequality": ("snsqkd.qubitmodel", "verify_iteration_inequality"),
    "qubitmodel.odd_parity_survivor": ("snsqkd.qubitmodel", "odd_parity_survivor"),
}

TWO_WAY = ("postproc.bfer_expectations", "postproc.odd_parity_sift", "postproc.aopp")
KEY_LENGTH = tuple(name for name in SPANS if name.startswith("postproc.key_length_"))
VACUOUS_MESSAGE = "expected count too small"

# per-layer metric name -> unit, in the order they are printed
PER_LAYER_UNITS = {
    "mathcore.bessel_i0.calls": "count",
    "mathcore.bessel_i0.us": "us",
    "mathcore.simpson.calls": "count",
    "mathcore.simpson.nodes": "count",
    "mathcore.simpson.us": "us",
    "mathcore.find_root.calls": "count",
    "mathcore.find_root.us": "us",
    "channel.window_rates.us": "us",
    "channel.x_window_rates.calls": "count",
    "channel.x_window_rates.us": "us",
    "decoy.decoy_observations.us": "us",
    "decoy.untagged_decoy.us": "us",
    "decoy.bound_violations": "count",
    "chernoff.post_rejection_bounds.calls": "count",
    "chernoff.post_rejection_bounds.us": "us",
    "chernoff.vacuous_lower": "count",
    "postproc.z_window_counts.us": "us",
    "postproc.two_way.us": "us",
    "postproc.key_length.us": "us",
    "pipeline.evaluate.calls": "count",
    "pipeline.evaluate.self_us": "us",
    "optimizer.evaluations": "count",
    "optimizer.valid_share": "share",
    "optimizer.minimize.calls": "count",
    "optimizer.minimize.self_ms": "ms",
    "optimizer.optimize.self_ms": "ms",
    "cli.cmd_scan.self_ms": "ms",
    "cli.cmd_mc_verify.self_ms": "ms",
    "cli.cmd_qubit_check.self_ms": "ms",
    "mcsim.sample_string.ms_per_mbit": "ms/Mbit",
    "mcsim.run_bfer.ms_per_mbit": "ms/Mbit",
    "mcsim.run_aopp.ms_per_mbit": "ms/Mbit",
    "mcsim.compare.us": "us",
    "mcsim.flagged": "count",
    "qubitmodel.verify_iteration_inequality.s": "s",
    "qubitmodel.odd_parity_survivor.calls": "count",
    "qubitmodel.odd_parity_survivor.us": "us",
    "trace.overhead_share": "share",
    "trace.covered_share": "share",
}

OK, BOUND_VIOLATION, OTHER_ERROR = 0, 1, 2


class Tracer:
    """In-memory span store plus the rebinding of traced functions."""

    def __init__(self) -> None:
        self.names = list(SPANS)
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.status = array("b")
        self.start = array("d")
        self.end = array("d")
        self.current_op = 0
        self.simpson_nodes = 0
        self.evaluations = 0
        self.positive_optimizations = 0
        self.vacuous = 0
        self.flagged = 0
        self.missing: list[str] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self._warnings = None
        self._recorded: list = []

    def _wrap(self, span_id: int, fn, bound_violation):
        name_id, parent, op, status = self.name_id, self.parent, self.op, self.status
        start, end, stack, clock = self.start, self.end, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(name_id)
            name_id.append(span_id)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            status.append(OK)
            start.append(0.0)
            end.append(0.0)
            stack.append(index)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except bound_violation:
                status[index] = BOUND_VIOLATION
                raise
            except BaseException:
                status[index] = OTHER_ERROR
                raise
            finally:
                end[index] = clock()
                start[index] = t0
                stack.pop()

        return traced

    def _counting_simpson(self, fn):
        def simpson(integrand, *args, **kwargs):
            def counted(nodes):
                self.simpson_nodes += np.size(nodes)
                return integrand(nodes)

            return fn(counted, *args, **kwargs)

        return simpson

    def _counting_optimize(self, fn):
        def optimize(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.evaluations += result.evaluations
            self.positive_optimizations += result.positive
            return result

        return optimize

    def _counting_compare(self, fn):
        def compare(*args, **kwargs):
            rows = fn(*args, **kwargs)
            self.flagged += sum(row.flagged for row in rows)
            return rows

        return compare

    def install(self) -> None:
        """Rebind every traced function at each snsqkd attribute holding it.

        A listed function that no longer exists is recorded in ``missing``;
        the coverage check then fails the run instead of letting a renamed
        function drop out of the trace and make its layer look free.
        """
        from snsqkd.decoy import BoundViolationError

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "snsqkd" or name.startswith("snsqkd.")]
        for span_id, (module_name, attr) in enumerate(SPANS.values()):
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            counting = {"simpson": self._counting_simpson, "optimize": self._counting_optimize,
                        "compare": self._counting_compare}.get(attr)
            inner = original if counting is None else counting(original)
            wrapper = self._wrap(span_id, inner, BoundViolationError)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, value))
                        setattr(module, key, wrapper)
        self._warnings = warnings.catch_warnings(record=True)
        self._recorded = self._warnings.__enter__()
        warnings.simplefilter("always")

    def uninstall(self) -> None:
        for module, key, value in reversed(self._saved):
            setattr(module, key, value)
        self._saved.clear()
        if self._warnings is not None:
            self.vacuous = sum(
                1 for w in self._recorded
                if issubclass(w.category, RuntimeWarning) and VACUOUS_MESSAGE in str(w.message)
            )
            self._warnings.__exit__(None, None, None)
            self._warnings = None

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "status": np.frombuffer(self.status, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def calls(self) -> dict[str, int]:
        counts = np.bincount(self.arrays()["name_id"], minlength=len(self.names))
        return {name: int(c) for name, c in zip(self.names, counts)}


def reduce(tracer: Tracer, traced_walls: list[float], untraced_walls: list[float],
           traced_raw_walls: list[float], mbit_per_sample: float) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced iterations.

    Counts are per iteration; ``.us``/``.ms``/``.s`` are medians per call of
    the raw span times; ``self`` is a span's duration minus the durations of
    its child spans.  Layers a workload does not reach report 0.  The wall
    times are normalized for machine speed (calibration.py), except the raw
    ones that ``trace.covered_share`` compares with the raw span times.
    """
    iterations = len(traced_walls)
    a = tracer.arrays()
    names = tracer.names
    duration = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                        minlength=len(duration))
    self_time = duration - child
    by_name = {name: np.flatnonzero(a["name_id"] == i) for i, name in enumerate(names)}

    def calls(*span_names) -> float:
        return sum(by_name[n].size for n in span_names) / iterations

    def median(values, scale: float) -> float:
        return float(np.median(values)) * scale if len(values) else 0.0

    def per_call(*span_names, scale=1e6) -> float:
        return median(np.concatenate([duration[by_name[n]] for n in span_names]), scale)

    def self_per_call(name, scale) -> float:
        return median(self_time[by_name[name]], scale)

    evaluate = by_name["pipeline.evaluate"]
    optimizer_parents = {names.index("optimizer.minimize"), names.index("optimizer.optimize")}
    parent_name = a["name_id"][a["parent"][evaluate]]
    objective_ok = np.isin(parent_name, list(optimizer_parents)) & (a["status"][evaluate] == OK)
    # the final evaluate of a positive optimization is not an objective call
    valid = int(objective_ok.sum()) - tracer.positive_optimizations
    simpson_calls = by_name["mathcore.simpson"].size
    untagged = by_name["decoy.untagged_decoy"]
    ms_per_mbit = 1e3 / mbit_per_sample

    metrics = {
        "mathcore.bessel_i0.calls": calls("mathcore.bessel_i0"),
        "mathcore.bessel_i0.us": per_call("mathcore.bessel_i0"),
        "mathcore.simpson.calls": calls("mathcore.simpson"),
        "mathcore.simpson.nodes": tracer.simpson_nodes / simpson_calls if simpson_calls else 0.0,
        "mathcore.simpson.us": per_call("mathcore.simpson"),
        "mathcore.find_root.calls": calls("mathcore.find_root"),
        "mathcore.find_root.us": per_call("mathcore.find_root"),
        "channel.window_rates.us": per_call("channel.window_rates"),
        "channel.x_window_rates.calls": calls("channel.x_window_rates"),
        "channel.x_window_rates.us": per_call("channel.x_window_rates"),
        "decoy.decoy_observations.us": per_call("decoy.decoy_observations"),
        "decoy.untagged_decoy.us": per_call("decoy.untagged_decoy"),
        "decoy.bound_violations": float((a["status"][untagged] != OK).sum()) / iterations,
        "chernoff.post_rejection_bounds.calls": calls("chernoff.post_rejection_bounds"),
        "chernoff.post_rejection_bounds.us": per_call("chernoff.post_rejection_bounds"),
        "chernoff.vacuous_lower": tracer.vacuous / iterations,
        "postproc.z_window_counts.us": per_call("postproc.z_window_counts"),
        "postproc.two_way.us": per_call(*TWO_WAY),
        "postproc.key_length.us": per_call(*KEY_LENGTH),
        "pipeline.evaluate.calls": calls("pipeline.evaluate"),
        "pipeline.evaluate.self_us": self_per_call("pipeline.evaluate", 1e6),
        "optimizer.evaluations": tracer.evaluations / iterations,
        "optimizer.valid_share": valid / tracer.evaluations if tracer.evaluations else 0.0,
        "optimizer.minimize.calls": calls("optimizer.minimize"),
        "optimizer.minimize.self_ms": self_per_call("optimizer.minimize", 1e3),
        "optimizer.optimize.self_ms": self_per_call("optimizer.optimize", 1e3),
        "cli.cmd_scan.self_ms": self_per_call("cli.cmd_scan", 1e3),
        "cli.cmd_mc_verify.self_ms": self_per_call("cli.cmd_mc_verify", 1e3),
        "cli.cmd_qubit_check.self_ms": self_per_call("cli.cmd_qubit_check", 1e3),
        "mcsim.sample_string.ms_per_mbit": per_call("mcsim.sample_string", scale=ms_per_mbit),
        "mcsim.run_bfer.ms_per_mbit": per_call("mcsim.run_bfer", scale=ms_per_mbit),
        "mcsim.run_aopp.ms_per_mbit": per_call("mcsim.run_aopp", scale=ms_per_mbit),
        "mcsim.compare.us": per_call("mcsim.compare"),
        "mcsim.flagged": tracer.flagged / iterations,
        "qubitmodel.verify_iteration_inequality.s": per_call(
            "qubitmodel.verify_iteration_inequality", scale=1.0),
        "qubitmodel.odd_parity_survivor.calls": calls("qubitmodel.odd_parity_survivor"),
        "qubitmodel.odd_parity_survivor.us": per_call("qubitmodel.odd_parity_survivor"),
        "trace.overhead_share": statistics.median(traced_walls)
        / statistics.median(untraced_walls) - 1.0,
        "trace.covered_share": float(self_time.sum()) / sum(traced_raw_walls),
    }
    return {name: metrics[name] for name in PER_LAYER_UNITS}
