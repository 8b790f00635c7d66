"""Probe worker: supplies the metrics a measured workload does not own.

Every run reports every end-to-end metric, but each metric beyond the four
common ones belongs to one workload (``owns`` in workloads.py).  The others
come from short slices of their owners at the "probe" size.  The slices run
in this separate process, so that their memory and imports stay out of the
measured process and its ``peak_rss_mb``.  The measured process sends one
request per slice round and waits for the reply, so the two never run at the
same time; rounds are interleaved with the measured iterations, so the probe
medians cover the same stretch of time as the measured ones.

Protocol, one line each way: ``slice`` runs one iteration of every owner and
answers ``ok <seconds>``; ``done`` answers one JSON line with the metrics,
the operation counts and the slice times, and the worker exits.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


class ProbeClient:
    """The measured process's handle on a running probe worker."""

    def __init__(self, seed: int, size: str, owners: list[str], wanted: list[str]) -> None:
        self.owners = owners
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "probes.py"), str(seed), size, ",".join(owners),
             ",".join(wanted)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=HERE.parent,
        )
        self._expect("ready")

    def _request(self, line: str) -> str:
        self._proc.stdin.write(line + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            self.close()
            raise RuntimeError(f"probe worker exited with code {self._proc.returncode}")
        return reply.strip()

    def _expect(self, word: str) -> None:
        reply = self._proc.stdout.readline().strip()
        if reply != word:
            self.close()
            raise RuntimeError(f"probe worker said {reply!r}, expected {word!r}")

    def slice(self) -> float:
        """Run one slice of every owner; returns its wall time in seconds."""
        if not self.owners:
            return 0.0
        return float(self._request("slice").split()[1])

    def finish(self) -> dict:
        report = json.loads(self._request("done"))
        self.close()
        return report

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()


def serve(seed: int, size: str, owner_names: list[str], wanted: list[str]) -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    import calibration
    import workloads

    refs = workloads.load_references()
    refs["point_grid"] = workloads.load_grid_references()
    tally = workloads.Tally()
    sampler = calibration.SpeedSampler()
    owners = [workloads.WORKLOADS[name] for name in owner_names]
    state = {owner.name: (owner.build(seed, size), [], [], []) for owner in owners}
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() == "done":
            break
        begin = time.perf_counter()
        with sampler:  # sampled only while a slice runs, to stay off the other core
            for owner in owners:
                inputs, walls, raw, summaries = state[owner.name]
                t0 = time.perf_counter()
                result = owner.run(inputs)
                t1 = time.perf_counter()
                raw.append(t1 - t0)
                walls.append(sampler.normalized(t0, t1))
                summaries.append(owner.check(result, inputs, refs, tally))
                del result
        print(f"ok {time.perf_counter() - begin!r}", flush=True)

    metrics, samples = {}, {}
    for owner in owners:
        inputs, walls, _, summaries = state[owner.name]
        if walls:
            metrics.update(owner.metrics(walls, summaries, inputs, refs, sampler))
        if owner.name == "point-grid":
            samples = owner.sample_counts(summaries)
    print(json.dumps({
        "metrics": {name: metrics[name] for name in wanted if name in metrics},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "walls_s": {name: walls for name, (_, walls, _, _) in state.items()},
        "raw_walls_s": {name: raw for name, (_, _, raw, _) in state.items()},
        "latency_samples": samples,
    }), flush=True)


if __name__ == "__main__":
    serve(int(sys.argv[1]), sys.argv[2], [n for n in sys.argv[3].split(",") if n],
          [n for n in sys.argv[4].split(",") if n])
