"""Batch command-line tool.

Subcommands: scan (distance sweeps to CSV), point (full breakdown at one
distance), optimize (best protocol parameters at one distance), plob
(repeaterless bound), mc-verify (Monte Carlo oracle z-report), qubit-check
(pair-state inequality certificate).

Configuration comes from a flat key=value text file plus flag overrides;
one parser per key reads both.  Every command is deterministic for a fixed
config and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .channel import CONVENTIONS, ExperimentParams, ProtocolParams, arm_transmittance
from .decoy import BoundViolationError, UntaggedStats
from .optimizer import OptimizationSpec, _make_proto, optimize
from .pipeline import MODES, VARIANTS, PointResult, evaluate, mode_for_variant
from .postproc import BferOutcome, ZWindowCounts
from .presets import PRESETS, preset

__all__ = ["RunConfig", "ConfigError", "plob_rate", "main", "console_main"]

_EXPERIMENT_KEYS = tuple(
    f.name for f in dataclasses.fields(ExperimentParams) if f.name != "distance_km"
)
_PROTOCOL_KEYS = ("p_z", "p_send", "mu_z", "mu1", "mu2", "delta")


class ConfigError(ValueError):
    """Invalid run configuration; the message carries field/line diagnostics."""


@dataclass
class RunConfig:
    """Resolved inputs of one command run."""

    preset: str | None = None
    experiment: dict[str, float] = field(default_factory=dict)
    protocol: dict[str, float] = field(default_factory=dict)
    variant: list[str] = field(default_factory=list)
    mode: str | None = None
    distance: float | None = None
    range: tuple[float, float, float] | None = None
    seed: int = 0
    out: str | None = None
    bits: int = 1_000_000
    n_seeds: int = 1
    grid_points: int = 100
    vacuum_credit: bool = False
    convention: str = "visibility"
    inject_fault: bool = False

    def build_experiment(self, distance_km: float) -> ExperimentParams:
        base = dataclasses.asdict(PRESETS[self.preset]) if self.preset is not None else {}
        base.update(self.experiment)
        base["distance_km"] = distance_km
        missing = [key for key in _EXPERIMENT_KEYS if key not in base]
        if missing:
            raise ConfigError(f"missing experiment fields {missing}; give a preset or set them")
        try:
            return ExperimentParams(**{k: base[k] for k in _EXPERIMENT_KEYS + ("distance_km",)})
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def fixed_protocol(self) -> ProtocolParams | None:
        """Protocol from config when it sets any protocol key; None means optimize."""
        if not self.protocol:
            return None
        if "p_send" not in self.protocol or "mu_z" not in self.protocol:
            raise ConfigError(
                "fields 'p_send' and 'mu_z' are both needed to fix the protocol; "
                f"the config sets only {sorted(self.protocol)}"
            )
        try:
            return _make_proto(self.protocol, self.protocol.get("delta", ProtocolParams.delta))
        except ValueError as err:
            raise ConfigError(f"invalid protocol parameters: {err}") from err


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_variants(text: str) -> list[str]:
    names = [v.strip() for v in text.split(",") if v.strip()]
    if not names:
        raise ValueError(_REQUIRED["variant"])
    for i, name in enumerate(names):
        if name not in VARIANTS:
            raise ValueError(f"unknown variant {name!r}; choose from {VARIANTS}")
        if name in names[:i]:
            raise ValueError(f"variant {name!r} is repeated")
    return names


# each distance is one optimization, for an asymptotic variant 2-3 ms chained or 4-5 ms
# cold past the cutoff (rowD, shared 2-core machine), so the limit is at most 8 minutes of scan
_MAX_DISTANCES = 100_000


def _scan_distances(lo: float, hi: float, step: float) -> list[float]:
    """The distances lo, lo + step, ... up to hi that a scan takes, to 1e-9 km."""
    # the tolerance keeps hi in the scan when the steps add up to it
    steps = (hi - lo) / step + 1e-9
    if steps >= _MAX_DISTANCES:  # also catches an infinite quotient
        raise ValueError(f"more than {_MAX_DISTANCES} distances")
    distances = [round(lo + i * step, 9) for i in range(math.floor(steps) + 1)]
    if any(a >= b for a, b in zip(distances, distances[1:])):
        raise ValueError(f"step {step!r} repeats a distance rounded to 1e-9 km")
    return distances


def _parse_range(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected 'lo:hi:step', got {text!r}")
    lo, hi, step = (float(p) for p in parts)
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        # an infinite bound never ends the scan loop; a NaN one yields no distances
        raise ValueError(f"bounds and step must be finite, got {text!r}")
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step!r}")
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    _scan_distances(lo, hi, step)  # refuses a scan that could not finish or repeats a row
    return lo, hi, step


def _parse_out(text: str) -> str:
    # checked up front, so that a long scan or mc-verify does not fail after its work
    path = Path(text)
    if path.is_dir():
        raise ValueError(f"{text!r} is a directory")
    directory = path.parent
    if not directory.is_dir():
        raise ValueError(f"directory {str(directory)!r} does not exist")
    if not os.access(directory, os.W_OK):
        raise ValueError(f"directory {str(directory)!r} is not writable")
    return text


# the parser of every configuration key; config-file values and flag values
# both go through _convert
_FIELDS = {
    "preset": str,
    "mode": str,
    "convention": str,
    "out": _parse_out,
    "seed": int,
    "bits": int,
    "n_seeds": int,
    "grid_points": int,
    "vacuum_credit": _parse_bool,
    "inject_fault": _parse_bool,
    "distance": float,
    "range": _parse_range,
    "variant": _parse_variants,
    **dict.fromkeys(_EXPERIMENT_KEYS + _PROTOCOL_KEYS, float),
}
_CHOICES = {"preset": tuple(PRESETS), "mode": MODES, "convention": CONVENTIONS}
# numpy seeds are non-negative; sampling needs two bits, a pair-state grid
# one point per axis
_MINIMA = {"seed": 0, "bits": 2, "n_seeds": 1, "grid_points": 1}

# the add_argument options of each key that is a flag of some command; the
# flag is '--' plus the key with '-' for '_'
_FLAGS: dict[str, dict[str, str]] = {
    "preset": {"help": f"device preset, one of {sorted(PRESETS)}"},
    "seed": {"help": "base seed recorded in outputs, at least 0"},
    "out": {"help": "output path (default: stdout)"},
    "mode": {"help": f"pipeline mode, one of {_CHOICES['mode']}"},
    "variant": {"action": "append", "help": "pipeline variant(s), comma-separable"},
    "distance": {"help": "distance in km"},
    "range": {"help": "distance range lo:hi:step in km"},
    "convention": {"help": f"misalignment model, one of {CONVENTIONS}"},
    "vacuum_credit": {"action": "store_const", "const": "true"},
    "bits": {"help": "sampled string length, at least 2"},
    "n_seeds": {"help": "number of seeds to run, at least 1"},
    "inject_fault": {"action": "store_const", "const": "true"},
    "grid_points": {"help": "grid size per axis, at least 1"},
}
_PIPELINE_KEYS = ("preset", "variant", "mode", "convention", "vacuum_credit")
# each command's flags besides --config and --out, and the keys it cannot run
# without; a config file may set any key, and a command ignores those it does
# not read
_COMMANDS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "scan": (_PIPELINE_KEYS + ("range", "seed"), ("variant", "range")),
    "point": (_PIPELINE_KEYS + ("distance",), ("variant", "distance")),
    "optimize": (_PIPELINE_KEYS + ("distance",), ("variant", "distance")),
    "plob": (("preset", "distance"), ("distance",)),
    "mc-verify": (_PIPELINE_KEYS + ("distance", "seed", "bits", "n_seeds", "inject_fault"), ()),
    "qubit-check": (("grid_points",), ()),
}
_REQUIRED = {
    "variant": "at least one pipeline variant is required",
    "distance": "{command} requires a distance",
    "range": "{command} requires a distance range lo:hi:step",
}


def _convert(key: str, text: str) -> object:
    """Parse and check one configuration value given as text."""
    if key not in _FIELDS:
        raise ConfigError(f"unknown configuration key {key!r}")
    try:
        value = _FIELDS[key](text)
    except ValueError as err:
        raise ConfigError(f"field {key!r}: {err}") from None
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ConfigError(f"field {key!r}: expected one of {_CHOICES[key]}, got {value!r}")
    if key in _MINIMA and value < _MINIMA[key]:
        raise ConfigError(f"field {key!r}: must be at least {_MINIMA[key]}, got {value}")
    return value


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Flat key=value file; '#' starts a comment, blank lines are skipped."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        try:
            values[key] = _convert(key, value.strip())
        except ConfigError as err:
            raise ConfigError(f"{path}:{lineno}: {err}") from None
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config file, then command-line flags, then the checks across keys."""
    cfg = RunConfig()
    merged: dict[str, object] = {}
    if args.config:
        merged.update(parse_config_file(args.config))
    for key in _FIELDS:
        text = getattr(args, key, None)
        if text is not None:
            # --variant may be repeated
            merged[key] = _convert(key, ",".join(text) if key == "variant" else text)
    for key, value in merged.items():
        if key in _EXPERIMENT_KEYS:
            cfg.experiment[key] = value  # type: ignore[assignment]
        elif key in _PROTOCOL_KEYS:
            cfg.protocol[key] = value  # type: ignore[assignment]
        else:
            setattr(cfg, key, value)
    for name in cfg.variant:
        if cfg.mode is not None and mode_for_variant(name) != cfg.mode:
            raise ConfigError(
                f"field 'mode': variant {name!r} runs in {mode_for_variant(name)!r} mode, "
                f"config requests {cfg.mode!r}"
            )
    for key in _COMMANDS[args.command][1]:
        if key not in merged:
            raise ConfigError(f"field {key!r}: " + _REQUIRED[key].format(command=args.command))
    if args.command in ("scan", "point", "mc-verify"):
        cfg.fixed_protocol()  # refuses a partial or invalid protocol before any work
    return cfg


def plob_rate(fiber_loss_db_km: float, distance_km: float, eta_detector: float = 1.0) -> float:
    """Repeaterless secret-key capacity -log2(1 - eta) of the lossy channel.

    eta_detector=1 gives the absolute limit; a detector efficiency below one
    gives the relative limit.  Returns inf at zero total loss.
    """
    eta = eta_detector * 10.0 ** (-fiber_loss_db_km * distance_km / 10.0)
    if eta >= 1.0:  # log1p(-1) raises
        return math.inf
    # log1p keeps the full precision of a small eta, where log2(1 - eta) cancels
    return -math.log1p(-eta) / math.log(2.0)


def _optimization_spec(cfg: RunConfig, variant: str) -> OptimizationSpec:
    return OptimizationSpec(
        variant=variant,
        vacuum_credit=cfg.vacuum_credit,
        convention=cfg.convention,
    )


def _protocol_for(cfg: RunConfig, exp: ExperimentParams, variant: str,
                  warm: dict[str, ProtocolParams]) -> ProtocolParams:
    """The fixed protocol, or the optimum at ``exp``; a search starts from the
    variant's entry in ``warm``, which then holds this optimum if positive."""
    fixed = cfg.fixed_protocol()
    if fixed is not None:
        return fixed
    spec, start = _optimization_spec(cfg, variant), warm.pop(variant, None)
    result = optimize(spec, exp, start=start)
    if start is not None and not result.positive:
        result = optimize(spec, exp)  # a zero is confirmed cold: a bad start moves no cutoff
    if result.positive:
        warm[variant] = result.params
    return result.params


def _evaluate(
    cfg: RunConfig, exp: ExperimentParams, proto: ProtocolParams, variant: str
) -> PointResult:
    """``evaluate`` with the library's refusal of the inputs as a configuration error."""
    try:
        return evaluate(exp, proto, variant, cfg.vacuum_credit, cfg.convention)
    except (ValueError, OverflowError, BoundViolationError) as err:
        raise ConfigError(f"variant {variant!r} at {exp.distance_km:g} km: {err}") from None


def _scan_row(cfg: RunConfig, distance: float, warm: dict[str, ProtocolParams]) -> dict[str, float]:
    row: dict[str, float] = {"distance_km": distance}
    exp = cfg.build_experiment(distance)
    for variant in cfg.variant:
        proto = _protocol_for(cfg, exp, variant, warm)
        point = _evaluate(cfg, exp, proto, variant)
        row[f"{variant}_rate"] = point.key.rate
        for name in _PROTOCOL_KEYS:
            row[f"{variant}_{name}"] = getattr(proto, name)
    row["plob_absolute"] = plob_rate(exp.fiber_loss_db_km, distance, 1.0)
    row["plob_relative"] = plob_rate(exp.fiber_loss_db_km, distance, exp.detector_eff)
    return row


def _config_header(cfg: RunConfig, columns: list[str]) -> list[str]:
    lines = ["# key-rate scan"]
    resolved = {
        "preset": cfg.preset,
        "variants": ",".join(cfg.variant),
        "mode": cfg.mode,
        "seed": cfg.seed,
        "convention": cfg.convention,
        "vacuum_credit": cfg.vacuum_credit,
        "range": cfg.range,
        **{f"experiment.{k}": v for k, v in sorted(cfg.experiment.items())},
        **{f"protocol.{k}": v for k, v in sorted(cfg.protocol.items())},
    }
    lines += [f"# {key} = {value}" for key, value in resolved.items()]
    lines.append("# rates are bits per pulse; *_hex columns carry the exact binary value")
    lines.append("# columns: " + ",".join(columns))
    return lines


def _format_cell(name: str, value: float) -> str:
    if name == "distance_km":
        return f"{value:g}"
    if math.isinf(value):
        return "unbounded"
    return f"{value:.6e}"


def cmd_scan(cfg: RunConfig) -> int:
    warm: dict[str, ProtocolParams] = {}  # each variant's optimum at the previous distance
    rows = [_scan_row(cfg, d, warm) for d in _scan_distances(*cfg.range)]

    columns: list[str] = ["distance_km"]
    for variant in cfg.variant:
        columns += [f"{variant}_rate", f"{variant}_rate_hex"]
        columns += [f"{variant}_{name}" for name in _PROTOCOL_KEYS]
    columns += ["plob_absolute", "plob_absolute_hex", "plob_relative", "plob_relative_hex"]

    lines = _config_header(cfg, columns)
    lines.append(",".join(columns))
    for row in rows:
        cells = []
        for name in columns:
            if name.endswith("_hex"):
                cells.append(float(row[name[: -len("_hex")]]).hex())
            else:
                cells.append(_format_cell(name, row[name]))
        lines.append(",".join(cells))
    _write_output(cfg.out, "\n".join(lines) + "\n")
    return 0


def _breakdown_lines(point: PointResult, exp: ExperimentParams, proto: ProtocolParams) -> list[str]:
    lines = [
        f"variant             {point.variant} ({point.mode})",
        f"distance_km         {exp.distance_km:g}",
        f"arm_transmittance   {arm_transmittance(exp)!r}",
        f"protocol            p_z={proto.p_z!r} p_send={proto.p_send!r} mu_z={proto.mu_z!r}",
        f"decoys              mu1={proto.mu1!r} mu2={proto.mu2!r} delta={proto.delta!r}",
        "",
        f"q_nn                {point.rates.q_nn!r}",
        f"q_one_sender        {point.rates.q_c!r}",
        f"q_both_send         {point.rates.q_dd!r}",
        f"single_photon_yield {point.rates.y1!r}",
        f"single_photon_error {point.rates.e1_raw!r}",
        "",
        f"n_c0={point.counts.n_c0!r} n_c1={point.counts.n_c1!r}",
        f"n_d={point.counts.n_d!r} n_v={point.counts.n_v!r}",
        f"n_t={point.counts.n_t!r}",
        f"bit_groups          N0={point.counts.n_group0!r} N1={point.counts.n_group1!r}",
        f"error_rates         E0={point.counts.e_group0!r} E1={point.counts.e_group1!r} EZ={point.counts.e_z!r}",
        "",
        f"untagged            n1={point.untagged.n1!r} (n1_0={point.untagged.n1_0!r}, n1_1={point.untagged.n1_1!r})",
        f"untagged_vacuum     n0={point.untagged.n0!r}",
        f"phase_error_bound   {point.untagged.e1ph!r}",
    ]
    if isinstance(point.outcome, BferOutcome):
        b = point.outcome
        lines += [
            "",
            f"bfer_survivors      {b.n_survived!r}",
            f"bfer_classes        n_t1={b.n_t1!r} n_t2={b.n_t2!r} n_t3={b.n_t3!r}",
            f"bfer_class_errors   E1={b.e1!r} E2={b.e2!r} E3={b.e3!r}",
            f"bfer_untagged       {b.n1_survived!r} (iterated phase error {b.e1ph_iter!r})",
        ]
    if point.budget is not None:
        budget = point.budget
        lines += [
            "",
            f"epsilon_cor         {budget.eps_cor!r}",
            f"epsilon_hat         {budget.eps_hat!r}",
            f"epsilon_pa          {budget.eps_pa!r}",
            f"epsilon_bar         {budget.eps_bar!r}",
            f"epsilon_n1          {budget.eps_n1!r}",
            f"epsilon_sec         {budget.eps_sec!r}",
            f"epsilon_total       {budget.eps_tot!r}",
        ]
    key = point.key
    lines += [
        "",
        f"untagged_term       {key.untagged_term!r}",
        f"phase_term          {key.phase_term!r}",
        f"ec_term             {key.ec_term!r}",
        f"finite_penalty      {key.finite_penalty!r}",
        f"key_length          {key.key_length!r}",
        f"rate_per_pulse      {key.rate:.6e} ({key.rate.hex()})",
    ]
    return lines


def cmd_point(cfg: RunConfig) -> int:
    exp = cfg.build_experiment(cfg.distance)
    chunks = []
    for variant in cfg.variant:
        proto = _protocol_for(cfg, exp, variant, {})  # a point always searches cold
        point = _evaluate(cfg, exp, proto, variant)
        chunks.append("\n".join(_breakdown_lines(point, exp, proto)))
    _write_output(cfg.out, "\n\n".join(chunks) + "\n")
    return 0


def cmd_optimize(cfg: RunConfig) -> int:
    exp = cfg.build_experiment(cfg.distance)
    lines = []
    for variant in cfg.variant:
        result = optimize(_optimization_spec(cfg, variant), exp)
        proto = result.params
        lines += [
            f"variant {variant}: rate {result.rate:.6e} ({result.rate.hex()})",
            f"  p_z={proto.p_z!r} p_send={proto.p_send!r} mu_z={proto.mu_z!r}",
            f"  mu1={proto.mu1!r} mu2={proto.mu2!r} delta={proto.delta!r}",
            f"  evaluations {result.evaluations} ({result.repeated} repeated points), "
            f"restarts {len(result.restarts)}:",
        ]
        lines += [
            f"    start {r.start_value:.6e} -> final {r.final_value:.6e} ({r.evaluations} evals, "
            f"{'converged' if r.converged else 'hit evaluation cap'})"
            for r in result.restarts
        ]
    _write_output(cfg.out, "\n".join(lines) + "\n")
    return 0


def cmd_plob(cfg: RunConfig, setting: str) -> int:
    exp = cfg.build_experiment(cfg.distance)
    eta_det = 1.0 if setting == "absolute" else exp.detector_eff
    rate = plob_rate(exp.fiber_loss_db_km, cfg.distance, eta_det)
    if math.isinf(rate):
        _write_output(cfg.out, "unbounded\n")
    else:
        _write_output(cfg.out, f"{rate:.6e} ({rate.hex()})\n")
    return 0


def _mc_fixture(cfg: RunConfig) -> tuple[ZWindowCounts, UntaggedStats]:
    """Counts/untagged instance whose proportions the oracle samples."""
    if len(cfg.variant) > 1:
        raise ConfigError(
            f"field 'variant': mc-verify samples one variant's instance; give one --variant, "
            f"not {','.join(cfg.variant)!r}"
        )
    distance = cfg.distance if cfg.distance is not None else 100.0
    exp = cfg.build_experiment(distance)
    variant = cfg.variant[0] if cfg.variant else "bfer"
    proto = _protocol_for(cfg, exp, variant, {})
    point = _evaluate(cfg, exp, proto, variant if variant != "finite" else "bfer")
    return point.counts, point.untagged


def cmd_mc_verify(cfg: RunConfig) -> int:
    from . import mcsim

    counts, untagged = _mc_fixture(cfg)
    analytic = mcsim.expected_statistics(counts, untagged, cfg.bits)
    if cfg.inject_fault:
        # deliberately shift every probability by ten sigmas (self-test hook)
        analytic = {k: (n, min(p + 10.0 * math.sqrt(p * (1.0 - p) / n), 1.0))
                    for k, (n, p) in analytic.items()}
    lines = [
        "# statistic,analytic,empirical,sigma,z",
        f"# rng = {mcsim.RNG_ALGORITHM}, bits = {cfg.bits}, seeds = {cfg.n_seeds}, base_seed = {cfg.seed}",
    ]
    flagged = 0
    for offset in range(cfg.n_seeds):
        seed = cfg.seed + offset
        s = mcsim.sample_string(counts, untagged, cfg.bits, seed)
        bfer = mcsim.run_bfer(s, seed + 1_000_003)
        aopp_run = mcsim.run_aopp(s, seed + 2_000_003)
        rows = mcsim.compare({**bfer, **aopp_run}, analytic)
        for row in rows:
            flagged += row.flagged
            lines.append(
                f"{row.name},{row.analytic:.6e},{row.empirical:.6e},{row.sigma:.6e},{row.z:+.3f}"
                + (",FLAG" if row.flagged else "")
            )
    lines.append(f"# flagged = {flagged}")
    _write_output(cfg.out, "\n".join(lines) + "\n")
    return 1 if flagged else 0


def cmd_qubit_check(cfg: RunConfig) -> int:
    from . import qubitmodel

    n = cfg.grid_points
    report = qubitmodel.verify_iteration_inequality(n, n, n, matrix_stride=max(1, n // 10))
    lines = [
        f"grid_points          {report.grid_points}",
        f"max_violation        {report.max_violation!r}",
        f"matrix_checks        {report.matrix_checks}",
        f"max_matrix_mismatch  {report.max_matrix_mismatch!r}",
        f"beta_sweeps          {report.beta_sweeps}",
        f"max_beta_spread      {report.max_beta_spread!r}",
        f"passed               {report.passed}",
    ]
    _write_output(cfg.out, "\n".join(lines) + "\n")
    return 0 if report.passed else 1


def _write_output(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text)
        except OSError as err:
            raise ConfigError(f"field 'out': cannot write {out!r}: {err.strerror}") from None


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="snsqkd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (keys, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key=value configuration file")
        for key in ("out",) + keys:
            p.add_argument("--" + key.replace("_", "-"), dest=key, **_FLAGS[key])
        if name == "plob":
            p.add_argument("--eta-setting", choices=("absolute", "relative"), default="absolute")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # looked up at each call, so that a rebound cmd_* function is the one that runs
    run = {"scan": cmd_scan, "point": cmd_point, "optimize": cmd_optimize,
           "plob": lambda cfg: cmd_plob(cfg, args.eta_setting),
           "mc-verify": cmd_mc_verify, "qubit-check": cmd_qubit_check}[args.command]
    try:
        return run(build_config(args))
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
