import argparse
import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import pytest

from snsqkd import cli, mcsim
from snsqkd.channel import PROTOCOL_KEYS
from snsqkd.cli import ConfigError, main, parse_config_file, plob_rate

FIXED_PROTO = [
    "--preset", "rowC",
    "--config", "/dev/null",
]


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestPlob:
    def test_half_transmittance_is_one_bit(self):
        distance = 10.0 * math.log10(2.0) / 0.2
        assert plob_rate(0.2, distance, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_direct_value(self):
        assert plob_rate(0.2, 100.0, 1.0) == pytest.approx(-math.log2(1.0 - 0.01), rel=1e-12)

    @pytest.mark.parametrize("args, field", [
        ((0.2, math.nan), "distance_km"),          # returned nan
        ((-0.2, 100.0), "fiber_loss_db_km"),       # returned inf, printed "unbounded"
        ((0.0, 100.0), "fiber_loss_db_km"),
        ((0.2, -1.0), "distance_km"),
        ((0.2, 100.0, 1.5), "detector_eff"),
        ((0.2, 100.0, math.nan), "detector_eff"),
        ((0.2, "100"), "distance_km"),
    ])
    def test_refuses_what_experiment_params_refuses(self, args, field):
        with pytest.raises(ValueError, match=field):
            plob_rate(*args)

    def test_cli_absolute(self, capsys):
        assert main(["plob", "--preset", "rowA", "--distance", "100"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("1.449957e-02")

    def test_cli_relative(self, capsys):
        assert main(["plob", "--preset", "rowA", "--distance", "100",
                     "--eta-setting", "relative"]) == 0
        out = capsys.readouterr().out
        assert float(out.split()[0]) == pytest.approx(-math.log2(1.0 - 0.003), rel=1e-6)

    def test_unbounded_sentinel(self, capsys):
        assert main(["plob", "--preset", "rowA", "--distance", "0"]) == 0
        assert capsys.readouterr().out.strip() == "unbounded"

    @pytest.mark.parametrize("eta_detector", [1.0, 0.3])
    def test_full_precision_at_long_distance(self, eta_detector):
        # -log2(1 - eta) cancels once eta is small: 11% off at 800 km
        for distance in range(100, 2001, 10):
            eta = eta_detector * 10.0 ** (-0.2 * distance / 10.0)
            # 120 digits keep 80 of an eta as small as 1e-40 in 1 - eta
            with mpmath.workdps(120):
                exact = -mpmath.log(1 - mpmath.mpf(eta), 2)
                error = abs(plob_rate(0.2, distance, eta_detector) / exact - 1)
            assert error <= 1e-15, distance

    def test_cli_far_distance_is_positive(self, capsys):
        # 1 - eta rounds to 1 here, so log2(1 - eta) is zero
        assert main(["plob", "--preset", "rowA", "--distance", "900"]) == 0
        assert capsys.readouterr().out.startswith("1.442695e-18 ")


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = write_config(
            tmp_path,
            "# comment line\n"
            "preset = rowC\n"
            "p_send = 0.1\n"
            "mu_z = 0.4   # inline comment\n"
            "variant = bfer,aopp\n"
            "seed = 7\n",
        )
        values = parse_config_file(path)
        assert values["preset"] == "rowC"
        assert values["p_send"] == 0.1
        assert values["variant"] == ["bfer", "aopp"]
        assert values["seed"] == 7

    def test_unknown_key_diagnostics(self, tmp_path):
        path = write_config(tmp_path, "bogus_key = 3\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_config_file(path)

    def test_line_number_in_message(self, tmp_path):
        path = write_config(tmp_path, "preset = rowC\nmu_z = not-a-number\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_file(path)

    def test_unknown_convention(self, tmp_path):
        path = write_config(tmp_path, "convention = bogus\n")
        with pytest.raises(ConfigError, match="convention"):
            parse_config_file(path)

    def test_bad_range(self, tmp_path):
        path = write_config(tmp_path, "range = 100:50:10\n")
        with pytest.raises(ConfigError, match="range"):
            parse_config_file(path)

    @pytest.mark.parametrize("spec", ["0:inf:10", "nan:100:10", "0:100:nan", "-inf:0:10"])
    def test_non_finite_range(self, tmp_path, spec):
        path = write_config(tmp_path, f"range = {spec}\n")
        with pytest.raises(ConfigError, match="range"):
            parse_config_file(path)


@contextlib.contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestScan:
    def scan_args(self, tmp_path, out_name, seed="3"):
        cfg = write_config(
            tmp_path,
            "preset = rowC\np_send = 0.103\nmu_z = 0.43\nvariant = bfer,aopp\n",
            name=f"{out_name}.cfg",
        )
        return [
            "scan", "--config", cfg, "--range", "100:200:50",
            "--seed", seed, "--out", str(tmp_path / out_name),
        ]

    def test_deterministic_and_round_trips(self, tmp_path):
        assert main(self.scan_args(tmp_path, "a.csv")) == 0
        assert main(self.scan_args(tmp_path, "b.csv")) == 0
        a = (tmp_path / "a.csv").read_bytes()
        b = (tmp_path / "b.csv").read_bytes()
        assert a == b

        lines = [l for l in a.decode().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header[0] == "distance_km"
        assert "bfer_rate" in header and "aopp_rate" in header
        assert "plob_absolute" in header
        for row in lines[1:]:
            cells = dict(zip(header, row.split(",")))
            # hex column reproduces the printed rate at full precision
            exact = float.fromhex(cells["bfer_rate_hex"])
            assert float(cells["bfer_rate"]) == pytest.approx(exact, rel=1e-5)
            assert float.fromhex(cells["aopp_rate_hex"]) >= exact

    def test_header_records_config_and_seed(self, tmp_path):
        assert main(self.scan_args(tmp_path, "c.csv", seed="11")) == 0
        text = (tmp_path / "c.csv").read_text()
        assert "# seed = 11" in text
        # no scan path draws a random number; mc-verify names its generator
        assert "# rng" not in text

    def test_rates_drop_with_distance(self, tmp_path):
        assert main(self.scan_args(tmp_path, "d.csv")) == 0
        lines = [l for l in (tmp_path / "d.csv").read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        idx = header.index("aopp_rate")
        rates = [float(row.split(",")[idx]) for row in lines[1:]]
        assert rates == sorted(rates, reverse=True)

    def test_empty_variant_list_fails(self, tmp_path, capsys):
        code = main(["scan", "--preset", "rowC", "--range", "100:200:50",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "variant" in capsys.readouterr().err

    def test_missing_range_fails(self, capsys):
        assert main(["scan", "--preset", "rowC", "--variant", "bfer"]) == 2

    def test_mode_variant_mismatch(self, capsys):
        code = main(["scan", "--preset", "rowC", "--variant", "bfer", "--mode", "finite",
                     "--range", "100:200:100"])
        assert code == 2
        assert "mode" in capsys.readouterr().err


class TestPoint:
    def test_finite_report_shows_exact_epsilon(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "preset = table2\np_z = 0.99\np_send = 0.08\nmu_z = 0.4\n"
            "mu1 = 0.01\nmu2 = 0.04\nvariant = finite\n",
        )
        assert main(["point", "--config", cfg, "--distance", "502"]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("epsilon_total"))
        assert float(line.split()[-1]) == 22.0 * 1.71e-10
        assert "key_length" in out and "rate_per_pulse" in out

    def test_asymptotic_breakdown(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "preset = rowC\np_send = 0.103\nmu_z = 0.43\nvariant = bfer\n")
        assert main(["point", "--config", cfg, "--distance", "100"]) == 0
        out = capsys.readouterr().out
        assert "bfer_class_errors" in out
        assert "epsilon_total" not in out

    def test_requires_distance(self, capsys):
        assert main(["point", "--preset", "rowC", "--variant", "bfer"]) == 2

    def test_finite_at_a_tiny_failure_prob(self, tmp_path, capsys):
        # the finite penalty printed key_length -inf at 1e-200, and 5e-324
        # ended in a ZeroDivisionError traceback (exit 1, "statistic flagged")
        protocol = "p_z = 0.9\np_send = 0.1\nmu_z = 0.4\nmu1 = 0.02\nmu2 = 0.1\n"
        argv = ["point", "--variant", "finite", "--distance", "300", "--config"]
        cfg = write_config(tmp_path, f"preset = table2\nfailure_prob = 1e-200\n{protocol}")
        assert main(argv + [cfg]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("key_length"))
        assert math.isfinite(float(line.split()[-1]))
        cfg = write_config(tmp_path, f"preset = table2\nfailure_prob = 5e-324\n{protocol}")
        assert main(argv + [cfg]) == 2
        assert "failure_prob" in capsys.readouterr().err

    @pytest.mark.parametrize("pulses", ["1e26", "1e30"])
    def test_finite_at_a_huge_pulse_count(self, pulses, tmp_path, capsys):
        # from about 1e22 expected counts the Chernoff solve refused its own
        # bracket, so 1e30 pulses exited 2 where 1e26 gave a key
        cfg = write_config(tmp_path, "preset = table2\np_z = 0.9\np_send = 0.1\nmu_z = 0.4\n"
                           f"mu1 = 0.02\nmu2 = 0.1\ntotal_pulses = {pulses}\n")
        assert main(["point", "--variant", "finite", "--distance", "300", "--config", cfg]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("key_length"))
        key_length = float(line.split()[-1])
        assert 0.0 < key_length < math.inf


class TestMcVerify:
    def test_clean_run_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path, "preset = rowC\np_send = 0.103\nmu_z = 0.43\nvariant = bfer\n")
        out = tmp_path / "z.csv"
        code = main(["mc-verify", "--config", cfg, "--distance", "100",
                     "--bits", "40000", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("# statistic,analytic,empirical,sigma,z")
        assert "numpy-pcg64" in text
        assert "# flagged = 0" in text

    def test_injected_fault_exits_nonzero(self, tmp_path):
        cfg = write_config(tmp_path, "preset = rowC\np_send = 0.103\nmu_z = 0.43\nvariant = bfer\n")
        code = main(["mc-verify", "--config", cfg, "--distance", "100",
                     "--bits", "40000", "--inject-fault", "--out", str(tmp_path / "f.csv")])
        assert code == 1
        assert "FLAG" in (tmp_path / "f.csv").read_text()


class TestQubitCheck:
    def test_small_grid_passes(self, tmp_path):
        out = tmp_path / "q.txt"
        assert main(["qubit-check", "--grid-points", "12", "--out", str(out)]) == 0
        text = out.read_text()
        assert "passed               True" in text


class TestOptimizeCommand:
    def test_prints_params_and_restarts(self, monkeypatch, capsys):
        assert main(["optimize", "--preset", "rowF", "--distance", "240",
                     "--variant", "aopp"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("variant aopp: rate ")
        assert "restarts 1:" in out
        rate = float(out.splitlines()[0].split()[3])
        assert rate == pytest.approx(3.99e-6, rel=0.5)
        restarts = [line for line in out.splitlines() if line.startswith("    start ")]
        assert len(restarts) == 1
        assert all(line.endswith(" evals, converged)") for line in restarts)
        assert "  evaluations 97 (1 repeated points), restarts 1:" in out
        # a finite refinement still cycles to its cap of (300 - 32) // 2 = 134 evaluations
        full = cli._optimization_spec
        budget = 300
        monkeypatch.setattr(cli, "_optimization_spec", lambda cfg, variant: dataclasses.replace(
            full(cfg, variant), grid_mu=4, grid_p=4, grid_pz=2, restarts=2, budget=budget,
            delta_values=(2.0 * math.pi / 16.0,)))
        assert main(["optimize", "--preset", "table2", "--distance", "300",
                     "--variant", "finite"]) == 0
        out = capsys.readouterr().out
        assert "(134 evals, hit evaluation cap)" in out
        assert "  evaluations 266 (0 repeated points), restarts 2:" in out
        # with a larger cap the stalled simplex asks for points it has scored
        budget = 1500
        assert main(["optimize", "--preset", "table2", "--distance", "480",
                     "--variant", "finite"]) == 0
        assert "  evaluations 1133 (128 repeated points), restarts 2:" in capsys.readouterr().out


SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_after(code, package):
    """Modules of ``package`` loaded in a fresh interpreter after running ``code``."""
    script = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
              "import json\nprint(json.dumps(sorted(m for m in sys.modules "
              f"if m == {package!r} or m.startswith({package + '.'!r}))))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


START_UP = {
    "point": ["point", "--config", "FIXED", "--variant", "aopp", "--distance", "100"],
    "plob": ["plob", "--preset", "rowA", "--distance", "100"],
    "qubit-check": ["qubit-check", "--grid-points", "5"],
    "optimize": ["optimize", "--preset", "rowC", "--variant", "aopp", "--distance", "100"],
    # no p_send or mu_z in the config: each distance is optimized
    "scan": ["scan", "--preset", "rowC", "--variant", "aopp", "--range", "100:150:50"],
    # its flags read the binomial tail of every statistic
    "mc-verify": ["mc-verify", "--preset", "rowC", "--distance", "100", "--variant", "bfer",
                  "--bits", "100000"],
}


# the name predates the optimizing commands; it is kept so the test ids stay
@pytest.mark.parametrize("command", ["import"] + list(START_UP))
def test_commands_that_never_optimize_load_no_scipy(command, tmp_path):
    # scipy.special and scipy.optimize took most of the start-up of every
    # command; scipy is no longer a runtime dependency, and no command loads it
    cfg = write_config(tmp_path, "preset = rowC\np_send = 0.1\nmu_z = 0.4\n")
    argv = [cfg if arg == "FIXED" else arg for arg in START_UP.get(command, [])]
    run = f"assert cli.main({argv!r}) == 0" if argv else ""
    assert loaded_after(f"import snsqkd, snsqkd.cli as cli\n{run}", "scipy") == []


# the asymptotic commands: a fixed-protocol and an optimizing point, an
# optimization, a serial scan and the PLOB bound; point-finite integrates
NUMPY_START_UP = {
    "import": [],
    "point": START_UP["point"],
    "point-optimized": ["point", "--preset", "rowD", "--variant", "bfer", "--distance", "200"],
    "optimize": ["optimize", "--preset", "rowD", "--variant", "aopp,original,refined,oddsift",
                 "--distance", "200"],
    "scan": START_UP["scan"],
    "plob": START_UP["plob"],
    "point-finite": ["point", "--config", "FIXED", "--variant", "finite", "--distance", "100"],
}


@pytest.mark.parametrize("command", list(NUMPY_START_UP))
def test_only_the_finite_variant_loads_numpy(command, tmp_path):
    # numpy took most of the start-up left after scipy; the optimizer's grid
    # and vertex order run on plain floats, and only the finite variant's
    # quadrature imports numpy, at its first call
    cfg = write_config(tmp_path, "preset = rowC\np_send = 0.1\nmu_z = 0.4\n")
    argv = [cfg if arg == "FIXED" else arg for arg in NUMPY_START_UP[command]]
    run = f"assert cli.main({argv!r}) == 0" if argv else ""
    loaded = loaded_after(f"import snsqkd, snsqkd.cli as cli\n{run}", "numpy")
    assert ("numpy" in loaded) == (command == "point-finite")


def test_mc_verify_million_bits_under_a_minute(tmp_path):
    import time

    cfg = tmp_path / "m.cfg"
    cfg.write_text("preset = rowC\np_send = 0.103\nmu_z = 0.43\nvariant = bfer\n")
    start = time.time()
    code = main(["mc-verify", "--config", cfg.as_posix(), "--distance", "100",
                 "--bits", "1000000", "--n-seeds", "2", "--out", str(tmp_path / "z.csv")])
    elapsed = time.time() - start
    assert code == 0
    assert elapsed < 60.0
    text = (tmp_path / "z.csv").read_text()
    assert "seeds = 2" in text


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_distance_is_a_configuration_error(value, capsys):
    argv = ["point", "--preset", "rowC", "--variant", "aopp", f"--distance={value}"]
    assert main(argv) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["fiber_loss_db_km", "total_pulses", "error_correction_f", "mu_z"])
def test_non_finite_config_value_is_a_configuration_error(key, tmp_path, capsys):
    path = write_config(tmp_path, f"preset = rowC\np_send = 0.1\nmu_z = 0.4\n{key} = nan\n")
    assert main(["point", "--config", path, "--variant", "aopp", "--distance", "100"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_finite_output_has_no_numpy_reprs(monkeypatch, capsys):
    full = cli._optimization_spec
    monkeypatch.setattr(cli, "_optimization_spec", lambda cfg, variant: dataclasses.replace(
        full(cfg, variant), grid_mu=4, grid_p=4, grid_pz=2, restarts=2, budget=300,
        delta_values=(2.0 * math.pi / 16.0,)))
    for command in ("point", "optimize"):
        assert main([command, "--preset", "table2", "--variant", "finite", "--distance", "300"]) == 0
    out = capsys.readouterr().out
    assert "p_z=" in out and "np." not in out


def test_unknown_convention_in_config_exits_two(tmp_path, capsys):
    path = write_config(tmp_path, "preset = rowC\np_send = 0.1\nmu_z = 0.4\nconvention = bogus\n")
    assert main(["point", "--config", path, "--variant", "aopp", "--distance", "100"]) == 2
    assert "convention" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["mc-verify", "--preset", "rowC", "--variant", "bfer", "--distance", "100", "--bits", "1"],
    ["mc-verify", "--preset", "rowC", "--variant", "bfer", "--distance", "100", "--bits", "-5"],
    ["mc-verify", "--preset", "rowC", "--variant", "bfer", "--distance", "100", "--n-seeds", "0"],
    ["qubit-check", "--grid-points", "0"],
], ids=["bits1", "bits-5", "n_seeds0", "grid_points0"])
def test_count_below_minimum_is_a_configuration_error(argv, capsys):
    # each of these used to end in a traceback, or run nothing and exit 0
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "must be at least" in err


@pytest.mark.parametrize("given", [
    ["--bits", "1000000000"],
    ["--config", "bits.cfg"],
], ids=["flag", "config"])
def test_bits_past_the_oracle_limit_is_a_configuration_error(given, tmp_path, capsys, monkeypatch):
    # refused while the arguments are read, before any string is allocated
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bits.cfg").write_text("bits = 1000000000\n")

    def never(*args):
        raise AssertionError("sampled past the limit")

    monkeypatch.setattr(mcsim, "sample_string", never)
    argv = ["mc-verify", "--preset", "rowC", "--variant", "bfer", "--distance", "100"]
    assert main(argv + given) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "field 'bits': must be at most 999999999, got 1000000000" in err
    # the CLI's limit, written out so that importing it loads no numpy, is the oracle's
    assert cli._convert("bits", str(mcsim.MAX_BITS)) == mcsim.MAX_BITS == 10**9 - 1


@pytest.mark.parametrize("given", [
    ["--grid-points", "1001"],
    ["--config", "grid.cfg"],
], ids=["flag", "config"])
def test_grid_past_its_limit_is_a_configuration_error(given, tmp_path, capsys, monkeypatch):
    # memory grows as the square of the grid: 20,000 points asked for about 16 GB
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.cfg").write_text("grid_points = 1001\n")

    def never(*args, **kwargs):
        raise AssertionError("built a grid past the limit")

    monkeypatch.setattr("snsqkd.qubitmodel.verify_iteration_inequality", never)
    assert main(["qubit-check", *given]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "field 'grid_points': must be at most 1000, got 1001" in err
    # the benchmark's and the CI's grids, and the limit itself, are taken
    for points in (5, 10, 30, 100, 1000):
        assert cli._convert("grid_points", str(points)) == points


# a malformed value of every configuration key
MALFORMED = {
    "out": "no-such-directory/z.txt",
    "preset": "bogus",
    "mode": "bogus",
    "convention": "bogus",
    "seed": "-1",
    "bits": "abc",
    "n_seeds": "1.5",
    "grid_points": "x",
    "vacuum_credit": "maybe",
    "inject_fault": "maybe",
    "distance": "abc",
    "range": "a:b:c",
    "variant": "bogus",
    "eta_setting": "bogus",
    **dict.fromkeys(cli._EXPERIMENT_KEYS + PROTOCOL_KEYS, "abc"),
}
# a subcommand that takes each flag taking a value; the experiment and
# protocol keys have no flag, and the two boolean flags take no value
FLAG_COMMAND = {
    **dict.fromkeys(("preset", "mode", "convention", "distance", "variant"), "point"),
    "range": "scan",
    **dict.fromkeys(("seed", "bits", "n_seeds"), "mc-verify"),
    "grid_points": "qubit-check",
    "eta_setting": "plob",
}
# a valid run of each of those subcommands, given only flags it takes
FLAG_BASE = {
    "point": ["--preset", "rowC", "--variant", "bfer", "--distance", "100"],
    "scan": ["--preset", "rowC", "--variant", "bfer", "--range", "100:200:50"],
    "mc-verify": ["--preset", "rowC", "--variant", "bfer", "--distance", "100"],
    "qubit-check": [],
    "plob": ["--preset", "rowA", "--distance", "100"],
}


def test_malformed_values_cover_every_key():
    assert set(MALFORMED) == set(cli._FIELDS)


def assert_names_field(key, capsys):
    err = capsys.readouterr().err
    assert "configuration error" in err and f"field {key!r}" in err


@pytest.mark.parametrize("key", list(MALFORMED))
def test_malformed_config_value_names_the_key(key, tmp_path, capsys):
    # the malformed line comes last, so it overrides the valid preset and variant
    path = write_config(tmp_path, f"preset = rowC\nvariant = aopp\n{key} = {MALFORMED[key]}\n")
    assert main(["point", "--config", path, "--distance", "100"]) == 2
    assert_names_field(key, capsys)


@pytest.mark.parametrize("key", list(FLAG_COMMAND))
def test_malformed_flag_value_names_the_key(key, capsys):
    command = FLAG_COMMAND[key]
    argv = [command, *FLAG_BASE[command], f"--{key.replace('_', '-')}={MALFORMED[key]}"]
    assert main(argv) == 2
    assert_names_field(key, capsys)


MC_ARGV = ["mc-verify", "--preset", "rowC", "--variant", "bfer", "--distance", "100",
           "--bits", "1000"]


@pytest.mark.parametrize("argv, config, key", [
    (["plob", "--preset", "rowA"], "distance = abc\n", "distance"),
    (["scan", "--preset", "rowC", "--variant", "aopp"], "range = a:b:c\n", "range"),
    (["scan", "--preset", "rowC", "--variant", "aopp", "--range", "a:b:c"], "", "range"),
    (MC_ARGV + ["--seed", "-1"], "", "seed"),
    (MC_ARGV, "seed = -1\n", "seed"),
    (["optimize", "--variant", "aopp", "--distance", "100"],
     "preset = rowC\np_send = 2\nmu_z = 0.4\n", "p_send"),
    (["optimize", "--preset", "rowC", "--variant", "aopp", "--distance", "100"],
     "mu2 = inf\n", "mu2"),
    (["plob", "--preset", "rowA", "--distance", "100"], "mu1 = -1\n", "mu1"),
    (["plob", "--preset", "rowA", "--distance", "100"], "dark_count = 2\n", "dark_count"),
    (["plob", "--preset", "rowA"], "distance = -5\n", "distance"),
    (["qubit-check", "--grid-points", "2"], "dark_count = 2\n", "dark_count"),
    (["scan", "--preset", "rowC", "--variant", "aopp"], "range = -10:100:10\n", "range"),
    (["optimize", "--variant", "finite", "--distance", "100"],
     "preset = table2\nfailure_prob = 5e-324\n", "failure_prob"),
    (["point", "--variant", "finite", "--distance", "300"],
     "preset = table2\nfailure_prob = 5e-324\np_z = 0.9\np_send = 0.1\nmu_z = 0.4\n",
     "failure_prob"),
], ids=["distance = abc", "range = a:b:c", "--range a:b:c", "--seed -1", "seed = -1",
        "optimize p_send = 2", "optimize mu2 = inf", "plob mu1 = -1", "plob dark_count = 2",
        "distance = -5", "qubit-check dark_count = 2", "range = -10:100:10",
        "optimize failure_prob = 5e-324", "point failure_prob = 5e-324"])
def test_bad_number_is_a_configuration_error(argv, config, key, tmp_path, capsys):
    # the first five used to end in a traceback; the flat keys were checked
    # only by a command that built an experiment or a fixed protocol, so
    # optimize, plob and qubit-check ran on out-of-range values, and the
    # distances were refused without the field's name; a failure probability
    # whose half underflows was refused by the finite key length only, so
    # optimize scored each of its points invalid and exited 0 with rate 0
    path = write_config(tmp_path, config)
    assert main(argv + ["--config", path]) == 2
    assert_names_field(key, capsys)


def test_mc_verify_on_two_bit_strings(tmp_path):
    # some of these seeds sample a string in which Bob holds one bit value
    # only; the literal pairing then forms no pairs
    argv = ["mc-verify", "--preset", "rowC", "--distance", "100", "--variant", "bfer",
            "--bits", "2", "--n-seeds", "50", "--out", str(tmp_path / "z.csv")]
    assert main(argv) == 0


# SHA-256 of the whole mc-verify report at rowC, 100 km, 4 seeds: they pin
# the row order, every analytic and empirical value and the formatting
MC_REPORT_SHA256 = {
    "1M": "a0a1d3f0f150222b58623e118bfc86ce35b2a2b839c58227dde04a33b9b3c5fa",
    "100k-fault": "cf88f1d90845afe939134d0e33f7166b2753c6df28db74ca51d00ebae5dbf1e5",
}


@pytest.mark.parametrize("case, extra, exit_code", [
    ("1M", ["--bits", "1000000"], 0),
    ("100k-fault", ["--bits", "100000", "--inject-fault"], 1),
], ids=MC_REPORT_SHA256)
def test_mc_verify_report_bytes_are_pinned(case, extra, exit_code, capsys):
    argv = ["mc-verify", "--preset", "rowC", "--distance", "100", "--variant", "bfer",
            "--n-seeds", "4", *extra]
    assert main(argv) == exit_code
    report = capsys.readouterr().out.encode()
    assert hashlib.sha256(report).hexdigest() == MC_REPORT_SHA256[case]


FINITE_CFG = "preset = table2\np_z = 0.9\np_send = 0.1\nmu_z = 0.4\nmu1 = 0.02\nmu2 = 0.1\n"
# SHA-256 of the whole stdout of the README's three-variant scan, of an
# optimized aopp breakdown and of a fixed-protocol finite breakdown: they pin
# every header line, column, rate bit and label the commands print
STDOUT_SHA256 = {
    "readme-scan": "7c70b1637ca056af21662d469cd11a0b4bd63e355a348dcd75259e210701c12c",
    "point-aopp": "1266a847d79c14d38ec3e34ab7d4bc6f323b10663a0a93d7d26327382f282108",
    "point-finite": "693dc31676db9e6785bf0f3edd622a8b33dd288f24bbc7996c1b797063b7ddfe",
}


@pytest.mark.parametrize("case, argv", [
    ("readme-scan", ["scan", "--preset", "rowD", "--variant", "original,bfer,aopp",
                     "--range", "0:700:10"]),
    ("point-aopp", ["point", "--preset", "rowC", "--variant", "aopp", "--distance", "100"]),
    ("point-finite", ["point", "--config", "finite.cfg", "--variant", "finite",
                      "--distance", "300"]),
], ids=STDOUT_SHA256)
def test_command_stdout_bytes_are_pinned(case, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "finite.cfg").write_text(FINITE_CFG)
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == STDOUT_SHA256[case]


@pytest.mark.parametrize("row, distance", [("rowF", "50"), ("rowF", "100"), ("rowD", "150"),
                                           ("rowA", "250")])
def test_mc_verify_two_bits_of_a_large_instance(row, distance, tmp_path):
    # the string is far shorter than the instance's expected window count;
    # exit 1 would mean "statistic flagged"
    argv = ["mc-verify", "--preset", row, "--distance", distance, "--variant", "bfer",
            "--bits", "2", "--out", str(tmp_path / "z.csv")]
    assert main(argv) == 0


# protocol values that the library refuses once it evaluates them
DECOYS_ABOVE_SIGNAL = "p_z = 0.9\np_send = 0.1\nmu_z = 0.1\nmu1 = 0.05\nmu2 = 0.08\n"
ONE_PULSE = "total_pulses = 1\np_send = 0.1\nmu_z = 0.4\n"
# protocol values whose evaluation overflows a float
BESSEL_OVERFLOW = "p_send = 0.1\nmu_z = 5000\n"
DECOY_OVERFLOW = "p_send = 0.1\nmu1 = 710\nmu2 = 720\nmu_z = 2000\n"
# admitted values whose key length overflows to nan or -inf
NAN_KEY = "total_pulses = 1.7e308\np_send = 0.1\nmu_z = 0.4\n"
INFINITE_KEY = "error_correction_f = 1e300\np_send = 0.1\nmu_z = 0.4\n"


@pytest.mark.parametrize("argv, config, message", [
    (["point", "--preset", "rowA", "--distance", "100", "--variant", "finite"],
     DECOYS_ABOVE_SIGNAL, "mu1 + mu2 < mu_z"),
    (["point", "--preset", "rowC", "--distance", "100", "--variant", "bfer"],
     ONE_PULSE, "two effective windows"),
    (["scan", "--preset", "rowC", "--range", "100:100:1", "--variant", "bfer"],
     ONE_PULSE, "two effective windows"),
    (["mc-verify", "--preset", "rowC", "--distance", "100", "--variant", "bfer"],
     ONE_PULSE, "two effective windows"),
    (["point", "--preset", "rowC", "--distance", "0", "--variant", "aopp"],
     BESSEL_OVERFLOW, "bessel_i0 overflows"),
    (["point", "--preset", "rowC", "--distance", "100", "--variant", "finite"],
     DECOY_OVERFLOW, "math range error"),
    (["point", "--preset", "rowA", "--distance", "100", "--variant", "bfer"],
     NAN_KEY, "key length nan is not finite"),
    (["scan", "--preset", "rowA", "--range", "100:100:1", "--variant", "bfer"],
     NAN_KEY, "key length nan is not finite"),
    (["point", "--preset", "rowA", "--distance", "100", "--variant", "original"],
     INFINITE_KEY, "key length -inf is not finite"),
    (["optimize", "--preset", "rowC", "--distance", "100", "--variant", "aopp"],
     "p_send = 2\nmu_z = 0.4\n", ":1: field 'p_send': must be in [0, 1], got 2.0\n"),
], ids=["point-decoys", "point-one-pulse", "scan-one-pulse", "mc-verify-one-pulse",
        "point-bessel-overflow", "point-decoy-overflow", "point-nan-key", "scan-nan-key",
        "point-infinite-key", "optimize-flat-key"])
def test_refused_configuration_is_a_configuration_error(argv, config, message, tmp_path, capsys):
    # exit 2, not a traceback with exit 1, which means "statistic flagged"
    assert main(argv + ["--config", write_config(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err


OUT_COMMANDS = {
    "scan": ["scan", "--preset", "rowC", "--variant", "aopp", "--range", "100:200:50"],
    "point": ["point", "--preset", "rowC", "--variant", "aopp", "--distance", "100"],
    "optimize": ["optimize", "--preset", "rowC", "--variant", "aopp", "--distance", "100"],
    "plob": ["plob", "--preset", "rowA", "--distance", "100"],
    "mc-verify": MC_ARGV,
    "qubit-check": ["qubit-check", "--grid-points", "2"],
}


@pytest.mark.parametrize("command", list(OUT_COMMANDS))
def test_out_in_a_missing_directory_fails_before_the_run(command, tmp_path, monkeypatch, capsys):
    # this used to end in a FileNotFoundError traceback (exit 1), after the run
    def run(cfg):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, f"cmd_{command.replace('-', '_')}", run)
    argv = OUT_COMMANDS[command] + ["--out", str(tmp_path / "missing" / "z.txt")]
    assert main(argv) == 2
    assert_names_field("out", capsys)


def test_out_in_an_unwritable_directory_is_a_configuration_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    assert main(OUT_COMMANDS["plob"] + ["--out", str(tmp_path / "z.txt")]) == 2
    assert_names_field("out", capsys)


def test_out_naming_a_directory_is_a_configuration_error(tmp_path, capsys):
    assert main(OUT_COMMANDS["plob"] + ["--out", str(tmp_path)]) == 2
    assert_names_field("out", capsys)


def unreadable(path):
    path.write_text("preset = rowC\n")
    path.chmod(0)


@pytest.mark.parametrize("make, reason", [
    (lambda path: None, "No such file or directory"),
    (Path.mkdir, "Is a directory"),
    pytest.param(unreadable, "Permission denied", marks=pytest.mark.skipif(
        os.geteuid() == 0, reason="root reads a file of mode 000")),
    (lambda path: path.write_bytes(b"preset = rowC\n# \xff\xfe\n"), "can't decode byte 0xff"),
], ids=["missing", "directory", "unreadable", "undecodable"])
def test_config_that_cannot_be_read_fails_before_the_run(make, reason, tmp_path, monkeypatch,
                                                          capsys):
    # each of these ended in a traceback with exit 1, which mc-verify uses
    # for "statistic flagged"
    def run(cfg):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "cmd_mc_verify", run)
    path = tmp_path / "run.cfg"
    make(path)
    assert main(MC_ARGV + ["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: field 'config': cannot read {str(path)!r}: ")
    assert reason in err


class FullDisk(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


def refused_open(path, mode):
    raise OSError(errno.EACCES, "Permission denied")


def test_write_failure_is_a_configuration_error(tmp_path, monkeypatch, capsys):
    # the target passes the up-front check, then the disk fills up
    monkeypatch.setattr(cli.Path, "open", lambda path, mode: FullDisk())
    assert main(OUT_COMMANDS["plob"] + ["--out", str(tmp_path / "z.txt")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "cannot write" in err


@pytest.mark.parametrize("open_output", [refused_open, lambda path, mode: FullDisk()],
                         ids=["open", "write"])
def test_mc_verify_output_failure_is_a_configuration_error(open_output, tmp_path, monkeypatch,
                                                           capsys):
    # the report is written as it is computed, from a header written before
    # the first seed: a file that cannot be opened or written stops the run
    # before it samples
    sampled = []
    monkeypatch.setattr(cli.Path, "open", open_output)
    monkeypatch.setattr(mcsim, "sample_string", lambda *args: sampled.append(args))
    assert main(MC_ARGV + ["--out", str(tmp_path / "z.csv")]) == 2
    assert_names_field("out", capsys)
    assert sampled == []


def test_mc_verify_memory_does_not_grow_with_seeds(tmp_path):
    # each seed's rows are written as they are computed; when the report was
    # held until the end, 400 seeds of 1,000 bits raised the traced peak from
    # 0.09 to 2.5 MB over 4 seeds; now both measure about 0.04 MB
    def traced_peak(n_seeds):
        argv = MC_ARGV + ["--n-seeds", str(n_seeds), "--out", str(tmp_path / f"{n_seeds}.csv")]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert main(argv) in (0, 1)
        return tracemalloc.get_traced_memory()[1] - before

    main(MC_ARGV + ["--out", str(tmp_path / "warm.csv")])  # imports and memos
    tracemalloc.start()
    try:
        few, many = traced_peak(4), traced_peak(400)
    finally:
        tracemalloc.stop()
    assert many - few < 2e4, (few, many)


FIXED_AOPP = "preset = rowC\np_send = 0.103\nmu_z = 0.43\nvariant = aopp\n"


PARTIAL_PROTOCOL = "preset = rowC\np_z = 0.5\nmu1 = 0.03\n"


@pytest.mark.parametrize("argv", [
    ["point", "--variant", "aopp", "--distance", "100"],
    ["scan", "--variant", "aopp", "--range", "100:200:50"],
    ["mc-verify", "--variant", "bfer", "--distance", "100", "--bits", "1000"],
], ids=["point", "scan", "mc-verify"])
def test_partial_protocol_is_refused_before_any_work(argv, tmp_path, monkeypatch, capsys):
    # the keys used to be dropped: point optimized and printed p_z=1.0 mu1=0.02
    def work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("optimize", "evaluate"):
        monkeypatch.setattr(cli, name, work)
    assert main(argv + ["--config", write_config(tmp_path, PARTIAL_PROTOCOL)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "'p_send' and 'mu_z'" in err and "['mu1', 'p_z']" in err


def test_optimize_ignores_protocol_keys(tmp_path, capsys):
    argv = ["optimize", "--variant", "aopp", "--distance", "100"]
    assert main(argv + ["--config", write_config(tmp_path, PARTIAL_PROTOCOL)]) == 0
    ignored = capsys.readouterr().out
    assert main(argv + ["--preset", "rowC"]) == 0
    assert capsys.readouterr().out == ignored


@pytest.mark.parametrize("range_spec", ["1e17:2e17:1", "0:1e9:1e-3", "0:1:1e-320"])
def test_scan_refuses_a_range_it_cannot_finish(range_spec, capsys):
    # 1e17 + 1 == 1e17, so stepping never reaches the end; the others ask for
    # 1e12 distances and an infinite number
    with time_limit(5):
        code = main(["scan", "--preset", "rowC", "--variant", "aopp", "--range", range_spec])
    assert code == 2
    assert_names_field("range", capsys)


@pytest.mark.parametrize("range_spec", ["0:1e-12:1e-13", "100:100.000000001:1e-10"])
def test_scan_refuses_a_step_that_repeats_a_distance(range_spec, tmp_path, capsys):
    # distances are rounded to 1e-9 km: these wrote 11 rows at 0 km, and 11
    # rows labelled 100, and exited 0
    out = tmp_path / "s.csv"
    argv = ["scan", "--config", write_config(tmp_path, FIXED_AOPP), "--range", range_spec,
            "--out", str(out)]
    assert main(argv) == 2
    assert_names_field("range", capsys)
    assert not out.exists()


def test_distance_limit_is_inclusive():
    assert cli._convert("range", "0:99999:1") == (0.0, 99999.0, 1.0)
    with pytest.raises(ConfigError, match="more than 100000 distances"):
        cli._convert("range", "0:100000:1")


@pytest.mark.parametrize("range_spec, distances", [
    ("0:1:0.1", ["0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9", "1"]),
    ("100:300:200", ["100", "300"]),
    ("100:100:1", ["100"]),
    # six significant digits labelled these rows 100 and 1.23457e+06 alike
    ("100:100.0003:0.0001", ["100", "100.0001", "100.0002", "100.0003"]),
    ("1234567:1234567.5:0.25", ["1234567", "1234567.25", "1234567.5"]),
    # the labels perfbench finds its rows by
    ("50:500:50", [f"{d:g}" for d in range(50, 501, 50)]),
])
def test_scan_distances(range_spec, distances, tmp_path):
    out = tmp_path / "s.csv"
    argv = ["scan", "--config", write_config(tmp_path, FIXED_AOPP), "--range", range_spec,
            "--out", str(out)]
    assert main(argv) == 0
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]
    labels = [row.split(",")[0] for row in rows]
    assert labels == distances
    # each label reads back as the distance of its row
    assert [float(label) for label in labels] == cli._scan_distances(*cli._parse_range(range_spec))




@pytest.mark.parametrize("config, stream, label", [
    (FIXED_AOPP, "out", "distance_km         {}\n"),
    (ONE_PULSE, "err", "at {} km: "),
], ids=["point-report", "refused-evaluation"])
def test_point_labels_close_distances_apart(config, stream, label, tmp_path, capsys):
    # six significant digits printed both distances as 100
    for distance in ("100.0001", "100.0002"):
        main(["point", "--config", write_config(tmp_path, config), "--preset", "rowC",
              "--variant", "bfer", "--distance", distance])
        assert label.format(distance) in getattr(capsys.readouterr(), stream)


# the flags of each subcommand besides --config and --out: only those it reads
COMMAND_FLAGS = {
    "scan": "preset variant mode convention vacuum-credit range seed",
    "point": "preset variant mode convention vacuum-credit distance",
    "optimize": "preset variant mode convention vacuum-credit distance",
    "plob": "preset distance eta-setting",
    "mc-verify": "preset variant mode convention vacuum-credit distance seed bits n-seeds "
                 "inject-fault",
    "qubit-check": "grid-points",
}
# the flags besides --config and --out that every subcommand used to take
FORMERLY_SHARED = "preset seed mode variant distance range jobs convention vacuum-credit".split()


def command_flags(command):
    return {"--config", "--out"} | {f"--{name}" for name in COMMAND_FLAGS[command].split()}


def exit_code(argv):
    """What a run exits with, whether main returns it or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exit:
        return exit.code


def test_each_command_takes_only_the_flags_it_reads():
    commands = next(action.choices for action in cli._parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    flags = {name: {option for action in parser._actions for option in action.option_strings
                    if option not in ("-h", "--help")}
             for name, parser in commands.items()}
    assert flags == {command: command_flags(command) for command in COMMAND_FLAGS}
    assert sum(map(len, flags.values())) == 45


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_a_flag_the_command_does_not_read_exits_two(command, capsys):
    for flag in sorted({f"--{name}" for name in FORMERLY_SHARED} - command_flags(command)):
        assert exit_code([command, flag]) == 2, flag
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["mc-verify", "--preset", "rowC", "--distance", "100", "--variant", "bogus",
      "--bits", "1000"], "field 'variant'"),
    (MC_ARGV + ["--mode", "finite", "--variant", "aopp"], "field 'mode'"),
    (["mc-verify", "--preset", "rowC", "--distance", "100", "--variant", "aopp,bfer",
      "--bits", "1000"], "give one --variant, not 'aopp,bfer'"),
    (["scan", "--preset", "rowC", "--variant", "aopp", "--range", "100:100:1",
      "--distance", "300"], "unrecognized arguments: --distance 300"),
    (["qubit-check", "--grid-points", "5", "--preset", "rowC"],
     "unrecognized arguments: --preset rowC"),
    (["plob", "--preset", "rowA", "--distance", "100", "--variant", "aopp"],
     "unrecognized arguments: --variant aopp"),
    (["scan", "--preset", "rowC", "--variant", "aopp", "--range", "100:200:50", "--jobs", "2"],
     "unrecognized arguments: --jobs 2"),
], ids=["mc-verify-unknown-variant", "mc-verify-mode", "mc-verify-two-variants",
        "scan-distance", "qubit-check-preset", "plob-variant", "scan-jobs"])
def test_input_a_command_used_to_ignore_exits_two(argv, message, capsys):
    # mc-verify ended in a traceback (exit 1, "statistic flagged"), ran
    # despite the mode, or sampled the first variant alone; scan, plob and
    # qubit-check ran and ignored the flag, but for --jobs, which a serial
    # scan no longer takes
    assert exit_code(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, config", [
    (["scan", "--preset", "rowC", "--variant", "aopp,aopp", "--range", "100:100:1"], ""),
    (["scan", "--preset", "rowC", "--variant", "aopp", "--variant", "bfer,aopp",
      "--range", "100:100:1"], ""),
    (["point", "--preset", "rowC", "--distance", "100"], "variant = bfer, aopp, bfer\n"),
], ids=["comma", "repeated-flag", "config"])
def test_repeated_variant_is_a_configuration_error(argv, config, tmp_path, capsys):
    # a scan ran the aopp optimization twice and wrote two aopp_rate columns
    assert main(argv + ["--config", write_config(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "field 'variant'" in err and "is repeated" in err
