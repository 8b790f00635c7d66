import dataclasses
import math

import pytest

from snsqkd import cli
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
        assert "# rng = numpy-pcg64" in text

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
    def test_prints_params_and_restarts(self, capsys):
        assert main(["optimize", "--preset", "rowF", "--distance", "240",
                     "--variant", "aopp"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("variant aopp: rate ")
        assert "restarts" in out and "start" in out
        rate = float(out.splitlines()[0].split()[3])
        assert rate == pytest.approx(3.99e-6, rel=0.5)


def test_parallel_scan_matches_sequential(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("preset = rowC\np_send = 0.103\nmu_z = 0.43\nvariant = aopp\n")
    base = ["scan", "--config", str(cfg), "--range", "100:250:50", "--seed", "5"]
    assert main(base + ["--out", str(tmp_path / "seq.csv")]) == 0
    assert main(base + ["--jobs", "2", "--out", str(tmp_path / "par.csv")]) == 0
    assert (tmp_path / "seq.csv").read_bytes() == (tmp_path / "par.csv").read_bytes()


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
    ["scan", "--preset", "rowC", "--variant", "aopp", "--range", "100:200:50", "--jobs", "0"],
    ["scan", "--preset", "rowC", "--variant", "aopp", "--range", "100:200:50", "--jobs", "-2"],
], ids=["bits1", "bits-5", "n_seeds0", "grid_points0", "jobs0", "jobs-2"])
def test_count_below_minimum_is_a_configuration_error(argv, capsys):
    # each of these used to end in a traceback, or run nothing (or run
    # serially) and exit 0
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "must be at least" in err


# a malformed value of every configuration key but `out`, which takes any text
MALFORMED = {
    "preset": "bogus",
    "mode": "bogus",
    "convention": "bogus",
    "seed": "-1",
    "bits": "abc",
    "n_seeds": "1.5",
    "grid_points": "x",
    "jobs": "two",
    "vacuum_credit": "maybe",
    "inject_fault": "maybe",
    "distance": "abc",
    "range": "a:b:c",
    "variant": "bogus",
    **dict.fromkeys(cli._EXPERIMENT_KEYS + cli._PROTOCOL_KEYS, "abc"),
}
# the subcommand that has each flag taking a value; the experiment and
# protocol keys have no flag, and the two boolean flags take no value
FLAG_COMMAND = {
    **dict.fromkeys(("preset", "mode", "convention", "seed", "jobs", "distance", "range",
                     "variant"), "point"),
    "bits": "mc-verify",
    "n_seeds": "mc-verify",
    "grid_points": "qubit-check",
}


def test_malformed_values_cover_every_key():
    assert set(MALFORMED) | {"out"} == set(cli._FIELDS)


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
    argv = [FLAG_COMMAND[key], "--preset", "rowC", "--variant", "bfer", "--distance", "100",
            f"--{key.replace('_', '-')}={MALFORMED[key]}"]
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
], ids=["distance = abc", "range = a:b:c", "--range a:b:c", "--seed -1", "seed = -1"])
def test_bad_number_is_a_configuration_error(argv, config, key, tmp_path, capsys):
    # each of these used to end in a traceback
    path = write_config(tmp_path, config)
    assert main(argv + ["--config", path]) == 2
    assert_names_field(key, capsys)


def test_mc_verify_on_two_bit_strings(tmp_path):
    # some of these seeds sample a string in which Bob holds one bit value
    # only; the literal pairing then forms no pairs
    argv = ["mc-verify", "--preset", "rowC", "--distance", "100", "--variant", "bfer",
            "--bits", "2", "--n-seeds", "50", "--out", str(tmp_path / "z.csv")]
    assert main(argv) == 0
