"""Config parsing, validation, and the command-line entry points."""

import numpy as np
import pytest

from modematch import cli
from modematch.config import (
    RunConfig,
    load_config,
    parse_config,
    resolved_items,
    to_params,
    to_raman,
    to_search_space,
)
from modematch.errors import DomainError, NumericalError, ParseError
from modematch.sfwm import unfiltered_pair_probability


def read_csv(path):
    header = {}
    columns = None
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                header[key.strip()] = value.strip()
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    data = {
        name: np.array([float(r[i]) for r in rows])
        for i, name in enumerate(columns or [])
    }
    return header, data


class TestParseConfig:
    def test_empty_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == RunConfig()

    def test_comments_and_blanks_skipped(self):
        cfg = parse_config("# a comment\n\nrun.p_pair = 0.02\n")
        assert cfg.p_pair == 0.02

    def test_unknown_key_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_config("run.p_pair = 0.01\nbogus.key = 1\n")
        assert err.value.line == 2

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_config("run.p_pair = 0.01\n\nrun.p_pair = 0.02\n")
        assert err.value.line == 3

    def test_bad_value_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_config("fiber.gamma = fast\n")
        assert err.value.line == 1

    def test_missing_equals_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_config("just words\n")
        assert err.value.line == 1

    def test_tuple_and_bool_and_none_values(self):
        cfg = parse_config(
            "filter.orders = 2,6\nsweep.log = false\nfilter.t_min_sigma = 0.2\n"
            "filter.t_max_sigma = 0.5\n"
        )
        assert cfg.orders == (2, 6)
        assert cfg.sweep_log is False
        assert cfg.t_min_sigma == 0.2
        assert cfg.t_max_sigma == 0.5

    def test_validation_catches_bad_bounds(self):
        with pytest.raises(DomainError):
            parse_config("sweep.p_min = 0.05\nsweep.p_max = 0.01\n")
        with pytest.raises(DomainError):
            parse_config("sweep.points = 1\n")
        with pytest.raises(DomainError):
            parse_config("qkd.q_basis = 0.0\n")
        with pytest.raises(DomainError):
            parse_config("qkd.f_ec = 0.5\n")
        with pytest.raises(DomainError):
            parse_config("filter.t_min_sigma = 0.2\n")

    @pytest.mark.parametrize("key", ["numerics.rule", "numerics.padding_sigma"])
    def test_removed_numerics_keys_rejected(self, key, tmp_path):
        # every band grid is Gauss-Legendre with a fixed emission pad, so
        # neither key may be accepted and then ignored
        text = "run.p_pair = 0.01\n%s = gauss\n" % key
        with pytest.raises(ParseError) as err:
            parse_config(text)
        assert err.value.line == 2
        assert "unknown key" in str(err.value)
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(text)
        rc = cli.main(["modes", "--config", str(cfgp), "--out", str(tmp_path / "m")])
        assert rc == 2

    def test_resolved_items_covers_every_key(self):
        cfg = RunConfig()
        items = resolved_items(cfg)
        keys = [k for k, _ in items]
        assert len(keys) == len(set(keys))
        assert "fiber.gamma" in keys
        assert "output.dir" in keys
        # deterministic ordering
        assert items == resolved_items(RunConfig())


class TestConfigConversion:
    def test_operating_point_honored(self):
        cfg = parse_config("run.p_pair = 0.004\n")
        params = to_params(cfg)
        assert unfiltered_pair_probability(params) == pytest.approx(
            0.004, rel=1e-12
        )

    def test_band_center_propagates(self):
        cfg = parse_config("band.center_nm = 12.0\n")
        params = to_params(cfg)
        assert params.b0_sigma == pytest.approx(24.0, rel=1e-12)

    def test_raman_sources(self, tmp_path):
        cfg = parse_config("")
        params = to_params(cfg)
        model = to_raman(cfg, params)
        assert model.ratios.size == 3  # the built-in anchors
        path = tmp_path / "gain.csv"
        path.write_text("detuning_thz,gain_ratio\n1.0,0.1\n2.0,0.2\n")
        cfg2 = parse_config("raman.source = %s\n" % path)
        model2 = to_raman(cfg2, params)
        # a path loads that table
        assert model2.ratios.tolist() == [0.1, 0.2]
        assert model2.detunings == pytest.approx([2e12 * np.pi, 4e12 * np.pi], rel=1e-15)

    def test_search_space_propagates(self):
        cfg = parse_config(
            "filter.orders = 2,4\nfilter.width_min_sigma = 1.0\n"
            "filter.width_max_sigma = 5.0\nfilter.objective = visibility\n"
        )
        space = to_search_space(cfg)
        assert space.orders == (2, 4)
        assert space.width_lo == 1.0
        assert space.width_hi == 5.0
        assert space.objective == "visibility"

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("run.p_pair = 0.02\noutput.dir = results\n")
        cfg = load_config(path)
        assert cfg.p_pair == 0.02
        assert cfg.output_dir == "results"


SMALL = "numerics.n_points = 101\n"


class TestCliModes:
    def test_default_matched_filter(self, tmp_path):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(SMALL)
        rc = cli.main(
            ["modes", "--config", str(cfgp), "--out", str(tmp_path / "m")]
        )
        assert rc == 0
        header, data = read_csv(tmp_path / "m" / "modes.csv")
        assert set(data) == {"omega_sigma", "psi0", "psi1", "phi0"}
        # ideal matched filter passes the fundamental mode itself
        assert np.allclose(data["phi0"], data["psi0"], atol=1e-10)
        assert float(header["psi0_fwhm_sigma"]) > 1.3 * float(
            header["pump_fwhm_sigma"]
        )
        zetas = [float(z) for z in header["zeta"].split(",")]
        assert zetas[0] == pytest.approx(0.5252533, rel=1e-5)

    def test_open_filter_omits_phi0(self, tmp_path):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(SMALL + "filter.kind = open\n")
        rc = cli.main(
            ["modes", "--config", str(cfgp), "--out", str(tmp_path / "m")]
        )
        assert rc == 0
        header, data = read_csv(tmp_path / "m" / "modes.csv")
        assert set(data) == {"omega_sigma", "psi0", "psi1"}
        assert "chi0" not in header

    def test_practical_filter_headers(self, tmp_path):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(SMALL + "filter.kind = practical\n")
        rc = cli.main(
            ["modes", "--config", str(cfgp), "--out", str(tmp_path / "m")]
        )
        assert rc == 0
        header, _ = read_csv(tmp_path / "m" / "modes.csv")
        assert float(header["chi0"]) == pytest.approx(0.3313, rel=2e-2)
        assert float(header["overlap_phi0_psi0"]) > 0.999


class TestCliSweeps:
    def test_ppair_sweep(self, tmp_path):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(SMALL + "sweep.points = 5\n")
        rc = cli.main(
            ["sweep-ppair", "--config", str(cfgp), "--out", str(tmp_path / "s")]
        )
        assert rc == 0
        _, data = read_csv(tmp_path / "s" / "sweep_ppair.csv")
        assert set(data) == {
            "p_pair",
            "v_open",
            "qber_open",
            "key_open",
            "v_filtered",
            "qber_filtered",
            "key_filtered",
        }
        # the configured operating point is always a row
        assert np.any(np.isclose(data["p_pair"], 0.01, rtol=1e-12))
        assert np.all(data["v_filtered"] >= data["v_open"] - 1e-12)
        assert np.all(np.diff(data["v_open"]) < 0)

    def test_ppair_sweep_rejects_other_kind(self, tmp_path):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("sweep.kind = detuning\n")
        rc = cli.main(
            ["sweep-ppair", "--config", str(cfgp), "--out", str(tmp_path / "s")]
        )
        assert rc == 2

    def test_detuning_sweep_hits_anchors(self, tmp_path):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(
            SMALL + "sweep.delta_points = 4\nfilter.kind = open\n"
        )
        rc = cli.main(
            ["sweep-detuning", "--config", str(cfgp), "--out", str(tmp_path / "d")]
        )
        assert rc == 0
        _, data = read_csv(tmp_path / "d" / "sweep_detuning.csv")
        assert data["delta_nm"][0] == pytest.approx(5.0)
        assert data["delta_nm"][-1] == pytest.approx(14.0)
        assert data["v_sat_open"][0] == pytest.approx(0.96, abs=1e-6)
        assert data["v_sat_open"][-1] == pytest.approx(0.71, abs=1e-6)
        # open reference arm: the filtered column repeats it
        assert np.allclose(data["v_sat_filtered"], data["v_sat_open"], atol=1e-9)

    def test_detuning_sweep_flags_clamped_rows(self, tmp_path):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(
            SMALL
            + "sweep.delta_min_nm = 4.0\nsweep.delta_max_nm = 15.0\n"
            + "sweep.delta_points = 3\nfilter.kind = open\n"
        )
        rc = cli.main(
            ["sweep-detuning", "--config", str(cfgp), "--out", str(tmp_path / "d")]
        )
        assert rc == 0
        _, data = read_csv(tmp_path / "d" / "sweep_detuning.csv")
        assert data["clamped"][0] == 1.0
        assert data["clamped"][-1] == 1.0
        assert data["clamped"][1] == 0.0


class TestCliOptimize:
    def test_report_and_profile(self, tmp_path):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(
            SMALL
            + "filter.orders = 2\nfilter.width_min_sigma = 2.0\n"
            + "filter.width_max_sigma = 6.0\n"
        )
        rc = cli.main(
            ["optimize", "--config", str(cfgp), "--out", str(tmp_path / "o")]
        )
        assert rc == 0
        text = (tmp_path / "o" / "filter_report.txt").read_text()
        report = {}
        for line in text.splitlines():
            if line.startswith("#") or "=" not in line:
                continue
            key, _, value = line.partition("=")
            report[key.strip()] = value.strip()
        assert report["order"] == "2"
        assert float(report["width_sigma"]) == pytest.approx(3.68, abs=0.1)
        assert float(report["overlap_phi0_psi0"]) > 0.999
        assert float(report["chi0"]) == pytest.approx(0.33, abs=0.02)
        assert float(report["collection_fraction"]) == pytest.approx(
            float(report["chi0"]) ** 2, rel=1e-6
        )
        assert report["converged"] == "true"
        assert (tmp_path / "o" / "filter_profile.csv").exists()

    def test_shutter_fwhm_reported_in_ps(self, tmp_path):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(
            SMALL + "filter.orders = 2\nfilter.width_min_sigma = 3.0\n"
            "filter.width_max_sigma = 4.5\n"
        )
        rc = cli.main(
            ["optimize", "--config", str(cfgp), "--out", str(tmp_path / "o")]
        )
        assert rc == 0
        text = (tmp_path / "o" / "filter_report.txt").read_text()
        line = next(l for l in text.splitlines() if l.startswith("shutter_fwhm_ps"))
        assert float(line.partition("=")[2]) == pytest.approx(0.8798, rel=1e-3)


# small grid and short sweeps; order 2 keeps the filter search short
QUICK = (
    "numerics.n_points = 41\nfilter.orders = 2\nsweep.points = 2\n"
    "sweep.delta_points = 2\n"
)


def read_report(path):
    report = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, _, value = line.partition("=")
        report[key.strip()] = value.strip()
    return report


class TestCliFilterResolution:
    @pytest.mark.parametrize("kind", ["open", "ideal-matched", "practical", "optimize"])
    def test_one_filter_resolved_per_config(self, kind, tmp_path):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(QUICK + "filter.kind = %s\n" % kind)
        resolved = set()
        for command, name in (("modes", "modes.csv"),
                              ("sweep-ppair", "sweep_ppair.csv"),
                              ("sweep-detuning", "sweep_detuning.csv")):
            out = tmp_path / command
            rc = cli.main([command, "--config", str(cfgp), "--out", str(out)])
            assert rc == 0
            header, _ = read_csv(out / name)
            resolved.add(header["filter_resolved"])
        assert len(resolved) == 1
        assert resolved.pop().split()[0] == (
            "optimized" if kind == "optimize" else kind)

    def test_detuning_sweep_builds_practical_filter_once(self, tmp_path,
                                                         monkeypatch):
        built = []
        real = cli.practical_filter

        def counting(*args, **kwargs):
            built.append(args[1:])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "practical_filter", counting)
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(QUICK + "filter.kind = practical\n")
        rc = cli.main(["sweep-detuning", "--config", str(cfgp),
                       "--out", str(tmp_path / "d")])
        assert rc == 0
        assert built == [(2, 3.68, 0.35)]

    def test_modes_overlap_matches_optimize_report(self, tmp_path):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(QUICK + "filter.kind = optimize\n")
        for command in ("modes", "optimize"):
            rc = cli.main([command, "--config", str(cfgp),
                           "--out", str(tmp_path / command)])
            assert rc == 0
        header, _ = read_csv(tmp_path / "modes" / "modes.csv")
        report = read_report(tmp_path / "optimize" / "filter_report.txt")
        assert float(header["overlap_phi0_psi0"]) == pytest.approx(
            float(report["overlap_phi0_psi0"]), rel=1e-6)


class TestCliCalibrate:
    def test_writes_table_and_prints_ratio(self, tmp_path, capsys):
        rc = cli.main(
            [
                "calibrate",
                "--target-v",
                "0.82",
                "--delta-nm",
                "10.0",
                "--out",
                str(tmp_path / "c"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "gain_ratio = 3.2285660" in out
        header, data = read_csv(tmp_path / "c" / "raman_calibrated.csv")
        assert float(header["target_v_sat"]) == 0.82
        assert data["gain_ratio"][0] == pytest.approx(0.0322856606, rel=1e-6)


class TestCliErrors:
    def test_missing_config_file(self, tmp_path):
        rc = cli.main(
            ["modes", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]
        )
        assert rc == 2

    def test_bad_config_key(self, tmp_path):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("no.such = 1\n")
        rc = cli.main(["modes", "--config", str(cfgp), "--out", str(tmp_path)])
        assert rc == 2

    def test_numerical_error_exit_code(self, tmp_path, monkeypatch):
        def boom(cfg, out_dir, args):
            raise NumericalError("probe mismatch")

        monkeypatch.setattr(cli, "cmd_modes", boom)
        rc = cli.main(["modes", "--out", str(tmp_path / "x")])
        assert rc == 3

    def test_usage_error_raises_system_exit(self):
        with pytest.raises(SystemExit):
            cli.main(["no-such-command"])

    @pytest.mark.parametrize("text", [
        "run.p_pair = nan\n",
        "fiber.gamma = 1.6\nfiber.length_km = inf\n",
        "filter.t_min_sigma = 0.2\nfilter.t_max_sigma = -inf\n",
    ])
    def test_non_finite_config_value(self, text, tmp_path, capsys):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(text)
        rc = cli.main(["modes", "--config", str(cfgp), "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "line %d:" % text.count("\n") in capsys.readouterr().err
        assert not (tmp_path / "m" / "modes.csv").exists()

    def test_non_finite_gain_table_value(self, tmp_path, capsys):
        table = tmp_path / "gain.csv"
        table.write_text("detuning_thz,gain_ratio\n1.0,0.1\n1.5,nan\n")
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("raman.source = %s\n" % table)
        rc = cli.main(["modes", "--config", str(cfgp), "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "line 3:" in capsys.readouterr().err
        assert not (tmp_path / "m" / "modes.csv").exists()

    def test_non_ascii_config(self, tmp_path, capsys):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_bytes("run.p_pair = 0.01\n# caf\u00e9\n".encode("utf-8"))
        rc = cli.main(["modes", "--config", str(cfgp), "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "line 2: non-ASCII byte 0xc3" in capsys.readouterr().err

    def test_non_ascii_gain_table(self, tmp_path, capsys):
        table = tmp_path / "gain.csv"
        table.write_bytes("# caf\u00e9\r\ndetuning_thz,gain_ratio\r\n1.0,0.1\r\n"
                          .encode("utf-8"))
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("raman.source = %s\n" % table)
        rc = cli.main(["modes", "--config", str(cfgp), "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "line 1: non-ASCII byte 0xc3" in capsys.readouterr().err


class TestCliDeterminism:
    def test_modes_byte_identical(self, tmp_path):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(SMALL)
        for sub in ("a", "b"):
            rc = cli.main(
                ["modes", "--config", str(cfgp), "--out", str(tmp_path / sub)]
            )
            assert rc == 0
        a = (tmp_path / "a" / "modes.csv").read_bytes()
        b = (tmp_path / "b" / "modes.csv").read_bytes()
        assert a == b
