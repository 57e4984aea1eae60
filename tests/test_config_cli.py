"""Config parsing, validation, and the command-line entry points."""

import contextlib
import io
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import modematch
from modematch import cli, filters, sfwm, visibility
from modematch.config import (
    KEYMAP,
    RunConfig,
    load_config,
    parse_config,
    resolved_items,
    to_params,
    to_raman,
    to_search_space,
)
from modematch.errors import (DomainError, NumericalError, ParseError,
                               PhysicalityError)
from modematch.sfwm import sfwm_modes, unfiltered_pair_probability


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
            parse_config("fiber.temperature_k = fast\n")
        assert err.value.line == 1

    @pytest.mark.parametrize("text, line", [
        ("fiber.temperature_k = 300.0\v\nbogus = 1\n", 2),
        ("fiber.temperature_k = 300.0\f\nbogus = 1\n", 2),
        ("fiber.temperature_k = 300.0\x1e\nbogus = 1\n", 2),
        ("run.p_pair = 0.01\r\n\r\nbogus = 1", 3),
        ("run.p_pair = 0.01\r\rbogus = 1", 3),
    ], ids=["VT", "FF", "RS", "CRLF", "CR"])
    def test_line_numbers_count_only_line_feeds(self, text, line):
        # as in read_ascii and the gain-table reader, only LF (after CRLF
        # and CR become LF) ends a line
        with pytest.raises(ParseError) as err:
            parse_config(text)
        assert err.value.line == line

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

    @pytest.mark.parametrize("key", ["numerics.rule", "numerics.padding_sigma",
                                     "sweep.kind", "fiber.gamma",
                                     "fiber.length_km", "qkd.apply_q_basis"])
    def test_removed_numerics_keys_rejected(self, key, tmp_path):
        # every band grid is Gauss-Legendre with a fixed emission pad, each
        # sweep is its own command, the fiber enters only through the gain
        # that run.p_pair sets, and qkd.q_basis always applies, so no key
        # may be accepted and then ignored
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
        assert sorted(keys) == sorted(KEYMAP)
        assert len(keys) == 28
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

    def test_gain_is_the_closed_form(self):
        cfg = parse_config("pump.sigma_nm = 0.45\nrun.p_pair = 0.02\n")
        params = to_params(cfg)
        q = math.sqrt(0.02 / (math.sqrt(2.0 * math.pi) * math.pi * params.b_sigma))
        assert params.q == q

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

    def test_ppair_sweep_rejects_other_kind(self, tmp_path, capsys):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("sweep.kind = detuning\n")
        rc = cli.main(
            ["sweep-ppair", "--config", str(cfgp), "--out", str(tmp_path / "s")]
        )
        assert rc == 2
        assert "unknown key 'sweep.kind'" in capsys.readouterr().err

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


class TestCliRateModel:
    def test_fixed_filter_sweeps_skip_the_pair_decomposition(self, tmp_path,
                                                             count_calls):
        decomposed = count_calls("sfwm_modes", cli)
        leading = count_calls("decompose_kernel", visibility)
        counts = {}
        for kind in ("practical", "ideal-matched"):
            cfgp = tmp_path / ("%s.cfg" % kind)
            cfgp.write_text(QUICK + "filter.kind = %s\n" % kind)
            decomposed.clear()
            leading.clear()
            for command in ("sweep-ppair", "sweep-detuning"):
                rc = cli.main([command, "--config", str(cfgp),
                               "--out", str(tmp_path / kind / command)])
                assert rc == 0
            counts[kind] = (len(decomposed), len(leading))
        # ideal-matched decomposes the pair amplitude at each of the 3
        # p_pair rows and the leading amplitude once for all detuning
        # rows; a fixed filter never decomposes
        assert counts == {"practical": (0, 0), "ideal-matched": (3, 1)}

    @pytest.mark.parametrize("command", ["modes", "sweep-ppair",
                                         "sweep-detuning", "optimize"])
    @pytest.mark.parametrize("kind", ["open", "ideal-matched", "practical",
                                      "optimize"])
    def test_one_band_grid_and_rate_model(self, kind, command, tmp_path,
                                          count_calls):
        grids = count_calls("make_band_grid", cli, sfwm, visibility, filters)
        models = count_calls("RateModel", cli, visibility)
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(QUICK + "filter.kind = %s\n" % kind)
        rc = cli.main([command, "--config", str(cfgp), "--out", str(tmp_path / "s")])
        assert rc == 0
        # the filter, the search and every pair decomposition share the
        # model's grid, so its grid checks pass by identity; the other
        # grids are Raman emission grids
        assert [args[1] for args in grids].count(41) == 1
        assert len(models) <= 1

    @pytest.mark.parametrize("objective", ["mode-match", "visibility"])
    def test_optimized_modes_decompose_the_pair_once(self, objective, tmp_path,
                                                     count_calls):
        decomposed = count_calls("sfwm_modes", cli, filters)
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(QUICK + "filter.kind = optimize\nfilter.objective = %s\n"
                        % objective)
        rc = cli.main(["modes", "--config", str(cfgp), "--out", str(tmp_path / "m")])
        assert rc == 0
        # psi0 comes from the decomposition the search matched against
        assert len(decomposed) == 1

    def test_optimized_filter_is_evaluated_only_where_printed(self, tmp_path,
                                                              count_calls):
        evaluated = count_calls("evaluate_operating_point", cli, filters)
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(QUICK + "filter.kind = optimize\n")
        counts = {}
        for command in ("optimize", "modes", "sweep-detuning"):
            evaluated.clear()
            rc = cli.main([command, "--config", str(cfgp), "--out", str(tmp_path / command)])
            assert rc == 0
            counts[command] = len(evaluated)
        # the mode-match search never evaluates a filter; only optimize
        # prints the winner's V, QBER and key
        assert counts == {"optimize": 1, "modes": 0, "sweep-detuning": 0}

    def test_ppair_sweep_builds_source_pieces_once(self, tmp_path, count_calls):
        n = 41
        occ = count_calls("thermal_occupation", visibility)
        budgets = count_calls("unfiltered_budget", cli, visibility)
        grids = count_calls("make_band_grid", cli, sfwm, visibility)
        counts = []
        for points in (3, 6):
            cfgp = tmp_path / ("%d.cfg" % points)
            cfgp.write_text("numerics.n_points = %d\nsweep.points = %d\n"
                            % (n, points))
            for calls in (occ, budgets, grids):
                calls.clear()
            rc = cli.main(["sweep-ppair", "--config", str(cfgp),
                           "--out", str(tmp_path / str(points))])
            assert rc == 0
            # each row's closed-form open budget takes two occupations
            counts.append((len(budgets), len(occ) - 2 * len(budgets), len(grids)))
        (rows_1, occ_1, grids_1), (rows_2, occ_2, grids_2) = counts
        assert rows_2 > rows_1
        assert occ_1 == occ_2 == 2 * (2 * n + 1)
        assert grids_1 == grids_2 == 3

    @pytest.mark.parametrize("rows", [2, 4])
    def test_detuning_sweep_builds_row_raman_pieces_once(self, rows, tmp_path,
                                                         count_calls):
        n = 41
        occ = count_calls("thermal_occupation", visibility)
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("numerics.n_points = %d\nsweep.delta_points = %d\n"
                        % (n, rows))
        rc = cli.main(["sweep-detuning", "--config", str(cfgp),
                       "--out", str(tmp_path / "d")])
        assert rc == 0
        # one emission grid of 2n + 1 nodes per band and row
        assert len(occ) == rows * 2 * (2 * n + 1)


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

    @pytest.mark.parametrize("flags", [
        ["--target-v", "0.8", "--delta-nm", "nan"],
        ["--target-v", "0.8", "--delta-nm", "inf"],
        ["--target-v", "nan", "--delta-nm", "9"],
    ], ids=["delta-nan", "delta-inf", "target-nan"])
    def test_non_finite_flag_is_a_usage_error(self, flags, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["calibrate", "--out", str(tmp_path / "c")] + flags)
        assert exc.value.code == 2
        assert "invalid finite_float value" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("delta_nm", ["1e300", "100000"])
    def test_detuning_past_the_pump_frequency(self, delta_nm, tmp_path, capsys):
        rc = cli.main(["calibrate", "--target-v", "0.8", "--delta-nm", delta_nm,
                       "--out", str(tmp_path / "c")])
        assert rc == 2
        assert "zero absolute frequency" in capsys.readouterr().err
        assert not (tmp_path / "c" / "raman_calibrated.csv").exists()


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
            raise NumericalError("convergence check failed")

        monkeypatch.setattr(cli, "cmd_modes", boom)
        rc = cli.main(["modes", "--out", str(tmp_path / "x")])
        assert rc == 3

    def test_under_resolved_filter_kernel_exit_code(self, tmp_path, capsys):
        # a valid mask and a 50 sigma^-1 shutter make a contraction, which
        # 41 nodes resolve so poorly that a pass probability exceeds 1
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("numerics.n_points = 41\nfilter.kind = practical\n"
                        "filter.shutter_t_sigma = 50\n")
        rc = cli.main(["modes", "--config", str(cfgp), "--out", str(tmp_path / "m")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "pass probability 3.205993 > 1" in err
        assert "a larger numerics.n_points may resolve it" in err
        assert not (tmp_path / "m" / "modes.csv").exists()

    def test_pair_probability_past_perturbative_bound(self, tmp_path, capsys):
        # p_pair = 0.8 needs q = 0.101, past Q_MAX = 0.1
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("run.p_pair = 0.8\n")
        rc = cli.main(["modes", "--config", str(cfgp), "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "exceeds the perturbative bound 0.1" in capsys.readouterr().err
        assert not (tmp_path / "m" / "modes.csv").exists()

    @pytest.mark.parametrize("temperature, rc", [("4.0", 2), ("40.0", 0)])
    def test_cold_fiber_with_the_builtin_table(self, temperature, rc, tmp_path,
                                               capsys):
        # the built-in anchors are calibrated at the configured temperature;
        # at 4 K they need a gain ratio past calibrate_raman's bound
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("fiber.temperature_k = %s\nnumerics.n_points = 41\n"
                        % temperature)
        assert cli.main(["modes", "--config", str(cfgp),
                         "--out", str(tmp_path / "m")]) == rc
        err = capsys.readouterr().err
        if rc:
            assert err == ("error: the built-in gain table (raman.source = builtin) "
                           "cannot reach its anchor visibilities at "
                           "fiber.temperature_k = 4.0; set raman.source to a "
                           "gain table file\n")
        assert (tmp_path / "m" / "modes.csv").exists() == (rc == 0)

    @pytest.mark.parametrize("text", [
        "filter.shutter_t_sigma = -2\n",
        "filter.order = 3\n",
        "filter.order = 22\n",
        "filter.width_sigma = 0\n",
        "filter.width_min_sigma = -1\n",
        "filter.t_min_sigma = 5\nfilter.t_max_sigma = 1\n",
        "filter.orders = 3,5\n",
        "filter.orders = 22\n",
    ])
    def test_bad_filter_value_rejected_by_every_command(self, text, tmp_path):
        # the default filter.kind uses none of these keys
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(text)
        rc = cli.main(["modes", "--config", str(cfgp), "--out", str(tmp_path / "m")])
        assert rc == 2
        assert not (tmp_path / "m" / "modes.csv").exists()

    def test_usage_error_raises_system_exit(self):
        with pytest.raises(SystemExit):
            cli.main(["no-such-command"])

    @pytest.mark.parametrize("text", [
        "run.p_pair = nan\n",
        pytest.param("qkd.f_ec = 2\nqkd.q_basis = inf\n", id="q_basis-inf"),
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

    def test_gain_table_without_rows(self, tmp_path, capsys):
        table = tmp_path / "gain.csv"
        table.write_text("detuning_thz,gain_ratio\n")
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("raman.source = %s\n" % table)
        rc = cli.main(["modes", "--config", str(cfgp), "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "gain table has no data rows" in capsys.readouterr().err
        assert not (tmp_path / "m" / "modes.csv").exists()

    def test_oversized_grid_rejected_before_any_grid(self, tmp_path, capsys,
                                                     count_calls):
        # n = 2001 parses; a larger n exits 2 from the config check alone
        assert parse_config("numerics.n_points = 2001\n").n_points == 2001
        for n in (2002, 100000000):
            with pytest.raises(DomainError, match="numerics.n_points"):
                parse_config("numerics.n_points = %d\n" % n)
        grids = count_calls("make_band_grid", cli, sfwm, visibility, filters)
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("numerics.n_points = 100000000\n")
        rc = cli.main(["modes", "--config", str(cfgp), "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "numerics.n_points must lie in 3..2001" in capsys.readouterr().err
        assert grids == []

    def test_band_past_the_pump_frequency(self, tmp_path, capsys):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("band.center_nm = 100000\n")
        rc = cli.main(["sweep-ppair", "--config", str(cfgp),
                       "--out", str(tmp_path / "s")])
        assert rc == 2
        assert "zero absolute frequency" in capsys.readouterr().err
        assert not (tmp_path / "s" / "sweep_ppair.csv").exists()

    def test_cold_fiber_far_band_runs(self, tmp_path):
        # at 0.5 K and 100 nm hbar omega / k T is past expm1's range: no
        # anti-Stokes phonons, one Stokes spontaneous term
        table = tmp_path / "gain.csv"
        table.write_text("detuning_thz,gain_ratio\n5.0,0.02\n20.0,0.05\n")
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("fiber.temperature_k = 0.5\nband.center_nm = 100\n"
                        "raman.source = %s\n" % table + QUICK)
        rc = cli.main(["sweep-ppair", "--config", str(cfgp),
                       "--out", str(tmp_path / "s")])
        assert rc == 0
        _, data = read_csv(tmp_path / "s" / "sweep_ppair.csv")
        for column in data.values():
            assert np.all(np.isfinite(column))
        assert np.all((data["v_open"] > 0) & (data["v_open"] <= 1))
        assert np.all(data["v_filtered"] >= data["v_open"])

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


class TestOutputFiles:
    FILES = {
        "modes": ["modes.csv"],
        "sweep-ppair": ["sweep_ppair.csv"],
        "sweep-detuning": ["sweep_detuning.csv"],
        "optimize": ["filter_profile.csv", "filter_report.txt"],
        "calibrate": ["raman_calibrated.csv"],
    }

    @pytest.mark.parametrize("command", sorted(FILES))
    def test_every_file_starts_with_the_resolved_config(self, command, tmp_path):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text(QUICK + "filter.kind = practical\nrun.p_pair = 0.02\n")
        out = tmp_path / "o"
        argv = [command, "--config", str(cfgp), "--out", str(out)]
        if command == "calibrate":
            argv += ["--target-v", "0.8", "--delta-nm", "9"]
        assert cli.main(argv) == 0
        want = ["# %s = %s" % item for item in resolved_items(load_config(cfgp))]
        assert sorted(p.name for p in out.iterdir()) == self.FILES[command]
        for path in out.iterdir():
            lines = path.read_bytes().decode("ascii").split("\n")
            assert lines[:len(want)] == want, path.name


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

    def test_files_independent_of_blas_threads(self, tmp_path):
        # one child per thread count, since BLAS reads it once at import
        src = os.path.dirname(os.path.dirname(modematch.__file__))
        code = ("import sys\nfrom modematch import cli\n"
                "for command in ('modes', 'sweep-ppair', 'sweep-detuning'):\n"
                "    assert cli.main([command, '--out', sys.argv[1]]) == 0\n")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        files = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = threads
            out = tmp_path / threads
            proc = subprocess.run([sys.executable, "-c", code, str(out)], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            files.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(files[0]) == ["modes.csv", "sweep_detuning.csv",
                                    "sweep_ppair.csv"]
        for name in files[0]:
            assert files[0][name] == files[1][name], name


# one witness per config key: (the key's alternative values, filter.kind,
# command) such that the command's output differs from the same run
# without them; the two shutter bounds are only valid together
WITNESSES = [
    ({"fiber.temperature_k": "310.0"}, "open", "calibrate"),
    ({"pump.wavelength_nm": "1550.0"}, "open", "sweep-detuning"),
    ({"pump.sigma_nm": "0.45"}, "ideal-matched", "modes"),
    ({"band.center_nm": "12.0"}, "open", "sweep-ppair"),
    ({"band.width_nm": "4.0"}, "ideal-matched", "modes"),
    ({"run.p_pair": "0.02"}, "ideal-matched", "modes"),
    ({"numerics.n_points": "51"}, "ideal-matched", "modes"),
    ({"raman.source": "TABLE"}, "ideal-matched", "sweep-detuning"),
    ({"filter.kind": "practical"}, "ideal-matched", "sweep-ppair"),
    ({"filter.order": "4"}, "practical", "modes"),
    ({"filter.width_sigma": "3.0"}, "practical", "modes"),
    ({"filter.shutter_t_sigma": "0.5"}, "practical", "modes"),
    ({"filter.objective": "visibility"}, "optimize", "optimize"),
    ({"filter.orders": "4"}, "optimize", "optimize"),
    ({"filter.width_min_sigma": "4.0"}, "optimize", "optimize"),
    ({"filter.width_max_sigma": "3.0"}, "optimize", "optimize"),
    ({"filter.t_min_sigma": "0.2", "filter.t_max_sigma": "0.5"},
     "optimize", "optimize"),
    ({"sweep.p_min": "0.001"}, "open", "sweep-ppair"),
    ({"sweep.p_max": "0.03"}, "open", "sweep-ppair"),
    ({"sweep.points": "4"}, "open", "sweep-ppair"),
    ({"sweep.log": "false"}, "open", "sweep-ppair"),
    ({"sweep.delta_min_nm": "6.0"}, "open", "sweep-detuning"),
    ({"sweep.delta_max_nm": "12.0"}, "open", "sweep-detuning"),
    ({"sweep.delta_points": "3"}, "open", "sweep-detuning"),
    ({"qkd.f_ec": "1.5"}, "ideal-matched", "sweep-ppair"),
    ({"qkd.q_basis": "0.5"}, "ideal-matched", "sweep-ppair"),
    ({"output.dir": "elsewhere"}, "open", "modes"),
]

WITNESS_BASE = {"numerics.n_points": "41", "filter.orders": "2",
                "sweep.points": "3", "sweep.delta_points": "2"}

WITNESS_ARGS = {"calibrate": ["--target-v", "0.8", "--delta-nm", "9"]}


class TestEveryKeyChangesAResult:
    """Every config key changes what some command writes (files under the
    run directory, header lines excluded) or prints."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("witness")
        table = root / "gain.csv"
        table.write_text("detuning_thz,gain_ratio\n0.5,0.01\n2.0,0.05\n")
        done = {}

        def result(settings, command):
            text = "".join("%s = %s\n" % (key, str(table) if value == "TABLE" else value)
                           for key, value in settings.items())
            if (text, command) not in done:
                run_dir = root / ("run%d" % len(done))
                run_dir.mkdir()
                cfgp = root / ("run%d.cfg" % len(done))
                cfgp.write_text(text)
                # no --out, so output.dir decides where the files go
                with pytest.MonkeyPatch.context() as mp:
                    mp.chdir(run_dir)
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        rc = cli.main([command, "--config", str(cfgp)]
                                      + WITNESS_ARGS.get(command, []))
                assert rc == 0
                files = {str(p.relative_to(run_dir)):
                         [l for l in p.read_text().splitlines() if not l.startswith("#")]
                         for p in sorted(run_dir.rglob("*")) if p.is_file()}
                done[text, command] = (files, out.getvalue())
            return done[text, command]

        return result

    @pytest.mark.parametrize("witness, kind, command", WITNESSES,
                             ids=["+".join(w) for w, _, _ in WITNESSES])
    def test_key_changes_output(self, run, witness, kind, command):
        base = dict(WITNESS_BASE, **{"filter.kind": kind})
        assert run(dict(base, **witness), command) != run(base, command)

    def test_every_key_has_a_witness(self):
        keys = [key for witness, _, _ in WITNESSES for key in witness]
        assert len(keys) == len(set(keys))
        assert set(keys) == set(KEYMAP)


# the default source and tools/cli_matrix.py's perturbed one
AUTO_SOURCES = {
    "default": "",
    "perturbed": ("fiber.temperature_k = 310.0\nband.center_nm = 8.5\n"
                  "pump.sigma_nm = 0.45\nrun.p_pair = 0.02\n"),
}


class TestAutoGridSize:
    """numerics.n_points = auto: the grid size chosen by doubling."""

    def test_auto_is_the_default(self):
        assert RunConfig().n_points == "auto"
        assert parse_config("numerics.n_points = auto\n").n_points == "auto"
        with pytest.raises(ParseError):
            parse_config("numerics.n_points = automatic\n")

    @pytest.mark.parametrize("source", sorted(AUTO_SOURCES))
    @pytest.mark.parametrize("kind", ["open", "ideal-matched", "practical", "optimize"])
    def test_diagnostics_agree_with_the_doubled_grid(self, source, kind):
        cfg = parse_config(AUTO_SOURCES[source] + "filter.orders = 2,4\n"
                           "filter.kind = %s\n" % kind)
        setup = cli.resolve(cfg)
        # the resolved filter, pinned at its order, width and shutter
        fixed = cfg
        if setup.shape is not None:
            order, width, shutter = setup.shape
            fixed = replace(cfg, filter_kind="practical", filter_order=order,
                            filter_width_sigma=width, shutter_t_sigma=shutter)
        doubled = cli.resolve(replace(fixed, n_points=2 * setup.n))
        pair = sfwm_modes(doubled.params, doubled.raman, n_points=doubled.n,
                          model=doubled.model)
        sig = setup.decomposition.significant()[:8]
        a = cli.diagnostics(cfg, setup, sig)
        b = cli.diagnostics(cfg, replace(doubled, decomposition=pair), sig)
        assert a.size == sig.size + (0 if kind == "open" else 7)
        change = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)),
                                            cli.N_FLOOR)
        assert np.max(change) == setup.delta <= cli.N_TOL

    def test_unphysical_trial_grid_counts_as_not_converged(self):
        # a 20 sigma^-1 shutter passes more than 1 on 41 nodes
        cfg = parse_config("filter.kind = practical\nfilter.shutter_t_sigma = 20\n")
        with pytest.raises(PhysicalityError):
            cli.resolve(replace(cfg, n_points=41))
        setup = cli.resolve(cfg)
        assert setup.n == 164
        assert setup.delta <= cli.N_TOL

    def test_no_convergence_by_the_cap_exits_3(self, tmp_path, capsys, monkeypatch,
                                               count_calls):
        monkeypatch.setattr(cli, "N_TOL", 0.0)
        grids = count_calls("make_band_grid", cli)
        rc = cli.main(["modes", "--out", str(tmp_path / "m")])
        assert rc == 3
        assert "328 nodes (the cap)" in capsys.readouterr().err
        assert not (tmp_path / "m" / "modes.csv").exists()
        # each trial size up to the cap, each checked against its double
        assert [args[1] for args in grids] == [41, 82, 82, 164, 164, 328, 328, 656]

    @pytest.mark.parametrize("kind", ["open", "ideal-matched", "practical"])
    def test_modes_match_a_pinned_201_node_run(self, kind, tmp_path, monkeypatch):
        written = {}
        real = cli.write_output

        def keep(out_dir, name, header, rows, sep=","):
            written[out_dir] = (dict(header), list(rows))
            real(out_dir, name, header, written[out_dir][1], sep)

        monkeypatch.setattr(cli, "write_output", keep)
        columns, headers = {}, {}
        for n in ("auto", "201"):
            cfgp = tmp_path / ("%s.cfg" % n)
            cfgp.write_text("numerics.n_points = %s\nfilter.kind = %s\n" % (n, kind))
            out = str(tmp_path / n)
            assert cli.main(["modes", "--config", str(cfgp), "--out", out]) == 0
            headers[n], rows = written[out]
            assert len(rows) == 1 + 201
            columns[n] = dict(zip(rows[0], np.array(rows[1:], dtype=float).T))
        assert headers["auto"]["n_points_used"] == 41
        assert "n_points_used" not in headers["201"]
        assert sorted(columns["auto"]) == sorted(columns["201"])
        assert np.array_equal(columns["auto"]["omega_sigma"], columns["201"]["omega_sigma"])
        for name, want in columns["201"].items():
            gap = np.max(np.abs(columns["auto"][name] - want))
            assert gap <= 1e-12 * np.abs(want).max(), name

    def test_every_command_reports_the_same_grid_size(self, tmp_path):
        # a mask narrower than 0.6 sigma needs more than 41 nodes
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("filter.kind = optimize\nfilter.orders = 2\n"
                        "filter.width_max_sigma = 0.6\nsweep.points = 2\n"
                        "sweep.delta_points = 2\n")
        used = {}
        for command, name in (("modes", "modes.csv"),
                              ("sweep-ppair", "sweep_ppair.csv"),
                              ("sweep-detuning", "sweep_detuning.csv"),
                              ("optimize", "filter_report.txt"),
                              ("optimize", "filter_profile.csv")):
            out = tmp_path / command
            assert cli.main([command, "--config", str(cfgp), "--out", str(out)]) == 0
            header = dict(line[2:].split(" = ", 1)
                          for line in (out / name).read_text().splitlines()
                          if line.startswith("# "))
            used[name] = (header["n_points_used"], header["n_points_delta"])
        assert set(used.values()) == {("82", "<1e-12")}

    def test_pinned_grid_skips_the_check(self, tmp_path, count_calls):
        grids = count_calls("make_band_grid", cli)
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("numerics.n_points = 41\n")
        assert cli.main(["modes", "--config", str(cfgp), "--out", str(tmp_path / "m")]) == 0
        header, data = read_csv(tmp_path / "m" / "modes.csv")
        assert [args[1] for args in grids] == [41]
        assert "n_points_used" not in header and "n_points_delta" not in header
        assert data["psi0"].size == 41
