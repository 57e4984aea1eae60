"""Pair source parameters, joint amplitude, Schmidt modes, Raman gain table."""

import dataclasses
import math

import numpy as np
import pytest

from modematch import cli
from modematch.config import parse_config, to_params, to_raman
from modematch.errors import DomainError, InfeasibleError, ParseError
from modematch.sfwm import (
    BUILTIN_ANCHOR_VISIBILITIES,
    BUILTIN_ANCHORS_NM,
    ExperimentParams,
    Q_MAX,
    RamanModel,
    band_coincidence_integral,
    calibrate_raman,
    default_raman_model,
    load_raman_table,
    params_for_pair_probability,
    saturated_visibility_open,
    sfwm_modes,
    unfiltered_pair_probability,
    xi,
)
from modematch.units import detuning_to_angular

Q_REF = 0.011268862935916913


class TestExperimentParams:
    def test_default_geometry(self):
        p = ExperimentParams()
        assert p.b_sigma == pytest.approx(10.0, rel=1e-12)
        assert p.b0_sigma == pytest.approx(20.0, rel=1e-12)

    def test_fields_are_the_gain_and_geometry(self):
        # the fiber and pump enter only through q = gamma L A0^2
        names = [f.name for f in dataclasses.fields(ExperimentParams)]
        assert names == ["q", "temperature_k", "pump_wavelength_nm", "sigma",
                         "band_center", "band_width"]
        assert ExperimentParams().q == 0.01

    def test_with_q_is_exact(self):
        p = ExperimentParams()
        for q in (1e-7, 0.015118766132302846, 0.0999):
            assert p.with_q(q).q == q

    def test_tuned_pair_rate(self):
        p = ExperimentParams.at_pair_rate(0.01)
        assert unfiltered_pair_probability(p) == pytest.approx(0.01, rel=1e-12)
        assert p.q == pytest.approx(Q_REF, rel=1e-12)

    def test_pair_rate_roundtrip(self):
        base = ExperimentParams()
        for target in (1e-4, 3e-3, 0.04):
            p = params_for_pair_probability(base, target)
            assert unfiltered_pair_probability(p) == pytest.approx(target, rel=1e-12)

    def test_rate_scales_as_power_squared(self):
        p = ExperimentParams.at_pair_rate(0.005)
        doubled = p.with_q(2 * p.q)
        assert unfiltered_pair_probability(doubled) == pytest.approx(
            0.02, rel=1e-12
        )

    def test_with_band_center(self):
        p = ExperimentParams()
        w5 = detuning_to_angular(5.0, p.pump_wavelength_nm)
        assert p.with_band_center(w5).b0_sigma == pytest.approx(10.0, rel=1e-12)

    def test_band_must_clear_pump(self):
        p = ExperimentParams()
        with pytest.raises(DomainError):
            # collection band would overlap the carrier
            dataclasses.replace(p, band_center=0.4 * p.band_width)

    def test_band_must_stay_below_the_pump_frequency(self):
        p = ExperimentParams()
        edge = p.pump_omega - p.band_width / 2.0
        assert p.with_band_center(edge * (1.0 - 1e-9)).band_center < edge
        with pytest.raises(DomainError, match="zero absolute frequency"):
            p.with_band_center(edge)

    def test_perturbative_bound(self):
        p = ExperimentParams()
        with pytest.raises(DomainError):
            p.with_q(1.5 * Q_MAX)

    def test_rejects_nonpositive_inputs(self):
        for q in (-0.01, 0.0):
            with pytest.raises(DomainError, match="q must be positive"):
                ExperimentParams(q=q)
            with pytest.raises(DomainError, match="q must be positive"):
                ExperimentParams().with_q(q)
        with pytest.raises(DomainError):
            ExperimentParams(temperature_k=-4.0)


class TestJointAmplitude:
    def test_zero_power_limit_is_gaussian(self):
        x = np.linspace(-6, 6, 121)
        assert np.allclose(xi(x, 1e-30, 0.0), np.exp(-x**2 / 4.0), rtol=1e-12)

    def test_reference_value(self):
        assert xi(2.0, Q_REF, 0.0) == pytest.approx(0.36891640708196527, rel=1e-12)

    def test_even(self):
        assert xi(-3.0, Q_REF, 0.1) == pytest.approx(xi(3.0, Q_REF, 0.1), rel=1e-14)

    def test_raman_term_reduces_amplitude(self):
        assert xi(1.0, Q_REF, 0.05) < xi(1.0, Q_REF, 0.0)

    def test_scalar_in_scalar_out(self):
        assert isinstance(xi(1.0, Q_REF, 0.0), float)


class TestSchmidtModes:
    def test_leading_schmidt_coefficient(self):
        p = ExperimentParams.at_pair_rate(0.01)
        dec = sfwm_modes(p, default_raman_model(p))
        assert dec.eigenvalues[0] == pytest.approx(0.5252532924608815, rel=1e-9)

    def test_trace_matches_diagonal_integral(self):
        p = ExperimentParams.at_pair_rate(0.01)
        dec = sfwm_modes(p, 0.0)
        diag = xi(2.0 * dec.grid.nodes, p.q, 0.0)
        want = float(np.dot(dec.grid.weights, diag)) / (2 * math.pi)
        assert dec.trace == pytest.approx(want, rel=1e-12)

    def test_eigenvalues_alternate_in_sign(self):
        p = ExperimentParams.at_pair_rate(0.01)
        dec = sfwm_modes(p, 0.0)
        lead = dec.eigenvalues[:6]
        assert np.all(lead[::2] > 0)
        assert np.all(lead[1::2] < 0)

    def test_fundamental_broader_than_pump(self):
        p = ExperimentParams.at_pair_rate(0.01)
        dec = sfwm_modes(p, 0.0)
        psi0 = np.abs(dec.modes[:, 0])
        half = np.max(psi0) / 2.0
        width = dec.grid.nodes[psi0 >= half]
        fwhm = width[-1] - width[0]
        pump_fwhm = 2.0 * math.sqrt(2.0 * math.log(2.0))
        assert fwhm > 1.3 * pump_fwhm

    def test_float_and_model_raman_agree(self):
        p = ExperimentParams.at_pair_rate(0.01)
        model = default_raman_model(p)
        r = model.ratio_at(p.band_center)
        a = sfwm_modes(p, model)
        b = sfwm_modes(p, r)
        assert np.allclose(a.eigenvalues[:5], b.eigenvalues[:5], rtol=1e-13)


class TestBandCoincidenceIntegral:
    def test_small_band_quadratic(self):
        b = 1e-3
        assert band_coincidence_integral(b) == pytest.approx(b * b / 2.0, rel=1e-5)

    def test_wide_band_reference(self):
        assert band_coincidence_integral(10.0) == pytest.approx(
            11.533141373155, rel=1e-12
        )

    def test_monotone_in_width(self):
        vals = [band_coincidence_integral(b) for b in (0.5, 1.0, 3.0, 10.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestCalibration:
    def test_perfect_visibility_needs_no_raman(self):
        p = ExperimentParams()
        assert calibrate_raman(1.0, p.band_center, p) == 0.0

    def test_reference_ratio_at_band_center(self):
        p = ExperimentParams()
        r = calibrate_raman(0.82, p.band_center, p)
        assert r == pytest.approx(0.0322856606, rel=1e-6)

    def test_roundtrip_through_visibility(self):
        p = ExperimentParams()
        for target in (0.5, 0.9, 0.99, 1.0, 0.96, 0.82, 0.71):
            r = calibrate_raman(target, p.band_center, p)
            assert saturated_visibility_open(p, r) == pytest.approx(
                target, abs=1e-14
            )

    def test_more_noise_needed_for_lower_visibility(self):
        p = ExperimentParams()
        r_hi = calibrate_raman(0.96, p.band_center, p)
        r_lo = calibrate_raman(0.71, p.band_center, p)
        assert r_hi < r_lo

    def test_geometry_factor(self):
        # (1/V - 1) / r^2 depends only on band geometry and temperature
        p = ExperimentParams()
        r = calibrate_raman(0.82, p.band_center, p)
        assert (1.0 / 0.82 - 1.0) / r**2 == pytest.approx(210.59, rel=1e-3)

    def test_rejects_bad_targets(self):
        p = ExperimentParams()
        with pytest.raises(DomainError):
            calibrate_raman(0.0, p.band_center, p)
        with pytest.raises(DomainError):
            calibrate_raman(1.2, p.band_center, p)
        with pytest.raises(DomainError):
            calibrate_raman(0.8, -p.band_center, p)

    def test_unreachable_target(self):
        p = ExperimentParams()
        with pytest.raises(InfeasibleError):
            calibrate_raman(1e-6, p.band_center, p)
        # r = 10 is the largest gain ratio a calibration returns
        v_10 = saturated_visibility_open(p, 10.0)
        with pytest.raises(InfeasibleError):
            calibrate_raman(v_10 * (1.0 - 1e-9), p.band_center, p)
        assert calibrate_raman(v_10 * (1.0 + 1e-9), p.band_center, p) <= 10.0

    def test_no_thermal_noise_is_infeasible(self):
        # at 0.5 K no phonon populates a 100 nm detuning: the noise factor is 0
        p = ExperimentParams(temperature_k=0.5)
        det = detuning_to_angular(100.0, p.pump_wavelength_nm)
        with pytest.raises(InfeasibleError, match="no thermal Raman noise"):
            calibrate_raman(0.8, det, p)


class TestRamanModel:
    def test_builtin_anchor_ratios(self):
        p = ExperimentParams()
        model = default_raman_model(p)
        want = (0.0070240580, 0.0322856606, 0.0617575841)
        for d_nm, ratio in zip(BUILTIN_ANCHORS_NM, want):
            w = detuning_to_angular(d_nm, p.pump_wavelength_nm)
            assert model.ratio_at(w) == pytest.approx(ratio, rel=1e-6)

    def test_builtin_reproduces_anchor_visibilities(self):
        p = ExperimentParams()
        model = default_raman_model(p)
        for d_nm, v in zip(BUILTIN_ANCHORS_NM, BUILTIN_ANCHOR_VISIBILITIES):
            w = detuning_to_angular(d_nm, p.pump_wavelength_nm)
            pd = p.with_band_center(w)
            assert saturated_visibility_open(pd, model.ratio_at(w)) == pytest.approx(
                v, abs=1e-9
            )

    def test_linear_interpolation_between_anchors(self):
        model = RamanModel(
            detunings=np.array([1.0, 3.0]), ratios=np.array([0.1, 0.3])
        )
        assert model.ratio_at(2.0) == pytest.approx(0.2, rel=1e-12)

    def test_clamping_outside_range(self):
        model = RamanModel(
            detunings=np.array([1.0, 3.0]), ratios=np.array([0.1, 0.3])
        )
        assert model.ratio_at(0.5) == pytest.approx(0.1)
        assert model.ratio_at(9.0) == pytest.approx(0.3)
        assert model.clamped(0.5)
        assert model.clamped(9.0)
        assert not model.clamped(2.0)

    def test_negative_detuning_uses_magnitude(self):
        model = RamanModel(
            detunings=np.array([1.0, 3.0]), ratios=np.array([0.1, 0.3])
        )
        assert model.ratio_at(-2.0) == model.ratio_at(2.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            RamanModel(detunings=np.array([3.0, 1.0]), ratios=np.array([0.1, 0.3]))
        with pytest.raises(DomainError):
            RamanModel(detunings=np.array([1.0, 3.0]), ratios=np.array([0.1, -0.3]))
        with pytest.raises(DomainError):
            RamanModel(detunings=np.array([-1.0, 3.0]), ratios=np.array([0.1, 0.3]))
        with pytest.raises(DomainError):
            RamanModel(detunings=np.array([]), ratios=np.array([]))


class TestGainTableIO:
    def test_roundtrip(self, tmp_path, capsys):
        # the table calibrate writes is one raman.source reads back
        out = tmp_path / "c"
        rc = cli.main(["calibrate", "--target-v", "0.82", "--delta-nm", "9.0",
                       "--out", str(out)])
        assert rc == 0
        ratio = float(capsys.readouterr().out.partition("=")[2])
        cfg = parse_config("raman.source = %s\n" % (out / "raman_calibrated.csv"))
        back = to_raman(cfg, to_params(cfg))
        det = detuning_to_angular(9.0, cfg.pump_wavelength_nm)
        # rows are written with 7 significant digits
        assert back.detunings == pytest.approx([det], rel=1e-6)
        assert back.ratio_at(det) == pytest.approx(ratio, rel=1e-6)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,0.1\n2.0,0.2\n")
        with pytest.raises(ParseError) as err:
            load_raman_table(path)
        assert err.value.line == 1

    def test_header_without_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# calibrated\ndetuning_thz,gain_ratio\n\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_raman_table(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("detuning_thz,gain_ratio\n1.0,0.1\noops,0.2\n")
        with pytest.raises(ParseError) as err:
            load_raman_table(path)
        assert err.value.line == 3

    def test_unsorted_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("detuning_thz,gain_ratio\n2.0,0.1\n1.0,0.2\n")
        with pytest.raises((ParseError, DomainError)):
            load_raman_table(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_raman_table(tmp_path / "nope.csv")
