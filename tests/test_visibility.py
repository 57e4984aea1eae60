"""Rate budget, interference visibility, QBER, and key fraction."""

import math

import numpy as np
import pytest

from modematch.errors import DomainError, NumericalError
from modematch.filters import ideal_matched_filter, open_filter, practical_filter
from modematch.numerics import make_band_grid
from modematch.sfwm import (
    ExperimentParams,
    default_raman_model,
    sfwm_modes,
    unfiltered_pair_probability,
)
from modematch.visibility import (
    coincidence_term,
    evaluate_operating_point,
    key_fraction,
    pair_term,
    qber_from_visibility,
    raman_term,
    saturated_visibility_filtered,
    saturated_visibility_open,
    tpi_visibility,
    unfiltered_budget,
    visibility_open,
)


@pytest.fixture(scope="module")
def setup():
    params = ExperimentParams.at_pair_rate(0.01)
    raman = default_raman_model(params)
    dec = sfwm_modes(params, raman)
    matched = ideal_matched_filter(dec)
    return params, raman, dec, matched


class TestPairTerm:
    def test_open_filter_matches_closed_form(self, setup):
        params, raman, dec, _ = setup
        fm = open_filter(dec.grid)
        budget = unfiltered_budget(params, raman)
        assert pair_term(fm, params) == pytest.approx(budget.s, rel=1e-10)

    def test_equals_band_pair_probability(self, setup):
        params, raman, dec, _ = setup
        assert unfiltered_pair_probability(params) == pytest.approx(0.01, rel=1e-12)
        fm = open_filter(dec.grid)
        assert pair_term(fm, params) == pytest.approx(0.01, rel=1e-10)

    def test_matched_value(self, setup):
        params, _, _, matched = setup
        assert pair_term(matched, params) == pytest.approx(0.00439758, rel=1e-4)

    def test_matched_below_open(self, setup):
        params, _, dec, matched = setup
        assert pair_term(matched, params) < pair_term(open_filter(dec.grid), params)

    def test_scales_as_q_squared(self, setup):
        params, _, dec, _ = setup
        fm = open_filter(dec.grid)
        smaller = params.with_q(params.q / 3.0)
        assert pair_term(fm, smaller) == pytest.approx(
            pair_term(fm, params) / 9.0, rel=1e-12
        )


class TestRamanTerm:
    def test_open_frozen_thermal_matches_closed_form(self, setup):
        params, raman, dec, _ = setup
        fm = open_filter(dec.grid)
        budget = unfiltered_budget(params, raman)
        got_a = raman_term(fm, params, "anti", raman, freeze_thermal=True)
        got_s = raman_term(fm, params, "stokes", raman, freeze_thermal=True)
        assert got_a == pytest.approx(budget.r_anti, rel=1e-10)
        assert got_s == pytest.approx(budget.r_stokes, rel=1e-10)

    def test_open_reference_values(self, setup):
        params, raman, dec, _ = setup
        fm = open_filter(dec.grid)
        assert raman_term(fm, params, "anti", raman, freeze_thermal=True) == (
            pytest.approx(0.0287192, rel=1e-4)
        )
        assert raman_term(fm, params, "stokes", raman, freeze_thermal=True) == (
            pytest.approx(0.0351678, rel=1e-4)
        )

    def test_matched_reference_values(self, setup):
        params, raman, _, matched = setup
        assert raman_term(matched, params, "anti", raman) == pytest.approx(
            0.00958818, rel=1e-4
        )
        assert raman_term(matched, params, "stokes", raman) == pytest.approx(
            0.01171391, rel=1e-4
        )

    def test_stokes_exceeds_anti_stokes(self, setup):
        params, raman, _, matched = setup
        r_s = raman_term(matched, params, "stokes", raman)
        r_a = raman_term(matched, params, "anti", raman)
        assert r_s > r_a

    def test_thermal_variation_is_small_but_real(self, setup):
        params, raman, dec, _ = setup
        fm = open_filter(dec.grid)
        frozen = raman_term(fm, params, "anti", raman, freeze_thermal=True)
        varying = raman_term(fm, params, "anti", raman)
        assert varying != pytest.approx(frozen, rel=1e-8)
        assert varying == pytest.approx(frozen, rel=0.2)

    def test_zero_gain_means_zero_rate(self, setup):
        params, _, dec, _ = setup
        fm = open_filter(dec.grid)
        assert raman_term(fm, params, "anti", 0.0) == 0.0

    def test_linear_in_gain_ratio(self, setup):
        params, _, _, matched = setup
        one = raman_term(matched, params, "anti", 0.01)
        three = raman_term(matched, params, "anti", 0.03)
        assert three == pytest.approx(3.0 * one, rel=1e-12)

    def test_rejects_unknown_band(self, setup):
        params, raman, _, matched = setup
        with pytest.raises(DomainError):
            raman_term(matched, params, "idler", raman)


class TestCoincidenceTerm:
    def test_open_leading_matches_closed_form(self, setup):
        params, raman, dec, _ = setup
        fm = open_filter(dec.grid)
        budget = unfiltered_budget(params, raman)
        got = coincidence_term(fm, fm, params, raman, leading_only=True)
        assert got == pytest.approx(budget.coincidence, rel=1e-10)

    def test_open_reference_value(self, setup):
        params, raman, dec, _ = setup
        fm = open_filter(dec.grid)
        got = coincidence_term(fm, fm, params, raman, leading_only=True)
        assert got == pytest.approx(0.00920212, rel=1e-4)

    def test_matched_identity(self, setup):
        # single-mode coincidence collapses to 4 pi^3 zeta0^2 q^2
        params, raman, dec, matched = setup
        got = coincidence_term(matched, matched, params, raman)
        want = 4.0 * math.pi**3 * dec.eigenvalues[0] ** 2 * params.q**2
        assert got == pytest.approx(want, rel=1e-10)
        assert got == pytest.approx(0.00434518, rel=1e-4)


class TestVisibilityFormula:
    def test_pure_coincidences(self):
        assert tpi_visibility(1e-3, 0.0, 0.0, 0.0, 0.0) == 1.0

    def test_reference_open(self, setup):
        params, raman, _, _ = setup
        assert visibility_open(params, raman) == pytest.approx(
            0.7245857052690126, rel=1e-9
        )

    def test_reference_matched(self, setup):
        params, raman, _, matched = setup
        rep = evaluate_operating_point(params, raman, matched, matched)
        assert rep.visibility == pytest.approx(0.9060304439817723, rel=1e-6)

    def test_rejects_negative_rates(self):
        with pytest.raises(DomainError):
            tpi_visibility(-1e-3, 0.0, 0.0, 0.0, 0.0)

    def test_rejects_all_zero(self):
        with pytest.raises(DomainError):
            tpi_visibility(0.0, 0.0, 0.0, 0.0, 0.0)

    def test_noise_lowers_visibility(self):
        clean = tpi_visibility(1e-3, 1e-2, 1e-2, 0.0, 0.0)
        noisy = tpi_visibility(1e-3, 1e-2, 1e-2, 5e-3, 5e-3)
        assert noisy < clean


class TestQberAndKey:
    def test_qber_endpoints(self):
        assert qber_from_visibility(1.0) == 0.0
        assert qber_from_visibility(0.0) == 0.5

    def test_qber_reference_points(self):
        assert qber_from_visibility(0.72) == 0.14
        assert qber_from_visibility(0.88) == 0.06

    def test_qber_domain(self):
        with pytest.raises(DomainError):
            qber_from_visibility(1.2)
        with pytest.raises(DomainError):
            qber_from_visibility(-0.1)

    def test_key_reference_value(self):
        assert key_fraction(0.06, 0.01) == pytest.approx(
            0.002730722794770627, rel=1e-12
        )

    def test_key_zero_above_threshold(self):
        assert key_fraction(0.14, 0.01) == 0.0
        assert key_fraction(0.3, 1.0) == 0.0

    def test_perfect_link(self):
        assert key_fraction(0.0, 0.01) == pytest.approx(0.01, rel=1e-12)

    def test_basis_sifting(self):
        full = key_fraction(0.06, 0.01)
        half = key_fraction(0.06, 0.01, apply_q_basis=True)
        assert half == pytest.approx(0.5 * full, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            key_fraction(0.06, -0.01)
        with pytest.raises(DomainError):
            key_fraction(0.06, 0.01, f_ec=0.9)


class TestSaturatedVisibility:
    def test_open_limit_is_calibration_anchor(self, setup):
        params, raman, _, _ = setup
        assert saturated_visibility_open(params, raman) == pytest.approx(
            0.82, abs=1e-9
        )

    def test_matched_limit(self, setup):
        params, raman, _, _ = setup
        got = saturated_visibility_filtered(params, raman, ideal_matched_filter)
        assert got == pytest.approx(0.950388, abs=5e-4)

    def test_probe_consistency_guard(self, setup):
        params, raman, _, _ = setup
        with pytest.raises(NumericalError):
            saturated_visibility_filtered(
                params, raman, ideal_matched_filter, rich_tol=1e-12
            )

    def test_visibility_falls_with_pump_power(self, setup):
        params, raman, _, _ = setup
        vs = []
        for p_pair in (1e-4, 1e-3, 0.01, 0.04):
            pp = ExperimentParams.at_pair_rate(p_pair)
            vs.append(visibility_open(pp, raman))
        assert all(a > b for a, b in zip(vs, vs[1:]))

    def test_open_saturation_plateau(self, setup):
        # deviation from the zero-power limit shrinks linearly with q
        params, raman, _, _ = setup
        v_sat = saturated_visibility_open(params, raman)
        v7 = visibility_open(ExperimentParams.at_pair_rate(1e-7), raman)
        v5 = visibility_open(ExperimentParams.at_pair_rate(1e-5), raman)
        assert abs(v7 - v_sat) < 5e-4
        assert abs(v7 - v_sat) < abs(v5 - v_sat)


class TestOperatingPointReport:
    def test_self_consistency(self, setup):
        params, raman, _, matched = setup
        rep = evaluate_operating_point(params, raman, matched, matched)
        v = tpi_visibility(
            rep.coincidence, rep.s_stokes, rep.s_anti, rep.r_stokes, rep.r_anti
        )
        assert rep.visibility == pytest.approx(v, rel=1e-14)
        assert rep.qber == pytest.approx((1.0 - v) / 2.0, rel=1e-14)
        assert rep.key_fraction == pytest.approx(
            key_fraction(rep.qber, rep.p_pair), rel=1e-14
        )
        assert rep.p_pair == pytest.approx(0.01, rel=1e-12)

    def test_filtered_beats_open_at_fixed_power(self, setup):
        params, raman, dec, matched = setup
        open_rep = evaluate_operating_point(
            params, raman, open_filter(dec.grid), open_filter(dec.grid)
        )
        matched_rep = evaluate_operating_point(params, raman, matched, matched)
        assert matched_rep.visibility > open_rep.visibility
        assert matched_rep.qber < open_rep.qber

    def test_practical_filter_between_open_and_matched(self, setup):
        params, raman, dec, matched = setup
        fm = practical_filter(dec.grid, 2, 3.681449, 0.35)
        rep = evaluate_operating_point(params, raman, fm, fm)
        open_v = evaluate_operating_point(
            params, raman, open_filter(dec.grid), open_filter(dec.grid)
        ).visibility
        matched_v = evaluate_operating_point(params, raman, matched, matched).visibility
        assert open_v < rep.visibility < matched_v
        assert rep.visibility == pytest.approx(0.892909, rel=1e-4)
