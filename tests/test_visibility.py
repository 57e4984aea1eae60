"""Rate budget, interference visibility, QBER, and key fraction."""

import math

import numpy as np
import pytest

from modematch import filters, sfwm, visibility
from modematch.errors import DomainError
from modematch.filters import (
    SearchSpace,
    ideal_matched_filter,
    open_filter,
    optimize_filter,
    practical_filter,
)
from modematch.numerics import decompose_kernel, make_band_grid
from modematch.sfwm import (
    ExperimentParams,
    default_raman_model,
    params_for_pair_probability,
    sfwm_modes,
    unfiltered_pair_probability,
)
from modematch.units import detuning_to_angular
from modematch.visibility import (
    RateModel,
    coincidence_term,
    evaluate_operating_point,
    key_fraction,
    overall_gain,
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
        assert key_fraction(0.06, 0.01, q_basis=1.0) == full
        half = key_fraction(0.06, 0.01, q_basis=0.5)
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

    @pytest.fixture(params=["ideal-matched", "practical"])
    def limit(self, request, setup):
        """(params, raman, filter, V(q)) at n = 41 for one filter."""
        params, raman, _, _ = setup
        filt = (ideal_matched_filter if request.param == "ideal-matched"
                else practical_filter(make_band_grid(params.b_sigma, 41),
                                      2, 3.68, 0.35))

        def v_at(q):
            p = params.with_q(q)
            fm = filt(sfwm_modes(p, raman, n_points=41)) if callable(filt) else filt
            return evaluate_operating_point(p, raman, fm, fm).visibility

        return params, raman, filt, v_at

    def test_limit_independent_of_q(self, limit):
        params, raman, filt, _ = limit
        low, high = (saturated_visibility_filtered(params.with_q(q), raman, filt, 41)
                     for q in (1e-4, 0.05))
        assert low == pytest.approx(high, rel=1e-14)

    def test_gap_to_operating_point_falls_linearly(self, limit):
        params, raman, filt, v_at = limit
        v_sat = saturated_visibility_filtered(params, raman, filt, 41)
        gaps = [v_sat - v_at(q) for q in (1e-4, 1e-5, 1e-6)]
        for ratio in (gaps[0] / gaps[1], gaps[1] / gaps[2]):
            assert 9.9 <= ratio <= 10.1

    def test_matches_richardson_extrapolation(self, limit):
        params, raman, filt, v_at = limit
        v_sat = saturated_visibility_filtered(params, raman, filt, 41)
        assert abs(2.0 * v_at(5e-7) - v_at(1e-6) - v_sat) <= 1e-9

    def test_no_raman_gives_unit_visibility(self, limit):
        params, _, filt, _ = limit
        assert saturated_visibility_filtered(params, 0.0, filt, 41) == 1.0

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
        gain = rep.coincidence + 2.0 * (rep.s_stokes + rep.r_stokes) * (
            rep.s_anti + rep.r_anti)
        assert rep.gain == pytest.approx(gain, rel=1e-14)
        # the key counts the coincidences the filters pass, not p_pair
        assert rep.key_fraction == pytest.approx(
            key_fraction(rep.qber, rep.gain), rel=1e-14
        )
        assert unfiltered_pair_probability(params) == pytest.approx(0.01, rel=1e-12)

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


class TestOverallGain:
    @pytest.mark.parametrize("n, tol", [(201, 1e-3), (401, 1e-5)])
    def test_open_quadrature_matches_closed_form(self, setup, n, tol):
        # criterion 1's oracle and tolerances, carried over to Q
        params, raman, _, _ = setup
        fm = open_filter(make_band_grid(params.b_sigma, n))
        s = pair_term(fm, params)
        r_s = raman_term(fm, params, "stokes", raman, freeze_thermal=True)
        r_a = raman_term(fm, params, "anti", raman, freeze_thermal=True)
        c = coincidence_term(fm, fm, params, raman, leading_only=True)
        budget = unfiltered_budget(params, raman)
        assert overall_gain(c, s, s, r_s, r_a) == pytest.approx(budget.gain, rel=tol)
        assert budget.gain / budget.s == pytest.approx(1.27, abs=5e-3)

    def test_matched_key_follows_from_zeta0(self, setup):
        # criterion 2's identity C = 4 pi^3 zeta0^2 q^2 fixes Q, V and the key
        params, raman, dec, matched = setup
        rep = evaluate_operating_point(params, raman, matched, matched,
                                       f_ec=1.22, q_basis=0.5)
        c = 4.0 * math.pi**3 * dec.eigenvalues[0] ** 2 * params.q**2
        gain = c + 2.0 * (rep.s_stokes + rep.r_stokes) * (rep.s_anti + rep.r_anti)
        e = (1.0 - c / gain) / 2.0
        h = -e * math.log2(e) - (1.0 - e) * math.log2(1.0 - e)
        assert rep.gain == pytest.approx(gain, rel=1e-10)
        assert rep.key_fraction == pytest.approx(0.5 * gain * (1.0 - 2.22 * h),
                                                 rel=1e-8)
        p_pair = unfiltered_pair_probability(params)
        assert rep.gain / p_pair == pytest.approx(0.4796, abs=1e-4)

    def test_key_counts_only_passed_pairs(self, setup):
        params, raman, dec, _ = setup
        fm = practical_filter(dec.grid, 2, 3.68, 0.35)
        rep = evaluate_operating_point(params, raman, fm, fm)
        p_pair = unfiltered_pair_probability(params)
        assert rep.gain / p_pair == pytest.approx(0.0536, abs=1e-4)
        assert rep.key_fraction == pytest.approx(1.7768e-4, rel=1e-4)


def all_rates(fm, params, raman, model=None):
    return [pair_term(fm, params, model=model),
            raman_term(fm, params, "stokes", raman, model=model),
            raman_term(fm, params, "anti", raman, model=model),
            coincidence_term(fm, fm, params, raman, model=model),
            coincidence_term(fm, fm, params, raman, leading_only=True,
                             model=model)]


class TestRateModel:
    @pytest.mark.parametrize("n", [41, 101])
    def test_rates_equal_one_shot_bit_for_bit(self, setup, n):
        base, table, _, _ = setup
        # one model serves every band center, gain table and q of a band
        # grid; without one, each call builds a fresh model
        model = RateModel(make_band_grid(base.b_sigma, n))
        for center_nm in (10.0, 7.0, 13.0):
            source = base.with_band_center(detuning_to_angular(center_nm, 1538.7))
            for raman in (table, 0.05):
                for p_pair in (1e-3, 0.01, 0.03):
                    params = params_for_pair_probability(source, p_pair)
                    dec = sfwm_modes(params, raman, n_points=n)
                    shared = sfwm_modes(params, raman, n_points=n, model=model)
                    assert np.array_equal(shared.eigenvalues, dec.eigenvalues)
                    assert np.array_equal(shared.modes, dec.modes)
                    many = practical_filter(dec.grid, 2, 6.0, 2.0)
                    assert many.significant().size >= 10
                    for fm in (ideal_matched_filter(shared), many):
                        assert (all_rates(fm, params, raman, model)
                                == all_rates(fm, params, raman))

    @pytest.mark.parametrize("center_nm, pump_pad", [(5.0, "short"), (10.0, "full")])
    def test_emission_grid_stops_short_of_the_pump(self, setup, center_nm, pump_pad):
        base, _, _, _ = setup
        params = base.with_band_center(detuning_to_angular(center_nm, 1538.7))
        b0, half = params.b0_sigma, params.b_sigma / 2.0
        full = visibility.RAMAN_PAD_SIGMA
        margin = visibility.PUMP_MARGIN_SIGMA
        # a 5 nm band 5 nm out has its near edge closer than pad + margin
        assert (b0 - half < full + margin) == (pump_pad == "short")
        model = RateModel(make_band_grid(params.b_sigma, 41))
        anti, _ = model.emission(params, "anti")
        stokes, _ = model.emission(params, "stokes")
        assert anti.n == stokes.n == 83
        # the pump sits below the anti-Stokes band and above the Stokes band
        if pump_pad == "short":
            assert anti.lo == pytest.approx(-(b0 - margin), rel=1e-12)
            assert stokes.hi == pytest.approx(b0 - margin, rel=1e-12)
        else:
            assert anti.lo == pytest.approx(-(half + full), rel=1e-12)
            assert stokes.hi == pytest.approx(half + full, rel=1e-12)
        # the far side always keeps the full pad
        assert anti.hi == pytest.approx(half + full, rel=1e-12)
        assert stokes.lo == pytest.approx(-(half + full), rel=1e-12)

    @pytest.mark.parametrize("n_points, b_scale", [(7, 1.0), (41, 0.5)])
    def test_zero_power_model_must_match_n_points_and_band(self, setup, n_points,
                                                          b_scale):
        params, raman, _, _ = setup
        model = RateModel(make_band_grid(params.b_sigma * b_scale, 41))
        fm = practical_filter(model.grid, 2, 3.68, 0.35)
        with pytest.raises(DomainError, match="%d-node band grid" % n_points):
            saturated_visibility_filtered(params, raman, fm, n_points=n_points,
                                          model=model)

    def test_fixed_filter_saturates_like_a_constant_map(self, setup):
        params, raman, _, _ = setup
        fm = practical_filter(make_band_grid(params.b_sigma, 41), 2, 3.68, 0.35)
        fixed = saturated_visibility_filtered(params, raman, fm, n_points=41)
        mapped = saturated_visibility_filtered(params, raman, lambda dec: fm,
                                               n_points=41)
        assert fixed == mapped

    def test_optimized_report_unchanged_by_the_model(self, setup):
        params, raman, _, _ = setup
        search = SearchSpace(orders=(2,), objective="visibility")
        model = RateModel(make_band_grid(params.b_sigma, 41))
        result = optimize_filter(params, raman, search, n_points=41, model=model)
        shared = evaluate_operating_point(params, raman, result.filter,
                                          result.filter, model=model)
        one_shot = evaluate_operating_point(params, raman, result.filter,
                                            result.filter)
        assert shared.visibility == one_shot.visibility

    @pytest.mark.parametrize("objective", ["mode-match", "visibility"])
    def test_search_unchanged_by_a_passed_model(self, setup, objective):
        params, raman, _, _ = setup
        search = SearchSpace(orders=(2,), objective=objective)
        model = RateModel(make_band_grid(params.b_sigma, 41))
        own = optimize_filter(params, raman, search, n_points=41)
        shared = optimize_filter(params, raman, search, n_points=41, model=model)
        for name in ("order", "width", "shutter_t", "objective_value", "overlap",
                     "evaluations", "converged"):
            assert getattr(shared, name) == getattr(own, name), name
        achieved_v = [evaluate_operating_point(params, raman, res.filter, res.filter,
                                               model=m).visibility
                      for res, m in ((shared, model), (own, None))]
        assert achieved_v[0] == achieved_v[1]
        assert shared.filter.grid is model.grid
        assert shared.decomposition.grid is model.grid

    def test_search_rejects_a_model_on_another_grid(self, setup):
        params, raman, _, _ = setup
        search = SearchSpace(orders=(2,))
        for width, n in ((params.b_sigma, 43), (1.2 * params.b_sigma, 41)):
            model = RateModel(make_band_grid(width, n))
            with pytest.raises(DomainError):
                optimize_filter(params, raman, search, n_points=41, model=model)

    def test_rejects_a_filter_on_another_grid(self, setup):
        params, raman, _, _ = setup
        model = RateModel(make_band_grid(params.b_sigma, 41))
        fm = practical_filter(make_band_grid(params.b_sigma, 43), 2, 3.68, 0.35)
        with pytest.raises(DomainError):
            pair_term(fm, params, model=model)
        with pytest.raises(DomainError):
            raman_term(fm, params, "anti", raman, model=model)
        with pytest.raises(DomainError):
            coincidence_term(fm, fm, params, raman, model=model)
        with pytest.raises(DomainError):
            sfwm_modes(params, raman, n_points=43, model=model)
        wider = RateModel(make_band_grid(1.2 * params.b_sigma, 41))
        with pytest.raises(DomainError):
            sfwm_modes(params, raman, n_points=41, model=wider)
        # the two arms of a coincidence share one grid, model or not
        on_41 = practical_filter(model.grid, 2, 3.68, 0.35)
        with pytest.raises(DomainError):
            coincidence_term(on_41, fm, params, raman)

    def test_reads_but_never_writes_caller_arrays(self, setup):
        params, raman, _, _ = setup
        grid = make_band_grid(params.b_sigma, 41)
        kernel = np.exp(-np.add.outer(grid.nodes, grid.nodes) ** 2 / 4.0)
        fm = practical_filter(grid, 4, 3.0, 0.2)
        for a in (kernel, grid.nodes, grid.weights, fm.chis, fm.modes):
            a.setflags(write=False)
        saved = [a.copy() for a in (kernel, grid.weights, fm.modes)]
        # a write to any of them would raise ValueError
        decompose_kernel(kernel, grid)
        model = RateModel(grid)
        evaluate_operating_point(params, raman, fm, fm, model=model)
        for a, b in zip((kernel, grid.weights, fm.modes), saved):
            assert np.array_equal(a, b)
        held = (model.pair, *model.sum_gaussians,
                *(model.emission(params, band)[1] for band in visibility.BANDS))
        assert not any(a.flags.writeable for a in held)

    def test_search_occupations_independent_of_evaluations(self, setup,
                                                           count_calls):
        params, raman, _, _ = setup
        n = 41
        occ = count_calls("thermal_occupation", visibility)
        grids = count_calls("make_band_grid", visibility, sfwm, filters)
        evals = count_calls("evaluate_operating_point", visibility, filters)
        counts = []
        for orders in ((2,), (2, 4)):
            for calls in (occ, grids, evals):
                calls.clear()
            optimize_filter(params, raman,
                            SearchSpace(orders=orders, objective="visibility"),
                            n_points=n)
            counts.append((len(evals), len(occ), len(grids)))
        (evals_1, occ_1, grids_1), (evals_2, occ_2, grids_2) = counts
        assert evals_2 > evals_1
        # one emission grid of 2n + 1 nodes per band, and the band grid
        assert occ_1 == occ_2 == 2 * (2 * n + 1)
        assert grids_1 == grids_2 == 3
