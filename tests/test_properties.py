"""Properties across the model's domain, checked on drawn sources and masks.

Sources are drawn as the benchmark draws them: band width 3-7 nm, band
center from width/2 + 4 nm to 15 nm, run.p_pair log-uniform in
1e-3..0.03 and 250-350 K. Masks have an even order from 2 to 20, a width
inside the default SearchSpace box and a shutter inside the 0.2-1.5
sigma^-1 box of the shutter search. Everything runs at n = 41. The
profile is derandomized, so every run draws the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modematch.config import RunConfig, to_params
from modematch.errors import PhysicalityError
from modematch.filters import (SearchSpace, ideal_matched_filter, practical_filter,
                               shutter_trace, super_gaussian)
from modematch.numerics import make_band_grid
from modematch.sfwm import (calibrate_raman, default_raman_model,
                            params_for_pair_probability, saturated_visibility_open,
                            sfwm_modes, unfiltered_pair_probability)
from modematch.visibility import evaluate_operating_point, visibility_open

N = 41
BOX = SearchSpace()

PROFILE = settings(derandomize=True, max_examples=50, deadline=None,
                   database=None)


@st.composite
def sources(draw):
    """ExperimentParams of one drawn source, built as the CLI builds them."""
    width = draw(st.floats(3.0, 7.0))
    center = draw(st.floats(width / 2.0 + 4.0, 15.0))
    log_p = draw(st.floats(math.log(1e-3), math.log(0.03)))
    temperature = draw(st.floats(250.0, 350.0))
    return to_params(RunConfig(band_width_nm=width, band_center_nm=center,
                               p_pair=math.exp(log_p), temperature_k=temperature))


# (order, width, shutter_t) of a practical filter
masks = st.tuples(st.integers(1, 10).map(lambda k: 2 * k),
                  st.floats(BOX.width_lo, BOX.width_hi),
                  st.floats(0.2, 1.5))


@PROFILE
@given(sources(), masks)
def test_practical_filter_is_physical_or_raises(params, mask):
    order, width, shutter_t = mask
    grid = make_band_grid(params.b_sigma, N)
    try:
        fm = practical_filter(grid, order, width, shutter_t)
    except PhysicalityError:
        return
    assert np.all((fm.chis >= 0.0) & (fm.chis <= 1.0))
    trace = shutter_trace(super_gaussian(grid, width, order), shutter_t)
    assert fm.chis.sum() == pytest.approx(trace, rel=1e-12, abs=1e-12)


@PROFILE
@given(sources(), st.floats(0.70, 0.97))
def test_calibration_round_trips(params, target_v):
    ratio = calibrate_raman(target_v, params.band_center, params)
    assert saturated_visibility_open(params, ratio) == pytest.approx(target_v,
                                                                     rel=1e-12)
    table = default_raman_model(params)
    assert (saturated_visibility_open(params, table)
            == saturated_visibility_open(params, table.ratio_at(params.band_center)))


@PROFILE
@given(sources(), st.floats(math.log(1e-3), math.log(0.03)))
def test_matched_visibility_beats_open_and_falls_with_power(params, log_p):
    raman = default_raman_model(params)
    matched, opened = [], []
    for p in sorted((unfiltered_pair_probability(params), math.exp(log_p))):
        pp = params_for_pair_probability(params, p)
        fm = ideal_matched_filter(sfwm_modes(pp, raman, n_points=N))
        matched.append(evaluate_operating_point(pp, raman, fm, fm).visibility)
        opened.append(visibility_open(pp, raman))
        assert matched[-1] >= opened[-1]
    # two draws may give p_pair values one roundoff apart
    assert matched[0] >= matched[1] - 1e-15
    assert opened[0] >= opened[1] - 1e-15


@PROFILE
@given(sources(), masks, st.floats(0.1, 1.0), st.floats(1.0, 1.5))
def test_key_is_a_fraction_of_the_gain(params, mask, q_basis, f_ec):
    try:
        fm = practical_filter(make_band_grid(params.b_sigma, N), *mask)
    except PhysicalityError:
        return
    rep = evaluate_operating_point(params, default_raman_model(params), fm, fm,
                                   f_ec=f_ec, q_basis=q_basis)
    assert 0.0 <= rep.key_fraction <= q_basis * rep.gain
