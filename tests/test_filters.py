"""Filter masks, shutter kernels, pass-probability modes, and the design search."""

import math
import os
import subprocess
import sys
import typing

import numpy as np
import pytest

import modematch
from modematch import filters
from modematch.errors import DomainError, PhysicalityError
from modematch.filters import (
    ATTENUATION_CAP_DB,
    FilterModes,
    SearchSpace,
    SpectralProfile,
    export_filter_profile,
    filter_modes,
    ideal_matched_filter,
    kappa_gaussian_shutter,
    open_filter,
    optimize_filter,
    practical_filter,
    shutter_trace,
    super_gaussian,
)
from modematch.numerics import make_band_grid, mode_overlap
from modematch.sfwm import ExperimentParams, default_raman_model, sfwm_modes

LN2 = math.log(2.0)


def band_grid(n=101):
    return make_band_grid(10.0, n)


def kappa_general(profile, time_nodes, time_weights, intensity):
    """Oracle filter kernel for an arbitrary sampled shutter intensity.

    The time integral is evaluated by quadrature of cos((w - w') t).
    Rejects time grids too coarse for the band (Nyquist) and windows
    that truncate the shutter, where the quadrature would be wrong.
    """
    t = np.asarray(time_nodes, dtype=float)
    f2 = np.asarray(intensity, dtype=float)
    peak = f2.max()
    if f2[0] > 1e-6 * peak or f2[-1] > 1e-6 * peak:
        raise DomainError("time window truncates the shutter")
    if (profile.grid.hi - profile.grid.lo) * np.max(np.diff(t)) > math.pi:
        raise DomainError("time grid too coarse for the band (Nyquist)")
    d = profile.grid.nodes[:, None] - profile.grid.nodes[None, :]
    kern = np.tensordot(np.cos(d[..., None] * t), time_weights * f2, axes=([2], [0]))
    h = profile.values
    return h[:, None] * h[None, :] * kern


def read_profile(path):
    """An exported mask as (wavelengths_nm, h, header), read with numpy."""
    lines = path.read_text(encoding="ascii").splitlines()
    header = dict(line[1:].strip().split(" = ", 1)
                  for line in lines if line.startswith("#"))
    rows = [line for line in lines if not line.startswith("#")]
    assert rows[0] == "wavelength_nm,attenuation_db"
    wavelengths, att_db = np.loadtxt(rows[1:], delimiter=",", unpack=True)
    return wavelengths, 10.0 ** (-att_db / 20.0), header


class TestProfiles:
    def test_gaussian_order(self):
        g = band_grid()
        prof = super_gaussian(g, 2.0, 2)
        assert np.allclose(prof.values, np.exp(-g.nodes**2 / 8.0), rtol=1e-13)

    def test_peak_at_center(self):
        g = band_grid()
        prof = super_gaussian(g, 3.0, 8)
        assert np.max(prof.values) <= 1.0
        assert prof.values[np.argmin(np.abs(g.nodes))] == pytest.approx(1.0, abs=1e-9)

    def test_higher_order_flattens_top(self):
        g = band_grid()
        low = super_gaussian(g, 3.0, 2).values
        high = super_gaussian(g, 3.0, 10).values
        inside = np.abs(g.nodes) < 2.0
        outside = np.abs(g.nodes) > 4.0
        assert np.all(high[inside] >= low[inside])
        assert np.all(high[outside] <= low[outside] + 1e-12)

    def test_rejects_bad_order(self):
        g = band_grid()
        for order in (3, 0, -2, 22):
            with pytest.raises(DomainError):
                super_gaussian(g, 3.0, order)
        with pytest.raises(DomainError):
            super_gaussian(g, -1.0, 2)

    def test_profile_validation(self):
        g = band_grid()
        with pytest.raises(DomainError):
            SpectralProfile(grid=g, values=np.full(g.n, 1.5))
        with pytest.raises(DomainError):
            SpectralProfile(grid=g, values=np.ones(7))


class TestShutterKernels:
    def test_closed_form_diagonal(self):
        g = band_grid()
        prof = super_gaussian(g, 2.5, 4)
        t = 0.35
        kern = kappa_gaussian_shutter(prof, t)
        want = (t / 2.0) * math.sqrt(math.pi / LN2) * prof.values**2
        assert np.allclose(np.diag(kern), want, rtol=1e-13)

    def test_symmetric(self):
        g = band_grid()
        kern = kappa_gaussian_shutter(super_gaussian(g, 2.5, 2), 0.5)
        assert np.max(np.abs(kern - kern.T)) < 1e-14

    def test_general_quadrature_matches_closed_form(self):
        # independent route: sample the Gaussian shutter intensity in
        # time and integrate cos((w - w') t) numerically
        g = band_grid(61)
        prof = super_gaussian(g, 2.5, 4)
        t_fwhm = 0.35
        span = 6.0 * t_fwhm
        t = np.linspace(-span, span, 4001)
        wt = np.full(t.size, t[1] - t[0])
        wt[0] = wt[-1] = 0.5 * (t[1] - t[0])
        intensity = np.exp(-4.0 * LN2 * t**2 / t_fwhm**2)
        got = kappa_general(prof, t, wt, intensity)
        want = kappa_gaussian_shutter(prof, t_fwhm)
        assert np.max(np.abs(got - want)) < 1e-8 * np.max(want)

    def test_general_rejects_coarse_time_grid(self):
        g = band_grid()
        prof = super_gaussian(g, 2.5, 2)
        t = np.linspace(-3.0, 3.0, 7)
        wt = np.full(t.size, t[1] - t[0])
        with pytest.raises(DomainError):
            kappa_general(prof, t, wt, np.exp(-4.0 * LN2 * t**2 / 0.35**2))

    def test_general_rejects_truncating_window(self):
        g = band_grid()
        prof = super_gaussian(g, 2.5, 2)
        t = np.linspace(-0.2, 0.2, 2001)
        wt = np.full(t.size, t[1] - t[0])
        with pytest.raises(DomainError):
            kappa_general(prof, t, wt, np.exp(-4.0 * LN2 * t**2 / 0.35**2))

    def test_rejects_nonpositive_shutter(self):
        g = band_grid()
        with pytest.raises(DomainError):
            kappa_gaussian_shutter(super_gaussian(g, 2.5, 2), 0.0)


class TestFilterModes:
    def test_trace_identity(self):
        g = band_grid()
        prof = super_gaussian(g, 3.68, 2)
        fm = filter_modes(kappa_gaussian_shutter(prof, 0.35), g)
        assert np.sum(fm.chis) == pytest.approx(
            shutter_trace(prof, 0.35), rel=1e-10
        )

    def test_trace_linear_in_shutter(self):
        g = band_grid()
        prof = super_gaussian(g, 3.0, 4)
        assert shutter_trace(prof, 0.7) == pytest.approx(
            2.0 * shutter_trace(prof, 0.35), rel=1e-14
        )

    def test_chis_bounded_and_sorted(self):
        g = band_grid()
        fm = practical_filter(g, 2, 3.68, 0.35)
        assert np.all(fm.chis >= 0.0)
        assert np.all(fm.chis <= 1.0)
        assert np.all(np.diff(fm.chis) <= 1e-15)

    def test_chi_scales_with_kernel(self):
        g = band_grid()
        kern = kappa_gaussian_shutter(super_gaussian(g, 3.68, 2), 0.35)
        a = filter_modes(kern, g)
        b = filter_modes(0.25 * kern, g)
        keep = a.chis > 1e-12
        assert np.allclose(b.chis[keep], 0.25 * a.chis[keep], rtol=1e-10)

    def test_design_point_weights(self):
        g = make_band_grid(10.0, 201)
        fm = practical_filter(g, 2, 3.681449, 0.35)
        assert fm.chi0 == pytest.approx(0.331277, rel=1e-4)
        assert fm.residual_sum == pytest.approx(0.034447, rel=1e-3)

    def test_rejects_kernel_with_chi_above_one(self):
        g = band_grid()
        kern = 1.5 * 2.0 * math.pi * np.diag(1.0 / g.weights)
        with pytest.raises(PhysicalityError):
            filter_modes(kern, g)

    def test_rejects_negative_chi(self):
        g = band_grid()
        f = np.exp(-g.nodes**2 / 8.0)
        with pytest.raises(PhysicalityError):
            filter_modes(-0.1 * f[:, None] * f[None, :], g)

    def test_open_filter_is_identity(self):
        g = band_grid()
        fm = open_filter(g)
        assert np.all(fm.chis == 1.0)
        gram = fm.modes.T @ (g.weights[:, None] * fm.modes) / (2.0 * math.pi)
        assert np.max(np.abs(gram - np.eye(g.n))) < 1e-12

    def test_ideal_matched_filter(self):
        p = ExperimentParams.at_pair_rate(0.01)
        dec = sfwm_modes(p, default_raman_model(p), n_points=101)
        fm = ideal_matched_filter(dec)
        assert fm.chis.shape == (1,)
        assert fm.chi0 == 1.0
        assert fm.residual_sum == 0.0
        assert mode_overlap(fm.modes[:, 0], dec.modes[:, 0], dec.grid) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_ideal_matched_rejects_unnormalized(self):
        p = ExperimentParams.at_pair_rate(0.01)
        dec = sfwm_modes(p, 0.0, n_points=101)
        bad = type(dec)(
            eigenvalues=dec.eigenvalues, modes=2.0 * dec.modes, grid=dec.grid
        )
        with pytest.raises(DomainError):
            ideal_matched_filter(bad)


class TestShutterScaleTradeoff:
    def test_subband_shutter_cannot_give_single_mode_at_partial_pass(self):
        # With a shutter whose FWHM is several band coherence times the
        # kernel trace is large, so a mask with chi0 in [0.3, 0.4] must
        # spread weight over many modes or stay far from the pair mode;
        # either way the fundamental overlap stays poor.
        p = ExperimentParams.at_pair_rate(0.01)
        dec = sfwm_modes(p, default_raman_model(p), n_points=101)
        psi0 = dec.modes[:, 0]
        g = dec.grid
        t_long = 3.5
        for order in (2, 8):
            for width in (0.3, 0.4, 0.5, 0.6, 5.0):
                fm = practical_filter(g, order, width, t_long)
                if 0.30 <= fm.chi0 <= 0.40:
                    ov = abs(mode_overlap(fm.modes[:, 0], psi0, g))
                    assert ov < 0.9
                if width == 5.0:
                    # broad mask passes the band: chi0 saturates high
                    assert fm.chi0 > 0.9


class TestSearchSpace:
    def test_defaults_valid(self):
        s = SearchSpace()
        assert s.objective == "mode-match"

    def test_validation(self):
        with pytest.raises(DomainError):
            SearchSpace(width_lo=-1.0)
        with pytest.raises(DomainError):
            SearchSpace(width_lo=5.0, width_hi=1.0)
        with pytest.raises(DomainError):
            SearchSpace(objective="fidelity")
        with pytest.raises(DomainError):
            SearchSpace(t_lo=0.1)
        with pytest.raises(DomainError):
            SearchSpace(orders=(3,))
        with pytest.raises(DomainError):
            SearchSpace(orders=())


class TestOptimizeFilter:
    def setup_method(self):
        self.params = ExperimentParams.at_pair_rate(0.01)
        self.raman = default_raman_model(self.params)

    def test_mode_match_finds_interior_optimum(self):
        search = SearchSpace(orders=(2,), width_lo=2.0, width_hi=6.0)
        res = optimize_filter(self.params, self.raman, search, n_points=101)
        assert res.order == 2
        assert res.width == pytest.approx(3.68, abs=0.1)
        assert res.overlap > 0.999
        assert res.objective_value == pytest.approx(res.overlap, rel=1e-12)
        assert res.converged
        assert res.evaluations > 0

    def test_improves_on_box_midpoint(self):
        search = SearchSpace(orders=(2,), width_lo=2.0, width_hi=9.0)
        res = optimize_filter(self.params, self.raman, search, n_points=101)
        mid = 0.5 * (search.width_lo + search.width_hi)
        dec = sfwm_modes(self.params, self.raman, n_points=101)
        fm = practical_filter(dec.grid, 2, mid, search.shutter_t)
        seed_overlap = abs(mode_overlap(fm.modes[:, 0], dec.modes[:, 0], dec.grid))
        assert res.objective_value >= seed_overlap - 1e-12

    def test_visibility_objective_rides_width_floor(self):
        search = SearchSpace(
            orders=(2,), width_lo=1.5, width_hi=6.0, objective="visibility"
        )
        res = optimize_filter(self.params, self.raman, search, n_points=81)
        assert res.width < 1.7
        match = optimize_filter(
            self.params,
            self.raman,
            SearchSpace(orders=(2,), width_lo=1.5, width_hi=6.0),
            n_points=81,
        )
        # narrower filter trades pairs for visibility
        assert res.achieved_v > match.achieved_v
        assert res.chi0 < match.chi0

    def test_degenerate_box(self):
        search = SearchSpace(orders=(4,), width_lo=3.0, width_hi=3.0)
        res = optimize_filter(self.params, self.raman, search, n_points=81)
        assert res.width == pytest.approx(3.0, abs=1e-9)
        assert res.order == 4

    def test_deterministic(self):
        search = SearchSpace(orders=(2, 4), width_lo=2.0, width_hi=6.0)
        a = optimize_filter(self.params, self.raman, search, n_points=81)
        b = optimize_filter(self.params, self.raman, search, n_points=81)
        assert a.width == b.width
        assert a.order == b.order
        assert a.objective_value == b.objective_value
        assert a.evaluations == b.evaluations


class TestProfileExport:
    def test_roundtrip(self, tmp_path):
        p = ExperimentParams.at_pair_rate(0.01)
        path = tmp_path / "profile.csv"
        export_filter_profile(path, p, order=2, width=3.68, shutter_t=0.35)
        wavelengths, h, meta = read_profile(path)
        assert wavelengths.size == 120
        # rows run blue to red edge: wavelength falls as frequency rises
        assert np.all(np.diff(wavelengths) < 0)
        assert np.all(h <= 1.0 + 1e-12)
        assert meta["profile_order"] == "2"
        # attenuation is written in dB with a cap
        assert np.all(h >= 10.0 ** (-ATTENUATION_CAP_DB / 20.0) - 1e-15)

    def test_reconstructed_mask_matches_formula(self, tmp_path):
        p = ExperimentParams.at_pair_rate(0.01)
        path = tmp_path / "profile.csv"
        export_filter_profile(path, p, order=4, width=2.5, shutter_t=0.35)
        wavelengths, h, meta = read_profile(path)
        assert float(meta["profile_width_sigma"]) == pytest.approx(2.5)
        # rows sample the band evenly, edge to edge
        x = np.linspace(-p.b_sigma / 2.0, p.b_sigma / 2.0, h.size)
        assert np.allclose(h, np.exp(-0.5 * (x / 2.5) ** 4), rtol=1e-5, atol=0)
        # center rows should be near unity transmission
        assert np.max(h) > 0.999

    def test_shutter_metadata_in_ps(self, tmp_path):
        p = ExperimentParams.at_pair_rate(0.01)
        path = tmp_path / "profile.csv"
        export_filter_profile(path, p, order=2, width=3.68, shutter_t=0.35)
        _, _, meta = read_profile(path)
        want_ps = 0.35 / p.sigma * 1e12
        assert float(meta["shutter_fwhm_ps"]) == pytest.approx(want_ps, rel=1e-4)


class TestModuleHygiene:
    def test_annotations_resolve(self):
        for cls in (filters.SpectralProfile, filters.FilterModes):
            hints = typing.get_type_hints(cls)
            assert hints["grid"] is filters.Grid

    def test_scipy_optimize_loads_only_for_a_search(self, tmp_path):
        src = os.path.dirname(os.path.dirname(modematch.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        code = (
            "import sys, modematch\n"
            "from modematch import cli\n"
            "rc = cli.main(['modes', '--out', sys.argv[1]])\n"
            "assert rc == 0, rc\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "m")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "False"
        assert (tmp_path / "m" / "modes.csv").exists()
