"""Quadrature grids and symmetric-kernel eigendecomposition."""

import math

import numpy as np
import pytest

from modematch import cli
from modematch.errors import DomainError
from modematch.numerics import (
    Grid,
    _gauss_legendre,
    decompose_kernel,
    integrate,
    make_band_grid,
    mode_overlap,
)

TWO_PI = 2.0 * math.pi


class TestGaussRuleCache:
    @pytest.mark.parametrize("n", [3, 41, 201, 403])
    def test_matches_leggauss_bit_for_bit(self, n):
        x, w = _gauss_legendre(n)
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(x, x_ref)
        assert np.array_equal(w, w_ref)

    def test_cached_arrays_are_read_only(self):
        x, w = _gauss_legendre(41)
        assert not x.flags.writeable
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_grids_sharing_n_get_their_own_nodes(self):
        n = 41
        x, w = np.polynomial.legendre.leggauss(n)
        cases = [
            (4.0, 0.0, 0.0),
            (7.0, 0.0, 0.0),
            (4.0, (1.0, 3.0), 0.0),
            (4.0, 0.0, 10.0),
        ]
        grids = [make_band_grid(width, n, center=c, padding=pad)
                 for width, pad, c in cases]
        for g in grids:
            half, mid = 0.5 * (g.hi - g.lo), 0.5 * (g.hi + g.lo)
            assert np.array_equal(g.nodes, half * x + mid)
            assert np.array_equal(g.weights, half * w)
            assert g.nodes.flags.writeable and g.weights.flags.writeable
        narrow, wide = grids[0], grids[1]
        wide_nodes, wide_weights = wide.nodes.copy(), wide.weights.copy()
        narrow.nodes[:] = 0.0
        narrow.weights[:] = 0.0
        assert np.array_equal(wide.nodes, wide_nodes)
        assert np.array_equal(wide.weights, wide_weights)
        later = make_band_grid(4.0, n)
        assert np.array_equal(later.nodes, 2.0 * x)
        assert np.array_equal(later.weights, 2.0 * w)

    def test_sweep_output_independent_of_cache_state(self, tmp_path):
        cfgp = tmp_path / "run.cfg"
        cfgp.write_text("numerics.n_points = 101\nsweep.points = 5\n")
        _gauss_legendre.cache_clear()
        for sub in ("cold", "warm"):
            rc = cli.main(
                ["sweep-ppair", "--config", str(cfgp), "--out", str(tmp_path / sub)]
            )
            assert rc == 0
        cold = sorted(p.name for p in (tmp_path / "cold").iterdir())
        assert cold == sorted(p.name for p in (tmp_path / "warm").iterdir())
        assert cold
        for name in cold:
            assert ((tmp_path / "cold" / name).read_bytes()
                    == (tmp_path / "warm" / name).read_bytes())


class TestGrid:
    def test_weights_sum_to_span(self):
        for n in (3, 40, 41):
            g = make_band_grid(7.0, n, padding=(0.5, 1.0))
            assert np.sum(g.weights) == pytest.approx(g.span, rel=1e-13)

    def test_gauss_integrates_gaussian(self):
        g = make_band_grid(12.0, 60)
        val = integrate(np.exp(-g.nodes**2), g)
        assert val == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_center_recorded_not_applied(self):
        # nodes stay relative offsets; absolute frequency is center + node
        g = make_band_grid(4.0, 21, center=10.0)
        assert g.lo == pytest.approx(-2.0)
        assert g.hi == pytest.approx(2.0)
        assert g.band_center == 10.0
        assert abs(np.sum(g.nodes * g.weights)) < 1e-12

    def test_asymmetric_padding(self):
        g = make_band_grid(4.0, 21, padding=(1.0, 3.0))
        assert g.lo == pytest.approx(-3.0)
        assert g.hi == pytest.approx(5.0)

    def test_simpson_needs_odd_count(self):
        # Simpson is no longer offered; the request is still refused
        with pytest.raises(DomainError):
            make_band_grid(2.0, 10, rule="simpson")

    def test_unknown_rule(self):
        # Gauss-Legendre is the only rule
        for rule in ("trapezoid", "simpson", "romberg"):
            with pytest.raises(DomainError):
                make_band_grid(2.0, 11, rule=rule)

    def test_rejects_tiny_grid(self):
        with pytest.raises(DomainError):
            make_band_grid(2.0, 2)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(DomainError):
            make_band_grid(0.0, 11)

    def test_validation_of_raw_grid(self):
        with pytest.raises(DomainError):
            Grid(nodes=np.array([0.0, -1.0, 1.0]), weights=np.ones(3))
        with pytest.raises(DomainError):
            Grid(nodes=np.array([0.0, 1.0, 2.0]), weights=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(DomainError):
            Grid(nodes=np.array([0.0, 1.0]), weights=np.ones(3))

    def test_integrate_shape_mismatch(self):
        g = make_band_grid(2.0, 11)
        with pytest.raises(DomainError):
            integrate(np.ones(7), g)


class TestModeOverlap:
    def test_self_overlap_of_normalized_mode(self):
        g = make_band_grid(16.0, 101)
        f = np.exp(-g.nodes**2 / 4)
        f /= math.sqrt(mode_overlap(f, f, g))
        assert mode_overlap(f, f, g) == pytest.approx(1.0, rel=1e-12)

    def test_odd_even_orthogonality(self):
        g = make_band_grid(16.0, 101)
        f = np.exp(-g.nodes**2 / 4)
        assert abs(mode_overlap(f, g.nodes * f, g)) < 1e-14


def gaussian_sum_kernel(g):
    x = g.nodes
    return np.exp(-((x[:, None] + x[None, :]) ** 2) / 4.0)


class TestDecomposeKernel:
    def test_rank_one_eigenvalue(self):
        # K(x,y) = f(x) f(y) with f = exp(-x^2/2) has the single
        # eigenvalue (1/2pi) integral f^2 = 1/(2 sqrt(pi))
        g = make_band_grid(14.0, 121)
        f = np.exp(-g.nodes**2 / 2)
        dec = decompose_kernel(f[:, None] * f[None, :], g)
        assert dec.eigenvalues[0] == pytest.approx(0.28209479177387814, rel=1e-10)
        assert abs(dec.eigenvalues[1]) < 1e-12

    def test_trace_identity(self):
        g = make_band_grid(12.0, 101)
        k = gaussian_sum_kernel(g)
        dec = decompose_kernel(k, g)
        trace = integrate(np.diag(k).copy(), g) / TWO_PI
        assert dec.trace == pytest.approx(trace, rel=1e-12)

    def test_orthonormal_modes(self):
        g = make_band_grid(12.0, 101)
        dec = decompose_kernel(gaussian_sum_kernel(g), g)
        gram = dec.modes.T @ (g.weights[:, None] * dec.modes) / TWO_PI
        assert np.max(np.abs(gram - np.eye(g.n))) < 1e-10

    def test_eigen_residual(self):
        g = make_band_grid(12.0, 101)
        k = gaussian_sum_kernel(g)
        dec = decompose_kernel(k, g)
        scale = abs(dec.eigenvalues[0])
        for j in range(4):
            left = k @ (g.weights * dec.modes[:, j]) / TWO_PI
            resid = np.max(np.abs(left - dec.eigenvalues[j] * dec.modes[:, j]))
            assert resid < 1e-10 * scale

    def test_kernel_reconstruction(self):
        g = make_band_grid(12.0, 81)
        k = gaussian_sum_kernel(g)
        dec = decompose_kernel(k, g)
        rec = (dec.modes * dec.eigenvalues[None, :]) @ dec.modes.T
        assert np.linalg.norm(rec - k) < 1e-8 * np.linalg.norm(k)

    def test_matches_collocation_eigenvalues(self):
        # independent route: the plain collocation matrix K W / 2pi is
        # similar to the symmetrized one, so the spectra must agree
        # on an equispaced trapezoid grid, unlike every program grid
        nodes = np.linspace(-5.0, 5.0, 41)
        weights = np.full(41, nodes[1] - nodes[0])
        weights[[0, -1]] /= 2.0
        g = Grid(nodes=nodes, weights=weights)
        k = gaussian_sum_kernel(g)
        dec = decompose_kernel(k, g)
        raw = np.linalg.eigvals(k * g.weights[None, :] / TWO_PI)
        raw = np.real(raw[np.argsort(-np.abs(raw))])
        assert np.allclose(dec.eigenvalues[:6], raw[:6], rtol=1e-9, atol=1e-12)

    def test_eigenvalues_sorted_by_magnitude(self):
        g = make_band_grid(12.0, 81)
        dec = decompose_kernel(gaussian_sum_kernel(g), g)
        mags = np.abs(dec.eigenvalues)
        assert np.all(mags[:-1] >= mags[1:] - 1e-15)

    def test_leading_mode_positive_at_center(self):
        g = make_band_grid(12.0, 81)
        dec = decompose_kernel(gaussian_sum_kernel(g), g)
        mid = np.argmin(np.abs(g.nodes))
        assert dec.modes[mid, 0] > 0

    def test_grid_refinement_stability(self):
        a = decompose_kernel(
            gaussian_sum_kernel(make_band_grid(12.0, 101)), make_band_grid(12.0, 101)
        )
        b = decompose_kernel(
            gaussian_sum_kernel(make_band_grid(12.0, 202)), make_band_grid(12.0, 202)
        )
        assert np.allclose(a.eigenvalues[:5], b.eigenvalues[:5], rtol=1e-6)

    def test_significant_threshold(self):
        g = make_band_grid(12.0, 81)
        dec = decompose_kernel(gaussian_sum_kernel(g), g)
        kept = dec.significant(rel_tol=1e-3)
        assert 1 <= kept.size < g.n
        assert np.min(np.abs(dec.eigenvalues[kept])) >= 1e-3 * np.abs(
            dec.eigenvalues[0]
        )

    def test_rejects_asymmetric_kernel(self):
        g = make_band_grid(12.0, 41)
        k = gaussian_sum_kernel(g)
        k[3, 5] += 0.5
        with pytest.raises(DomainError):
            decompose_kernel(k, g)

    def test_rejects_wrong_shape(self):
        g = make_band_grid(12.0, 41)
        with pytest.raises(DomainError):
            decompose_kernel(np.ones((5, 5)), g)


def first_significant(mode, center):
    """First sample above 1e-8 of the peak, scanning center, +1, -1, +2, ..."""
    threshold = 1e-8 * np.abs(mode).max()
    for k in range(mode.size):
        for i in (center + k, center - k):
            if 0 <= i < mode.size and abs(mode[i]) > threshold:
                return mode[i]
    return 0.0


class TestSignConvention:
    @pytest.mark.parametrize("n", [40, 41])
    def test_every_mode_of_a_random_kernel(self, n):
        g = make_band_grid(10.0, n)
        a = np.random.default_rng(n).standard_normal((n, n))
        dec = decompose_kernel(a + a.T, g)
        center = int(np.argmin(np.abs(g.nodes)))
        assert all(first_significant(dec.modes[:, j], center) > 0 for j in range(n))

    def test_odd_modes_on_odd_grid_take_plus_side_first(self):
        # the center node of an odd Gauss grid is exactly 0, where odd
        # modes vanish, so their sign is set at the + neighbour
        g = make_band_grid(12.0, 81)
        c = 40
        assert g.nodes[c] == 0.0
        x = g.nodes
        env = np.exp(-x**2 / 10.0)
        kern = env[:, None] * np.exp(-(x[:, None] - x[None, :]) ** 2 / 8.0) * env[None, :]
        dec = decompose_kernel(kern, g)
        parities = []
        for j in range(6):
            mode = dec.modes[:, j]
            odd = abs(mode[c]) <= 1e-8 * np.abs(mode).max()
            parities.append(odd)
            if odd:
                assert mode[c + 1] > 0 > mode[c - 1]
                assert np.allclose(mode, -mode[::-1], atol=1e-8)
            else:
                assert mode[c] > 0
        assert parities == [False, True] * 3

    def test_scan_reaches_past_a_vanishing_center(self):
        # a rank-one mode that is zero within 2 of the center; its nearest
        # support is on the - side, so that side is positive
        g = make_band_grid(12.0, 81)
        x = g.nodes
        v = np.where((x > -4.0) & (x < -2.0), 1.0, 0.0) - np.where((x > 3.0) & (x < 5.0), 1.0, 0.0)
        dec = decompose_kernel(np.outer(v, v), g)
        mode = dec.modes[:, 0]
        assert np.all(mode[(x > -4.0) & (x < -2.0)] > 0)
        assert np.all(mode[(x > 3.0) & (x < 5.0)] < 0)
