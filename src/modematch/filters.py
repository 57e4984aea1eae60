"""Spectral-temporal filter kernels, their mode content, and filter search.

A filter built from a spectral amplitude mask h(w) followed by a time
shutter |f(t)|^2 acts on broadband light through the correlation kernel

    kappa(w, w') = h(w) h(w') int |f(t)|^2 exp(i (w - w') t) dt

whose eigenvalues chi_j in [0, 1] are per-mode pass probabilities and
whose eigenmodes phi_j are the filter's principal spectral modes. For a
Gaussian shutter of intensity FWHM T the time integral is Gaussian in
(w - w') and the kernel is evaluated in closed form.

The filter search looks for a practical (super-Gaussian mask + Gaussian
shutter) filter whose fundamental mode phi_0 reproduces a target mode,
so that the filter passes one Schmidt mode of the pair source and blocks
the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PhysicalityError
from .numerics import TWO_PI, Grid, decompose_kernel, integrate, mode_overlap
from .sfwm import sfwm_modes
from .units import C_LIGHT

LN2 = math.log(2.0)

# Nelder-Mead iteration cap per run, and the seed-simplex scales of the
# first run and of its restart from the first run's best point.
MAX_ITER = 200
SIMPLEX_SCALES = (1.0, 0.1)

# Eigenvalue clamps: tiny excursions outside [0, 1] are quadrature
# roundoff and are snapped; anything larger is a real physicality bug.
CHI_NEGATIVE_TOL = 1e-10
CHI_ABOVE_ONE_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class SpectralProfile:
    """Amplitude transmission mask sampled on a band grid, 0 <= h <= 1."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.nodes.shape:
            raise DomainError("profile samples do not match the grid")
        if np.any(vals < 0) or np.any(vals > 1.0 + 1e-9):
            raise DomainError("amplitude transmission must lie in [0, 1]")
        object.__setattr__(self, "values", np.clip(vals, 0.0, 1.0))


def super_gaussian(grid, width, order):
    """Flat-top mask h(w) = exp(-(w/width)^order / 2), even order.

    order 2 is a plain Gaussian; higher even orders square off the top
    and steepen the skirts at fixed width.
    """
    if width <= 0:
        raise DomainError("profile width must be positive")
    if order < 2 or order % 2 != 0:
        raise DomainError("profile order must be a positive even integer")
    if order > 20:
        raise DomainError("profile order above 20 is not supported")
    values = np.exp(-0.5 * (grid.nodes / width) ** order)
    return SpectralProfile(grid=grid, values=values)


def kappa_gaussian_shutter(profile, shutter_t):
    """Filter correlation kernel for a Gaussian shutter, closed form.

    shutter_t is the intensity FWHM of the shutter in the grid's time
    unit (inverse of the grid frequency unit).
    """
    if shutter_t <= 0:
        raise DomainError("shutter FWHM must be positive")
    h = profile.values
    d = profile.grid.nodes[:, None] - profile.grid.nodes[None, :]
    amp = (shutter_t / 2.0) * math.sqrt(math.pi / LN2)
    return amp * h[:, None] * h[None, :] * np.exp(-d**2 * shutter_t**2 / (16.0 * LN2))


def shutter_trace(profile, shutter_t):
    """Closed-form mode-weight sum (T / 4 pi) sqrt(pi/ln2) int h^2.

    Equals the eigenvalue sum of the Gaussian-shutter kernel; useful as
    an independent check on the decomposition.
    """
    amp = (shutter_t / 2.0) * math.sqrt(math.pi / LN2)
    return amp * integrate(profile.values**2, profile.grid) / TWO_PI


@dataclass(frozen=True, eq=False)
class FilterModes:
    """Pass probabilities and principal modes of a filter kernel.

    chis are sorted descending in [0, 1]; modes[:, j] is the matching
    eigenmode, orthonormal under (1/2pi) int phi^2.
    """

    chis: np.ndarray
    modes: np.ndarray
    grid: Grid

    @property
    def chi0(self):
        return float(self.chis[0])

    @property
    def residual_sum(self):
        """Total pass probability left in the non-fundamental modes."""
        return float(np.sum(self.chis[1:]))

    def significant(self, rel_tol=1e-6):
        if self.chi0 == 0.0:
            return np.array([], dtype=int)
        return np.nonzero(self.chis > rel_tol * self.chi0)[0]


def filter_modes(kernel, grid):
    """Decompose a filter kernel and validate its pass probabilities.

    Eigenvalues below -1e-10 or above 1 + 1e-6 indicate a non-physical
    kernel and raise; smaller excursions are snapped into [0, 1].
    """
    dec = decompose_kernel(kernel, grid)
    lam = dec.eigenvalues.copy()
    if np.any(lam < -CHI_NEGATIVE_TOL):
        raise PhysicalityError("filter kernel has negative pass probability %.3e" % lam.min())
    if np.any(lam > 1.0 + CHI_ABOVE_ONE_TOL):
        raise PhysicalityError("filter kernel has pass probability %.6f > 1" % lam.max())
    lam = np.clip(lam, 0.0, 1.0)
    order = np.argsort(-lam, kind="stable")
    return FilterModes(chis=lam[order], modes=dec.modes[:, order], grid=grid)


def practical_filter(grid, order, width, shutter_t):
    """Modes of a super-Gaussian mask followed by a Gaussian shutter."""
    profile = super_gaussian(grid, width, order)
    return filter_modes(kappa_gaussian_shutter(profile, shutter_t), grid)


def open_filter(grid):
    """No filtering: every mode passes.

    The identity kernel 2 pi delta(w - w') discretizes to one unit-chi
    spike mode per grid node, normalized like any other mode.
    """
    n = grid.n
    modes = np.diag(np.sqrt(TWO_PI / grid.weights))
    return FilterModes(chis=np.ones(n), modes=modes, grid=grid)


def ideal_matched_filter(decomposition):
    """Lossless single-mode filter passing the fundamental pair mode."""
    psi0 = decomposition.modes[:, 0]
    norm = mode_overlap(psi0, psi0, decomposition.grid)
    if abs(norm - 1.0) > 1e-8:
        raise DomainError("fundamental mode is not normalized")
    return FilterModes(chis=np.ones(1), modes=psi0[:, None].copy(), grid=decomposition.grid)


@dataclass(frozen=True)
class SearchSpace:
    """Box and objective for the practical-filter search.

    The mask width is always searched; the shutter FWHM is searched only
    when both t_lo and t_hi are given, otherwise it stays at shutter_t.
    Objectives:
      "mode-match": maximize |overlap(phi_0, psi_0)|. This is the
          single-mode design goal and the default. It has an interior
          optimum in width.
      "visibility": maximize the two-photon visibility at the configured
          operating point. Note that accidentals fall faster than
          coincidences as the filter narrows, so this objective rides
          the lower width bound rather than finding a matched filter.
    """

    orders: tuple = (2, 4, 6, 8, 10)
    width_lo: float = 0.5
    width_hi: float = 10.0
    shutter_t: float = 0.35
    t_lo: float = None
    t_hi: float = None
    objective: str = "mode-match"

    def __post_init__(self):
        if self.width_lo <= 0 or self.width_hi < self.width_lo:
            raise DomainError("invalid width box")
        if self.objective not in ("mode-match", "visibility"):
            raise DomainError("unknown objective %r" % self.objective)
        if (self.t_lo is None) != (self.t_hi is None):
            raise DomainError("shutter search needs both t_lo and t_hi")
        if self.t_lo is not None and (self.t_lo <= 0 or self.t_hi < self.t_lo):
            raise DomainError("invalid shutter box")
        if self.shutter_t <= 0:
            raise DomainError("shutter FWHM must be positive")
        if not self.orders or any(o < 2 or o % 2 for o in self.orders):
            raise DomainError("orders must be positive even integers")


@dataclass(frozen=True, eq=False)
class FilterSearchResult:
    order: int
    width: float
    shutter_t: float
    objective: str
    objective_value: float
    achieved_v: float
    overlap: float
    filter: FilterModes
    converged: bool
    evaluations: int

    @property
    def chi0(self):
        return self.filter.chi0

    @property
    def residual_sum(self):
        return self.filter.residual_sum

    @property
    def collection_fraction(self):
        """Fraction of produced pairs collected with this filter on both arms."""
        return self.filter.chi0 ** 2


def optimize_filter(params, raman, search=None, n_points=201):
    """Search the practical-filter family for the best single-mode filter.

    Runs Nelder-Mead per mask order from a fixed seed simplex (capped
    iterations, one restart from the best point) and keeps the best
    order. Deterministic for fixed inputs.
    """
    from scipy import optimize as _sopt

    from .visibility import evaluate_operating_point

    if search is None:
        search = SearchSpace()
    decomp = sfwm_modes(params, raman, n_points=n_points)
    grid = decomp.grid
    psi0 = decomp.modes[:, 0]
    search_t = search.t_lo is not None

    def build(order, x):
        width = float(np.clip(x[0], search.width_lo, search.width_hi))
        if search_t:
            t = float(np.clip(x[1], search.t_lo, search.t_hi))
        else:
            t = search.shutter_t
        return width, t, practical_filter(grid, order, width, t)

    def objective(x, order):
        _, _, fm = build(order, x)
        if search.objective == "mode-match":
            return -abs(mode_overlap(fm.modes[:, 0], psi0, grid))
        report = evaluate_operating_point(params, raman, fm, fm)
        return -report.visibility

    best = None
    for order in search.orders:
        x0 = [0.5 * (search.width_lo + search.width_hi)]
        steps = [max(1e-3, (search.width_hi - search.width_lo) / 5.0)]
        if search_t:
            x0.append(0.5 * (search.t_lo + search.t_hi))
            steps.append(max(1e-3, (search.t_hi - search.t_lo) / 5.0))
        x = np.array(x0)
        pick, evals = None, 0
        for scale in SIMPLEX_SCALES:
            simplex = np.vstack([x] + [x + scale * s * e
                                       for s, e in zip(steps, np.eye(len(x)))])
            res = _sopt.minimize(
                objective, x, args=(order,), method="Nelder-Mead",
                options=dict(initial_simplex=simplex, maxiter=MAX_ITER,
                             xatol=1e-6, fatol=1e-12))
            evals += res.nfev
            if pick is None or res.fun <= pick.fun:
                pick = res
            x = res.x
        cand = (float(pick.fun), order, pick.x.copy(), bool(pick.success), int(evals))
        if best is None or cand[0] < best[0]:
            best = cand
    fun, order, x, converged, evals = best
    width, shutter_t, fm = build(order, x)
    report = evaluate_operating_point(params, raman, fm, fm)
    overlap = abs(mode_overlap(fm.modes[:, 0], psi0, grid))
    return FilterSearchResult(
        order=order, width=width, shutter_t=shutter_t,
        objective=search.objective, objective_value=-fun,
        achieved_v=report.visibility, overlap=overlap,
        filter=fm, converged=converged, evaluations=evals)


ATTENUATION_CAP_DB = 120.0
EXPORT_ROWS = 120


def export_filter_profile(path, params, order, width, shutter_t, header_items=()):
    """Write the mask as wavelength / attenuation rows a pulse shaper takes.

    Wavelengths are absolute, on the blue (anti-Stokes) side of the
    pump; the mask is symmetric between bands. Power attenuation is
    capped at 120 dB. The shutter FWHM is recorded in the header in ps.
    """
    x = np.linspace(-params.b_sigma / 2.0, params.b_sigma / 2.0, EXPORT_ROWS)
    h = np.exp(-0.5 * (x / width) ** order)
    omega_abs = params.pump_omega + (params.b0_sigma + x) * params.sigma
    wavelength_nm = 2.0 * math.pi * C_LIGHT / omega_abs * 1e9
    att_db = np.where(h < 10 ** (-ATTENUATION_CAP_DB / 20.0),
                      ATTENUATION_CAP_DB, -20.0 * np.log10(np.maximum(h, 1e-300)))
    att_db = np.minimum(att_db, ATTENUATION_CAP_DB)
    shutter_ps = shutter_t / params.sigma * 1e12
    with open(path, "w", encoding="ascii", newline="") as fh:
        for key, value in header_items:
            fh.write("# %s = %s\n" % (key, value))
        fh.write("# shutter_fwhm_ps = %.6e\n" % shutter_ps)
        fh.write("# profile_order = %d\n" % order)
        fh.write("# profile_width_sigma = %.6e\n" % width)
        fh.write("wavelength_nm,attenuation_db\n")
        for lam, db in zip(wavelength_nm, att_db):
            fh.write("%.6e,%.6e\n" % (lam, db))
