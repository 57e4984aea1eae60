"""Coincidence and background rates behind two-photon interference.

For a filter with pass probabilities chi_j and modes phi_j applied to
each collection band, three per-pulse quantities determine the
interference contrast (all in pump-width units, q = gamma L A0^2,
r = Raman-to-Kerr gain ratio at the band center):

    pair rate      S = sqrt(pi/2) q^2 sum_j chi_j
                       iint exp(-(w-w')^2/8) phi_j(w) phi_j(w') dw dw'
    Raman rate     R = (r q / 2pi) int dW n(W_abs) sum_j chi_j
                       | int dw' exp(-(w'-W)^2/2) phi_j(w') |^2
    coincidences   C = (q^2 / 4pi) sum_jk chi_j chi_k
                       | iint phi_j(w) phi_k(w') xi(w+w') dw dw' |^2

and the visibility is C / Q. The overall gain Q = C + 2 (S_s + R_s)(S_a + R_a)
counts coincidences and accidentals from the two singles streams; the
secure key is a fraction of it. The open-filter limits of all three
rates have closed forms used for oracle checks and unfiltered sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import TWO_PI, decompose_kernel, make_band_grid
# saturated_visibility_open is re-exported beside the other visibilities
from .sfwm import (_xi_from_gaussians, band_coincidence_integral,
                   gain_ratio, saturated_visibility_open,
                   unfiltered_pair_probability)
from .units import binary_entropy, thermal_occupation

# The Raman emission grid reaches this many pump widths past each band edge.
RAMAN_PAD_SIGMA = 6.0

# Pump-side padding of the Raman integration grid stops this many pump
# widths short of the carrier, where the thermal model diverges.
PUMP_MARGIN_SIGMA = 1.0

DEFAULT_F_EC = 1.22

BANDS = ("stokes", "anti")


def _gaussians(d, *scales):
    """exp(-d**2 / s) for each scale s, computed as square, negate,
    divide, exp; the last one is built in place in d."""
    np.square(d, out=d)
    np.negative(d, out=d)
    out = [np.divide(d, s) for s in scales[:-1]]
    out.append(np.divide(d, scales[-1], out=d))
    for g in out:
        np.exp(g, out=g)
    return out


def _emission_grid(params, band, n):
    """One band's Raman emission grid of 2n + 1 nodes.

    It reaches RAMAN_PAD_SIGMA beyond the collection band; the pad is
    shortened on the pump side when the full pad would reach within
    PUMP_MARGIN_SIGMA of the carrier.
    """
    b = params.b_sigma
    pad_pump = min(RAMAN_PAD_SIGMA,
                   max(0.0, params.b0_sigma - b / 2.0 - PUMP_MARGIN_SIGMA))
    # pump sits below the anti-Stokes band and above the Stokes band
    pads = (pad_pump, RAMAN_PAD_SIGMA) if band == "anti" else (RAMAN_PAD_SIGMA, pad_pump)
    return make_band_grid(b, 2 * n + 1, padding=pads)


def _weighted_occupations(params, band, outer, freeze_thermal=False):
    """Emission grid weights times the band's phonon occupations."""
    sign = 1.0 if band == "anti" else -1.0
    if freeze_thermal:
        occ = np.full(outer.n, thermal_occupation(sign * params.band_center,
                                                  params.temperature_k))
    else:
        occ = np.array([thermal_occupation((sign * params.b0_sigma + x) * params.sigma,
                                           params.temperature_k)
                        for x in outer.nodes])
    return outer.weights * occ


class RateModel:
    """The filter-independent parts of the three rate integrals on one
    band grid.

    Hold one per command and pass it to the rate functions. Built on the
    n-node band grid that every filter and pair decomposition of the
    command uses, it holds the pair matrix exp(-(w-w')^2/8) and the
    three Gaussians exp(-x^2/4), exp(-x^2/8), exp(-x^2/12) of xi on the
    sum-frequency grid x = w + w'. Per band it also holds the Raman
    emission grid and its weights times the phonon occupations of the
    last source asked for, rebuilt when the band width, pump width, band
    center or temperature changes; the gain q never enters. The arrays
    are read-only.

    Each band's (2n + 1) x n projection exp(-(W - w)^2/2) is not held:
    it is the largest piece and cheap to build, and holding it took the
    peak RSS of a run of n = 201 sweeps from 2% to 6% above building
    none of these pieces once.
    """

    def __init__(self, grid):
        self.grid = grid
        self.pair = _gaussians(np.subtract.outer(grid.nodes, grid.nodes), 8.0)[0]
        self.sum_gaussians = tuple(_gaussians(np.add.outer(grid.nodes, grid.nodes),
                                              4.0, 8.0, 12.0))
        for a in (self.pair, *self.sum_gaussians):
            a.setflags(write=False)
        self._emission = {}

    def check(self, *fms):
        """Raise DomainError unless every filter is on this model's grid."""
        for fm in fms:
            if (fm.grid is not self.grid
                    and not np.array_equal(fm.grid.nodes, self.grid.nodes)):
                raise DomainError("filter grid differs from the rate model's "
                                  "%d-node band grid" % self.grid.n)

    def check_band(self, params, n_points):
        """Raise DomainError unless the grid is the n_points band grid of
        ``params``."""
        if self.grid.n != n_points or self.grid.span != params.b_sigma:
            raise DomainError("rate model is not on this source's %d-node band grid"
                              % n_points)

    def emission(self, params, band):
        """The band's Raman emission grid and weighted occupations for
        the source of ``params``."""
        source = (params.band_width, params.sigma, params.band_center,
                  params.temperature_k)
        held = self._emission.get(band)
        if held is None or held[0] != source:
            outer = _emission_grid(params, band, self.grid.n)
            w_occ = _weighted_occupations(params, band, outer)
            w_occ.setflags(write=False)
            held = self._emission[band] = (source, outer, w_occ)
        return held[1:]

    def xi(self, q, ratio):
        """sfwm.xi on the sum-frequency grid, same arithmetic."""
        return _xi_from_gaussians(*self.sum_gaussians, q, ratio)


def _checked(model, fm, *more):
    """model, or a new one on fm's grid, after checking the filters' grids."""
    if model is None:
        model = RateModel(fm.grid)
    model.check(fm, *more)
    return model


def _kept(fm, rel_tol=1e-6):
    """The significant pass probabilities and their weight-scaled modes."""
    idx = fm.significant(rel_tol)
    return fm.chis[idx], fm.grid.weights[:, None] * fm.modes[:, idx]


def pair_term(fm, params, model=None):
    """Per-pulse pair emission rate into one filtered band.

    ``model`` is the command's RateModel; without one, one is built on
    the filter's grid for this call.
    """
    e8 = _checked(model, fm).pair
    chis, wphi = _kept(fm)
    per_mode = np.einsum("ij,ik,kj->j", wphi, e8, wphi)
    return math.sqrt(math.pi / 2.0) * params.q**2 * float(np.dot(chis, per_mode))


def raman_term(fm, params, band, raman, freeze_thermal=False, model=None):
    """Per-pulse spontaneous Raman rate into one filtered band.

    band is "stokes" or "anti". The emission integral runs over the
    padded grid of ``_emission_grid``. freeze_thermal pins the phonon
    occupation at the band center, which is what the closed-form budget
    assumes; it always builds its own emission grid. ``model`` is the
    command's RateModel; without one, one is built on the filter's grid
    for this call.
    """
    if band not in BANDS:
        raise DomainError("band must be 'stokes' or 'anti'")
    if freeze_thermal:
        outer = _emission_grid(params, band, fm.grid.n)
        w_occ = _weighted_occupations(params, band, outer, freeze_thermal)
    else:
        outer, w_occ = _checked(model, fm).emission(params, band)
    chis, wphi = _kept(fm)
    e2 = _gaussians(np.subtract.outer(outer.nodes, fm.grid.nodes), 2.0)[0]
    proj = (e2 @ wphi)**2 @ chis
    return (gain_ratio(raman, params) * params.q / TWO_PI) * float(np.dot(w_occ, proj))


def coincidence_term(fm_stokes, fm_anti, params, raman, leading_only=False,
                     model=None):
    """Per-pulse coincidence rate through the two filtered arms.

    leading_only drops the gain corrections, matching the closed-form
    budget. Both arms must be on one grid. ``model`` is the command's
    RateModel; without one, one is built on that grid for this call.
    """
    model = _checked(model, fm_stokes, fm_anti)
    kern = (model.sum_gaussians[0] if leading_only
            else model.xi(params.q, gain_ratio(raman, params)))
    chis_s, wphi_s = _kept(fm_stokes)
    chis_a, wphi_a = _kept(fm_anti)
    amp = wphi_s.T @ kern @ wphi_a
    return (params.q**2 / (4.0 * math.pi)) * float(chis_s @ amp**2 @ chis_a)


def overall_gain(coincidence, s_stokes, s_anti, r_stokes, r_anti):
    """Per-pulse rate of recorded coincidences, true and accidental.

    Q = C + 2 (S_s + R_s)(S_a + R_a). All rates must be nonnegative and
    at least one term positive.
    """
    if any(v < 0 for v in (coincidence, s_stokes, s_anti, r_stokes, r_anti)):
        raise DomainError("rates must be nonnegative")
    gain = coincidence + 2.0 * (s_stokes + r_stokes) * (s_anti + r_anti)
    if gain == 0.0:
        raise DomainError("all rates are zero; visibility undefined")
    return gain


def tpi_visibility(coincidence, s_stokes, s_anti, r_stokes, r_anti):
    """Two-photon interference contrast V = C / Q, Q from overall_gain."""
    return coincidence / overall_gain(coincidence, s_stokes, s_anti, r_stokes, r_anti)


def qber_from_visibility(v):
    """Error rate of a visibility-V link: (1 - V) / 2."""
    if not (0.0 <= v <= 1.0):
        raise DomainError("visibility out of [0, 1]")
    return (1.0 - v) / 2.0


def key_fraction(qber, gain, f_ec=DEFAULT_F_EC, q_basis=1.0):
    """Asymptotic secure key per pulse, floored at zero.

    q_basis Q (1 - f_ec H2(e) - H2(e)), where Q is the overall gain of
    overall_gain and q_basis is the basis sifting factor (1: no sifting
    loss) (X. Ma, C.-H. F. Fung and H.-K. Lo, PRA 76, 012307, 2007).
    """
    if gain < 0:
        raise DomainError("overall gain must be nonnegative")
    if f_ec < 1.0:
        raise DomainError("error-correction inefficiency below the Shannon limit")
    h = binary_entropy(qber)
    rate = 1.0 - f_ec * h - h
    return gain * q_basis * max(0.0, rate)


@dataclass(frozen=True)
class UnfilteredBudget:
    """Closed-form open-filter rates (phonon occupation frozen at the
    band centers)."""

    s: float
    r_stokes: float
    r_anti: float
    coincidence: float

    @property
    def gain(self):
        return overall_gain(self.coincidence, self.s, self.s,
                            self.r_stokes, self.r_anti)

    @property
    def visibility(self):
        return self.coincidence / self.gain


def unfiltered_budget(params, raman):
    """Open-filter rates in closed form; the oracle for the quadrature."""
    q = params.q
    b = params.b_sigma
    r = gain_ratio(raman, params)
    n_anti = thermal_occupation(+params.band_center, params.temperature_k)
    n_stokes = thermal_occupation(-params.band_center, params.temperature_k)
    s = unfiltered_pair_probability(params)
    r_a = math.sqrt(math.pi) * q * r * b * n_anti
    r_s = math.sqrt(math.pi) * q * r * b * n_stokes
    c = TWO_PI * q**2 * band_coincidence_integral(b)
    return UnfilteredBudget(s=s, r_stokes=r_s, r_anti=r_a, coincidence=c)


def visibility_open(params, raman):
    """Unfiltered visibility at the configured operating point."""
    return unfiltered_budget(params, raman).visibility


@dataclass(frozen=True)
class VisibilityReport:
    """All rates and derived figures at one operating point."""

    s_stokes: float
    s_anti: float
    r_stokes: float
    r_anti: float
    coincidence: float
    gain: float
    visibility: float
    qber: float
    key_fraction: float


def evaluate_operating_point(params, raman, fm_stokes, fm_anti,
                             f_ec=DEFAULT_F_EC, q_basis=1.0, model=None):
    """Full rate budget and derived figures for a filtered source.

    ``model`` is the command's RateModel, passed on to every rate;
    without one, one is built on the filters' grid for this call.
    """
    model = _checked(model, fm_stokes, fm_anti)
    s_s = pair_term(fm_stokes, params, model=model)
    s_a = pair_term(fm_anti, params, model=model)
    r_s = raman_term(fm_stokes, params, "stokes", raman, model=model)
    r_a = raman_term(fm_anti, params, "anti", raman, model=model)
    c = coincidence_term(fm_stokes, fm_anti, params, raman, model=model)
    gain = overall_gain(c, s_s, s_a, r_s, r_a)
    v = c / gain
    e = qber_from_visibility(v)
    key = key_fraction(e, gain, f_ec=f_ec, q_basis=q_basis)
    return VisibilityReport(s_stokes=s_s, s_anti=s_a, r_stokes=r_s, r_anti=r_a,
                            coincidence=c, gain=gain, visibility=v, qber=e,
                            key_fraction=key)


def saturated_visibility_filtered(params, raman, make_filter, n_points=201,
                                  model=None):
    """Filtered visibility in the zero-power limit, exact.

    As q -> 0 the coincidences and pair rates scale as q^2 and the Raman
    rates as q, so V -> C0 / (C0 + 2 R_s R_a), with C0 the coincidence
    rate of the leading amplitude exp(-(w+w')^2/4). That ratio does not
    depend on q, so any q of ``params`` gives the same value.
    make_filter is a FilterModes on the n_points band grid or a map to
    one, resolved by ``zero_power_filter``. ``model`` is the command's
    RateModel on that grid, built here when not given.
    """
    if model is None:
        model = RateModel(make_band_grid(params.b_sigma, n_points))
    else:
        model.check_band(params, n_points)
    fm = zero_power_filter(make_filter, model)
    c = coincidence_term(fm, fm, params, raman, leading_only=True, model=model)
    r_s = raman_term(fm, params, "stokes", raman, model=model)
    r_a = raman_term(fm, params, "anti", raman, model=model)
    return tpi_visibility(c, 0.0, 0.0, r_s, r_a)


def zero_power_filter(make_filter, model):
    """make_filter itself, or, for a map such as ideal_matched_filter, its
    FilterModes for the leading amplitude exp(-(w+w')^2/4) on the model's
    band grid, whose modes are the zero-power limit's pair modes."""
    if not callable(make_filter):
        return make_filter
    return make_filter(decompose_kernel(model.sum_gaussians[0], model.grid))
