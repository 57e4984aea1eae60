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

and the visibility is C / (C + 2 (S_s + R_s)(S_a + R_a)): coincidences
against accidentals from the two singles streams. The open-filter
(no filtering) limits of all three have closed forms used for oracle
checks and for fast unfiltered sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .numerics import TWO_PI, make_band_grid
from .sfwm import (band_coincidence_integral, gain_ratio,
                   saturated_open_visibility, sfwm_modes,
                   unfiltered_pair_probability, xi)
from .units import binary_entropy, thermal_occupation

# The Raman emission grid reaches this many pump widths past each band edge.
RAMAN_PAD_SIGMA = 6.0

# Pump-side padding of the Raman integration grid stops this many pump
# widths short of the carrier, where the thermal model diverges.
PUMP_MARGIN_SIGMA = 1.0

DEFAULT_F_EC = 1.22


def _kept(fm, rel_tol=1e-6):
    idx = fm.significant(rel_tol)
    return fm.chis[idx], fm.modes[:, idx]


def pair_term(fm, params):
    """Per-pulse pair emission rate into one filtered band."""
    chis, modes = _kept(fm)
    wphi = fm.grid.weights[:, None] * modes
    d = fm.grid.nodes[:, None] - fm.grid.nodes[None, :]
    e8 = np.exp(-d**2 / 8.0)
    per_mode = np.einsum("ij,ik,kj->j", wphi, e8, wphi)
    return math.sqrt(math.pi / 2.0) * params.q**2 * float(np.dot(chis, per_mode))


def raman_term(fm, params, band, raman, freeze_thermal=False):
    """Per-pulse spontaneous Raman rate into one filtered band.

    band is "stokes" or "anti". The emission integral runs over a grid
    of 2n + 1 nodes padded RAMAN_PAD_SIGMA beyond the collection band;
    the pad is shortened on the pump side when the full pad would reach
    within PUMP_MARGIN_SIGMA of the carrier. freeze_thermal pins the
    phonon occupation at the band center, which is what the closed-form
    budget assumes.
    """
    if band not in ("stokes", "anti"):
        raise DomainError("band must be 'stokes' or 'anti'")
    r = gain_ratio(raman, params)
    b = params.b_sigma
    b0 = params.b0_sigma
    pad_pump = min(RAMAN_PAD_SIGMA, max(0.0, b0 - b / 2.0 - PUMP_MARGIN_SIGMA))
    # pump sits below the anti-Stokes band and above the Stokes band
    pads = (pad_pump, RAMAN_PAD_SIGMA) if band == "anti" else (RAMAN_PAD_SIGMA, pad_pump)
    outer = make_band_grid(b, 2 * fm.grid.n + 1, padding=pads)
    sign = 1.0 if band == "anti" else -1.0
    if freeze_thermal:
        occ = np.full(outer.n, thermal_occupation(sign * params.band_center,
                                                  params.temperature_k))
    else:
        occ = np.array([thermal_occupation((sign * b0 + x) * params.sigma,
                                           params.temperature_k)
                        for x in outer.nodes])
    chis, modes = _kept(fm)
    wphi = fm.grid.weights[:, None] * modes
    e2 = np.exp(-(outer.nodes[:, None] - fm.grid.nodes[None, :])**2 / 2.0)
    proj = (e2 @ wphi)**2 @ chis
    return (r * params.q / TWO_PI) * float(np.dot(outer.weights * occ, proj))


def coincidence_term(fm_stokes, fm_anti, params, raman, leading_only=False):
    """Per-pulse coincidence rate through the two filtered arms.

    leading_only drops the gain corrections, matching the closed-form
    budget.
    """
    chis_s, modes_s = _kept(fm_stokes)
    chis_a, modes_a = _kept(fm_anti)
    wphi_s = fm_stokes.grid.weights[:, None] * modes_s
    wphi_a = fm_anti.grid.weights[:, None] * modes_a
    x = fm_stokes.grid.nodes[:, None] + fm_anti.grid.nodes[None, :]
    kern = (np.exp(-x**2 / 4.0) if leading_only
            else xi(x, params.q, gain_ratio(raman, params)))
    amp = wphi_s.T @ kern @ wphi_a
    return (params.q**2 / (4.0 * math.pi)) * float(chis_s @ amp**2 @ chis_a)


def tpi_visibility(coincidence, s_stokes, s_anti, r_stokes, r_anti):
    """Two-photon interference contrast from rates.

    V = C / (C + 2 (S_s + R_s)(S_a + R_a)). All rates must be
    nonnegative and at least one term positive.
    """
    vals = (coincidence, s_stokes, s_anti, r_stokes, r_anti)
    if any(v < 0 for v in vals):
        raise DomainError("rates must be nonnegative")
    denom = coincidence + 2.0 * (s_stokes + r_stokes) * (s_anti + r_anti)
    if denom == 0.0:
        raise DomainError("all rates are zero; visibility undefined")
    return coincidence / denom


def qber_from_visibility(v):
    """Error rate of a visibility-V link: (1 - V) / 2."""
    if not (0.0 <= v <= 1.0):
        raise DomainError("visibility out of [0, 1]")
    return (1.0 - v) / 2.0


def key_fraction(qber, p_pair, f_ec=DEFAULT_F_EC, apply_q_basis=False,
                 q_basis=0.5):
    """Asymptotic secure key per pulse, floored at zero.

    p_pair (1 - f_ec H2(e) - H2(e)), optionally scaled by the basis
    sifting factor when apply_q_basis is set.
    """
    if p_pair < 0:
        raise DomainError("pair probability must be nonnegative")
    if f_ec < 1.0:
        raise DomainError("error-correction inefficiency below the Shannon limit")
    h = binary_entropy(qber)
    rate = 1.0 - f_ec * h - h
    sift = q_basis if apply_q_basis else 1.0
    return p_pair * sift * max(0.0, rate)


@dataclass(frozen=True)
class UnfilteredBudget:
    """Closed-form open-filter rates (phonon occupation frozen at the
    band centers)."""

    s: float
    r_stokes: float
    r_anti: float
    coincidence: float

    @property
    def visibility(self):
        return tpi_visibility(self.coincidence, self.s, self.s,
                              self.r_stokes, self.r_anti)


def unfiltered_budget(params, raman):
    """Open-filter rates in closed form; the oracle for the quadrature."""
    q = params.q
    b = params.b_sigma
    r = gain_ratio(raman, params)
    n_anti = thermal_occupation(+params.band_center, params.temperature_k)
    n_stokes = thermal_occupation(-params.band_center, params.temperature_k)
    s = math.sqrt(2.0 * math.pi) * math.pi * q**2 * b
    r_a = math.sqrt(math.pi) * q * r * b * n_anti
    r_s = math.sqrt(math.pi) * q * r * b * n_stokes
    c = TWO_PI * q**2 * band_coincidence_integral(b)
    return UnfilteredBudget(s=s, r_stokes=r_s, r_anti=r_a, coincidence=c)


def visibility_open(params, raman):
    """Unfiltered visibility at the configured operating point."""
    return unfiltered_budget(params, raman).visibility


def saturated_visibility_open(params, raman):
    """Unfiltered visibility in the zero-power limit, closed form."""
    r = gain_ratio(raman, params)
    return saturated_open_visibility(params, r)


@dataclass(frozen=True)
class VisibilityReport:
    """All rates and derived figures at one operating point."""

    p_pair: float
    s_stokes: float
    s_anti: float
    r_stokes: float
    r_anti: float
    coincidence: float
    visibility: float
    qber: float
    key_fraction: float


def evaluate_operating_point(params, raman, fm_stokes, fm_anti,
                             f_ec=DEFAULT_F_EC, apply_q_basis=False,
                             q_basis=0.5):
    """Full rate budget and derived figures for a filtered source."""
    s_s = pair_term(fm_stokes, params)
    s_a = pair_term(fm_anti, params)
    r_s = raman_term(fm_stokes, params, "stokes", raman)
    r_a = raman_term(fm_anti, params, "anti", raman)
    c = coincidence_term(fm_stokes, fm_anti, params, raman)
    v = tpi_visibility(c, s_s, s_a, r_s, r_a)
    e = qber_from_visibility(v)
    p_pair = unfiltered_pair_probability(params)
    key = key_fraction(e, p_pair, f_ec=f_ec, apply_q_basis=apply_q_basis,
                       q_basis=q_basis)
    return VisibilityReport(p_pair=p_pair, s_stokes=s_s, s_anti=s_a,
                            r_stokes=r_s, r_anti=r_a, coincidence=c,
                            visibility=v, qber=e, key_fraction=key)


def saturated_visibility_filtered(params, raman, make_filter, n_points=201,
                                  q_probe=1e-4, q_check=5e-5, rich_tol=1e-3):
    """Filtered visibility in the zero-power limit.

    Evaluates at a small probe gain and verifies against a half-gain
    probe (Richardson-style consistency); disagreement beyond rich_tol
    means the probe has not reached the Raman-dominated plateau and
    raises NumericalError. make_filter maps a mode decomposition to the
    FilterModes applied on both arms.
    """

    def v_at(q_val):
        p = params.with_q(q_val)
        dec = sfwm_modes(p, raman, n_points=n_points)
        fm = make_filter(dec)
        return evaluate_operating_point(p, raman, fm, fm).visibility

    v1 = v_at(q_probe)
    v2 = v_at(q_check)
    if abs(v1 - v2) > rich_tol:
        raise NumericalError(
            "saturated visibility not converged: %.6f vs %.6f" % (v1, v2))
    return v1
