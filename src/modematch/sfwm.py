"""Photon-pair source model: pulsed four-wave mixing in a Kerr fiber.

A Gaussian pump pulse of amplitude spectral width sigma generates
Stokes/anti-Stokes photon pairs whose joint spectral amplitude, to
second order in the pump peak power, depends only on the sum of the two
detunings from the band centers. In pump-width units (sigma = 1) that
profile is

    xi(x) = exp(-x^2/4) - pi/sqrt(2) r q exp(-x^2/8)
            + 2 pi^2/sqrt(3) q^2 exp(-x^2/12)

where q = gamma L A0^2 is the dimensionless gain (nonlinearity times
length times peak power) and r is the Raman-to-Kerr gain ratio at the
band center. Everything downstream is controlled by the two numbers
q and r, plus the band geometry in sigma units.

The spontaneous Raman background is incoherent and thermally weighted;
its strength relative to pair generation is set by r and the phonon
occupation at the band detuning. ``calibrate_raman`` pins r at a given
detuning from a measured (or targeted) zero-power visibility, which is
how a gain table is constructed when no directly measured curve is
available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, InfeasibleError, ParseError, read_ascii
from .numerics import make_band_grid, decompose_kernel
from .units import C_LIGHT, detuning_to_angular, thermal_occupation

# Above this the second-order truncation of the pair amplitude is unsafe.
Q_MAX = 0.1

# calibrate_raman stops once the saturated visibility is this close to
# its target.
CALIBRATION_TOL = 1e-10


@dataclass(frozen=True)
class ExperimentParams:
    """Source and band geometry in physical units.

    gamma: fiber nonlinearity, 1/(W km)
    length_km: interaction length, km
    temperature_k: fiber temperature, K
    pump_wavelength_nm: pump carrier wavelength, nm
    sigma: pump amplitude spectral width, rad/s
    band_center: detuning of the collection band centers, rad/s (> 0;
        the Stokes band sits at -band_center by symmetry)
    band_width: full collection bandwidth per band, rad/s
    peak_power_w: pump peak power, W
    """

    gamma: float = 1.6
    length_km: float = 0.3
    temperature_k: float = 300.0
    pump_wavelength_nm: float = 1538.7
    sigma: float = detuning_to_angular(0.5, 1538.7)
    band_center: float = detuning_to_angular(10.0, 1538.7)
    band_width: float = detuning_to_angular(5.0, 1538.7)
    peak_power_w: float = 0.01 / 1.6 / 0.3

    def __post_init__(self):
        for name in ("gamma", "length_km", "temperature_k", "pump_wavelength_nm",
                     "sigma", "band_center", "band_width", "peak_power_w"):
            if getattr(self, name) <= 0:
                raise DomainError("%s must be positive" % name)
        if self.band_center - self.band_width / 2.0 <= 0:
            raise DomainError("collection band touches the pump")
        if self.q >= Q_MAX:
            raise DomainError("q = %.3g exceeds the perturbative bound %.2g" % (self.q, Q_MAX))

    @property
    def q(self):
        """Dimensionless parametric gain gamma * L * A0^2."""
        return self.gamma * self.length_km * self.peak_power_w

    @property
    def b_sigma(self):
        """Band width in pump-width units."""
        return self.band_width / self.sigma

    @property
    def b0_sigma(self):
        """Band center detuning in pump-width units."""
        return self.band_center / self.sigma

    @property
    def pump_omega(self):
        return 2.0 * math.pi * C_LIGHT / (self.pump_wavelength_nm * 1e-9)

    @classmethod
    def from_nm(cls, gamma, length_km, temperature_k, pump_wavelength_nm,
                sigma_nm, band_center_nm, band_width_nm, peak_power_w):
        return cls(
            gamma=gamma,
            length_km=length_km,
            temperature_k=temperature_k,
            pump_wavelength_nm=pump_wavelength_nm,
            sigma=detuning_to_angular(sigma_nm, pump_wavelength_nm),
            band_center=detuning_to_angular(band_center_nm, pump_wavelength_nm),
            band_width=detuning_to_angular(band_width_nm, pump_wavelength_nm),
            peak_power_w=peak_power_w,
        )

    @classmethod
    def at_pair_rate(cls, p_pair=0.01):
        """Default dispersion-shifted fiber source tuned to a pair rate."""
        return params_for_pair_probability(cls(), p_pair)

    def with_q(self, q):
        if q <= 0:
            raise DomainError("q must be positive")
        return replace(self, peak_power_w=q / (self.gamma * self.length_km))

    def with_band_center(self, band_center_rad_s):
        return replace(self, band_center=band_center_rad_s)


def xi(x_sigma, q, raman_ratio):
    """Pair joint amplitude along the sum-frequency axis, sigma units.

    The leading Gaussian is the phase-matched four-wave mixing term; the
    negative correction is Raman-mediated pair loss; the last term is
    the second-order (double-scattering) contribution.
    """
    x = np.asarray(x_sigma, dtype=float)
    out = (np.exp(-x**2 / 4.0)
           - (math.pi / math.sqrt(2.0)) * raman_ratio * q * np.exp(-x**2 / 8.0)
           + (2.0 * math.pi**2 / math.sqrt(3.0)) * q**2 * np.exp(-x**2 / 12.0))
    if np.isscalar(x_sigma):
        return float(out)
    return out


def gain_ratio(raman, params):
    """Raman-to-Kerr gain ratio at the band center of ``params``.

    ``raman`` is a RamanModel or a bare number taken as a constant ratio.
    """
    return raman.ratio_at(params.band_center) if hasattr(raman, "ratio_at") else float(raman)


def sfwm_modes(params, raman, n_points=201):
    """Schmidt decomposition of the pair amplitude over the band.

    Returns modes on the band-relative grid (sigma units, center 0).
    Eigenvalues alternate in sign; the leading pair (zeta0, psi0) is the
    fundamental mode that a matched filter should pass.
    """
    grid = make_band_grid(params.b_sigma, n_points)
    kernel = xi(grid.nodes[:, None] + grid.nodes[None, :], params.q,
                gain_ratio(raman, params))
    return decompose_kernel(kernel, grid)


def unfiltered_pair_probability(params):
    """Per-pulse pair probability into the full band, no filtering.

    Closed form sqrt(2 pi) pi q^2 (B/sigma) from integrating the leading
    pair amplitude over the band square.
    """
    return math.sqrt(2.0 * math.pi) * math.pi * params.q**2 * params.b_sigma


def params_for_pair_probability(params, p_pair):
    """Adjust peak power so the unfiltered pair probability equals p_pair."""
    if p_pair <= 0:
        raise DomainError("pair probability must be positive")
    q = math.sqrt(p_pair / (math.sqrt(2.0 * math.pi) * math.pi * params.b_sigma))
    return params.with_q(q)


def band_coincidence_integral(b_sigma):
    """Geometry factor of the leading pair amplitude over a square band.

    Equals (1/2) iint_[-b/2,b/2]^2 exp(-(w+w')^2/2) dw dw', evaluated in
    closed form. Appears in both the unfiltered coincidence rate and the
    zero-power visibility used for calibration.
    """
    b = float(b_sigma)
    return (math.exp(-b * b / 2.0) - 1.0) + math.sqrt(math.pi / 2.0) * b * math.erf(b / math.sqrt(2.0))


def saturated_open_visibility(params, raman_ratio):
    """Zero-pump-power limit of the unfiltered visibility.

    Multipair noise scales out and only the Raman background survives:
    V -> 1 / (1 + r^2 b^2 n+ n- / geometry). Monotone decreasing in the
    gain ratio, which makes it invertible for calibration.
    """
    b = params.b_sigma
    n_anti = thermal_occupation(+params.band_center, params.temperature_k)
    n_stokes = thermal_occupation(-params.band_center, params.temperature_k)
    geom = band_coincidence_integral(b)
    return 1.0 / (1.0 + raman_ratio**2 * b**2 * n_anti * n_stokes / geom)


def calibrate_raman(target_v_sat, detuning_rad_s, params):
    """Gain ratio r that reproduces a zero-power visibility at a detuning.

    Bisection on the closed-form saturated visibility, which is strictly
    monotone in r. A target of exactly 1 corresponds to no Raman noise.
    """
    if not (0.0 < target_v_sat <= 1.0):
        raise DomainError("target saturated visibility must lie in (0, 1]")
    if detuning_rad_s <= 0:
        raise DomainError("calibration detuning must be positive")
    if detuning_rad_s - params.band_width / 2.0 <= 0:
        raise DomainError("calibration band touches the pump")
    if target_v_sat == 1.0:
        return 0.0
    trial = params.with_band_center(detuning_rad_s)
    lo, hi = 0.0, 10.0
    if saturated_open_visibility(trial, hi) > target_v_sat:
        raise InfeasibleError("target visibility unreachable within r <= %g" % hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        v = saturated_open_visibility(trial, mid)
        if abs(v - target_v_sat) <= CALIBRATION_TOL:
            return mid
        if v > target_v_sat:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True, eq=False)
class RamanModel:
    """Raman-to-Kerr gain ratio versus detuning, linear interpolation.

    detunings are positive angular frequencies in rad/s, strictly
    ascending; outside the table the nearest value is held (clamped).
    """

    detunings: np.ndarray
    ratios: np.ndarray

    def __post_init__(self):
        det = np.asarray(self.detunings, dtype=float)
        rat = np.asarray(self.ratios, dtype=float)
        if det.ndim != 1 or det.shape != rat.shape or det.size == 0:
            raise DomainError("gain table must be 1-d and non-empty")
        if np.any(det <= 0):
            raise DomainError("gain table detunings must be positive")
        if np.any(np.diff(det) <= 0):
            raise DomainError("gain table detunings must be strictly ascending")
        if np.any(rat < 0):
            raise DomainError("gain ratios must be nonnegative")
        object.__setattr__(self, "detunings", det)
        object.__setattr__(self, "ratios", rat)

    def ratio_at(self, detuning_rad_s):
        d = abs(float(detuning_rad_s))
        return float(np.interp(d, self.detunings, self.ratios))

    def clamped(self, detuning_rad_s):
        """True when the query falls outside the tabulated range."""
        d = abs(float(detuning_rad_s))
        return d < self.detunings[0] or d > self.detunings[-1]


# Zero-power visibilities quoted for a 5 nm collection band at 5, 10 and
# 14 nm detuning; they anchor the built-in gain table.
BUILTIN_ANCHORS_NM = (5.0, 10.0, 14.0)
BUILTIN_ANCHOR_VISIBILITIES = (0.96, 0.82, 0.71)


def default_raman_model(params):
    """Built-in gain table calibrated from quoted zero-power visibilities.

    Anchors depend on the band width, temperature and pump wavelength of
    ``params``: changing those re-derives the table.
    """
    dets = []
    ratios = []
    for d_nm, v in zip(BUILTIN_ANCHORS_NM, BUILTIN_ANCHOR_VISIBILITIES):
        det = detuning_to_angular(d_nm, params.pump_wavelength_nm)
        dets.append(det)
        ratios.append(calibrate_raman(v, det, params))
    return RamanModel(detunings=np.array(dets), ratios=np.array(ratios))


def load_raman_table(path):
    """Read a gain table CSV with columns detuning_thz, gain_ratio.

    Detunings are ordinary frequencies in THz (converted to rad/s).
    Lines starting with '#' and blank lines are skipped. Raises
    ParseError with the offending 1-based line number, also for a
    non-ASCII byte or a nan/inf field.
    """
    dets = []
    ratios = []
    header_seen = False
    for lineno, raw in enumerate(read_ascii(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            cols = [c.strip() for c in line.split(",")]
            if cols != ["detuning_thz", "gain_ratio"]:
                raise ParseError("expected header detuning_thz,gain_ratio", line=lineno)
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError("expected two comma-separated fields", line=lineno)
        try:
            det_thz = float(parts[0])
            ratio = float(parts[1])
        except ValueError:
            raise ParseError("non-numeric field %r" % line, line=lineno)
        if not (math.isfinite(det_thz) and math.isfinite(ratio)):
            raise ParseError("non-finite field %r" % line, line=lineno)
        dets.append(det_thz * 2.0 * math.pi * 1e12)
        ratios.append(ratio)
    if not header_seen:
        raise ParseError("missing header detuning_thz,gain_ratio", line=1)
    if not dets:
        raise ParseError("gain table has no data rows", line=1)
    try:
        return RamanModel(detunings=np.array(dets), ratios=np.array(ratios))
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def save_raman_table(model, path, header_items=()):
    """Write a gain table CSV; inverse of load_raman_table."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        for key, value in header_items:
            fh.write("# %s = %s\n" % (key, value))
        fh.write("detuning_thz,gain_ratio\n")
        for det, ratio in zip(model.detunings, model.ratios):
            fh.write("%.6e,%.6e\n" % (det / (2.0 * math.pi * 1e12), ratio))
