"""Physical constants and the handful of unit conversions the model needs.

Internally every spectral quantity is carried in units of the pump
amplitude spectral width sigma, so physical units only enter through the
conversions collected here: wavelength offsets to angular frequency,
thermal phonon occupation at a detuning, and the binary entropy used by
the key-rate estimate.
"""

from __future__ import annotations

import math

from .errors import DomainError

# CODATA 2018 values, SI units; c and k_B are exact by definition.
C_LIGHT = 2.99792458e8     # m/s
HBAR = 1.054571817e-34     # J s
K_B = 1.380649e-23         # J/K

# Detunings closer to the carrier than this are outside the thermal
# model's validity (the occupation diverges as 1/omega).
OMEGA_MIN_RAD_S = 1.0e6


def detuning_to_angular(delta_lambda_nm, pump_wavelength_nm):
    """Convert a wavelength offset from the pump to an angular frequency.

    Uses the first-order dispersion of omega = 2 pi c / lambda, which is
    accurate to |delta/lambda| relative error (about 1% at 15 nm). The
    sign follows the wavelength offset; callers assign band sides.

    >>> round(detuning_to_angular(10.0, 1538.7) / 1e12, 4)
    7.956
    """
    if pump_wavelength_nm <= 0:
        raise DomainError("pump wavelength must be positive")
    lam = pump_wavelength_nm * 1e-9
    return 2.0 * math.pi * C_LIGHT * (delta_lambda_nm * 1e-9) / lam**2


def thermal_occupation(delta_omega_rad_s, temperature_k):
    """Thermal phonon factor entering spontaneous Raman emission.

    For a detuning omega from the pump, returns the Bose occupation
    n(|omega|) = 1/(exp(hbar |omega| / k T) - 1), plus 1 on the Stokes
    side (omega < 0) where stimulated and spontaneous terms add. Where
    hbar |omega| / k T is past expm1's range, n is its limit 0.
    """
    if temperature_k <= 0:
        raise DomainError("temperature must be positive")
    if abs(delta_omega_rad_s) < OMEGA_MIN_RAD_S:
        raise DomainError(
            "thermal occupation undefined within %g rad/s of the pump" % OMEGA_MIN_RAD_S
        )
    x = HBAR * abs(delta_omega_rad_s) / (K_B * temperature_k)
    try:
        n = 1.0 / math.expm1(x)
    except OverflowError:
        n = 0.0
    return n + 1.0 if delta_omega_rad_s < 0 else n


def binary_entropy(p):
    """Shannon entropy of a biased bit, in bits. Endpoints give 0."""
    if p < 0.0 or p > 1.0:
        raise DomainError("probability out of [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)
