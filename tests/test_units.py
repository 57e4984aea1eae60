"""Unit tests for physical constants, unit conversion, and scalar helpers."""

import math

import pytest

from modematch.errors import DomainError
from modematch.units import (
    C_LIGHT,
    HBAR,
    K_B,
    OMEGA_MIN_RAD_S,
    binary_entropy,
    detuning_to_angular,
    thermal_occupation,
)


class TestConstants:
    def test_codata_values(self):
        assert C_LIGHT == 2.99792458e8
        assert HBAR == 1.054571817e-34
        assert K_B == 1.380649e-23


class TestDetuningToAngular:
    def test_ten_nm_reference(self):
        # 2*pi*c*dlambda/lambda^2 at 10 nm from a 1538.7 nm carrier
        got = detuning_to_angular(10.0, 1538.7)
        assert got == pytest.approx(7.955961332724789e12, rel=1e-12)

    def test_linear_in_detuning(self):
        one = detuning_to_angular(1.0, 1538.7)
        assert detuning_to_angular(3.0, 1538.7) == pytest.approx(3 * one, rel=1e-12)

    def test_sign_follows_input(self):
        assert detuning_to_angular(-2.0, 1538.7) == -detuning_to_angular(2.0, 1538.7)

    def test_rejects_bad_pump_wavelength(self):
        with pytest.raises(DomainError):
            detuning_to_angular(1.0, 0.0)
        with pytest.raises(DomainError):
            detuning_to_angular(1.0, -1550.0)


class TestThermalOccupation:
    def test_anti_stokes_reference(self):
        omega = detuning_to_angular(10.0, 1538.7)
        assert thermal_occupation(omega, 300.0) == pytest.approx(
            4.453557246440451, rel=1e-12
        )

    def test_stokes_reference(self):
        omega = detuning_to_angular(10.0, 1538.7)
        assert thermal_occupation(-omega, 300.0) == pytest.approx(
            5.453557246440451, rel=1e-12
        )

    def test_stokes_exceeds_anti_stokes_by_one(self):
        # spontaneous term on the downshifted branch
        for d_nm in (0.5, 2.0, 7.0, 14.0):
            w = detuning_to_angular(d_nm, 1538.7)
            n_plus = thermal_occupation(w, 300.0)
            n_minus = thermal_occupation(-w, 300.0)
            assert n_minus - n_plus == pytest.approx(1.0, rel=1e-12)

    def test_ln2_point(self):
        # hbar*omega = k*T*ln2 puts exactly one phonon in the mode
        t = 300.0
        omega = K_B * t * math.log(2.0) / HBAR
        assert thermal_occupation(omega, t) == pytest.approx(1.0, rel=1e-12)

    def test_decreases_with_detuning(self):
        t = 300.0
        vals = [
            thermal_occupation(detuning_to_angular(d, 1538.7), t)
            for d in (2.0, 5.0, 10.0, 14.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_past_expm1_range_gives_the_limit(self):
        # hbar omega / k T = 1216 at 100 nm and 0.5 K, past expm1's range
        w = detuning_to_angular(100.0, 1538.7)
        assert thermal_occupation(w, 0.5) == 0.0
        assert thermal_occupation(-w, 0.5) == 1.0
        assert thermal_occupation(math.inf, 300.0) == 0.0

    def test_bit_identical_where_expm1_is_finite(self):
        t = 300.0
        for x in (1e-6, 0.5, 30.0, 709.0):
            w = x * K_B * t / HBAR
            n = 1.0 / math.expm1(HBAR * w / (K_B * t))
            assert thermal_occupation(w, t) == n
            assert thermal_occupation(-w, t) == n + 1.0

    def test_rejects_small_frequency(self):
        with pytest.raises(DomainError):
            thermal_occupation(0.5 * OMEGA_MIN_RAD_S, 300.0)

    def test_rejects_nonpositive_temperature(self):
        w = detuning_to_angular(10.0, 1538.7)
        with pytest.raises(DomainError):
            thermal_occupation(w, 0.0)
        with pytest.raises(DomainError):
            thermal_occupation(w, -10.0)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, rel=1e-15)

    def test_reference_value(self):
        assert binary_entropy(0.06) == pytest.approx(0.32744491915447627, rel=1e-12)

    def test_symmetry(self):
        for p in (0.01, 0.11, 0.3, 0.49):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), rel=1e-12)

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.01)
        with pytest.raises(DomainError):
            binary_entropy(1.01)
