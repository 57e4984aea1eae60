"""Run configuration: flat ``key = value`` files with defaults.

An empty file (or no file) reproduces the reference dispersion-shifted
fiber source: gamma = 1.6 /W/km, L = 0.3 km, T = 300 K, pump at
1538.7 nm with 0.5 nm spectral width, bands of width 5 nm centered
10 nm from the pump, and a per-pulse pair probability of 0.01. Unknown
keys, duplicates and malformed values are reported with line numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DomainError, ParseError, read_ascii
from .filters import SearchSpace
from .sfwm import (ExperimentParams, default_raman_model, load_raman_table,
                   params_for_pair_probability)


def _float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _int(text):
    if "." in text or "e" in text.lower():
        raise ValueError("not an integer")
    return int(text)


def _bool(text):
    low = text.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError("expected true or false")


def _str(text):
    return text


def _choice(*allowed):
    def parse(text):
        if text not in allowed:
            raise ValueError("expected one of %s" % ", ".join(allowed))
        return text
    return parse


def _int_list(text):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(int(p) for p in parts)


def _opt_float(text):
    if text.lower() == "none":
        return None
    return _float(text)


@dataclass(frozen=True)
class RunConfig:
    gamma: float = 1.6
    length_km: float = 0.3
    temperature_k: float = 300.0
    pump_wavelength_nm: float = 1538.7
    sigma_nm: float = 0.5
    band_center_nm: float = 10.0
    band_width_nm: float = 5.0
    p_pair: float = 0.01
    n_points: int = 201
    raman_source: str = "builtin"
    filter_kind: str = "ideal-matched"
    filter_order: int = 2
    filter_width_sigma: float = 3.68
    shutter_t_sigma: float = 0.35
    objective: str = "mode-match"
    orders: tuple = (2, 4, 6, 8, 10)
    width_min_sigma: float = 0.5
    width_max_sigma: float = 10.0
    t_min_sigma: float = None
    t_max_sigma: float = None
    sweep_kind: str = "none"
    p_min: float = 1e-4
    p_max: float = 0.05
    sweep_points: int = 25
    sweep_log: bool = True
    delta_min_nm: float = 5.0
    delta_max_nm: float = 14.0
    delta_points: int = 10
    f_ec: float = 1.22
    apply_q_basis: bool = False
    q_basis: float = 0.5
    output_dir: str = "out"


# dotted config key -> (dataclass field, value parser)
KEYMAP = {
    "fiber.gamma": ("gamma", _float),
    "fiber.length_km": ("length_km", _float),
    "fiber.temperature_k": ("temperature_k", _float),
    "pump.wavelength_nm": ("pump_wavelength_nm", _float),
    "pump.sigma_nm": ("sigma_nm", _float),
    "band.center_nm": ("band_center_nm", _float),
    "band.width_nm": ("band_width_nm", _float),
    "run.p_pair": ("p_pair", _float),
    "numerics.n_points": ("n_points", _int),
    "raman.source": ("raman_source", _str),
    "filter.kind": ("filter_kind",
                    _choice("open", "ideal-matched", "practical", "optimize")),
    "filter.order": ("filter_order", _int),
    "filter.width_sigma": ("filter_width_sigma", _float),
    "filter.shutter_t_sigma": ("shutter_t_sigma", _float),
    "filter.objective": ("objective", _choice("mode-match", "visibility")),
    "filter.orders": ("orders", _int_list),
    "filter.width_min_sigma": ("width_min_sigma", _float),
    "filter.width_max_sigma": ("width_max_sigma", _float),
    "filter.t_min_sigma": ("t_min_sigma", _opt_float),
    "filter.t_max_sigma": ("t_max_sigma", _opt_float),
    "sweep.kind": ("sweep_kind", _choice("none", "p-pair", "detuning")),
    "sweep.p_min": ("p_min", _float),
    "sweep.p_max": ("p_max", _float),
    "sweep.points": ("sweep_points", _int),
    "sweep.log": ("sweep_log", _bool),
    "sweep.delta_min_nm": ("delta_min_nm", _float),
    "sweep.delta_max_nm": ("delta_max_nm", _float),
    "sweep.delta_points": ("delta_points", _int),
    "qkd.f_ec": ("f_ec", _float),
    "qkd.apply_q_basis": ("apply_q_basis", _bool),
    "qkd.q_basis": ("q_basis", _float),
    "output.dir": ("output_dir", _str),
}


def parse_config(text):
    """Parse configuration text into a RunConfig."""
    values = {}
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError("expected key = value", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KEYMAP:
            raise ParseError("unknown key %r" % key, line=lineno)
        if key in seen:
            raise ParseError("duplicate key %r (first on line %d)" % (key, seen[key]),
                             line=lineno)
        seen[key] = lineno
        field_name, parser = KEYMAP[key]
        try:
            values[field_name] = parser(value)
        except ValueError as exc:
            raise ParseError("bad value for %s: %s" % (key, exc), line=lineno)
    cfg = RunConfig(**values)
    _validate(cfg)
    return cfg


def load_config(path):
    return parse_config(read_ascii(path))


def _validate(cfg):
    if cfg.n_points < 3:
        raise DomainError("numerics.n_points must be at least 3")
    if cfg.p_min <= 0 or cfg.p_max < cfg.p_min:
        raise DomainError("sweep pair-probability bounds are not ordered")
    if cfg.sweep_points < 2:
        raise DomainError("sweep.points must be at least 2")
    if cfg.delta_min_nm <= 0 or cfg.delta_max_nm < cfg.delta_min_nm:
        raise DomainError("sweep detuning bounds are not ordered")
    if cfg.delta_points < 2:
        raise DomainError("sweep.delta_points must be at least 2")
    if not (0.0 < cfg.q_basis <= 1.0):
        raise DomainError("qkd.q_basis must lie in (0, 1]")
    if cfg.f_ec < 1.0:
        raise DomainError("qkd.f_ec must be at least 1")
    if (cfg.t_min_sigma is None) != (cfg.t_max_sigma is None):
        raise DomainError("set both filter.t_min_sigma and filter.t_max_sigma or neither")


def _format_value(value):
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def resolved_items(cfg):
    """Resolved (key, value) pairs in a fixed order, for output headers."""
    by_field = {field: key for key, (field, _) in KEYMAP.items()}
    return [(by_field[f.name], _format_value(getattr(cfg, f.name)))
            for f in fields(cfg)]


def to_params(cfg):
    """Experiment parameters at the configured operating point."""
    base = ExperimentParams.from_nm(
        gamma=cfg.gamma, length_km=cfg.length_km,
        temperature_k=cfg.temperature_k,
        pump_wavelength_nm=cfg.pump_wavelength_nm,
        sigma_nm=cfg.sigma_nm, band_center_nm=cfg.band_center_nm,
        band_width_nm=cfg.band_width_nm, peak_power_w=1e-9)
    return params_for_pair_probability(base, cfg.p_pair)


def to_raman(cfg, params):
    if cfg.raman_source == "builtin":
        return default_raman_model(params)
    return load_raman_table(cfg.raman_source)


def to_search_space(cfg):
    return SearchSpace(orders=cfg.orders, width_lo=cfg.width_min_sigma,
                       width_hi=cfg.width_max_sigma,
                       shutter_t=cfg.shutter_t_sigma,
                       t_lo=cfg.t_min_sigma, t_hi=cfg.t_max_sigma,
                       objective=cfg.objective)
