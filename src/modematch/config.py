"""Run configuration: flat ``key = value`` files with defaults.

An empty file (or no file) reproduces the reference dispersion-shifted
fiber source: T = 300 K, pump at 1538.7 nm with 0.5 nm spectral width,
bands of width 5 nm centered 10 nm from the pump, and the gain
q = gamma L A0^2 set for a per-pulse pair probability of 0.01. Unknown
keys, duplicates and malformed values are reported with line numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DomainError, InfeasibleError, ParseError, read_ascii
from .filters import SearchSpace, check_profile
from .sfwm import (ExperimentParams, default_raman_model, load_raman_table,
                   params_for_pair_probability)
from .units import detuning_to_angular

MAX_N_POINTS = 2001  # the largest numerics.n_points; n x n kernels of 32 MB


def finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _int(text):
    if "." in text or "e" in text.lower():
        raise ValueError("not an integer")
    return int(text)


def _n_points(text):
    return text if text == "auto" else _int(text)


def _bool(text):
    low = text.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError("expected true or false")


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
    return None if text.lower() == "none" else finite_float(text)


@dataclass(frozen=True)
class RunConfig:
    temperature_k: float = 300.0
    pump_wavelength_nm: float = 1538.7
    sigma_nm: float = 0.5
    band_center_nm: float = 10.0
    band_width_nm: float = 5.0
    p_pair: float = 0.01
    n_points: object = "auto"  # or a pinned node count
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
    p_min: float = 1e-4
    p_max: float = 0.05
    sweep_points: int = 25
    sweep_log: bool = True
    delta_min_nm: float = 5.0
    delta_max_nm: float = 14.0
    delta_points: int = 10
    f_ec: float = 1.22
    q_basis: float = 1.0
    output_dir: str = "out"


# dotted config key -> (dataclass field, value parser)
KEYMAP = {
    "fiber.temperature_k": ("temperature_k", finite_float),
    "pump.wavelength_nm": ("pump_wavelength_nm", finite_float),
    "pump.sigma_nm": ("sigma_nm", finite_float),
    "band.center_nm": ("band_center_nm", finite_float),
    "band.width_nm": ("band_width_nm", finite_float),
    "run.p_pair": ("p_pair", finite_float),
    "numerics.n_points": ("n_points", _n_points),
    "raman.source": ("raman_source", str),
    "filter.kind": ("filter_kind",
                    _choice("open", "ideal-matched", "practical", "optimize")),
    "filter.order": ("filter_order", _int),
    "filter.width_sigma": ("filter_width_sigma", finite_float),
    "filter.shutter_t_sigma": ("shutter_t_sigma", finite_float),
    "filter.objective": ("objective", _choice("mode-match", "visibility")),
    "filter.orders": ("orders", _int_list),
    "filter.width_min_sigma": ("width_min_sigma", finite_float),
    "filter.width_max_sigma": ("width_max_sigma", finite_float),
    "filter.t_min_sigma": ("t_min_sigma", _opt_float),
    "filter.t_max_sigma": ("t_max_sigma", _opt_float),
    "sweep.p_min": ("p_min", finite_float),
    "sweep.p_max": ("p_max", finite_float),
    "sweep.points": ("sweep_points", _int),
    "sweep.log": ("sweep_log", _bool),
    "sweep.delta_min_nm": ("delta_min_nm", finite_float),
    "sweep.delta_max_nm": ("delta_max_nm", finite_float),
    "sweep.delta_points": ("delta_points", _int),
    "qkd.f_ec": ("f_ec", finite_float),
    "qkd.q_basis": ("q_basis", finite_float),
    "output.dir": ("output_dir", str),
}


def parse_config(text):
    """Parse configuration text into a RunConfig."""
    values = {}
    seen = {}
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
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
    if cfg.n_points != "auto" and not (3 <= cfg.n_points <= MAX_N_POINTS):
        raise DomainError("numerics.n_points must lie in 3..%d" % MAX_N_POINTS)
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
    # every filter key is checked whichever command or filter.kind runs
    check_profile(cfg.filter_width_sigma, cfg.filter_order)
    to_search_space(cfg)


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
    lam = cfg.pump_wavelength_nm
    base = ExperimentParams(
        temperature_k=cfg.temperature_k, pump_wavelength_nm=lam,
        sigma=detuning_to_angular(cfg.sigma_nm, lam),
        band_center=detuning_to_angular(cfg.band_center_nm, lam),
        band_width=detuning_to_angular(cfg.band_width_nm, lam))
    return params_for_pair_probability(base, cfg.p_pair)


def to_raman(cfg, params):
    if cfg.raman_source != "builtin":
        return load_raman_table(cfg.raman_source)
    try:
        return default_raman_model(params)
    except InfeasibleError as exc:
        raise InfeasibleError("the built-in gain table (raman.source = builtin) cannot "
                              "reach its anchor visibilities at fiber.temperature_k = %r;"
                              " set raman.source to a gain table file"
                              % cfg.temperature_k) from exc


def to_search_space(cfg):
    return SearchSpace(orders=cfg.orders, width_lo=cfg.width_min_sigma,
                       width_hi=cfg.width_max_sigma,
                       shutter_t=cfg.shutter_t_sigma,
                       t_lo=cfg.t_min_sigma, t_hi=cfg.t_max_sigma,
                       objective=cfg.objective)
