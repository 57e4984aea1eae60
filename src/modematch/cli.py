"""Command-line front end: sweeps and reports as reproducible CSV files.

Every command reads one flat config file (all keys optional), writes to
an output directory, and is deterministic: identical inputs produce
byte-identical outputs. Every file is written by ``write_output``, which
owns the format: ASCII, LF line endings, '# key = value' header lines
that start with the resolved configuration, then the body, with floats
as %.6e and integers as %d.

Exit codes: 0 success, 2 invalid configuration or usage, 3 numerical
failure: a filter kernel's pass probability left [0, 1], which for a
valid mask and shutter means too few nodes (raise numerics.n_points).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .config import (RunConfig, finite_float, load_config, resolved_items,
                     to_params, to_raman, to_search_space)
from .errors import (DomainError, InfeasibleError, NumericalError, ParseError,
                     PhysicalityError)
from .filters import (filter_profile, ideal_matched_filter, optimize_filter,
                      practical_filter)
from .numerics import make_band_grid, mode_overlap
from .sfwm import calibrate_raman, params_for_pair_probability, sfwm_modes
from .units import detuning_to_angular
from .visibility import (RateModel, evaluate_operating_point, key_fraction,
                         qber_from_visibility, saturated_visibility_filtered,
                         saturated_visibility_open, unfiltered_budget,
                         zero_power_filter)

PUMP_FWHM_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


def _cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return "%d" % value
    return "%.6e" % value


def write_output(out_dir, name, header, rows, sep=","):
    """Write the file ``name`` in out_dir; every command writes through here.

    header is (key, value) pairs, written as '# key = value' lines; each
    row is written as its cells joined by sep. A str value is written as
    it is, an int as %d and any other number as %.6e. ASCII, LF endings.
    """
    with open(os.path.join(out_dir, name), "w", encoding="ascii",
              newline="") as fh:
        for key, value in header:
            fh.write("# %s = %s\n" % (key, _cell(value)))
        for row in rows:
            fh.write(sep.join(_cell(v) for v in row) + "\n")


def _fwhm(nodes, values):
    """Full width at half maximum by linear interpolation on the grid."""
    v = np.asarray(values, dtype=float)
    half = v.max() / 2.0
    above = v >= half
    idx = np.nonzero(above)[0]
    if idx.size == 0:
        return 0.0
    lo_i, hi_i = idx[0], idx[-1]

    def cross(i, j):
        # linear crossing between samples i and j
        return nodes[i] + (half - v[i]) * (nodes[j] - nodes[i]) / (v[j] - v[i])

    left = cross(lo_i - 1, lo_i) if lo_i > 0 else nodes[0]
    right = cross(hi_i + 1, hi_i) if hi_i < v.size - 1 else nodes[-1]
    return float(right - left)


def _snapped(mode):
    # samples below 1e-12 of the peak, like an odd mode at omega = 0, are
    # eigensolver roundoff whose digits follow the BLAS thread count
    return np.where(np.abs(mode) < 1e-12 * np.abs(mode).max(), 0.0, mode)


def resolve(cfg):
    """(params, raman, model, filt, label, search), each built once.

    model is the RateModel on the n-node band grid of the filter and of
    every pair decomposition. filt is None for the open filter, whose
    rates have closed forms; ``ideal_matched_filter``, which maps each
    pair decomposition to the FilterModes applied on both arms; or one
    practical or optimized FilterModes. label is the filter_resolved
    value; search is the FilterSearchResult, or None.
    """
    params = to_params(cfg)
    raman = to_raman(cfg, params)
    model = RateModel(make_band_grid(params.b_sigma, cfg.n_points))
    kind = label = cfg.filter_kind
    filt = search = None
    if kind == "ideal-matched":
        filt = ideal_matched_filter
    elif kind == "practical":
        order, width, shutter = cfg.filter_order, cfg.filter_width_sigma, cfg.shutter_t_sigma
        filt = practical_filter(model.grid, order, width, shutter)
        label = ("practical order=%d width=%s shutter_t=%s"
                 % (order, repr(width), repr(shutter)))
    elif kind == "optimize":
        search = optimize_filter(params, raman, to_search_space(cfg),
                                 n_points=cfg.n_points, model=model)
        filt = search.filter
        label = ("optimized order=%d width=%.6e shutter_t=%.6e objective=%s"
                 % (search.order, search.width, search.shutter_t, cfg.objective))
    return params, raman, model, filt, label, search


def cmd_modes(cfg, out_dir, args):
    params, raman, model, filt, label, search = resolve(cfg)
    decomp = (search.decomposition if search is not None
              else sfwm_modes(params, raman, n_points=cfg.n_points, model=model))
    psi0 = decomp.modes[:, 0]
    psi1 = decomp.modes[:, 1]
    header = list(resolved_items(cfg))
    sig = decomp.significant()[:8]
    header.append(("zeta", ",".join("%.8e" % decomp.eigenvalues[j] for j in sig)))
    header.append(("pump_fwhm_sigma", "%.8e" % PUMP_FWHM_SIGMA))
    header.append(("psi0_fwhm_sigma", "%.8e" % _fwhm(decomp.grid.nodes, psi0)))
    header.append(("filter_resolved", label))
    columns = ["omega_sigma", "psi0", "psi1"]
    data = [decomp.grid.nodes, _snapped(psi0), _snapped(psi1)]
    if filt is not None:
        fm = filt(decomp) if callable(filt) else filt
        header.append(("chi0", "%.8e" % fm.chi0))
        header.append(("residual_sum", "%.8e" % fm.residual_sum))
        header.append(("overlap_phi0_psi0",
                       "%.8e" % abs(mode_overlap(fm.modes[:, 0], psi0, decomp.grid))))
        columns.append("phi0")
        data.append(_snapped(fm.modes[:, 0]))
    write_output(out_dir, "modes.csv", header, [columns, *zip(*data)])


def _ppair_grid(cfg):
    space = np.geomspace if cfg.sweep_log else np.linspace
    grid = space(cfg.p_min, cfg.p_max, cfg.sweep_points)
    # the configured operating point is always present as a row
    return np.unique(np.append(grid, cfg.p_pair))


def cmd_sweep_ppair(cfg, out_dir, args):
    params, raman, model, filt, label, _ = resolve(cfg)
    rows = [("p_pair", "v_open", "qber_open", "key_open",
             "v_filtered", "qber_filtered", "key_filtered")]
    for p in _ppair_grid(cfg):
        params_p = params_for_pair_probability(params, float(p))
        budget = unfiltered_budget(params_p, raman)
        v_open = budget.visibility
        e_open = qber_from_visibility(v_open)
        k_open = key_fraction(e_open, budget.gain, f_ec=cfg.f_ec,
                              q_basis=cfg.q_basis)
        if filt is None:
            v_f, e_f, k_f = v_open, e_open, k_open
        else:
            fm = (filt(sfwm_modes(params_p, raman, n_points=cfg.n_points,
                                  model=model))
                  if callable(filt) else filt)
            report = evaluate_operating_point(
                params_p, raman, fm, fm, f_ec=cfg.f_ec, q_basis=cfg.q_basis,
                model=model)
            v_f, e_f, k_f = report.visibility, report.qber, report.key_fraction
        rows.append((float(p), v_open, e_open, k_open, v_f, e_f, k_f))
    write_output(out_dir, "sweep_ppair.csv",
                 resolved_items(cfg) + [("filter_resolved", label)], rows)


def cmd_sweep_detuning(cfg, out_dir, args):
    params, raman, model, filt, label, _ = resolve(cfg)
    # the zero-power filter depends on the band grid, not the detuning
    filt = zero_power_filter(filt, model)
    deltas = np.linspace(cfg.delta_min_nm, cfg.delta_max_nm, cfg.delta_points)
    rows = [("delta_nm", "gain_ratio", "clamped", "v_sat_open", "v_sat_filtered")]
    for delta_nm in deltas:
        det = detuning_to_angular(float(delta_nm), cfg.pump_wavelength_nm)
        params_d = params.with_band_center(det)
        clamped = 1 if raman.clamped(det) else 0
        ratio = raman.ratio_at(det)
        v_open = saturated_visibility_open(params_d, raman)
        if filt is None:
            v_f = v_open
        else:
            v_f = saturated_visibility_filtered(params_d, raman, filt, model=model)
        rows.append((float(delta_nm), ratio, clamped, v_open, v_f))
    write_output(out_dir, "sweep_detuning.csv",
                 resolved_items(cfg) + [("filter_resolved", label)], rows)


def cmd_optimize(cfg, out_dir, args):
    # the header keeps the configured filter.kind
    params, raman, model, fm, _, result = resolve(replace(cfg, filter_kind="optimize"))
    report = evaluate_operating_point(params, raman, fm, fm, f_ec=cfg.f_ec,
                                      q_basis=cfg.q_basis, model=model)
    shutter_ps = result.shutter_t / params.sigma * 1e12
    write_output(out_dir, "filter_report.txt", resolved_items(cfg), [
        ("objective", cfg.objective),
        ("objective_value", result.objective_value),
        ("order", result.order),
        ("width_sigma", result.width),
        ("shutter_t_sigma", result.shutter_t),
        ("shutter_fwhm_ps", shutter_ps),
        ("chi0", result.chi0),
        ("residual_sum", result.residual_sum),
        ("collection_fraction", result.collection_fraction),
        ("overlap_phi0_psi0", result.overlap),
        ("achieved_v", report.visibility),
        ("achieved_qber", report.qber),
        ("achieved_key_fraction", report.key_fraction),
        ("p_pair", cfg.p_pair),
        ("converged", "true" if result.converged else "false"),
        ("evaluations", result.evaluations),
    ], sep=" = ")
    header = resolved_items(cfg) + [("shutter_fwhm_ps", shutter_ps),
                                    ("profile_order", result.order),
                                    ("profile_width_sigma", result.width)]
    write_output(out_dir, "filter_profile.csv", header,
                 [("wavelength_nm", "attenuation_db"),
                  *zip(*filter_profile(params, result.order, result.width))])


def cmd_calibrate(cfg, out_dir, args):
    params = to_params(cfg)
    det = detuning_to_angular(args.delta_nm, cfg.pump_wavelength_nm)
    ratio = calibrate_raman(args.target_v, det, params)
    header = resolved_items(cfg) + [("target_v_sat", repr(args.target_v)),
                                    ("calibration_delta_nm", repr(args.delta_nm))]
    # the row load_raman_table reads back: detuning in THz, gain ratio
    write_output(out_dir, "raman_calibrated.csv", header,
                 [("detuning_thz", "gain_ratio"),
                  (det / (2.0 * math.pi * 1e12), ratio)])
    sys.stdout.write("gain_ratio = %.10e\n" % ratio)


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key = value config file")
    common.add_argument("--out", help="output directory (default from config)")
    parser = argparse.ArgumentParser(
        prog="modematch",
        description="Photon-pair source simulator with mode-matched filtering")
    sub = parser.add_subparsers(dest="command", required=True)
    p_modes = sub.add_parser("modes", parents=[common],
                             help="write pair and filter modes")
    p_modes.set_defaults(func=cmd_modes)
    p_pp = sub.add_parser("sweep-ppair", parents=[common],
                          help="visibility versus pair probability")
    p_pp.set_defaults(func=cmd_sweep_ppair)
    p_det = sub.add_parser("sweep-detuning", parents=[common],
                           help="zero-power visibility versus detuning")
    p_det.set_defaults(func=cmd_sweep_detuning)
    p_opt = sub.add_parser("optimize", parents=[common],
                           help="search the practical filter family")
    p_opt.set_defaults(func=cmd_optimize)
    p_cal = sub.add_parser("calibrate", parents=[common],
                           help="fit the gain ratio to a target visibility")
    p_cal.add_argument("--target-v", type=finite_float, required=True,
                       help="zero-power visibility to reproduce")
    p_cal.add_argument("--delta-nm", type=finite_float, required=True,
                       help="detuning of the measurement, nm")
    p_cal.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        out_dir = args.out if args.out else cfg.output_dir
        os.makedirs(out_dir, exist_ok=True)
        args.func(cfg, out_dir, args)
    except NumericalError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except PhysicalityError as exc:
        print("error: %s; a larger numerics.n_points may resolve it" % exc,
              file=sys.stderr)
        return 3
    except (ParseError, DomainError, InfeasibleError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
