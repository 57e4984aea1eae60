"""Command-line front end: sweeps and reports as reproducible CSV files.

Every command reads one flat config file (all keys optional), writes to
an output directory, and is deterministic: identical inputs produce
byte-identical outputs. Floats are written as %.6e with LF line endings
and each file carries its resolved configuration in '#' header lines.

Exit codes: 0 success, 2 invalid configuration or usage, 3 numerical
failure (a convergence check did not pass).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .config import (RunConfig, load_config, resolved_items, to_params,
                     to_raman, to_search_space)
from .errors import (DomainError, InfeasibleError, NumericalError, ParseError,
                     PhysicalityError)
from .filters import (export_filter_profile, ideal_matched_filter,
                      optimize_filter, practical_filter)
from .numerics import make_band_grid, mode_overlap
from .sfwm import (RamanModel, calibrate_raman, params_for_pair_probability,
                   save_raman_table, sfwm_modes)
from .units import detuning_to_angular
from .visibility import (evaluate_operating_point, key_fraction,
                         qber_from_visibility, saturated_visibility_filtered,
                         saturated_visibility_open, visibility_open)

PUMP_FWHM_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))


def _write_header(fh, items):
    for key, value in items:
        fh.write("# %s = %s\n" % (key, value))


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


def _filter_for(cfg, params, raman):
    """The configured filter as (make_filter, filter_resolved label).

    make_filter maps a pair decomposition to the FilterModes applied on
    both arms, and is None for the open filter, whose rates have closed
    forms. Practical and optimized filters are built once, on the band
    grid that every decomposition of this config uses.
    """
    kind = cfg.filter_kind
    if kind == "open":
        return None, "open"
    if kind == "ideal-matched":
        return ideal_matched_filter, "ideal-matched"
    if kind == "practical":
        order, width, shutter = cfg.filter_order, cfg.filter_width_sigma, cfg.shutter_t_sigma
        grid = make_band_grid(params.b_sigma, cfg.n_points)
        fm = practical_filter(grid, order, width, shutter)
        label = ("practical order=%d width=%s shutter_t=%s"
                 % (order, repr(width), repr(shutter)))
    else:
        result = optimize_filter(params, raman, to_search_space(cfg),
                                 n_points=cfg.n_points)
        fm = result.filter
        label = ("optimized order=%d width=%.6e shutter_t=%.6e objective=%s"
                 % (result.order, result.width, result.shutter_t, cfg.objective))
    return (lambda decomp: fm), label


def cmd_modes(cfg, out_dir, args):
    params = to_params(cfg)
    raman = to_raman(cfg, params)
    make_filter, label = _filter_for(cfg, params, raman)
    decomp = sfwm_modes(params, raman, n_points=cfg.n_points)
    psi0 = decomp.modes[:, 0]
    psi1 = decomp.modes[:, 1]
    header = list(resolved_items(cfg))
    sig = decomp.significant()[:8]
    header.append(("zeta", ",".join("%.8e" % decomp.eigenvalues[j] for j in sig)))
    header.append(("pump_fwhm_sigma", "%.8e" % PUMP_FWHM_SIGMA))
    header.append(("psi0_fwhm_sigma", "%.8e" % _fwhm(decomp.grid.nodes, psi0)))
    header.append(("filter_resolved", label))
    columns = ["omega_sigma", "psi0", "psi1"]
    data = [decomp.grid.nodes, psi0, psi1]
    if make_filter is not None:
        fm = make_filter(decomp)
        header.append(("chi0", "%.8e" % fm.chi0))
        header.append(("residual_sum", "%.8e" % fm.residual_sum))
        header.append(("overlap_phi0_psi0",
                       "%.8e" % abs(mode_overlap(fm.modes[:, 0], psi0, decomp.grid))))
        columns.append("phi0")
        data.append(fm.modes[:, 0])
    path = os.path.join(out_dir, "modes.csv")
    with open(path, "w", encoding="ascii", newline="") as fh:
        _write_header(fh, header)
        fh.write(",".join(columns) + "\n")
        for row in zip(*data):
            fh.write(",".join("%.6e" % v for v in row) + "\n")


def _ppair_grid(cfg):
    if cfg.sweep_log:
        grid = np.geomspace(cfg.p_min, cfg.p_max, cfg.sweep_points)
    else:
        grid = np.linspace(cfg.p_min, cfg.p_max, cfg.sweep_points)
    # the configured operating point is always present as a row
    return np.unique(np.append(grid, cfg.p_pair))


def cmd_sweep_ppair(cfg, out_dir, args):
    if cfg.sweep_kind not in ("none", "p-pair"):
        raise DomainError("config selects sweep.kind = %s, not p-pair" % cfg.sweep_kind)
    params = to_params(cfg)
    raman = to_raman(cfg, params)
    make_filter, label = _filter_for(cfg, params, raman)
    rows = []
    for p in _ppair_grid(cfg):
        params_p = params_for_pair_probability(params, float(p))
        v_open = visibility_open(params_p, raman)
        e_open = qber_from_visibility(v_open)
        k_open = key_fraction(e_open, float(p), f_ec=cfg.f_ec,
                              apply_q_basis=cfg.apply_q_basis, q_basis=cfg.q_basis)
        if make_filter is None:
            v_f, e_f, k_f = v_open, e_open, k_open
        else:
            fm = make_filter(sfwm_modes(params_p, raman, n_points=cfg.n_points))
            report = evaluate_operating_point(
                params_p, raman, fm, fm, f_ec=cfg.f_ec,
                apply_q_basis=cfg.apply_q_basis, q_basis=cfg.q_basis)
            v_f, e_f, k_f = report.visibility, report.qber, report.key_fraction
        rows.append((float(p), v_open, e_open, k_open, v_f, e_f, k_f))
    path = os.path.join(out_dir, "sweep_ppair.csv")
    with open(path, "w", encoding="ascii", newline="") as fh:
        _write_header(fh, list(resolved_items(cfg)) + [("filter_resolved", label)])
        fh.write("p_pair,v_open,qber_open,key_open,"
                 "v_filtered,qber_filtered,key_filtered\n")
        for row in rows:
            fh.write(",".join("%.6e" % v for v in row) + "\n")


def cmd_sweep_detuning(cfg, out_dir, args):
    if cfg.sweep_kind not in ("none", "detuning"):
        raise DomainError("config selects sweep.kind = %s, not detuning" % cfg.sweep_kind)
    params = to_params(cfg)
    raman = to_raman(cfg, params)
    make_filter, label = _filter_for(cfg, params, raman)
    deltas = np.linspace(cfg.delta_min_nm, cfg.delta_max_nm, cfg.delta_points)
    rows = []
    for delta_nm in deltas:
        det = detuning_to_angular(float(delta_nm), cfg.pump_wavelength_nm)
        params_d = params.with_band_center(det)
        clamped = 1 if raman.clamped(det) else 0
        ratio = raman.ratio_at(det)
        v_open = saturated_visibility_open(params_d, raman)
        if make_filter is None:
            v_f = v_open
        else:
            v_f = saturated_visibility_filtered(params_d, raman, make_filter,
                                                n_points=cfg.n_points)
        rows.append((float(delta_nm), ratio, clamped, v_open, v_f))
    path = os.path.join(out_dir, "sweep_detuning.csv")
    with open(path, "w", encoding="ascii", newline="") as fh:
        _write_header(fh, list(resolved_items(cfg)) + [("filter_resolved", label)])
        fh.write("delta_nm,gain_ratio,clamped,v_sat_open,v_sat_filtered\n")
        for delta_nm, ratio, clamped, v_open, v_f in rows:
            fh.write("%.6e,%.6e,%d,%.6e,%.6e\n"
                     % (delta_nm, ratio, clamped, v_open, v_f))


def cmd_optimize(cfg, out_dir, args):
    params = to_params(cfg)
    raman = to_raman(cfg, params)
    result = optimize_filter(params, raman, to_search_space(cfg),
                             n_points=cfg.n_points)
    qber = qber_from_visibility(result.achieved_v)
    key = key_fraction(qber, cfg.p_pair, f_ec=cfg.f_ec,
                       apply_q_basis=cfg.apply_q_basis, q_basis=cfg.q_basis)
    report_path = os.path.join(out_dir, "filter_report.txt")
    with open(report_path, "w", encoding="ascii", newline="") as fh:
        _write_header(fh, resolved_items(cfg))
        fh.write("objective = %s\n" % result.objective)
        fh.write("objective_value = %.6e\n" % result.objective_value)
        fh.write("order = %d\n" % result.order)
        fh.write("width_sigma = %.6e\n" % result.width)
        fh.write("shutter_t_sigma = %.6e\n" % result.shutter_t)
        fh.write("shutter_fwhm_ps = %.6e\n" % (result.shutter_t / params.sigma * 1e12))
        fh.write("chi0 = %.6e\n" % result.chi0)
        fh.write("residual_sum = %.6e\n" % result.residual_sum)
        fh.write("collection_fraction = %.6e\n" % result.collection_fraction)
        fh.write("overlap_phi0_psi0 = %.6e\n" % result.overlap)
        fh.write("achieved_v = %.6e\n" % result.achieved_v)
        fh.write("achieved_qber = %.6e\n" % qber)
        fh.write("achieved_key_fraction = %.6e\n" % key)
        fh.write("p_pair = %.6e\n" % cfg.p_pair)
        fh.write("converged = %s\n" % ("true" if result.converged else "false"))
        fh.write("evaluations = %d\n" % result.evaluations)
    profile_path = os.path.join(out_dir, "filter_profile.csv")
    export_filter_profile(profile_path, params, result.order, result.width,
                          result.shutter_t, header_items=resolved_items(cfg))


def cmd_calibrate(cfg, out_dir, args):
    params = to_params(cfg)
    det = detuning_to_angular(args.delta_nm, cfg.pump_wavelength_nm)
    ratio = calibrate_raman(args.target_v, det, params)
    model = RamanModel(detunings=np.array([det]), ratios=np.array([ratio]))
    header = list(resolved_items(cfg))
    header.append(("target_v_sat", repr(args.target_v)))
    header.append(("calibration_delta_nm", repr(args.delta_nm)))
    save_raman_table(model, os.path.join(out_dir, "raman_calibrated.csv"),
                     header_items=header)
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
    p_cal.add_argument("--target-v", type=float, required=True,
                       help="zero-power visibility to reproduce")
    p_cal.add_argument("--delta-nm", type=float, required=True,
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
    except (ParseError, DomainError, PhysicalityError, InfeasibleError,
            OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
