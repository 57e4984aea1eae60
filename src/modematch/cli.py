"""Command-line front end: sweeps and reports as reproducible CSV files.

Every command reads one flat config file (all keys optional), writes to
an output directory, and is deterministic: identical inputs produce
byte-identical outputs. Every file is written by ``write_output``, which
owns the format: ASCII, LF line endings, '# key = value' header lines
that start with the resolved configuration, then the body, with floats
as %.6e and integers as %d.

Exit codes: 0 success, 2 invalid configuration or usage, 3 numerical
failure: a filter kernel's pass probability left [0, 1], which for a
valid mask and shutter means too few nodes (raise numerics.n_points), or
numerics.n_points = auto found no converged grid by N_CAP nodes. Under
auto a pass probability outside [0, 1] at a trial grid only doubles it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .config import (RunConfig, finite_float, load_config, resolved_items,
                     to_params, to_raman, to_search_space)
from .errors import (DomainError, InfeasibleError, NumericalError, ParseError,
                     PhysicalityError)
from .filters import (filter_profile, ideal_matched_filter,
                      kappa_gaussian_shutter, optimize_filter, practical_filter,
                      super_gaussian)
from .numerics import interpolate_modes, make_band_grid, mode_overlap
from .sfwm import (calibrate_raman, gain_ratio, params_for_pair_probability,
                   sfwm_modes, xi)
from .units import detuning_to_angular
from .visibility import (RateModel, evaluate_operating_point, key_fraction,
                         qber_from_visibility, saturated_visibility_filtered,
                         saturated_visibility_open, unfiltered_budget,
                         zero_power_filter)

# numerics.n_points = auto: the first trial grid size, the largest one
# (whose check builds 2 N_CAP nodes), and the largest relative change of
# the diagnostics between n and 2n nodes that counts as converged.
N_START = 41
N_CAP = 328
N_TOL = 1e-10
# diagnostics are O(1) or smaller; below this magnitude a change is
# taken relative to N_FLOOR instead of to the value itself
N_FLOOR = 1e-3
# n_points_delta headers print changes below this as "<1e-12"; smaller
# ones are eigensolver roundoff whose digits follow the BLAS thread count
DELTA_FLOOR = 1e-12
# modes.csv rows under numerics.n_points = auto, on a Gauss grid of this size
MODES_ROWS = 201

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


@dataclass(frozen=True, eq=False)
class Setup:
    """What a command needs from its config, built once by ``resolve``.

    model is the RateModel on the band grid of the filter and of every
    pair decomposition. filter is None for the open filter, whose rates
    have closed forms; ``ideal_matched_filter``, which maps each pair
    decomposition to the FilterModes applied on both arms; or one
    practical or optimized FilterModes. shape is that filter's (order,
    width, shutter_t), or None. label is the filter_resolved value;
    search is the FilterSearchResult, or None. decomposition is the pair
    decomposition at the operating point when one was made. delta is the
    largest relative change of the diagnostics from n to 2n nodes under
    numerics.n_points = auto, and None for a pinned grid size.
    """

    params: object
    raman: object
    model: RateModel
    filter: object
    shape: tuple
    label: str
    search: object
    decomposition: object = None
    delta: float = None

    @property
    def n(self):
        return self.model.grid.n

    def header(self, cfg):
        """The resolved config, then under auto the grid size used and its
        change from n to 2n."""
        items = resolved_items(cfg)
        if self.delta is not None:
            delta = ("<%.0e" % DELTA_FLOOR if self.delta < DELTA_FLOOR
                     else "%.1e" % self.delta)
            items += [("n_points_used", self.n), ("n_points_delta", delta)]
        return items


def _setup(cfg, params, raman, n):
    """The Setup of cfg on an n-node band grid; optimize searches there."""
    model = RateModel(make_band_grid(params.b_sigma, n))
    kind = label = cfg.filter_kind
    filt = shape = search = None
    if kind == "ideal-matched":
        filt = ideal_matched_filter
    elif kind == "practical":
        shape = (cfg.filter_order, cfg.filter_width_sigma, cfg.shutter_t_sigma)
        filt = practical_filter(model.grid, *shape)
        label = "practical order=%d width=%s shutter_t=%s" % (
            shape[0], repr(shape[1]), repr(shape[2]))
    elif kind == "optimize":
        search = optimize_filter(params, raman, to_search_space(cfg),
                                 n_points=n, model=model)
        filt = search.filter
        shape = (search.order, search.width, search.shutter_t)
        label = ("optimized order=%d width=%.6e shutter_t=%.6e objective=%s"
                 % (*shape, cfg.objective))
    return Setup(params, raman, model, filt, shape, label, search,
                 None if search is None else search.decomposition)


def diagnostics(cfg, setup, sig):
    """The values the grid size must converge, as one vector.

    setup holds the pair decomposition on its grid, and sig the indices
    of the printed zeta. Entries: each printed zeta over zeta0; with a
    filter, its chi0, residual sum and phi0-psi0 overlap, V, QBER and
    the key over its bound q_basis Q at the operating point, and the
    exact zero-power V.
    """
    decomp, filt = setup.decomposition, setup.filter
    values = list(decomp.eigenvalues[sig] / decomp.eigenvalues[0])
    if filt is not None:
        params, raman, model = setup.params, setup.raman, setup.model
        fm = filt(decomp) if callable(filt) else filt
        report = evaluate_operating_point(params, raman, fm, fm, f_ec=cfg.f_ec,
                                          q_basis=cfg.q_basis, model=model)
        values += [fm.chi0, fm.residual_sum,
                   abs(mode_overlap(fm.modes[:, 0], decomp.modes[:, 0], decomp.grid)),
                   report.visibility, report.qber,
                   report.key_fraction / (cfg.q_basis * report.gain),
                   saturated_visibility_filtered(params, raman, filt,
                                                 n_points=setup.n, model=model)]
    return np.array(values)


def _with_pair(setup):
    """setup, with the pair decomposition on its grid."""
    if setup.decomposition is not None:
        return setup
    return replace(setup, decomposition=sfwm_modes(
        setup.params, setup.raman, n_points=setup.n, model=setup.model))


def _doubled(setup):
    """The setup's filter, and its pair decomposition, on a grid of twice
    the nodes."""
    model = RateModel(make_band_grid(setup.params.b_sigma, 2 * setup.n))
    filt = setup.filter
    if setup.shape is not None:
        filt = practical_filter(model.grid, *setup.shape)
    return _with_pair(replace(setup, model=model, filter=filt, decomposition=None))


def resolve(cfg):
    """The command's Setup, built once.

    An integer numerics.n_points pins the grid size. Under auto it is the
    first of N_START, 2 N_START, ... up to N_CAP whose ``diagnostics``
    move by at most N_TOL when the grid is doubled. A pass probability
    outside [0, 1] at either size counts as not converged; no converged
    size raises NumericalError.
    """
    params = to_params(cfg)
    raman = to_raman(cfg, params)
    if cfg.n_points != "auto":
        return _setup(cfg, params, raman, cfg.n_points)
    n = N_START
    while n <= N_CAP:
        try:
            setup = _with_pair(_setup(cfg, params, raman, n))
            sig = setup.decomposition.significant()[:8]
            a = diagnostics(cfg, setup, sig)
            b = diagnostics(cfg, _doubled(setup), sig)
            delta = float(np.max(np.abs(a - b) / np.maximum(
                np.maximum(np.abs(a), np.abs(b)), N_FLOOR)))
        except PhysicalityError:
            delta = math.inf
        if delta <= N_TOL:
            return replace(setup, delta=delta)
        n *= 2
    raise NumericalError("numerics.n_points = auto: no grid of up to %d nodes "
                         "(the cap) converged to %g; pin numerics.n_points"
                         % (N_CAP, N_TOL))


def _written_modes(s, fm):
    """modes.csv's nodes, psi0 and psi1 (as columns) and phi0 (or None).

    A pinned grid writes its own nodes. Under auto the modes are carried
    from the converged grid to the MODES_ROWS-node Gauss grid by Nystrom
    interpolation through the pair kernel xi and the filter kernel.
    """
    decomp = s.decomposition
    grid = decomp.grid
    psi = decomp.modes[:, :2]
    phi0 = None if fm is None else fm.modes[:, 0]
    if s.delta is None:
        return grid.nodes, psi, phi0
    out = make_band_grid(s.params.b_sigma, MODES_ROWS)
    rows = xi(out.nodes[:, None] + grid.nodes[None, :], s.params.q,
              gain_ratio(s.raman, s.params))
    psi = interpolate_modes(rows, decomp.eigenvalues[:2], psi, grid, out.nodes)
    if s.shape is not None:
        order, width, shutter = s.shape
        rows = kappa_gaussian_shutter(super_gaussian(grid, width, order), shutter,
                                      rows=super_gaussian(out, width, order))
        phi0 = interpolate_modes(rows, fm.chis[:1], fm.modes[:, :1], grid,
                                 out.nodes)[:, 0]
    elif fm is not None:
        phi0 = psi[:, 0]  # the ideal-matched filter passes psi0 itself
    return out.nodes, psi, phi0


def cmd_modes(cfg, out_dir, args):
    s = _with_pair(resolve(cfg))
    decomp, filt = s.decomposition, s.filter
    fm = filt(decomp) if callable(filt) else filt
    nodes, psi, phi0 = _written_modes(s, fm)
    header = s.header(cfg)
    sig = decomp.significant()[:8]
    header.append(("zeta", ",".join("%.8e" % decomp.eigenvalues[j] for j in sig)))
    header.append(("pump_fwhm_sigma", "%.8e" % PUMP_FWHM_SIGMA))
    header.append(("psi0_fwhm_sigma", "%.8e" % _fwhm(nodes, psi[:, 0])))
    header.append(("filter_resolved", s.label))
    columns = ["omega_sigma", "psi0", "psi1"]
    data = [nodes, _snapped(psi[:, 0]), _snapped(psi[:, 1])]
    if fm is not None:
        header.append(("chi0", "%.8e" % fm.chi0))
        header.append(("residual_sum", "%.8e" % fm.residual_sum))
        header.append(("overlap_phi0_psi0", "%.8e" % abs(
            mode_overlap(fm.modes[:, 0], decomp.modes[:, 0], decomp.grid))))
        columns.append("phi0")
        data.append(_snapped(phi0))
    write_output(out_dir, "modes.csv", header, [columns, *zip(*data)])


def _ppair_grid(cfg):
    space = np.geomspace if cfg.sweep_log else np.linspace
    grid = space(cfg.p_min, cfg.p_max, cfg.sweep_points)
    # the configured operating point is always present as a row
    return np.unique(np.append(grid, cfg.p_pair))


def cmd_sweep_ppair(cfg, out_dir, args):
    s = resolve(cfg)
    params, raman, model, filt = s.params, s.raman, s.model, s.filter
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
            fm = (filt(sfwm_modes(params_p, raman, n_points=s.n, model=model))
                  if callable(filt) else filt)
            report = evaluate_operating_point(
                params_p, raman, fm, fm, f_ec=cfg.f_ec, q_basis=cfg.q_basis,
                model=model)
            v_f, e_f, k_f = report.visibility, report.qber, report.key_fraction
        rows.append((float(p), v_open, e_open, k_open, v_f, e_f, k_f))
    write_output(out_dir, "sweep_ppair.csv",
                 s.header(cfg) + [("filter_resolved", s.label)], rows)


def cmd_sweep_detuning(cfg, out_dir, args):
    s = resolve(cfg)
    params, raman, model = s.params, s.raman, s.model
    # the zero-power filter depends on the band grid, not the detuning
    filt = zero_power_filter(s.filter, model)
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
            v_f = saturated_visibility_filtered(params_d, raman, filt,
                                                n_points=s.n, model=model)
        rows.append((float(delta_nm), ratio, clamped, v_open, v_f))
    write_output(out_dir, "sweep_detuning.csv",
                 s.header(cfg) + [("filter_resolved", s.label)], rows)


def cmd_optimize(cfg, out_dir, args):
    # the header keeps the configured filter.kind
    s = resolve(replace(cfg, filter_kind="optimize"))
    params, fm, result = s.params, s.filter, s.search
    report = evaluate_operating_point(params, s.raman, fm, fm, f_ec=cfg.f_ec,
                                      q_basis=cfg.q_basis, model=s.model)
    shutter_ps = result.shutter_t / params.sigma * 1e12
    write_output(out_dir, "filter_report.txt", s.header(cfg), [
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
    header = s.header(cfg) + [("shutter_fwhm_ps", shutter_ps),
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
