"""Checks on the files a job wrote, run outside the timed region.

Each command's outputs are parsed and tested against closed forms
written here independently of modematch (zero-power and open-filter
visibilities, the built-in gain table's anchors), against invariants
(chi0 in [0, 1], overlap <= 1, filtered V >= open V for the
ideal-matched filter, V non-increasing in p_pair) and, on the default
source, against the frozen oracle values of ``tests/test_acceptance.py``.

``check_job`` returns the job's diagnostic record (zeta0, matched V,
the winning order/width/chi0, ...) and a list of failures.
"""

from __future__ import annotations

import math
import os

# SI constants as modematch defines them (c, k_B exact; hbar CODATA 2018)
C_LIGHT = 2.99792458e8
HBAR = 1.054571817e-34
K_B = 1.380649e-23

DEFAULTS = {"band.width_nm": 5.0, "band.center_nm": 10.0, "run.p_pair": 0.01,
            "fiber.temperature_k": 300.0, "pump.wavelength_nm": 1538.7,
            "pump.sigma_nm": 0.5, "numerics.n_points": 201,
            "filter.objective": "mode-match", "filter.orders": "2,4,6,8,10",
            "filter.width_min_sigma": 0.5, "filter.width_max_sigma": 10.0}
ANCHORS = ((5.0, 0.96), (10.0, 0.82), (14.0, 0.71))
PROFILE_ROWS = 120

# CSV floats are written as %.6e; closed forms are compared at this
# relative tolerance.
REL_TOL = 2e-6


class ClosedForms:
    """The closed-form side of one config: band, gain and occupations."""

    def __init__(self, config_text):
        keys = dict(DEFAULTS)
        for line in config_text.splitlines():
            if "=" in line:
                key, _, value = line.partition("=")
                keys[key.strip()] = value.strip()
        self.keys = keys
        self.pump_nm = float(keys["pump.wavelength_nm"])
        self.temperature = float(keys["fiber.temperature_k"])
        self.center_nm = float(keys["band.center_nm"])
        self.p_pair = float(keys["run.p_pair"])
        self.b = float(keys["band.width_nm"]) / float(keys["pump.sigma_nm"])
        self.geom = (math.expm1(-self.b ** 2 / 2.0)
                     + math.sqrt(math.pi / 2.0) * self.b * math.erf(self.b / math.sqrt(2.0)))
        self.anchors = [(self.omega(d), self.ratio_for(v, self.omega(d)))
                        for d, v in ANCHORS]

    def omega(self, delta_nm):
        return 2.0 * math.pi * C_LIGHT * delta_nm * 1e-9 / (self.pump_nm * 1e-9) ** 2

    def occupations(self, omega):
        n_anti = 1.0 / math.expm1(HBAR * omega / (K_B * self.temperature))
        return n_anti, n_anti + 1.0

    def v_saturated_open(self, ratio, omega):
        n_a, n_s = self.occupations(omega)
        return 1.0 / (1.0 + ratio ** 2 * self.b ** 2 * n_a * n_s / self.geom)

    def ratio_for(self, v_sat, omega):
        """Inverse of v_saturated_open in closed form."""
        n_a, n_s = self.occupations(omega)
        return math.sqrt((1.0 / v_sat - 1.0) * self.geom / (self.b ** 2 * n_a * n_s))

    def builtin_ratio(self, omega):
        """The built-in gain table: linear between anchors, held outside."""
        pts = self.anchors
        if omega <= pts[0][0]:
            return pts[0][1]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if omega <= x1:
                return y0 + (y1 - y0) * (omega - x0) / (x1 - x0)
        return pts[-1][1]

    def v_open(self, p_pair, ratio):
        """Open-filter visibility at a pair probability, closed form."""
        omega = self.omega(self.center_nm)
        n_a, n_s = self.occupations(omega)
        q = math.sqrt(p_pair / (math.sqrt(2.0 * math.pi) * math.pi * self.b))
        s = math.sqrt(2.0 * math.pi) * math.pi * q ** 2 * self.b
        r_a = math.sqrt(math.pi) * q * ratio * self.b * n_a
        r_s = math.sqrt(math.pi) * q * ratio * self.b * n_s
        c = 2.0 * math.pi * q ** 2 * self.geom
        return c / (c + 2.0 * (s + r_s) * (s + r_a))


def close(got, want, rel=REL_TOL):
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def read_table(path):
    """('# key = value' header dict, column names, float rows) of a CSV."""
    header, columns, rows = {}, None, []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                header[key.strip()] = value.strip()
            elif columns is None:
                columns = line.split(",")
            elif line:
                rows.append([float(v) for v in line.split(",")])
    return header, columns, rows


def read_report(path):
    report = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if not line.startswith("#") and "=" in line:
                key, _, value = line.partition("=")
                report[key.strip()] = value.strip()
    return report


class Failures(list):
    def expect(self, ok, what, *args):
        if not ok:
            self.append(what % args)


def check_modes(src, out, stdout, ctx, fail):
    header, columns, rows = read_table(os.path.join(out, "modes.csv"))
    zeta = [float(v) for v in header["zeta"].split(",")]
    chi0 = float(header["chi0"])
    overlap = float(header["overlap_phi0_psi0"])
    fail.expect(len(rows) == int(src.keys["numerics.n_points"]),
                "modes.csv has %d rows", len(rows))
    fail.expect(zeta[0] > 0 and all(abs(z) <= zeta[0] for z in zeta),
                "zeta0 %r is not the leading weight", zeta[0])
    fail.expect(0.0 <= chi0 <= 1.0, "chi0 %r outside [0, 1]", chi0)
    fail.expect(overlap <= 1.0 + 1e-8, "overlap %r > 1", overlap)
    return {"zeta0": zeta[0], "chi0": chi0, "overlap": overlap}


def check_calibrate(src, out, stdout, ctx, fail):
    ratio = float(stdout.split("=")[1])
    omega = src.omega(float(ctx["delta_nm"]))
    target = float(ctx["target_v"])
    v = src.v_saturated_open(ratio, omega)
    fail.expect(abs(v - target) <= 1e-8,
                "calibrated ratio %r gives V_sat %.10f, target %.10f", ratio, v, target)
    _, _, rows = read_table(os.path.join(out, "raman_calibrated.csv"))
    fail.expect(len(rows) == 1 and close(rows[0][1], ratio)
                and close(rows[0][0], omega / (2.0 * math.pi * 1e12)),
                "raman_calibrated.csv %r disagrees with ratio %r", rows, ratio)
    record = {"gain_ratio": ratio}
    if ctx["default"]:
        v01 = src.v_open(0.01, ratio)
        record["v_open_0.01"] = v01
        fail.expect(abs(v01 - 0.72) <= 0.02, "oracle: open V(0.01) %.4f, want 0.72 +- 0.02", v01)
    return record


def check_sweep_ppair(src, out, stdout, ctx, fail):
    _, columns, rows = read_table(os.path.join(out, "sweep_ppair.csv"))
    col = {name: i for i, name in enumerate(columns)}
    ratio = src.builtin_ratio(src.omega(src.center_nm))
    prev = None
    matched = None
    for row in rows:
        p, v_open, v_f = row[col["p_pair"]], row[col["v_open"]], row[col["v_filtered"]]
        fail.expect(close(v_open, src.v_open(p, ratio)),
                    "p=%g: v_open %r, closed form %r", p, v_open, src.v_open(p, ratio))
        fail.expect(v_f >= v_open, "p=%g: filtered V %r < open V %r", p, v_f, v_open)
        fail.expect(abs(row[col["qber_filtered"]] - (1.0 - v_f) / 2.0) <= 1e-6,
                    "p=%g: qber_filtered is not (1 - V)/2", p)
        if prev is not None:
            fail.expect(p > prev[0] and v_open <= prev[1] and v_f <= prev[2],
                        "V rises in p_pair at p=%g", p)
        prev = (p, v_open, v_f)
        if close(p, src.p_pair):
            matched = (v_f, v_open)
    fail.expect(matched is not None, "no row at the operating point p=%r", src.p_pair)
    if matched is None:
        return {}
    if ctx["default"]:
        fail.expect(abs(matched[0] - 0.88) <= 0.03, "oracle: matched V %.4f, want 0.88 +- 0.03", matched[0])
        fail.expect(abs(matched[1] - 0.72) <= 0.02, "oracle: open V %.4f, want 0.72 +- 0.02", matched[1])
    return {"matched_v": matched[0], "open_v": matched[1]}


def check_sweep_detuning(src, out, stdout, ctx, fail):
    _, columns, rows = read_table(os.path.join(out, "sweep_detuning.csv"))
    col = {name: i for i, name in enumerate(columns)}
    by_delta = {}
    for row in rows:
        delta = row[col["delta_nm"]]
        omega = src.omega(delta)
        ratio = src.builtin_ratio(omega)
        v_open, v_f = row[col["v_sat_open"]], row[col["v_sat_filtered"]]
        fail.expect(close(row[col["gain_ratio"]], ratio),
                    "%g nm: gain ratio %r, table %r", delta, row[col["gain_ratio"]], ratio)
        fail.expect(close(v_open, src.v_saturated_open(ratio, omega)),
                    "%g nm: v_sat_open %r, closed form %r", delta, v_open,
                    src.v_saturated_open(ratio, omega))
        fail.expect(v_f >= v_open, "%g nm: filtered V_sat %r < open %r", delta, v_f, v_open)
        by_delta[round(delta, 6)] = (v_open, v_f)
    record = {}
    if ctx["default"]:
        want = [(10.0, 1, 0.95, 0.02), (5.0, 0, 0.96, 0.01), (5.0, 1, 0.99, 0.01),
                (14.0, 0, 0.71, 0.02)]
        for delta, which, value, tol in want:
            got = by_delta.get(delta, (float("nan"),) * 2)[which]
            fail.expect(abs(got - value) <= tol, "oracle: V_sat(%g nm, %s) %.4f, want %g +- %g",
                        delta, ("open", "filtered")[which], got, value, tol)
        record["v_sat_filtered_10nm"] = by_delta.get(10.0, (None, None))[1]
    return record


def check_optimize(src, out, stdout, ctx, fail):
    rep = read_report(os.path.join(out, "filter_report.txt"))
    f = {k: float(rep[k]) for k in ("chi0", "residual_sum", "collection_fraction",
                                     "overlap_phi0_psi0", "achieved_v", "achieved_qber",
                                     "objective_value", "width_sigma")}
    order = int(rep["order"])
    evals = int(rep["evaluations"])
    fail.expect(0.0 <= f["chi0"] <= 1.0, "chi0 %r outside [0, 1]", f["chi0"])
    fail.expect(f["overlap_phi0_psi0"] <= 1.0 + 1e-8, "overlap %r > 1", f["overlap_phi0_psi0"])
    fail.expect(f["residual_sum"] >= 0.0, "negative residual sum %r", f["residual_sum"])
    fail.expect(close(f["collection_fraction"], f["chi0"] ** 2, 1e-5),
                "collection %r is not chi0^2", f["collection_fraction"])
    fail.expect(0.0 <= f["achieved_v"] <= 1.0
                and abs(f["achieved_qber"] - (1.0 - f["achieved_v"]) / 2.0) <= 1e-6,
                "achieved V %r / QBER %r inconsistent", f["achieved_v"], f["achieved_qber"])
    orders = [int(o) for o in str(src.keys["filter.orders"]).split(",")]
    fail.expect(order in orders, "order %d not searched", order)
    lo, hi = float(src.keys["filter.width_min_sigma"]), float(src.keys["filter.width_max_sigma"])
    fail.expect(lo <= f["width_sigma"] * (1 + 1e-6) and f["width_sigma"] <= hi * (1 + 1e-6),
                "width %r outside the search box", f["width_sigma"])
    target = "overlap_phi0_psi0" if rep["objective"] == "mode-match" else "achieved_v"
    fail.expect(rep["objective"] == src.keys["filter.objective"]
                and close(f["objective_value"], f[target], 1e-5),
                "objective %s value %r does not match %s", rep["objective"],
                f["objective_value"], target)
    fail.expect(evals > 0, "no objective evaluations")
    _, _, profile = read_table(os.path.join(out, "filter_profile.csv"))
    fail.expect(len(profile) == PROFILE_ROWS, "filter_profile.csv has %d rows", len(profile))
    if ctx["default"] and rep["objective"] == "mode-match":
        fail.expect(abs(f["chi0"] - 0.35) <= 0.05, "oracle: chi0 %.4f, want 0.35 +- 0.05", f["chi0"])
        fail.expect(f["residual_sum"] <= 0.05, "oracle: residual %.4f > 0.05", f["residual_sum"])
        fail.expect(abs(f["collection_fraction"] - 0.10) <= 0.03,
                    "oracle: collection %.4f, want 0.10 +- 0.03", f["collection_fraction"])
        fail.expect(f["overlap_phi0_psi0"] >= 0.99, "oracle: overlap %.6f < 0.99",
                    f["overlap_phi0_psi0"])
    return {"order": order, "width_sigma": f["width_sigma"], "chi0": f["chi0"],
            "achieved_v": f["achieved_v"], "evaluations": evals,
            "converged": rep["converged"] == "true"}


CHECKS = {"modes": check_modes, "calibrate": check_calibrate,
          "sweep-ppair": check_sweep_ppair, "sweep-detuning": check_sweep_detuning,
          "optimize": check_optimize}


def check_job(job, out_dir, stdout):
    """(record, failures) for one finished job's outputs."""
    fail = Failures()
    argv = dict(zip(job.argv[1::2], job.argv[2::2]))
    ctx = {"default": job.source is None,
           "target_v": argv.get("--target-v"), "delta_nm": argv.get("--delta-nm")}
    try:
        record = CHECKS[job.command](ClosedForms(job.config_text), out_dir, stdout, ctx, fail)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        record = {}
        fail.append("unreadable output: %s: %s" % (type(exc).__name__, exc))
    return record, list(fail)
