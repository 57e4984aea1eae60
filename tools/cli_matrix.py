"""Run every CLI command over a fixed matrix of configs and keep all output.

    python3 tools/cli_matrix.py SRC OUT

SRC is a ``src`` directory holding the ``modematch`` package; OUT is a
new directory. Each run gets its own OUT/<source>-<filter>-<command>
directory with the files the command wrote plus ``exit_code.txt``,
``stdout.txt`` and ``stderr.txt``. Two trees give the same results when
``diff -r`` finds no difference between their OUT directories.

The matrix is ``modes``, ``sweep-ppair``, ``sweep-detuning``,
``optimize`` and ``calibrate --target-v 0.8 --delta-nm 9``, under each
``filter.kind`` and under ``filter.kind = optimize`` with the
``visibility`` objective, for the default source and a perturbed one,
at ``numerics.n_points = 101`` and ``filter.orders = 2,4``. Commands run
in this one process with one BLAS thread.
"""

import contextlib
import io
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

COMMON = "numerics.n_points = 101\nfilter.orders = 2,4\n"

SOURCES = {
    "default": "",
    "perturbed": ("fiber.length_km = 0.35\nfiber.temperature_k = 310.0\n"
                  "band.center_nm = 8.5\npump.sigma_nm = 0.45\n"
                  "run.p_pair = 0.02\n"),
}

FILTERS = {
    "open": "filter.kind = open\n",
    "ideal-matched": "filter.kind = ideal-matched\n",
    "practical": "filter.kind = practical\n",
    "optimize": "filter.kind = optimize\n",
    "optimize-visibility": "filter.kind = optimize\nfilter.objective = visibility\n",
}

COMMANDS = {
    "modes": [],
    "sweep-ppair": [],
    "sweep-detuning": [],
    "optimize": [],
    "calibrate": ["--target-v", "0.8", "--delta-nm", "9"],
}


def run_one(cli, config_path, out_dir, command, extra):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([command, "--config", config_path, "--out", out_dir]
                            + extra)
        except SystemExit as exc:
            code = exc.code
    for name, text in (("exit_code.txt", "%s\n" % code),
                       ("stdout.txt", stdout.getvalue()),
                       ("stderr.txt", stderr.getvalue())):
        with open(os.path.join(out_dir, name), "w", encoding="ascii",
                  newline="") as fh:
            fh.write(text)
    return code


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: cli_matrix.py SRC OUT")
    src, out = (os.path.abspath(a) for a in argv)
    sys.path.insert(0, src)
    from modematch import cli

    os.makedirs(out)
    for source, source_text in SOURCES.items():
        for filt, filter_text in FILTERS.items():
            config_path = os.path.join(out, "%s-%s.cfg" % (source, filt))
            with open(config_path, "w", encoding="ascii") as fh:
                fh.write(COMMON + source_text + filter_text)
            for command, extra in COMMANDS.items():
                run_dir = os.path.join(out, "%s-%s-%s" % (source, filt, command))
                os.makedirs(run_dir)
                code = run_one(cli, config_path, run_dir, command, extra)
                print("%s exit %s" % (os.path.basename(run_dir), code))


if __name__ == "__main__":
    main(sys.argv[1:])
