"""Run every CLI command over a fixed matrix of configs and keep all output.

    python3 tools/cli_matrix.py [--n-points N] SRC OUT
    python3 tools/cli_matrix.py --compare OUT_A OUT_B

SRC is a ``src`` directory holding the ``modematch`` package; OUT is a
new directory. Each run gets its own OUT/<source>-<filter>-<command>
directory with the files the command wrote plus ``exit_code.txt``,
``stdout.txt`` and ``stderr.txt``. Two trees give the same results when
``diff -r`` finds no difference between their OUT directories.

``--compare`` reads two such OUT directories. It reads each file's
``# key = value`` header lines as a key -> value map and prints every
header key that was added, removed or changed. It compares the rest of
the file, the body, line by line: for each run, file and numeric column
it prints how many values changed, the largest |delta| and the largest
relative delta; it prints every changed body line that is not numeric
(column names, exit codes, stdout and stderr text) and every file only
one side has. A numeric line is a CSV data row, read under the column
names above it, or a ``key = number`` line, read as column ``key``. It
exits 1 when anything differs.

The matrix is ``modes``, ``sweep-ppair``, ``sweep-detuning``,
``optimize`` and ``calibrate --target-v 0.8 --delta-nm 9``, under each
``filter.kind``, under ``filter.kind = optimize`` with the
``visibility`` objective and under ``filter.kind = optimize`` with the
shutter searched over 0.2-1.5 sigma^-1 along with the mask width, for
the default source and a perturbed one, at ``numerics.n_points = 101``
(``--n-points`` sets another value, such as ``auto`` or 201) and
``filter.orders = 2,4``. Commands run in this one process with one BLAS
thread.
"""

import contextlib
import io
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

COMMON = "numerics.n_points = %s\nfilter.orders = 2,4\n"

SOURCES = {
    "default": "",
    "perturbed": ("fiber.temperature_k = 310.0\nband.center_nm = 8.5\n"
                  "pump.sigma_nm = 0.45\nrun.p_pair = 0.02\n"),
}

FILTERS = {
    "open": "filter.kind = open\n",
    "ideal-matched": "filter.kind = ideal-matched\n",
    "practical": "filter.kind = practical\n",
    "optimize": "filter.kind = optimize\n",
    "optimize-visibility": "filter.kind = optimize\nfilter.objective = visibility\n",
    "optimize-shutter": ("filter.kind = optimize\nfilter.t_min_sigma = 0.2\n"
                         "filter.t_max_sigma = 1.5\n"),
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


def numeric_fields(line, columns):
    """(column, value) pairs of a numeric line, or None for a text line."""
    if line.startswith("#"):
        return None
    key, eq, value = line.partition(" = ")
    names, fields = ([key], [value]) if eq else (columns, line.split(","))
    try:
        values = [float(v) for v in fields]
    except ValueError:
        return None
    return list(zip(names, values)) if len(names) == len(values) else None


def read_output(path):
    """(header key -> value, body lines) of one output file."""
    header, body = {}, []
    with open(path, encoding="ascii") as fh:
        for line in fh.read().splitlines():
            key, eq, value = line[2:].partition(" = ")
            if line.startswith("# ") and eq and not body:
                header[key] = value
            else:
                body.append(line)
    return header, body


def compare_header(header_a, header_b):
    """(key, value_a, value_b) for each header key added, removed or
    changed; a missing side is None."""
    keys = list(header_a) + [k for k in header_b if k not in header_a]
    return [(k, header_a.get(k), header_b.get(k)) for k in keys
            if header_a.get(k) != header_b.get(k)]


def compare_body(lines_a, lines_b):
    """Per-column (count, max |delta|, max relative delta) and changed text."""
    stats, text = {}, []
    columns = []
    for lineno in range(max(len(lines_a), len(lines_b))):
        a = lines_a[lineno] if lineno < len(lines_a) else None
        b = lines_b[lineno] if lineno < len(lines_b) else None
        fields_a = None if a is None else numeric_fields(a, columns)
        fields_b = None if b is None else numeric_fields(b, columns)
        if (fields_a is None or fields_b is None
                or [k for k, _ in fields_a] != [k for k, _ in fields_b]):
            if a != b:
                text.append((lineno + 1, a, b))
            if a is not None and not a.startswith("#") and fields_a is None:
                columns = a.split(",")
            continue
        for (name, va), (_, vb) in zip(fields_a, fields_b):
            if va == vb:
                continue
            delta = abs(va - vb)
            count, big, rel = stats.get(name, (0, 0.0, 0.0))
            stats[name] = (count + 1, max(big, delta),
                           max(rel, delta / max(abs(va), abs(vb))))
    return stats, text


def compare(dir_a, dir_b):
    """Print what differs between two OUT trees; True when nothing does."""
    same = True
    runs = sorted(set(os.listdir(dir_a)) | set(os.listdir(dir_b)))
    for run in runs:
        run_a, run_b = os.path.join(dir_a, run), os.path.join(dir_b, run)
        if not (os.path.isdir(run_a) and os.path.isdir(run_b)):
            if os.path.isdir(run_a) or os.path.isdir(run_b):
                print("%s: only in %s" % (run, dir_a if os.path.isdir(run_a) else dir_b))
                same = False
            continue
        for name in sorted(set(os.listdir(run_a)) | set(os.listdir(run_b))):
            path_a, path_b = os.path.join(run_a, name), os.path.join(run_b, name)
            where = "%s/%s" % (run, name)
            if not (os.path.exists(path_a) and os.path.exists(path_b)):
                print("%s: only in %s" % (where, dir_a if os.path.exists(path_a) else dir_b))
                same = False
                continue
            header_a, body_a = read_output(path_a)
            header_b, body_b = read_output(path_b)
            keys = compare_header(header_a, header_b)
            for key, a, b in keys:
                change = ("added %r" % b if a is None else "removed %r" % a
                          if b is None else "%r -> %r" % (a, b))
                print("%s header %s: %s" % (where, key, change))
            stats, text = compare_body(body_a, body_b)
            for column, (count, big, rel) in stats.items():
                print("%s %s: %d changed, max |delta| %.3e, max rel %.3e"
                      % (where, column, count, big, rel))
            for lineno, a, b in text:
                print("%s body line %d: %r -> %r" % (where, lineno, a, b))
            same = same and not keys and not stats and not text
    print("identical" if same else "differ")
    return same


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        sys.exit(0 if compare(argv[1], argv[2]) else 1)
    n_points = "101"
    if len(argv) == 4 and argv[0] == "--n-points":
        n_points, argv = argv[1], argv[2:]
    if len(argv) != 2:
        sys.exit("usage: cli_matrix.py [--n-points N] SRC OUT | "
                 "cli_matrix.py --compare OUT_A OUT_B")
    src, out = (os.path.abspath(a) for a in argv)
    sys.path.insert(0, src)
    from modematch import cli

    os.makedirs(out)
    for source, source_text in SOURCES.items():
        for filt, filter_text in FILTERS.items():
            config_path = os.path.join(out, "%s-%s.cfg" % (source, filt))
            with open(config_path, "w", encoding="ascii") as fh:
                fh.write(COMMON % n_points + source_text + filter_text)
            for command, extra in COMMANDS.items():
                run_dir = os.path.join(out, "%s-%s-%s" % (source, filt, command))
                os.makedirs(run_dir)
                code = run_one(cli, config_path, run_dir, command, extra)
                print("%s exit %s" % (os.path.basename(run_dir), code))


if __name__ == "__main__":
    main(sys.argv[1:])
