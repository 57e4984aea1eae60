"""Benchmark of modematch's CLI jobs, end to end and layer by layer.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 25 --trace 0

One process is one closed-loop client: it draws sources from the seed,
writes each job's config file outside the timed region, runs the job
in-process through ``modematch.cli.main(argv)``, then checks the files
the job wrote. ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` runs a fixed job list once untraced and once traced, and reports
the per-layer metrics, the tracing overhead and the grid-size ladder.
The last line of standard output is the result as one JSON object. See
README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set in this process's environment before numpy loads;
# the setup interpreters inherit it.
BLAS_THREADS = min(1, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
from dataclasses import dataclass

from checks import check_job
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, Job, default_jobs, rounds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 5
SETUP_CODE = ("import sys; import modematch.cli as cli; "
              "sys.exit(cli.main(['modes', '--out', sys.argv[1]]))")
SETUP_JOB = Job(0, "modes", ("modes",), "")
# setup_s is quoted at this reference-kernel time: the kernel's median on
# an idle core of the 2-vCPU Xeon the benchmark was tuned on
REFERENCE_NOMINAL_S = 0.02
LADDER_SIZES = (41, 201, 401)
LADDER_REPS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("source_p50_ref", "ref"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("numerics.make_band_grid.calls", "count"),
    ("numerics.make_band_grid.self_s", "s"),
    ("numerics.make_band_grid.distinct_ratio", "ratio"),
    ("numerics.decompose_kernel.calls", "count"),
    ("numerics.decompose_kernel.self_s", "s"),
    ("numerics.decompose_kernel.n3_sum", "count"),
    ("sfwm.sfwm_modes.calls", "count"),
    ("sfwm.sfwm_modes.self_s", "s"),
    ("sfwm.default_raman_model.calls", "count"),
    ("sfwm.default_raman_model.self_s", "s"),
    ("sfwm.calibrate_raman.calls", "count"),
    ("sfwm.calibrate_raman.self_s", "s"),
    ("filters.practical_filter.calls", "count"),
    ("filters.filter_modes.calls", "count"),
    ("filters.optimize_filter.calls", "count"),
    ("filters.optimize_filter.evals", "count"),
    ("visibility.pair_term.calls", "count"),
    ("visibility.pair_term.self_s", "s"),
    ("visibility.raman_term.calls", "count"),
    ("visibility.raman_term.self_s", "s"),
    ("visibility.coincidence_term.calls", "count"),
    ("visibility.coincidence_term.self_s", "s"),
    ("visibility.evaluate_operating_point.calls", "count"),
    ("visibility.evaluate_operating_point.self_s", "s"),
    ("visibility.saturated_visibility_filtered.calls", "count"),
    ("units.thermal_occupation.calls", "count"),
    ("config.load_config.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("numerics.self_s", "s"),
    ("sfwm.self_s", "s"),
    ("filters.self_s", "s"),
    ("visibility.self_s", "s"),
    ("units.self_s", "s"),
    ("config.self_s", "s"),
    ("cli.self_s", "s"),
) + tuple(
    ("%s.n%d_s" % (layer, n), "s")
    for layer in ("numerics.make_band_grid", "sfwm.sfwm_modes",
                  "filters.practical_filter", "visibility.evaluate_operating_point")
    for n in LADDER_SIZES
) + (
    ("trace.jobs", "count"),
    ("trace.overhead_pct", "%"),
)


def load_program():
    """Import modematch from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "modematch", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit("perfbench: no modematch sources at %s" % init)
    sys.path.insert(0, SRC)
    import modematch.cli
    if os.path.abspath(modematch.__file__) != init:
        raise SystemExit("perfbench: imported modematch from %s" % modematch.__file__)
    return modematch


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed):
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": BLAS_THREADS, "seed": seed, "commit": git_commit()}


@dataclass
class Result:
    job: Job
    wall_s: float
    failures: list
    record: dict
    bytes_written: int


def run_job(modematch, job, work, tracer=None):
    """Run one job in-process; only the cli.main call is timed."""
    cfg = os.path.join(work, "job.cfg")
    out = os.path.join(work, "out")
    with open(cfg, "w", encoding="ascii") as fh:
        fh.write(job.config_text)
    argv = list(job.argv) + ["--config", cfg, "--out", out]
    stdout, stderr = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.job = job.index
    code = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = modematch.cli.main(argv)
        except Exception:
            # a crash is a failed job, not the end of the benchmark
            stderr.write(traceback.format_exc(limit=3))
        wall = time.perf_counter() - start
    if code == 0:
        record, failures = check_job(job, out, stdout.getvalue())
    else:
        record, failures = {}, ["exit code %s: %s" % (code, stderr.getvalue().strip())]
    written = len(stdout.getvalue())
    if os.path.isdir(out):
        written += sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
        shutil.rmtree(out)
    return Result(job, wall, failures, record, written)


def measure_setup(work, reference):
    """Fresh interpreters: import modematch and run one warm-up job.

    Returns the wall times, with the reference kernel timed before each.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    times, failures = [], []
    for _ in range(SETUP_REPS):
        out = os.path.join(work, "setup")
        reference()
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, out], env=env,
                              cwd=work, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode:
            failures.append("setup exit code %d: %s" % (proc.returncode, proc.stderr.strip()))
        else:
            failures += check_job(SETUP_JOB, out, proc.stdout)[1]
        shutil.rmtree(out, ignore_errors=True)
    return times, failures


def ladder(modematch):
    """Median wall time of four layers at each ladder grid size, default source."""
    from modematch.filters import practical_filter
    from modematch.numerics import make_band_grid
    from modematch.sfwm import ExperimentParams, default_raman_model, sfwm_modes
    from modematch.visibility import evaluate_operating_point

    def timed(fn, *args, **kwargs):
        walls = []
        for _ in range(LADDER_REPS):
            start = time.perf_counter()
            value = fn(*args, **kwargs)
            walls.append(time.perf_counter() - start)
        return value, statistics.median(walls)

    params = ExperimentParams.at_pair_rate(0.01)
    raman = default_raman_model(params)
    out = {}
    for n in LADDER_SIZES:
        _, out["numerics.make_band_grid.n%d_s" % n] = timed(make_band_grid, params.b_sigma, n)
        dec, out["sfwm.sfwm_modes.n%d_s" % n] = timed(sfwm_modes, params, raman, n_points=n)
        # the config defaults: order 2, width 3.68, shutter 0.35
        fm, out["filters.practical_filter.n%d_s" % n] = timed(
            practical_filter, dec.grid, 2, 3.68, 0.35)
        _, out["visibility.evaluate_operating_point.n%d_s" % n] = timed(
            evaluate_operating_point, params, raman, fm, fm)
    return {name: (value, "s") for name, value in out.items()}


class Reference:
    """A fixed piece of numpy and interpreter work, independent of modematch.

    The host's speed drifts by up to 1.5x, within seconds and between
    runs. Timing this kernel next to the jobs gives a speed index: each
    round's wall time is divided by the mean kernel time around it, and
    set-up time is scaled by the run's median kernel time. The kernel
    mixes the two kinds of work the jobs do: dense symmetric eigensolves
    and scalar Python arithmetic. Every timing is kept in ``samples``.
    """

    def __init__(self):
        import numpy
        a = numpy.random.default_rng(0).standard_normal((201, 201))
        self._matrix = a + a.T
        self._eigh = numpy.linalg.eigh
        self.samples = []

    def __call__(self):
        start = time.perf_counter()
        for _ in range(4):
            self._eigh(self._matrix)
        total = 0.0
        for i in range(1, 30001):
            total += 1.0 / math.expm1(1e-3 * i)
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]


def measure(modematch, workload, seed, seconds, work, reference):
    """Closed loop over seeded sources until the job time reaches ``seconds``.

    Returns the job results and, per round, its wall time and the mean
    reference-kernel time around it.
    """
    results, rounds_done, busy = [], [], 0.0
    for jobs in rounds(workload, seed):
        if busy >= seconds:
            break
        refs, done = [], []
        for job in jobs:
            refs.append(reference())
            done.append(run_job(modematch, job, work))
        refs.append(reference())
        results += done
        wall = sum(r.wall_s for r in done)
        rounds_done.append((wall, statistics.mean(refs)))
        busy += wall
    return results, rounds_done, busy


def traced_run(modematch, workload, seed, work, sources=None):
    """The fixed job list untraced, then traced; per-layer metrics.

    The list is the first ``sources`` rounds of the seed (by default the
    workload's ``trace_sources``), so its call counts repeat exactly.
    """
    stream = rounds(workload, seed)
    jobs = [job for _ in range(sources or workload.trace_sources) for job in next(stream)]
    plain = [run_job(modematch, job, work) for job in jobs]
    tracer = Tracer()
    with tracer:
        traced = [run_job(modematch, job, work, tracer) for job in jobs]
    winner_evals = sum(r.record.get("evaluations", 0) for r in traced)
    metrics = layer_metrics(tracer.spans, winner_evals)
    metrics["cli.bytes_written"] = (sum(r.bytes_written for r in traced), "bytes")
    metrics["trace.jobs"] = (len(traced), "count")
    metrics["trace.overhead_pct"] = (
        100.0 * (sum(r.wall_s for r in traced) / sum(r.wall_s for r in plain) - 1.0), "%")
    return plain + traced, metrics


def command_summary(results):
    by_command = {}
    for r in results:
        by_command.setdefault(r.job.command, []).append(r.wall_s)
    return {cmd: {"p50_s": statistics.median(walls), "jobs": len(walls)}
            for cmd, walls in by_command.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    modematch = load_program()

    os.makedirs(os.path.join(ROOT, ".perfbench-work"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench-work"))
    try:
        # warm-up and oracle: the workload's commands on the default source
        warm = [run_job(modematch, job, work) for job in default_jobs(workload)]
        problems = [f for r in warm for f in r.failures]
        if args.trace:
            results, metrics = traced_run(modematch, workload, args.seed, work)
            metrics.update(ladder(modematch))
            names = PER_LAYER
            summary = {}
        else:
            reference = Reference()
            setup_walls, setup_failures = measure_setup(work, reference)
            problems += setup_failures
            results, rounds_done, busy = measure(modematch, workload, args.seed,
                                                 args.seconds, work, reference)
            reference_s = statistics.median(reference.samples)
            metrics = {
                "setup_s": (statistics.median(setup_walls) * REFERENCE_NOMINAL_S / reference_s,
                            "s"),
                "setup_raw_s": (statistics.median(setup_walls), "s"),
                "source_p50_ref": (statistics.median(w / r for w, r in rounds_done), "ref"),
                "source_p50_s": (statistics.median(w for w, _ in rounds_done), "s"),
                "reference_p50_s": (reference_s, "s"),
                "jobs_per_s": (len(results) / busy, "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "MB"),
            }
            names = END_TO_END
            summary = {"sources": len(rounds_done), "setup_reps": SETUP_REPS,
                       "commands": command_summary(results)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    failed = [r for r in results if r.failures]
    detail = {
        "workload": workload.name, "trace": args.trace, "env": environment(args.seed),
        "failed_ratio": len(failed) / len(results), **summary,
        "failures": problems + ["job %d %s: %s" % (r.job.index, " ".join(r.job.argv),
                                                  "; ".join(r.failures)) for r in failed],
        "default_source": {r.job.command: r.record for r in warm},
        "records": [dict(job=r.job.index, command=r.job.command, wall_s=r.wall_s,
                         **r.record) for r in results],
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    for name, (value, unit) in sorted(metrics.items()):
        print("%-52s %14.6g %s" % (name, value, unit))
    result = {
        "correct": not failed and not problems,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
