"""Seeded workloads: which commands run, on which sources, with which keys.

A source is one point of the documented perturbative domain, drawn from
the seed alone: band width 3-7 nm, band center from width/2 + 4 nm to
15 nm, run.p_pair log-uniform in 1e-3..0.03 and 250-350 K. Every
workload runs its commands on each source in turn; the program only sees
the config file and argv a job is given.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    # config keys every job of the workload sets on top of its source
    keys: dict = field(default_factory=dict)
    # sources in the traced run's fixed job list; sized so one traced
    # pass takes roughly ten seconds at the seed commit
    trace_sources: int = 2


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="survey",
            commands=("modes", "calibrate", "sweep-ppair", "sweep-detuning"),
            trace_sources=3),
        Workload(
            name="design",
            commands=("optimize",),
            trace_sources=4),
        Workload(
            name="design-visibility",
            commands=("optimize",),
            keys={"filter.objective": "visibility", "filter.orders": "2,4",
                  "numerics.n_points": "101"},
            trace_sources=2),
    )
}


@dataclass(frozen=True)
class Source:
    band_width_nm: float
    band_center_nm: float
    p_pair: float
    temperature_k: float
    # calibrate's target zero-power visibility; its detuning is the band center
    target_v: float

    def keys(self):
        return {"band.width_nm": repr(self.band_width_nm),
                "band.center_nm": repr(self.band_center_nm),
                "run.p_pair": repr(self.p_pair),
                "fiber.temperature_k": repr(self.temperature_k)}


def sources(seed):
    """Endless stream of sources; the same seed gives the same stream."""
    rng = random.Random(seed)
    while True:
        width = rng.uniform(3.0, 7.0)
        center = rng.uniform(width / 2.0 + 4.0, 15.0)
        p_pair = math.exp(rng.uniform(math.log(1e-3), math.log(0.03)))
        temperature = rng.uniform(250.0, 350.0)
        target_v = rng.uniform(0.70, 0.97)
        yield Source(width, center, p_pair, temperature, target_v)


@dataclass(frozen=True)
class Job:
    """One CLI invocation: the command's argv and its config text.

    ``source`` is None for the default source (an empty config).
    """

    index: int
    command: str
    argv: tuple
    config_text: str
    source: Source = None


def config_text(workload, source):
    keys = dict(source.keys()) if source is not None else {}
    keys.update(workload.keys)
    return "".join("%s = %s\n" % kv for kv in keys.items())


def make_job(index, workload, command, source):
    argv = (command,)
    if command == "calibrate":
        if source is None:
            # the oracle case of the acceptance tests: 0.82 at 10 nm
            argv += ("--target-v", "0.82", "--delta-nm", "10.0")
        else:
            argv += ("--target-v", repr(source.target_v),
                     "--delta-nm", repr(source.band_center_nm))
    return Job(index, command, argv, config_text(workload, source), source)


def default_jobs(workload):
    """The workload's commands on the default source."""
    return [make_job(i, workload, c, None) for i, c in enumerate(workload.commands)]


def rounds(workload, seed):
    """Endless stream of rounds: the workload's jobs on one source each."""
    index = 0
    for source in sources(seed):
        jobs = [make_job(index + i, workload, c, source)
                for i, c in enumerate(workload.commands)]
        index += len(jobs)
        yield jobs
