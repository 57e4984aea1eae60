"""In-memory span tracer that wraps modematch's public functions from outside.

``Tracer.install()`` replaces every binding of every public function
defined in a ``modematch.*`` module, in every ``modematch`` module that
holds one (``make_band_grid`` is bound in ``numerics``, ``sfwm``,
``visibility`` and the package itself), with one shared wrapper.
``uninstall()`` puts the originals back. Nothing under ``src/`` changes.

Each call records a span: name, start, end, parent span and job id. The
time a span's children cover is summed as they end, so a layer's self
time is its duration minus that sum.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from dataclasses import dataclass

PACKAGE = "modematch"

# Arguments a span keeps beyond its timing, for the ratios and operation
# counts that need them: which grid was built, and the eigensolve size.
ATTRS = {
    "numerics.make_band_grid": lambda a: (
        a["width"], a["n"], a["rule"], a["center"], repr(a["padding"])),
    "numerics.decompose_kernel": lambda a: a["grid"].n,
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    job: object
    child_s: float
    attr: object

    @property
    def self_s(self):
        return self.end - self.start - self.child_s


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == PACKAGE or name.startswith(PACKAGE + "."))
            and isinstance(m, types.ModuleType)]


def traced_functions():
    """Public functions defined in modematch submodules, by span name."""
    found = {}
    for module in package_modules():
        if module.__name__ == PACKAGE:
            continue
        short = module.__name__[len(PACKAGE) + 1:]
        for attr, value in vars(module).items():
            if getattr(value, "__perfbench_traced__", False):
                value = value.__wrapped__
            if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                    and value.__module__ == module.__name__):
                found["%s.%s" % (short, attr)] = value
    return found


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        attr_of = ATTRS.get(name)
        signature = inspect.signature(fn) if attr_of else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attr = None
            if attr_of is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attr = attr_of(bound.arguments)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.job,
                        0.0, attr)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start

        traced.__perfbench_traced__ = True
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        originals = {id(fn): (name, fn) for name, fn in traced_functions().items()}
        wrappers = {}
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is None or hit[1] is not value:
                    continue
                name, fn = hit
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, fn)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[name])

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def unwrapped_bindings():
    """(module, attribute) pairs that still bind a traced function directly."""
    originals = {id(fn) for fn in traced_functions().values()}
    return [(m.__name__, attr) for m in package_modules()
            for attr, value in vars(m).items() if id(value) in originals]


def layer_metrics(spans, winner_evals):
    """Per-layer counts and self times from one traced pass.

    Every traced function appears, with zero calls if the pass never
    reached it.
    ``winner_evals`` is the sum of the ``evaluations`` lines of the
    pass's optimize reports: the objective evaluations spent on the
    winning mask order.
    """
    calls = dict.fromkeys(traced_functions(), 0)
    self_s = dict.fromkeys(calls, 0.0)
    for span in spans:
        calls[span.name] += 1
        self_s[span.name] += span.self_s
    out = {}
    for name in sorted(calls):
        out[name + ".calls"] = (calls[name], "count")
        out[name + ".self_s"] = (self_s[name], "s")
    for module in sorted({name.split(".")[0] for name in calls}):
        out[module + ".self_s"] = (
            sum(v for k, v in self_s.items() if k.split(".")[0] == module), "s")

    grids = [s.attr for s in spans if s.name == "numerics.make_band_grid"]
    if grids:
        out["numerics.make_band_grid.distinct_ratio"] = (
            len(set(grids)) / len(grids), "ratio")
    out["numerics.decompose_kernel.n3_sum"] = (
        sum(s.attr ** 3 for s in spans if s.name == "numerics.decompose_kernel"),
        "count")

    # every objective evaluation builds one practical filter directly
    # under optimize_filter, and the winner is built once more at the end
    searches = {i for i, s in enumerate(spans) if s.name == "filters.optimize_filter"}
    builds = sum(1 for s in spans
                 if s.name == "filters.practical_filter" and s.parent in searches)
    evals = builds - len(searches)
    out["filters.optimize_filter.evals"] = (evals, "count")
    if evals:
        out["filters.optimize_filter.winner_share"] = (winner_evals / evals, "ratio")
    return out
