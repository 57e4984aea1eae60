"""The tracer wraps every binding, and traced call counts repeat exactly.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import tempfile

import pytest

import run
from tracer import Tracer, traced_functions, unwrapped_bindings
from workloads import WORKLOADS

MODEMATCH = run.load_program()


def test_install_wraps_every_binding_and_uninstall_restores_them():
    before = unwrapped_bindings()
    assert ("modematch.sfwm", "make_band_grid") in before
    assert ("modematch.visibility", "make_band_grid") in before
    with Tracer():
        assert unwrapped_bindings() == []
        assert MODEMATCH.sfwm.make_band_grid.__perfbench_traced__
        assert MODEMATCH.sfwm.make_band_grid is MODEMATCH.numerics.make_band_grid
    assert unwrapped_bindings() == before
    assert all(not hasattr(fn, "__perfbench_traced__")
               for fn in traced_functions().values())


def test_spans_nest_and_self_time_excludes_children():
    params = MODEMATCH.ExperimentParams.at_pair_rate(0.01)
    tracer = Tracer()
    with tracer:
        tracer.job = 7
        MODEMATCH.sfwm.sfwm_modes(params, 0.03, n_points=41)
    names = [s.name for s in tracer.spans]
    assert names[0] == "sfwm.sfwm_modes"
    assert {"numerics.make_band_grid", "numerics.decompose_kernel", "sfwm.xi"} <= set(names)
    top = tracer.spans[0]
    assert all(s.parent == 0 for s in tracer.spans[1:])
    assert all(s.job == 7 and s.end >= s.start for s in tracer.spans)
    children = sum(s.end - s.start for s in tracer.spans if s.parent == 0)
    assert top.self_s == pytest.approx(top.end - top.start - children)


@pytest.mark.parametrize("name", ["survey", "design-visibility"])
def test_call_counts_repeat_exactly_across_traced_runs(name):
    workload = WORKLOADS[name]
    counts = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as work:
            results, metrics = run.traced_run(MODEMATCH, workload, 3, work,
                                              sources=1)
        assert not [r.failures for r in results if r.failures]
        counts.append({k: v for k, (v, unit) in metrics.items()
                       if unit == "count" or k.endswith(".distinct_ratio")})
    assert counts[0] == counts[1]
    assert counts[0]["numerics.make_band_grid.calls"] > 0


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
