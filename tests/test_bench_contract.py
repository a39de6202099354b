"""The benchmark's workloads run against the current sources without failures.

Each workload of perfbench/workloads.py runs in-process at toy size and its
outputs must pass the workload's own gates.  A change to a public signature
the benchmark calls (for example `kam_iterate(track_norms=...)`) turns its
ops into failures and fails this test.  The traced paper-toy-kam run checks
that norm work, `ad` and the homological solve still run under the function
names the benchmark wraps, so a refactor that moves them elsewhere (a method
in place of the module-level `ad`, say) fails here instead of zeroing a
per-layer metric.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))

from perfbench import spans, workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_without_failures(name):
    w = workloads.WORKLOADS[name](workloads.WORKLOADS[name].default_seed, toy=True)
    w.setup()
    outputs = w.run()
    assert outputs
    assert w.failures(outputs) == []


def test_traced_kam_run_attributes_norm_time():
    cls = workloads.WORKLOADS["paper-toy-kam"]
    w = cls(cls.default_seed, toy=True)
    w.setup()
    tracer = spans.Tracer()
    tracer.install()
    try:
        outputs = w.run(tracer)
        layers, _ = spans.summarize(*tracer.take())
    finally:
        tracer.uninstall()
    assert w.failures(outputs) == []
    assert layers["opmatrix.norm_calls"] > 0
    assert layers["kam.norm_tracking_s"] > 0
    assert layers["opmatrix.ad_calls"] > 0
    assert layers["kam.solve_homological_calls"] > 0
