"""The benchmark's workloads run against the current sources without failures.

Each workload of perfbench/workloads.py runs in-process at toy size and its
outputs must pass the workload's own gates.  A change to a public signature
the benchmark calls (for example `kam_iterate(track_norms=...)`) turns its
ops into failures and fails this test.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))

from perfbench import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_without_failures(name):
    w = workloads.WORKLOADS[name](workloads.WORKLOADS[name].default_seed, toy=True)
    w.setup()
    outputs = w.run()
    assert outputs
    assert w.failures(outputs) == []
