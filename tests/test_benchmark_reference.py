"""Every benchmark variant's outputs match perfbench/reference.json.

The benchmark itself checks only the variant its seed selects.  This runs each
workload's CLI calls in process for all of its input variants, under a temporary
directory, and compares every call with its stored fingerprint through
perfbench's own checks; perfbench/ is only read.
"""

import os
import sys

import pytest

import covdensity.cli as cli

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

REFERENCE = checks.load_reference()["workloads"]


@pytest.mark.parametrize("variant", range(workloads.N_VARIANTS))
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_call_matches_the_reference(tmp_path, workload, variant):
    steps = workloads.build(workload, variant, str(tmp_path))
    session = harness.Session(cli, steps, REFERENCE[workload][str(variant)])
    session.run_sweep()
    assert session.problems == []
    assert session.attempted == len(steps) == len(REFERENCE[workload][str(variant)])
