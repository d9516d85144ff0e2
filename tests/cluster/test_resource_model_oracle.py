"""Differential test: the virtual-clock kernel against the O(N) reference.

The shipped kernel banks progress once per sensitivity class on a virtual
clock; the reference kernel (``oracle_kernel.py``) banks every execution
on every rebalance.  The two sum the same progress in a different order,
so they agree to rounding, not bit for bit.  Every per-query latency must
match within ``REL_TOL`` on the golden scenario under several seeds and
on randomized multi-class workloads with background pulses.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resource_model import MachineModel
from tests.cluster import oracle_kernel
from tests.cluster.golden_scenario import SEED, run_golden_scenario
from tests.cluster.test_resource_model_properties import jobs_strategy, run_jobs

REL_TOL = 1e-9


def assert_close(got, want):
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert math.isclose(a, b, rel_tol=REL_TOL), (i, a, b)


def test_golden_scenario_matches_oracle():
    for seed in (SEED, 0, 1, 2, 3):
        assert_close(
            run_golden_scenario(seed, MachineModel),
            run_golden_scenario(seed, oracle_kernel.MachineModel),
        )


def test_golden_scenario_drift_is_rounding_only():
    """The kernels differ, but only in the last few bits of a latency."""
    got = run_golden_scenario(SEED, MachineModel)
    want = run_golden_scenario(SEED, oracle_kernel.MachineModel)
    assert max(abs(a - b) / b for a, b in zip(got, want)) < 1e-13


@given(
    jobs_strategy,
    st.lists(
        st.tuples(st.floats(0.01, 0.4), st.floats(0.01, 0.5), st.floats(0.2, 1.2)),
        max_size=6,
    ),
)
@settings(max_examples=60, deadline=None)
def test_randomized_workloads_match_oracle(jobs, pulses):
    # rows come back in completion order; compare them in job order
    _m, _e, got, _w = run_jobs(MachineModel, jobs, pulses)
    _m, _e, want, _w = run_jobs(oracle_kernel.MachineModel, jobs, pulses)
    assert_close([row[5] for row in sorted(got)], [row[5] for row in sorted(want)])
