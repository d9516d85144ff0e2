"""Seeded golden scenario for the contention engine's determinism guarantee.

This module defines ONE fixed workload on one :class:`MachineModel` and a
driver that returns every query's measured latency.  The expected values
in ``tests/cluster/test_resource_model_golden.py`` pin the shipped
per-class virtual-clock kernel **bit for bit** (compared via
``float.hex``), so any change to its float arithmetic shows.  Agreement
with the O(N) reference kernel (``tests/cluster/oracle_kernel.py``) is a
tolerance check, made by ``test_resource_model_oracle.py`` on this
scenario under several seeds.

The scenario is deliberately nasty for a completion scheduler:

* arrivals overlap heavily (mean gap ~0.08 s vs. mean work ~0.45 s), so
  most completions are rescheduled many times mid-flight;
* demands push pressure through the convex knee, so rates really change;
* a background co-tenant pulses on and off, forcing rebalances that are
  not tied to any arrival or completion;
* two sensitivity classes run side by side, so rates differ per query and
  the "earliest finisher" ordering is non-trivial.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.cluster.resource_model import DemandVector, MachineModel, SensitivityVector
from repro.sim.environment import Environment

#: (queries, background pulses) — sized so the run finishes in ~10 ms
N_QUERIES = 60
SEED = 20260806


def run_golden_scenario(seed: int = SEED, engine: type = MachineModel) -> list[float]:
    """Run the pinned scenario; returns per-query latencies in arrival order.

    ``seed`` defaults to the pinned golden seed; the end-to-end determinism
    tests rerun the same scenario under other seeds in fresh environments.
    ``engine`` is the machine class to drive (the oracle tests pass the
    reference kernel).
    """
    rng = np.random.default_rng(seed)
    env = Environment()
    machine = engine(env, cores=8.0, io_mbps=400.0, net_mbps=400.0)
    sens_a = SensitivityVector(cpu=1.0, io=0.6, net=0.0)
    sens_b = SensitivityVector(cpu=0.4, io=1.2, net=0.3)
    latencies: list[float] = [0.0] * N_QUERIES

    gaps = rng.exponential(0.08, N_QUERIES)
    works = rng.uniform(0.05, 0.85, N_QUERIES)
    cpus = rng.uniform(0.2, 2.0, N_QUERIES)
    ios = rng.uniform(0.0, 120.0, N_QUERIES)
    kinds = rng.integers(0, 2, N_QUERIES)

    def feeder(env):
        for i in range(N_QUERIES):
            yield env.timeout(gaps[i])
            demand = DemandVector(cpu=cpus[i], memory_mb=64.0, io_mbps=ios[i])
            sens = sens_a if kinds[i] else sens_b
            machine.execute(works[i], demand, sens, partial(latencies.__setitem__, i))

    def co_tenant(env):
        # pulsing background pressure: rebalances decoupled from arrivals
        for k in range(6):
            yield env.timeout(0.31)
            remove = machine.inject_background(DemandVector(cpu=3.0, io_mbps=150.0))
            yield env.timeout(0.17)
            remove()

    env.process(feeder(env))
    env.process(co_tenant(env))
    env.run()
    assert machine.active_count == 0
    assert env.live_size == 0
    return latencies


if __name__ == "__main__":
    for lat in run_golden_scenario():
        print(lat.hex())
