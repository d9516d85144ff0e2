"""Fleet-scale perf guard: faster-than-real-time, bit-deterministic.

The acceptance bar for the fleet scenario family (ISSUE 6 / DESIGN.md
§11): a ≥100-service fleet carrying ≥1M aggregate queries/day must
simulate its compressed day faster than real time — wall clock below the
simulated duration — and the sweep must be ``float.hex``-identical for
any worker count.  The fleet-throughput trajectory is tracked by the
``fleet_100`` workload of ``benchmarks/e2e/``.

The per-service runs are independent, so this bench is also the
standing regression guard for the batched keep-alive reaper and the
log-space Eq. 1–5 sizing: 100 heterogeneous services exercise the
concurrency-threshold search and the container-pool timer path at every
jittered operating point the generator can produce.
"""

import time

from repro.experiments.fleet import fleet_sweep

_SERVICES = 100
_DAILY_QUERIES = 5_000_000.0
_DAY = 300.0


def _per_service_hexes(figure):
    return [
        [x.hex() if isinstance(x, float) else x for x in row]
        for row in figure.extras["per_service"]
    ]


def test_fleet_faster_than_real_time_and_deterministic():
    t0 = time.perf_counter()
    serial = fleet_sweep(
        services=_SERVICES, daily_queries=_DAILY_QUERIES, day=_DAY,
        seed=0, workers=1, cache=False,
    )
    serial_s = time.perf_counter() - t0

    parallel = fleet_sweep(
        services=_SERVICES, daily_queries=_DAILY_QUERIES, day=_DAY,
        seed=0, workers=4, cache=False,
    )

    # worker-count invariance, down to the last bit of every per-service
    # float (submission-order merge in run_many)
    assert _per_service_hexes(serial) == _per_service_hexes(parallel)

    # faster than real time: the whole fleet's compressed day in less
    # wall time than the day itself, already in the serial leg
    assert serial_s < _DAY, (
        f"fleet of {_SERVICES} services took {serial_s:.1f}s wall for "
        f"{_DAY:g}s simulated — slower than real time"
    )

    assert serial.extras["total_completed"] > 0
