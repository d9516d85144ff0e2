#!/usr/bin/env python
"""Capacity planning with the queueing core (§II / Fig. 3 style analysis).

Uses the library's building blocks the way a platform operator would:

* size just-enough IaaS rentals for a target peak (M/M/N + self-contention),
* compare the serverless ceiling for the same resources,
* sweep QoS targets to see how the required rental grows.

Run:  python examples/capacity_planning.py
"""

from repro.core.meters import expected_platform_overhead
from repro.sim.queueing import max_arrival_rate, min_servers
from repro.iaas.sizing import size_service
from repro.serverless.config import ServerlessConfig
from repro.workloads import benchmark, benchmark_names


def main() -> None:
    cfg = ServerlessConfig()
    peaks = {"float": 30.0, "matmul": 12.0, "linpack": 10.0, "dd": 14.0, "cloud_stor": 12.0}

    print("=== just-enough rentals and serverless ceilings ===")
    print(f"{'benchmark':<11} {'VMs':>4} {'slots':>6} {'cores':>6} "
          f"{'sls ceiling (same slots)':>25} {'ratio':>6}")
    for name in benchmark_names():
        spec = benchmark(name)
        sizing = size_service(spec, peaks[name])
        mu0 = 1.0 / (spec.exec_time + expected_platform_overhead(spec, cfg))
        ceiling = max_arrival_rate(mu0, sizing.workers, spec.qos_target)
        print(f"{name:<11} {sizing.vm_count:>4} {sizing.workers:>6} "
              f"{sizing.rented_cores:>6.0f} {ceiling:>22.1f} qps "
              f"{ceiling / peaks[name]:>6.2f}")

    print("\n=== QoS sensitivity: containers needed for 10 qps ===")
    spec = benchmark("matmul")
    mu0 = 1.0 / (spec.exec_time + expected_platform_overhead(spec, cfg))
    print(f"{'QoS (s)':>8} {'containers (Eq. 5)':>20}")
    for qos_factor in (1.5, 2.0, 3.0, 4.0, 6.0):
        qos = spec.exec_time * qos_factor
        try:
            n = min_servers(10.0, mu0, qos)
            print(f"{qos:>8.2f} {n:>20}")
        except ValueError:
            print(f"{qos:>8.2f} {'unattainable':>20}")

    print("\ntighter QoS targets cost disproportionately more capacity —")
    print("the effect behind float's low IaaS utilization in Fig. 2")


if __name__ == "__main__":
    main()
