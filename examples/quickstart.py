#!/usr/bin/env python
"""Quickstart: put one microservice under Amoeba management.

Deploys the ``float`` FunctionBench benchmark with a compressed diurnal
day, lets Amoeba switch it between a just-enough IaaS rental and the
shared serverless platform, and prints the QoS / resource outcome against
the pure-IaaS alternative.

Run:  python examples/quickstart.py
"""

from repro.core import AmoebaRuntime
from repro.workloads import DiurnalTrace, benchmark

DAY = 1800.0  # one diurnal cycle compressed into 30 simulated minutes


def main() -> None:
    runtime = AmoebaRuntime(seed=42)

    # the service: peak 25 qps in the evening, overnight low ~30% of peak
    spec = benchmark("float")
    trace = DiurnalTrace(peak_rate=25.0, day=DAY, seed=7)
    service = runtime.add_service(spec, trace, limit=5)

    print(f"managing {spec.name!r}: QoS = {spec.qos_target * 1000:.0f} ms (95%-ile), "
          f"peak {trace.peak_rate:.0f} qps")
    print(f"IaaS rental sized just-enough: {service.iaas.sizing.vm_count} VMs, "
          f"{service.iaas.sizing.workers} worker slots "
          f"({service.iaas.sizing.rented_cores:.0f} cores)")
    print(f"controller sample period (Eq. 8, clamped): {service.controller.period:.0f} s\n")

    runtime.run(until=DAY)

    m = service.metrics
    print(f"completed queries : {m.completed}")
    print(f"95%-ile latency   : {m.latency_percentile(95) * 1000:.1f} ms "
          f"(target {spec.qos_target * 1000:.0f} ms)")
    print(f"QoS violations    : {m.violation_fraction * 100:.2f} %")
    print(f"served by         : {m.served_by}")

    print("\ndeploy-mode switches:")
    for leg in service.engine.legs:
        print(f"  t={leg.time:7.1f}s  -> {leg.target.value:<10}  at load {leg.load:5.1f} qps")

    usage = runtime.service_usage(spec.name)
    rented = service.iaas.sizing.rented_cores
    rented_mem = service.iaas.sizing.rented_memory_mb
    print(f"\nmean occupation   : {usage.mean_cores:.2f} cores, "
          f"{usage.mean_memory_mb:.0f} MB")
    print(f"pure IaaS holds   : {rented:.0f} cores, {rented_mem:.0f} MB all day")
    print(f"reduction         : CPU {100 * (1 - usage.mean_cores / rented):.1f} %, "
          f"memory {100 * (1 - usage.mean_memory_mb / rented_mem):.1f} %")
    print(f"meter overhead    : {runtime.meter_overhead() * 100:.2f} % of the node")


if __name__ == "__main__":
    main()
