#!/usr/bin/env python
"""Profiling walkthrough: meter curves, pressure inversion, surfaces, μ.

Shows the §IV-B/§VI machinery in isolation:

1. profile the three contention meters (Fig. 8 curves),
2. invert a live meter observation into a pressure estimate,
3. build a microservice's latency surfaces (Fig. 9),
4. combine everything into the Eq. 6 μ and the Eq. 5 admissible load.

Run:  python examples/contention_profiling.py
"""

from repro.cluster.resource_model import DemandVector
from repro.core.config import AmoebaConfig
from repro.core.meters import AXIS_METERS, profile_meter
from repro.core.monitor import ContentionMonitor
from repro.core.mu_model import NOM_WEIGHTS, mu_value
from repro.sim.queueing import max_arrival_rate
from repro.core.surfaces import build_surface_set
from repro.serverless.platform import ServerlessPlatform
from repro.sim.environment import Environment
from repro.sim.rng import RngRegistry
from repro.workloads import benchmark


def main() -> None:
    # 1. Fig. 8: each meter's latency-vs-pressure curve
    print("=== meter profiles (Fig. 8) ===")
    for name in AXIS_METERS:
        prof = profile_meter(name, points=5)
        pts = ", ".join(
            f"p={p:.2f}:{lat * 1000:.1f}ms" for p, lat in zip(prof.pressures, prof.latencies)
        )
        print(f"{name:<10} {pts}")

    # 2. live measurement: run the monitor on a platform with hidden
    #    background pressure and watch it quantify that pressure
    print("\n=== live pressure quantification ===")
    env = Environment()
    rng = RngRegistry(seed=3)
    platform = ServerlessPlatform(env, rng)
    monitor = ContentionMonitor(env, platform, AmoebaConfig(), rng)
    monitor.start()
    caps = platform.machine.capacity
    hidden = (0.55, 0.30, 0.10)
    platform.machine.inject_background(
        DemandVector(cpu=hidden[0] * caps[0], io_mbps=hidden[1] * caps[1], net_mbps=hidden[2] * caps[2])
    )
    env.run(until=90.0)
    measured = monitor.pressure()
    for axis, h, m in zip(("cpu", "io", "net"), hidden, measured):
        print(f"{axis:<4} hidden pressure {h:.2f}  ->  meters report {m:.2f}")

    # 3. Fig. 9: the dd benchmark's latency surfaces
    print("\n=== latency surfaces for 'dd' (Fig. 9) ===")
    spec = benchmark("dd")
    surfaces = build_surface_set(spec, load_max=20.0)
    for axis, label in enumerate(("cpu", "io", "net")):
        row = ", ".join(
            f"P={p:.1f}:{surfaces.surfaces[axis].predict(p, 8.0) * 1000:.0f}ms"
            for p in (0.0, 0.5, 1.0, 1.5)
        )
        print(f"{label:<4} at 8 qps: {row}")

    # 4. Eq. 6 + Eq. 5: from pressure to an admissible load
    print("\n=== from pressure to the switch decision ===")
    load = 8.0
    axis_lat = surfaces.axis_latencies(measured, load)
    calibrated = mu_value("dd", surfaces.solo_latency, axis_lat, (0.9, 0.8, 0.2),
                          surfaces.alpha)
    pessimistic = mu_value("dd", surfaces.solo_latency, axis_lat, NOM_WEIGHTS,
                           surfaces.alpha)
    for label, est in (("calibrated", calibrated), ("NoM (w=1)", pessimistic)):
        lam = max_arrival_rate(est.mu, n=6, qos=spec.qos_target)
        print(f"{label:<11} mu={est.mu:5.2f}/s  predicted latency "
              f"{est.predicted_latency * 1000:5.1f} ms  ->  lambda(mu) = {lam:5.2f} qps")
    print("\nthe pessimistic variant admits less load -> switches to serverless later")


if __name__ == "__main__":
    main()
