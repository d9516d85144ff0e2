"""Ambient tenant pressure on the shared serverless node.

The paper's serverless platform is multi-tenant: "queries of multiple
user-facing applications are submitted to and executed by the serverless
computing platform" (Fig. 5), and the whole point of the contention
monitor is that the pressure those *other* applications produce keeps
changing.  Simulating every ambient tenant query-by-query would dominate
the event budget, so ambient tenants are modelled as a standing demand
vector that tracks per-axis diurnal pressure traces — the machine model
treats it exactly like containers' demand (it stretches everyone's
execution), and the contention meters measure it like any other load,
but it costs one event per update tick instead of thousands per second.

This is a documented substitution (DESIGN.md §2): the deployment
controller never observes ambient tenants directly — only through meter
latencies — so their microscopic structure is irrelevant to every
experiment; only the pressure trajectory matters.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.cluster import DemandVector, MachineModel
from repro.sim import Environment, RngRegistry
from repro.workloads.traces import Trace

__all__ = ["AmbientTenants"]

AXES = ("cpu", "io", "net")


class AmbientTenants:
    """Time-varying background pressure on a machine.

    Parameters
    ----------
    env, machine:
        Where the pressure lands.
    pressure_traces:
        Map from axis name (``"cpu"``/``"io"``/``"net"``) to a
        :class:`~repro.workloads.traces.Trace` whose ``rate(t)`` is read
        as a *pressure* (fraction of that axis's capacity).
    rng:
        Randomness for the per-tick jitter.
    interval:
        Seconds between pressure updates.
    jitter_sigma:
        Lognormal sigma of multiplicative per-tick noise.
    """

    def __init__(
        self,
        env: Environment,
        machine: MachineModel,
        pressure_traces: Dict[str, Trace],
        rng: RngRegistry,
        interval: float = 20.0,
        jitter_sigma: float = 0.05,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if jitter_sigma < 0:
            raise ValueError(f"jitter_sigma must be >= 0, got {jitter_sigma}")
        unknown = set(pressure_traces) - set(AXES)
        if unknown:
            raise ValueError(f"unknown axes {sorted(unknown)}; expected subset of {AXES}")
        self.env = env
        self.machine = machine
        self.traces = dict(pressure_traces)
        self.rng = rng
        self.interval = float(interval)
        self.jitter_sigma = float(jitter_sigma)
        self._remove: Optional[Callable[[], None]] = None
        self.current = DemandVector()
        self._proc = env.process(self._run())

    def _target_demand(self, t: float) -> DemandVector:
        caps = self.machine.capacity  # (cores, io, net)
        vals = []
        for i, axis in enumerate(AXES):
            trace = self.traces.get(axis)
            if trace is None:
                vals.append(0.0)
                continue
            p = trace.rate(t)
            if self.jitter_sigma > 0:
                p *= self.rng.lognormal_around(f"ambient/{axis}", 1.0, self.jitter_sigma)
            vals.append(max(p, 0.0) * caps[i])
        return DemandVector(cpu=vals[0], io_mbps=vals[1], net_mbps=vals[2])

    def _run(self):
        while True:
            demand = self._target_demand(self.env.now)
            if self._remove is not None:
                self._remove()
                self._remove = None
            if demand.cpu > 0 or demand.io_mbps > 0 or demand.net_mbps > 0:
                self._remove = self.machine.inject_background(demand)
            self.current = demand
            yield self.env.timeout(self.interval)
