"""Deterministic fault injection for the Amoeba reproduction.

The paper's switch protocol (§V-B) and sample-period rule (§IV, Eq. 8)
assume the happy path: prewarm acks arrive, VMs boot, contention meters
never go silent.  Real serverless platforms violate all three — cold
starts fail under overload, VMs straggle, telemetry drops out.  This
package supplies the fault model the runtime must degrade gracefully
under:

* :class:`~repro.faults.plan.FaultPlan` — the frozen configuration of
  fault classes and rates (all zero by default);
* :class:`~repro.faults.injector.FaultInjector` — the seeded runtime
  that turns a plan into concrete fault decisions, drawing every
  probability from a *named* :class:`~repro.sim.rng.RngRegistry` stream
  so the same seed and the same plan always produce the identical fault
  sequence;
* :class:`~repro.faults.injector.FaultStats` — the run's fault log, one
  ``(t, kind, where)`` record per injection and consequence, read as
  counts (``RunResult.faults``).

Determinism contract: a plan whose rates are all zero makes **zero** RNG
draws and creates **zero** streams, so running with a zero-rate injector
is bit-identical (``float.hex``) to running with no injector at all.
Enforced by ``tests/experiments/test_chaos.py`` and simlint rule SIM009.
"""

from __future__ import annotations

from repro.faults.injector import FaultInjector, FaultStats, VMBootFailed
from repro.faults.plan import FaultPlan

__all__ = ["FaultInjector", "FaultPlan", "FaultStats", "VMBootFailed"]
