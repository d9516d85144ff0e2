"""The runtime fault injector: seeded decisions + injection counters.

One :class:`FaultInjector` is shared by every component of a run (pool,
IaaS services, serverless platform facade, contention monitor).  Each
decision draws from a *named* RNG substream keyed by fault class and
service (``faults/coldstart/<svc>``, ``faults/vmboot/<svc>``, ...), so

* the fault sequence each component sees is independent of every other
  stream in the experiment (adding faults never perturbs workload or
  service-time draws), and
* the same root seed plus the same plan reproduces the identical fault
  sequence, run after run.

Every decision is gated on its probability being strictly positive
**before** any stream is touched: a zero-rate plan makes zero draws and
creates zero streams, which is what makes the zero-fault chaos config
bit-identical to a run without the fault layer (gated in
``tests/experiments/test_chaos.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

from repro.faults.plan import FaultPlan
from repro.sim import Environment, Event, RngRegistry

__all__ = ["FaultInjector", "FaultStats", "VMBootFailed"]


class VMBootFailed(RuntimeError):
    """A VM boot exhausted its retry budget; the deploy is rolled back."""


@dataclass
class FaultStats:
    """Counters of everything the injector actually fired."""

    cold_start_failures: int = 0
    cold_starts_abandoned: int = 0
    container_crashes: int = 0
    query_retries: int = 0
    queries_dropped: int = 0
    vm_boot_failures: int = 0
    vm_boot_delays: int = 0
    vm_boots_abandoned: int = 0
    prewarm_acks_lost: int = 0
    prewarm_acks_delayed: int = 0
    meter_samples_dropped: int = 0
    meter_outages: int = 0
    vm_preemptions: int = 0

    @property
    def total_injected(self) -> int:
        """Every primary injection (retries/drops are consequences)."""
        return (
            self.cold_start_failures
            + self.container_crashes
            + self.vm_boot_failures
            + self.vm_boot_delays
            + self.prewarm_acks_lost
            + self.prewarm_acks_delayed
            + self.meter_samples_dropped
            + self.meter_outages
            + self.vm_preemptions
        )

    def as_dict(self) -> Dict[str, int]:
        """Counter name -> value (for reports and CSV export)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class FaultInjector:
    """Turns a :class:`FaultPlan` into concrete, reproducible decisions."""

    def __init__(self, plan: FaultPlan, rng: RngRegistry) -> None:
        self.plan = plan
        self.rng = rng
        self.stats = FaultStats()

    def _hit(self, prob: float, stream: str) -> bool:
        """One Bernoulli decision; draws only when the fault is enabled."""
        if prob <= 0.0:
            return False
        return self.rng.stream(stream).random() < prob

    # -- serverless containers ---------------------------------------------
    def cold_start_fails(self, service: str) -> bool:
        """Does this cold-start attempt die during runtime boot?"""
        hit = self._hit(self.plan.cold_start_failure_prob, f"faults/coldstart/{service}")
        if hit:
            self.stats.cold_start_failures += 1
        return hit

    def container_crashes(self, service: str) -> bool:
        """Does the container crash while serving this query?"""
        hit = self._hit(self.plan.container_crash_prob, f"faults/crash/{service}")
        if hit:
            self.stats.container_crashes += 1
        return hit

    # -- IaaS VMs ----------------------------------------------------------
    def vm_boot_delay(self, service: str) -> float:
        """Extra seconds this boot attempt straggles (0.0 = on time)."""
        if self._hit(self.plan.vm_boot_delay_prob, f"faults/vmboot/{service}"):
            self.stats.vm_boot_delays += 1
            return self.plan.vm_boot_delay_s
        return 0.0

    def vm_boot_fails(self, service: str) -> bool:
        """Does this boot attempt fail outright?"""
        hit = self._hit(self.plan.vm_boot_failure_prob, f"faults/vmboot/{service}")
        if hit:
            self.stats.vm_boot_failures += 1
        return hit

    def vm_preempted(self, service: str) -> bool:
        """Does the cloud reclaim this service's spot share right now?

        One Bernoulli per watcher interval while the spot rental runs
        (:meth:`repro.iaas.service.IaaSService`).  The stream is only
        touched when ``vm_preemption_prob > 0``, so a zero-preemption
        plan makes zero draws — the bit-identity contract every other
        fault class honours.
        """
        hit = self._hit(self.plan.vm_preemption_prob, f"faults/preemption/{service}")
        if hit:
            self.stats.vm_preemptions += 1
        return hit

    # -- contention meters -------------------------------------------------
    def meter_outage(self, meter: str) -> float:
        """Outage duration starting at this sample (0.0 = meter healthy)."""
        if self._hit(self.plan.meter_outage_prob, f"faults/meter/{meter}"):
            self.stats.meter_outages += 1
            return self.plan.meter_outage_duration_s
        return 0.0

    def meter_sample_dropped(self, meter: str) -> bool:
        """Is this single meter invocation silently lost?"""
        hit = self._hit(self.plan.meter_drop_prob, f"faults/meter/{meter}")
        if hit:
            self.stats.meter_samples_dropped += 1
        return hit

    # -- switch protocol ---------------------------------------------------
    def filter_prewarm_ack(self, service: str, ack: Event, env: Environment) -> Event:
        """The ack the engine actually observes: intact, late, or never.

        A *lost* ack is a fresh event that never fires — the engine's
        ack deadline is what recovers from it.  A *late* ack relays the
        real ack after ``prewarm_ack_delay_s``.  The underlying pool ack
        always fires regardless (the containers really did warm; only
        the acknowledgement path is faulty).
        """
        stream = f"faults/ack/{service}"
        if self._hit(self.plan.prewarm_ack_loss_prob, stream):
            self.stats.prewarm_acks_lost += 1
            return env.event()
        if self._hit(self.plan.prewarm_ack_delay_prob, stream):
            self.stats.prewarm_acks_delayed += 1
            delayed = env.event()
            delay = self.plan.prewarm_ack_delay_s

            def _relay(ev: Event) -> None:
                delayed.succeed(ev._value, delay=delay)

            if ack.processed:
                delayed.succeed(ack.value, delay=delay)
            else:
                assert ack.callbacks is not None
                ack.callbacks.append(_relay)
            return delayed
        return ack
