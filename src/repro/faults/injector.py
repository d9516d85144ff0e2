"""The runtime fault injector: seeded decisions + the fault log.

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

from repro.faults.plan import FaultPlan
from repro.sim import Environment, Event, EventLog, RngRegistry

__all__ = ["FaultInjector", "FaultStats", "VMBootFailed"]

#: every fault kind in the order its count is read: the nine primary
#: injections, interleaved with the four consequences in _CONSEQUENCES
FAULT_KINDS = (
    "cold_start_failures",
    "cold_starts_abandoned",
    "container_crashes",
    "query_retries",
    "queries_dropped",
    "vm_boot_failures",
    "vm_boot_delays",
    "vm_boots_abandoned",
    "prewarm_acks_lost",
    "prewarm_acks_delayed",
    "meter_samples_dropped",
    "meter_outages",
    "vm_preemptions",
)
_CONSEQUENCES = frozenset(("cold_starts_abandoned", "query_retries", "queries_dropped", "vm_boots_abandoned"))


class VMBootFailed(RuntimeError):
    """A VM boot exhausted its retry budget; the deploy is rolled back."""


class FaultStats(EventLog):
    """The run's fault log: one ``(t, kind, service or meter)`` record per event."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("fault kind", FAULT_KINDS)

    @property
    def total_injected(self) -> int:
        """Every primary injection (retries/drops are consequences)."""
        return sum(1 for _t, kind, _w in self.records if kind not in _CONSEQUENCES)


class FaultInjector:
    """Turns a :class:`FaultPlan` into concrete, reproducible decisions."""

    def __init__(self, env: Environment, plan: FaultPlan, rng: RngRegistry) -> None:
        self.env = env
        self.plan = plan
        self.rng = rng
        self.stats = FaultStats()

    def record(self, kind: str, where: str) -> None:
        """Log one ``kind`` event on ``where`` at the current sim time."""
        self.stats.add(self.env.now, kind, where)

    def _hit(self, prob: float, stream: str, kind: str, where: str) -> bool:
        """One Bernoulli draw on ``faults/<stream>/<where>``, only when enabled.

        A hit is logged as ``kind`` on ``where``; a miss logs nothing.
        """
        if prob <= 0.0:
            return False
        hit = self.rng.stream(f"faults/{stream}/{where}").random() < prob
        if hit:
            self.record(kind, where)
        return hit

    # -- serverless containers ---------------------------------------------
    def cold_start_fails(self, service: str) -> bool:
        """Does this cold-start attempt die during runtime boot?"""
        return self._hit(self.plan.cold_start_failure_prob, "coldstart", "cold_start_failures", service)

    def container_crashes(self, service: str) -> bool:
        """Does the container crash while serving this query?"""
        return self._hit(self.plan.container_crash_prob, "crash", "container_crashes", service)

    # -- IaaS VMs ----------------------------------------------------------
    def vm_boot_delay(self, service: str) -> float:
        """Extra seconds this boot attempt straggles (0.0 = on time)."""
        if self._hit(self.plan.vm_boot_delay_prob, "vmboot", "vm_boot_delays", service):
            return self.plan.vm_boot_delay_s
        return 0.0

    def vm_boot_fails(self, service: str) -> bool:
        """Does this boot attempt fail outright?"""
        return self._hit(self.plan.vm_boot_failure_prob, "vmboot", "vm_boot_failures", service)

    def vm_preempted(self, service: str) -> bool:
        """Does the cloud reclaim this service's spot share right now?

        One Bernoulli per watcher interval while the spot rental runs
        (:meth:`repro.iaas.service.IaaSService`).  The stream is only
        touched when ``vm_preemption_prob > 0``, so a zero-preemption
        plan makes zero draws — the bit-identity contract every other
        fault class honours.
        """
        return self._hit(self.plan.vm_preemption_prob, "preemption", "vm_preemptions", service)

    # -- contention meters -------------------------------------------------
    def meter_outage(self, meter: str) -> float:
        """Outage duration starting at this sample (0.0 = meter healthy)."""
        if self._hit(self.plan.meter_outage_prob, "meter", "meter_outages", meter):
            return self.plan.meter_outage_duration_s
        return 0.0

    def meter_sample_dropped(self, meter: str) -> bool:
        """Is this single meter invocation silently lost?"""
        return self._hit(self.plan.meter_drop_prob, "meter", "meter_samples_dropped", meter)

    # -- switch protocol ---------------------------------------------------
    def filter_prewarm_ack(self, service: str, ack: Event) -> Event:
        """The ack the engine actually observes: intact, late, or never.

        A *lost* ack is a fresh event that never fires — the engine's
        ack deadline is what recovers from it.  A *late* ack relays the
        real ack after ``prewarm_ack_delay_s``.  The underlying pool ack
        always fires regardless (the containers really did warm; only
        the acknowledgement path is faulty).
        """
        if self._hit(self.plan.prewarm_ack_loss_prob, "ack", "prewarm_acks_lost", service):
            return self.env.event()
        if self._hit(self.plan.prewarm_ack_delay_prob, "ack", "prewarm_acks_delayed", service):
            delayed = self.env.event()
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
