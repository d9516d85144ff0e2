"""A deployed IaaS service: rented VMs + worker-slot queueing.

The service holds ``k`` flavors' worth of capacity in one
:class:`~repro.cluster.resource_model.MachineModel` (perfect load
balancing across its own VMs) and admits at most ``n`` concurrent queries
through ``n`` worker slots with a FIFO wait queue, the same counters and
deque the serverless pool keeps per function.  The rented cores
and memory hit the usage ledger for the VMs' entire uptime — that is the
IaaS cost model the paper's Fig. 2/11 comparisons rest on.

Lifecycle: ``deploy()`` boots the VMs (tens of seconds) and only then
reports ready; ``undeploy()`` drains in-flight queries before releasing
the rental (paper §V-B: "the IaaS platform releases the resources after
all its allocated queries completed").
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.cluster import ContentionConfig, DemandVector, MachineModel, SpotSpec, UsageLedger
from repro.faults import FaultInjector, VMBootFailed
from repro.iaas.sizing import RPC_OVERHEAD, SizingResult
from repro.overload import OverloadGovernor
from repro.sim import Environment, Event, RngRegistry, TimeSeries
from repro.sim.events import Callback
from repro.telemetry import ServiceMetrics, drop_query
from repro.workloads import MicroserviceSpec, Query

__all__ = ["IaaSService", "ServiceState"]


class ServiceState(enum.Enum):
    """Deployment lifecycle of an IaaS service."""

    STOPPED = "stopped"
    BOOTING = "booting"
    RUNNING = "running"
    DRAINING = "draining"


class IaaSService:
    """One microservice rented onto IaaS VMs."""

    def __init__(
        self,
        env: Environment,
        spec: MicroserviceSpec,
        sizing: SizingResult,
        rng: RngRegistry,
        metrics: Optional[ServiceMetrics] = None,
        ledger: Optional[UsageLedger] = None,
        contention: Optional[ContentionConfig] = None,
        faults: Optional[FaultInjector] = None,
        overload: Optional[OverloadGovernor] = None,
        spot: Optional[SpotSpec] = None,
    ):
        if sizing.workers < 1:
            raise ValueError(f"{spec.name}: workers must be >= 1, got {sizing.workers}")
        self.env = env
        self.spec = spec
        self.sizing = sizing
        self.rng = rng
        self.metrics = metrics
        self.faults = faults
        self.overload = overload
        self.ledger = ledger if ledger is not None else UsageLedger(env, f"iaas/{spec.name}")
        self.spot = spot if spot is not None and spot.fraction > 0.0 else None
        flavor = sizing.flavor
        k = sizing.vm_count
        self.machine = MachineModel(
            env,
            cores=k * flavor.cores,
            io_mbps=k * flavor.io_mbps,
            net_mbps=k * flavor.net_mbps,
            config=contention,
        )
        #: worker slots (shrinks while a spot share is reclaimed), the
        #: slots executing or about to start, and the queries waiting for
        #: one with their queue-entry time.  The overload layer bounds the
        #: wait queue at admission when a policy is enabled; the open-loop
        #: Nameko baseline deliberately measures the unbounded backlog.
        self._slots = sizing.workers
        self._busy = 0
        self._waiting: Deque[Tuple[Query, float]] = deque()  # simlint: ignore[SIM010]
        self._exec_draw = rng.lognormal_sampler(
            f"iaas-exec/{spec.name}", spec.exec_time, spec.exec_sigma
        )
        self.state = ServiceState.STOPPED
        self.in_flight = 0
        self.completions = 0
        #: worker-queue depth observability, sampled around each request
        self.queue_depth = TimeSeries(min_interval=1.0)
        #: exact high-water mark (the TimeSeries decimates, this does not)
        self.peak_queue_depth = 0
        self._drained: Optional[Event] = None
        #: the pending deploy() ready event while BOOTING — lets a caller
        #: that aborted its own wait re-join an in-progress boot instead
        #: of raising on a second deploy()
        self.boot_ready: Optional[Event] = None
        # -- spot rental state (inert when self.spot is None) ----------------
        frac = self.spot.fraction if self.spot is not None else 0.0
        #: the reclaimable share of the rental, billed at the spot rate
        self.spot_cores = sizing.rented_cores * frac
        self.spot_memory_mb = sizing.rented_memory_mb * frac
        self._spot_workers = round(sizing.workers * frac)
        #: worker slots left after the cloud takes the spot share back
        self._surviving_workers = max(1, sizing.workers - self._spot_workers)
        self.spot_ledger: Optional[UsageLedger] = (
            UsageLedger(env, f"iaas-spot/{spec.name}") if self.spot is not None else None
        )
        #: one reclamation episode per run: True from the notice onward
        self.preempted = False
        #: True once the on-demand replacement restored full capacity
        self.replaced = False
        self._spot_held = False
        #: amounts currently held on the on-demand ledger (the spot split
        #: means releases must mirror what was actually acquired)
        self._held_cores = 0.0
        self._held_memory_mb = 0.0
        self._watch_started = False
        self._bg_remove: Optional[Callable[[], None]] = None
        #: executing user queries by start token (insertion-ordered), so a
        #: hard reclamation can kill the most recently started ones
        self._active: Dict[int, Query] = {}
        self._tokens = itertools.count()
        #: platform hook fired at the preemption notice (the engine's
        #: chance to pin serverless before the deadline); receives the
        #: notice lead time in seconds (0.0 for a no-notice hard kill)
        self.on_preemption: Optional[Callable[[float], None]] = None

    # -- lifecycle -----------------------------------------------------------
    def deploy(self, instant: bool = False) -> Event:
        """Boot the VMs; the returned event fires when the service is ready.

        ``instant=True`` skips the boot delay (used to stand the initial
        deployment up at t=0, where the paper's services are already
        running when the experiment begins).
        """
        if self.state is not ServiceState.STOPPED:
            raise RuntimeError(f"deploy() in state {self.state}")
        self.state = ServiceState.BOOTING
        ready = self.env.event()
        self.boot_ready = ready
        if instant:
            self._finish_boot(ready)
        else:
            self.env.process(self._boot(ready))
        return ready

    def _boot(self, ready: Event):
        flavor = self.sizing.flavor
        name = self.spec.name
        attempts = 0
        while True:
            boot = self.rng.lognormal_around(
                f"vmboot/{name}", flavor.boot_median, flavor.boot_sigma
            )
            if self.faults is not None:
                # a straggling hypervisor stretches this attempt
                boot += self.faults.vm_boot_delay(name)
            yield self.env.timeout(boot)
            if self.faults is None or not self.faults.vm_boot_fails(name):
                break
            plan = self.faults.plan
            if attempts < plan.max_boot_retries:
                attempts += 1
                yield self.env.timeout(plan.boot_retry_backoff_s * attempts)
                continue
            # give up: roll the deploy back so a later deploy() can work
            self.faults.stats.vm_boots_abandoned += 1
            self.state = ServiceState.STOPPED
            self.boot_ready = None
            ready.fail(VMBootFailed(f"{name}: boot failed after {attempts + 1} attempts"))
            return
        self._finish_boot(ready)

    def _finish_boot(self, ready: Event) -> None:
        self.state = ServiceState.RUNNING
        self.boot_ready = None
        if self.spot is not None and not self.preempted:
            # split the rental: the spot share bills on its own ledger at
            # the discounted rate, the rest is ordinary on-demand
            ondemand_cores = self.sizing.rented_cores - self.spot_cores
            ondemand_mem = self.sizing.rented_memory_mb - self.spot_memory_mb
            assert self.spot_ledger is not None
            self.spot_ledger.acquire(self.spot_cores, self.spot_memory_mb)
            self._spot_held = True
            self.ledger.acquire(ondemand_cores, ondemand_mem)
            self._held_cores = ondemand_cores
            self._held_memory_mb = ondemand_mem
            self._start_preemption_watch()
        else:
            self.ledger.acquire(self.sizing.rented_cores, self.sizing.rented_memory_mb)
            self._held_cores = self.sizing.rented_cores
            self._held_memory_mb = self.sizing.rented_memory_mb
        ready.succeed()

    def undeploy(self) -> Event:
        """Drain in-flight queries, then release the rental.

        The returned event fires once the resources are actually freed.
        """
        if self.state is not ServiceState.RUNNING:
            raise RuntimeError(f"undeploy() in state {self.state}")
        self.state = ServiceState.DRAINING
        done = self.env.event()
        self._drained = done
        self._maybe_release()
        return done

    def _release_rental(self) -> None:
        """Free whatever the service currently holds on either ledger."""
        self.ledger.release(self._held_cores, self._held_memory_mb)
        self._held_cores = 0.0
        self._held_memory_mb = 0.0
        if self._spot_held:
            assert self.spot_ledger is not None
            self.spot_ledger.release(self.spot_cores, self.spot_memory_mb)
            self._spot_held = False

    def _maybe_release(self) -> None:
        if self.state is ServiceState.DRAINING and self.in_flight == 0:
            self.state = ServiceState.STOPPED
            self._release_rental()
            if self._drained is not None:
                self._drained.succeed()
                self._drained = None

    def force_release(self) -> None:
        """Release a DRAINING rental now, stuck in-flight work or not.

        The engine's drain watchdog calls this when a drain exceeds its
        deadline: the rental cost stops accruing and the drain event
        fires so a waiting switch-out can proceed.  Queries still in
        flight finish on the (already-freed) machine model; their late
        ``_maybe_release`` calls are no-ops because the state has left
        DRAINING.  No-op unless currently DRAINING.
        """
        if self.state is not ServiceState.DRAINING:
            return
        self.state = ServiceState.STOPPED
        self._release_rental()
        if self._drained is not None:
            drained = self._drained
            self._drained = None
            if not drained.triggered:
                drained.succeed()

    # -- spot preemption ---------------------------------------------------------
    def _start_preemption_watch(self) -> None:
        """Arm the reclamation watcher (once) for a spot-backed rental.

        Draws come from the dedicated ``faults/preemption/<svc>`` stream
        on the plan's check interval; with ``vm_preemption_prob == 0``
        nothing is armed and zero draws are made, keeping the zero plan
        bit-identical to a run without spot capacity.
        """
        if self._watch_started or self.preempted:
            return
        if self.faults is None or self.faults.plan.vm_preemption_prob <= 0.0:
            return
        if self.faults.plan.preemption_check_interval_s <= 0.0:
            return
        self._watch_started = True
        self.env.process(self._preemption_watch())

    def _preemption_watch(self):
        assert self.faults is not None
        interval = self.faults.plan.preemption_check_interval_s
        while not self.preempted:
            yield self.env.timeout(interval)
            if self.preempted:
                return
            if self.state is not ServiceState.RUNNING:
                continue
            if self.faults.vm_preempted(self.spec.name):
                self._begin_preemption()
                return

    def _begin_preemption(self) -> None:
        """The cloud reclaims the spot share — one episode per run.

        Graceful (``SpotSpec.graceful`` with a positive notice): the
        doomed slots stop dispatching a drain-lead before the deadline so
        in-flight work can finish, the on-demand replacement boots
        immediately (a notice longer than a VM boot means capacity never
        dips), and the share is only taken at the deadline.  Hard kill
        (no notice): the share vanishes now and whatever executed on it
        dies mid-flight.
        """
        spot = self.spot
        assert spot is not None
        self.preempted = True
        graceful = spot.graceful and spot.notice_s > 0.0
        notice = spot.notice_s if graceful else 0.0
        if graceful and self.metrics is not None:
            self.metrics.preemptions.add("noticed")
        # the replacement starts booting at the notice, not the deadline
        self.env.process(self._replacement_boot())
        if self.on_preemption is not None:
            self.on_preemption(notice)
        if graceful:
            lead = min(notice, max(5.0, 8.0 * self.sizing.effective_service_time))
            self.env.schedule_callback(max(0.0, notice - lead), self._stop_doomed_dispatch)
            self.env.schedule_callback(notice, self._reclaim_spot)
        else:
            self._stop_doomed_dispatch()
            self._reclaim_spot()

    def _stop_doomed_dispatch(self) -> None:
        """Shrink the worker pool to the surviving on-demand slots."""
        if self.replaced:
            return  # the replacement already covers the doomed share
        self._slots = self._surviving_workers

    def _reclaim_spot(self) -> None:
        """Deadline: the spot share is gone (billing, capacity, victims)."""
        if self._spot_held:
            assert self.spot_ledger is not None
            self.spot_ledger.release(self.spot_cores, self.spot_memory_mb)
            self._spot_held = False
        if not self.replaced and self._bg_remove is None and self.spot_cores > 0.0:
            # the reclaimed cores show up as standing pressure on the
            # shared machine model until the replacement arrives
            flavor = self.sizing.flavor
            frac = self.spot.fraction if self.spot is not None else 0.0
            self._bg_remove = self.machine.inject_background(
                DemandVector(
                    cpu=self.spot_cores,
                    io_mbps=self.sizing.vm_count * flavor.io_mbps * frac,
                    net_mbps=self.sizing.vm_count * flavor.net_mbps * frac,
                )
            )
        victims = max(0, self._busy - self._slots)
        if victims > 0:
            self._kill_victims(victims)
        elif self.spot is not None and self.spot.graceful and self.metrics is not None:
            self.metrics.preemptions.add("drained")

    def _kill_victims(self, count: int) -> None:
        """Kill the ``count`` most recently started executions.

        Each victim is a terminal ``preempted`` drop at kill time; the
        serving chain later sees :attr:`Query.preempt_killed` and skips
        its own terminal accounting (the leftover machine work is the
        reclamation thrash the graceful path exists to avoid).
        """
        doomed = list(self._active.items())[-count:]
        now = self.env.now
        for token, query in doomed:
            del self._active[token]
            query.preempt_killed = True
            if self.metrics is not None:
                self.metrics.preemptions.add("killed_inflight")
            drop_query(query, "preempted", now, "iaas", self.metrics, self.overload)
            self.in_flight -= 1
        self._maybe_release()

    def _replacement_boot(self):
        """Boot the on-demand replacement for the reclaimed share."""
        flavor = self.sizing.flavor
        boot = self.rng.lognormal_around(
            f"vmboot/{self.spec.name}", flavor.boot_median, flavor.boot_sigma
        )
        yield self.env.timeout(boot)
        self._restore_capacity()

    def _restore_capacity(self) -> None:
        self.replaced = True
        if self._bg_remove is not None:
            self._bg_remove()
            self._bg_remove = None
        self._slots = self.sizing.workers
        self._grant()
        # re-rent the reclaimed share at the on-demand rate while the
        # rental is live; top up to the full sizing so a redeploy that
        # already acquired everything is not double-billed
        if self._held_cores > 0.0 or self._spot_held:
            missing_cores = max(0.0, self.sizing.rented_cores - self._held_cores)
            missing_mem = max(0.0, self.sizing.rented_memory_mb - self._held_memory_mb)
            if missing_cores > 0.0 or missing_mem > 0.0:
                self.ledger.acquire(missing_cores, missing_mem)
                self._held_cores += missing_cores
                self._held_memory_mb += missing_mem
        if self.metrics is not None:
            self.metrics.preemptions.add("replaced")

    # -- serving ----------------------------------------------------------------
    def invoke(self, query: Query) -> None:
        """Serve one query (open loop).

        Accepted while RUNNING or DRAINING (a drain finishes the queries
        already routed here; the engine stops routing new ones first).
        """
        if self.state in (ServiceState.STOPPED, ServiceState.BOOTING):
            raise RuntimeError(f"invoke() while {self.spec.name} is {self.state.value}")
        now = self.env.now
        metrics = self.metrics
        if metrics is not None:
            metrics.record_arrival(now, query.canary)
        gov = self.overload
        if gov is not None:
            reason = gov.admit(
                len(self._waiting), self._busy, self._worker_capacity,
                gov.mu_iaas, now, query.local_budget(now),
            )
            if reason is not None:
                # rejected at dispatch (reason admission/breaker)
                drop_query(query, reason, now, "iaas", metrics, gov)
                return
        self.in_flight += 1
        # Nameko RPC dispatch overhead.  The query runs as a callback chain
        # (this call, the worker grant, the machine's completion callback):
        # a generator process would add a bootstrap event and a timeout
        Callback(self.env, RPC_OVERHEAD, partial(self._claim_worker, query))

    def _worker_capacity(self) -> int:
        """Worker slots right now (admission reads it at the M/M/N check)."""
        return self._slots

    def _claim_worker(self, query: Query) -> None:
        """The RPC overhead has passed: queue for a worker slot."""
        query.breakdown["proc"] = RPC_OVERHEAD
        t_q = self.env.now
        waiting = self._waiting
        if self._busy < self._slots:
            self._busy += 1
            Callback(self.env, 0.0, partial(self._start, query, t_q))
        else:
            waiting.append((query, t_q))
        depth = len(waiting)
        self.queue_depth.record(t_q, float(depth))
        if depth > self.peak_queue_depth:
            self.peak_queue_depth = depth

    def _grant(self) -> None:
        """Start waiting queries, oldest first, on the free worker slots.

        Each grant is a zero-delay callback, so a granted query starts
        after the events already due at this instant.
        """
        waiting = self._waiting
        while waiting and self._busy < self._slots:
            query, t_q = waiting.popleft()
            self._busy += 1
            Callback(self.env, 0.0, partial(self._start, query, t_q))

    def _start(self, query: Query, t_q: float) -> None:
        """A worker slot was granted: shed the query or execute it."""
        spec = self.spec
        gov = self.overload
        now = self.env.now
        self.queue_depth.record(now, float(len(self._waiting)))
        wait = now - t_q
        query.breakdown["queue"] = wait
        if gov is not None and gov.should_shed(wait, target=query.local_budget(t_q)):
            # the query's accumulated queue wait already blew its budget:
            # free the worker slot for one that can still meet QoS
            self._busy -= 1
            self._grant()
            drop_query(query, "shed", now, "iaas", self.metrics, gov)
            self.in_flight -= 1
            self._maybe_release()
            return
        work = self._exec_draw()
        token = next(self._tokens)
        self._active[token] = query
        self.machine.execute(
            work, spec.demand, spec.sensitivity, partial(self._finish, query, token)
        )

    def _finish(self, query: Query, token: int, exec_t: float) -> None:
        """The contended execution finished: settle the query."""
        spec = self.spec
        gov = self.overload
        self._active.pop(token, None)
        self._busy -= 1
        self._grant()
        if query.preempt_killed:
            # terminal accounting already happened at the reclamation;
            # the machine work that just finished was the ghost of the
            # killed execution
            return
        now = self.env.now
        query.breakdown["exec"] = exec_t
        query.t_complete = now
        query.served_by = "iaas"
        if self.metrics is not None:
            self.metrics.record_completion(query)
        if gov is not None and not query.canary:
            gov.note_outcome(query.latency <= spec.qos_target, now)
        query.notify_done()
        self.completions += 1
        self.in_flight -= 1
        self._maybe_release()
