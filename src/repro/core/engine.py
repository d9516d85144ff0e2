"""The hybrid execution engine (paper §V).

Owns one microservice's two deployments and the route between them:

* **Routing** — queries go to whichever platform is active; while on
  IaaS, a small fraction is *shadowed* to the serverless platform as
  canaries (§III step 1) so the monitor keeps receiving serverless-path
  latency feedback.
* **Switch protocol** (§V-B) — on a switch-in, the engine first sends
  the prewarm signal (Eq. 7 sizing), waits for the platform's
  acknowledgement that the containers are warm, *then* flips the route,
  and finally lets the IaaS side drain and release ("the IaaS platform
  releases the resources after all its allocated queries completed").
  On a switch-out it boots the VMs first, keeps routing to serverless
  until they are ready, then flips; the containers idle out under the
  pool's keep-alive.
* **Amoeba-NoP** (§VII-D) — with prewarming disabled the route flips
  immediately and the first wave of queries pays cold starts.
* **Graceful degradation** — every switch leg runs under a guard that
  cannot leave ``switching`` stuck: the prewarm ack and the VM boot are
  raced against deadlines (a lost ack or a failed boot aborts the
  switch and re-enters dwell), a stuck drain is force-released by a
  watchdog, and any exception inside a switch process aborts cleanly
  instead of wedging the engine.
* **Switch log** — ``legs`` is the engine's one history store: a
  :class:`SwitchLeg` per accepted switch request, closed by its flip or
  its abort.  The Fig. 12 mode timeline, the request markers, the abort
  list and the forced-drain and emergency-switch counts are all read
  from it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.core.config import AmoebaConfig
from repro.core.prewarm import prewarm_count
from repro.iaas import IaaSService
from repro.iaas.service import ServiceState
from repro.overload import OverloadGovernor
from repro.serverless import ServerlessPlatform
from repro.sim import Environment, Event, RngRegistry
from repro.telemetry import ServiceMetrics
from repro.workloads import MicroserviceSpec, Query

__all__ = ["DeployMode", "HybridExecutionEngine", "SwitchLeg"]


class DeployMode(enum.Enum):
    """Which deployment currently serves new queries."""

    IAAS = "iaas"
    SERVERLESS = "serverless"


@dataclass
class SwitchLeg:
    """One accepted switch request, from the request to its flip or abort."""

    #: sim time of the request
    time: float
    target: DeployMode
    #: the load the request was made at
    load: float
    #: a preemption-notice switch-in (dwell waived)
    emergency: bool
    #: sim time the leg flipped the route or aborted; None while in flight
    end: Optional[float] = None
    #: why the leg aborted; None when it flipped (or is still in flight)
    abort_reason: Optional[str] = None
    #: the drain watchdog force-released the previous rental
    forced_drain: bool = False


class HybridExecutionEngine:
    """Router + switch protocol for one microservice."""

    def __init__(
        self,
        env: Environment,
        spec: MicroserviceSpec,
        iaas_service: IaaSService,
        serverless: ServerlessPlatform,
        metrics: ServiceMetrics,
        config: AmoebaConfig,
        rng: RngRegistry,
        initial_mode: DeployMode = DeployMode.IAAS,
        overload: Optional[OverloadGovernor] = None,
    ) -> None:
        self.env = env
        self.spec = spec
        self.iaas = iaas_service
        self.serverless = serverless
        self.metrics = metrics
        self.config = config
        self.rng = rng
        self.overload = overload
        self.mode = initial_mode
        self.switching = False
        self.last_switch_time = -float("inf")
        #: (time, mode) the engine started in — the first timeline point
        self.start: Tuple[float, DeployMode] = (env.now, initial_mode)
        #: every accepted switch request, in order; at most the last one
        #: is in flight
        self.legs: List[SwitchLeg] = []
        self._canary_stream = rng.stream(f"canary/{spec.name}")
        self._canary_ids = 0
        self._drain_event: Optional[Event] = None
        #: sim time until which flash-crowd surge mode stays armed
        self._surge_until = -float("inf")
        # the IaaS platform tells the engine about spot reclamations so
        # it can pin serverless before the capacity actually drops
        iaas_service.on_preemption = self.handle_preemption

    # -- routing ----------------------------------------------------------------
    def route(self, query: Query) -> None:
        """Send one user query to the active deployment."""
        if self.mode is DeployMode.SERVERLESS:
            self.serverless.invoke(query)
            return
        self.iaas.invoke(query)
        # shadow a sample to the serverless platform for feedback
        if self.config.canary_fraction > 0 and (
            self._canary_stream.random() < self.config.canary_fraction
        ):
            self._canary_ids += 1
            shadow = Query(
                qid=-self._canary_ids,
                service=query.service,
                t_submit=self.env.now,
                canary=True,
            )
            self.serverless.invoke(shadow)

    # -- switching --------------------------------------------------------------
    def can_switch(self) -> bool:
        """True when a new switch may be requested.

        Requires: not mid-switch, the minimum dwell has elapsed, and the
        service is not in a breaker-forced brownout (an OPEN breaker pins
        the current mode — flapping deployments while already shedding
        only adds switch-protocol latency to a drowning service).
        """
        return (
            not self.switching
            and (self.env.now - self.last_switch_time) >= self.config.min_dwell
            and not self.in_brownout()
        )

    def in_brownout(self) -> bool:
        """True while the overload breaker holds this service browned out."""
        return self.overload is not None and self.overload.brownout(self.env.now)

    def note_surge(self, until: float) -> None:
        """(Re)arm flash-crowd surge mode until sim time ``until``."""
        self._surge_until = max(self._surge_until, until)

    @property
    def in_surge(self) -> bool:
        """True while the controller's flash-crowd window is armed."""
        return self.env.now < self._surge_until

    def handle_preemption(self, notice_s: float) -> None:
        """React to a spot reclamation notice from the IaaS platform.

        If the service is routed to IaaS and the current load fits the
        serverless container budget, take an *emergency* switch-in (dwell
        does not apply — the capacity is about to drop regardless of how
        recently we switched).  Otherwise stay put: the surviving workers
        plus the booting on-demand replacement are the better option for
        a load the container budget cannot hold.
        """
        if self.mode is not DeployMode.IAAS or self.switching or self.in_brownout():
            return
        load = self.metrics.load.rate(self.env.now)
        needed = prewarm_count(
            load, self.spec.qos_target, headroom=self.config.prewarm_headroom
        )
        if needed > self.serverless.n_max(self.spec.name):
            return
        self.request_switch(DeployMode.SERVERLESS, load, emergency=True)

    def request_switch(self, target: DeployMode, load: float, emergency: bool = False) -> bool:
        """Ask for a deploy-mode switch; returns False if refused.

        Refusals: already in ``target``, a switch is in flight, the
        minimum dwell since the last switch has not elapsed, or the
        overload breaker holds the service in brownout.
        ``emergency=True`` (preemption reaction) waives only the dwell —
        an in-flight switch or a brownout still refuses.  An accepted
        request opens a new :class:`SwitchLeg`.
        """
        if target is self.mode:
            return False
        if emergency:
            if self.switching or self.in_brownout():
                return False
        elif not self.can_switch():
            return False
        self.switching = True
        self.legs.append(SwitchLeg(self.env.now, target, load, emergency))
        if target is DeployMode.SERVERLESS:
            body = self._switch_to_serverless(load)
        else:
            body = self._switch_to_iaas()
        self.env.process(self._guarded(body))
        return True

    def _guarded(self, body: Iterator[Event]) -> Iterator[Event]:
        """Run a switch leg under the no-wedge guarantee.

        Whatever happens inside the body before the flip — a failed boot
        thrown into the generator, a bug, a cancelled event — aborts the
        leg and clears the ``switching`` flag on the way out, so one dead
        switch can never permanently pin the engine.  An exception after
        the flip is not a switch failure and propagates.
        """
        try:
            yield from body
        except Exception as exc:
            if not self.switching:
                raise
            self._abort_switch(f"{type(exc).__name__}: {exc}")
        finally:
            if self.switching:
                self._abort_switch("switch process exited without flipping")

    def _abort_switch(self, reason: str) -> None:
        """Roll the in-flight leg back: clear the flag, re-enter dwell, log."""
        self.switching = False
        self.last_switch_time = self.env.now  # full dwell before retrying
        leg = self.legs[-1]
        leg.end = self.env.now
        leg.abort_reason = reason
        if self.overload is not None:
            # an aborted leg is weighted breaker evidence: a service that
            # keeps failing to switch under load is headed for a brownout
            self.overload.note_switch_abort(self.env.now)

    def _flip(self, target: DeployMode) -> None:
        self.mode = target
        self.legs[-1].end = self.env.now
        self.last_switch_time = self.env.now
        self.switching = False

    def _switch_to_serverless(self, load: float) -> Iterator[Event]:
        if self.config.prewarm:
            demand = load
            if self.overload is not None and self.overload.policy.enabled:
                # Eq. 7 sizes for measured load, but under shedding the
                # measured load is the *survivors*; provision for the
                # traffic being dropped too, or the switch-in inherits
                # the same overload that caused the shedding
                demand += self.overload.shed_rate(self.env.now)
            headroom = self.config.prewarm_headroom
            if self.in_surge:
                # flash crowd in progress: widen the Eq. 7 margin so the
                # spike lands on warm containers instead of cold starts
                headroom += self.config.surge_headroom
            n = prewarm_count(
                demand,
                self.spec.qos_target,
                headroom=headroom,
                n_cap=self.serverless.n_max(self.spec.name),
            )
            ack = self.serverless.prewarm(self.spec.name, n)
            # S_pw: wait for the warm acknowledgement, but only up to the
            # deadline — a lost or straggling ack aborts the switch
            # instead of wedging it (the containers, if they did warm,
            # simply idle out under keep-alive)
            deadline = self.env.timeout(self.config.switch_ack_timeout)
            yield self.env.any_of([ack, deadline])
            if not ack.processed:
                self._abort_switch("prewarm ack deadline")
                return
            if not deadline.processed:
                deadline.cancel()
        else:
            yield self.env.timeout(0.0)  # NoP: flip immediately
        self._flip(DeployMode.SERVERLESS)
        # release the IaaS rental once its in-flight queries drain (S_sd)
        if self.iaas.state is ServiceState.RUNNING:
            self._drain_event = self.iaas.undeploy()

    def _switch_to_iaas(self) -> Iterator[Event]:
        # a rapid flip-back can catch the previous rental still draining;
        # a watchdog bounds how long the stuck drain can hold the switch
        if self.iaas.state is ServiceState.DRAINING and self._drain_event is not None:
            drained = self._drain_event
            watchdog = self.env.timeout(self.config.drain_timeout)
            yield self.env.any_of([drained, watchdog])
            if not drained.processed:
                self.legs[-1].forced_drain = True
                self.iaas.force_release()
            elif not watchdog.processed:
                watchdog.cancel()
            self._drain_event = None
        if self.iaas.state is ServiceState.RUNNING:
            # an earlier aborted switch-out already paid for this boot
            self._flip(DeployMode.IAAS)
            return
        if self.iaas.state is ServiceState.BOOTING and self.iaas.boot_ready is not None:
            ready = self.iaas.boot_ready  # re-join an in-flight boot
        else:
            ready = self.iaas.deploy()
        # wait for the boot up to the deadline; a failed boot (ready
        # fails with VMBootFailed) is thrown into this generator and
        # handled by the guard
        deadline = self.env.timeout(self.config.switch_boot_timeout)
        yield self.env.any_of([ready, deadline])
        if not ready.processed:
            # the boot straggled past the deadline: abort now, and leave
            # a reaper behind to undeploy the rental if the boot lands
            # after nobody wants it anymore
            self.env.process(self._boot_reaper(ready))
            self._abort_switch("vm boot deadline")
            return
        if not deadline.processed:
            deadline.cancel()
        self._flip(DeployMode.IAAS)
        # serverless containers idle out via the pool's keep-alive

    def _boot_reaper(self, ready: Event) -> Iterator[Event]:
        """Clean up after an abandoned boot wait.

        If the boot eventually succeeds while the service is still routed
        to serverless (and no new switch is in flight to claim the VMs),
        the rental would bill forever unused — undeploy it.  If the boot
        fails, swallow the failure (the service already rolled itself
        back to STOPPED).
        """
        try:
            yield ready
        except Exception:
            return
        if self.mode is DeployMode.IAAS or self.switching:
            return
        if self.iaas.state is ServiceState.RUNNING:
            self._drain_event = self.iaas.undeploy()
