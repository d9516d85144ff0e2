"""Memory-capped, per-function container pool with FIFO dispatch.

Scheduling policy (paper Fig. 7): each function has a FIFO queue of
pending invocations.  An arriving invocation takes a warm idle container
if one exists; otherwise, if pool memory and the function's concurrency
limit allow, a *cold start is pledged* — a new container begins
initializing and will take the oldest queued invocation when ready.
Invocations that can do neither wait in the queue for the next container
to free up.

Cold starts take the paper's one-to-three seconds (runtime boot) plus a
code pull that *contends for disk bandwidth* on the shared machine model,
so heavy IO tenants lengthen cold starts — one of the cross-resource
effects the contention monitor exists to capture.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Deque, Dict, Iterator, Optional, Tuple

from repro.cluster import DemandVector, MachineModel, SensitivityVector, UsageLedger
from repro.faults import FaultInjector
from repro.overload import OverloadGovernor
from repro.serverless.config import ServerlessConfig
from repro.serverless.container import Container, ContainerState
from repro.sim import Environment, Event, RngRegistry, TimeSeries
from repro.sim.events import Callback
from repro.telemetry import ServiceMetrics, drop_query
from repro.workloads import MicroserviceSpec, Query

__all__ = ["ContainerPool", "FunctionState"]

#: demand one cold-starting container's code pull places on the machine
_COLD_PULL_SENS = SensitivityVector(cpu=0.1, io=1.0, net=0.0)


@dataclass
class FunctionState:
    """Pool-side bookkeeping for one registered function."""

    spec: MicroserviceSpec
    metrics: Optional[ServiceMetrics]
    ledger: UsageLedger
    limit: int
    #: idle-container lifetime; None = the pool default.  Zero disables
    #: warm reuse entirely (every query cold starts — Amoeba-NoP's world).
    keep_alive: Optional[float] = None
    #: pending invocations.  Bounded by the overload layer at admission
    #: when a policy is enabled; open-loop baselines deliberately measure
    #: the unbounded backlog (tests/serverless/test_pool_overload.py).
    queue: Deque[Tuple[Query, float]] = field(default_factory=deque)  # simlint: ignore[SIM010]
    idle: Deque[Container] = field(default_factory=deque)
    n_init: int = 0
    n_busy: int = 0
    cold_starts: int = 0
    completions: int = 0
    #: accepted, non-canary queries not yet terminal anywhere in the
    #: platform (front-end delay, queue, container, retry backoff) — the
    #: serverless half of the invariant monitor's conservation census
    user_in_flight: int = 0
    #: total billed execution seconds (code load + execution + posting),
    #: the maintainer-side GB-second basis (see repro.cluster.pricing)
    busy_seconds: float = 0.0
    #: shared per-microservice overload governor (None = no protection)
    overload: Optional[OverloadGovernor] = None
    #: queue-depth observability, sampled on every enqueue/dequeue
    queue_depth: TimeSeries = field(default_factory=lambda: TimeSeries(min_interval=1.0))
    #: exact high-water mark (the TimeSeries decimates, this does not)
    peak_queue_depth: int = 0
    #: events fired when an in-flight cold start turns warm (prewarm acks)
    _ready_events: Deque[Event] = field(default_factory=deque)
    #: the single armed keep-alive reaper timer (None when disarmed) and
    #: the deadline it is armed for — one timer per function, not one per
    #: idle container (see ContainerPool._arm_reaper)
    _reap_timer: Optional[Event] = None
    _reap_deadline: float = math.inf
    #: cached per-function RNG samplers (built at registration; stream
    #: identity is name-keyed, so caching changes no draw sequence)
    _warm_draw: Optional[Callable[[], float]] = None
    _exec_draw: Optional[Callable[[], float]] = None
    #: this function's :meth:`ContainerPool.n_max`, computed on call
    #: (admission only reaches it at the M/M/N check)
    capacity: Callable[[], int] = field(init=False)

    @property
    def total_containers(self) -> int:
        """Containers currently alive for this function (any state)."""
        return self.n_init + self.n_busy + len(self.idle)

    @property
    def warm_or_warming(self) -> int:
        """Idle plus initializing containers (prewarm deficit basis)."""
        return self.n_init + len(self.idle)


class ContainerPool:
    """All container lifecycle and dispatch for one serverless node."""

    def __init__(
        self,
        env: Environment,
        machine: MachineModel,
        config: ServerlessConfig,
        rng: RngRegistry,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.env = env
        self.machine = machine
        self.config = config
        self.rng = rng
        self.faults = faults
        self._functions: Dict[str, FunctionState] = {}
        self._container_memory_in_use = 0.0

    # -- registration -------------------------------------------------------
    def register(
        self,
        spec: MicroserviceSpec,
        metrics: Optional[ServiceMetrics] = None,
        ledger: Optional[UsageLedger] = None,
        limit: Optional[int] = None,
        keep_alive: Optional[float] = None,
        overload: Optional[OverloadGovernor] = None,
    ) -> FunctionState:
        """Make ``spec`` invocable; returns its pool state."""
        if spec.name in self._functions:
            raise ValueError(f"function {spec.name!r} already registered")
        if keep_alive is not None and keep_alive < 0:
            raise ValueError(f"keep_alive must be >= 0, got {keep_alive}")
        fs = FunctionState(
            spec=spec,
            metrics=metrics,
            ledger=ledger if ledger is not None else UsageLedger(self.env, f"sls/{spec.name}"),
            limit=limit if limit is not None else self.config.concurrency_limit,
            keep_alive=keep_alive,
            overload=overload,
        )
        fs.capacity = partial(self._n_max_of, fs)
        fs._warm_draw = self.rng.lognormal_sampler(f"warmload/{spec.name}", 1.0, 0.15)
        fs._exec_draw = self.rng.lognormal_sampler(
            f"exec/{spec.name}", spec.exec_time, spec.exec_sigma
        )
        self._functions[spec.name] = fs
        return fs

    def state(self, name: str) -> FunctionState:
        """Pool state of a registered function."""
        try:
            return self._functions[name]
        except KeyError:
            raise KeyError(f"function {name!r} not registered") from None

    @property
    def container_memory_in_use(self) -> float:
        """Total MB held by live containers across all functions."""
        return self._container_memory_in_use

    def n_max(self, name: str) -> int:
        """Paper §IV-A upper container limit for one function.

        ``n_max = min(concurrency limit, free-memory bound)`` — the
        free-memory bound counts this function's own containers as
        reusable.
        """
        return self._n_max_of(self.state(name))

    def _n_max_of(self, fs: FunctionState) -> int:
        cfg = self.config
        free_mb = cfg.pool_memory_mb - self._container_memory_in_use
        own_mb = (fs.n_init + fs.n_busy + len(fs.idle)) * cfg.container_memory_mb
        mem_bound = int((free_mb + own_mb) // cfg.container_memory_mb)
        return min(fs.limit, mem_bound)

    # -- submission -----------------------------------------------------------
    def submit(self, query: Query) -> None:
        """Enqueue one invocation (front-end overhead already paid)."""
        self._submit(self.state(query.service), query)

    def _submit(self, fs: FunctionState, query: Query) -> None:
        """``submit`` for a caller that already holds the function's state."""
        now = self.env.now
        if not fs.queue and fs.idle:
            # warm fast path: what enqueue + _take would do, minus the
            # round trip through the queue.  The depth-1 sample they would
            # record is overwritten at this same instant by the depth-0
            # one (min_interval > 0), so only the latter is recorded.
            fs.queue_depth.record(now, 0.0)
            if fs.peak_queue_depth < 1:
                fs.peak_queue_depth = 1
            gov = fs.overload
            if gov is not None and gov.should_shed(0.0, target=query.local_budget(now)):
                self._shed(fs, query, 0.0, now)
                return
            self._assign(fs, fs.idle.popleft(), query, now)
            return
        fs.queue.append((query, now))
        self._note_queue(fs, now)
        self._pump(fs)

    def _pump(self, fs: FunctionState) -> None:
        """Restore the dispatch invariant for one function."""
        # serve queued work with idle containers
        while fs.queue and fs.idle:
            nxt = self._take(fs)
            if nxt is None:
                break
            container = fs.idle.popleft()
            self._assign(fs, container, nxt[0], nxt[1])
        # pledge cold starts for backlog not already covered by warming ones
        while len(fs.queue) > fs.n_init and self._can_launch(fs):
            self._launch(fs)

    def _note_queue(self, fs: FunctionState, now: float) -> None:
        """Sample the queue depth into the observability timeline."""
        depth = len(fs.queue)
        fs.queue_depth.record(now, float(depth))
        if depth > fs.peak_queue_depth:
            fs.peak_queue_depth = depth

    def _take(self, fs: FunctionState) -> Optional[Tuple[Query, float]]:
        """Pop the next servable invocation, shedding expired ones.

        Every dequeue path goes through here so the queue-wait budget is
        enforced uniformly: a query whose accumulated wait already
        exceeds ``overload.wait_budget`` is dead on arrival at a server
        and is dropped (reason ``shed``) rather than occupying one.
        """
        gov = fs.overload
        now = self.env.now
        queue = fs.queue
        while queue:
            query, t_enq = queue.popleft()
            self._note_queue(fs, now)
            if gov is not None and gov.should_shed(now - t_enq, target=query.local_budget(t_enq)):
                self._shed(fs, query, now - t_enq, now)
                continue
            return query, t_enq
        return None

    def _shed(self, fs: FunctionState, query: Query, waited: float, now: float) -> None:
        """Drop one expired queued query (reason ``shed``)."""
        query.breakdown["queue"] = waited
        if not query.canary:
            fs.user_in_flight -= 1
        drop_query(query, "shed", now, "serverless", fs.metrics, fs.overload)

    def _can_launch(self, fs: FunctionState) -> bool:
        cfg = self.config
        fits = self._container_memory_in_use + cfg.container_memory_mb <= cfg.pool_memory_mb
        return fits and fs.total_containers < fs.limit

    # -- container lifecycle ----------------------------------------------------
    def _launch(self, fs: FunctionState, prewarmed: bool = False) -> Event:
        """Begin a cold start; returns an event fired when the container is warm."""
        cfg = self.config
        container = Container(fs.spec, self.env.now, prewarmed=prewarmed)
        fs.n_init += 1
        fs.cold_starts += 1
        self._container_memory_in_use += cfg.container_memory_mb
        fs.ledger.acquire(cfg.idle_cpu, cfg.container_memory_mb)
        ready = self.env.event()
        fs._ready_events.append(ready)
        self.env.process(self._cold_start(fs, container, ready))
        return ready

    def _cold_start(self, fs: FunctionState, container: Container, ready: Event) -> Iterator[Event]:
        cfg = self.config
        attempts = 0
        while True:
            boot = self.rng.lognormal_around(
                f"coldstart/{fs.spec.name}", cfg.cold_start_median, cfg.cold_start_sigma
            )
            yield self.env.timeout(boot)
            # code/image pull contends for disk bandwidth
            pull_work = fs.spec.code_mb / cfg.cold_load_mbps
            # the machine calls pull.succeed(duration) when the pull
            # finishes; waiting on that event keeps the generator's order
            pull = self.env.event()
            self.machine.execute(
                pull_work,
                DemandVector(cpu=0.2, io_mbps=cfg.cold_load_mbps),
                _COLD_PULL_SENS,
                pull.succeed,
            )
            yield pull
            if self.faults is None or not self.faults.cold_start_fails(fs.spec.name):
                break
            plan = self.faults.plan
            if attempts < plan.max_cold_start_retries:
                # the runtime crashed during boot: relaunch in place (the
                # pledge — memory, ledger, n_init — stays held), with a
                # deterministic linear backoff
                attempts += 1
                yield self.env.timeout(plan.cold_start_retry_backoff_s * attempts)
                continue
            # retry budget exhausted: abandon the pledge.  The oldest
            # pending ready event resolves with None (so prewarm AllOfs
            # still fire) and the pump re-plans for any backlog that was
            # counting on this container.
            self.faults.stats.cold_starts_abandoned += 1
            fs.n_init -= 1
            self._retire(fs, container)
            container.state = ContainerState.CRASHED
            if fs._ready_events:
                fs._ready_events.popleft().succeed(None)
            self._pump(fs)
            return
        fs.n_init -= 1
        container.state = ContainerState.IDLE
        container.warm_since = self.env.now
        if fs._ready_events:
            fs._ready_events.popleft().succeed(container.cid)
        nxt = self._take(fs)
        if nxt is not None:
            self._assign(fs, container, nxt[0], nxt[1], fresh_cold=True)
        else:
            self._idle(fs, container)

    def _retire(self, fs: FunctionState, container: Container) -> None:
        """Tear a container down and return its memory to the pool."""
        container.state = ContainerState.DEAD
        self._container_memory_in_use -= self.config.container_memory_mb
        fs.ledger.release(self.config.idle_cpu, self.config.container_memory_mb)

    def _keep_alive_of(self, fs: FunctionState) -> float:
        return fs.keep_alive if fs.keep_alive is not None else self.config.keep_alive

    def _idle(self, fs: FunctionState, container: Container) -> None:
        """Park a container as warm-idle under the function's reaper."""
        keep_alive = self._keep_alive_of(fs)
        if keep_alive <= 0.0 and container.invocations > 0:
            # warm reuse disabled: tear the container down right away
            self._retire(fs, container)
            return
        now = self.env.now
        container.state = ContainerState.IDLE
        container.warm_since = now
        container.reap_at = now + max(keep_alive, 1e-3)
        fs.idle.append(container)
        self._arm_reaper(fs)

    def _arm_reaper(self, fs: FunctionState) -> None:
        """Keep exactly one keep-alive timer per function.

        Containers are parked in arrival order with a fixed lifetime, so
        ``fs.idle`` is always sorted by ``reap_at`` and one timer armed
        at the *front* deadline covers every idle container.  Parking
        while a timer is already armed costs nothing (the armed deadline
        can only be earlier), and warm reuse never needs to cancel —
        a firing that finds nothing expired simply re-arms.  At fleet
        scale this turns two heap operations per warm reuse into zero.
        """
        if not fs.idle:
            return
        front = fs.idle[0].reap_at
        if fs._reap_timer is not None and fs._reap_deadline <= front:
            return
        # an armed-later timer cannot happen (deadlines are monotone and
        # the front only moves forward), so arming here means no timer
        fs._reap_deadline = front
        # the 1e-9 floor guards re-arms whose float-rounded delay would
        # land an ulp short of the deadline and spin
        fs._reap_timer = self.env.schedule_callback(
            max(front - self.env.now, 1e-9), lambda: self._reap_due(fs)
        )

    def _reap_due(self, fs: FunctionState) -> None:
        """Retire every idle container whose keep-alive has expired."""
        fs._reap_timer = None
        fs._reap_deadline = math.inf
        now = self.env.now
        idle = fs.idle
        while idle and idle[0].reap_at <= now:
            self._retire(fs, idle.popleft())
        self._arm_reaper(fs)

    def _assign(
        self,
        fs: FunctionState,
        container: Container,
        query: Query,
        t_enqueue: float,
        fresh_cold: bool = False,
    ) -> None:
        container.state = ContainerState.BUSY
        # no reap timer to cancel: the per-function reaper skips
        # containers that are no longer parked in the idle deque
        fs.n_busy += 1
        now = self.env.now
        wait = now - t_enqueue
        if fresh_cold:
            # the query waited (at least partly) on this container's cold
            # start: attribute that share of the wait to "cold"
            cold_elapsed = now - container.created_at
            cold_part = min(wait, cold_elapsed)
            query.breakdown["cold"] = cold_part
            query.breakdown["queue"] = wait - cold_part
        else:
            query.breakdown["queue"] = wait
        self._run(fs, container, query)

    def _run(self, fs: FunctionState, container: Container, query: Query) -> None:
        """Drive one query through load → contended exec → result posting.

        This is a callback chain, not a generator process: the per-query
        hot path is four kernel events lighter that way (no bootstrap, no
        process-completion event, no generator frames), and the machine
        calls ``after_exec`` itself when the execution ends.  Draw order per
        RNG stream is unchanged — the load draw happens at assign time,
        which is the order the process bootstraps replayed.
        """
        env = self.env
        cfg = self.config
        spec = fs.spec
        # per-query (warm) code/data loading
        load_t = (spec.code_mb / cfg.warm_load_mbps) * fs._warm_draw()

        if self.faults is not None and self.faults.container_crashes(spec.name):
            # the container dies during the load stage; the crash is
            # noticed crash_detect_s later and the query re-enters the
            # queue (or is dropped once its retry budget is spent)
            Callback(
                env,
                load_t + self.faults.plan.crash_detect_s,
                lambda: self._crash(fs, container, query),
            )
            return

        def start_exec() -> None:
            # contended execution
            work = fs._exec_draw()
            fs.ledger.acquire(spec.demand.cpu, 0.0)
            self.machine.execute(work, spec.demand, spec.sensitivity, after_exec)

        def after_exec(exec_t: float) -> None:
            fs.ledger.release(spec.demand.cpu, 0.0)
            # result posting
            post_t = cfg.post_overhead_base + spec.result_mb / cfg.post_mbps
            Callback(env, post_t, lambda: self._complete(fs, container, query, load_t, exec_t, post_t))

        Callback(env, load_t, start_exec)

    def _crash(self, fs: FunctionState, container: Container, query: Query) -> None:
        """A container died mid-query: retire it, retry or drop the query."""
        assert self.faults is not None
        plan = self.faults.plan
        fs.n_busy -= 1
        self._retire(fs, container)
        container.state = ContainerState.CRASHED
        query.attempts += 1
        if query.attempts <= plan.max_query_retries:
            self.faults.stats.query_retries += 1
            if fs.metrics is not None:
                fs.metrics.retries.add("attempted")
            backoff = plan.retry_backoff_s * query.attempts
            self.env.schedule_callback(max(backoff, 1e-6), lambda: self.submit(query))
        else:
            self.faults.stats.queries_dropped += 1
            if fs.metrics is not None:
                fs.metrics.retries.add("exhausted")
            if not query.canary:
                fs.user_in_flight -= 1
            drop_query(query, "crash", self.env.now, "serverless", fs.metrics, fs.overload)
        self._pump(fs)

    def _complete(
        self,
        fs: FunctionState,
        container: Container,
        query: Query,
        load_t: float,
        exec_t: float,
        post_t: float,
    ) -> None:
        query.breakdown["load"] = load_t
        query.breakdown["exec"] = exec_t
        query.breakdown["post"] = post_t
        now = self.env.now
        query.t_complete = now
        query.served_by = "serverless"
        if fs.metrics is not None:
            fs.metrics.record_completion(query)
        if fs.overload is not None and not query.canary:
            fs.overload.note_outcome(query.latency <= fs.spec.qos_target, now)
        if not query.canary:
            fs.user_in_flight -= 1
        query.notify_done()
        fs.completions += 1
        fs.busy_seconds += load_t + exec_t + post_t
        container.invocations += 1
        fs.n_busy -= 1
        if self._keep_alive_of(fs) <= 0.0:
            # no warm reuse at all (Amoeba-NoP): the container dies and
            # queued work must cold start afresh
            self._retire(fs, container)
        else:
            nxt = self._take(fs)
            if nxt is not None:
                # reuse for queued work
                self._assign(fs, container, nxt[0], nxt[1])
            else:
                self._idle(fs, container)
        # backlog may still exceed pledged cold starts (e.g. limit freed)
        self._pump(fs)

    # -- prewarming ----------------------------------------------------------------
    def prewarm(self, name: str, count: int) -> Event:
        """Ensure ``count`` containers are warm(ing); event fires when ready.

        The returned event's value is the number of containers that were
        actually secured (memory pressure can cap it below ``count``).
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        fs = self.state(name)
        deficit = count - fs.warm_or_warming
        launched: list[Event] = []
        while deficit > 0 and self._can_launch(fs):
            launched.append(self._launch(fs, prewarmed=True))
            deficit -= 1
        secured = count - max(deficit, 0)
        result = self.env.event()
        if not launched:
            result.succeed(secured)
            return result
        all_ready = self.env.all_of(launched)

        def _done(_ev: Event) -> None:
            result.succeed(secured)

        assert all_ready.callbacks is not None
        all_ready.callbacks.append(_done)
        return result

    # -- introspection -----------------------------------------------------------
    def warm_count(self, name: str) -> int:
        """Idle warm containers for ``name``."""
        return len(self.state(name).idle)

    def registered(self) -> tuple[str, ...]:
        """Names of all registered functions."""
        return tuple(self._functions)
