"""Progress-based multi-resource contention engine.

This module is the simulated stand-in for the shared hardware of the
paper's serverless node (DESIGN.md §2): co-running containers contend for
① cores, ② memory (bandwidth; *space* is enforced separately by the
container pool), ③ disk IO bandwidth and ④ network bandwidth (paper
Fig. 5).  The model has three properties the paper's analysis depends on:

1.  **Pressure is additive, slowdown is convex.**  Per-resource pressure
    is total demand divided by capacity; an execution's slowdown grows
    slowly below saturation and quadratically above it, so tail latency
    explodes once a resource saturates — the behaviour that makes the
    switch-out decision matter.
2.  **Per-resource degradations are not independent** (paper §II-E): a
    pairwise coupling term makes simultaneous pressure on two resources
    worse than the sum of each alone.  This is exactly the effect the
    PCA-corrected weight calibration (Amoeba) models and the pessimistic
    additive variant (Amoeba-NoM) over-estimates.
3.  **Executions are progress-based.**  Each execution carries its
    remaining *work* (seconds of uncontended execution), consumed at its
    current rate, so latencies respond to contention that arrives
    *mid-execution*.

Completion scheduling uses **per-class virtual clocks** and a
**single timer** per machine (DESIGN.md §6).  All executions on a machine
share one pressure vector, and executions with the same sensitivity
vector (every invocation of one function) therefore share one rate.  Each
such class integrates one virtual-work clock ``vclock = ∫ rate dt`` and
keeps its executions as finish points ``vclock_at_admission + work`` in a
min-heap.  A rebalance advances C class clocks, recomputes C rates and
reads C heap tops — O(C) work per arrival or completion plus one
O(log N) heap operation, instead of banking every in-flight execution.
The earliest ``(finish_v − vclock) / rate`` over the heap tops (ties
broken by admission order) arms the machine's one completion timer; the
previous timer is cancelled through the kernel's event-cancellation path
rather than left to fire as a stale no-op, which keeps heap growth O(1)
amortized per query.  When the timer fires for a finished execution, the
machine calls that execution's ``on_done(duration)`` directly: a
completion costs the timer's one heap entry and no completion event.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.sim import Environment, Event, TimeWeightedStats

__all__ = ["ContentionConfig", "DemandVector", "MachineModel", "SensitivityVector"]

#: resource axes, in fixed order (memory *space* handled by the pool)
RESOURCES = ("cpu", "io", "net")


@dataclass(frozen=True)
class DemandVector:
    """Resources one execution occupies while running.

    ``cpu`` is in cores, ``memory_mb`` in MB (space, informational here),
    ``io_mbps`` and ``net_mbps`` in MB/s of disk and network bandwidth.
    """

    cpu: float = 0.0
    memory_mb: float = 0.0
    io_mbps: float = 0.0
    net_mbps: float = 0.0

    def __post_init__(self) -> None:
        for attr in ("cpu", "memory_mb", "io_mbps", "net_mbps"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be >= 0, got {getattr(self, attr)}")

    def scaled(self, factor: float) -> "DemandVector":
        """This demand multiplied by ``factor`` (load scaling helper)."""
        if factor < 0:
            raise ValueError(f"factor must be >= 0, got {factor}")
        return DemandVector(
            cpu=self.cpu * factor,
            memory_mb=self.memory_mb * factor,
            io_mbps=self.io_mbps * factor,
            net_mbps=self.net_mbps * factor,
        )


@dataclass(frozen=True)
class SensitivityVector:
    """How strongly an execution's progress suffers per unit pressure.

    Axes follow the paper's three contention meters: ``cpu`` covers the
    combined CPU/memory-bandwidth axis (the paper's ``l_CPU_Memory``),
    ``io`` disk bandwidth, ``net`` network bandwidth.  Values are
    dimensionless multipliers; 0 = immune, 1 = fully exposed.
    """

    cpu: float = 1.0
    io: float = 0.0
    net: float = 0.0

    def __post_init__(self) -> None:
        for attr in RESOURCES:
            v = getattr(self, attr)
            if not 0.0 <= v <= 5.0:
                raise ValueError(f"sensitivity {attr} out of range [0, 5]: {v}")

    def as_tuple(self) -> tuple[float, float, float]:
        """(cpu, io, net) in canonical axis order."""
        return (self.cpu, self.io, self.net)


@dataclass(frozen=True)
class ContentionConfig:
    """Shape parameters of the slowdown function.

    Per-axis degradation is convex in pressure:

        ``d_r = s_r·g(p_r)``  with  ``g(p) = linear·p + quad·max(0, p − knee)²``

    (the linear term models sub-saturation interference — cache/SMT/port
    sharing; the quadratic term models queueing for a saturated
    resource).  The total slowdown *overlaps* the per-axis degradations
    instead of summing them:

        ``slowdown = 1 + max_r d_r + (1 − overlap)·(Σ_r d_r − max_r d_r)``

    ``overlap = 0`` would be plain accumulation; ``overlap = 1`` would be
    full hiding behind the worst axis.  This sub-additivity is the
    paper's §II-E observation — "the performance degradation … is not
    the simple accumulation of its degradations due to the contention on
    each type of resource" — and it is exactly what the PCA-calibrated
    weights learn (and what the Amoeba-NoM ablation, which *does*
    accumulate, gets pessimistically wrong; §VII-C).
    """

    linear: float = 0.18
    quad: float = 6.0
    knee: float = 0.75
    #: fraction of the non-dominant axes' degradation hidden behind the
    #: dominant one (stalls on different resources partially overlap)
    overlap: float = 0.60
    #: pressure ceiling: beyond this the resource is hard-saturated and
    #: g(p) is evaluated at the ceiling (progress never reaches zero)
    pressure_cap: float = 3.0

    def __post_init__(self) -> None:
        if self.linear < 0 or self.quad < 0:
            raise ValueError("slowdown coefficients must be >= 0")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError(f"overlap must be in [0, 1], got {self.overlap}")
        if not 0.0 < self.knee <= 1.5:
            raise ValueError(f"knee must be in (0, 1.5], got {self.knee}")
        if self.pressure_cap <= self.knee:
            raise ValueError("pressure_cap must exceed knee")

    def g(self, pressure: float) -> float:
        """Per-resource degradation as a function of pressure."""
        p = min(pressure, self.pressure_cap)
        excess = p - self.knee
        return self.linear * p + (self.quad * excess * excess if excess > 0 else 0.0)

    def slowdown(self, sens: SensitivityVector, pressures: tuple[float, float, float]) -> float:
        """Total slowdown of an execution with ``sens`` under ``pressures``."""
        d0 = sens.cpu * self.g(pressures[0])
        d1 = sens.io * self.g(pressures[1])
        d2 = sens.net * self.g(pressures[2])
        total = d0 + d1 + d2
        worst = max(d0, d1, d2)
        return 1.0 + worst + (1.0 - self.overlap) * (total - worst)


class _Class:
    """One sensitivity class on a machine: a shared virtual-work clock.

    ``vclock`` is the work every member has been credited since the class
    last refilled (∫ rate dt, banked up to ``last``); ``heap`` holds one
    ``(finish_v, eid, demand, on_done, start)`` entry per in-flight member,
    ordered by virtual finish point with admission order (``eid``) as the
    tie-break.  A member's remaining work is ``finish_v − vclock``.
    """

    __slots__ = ("sens", "vclock", "last", "rate", "heap")

    def __init__(self, sens: SensitivityVector):
        self.sens = sens
        self.vclock = 0.0
        self.last = 0.0
        self.rate = 1.0
        self.heap: list[tuple[float, int, DemandVector, Callable[[float], object], float]] = []


class _CompletionTimer(Event):
    """The machine's next-completion heap entry.

    A slim Event subclass that dispatches straight to the machine's
    completion handler — no callbacks list, no closure.  One of these is
    armed per rebalance (and cancelled by the next), so its construction
    cost is on the engine's hottest path.
    """

    __slots__ = ("machine",)

    def __init__(self, env: Environment, delay: float, machine: "MachineModel"):
        # flattened Event.__init__, enqueued at the default event priority
        # exactly like the schedule_callback Timeout it replaces
        self.env = env
        self.callbacks = None
        self._value = None
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defused = False
        self._cancelled = False
        self.machine = machine
        env._seq += 1
        heapq.heappush(env._heap, (env._now + delay, 1, env._seq, self))

    def _run_callbacks(self) -> None:
        self._processed = True
        self.machine._on_timer()


class MachineModel:
    """One node's shared-resource execution engine.

    Parameters
    ----------
    env:
        Simulation environment.
    cores, io_mbps, net_mbps:
        Node capacities (memory space is enforced by the container pool,
        not here).
    config:
        Slowdown shape parameters.
    """

    def __init__(
        self,
        env: Environment,
        cores: float,
        io_mbps: float,
        net_mbps: float,
        config: Optional[ContentionConfig] = None,
    ):
        if cores <= 0 or io_mbps <= 0 or net_mbps <= 0:
            raise ValueError("capacities must be positive")
        self.env = env
        self.capacity = (float(cores), float(io_mbps), float(net_mbps))
        self.config = config if config is not None else ContentionConfig()
        #: every class ever seen, keyed by id(sens), empty ones included; a
        #: class keeps its sens alive, so an id is never reused while cached
        self._classes: Dict[int, _Class] = {}
        self._n_active = 0
        self._ids = itertools.count()
        self._demand_totals = [0.0, 0.0, 0.0]
        self._memory_in_use = 0.0
        self._background_count = 0
        #: the machine's single next-completion timer and the class whose
        #: heap top it fires for
        self._timer: Optional[Event] = None
        self._timer_cls: Optional[_Class] = None
        #: perf-guard counters: timers armed / queries completed
        self.timer_arms = 0
        self.completed = 0
        # accounting taps
        self.cpu_in_use = TimeWeightedStats(env.now)
        #: optional hook called after every active-set change with (t, pressures)
        self.on_pressure_change: Optional[Callable[[float, tuple[float, float, float]], None]] = None

    # -- observability -----------------------------------------------------
    @property
    def active_count(self) -> int:
        """Number of in-flight executions."""
        return self._n_active

    @property
    def memory_in_use_mb(self) -> float:
        """Total memory space claimed by in-flight executions."""
        return self._memory_in_use

    def pressures(self) -> tuple[float, float, float]:
        """(cpu, io, net) pressure = total demand / capacity."""
        d, c = self._demand_totals, self.capacity
        return (d[0] / c[0], d[1] / c[1], d[2] / c[2])

    def slowdown_for(self, sens: SensitivityVector) -> float:
        """Slowdown a hypothetical execution with ``sens`` would see now."""
        return self.config.slowdown(sens, self.pressures())

    # -- execution ----------------------------------------------------------
    def execute(
        self,
        work: float,
        demand: DemandVector,
        sens: SensitivityVector,
        on_done: Callable[[float], object],
    ) -> None:
        """Run ``work`` seconds of uncontended execution.

        ``on_done(duration)`` is called with the actual (stretched)
        duration at the instant the execution finishes, from inside the
        machine's completion timer and after the machine has rebalanced
        without it.  A caller that must wait in a generator passes an
        event's ``succeed``.
        """
        if work <= 0:
            raise ValueError(f"work must be positive, got {work}")
        now = self.env.now
        cls = self._classes.get(id(sens))
        if cls is None:
            cls = self._classes[id(sens)] = _Class(sens)
        if cls.heap:
            elapsed = now - cls.last
            if elapsed > 0:
                cls.vclock += elapsed * cls.rate
        else:
            # an empty class's clock means nothing: restart it at zero, so
            # a class's clock only grows over one of its busy periods
            cls.vclock = 0.0
        cls.last = now
        heapq.heappush(cls.heap, (cls.vclock + work, next(self._ids), demand, on_done, now))
        self._n_active += 1
        self._demand_totals[0] += demand.cpu
        self._demand_totals[1] += demand.io_mbps
        self._demand_totals[2] += demand.net_mbps
        self._memory_in_use += demand.memory_mb
        self._rebalance(now)

    def _rebalance(self, now: float) -> None:
        """Advance the class clocks, recompute rates and re-arm the timer.

        Called after every active-set or demand change.  Each non-empty
        class's clock is first advanced at its *old* rate up to ``now``,
        then its rate is refreshed from the new pressures.
        """
        # clamp accumulated float residue so an empty machine reads
        # exactly zero pressure (additions and removals of the same
        # demands do not cancel bitwise when interleaved)
        totals = self._demand_totals
        if not self._n_active and not self._background_count:
            # provably empty: snap exactly (the epsilon clamp below misses
            # residues of 1e-9 and larger, e.g. after a 1e-9 demand leaves)
            totals[0] = totals[1] = totals[2] = c0 = c1 = c2 = 0.0
            self._memory_in_use = 0.0
        else:
            # ``-1e-9 < c < 1e-9`` is ``abs(c) < 1e-9``, for NaN and -0.0 too
            c0, c1, c2 = totals
            if -1e-9 < c0 < 1e-9:
                c0 = totals[0] = 0.0
            if -1e-9 < c1 < 1e-9:
                c1 = totals[1] = 0.0
            if -1e-9 < c2 < 1e-9:
                c2 = totals[2] = 0.0
            if -1e-9 < self._memory_in_use < 1e-9:
                self._memory_in_use = 0.0
        capacity = self.capacity  # pressures(), inline
        p0, p1, p2 = c0 / capacity[0], c1 / capacity[1], c2 / capacity[2]
        cfg = self.config
        # one pass over the C non-empty classes.  Between set changes every
        # member of a class runs at the class rate, so the class's heap
        # top is its earliest finisher, and the earliest of the C tops is
        # the machine's next completion.  Equal finish times go to the
        # lower eid (admission order), across classes as within one.
        #
        # g() is evaluated once per axis and the slowdown arithmetic below
        # mirrors ContentionConfig.g and ContentionConfig.slowdown term for
        # term (the conditionals keep min's and max's pick on ties), so
        # each class rate is bit-identical to cfg.slowdown()'s.
        lin, quad, knee, cap = cfg.linear, cfg.quad, cfg.knee, cfg.pressure_cap
        p = cap if cap < p0 else p0
        e = p - knee
        g0 = lin * p + (quad * e * e if e > 0 else 0.0)
        p = cap if cap < p1 else p1
        e = p - knee
        g1 = lin * p + (quad * e * e if e > 0 else 0.0)
        p = cap if cap < p2 else p2
        e = p - knee
        g2 = lin * p + (quad * e * e if e > 0 else 0.0)
        co_overlap = 1.0 - cfg.overlap
        next_cls: Optional[_Class] = None
        next_in = math.inf
        next_eid = 0
        for cls in self._classes.values():
            heap = cls.heap
            if not heap:
                continue
            elapsed = now - cls.last
            if elapsed > 0:
                cls.vclock += elapsed * cls.rate
            cls.last = now
            sens = cls.sens
            d0 = sens.cpu * g0
            d1 = sens.io * g1
            d2 = sens.net * g2
            total = d0 + d1 + d2
            worst = d1 if d1 > d0 else d0
            worst = d2 if d2 > worst else worst
            rate = 1.0 / (1.0 + worst + co_overlap * (total - worst))
            cls.rate = rate
            top = heap[0]
            left = top[0] - cls.vclock
            finish_in = left / rate if left > 0 else 0.0
            if finish_in < next_in or (finish_in == next_in and top[1] < next_eid):
                next_in = finish_in
                next_eid = top[1]
                next_cls = cls
        # re-arm the machine's one completion timer (cancel the stale one:
        # Event.cancel() minus its checks, as the machine's timer is live)
        timer = self._timer
        if timer is not None and not timer._processed:
            timer._cancelled = True
            self.env._note_cancelled()
        self._timer_cls = next_cls
        if next_cls is None:
            self._timer = None
        else:
            self._timer = _CompletionTimer(self.env, next_in, self)
            self.timer_arms += 1
        # accounting: a set() with an unchanged level is a mathematical
        # no-op for a piecewise-constant signal (the integral accrues
        # lazily), so skip the call when the CPU demand did not move
        s = self.cpu_in_use
        if s._level != c0:
            s.set(now, c0)
        if self.on_pressure_change is not None:
            self.on_pressure_change(now, (p0, p1, p2))

    def _on_timer(self) -> None:
        cls = self._timer_cls
        assert cls is not None  # a live timer always has a target class
        now = self.env.now
        cls.vclock += (now - cls.last) * cls.rate
        cls.last = now
        heap = cls.heap
        vclock = cls.vclock
        left = heap[0][0] - vclock
        # numeric guard: not actually done yet.  ``left`` is a difference
        # of two clock readings, so its rounding error scales with the
        # clock, and the threshold does too; a delay too small to move
        # ``now`` would re-fire at the same instant forever, so it counts
        # as done.  Rates are unchanged since arming (any set change
        # would have cancelled this timer), so the top is still earliest.
        if left > 1e-12 * (vclock if vclock > 1.0 else 1.0):
            delay = left / cls.rate
            if now + delay > now:
                self._timer = _CompletionTimer(self.env, delay, self)
                self.timer_arms += 1
                return
        _finish_v, _eid, d, on_done, start = heapq.heappop(heap)
        self._n_active -= 1
        self._demand_totals[0] -= d.cpu
        self._demand_totals[1] -= d.io_mbps
        self._demand_totals[2] -= d.net_mbps
        self._memory_in_use -= d.memory_mb
        self._rebalance(now)
        self.completed += 1
        on_done(now - start)

    # -- background pressure -------------------------------------------------
    def inject_background(self, demand: DemandVector) -> Callable[[], None]:
        """Add a standing demand (e.g. an unmodelled co-tenant); returns remover.

        Background demand contributes to pressure but has no work to
        complete; used by tests and by synthetic co-tenant scenarios.
        """
        now = self.env.now
        self._demand_totals[0] += demand.cpu
        self._demand_totals[1] += demand.io_mbps
        self._demand_totals[2] += demand.net_mbps
        self._memory_in_use += demand.memory_mb
        self._background_count += 1
        self._rebalance(now)
        removed = False

        def remove() -> None:
            nonlocal removed
            if removed:
                raise RuntimeError("background demand already removed")
            removed = True
            t = self.env.now
            self._demand_totals[0] -= demand.cpu
            self._demand_totals[1] -= demand.io_mbps
            self._demand_totals[2] -= demand.net_mbps
            self._memory_in_use -= demand.memory_mb
            self._background_count -= 1
            self._rebalance(t)

        return remove
