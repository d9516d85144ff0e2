"""Test-only oracle: the O(N) contention kernel.

This is the ``MachineModel`` that ``repro.cluster.resource_model`` shipped
before the per-class virtual clocks: every arrival and completion banks
and re-rates every in-flight execution, and the next completion is the
strict-``<`` minimum of ``work_left / rate`` over the whole active set.
Its one change since is the shipped kernel's completion interface,
``execute(work, demand, sens, on_done)``.
It is slow (O(N) per rebalance) but obviously right, so the property and
differential tests in this package run it side by side with the shipped
kernel.  It is never imported by ``src/``.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, Optional

from repro.cluster.resource_model import (
    ContentionConfig,
    DemandVector,
    SensitivityVector,
    _CompletionTimer,
)
from repro.sim import Environment, Event, TimeWeightedStats

__all__ = ["MachineModel"]


class _Execution:
    """Bookkeeping for one in-flight execution on a machine."""

    __slots__ = ("eid", "demand", "sens", "work_left", "rate", "last_update", "on_done", "start")

    def __init__(
        self,
        eid: int,
        demand: DemandVector,
        sens: SensitivityVector,
        work: float,
        on_done: Callable[[float], object],
        now: float,
    ):
        self.eid = eid
        self.demand = demand
        self.sens = sens
        self.work_left = work
        self.rate = 1.0
        self.last_update = now
        self.on_done = on_done
        self.start = now


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
        self._active: Dict[int, _Execution] = {}
        self._ids = itertools.count()
        self._demand_totals = [0.0, 0.0, 0.0]
        self._memory_in_use = 0.0
        self._background_count = 0
        #: the machine's single next-completion timer and its target
        self._timer: Optional[Event] = None
        self._timer_ex: Optional[_Execution] = None
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
        return len(self._active)

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
        duration when the execution finishes.
        """
        if work <= 0:
            raise ValueError(f"work must be positive, got {work}")
        now = self.env.now
        ex = _Execution(next(self._ids), demand, sens, work, on_done, now)
        self._active[ex.eid] = ex
        self._demand_totals[0] += demand.cpu
        self._demand_totals[1] += demand.io_mbps
        self._demand_totals[2] += demand.net_mbps
        self._memory_in_use += demand.memory_mb
        self._rebalance(now)

    def _rebalance(self, now: float) -> None:
        """Bank progress, recompute rates and re-arm the completion timer.

        Called after every active-set or demand change.  Banking (credit
        each execution's progress at its *old* rate up to ``now``) and the
        rate refresh are fused into one pass over the active set: the two
        computations are independent per execution, so interleaving them
        produces bit-identical results to the former two-pass scheme.
        """
        # clamp accumulated float residue so an empty machine reads
        # exactly zero pressure (additions and removals of the same
        # demands do not cancel bitwise when interleaved)
        if not self._active and not self._background_count:
            # provably empty: snap exactly (the epsilon clamp below misses
            # residues of 1e-9 and larger, e.g. after a 1e-9 demand leaves)
            self._demand_totals[0] = self._demand_totals[1] = self._demand_totals[2] = 0.0
            self._memory_in_use = 0.0
        else:
            for i in range(3):
                if abs(self._demand_totals[i]) < 1e-9:
                    self._demand_totals[i] = 0.0
            if abs(self._memory_in_use) < 1e-9:
                self._memory_in_use = 0.0
        pressures = self.pressures()
        cfg = self.config
        # single O(N) pass: refresh every rate, find the earliest finisher.
        # All executions share `pressures`, so between set changes each
        # runs at a fixed rate and min(work_left / rate) IS the next
        # completion — no per-execution timers needed.  Strict `<` keeps
        # the tie-break on insertion (eid) order, matching the FIFO order
        # the per-execution scheme produced.
        #
        # Rate fast path: g(p) depends only on the shared pressures, so it
        # is evaluated once per axis, and executions with the same
        # sensitivity vector (all invocations of one function share the
        # spec's) hit a per-rebalance cache.  The arithmetic below mirrors
        # ContentionConfig.slowdown term for term so the cached rates are
        # bit-identical to cfg.slowdown()'s.
        # g() unrolled per axis (mirrors ContentionConfig.g bit for bit)
        lin, quad, knee, cap = cfg.linear, cfg.quad, cfg.knee, cfg.pressure_cap
        p = min(pressures[0], cap)
        e = p - knee
        g0 = lin * p + (quad * e * e if e > 0 else 0.0)
        p = min(pressures[1], cap)
        e = p - knee
        g1 = lin * p + (quad * e * e if e > 0 else 0.0)
        p = min(pressures[2], cap)
        e = p - knee
        g2 = lin * p + (quad * e * e if e > 0 else 0.0)
        co_overlap = 1.0 - cfg.overlap
        # keyed by id(): invocations of one function share the spec's
        # sensitivity object, and identity lookups skip the dataclass's
        # field-tuple hash (equal-valued distinct objects just recompute
        # the same bits)
        rate_of: Dict[int, float] = {}
        next_ex: Optional[_Execution] = None
        next_in = math.inf
        for ex in self._active.values():
            elapsed = now - ex.last_update
            if elapsed > 0:
                ex.work_left -= elapsed * ex.rate
                if ex.work_left < 0:
                    ex.work_left = 0.0
            ex.last_update = now
            sens = ex.sens
            rate = rate_of.get(id(sens))
            if rate is None:
                d0 = sens.cpu * g0
                d1 = sens.io * g1
                d2 = sens.net * g2
                total = d0 + d1 + d2
                worst = max(d0, d1, d2)
                rate = 1.0 / (1.0 + worst + co_overlap * (total - worst))
                rate_of[id(sens)] = rate
            ex.rate = rate
            finish_in = ex.work_left / rate if rate > 0 else math.inf
            if finish_in < next_in:
                next_in = finish_in
                next_ex = ex
        # re-arm the machine's one completion timer (cancel the stale one)
        timer = self._timer
        if timer is not None and not timer._processed:
            timer.cancel()
        self._timer_ex = next_ex
        if next_ex is None:
            self._timer = None
        else:
            self._timer = _CompletionTimer(self.env, next_in, self)
            self.timer_arms += 1
        # accounting: a set() with an unchanged level is a mathematical
        # no-op for a piecewise-constant signal (the integral accrues
        # lazily), so skip the call when the CPU demand did not move
        cpu = self._demand_totals[0]
        s = self.cpu_in_use
        if s._level != cpu:
            s.set(now, cpu)
        if self.on_pressure_change is not None:
            self.on_pressure_change(now, pressures)

    def _on_timer(self) -> None:
        ex = self._timer_ex
        assert ex is not None  # a live timer always has a target
        now = self.env.now
        # bank this execution's own progress precisely
        ex.work_left -= (now - ex.last_update) * ex.rate
        ex.last_update = now
        if ex.work_left > 1e-12:  # numeric guard: not actually done yet
            # rates are unchanged since arming (any set change would have
            # cancelled this timer), so ``ex`` is still the earliest
            self._timer = _CompletionTimer(self.env, ex.work_left / ex.rate, self)
            self.timer_arms += 1
            return
        ex.work_left = 0.0  # clamp float residue; progress never goes negative
        del self._active[ex.eid]
        d = ex.demand
        self._demand_totals[0] -= d.cpu
        self._demand_totals[1] -= d.io_mbps
        self._demand_totals[2] -= d.net_mbps
        self._memory_in_use -= d.memory_mb
        self._rebalance(now)
        self.completed += 1
        ex.on_done(now - ex.start)

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
