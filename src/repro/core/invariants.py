"""Always-on kernel invariant monitor.

Fault-injection features (crashes, preemptions, switch aborts) all
redistribute queries between terminal ledgers; a bookkeeping slip shows
up as queries silently vanishing or being double-counted, which no
single test notices because every figure still renders.  The monitor
closes that hole: it rides along every run, asserting conservation and
liveness at a fixed cadence, and raises a deterministic
:class:`InvariantViolation` the moment the books stop balancing.

The monitor is RNG-free and touches no query state, so its periodic
events shift kernel sequence numbers uniformly — bit-identity of every
latency ledger is preserved (see the zero-preemption identity gate in
``tests/experiments/test_spot.py``).

Checked invariants, per registered service:

* **conservation** — ``completed + failed <= arrivals`` at every check,
  and exact equality ``arrivals == completed + failed + census()`` at
  the horizon (:meth:`InvariantMonitor.check_horizon`), where
  ``census()`` counts queries currently in flight on either platform;
* **clock** — simulation time never runs backwards between checks;
* **census** — the in-flight census is never negative;
* **liveness** — a service with in-flight work must make terminal
  progress within ``wedge_window`` seconds (no-wedge: a stuck drain or
  a lost completion callback surfaces as a violation instead of an
  eternally-running simulation that quietly stopped serving).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.sim import Environment, Event
from repro.telemetry import ServiceMetrics

__all__ = ["InvariantMonitor", "InvariantViolation"]


class InvariantViolation(RuntimeError):
    """A kernel invariant failed; carries which one and for which service."""

    def __init__(self, message: str, invariant: str = "", service: str = "") -> None:
        super().__init__(message)
        self.invariant = invariant
        self.service = service

    def __reduce__(self) -> Tuple[type, Tuple[str, str, str]]:
        # survive pickling across the process-pool boundary with the
        # structured fields intact (default Exception reduce drops kwargs)
        return (type(self), (self.args[0], self.invariant, self.service))


class _Watch:
    """Per-service monitor state."""

    __slots__ = ("metrics", "census", "last_terminals", "stall_since")

    def __init__(self, metrics: ServiceMetrics, census: Callable[[], int]) -> None:
        self.metrics = metrics
        self.census = census
        self.last_terminals = 0
        self.stall_since: Optional[float] = None


class InvariantMonitor:
    """Periodic conservation/clock/liveness checks over registered services."""

    def __init__(
        self,
        env: Environment,
        check_interval: float = 60.0,
        wedge_window: float = 600.0,
    ) -> None:
        if check_interval <= 0:
            raise ValueError(f"check_interval must be positive, got {check_interval}")
        if wedge_window < check_interval:
            raise ValueError("wedge_window must cover at least one check interval")
        self.env = env
        self.check_interval = float(check_interval)
        self.wedge_window = float(wedge_window)
        self._watches: Dict[str, _Watch] = {}
        self._last_now = env.now
        #: checks performed (observability: proves the monitor actually ran)
        self.checks = 0
        self._proc = env.process(self._run())

    def register(self, name: str, metrics: ServiceMetrics, census: Callable[[], int]) -> None:
        """Watch one service; ``census()`` returns its current in-flight count."""
        if name in self._watches:
            raise ValueError(f"service {name!r} already registered")
        self._watches[name] = _Watch(metrics, census)

    # -- the check loop ----------------------------------------------------------
    def _run(self) -> Iterator[Event]:
        while True:
            yield self.env.timeout(self.check_interval)
            self.check_now()

    def check_now(self) -> None:
        """Run every invariant once at the current event boundary."""
        now = self.env.now
        if now < self._last_now:
            raise InvariantViolation(
                f"simulation clock ran backwards: {self._last_now} -> {now}",
                invariant="clock",
            )
        self._last_now = now
        self.checks += 1
        for name, watch in self._watches.items():
            m = watch.metrics
            terminals = m.completed + m.failed
            arrivals = m.load.total
            if terminals > arrivals:
                raise InvariantViolation(
                    f"{name}: {terminals} terminal queries exceed {arrivals} arrivals",
                    invariant="conservation",
                    service=name,
                )
            census = watch.census()
            if census < 0:
                raise InvariantViolation(
                    f"{name}: in-flight census is negative ({census})",
                    invariant="census",
                    service=name,
                )
            # liveness: in-flight work with zero terminal progress for a
            # whole wedge window means something lost its completion path
            if census > 0 and terminals == watch.last_terminals:
                if watch.stall_since is None:
                    watch.stall_since = now
                elif now - watch.stall_since > self.wedge_window:
                    raise InvariantViolation(
                        f"{name}: {census} queries in flight with no terminal "
                        f"progress for {now - watch.stall_since:.0f}s",
                        invariant="liveness",
                        service=name,
                    )
            else:
                watch.stall_since = None
            watch.last_terminals = terminals

    def run(self, until: float) -> None:
        """Advance the simulation to ``until``, then check the horizon.

        Every system ends its run here, so no run path escapes the
        exact conservation check.
        """
        self.env.run(until=until)
        self.check_horizon()

    def check_horizon(self) -> None:
        """Exact conservation at the end of a run.

        Valid at any event boundary: every arrival is either terminal or
        still in flight, with nothing lost and nothing double-counted.
        """
        self.check_now()
        for name, watch in self._watches.items():
            m = watch.metrics
            census = watch.census()
            expected = m.load.total - (m.completed + m.failed)
            if census != expected:
                raise InvariantViolation(
                    f"{name}: conservation broken at horizon — "
                    f"{m.load.total} arrivals, {m.completed} completed, "
                    f"{m.failed} failed, census {census} (expected {expected})",
                    invariant="conservation",
                    service=name,
                )
