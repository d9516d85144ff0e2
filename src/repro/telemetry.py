"""Per-service telemetry shared by every deployment backend.

Both platforms (and the Amoeba engine, which straddles them) record the
same things for each service: end-to-end latencies, QoS violations,
latency-stage breakdowns, arrival times for load estimation, and which
platform served each query.  Keeping this in one class means Fig. 10's
CDFs, Fig. 4's breakdowns, and the controller's load signal all read from
the same bookkeeping regardless of deployment mode.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro.overload import DROP_REASONS, OverloadGovernor
from repro.sim import EventLog, ReservoirSample
from repro.workloads import Query

__all__ = [
    "DROP_REASONS",
    "PREEMPTION_KINDS",
    "RETRY_KINDS",
    "CounterFamily",
    "LoadEstimator",
    "ServiceMetrics",
    "drop_query",
]

#: the latency stages platforms may report in Query.breakdown
STAGES = ("proc", "queue", "cold", "load", "exec", "post")

#: the unified ``retries{kind}`` counter family, next to ``drops{reason}``:
#: ``attempted`` (a retry was actually issued), ``exhausted`` (a query
#: abandoned because its attempt budget ran out), ``deadline_abandoned``
#: (a retry deterministically given up because the remaining end-to-end
#: budget could no longer cover a downstream attempt)
RETRY_KINDS = ("attempted", "exhausted", "deadline_abandoned")

#: the kinds of the ``preemptions`` log of spot reclamation episodes:
#: ``noticed`` (a reclamation warning was delivered),
#: ``drained`` (a graceful episode finished with no in-flight casualty),
#: ``killed_inflight`` (a query died on the reclaimed share — one count
#: per query), ``replaced`` (an on-demand replacement restored capacity)
PREEMPTION_KINDS = ("noticed", "drained", "killed_inflight", "replaced")


class CounterFamily(Mapping[str, int]):
    """A fixed set of named counters, e.g. ``drops{reason}``, read like a dict.

    :meth:`add` refuses a key outside the family; ``a + b`` adds key by key.
    """

    __slots__ = ("label", "_counts")

    def __init__(self, label: str, keys: Iterable[str]) -> None:
        self.label = label
        self._counts: Dict[str, int] = dict.fromkeys(keys, 0)

    def add(self, key: str, n: int = 1) -> None:
        """Count ``n`` events under ``key``."""
        if key not in self._counts:
            raise ValueError(f"unknown {self.label} {key!r}")
        self._counts[key] += n

    @property
    def total(self) -> int:
        """Sum over the family."""
        return sum(self._counts.values())

    def __add__(self, other: Mapping[str, int]) -> "CounterFamily":
        out = CounterFamily(self.label, self._counts)
        out._counts.update(self._counts)
        for key, n in other.items():
            out.add(key, n)
        return out

    def __getitem__(self, key: str) -> int:
        return self._counts[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)


class LoadEstimator:
    """Sliding-window arrival-rate estimate.

    The controller's λ.  A fixed window (paper: the sample period is on
    the order of seconds to a minute, Eq. 8) over arrival timestamps; the
    estimate is count/window once the window has filled.
    """

    def __init__(self, window: float = 60.0):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = float(window)
        self._arrivals: Deque[float] = deque()
        self._t0: Optional[float] = None
        self.total = 0

    def record(self, t: float) -> None:
        """Register one arrival at time ``t``."""
        if self._t0 is None:
            self._t0 = t
        self.total += 1
        arr = self._arrivals
        arr.append(t)
        # _evict(t), inline: this runs once per arrival
        cutoff = t - self.window
        while arr[0] < cutoff:
            arr.popleft()

    def _evict(self, now: float) -> None:
        cutoff = now - self.window
        arr = self._arrivals
        while arr and arr[0] < cutoff:
            arr.popleft()

    def rate(self, now: float) -> float:
        """Arrival rate (queries/s) over the trailing window."""
        self._evict(now)
        if self._t0 is None:
            return 0.0
        span = min(self.window, max(now - self._t0, 1e-9))
        return len(self._arrivals) / span


class ServiceMetrics:
    """Latency/QoS/breakdown accounting for one service.

    Canary (shadow) queries are tallied separately — they inform the
    controller but must not count against the user-facing QoS.
    """

    def __init__(self, service: str, qos_target: float, reservoir: Optional[int] = None, seed: int = 1):
        if qos_target <= 0:
            raise ValueError(f"qos_target must be positive, got {qos_target}")
        self.service = service
        self.qos_target = float(qos_target)
        capacity = reservoir if reservoir is not None else 20000
        # explicitly seeded per-service reservoir, deterministic given `seed`
        self.latencies = ReservoirSample(capacity, rng=np.random.default_rng(seed))  # simlint: ignore[SIM002]
        self.completed = 0
        self.violations = 0
        self.breakdown_sums: Dict[str, float] = {s: 0.0 for s in STAGES}
        self.served_by: Dict[str, int] = {}
        self.load = LoadEstimator()
        self.canary_latencies: Deque[float] = deque(maxlen=256)
        #: recent user-query latencies (controller feedback while the
        #: service itself runs on the serverless platform)
        self.recent: Deque[float] = deque(maxlen=128)
        #: sim time of the latest canary completion (stale-telemetry basis)
        self.last_canary_time: Optional[float] = None
        #: the ``retries{kind}`` family (:data:`RETRY_KINDS`)
        self.retries = CounterFamily("retry kind", RETRY_KINDS)
        #: the ``dropped{reason}`` family (:data:`DROP_REASONS`): crash
        #: (retry exhaustion), admission (rejected on arrival), shed (queue
        #: wait blew the budget), breaker (brownout drop-tail), preempted
        self.drops = CounterFamily("drop reason", DROP_REASONS)
        #: the spot reclamation log, ``(t, kind, service)`` per event
        #: (:data:`PREEMPTION_KINDS`)
        self.preemptions = EventLog("preemption kind", PREEMPTION_KINDS)

    def record_arrival(self, t: float, canary: bool = False) -> None:
        """Register a query submission (canaries excluded from load)."""
        if not canary:
            self.load.record(t)

    def record_completion(self, query: Query) -> None:
        """Fold a completed query into the ledgers (drops: :func:`drop_query`).

        Controller-feedback stores (``canary_latencies``, ``recent``)
        keep the *processing* latency — end-to-end minus queueing and
        cold start.  Eq. 6's μ is per-container processing capacity
        (queueing is the M/M/N model's job, Eq. 5), and Eq. 8's
        sample-period rule exists precisely so that "cold start by
        accident" does not mislead the controller (§VI-B).  User-facing
        QoS accounting keeps the full end-to-end latency.
        """
        lat = query.latency
        breakdown = query.breakdown
        processing = lat - breakdown.get("cold", 0.0) - breakdown.get("queue", 0.0)
        if query.canary:
            self.canary_latencies.append(processing)
            self.last_canary_time = query.t_complete
            return
        self.completed += 1
        self.recent.append(processing)
        self.latencies.add(lat)
        if lat > self.qos_target:
            self.violations += 1
        # hot path (every completed query): walk the fixed stage tuple so
        # each known stage costs one lookup instead of a membership test
        # plus two, and unknown stages cost nothing
        sums = self.breakdown_sums
        for stage in STAGES:
            dt = breakdown.get(stage)
            if dt is not None:
                sums[stage] += dt
        server = query.served_by
        if server:
            try:
                self.served_by[server] += 1
            except KeyError:
                self.served_by[server] = 1

    @property
    def violation_fraction(self) -> float:
        """Fraction of completed user queries over the QoS target."""
        return self.violations / self.completed if self.completed else 0.0

    @property
    def failed(self) -> int:
        """Total dropped user queries (sum over :attr:`drops`)."""
        return self.drops.total

    @property
    def violation_fraction_with_failures(self) -> float:
        """QoS violation fraction counting dropped queries as violations."""
        total = self.completed + self.failed
        return (self.violations + self.failed) / total if total else 0.0

    @property
    def latency_sample_exact(self) -> bool:
        """True while the reservoir still holds *every* completion latency.

        Once ``completed`` exceeds the reservoir capacity the sample
        becomes a uniform subsample and percentiles are estimates.
        """
        return self.latencies.n <= self.latencies.capacity

    @property
    def latency_sample_coverage(self) -> Tuple[int, int]:
        """(latencies observed, reservoir capacity) — the honesty gauge."""
        return self.latencies.n, self.latencies.capacity

    def latency_percentile(self, p: float) -> float:
        """Percentile of completion latency from the reservoir (p in [0, 100]).

        Exact while ``latency_sample_exact`` holds; beyond the reservoir
        capacity it degrades to a *deterministic* (seeded) uniform
        subsample estimate — reproducible run-to-run, but no longer the
        exact order statistic.  Size the reservoir above the expected
        completion count (see ``Scenario.reservoir``) when a QoS gate
        needs the exact value.  (Formerly misnamed ``exact_percentile``.)
        """
        return self.latencies.percentile(p)

    def mean_canary_latency(self) -> float:
        """Average latency of recent shadow queries (NaN when none)."""
        if not self.canary_latencies:
            return float("nan")
        return float(np.mean(self.canary_latencies))


def drop_query(
    query: Query,
    reason: str,
    now: float,
    platform: str,
    metrics: Optional[ServiceMetrics],
    overload: Optional[OverloadGovernor],
) -> None:
    """The one terminal path of a dropped query, on either platform.

    Stamps the query failed at ``now`` on ``platform``, counts it in
    ``drops{reason}`` (:data:`DROP_REASONS`), feeds the governor (a
    rejection for admission, shed and breaker drops, a bad outcome for a
    crash, nothing for a preemption) and fires the terminal hook last.
    Site-specific steps (census, retry counters, preemption log,
    queue-wait breakdown) stay at the call site, before this.
    A dropped query never reaches ``record_completion``; a canary drop
    counts nothing (shadow traffic is not user QoS), but its reason is
    still checked.
    """
    query.failed = True
    query.t_complete = now
    query.served_by = platform
    if query.canary:
        if reason not in DROP_REASONS:
            raise ValueError(f"unknown drop reason {reason!r}")
    else:
        if metrics is not None:
            metrics.drops.add(reason)
        if overload is not None:
            if reason == "crash":
                overload.note_outcome(False, now)
            elif reason != "preempted":
                overload.note_rejection(reason, now)
    query.notify_done()
