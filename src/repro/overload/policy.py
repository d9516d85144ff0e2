"""Frozen overload-protection policy.

One :class:`OverloadPolicy` instance describes the whole guard band for
a run: bounded queues, the deadline-aware admission rule, queue-wait
shedding, and the circuit breaker that forces a brownout.  The policy is
frozen so a scenario can be hashed/replayed, and every knob is validated
eagerly — a bad config fails at construction, not mid-run.

The layer is deliberately RNG-free: nothing here draws from a stream,
so :meth:`OverloadPolicy.disabled` yields runs that are ``float.hex``
identical to runs with no overload layer wired in at all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Canonical drop-reason family shared by telemetry and the reports:
#: ``crash`` (retry exhaustion, PR 3 fault layer), ``admission`` (rejected
#: on arrival), ``shed`` (queue wait blew the budget), ``breaker``
#: (brownout drop-tail), ``preempted`` (killed in-flight when the cloud
#: reclaimed a spot VM share).
DROP_REASONS = ("crash", "admission", "shed", "breaker", "preempted")


@dataclass(frozen=True)
class OverloadPolicy:
    """Configuration for admission control, shedding and the breaker.

    Attributes:
        enabled: Master switch.  ``False`` turns every decision into a
            no-op (the bit-identity baseline).
        max_queue_depth: Hard bound on queued (not in-service) queries
            per function / per IaaS service.  Arrivals beyond it are
            dropped with reason ``admission``.
        admission_control: Reject on arrival when the M/M/N model
            predicts the enqueued query cannot meet the QoS target.
        admission_slack: Multiplier on the predicted queue wait before
            comparing against the deadline; >1 rejects earlier, <1
            tolerates optimistic predictions.  The default of 2 covers
            the gap between the M/M/N *mean* conditional wait and the
            p95 tail the QoS target actually constrains.
        shed_expired: Proactively drop queries at dequeue whose
            accumulated queue wait already exceeds the wait budget.
        queue_wait_budget: Fraction of the QoS target a query may spend
            queued before it is considered dead on arrival at a server.
        breaker_enabled: Arm the per-microservice circuit breaker.
        breaker_window: Maximum number of recent outcomes the CLOSED
            breaker examines (count-based sliding window).
        breaker_window_s: Age bound on those outcomes, seconds of sim
            time; older samples are evicted before judging.
        breaker_min_samples: Minimum samples in the window before the
            breaker may trip (avoids tripping on the first failure).
        breaker_threshold: Bad-outcome fraction (drops + QoS
            violations) at or above which the breaker trips.
        breaker_dwell_s: Dwell in the OPEN state before deterministically
            half-opening at ``opened_at + breaker_dwell_s``.
        breaker_halfopen_samples: Probe outcomes collected in HALF_OPEN
            before deciding to close or re-open.
        switch_abort_weight: How many bad outcomes one aborted switch
            leg (PR 3 guard) counts for; 0 decouples aborts from the
            breaker.
        brownout_queue_depth: During a brownout (breaker OPEN), queues
            degrade to drop-tail at this much smaller depth; 0 disables
            the drop-tail tightening.
    """

    enabled: bool = True
    max_queue_depth: int = 256
    admission_control: bool = True
    admission_slack: float = 2.0
    shed_expired: bool = True
    queue_wait_budget: float = 0.5
    breaker_enabled: bool = True
    breaker_window: int = 128
    breaker_window_s: float = 120.0
    breaker_min_samples: int = 20
    breaker_threshold: float = 0.5
    breaker_dwell_s: float = 60.0
    breaker_halfopen_samples: int = 16
    switch_abort_weight: int = 4
    brownout_queue_depth: int = 32

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.admission_slack <= 0.0:
            raise ValueError("admission_slack must be > 0")
        if not 0.0 < self.queue_wait_budget <= 1.0:
            raise ValueError("queue_wait_budget must be in (0, 1]")
        if self.breaker_window < 1:
            raise ValueError("breaker_window must be >= 1")
        if self.breaker_window_s <= 0.0:
            raise ValueError("breaker_window_s must be > 0")
        if not 1 <= self.breaker_min_samples <= self.breaker_window:
            raise ValueError("breaker_min_samples must be in [1, breaker_window]")
        if not 0.0 < self.breaker_threshold <= 1.0:
            raise ValueError("breaker_threshold must be in (0, 1]")
        if self.breaker_dwell_s <= 0.0:
            raise ValueError("breaker_dwell_s must be > 0")
        if self.breaker_halfopen_samples < 1:
            raise ValueError("breaker_halfopen_samples must be >= 1")
        if self.switch_abort_weight < 0:
            raise ValueError("switch_abort_weight must be >= 0")
        if self.brownout_queue_depth < 0:
            raise ValueError("brownout_queue_depth must be >= 0")

    @classmethod
    def disabled(cls) -> "OverloadPolicy":
        """The zero policy: wired in but decisionless.

        A run under this policy must be ``float.hex``-identical to a run
        with no overload layer at all (gated in ``tests/experiments/test_overload.py``).
        """
        return cls(enabled=False, admission_control=False, shed_expired=False, breaker_enabled=False)

    def wait_budget(self, qos_target: float) -> float:
        """Absolute queue-wait budget in seconds for a given QoS target."""
        if qos_target <= 0.0:
            raise ValueError("qos_target must be > 0")
        return self.queue_wait_budget * qos_target

    def with_scale(self, **changes: object) -> "OverloadPolicy":
        """Return a copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)  # type: ignore[arg-type]
