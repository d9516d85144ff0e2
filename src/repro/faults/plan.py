"""The fault plan: which faults strike, how often, and how hard.

One frozen dataclass per experiment describes every fault class the
injector may fire plus the bounded-retry policy the runtime answers
with.  Probabilities are *per opportunity* (per cold start, per boot
attempt, per meter sample, per prewarm ack), not per unit time, so the
fault pressure scales with activity exactly the way real platform
incidents do.

A plan is data, not behaviour: simlint rule SIM009 forbids folding fault
probabilities into control flow as module-level constants — they must
travel through a plan so ablation sweeps can scale them and the zero
plan provably disables the whole layer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["FaultPlan"]

#: plan fields that are probabilities (validated to [0, 1] and scaled
#: by :meth:`FaultPlan.scaled`)
_PROB_FIELDS = (
    "cold_start_failure_prob",
    "container_crash_prob",
    "vm_boot_failure_prob",
    "vm_boot_delay_prob",
    "meter_drop_prob",
    "meter_outage_prob",
    "prewarm_ack_loss_prob",
    "prewarm_ack_delay_prob",
    "vm_preemption_prob",
)

#: plan fields that are non-negative durations, seconds
_DURATION_FIELDS = (
    "vm_boot_delay_s",
    "meter_outage_duration_s",
    "prewarm_ack_delay_s",
    "crash_detect_s",
    "retry_backoff_s",
    "cold_start_retry_backoff_s",
    "boot_retry_backoff_s",
    "preemption_check_interval_s",
)

#: plan fields that are non-negative retry counts
_RETRY_FIELDS = ("max_query_retries", "max_cold_start_retries", "max_boot_retries")


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault-injection configuration (all rates default 0)."""

    #: a pledged cold start dies during runtime boot (per attempt)
    cold_start_failure_prob: float = 0.0
    #: a container crashes while serving a query (per assignment)
    container_crash_prob: float = 0.0
    #: one VM boot attempt fails outright (per attempt)
    vm_boot_failure_prob: float = 0.0
    #: one VM boot attempt straggles (per attempt) ...
    vm_boot_delay_prob: float = 0.0
    #: ... by this many extra seconds
    vm_boot_delay_s: float = 30.0
    #: one meter invocation is silently dropped (per sample)
    meter_drop_prob: float = 0.0
    #: a meter outage begins at this sample (per sample) ...
    meter_outage_prob: float = 0.0
    #: ... silencing the meter for this long, seconds
    meter_outage_duration_s: float = 90.0
    #: the prewarm acknowledgement is lost outright (per switch-in)
    prewarm_ack_loss_prob: float = 0.0
    #: the prewarm acknowledgement arrives late (per switch-in) ...
    prewarm_ack_delay_prob: float = 0.0
    #: ... by this many seconds
    prewarm_ack_delay_s: float = 10.0
    #: time to detect a crashed container before the query is retried
    crash_detect_s: float = 1.0
    #: the cloud reclaims a service's spot VM share (per check interval,
    #: only meaningful when the scenario rents spot capacity —
    #: :class:`repro.cluster.SpotSpec`); drawn from ``faults/preemption/<svc>``
    vm_preemption_prob: float = 0.0
    #: how often the preemption watcher re-draws while the rental runs
    preemption_check_interval_s: float = 30.0

    # -- degradation policy (how the runtime answers the faults) ----------
    #: resubmissions granted to a crashed query before it is dropped
    max_query_retries: int = 2
    #: base backoff before a crashed query is resubmitted (linear in the
    #: attempt number — deterministic, no jitter)
    retry_backoff_s: float = 0.25
    #: relaunch attempts granted to a failing cold start
    max_cold_start_retries: int = 2
    cold_start_retry_backoff_s: float = 0.5
    #: re-boot attempts granted to a failing VM boot
    max_boot_retries: int = 2
    boot_retry_backoff_s: float = 5.0

    def __post_init__(self) -> None:
        for name in _PROB_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in _DURATION_FIELDS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in _RETRY_FIELDS:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def scaled(self, factor: float) -> "FaultPlan":
        """A plan with every probability multiplied by ``factor``.

        The sweep knob of the chaos scenario: ``scaled(0.0)`` is the
        provably-inert zero plan, ``scaled(2.0)`` doubles every fault
        rate (clamped to 1).  Durations and retry budgets are unchanged.
        """
        if factor < 0:
            raise ValueError(f"factor must be >= 0, got {factor}")
        changes = {
            name: min(getattr(self, name) * factor, 1.0) for name in _PROB_FIELDS
        }
        return replace(self, **changes)
