"""Per-microservice overload governor.

One :class:`OverloadGovernor` is shared by every layer that handles a
microservice's queries — the serverless frontend, the container pool,
the IaaS dispatch path and the hybrid engine — so the breaker sees the
union of both platforms' outcomes and the prewarm sizing (Eq. 7) can
account for traffic that was shed rather than served.

The governor holds no kernel handle and draws no randomness; callers
pass ``now`` explicitly.  With ``policy.enabled`` false every method is
a constant-time no-op, which is what makes the disabled policy
bit-identical to running without the layer.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

from repro.overload.admission import meets_deadline
from repro.overload.breaker import CircuitBreaker
from repro.overload.policy import OverloadPolicy

#: Bound on the shed-time ring buffer; at sane shed rates this holds far
#: more than the sizing horizon needs, and it caps worst-case memory.
_SHED_RING = 4096


class OverloadGovernor:
    """Admission, shedding and breaker decisions for one microservice."""

    def __init__(
        self,
        policy: OverloadPolicy,
        qos_target: float,
        mu_serverless: float,
        mu_iaas: float,
    ) -> None:
        if qos_target <= 0.0:
            raise ValueError("qos_target must be > 0")
        if mu_serverless <= 0.0 or mu_iaas <= 0.0:
            raise ValueError("service rates must be > 0")
        self.policy = policy
        self.qos_target = qos_target
        self.mu_serverless = mu_serverless
        self.mu_iaas = mu_iaas
        #: Absolute queue-wait budget, precomputed from the QoS target.
        self.wait_budget = policy.wait_budget(qos_target)
        self.breaker: Optional[CircuitBreaker] = (
            CircuitBreaker(policy) if policy.enabled and policy.breaker_enabled else None
        )
        #: Rejections by reason, across both platforms.
        self.rejections: Dict[str, int] = {"admission": 0, "shed": 0, "breaker": 0}
        self._shed_times: Deque[float] = deque(maxlen=_SHED_RING)

    # -- admission -----------------------------------------------------

    def admit(
        self,
        queued: int,
        busy: int,
        capacity: Callable[[], int],
        mu: float,
        now: float,
        deadline: Optional[float] = None,
    ) -> Optional[str]:
        """Admission verdict for one arrival; ``None`` admits, else the drop reason.

        Checks the brownout drop-tail, then the queue bound, then the
        M/M/N model for ``mu``, the calling platform's per-server rate
        (:attr:`mu_serverless` or :attr:`mu_iaas`).  ``capacity`` returns
        the server count and is only called once the model is consulted.
        ``deadline`` is a per-query *remaining* end-to-end budget
        (call-graph runs); None keeps the service's own QoS target,
        which is bit-identical to the pre-graph behaviour.
        """
        policy = self.policy
        if not policy.enabled:
            return None
        breaker = self.breaker
        if (
            policy.brownout_queue_depth > 0
            and breaker is not None
            and breaker.is_open(now)
            and queued >= policy.brownout_queue_depth
        ):
            return "breaker"
        if queued >= policy.max_queue_depth:
            return "admission"
        if policy.admission_control:
            servers = capacity()
            if servers < 1:
                return "admission"
            target = self.qos_target if deadline is None else deadline
            if target <= 0.0:
                # dead on arrival: the propagated budget is already spent
                return "admission"
            if not meets_deadline(queued, busy, servers, mu, target, policy.admission_slack):
                return "admission"
        return None

    def should_shed(self, waited: float, target: Optional[float] = None) -> bool:
        """Has a dequeued query already burned its queue-wait budget?

        ``target`` substitutes a per-query remaining budget (measured at
        enqueue time) for the service QoS target when a call-graph run
        propagates deadlines; None keeps the precomputed budget.
        """
        policy = self.policy
        if not (policy.enabled and policy.shed_expired):
            return False
        if target is None:
            return waited > self.wait_budget
        if target <= 0.0:
            return True
        return waited > policy.wait_budget(target)

    # -- signals -------------------------------------------------------

    def note_rejection(self, reason: str, now: float) -> None:
        """Record one dropped query (admission/shed/breaker)."""
        if reason not in self.rejections:
            raise ValueError(f"unknown rejection reason {reason!r}")
        self.rejections[reason] += 1
        self._shed_times.append(now)
        if self.breaker is not None:
            self.breaker.record(now, bad=True)

    def note_outcome(self, ok: bool, now: float) -> None:
        """Record one served query's QoS outcome (crash drops are not ok)."""
        if self.breaker is not None:
            self.breaker.record(now, bad=not ok)

    def note_switch_abort(self, now: float) -> None:
        """An aborted switch leg (PR 3 guard) counts as weighted badness."""
        if self.breaker is not None and self.policy.switch_abort_weight > 0:
            self.breaker.record(now, bad=True, weight=self.policy.switch_abort_weight)

    # -- state ---------------------------------------------------------

    def brownout(self, now: float) -> bool:
        """True while the breaker holds the service in brownout (OPEN)."""
        return self.breaker is not None and self.breaker.is_open(now)

    def shed_rate(self, now: float, horizon: float = 60.0) -> float:
        """Recently shed traffic in queries/s over the trailing horizon.

        Prewarm sizing adds this to the measured load so a
        serverless-bound switch provisions for the demand that was being
        dropped, not just the demand that survived.
        """
        if horizon <= 0.0:
            raise ValueError("horizon must be > 0")
        cutoff = now - horizon
        times = self._shed_times
        while times and times[0] < cutoff:
            times.popleft()
        return len(times) / horizon

    @property
    def total_rejections(self) -> int:
        return sum(self.rejections.values())
