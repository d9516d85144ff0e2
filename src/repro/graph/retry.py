"""Per-edge retry budgets with deterministic, deadline-aware give-up.

A retry is only worth issuing while the remaining end-to-end budget can
still cover one more downstream attempt; past that point a retry is a
guaranteed QoS violation that also feeds the overload it is reacting to
(the retry-storm amplification the acceptance gate measures).  The
policy here is a pure value object — ``give_up_reason`` is a total
function of ``(attempts, remaining, attempt_cost)`` with no clock and no
randomness, so retry decisions replay bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget for one call-graph edge (applied per node attempt)."""

    #: total attempts allowed per node per request (1 = never retry)
    max_attempts: int = 3
    #: linear backoff: the k-th retry waits ``k * backoff_s`` seconds
    backoff_s: float = 0.05
    #: when True, give up as soon as the remaining budget cannot cover
    #: the backoff plus one more downstream attempt (the paper-style
    #: "no retry past the point of no return"); when False the client
    #: retries until its attempt cap or its absolute deadline passes —
    #: the naive baseline the storm gate compares against
    deadline_aware: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """Single attempt, no retries (the pre-graph behaviour)."""
        return cls(max_attempts=1)

    @classmethod
    def budgeted(cls, max_attempts: int = 3, backoff_s: float = 0.05) -> "RetryPolicy":
        """The recommended bounded, deadline-aware budget."""
        return cls(max_attempts=max_attempts, backoff_s=backoff_s, deadline_aware=True)

    @classmethod
    def storm(cls) -> "RetryPolicy":
        """Naive high-cap deadline-blind client (acceptance-gate baseline).

        Bounded by its 64-attempt cap, far past where retries amplify an
        overload.  The absolute-deadline stop needs a request deadline, so
        without deadline propagation (the naive dag leg) only the cap ends it.
        """
        return cls(max_attempts=64, backoff_s=0.05, deadline_aware=False)

    def give_up_reason(
        self, attempts: int, remaining: Optional[float], attempt_cost: float
    ) -> Optional[str]:
        """Why the next retry must NOT be issued, or None to allow it.

        ``attempts`` is the number already made, ``remaining`` the
        remaining end-to-end budget (None = no deadline attached) and
        ``attempt_cost`` the critical-path cost of one more attempt at
        this node (service + downstream reservation).  Returns a
        ``RETRY_KINDS`` name: ``"exhausted"`` when the attempt cap is
        spent, ``"deadline_abandoned"`` when the budget cannot cover
        another attempt.
        """
        if attempts >= self.max_attempts:
            return "exhausted"
        backoff = self.backoff_s * attempts
        if remaining is not None:
            if self.deadline_aware:
                if remaining - backoff < attempt_cost:
                    return "deadline_abandoned"
            elif remaining <= backoff:
                # even the naive client stops once its own wall-clock
                # deadline has passed — it just doesn't look ahead
                return "deadline_abandoned"
        return None
