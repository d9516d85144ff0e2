"""GOOD: compliant counterparts of every bad fixture.

Simulated time flows through the environment, randomness through the
registry, no exact time equality, no rescheduling of cancelled events,
no mutable defaults, no bare except, frozen config dataclass.
"""

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class RetryConfig:
    attempts: int = 3
    backoff: float = 0.5


def is_due(now: float, deadline: float) -> bool:
    return now >= deadline


def record(sample: float, history: Optional[List[float]] = None) -> List[float]:
    if history is None:
        history = []
    history.append(sample)
    return history


def jitter(registry) -> float:
    return float(registry.stream("jitter").normal())


def roll(registry, prob: float) -> bool:
    # .random() for a [0, 1) roll; .uniform() only with explicit bounds
    spread = registry.stream("spread").uniform(0.5, 1.5)
    return registry.stream("roll").random() < prob * spread


def replan(env, timer, delay: float):
    timer.cancel()
    timer = env.timeout(delay)
    return timer


def drain(env) -> None:
    try:
        env.run()
    except RuntimeError:
        pass
