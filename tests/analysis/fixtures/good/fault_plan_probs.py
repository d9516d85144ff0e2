"""GOOD: fault probabilities as plan fields, drawn via a named stream.

The compliant counterpart of the SIM009 fixture: the rates live on a
frozen plan dataclass (class scope, sweepable per run) and the gate
draws from a named registry stream, so the injection sequence is fully
reproducible from the root seed.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class ProbePlan:
    crash_prob: float = 0.0
    ack_loss_prob: float = 0.0
    preemption_prob: float = 0.0
    spike_rate: float = 0.0


def maybe_crash(plan: ProbePlan, registry, service: str) -> bool:
    if plan.crash_prob <= 0.0:
        return False
    return registry.stream(f"faults/crash/{service}").random() < plan.crash_prob


def maybe_reclaim(plan: ProbePlan, registry, service: str) -> bool:
    if plan.preemption_prob <= 0.0:
        return False
    return registry.stream(f"faults/preemption/{service}").random() < plan.preemption_prob
