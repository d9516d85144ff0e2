"""The overload scenario: shed-rate vs. p95 sweep with and without policy.

Runs :func:`~repro.experiments.scenarios.overload_scenario` — the
standard §VII setup driven to ``factor`` times the nominal peak with the
chaos fault mix on — twice per factor: once with the overload layer
disabled (the unprotected baseline) and once with the policy enabled.
Per factor the report shows offered/completed counts, the unified
``dropped{reason}`` split, both runs' admitted-query p95 against the QoS
target, the exact queue-depth high-water marks and the breaker
lifecycle — i.e. everything the overload acceptance criteria ask to see.

CLI: ``python -m repro.experiments overload [--day D --seed S]``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Union

from repro.experiments.executor import RunRequest, run_many
from repro.experiments.report import FigureResult
from repro.experiments.runner import RunResult
from repro.experiments.scenarios import overload_scenario
from repro.overload import OverloadPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.cache import RunCache

__all__ = ["overload_sweep"]

#: default offered-load sweep, as multiples of the nominal peak rate:
#: at-capacity, the acceptance point (2x), and a deep overload
DEFAULT_FACTORS: Tuple[float, ...] = (1.0, 2.0, 3.0)


def _fg_p95(result: RunResult, name: str) -> float:
    return result.services[name].metrics.latency_percentile(95)


def overload_sweep(
    name: str = "matmul",
    day: float = 1800.0,
    seed: int = 0,
    factors: Sequence[float] = DEFAULT_FACTORS,
    policy: Optional[OverloadPolicy] = None,
    fault_scale: float = 1.0,
    workers: Optional[int] = None,
    cache: Union["RunCache", None, bool] = None,
) -> FigureResult:
    """Sweep offered-load factors; report shed rate vs. admitted p95.

    Each factor's protected/unprotected pair is an independent seeded
    run, so the whole sweep fans out through
    :func:`~repro.experiments.executor.run_many` (``workers``/``cache``
    default to the process-wide executor configuration) and the report
    is ``float.hex``-identical for any worker count.
    """
    if not factors:
        raise ValueError("need at least one load factor")
    policy = policy if policy is not None else OverloadPolicy()
    requests = []
    for factor in factors:
        for leg_policy in (OverloadPolicy.disabled(), policy):
            requests.append(
                RunRequest(
                    system="amoeba",
                    scenario=overload_scenario(
                        name,
                        lambda_factor=factor,
                        policy=leg_policy,
                        fault_scale=fault_scale,
                        day=day,
                        seed=seed,
                    ),
                )
            )
    results = run_many(requests, workers=workers, cache=cache)
    qos = None
    rows = []
    runs = {}
    for i, factor in enumerate(factors):
        off, on = results[2 * i], results[2 * i + 1]
        runs[factor] = {"off": off, "on": on}
        m_on = on.services[name].metrics
        qos = m_on.qos_target
        ov = on.overload
        assert ov is not None and ov.policy_enabled
        offered = m_on.completed + m_on.failed
        shed_frac = m_on.failed / offered if offered else 0.0
        rows.append(
            [
                factor,
                offered,
                m_on.completed,
                m_on.drops.get("crash", 0),
                m_on.drops.get("admission", 0),
                m_on.drops.get("shed", 0),
                m_on.drops.get("breaker", 0),
                m_on.retries.get("attempted", 0),
                m_on.retries.get("exhausted", 0),
                m_on.retries.get("deadline_abandoned", 0),
                shed_frac,
                _fg_p95(off, name),
                _fg_p95(on, name),
                off.services[name].metrics.violation_fraction,
                m_on.violation_fraction,
                ov.peak_queue_depth_serverless,
                ov.peak_queue_depth_iaas,
                sum(state == "open" for _t, state in ov.breaker_transitions),
                ov.breaker_state,
            ]
        )
    return FigureResult(
        figure="overload",
        title=(
            f"overload sweep on {name!r} "
            f"(seed {seed}, day {day:g}s, QoS {qos:g}s, faults x{fault_scale:g})"
        ),
        headers=[
            "factor",
            "offered",
            "completed",
            "d_crash",
            "d_admit",
            "d_shed",
            "d_breaker",
            "r_attempted",
            "r_exhausted",
            "r_deadline",
            "shed_frac",
            "p95_off",
            "p95_on",
            "viol_off",
            "viol_on",
            "peakQ_sls",
            "peakQ_iaas",
            "br_opens",
            "br_state",
        ],
        rows=rows,
        notes=(
            "p95/viol are over admitted (completed) queries; *_off is the "
            "disabled-policy baseline at the same factor and seed.  d_* is "
            "the unified dropped{reason} family, r_* the retries{kind} "
            "family; peakQ_* the exact queue-depth high-water mark per "
            "platform."
        ),
        extras={"runs": runs, "policy": policy},
    )
